"""Record the golden reference the benchmark checks every operation against.

    python3 bench/make_golden.py

writes bench/golden/verdicts.json (the verdict of every check of the verify
configs and of the relations workload) and bench/golden/amplitudes.json
(the term pairings and coefficients of every amplitude pool draw).  A
verdict is recorded only if it is the same for every seed tried, because
the benchmark draws its seeds freely.  Run it at the commit whose behaviour
is the reference; later commits are checked against the files it wrote.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

VERIFY_SEEDS = range(8)
RELATIONS_SEEDS = range(3)


def seed_independent(name: str, runs: list[list]) -> list:
    for other in runs[1:]:
        if other != runs[0]:
            raise SystemExit(f"{name}: verdicts depend on the seed; no golden recorded")
    return runs[0]


def verify_verdicts() -> dict:
    out = {}
    for config in wl.VERIFY_CONFIGS:
        runs = []
        for seed in VERIFY_SEEDS:
            code, text = wl.run_cli(wl.verify_argv(config, seed))
            if code not in (0, 1):
                raise SystemExit(f"verify {config} seed {seed} exited {code}")
            runs.append(wl.check_ids(json.loads(text)))
        out[config] = seed_independent(config, runs)
    return out


def relations_verdicts() -> list:
    from rtcheck.config import build_model, parse_config
    from rtcheck.suite import run_suite

    model = build_model(parse_config(wl.config_path(wl.RELATIONS_CONFIG).read_text()))
    runs = []
    for seed in RELATIONS_SEEDS:
        cfg = dataclasses.replace(model.cfg, seed=seed)
        report = run_suite(dataclasses.replace(model, cfg=cfg))
        runs.append([[c.check_id, c.passed] for c in report.checks])
    return seed_independent(wl.RELATIONS_CONFIG, runs)


def amplitude_pool() -> dict:
    out = {}
    for config, n in wl.AMPLITUDE_CASES:
        entries = []
        for index in range(wl.AMPLITUDE_POOL):
            ks, ps = wl.amplitude_draw(config, n, index)
            code, text = wl.run_cli(wl.amplitude_argv(config, n, ks, ps))
            if code != 0:
                raise SystemExit(f"amplitude {config} n={n} exited {code}")
            terms = json.loads(text)["terms"]
            entries.append({
                "in": ks,
                "out": ps,
                "pairings": wl.pairing_digest(terms),
                "coefficients": [[t["coefficient"]["re"], t["coefficient"]["im"]]
                                 for t in terms],
            })
        out[f"{config}/n{n}"] = entries
        print(f"amplitude {config} n={n}: {len(terms)} terms", file=sys.stderr)
    return out


def write(name: str, data) -> None:
    path = wl.GOLDEN / f"{name}.json"
    path.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {path.relative_to(HERE.parent)}", file=sys.stderr)


def main() -> int:
    wl.GOLDEN.mkdir(exist_ok=True)
    write("verdicts", {"verify": verify_verdicts(), "relations": relations_verdicts()})
    write("amplitudes", amplitude_pool())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
