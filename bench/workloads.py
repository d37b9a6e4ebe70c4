"""The three benchmark workloads: inputs made from the workload seed, one
operation at a time, and the check of every result against the golden
reference recorded by make_golden.py.

A workload runs in passes.  A pass is the workload's fixed set of operations
(three verify invocations, 41 relation checks or nine amplitude queries);
its inputs are drawn from (workload, seed, pass number), so passes of one
run see different inputs and two runs with one seed see the same inputs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
GOLDEN = HERE / "golden"

VERIFY_CONFIGS = ("delta_n1", "rational_n2", "rational_n3")
RELATIONS_CONFIG = "relations_n3"
# (config, n): N=1 with n=1..4, N=2 with n=1..3, N=3 with n=1..2
AMPLITUDE_CASES = tuple(
    [("delta_n1", n) for n in (1, 2, 3, 4)]
    + [("rational_n2", n) for n in (1, 2, 3)]
    + [("rational_n3", n) for n in (1, 2)]
)
AMPLITUDE_POOL = 8  # momentum draws per case with recorded coefficients
# Rounding-level tolerance on a term coefficient: its magnitude is O(1), a
# reordered sum over at most a few hundred networks moves it by ~1e-15.
AMPLITUDE_TOL = 1e-11
SEED_RANGE = 2**31


def config_path(name: str) -> Path:
    return CONFIGS / f"{name}.json"


def derived_rng(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


def run_cli(argv: list[str]) -> tuple[int, str]:
    """rtcheck.cli.main in-process, standard output captured."""
    from rtcheck import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def verify_argv(config: str, seed: int) -> list[str]:
    return ["verify", "--config", str(config_path(config)), "--format", "json",
            "--seed", str(seed)]


def draw_momenta(n: int, rng: random.Random) -> list[float]:
    """n momenta in [-3, 3] with |k| and every |k_i -+ k_j| at least 0.1."""
    values: list[float] = []
    while len(values) < n:
        k = round(rng.uniform(-3.0, 3.0), 4)
        if abs(k) < 0.1 or any(abs(k - v) < 0.1 or abs(k + v) < 0.1 for v in values):
            continue
        values.append(k)
    return values


def amplitude_draw(config: str, n: int, index: int) -> tuple[list[float], list[float]]:
    """Pool entry `index` of a case: in-momenta increasing, out-momenta
    decreasing (the physical order the CLI requires)."""
    rng = derived_rng("amplitude", config, n, index)
    ks = sorted(draw_momenta(n, rng))
    ps = sorted(draw_momenta(n, rng), reverse=True)
    return ks, ps


def amplitude_argv(config: str, n: int, ks, ps) -> list[str]:
    return ["amplitude", "--config", str(config_path(config)), "--n", str(n),
            "--in=" + ",".join(repr(k) for k in ks),
            "--out=" + ",".join(repr(p) for p in ps)]


def pairing_digest(terms: list[dict]) -> str:
    shape = [[t["pairing"], t["two_pi_power"]] for t in terms]
    return hashlib.sha256(json.dumps(shape, sort_keys=True).encode()).hexdigest()[:16]


def check_ids(report: dict) -> list[list]:
    return [[c["id"], c["pass"]] for c in report["checks"]]


def load_golden(name: str) -> dict:
    with open(GOLDEN / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


@dataclasses.dataclass
class Op:
    """One timed operation: `run` is timed, `check` returns an error or None."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


class Workload:
    """A named source of passes; `setup_configs` are the configs that
    setup_s reads, parses and builds in a fresh interpreter."""

    name = ""
    setup_configs: tuple[str, ...] = ()

    def setup(self) -> None:
        """In-process set-up before the timed loop (not timed)."""

    def pass_ops(self, seed: int, index: int) -> list[Op]:
        raise NotImplementedError


class VerifyWorkload(Workload):
    """`rtcheck verify --format json` on the three baseline configs."""

    name = "verify"
    setup_configs = VERIFY_CONFIGS

    def setup(self) -> None:
        self.golden = load_golden("verdicts")["verify"]

    def _op(self, config: str, seed: int) -> Op:
        argv = verify_argv(config, seed)
        golden = self.golden[config]

        def check(out) -> str | None:
            code, text = out
            want_code = 0 if all(ok for _, ok in golden) else 1
            if code != want_code:
                return f"exit {code}, golden {want_code}"
            got = check_ids(json.loads(text))
            if got != golden:
                bad = [g for g, w in zip(got, golden) if g != w] or ["check list differs"]
                return f"verdicts differ from golden: {bad[:3]}"
            return None

        return Op(f"verify {config} seed={seed}", lambda: run_cli(argv), check)

    def pass_ops(self, seed: int, index: int) -> list[Op]:
        rng = derived_rng("verify", seed, index)
        return [self._op(c, rng.randrange(SEED_RANGE)) for c in VERIFY_CONFIGS]


class RelationsWorkload(Workload):
    """run_suite on rational N=3 (doubled, 200 samples), one check per op."""

    name = "relations"
    setup_configs = (RELATIONS_CONFIG,)

    def setup(self) -> None:
        from rtcheck.config import build_model, parse_config

        self.golden = dict(map(tuple, load_golden("verdicts")["relations"]))
        self.model = build_model(parse_config(config_path(RELATIONS_CONFIG).read_text()))
        self.checks = self.model.cfg.checks

    def _op(self, check: str, seed: int) -> Op:
        from rtcheck.suite import run_suite

        cfg = dataclasses.replace(self.model.cfg, checks=(check,), seed=seed)
        model = dataclasses.replace(self.model, cfg=cfg)
        want = self.golden[check]

        def verdict(report) -> str | None:
            got = [(c.check_id, c.passed) for c in report.checks]
            if got != [(check, want)]:
                return f"{got} differs from golden {[(check, want)]}"
            return None

        return Op(f"{check} seed={seed}", lambda: run_suite(model), verdict)

    def pass_ops(self, seed: int, index: int) -> list[Op]:
        sample_seed = derived_rng("relations", seed, index).randrange(SEED_RANGE)
        return [self._op(c, sample_seed) for c in self.checks]


class AmplitudeWorkload(Workload):
    """`rtcheck amplitude` queries, N=1 n=1..4, N=2 n=1..3, N=3 n=1..2."""

    name = "amplitude"
    setup_configs = VERIFY_CONFIGS

    def setup(self) -> None:
        self.golden = load_golden("amplitudes")

    def _op(self, config: str, n: int, index: int) -> Op:
        entry = self.golden[f"{config}/n{n}"][index]
        argv = amplitude_argv(config, n, entry["in"], entry["out"])

        def check(out) -> str | None:
            code, text = out
            if code != 0:
                return f"exit {code}"
            terms = json.loads(text)["terms"]
            if pairing_digest(terms) != entry["pairings"]:
                return "term pairings differ from golden"
            for t, (re, im) in zip(terms, entry["coefficients"]):
                c = t["coefficient"]
                if abs(complex(c["re"], c["im"]) - complex(re, im)) > AMPLITUDE_TOL:
                    return f"coefficient {c} differs from golden {(re, im)}"
            return None

        return Op(f"amplitude {config} n={n} draw={index}", lambda: run_cli(argv), check)

    def pass_ops(self, seed: int, index: int) -> list[Op]:
        rng = derived_rng("amplitude", seed, index)
        return [self._op(c, n, rng.randrange(AMPLITUDE_POOL)) for c, n in AMPLITUDE_CASES]


WORKLOADS = {w.name: w for w in (VerifyWorkload, RelationsWorkload, AmplitudeWorkload)}
