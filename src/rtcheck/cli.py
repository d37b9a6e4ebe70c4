"""Command-line interface: verify a model, query amplitudes, list catalogs.

Exit codes: 0 all checks pass, 1 at least one check fails, 2 configuration
or domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

from . import fock
from .config import (
    BULK_CATALOG,
    DEFECT_CATALOG,
    ConfigError,
    build_model,
    parse_config,
)
from .defect import ZeroMomentumError
from .report import emit_report
from .suite import available_checks, run_suite


def _load_config(path: str, seed_override=None):
    with open(path, "r", encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    if seed_override is not None:
        cfg = replace(cfg, seed=int(seed_override))
    return cfg


def _cmd_verify(args) -> int:
    cfg = _load_config(args.config, args.seed)
    model = build_model(cfg)
    report = run_suite(model)
    sys.stdout.write(emit_report(report, args.format))
    return 0 if report.all_pass else 1


def _parse_momenta(text: str) -> list[float]:
    try:
        momenta = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad momentum list {text!r}: {exc}") from exc
    if not all(map(math.isfinite, momenta)):
        raise ConfigError(f"bad momentum list {text!r}: momenta must be finite")
    return momenta


def _cmd_amplitude(args) -> int:
    cfg = _load_config(args.config, args.seed)
    model = build_model(cfg)
    if model.doubled is None:
        raise ConfigError("amplitude queries need a doubled model (doubled: true)")
    dm = model.doubled
    n = args.n
    if n < 0:
        raise ConfigError("n must be >= 0")
    ks = _parse_momenta(args.in_momenta) if args.in_momenta else []
    ps = _parse_momenta(args.out_momenta) if args.out_momenta else []
    if len(ks) != n or len(ps) != n:
        raise ConfigError(f"expected {n} in- and out-momenta")
    nonphysical = False
    if n > 0:
        try:
            fock.validate_orderings(ks, ps)
        except ZeroMomentumError:
            raise  # a domain error, which no override admits
        except ValueError as exc:
            if not args.allow_nonphysical:
                raise ConfigError(f"{exc} (pass --allow-nonphysical to override)")
            nonphysical = True

    in_labels = [f"k{i+1}" for i in range(n)]
    out_labels = [f"p{i+1}" for i in range(n)]
    expr = fock.n_particle_expression(n, in_labels, out_labels, dm)
    terms_out, cache = [], {}  # one leaf cache for all terms of the query
    for term in expr.terms:
        seeds = {in_labels[i]: ks[i] for i in range(n)}
        env = fock.resolve_momenta(term, expr.word, seeds)
        value = fock.physical_coefficient(expr, term, env, dm, cache)
        pairing = [
            {"out": expr.word[a_pos].label, "in": expr.word[c_pos].label, "sign": rel}
            for a_pos, c_pos, rel in term.pairing
        ]
        terms_out.append(
            {
                "pairing": pairing,
                "coefficient": {"re": value.real, "im": value.imag},
                "two_pi_power": 0,  # coefficients are against the bare delta
            }
        )
    out = {
        "n": n,
        "in_momenta": ks,
        "out_momenta": ps,
        "nonphysical_ordering": nonphysical,
        "terms": terms_out,
    }
    sys.stdout.write(json.dumps(out, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_catalog(_args) -> int:
    out = {
        "bulk": list(BULK_CATALOG),
        "defect": list(DEFECT_CATALOG),
        "checks": list(available_checks()),
    }
    sys.stdout.write(json.dumps(out, sort_keys=True, indent=2) + "\n")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtcheck",
        description="Verify impurity scattering identities and query amplitudes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--config", required=True, help="path to a JSON config")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_verify.set_defaults(fn=_cmd_verify)

    p_amp = sub.add_parser("amplitude", help="n-particle amplitude term list")
    p_amp.add_argument("--config", required=True)
    p_amp.add_argument("--n", type=int, required=True)
    p_amp.add_argument("--in", dest="in_momenta", default="", help="k1,k2,...")
    p_amp.add_argument("--out", dest="out_momenta", default="", help="p1,p2,...")
    p_amp.add_argument("--allow-nonphysical", action="store_true")
    p_amp.add_argument("--seed", type=int, default=None)
    p_amp.set_defaults(fn=_cmd_amplitude)

    p_cat = sub.add_parser("catalog", help="list built-in models and checks")
    p_cat.set_defaults(fn=_cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, OSError, ValueError) as exc:
        sys.stderr.write(f"rtcheck: error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
