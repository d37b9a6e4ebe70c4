"""Command-line interface: verify a model, query amplitudes, list catalogs.

Exit codes: 0 all checks pass, 1 at least one check fails, 2 configuration
or domain error; a reader that closes early (`| head`) changes none of them.
A command that runs out of memory exits 2 too, with one line on stderr.
Every `main` call in a process parses with one shared parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
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


def _cmd_verify(args):
    cfg = _load_config(args.config, args.seed)
    model = build_model(cfg)
    report = run_suite(model)
    return 0 if report.all_pass else 1, [emit_report(report, args.format)]


def _parse_momenta(text: str) -> list[float]:
    try:
        momenta = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad momentum list {text!r}: {exc}") from exc
    if not all(map(math.isfinite, momenta)):
        raise ConfigError(f"bad momentum list {text!r}: momenta must be finite")
    return momenta


def _cmd_amplitude(args):
    model = build_model(_load_config(args.config))
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
    seeds = dict(zip(in_labels, ks))
    values = fock.physical_coefficients(
        expr, [(term, fock.resolve_momenta(term, expr.word, seeds)) for term in expr.terms], dm)
    pairings = ([(expr.word[a_pos].label, expr.word[c_pos].label, rel)
                 for a_pos, c_pos, rel in term.pairing] for term in expr.terms)
    return 0, amplitude_json(n, ks, ps, nonphysical, zip(pairings, values))


def _number(x: float) -> str:
    """A float as ``json.dumps`` writes it (NaN and Infinity included)."""
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _array(items: list[str], indent: str) -> str:
    if not items:
        return "[]"
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


_TERM = """{
      "coefficient": {
        "im": %s,
        "re": %s
      },
      "pairing": %s,
      "two_pi_power": 0
    }"""  # coefficients are against the bare delta


@functools.lru_cache(maxsize=256)
def _pair(out: str, in_: str, sign: int) -> str:
    return """{
          "in": %s,
          "out": %s,
          "sign": %d
        }""" % (json.dumps(in_), json.dumps(out), sign)


def amplitude_json(n: int, ks: list[float], ps: list[float], nonphysical: bool, terms):
    """The amplitude document, chunk by chunk, exactly as
    ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"`` writes it.  ``terms``
    yields (pairing, coefficient) with the pairing a list of (out label, in
    label, sign); one chunk holds one term record."""
    yield ('{\n  "in_momenta": %s,\n  "n": %d,\n  "nonphysical_ordering": %s,\n'
           '  "out_momenta": %s,\n  "terms": ' % (
               _array([_number(k) for k in ks], "  "), n, json.dumps(nonphysical),
               _array([_number(p) for p in ps], "  ")))
    sep = "[\n    "  # before the first record, then ",\n    "
    for pairing, value in terms:
        pairs = _array([_pair(*p) for p in pairing], "      ")
        yield sep + _TERM % (_number(value.imag), _number(value.real), pairs)
        sep = ",\n    "
    yield "[]\n}\n" if sep[0] == "[" else "\n  ]\n}\n"


def _cmd_catalog(_args):
    out = {
        "bulk": list(BULK_CATALOG),
        "defect": list(DEFECT_CATALOG),
        "checks": list(available_checks()),
    }
    return 0, [json.dumps(out, sort_keys=True, indent=2) + "\n"]


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared by every call: do not
    mutate it.  Each parse still starts from its defaults, and help is laid
    out at the terminal width of the moment."""
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
    p_amp.set_defaults(fn=_cmd_amplitude)

    p_cat = sub.add_parser("catalog", help="list built-in models and checks")
    p_cat.set_defaults(fn=_cmd_catalog)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        code, chunks = args.fn(args)
        for chunk in chunks:
            sys.stdout.write(chunk)
        sys.stdout.flush()  # so that a closed reader shows here, not at exit
    except BrokenPipeError:  # the reader has what it wanted; the exit flush goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except (ConfigError, OSError, ValueError) as exc:
        sys.stderr.write(f"rtcheck: error: {exc}\n")
        return 2
    except MemoryError as exc:  # numpy's _ArrayMemoryError is one
        sys.stderr.write(f"rtcheck: error: out of memory: {exc}\n")
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
