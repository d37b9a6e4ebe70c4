"""Checks that must fail on deliberately broken models.

Each broken model is built from public constructors only: the configured
half-line pair with one factor multiplied on the right by a scalar or a
diagonal matrix, doubled again by build_doubled_model and run through
run_suite at the default tolerance.
"""

import dataclasses
import json

import numpy as np
import pytest

from rtcheck.config import build_model, parse_config
from rtcheck.defect import DefectPair
from rtcheck.doubling import build_doubled_model
from rtcheck.suite import run_suite

EPS = 1e-3

# The same-parity commutators (0,2) and (1,3) are left out: both sides
# vanish for any defect data, since H^(m) and H^(n) are two moments of one
# kernel whose parts have the same parity under p -> -p, and the reflection
# moment enters with the factor (-1)^m - (-1)^n = 0.  Under this
# perturbation they stay at rounding level (<= 1.6e-14).
HIERARCHY_CHECKS = [
    "hierarchy-commutator(0,1)",
    "hierarchy-commutator(1,2)",
    "hierarchy-relation(0)",
    "hierarchy-relation(2)",
]


def _broken(model, factor: str, by=1 + EPS):
    """The model with its half-line transmission or reflection times ``by``,
    a scalar or the diagonal of a matrix (T(k) * by is T(k) @ diag(by))."""
    half = model.half_line
    R, T = half.R, half.T
    if factor == "T":
        broken = DefectPair(half.dim, R, lambda k: T(k) * by)
    else:
        broken = DefectPair(half.dim, lambda k: R(k) * by, T)
    return dataclasses.replace(
        model, half_line=broken, doubled=build_doubled_model(model.bulk, broken))


def _delta_model(bulk: str, checks: list[str], samples: int = 3):
    return build_model(parse_config(json.dumps({
        "bulk": bulk,
        "defect": {"name": "delta", "eta": 1.0},
        "samples": samples,
        "checks": checks,
    })))


def _failures(model, factor: str, by=1 + EPS) -> dict[str, float]:
    assert run_suite(model).all_pass  # the unbroken model passes
    report = run_suite(_broken(model, factor, by))
    return {c.check_id: c.max_residual for c in report.checks if not c.passed}


@pytest.mark.parametrize("factor", ["T", "R"])
@pytest.mark.parametrize("bulk", ["rational:N=2,c=1", "identity:dim=1"])
def test_hierarchy_checks_fail_on_a_non_unitary_defect(bulk, factor):
    failed = _failures(_delta_model(bulk, HIERARCHY_CHECKS), factor)
    assert sorted(failed) == sorted(HIERARCHY_CHECKS)
    assert min(failed.values()) > 1e-4


VACUUM_CHECKS = ["defect-unitarity", "symmetrized-unitarity", "J-squared", "involution-U-squared"]
EXCHANGE_CHECKS = ["rr1", "tt1", "tr1", "reduced-tau-tau", "reduced-tau-rho", "reduced-rho-rho"]


@pytest.mark.parametrize("factor", ["T", "R"])
@pytest.mark.parametrize("bulk", ["rational:N=2,c=1", "identity:dim=1"])
@pytest.mark.parametrize("by, also_failing", [
    (1 + EPS, []),
    (np.exp(1j * EPS), ["hermitian-analyticity"]),
])
def test_vacuum_checks_fail_on_scaled_scalar_data(bulk, factor, by, also_failing):
    """A scalar factor on T or R breaks unitarity, so every vacuum check
    fails.  A real factor leaves T(k)^dag = T(-k) and R(k)^dag = R(-k)
    intact, so hermitian-analyticity needs the phase e^{i EPS} to see it.
    The exchange checks must hold under both: each side of rr1/tt1/tr1 and
    of the reduced relations carries the same R and T factors, so a constant
    factor scales both sides alike.  That is why
    test_exchange_checks_fail_on_non_scalar_data needs matrix data."""
    checks = VACUUM_CHECKS + ["hermitian-analyticity"] + EXCHANGE_CHECKS
    failed = _failures(_delta_model(bulk, checks, samples=5), factor, by)
    assert sorted(failed) == sorted(VACUUM_CHECKS + also_failing)
    assert min(failed.values()) > 1e-4


@pytest.mark.parametrize("factor, failing", [
    ("T", ["tt1", "tr1", "reduced-tau-tau", "reduced-tau-rho"]),
    ("R", ["rr1", "tr1", "reduced-rho-rho"]),
])
def test_exchange_checks_fail_on_non_scalar_data(factor, failing):
    """tau(k) or rho(k) times diag(1, 1 + EPS) is no longer a multiple of
    the identity on C^2, so it does not commute with the nonconstant
    rational S (N = 2; on N = 1 every diagonal is a scalar).  The exchange
    relations that carry the broken factor fail; the others hold."""
    model = _delta_model("rational:N=2,c=1", EXCHANGE_CHECKS, samples=5)
    failed = _failures(model, factor, np.array([1.0, 1.0 + EPS]))
    assert sorted(failed) == sorted(failing)
    assert min(failed.values()) > 1e-7
