"""Checks that must fail on deliberately broken models.

Each broken model is built from public constructors only: the configured
half-line pair with one factor multiplied on the right by a scalar or a
diagonal matrix, or a perturbed bulk, doubled again by build_doubled_model
and run through run_suite at the default tolerance.
"""

import dataclasses
import json

import numpy as np
import pytest

from rtcheck.config import build_model, parse_config
from rtcheck.defect import DefectPair, delta_defect
from rtcheck.doubling import build_doubled_model
from rtcheck.smatrix import BulkSMatrix, rational_S
from rtcheck.suite import run_suite

EPS = 1e-3

# The same-parity commutators (0,2), (1,3) and the opt-in (2,4) are left
# out: no defect data built through public constructors can fail them.  Each
# part of H^(n) at p sums the traced word's terms times w^n, with w = p or
# w = -p, so H^(n)(p) = p^n U(p), one kernel U for each parity of n.  For m
# and n of one parity the products' A parts A_m(p) A_n(p) + B_m(p) B_n(-p)
# and A_n(p) A_m(p) + B_n(p) B_m(-p) are both p^(m+n) U_A U_A + (-1)^n
# p^(m+n) U_B(p) U_B(-p), as (-1)^m = (-1)^n, and the B parts agree
# likewise, so [H^(m), H^(n)] vanishes up to rounding; the reflection moment
# enters with the factor (-1)^m - (-1)^n = 0.  Under this perturbation (0,2)
# and (1,3) stay at rounding level (<= 1.6e-14), and (2,4) at 2.6e-13 or
# below under the scalar, phase and diag(1, 1 + EPS k) breaks of this file;
# only an engine-side break, such as a dress on the wrong leg, could fail
# them.
HIERARCHY_CHECKS = [
    "hierarchy-commutator(0,1)",
    "hierarchy-commutator(1,2)",
    "hierarchy-relation(0)",
    "hierarchy-relation(2)",
]


def _broken(model, factor: str, by=1 + EPS):
    """The model with its half-line transmission or reflection times ``by``,
    a scalar or the diagonal of a matrix (T(k) * by is T(k) @ diag(by)), or
    a function of k that gives one."""
    half = model.half_line
    R, T = half.R, half.T
    scale = by if callable(by) else lambda k: by
    if factor == "T":
        broken = DefectPair(half.dim, R, lambda k: T(k) * scale(k))
    else:
        broken = DefectPair(half.dim, lambda k: R(k) * scale(k), T)
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


def _momentum_diagonal(k):
    """diag(1, 1 + EPS k), as the row that scales columns, at one momentum
    or at each of a 1-d array."""
    return np.stack(np.broadcast_arrays(1.0, 1 + EPS * np.asarray(k)), -1)[..., None, :]


PROJECTED_ROWS = ["SRSR+", "SRSR-", "TST", "STT-", "STT+"]


@pytest.mark.parametrize("factor, failing", [
    ("T", ["TST", "STT-", "STT+"]),
    ("R", ["SRSR+", "SRSR-"]),
])
def test_projected_rows_fail_on_momentum_dependent_data(factor, failing):
    """The pure projected rows on the rational bulk (N = 2) hold for delta
    data, whose T and R are scalars.  With D(k) = diag(1, 1 + EPS k) on T
    or R, D(k1) (x) D(k2) commutes with the identity but not with the swap
    P, as D(k1) != D(k2), so not with the rational S either, and the rows
    that carry the broken factor fail.  The constant diag(1, 1 + EPS) of
    test_exchange_checks_fail_on_non_scalar_data cannot break STT+-:
    D (x) D commutes with P and so with the rational S."""
    model = _delta_model("rational:N=2,c=1", PROJECTED_ROWS, samples=5)
    failed = _failures(model, factor, _momentum_diagonal)
    assert sorted(failed) == sorted(failing)
    assert min(failed.values()) > 1e-4


def _with_bulk(model, bulk: BulkSMatrix):
    return dataclasses.replace(model, bulk=bulk, doubled=build_doubled_model(bulk, model.half_line))


def _new_failures(model, broken) -> dict[str, float]:
    """Checks that fail on ``broken`` but pass on ``model``, with their residuals."""
    failing = {c.check_id for c in run_suite(model).checks if not c.passed}
    return {c.check_id: c.max_residual for c in run_suite(broken).checks
            if not c.passed and c.check_id not in failing}


RATIONAL = rational_S(2, 1.0)


def test_unitarity_checks_fail_on_a_scaled_bulk():
    """(1 + EPS) s is no longer unitary, but it solves the Yang-Baxter
    equation, whose sides both scale by (1 + EPS)^3, and it scales both
    sides of every relation that passes alike.  Only the mixed relations
    fail on the unbroken rational model (a no-go, see defect.relation_residual)."""
    model = _delta_model("rational:N=2,c=1", [], samples=5)
    scaled = BulkSMatrix(2, lambda k1, k2: (1 + EPS) * RATIONAL.eval(k1, k2), True)
    failed = _new_failures(model, _with_bulk(model, scaled))
    assert sorted(failed) == ["unitarity-S", "unitarity-S(doubled)"]
    assert min(failed.values()) > 1e-3


def test_shift_invariance_fails_on_a_bulk_that_is_not_of_difference_form():
    """S(k1 + EPS (k1 + k2), k2) depends on k1 + k2 as well as k1 - k2,
    although it declares itself translation invariant."""
    model = _delta_model("rational:N=2,c=1", ["shift-invariance"])
    shifted = BulkSMatrix(2, lambda k1, k2: RATIONAL.eval(k1 + EPS * (k1 + k2), k2), True)
    failed = _new_failures(model, _with_bulk(model, shifted))
    assert list(failed) == ["shift-invariance"]
    assert failed["shift-invariance"] > 1e-4


@pytest.mark.parametrize("checks, failing", [
    ([], ["factorization(1)", "factorization(2)", "factorization(3)", "opta-agreement"]),
    (["factorization(4)"], ["factorization(4)"]),  # opt-in: a config must ask for it
], ids=["default", "factorization(4)"])
def test_engine_checks_fail_when_the_half_line_pair_is_not_the_doubled_one(checks, failing):
    """opta-agreement and factorization compare the engine, which reads the
    doubled pair, with products of the half-line amplitudes: a half line
    delta(1 + EPS) under the doubled pair of delta(1) fails exactly those.
    Every other check reads one of the two pairs only, and each is unitary."""
    model = _delta_model("identity:dim=1", checks, samples=5)
    doubled = dataclasses.replace(model.doubled, half_line=delta_defect(1 + EPS))
    failed = _new_failures(model, dataclasses.replace(model, doubled=doubled))
    assert sorted(failed) == failing
    assert min(failed.values()) > 1e-4
