"""Checks that must fail on deliberately broken models.

Each broken model is built from public constructors only: the configured
half-line pair with one factor scaled, doubled again by build_doubled_model
and run through run_suite at the default tolerance.
"""

import dataclasses
import json

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


def _broken(model, factor: str):
    """The model with its half-line transmission or reflection times 1 + EPS."""
    half = model.half_line
    R, T = half.reflection, half.transmission
    if factor == "T":
        broken = DefectPair(half.dim, R, lambda k: (1 + EPS) * T(k))
    else:
        broken = DefectPair(half.dim, lambda k: (1 + EPS) * R(k), T)
    return dataclasses.replace(
        model, half_line=broken, doubled=build_doubled_model(model.bulk, broken))


@pytest.mark.parametrize("factor", ["T", "R"])
@pytest.mark.parametrize("bulk", ["rational:N=2,c=1", "identity:dim=1"])
def test_hierarchy_checks_fail_on_a_non_unitary_defect(bulk, factor):
    model = build_model(parse_config(json.dumps({
        "bulk": bulk,
        "defect": {"name": "delta", "eta": 1.0},
        "samples": 3,
        "checks": HIERARCHY_CHECKS,
    })))
    assert run_suite(model).all_pass  # the unbroken model passes
    report = run_suite(_broken(model, factor))
    failed = {c.check_id: c.max_residual for c in report.checks if not c.passed}
    assert sorted(failed) == sorted(HIERARCHY_CHECKS)
    assert min(failed.values()) > 1e-4
