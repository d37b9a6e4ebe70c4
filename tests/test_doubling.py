import numpy as np
import pytest

from rtcheck.defect import DefectPair
from rtcheck.doubling import (
    REDUCED_VARIANTS,
    build_doubled_model,
    double_S_bulk,
    double_defect,
    involution_matrix,
    reduced_relation_residual,
    symmetrized_unitarity_residual,
)
from rtcheck.smatrix import (
    BulkSMatrix,
    identity_S,
    rational_S,
    sample_momenta,
    unitarity_residual,
    ybe_residual,
)
from rtcheck.tensor import norm_inf, permutation_operator

ETA = 1.0
T_delta = lambda k: np.array([[k / (k + 1j * ETA)]])
R_delta = lambda k: np.array([[-1j * ETA / (k + 1j * ETA)]])
DELTA = DefectPair(1, R_delta, T_delta)
KS = sample_momenta(32, seed=8)
PAIRS = list(zip(KS, KS[1:]))


class TestEmbedCalRT:
    """double_defect's blocks: calR block-diagonal, calT block-antidiagonal."""

    def test_delta_scalars_give_textbook_matrices(self):
        doubled = double_defect(DELTA)
        for k in KS[:8]:
            t, r = T_delta(k)[0, 0], R_delta(k)[0, 0]
            expected_T = np.array([[0, t], [np.conj(t), 0]])
            expected_R = np.diag([r, np.conj(r)])
            assert norm_inf(doubled.T(k) - expected_T) < 1e-15
            assert norm_inf(doubled.R(k) - expected_R) < 1e-15

    def test_zero_reflection(self):
        doubled = double_defect(DefectPair(2, lambda k: np.zeros((2, 2)), lambda k: np.eye(2)))
        assert norm_inf(doubled.R(0.7)) == 0.0

    def test_identity_transmission_is_half_line_flip(self):
        doubled = double_defect(DefectPair(2, lambda k: np.zeros((2, 2)), lambda k: np.eye(2)))
        flip = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2))
        assert norm_inf(doubled.T(1.3) - flip) == 0.0


class TestDoubleSBulk:
    def test_scalar_free_bulk_doubles_to_identity(self):
        got = double_S_bulk(identity_S(1)).eval(0.4, -0.9)
        assert norm_inf(got - np.eye(4)) == 0.0

    def test_doubled_rational_passes_ybe_and_unitarity(self):
        dS = double_S_bulk(rational_S(2, 1.0))
        ks = sample_momenta(52, seed=12)
        worst_ybe = max(ybe_residual(dS, *t) for t in zip(ks, ks[1:], ks[2:]))
        worst_uni = max(unitarity_residual(dS, a, b) for a, b in zip(ks, ks[1:]))
        assert worst_ybe <= 1e-10
        assert worst_uni <= 1e-12

    def test_translation_invariance_is_broken(self):
        dS = double_S_bulk(rational_S(2, 1.0))
        shift = norm_inf(dS.eval(0.3 + 0.5, 0.9 + 0.5) - dS.eval(0.3, 0.9))
        assert shift > 1e-3

    def test_off_sector_blocks_vanish_exactly(self):
        N = 2
        dS = double_S_bulk(rational_S(N, 1.0))
        m = dS.eval(0.7, -1.2).reshape(2, N, 2, N, 2, N, 2, N)
        for x1 in range(2):
            for x2 in range(2):
                for e1 in range(2):
                    for e2 in range(2):
                        if (x1, x2) != (e1, e2):
                            assert np.all(m[x1, :, x2, :, e1, :, e2, :] == 0.0)

    def test_requires_translation_invariance(self):
        odd = BulkSMatrix(1, lambda k1, k2: np.eye(1), False)
        with pytest.raises(ValueError):
            double_S_bulk(odd)


class TestDoubleDefect:
    def test_delta_scalars_match_textbook_with_reflected_lower_blocks(self):
        doubled = double_defect(DELTA)
        t, r = doubled.T, doubled.R
        k = 0.7
        assert norm_inf(t(k) - np.array([[0, T_delta(k)[0, 0]], [T_delta(-k)[0, 0], 0]])) == 0.0
        assert norm_inf(r(k) - np.diag([R_delta(k)[0, 0], R_delta(-k)[0, 0]])) == 0.0

    def test_pure_transmission_shape(self):
        doubled = double_defect(DefectPair(1, lambda k: np.zeros((1, 1)), lambda k: np.eye(1)))
        assert norm_inf(doubled.T(0.9) - np.array([[0, 1], [1, 0]])) == 0.0
        assert norm_inf(doubled.R(0.9)) == 0.0

    def test_delta_scalars_satisfy_symmetrized_unitarity(self):
        for k in KS[:10]:
            assert symmetrized_unitarity_residual(DELTA, k) <= 1e-13


class TestReducedRelations:
    @pytest.mark.parametrize("variant", REDUCED_VARIANTS)
    def test_identity_bulk_scalars(self, variant):
        for a, b in PAIRS[:6]:
            assert reduced_relation_residual(identity_S(1), DELTA, a, b, variant) == 0.0

    @pytest.mark.parametrize("variant", REDUCED_VARIANTS)
    def test_rational_bulk_delta_scalars(self, variant):
        S = rational_S(2, 1.0)
        tau = lambda k: T_delta(k)[0, 0] * np.eye(2)
        rho = lambda k: R_delta(k)[0, 0] * np.eye(2)
        worst = max(
            reduced_relation_residual(S, DefectPair(2, rho, tau), a, b, variant)
            for a, b in PAIRS
        )
        assert worst <= 1e-10

    def test_pure_transmission_tau_tau(self):
        S = rational_S(2, 1.0)
        tau = lambda k: ((k - 1j) / (k + 1j)) * np.eye(2)  # unitary scalar
        rho = lambda k: np.zeros((2, 2))
        for a, b in PAIRS[:8]:
            assert reduced_relation_residual(S, DefectPair(2, rho, tau), a, b, "tau-tau") <= 1e-14

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            reduced_relation_residual(identity_S(1), DELTA, 1.0, 2.0, "xx")


class TestInvolutionMatrix:
    def test_pure_transmission_squares_to_identity(self):
        model = build_doubled_model(
            identity_S(1), DefectPair(1, lambda k: np.zeros((1, 1)), lambda k: np.eye(1))
        )
        u = involution_matrix(model.defect, 0.7)
        assert norm_inf(u @ u - np.eye(4)) == 0.0

    def test_delta_model(self):
        model = build_doubled_model(identity_S(1), DELTA)
        u = involution_matrix(model.defect, 0.7)
        assert norm_inf(u @ u - np.eye(4)) <= 1e-13

    def test_pure_reflection(self):
        model = build_doubled_model(
            identity_S(1), DefectPair(1, lambda k: -np.eye(1), lambda k: np.zeros((1, 1)))
        )
        u = involution_matrix(model.defect, 1.3)
        assert norm_inf(u @ u - np.eye(4)) == 0.0

    def test_zero_momentum_rejected(self):
        model = build_doubled_model(identity_S(1), DELTA)
        with pytest.raises(ValueError):
            involution_matrix(model.defect, 0.0)


class TestDoubledModelInvariants:
    def test_doubled_delta_passes_defect_residuals(self):
        from rtcheck.defect import defect_unitarity_residual, hermitian_analyticity_residual

        model = build_doubled_model(identity_S(1), DELTA)
        pair = model.defect
        for k in KS[:10]:
            assert defect_unitarity_residual(pair, k) <= 1e-13
            assert hermitian_analyticity_residual(pair, k) <= 1e-13

    def test_provenance_round_trip(self):
        model = build_doubled_model(identity_S(1), DELTA)
        half = model.half_line
        assert half.dim == 1
        assert abs(half.T(0.7)[0, 0] - T_delta(0.7)[0, 0]) == 0.0
