import numpy as np
import pytest

from rtcheck.defect import (
    CONSISTENCY_VARIANTS,
    MIXED_VARIANTS,
    REFLECTION_VARIANTS,
    RELATIONS,
    TRANSMISSION_VARIANTS,
    DefectPair,
    ZeroMomentumError,
    consistency_relation_residual,
    defect_unitarity_residual,
    delta_defect,
    hermitian_analyticity_residual,
    mixed_relation_residual,
    project,
    pure_reflection_defect,
    reflection_relation_residual,
    transmission_relation_residual,
)
from rtcheck.doubling import (
    REDUCED_VARIANTS,
    build_doubled_model,
    double_defect,
    reduced_relation_residual,
)
from rtcheck.smatrix import BulkSMatrix, identity_S, rational_S, sample_momenta

ETA = 1.0
KS = sample_momenta(24, seed=17)
PAIRS = list(zip(KS, KS[1:]))


def delta_scalar_fns(eta):
    T = lambda k: np.array([[k / (k + 1j * eta)]])
    R = lambda k: np.array([[-1j * eta / (k + 1j * eta)]])
    return T, R


def doubled_delta_pair(eta):
    T, R = delta_scalar_fns(eta)
    return double_defect(DefectPair(1, R, T))


class TestDeltaDefect:
    def test_free_case(self):
        D = delta_defect(0.0)
        for k in (0.5, -2.0, 7.7):
            assert D.T(k)[0, 0] == 1.0
            assert D.R(k)[0, 0] == 0.0

    def test_small_momentum_limit(self):
        D = delta_defect(2.0)
        assert abs(D.T(1e-13)[0, 0]) < 1e-12
        assert abs(D.R(1e-13)[0, 0] + 1.0) < 1e-12

    def test_reference_values_eta1_k1(self):
        D = delta_defect(1.0)
        t, r = D.T(1.0)[0, 0], D.R(1.0)[0, 0]
        assert abs(t - (1 - 1j) / 2) < 1e-15
        assert abs(r - (-1 - 1j) / 2) < 1e-15
        assert abs(abs(t) ** 2 + abs(r) ** 2 - 1.0) < 1e-15

    def test_rejects_negative_coupling(self):
        with pytest.raises(ValueError):
            delta_defect(-0.5)

    def test_zero_momentum_is_domain_error(self):
        D = delta_defect(1.0)
        with pytest.raises(ZeroMomentumError):
            D.T(0.0)


class TestProjection:
    def test_exact_zero_on_wrong_half_line(self):
        D = delta_defect(1.0)
        P = project(D, +1)
        assert np.all(P.R(-0.7) == 0.0)
        assert np.all(P.T(-0.7) == 0.0)
        M = project(D, -1)
        assert np.all(M.R(0.7) == 0.0)

    def test_disjoint_supports(self):
        D = delta_defect(1.0)
        plus, minus = project(D, +1), project(D, -1)
        for k in KS:
            assert np.all(plus.R(k) @ minus.R(k) == 0.0)

    def test_zero_momentum_rejected(self):
        with pytest.raises(ZeroMomentumError):
            project(delta_defect(1.0), +1).R(0.0)

    def test_bad_sign(self):
        with pytest.raises(ValueError):
            project(delta_defect(1.0), 0)


class TestUnitarityHermiticity:
    def test_doubled_delta_unitarity(self):
        pair = doubled_delta_pair(1.0)
        assert defect_unitarity_residual(pair, 0.7) <= 1e-13

    def test_free_doubled_form(self):
        pair = doubled_delta_pair(0.0)
        for k in KS[:6]:
            assert defect_unitarity_residual(pair, k) == 0.0

    def test_pure_reflection(self):
        pr = pure_reflection_defect()
        for k in KS[:6]:
            assert defect_unitarity_residual(pr, k) == 0.0
            assert hermitian_analyticity_residual(pr, k) == 0.0

    def test_doubled_delta_hermitian_analyticity(self):
        pair = doubled_delta_pair(1.0)
        for k in KS[:8]:
            assert hermitian_analyticity_residual(pair, k) <= 1e-15

    def test_trivial_defect(self):
        eye = np.eye(2, dtype=complex)
        zero = np.zeros((2, 2), dtype=complex)
        D = DefectPair(2, lambda k: zero, lambda k: eye)
        assert hermitian_analyticity_residual(D, 1.3) == 0.0
        assert defect_unitarity_residual(D, 1.3) == 0.0

    def test_scalar_delta_fails_unprojected_unitarity(self):
        # the scalar amplitudes satisfy only the symmetrized relations
        D = delta_defect(1.0)
        assert defect_unitarity_residual(D, 1.0) > 0.1


class TestReflectionRelation:
    @pytest.mark.parametrize("xi", [+1, -1])
    def test_identity_bulk_scalar_defect(self, xi):
        S = identity_S(1)
        D = delta_defect(1.0)
        for a, b in PAIRS[:8]:
            assert reflection_relation_residual(S, D, a, b, xi) == 0.0

    @pytest.mark.parametrize("xi", [+1, -1])
    def test_doubled_delta_with_identity_bulk(self, xi):
        # scalar commutativity in each diagonal block
        S = identity_S(2)
        pair = doubled_delta_pair(1.0)
        for a, b in PAIRS[:8]:
            assert reflection_relation_residual(S, pair, a, b, xi) <= 1e-14

    @pytest.mark.parametrize("xi", [+1, -1])
    def test_rational_bulk_zero_reflection(self, xi):
        S = rational_S(2, 1.0)
        zero = np.zeros((2, 2), dtype=complex)
        D = DefectPair(2, lambda k: zero, lambda k: np.eye(2, dtype=complex))
        for a, b in PAIRS[:8]:
            assert reflection_relation_residual(S, D, a, b, xi) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            reflection_relation_residual(identity_S(2), delta_defect(1.0), 0.3, 0.9, +1)


class TestTransmissionRelation:
    @pytest.mark.parametrize("variant", ["TST", "STT-", "STT+"])
    def test_identity_bulk(self, variant):
        S = identity_S(1)
        D = delta_defect(1.0)
        for a, b in PAIRS[:8]:
            assert transmission_relation_residual(S, D, a, b, variant) == 0.0

    def test_full_transmission_with_unitary_bulk(self):
        S = rational_S(2, 1.0)
        zero = np.zeros((2, 2), dtype=complex)
        D = DefectPair(2, lambda k: zero, lambda k: np.eye(2, dtype=complex))
        for a, b in PAIRS[:8]:
            assert transmission_relation_residual(S, D, a, b, "TST") <= 1e-14

    def test_delta_scalar_reference_pair(self):
        S = identity_S(1)
        D = delta_defect(1.0)
        assert transmission_relation_residual(S, D, 1.2, -0.5, "TST") <= 1e-13

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            transmission_relation_residual(identity_S(1), delta_defect(1.0), 1.0, 2.0, "XXX")


class TestMixedRelations:
    @pytest.mark.parametrize("variant", MIXED_VARIANTS)
    def test_zero_reflection_vanishes(self, variant):
        S = rational_S(2, 1.0)
        zero = np.zeros((2, 2), dtype=complex)
        D = DefectPair(2, lambda k: zero, lambda k: np.eye(2, dtype=complex))
        for a, b in PAIRS[:6]:
            assert mixed_relation_residual(S, D, a, b, variant) == 0.0

    @pytest.mark.parametrize("variant", MIXED_VARIANTS)
    def test_identity_bulk_scalar_defect(self, variant):
        S = identity_S(1)
        D = delta_defect(1.0)
        for a, b in PAIRS[:6]:
            assert mixed_relation_residual(S, D, a, b, variant) <= 1e-15

    def test_equivalence_sweep_verdict_agreement(self):
        """The two printed sets of mixed relations agree pass/fail per model."""
        tol = 1e-10
        T, R = delta_scalar_fns(1.0)
        half_rat = DefectPair(
            2,
            lambda k: R(k)[0, 0] * np.eye(2),
            lambda k: T(k)[0, 0] * np.eye(2),
        )
        models = [
            (identity_S(1), delta_defect(1.0)),  # passes everything
            (rational_S(2, 1.0), half_rat),  # the no-go obstruction
        ]
        for S, D in models:
            for first, second in (("TSRS+", "TSR+"), ("TSRS-", "TSR-"),
                                  ("SRST+", "RST+"), ("SRST-", "RST-")):
                r1 = max(mixed_relation_residual(S, D, a, b, first) for a, b in PAIRS)
                r2 = max(mixed_relation_residual(S, D, a, b, second) for a, b in PAIRS)
                assert (r1 <= tol) == (r2 <= tol)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            mixed_relation_residual(identity_S(1), delta_defect(1.0), 1.0, 2.0, "nope")


class TestConsistencyRelations:
    def test_identity_calS_commuting_scalar_blocks(self):
        calS = identity_S(2)
        diag = lambda k: np.diag([k / (k + 1j), k / (k + 2j)]).astype(complex)
        for a, b in PAIRS[:6]:
            assert consistency_relation_residual(
                calS, DefectPair(2, diag, diag), a, b, "rr1"
            ) <= 1e-15

    @pytest.mark.parametrize("variant", CONSISTENCY_VARIANTS)
    def test_doubled_delta(self, variant):
        T, R = delta_scalar_fns(ETA)
        model = build_doubled_model(identity_S(1), DefectPair(1, R, T))
        for a, b in PAIRS[:10]:
            assert consistency_relation_residual(
                model.calS, model.defect, a, b, variant
            ) <= 1e-13

    @pytest.mark.parametrize("variant", CONSISTENCY_VARIANTS)
    def test_doubled_rational_scalar_defect(self, variant):
        T, R = delta_scalar_fns(ETA)
        model = build_doubled_model(
            rational_S(2, 1.0),
            DefectPair(2, lambda k: R(k)[0, 0] * np.eye(2), lambda k: T(k)[0, 0] * np.eye(2)),
        )
        worst = max(
            consistency_relation_residual(model.calS, model.defect, a, b, variant)
            for a, b in PAIRS
        )
        assert worst <= 1e-10

    def test_unknown_variant(self):
        T, R = delta_scalar_fns(1.0)
        model = build_doubled_model(identity_S(1), DefectPair(1, R, T))
        with pytest.raises(ValueError):
            consistency_relation_residual(model.calS, model.defect, 1.0, 2.0, "zz")


class TestNegativeControl:
    def test_scaled_reflection_breaks_unitarity_not_ybe(self):
        T, R = delta_scalar_fns(1.0)
        model = build_doubled_model(identity_S(1), DefectPair(1, lambda k: 1.1 * R(k), T))
        pair = model.defect
        assert max(defect_unitarity_residual(pair, k) for k in KS[:8]) > 1e-3
        # the unperturbed pair passes
        clean = doubled_delta_pair(1.0)
        assert max(defect_unitarity_residual(clean, k) for k in KS[:8]) < 1e-13


# Defect data and an S-matrix with no structure: no factor commutes with
# another, so every factor, leg, projection and momentum of a relation word
# shows in its residual.
_A = np.array([[0.3 + 1.1j, -0.7 + 0.2j], [1.4 - 0.5j, -0.2 - 0.9j]])
_B = np.array([[-0.6 + 0.4j, 0.9 - 1.3j], [0.1 + 0.8j, 0.5 + 0.2j]])
_C = np.array([[1.2 - 0.3j, 0.4 + 0.6j], [-0.8 - 0.1j, 0.7 + 1.5j]])
_D = np.array([[0.2 + 0.5j, -1.1 - 0.4j], [0.6 - 0.7j, -0.3 + 0.9j]])
_GRID = np.arange(16.0).reshape(4, 4)
GENERIC_S = BulkSMatrix(
    2,
    lambda k1, k2: np.kron(_A, _C) + 0.1 * _GRID
    + k1 * (np.kron(_B, _D) - 0.05j * _GRID.T)
    + k2 * (np.kron(_C, _A) + 0.2j * np.eye(4)[::-1]),
    False,
    name="generic",
)
GENERIC_R = lambda k: _A + k * _B
GENERIC_T = lambda k: _C + k * _D
SIGN_PATTERNS = [(0.7, -1.3), (1.1, 0.4), (-0.9, -0.5), (-0.6, 1.2)]


def generic_residual(variant, k1, k2):
    pair = DefectPair(2, GENERIC_R, GENERIC_T)
    if variant in REFLECTION_VARIANTS:
        xi = +1 if variant == "SRSR+" else -1
        return reflection_relation_residual(GENERIC_S, pair, k1, k2, xi)
    if variant in TRANSMISSION_VARIANTS:
        return transmission_relation_residual(GENERIC_S, pair, k1, k2, variant)
    if variant in MIXED_VARIANTS:
        return mixed_relation_residual(GENERIC_S, pair, k1, k2, variant)
    if variant in CONSISTENCY_VARIANTS:
        return consistency_relation_residual(GENERIC_S, pair, k1, k2, variant)
    return reduced_relation_residual(GENERIC_S, pair, k1, k2, variant)


ALL_VARIANTS = (REFLECTION_VARIANTS + TRANSMISSION_VARIANTS + MIXED_VARIANTS
                + CONSISTENCY_VARIANTS + REDUCED_VARIANTS)


class TestRelationTable:
    # recorded from the hand-written matrix chains that the table replaced;
    # each projected word is nonzero only on the sign pattern of its projections
    RECORDED = {
        "SRSR+": [0.0, 30.490520459269916, 0.0, 0.0],
        "SRSR-": [0.0, 0.0, 81.90913818507391, 0.0],
        "TST": [30.111835500540415, 0.0, 0.0, 0.0],
        "STT-": [0.0, 0.0, 14.805119810056022, 0.0],
        "STT+": [0.0, 17.463131686463967, 0.0, 0.0],
        "TSRS+": [68.2559677253642, 0.0, 0.0, 0.0],
        "TSRS-": [86.44052058576386, 0.0, 0.0, 0.0],
        "SRST+": [0.0, 28.342719328696134, 0.0, 0.0],
        "SRST-": [0.0, 0.0, 47.382540078518346, 0.0],
        "TSR+": [24.214872777939423, 0.0, 0.0, 0.0],
        "TSR-": [27.771890507326113, 0.0, 0.0, 0.0],
        "RST+": [0.0, 16.143467084848417, 0.0, 0.0],
        "RST-": [0.0, 0.0, 23.177245456598293, 0.0],
        "rr1": [99.46348791299549, 42.807086672100155, 134.8001059291139, 96.30448455164944],
        "tt1": [81.32709626559712, 54.928331864290406, 54.091324027249016, 66.92320813175988],
        "tr1": [45.507826531990474, 38.01200098067478, 76.00605367787291, 88.22707432645278],
        "tau-tau": [99.80437862560348, 40.48259785549134, 52.61567442057073, 68.80362400808536],
        "tau-rho": [116.85584823663253, 66.88051649598623, 106.56130738066778, 66.53671754707842],
        "rho-rho": [62.187929418365044, 32.9469296548473, 71.30576387600269, 46.1554054696644],
    }

    def test_one_row_per_variant(self):
        assert sorted(RELATIONS) == sorted(ALL_VARIANTS) == sorted(self.RECORDED)

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_generic_data_residuals_are_unchanged(self, variant):
        got = [generic_residual(variant, a, b) for a, b in SIGN_PATTERNS]
        assert got == pytest.approx(self.RECORDED[variant], rel=1e-12, abs=1e-12)
