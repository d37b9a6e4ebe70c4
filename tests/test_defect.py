import dataclasses
import json
import math
import re
from collections import Counter
from functools import reduce

import numpy as np
import pytest

from rtcheck import fock
from rtcheck.config import build_model, parse_config, scalar_times_identity
from rtcheck.defect import (
    CHUNK,
    CONSISTENCY_VARIANTS,
    MIXED_VARIANTS,
    REFLECTION_VARIANTS,
    RELATIONS,
    TRANSMISSION_VARIANTS,
    DefectPair,
    ZeroMomentumError,
    chain_residual,
    consistency_relation_residual,
    defect_unitarity_residual,
    delta_defect,
    hermitian_analyticity_residual,
    mixed_relation_residual,
    project,
    pure_reflection_defect,
    pure_transmission_defect,
    reflection_relation_residual,
    relation_residual,
    transmission_relation_residual,
)
from rtcheck.deltamodel import DeltaModel
from rtcheck.doubling import (
    REDUCED_VARIANTS,
    build_doubled_model,
    double_defect,
    double_S_bulk,
    involution_matrix,
    reduced_relation_residual,
)
from rtcheck.grammar import ExpressionError, parse_expression
from rtcheck.smatrix import BulkSMatrix, identity_S, permutation_S, rational_S, sample_momenta
from rtcheck.suite import FIG_VARIANTS, run_suite
from rtcheck.tensor import norm_inf, swap_legs

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


GENERIC_PAIR = DefectPair(2, GENERIC_R, GENERIC_T)
# each family view with its variant tuple; reflection takes xi instead
FAMILY_VIEWS = {
    TRANSMISSION_VARIANTS: transmission_relation_residual,
    MIXED_VARIANTS: mixed_relation_residual,
    CONSISTENCY_VARIANTS: consistency_relation_residual,
    REDUCED_VARIANTS: reduced_relation_residual,
}


def family_call(variant, S, D, k1, k2):
    """The residual of one row through the public name of its family."""
    if variant in REFLECTION_VARIANTS:
        return reflection_relation_residual(S, D, k1, k2, +1 if variant == "SRSR+" else -1)
    family = next(f for f in FAMILY_VIEWS if variant in f)
    return FAMILY_VIEWS[family](S, D, k1, k2, variant)


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
        got = [family_call(variant, GENERIC_S, GENERIC_PAIR, a, b) for a, b in SIGN_PATTERNS]
        assert got == pytest.approx(self.RECORDED[variant], rel=1e-12, abs=1e-12)


class TestMomentumArgument:
    """The readers take one momentum or a 1-d array of them."""

    READERS = {
        "R": lambda d: d.R, "T": lambda d: d.T,
        "R+": lambda d: project(d, +1).R, "T-": lambda d: project(d, -1).T,
    }

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize("k", [np.array([[0.7]]), np.ones((2, 1, 1))])
    def test_arrays_of_other_ranks_are_rejected(self, reader, k):
        with pytest.raises(ValueError, match="one momentum or a 1-d array, got shape"):
            self.READERS[reader](delta_defect(1.0))(k)

    @pytest.mark.parametrize("reader", READERS)
    def test_numpy_scalars_are_one_momentum(self, reader):
        read = self.READERS[reader](delta_defect(1.0))
        for k in (np.float64(-0.7), np.array(-0.7), np.int64(-2)):
            assert np.array_equal(read(k), read(float(k)))

    @pytest.mark.parametrize("bulk", [identity_S(2), rational_S(2, 1.0)], ids=lambda S: S.name)
    @pytest.mark.parametrize("k1, k2", [
        (np.array([0.7, 0.2]), 0.3), (0.3, np.array([0.7, 0.2])), (np.array([0.7]), 0.3),
    ])
    def test_relation_residual_takes_one_point(self, bulk, k1, k2):
        D = scalar_times_identity(delta_defect(1.0), 2)
        with pytest.raises(ValueError, match="takes one momentum k1 and one k2, got shapes"):
            relation_residual(bulk, D, k1, k2, "tt1")


def _catalog_data(bulk, defect):
    return build_model(parse_config(json.dumps({"bulk": bulk, "defect": defect})))


CATALOG_BULKS = {
    "identity": identity_S(2),
    "permutation": permutation_S(3),
    **{f"rational(N={n})": rational_S(n, 1.0) for n in (1, 2, 3)},
}
CATALOG_DEFECTS = {
    "delta": delta_defect(1.0),
    "pure-reflection": pure_reflection_defect(),
    "pure-transmission": pure_transmission_defect(),
    "custom": _catalog_data("identity", {
        "name": "custom", "transmission": "k/(k+2i)", "reflection": "-2i/(k+2i)"}).half_line,
    **{f"delta lifted to N={n}": _catalog_data(f"rational:N={n}", "delta").half_line
       for n in (2, 3)},
}
ARRAY_KS = np.array(sample_momenta(2 * CHUNK + 1, seed=29))


def _bits(x):
    return np.ascontiguousarray(x).tobytes()


class TestArrayReaders:
    """One array read is the stack of the one-point reads, bit for bit."""

    @pytest.mark.parametrize("name", CATALOG_BULKS)
    def test_bulk(self, name):
        S = CATALOG_BULKS[name]
        k1, k2 = ARRAY_KS, np.roll(ARRAY_KS, 1)
        for read in (S.eval, lambda a, b: swap_legs(S.eval(a, b))):
            want = np.stack([read(a, b) for a, b in zip(k1.tolist(), k2.tolist())])
            assert read(k1, k2).shape == want.shape
            assert _bits(read(k1, k2)) == _bits(want)

    @pytest.mark.parametrize("xi", [None, +1, -1])
    @pytest.mark.parametrize("name", CATALOG_DEFECTS)
    def test_defect(self, name, xi):
        """Projected, the one-point reads of the data where theta is 1, zeros elsewhere."""
        D = CATALOG_DEFECTS[name]
        data = D if xi is None else project(D, xi)
        for kind in ("R", "T"):
            one = getattr(D, kind)
            want = np.stack([one(k) if xi is None or xi * k > 0 else np.zeros_like(one(k))
                             for k in ARRAY_KS.tolist()])
            got = getattr(data, kind)(ARRAY_KS)
            assert got.shape == want.shape
            assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("name", CATALOG_BULKS)
    def test_doubled_bulk(self, name):
        S = double_S_bulk(CATALOG_BULKS[name])
        k1, k2 = ARRAY_KS, np.roll(ARRAY_KS, 1)
        for read in (S.eval, lambda a, b: swap_legs(S.eval(a, b))):
            want = np.stack([read(a, b) for a, b in zip(k1.tolist(), k2.tolist())])
            assert read(k1, k2).shape == want.shape
            assert _bits(read(k1, k2)) == _bits(want)

    @pytest.mark.parametrize("name", CATALOG_DEFECTS)
    def test_doubled_defect(self, name):
        """The doubled pair of batched data is batched, and its array reads
        have the bits of its one-point reads."""
        half = CATALOG_DEFECTS[name]
        D = double_defect(half)
        assert D.batched == half.batched
        self._reads_like_one_point(D)

    def test_doubled_defect_of_unbatched_data(self):
        """Half-line data of plain one-point lambdas gives an unbatched
        doubled pair, read point by point, with the same values."""
        T, R = delta_scalar_fns(ETA)
        D = double_defect(DefectPair(1, R, T))
        assert not D.batched
        self._reads_like_one_point(D)
        batched = double_defect(delta_defect(ETA))
        for kind in ("R", "T"):
            assert _bits(getattr(D, kind)(ARRAY_KS)) == _bits(getattr(batched, kind)(ARRAY_KS))

    @staticmethod
    def _reads_like_one_point(D):
        for kind in ("R", "T"):
            one = getattr(D, kind)
            want = np.stack([one(k) for k in ARRAY_KS.tolist()])
            got = one(ARRAY_KS)
            assert got.shape == want.shape == (len(ARRAY_KS), D.dim, D.dim)
            assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("where", [0, CHUNK, -1])
    @pytest.mark.parametrize("name", CATALOG_DEFECTS)
    def test_zero_anywhere_raises(self, name, where):
        ks = ARRAY_KS.copy()
        ks[where] = 0.0
        D = CATALOG_DEFECTS[name]
        for read in (D.R, D.T, project(D, +1).R, project(D, -1).T):
            with pytest.raises(ZeroMomentumError):
                read(ks)

    def test_a_pole_at_a_masked_momentum_is_not_read(self):
        D = _catalog_data("identity", {
            "name": "custom", "transmission": "1/(k+0.5)", "reflection": "0"}).half_line
        ks = np.array([0.7, -0.5, 1.2])
        got = project(D, +1).T(ks)
        assert _bits(got[[0, 2]]) == _bits(np.stack([D.T(0.7), D.T(1.2)]))
        assert np.all(got[1] == 0.0)
        for read in (D.T, project(D, -1).T):
            with pytest.raises(ExpressionError, match=re.escape("at k = -0.5")):
                read(ks)


ZERO_MOMENTUM_DEFECTS = {
    "delta": {"name": "delta", "eta": 1.0},
    "pure-reflection": {"name": "pure-reflection"},
    "custom": {"name": "custom", "transmission": "k/(k+2i)", "reflection": "-2i/(k+2i)"},
}


def _physical_at_zero(model):
    expr = fock.normal_order_vev([fock.a("p"), fock.ad("k")], model)
    return fock.physical_coefficients(
        expr, [(term, {"p": 0.0, "k": 0.0}) for term in expr.terms], model)


# Every public entry point that reads defect data at a momentum, made to read
# it at 0.  Each reaches DefectPair.R/.T, the one place that checks k = 0; the
# delta model's readers read their own delta data.
ZERO_MOMENTUM_READERS = {
    "DefectPair.R": lambda m: m.half_line.R(0.0),
    "DefectPair.T": lambda m: m.half_line.T(0.0),
    "ProjectedDefect.R": lambda m: project(m.half_line, +1).R(0.0),
    "ProjectedDefect.T": lambda m: project(m.half_line, -1).T(0.0),
    "relation_residual(k1=0)": lambda m: relation_residual(m.bulk, m.half_line, 0.0, 0.7, "rr1"),
    "relation_residual(k2=0)": lambda m: relation_residual(m.bulk, m.half_line, 0.7, 0.0, "rr1"),
    "involution_matrix": lambda m: involution_matrix(m.half_line, 0.0),
    "involution_kernel.A": lambda m: fock.involution_kernel(m.doubled).A(0.0),
    "involution_kernel.B": lambda m: fock.involution_kernel(m.doubled).B(0.0),
    "hamiltonian_kernel.A": lambda m: fock.hamiltonian_kernel(1, m.doubled).A(0.0),
    "hierarchy_commutator_residuals":
        lambda m: fock.hierarchy_commutator_residuals(0, 1, m.doubled, [0.7, 0.0]),
    "hierarchy_relation_residuals":
        lambda m: fock.hierarchy_relation_residuals(0, m.doubled, [0.0]),
    "opta_agreement_residual": lambda m: fock.opta_agreement_residual(m.doubled, 0.0),
    "physical_coefficients": lambda m: _physical_at_zero(m.doubled),
    "DeltaModel.T": lambda m: DeltaModel(1.0).T(0.0),
    "DeltaModel.R": lambda m: DeltaModel(1.0).R(0.0),
    "one_particle_amplitude.A": lambda m: fock.one_particle_amplitude(m.half_line).A(0.0),
}


def _zero_momentum_model(defect):
    return build_model(parse_config(json.dumps(
        {"bulk": "identity:dim=1", "defect": ZERO_MOMENTUM_DEFECTS[defect]})))


@pytest.mark.parametrize("defect", ZERO_MOMENTUM_DEFECTS)
@pytest.mark.parametrize("reader", ZERO_MOMENTUM_READERS)
def test_every_reader_raises_zero_momentum_error_at_zero(reader, defect):
    with pytest.raises(ZeroMomentumError):
        ZERO_MOMENTUM_READERS[reader](_zero_momentum_model(defect))


@pytest.mark.parametrize("k1, k2", [(0.0, 0.7), (0.7, 0.0), (-0.0, -0.7)])
@pytest.mark.parametrize("variant", RELATIONS)
def test_every_relation_row_reads_defect_data_at_both_momenta(variant, k1, k2):
    model = _zero_momentum_model("delta")
    with pytest.raises(ZeroMomentumError):
        relation_residual(model.bulk, model.half_line, k1, k2, variant)
    with pytest.raises(ZeroMomentumError):
        relation_residual(model.doubled.calS, model.doubled.defect, k1, k2, variant)


def loop_residual(word, S, D, k1, k2):
    """One point at a time, as dense two-leg matrices: the reference for the
    stacked evaluator, which must give the same bits."""
    at = {"k1": k1, "k2": k2, "-k1": -k1, "-k2": -k2, "k1-k2": k1 - k2, "k2-k1": k2 - k1,
          "k1+k2": k1 + k2, "-k1-k2": -k1 - k2, "0": 0.0}
    eye = np.eye(D.dim, dtype=complex)

    def build(factor):
        if factor[0] in ("S", "S21"):
            s = S.eval(at[factor[1]], at[factor[2]])
            return s if factor[0] == "S" else swap_legs(s)
        kind, xi, leg, k = factor
        data = D if xi is None else project(D, xi)
        m = data.R(at[k]) if kind == "R" else data.T(at[k])
        return np.kron(m, eye) if leg == 1 else np.kron(eye, m)

    lhs, rhs = word
    return norm_inf(reduce(np.matmul, map(build, lhs)) - reduce(np.matmul, map(build, rhs)))


STACK_KS = sample_momenta(2 * CHUNK + 2, seed=23)
STACK_POINTS = list(zip(STACK_KS, STACK_KS[1:]))  # 2 CHUNK + 1 points
STACK_ARRAYS = np.array(STACK_POINTS).T  # (k1, k2)


class TestStackedChains:
    """chain_residual takes its points CHUNK at a time; each point's residual
    is the one-point loop's, bit for bit, whatever the chunking."""

    @pytest.mark.parametrize("n", [1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_any_point_count_gives_the_one_point_values(self, variant, n):
        points = STACK_POINTS[:n]
        word = RELATIONS[variant]
        got = chain_residual(word, GENERIC_S, GENERIC_PAIR, *np.array(points).T)
        assert got == [loop_residual(word, GENERIC_S, GENERIC_PAIR, a, b) for a, b in points]

    def test_doubled_data_gives_the_one_point_values(self):
        T, R = delta_scalar_fns(ETA)
        model = build_doubled_model(
            rational_S(2, 1.0),
            DefectPair(2, lambda k: R(k)[0, 0] * np.eye(2), lambda k: T(k)[0, 0] * np.eye(2)),
        )
        for variant in ("rr1", "tr1", "SRSR+", "TSRS-"):
            word = RELATIONS[variant]
            got = chain_residual(word, model.calS, model.defect, *STACK_ARRAYS)
            want = [loop_residual(word, model.calS, model.defect, a, b) for a, b in STACK_POINTS]
            assert got == want

    @pytest.mark.parametrize("where", [0, CHUNK // 2, CHUNK, CHUNK + 1])
    @pytest.mark.parametrize("slot", [0, 1])
    def test_zero_momentum_anywhere_raises(self, where, slot):
        points = [list(p) for p in STACK_POINTS[:CHUNK + 2]]
        points[where][slot] = 0.0
        with pytest.raises(ZeroMomentumError):
            chain_residual(RELATIONS["tt1"], GENERIC_S, GENERIC_PAIR, *np.array(points).T)

    def test_nonfinite_datum_shows_at_its_point_only(self):
        bad_k = STACK_POINTS[CHUNK][0]  # k1 of point CHUNK and k2 of point CHUNK - 1
        overflow = parse_expression("1e308*1e308*k")
        T = lambda k: overflow(k) * np.eye(2) if k == bad_k else GENERIC_T(k)
        broken = DefectPair(2, GENERIC_R, T)
        touched = {i for i, p in enumerate(STACK_POINTS) if bad_k in p}
        assert touched == {CHUNK - 1, CHUNK}  # one on each side of the chunk boundary
        for variant in ("tt1", "tau-tau"):  # both read T at k1 and at k2
            with np.errstate(all="ignore"):
                got = chain_residual(RELATIONS[variant], GENERIC_S, broken, *STACK_ARRAYS)
            clean = chain_residual(RELATIONS[variant], GENERIC_S, GENERIC_PAIR, *STACK_ARRAYS)
            for i, (g, c) in enumerate(zip(got, clean)):
                assert not math.isfinite(g) if i in touched else g == c


# A factor's replacements: its matrix (S <-> S21, R <-> T), its leg, its
# projection sign (none counts as one more sign) and each of its momenta
MATRIX_SWAP = {"S": "S21", "S21": "S", "R": "T", "T": "R"}
OTHER_MOMENTA = {
    "k1": ("k2", "-k1"), "k2": ("k1", "-k2"), "-k1": ("k1", "-k2"), "-k2": ("k2", "-k1"),
    "k1-k2": ("k2-k1", "k1+k2"), "k2-k1": ("k1-k2", "-k1-k2"),
    "k1+k2": ("-k1-k2", "k1-k2"), "-k1-k2": ("k1+k2", "k2-k1"), "0": ("k1",),
}


def factor_mutants(factor):
    kind = factor[0]
    yield (MATRIX_SWAP[kind], *factor[1:])
    if kind in ("S", "S21"):
        _, a, b = factor
        yield from ((kind, x, b) for x in OTHER_MOMENTA[a])
        yield from ((kind, a, x) for x in OTHER_MOMENTA[b])
        return
    _, xi, leg, k = factor
    yield (kind, xi, 3 - leg, k)
    yield from ((kind, x, leg, k) for x in (None, +1, -1) if x != xi)
    yield from ((kind, xi, leg, x) for x in OTHER_MOMENTA[k])


def word_mutants(word, kinds=("S", "S21", "R", "T")):
    """Every word with exactly one factor of one of the kinds replaced."""
    for side in (0, 1):
        for i, factor in enumerate(word[side]):
            if factor[0] not in kinds:
                continue
            for mutant in factor_mutants(factor):
                sides = [list(word[0]), list(word[1])]
                sides[side][i] = mutant
                yield tuple(sides[0]), tuple(sides[1])


GENERIC_DOUBLED = build_doubled_model(rational_S(2, 1.0), GENERIC_PAIR)
VIEW_DATA = {
    "half-line": (GENERIC_S, GENERIC_PAIR),
    "doubled": (GENERIC_DOUBLED.calS, GENERIC_DOUBLED.defect),
}


@pytest.mark.parametrize("data", VIEW_DATA)
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_every_factor_shows_in_the_stacked_residual(variant, data):
    """On structureless data, replacing any one factor's matrix, leg,
    projection or momentum moves the residual at some sign pattern: the
    evaluator cannot drop or misplace a factor unseen.  On doubled data the
    R and T factors are structureless, and their replacements include a T
    that keeps its sector (T -> R) and an R on the wrong leg; the doubled S
    has the structure of its rational bulk, which is symmetric in its legs."""
    S, D = VIEW_DATA[data]
    word = RELATIONS[variant]
    kinds = ("R", "T") if data == "doubled" else ("S", "S21", "R", "T")
    base = chain_residual(word, S, D, *np.array(SIGN_PATTERNS).T)
    count = 0
    for mutant in word_mutants(word, kinds):
        got = chain_residual(mutant, S, D, *np.array(SIGN_PATTERNS).T)
        assert max(abs(g - b) for g, b in zip(got, base)) > 1e-6, mutant
        count += 1
    assert count >= 3 * sum(f[0] in kinds for f in word[0] + word[1])


# the sector walk against the dense one-point chain: (doubled model, bit for bit)
WALK_DATA = {
    "generic": (GENERIC_DOUBLED, True),
    **{f"rational(N={n})": (_catalog_data(f"rational:N={n}", "delta").doubled, n <= 2)
       for n in (1, 2, 3)},
}


@pytest.mark.parametrize("data", WALK_DATA)
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_the_sector_walk_gives_the_dense_one_point_values(variant, data):
    """Each block product sums the nonzero terms of the dense product.  At
    N <= 2 they come in the dense order, so the residual is the same bits;
    at N = 3 the dense BLAS may sum them in another order (<= 3.3e-16 seen)."""
    dm, exact = WALK_DATA[data]
    points = SIGN_PATTERNS + STACK_POINTS
    word = RELATIONS[variant]
    got = chain_residual(word, dm.calS, dm.defect, *np.array(points).T)
    want = [loop_residual(word, dm.calS, dm.defect, a, b) for a, b in points]
    if exact:
        assert got == want
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-15 * max(1.0, abs(w))


@pytest.mark.parametrize("variant", [v for v in ALL_VARIANTS if any(
    f[0] == "T" for f in RELATIONS[v][0])])
def test_sides_that_end_in_different_sectors_give_the_dense_values(variant):
    """With its first left-hand T read as R, a side keeps a sector that the
    other side flips: the dense difference holds lhs and -rhs in two row
    sectors, so the residual is the larger of the two sides there."""
    lhs, rhs = RELATIONS[variant]
    i = next(i for i, f in enumerate(lhs) if f[0] == "T")
    word = (lhs[:i] + (("R", *lhs[i][1:]),) + lhs[i + 1:], rhs)
    S, D = GENERIC_DOUBLED.calS, GENERIC_DOUBLED.defect
    got = chain_residual(word, S, D, *np.array(SIGN_PATTERNS).T)
    assert got == [loop_residual(word, S, D, a, b) for a, b in SIGN_PATTERNS]


def _counted(fn, calls, name):
    def counted(*args):
        calls[name] += 1
        return fn(*args)

    return counted


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_one_reader_call_per_distinct_factor_and_chunk(variant):
    """Half-line data: one bulk call per S factor, one defect call per R or T
    factor.  Doubled data: one block read per factor, which reads the bulk
    at the four sectors and the half-line data at k and -k."""
    calls = Counter()
    bulk = rational_S(3, 1.0)
    half = CATALOG_DEFECTS["delta lifted to N=3"]
    bulk = dataclasses.replace(bulk, fn=_counted(bulk.fn, calls, "S"))
    half = dataclasses.replace(half, reflection=_counted(half.reflection, calls, "R"),
                               transmission=_counted(half.transmission, calls, "T"))
    dm = build_doubled_model(bulk, half)
    calS = dataclasses.replace(dm.calS, blocks=_counted(dm.calS.blocks, calls, "calS"))
    pair = dataclasses.replace(dm.defect, blocks=_counted(dm.defect.blocks, calls, "blocks"))
    word = RELATIONS[variant]
    factors = Counter("S" if f[0] == "S21" else f[0] for f in set(word[0] + word[1]))
    chunks = math.ceil(len(STACK_POINTS) / CHUNK)
    assert chunks == 3
    chain_residual(word, bulk, half, *STACK_ARRAYS)
    assert calls == {kind: chunks * n for kind, n in factors.items()}
    calls.clear()
    chain_residual(word, calS, pair, *STACK_ARRAYS)
    assert calls == {
        "calS": chunks * factors["S"], "S": 4 * chunks * factors["S"],
        "blocks": chunks * (factors["R"] + factors["T"]),
        **{kind: 2 * chunks * factors[kind] for kind in "RT" if factors[kind]},
    }


def test_an_inf_in_tau_fails_every_doubled_row_that_reads_it():
    rows = [v for v in FIG_VARIANTS + CONSISTENCY_VARIANTS
            if any(f[0] == "T" for f in RELATIONS[v][0] + RELATIONS[v][1])]
    checks = [v if v in CONSISTENCY_VARIANTS else f"{v}(doubled)" for v in rows]
    model = build_model(parse_config(json.dumps({
        "bulk": "rational:N=2", "samples": 5, "checks": checks,
        "defect": {"name": "custom", "transmission": "1e308*1e308*k", "reflection": "0"}})))
    report = run_suite(model)
    assert [c.check_id for c in report.checks] == checks
    assert not any(c.passed or math.isfinite(c.max_residual) for c in report.checks)


class TestRelationViews:
    """relation_residual and the family names are one-point lookups of the
    table row: the same bits as chain_residual at that point."""

    @pytest.mark.parametrize("data", VIEW_DATA)
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_views_equal_the_row(self, variant, data):
        S, D = VIEW_DATA[data]
        for k1, k2 in SIGN_PATTERNS:
            want = chain_residual(RELATIONS[variant], S, D, np.array([k1]), np.array([k2]))[0]
            assert relation_residual(S, D, k1, k2, variant) == want
            assert family_call(variant, S, D, k1, k2) == want

    @pytest.mark.parametrize("family", FAMILY_VIEWS, ids=lambda f: f[0])
    def test_family_view_rejects_other_rows(self, family):
        view = FAMILY_VIEWS[family]
        for variant in RELATIONS:
            if variant in family:
                continue
            with pytest.raises(ValueError, match=re.escape(repr(variant))):
                view(GENERIC_S, GENERIC_PAIR, 0.7, -1.3, variant)

    @pytest.mark.parametrize("xi", [0, 2, -2])
    def test_reflection_view_rejects_other_signs(self, xi):
        with pytest.raises(ValueError):
            reflection_relation_residual(GENERIC_S, GENERIC_PAIR, 0.7, -1.3, xi)
