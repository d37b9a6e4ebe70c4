import numpy as np
import pytest

from rtcheck.smatrix import (
    identity_S,
    permutation_S,
    rational_S,
    sample_momenta,
    shift_invariance_residual,
    unitarity_residual,
    ybe_residual,
)
from rtcheck.tensor import norm_inf, permutation_operator, swap_legs


class TestCatalog:
    def test_identity_evaluates_to_identity(self):
        S = identity_S(2)
        assert norm_inf(S.eval(0.3, -1.1) - np.eye(4)) == 0.0

    def test_rational_at_equal_momenta_is_permutation(self):
        S = rational_S(2, 1.0)
        assert norm_inf(S.eval(0.9, 0.9) - permutation_operator(2)) < 1e-15

    def test_rational_rejects_zero_coupling(self):
        with pytest.raises(ValueError):
            rational_S(2, 0.0)

    def test_rational_is_p_symmetric(self):
        S = rational_S(2, 1.0)
        m = S.eval(1.3, -0.2)
        assert norm_inf(swap_legs(m) - m) < 1e-15

    @pytest.mark.parametrize("maker", [identity_S, permutation_S])
    def test_constant_entries_pass_both_residuals(self, maker):
        S = maker(2)
        assert ybe_residual(S, 0.7, -0.4, 1.9) == 0.0
        assert unitarity_residual(S, 1.3, -0.2) == 0.0


class TestResiduals:
    def test_rational_ybe_at_reference_triple(self):
        assert ybe_residual(rational_S(2, 1.0), 0.7, -0.4, 1.9) <= 1e-10

    def test_rational_ybe_sweep(self):
        S = rational_S(2, 1.0)
        ks = sample_momenta(52, seed=2)
        worst = max(ybe_residual(S, *t) for t in zip(ks, ks[1:], ks[2:]))
        assert worst <= 1e-10

    def test_rational_unitarity_at_reference_pair(self):
        assert unitarity_residual(rational_S(2, 1.0), 1.3, -0.2) <= 1e-12

    def test_rational_unitarity_sweep(self):
        S = rational_S(2, 1.0)
        ks = sample_momenta(51, seed=4)
        worst = max(unitarity_residual(S, a, b) for a, b in zip(ks, ks[1:]))
        assert worst <= 1e-12

    def test_rational_shift_invariance(self):
        S = rational_S(2, 1.0)
        ks = sample_momenta(20, seed=6)
        worst = max(
            shift_invariance_residual(S, a, b, 0.5) for a, b in zip(ks, ks[1:])
        )
        assert worst <= 1e-12

    @pytest.mark.parametrize(
        "S", [identity_S(2), permutation_S(2), rational_S(2, 1.0), rational_S(3, 0.7)],
        ids=lambda s: s.name,
    )
    def test_catalog_sweep(self, S):
        ks = sample_momenta(20, seed=13)
        assert max(ybe_residual(S, *t) for t in zip(ks, ks[1:], ks[2:])) <= 1e-10
        assert max(unitarity_residual(S, a, b) for a, b in zip(ks, ks[1:])) <= 1e-12


class TestSampling:
    def test_single_momentum_respects_radius(self):
        s = sample_momenta(1, exclusion_radius=0.2, seed=0)
        assert abs(s[0]) >= 0.2

    def test_determinism(self):
        a = sample_momenta(25, seed=9)
        b = sample_momenta(25, seed=9)
        assert a == b

    def test_seeds_differ(self):
        assert sample_momenta(5, seed=1) != sample_momenta(5, seed=2)

    def test_pairwise_exclusions(self):
        vals = sample_momenta(100, exclusion_radius=1e-3, seed=3)
        assert all(abs(k) >= 1e-3 for k in vals)
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                assert abs(vals[i] - vals[j]) >= 1e-3
                assert abs(vals[i] + vals[j]) >= 1e-3

    def test_unsatisfiable_raises(self):
        with pytest.raises(ValueError, match="could not sample 50 momenta"):
            sample_momenta(50, exclusion_radius=1.0, seed=0)

    def test_needs_positive_count(self):
        with pytest.raises(ValueError):
            sample_momenta(0)
