import json

import numpy as np
import pytest

from rtcheck import smatrix
from rtcheck.config import AssembledModel, build_model, parse_config
from rtcheck.doubling import build_doubled_model
from rtcheck.smatrix import (
    BulkSMatrix,
    identity_S,
    permutation_S,
    rational_S,
    sample_momenta,
    shift_invariance_residual,
    unitarity_residual,
    ybe_residual,
)
from rtcheck.suite import run_suite
from rtcheck.tensor import embed_pair, norm_inf, permutation_operator, swap_legs

TRIPLES = [(0.7, -0.4, 1.9), (-2.3, 0.15, 1.1), (1.2, 2.6, -0.8)]


def dense_factors(S, k1, k2, k3):
    """S12, S13, S23 embedded as dense d^3 x d^3 operators."""
    return (
        embed_pair(S.eval(k1, k2), (1, 2)),
        embed_pair(S.eval(k1, k3), (1, 3)),
        embed_pair(S.eval(k2, k3), (2, 3)),
    )


def dense_ybe(S, k1, k2, k3):
    """The Yang-Baxter residual as dense three-leg products, left to right."""
    s12, s13, s23 = dense_factors(S, k1, k2, k3)
    return norm_inf(s12 @ s13 @ s23 - s23 @ s13 @ s12)


def random_S(d, seed):
    """A two-leg operator that depends on both momenta and solves nothing."""
    rng = np.random.default_rng(seed)
    a, b, c = rng.normal(size=(3, d * d, d * d)) + 1j * rng.normal(size=(3, d * d, d * d))
    return BulkSMatrix(d, lambda k1, k2: a + k1 * b + k2 * c, False, name=f"random({d})")


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


class TestLegLocalYangBaxter:
    """ybe_residual applies each factor to its own legs; the dense products of
    embed_pair operators are the reference."""

    @pytest.mark.parametrize("d", range(1, 7))
    def test_matches_the_dense_products(self, d):
        S = random_S(d, seed=d)
        for k in TRIPLES:
            want = dense_ybe(S, *k)
            assert abs(ybe_residual(S, *k) - want) <= 1e-12 * max(want, 1.0)

    @pytest.mark.parametrize("S", [random_S(2, seed=7), rational_S(2, 1.0)], ids=lambda s: s.name)
    def test_factor_order_matters(self, S):
        """Swapping two adjacent factors on either side moves the residual, so
        a kernel that multiplied in the wrong order would not match."""
        for k in TRIPLES:
            s12, s13, s23 = dense_factors(S, *k)
            lhs, rhs = s12 @ s13 @ s23, s23 @ s13 @ s12
            swapped = [
                s13 @ s12 @ s23 - rhs, s12 @ s23 @ s13 - rhs,
                lhs - s13 @ s23 @ s12, lhs - s23 @ s12 @ s13,
            ]
            got = ybe_residual(S, *k)
            assert abs(got - norm_inf(lhs - rhs)) <= 1e-12 * max(got, 1.0)
            assert all(abs(norm_inf(x) - got) > 1e-3 for x in swapped)

    @staticmethod
    def perturbed(eps):
        """Rational N=2 plus eps times a fixed generic matrix, with its doubled model."""
        cfg = parse_config(json.dumps({
            "bulk": "rational:N=2", "samples": 6, "checks": ["ybe", "ybe(doubled)"],
        }))
        base = build_model(cfg)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        bulk = BulkSMatrix(2, lambda k1, k2: base.bulk.eval(k1, k2) + eps * x, True)
        doubled = build_doubled_model(bulk, base.half_line)
        return AssembledModel(cfg=cfg, bulk=bulk, half_line=base.half_line, doubled=doubled)

    @pytest.mark.parametrize("eps", [0.0, 1e-6])
    def test_a_small_perturbation_fails_both_checks(self, eps):
        report = run_suite(self.perturbed(eps))
        assert [c.check_id for c in report.checks] == ["ybe", "ybe(doubled)"]
        for check in report.checks:
            if eps:
                assert not check.passed and check.max_residual > 1e-8
            else:
                assert check.passed and check.max_residual <= 1e-12


def reference_sample(n, radius, seed):
    """The loop sample_momenta replaced: each draw against every accepted momentum."""
    rng = np.random.default_rng(seed)
    values = []
    rejected = 0
    while len(values) < n:
        if rejected == smatrix.SAMPLE_TRIES:
            raise ValueError(f"could not sample {n} momenta with exclusion radius {radius}")
        k = float(rng.uniform(-smatrix.SAMPLE_SCALE, smatrix.SAMPLE_SCALE))
        if abs(k) < radius or any(abs(k - v) < radius or abs(k + v) < radius for v in values):
            rejected += 1
            continue
        rejected = 0
        values.append(k)
    return tuple(values)


class TestSampling:
    @pytest.mark.parametrize(
        "n, radius",
        [(1, 1e-3), (1, 2.9), (50, 1e-3), (300, 1e-3), (200, 1e-9), (10, 0.2), (12, 0.2)],
    )
    def test_same_sequence_as_the_quadratic_loop(self, n, radius):
        """(10, 0.2) rejects most draws; (12, 0.2) cannot be met at all."""
        for seed in range(4):
            try:
                want = reference_sample(n, radius, seed)
            except ValueError:
                with pytest.raises(ValueError, match="could not sample"):
                    sample_momenta(n, radius, seed)
                continue
            assert sample_momenta(n, radius, seed) == want

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

    def test_budget_counts_rejected_draws_in_a_row_only(self, monkeypatch):
        monkeypatch.setattr(smatrix, "SAMPLE_TRIES", 5)
        assert len(sample_momenta(50, 1e-9)) == 50

    def test_needs_positive_count(self):
        with pytest.raises(ValueError):
            sample_momenta(0)
