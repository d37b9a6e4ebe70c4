import dataclasses
import json

import numpy as np
import pytest

from rtcheck import smatrix
from rtcheck.config import DEFAULT_TOLERANCE, AssembledModel, build_model, parse_config
from rtcheck.doubling import SECTORS, build_doubled_model, double_S_bulk
from rtcheck.smatrix import (
    BulkSMatrix,
    identity_S,
    permutation_S,
    rational_S,
    sample_momenta,
    sector_blocks,
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


CATALOG_BULKS = [identity_S(1), identity_S(2), permutation_S(2), permutation_S(3),
                 rational_S(1, 1.0), rational_S(2, 1.0), rational_S(3, 0.7)]
SIGNED_TRIPLES = TRIPLES + [(-0.7, -0.4, 1.9), (0.3, 1.1, 2.2), (-1.3, -2.1, -0.6)]


class TestSectorBlockedYangBaxter:
    """A doubled S-matrix has two blocks per leg; ybe_residual reads the
    sector blocks out of each evaluated factor."""

    @pytest.mark.parametrize("bulk", CATALOG_BULKS, ids=lambda s: s.name)
    def test_doubled_catalog_bulks_are_exactly_sector_diagonal(self, bulk):
        dS = double_S_bulk(bulk)
        assert dS.sectors == 2 and bulk.sectors == 1
        pairs = [(a, b) for a, b, _ in SIGNED_TRIPLES]
        blocks, off_sector = sector_blocks(np.stack([dS.eval(a, b) for a, b in pairs]), 2)
        assert off_sector.tolist() == [0.0] * len(pairs)  # one size per operator
        for (a, b), block in zip(pairs, blocks):
            for (x1, x2), (s1, s2) in SECTORS.items():
                assert np.array_equal(block[x1, x2], bulk.eval(s1 * a, s2 * b))

    @pytest.mark.parametrize("bulk", CATALOG_BULKS, ids=lambda s: s.name)
    def test_blocked_residual_matches_the_dense_products(self, bulk):
        dS = double_S_bulk(bulk)
        for k in SIGNED_TRIPLES:
            assert abs(ybe_residual(dS, *k) - dense_ybe(dS, *k)) <= 1e-15

    @pytest.mark.parametrize("d", [2, 3])
    def test_blocked_residual_matches_the_dense_products_on_generic_data(self, d):
        """A translation-invariant bulk that solves nothing (d > 1, so its
        values do not commute), so the residual is O(1)."""
        rng = np.random.default_rng(d)
        a, b = rng.normal(size=(2, d * d, d * d)) + 1j * rng.normal(size=(2, d * d, d * d))
        dS = double_S_bulk(BulkSMatrix(d, lambda k1, k2: a + (k1 - k2) * b, True))
        for k in SIGNED_TRIPLES:
            want = dense_ybe(dS, *k)
            assert want > 1.0
            assert abs(ybe_residual(dS, *k) - want) <= 1e-12 * want

    @staticmethod
    def misplaced(model, sector, wrong):
        """The doubled S-matrix with the block of `sector` (xi1, xi2) written
        into the columns of sector `wrong`, through the public constructor."""
        good = model.doubled.calS
        n = model.bulk.leg_dim
        x1, x2 = (slice(x * n, x * n + n) for x in sector)
        y1, y2 = (slice(x * n, x * n + n) for x in wrong)

        def fn(k1, k2):
            out = good.eval(k1, k2).reshape((2 * n,) * 4).copy()
            out[x1, x2, y1, y2] = out[x1, x2, x1, x2]
            out[x1, x2, x1, x2] = 0.0
            return out.reshape(4 * n * n, 4 * n * n)

        bad = BulkSMatrix(2 * n, fn, False, name="misplaced", sectors=2)
        return dataclasses.replace(model, doubled=dataclasses.replace(model.doubled, calS=bad))

    @pytest.mark.parametrize("bulk", ["identity:dim=1", "rational:N=2", "rational:N=3"])
    def test_a_block_in_the_wrong_sector_fails_ybe_doubled(self, bulk):
        model = build_model(parse_config(json.dumps({
            "bulk": bulk, "samples": 3, "checks": ["ybe(doubled)"]})))
        assert model.cfg.tolerance == DEFAULT_TOLERANCE
        assert run_suite(model).all_pass
        for sector in SECTORS:
            for wrong in SECTORS:
                if wrong != sector:
                    (check,) = run_suite(self.misplaced(model, sector, wrong)).checks
                    assert not check.passed and check.max_residual >= 0.5

    def test_an_off_sector_entry_counts_at_its_own_point_only(self):
        """On momentum arrays each point's residual takes the off-sector
        entries of its own factors: misplaced where k1 > 1, exact elsewhere."""
        model = build_model(parse_config(json.dumps({"bulk": "rational:N=2"})))
        good = model.doubled.calS
        bad = self.misplaced(model, (0, 1), (1, 0)).doubled.calS
        S = BulkSMatrix(4, lambda k1, k2: (bad if k1 > 1 else good).eval(k1, k2), False,
                        sectors=2)
        ks = sample_momenta(12, seed=8)
        points = [(a, b, c) for a, b, c in zip(ks, ks[1:], ks[2:])]
        got = ybe_residual(S, *np.array(points).T)
        assert got.tolist() == [ybe_residual(S, *pt) for pt in points]
        assert {r >= 0.5 for r in got} == {True, False}


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
