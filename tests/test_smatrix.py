import dataclasses
import itertools
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
    """A doubled S-matrix has two blocks per leg; ybe_residual and
    unitarity_residual read them through S.sector_blocks."""

    @pytest.mark.parametrize("bulk", CATALOG_BULKS, ids=lambda s: s.name)
    def test_doubled_catalog_bulks_are_exactly_sector_diagonal(self, bulk):
        dS, n = double_S_bulk(bulk), bulk.leg_dim
        assert dS.sectors == 2 and bulk.sectors == 1
        for a, b, _ in SIGNED_TRIPLES:
            # axes (row x1, x2, column y1, y2, row i1, i2, column j1, j2)
            u = dS.eval(a, b).reshape(2, n, 2, n, 2, n, 2, n).transpose(0, 2, 4, 6, 1, 3, 5, 7)
            for x, y in itertools.product(SECTORS, repeat=2):
                block = u[(*x, *y)].reshape(n * n, n * n)
                if x == y:
                    s1, s2 = SECTORS[x]
                    assert np.array_equal(block, bulk.eval(s1 * a, s2 * b))
                else:
                    assert not block.any()

    @pytest.mark.parametrize("bulk", CATALOG_BULKS, ids=lambda s: s.name)
    def test_the_dense_matrix_is_the_scatter_of_the_blocks(self, bulk):
        """The engine reads the doubled S-matrix dense and the checks read its
        blocks: at signed momenta, as floats and as arrays, the dense matrix
        holds the blocks bit for bit in the SECTORS slices, and +0.0 elsewhere."""
        dS, n = double_S_bulk(bulk), bulk.leg_dim
        k1, k2 = (np.array(k) for k in list(zip(*SIGNED_TRIPLES))[:2])
        for a, b in [(k1, k2), *zip(k1.tolist(), k2.tolist())]:
            blocks, lead = dS.sector_blocks(a, b), np.shape(a)
            scatter = np.zeros((*lead, 2 * n, 2 * n, 2 * n, 2 * n), dtype=complex)
            for block, (x1, x2) in zip(blocks, SECTORS):
                r1, r2 = slice(x1 * n, x1 * n + n), slice(x2 * n, x2 * n + n)
                scatter[..., r1, r2, r1, r2] = block.reshape(*lead, n, n, n, n)
            dense = dS.eval(a, b)
            assert dense.shape == (*lead, 4 * n * n, 4 * n * n)
            assert np.ascontiguousarray(dense).tobytes() == scatter.tobytes()

    def test_sectors_follow_the_blocks(self):
        with pytest.raises(TypeError):
            BulkSMatrix(2, lambda k1, k2: np.eye(4), True, sectors=2)
        S = rational_S(2, 1.0)
        ks = np.array([0.3, -1.2])
        assert np.array_equal(S.sector_blocks(ks, -ks), S.eval(ks, -ks)[None])

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
    def reordered(model, order):
        """The model with the doubled S-matrix's sector blocks read in `order`
        (block i of the result is block order[i]), through dataclasses.replace."""
        good = model.doubled.calS
        bad = dataclasses.replace(good, blocks=lambda k1, k2: good.blocks(k1, k2)[list(order)])
        return dataclasses.replace(model, doubled=dataclasses.replace(model.doubled, calS=bad))

    @staticmethod
    def one_check(bulk, check):
        model = build_model(parse_config(json.dumps({
            "bulk": bulk, "samples": 3, "checks": [check]})))
        assert model.cfg.tolerance == DEFAULT_TOLERANCE
        assert run_suite(model).all_pass
        return model

    # No N = 1 row: there every block is 1 x 1, so any block data commutes and
    # solves Yang-Baxter.
    @pytest.mark.parametrize("order", [(0, 2, 1, 3), (3, 1, 2, 0), (1, 0, 2, 3)])
    @pytest.mark.parametrize("bulk", ["rational:N=2", "rational:N=3"])
    def test_blocks_in_the_wrong_sectors_fail_ybe_doubled(self, bulk, order):
        model = self.one_check(bulk, "ybe(doubled)")
        (check,) = run_suite(self.reordered(model, order)).checks
        assert not check.passed and check.max_residual >= 0.5

    @pytest.mark.parametrize("bulk", ["rational:N=2", "rational:N=3"])
    def test_swapped_same_side_blocks_fail_unitarity_doubled(self, bulk):
        """Sector (+,+) reads s(k1 + k2) and (+,-) reads s(k1 - k2): S21(k2, k1)
        then no longer inverts S(k1, k2)."""
        model = self.one_check(bulk, "unitarity-S(doubled)")
        (check,) = run_suite(self.reordered(model, (1, 0, 2, 3))).checks
        assert not check.passed and check.max_residual >= 0.5

    def test_a_break_counts_at_its_own_points_only(self):
        """On momentum arrays each point's residual reads its own blocks: with
        the first two blocks swapped where a factor's first momentum is above
        1, exactly the triples with k1 > 1 or k2 > 1 fail, and the others stay
        at rounding level."""
        good = build_model(parse_config(json.dumps({"bulk": "rational:N=2"}))).doubled.calS

        def blocks(k1, k2):
            read = good.blocks(k1, k2)
            return np.where((k1 > 1)[:, None, None], read[[1, 0, 2, 3]], read)

        S = dataclasses.replace(good, blocks=blocks)
        ks = sample_momenta(12, seed=8)
        points = np.array(list(zip(ks, ks[1:], ks[2:]))).T
        got = ybe_residual(S, *points)
        broken = np.maximum(points[0], points[1]) > 1
        assert got.tolist() == [ybe_residual(S, *pt[:, None])[0] for pt in points.T]
        assert set(broken) == {True, False}
        assert (got > DEFAULT_TOLERANCE).tolist() == broken.tolist()
        assert max(got[~broken]) <= 1e-15


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

    @pytest.mark.parametrize("tries", [1, 9, 10, 11, 37])
    @pytest.mark.parametrize("n, radius", [(10, 0.2), (12, 0.2), (3, 2.9), (10, 1e-3)])
    def test_batched_draws_keep_the_one_draw_walk(self, monkeypatch, n, radius, tries):
        """Draws come n at a time; the accepted momenta and the give-up
        after SAMPLE_TRIES rejections in a row are those of one draw per
        call, whether or not the budget ends with a batch."""
        monkeypatch.setattr(smatrix, "SAMPLE_TRIES", tries)
        for seed in range(6):
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
