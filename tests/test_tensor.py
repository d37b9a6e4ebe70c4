import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtcheck.tensor import (
    dagger,
    embed_pair,
    identity_two_leg,
    kron,
    norm_inf,
    permutation_operator,
    swap_legs,
)

RNG = np.random.default_rng(1234)


def random_matrix(d):
    return RNG.standard_normal((d, d)) + 1j * RNG.standard_normal((d, d))


class TestKron:
    def test_identity_case(self):
        assert norm_inf(kron(np.eye(2), np.eye(2)) - np.eye(4)) == 0.0

    def test_diagonal_case(self):
        got = kron(np.diag([1.0, 2.0]), np.eye(2))
        assert norm_inf(got - np.diag([1.0, 1.0, 2.0, 2.0])) == 0.0

    def test_matches_entrywise_definition(self):
        a, b = random_matrix(2), random_matrix(2)
        got = kron(a, b)
        # brute-force index loop oracle
        for i1 in range(2):
            for i2 in range(2):
                for j1 in range(2):
                    for j2 in range(2):
                        assert abs(got[i1 * 2 + i2, j1 * 2 + j2] - a[i1, j1] * b[i2, j2]) < 1e-14

    def test_associativity_matches_three_leg_flattening(self):
        a, b, c = (random_matrix(2) for _ in range(3))
        left = np.kron(np.kron(a, b), c)
        right = np.kron(a, np.kron(b, c))
        assert norm_inf(left - right) < 1e-13

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kron(np.eye(2), np.eye(3))

    def test_stack_on_either_side_gives_the_stack_of_products(self):
        stack = np.stack([random_matrix(3) for _ in range(5)])
        b = random_matrix(3)
        left, right = kron(stack, b), kron(b, stack)
        assert left.shape == right.shape == (5, 9, 9)
        for p in range(5):
            assert np.array_equal(left[p], np.kron(stack[p], b))
            assert np.array_equal(right[p], np.kron(b, stack[p]))

    @pytest.mark.parametrize("shapes", [((4, 2, 2), (3, 3)), ((2, 3), (2, 3)), ((2,), (2,))])
    def test_stack_shape_mismatch(self, shapes):
        with pytest.raises(ValueError):
            kron(np.ones(shapes[0]), np.ones(shapes[1]))

    def test_nonfinite_entries_propagate(self):
        # NaN reaches the residual, which then fails its check
        bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
        out = kron(bad, np.eye(2))
        assert np.isnan(out[0, 0]) and np.isfinite(out[2:, 2:]).all()


class TestPermutation:
    def test_d1_is_scalar_one(self):
        assert permutation_operator(1).shape == (1, 1)
        assert permutation_operator(1)[0, 0] == 1.0

    def test_d2_rows(self):
        expected = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        assert norm_inf(permutation_operator(2) - expected) == 0.0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_squares_to_identity(self, d):
        p = permutation_operator(d)
        assert norm_inf(p @ p - np.eye(d * d)) == 0.0

    def test_conjugation_swaps_factors(self):
        a, b = random_matrix(3), random_matrix(3)
        p = permutation_operator(3)
        assert norm_inf(p @ kron(a, b) @ p - kron(b, a)) < 1e-13


class TestSwapLegs:
    def test_permutation_is_fixed(self):
        p = permutation_operator(2)
        assert norm_inf(swap_legs(p) - p) == 0.0

    def test_swaps_kron_factors(self):
        a, b = random_matrix(2), random_matrix(2)
        assert norm_inf(swap_legs(kron(a, b)) - kron(b, a)) < 1e-14

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_involution(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        assert np.array_equal(swap_legs(swap_legs(x)), x)


class TestEmbedPair:
    def test_identity_embeds_to_identity(self):
        assert norm_inf(embed_pair(identity_two_leg(2), (1, 2)) - np.eye(8)) == 0.0

    def test_permutation_on_legs_1_3(self):
        d = 2
        op = embed_pair(permutation_operator(d), (1, 3))
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    vec = np.zeros(d**3)
                    vec[(i * d + j) * d + k] = 1.0
                    out = op @ vec
                    expected = np.zeros(d**3)
                    expected[(k * d + j) * d + i] = 1.0
                    assert norm_inf(out - expected) == 0.0

    def test_legs_2_3_is_left_identity_kron(self):
        a, b = random_matrix(2), random_matrix(2)
        got = embed_pair(kron(a, b), (2, 3))
        expected = np.kron(np.eye(2), np.kron(a, b))
        assert norm_inf(got - expected) < 1e-13

    def test_invalid_pair(self):
        with pytest.raises(ValueError):
            embed_pair(identity_two_leg(2), (1, 1))
        with pytest.raises(ValueError):
            embed_pair(identity_two_leg(2), (1, 4))
        with pytest.raises(ValueError):
            embed_pair(identity_two_leg(2), (2, 1))


class TestNormDagger:
    def test_norm_of_zero(self):
        assert norm_inf(np.zeros((3, 3))) == 0.0

    def test_dagger_identity(self):
        assert norm_inf(dagger(np.eye(3)) - np.eye(3)) == 0.0

    def test_norm_of_difference_with_self(self):
        x = random_matrix(5)
        assert norm_inf(x - x) == 0.0

    def test_dagger_antihomomorphism(self):
        x, y = random_matrix(4), random_matrix(4)
        assert norm_inf(dagger(x @ y) - dagger(y) @ dagger(x)) < 1e-13

    def test_dagger_involution(self):
        x = random_matrix(4)
        assert norm_inf(dagger(dagger(x)) - x) == 0.0

    def test_stack_dagger_is_each_matrix_dagger(self):
        stack = RNG.standard_normal((5, 3, 3)) + 1j * RNG.standard_normal((5, 3, 3))
        got = dagger(stack)
        assert got.shape == (5, 3, 3)
        for x, x_dag in zip(stack, got):
            assert np.array_equal(x_dag, dagger(x))
            assert np.array_equal(x_dag, x.conj().T)

    def test_stack_norm_is_one_value_per_matrix(self):
        stack = RNG.standard_normal((4, 2, 3, 3)) + 1j * RNG.standard_normal((4, 2, 3, 3))
        got = norm_inf(stack)
        assert got.shape == (4, 2)
        assert all(got[i, j] == norm_inf(stack[i, j]) for i in range(4) for j in range(2))
        assert isinstance(norm_inf(stack[0, 0]), float)
