import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtcheck import fock
from rtcheck.config import build_model, parse_config
from rtcheck.defect import (
    DefectPair,
    ZeroMomentumError,
    pure_reflection_defect,
    pure_transmission_defect,
)
from rtcheck.deltamodel import DeltaModel
from rtcheck.doubling import build_doubled_model
from rtcheck.fock import (
    TWO_PI,
    OneParticleKernel,
    a,
    ad,
    add,
    compose,
    evaluate_coefficient,
    factorization_residual,
    hamiltonian_kernel,
    hierarchy_commutator_residual,
    hierarchy_relation_residual,
    identity_kernel,
    involution_kernel,
    kernel_distance,
    normal_order_vev,
    one_particle_amplitude,
    opta_agreement_residual,
    reflection_moment_kernel,
    resolve_momenta,
    scale,
)
from rtcheck.smatrix import identity_S, rational_S

DELTA = DeltaModel(1.0)
MODEL = DELTA.doubled()
FREE = DeltaModel(0.0).doubled()


def doubled_from_defect(pair):
    return build_doubled_model(identity_S(1), pair)


class TestNormalOrdering:
    def test_empty_word_is_unit(self):
        expr = normal_order_vev([], MODEL)
        assert len(expr.terms) == 1
        assert expr.terms[0].pairing == ()
        val = evaluate_coefficient(expr, expr.terms[0], {}, MODEL)
        assert val == 1.0 + 0.0j

    def test_single_crossing_reproduces_contraction_matrices(self):
        expr = normal_order_vev([a("q"), ad("p")], MODEL)
        assert len(expr.terms) == 2
        by_rel = {t.pairing[0][2]: t for t in expr.terms}
        q = 2.0
        envs = {+1: {"q": q, "p": q}, -1: {"q": q, "p": -q}}
        got_T = evaluate_coefficient(expr, by_rel[+1], envs[+1], MODEL)
        got_R = evaluate_coefficient(expr, by_rel[-1], envs[-1], MODEL)
        assert np.allclose(got_T, np.eye(2) + MODEL.defect.T(q), atol=1e-15)
        assert np.allclose(got_R, MODEL.defect.R(q), atol=1e-15)

    @pytest.mark.parametrize(
        "word",
        [[a("q")], [ad("p")], [a("q1"), a("q2"), ad("p")], [ad("p1"), ad("p2")]],
    )
    def test_unbalanced_words_are_zero(self, word):
        assert normal_order_vev(word, MODEL).is_zero

    def test_wrong_side_vacuum_kills_terms(self):
        # creator first, annihilator last: every term dies
        expr = normal_order_vev([ad("p"), a("q")], MODEL)
        assert expr.is_zero

    @given(st.lists(st.sampled_from(["a", "ad"]), min_size=0, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_particle_number_grading(self, kinds):
        word = [
            a(f"q{i}") if k == "a" else ad(f"p{i}") for i, k in enumerate(kinds)
        ]
        expr = normal_order_vev(word, MODEL)
        if kinds.count("a") != kinds.count("ad"):
            assert expr.is_zero

    def test_two_particle_term_count(self):
        # two matchings times two signs per pair
        expr = normal_order_vev([a("q2"), a("q1"), ad("k1"), ad("k2")], MODEL)
        assert len(expr.terms) == 8

    def test_resolve_momenta_propagates(self):
        expr = normal_order_vev([a("q"), ad("p")], MODEL)
        term = next(t for t in expr.terms if t.pairing[0][2] == -1)
        env = resolve_momenta(term, expr.word, {"q": 1.5})
        assert env["p"] == -1.5


class TestOneParticleAmplitude:
    def test_frozen_values_eta1(self):
        half = MODEL.half_line
        K = one_particle_amplitude(half, delta_2pi=True)
        assert abs(K.A(2.0)[0, 0] - TWO_PI * (4 - 2j) / 5) < 1e-12
        assert abs(K.B(2.0)[0, 0] - TWO_PI * (-1 - 2j) / 5) < 1e-12

    def test_free_case(self):
        half = FREE.half_line
        K = one_particle_amplitude(half, delta_2pi=True)
        assert abs(K.A(1.3)[0, 0] - TWO_PI) < 1e-15
        assert abs(K.B(1.3)[0, 0]) == 0.0

    def test_negative_momentum_uses_reflected_argument(self):
        half = MODEL.half_line
        K = one_particle_amplitude(half, delta_2pi=False)
        p = -1.7
        assert abs(K.A(p)[0, 0] - DELTA.T(-p)) < 1e-15
        assert abs(K.B(p)[0, 0] - DELTA.R(-p)) < 1e-15

    def test_zero_momentum_rejected(self):
        K = one_particle_amplitude(MODEL.half_line)
        with pytest.raises(ValueError):
            K.A(0.0)

    def test_engine_agrees_with_projected_amplitudes(self):
        for p in (2.0, -1.3, 0.4, -0.05):
            assert opta_agreement_residual(MODEL, p) <= 1e-12


class TestFactorization:
    def test_one_particle_is_exact(self):
        assert factorization_residual(1, [-1.3], [1.3], MODEL) <= 1e-15

    def test_two_particles_reference_momenta(self):
        assert factorization_residual(2, [-1.3, 2.1], [2.1, -1.3], MODEL) <= 1e-12

    def test_three_particles(self):
        ks = [-2.2, -0.9, 1.7]
        ps = sorted(ks, reverse=True)
        assert factorization_residual(3, ks, ps, MODEL) <= 1e-11

    def test_four_particles(self):
        ks = [-2.2, -0.9, 1.1, 3.0]
        ps = sorted(ks, reverse=True)
        assert factorization_residual(4, ks, ps, MODEL) <= 1e-11

    def test_free_model(self):
        assert factorization_residual(2, [-1.3, 2.1], [2.1, -1.3], FREE) <= 1e-15

    def test_ordering_violations_rejected(self):
        with pytest.raises(ValueError):
            factorization_residual(2, [2.1, -1.3], [2.1, -1.3], MODEL)
        with pytest.raises(ValueError):
            factorization_residual(2, [-1.3, 2.1], [-1.3, 2.1], MODEL)

    def test_zero_momentum_rejected(self):
        with pytest.raises(ValueError):
            factorization_residual(1, [0.0], [0.0], MODEL)

    def test_requires_scalar_isotopic_sector(self):
        T = lambda k: (k / (k + 1j)) * np.eye(2)
        R = lambda k: (-1j / (k + 1j)) * np.eye(2)
        m = build_doubled_model(rational_S(2, 1.0), DefectPair(2, R, T))
        with pytest.raises(ValueError):
            factorization_residual(1, [-1.0], [1.0], m)


class TestBraidWiring:
    """Independent oracle for the crossed two-particle coefficient.

    The cross pairing of a(p2) a(p1) ad(k1) ad(k2) arises from one braid of
    a(p1) past ad(k1) followed by two contractions; its coefficient tensor
    is written out here by explicit index sums and compared to the engine.
    """

    @pytest.mark.parametrize("model_name", ["delta", "rational"])
    @pytest.mark.parametrize("signs", [(+1, +1), (+1, -1), (-1, +1), (-1, -1)])
    def test_cross_pairing_coefficient(self, model_name, signs):
        if model_name == "delta":
            model = MODEL
        else:
            eta = 1.0
            half_line = DefectPair(
                2,
                lambda k: (-1j * eta / (k + 1j * eta)) * np.eye(2),
                lambda k: (k / (k + 1j * eta)) * np.eye(2),
            )
            model = build_doubled_model(rational_S(2, 1.0), half_line)
        d = model.doubled_dim
        s1, s2 = signs
        k1, k2 = -1.3, 2.1
        p1, p2 = s1 * k2, s2 * k1  # cross pairing: p1 with k2, p2 with k1
        expr = normal_order_vev([a("p2"), a("p1"), ad("k1"), ad("k2")], model)
        pairing = tuple(sorted([(1, 3, s1), (0, 2, s2)]))
        term = next(t for t in expr.terms if t.pairing == pairing)
        env = {"k1": k1, "k2": k2, "p1": p1, "p2": p2}
        got = evaluate_coefficient(expr, term, env, model)

        def cmat(sig, q):
            return (np.eye(d) + model.defect.T(q)) if sig == +1 else model.defect.R(q)

        s4 = model.calS.eval(p1, k1).reshape(d, d, d, d)
        m1 = cmat(s1, p1)  # contraction of the braided a(p1) with ad(k2)
        m2 = cmat(s2, p2)  # contraction of a(p2) with the braided ad(k1)
        manual = np.zeros((d, d, d, d), dtype=complex)
        for x0 in range(d):
            for x1 in range(d):
                for x2 in range(d):
                    for x3 in range(d):
                        acc = 0.0 + 0.0j
                        for f1 in range(d):
                            for f2 in range(d):
                                acc += m2[x0, f1] * s4[x1, f1, f2, x2] * m1[f2, x3]
                        manual[x0, x1, x2, x3] = acc
        assert np.allclose(got, manual, atol=1e-14)

    def test_diagonal_pairing_has_no_braid_factor(self):
        expr = normal_order_vev([a("p2"), a("p1"), ad("k1"), ad("k2")], MODEL)
        pairing = tuple(sorted([(1, 2, +1), (0, 3, +1)]))
        term = next(t for t in expr.terms if t.pairing == pairing)
        env = {"k1": 1.4, "k2": 2.0, "p1": 1.4, "p2": 2.0}
        got = evaluate_coefficient(expr, term, env, MODEL)
        c1 = np.eye(2) + MODEL.defect.T(1.4)
        c2 = np.eye(2) + MODEL.defect.T(2.0)
        # c1 ties axes (p1, k1) = (1, 2); c2 ties (p2, k2) = (0, 3)
        manual = np.einsum("bc,ad->abcd", c1, c2)
        assert np.allclose(got, manual, atol=1e-15)

    def test_particle_count_guard(self):
        labels = [f"x{i}" for i in range(7)]
        with pytest.raises(ValueError):
            fock.n_particle_expression(7, labels, labels, MODEL)


class TestKernels:
    def test_compose_with_identity(self):
        J = involution_kernel(MODEL)
        for p in (0.7, -1.9):
            assert kernel_distance(compose(identity_kernel(2), J), J, p) == 0.0

    def test_double_flip_is_diagonal(self):
        eye = np.eye(2, dtype=complex)
        zero = np.zeros((2, 2), dtype=complex)
        flip = OneParticleKernel(2, lambda p: zero, lambda p: eye)
        K = compose(flip, flip)
        assert np.allclose(K.A(0.9), eye)
        assert np.allclose(K.B(0.9), zero)

    def test_involution_squares_to_identity(self):
        J = involution_kernel(MODEL)
        assert kernel_distance(compose(J, J), identity_kernel(2), 0.7) <= 1e-13

    @pytest.mark.parametrize(
        "pair_fn", [pure_transmission_defect, pure_reflection_defect]
    )
    def test_involution_for_pure_defects(self, pair_fn):
        model = doubled_from_defect(pair_fn())
        J = involution_kernel(model)
        for p in (0.7, -2.3):
            assert kernel_distance(compose(J, J), identity_kernel(2), p) <= 1e-14

    @pytest.mark.parametrize("defect", [
        {"name": "delta", "eta": 1.0},
        {"name": "custom", "transmission": "k/(k+2i)", "reflection": "-2i/(k+2i)"},
        {"name": "pure-transmission"},
        {"name": "pure-reflection"},
    ])
    def test_defect_data_at_zero_momentum_raises(self, defect):
        # the kernels and the engine leaves read defect data through the
        # checked DefectPair.R/.T, so k = 0 is a domain error for every defect
        model = build_model(parse_config(json.dumps(
            {"bulk": "identity:dim=1", "defect": defect}))).doubled
        J = involution_kernel(model)
        for read in (J.A, J.B):
            with pytest.raises(ZeroMomentumError):
                read(0.0)
        expr = normal_order_vev([a("p"), ad("k")], model)
        for term in expr.terms:
            with pytest.raises(ZeroMomentumError):
                fock.physical_coefficient(expr, term, {"p": 0.0, "k": 0.0}, model)

    def test_composition_associativity(self):
        rng = np.random.default_rng(5)

        def bounded_kernel():
            ms = {s: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                  for s in (+1, -1)}
            return OneParticleKernel(
                2,
                lambda p: ms[+1] / (1 + p * p),
                lambda p: ms[-1] / (2 + p * p),
            )

        for _ in range(5):
            k1, k2, k3 = bounded_kernel(), bounded_kernel(), bounded_kernel()
            left = compose(compose(k1, k2), k3)
            right = compose(k1, compose(k2, k3))
            for p in (0.7, -1.2):
                assert kernel_distance(left, right, p) <= 1e-12

    def test_add_scale(self):
        J = involution_kernel(MODEL)
        twice = add(J, J)
        assert kernel_distance(twice, scale(J, 2.0), 0.7) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity_kernel(2), identity_kernel(4))


class TestHamiltonianKernels:
    def test_free_model_order_zero(self):
        K = hamiltonian_kernel(0, FREE)
        flip = np.array([[0, 1], [1, 0]], dtype=complex)
        assert np.allclose(K.A(1.1), np.eye(2) + flip)
        assert np.allclose(K.B(1.1), 0.0)

    def test_delta_model_order_two(self):
        K = hamiltonian_kernel(2, MODEL)
        p = 1.5
        expA = p**2 * (np.eye(2) + MODEL.defect.T(p))
        expB = p**2 * MODEL.defect.R(p)
        assert np.allclose(K.A(p), expA, atol=1e-13)
        assert np.allclose(K.B(p), expB, atol=1e-13)

    def test_odd_orders_through_engine(self):
        K = hamiltonian_kernel(1, MODEL)
        p = -0.8
        calT = np.asarray(MODEL.defect.T(p))
        expA = p * calT @ (np.eye(2) + calT)
        expB = p * calT @ np.asarray(MODEL.defect.R(p))
        assert np.allclose(K.A(p), expA, atol=1e-13)
        assert np.allclose(K.B(p), expB, atol=1e-13)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            hamiltonian_kernel(-1, MODEL)


class TestHierarchy:
    @pytest.mark.parametrize("mn", [(0, 2), (1, 3), (2, 4)])
    def test_same_parity_commutes(self, mn):
        for p in (0.7, -1.9, 2.4):
            assert hierarchy_commutator_residual(*mn, MODEL, p) <= 1e-12

    @pytest.mark.parametrize("mn", [(0, 1), (1, 2)])
    def test_opposite_parity_matches_reflection_term(self, mn):
        for p in (0.7, -1.9, 2.0):
            assert hierarchy_commutator_residual(*mn, MODEL, p) <= 1e-11

    def test_pure_transmission_all_commute(self):
        model = doubled_from_defect(pure_transmission_defect())
        for m, n in ((0, 1), (1, 2), (0, 2)):
            assert hierarchy_commutator_residual(m, n, model, 1.1) <= 1e-13

    def test_reflection_moment_kernel_vanishes_for_unitary_defect(self):
        # consequence of defect unitarity at the one-particle level: the
        # commutator identity is satisfied with both sides essentially zero
        K = reflection_moment_kernel(1, MODEL)
        for p in (0.7, -1.9):
            assert abs(K.A(p)).max() <= 1e-13
            assert abs(K.B(p)).max() <= 1e-13

    @pytest.mark.parametrize("n", [0, 2])
    def test_relation_kernel_identity(self, n):
        for p in (0.7, -1.9):
            assert hierarchy_relation_residual(n, MODEL, p) <= 1e-12

    def test_relation_for_rational_doubling(self):
        T = lambda k: (k / (k + 1j)) * np.eye(2)
        R = lambda k: (-1j / (k + 1j)) * np.eye(2)
        model = build_doubled_model(rational_S(2, 1.0), DefectPair(2, R, T))
        assert hierarchy_relation_residual(2, model, 0.7) <= 1e-12

    def test_relation_rejects_odd_orders(self):
        with pytest.raises(ValueError):
            hierarchy_relation_residual(1, MODEL, 0.7)

    def test_zero_momentum_rejected(self):
        with pytest.raises(ValueError):
            hierarchy_commutator_residual(0, 1, MODEL, 0.0)


def _reference_coefficient(expr, term, env, model):
    """The coefficient by one unplanned np.einsum per network."""
    n_ext = len(expr.word)
    total = np.zeros((model.doubled_dim,) * n_ext, dtype=complex)
    for net in term.networks:
        if not net:  # the empty word's unit network
            total = total + 1.0
            continue
        operands, seen = [], {}
        for atom in net:
            tensor, legs = fock._eval_atom(atom, env, model)
            operands += [tensor, [seen.setdefault(l, len(seen)) for l in legs]]
        total = total + np.einsum(*operands, [seen[l] for l in range(n_ext)])
    return total


def _rational_model():
    half_line = DefectPair(
        2, lambda k: (-1j / (k + 1j)) * np.eye(2), lambda k: (k / (k + 1j)) * np.eye(2)
    )
    return build_doubled_model(rational_S(2, 1.0), half_line)


PLAN_MOMENTA = {0: [], 1: [-1.3], 2: [-1.3, 2.1], 3: [-2.2, -0.9, 1.7]}


def _expression_terms(n, model):
    """(expr, term, env) for every term of the n-particle expression."""
    in_labels = [f"k{i+1}" for i in range(n)]
    out_labels = [f"p{i+1}" for i in range(n)]
    expr = fock.n_particle_expression(n, in_labels, out_labels, model)
    seeds = dict(zip(in_labels, PLAN_MOMENTA[n]))
    return [(expr, t, resolve_momenta(t, expr.word, seeds)) for t in expr.terms]


class TestPlannedContraction:
    @pytest.mark.parametrize("model_name", ["N=1", "N=2"])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_full_tensor_matches_unplanned_einsum(self, model_name, n):
        model = MODEL if model_name == "N=1" else _rational_model()
        for expr, term, env in _expression_terms(n, model):
            got = evaluate_coefficient(expr, term, env, model)
            ref = _reference_coefficient(expr, term, env, model)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref), initial=0.0) <= 1e-12

    @pytest.mark.parametrize("model_name", ["N=1", "N=2"])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_sliced_entry_equals_full_tensor_entry(self, model_name, n):
        model = MODEL if model_name == "N=1" else _rational_model()
        rng = np.random.default_rng(n)
        for expr, term, env in _expression_terms(n, model):
            full = evaluate_coefficient(expr, term, env, model)
            for _ in range(4):
                idx = tuple(int(i) for i in rng.integers(model.doubled_dim, size=2 * n))
                got = evaluate_coefficient(expr, term, env, model, at=idx)
                assert got.shape == ()
                assert abs(got[()] - full[idx]) <= 1e-12

    def test_one_cache_evaluates_each_leaf_once_per_query(self):
        model = _rational_model()
        calls = []

        def counted(flavour, fn):
            def evaluate(k):
                calls.append((flavour, k))
                return fn(k)
            return evaluate

        counting = replace(model, defect=DefectPair(
            model.doubled_dim, counted("R", model.defect.reflection),
            counted("T", model.defect.transmission)))
        jobs = _expression_terms(3, counting)
        alone = [evaluate_coefficient(e, t, env, counting) for e, t, env in jobs]
        assert len(calls) > len(set(calls))  # each call evaluates its own leaves
        calls.clear()
        cache: dict = {}
        shared = [evaluate_coefficient(e, t, env, counting, cache=cache) for e, t, env in jobs]
        assert len(calls) == len(set(calls))
        assert all(np.array_equal(x, y) for x, y in zip(alone, shared))

    def test_sliced_entry_needs_one_index_per_position(self):
        expr, term, env = _expression_terms(1, MODEL)[0]
        with pytest.raises(ValueError, match="one component index"):
            evaluate_coefficient(expr, term, env, MODEL, at=(0,))

    def test_concurrent_threads_get_identical_arrays(self):
        import sys
        import threading

        model = _rational_model()
        jobs = _expression_terms(3, model)
        results: dict[int, list] = {}
        start = threading.Barrier(4)

        def work(i):
            start.wait(timeout=60)
            results[i] = [evaluate_coefficient(e, t, env, model) for e, t, env in jobs]

        fock._plan.cache_clear()  # make the threads race on compiling plans
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert sorted(results) == [0, 1, 2, 3]
        for other in results.values():
            assert all(np.array_equal(x, y) for x, y in zip(results[0], other))


def _old_four_word_part(word, model, power, p, want_flip):
    """One part of a four-word kernel by a loop over all terms at p."""
    expr = normal_order_vev(word, model)
    d = model.doubled_dim
    out = np.zeros((d, d), dtype=complex)
    for term in expr.terms:
        env = resolve_momenta(term, expr.word, {"p": p})
        if "w" not in env or "q" not in env:
            continue
        if (env["q"] * p < 0) != want_flip:
            continue
        coeff = evaluate_coefficient(expr, term, env, model)
        out = out + env["w"] ** power * np.trace(coeff, axis1=1, axis2=2)
    return fock.HAMILTONIAN_PREFACTOR * out


class TestShapeCachedKernels:
    @pytest.mark.parametrize("dressed_pos", [1, 2])
    def test_same_shape_words_use_their_own_dress(self, dressed_pos):
        model = _rational_model()
        d = model.doubled_dim
        dresses = [
            lambda w: np.asarray(model.defect.R(w)),
            lambda w: np.eye(d) + w * np.arange(d * d).reshape(d, d),
        ]

        def word(dress):
            syms = [a("p"), ad("w"), a("w", sign=-1), ad("q")]
            syms[dressed_pos] = replace(syms[dressed_pos], dress=dress)
            return syms

        bare = normal_order_vev(word(None), model)
        bare_terms = {t.pairing: t for t in bare.terms}
        exprs = [normal_order_vev(word(f), model) for f in dresses]
        assert exprs[0].terms is exprs[1].terms  # one cached expansion
        got = []
        for expr, f in zip(exprs, dresses):
            for term in expr.terms:
                env = resolve_momenta(term, expr.word, {"p": 0.7})
                coeff = evaluate_coefficient(expr, term, env, model)
                plain = evaluate_coefficient(bare, bare_terms[term.pairing], env, model)
                # the dress contracts the symbol's component leg from outside
                if dressed_pos == 2:
                    ref = np.einsum("ij,abjd->abid", f(env["w"]), plain)
                else:
                    ref = np.einsum("ji,ajcd->aicd", f(env["w"]), plain)
                assert np.max(np.abs(coeff - ref)) <= 1e-13
                got.append(coeff)
        half = len(got) // 2
        assert any(np.max(np.abs(x - y)) > 1e-3 for x, y in zip(got[:half], got[half:]))

    @pytest.mark.parametrize("model_name", ["delta N=1", "rational N=2"])
    def test_kernels_match_the_per_term_loop(self, model_name):
        model = MODEL if model_name == "delta N=1" else _rational_model()
        mid_r = a("w", sign=-1, dress=lambda w: model.defect.R(w))
        for power in range(5):
            cases = [
                (hamiltonian_kernel(power, model), [a("p"), ad("w"), a("w"), ad("q")]),
                (reflection_moment_kernel(power, model), [a("p"), ad("w"), mid_r, ad("q")]),
            ]
            for K, word in cases:
                for p in (0.7, -0.7, 1.9, -1.9):
                    for part, flip in ((K.A, False), (K.B, True)):
                        ref = _old_four_word_part(word, model, power, p, flip)
                        assert np.max(np.abs(part(p) - ref)) <= 1e-14

    @pytest.mark.parametrize("count", [1, 50])
    def test_commutator_contracts_each_term_once_per_batch(self, monkeypatch, count):
        # 4 terms of H at p and at -p, 4 of the reflection moment at p,
        # however many momenta share the batch
        calls = []
        original = fock._contract

        def counting(*args, **kwargs):
            calls.append(len(args[1]))
            return original(*args, **kwargs)

        monkeypatch.setattr(fock, "_contract", counting)
        momenta = list(np.linspace(0.1, 2.9, count) * (-1) ** np.arange(count))
        residuals = fock.hierarchy_commutator_residuals(0, 1, _rational_model(), momenta)
        assert len(residuals) == count
        assert 0 < len(calls) <= 12
        assert set(calls) == {count}

    @pytest.mark.parametrize("model_name", ["delta N=1", "rational N=2"])
    def test_batch_equals_one_momentum_at_a_time(self, model_name):
        model = MODEL if model_name == "delta N=1" else _rational_model()
        rng = np.random.default_rng(11)
        momenta = [float(k) for k in rng.uniform(0.05, 3.0, 20) * np.repeat([1, -1], 10)]
        for m, n in ((0, 2), (1, 3), (2, 4), (0, 1), (1, 2)):
            batch = fock.hierarchy_commutator_residuals(m, n, model, momenta)
            assert batch == [hierarchy_commutator_residual(m, n, model, p) for p in momenta]
        for n in (0, 2):
            batch = fock.hierarchy_relation_residuals(n, model, momenta)
            assert batch == [hierarchy_relation_residual(n, model, p) for p in momenta]

    def test_batched_forms_keep_the_one_momentum_errors(self):
        with pytest.raises(ValueError, match="p = 0"):
            fock.hierarchy_commutator_residuals(0, 1, MODEL, [0.7, 0.0])
        with pytest.raises(ValueError, match="even orders"):
            fock.hierarchy_relation_residuals(1, MODEL, [0.7])

    def test_suite_threads_agree_on_the_hierarchy_checks(self):
        import json
        import sys
        from concurrent.futures import ThreadPoolExecutor

        from rtcheck.config import build_model, parse_config
        from rtcheck.report import emit_report
        from rtcheck.suite import CHECKS, run_suite

        names = [name for name in CHECKS if name.startswith("hierarchy-")]
        assert len(names) == 7
        model = build_model(parse_config(json.dumps({
            "bulk": "rational:N=2,c=1", "samples": 12, "seed": 4, "checks": names})))
        sequential = emit_report(run_suite(model), "json")
        fock._expand.cache_clear()  # make the threads race on expanding shapes
        fock._plan.cache_clear()  # and on compiling plans
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                reports = list(pool.map(
                    lambda _: emit_report(run_suite(model), "json"), range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert reports == [sequential] * 4

    def test_concurrent_threads_on_a_cleared_cache_agree(self):
        import sys
        import threading

        model = _rational_model()
        momenta = (0.7, -1.3, 2.2)

        def residuals():
            return [
                (hierarchy_commutator_residual(m, n, model, p),
                 hierarchy_relation_residual(2, model, p))
                for m, n in ((0, 1), (1, 3)) for p in momenta
            ]

        serial = residuals()
        results: dict[int, list] = {}
        start = threading.Barrier(4)

        def work(i):
            start.wait(timeout=60)
            results[i] = residuals()

        fock._expand.cache_clear()  # make the threads race on expanding shapes
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert all(results[i] == serial for i in range(4))
