import itertools
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rtcheck import doubling, fock
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
        assert not normal_order_vev(word, MODEL).terms

    def test_wrong_side_vacuum_kills_terms(self):
        # creator first, annihilator last: every term dies
        expr = normal_order_vev([ad("p"), a("q")], MODEL)
        assert not expr.terms

    @given(st.lists(st.sampled_from(["a", "ad"]), min_size=0, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_particle_number_grading(self, kinds):
        word = [
            a(f"q{i}") if k == "a" else ad(f"p{i}") for i, k in enumerate(kinds)
        ]
        expr = normal_order_vev(word, MODEL)
        if kinds.count("a") != kinds.count("ad"):
            assert not expr.terms

    def test_two_particle_term_count(self):
        # two matchings times two signs per pair
        expr = normal_order_vev([a("q2"), a("q1"), ad("k1"), ad("k2")], MODEL)
        assert len(expr.terms) == 8

    @pytest.mark.parametrize("dress", [
        ("R", +1), ("I + calT", +1), ("calR", 2), ("calR", 0), ("calT",), ["calT", 1], "calT",
        MODEL.defect.R, lambda w: np.eye(2)])
    def test_a_malformed_dress_is_rejected_at_construction(self, dress):
        """A dress is (datum, sign): a callable, the old form, fails at once."""
        for kind in ("a", "ad"):
            with pytest.raises(ValueError, match="a dress is"):
                fock.WordSymbol(kind, "w", -1, dress)

    def test_resolve_momenta_propagates(self):
        expr = normal_order_vev([a("q"), ad("p")], MODEL)
        term = next(t for t in expr.terms if t.pairing[0][2] == -1)
        env = resolve_momenta(term, expr.word, {"q": 1.5})
        assert env["p"] == -1.5

    @pytest.mark.parametrize("n", range(5))
    def test_one_pass_resolves_amplitude_words_like_the_fixed_point(self, n):
        in_labels = [f"k{i+1}" for i in range(n)]
        expr = fock.n_particle_expression(n, in_labels, [f"p{i+1}" for i in range(n)], MODEL)
        seeds = dict(zip(in_labels, [-2.2, -0.9, 1.3, 1.7][:n]))
        for term in expr.terms:
            env = resolve_momenta(term, expr.word, seeds)
            assert env == _fixed_point_momenta(term, expr.word, seeds)
            assert len(env) == 2 * n

    def test_one_pass_resolves_hierarchy_words_like_the_fixed_point(self, monkeypatch):
        words = {}
        original = fock.normal_order_vev

        def recording(word, model):
            expr = original(word, model)
            words[tuple((s.kind, s.sign, s.dress is not None) for s in word)] = expr
            return expr

        monkeypatch.setattr(fock, "normal_order_vev", recording)
        fock.hierarchy_commutator_residuals([(0, 1)], MODEL, [0.7])
        fock.hierarchy_relation_residuals(2, MODEL, [0.7])
        assert len(words) == 7  # every four-word the hierarchy checks build
        for expr in words.values():
            assert expr.terms
            for term in expr.terms:
                for p in (1.0, -0.7):
                    env = resolve_momenta(term, expr.word, {"p": p})
                    assert env == _fixed_point_momenta(term, expr.word, {"p": p})
                    assert set(env) == {"p", "w", "q"}


@st.composite
def balanced_words(draw, max_n=4):
    """n annihilators and n creators in any order, n <= max_n, each with a
    label p, q or w, a sign and any dress or none."""
    n = draw(st.integers(0, max_n))
    kinds = draw(st.permutations(["a"] * n + ["ad"] * n))
    signs = st.sampled_from((+1, -1))
    dresses = st.none() | st.tuples(st.sampled_from(fock.DRESSES), signs)
    return [fock.WordSymbol(kind, draw(st.sampled_from("pqw")), draw(signs), draw(dresses))
            for kind in kinds]


@st.composite
def unbalanced_words(draw):
    """Up to seven symbols, annihilators and creators in unequal numbers."""
    kinds = draw(st.lists(st.sampled_from(["a", "ad"]), max_size=7)
                 .filter(lambda kinds: 2 * kinds.count("a") != len(kinds)))
    return [fock.WordSymbol(kind, draw(st.sampled_from("pqw"))) for kind in kinds]


@st.composite
def annihilator_last_words(draw):
    """A balanced word with one of its annihilators moved to the right end,
    where it meets the vacuum ket."""
    word = draw(balanced_words().filter(bool))
    i = draw(st.sampled_from([i for i, s in enumerate(word) if s.kind == "a"]))
    return word[:i] + word[i + 1:] + [word[i]]


def _braid_rewriting_expand(shape):
    """The reference for ``fock._expand``: the word rewritten one creator at
    a time.  The rightmost annihilator contracts with the creator on its
    right, by T or by R, or braids past it; one that reaches the vacuum ends
    its state.  Gives (pairing, network, legs) per term, in pairing order."""
    if 2 * sum(1 for kind, *_ in shape if kind == "a") != len(shape):
        return []
    init_atoms, init_word = [], []
    free = len(shape)
    for pos, (kind, label, sign, dress) in enumerate(shape):
        leg = pos
        if dress is not None:
            inner, free = free, free + 1
            legs = (inner, pos) if kind == "ad" else (pos, inner)
            init_atoms.append((dress[0], legs, (dress[1], label)))
            leg = inner
        init_word.append((pos, kind, (sign, label), leg))
    done = []
    stack = [(tuple(init_atoms), (), tuple(init_word), free)]
    while stack:
        atoms, pairs, live, free = stack.pop()
        idx = max((i for i, e in enumerate(live) if e[1] == "a"), default=None)
        if idx is None:
            done.append((tuple(sorted(pairs)), atoms, tuple(atom[1] for atom in atoms)))
            continue
        if idx == len(live) - 1:
            continue
        a_pos, _, a_expr, a_leg = live[idx]
        c_pos, c_kind, c_expr, c_leg = live[idx + 1]
        rest = live[:idx] + live[idx + 2:]
        stack.append((atoms + (("T", (a_leg, c_leg), a_expr),),
                      pairs + ((a_pos, c_pos, a_expr[0] * c_expr[0]),), rest, free))
        stack.append((atoms + (("R", (a_leg, c_leg), a_expr),),
                      pairs + ((a_pos, c_pos, -a_expr[0] * c_expr[0]),), rest, free))
        swapped = live[:idx] + ((c_pos, c_kind, c_expr, free),
                                (a_pos, "a", a_expr, free + 1)) + live[idx + 2:]
        stack.append((atoms + (("S", (a_leg, free, free + 1, c_leg), a_expr, c_expr),),
                      pairs, swapped, free + 2))
    return sorted(done, key=lambda term: term[0])


class TestOneNetworkPerTerm:
    """A pairing fixes its expansion path: the rightmost annihilator braids
    past every creator up to its partner and contracts by T or R, which the
    pairing's sign tells apart, so no two paths end in one pairing and each
    term holds one network."""

    @settings(max_examples=200, deadline=None)
    @given(balanced_words())
    def test_pairings_are_distinct_and_sorted(self, word):
        pairings = [term.pairing for term in normal_order_vev(word, MODEL).terms]
        assert pairings == sorted(set(pairings))

    @settings(max_examples=300, deadline=None)
    @given(balanced_words() | unbalanced_words() | annihilator_last_words())
    def test_terms_equal_the_braid_rewriting_expansion(self, word):
        """Expanding by partner choice gives the terms of rewriting the word
        one creator at a time: pairing, network, leg lists and order, each
        distinct leg lists one object."""
        terms = normal_order_vev(word, MODEL).terms
        shape = tuple((s.kind, s.label, s.sign, s.dress) for s in word)
        assert [(t.pairing, t.network, t.legs) for t in terms] == _braid_rewriting_expand(shape)
        assert len({id(t.legs) for t in terms}) == len({t.legs for t in terms})

    @pytest.mark.parametrize("n", range(7))
    def test_n_particle_words_have_one_term_per_pairing(self, n):
        labels = [f"k{i}" for i in range(n)], [f"p{i}" for i in range(n)]
        expr = fock.n_particle_expression(n, *labels, MODEL)
        terms = expr.terms
        assert len(terms) == math.factorial(n) * 2 ** n
        assert len({term.pairing for term in terms}) == len(terms)
        # n! topologies, and the reference's terms in its order
        assert len({id(t.legs) for t in terms}) == len({t.legs for t in terms}) == math.factorial(n)
        shape = tuple((s.kind, s.label, s.sign, s.dress) for s in expr.word)
        assert [(t.pairing, t.network, t.legs) for t in terms] == _braid_rewriting_expand(shape)


def _walked_momenta(term, word, seeds):
    """The reference for the array resolver: one Python walk of a term's
    pairing, in pairing order, where each pair meets a known label."""
    env = dict(seeds)
    for a_pos, c_pos, rel in term.pairing:
        la, lc = word[a_pos].label, word[c_pos].label
        if la in env and lc not in env:
            env[lc] = env[la] / rel
        elif lc in env and la not in env:
            env[la] = rel * env[lc]
    return env


def _bits(env):
    return {label: np.float64(value).tobytes() for label, value in env.items()}


HIERARCHY_MIDS = [
    (creator, annihilator)
    for creator in (ad("w"), ad("w", dress=("I+calT", +1)), ad("w", sign=-1, dress=("calR", -1)))
    for annihilator in (a("w"), a("w", dress=("I+calT", +1)), a("w", dress=("calT", +1)),
                        a("w", sign=-1, dress=("calR", +1)))]


class TestArrayResolver:
    """``resolved_momenta`` resolves every term of an expansion in one walk
    of the pairings over all terms and one gather, with the bits of one
    Python walk per term; ``resolve_momenta`` is its one-term view."""

    @staticmethod
    def _check(expr, seeds):
        labels = fock._labels(expr.word)
        momenta, sign = fock.resolved_momenta(expr.word, expr.terms, seeds)
        assert momenta.shape == sign.shape == (len(expr.terms), len(labels))
        for term, row, signs in zip(expr.terms, momenta, sign):
            want = _walked_momenta(term, expr.word, seeds)
            reached = [label for label in labels if label in want]
            assert [label for label, s in zip(labels, signs) if s] == reached
            assert row[signs != 0].tobytes() == np.array(
                [want[label] for label in reached], dtype=float).tobytes()
            assert _bits(resolve_momenta(term, expr.word, seeds)) == _bits(want)

    @settings(max_examples=200, deadline=None)
    @given(balanced_words(), st.data())
    def test_words_seeded_at_their_creators(self, word, data):
        values = st.sampled_from([-2.2, -0.9, -0.0, 0.0, 1.3]) | st.floats(allow_nan=False)
        seeds = {s.label: data.draw(values) for s in word if s.kind == "ad"}
        self._check(normal_order_vev(word, MODEL), seeds)

    @pytest.mark.parametrize("creator, annihilator", HIERARCHY_MIDS)
    def test_hierarchy_words_seeded_at_p(self, creator, annihilator):
        expr = normal_order_vev([a("p"), creator, annihilator, ad("q")], MODEL)
        for p in (1.0, -0.7, 0.0, -0.0):
            self._check(expr, {"p": p})
        # the traced pass reads each term's w and q as the signs of the walk at p = 1
        ps = np.array([0.7, -1.3, 2.2])
        got = fock._traced_passes(MODEL, [(creator, annihilator, ps)])[0]
        want: tuple[list, list] = ([], [])
        for term in expr.terms:
            env = _walked_momenta(term, expr.word, {"p": 1.0})
            want[env["q"] < 0].append((env["w"] * ps).tolist())
        assert [[ws for ws, _ in part] for part in got] == list(want)
        assert all(part for part in want)


def _fixed_point_momenta(term, word, seeds):
    """The reference for resolve_momenta: sweep the pairing until a sweep
    sets no label."""
    env = dict(seeds)
    changed = True
    while changed:
        changed = False
        for a_pos, c_pos, rel in term.pairing:
            la, lc = word[a_pos].label, word[c_pos].label
            if la in env and lc not in env:
                env[lc] = env[la] / rel
                changed = True
            elif lc in env and la not in env:
                env[la] = rel * env[lc]
                changed = True
    return env


class TestOneParticleAmplitude:
    def test_frozen_values_eta1(self):
        half = MODEL.half_line
        K = one_particle_amplitude(half, 2.0, delta_2pi=True)
        assert abs(K.A[0, 0] - TWO_PI * (4 - 2j) / 5) < 1e-12
        assert abs(K.B[0, 0] - TWO_PI * (-1 - 2j) / 5) < 1e-12

    def test_free_case(self):
        half = FREE.half_line
        K = one_particle_amplitude(half, 1.3, delta_2pi=True)
        assert abs(K.A[0, 0] - TWO_PI) < 1e-15
        assert abs(K.B[0, 0]) == 0.0

    def test_negative_momentum_uses_reflected_argument(self):
        half = MODEL.half_line
        p = -1.7
        K = one_particle_amplitude(half, p, delta_2pi=False)
        assert abs(K.A[0, 0] - DELTA.T(-p)) < 1e-15
        assert abs(K.B[0, 0] - DELTA.R(-p)) < 1e-15

    def test_zero_momentum_rejected(self):
        with pytest.raises(ValueError):
            one_particle_amplitude(MODEL.half_line, 0.0)

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
        for p in (0.7, -1.9):
            J = involution_kernel(MODEL, p)
            assert kernel_distance(
                compose(identity_kernel(2), J, involution_kernel(MODEL, -p)), J) == 0.0

    def test_double_flip_is_diagonal(self):
        eye = np.eye(2, dtype=complex)
        zero = np.zeros((2, 2), dtype=complex)
        flip = OneParticleKernel(zero, eye)  # the same at p and -p
        K = compose(flip, flip, flip)
        assert np.allclose(K.A, eye)
        assert np.allclose(K.B, zero)

    def test_involution_squares_to_identity(self):
        J = involution_kernel(MODEL, 0.7)
        JJ = compose(J, J, involution_kernel(MODEL, -0.7))
        assert kernel_distance(JJ, identity_kernel(2)) <= 1e-13

    @pytest.mark.parametrize(
        "pair_fn", [pure_transmission_defect, pure_reflection_defect]
    )
    def test_involution_for_pure_defects(self, pair_fn):
        model = doubled_from_defect(pair_fn())
        for p in (0.7, -2.3):
            J = involution_kernel(model, p)
            JJ = compose(J, J, involution_kernel(model, -p))
            assert kernel_distance(JJ, identity_kernel(2)) <= 1e-14

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
        for p in (0.0, np.array([0.7, 0.0])):
            with pytest.raises(ZeroMomentumError):
                involution_kernel(model, p)
        expr = normal_order_vev([a("p"), ad("k")], model)
        for term in expr.terms:
            with pytest.raises(ZeroMomentumError):
                fock.physical_coefficients(expr, [term], np.zeros((1, 2)), model)

    def test_composition_associativity(self):
        """(K1 K2) K3 = K1 (K2 K3) at p, where K2 K3 at -p composes K2 and K3
        at -p with K3 at p, for kernels whose values at p and -p differ."""
        rng = np.random.default_rng(5)

        def bounded_kernel():
            m = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(4)]
            return lambda p: OneParticleKernel((m[0] + p * m[1]) / (1 + p * p),
                                               (m[2] + p * m[3]) / (2 + p * p))

        for _ in range(5):
            k1, k2, k3 = bounded_kernel(), bounded_kernel(), bounded_kernel()
            for p in (0.7, -1.2):
                assert kernel_distance(k2(p), k2(-p)) > 0.1
                left = compose(compose(k1(p), k2(p), k2(-p)), k3(p), k3(-p))
                k23_reflected = compose(k2(-p), k3(-p), k3(p))
                right = compose(k1(p), compose(k2(p), k3(p), k3(-p)), k23_reflected)
                assert kernel_distance(left, right) <= 1e-12

    def test_the_reflected_factor_must_be_read_at_minus_p(self):
        """Mutation check of compose's third argument: on delta N=1 data, J
        at p passed as its own reflection makes J o J miss the identity."""
        for p in (0.7, -1.3, 2.1):
            J = involution_kernel(MODEL, p)
            assert kernel_distance(compose(J, J, involution_kernel(MODEL, -p)),
                                   identity_kernel(2)) <= 1e-13
            assert kernel_distance(compose(J, J, J), identity_kernel(2)) > 1e-3

    def test_add_scale(self):
        J = involution_kernel(MODEL, 0.7)
        twice = add(J, J)
        assert kernel_distance(twice, scale(J, 2.0)) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity_kernel(2), identity_kernel(4), identity_kernel(4))

    def test_array_momentum_gives_one_distance_per_momentum(self):
        p = np.array([0.7, -1.3])
        H = hamiltonian_kernel(2, MODEL, p)
        got = kernel_distance(H, scale(H, 2.0))
        want = [kernel_distance(hamiltonian_kernel(2, MODEL, q),
                                scale(hamiltonian_kernel(2, MODEL, q), 2.0)) for q in p]
        assert got == pytest.approx(want, rel=1e-15)
        # kernels on defect data read it through DefectPair.R/.T, which take arrays

        def j_squared(q):
            J = involution_kernel(MODEL, q)
            return compose(J, J, involution_kernel(MODEL, -q))

        for K in (j_squared, lambda q: one_particle_amplitude(MODEL.half_line, q)):
            got = kernel_distance(K(p), identity_kernel(2))
            assert list(got) == [kernel_distance(K(q), identity_kernel(2)) for q in p]


class TestHamiltonianKernels:
    def test_free_model_order_zero(self):
        K = hamiltonian_kernel(0, FREE, 1.1)
        flip = np.array([[0, 1], [1, 0]], dtype=complex)
        assert np.allclose(K.A, np.eye(2) + flip)
        assert np.allclose(K.B, 0.0)

    def test_delta_model_order_two(self):
        p = 1.5
        K = hamiltonian_kernel(2, MODEL, p)
        expA = p**2 * (np.eye(2) + MODEL.defect.T(p))
        expB = p**2 * MODEL.defect.R(p)
        assert np.allclose(K.A, expA, atol=1e-13)
        assert np.allclose(K.B, expB, atol=1e-13)

    def test_odd_orders_through_engine(self):
        p = -0.8
        K = hamiltonian_kernel(1, MODEL, p)
        calT = np.asarray(MODEL.defect.T(p))
        expA = p * calT @ (np.eye(2) + calT)
        expB = p * calT @ np.asarray(MODEL.defect.R(p))
        assert np.allclose(K.A, expA, atol=1e-13)
        assert np.allclose(K.B, expB, atol=1e-13)

    @pytest.mark.parametrize("kernel", [hamiltonian_kernel, reflection_moment_kernel])
    def test_negative_order_rejected(self, kernel):
        with pytest.raises(ValueError, match="hierarchy index must be >= 0"):
            kernel(-1, MODEL, 0.7)


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
        for p in (0.7, -1.9):
            K = reflection_moment_kernel(1, MODEL, p)
            assert abs(K.A).max() <= 1e-13
            assert abs(K.B).max() <= 1e-13

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

    def test_relation_rejects_negative_orders(self):
        # -2 is even, and the central specialization would give it residuals
        with pytest.raises(ValueError, match="hierarchy index must be >= 0"):
            fock.hierarchy_relation_residuals(-2, MODEL, [0.7, -1.3])

    def test_zero_momentum_rejected(self):
        with pytest.raises(ValueError):
            hierarchy_commutator_residual(0, 1, MODEL, 0.0)


def _one_point_leaf(atom, env, model):
    """An atom's tensor at one momentum assignment, read from the model one
    point at a time: the reference for the engine's array reads of its leaves.
    A contraction leaf (T, R) and a dress (I + calT, calT, calR) read the
    model's pair."""
    d = model.doubled_dim
    flavour, _, *momenta = atom
    ks = [sign * env[label] for sign, label in momenta]
    if flavour == "S":
        return model.calS.eval(*ks).reshape(d, d, d, d)
    if flavour in ("T", "I+calT"):
        return np.eye(d) + model.defect.T(ks[0])
    if flavour == "calT":
        return model.defect.T(ks[0])
    assert flavour in ("R", "calR")
    return model.defect.R(ks[0])


def _reference_coefficient(expr, term, env, model):
    """The coefficient by one unplanned np.einsum over the term's network."""
    n_ext = len(expr.word)
    total = np.zeros((model.doubled_dim,) * n_ext, dtype=complex)
    if not term.network:  # the empty word's unit network
        return total + 1.0
    operands, seen = [], {}
    for atom in term.network:
        tensor = _one_point_leaf(atom, env, model)
        operands += [tensor, [seen.setdefault(l, len(seen)) for l in atom[1]]]
    return total + np.einsum(*operands, [seen[l] for l in range(n_ext)])


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


def _momentum_rows(expr, envs):
    """The momenta ``_coefficients`` reads: one row per assignment, one column per label."""
    labels = fock._labels(expr.word)
    return np.array([[env[label] for label in labels] for env in envs],
                    dtype=float).reshape(len(envs), len(labels))


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

    def test_one_call_reads_each_leaf_once(self):
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
        expr = jobs[0][0]
        momenta = _momentum_rows(expr, [env for *_, env in jobs])
        together = fock._coefficients(expr.word, [t for _, t, _ in jobs], momenta, None, counting)
        assert len(calls) == len(set(calls))
        assert all(np.array_equal(x, y) for x, y in zip(alone, together))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_every_plan_step_stays_pairwise(self, n):
        """Capped at the largest operand, numpy's greedy path search would
        stop early and leave the rest to one naive np.einsum over 9-15 legs
        in 31 of the n = 6 topologies.  Uncapped, no step of an amplitude
        plan at 2N = 4 spans more than 8 legs besides the batch axis."""
        labels = [f"k{i}" for i in range(n)], [f"p{i}" for i in range(n)]
        expr = fock.n_particle_expression(n, *labels, _golden_model(2))
        wide = []
        for legs in {term.legs for term in expr.terms}:
            seen: dict = {}
            inputs = tuple(tuple(seen.setdefault(l, len(seen)) for l in atom) for atom in legs)
            output = tuple(seen[l] for l in range(2 * n))
            spans = [len(set(subscripts) - set("Z,->"))
                     for _, subscripts in fock._plan(inputs, output, 4, True)]
            if max(spans) > 8:
                wide.append(spans)
        assert not wide

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
        """Two dress data on one position: each word's coefficients are the
        pair's matrix at the dress's signed momentum contracted with the bare
        word's coefficient."""
        model = _rational_model()
        d = model.doubled_dim
        dresses = {
            ("calR", +1): lambda w: model.defect.R(w),
            ("I+calT", -1): lambda w: np.eye(d) + model.defect.T(-w),
        }

        def word(dress):
            syms = [a("p"), ad("w"), a("w", sign=-1), ad("q")]
            syms[dressed_pos] = replace(syms[dressed_pos], dress=dress)
            return syms

        bare = normal_order_vev(word(None), model)
        bare_terms = {t.pairing: t for t in bare.terms}
        exprs = [normal_order_vev(word(dress), model) for dress in dresses]
        assert [t.pairing for t in exprs[0].terms] == [t.pairing for t in exprs[1].terms]
        got = []
        for expr, f in zip(exprs, dresses.values()):
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

    @pytest.mark.parametrize("traced", [False, True])
    def test_a_batch_of_four_words_gives_each_word_alone(self, traced, monkeypatch):
        """Four-words with different dresses on one position stay apart in
        one _coefficients call, and a calR dress and the calR contraction
        leaves are one leaf flavour, read once.  Each word's coefficients
        equal, bit for bit, those of a call on it alone."""
        model = _rational_model()
        reads: dict[str, int] = {}
        for attr in ("R", "T"):
            read = getattr(DefectPair, attr)

            def counted(pair, k, attr=attr, read=read):
                if pair is model.defect:
                    reads[attr] = reads.get(attr, 0) + 1
                return read(pair, k)

            monkeypatch.setattr(DefectPair, attr, counted)
        words = [[a("p"), ad("w", dress=("calR", +1)), a("w", sign=-1), ad("q")],
                 [a("p"), ad("w", dress=("calT", -1)), a("w", sign=-1), ad("q")],
                 [a("p"), ad("w"), a("w", sign=-1, dress=("calR", +1)), ad("q")]]
        exprs = [normal_order_vev(word, model) for word in words]
        ps = np.array([0.7, -1.3, 2.2])
        jobs = []
        for expr in exprs:
            for term in expr.terms:
                env = resolve_momenta(term, expr.word, {"p": 1.0})
                jobs.append((expr.word, term, np.stack([ps, env["w"] * ps, env["q"] * ps], 1)))

        def run(batch):
            return fock._coefficients(batch[0][0], [t for _, t, _ in batch],
                                      np.concatenate([m for *_, m in batch]), None, model,
                                      len(ps), traced)

        alone = [run([job]).tobytes() for job in jobs]
        reads.clear()
        together = run(jobs)
        # R: the contraction leaves and both calR dresses; T: I + calT and calT
        assert reads == {"R": 1, "T": 2}
        assert [x.tobytes() for x in np.split(together, len(jobs))] == alone
        half = len(exprs[0].terms)
        assert alone[:half] != alone[half:2 * half]

    @pytest.mark.parametrize("model_name", ["delta N=1", "rational N=2"])
    def test_kernels_match_the_per_term_loop(self, model_name):
        model = MODEL if model_name == "delta N=1" else _rational_model()
        mid_r = a("w", sign=-1, dress=("calR", +1))
        for power in range(5):
            cases = [
                (hamiltonian_kernel, [a("p"), ad("w"), a("w"), ad("q")]),
                (reflection_moment_kernel, [a("p"), ad("w"), mid_r, ad("q")]),
            ]
            for kernel, word in cases:
                for p in (0.7, -0.7, 1.9, -1.9):
                    K = kernel(power, model, p)
                    for part, flip in ((K.A, False), (K.B, True)):
                        ref = _old_four_word_part(word, model, power, p, flip)
                        assert np.max(np.abs(part - ref)) <= 1e-14

    @pytest.mark.parametrize("count", [1, 50])
    def test_commutator_contracts_each_term_once_per_batch(self, monkeypatch, count):
        # 4 terms of H at p and at -p and 4 of the reflection moment at p,
        # for every pair and however many momenta: one _coefficients call
        # whose jobs are the terms, each on the whole momentum array; the
        # relation's 7 words of 4 terms each are one call too
        calls = []
        original = fock._coefficients

        def counting(word, terms, momenta, *args, **kwargs):
            calls.append((len(terms), len(momenta)))
            return original(word, terms, momenta, *args, **kwargs)

        monkeypatch.setattr(fock, "_coefficients", counting)
        momenta = list(np.linspace(0.1, 2.9, count) * (-1) ** np.arange(count))
        model = _rational_model()
        got = fock.hierarchy_commutator_residuals([(0, 1), (1, 2), (0, 2)], model, momenta)
        assert [len(residuals) for residuals in got] == [count] * 3
        assert calls == [(12, 12 * count)]
        calls.clear()
        assert len(fock.hierarchy_relation_residuals(2, model, momenta)) == count
        assert calls == [(28, 28 * count)]

    @pytest.mark.parametrize("flavour", ["I+calT", "calR"])
    def test_a_leaf_read_at_the_negated_momenta_fails_the_odd_commutators(
            self, monkeypatch, flavour):
        """Mutation check of the hierarchy pass's leaf reads: read every
        leaf of one flavour (I + calT, or calR) at the negated momentum
        array.  The mixed-parity commutators (0,1) and (1,2), whose right
        side is the engine's reflection moment, then fail by O(1), while
        the same-parity commutators stay at rounding level, because both of
        their sides read the same leaves.  hierarchy-relation(0) and (2)
        fail too: their contraction leaves are the plain ZF constants, so
        the mutation reaches only their dresses, which the two sides of the
        relation do not read alike."""
        read = fock._read
        monkeypatch.setattr(fock, "_read", lambda code, ks, model: read(
            code, tuple(-k for k in ks) if fock.FLAVOURS[code] == flavour else ks, model))
        model = _rational_model()
        momenta = [0.7, -1.3, 2.2, -0.4]
        for m, n in ((0, 1), (1, 2)):
            (residuals,) = fock.hierarchy_commutator_residuals([(m, n)], model, momenta)
            assert max(residuals) > 1.0
        for m, n in ((0, 2), (1, 3), (2, 4)):
            (residuals,) = fock.hierarchy_commutator_residuals([(m, n)], model, momenta)
            assert max(residuals) < 1e-12
        for n in (0, 2):
            assert max(fock.hierarchy_relation_residuals(n, model, momenta)) > 1e-3

    @pytest.mark.parametrize("bulk", [identity_S(1), rational_S(2, 1.0)], ids=["N=1", "N=2"])
    def test_the_zf_constants_are_the_leaves_of_a_zero_pair(self, bulk):
        """The plain ZF contraction leaves I and 0, read by no model call,
        are I + calT and calR of a zero pair: on a model doubled from a zero
        half-line pair, the relation's seven words give the same bytes under
        either contraction rule."""
        zero = np.zeros((bulk.leg_dim, bulk.leg_dim), dtype=complex)
        model = build_doubled_model(bulk, DefectPair(bulk.leg_dim, lambda k: zero, lambda k: zero))
        ps = np.array([0.7, -1.3, 2.2, -0.4])
        creators = [ad("w", dress=("I+calT", +1)), ad("w", sign=-1, dress=("calR", -1))]
        annihilators = [a("w", dress=("I+calT", +1)), a("w", sign=-1, dress=("calR", +1))]
        passes = [(cr, an, ps) for cr in creators for an in annihilators] + [
            (ad("w"), an, ps)
            for an in (a("w"), a("w", dress=("calT", +1)), a("w", sign=-1, dress=("calR", +1)))]

        def parts(zf):
            got = fock._traced_passes(model, passes, zf=zf)
            return [(ws, coeff.tobytes()) for part in got for half in part for ws, coeff in half]

        assert parts(True) == parts(False)

    def test_the_relation_builds_no_doubled_model(self, monkeypatch):
        """The relation contracts its words on the model it is given: it
        builds no zero-defect copy of the model, doubled S-matrix included."""
        model = _rational_model()
        built = []
        double = doubling.double_S_bulk
        monkeypatch.setattr(doubling, "double_S_bulk", lambda s: built.append(s) or double(s))
        for n in (0, 2):
            assert max(fock.hierarchy_relation_residuals(n, model, [0.7, -1.3])) < 1e-12
        assert built == []

    @pytest.mark.parametrize("model_name", ["delta N=1", "rational N=2"])
    def test_batch_equals_one_momentum_at_a_time(self, model_name):
        model = MODEL if model_name == "delta N=1" else _rational_model()
        rng = np.random.default_rng(11)
        momenta = [float(k) for k in rng.uniform(0.05, 3.0, 20) * np.repeat([1, -1], 10)]
        for m, n in ((0, 2), (1, 3), (2, 4), (0, 1), (1, 2)):
            (batch,) = fock.hierarchy_commutator_residuals([(m, n)], model, momenta)
            assert batch == [hierarchy_commutator_residual(m, n, model, p) for p in momenta]
        for n in (0, 2):
            batch = fock.hierarchy_relation_residuals(n, model, momenta)
            assert batch == [hierarchy_relation_residual(n, model, p) for p in momenta]

    @pytest.mark.parametrize("model_name", ["delta N=1", "rational N=2"])
    def test_pairs_in_one_call_equal_each_pair_alone(self, model_name, monkeypatch):
        """Commutators taken together, a repeat included, give each one's
        residuals alone, bit for bit, from one expansion each of the
        Hamiltonian word and the reflection-moment word."""
        model = MODEL if model_name == "delta N=1" else _rational_model()
        momenta = [0.7, -1.3, 2.2, -0.4]
        pairs = [(0, 2), (1, 3), (2, 4), (0, 1), (1, 2), (0, 2)]
        alone = [fock.hierarchy_commutator_residuals([mn], model, momenta)[0] for mn in pairs]
        words = []
        original = fock.normal_order_vev
        monkeypatch.setattr(fock, "normal_order_vev",
                            lambda word, dm: words.append(word) or original(word, dm))
        assert fock.hierarchy_commutator_residuals(pairs, model, momenta) == alone
        assert [[s.dress is not None for s in word] for word in words] == [
            [False] * 4, [False, False, True, False]]

    def test_batched_forms_keep_the_one_momentum_errors(self):
        with pytest.raises(ZeroMomentumError):
            fock.hierarchy_commutator_residuals([(0, 1)], MODEL, [0.7, 0.0])
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


def _one_network_at_a_time(expr, term, env, at, model):
    """One term's sliced coefficient with its network a batch of one, its
    leaves sliced by basic indexing, added to 0.  The reference for the
    topology batches, which must equal it."""
    n_ext = len(expr.word)
    total, net = np.zeros((), dtype=complex), term.network
    if not net:  # the empty word's unit network
        return complex(total + 1.0)
    tensors = [
        _one_point_leaf(atom, env, model)[None][
            (slice(None), *(at[l] if l < n_ext else slice(None) for l in atom[1]))]
        for atom in net]
    seen: dict = {}
    inputs = tuple(tuple(seen.setdefault(l, len(seen)) for l in atom[1]) for atom in net)
    output = tuple(seen[l] for l in range(n_ext))
    for positions, subscripts in fock._plan(inputs, output, model.doubled_dim, True):
        tensors.append(np.einsum(subscripts, *[tensors.pop(p) for p in positions]))
    return complex((total + tensors[0][0])[()])


BATCH_CONFIGS = {1: "delta_n1", 2: "rational_n2", 3: "rational_n3"}


def _golden_model(N):
    path = Path(__file__).parent / "golden" / "configs" / f"{BATCH_CONFIGS[N]}.json"
    return build_model(parse_config(path.read_text())).doubled


def _physical_jobs(n, model, seed):
    """(expr, [(term, env)]) for every term of the n-particle amplitude at
    momenta drawn from ``seed``: in-momenta increasing, as the CLI takes them."""
    rng = np.random.default_rng(seed)
    ks = sorted(float(k) for k in np.round(rng.uniform(0.2, 3.0, n) * rng.choice([-1, 1], n), 3))
    in_labels = [f"k{i+1}" for i in range(n)]
    out_labels = [f"p{i+1}" for i in range(n)]
    expr = fock.n_particle_expression(n, in_labels, out_labels, model)
    seeds = dict(zip(in_labels, ks))
    return expr, [(t, resolve_momenta(t, expr.word, seeds)) for t in expr.terms]


def _physical(expr, jobs, model):
    """``physical_coefficients`` of (term, momentum assignment) jobs, as a list."""
    momenta = _momentum_rows(expr, [env for _, env in jobs])
    return fock.physical_coefficients(expr, [term for term, _ in jobs], momenta, model).tolist()


def _batch(expr, jobs, model):
    """One ``_coefficients`` call on (term, env, at) jobs, all whole or all sliced."""
    if not jobs:
        return []
    ats = None if jobs[0][2] is None else np.array([at for *_, at in jobs], dtype=np.intp)
    return fock._coefficients(expr.word, [term for term, *_ in jobs],
                              _momentum_rows(expr, [env for _, env, _ in jobs]), ats, model)


class TestTopologyBatches:
    @pytest.mark.parametrize("N,n", [(N, n) for N in (1, 2, 3) for n in range(5)])
    def test_batched_equals_the_per_network_loop(self, N, n):
        model = _golden_model(N)
        for seed in range(3 if N * n < 12 else 1):
            expr, jobs = _physical_jobs(n, model, seed)
            got = _physical(expr, jobs, model)
            sides = [(s.sign if s.kind == "a" else -s.sign, s.label) for s in expr.word]
            want = [
                _one_network_at_a_time(
                    expr, term, env,
                    tuple(0 if sign * env[label] > 0 else 1 for sign, label in sides), model)
                for term, env in jobs]
            assert got == want
            assert got == [_physical(expr, [job], model)[0] for job in jobs]

    def test_one_topology_group_holds_different_ats(self):
        model = _golden_model(2)
        rng = np.random.default_rng(7)
        expr, jobs = _physical_jobs(3, model, 1)
        by_topology: dict = {}
        for term, env in jobs:
            by_topology.setdefault(term.legs, []).append((term, env))
        group = max(by_topology.values(), key=len)
        assert len(group) == 8  # 2^n T/R choices share one braid structure
        # the physical assignment already differs across the group; random
        # components on top of it cover every leg
        ats = [tuple(int(i) for i in rng.integers(model.doubled_dim, size=6)) for _ in group]
        assert len(set(ats)) > 1
        batch = fock._coefficients(expr.word, [t for t, _ in group],
                                   _momentum_rows(expr, [env for _, env in group]),
                                   np.array(ats, dtype=np.intp), model)
        want = [_one_network_at_a_time(expr, t, env, at, model)
                for (t, env), at in zip(group, ats)]
        assert batch.shape == (len(group),)
        assert batch.tolist() == want

    def test_full_tensors_batch_like_one_at_a_time(self):
        model = _rational_model()
        jobs = _expression_terms(3, model)
        expr = jobs[0][0]
        batch = fock._coefficients(expr.word, [t for _, t, _ in jobs],
                                   _momentum_rows(expr, [env for *_, env in jobs]), None, model)
        assert batch.shape == (len(jobs),) + (model.doubled_dim,) * 6
        assert all(np.array_equal(x, evaluate_coefficient(e, t, env, model))
                   for x, (e, t, env) in zip(batch, jobs))

    @given(
        model_name=st.sampled_from(["delta N=1", "rational N=2"]),
        n=st.integers(1, 3),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_words_and_jobs_equal_one_network_at_a_time(self, model_name, n, data):
        """Random balanced words (orders, shared labels, signs, dresses) and
        random subsets and orders of jobs, with and without ``at``: a sliced
        job equals the per-network loop, and a whole tensor equals its job
        alone, bit for bit, and (at N = 1, where it stays small) the
        unplanned einsum within rounding."""
        model = MODEL if model_name == "delta N=1" else _rational_model()
        d = model.doubled_dim
        dresses = [None, *itertools.product(fock.DRESSES, (+1, -1))]
        kinds = data.draw(st.permutations(["a"] * n + ["ad"] * n))
        symbols = [fock.WordSymbol(kind, data.draw(st.sampled_from("pqw")),
                                   data.draw(st.sampled_from([1, -1])),
                                   data.draw(st.sampled_from(dresses))) for kind in kinds]
        expr = normal_order_vev(symbols, model)
        assume(expr.terms)
        pool = [-2.1, -1.3, -0.7, 0.4, 0.7, 1.3]
        picks = data.draw(st.lists(st.integers(0, len(expr.terms) - 1), min_size=1, max_size=6))
        jobs = []
        for i in picks:
            env = {label: data.draw(st.sampled_from(pool)) for label in "pqw"}
            whole = data.draw(st.booleans())
            at = None if whole else tuple(data.draw(st.integers(0, d - 1)) for _ in symbols)
            jobs.append((expr.terms[i], env, at))
        # the whole jobs in one call, the sliced ones in another
        kinds = [[job for job in jobs if (job[2] is None) == kind] for kind in (True, False)]
        got = [pair for kind in kinds for pair in zip(_batch(expr, kind, model), kind)]
        assert len(got) == len(jobs)
        for value, (term, env, at) in got:
            if at is None:
                assert value.tobytes() == evaluate_coefficient(expr, term, env, model).tobytes()
                if d == 2:
                    ref = _reference_coefficient(expr, term, env, model)
                    assert np.max(np.abs(value - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
            else:
                assert complex(value[()]) == _one_network_at_a_time(expr, term, env, at, model)

    def test_zero_particles_is_one_unit_term(self):
        expr, jobs = _physical_jobs(0, MODEL, 0)
        assert _physical(expr, jobs, MODEL) == [1 + 0j]
        assert _physical(expr, [], MODEL) == []

    def test_threads_get_the_serial_results(self):
        import sys
        import threading

        model = _golden_model(2)
        draws = [_physical_jobs(3, model, seed) for seed in range(2)]
        serial = [_physical(expr, jobs, model) for expr, jobs in draws]
        results: dict[int, list] = {}
        start = threading.Barrier(4)

        def work(i):
            start.wait(timeout=60)
            results[i] = [_physical(expr, jobs, model) for expr, jobs in draws]

        fock._plan.cache_clear()  # make the threads race on compiling plans
        fock._expand.cache_clear()  # and on expanding shapes and building their layouts
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
        assert [results[i] for i in range(4)] == [serial] * 4

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_factorization_contracts_all_sign_patterns_in_one_call(self, monkeypatch, n):
        calls = []
        original = fock._coefficients

        def counting(word, terms, *args, **kwargs):
            calls.append(len(terms))
            return original(word, terms, *args, **kwargs)

        monkeypatch.setattr(fock, "_coefficients", counting)
        ks = [-1.7, 0.4, 2.2][:n]
        factorization_residual(n, ks, sorted((k * 1.1 for k in ks), reverse=True), MODEL)
        assert calls == [2 ** n]
        calls.clear()
        opta_agreement_residual(MODEL, 0.7)
        assert calls == [2]


N1_MODELS = {
    "delta N=1": {"bulk": "identity:dim=1"},
    "rational:N=1": {"bulk": "rational:N=1"},
    "permutation:dim=1": {"bulk": "permutation:dim=1"},
    "custom defect": json.loads(
        (Path(__file__).parent / "golden" / "configs" / "custom_defect.json").read_text()),
}


def _pair_products(expr, jobs, model):
    """Per (term, env) job, the product over the term's pairs of the
    one-particle amplitude at rel * k, k the pair's in-momentum: its A for a
    transmission pair (rel = +1), its B for a reflection pair."""
    out = []
    for term, env in jobs:
        product = 1.0 + 0.0j
        for _, c_pos, rel in term.pairing:
            K = one_particle_amplitude(model.half_line, rel * env[expr.word[c_pos].label])
            product *= (K.A if rel > 0 else K.B)[0, 0]
        out.append(product)
    return out


class TestEveryTermFactorizes:
    """At N = 1 every term's physical coefficient, crossed terms included,
    is the product of one-particle amplitudes over its pairs; the
    factorization check reads only the uncrossed terms."""

    @pytest.mark.parametrize("name", N1_MODELS)
    def test_every_term_is_its_pairs_product(self, name):
        model = build_model(parse_config(json.dumps(N1_MODELS[name]))).doubled
        count = 0
        for n, seed in itertools.product(range(1, 5), range(5)):
            expr, jobs = _physical_jobs(n, model, seed)
            gaps = np.abs(np.subtract(_physical(expr, jobs, model),
                                      _pair_products(expr, jobs, model)))
            assert gaps.max() <= 1e-14
            count += len(jobs)
        assert count == 5 * (2 + 8 + 48 + 384)

    @pytest.mark.parametrize("name", N1_MODELS)
    def test_a_crossed_term_read_with_r_for_t_fails(self, name):
        """Mutation check: at n = 2, read the T leaves of each crossed term
        (a pairing other than out slot i with in slot i) as R leaves."""
        model = build_model(parse_config(json.dumps(N1_MODELS[name]))).doubled
        for seed in range(5):
            expr, jobs = _physical_jobs(2, model, seed)
            mutated = [(fock.ContractionTerm(term.pairing, tuple(
                ("R", *atom[1:]) if atom[0] == "T" else atom for atom in term.network),
                term.legs), env)
                for term, env in jobs if any(a_pos + c_pos != 3 for a_pos, c_pos, _ in term.pairing)]
            assert len(mutated) == 4
            gaps = np.abs(np.subtract(_physical(expr, mutated, model),
                                      _pair_products(expr, mutated, model)))
            assert gaps.max() > 0.1


class TestLeafReads:
    @pytest.mark.parametrize("config", ["delta_n1", "rational_n2", "rational_n3", "custom_defect"])
    @pytest.mark.parametrize("code", range(len(fock.FLAVOURS)))
    def test_a_float_read_has_the_bits_of_an_array_read(self, config, code):
        """A flavour with one distinct leaf in a query is read at floats: it
        must give the shape and bits of a read at one-element arrays."""
        path = Path(__file__).parent / "golden" / "configs" / f"{config}.json"
        model = build_model(parse_config(path.read_text())).doubled
        count = 1 if code else 2  # momenta read
        for ks in ((0.7, -1.3), (-2.2, 0.4), (1.9, 1.1)):
            at_floats = fock._read(code, list(ks[:count]), model)
            at_arrays = fock._read(code, [np.array([k]) for k in ks[:count]], model)
            assert at_floats.shape == at_arrays.shape
            assert at_floats.tobytes() == at_arrays.tobytes()
