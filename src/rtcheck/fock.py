"""Normal-ordering engine for vacuum expectation values in the doubled Fock
representation, plus the one-particle distributional-kernel algebra.

The engine repeatedly moves the rightmost annihilator to the right: crossing
a creator emits a braided continuation term (an S-matrix tensor joining the
four component legs involved) and two contraction terms, one of
transmission type

    delta(q - p) [I + calT(q)]

and one of reflection type  delta(q + p) calR(q).  An annihilator that
reaches the vacuum kills its term; once every annihilator is paired, so is
every creator, since the word is balanced.  A surviving term is a perfect
matching between annihilators and creators ("pairing"), decorated with a lazy
tensor network ("coefficient") whose leaves are S/T/R matrices evaluated at
label-dependent momenta.  Coefficients are only evaluated after a
substitution consistent with the pairing.

A network is contracted by a plan: pairwise ``np.einsum`` steps whose order
comes from numpy's greedy path search (the opt_einsum strategy), run with no
memory limit: numpy's default limit, the size of the largest operand, would
stop the search early and leave the rest to one naive ``np.einsum`` over up
to 15 legs at n = 6, about 4^15 multiply-adds per network at N = 2.  A plan
depends only on the network's topology (the compacted leg lists, the word
positions and the leg dimension 2N), so it is compiled once per topology
and cached.  Each step runs once over a leading batch axis.
``evaluate_coefficients`` puts every network of a query that has the same
leg lists, and so the same topology, on that axis, each with its own
momenta: the n! 2^n networks of an n-particle amplitude fall into n!
topologies of 2^n networks each (24 of 16 at n = 4, 720 of 64 at n = 6),
since the T/R choices change only leaves.  A caller that reads one
component of a coefficient passes ``at=`` with one index per word
position: every leaf tensor is then sliced on its external legs before
contracting, each batch row at its own ``at``, and the (2N)^(2n) tensor is
never built.

A contraction of networks at one point each (amplitudes, factorization)
gathers the leaves of its rows from the caller's per-point cache.  When the
cache lacks some, it collects the missing (flavour, signed momentum) leaves
of all its rows and reads each flavour with one call on the array of their
momenta: ``calS.eval``, ``I + calT``, ``calR`` or a dress.  Calls that
share one cache evaluate each distinct leaf once, and the number of model
calls does not grow with the rows.

The expansion of a word depends only on its shape: per symbol the kind,
label, momentum sign and whether it is dressed.  It never depends on the
model (which only supplies the leg dimension), so ``normal_order_vev``
expands each shape once and keeps the term list in a bounded cache.  A
dressing atom refers to its word position, and the dress function is read
from the caller's word when the coefficient is evaluated, so two words of
one shape share an expansion but keep their own dressings.

The one-particle kernels of the Hamiltonian hierarchy come from the
four-symbol word <a(p) M†(w) M(w) ad(q)>, each of whose terms fixes w and q
as +p or -p.  Those signs are read once per kernel.  Its networks have 2-4
atoms, contraction and dressing leaves but no S leaf, each at +-p on every
row.  A residual takes all its momenta in one pass, with no per-row keys:
each network is one contraction whose momenta are arrays, so each leaf is
read with one call on its signed momentum array and kept in the residual's
cache under its flavour and the array's bytes, where the passes at p and
at -p and the reflection moment find it.  The plan also takes the trace
over the two middle legs.
``hierarchy_commutator_residuals`` takes H^(m) and H^(n) as two moments of
one such pass.

Coefficients are taken against the bare delta: no layer multiplies by
2*pi per contraction, and `rtcheck amplitude` writes ``two_pi_power`` 0 for
every term.
"""

from __future__ import annotations

import functools
import itertools
import math
import string
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .defect import DefectPair, ZeroMomentumError
from .doubling import DoubledModel, build_doubled_model

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class WordSymbol:
    """One generator in a word: a (annihilator) or ad (creator).

    The symbol's momentum is ``sign * value(label)``; ``dress`` optionally
    attaches a matrix factor to the symbol's component leg, which is how
    composite generators like a'(w) = (I + T(w)) a(w) enter the engine.  It
    is read at the label's values: it takes a 1-d momentum array and returns
    the (P, 2N, 2N) stack, as ``DefectPair.R``/``.T`` do, or one matrix for
    every momentum.
    """

    kind: str  # "a" | "ad"
    label: str
    sign: int = +1
    dress: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.kind not in ("a", "ad"):
            raise ValueError(f"unknown symbol kind {self.kind!r}")
        if self.sign not in (+1, -1):
            raise ValueError("momentum sign must be +1 or -1")


def a(label: str, sign: int = +1, dress=None) -> WordSymbol:
    return WordSymbol("a", label, sign, dress)


def ad(label: str, sign: int = +1, dress=None) -> WordSymbol:
    return WordSymbol("ad", label, sign, dress)


# --- coefficient networks ---------------------------------------------------
#
# Atoms reference integer leg ids; the external leg of word position i is i.
# ("S", (a_old, ad_new, a_new, ad_old), q_expr, p_expr)   4-leg braid tensor
# ("C", (a_leg, ad_leg), "T"|"R", q_expr)                 contraction matrix
# ("D", (row, col), position)                             dressing matrix
# where an expr is (sign, label).  A dressing atom names the word position
# whose symbol carries the dress function, so an expansion holds no model
# closure and can be shared by every word of the same shape.

Expr = tuple[int, str]


@dataclass(frozen=True)
class ContractionTerm:
    """One decorated matching: pairing plus a sum of coefficient networks.

    pairing entries are (a_position, ad_position, rel) with the momentum
    constraint value[a_label] = rel * value[ad_label]; rel = +1 comes from a
    transmission-type delta(q - p) contraction, rel = -1 from a
    reflection-type delta(q + p) one (for unsigned symbols).
    """

    pairing: tuple[tuple[int, int, int], ...]
    networks: tuple[tuple, ...]
    legs: tuple[tuple, ...]  # per network its atoms' leg lists: equal ones share a topology


@dataclass(frozen=True)
class AmplitudeExpression:
    word: tuple[WordSymbol, ...]
    dim: int
    terms: tuple[ContractionTerm, ...]

    @property
    def is_zero(self) -> bool:
        return not self.terms


def normal_order_vev(word: list[WordSymbol], model: DoubledModel) -> AmplitudeExpression:
    """Vacuum expectation value of a word as a canonicalized expression.

    Words with unequal creator/annihilator counts give the zero expression.
    The term list depends only on the word's shape, not on the model or on
    the dress functions, so it is expanded once per shape (see ``_expand``);
    the returned expression holds the caller's word, whose dressings the
    ``"D"`` atoms reference by position.
    """
    word = tuple(word)
    shape = tuple((s.kind, s.label, s.sign, s.dress is not None) for s in word)
    return AmplitudeExpression(word, model.doubled_dim, _expand(shape))


@functools.lru_cache(maxsize=64)
def _expand(shape: tuple[tuple[str, str, int, bool], ...]) -> tuple[ContractionTerm, ...]:
    """Terms of a word given as (kind, label, sign, dressed) per symbol."""
    n_a = sum(1 for kind, *_ in shape if kind == "a")
    if 2 * n_a != len(shape):
        return ()

    # live word entries: (position, kind, expr(sign,label), current_leg)
    init_atoms: list[tuple] = []
    init_word = []
    free = len(shape)  # the next fresh internal leg id
    for pos, (kind, label, sign, dressed) in enumerate(shape):
        leg = pos
        if dressed:
            inner, free = free, free + 1
            if kind == "ad":
                # [ad^b X]^ext: X rows contract the creator component
                init_atoms.append(("D", (inner, pos), pos))
            else:
                # [X a]_ext: X columns contract the annihilator component
                init_atoms.append(("D", (pos, inner), pos))
            leg = inner
        init_word.append((pos, kind, (sign, label), leg))

    # Each branch numbers its fresh legs on from its parent's, so networks of
    # one braid structure (they differ in T/R choices only) have equal leg
    # lists, which evaluate_coefficients groups by.
    done: list[tuple[tuple, tuple]] = []  # (pairing, atoms)
    stack = [(tuple(init_atoms), (), tuple(init_word), free)]
    while stack:
        atoms, pairs, live, free = stack.pop()
        idx = max((i for i, e in enumerate(live) if e[1] == "a"), default=None)
        if idx is None:  # every annihilator paired, and so every creator
            done.append((pairs, atoms))
            continue
        if idx == len(live) - 1:
            continue  # annihilator meets the vacuum ket
        a_pos, _, a_expr, a_leg = live[idx]
        c_pos, c_kind, c_expr, c_leg = live[idx + 1]
        assert c_kind == "ad"
        sa, la = a_expr
        sc, lc = c_expr
        # transmission contraction: delta(q - p) (I + calT(q))
        pair_t = pairs + (((a_pos, c_pos, sa * sc)),)
        atoms_t = atoms + (("C", (a_leg, c_leg), "T", a_expr),)
        stack.append((atoms_t, pair_t, live[:idx] + live[idx + 2 :], free))
        # reflection contraction: delta(q + p) calR(q)
        pair_r = pairs + (((a_pos, c_pos, -sa * sc)),)
        atoms_r = atoms + (("C", (a_leg, c_leg), "R", a_expr),)
        stack.append((atoms_r, pair_r, live[:idx] + live[idx + 2 :], free))
        # braided continuation: ad(p) S12(q, p) a(q)
        new_c, new_a = free, free + 1
        atoms_s = atoms + (("S", (a_leg, new_c, new_a, c_leg), a_expr, c_expr),)
        swapped = (
            live[:idx]
            + ((c_pos, c_kind, c_expr, new_c), (a_pos, "a", a_expr, new_a))
            + live[idx + 2 :]
        )
        stack.append((atoms_s, pairs, swapped, free + 2))

    merged: dict[tuple, list[tuple]] = {}
    for pairs, atoms in done:
        merged.setdefault(tuple(sorted(pairs)), []).append(atoms)
    shared: dict[tuple, tuple] = {}  # one object per distinct leg lists

    def legs(net: tuple) -> tuple:
        key = tuple(atom[1] for atom in net)
        return shared.setdefault(key, key)

    return tuple(
        ContractionTerm(pairing, tuple(nets), tuple(map(legs, nets)))
        for pairing, nets in sorted(merged.items())
    )


def _leaf(atom: tuple, env: dict[str, float], word: tuple[WordSymbol, ...]) -> tuple:
    """An atom's leaf at a momentum assignment: its flavour ("S", "T", "R"
    or the dress function) and its momenta, floats or arrays as in ``env``."""
    kind = atom[0]
    if kind == "S":
        return "S", atom[2][0] * env[atom[2][1]], atom[3][0] * env[atom[3][1]]
    if kind == "C":
        return atom[2], atom[3][0] * env[atom[3][1]]
    return word[atom[2]].dress, env[word[atom[2]].label]


def _read_leaves(keys, model: DoubledModel, cache: dict) -> None:
    """Put the tensor of every leaf key that ``cache`` lacks into it, with
    one reader call per flavour on the array of its momenta.  A flavour
    that lacks one point is read there, at a float (a dress at a one-point
    array): that skips the array set-up, with the bits of an array read."""
    missing: dict = {}  # flavour -> its missing keys, in first-use order
    for key in keys:
        if key not in cache:
            missing.setdefault(key[0], {})[key] = None
    for flavour, wanted in missing.items():
        if len(wanted) == 1:
            ks = next(iter(wanted))[1:]
        else:
            ks = np.array([key[1:] for key in wanted], dtype=float).T
        cache.update(zip(wanted, _read(flavour, ks, model)))


def _read(flavour, ks, model: DoubledModel) -> np.ndarray:
    """The stack of a leaf flavour's tensors at its momenta ``ks`` (one
    float, or one 1-d array, per momentum slot), by one reader call:
    ``calS.eval``, ``I + calT``, ``calR`` or the dress function."""
    d = model.doubled_dim
    if flavour == "S":
        return model.calS.eval(*ks).reshape(-1, d, d, d, d)
    if flavour == "T":
        return (np.eye(d) + model.defect.T(ks[0])).reshape(-1, d, d)
    if flavour == "R":
        return model.defect.R(ks[0]).reshape(-1, d, d)
    # a dress takes an array; a constant one gives one matrix
    got = np.asarray(flavour(np.atleast_1d(ks[0])), dtype=complex)
    return np.broadcast_to(got, (np.size(ks[0]), d, d))


@functools.lru_cache(maxsize=None)
def _plan(
    inputs: tuple[tuple[int, ...], ...], output: tuple[int, ...], dim: int, sliced: bool
) -> tuple[tuple[tuple[int, ...], str], ...]:
    """Pairwise contraction steps for one network topology.

    ``inputs`` are the compacted leg lists of the atoms and ``output`` the
    compacted legs the result keeps, in order.  With ``sliced`` the
    external legs are fixed by the caller and the plan contracts the rest to
    a scalar.  Each step is (positions, subscripts): pop the operands at the
    positions (descending) and append ``np.einsum(subscripts, *popped)``;
    the last step leaves the result, with its legs in ``output`` order.
    Every operand has a leading batch axis ``Z``.  The order is numpy's
    greedy path search, run once on placeholders without that axis.
    """
    if sliced:
        inputs = tuple(tuple(l for l in legs if l not in output) for legs in inputs)
        output = ()
    interleaved = []
    for legs in inputs:
        interleaved += [np.empty((dim,) * len(legs)), list(legs)]
    path = np.einsum_path(*interleaved, list(output), optimize=("greedy", 1 << 62))[0][1:]
    live = list(inputs)
    steps = []
    for step, positions in enumerate(path):
        positions = tuple(sorted(positions, reverse=True))
        taken = [live.pop(p) for p in positions]
        if step == len(path) - 1:
            result = output
        else:
            needed = set(output).union(*live)
            result = tuple(dict.fromkeys(l for legs in taken for l in legs if l in needed))
        live.append(result)
        subscripts = ",".join(map(_letters, taken)) + "->" + _letters(result)
        steps.append((positions, subscripts))
    return tuple(steps)


def _letters(legs: tuple[int, ...]) -> str:
    # compacted leg ids stay below 51 (at most 42 legs at MAX_PARTICLES): "Z" is the batch axis
    return "Z" + "".join(string.ascii_letters[l] for l in legs)


def _contract(
    word: tuple[WordSymbol, ...], jobs: list[tuple], model: DoubledModel, cache: dict,
    trace: bool = False,
) -> np.ndarray:
    """Contract networks of one topology, job j = (network, momentum
    assignment, at) on row j of a leading batch axis.  With ``at`` (one
    component index per word position, or None for every job) each leaf is
    sliced on its external legs and row j is a scalar.  With ``trace`` there
    is one job, whose momenta are equal-length arrays with one row per
    entry; each leaf is read on its whole momentum array, from ``cache``
    under its flavour and the arrays' bytes, and the plan takes the trace
    over word legs 1 and 2, so the result keeps legs 0 and 3."""
    n_ext = len(word)
    same = {2: 1} if trace else {}
    seen: dict[int, int] = {}  # leg id -> compacted id
    inputs = tuple(tuple(seen.setdefault(same.get(l, l), len(seen)) for l in atom[1])
                   for atom in jobs[0][0])
    # positions never touched by any atom keep an implicit identity;
    # that cannot happen for vacuum-surviving terms of balanced words
    output = tuple(seen.get(l, -1) for l in ((0, 3) if trace else range(n_ext)))
    if -1 in output:
        raise ValueError("network does not cover all word positions")
    if trace:
        (net, env, _), = jobs
        tensors = []
        for flavour, *ks in (_leaf(atom, env, word) for atom in net):
            key = (flavour, *(k.tobytes() for k in ks))
            if key not in cache:
                cache[key] = _read(flavour, ks, model)
            tensors.append(cache[key])
    else:
        keys = [[_leaf(atom, env, word) for atom in net] for net, env, _ in jobs]
        try:
            tensors = [np.array([cache[row[i]] for row in keys]) for i in range(len(inputs))]
        except KeyError:  # read the leaves the cache lacks, then gather again
            _read_leaves(itertools.chain.from_iterable(keys), model, cache)
            tensors = [np.array([cache[row[i]] for row in keys]) for i in range(len(inputs))]
    sliced = jobs[0][2] is not None
    if sliced:  # row j of the batch takes its own entry; the same legs are
        # external in every network of one topology
        rows, ats = np.arange(len(jobs)), np.array([at for *_, at in jobs]).T
        tensors = [tensor[(rows, *(ats[l] if l < n_ext else slice(None) for l in atom[1]))]
                   for tensor, atom in zip(tensors, jobs[0][0])]
    for positions, subscripts in _plan(inputs, output, model.doubled_dim, sliced):
        tensors.append(np.einsum(subscripts, *[tensors.pop(p) for p in positions]))
    return tensors[0]


def evaluate_coefficients(
    expr: AmplitudeExpression, jobs: list[tuple], model: DoubledModel,
    cache: Optional[dict] = None,
) -> list[np.ndarray]:
    """Coefficient tensors of terms of one expression, one per job (term,
    momentum assignment, at).

    A result has one axis of size 2N per word position, in word order.
    With ``at`` (one component index per word position) only that entry is
    contracted and the result is a 0-d array.  The caller is responsible
    for supplying assignments consistent with the terms' pairings.  The
    networks of all jobs are grouped by topology and each group is one
    batched contraction; each term then sums its networks' values in
    network order.  Calls that pass one ``cache`` (one model) evaluate each
    distinct leaf once.
    """
    n_ext = len(expr.word)
    cache = {} if cache is None else cache
    values: list[list] = []  # per job, its networks' values in network order
    groups: dict[tuple, list] = {}
    for term, env, at in jobs:
        if at is not None and len(at) != n_ext:
            raise ValueError(f"need one component index per word position ({n_ext})")
        mine: list = []
        values.append(mine)
        for net, legs in zip(term.networks, term.legs):
            if net:
                key = (legs, at is None)
                groups.setdefault(key, []).append((mine, len(mine), (net, env, at)))
                mine.append(None)
            elif n_ext:
                raise ValueError("empty network with free legs")
            else:
                mine.append(1.0)
    for members in groups.values():
        batch = _contract(expr.word, [job for *_, job in members], model, cache)
        for (mine, slot, _), value in zip(members, batch):
            mine[slot] = value
    shape = (model.doubled_dim,) * n_ext
    return [np.asarray(sum(mine, np.zeros(() if at is not None else shape, dtype=complex)))
            for (_, _, at), mine in zip(jobs, values)]


def evaluate_coefficient(
    expr: AmplitudeExpression, term: ContractionTerm, env: dict[str, float],
    model: DoubledModel, at: Optional[tuple[int, ...]] = None, cache: Optional[dict] = None,
) -> np.ndarray:
    """One term's coefficient tensor at a momentum assignment (see
    ``evaluate_coefficients``)."""
    return evaluate_coefficients(expr, [(term, env, at)], model, cache)[0]


def physical_coefficients(
    expr: AmplitudeExpression, jobs: list[tuple[ContractionTerm, dict[str, float]]],
    model: DoubledModel, cache: Optional[dict] = None,
) -> list[complex]:
    """Coefficients of terms (term, momentum assignment) at the physical
    component assignment, evaluated as one batch.

    A word position's component follows its symbol's momentum
    sign * env[label]: eps = sign(p) for an annihilator a(p) and
    xi = -sign(k) for a creator ad(k), where xi = + is the first block.
    """
    sides = [(s.sign if s.kind == "a" else -s.sign, s.label) for s in expr.word]  # eps or xi
    got = evaluate_coefficients(expr, [
        (term, env, tuple(0 if sign * env[label] > 0 else 1 for sign, label in sides))
        for term, env in jobs], model, cache)
    return [complex(value[()]) for value in got]


def resolve_momenta(
    term: ContractionTerm, word: tuple[WordSymbol, ...], seeds: dict[str, float]
) -> dict[str, float]:
    """Propagate pairing constraints value[a] = rel * value[ad] from seeds."""
    env = dict(seeds)
    by_pos = {i: s.label for i, s in enumerate(word)}
    changed = True
    while changed:
        changed = False
        for a_pos, c_pos, rel in term.pairing:
            la, lc = by_pos[a_pos], by_pos[c_pos]
            if la in env and lc not in env:
                env[lc] = env[la] / rel
                changed = True
            elif lc in env and la not in env:
                env[la] = rel * env[lc]
                changed = True
    return env


# --- one-particle kernels ---------------------------------------------------


@dataclass(frozen=True)
class OneParticleKernel:
    """Distributional kernel A(p) delta(p - k) + B(p) delta(p + k)."""

    dim: int
    A: Callable[[float], np.ndarray]
    B: Callable[[float], np.ndarray]


def identity_kernel(dim: int) -> OneParticleKernel:
    eye = np.eye(dim, dtype=complex)
    zero = np.zeros((dim, dim), dtype=complex)
    return OneParticleKernel(dim, lambda p: eye, lambda p: zero)


def compose(K1: OneParticleKernel, K2: OneParticleKernel) -> OneParticleKernel:
    """Kernel of the operator product: the delta calculus closure.

    A(p) = A1(p) A2(p) + B1(p) B2(-p);  B(p) = A1(p) B2(p) + B1(p) A2(-p).
    """
    if K1.dim != K2.dim:
        raise ValueError("kernel dimensions differ")
    return OneParticleKernel(
        K1.dim,
        lambda p: K1.A(p) @ K2.A(p) + K1.B(p) @ K2.B(-p),
        lambda p: K1.A(p) @ K2.B(p) + K1.B(p) @ K2.A(-p),
    )


def add(K1: OneParticleKernel, K2: OneParticleKernel) -> OneParticleKernel:
    if K1.dim != K2.dim:
        raise ValueError("kernel dimensions differ")
    return OneParticleKernel(
        K1.dim, lambda p: K1.A(p) + K2.A(p), lambda p: K1.B(p) + K2.B(p)
    )


def scale(K: OneParticleKernel, c: complex) -> OneParticleKernel:
    return OneParticleKernel(K.dim, lambda p: c * K.A(p), lambda p: c * K.B(p))


def kernel_distance(K1: OneParticleKernel, K2: OneParticleKernel, p) -> float | np.ndarray:
    """max |A1 - A2| + max |B1 - B2| at p.  An array p gives one distance per
    momentum for kernels whose evaluators take arrays: the hierarchy kernels,
    and those built on defect data (involution_kernel, one_particle_amplitude),
    whose DefectPair.R/.T take arrays."""
    return (np.abs(K1.A(p) - K2.A(p)).max(axis=(-2, -1))
            + np.abs(K1.B(p) - K2.B(p)).max(axis=(-2, -1)))


def involution_kernel(model: DoubledModel) -> OneParticleKernel:
    """J with A(k) = calT(k), B(k) = calR(k); J o J = id iff defect unitarity."""
    return OneParticleKernel(model.doubled_dim, model.defect.T, model.defect.R)


def one_particle_amplitude(
    half_line: DefectPair, delta_2pi: bool = False
) -> OneParticleKernel:
    """The transition-amplitude kernel assembled from Heaviside projections.

    A(p) = theta(p) T(p) + theta(-p) T(-p) = T(|p|), B likewise with R,
    optionally times 2*pi per delta; p = 0 is a domain error.
    """
    c = TWO_PI if delta_2pi else 1.0
    return OneParticleKernel(
        half_line.dim, lambda p: c * half_line.T(abs(p)), lambda p: c * half_line.R(abs(p))
    )


# --- engine-derived kernels -------------------------------------------------

HAMILTONIAN_PREFACTOR = 0.5  # the 1/2 in front of the Hamiltonian integral


def _traced_four_word(
    model: DoubledModel, mid_creator: WordSymbol, mid_annihilator: WordSymbol, cache: dict
) -> Callable[[np.ndarray], tuple[tuple, tuple]]:
    """Traced coefficients of <a(p) M†(w) M(w) ad(q)> over an array of momenta.

    The middle symbols share the integration label; their component legs are
    traced.  Each surviving term fixes w = +-p and q = +-p through its
    pairing; the signs are read once, by resolving the pairing at p = 1.  The
    returned function maps a 1-d array of momenta p_1..p_P to two tuples of
    (w per momentum, (P, 2N, 2N) traced coeff) in term order: the terms with
    q = p (the delta(p - k) part) and those with q = -p (the delta(p + k)
    part).  Each network of a term is one contraction over the whole array,
    with its leaves from ``cache``, kept for the function's lifetime.
    """
    expr = normal_order_vev([a("p"), mid_creator, mid_annihilator, ad("q")], model)
    signs = []
    for term in expr.terms:
        env = resolve_momenta(term, expr.word, {"p": 1.0})
        if "w" in env and "q" in env:
            signs.append((term, env["w"], env["q"]))
    passes: dict[bytes, tuple[tuple, tuple]] = {}

    def traced(ps: np.ndarray) -> tuple[tuple, tuple]:
        got = passes.get(ps.tobytes())
        if got is None:
            parts: tuple[list, list] = ([], [])
            for term, sw, sq in signs:
                env = {"p": ps, "w": sw * ps, "q": sq * ps}
                tr = sum(_contract(expr.word, [(net, env, None)], model, cache, trace=True)
                         for net in term.networks)
                parts[sq < 0].append((env["w"].tolist(), tr))
            got = passes[ps.tobytes()] = (tuple(parts[0]), tuple(parts[1]))
        return got

    return traced


def _moment_kernel(
    traced: Callable[[np.ndarray], tuple[tuple, tuple]], power: int, prefactor: float, dim: int
) -> OneParticleKernel:
    """The w^power moment of traced four-word coefficients, as a kernel: the
    delta calculus reduces the integral over w to the substitution.  Its A
    and B take one momentum, or an array of momenta with one result each."""
    zero = np.zeros((dim, dim), dtype=complex)

    def moment(part: int, p: float | np.ndarray) -> np.ndarray:
        total = zero
        for ws, tr in traced(np.atleast_1d(np.asarray(p, dtype=float)))[part]:
            # Python's power: numpy's differs in the last bit at some points
            total = total + np.array([w ** power for w in ws])[:, None, None] * tr
        total = prefactor * total
        return total if np.ndim(p) else total[0]

    return OneParticleKernel(dim, functools.partial(moment, 0), functools.partial(moment, 1))


def _kernel_from_four_word(
    model: DoubledModel,
    power: int,
    mid_creator: WordSymbol,
    mid_annihilator: WordSymbol,
    prefactor: float,
    cache: Optional[dict] = None,
) -> OneParticleKernel:
    """Kernel of <a(p) [integral dw w^power M†(w) M(w)] ad(q)> via the engine."""
    traced = _traced_four_word(model, mid_creator, mid_annihilator, {} if cache is None else cache)
    return _moment_kernel(traced, power, prefactor, model.doubled_dim)


def hamiltonian_kernel(n: int, model: DoubledModel) -> OneParticleKernel:
    """One-particle kernel of H^(n) = 1/2 integral dk k^n ad(k) a(k),
    computed through the normal-ordering engine."""
    if n < 0:
        raise ValueError("hierarchy index must be >= 0")
    return _kernel_from_four_word(model, n, ad("w"), a("w"), HAMILTONIAN_PREFACTOR)


def reflection_moment_kernel(
    power: int, model: DoubledModel, cache: Optional[dict] = None
) -> OneParticleKernel:
    """Kernel of 1/2 integral dk k^power ad(k) calR(k) a(-k) via the engine."""
    mid = a("w", sign=-1, dress=model.defect.R)
    return _kernel_from_four_word(model, power, ad("w"), mid, HAMILTONIAN_PREFACTOR, cache)


def hierarchy_commutator_residuals(
    m: int, n: int, model: DoubledModel, momenta: list[float]
) -> list[float]:
    """Residuals of the hierarchy commutator identity at one-particle level,
    one per momentum.

    [H^(m), H^(n)] must equal [(-1)^m - (-1)^n] times the reflection-moment
    kernel of order m + n; both sides are built independently (the
    commutator of the Hamiltonian moments by compose versus the engine
    expansion of the dressed reflection-moment word), and each is evaluated
    at all momenta in one batched pass per term.
    """
    if m < 0 or n < 0:
        raise ValueError("hierarchy index must be >= 0")
    # H^(m) and H^(n) are two moments of one word: trace its terms once
    cache: dict = {}
    traced = _traced_four_word(model, ad("w"), a("w"), cache)
    Km = _moment_kernel(traced, m, HAMILTONIAN_PREFACTOR, model.doubled_dim)
    Kn = _moment_kernel(traced, n, HAMILTONIAN_PREFACTOR, model.doubled_dim)
    lhs = add(compose(Km, Kn), scale(compose(Kn, Km), -1.0))
    pref = (-1.0) ** m - (-1.0) ** n
    rhs = scale(reflection_moment_kernel(m + n, model, cache), pref)
    return kernel_distance(lhs, rhs, np.array(momenta, dtype=float)).tolist()


def hierarchy_commutator_residual(m: int, n: int, model: DoubledModel, p: float) -> float:
    """The hierarchy commutator residual at one momentum."""
    return hierarchy_commutator_residuals(m, n, model, [p])[0]


def _zf_view(model: DoubledModel) -> DoubledModel:
    """Same exchange matrix, trivial defect: the plain ZF contraction rules."""
    zero = np.zeros((model.bulk_dim, model.bulk_dim), dtype=complex)
    trivial = DefectPair(model.bulk_dim, lambda k: zero, lambda k: zero, batched=True)
    return build_doubled_model(model.bulk, trivial)


def hierarchy_relation_residuals(
    n: int, model: DoubledModel, momenta: list[float]
) -> list[float]:
    """Residuals of the impurity/no-impurity hierarchy relation at kernel
    level, one per momentum, each kernel evaluated in one batched pass.

    Verified in the central specialization, where the composite generators
    are A(k) = [(I + calT(k)) a(k) + calR(k) a(-k)] / 2 over the plain ZF
    contraction rules and the relation holds for even n with an overall 1/2
    on the free-plus-impurity side:

        K_RT = ( K_ZF + K_impurity ) / 2 .
    """
    if n % 2 != 0:
        raise ValueError("the central specialization verifies even orders only")
    zf = _zf_view(model)
    cache: dict = {}
    eye = np.eye(model.doubled_dim, dtype=complex)
    calT, calR = model.defect.T, model.defect.R

    def eye_plus_t(w):  # one dress for both sides: the leaf cache keys a dress by its object
        return eye + calT(w)

    creators = [
        ad("w", dress=eye_plus_t),
        ad("w", sign=-1, dress=lambda w: calR(-w)),
    ]
    annihilators = [
        a("w", dress=eye_plus_t),
        a("w", sign=-1, dress=calR),
    ]
    k_rt = None
    for cr in creators:
        for an in annihilators:
            piece = _kernel_from_four_word(zf, n, cr, an, 0.25, cache)
            k_rt = piece if k_rt is None else add(k_rt, piece)

    k_zf = _kernel_from_four_word(zf, n, ad("w"), a("w"), 1.0, cache)
    imp_t = _kernel_from_four_word(zf, n, ad("w"), a("w", dress=calT), 1.0, cache)
    imp_r = _kernel_from_four_word(zf, n, ad("w"), a("w", sign=-1, dress=calR), 1.0, cache)
    rhs = scale(add(k_zf, add(imp_t, imp_r)), 0.5)
    return kernel_distance(k_rt, rhs, np.array(momenta, dtype=float)).tolist()


def hierarchy_relation_residual(n: int, model: DoubledModel, p: float) -> float:
    """The hierarchy relation residual at one momentum."""
    return hierarchy_relation_residuals(n, model, [p])[0]


# --- factorization ----------------------------------------------------------


def validate_orderings(in_momenta, out_momenta) -> None:
    ks, ps = list(in_momenta), list(out_momenta)
    if any(k == 0 for k in ks) or any(p == 0 for p in ps):
        raise ZeroMomentumError("zero momentum in amplitude query")
    if any(not k2 > k1 for k1, k2 in zip(ks, ks[1:])):
        raise ValueError("in-momenta must be strictly increasing")
    if any(not p2 < p1 for p1, p2 in zip(ps, ps[1:])):
        raise ValueError("out-momenta must be strictly decreasing")


MAX_PARTICLES = 6  # n! 2^n terms: 46,080 at n = 6, which take ~4-6 s cold at N = 1 or 2


def n_particle_expression(
    n: int, in_labels: list[str], out_labels: list[str], model: DoubledModel
) -> AmplitudeExpression:
    """Engine expression for <out_1..out_n | in_1..in_n>: the word is
    a(p_n)..a(p_1) ad(k_1)..ad(k_n)."""
    if n > MAX_PARTICLES:
        raise ValueError(f"amplitudes are limited to n <= {MAX_PARTICLES}")
    word = [a(l) for l in reversed(out_labels)] + [ad(l) for l in in_labels]
    return normal_order_vev(word, model)


def _product_gaps(model: DoubledModel, cases: list[tuple[list, tuple]]) -> list[float]:
    """|engine - product| per case (in-momenta k_1..k_n, sign pattern sigma).

    The product pairs out-slot i with in-slot i at p_i = sigma_i k_i: a product
    of projected transmission (sigma_i = +1) or reflection brackets, read on
    the array of all p_i.  The engine coefficient of that pairing, at the
    physical component assignment, is 0 if the expansion lacks the pairing;
    every case's coefficient is contracted in one batch.
    """
    n = len(cases[0][1]) if cases else 0
    labels = [f"k{i+1}" for i in range(n)] + [f"p{i+1}" for i in range(n)]
    expr = n_particle_expression(n, labels[:n], labels[n:], model)
    by_pairing = {t.pairing: t for t in expr.terms}
    # out slot i is word position n - 1 - i, in slot i is position n + i
    terms = {sigma: by_pairing.get(tuple(sorted((n - 1 - i, n + i, s)
                                                for i, s in enumerate(sigma))))
             for sigma in {sigma for _, sigma in cases}}
    sigmas = np.array([sigma for _, sigma in cases])
    ps = sigmas * np.array([ks for ks, _ in cases], dtype=float)
    opta = one_particle_amplitude(model.half_line, delta_2pi=False)
    flat = ps.ravel()
    brackets = np.where(sigmas.ravel() > 0, opta.A(flat)[:, 0, 0], opta.B(flat)[:, 0, 0])
    # Python complex products in factor order (numpy's may differ in the last bit)
    products = [math.prod(row, start=1.0 + 0.0j) for row in brackets.reshape(ps.shape).tolist()]
    jobs = [(terms[sigma], dict(zip(labels, [*ks, *p_case])))
            for (ks, sigma), p_case in zip(cases, ps.tolist()) if terms[sigma] is not None]
    engine = iter(physical_coefficients(expr, jobs, model))
    # Python's abs: np.abs can differ in the last bit
    return [abs((next(engine) if terms[sigma] is not None else 0j) - prod)
            for (_, sigma), prod in zip(cases, products)]


def factorization_residual(
    n: int, in_momenta: list[float], out_momenta: list[float], model: DoubledModel
) -> float:
    """Engine amplitude versus the factorized product of one-particle
    amplitudes, the maximal gap over all 2^n sign patterns (``_product_gaps``)."""
    if model.bulk_dim != 1:
        raise ValueError("factorization comparison is defined for N = 1 models")
    if len(in_momenta) != n or len(out_momenta) != n:
        raise ValueError("momentum lists must have length n")
    validate_orderings(in_momenta, out_momenta)
    if n == 0:
        return 0.0
    gaps = _product_gaps(model, [(in_momenta, sigma)
                                 for sigma in itertools.product((+1, -1), repeat=n)])
    return float(np.max(gaps))  # a nan gap stays, and fails the check


def opta_agreement_residual(model: DoubledModel, p) -> float | np.ndarray:
    """Engine one-particle kernel versus the projected-amplitude kernel, both
    restricted to the physical component assignment (N = 1 models), at one
    momentum or at each of a 1-d array: the transmission case (q, +1) and
    the reflection case (-q, -1) at every momentum q, in one batch."""
    if model.bulk_dim != 1:
        raise ValueError("agreement check is defined for N = 1 models")
    qs = np.atleast_1d(np.asarray(p, dtype=float)).tolist()
    gaps = _product_gaps(model, [case for q in qs for case in (([q], (+1,)), ([-q], (-1,)))])
    worst = np.maximum(gaps[::2], gaps[1::2])  # a nan gap stays, and fails the check
    return worst if np.ndim(p) else float(worst[0])
