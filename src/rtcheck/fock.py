"""Normal-ordering engine for vacuum expectation values in the doubled Fock
representation, plus the one-particle distributional-kernel algebra.

The engine repeatedly moves the rightmost annihilator to the right: crossing
a creator emits a braided continuation term (an S-matrix tensor joining the
four component legs involved) and two contraction terms, one of
transmission type

    delta(q - p) [I + calT(q)]

and one of reflection type  delta(q + p) calR(q).  An annihilator that
reaches the vacuum kills its term, as does any leftover creator against the
vacuum bra.  A surviving term is a perfect matching between annihilators
and creators ("pairing"), decorated with a lazy tensor network
("coefficient") whose leaves are S/T/R matrices evaluated at label-dependent
momenta.  Coefficients are only evaluated after a substitution consistent
with the pairing.

A network is contracted by a plan: pairwise ``np.einsum`` steps whose order
comes from numpy's greedy path search (the opt_einsum strategy).  A plan
depends only on the network's topology (the compacted leg lists, the word
positions and the leg dimension 2N), so it is compiled once per topology
and cached; n = 4 has 24 topologies, n = 6 has 720.  Each step runs once
over a leading batch axis of momentum assignments (one assignment is a
batch of one).  A caller that reads one component of the coefficient
passes ``at=`` with one index per word position: every leaf tensor is then
sliced on its external legs before contracting, and the (2N)^(2n) tensor
is never built.

The expansion of a word depends only on its shape: per symbol the kind,
label, momentum sign and whether it is dressed.  It never depends on the
model (which only supplies the leg dimension), so ``normal_order_vev``
expands each shape once and keeps the term list in a bounded cache.  A
dressing atom refers to its word position, and the dress function is read
from the caller's word when the coefficient is evaluated, so two words of
one shape share an expansion but keep their own dressings.

The one-particle kernels of the Hamiltonian hierarchy come from the
four-symbol word <a(p) M†(w) M(w) ad(q)>, each of whose terms fixes w and q
as +p or -p.  Those signs are read once per kernel.  A residual takes all
its momenta in one pass: each term is one batched contraction whose plan
also takes the trace over the two middle legs, and each distinct leaf
(kind, signed momentum) is evaluated once per residual call.
``hierarchy_commutator_residuals`` takes H^(m) and H^(n) as two moments of
one such pass.

Coefficients are taken against the bare delta: no layer multiplies by
2*pi per contraction, and `rtcheck amplitude` writes ``two_pi_power`` 0 for
every term.
"""

from __future__ import annotations

import functools
import itertools
import string
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .defect import DefectPair, ZeroMomentumError
from .doubling import DoubledModel, build_doubled_model

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class WordSymbol:
    """One generator in a word: a (annihilator) or ad (creator).

    The symbol's momentum is ``sign * value(label)``; ``dress`` optionally
    attaches a matrix factor to the symbol's component leg (evaluated at the
    label's value), which is how composite generators like
    a'(w) = (I + T(w)) a(w) enter the engine.
    """

    kind: str  # "a" | "ad"
    label: str
    sign: int = +1
    dress: Optional[Callable[[float], np.ndarray]] = None

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


@dataclass(frozen=True)
class AmplitudeExpression:
    word: tuple[WordSymbol, ...]
    dim: int
    terms: tuple[ContractionTerm, ...]

    @property
    def is_zero(self) -> bool:
        return not self.terms


def _canonical_pairing(pairs: Iterable[tuple[int, int, int]]) -> tuple:
    return tuple(sorted(pairs))


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

    counter = [len(shape)]  # fresh internal leg ids

    def fresh() -> int:
        counter[0] += 1
        return counter[0] - 1

    # live word entries: (position, kind, expr(sign,label), current_leg)
    init_atoms: list[tuple] = []
    init_word = []
    for pos, (kind, label, sign, dressed) in enumerate(shape):
        leg = pos
        if dressed:
            inner = fresh()
            if kind == "ad":
                # [ad^b X]^ext: X rows contract the creator component
                init_atoms.append(("D", (inner, pos), pos))
            else:
                # [X a]_ext: X columns contract the annihilator component
                init_atoms.append(("D", (pos, inner), pos))
            leg = inner
        init_word.append((pos, kind, (sign, label), leg))

    done: list[tuple[tuple, tuple]] = []  # (pairing, atoms)
    stack = [(tuple(init_atoms), (), tuple(init_word))]
    while stack:
        atoms, pairs, live = stack.pop()
        idx = max((i for i, e in enumerate(live) if e[1] == "a"), default=None)
        if idx is None:
            if live:  # leftover creators hit the vacuum bra
                continue
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
        stack.append((atoms_t, pair_t, live[:idx] + live[idx + 2 :]))
        # reflection contraction: delta(q + p) calR(q)
        pair_r = pairs + (((a_pos, c_pos, -sa * sc)),)
        atoms_r = atoms + (("C", (a_leg, c_leg), "R", a_expr),)
        stack.append((atoms_r, pair_r, live[:idx] + live[idx + 2 :]))
        # braided continuation: ad(p) S12(q, p) a(q)
        new_c = fresh()
        new_a = fresh()
        atoms_s = atoms + (("S", (a_leg, new_c, new_a, c_leg), a_expr, c_expr),)
        swapped = (
            live[:idx]
            + ((c_pos, c_kind, c_expr, new_c), (a_pos, "a", a_expr, new_a))
            + live[idx + 2 :]
        )
        stack.append((atoms_s, pairs, swapped))

    merged: dict[tuple, list[tuple]] = {}
    for pairs, atoms in done:
        merged.setdefault(_canonical_pairing(pairs), []).append(atoms)
    return tuple(
        ContractionTerm(pairing, tuple(nets)) for pairing, nets in sorted(merged.items())
    )


def _eval_atom(
    atom: tuple, env: dict[str, float], model: DoubledModel,
    word: tuple[WordSymbol, ...] = (), cache: Optional[dict] = None,
):
    """The atom's tensor at one momentum assignment, and its legs, kept in ``cache`` (one
    model) under (kind or flavour, signed momenta), or (dress, value) for a dressing."""
    kind = atom[0]
    if kind == "S":
        key = ("S", atom[2][0] * env[atom[2][1]], atom[3][0] * env[atom[3][1]])
    elif kind == "C":
        key = (atom[2], atom[3][0] * env[atom[3][1]])
    else:  # "D"
        key = (word[atom[2]].dress, env[word[atom[2]].label])
    cache = {} if cache is None else cache
    tensor = cache.get(key)
    if tensor is None:
        d = model.doubled_dim
        if kind == "S":
            tensor = model.calS.eval(key[1], key[2]).reshape(d, d, d, d)
        elif kind == "D":
            tensor = np.asarray(key[0](key[1]), dtype=complex)
        elif key[0] == "T":
            tensor = np.eye(d) + model.defect.T(key[1])
        else:
            tensor = model.defect.R(key[1])
        cache[key] = tensor
    return tensor, list(atom[1])


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
    path = np.einsum_path(*interleaved, list(output), optimize="greedy")[0][1:]
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
    net: tuple, envs: list[dict[str, float]], model: DoubledModel,
    word: tuple[WordSymbol, ...], cache: dict,
    at: Optional[tuple[int, ...]] = None, trace: bool = False,
) -> np.ndarray:
    """Contract one network at each momentum assignment in ``envs``, on a
    leading batch axis.  With ``trace`` word legs 1 and 2 are one leg and
    the result keeps legs 0 and 3: the plan takes the middle-leg trace."""
    n_ext = len(word)
    same = {2: 1} if trace else {}
    tensors, inputs = [], []
    seen: dict[int, int] = {}  # leg id -> compacted id
    for atom in net:
        leaves = [_eval_atom(atom, env, model, word, cache)[0] for env in envs]
        tensor = leaves[0][None] if len(leaves) == 1 else np.stack(leaves)  # a view for one
        if at is not None:
            tensor = tensor[(slice(None), *(at[l] if l < n_ext else slice(None) for l in atom[1]))]
        tensors.append(tensor)
        inputs.append(tuple(seen.setdefault(same.get(l, l), len(seen)) for l in atom[1]))
    # positions never touched by any atom keep an implicit identity;
    # that cannot happen for vacuum-surviving terms of balanced words
    output = tuple(seen.get(l, -1) for l in ((0, 3) if trace else range(n_ext)))
    if -1 in output:
        raise ValueError("network does not cover all word positions")
    for positions, subscripts in _plan(tuple(inputs), output, model.doubled_dim, at is not None):
        tensors.append(np.einsum(subscripts, *[tensors.pop(p) for p in positions]))
    return tensors[0]


def evaluate_coefficient(
    expr: AmplitudeExpression, term: ContractionTerm, env: dict[str, float],
    model: DoubledModel, at: Optional[tuple[int, ...]] = None, cache: Optional[dict] = None,
) -> np.ndarray:
    """Evaluate a term's coefficient tensor at a momentum assignment.

    The result has one axis of size 2N per word position, in word order.
    With ``at`` (one component index per word position) only that entry is
    contracted and the result is a 0-d array.  The caller is responsible
    for supplying an assignment consistent with the term's pairing.  Calls
    that pass one ``cache`` (one model) evaluate each distinct leaf once.
    """
    d = model.doubled_dim
    n_ext = len(expr.word)
    if at is not None and len(at) != n_ext:
        raise ValueError(f"need one component index per word position ({n_ext})")
    total = np.zeros(() if at is not None else (d,) * n_ext, dtype=complex)
    cache = {} if cache is None else cache
    for net in term.networks:
        if net:
            total = total + _contract(net, [env], model, expr.word, cache, at)[0]
        elif n_ext:
            raise ValueError("empty network with free legs")
        else:
            total = total + 1.0
    return np.asarray(total)


def physical_coefficient(
    expr: AmplitudeExpression, term: ContractionTerm, env: dict[str, float],
    model: DoubledModel, cache: Optional[dict] = None,
) -> complex:
    """The term's coefficient at the physical component assignment.

    A word position's component follows its symbol's momentum
    sign * env[label]: eps = sign(p) for an annihilator a(p) and
    xi = -sign(k) for a creator ad(k), where xi = + is the first block.
    """
    at = []
    for symbol in expr.word:
        q = symbol.sign * env[symbol.label]
        side = q if symbol.kind == "a" else -q  # eps or xi
        at.append(0 if side > 0 else 1)
    return complex(evaluate_coefficient(expr, term, env, model, at=tuple(at), cache=cache)[()])


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


def subtract(K1: OneParticleKernel, K2: OneParticleKernel) -> OneParticleKernel:
    return add(K1, scale(K2, -1.0))


def kernel_distance(K1: OneParticleKernel, K2: OneParticleKernel, p) -> float | np.ndarray:
    """max |A1 - A2| + max |B1 - B2| at p; one distance per momentum of an array p."""
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
) -> Callable[[tuple[float, ...]], tuple[tuple, tuple]]:
    """Traced coefficients of <a(p) M†(w) M(w) ad(q)> over a tuple of momenta.

    The middle symbols share the integration label; their component legs are
    traced.  Each surviving term fixes w = +-p and q = +-p through its
    pairing; the signs are read once, by resolving the pairing at p = 1.  The
    returned function maps momenta p_1..p_P to two tuples of (w per momentum,
    (P, 2N, 2N) traced coeff) in term order: the terms with q = p (the
    delta(p - k) part) and those with q = -p (the delta(p + k) part).  Each
    term is one batched contraction per tuple of momenta, with its leaves
    from ``cache``, kept for the function's lifetime.
    """
    expr = normal_order_vev([a("p"), mid_creator, mid_annihilator, ad("q")], model)
    signs = []
    for term in expr.terms:
        env = resolve_momenta(term, expr.word, {"p": 1.0})
        if "w" in env and "q" in env:
            signs.append((term, env["w"], env["q"]))
    passes: dict[tuple[float, ...], tuple[tuple, tuple]] = {}

    def traced(ps: tuple[float, ...]) -> tuple[tuple, tuple]:
        got = passes.get(ps)
        if got is None:
            parts: tuple[list, list] = ([], [])
            for term, sw, sq in signs:
                envs = [{"p": p, "w": sw * p, "q": sq * p} for p in ps]
                tr = sum(_contract(net, envs, model, expr.word, cache, trace=True)
                         for net in term.networks)
                parts[sq < 0].append(([env["w"] for env in envs], tr))
            got = passes[ps] = (tuple(parts[0]), tuple(parts[1]))
        return got

    return traced


def _moment_kernel(
    traced: Callable[[tuple], tuple[tuple, tuple]], power: int, prefactor: float, dim: int
) -> OneParticleKernel:
    """The w^power moment of traced four-word coefficients, as a kernel: the
    delta calculus reduces the integral over w to the substitution.  Its A
    and B take one momentum, or an array of momenta with one result each."""
    zero = np.zeros((dim, dim), dtype=complex)

    def moment(part: int, p: float | np.ndarray) -> np.ndarray:
        ps = tuple(np.atleast_1d(p).tolist())  # the model gets Python floats
        if 0 in ps:
            raise ValueError("kernel comparison undefined at p = 0")
        total = zero
        for ws, tr in traced(ps)[part]:
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
    kernel of order m + n; both sides are built independently (compose /
    subtract of the Hamiltonian moments versus the engine expansion of the
    dressed reflection-moment word), and each is evaluated at all momenta
    in one batched pass per term.
    """
    if m < 0 or n < 0:
        raise ValueError("hierarchy index must be >= 0")
    # H^(m) and H^(n) are two moments of one word: trace its terms once
    cache: dict = {}
    traced = _traced_four_word(model, ad("w"), a("w"), cache)
    Km = _moment_kernel(traced, m, HAMILTONIAN_PREFACTOR, model.doubled_dim)
    Kn = _moment_kernel(traced, n, HAMILTONIAN_PREFACTOR, model.doubled_dim)
    lhs = subtract(compose(Km, Kn), compose(Kn, Km))
    pref = (-1.0) ** m - (-1.0) ** n
    rhs = scale(reflection_moment_kernel(m + n, model, cache), pref)
    return kernel_distance(lhs, rhs, np.array(momenta, dtype=float)).tolist()


def hierarchy_commutator_residual(m: int, n: int, model: DoubledModel, p: float) -> float:
    """The hierarchy commutator residual at one momentum."""
    return hierarchy_commutator_residuals(m, n, model, [p])[0]


def _zf_view(model: DoubledModel) -> DoubledModel:
    """Same exchange matrix, trivial defect: the plain ZF contraction rules."""
    zero = np.zeros((model.bulk_dim, model.bulk_dim), dtype=complex)
    trivial = DefectPair(model.bulk_dim, lambda k: zero, lambda k: zero)
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

    creators = [
        ad("w", dress=lambda w: eye + calT(w)),
        ad("w", sign=-1, dress=lambda w: calR(-w)),
    ]
    annihilators = [
        a("w", dress=lambda w: eye + calT(w)),
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


MAX_PARTICLES = 6  # n! 2^n terms: 46,080 at n = 6, which take ~15 s to evaluate


def n_particle_expression(
    n: int, in_labels: list[str], out_labels: list[str], model: DoubledModel
) -> AmplitudeExpression:
    """Engine expression for <out_1..out_n | in_1..in_n>: the word is
    a(p_n)..a(p_1) ad(k_1)..ad(k_n)."""
    if n > MAX_PARTICLES:
        raise ValueError(f"amplitudes are limited to n <= {MAX_PARTICLES}")
    word = [a(l) for l in reversed(out_labels)] + [ad(l) for l in in_labels]
    return normal_order_vev(word, model)


def factorization_residual(
    n: int, in_momenta: list[float], out_momenta: list[float], model: DoubledModel
) -> float:
    """Engine amplitude versus the factorized product of one-particle
    amplitudes, compared coefficient-wise over the product's pairings.

    The product side pairs out-slot i with in-slot i; for each of the 2^n
    sign patterns its coefficient is the product of projected transmission
    or reflection brackets.  The engine coefficient for the same pairing is
    evaluated at the pairing-consistent substitution p_i = sigma_i k_i with
    the physical component assignment, and the maximal discrepancy over all
    patterns is returned.
    """
    if model.bulk_dim != 1:
        raise ValueError("factorization comparison is defined for N = 1 models")
    if len(in_momenta) != n or len(out_momenta) != n:
        raise ValueError("momentum lists must have length n")
    validate_orderings(in_momenta, out_momenta)
    if n == 0:
        return 0.0

    opta = one_particle_amplitude(model.half_line, delta_2pi=False)
    in_labels = [f"k{i+1}" for i in range(n)]
    out_labels = [f"p{i+1}" for i in range(n)]
    expr = n_particle_expression(n, in_labels, out_labels, model)
    by_pairing = {t.pairing: t for t in expr.terms}

    worst, cache = 0.0, {}
    for sigma in itertools.product((+1, -1), repeat=n):
        p_sub = [s * k for s, k in zip(sigma, in_momenta)]
        # out slot i is word position n - 1 - i, in slot i is position n + i
        pairing = _canonical_pairing((n - 1 - i, n + i, sigma[i]) for i in range(n))
        env = dict(zip(in_labels + out_labels, list(in_momenta) + p_sub))
        prod = 1.0 + 0.0j
        for s, p in zip(sigma, p_sub):
            prod *= complex((opta.A(p) if s == +1 else opta.B(p))[0, 0])
        term = by_pairing.get(pairing)
        engine_val = 0j if term is None else physical_coefficient(expr, term, env, model, cache)
        worst = max(worst, abs(engine_val - prod))
    return worst


def opta_agreement_residual(model: DoubledModel, p: float) -> float:
    """Engine one-particle kernel versus the projected-amplitude kernel, both
    restricted to the physical component assignment (N = 1 models)."""
    if model.bulk_dim != 1:
        raise ValueError("agreement check is defined for N = 1 models")
    if p == 0:
        raise ValueError("undefined at p = 0")
    expr = normal_order_vev([a("p"), ad("k")], model)
    opta = one_particle_amplitude(model.half_line, delta_2pi=False)
    worst = 0.0
    for rel, ref in ((+1, opta.A(p)), (-1, opta.B(p))):
        term = next(t for t in expr.terms if t.pairing[0][2] == rel)
        coeff = physical_coefficient(expr, term, {"p": p, "k": p / rel}, model)
        worst = max(worst, abs(coeff - complex(ref[0, 0])))
    return worst
