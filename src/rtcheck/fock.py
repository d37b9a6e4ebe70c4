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
``_coefficients`` puts every network of a call that has the same leg
lists, and so the same topology, on that axis, each at its own momenta,
with at most ``SLICE`` matrix entries per operand: the n! 2^n networks of
an n-particle amplitude fall into n! topologies of 2^n networks each (24 of
16 at n = 4, 720 of 64 at n = 6), since the T/R choices change only leaves.
A caller that reads one component of a coefficient passes ``at=`` with one
index per word position: every leaf tensor is then sliced on its external
legs before contracting, each batch row at its own ``at``, and the
(2N)^(2n) tensor is never built.

Every coefficient is contracted on one path, ``_coefficients``: amplitudes,
factorization and the hierarchy kernels.  Its jobs are terms, each of its
own word and at P momentum points (an amplitude term at one).  Every atom
records at expansion what it reads (S, a contraction leaf T or R, or a
dress: I + calT, calT or calR) and the (sign, label) of each momentum it
reads it at.  A call's rows, one per term, are encoded
once per selection of terms (``_rows``, the one holder of the contraction
rule): each slot's flavour code, signs and label columns, and the (row,
point) entries of each topology.  A call forms every slot's momenta from
its (job, point, label) array in one expression, reads each distinct leaf
once, each flavour with one call on the array of its momenta (``calS.eval``,
``I + calT``, ``calR`` or ``calT``; the ZF constants I and 0 with none), and
gives each slot of a topology its leaves, sliced at each entry's ``at``,
with one gather.  A contraction leaf and a dress of one datum share their
reads.  A call's model calls do not grow with its rows or points, and its
Python steps grow only with its topologies.  Momenta are resolved once per
expansion as arrays: ``_resolver`` walks the pairings of all its terms at
once and keeps each (term, label) as a seed column and a sign, so a query's
momenta are one gather (``resolved_momenta``).  ``evaluate_coefficient`` is
the one-row view of ``_coefficients``: one term at one momentum assignment.

The expansion of a word depends only on its shape: per symbol the kind,
label, momentum sign and dress.  It never depends on the model (which only
supplies the leg dimension), so ``normal_order_vev`` expands each shape
once and keeps the term list in a bounded cache.

A one-particle kernel is values: A and B at one momentum or at each of an
array, so ``compose`` takes its right factor at p and at -p.  The kernels
of the Hamiltonian hierarchy come from the four-symbol word
<a(p) M†(w) M(w) ad(q)>, each of whose terms fixes w and q as +p or -p.
Its networks have no S leaf, and their plans keep legs 0 and 3 and trace
legs 1 and 2.  A hierarchy residual makes one call for all the (word,
momentum array) passes it reads: the Hamiltonian word at p and -p and the
reflection-moment word at p for every commutator, or the seven words of
the relation on the model itself, which contract by the plain ZF rules and
read their dresses from the model's pair.

Coefficients are taken against the bare delta: no layer multiplies by
2*pi per contraction, and `rtcheck amplitude` writes ``two_pi_power`` 0 for
every term.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import string
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .defect import DefectPair, ZeroMomentumError
from .doubling import DoubledModel
from .smatrix import SLICE

TWO_PI = 2.0 * np.pi
DRESSES = ("I+calT", "calT", "calR")  # the data a dress reads, of the doubled pair


@dataclass(frozen=True)
class WordSymbol:
    """One generator in a word: a (annihilator) or ad (creator).

    The symbol's momentum is ``sign * value(label)``; ``dress`` optionally
    attaches a matrix factor to the symbol's component leg, which is how
    composite generators like a'(w) = (I + calT(w)) a(w) enter the engine.
    It is a pair (datum, sign): ``I + calT``, ``calT`` or ``calR`` of the
    doubled pair, read at ``sign * value(label)``.
    """

    kind: str  # "a" | "ad"
    label: str
    sign: int = +1
    dress: Optional[tuple[str, int]] = None

    def __post_init__(self):
        if self.kind not in ("a", "ad"):
            raise ValueError(f"unknown symbol kind {self.kind!r}")
        if self.sign not in (+1, -1):
            raise ValueError("momentum sign must be +1 or -1")
        if self.dress is not None and self.dress not in itertools.product(DRESSES, (+1, -1)):
            raise ValueError(
                f"a dress is (datum, sign) of {DRESSES} and +1 or -1, not {self.dress!r}")


def a(label: str, sign: int = +1, dress=None) -> WordSymbol:
    return WordSymbol("a", label, sign, dress)


def ad(label: str, sign: int = +1, dress=None) -> WordSymbol:
    return WordSymbol("ad", label, sign, dress)


# --- coefficient networks ---------------------------------------------------
#
# Atoms reference integer leg ids; the external leg of word position i is i.
# An atom is (flavour, legs, *momenta): the model datum it reads, its leg list
# and the (sign, label) of each momentum that datum is read at.
# ("S", (a_old, ad_new, a_new, ad_old), q_expr, p_expr)   4-leg braid tensor
# ("T"|"R", (a_leg, ad_leg), q_expr)                      contraction matrix (see _rows)
# (datum, (row, col), (sign, label))                      dressing matrix
# A dressing atom's datum is one of DRESSES, so an expansion holds no model
# closure and can be shared by every word of the same shape.


@dataclass(frozen=True, eq=False)  # hashed by identity: queries cache per selection of terms
class ContractionTerm:
    """One decorated matching: pairing plus its coefficient network.

    pairing entries are (a_position, ad_position, rel) with the momentum
    constraint value[a_label] = rel * value[ad_label]; rel = +1 comes from a
    transmission-type delta(q - p) contraction, rel = -1 from a
    reflection-type delta(q + p) one (for unsigned symbols).

    A pairing fixes its expansion path, so a term has one network: the
    rightmost annihilator braids past every creator up to its partner, then
    contracts by T (rel = sa*sc) or by R (rel = -sa*sc), and the annihilators
    are taken right to left, so two paths never end in the same pairing.
    """

    pairing: tuple[tuple[int, int, int], ...]
    network: tuple[tuple, ...]  # the atoms
    legs: tuple[tuple, ...]  # their leg lists, one object per distinct lists (a topology)

    @property
    def networks(self) -> tuple[tuple, ...]:
        # for bench/tracing.py alone: it counts fock.networks, fock.atoms, fock.naive_flops here
        return (self.network,)


# leaf flavour codes 0-5, one datum each: the braid, the model pair's contraction leaves
# and dresses I + calT and calR, the dress calT, and the plain ZF leaves I and 0
FLAVOURS = ("S", "I+calT", "calR", "calT", "I", "0")


@dataclass(frozen=True)
class AmplitudeExpression:
    word: tuple[WordSymbol, ...]
    dim: int
    terms: tuple[ContractionTerm, ...]


def normal_order_vev(word: list[WordSymbol], model: DoubledModel) -> AmplitudeExpression:
    """Vacuum expectation value of a word as a canonicalized expression.

    Words with unequal creator/annihilator counts give the zero expression.
    The term list depends only on the word's shape, not on the model, so it
    is expanded once per shape (see ``_expand``).
    """
    word = tuple(word)
    shape = tuple((s.kind, s.label, s.sign, s.dress) for s in word)
    return AmplitudeExpression(word, model.doubled_dim, _expand(shape))


@functools.lru_cache(maxsize=64)
def _expand(shape: tuple[tuple, ...]) -> tuple[ContractionTerm, ...]:
    """Terms of a word given as (kind, label, sign, dress) per symbol."""
    n_a = sum(1 for kind, *_ in shape if kind == "a")
    if 2 * n_a != len(shape):
        return ()

    # live word entries: (position, kind, expr(sign,label), current_leg)
    init_atoms: list[tuple] = []
    init_word = []
    free = len(shape)  # the next fresh internal leg id
    for pos, (kind, label, sign, dress) in enumerate(shape):
        leg = pos
        if dress is not None:
            inner, free = free, free + 1
            # [ad^b X]^ext: X rows contract the creator component, and
            # [X a]_ext: X columns contract the annihilator component
            legs = (inner, pos) if kind == "ad" else (pos, inner)
            init_atoms.append((dress[0], legs, (dress[1], label)))
            leg = inner
        init_word.append((pos, kind, (sign, label), leg))

    # Each branch numbers its fresh legs on from its parent's, so networks of
    # one braid structure (they differ in T/R choices only) have equal leg
    # lists, which _rows groups by.
    done: list[ContractionTerm] = []
    shared: dict[tuple, tuple] = {}  # one object per distinct leg lists
    stack = [(tuple(init_atoms), (), tuple(init_word), free)]
    while stack:
        atoms, pairs, live, free = stack.pop()
        idx = max((i for i, e in enumerate(live) if e[1] == "a"), default=None)
        if idx is None:  # every annihilator paired, and so every creator
            key = tuple(atom[1] for atom in atoms)
            done.append(ContractionTerm(tuple(sorted(pairs)), atoms, shared.setdefault(key, key)))
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
        atoms_t = atoms + (("T", (a_leg, c_leg), a_expr),)
        stack.append((atoms_t, pair_t, live[:idx] + live[idx + 2 :], free))
        # reflection contraction: delta(q + p) calR(q)
        pair_r = pairs + (((a_pos, c_pos, -sa * sc)),)
        atoms_r = atoms + (("R", (a_leg, c_leg), a_expr),)
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
    return tuple(sorted(done, key=operator.attrgetter("pairing")))


def _compact(legs: tuple, kept, same: dict) -> tuple[tuple, tuple]:
    """A network's leg lists and the legs its result keeps, renumbered in
    order of first use, a leg of ``same`` as its image."""
    seen: dict[int, int] = {}  # leg id -> compacted id
    inputs = tuple(tuple(seen.setdefault(same.get(l, l), len(seen)) for l in atom)
                   for atom in legs)
    # each kept leg is on an atom: its position's dress, or first braid or contraction
    return inputs, tuple(seen[l] for l in kept)


def _read(code: int, ks, model: DoubledModel) -> np.ndarray:
    """The stack of a leaf flavour's tensors at its momenta ``ks`` (one
    float, or one 1-d array, per momentum slot): by one model call
    ``calS.eval``, or I + calT, calR or calT of the model's pair, and by
    none the constants I and 0, the plain ZF contraction leaves."""
    d, flavour = model.doubled_dim, FLAVOURS[code]
    if flavour == "S":
        return model.calS.eval(*ks).reshape(-1, d, d, d, d)
    if flavour in ("I", "0"):
        return np.broadcast_to(np.eye(d, dtype=complex) * (flavour == "I"), (np.size(ks[0]), d, d))
    if flavour == "calR":
        return model.defect.R(ks[0]).reshape(-1, d, d)
    got = model.defect.T(ks[0])
    return (got if flavour == "calT" else np.eye(d) + got).reshape(-1, d, d)


def _leaf_tables(codes: np.ndarray, ks: np.ndarray,
                 model: DoubledModel) -> tuple[list, np.ndarray]:
    """Every distinct leaf of a query read once: per flavour code, one
    ``_read`` on the array of its distinct momenta, at floats if it has
    one.  A slot's leaf is its (code, momenta at P points), from ``codes``
    and ``ks`` (slot, two momenta per point); slots sorted by code and first
    point whose momenta are all equal share one.  Gives the braid and the
    matrix table (contraction and dress leaves), each with P rows per leaf
    in sorted order, and each slot's rows, point by point."""
    P = ks.shape[1] // 2
    order = np.lexsort((*ks[:, 1::-1].T, codes))  # by flavour, then the first point
    codes, points = codes[order], ks[order]
    first = np.ones(len(codes), dtype=bool)  # the first slot of each distinct leaf
    first[1:] = (codes[1:] != codes[:-1]) | (points[1:] != points[:-1]).any(axis=1)
    index = np.empty(len(codes), dtype=np.intp)
    index[order] = first.cumsum() - 1
    codes, points = codes[first].tolist(), points[first]
    cuts = [i for i in range(1, len(codes)) if codes[i] != codes[i - 1]]
    tables: tuple[list, list] = ([], [])  # braid tensors, matrices
    for i, j in zip([0, *cuts], [*cuts, len(codes)]) if codes else ():
        code = codes[i]  # one point is read at floats: no array set-up, an array's bits
        pair = points[i:j].reshape(-1, 2).T if (j - i) * P != 1 else points[i].tolist()
        if code and not tables[1]:  # S sorts first: rows for the braids, never read
            tables[1].append(np.zeros((i * P, model.doubled_dim, model.doubled_dim)))
        tables[code > 0].append(_read(code, pair[:1 if code else 2], model))
    if P != 1:  # each slot's leaf rows, point by point
        index = (index[:, None] * P + np.arange(P)).ravel()
    return [np.concatenate(part) if part else None for part in tables], index


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


def _labels(word: tuple[WordSymbol, ...]) -> tuple[str, ...]:
    """A word's labels, the columns of its momentum assignments."""
    return tuple(dict.fromkeys(s.label for s in word))


@functools.lru_cache(maxsize=64)
def _rows(labels: tuple[str, ...], n_ext: int, terms: tuple[ContractionTerm, ...],
          points: int, traced: bool, batch: int, zf: bool) -> tuple:
    """The structure of a query of ``terms`` (of expansions with ``labels`` and
    ``n_ext`` word positions) at ``points`` momenta each; it depends on the
    terms only, so a repeated query reuses it.  A term is a row and an atom a
    slot, row by row; a (row, point) is a batch entry and a (slot, point) a
    leaf.  The contraction rule reads a T atom as I + calT and an R atom as
    calR, or, ``zf``, as the plain ZF constants I and 0.  Gives each slot's
    flavour code, the signs of its two momenta at each point (0 for one it
    lacks) and the (momenta row, label column) index that reads them; and per
    topology, ``batch`` entries at a time, the entries, their leaves and its
    plan inputs: every word position kept or, ``traced``, legs 0 and 3 with
    leg 2 as leg 1.  An atom that networks share is one object (a branch
    extends its parent's), as are a topology's leg lists, so each is encoded
    once."""
    code = {f: i for i, f in enumerate(FLAVOURS)}
    code.update(T=code["I" if zf else "I+calT"], R=code["0" if zf else "calR"])
    nets = [term.network for term in terms]
    atoms = {id(atom): atom for net in nets for atom in net}
    atom_number = {key: i for i, key in enumerate(atoms)}
    encoded = np.array([(code[atom[0]], *itertools.chain.from_iterable(
        (sign, labels.index(label)) for sign, label in atom[2:]), 0, 0, 0, 0)[:5]
        for atom in atoms.values()], np.int8).reshape(-1, 5)
    length = np.fromiter(map(len, nets), np.intp, len(nets))
    slots = encoded[np.fromiter((atom_number[id(atom)] for net in nets for atom in net),
                                np.intp, length.sum())]
    first = (length.cumsum() - length) * points  # each row's first leaf
    step = np.arange(points)
    distinct: dict[tuple, int] = {}  # equal leg lists of two expansions are one topology
    topology_number = {id(legs): distinct.setdefault(legs, len(distinct))
                       for legs in {id(term.legs): term.legs for term in terms}.values()}
    kept, same = ((0, 3), {2: 1}) if traced else (range(n_ext), {})
    plans = [(*_compact(legs, kept, same), legs) for legs in distinct]
    key = np.fromiter((topology_number[id(term.legs)] for term in terms), np.intp, len(terms))
    order = key.argsort(kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(key[order])) + 1).tolist(), len(terms)]
    groups = []
    for rows, plan in ((order[i:j], plans[key[order[i]]])
                       for i, j in zip(cuts, cuts[1:]) if j > i):
        entries = (rows[:, None] * points + step).ravel()
        leaves = first[rows, None, None] + step[:, None] + points * np.arange(len(plan[2]))
        groups += [(entries[cut:cut + batch],
                    leaves.reshape(len(entries), len(plan[2]))[cut:cut + batch], plan)
                   for cut in range(0, len(entries), batch)]
    reads = ((np.arange(len(terms)).repeat(length)[:, None] * points + step).repeat(2, axis=1),
             np.tile(slots[:, 2::2], points))
    return slots[:, 0], np.tile(slots[:, 1::2], points), reads, groups


def _coefficients(word: tuple[WordSymbol, ...], terms: list[ContractionTerm],
                  momenta: np.ndarray, ats: Optional[np.ndarray], model: DoubledModel,
                  points: int = 1, traced: bool = False, zf: bool = False) -> np.ndarray:
    """The coefficients of ``terms`` (of words of the length and labels of
    ``word``), term j at rows j*points to (j+1)*points - 1 of ``momenta``
    (one column per label), one per (term, point): whole tensors, traced
    ones (legs 0 and 3 kept, 1 and 2 traced), or with ``ats`` (one
    component index per position and term) one entry each.  The rows
    (``_rows``) of a topology are one batched contraction, each slot
    gathering its leaves (``_leaf_tables``), sliced at each entry's ``at``.
    The contraction leaves are the model's (I + calT and calR) or, ``zf``,
    the plain ZF constants I and 0; the dresses are always the model's."""
    d, n_ext = model.doubled_dim, len(word)
    codes, signs, reads, groups = _rows(
        _labels(word), n_ext, tuple(terms), points, traced, max(1, SLICE // d ** 2), zf)
    tables, index = _leaf_tables(codes, signs * momenta[reads], model)
    shape = (d, d) if traced else () if ats is not None else (d,) * n_ext
    values = np.zeros((len(terms) * points, *shape), dtype=complex)
    for entries, where, (inputs, output, legs) in groups:
        leaves, at = index[where], None if ats is None else ats[entries // points].T
        tensors = [tables[len(atom) == 2][(leaves[:, i], *(
            () if at is None else (at[l] if l < n_ext else slice(None) for l in atom)))]
            for i, atom in enumerate(legs)]
        for positions, subscripts in _plan(inputs, output, d, at is not None) if legs else ():
            tensors.append(np.einsum(subscripts, *[tensors.pop(p) for p in positions]))
        values[entries] = tensors[0] if legs else 1.0  # the empty word's unit network
    values += 0.0  # -0.0 entries as 0.0, as a sum that starts from 0 gives them
    return values


def evaluate_coefficient(
    expr: AmplitudeExpression, term: ContractionTerm, env: dict[str, float],
    model: DoubledModel, at: Optional[tuple[int, ...]] = None,
) -> np.ndarray:
    """One term's coefficient at an assignment ``env`` consistent with its
    pairing, one row of ``_coefficients``: one axis of size 2N per word
    position, or with ``at`` (an index per position) that entry, 0-d."""
    if at is not None and len(at) != len(expr.word):
        raise ValueError(f"need one component index per word position ({len(expr.word)})")
    momenta = np.array([[env[label] for label in _labels(expr.word)]], dtype=float)
    ats = None if at is None else np.array([at], dtype=np.intp)
    return _coefficients(expr.word, [term], momenta, ats, model)[0, ...]


def physical_coefficients(
    expr: AmplitudeExpression, terms, momenta: np.ndarray, model: DoubledModel
) -> np.ndarray:
    """Coefficients of ``terms`` at the physical component assignment, term
    j at row j of the (term, label) array ``momenta`` (``resolved_momenta``),
    evaluated as one batch.

    A word position's component follows its symbol's momentum
    sign * value[label]: eps = sign(p) for an annihilator a(p) and
    xi = -sign(k) for a creator ad(k), where xi = + is the first block.
    """
    labels = _labels(expr.word)
    sides = np.array([s.sign if s.kind == "a" else -s.sign for s in expr.word])  # eps or xi
    ats = np.where(sides * momenta[:, [labels.index(s.label) for s in expr.word]] > 0, 0, 1)
    return _coefficients(expr.word, terms, momenta, ats, model)


@functools.lru_cache(maxsize=64)
def pairing_array(terms: tuple[ContractionTerm, ...]) -> np.ndarray:
    """The pairings of ``terms`` as one (term, pair, (a_pos, ad_pos, rel)) array."""
    pairs = len(terms[0].pairing) if terms else 0
    return np.array([t.pairing for t in terms], np.intp).reshape(len(terms), pairs, 3)


@functools.lru_cache(maxsize=64)
def _resolver(word: tuple[WordSymbol, ...], terms: tuple[ContractionTerm, ...],
              seeded: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Each (term, label)'s momentum as the label column of its seed and a
    sign (0 if no pair reaches it), for seeds at ``seeded``: value[a] = rel *
    value[ad] fixes a pair's unknown label, pair by pair in annihilator order,
    each over all terms at once.  Each step multiplies by rel = +-1, so
    ``sign * seeds[column]`` has the bits of a Python walk of one term."""
    labels = _labels(word)
    column = np.tile(np.arange(len(labels)), (len(terms), 1))
    sign = np.tile(np.array([label in seeded for label in labels], np.int8), (len(terms), 1))
    position = np.array([labels.index(s.label) for s in word], np.intp)  # -> label column
    rows = np.arange(len(terms))
    for a_pos, c_pos, rel in pairing_array(terms).transpose(1, 2, 0):
        a_col, c_col = position[a_pos], position[c_pos]
        a_known, c_known = sign[rows, a_col] != 0, sign[rows, c_col] != 0
        for src, dst, fix in ((a_col, c_col, a_known & ~c_known),
                              (c_col, a_col, c_known & ~a_known)):
            sign[rows[fix], dst[fix]] = rel[fix] * sign[rows[fix], src[fix]]
            column[rows[fix], dst[fix]] = column[rows[fix], src[fix]]
    return column, sign


def resolved_momenta(word: tuple[WordSymbol, ...], terms,
                     seeds: dict[str, float]) -> tuple[np.ndarray, np.ndarray]:
    """The (term, label) momenta resolved from ``seeds`` in one gather, and
    their signs, 0 for a label no pair reaches (its momentum reads 0)."""
    labels = _labels(word)
    column, sign = _resolver(word, tuple(terms), tuple(l for l in labels if l in seeds))
    return sign * np.array([seeds.get(label, 0.0) for label in labels], dtype=float)[column], sign


def resolve_momenta(
    term: ContractionTerm, word: tuple[WordSymbol, ...], seeds: dict[str, float]
) -> dict[str, float]:
    """One term's ``resolved_momenta``: ``seeds`` and every label they reach."""
    (got,), (sign,) = resolved_momenta(word, [term], seeds)
    return {**{label: v for label, v, s in zip(_labels(word), got.tolist(), sign) if s}, **seeds}


# --- one-particle kernels ---------------------------------------------------


@dataclass(frozen=True)
class OneParticleKernel:
    """Distributional kernel A(p) delta(p - k) + B(p) delta(p + k) as its values:
    (d, d) matrices at one momentum p, or (P, d, d) stacks at a 1-d array."""

    A: np.ndarray
    B: np.ndarray


def identity_kernel(dim: int) -> OneParticleKernel:
    return OneParticleKernel(np.eye(dim, dtype=complex), np.zeros((dim, dim), dtype=complex))


def compose(K1: OneParticleKernel, K2: OneParticleKernel,
            K2_reflected: OneParticleKernel) -> OneParticleKernel:
    """Kernel of the operator product at p, from K1 and K2 at p and K2 at -p:
    the delta calculus closure.

    A(p) = A1(p) A2(p) + B1(p) B2(-p);  B(p) = A1(p) B2(p) + B1(p) A2(-p).
    """
    return OneParticleKernel(K1.A @ K2.A + K1.B @ K2_reflected.B,
                             K1.A @ K2.B + K1.B @ K2_reflected.A)


def add(K1: OneParticleKernel, K2: OneParticleKernel) -> OneParticleKernel:
    return OneParticleKernel(K1.A + K2.A, K1.B + K2.B)


def scale(K: OneParticleKernel, c: complex) -> OneParticleKernel:
    return OneParticleKernel(c * K.A, c * K.B)


def kernel_distance(K1: OneParticleKernel, K2: OneParticleKernel) -> float | np.ndarray:
    """max |A1 - A2| + max |B1 - B2|: one distance, or one per momentum of
    kernels held at a momentum array."""
    return np.abs(K1.A - K2.A).max(axis=(-2, -1)) + np.abs(K1.B - K2.B).max(axis=(-2, -1))


def involution_kernel(model: DoubledModel, p) -> OneParticleKernel:
    """J at p, with A(p) = calT(p), B(p) = calR(p); J o J = id iff defect unitarity."""
    return OneParticleKernel(model.defect.T(p), model.defect.R(p))


def one_particle_amplitude(half_line: DefectPair, p, delta_2pi: bool = False) -> OneParticleKernel:
    """The transition-amplitude kernel at p, assembled from Heaviside projections.

    A(p) = theta(p) T(p) + theta(-p) T(-p) = T(|p|), B likewise with R,
    optionally times 2*pi per delta; p = 0 is a domain error.
    """
    c = TWO_PI if delta_2pi else 1.0
    return OneParticleKernel(c * half_line.T(abs(p)), c * half_line.R(abs(p)))


# --- engine-derived kernels -------------------------------------------------

HAMILTONIAN_PREFACTOR = 0.5  # the 1/2 in front of the Hamiltonian integral


def _traced_passes(model: DoubledModel, passes: list[tuple],
                   zf: bool = False) -> list[tuple[list, list]]:
    """Words <a(p) M†(w) M(w) ad(q)>, one per pass (M†, M, momentum array),
    traced over their middle legs in one ``_coefficients`` call (contracted
    by the plain ZF rules if ``zf``), each term a job on its pass's array.
    A term fixes w = +-p and q = +-p, read once per word as the signs that
    resolve it from p.  Per pass two lists of (w per momentum, (P, 2N, 2N)
    traced coefficient) in term order: the terms with q = p (the
    delta(p - k) part) and those with q = -p."""
    jobs, words = [], {}  # (M†, M) -> its word's terms, each with its signs of w and q
    for i, (creator, annihilator, ps) in enumerate(passes):
        if (creator, annihilator) not in words:
            expr = normal_order_vev([a("p"), creator, annihilator, ad("q")], model)
            signs = _resolver(expr.word, expr.terms, ("p",))[1]  # labels p, w, q
            words[creator, annihilator] = list(zip(expr.terms, *signs[:, 1:].T.tolist()))
        jobs += [(i, term, sw, sq, ps) for term, sw, sq in words[creator, annihilator]]
    points, d = len(passes[0][2]), model.doubled_dim
    momenta = np.concatenate([np.stack([ps, sw * ps, sq * ps], axis=1) for *_, sw, sq, ps in jobs])
    # every pass's word has the length and labels of the last one expanded
    got = _coefficients(expr.word, [job[1] for job in jobs], momenta, None, model, points,
                        traced=True, zf=zf)
    out: list[tuple[list, list]] = [([], []) for _ in passes]
    for (i, _, sw, sq, ps), coeff in zip(jobs, got.reshape(len(jobs), points, d, d)):
        out[i][sq < 0].append(((sw * ps).tolist(), coeff))
    return out


def _moment_kernel(traced: tuple[list, list], power: int,
                   prefactor: float = HAMILTONIAN_PREFACTOR) -> OneParticleKernel:
    """The w^power moment of one traced pass (``_traced_passes``), times
    ``prefactor``, as a kernel at the pass's momenta: the delta calculus
    reduces the integral over w to the substitution."""

    def moment(part: list) -> np.ndarray:
        total = 0.0
        for ws, tr in part:
            # Python's power: numpy's differs in the last bit at some points
            total = total + np.array([w ** power for w in ws])[:, None, None] * tr
        return prefactor * total

    return OneParticleKernel(moment(traced[0]), moment(traced[1]))


def _engine_kernel(mid: WordSymbol, power: int, model: DoubledModel, p) -> OneParticleKernel:
    """The w^power moment kernel of <a(p) ad(w) mid(w) ad(q)> at p, or at each p of an array."""
    if power < 0:
        raise ValueError("hierarchy index must be >= 0")
    ps = np.atleast_1d(np.asarray(p, dtype=float))
    K = _moment_kernel(_traced_passes(model, [(ad("w"), mid, ps)])[0], power)
    return K if np.ndim(p) else OneParticleKernel(K.A[0], K.B[0])


def hamiltonian_kernel(n: int, model: DoubledModel, p) -> OneParticleKernel:
    """One-particle kernel of H^(n) = 1/2 integral dk k^n ad(k) a(k) at p,
    computed through the normal-ordering engine."""
    return _engine_kernel(a("w"), n, model, p)


def reflection_moment_kernel(power: int, model: DoubledModel, p) -> OneParticleKernel:
    """Kernel of 1/2 integral dk k^power ad(k) calR(k) a(-k) at p via the engine."""
    return _engine_kernel(a("w", sign=-1, dress=("calR", +1)), power, model, p)


def hierarchy_commutator_residuals(
    pairs: list[tuple[int, int]], model: DoubledModel, momenta: list[float]
) -> list[list[float]]:
    """Residuals of the hierarchy commutator identity at one-particle level:
    one list per (m, n) of ``pairs``, one residual per momentum.

    [H^(m), H^(n)] (by compose) must equal [(-1)^m - (-1)^n] times the
    engine's reflection-moment kernel of order m + n.  Every H^(m) is a
    moment of the Hamiltonian word at p and -p, every right side one of
    the reflection-moment word at p: one call traces the three passes.
    """
    if any(m < 0 or n < 0 for m, n in pairs):
        raise ValueError("hierarchy index must be >= 0")
    ps = np.array(momenta, dtype=float)
    mid = a("w", sign=-1, dress=("calR", +1))
    at_p, at_minus_p, moments = _traced_passes(
        model, [(ad("w"), a("w"), ps), (ad("w"), a("w"), -ps), (ad("w"), mid, ps)])
    # one moment per (pass, distinct power): H^(m) at p and at -p, and the right sides
    H = {power: [_moment_kernel(at, power) for at in (at_p, at_minus_p)]
         for power in {power for pair in pairs for power in pair}}
    Kr = {power: _moment_kernel(moments, power) for power in {m + n for m, n in pairs}}
    out = []
    for m, n in pairs:
        lhs = add(compose(H[m][0], *H[n]), scale(compose(H[n][0], *H[m]), -1.0))
        rhs = scale(Kr[m + n], (-1.0) ** m - (-1.0) ** n)
        out.append(kernel_distance(lhs, rhs).tolist())
    return out


def hierarchy_commutator_residual(m: int, n: int, model: DoubledModel, p: float) -> float:
    """The hierarchy commutator residual at one momentum."""
    return hierarchy_commutator_residuals([(m, n)], model, [p])[0][0]


def hierarchy_relation_residuals(
    n: int, model: DoubledModel, momenta: list[float]
) -> list[float]:
    """Residuals of the impurity/no-impurity hierarchy relation at kernel
    level, one per momentum, its seven words traced in one call.

    Verified in the central specialization, where the composite generators
    are A(k) = [(I + calT(k)) a(k) + calR(k) a(-k)] / 2 over the plain ZF
    contraction rules and the relation holds for even n with an overall 1/2
    on the free-plus-impurity side:

        K_RT = ( K_ZF + K_impurity ) / 2 .
    """
    if n < 0:
        raise ValueError("hierarchy index must be >= 0")
    if n % 2 != 0:
        raise ValueError("the central specialization verifies even orders only")
    creators = [ad("w", dress=("I+calT", +1)), ad("w", sign=-1, dress=("calR", -1))]
    annihilators = [a("w", dress=("I+calT", +1)), a("w", sign=-1, dress=("calR", +1))]
    mids = [(cr, an, 0.25) for cr in creators for an in annihilators] + [
        (ad("w"), an, 1.0)
        for an in (a("w"), a("w", dress=("calT", +1)), a("w", sign=-1, dress=("calR", +1)))]
    ps = np.array(momenta, dtype=float)
    got = _traced_passes(model, [(cr, an, ps) for cr, an, _ in mids], zf=True)
    K = [_moment_kernel(parts, n, prefactor) for parts, (*_, prefactor) in zip(got, mids)]
    k_rt, (k_zf, imp_t, imp_r) = functools.reduce(add, K[:4]), K[4:]
    rhs = scale(add(k_zf, add(imp_t, imp_r)), 0.5)
    return kernel_distance(k_rt, rhs).tolist()


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
    the array of all p_i.  The engine coefficient of that pairing is taken
    at the physical component assignment; the expansion has every pairing
    with every sign (n! 2^n distinct terms), and all cases are one batch.
    """
    n = len(cases[0][1]) if cases else 0
    labels = [f"k{i+1}" for i in range(n)] + [f"p{i+1}" for i in range(n)]
    expr = n_particle_expression(n, labels[:n], labels[n:], model)
    by_pairing = {t.pairing: t for t in expr.terms}
    # out slot i is word position n - 1 - i, in slot i is position n + i
    terms = {sigma: by_pairing[tuple(sorted((n - 1 - i, n + i, s) for i, s in enumerate(sigma)))]
             for sigma in {sigma for _, sigma in cases}}
    sigmas = np.array([sigma for _, sigma in cases]).reshape(len(cases), n)
    ks = np.array([k for k, _ in cases], dtype=float).reshape(len(cases), n)
    ps = sigmas * ks
    opta = one_particle_amplitude(model.half_line, ps.ravel())
    brackets = np.where(sigmas.ravel() > 0, opta.A[:, 0, 0], opta.B[:, 0, 0])
    # Python complex products in factor order (numpy's may differ in the last bit)
    products = [math.prod(row, start=1.0 + 0.0j) for row in brackets.reshape(ps.shape).tolist()]
    columns = [labels.index(label) for label in _labels(expr.word)]
    momenta = np.concatenate([ks, ps], axis=1)[:, columns]  # in the word's label order
    engine = physical_coefficients(expr, [terms[sigma] for _, sigma in cases], momenta, model)
    # Python's abs: np.abs can differ in the last bit
    return [abs(value - prod) for value, prod in zip(engine.tolist(), products)]


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
