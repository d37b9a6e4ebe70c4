"""Reflection/transmission defect data and the impurity consistency residuals.

Every impurity relation is a word in S, R and T: the pure reflection,
pure transmission, mixed, vacuum-matrix (rr1/tt1/tr1) and reduced relations
are rows of one table, RELATIONS, and one evaluator, chain_residuals, computes
the literal left-minus-right infinity norm of any rows at a list of points,
with no algebraic simplification, so a defective input (or a defective
equation) shows up as a reproducible residual.  It takes the points CHUNK
at a time, a short tail joined to the chunk before it, reads every factor
of its rows with one model call per kind (S, R, T) on the chunk, and walks
both sides of each row sector by sector; on the doubled data that works on
(P, N*N, N*N) blocks instead of dense (P, 4N*N, 4N*N) stacks.
relation_residual is its one-point view of any row, and each family name is
that view on one variant tuple.  Heaviside projections are exact:
theta(xi*k) is 0 or 1 for the whole matrix, data is read only where it is 1,
and k = 0 is a domain error rather than a convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable

import numpy as np

from .smatrix import CHUNK, BulkSMatrix, read_points
from .tensor import dagger, kron, norm_inf, swap_legs

REFLECTION_VARIANTS = ("SRSR+", "SRSR-")
TRANSMISSION_VARIANTS = ("TST", "STT-", "STT+")
MIXED_VARIANTS = ("TSRS+", "TSRS-", "SRST+", "SRST-", "TSR+", "TSR-", "RST+", "RST-")
CONSISTENCY_VARIANTS = ("rr1", "tt1", "tr1")


class ZeroMomentumError(ValueError):
    """Defect data evaluated at k = 0, where theta(k) is undefined."""


def _momentum_array(k) -> np.ndarray | None:
    """None for one momentum, else k as a 1-d float array; k = 0 anywhere
    is a ZeroMomentumError, checked once per array."""
    if isinstance(k, (int, float)) or np.ndim(k) == 0:  # floats skip np.ndim
        if k == 0:
            raise ZeroMomentumError("defect data is undefined at k = 0")
        return None
    ks = np.asarray(k, dtype=float)
    if ks.ndim != 1:
        raise ValueError(f"defect data takes one momentum or a 1-d array, got shape {ks.shape}")
    if not ks.all():
        raise ZeroMomentumError("defect data is undefined at k = 0")
    return ks


@dataclass(frozen=True)
class DefectPair:
    """Matrix-valued reflection/transmission evaluators on R \\ {0}.  R and T
    take one momentum, or a 1-d array of P for a (P, dim, dim) stack."""

    dim: int
    reflection: Callable[[float], np.ndarray]
    transmission: Callable[[float], np.ndarray]
    batched: bool = False  # the evaluators broadcast over (P, 1, 1) momentum arrays
    blocks: Callable | None = None  # a doubled pair's blocks: see doubling.double_defect

    def R(self, k) -> np.ndarray:
        return self._read(self.reflection, k)

    def T(self, k) -> np.ndarray:
        return self._read(self.transmission, k)

    def _read(self, fn: Callable, k) -> np.ndarray:
        ks = _momentum_array(k)
        if ks is None:
            return np.asarray(fn(k), dtype=complex)
        return read_points(fn, self.batched, (self.dim, self.dim), ks)


@dataclass(frozen=True)
class ProjectedDefect:
    """Heaviside projection of a DefectPair onto one half line."""

    pair: DefectPair
    xi: int  # +1 or -1

    def R(self, k) -> np.ndarray:
        return self._masked(self.pair.R, k)

    def T(self, k) -> np.ndarray:
        return self._masked(self.pair.T, k)

    def _masked(self, read: Callable, k) -> np.ndarray:
        """read(k) where theta(xi k) = 1, zero elsewhere; read only where
        theta is 1, so that a pole at a masked momentum stays out."""
        one = _momentum_array(k) is None
        ks = np.atleast_1d(np.asarray(k, dtype=float))
        out = np.zeros((len(ks), self.pair.dim, self.pair.dim), dtype=complex)
        out[self.xi * ks > 0] = read(ks[self.xi * ks > 0])
        return out[0] if one else out


def project(pair: DefectPair, xi: int) -> ProjectedDefect:
    if xi not in (+1, -1):
        raise ValueError("projection sign must be +1 or -1")
    return ProjectedDefect(pair, xi)


def scalar_data(amplitude: Callable[[complex], complex]) -> Callable:
    """The 1 x 1 evaluator of a scalar amplitude, for a batched DefectPair.
    It takes each momentum as a Python float, so an array read has the bits
    of one-point reads (numpy's complex division differs in the last bit)."""

    def fn(k):
        if isinstance(k, np.ndarray) and k.ndim:
            return np.array([amplitude(q) for q in k.ravel().tolist()]).reshape(k.shape)
        return np.array([[amplitude(k)]])

    return fn


def delta_defect(eta: float) -> DefectPair:
    """Scalar amplitudes of the delta impurity: T = k/(k+i eta), R = -i eta/(k+i eta)."""
    if eta < 0:
        raise ValueError("delta impurity coupling must be >= 0")
    T = scalar_data(lambda k: k / (k + 1j * eta))
    R = scalar_data(lambda k: -1j * eta / (k + 1j * eta))
    return DefectPair(1, R, T, batched=True)


def pure_transmission_defect() -> DefectPair:
    one = np.eye(1, dtype=complex)
    zero = np.zeros((1, 1), dtype=complex)
    return DefectPair(1, lambda k: zero, lambda k: one, batched=True)


def pure_reflection_defect() -> DefectPair:
    """Hard wall: R = -1, T = 0 (the eta -> infinity limit of the delta impurity)."""
    minus_one = -np.eye(1, dtype=complex)
    zero = np.zeros((1, 1), dtype=complex)
    return DefectPair(1, lambda k: minus_one, lambda k: zero, batched=True)


def defect_unitarity_residual(D: DefectPair, k) -> float | np.ndarray:
    """|T(k)T(k) + R(k)R(-k) - I| + |T(k)R(k) + R(k)T(-k)|, at one momentum
    or at each of a 1-d array."""
    eye = np.eye(D.dim, dtype=complex)
    t_k, t_mk, r_k, r_mk = D.T(k), D.T(-k), D.R(k), D.R(-k)
    return norm_inf(t_k @ t_k + r_k @ r_mk - eye) + norm_inf(t_k @ r_k + r_k @ t_mk)


def hermitian_analyticity_residual(D: DefectPair, k) -> float | np.ndarray:
    """|T(k)^dag - T(k)| + |R(k)^dag - R(-k)|, at one momentum or at each of a 1-d array."""
    t_k = D.T(k)
    return norm_inf(dagger(t_k) - t_k) + norm_inf(dagger(D.R(k)) - D.R(-k))


# A parsed factor is ("S" | "S21", a, b) or ("R" | "T", xi, leg, k), xi None
# for no projection; a word is (lhs factors, rhs factors).
Word = tuple[tuple[tuple, ...], tuple[tuple, ...]]
_PROJECTIONS = {"+": +1, "-": -1, "": None}


def _word(equation: str) -> Word:
    sides = []
    for side in equation.split(" = "):
        factors = []
        for token in side.split():
            head, args = token[:-1].split("(")
            if head in ("S", "S21"):
                factors.append((head, *args.split(",")))
            else:
                factors.append((head[0], _PROJECTIONS[head[1:-1]], int(head[-1]), args))
        sides.append(tuple(factors))
    lhs, rhs = sides
    return lhs, rhs


# One row per relation variant, "lhs = rhs", each side a product taken
# strictly left to right.  A factor is S(a,b) or S21(a,b), the two-leg
# S-matrix or its leg swap at momenta a, b, or R<xi><leg>(k) / T<xi><leg>(k),
# a defect matrix at momentum k on leg 1 or 2 under the Heaviside projection
# xi ("+", "-", or nothing for none).  Momenta are the names bound by _momenta.
RELATIONS: dict[str, Word] = {name: _word(equation) for name, equation in {
    # pure reflection
    "SRSR+": "S(k1,k2) R+2(k1) S(k2,-k1) R+2(k2) = R+2(k2) S(k1,-k2) R+2(k1) S(-k2,-k1)",
    "SRSR-": "S(k1,k2) R-1(k2) S(-k2,k1) R-1(k1) = R-1(k1) S(-k1,k2) R-1(k2) S(-k2,-k1)",
    # pure transmission
    "TST": "T+1(k1) S(k1,k2) T-1(k2) = T-2(k2) S(k1,k2) T+2(k1)",
    "STT-": "S(k1,k2) T-1(k2) T-2(k1) = T-1(k1) T-2(k2) S(k1,k2)",
    "STT+": "S(k1,k2) T+1(k2) T+2(k1) = T+1(k1) T+2(k2) S(k1,k2)",
    # mixed reflection-transmission, as printed
    "TSRS+": "R+1(k1) T-2(k2) = T-2(k2) S(k1,k2) R+2(k1) S(k2,-k1)",
    "TSRS-": "T+1(k1) R-2(k2) = T+1(k1) S(k1,k2) R-1(k2) S(-k2,k1)",
    "SRST+": "R+1(k1) T+2(k2) = S(k1,k2) R+2(k1) S(k2,-k1) T+2(k2)",
    "SRST-": "T-1(k1) R-2(k2) = S(k1,k2) R-1(k2) S(-k2,k1) T-1(k1)",
    "TSR+": "R+1(k1) T-2(k2) S(-k1,k2) = T-2(k2) S(k1,k2) R+2(k1)",
    "TSR-": "T+1(k1) R-2(k2) S(k1,-k2) = T+1(k1) S(k1,k2) R-1(k2)",
    "RST+": "R+2(k1) S(k2,-k1) T+2(k2) = S(k2,k1) R+1(k1) T+2(k2)",
    "RST-": "R-1(k2) S(-k2,k1) T-1(k1) = S(k2,k1) T-1(k1) R-2(k2)",
    # vacuum-matrix consistency, unprojected
    "rr1": "S(k1,k2) R1(k1) S21(k2,-k1) R2(k2) = R2(k2) S(k1,-k2) R1(k1) S21(-k2,-k1)",
    "tt1": "S(k1,k2) T1(k1) S21(k2,k1) T2(k2) = T2(k2) S(k1,k2) T1(k1) S21(k2,k1)",
    "tr1": "S(k1,k2) R1(k1) S21(k2,-k1) T2(k2) = T2(k2) S(k1,k2) R1(k1) S21(k2,-k1)",
    # reduced relations of the doubled model: T is tau, R is rho, s12(u) = s(u, 0)
    "tau-tau": "S(k1-k2,0) T1(k1) S21(k2-k1,0) T2(k2) = T2(k2) S(k1-k2,0) T1(k1) S21(k2-k1,0)",
    "tau-rho": "S(k1-k2,0) T1(k1) S21(k2-k1,0) R2(k2) = R2(k2) S(k1+k2,0) T1(k1) S21(-k1-k2,0)",
    "rho-rho": "S(k1-k2,0) R1(k1) S21(k1+k2,0) R2(k2) = R2(k2) S(k1+k2,0) R1(k1) S21(k1-k2,0)",
}.items()}


def _momenta(k1: np.ndarray, k2: np.ndarray) -> dict[str, np.ndarray]:
    u, v = k1 - k2, k1 + k2
    return {
        "k1": k1, "k2": k2, "-k1": -k1, "-k2": -k2,
        "k1-k2": u, "k2-k1": -u, "k1+k2": v, "-k1-k2": -v, "0": np.zeros_like(k1),
    }


def _times(a: tuple, b: tuple) -> tuple:
    """The product of two block maps (the row sector of each column sector, the block on each)."""
    (row_a, blocks_a), (row_b, blocks_b) = a, b
    return row_a[row_b], blocks_a[row_b] @ blocks_b


def chain_residuals(
    words: list[Word], S: BulkSMatrix, D: DefectPair, k1: np.ndarray, k2: np.ndarray
) -> list[list[float]]:
    """Literal residual norm_inf(lhs - rhs) of each relation word at each
    point (k1, k2) of two 1-d momentum arrays: one list per word.

    S(a,b) and S21(a,b) are S and its leg swap; R and T factors come from D,
    put on their leg with the identity on the other.  Each factor maps each
    column sector to one row sector through one block: on doubled data (S
    and D hand out blocks) a leg has m = 2 sectors, S keeps the sector
    (x1, x2), R on leg j keeps x_j and T on leg j flips it; other data is the
    one-sector case.  Per CHUNK points (a last chunk of fewer than CHUNK // 2
    joins the one before it), all the factors of the words are read with one
    model call per kind: S at the (a, b) of every S and S21 factor, R and T
    at the k of each of theirs where theta(xi k) = 1, zero elsewhere.  Each
    side is the product of its block maps, taken strictly left to right.
    Where both sides end in one row sector the residual takes |lhs - rhs|
    there, else max(|lhs|, |rhs|): the dense one-point chain's value, up to
    the order in which it sums zero terms.
    """
    if D.dim != S.leg_dim:
        raise ValueError(f"defect dim {D.dim} does not match S leg dim {S.leg_dim}")
    m = 2 if S.blocks is not None and D.blocks is not None else 1
    eye = np.eye(D.dim // m, dtype=complex)
    sectors = np.arange(m * m)  # sector (x1, x2) of the two legs is x1 * m + x2
    mirror = sectors.reshape(m, m).T.ravel()  # P S P on (x1, x2) is S on (x2, x1), legs swapped
    factors = list(dict.fromkeys(f for word in words for side in word for f in side))
    kinds = {kind: group for kind in "SRT" if (group := [f for f in factors if f[0][0] == kind])}
    stops = [*range(CHUNK, len(k1) - CHUNK // 2 + 1, CHUNK), len(k1)]  # a short tail joins
    out: list[list[float]] = [[] for _ in words]
    for start, stop in zip([0, *stops], stops):
        at, P = _momenta(k1[start:stop], k2[start:stop]), stop - start
        built = {}  # factor -> its block map on the chunk
        for kind, group in kinds.items():  # S and S21 factors are one S read
            if kind == "S":
                a, b = (np.concatenate([at[f[i]] for f in group]) for i in (1, 2))
                got = S.blocks(a, b) if m == 2 else S.eval(a, b)[None]
            else:  # each array is checked for k = 0 whole, then read only where theta(xi k) = 1
                on = np.concatenate([np.ones(P, bool) if xi is None
                                     else xi * _momentum_array(at[k]) > 0 for _, xi, _, k in group])
                ks = np.concatenate([at[f[3]] for f in group])[on]
                got = np.zeros((m, len(on), *eye.shape), dtype=complex)
                got[:, on] = D.blocks(kind, ks) if m == 2 else getattr(D, kind)(ks)[None]
            for i, f in enumerate(group):
                data = got[:, i * P:(i + 1) * P]  # sectors first
                if kind == "S":
                    built[f] = sectors, data if f[0] == "S" else swap_legs(data[mirror])
                    continue
                leg = f[2]
                x = sectors // m if leg == 1 else sectors % m  # the sector of its leg
                y = m - 1 - x if kind == "T" else x
                stack = kron(data[y], eye) if leg == 1 else kron(eye, data[y])
                built[f] = sectors + (y - x) * (m if leg == 1 else 1), stack
        for word, residuals in zip(words, out):
            (row_l, left), (row_r, right) = (reduce(_times, map(built.get, side)) for side in word)
            gap = np.abs(left - right)
            apart = row_l != row_r  # the dense difference holds lhs and -rhs in two row sectors
            gap[apart] = np.maximum(np.abs(left[apart]), np.abs(right[apart]))
            residuals += gap.max(axis=(0, 2, 3)).tolist()
    return out


def relation_residual(S: BulkSMatrix, D: DefectPair, k1: float, k2: float, variant: str) -> float:
    """Literal residual norm_inf(lhs - rhs) of the RELATIONS row `variant` at (k1, k2).

    Rows are taken verbatim from the source, with no simplification and no
    correction, so a defective input or equation shows as a reproducible
    residual.  rr1/tt1/tr1 are the unprojected relations of the vacuum
    matrices of any Fock representation; the reduced rows take a
    translation-invariant s and the half-line pair D = (rho, tau).

    Two printed mixed rows repeat the same transmission factor on both sides.
    For scalar data and a translation-invariant s, each mixed row reduces on
    its projection to |r*t| times a bulk obstruction (I - s(k1-k2) s(+-(k1+k2))
    or a difference of two s factors), so it holds only for constant s or
    where r*t = 0: a nonconstant bulk allows reflection or transmission, not
    both (Delfino, Mussardo & Simonetti, Phys. Lett. B 328 (1994) 123).
    """
    if variant not in RELATIONS:
        raise ValueError(f"unknown relation variant {variant!r}")
    if np.ndim(k1) or np.ndim(k2):
        raise ValueError(f"a relation residual takes one momentum k1 and one k2, "
                         f"got shapes {np.shape(k1)} and {np.shape(k2)}")
    return chain_residuals([RELATIONS[variant]], S, D, *np.array([[k1], [k2]], dtype=float))[0][0]


def reflection_relation_residual(
    S: BulkSMatrix, D: DefectPair, k1: float, k2: float, xi: int
) -> float:
    """Literal residual of the pure-reflection relation for sign xi."""
    if xi not in (+1, -1):
        raise ValueError("projection sign must be +1 or -1")
    return relation_residual(S, D, k1, k2, "SRSR+" if xi == +1 else "SRSR-")


def family_view(family: tuple[str, ...], name: str) -> Callable[..., float]:
    """relation_residual restricted to the variants of one relation family."""

    def view(S: BulkSMatrix, D: DefectPair, k1: float, k2: float, variant: str) -> float:
        if variant not in family:
            raise ValueError(f"unknown {name} relation variant {variant!r}")
        return relation_residual(S, D, k1, k2, variant)

    view.__name__ = view.__qualname__ = f"{name}_relation_residual"
    view.__doc__ = f"Literal residual of one {name} relation: {', '.join(family)}."
    return view


transmission_relation_residual = family_view(TRANSMISSION_VARIANTS, "transmission")
mixed_relation_residual = family_view(MIXED_VARIANTS, "mixed")  # a no-go: see relation_residual
consistency_relation_residual = family_view(CONSISTENCY_VARIANTS, "consistency")
