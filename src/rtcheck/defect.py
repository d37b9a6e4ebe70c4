"""Reflection/transmission defect data and the impurity consistency residuals.

Every impurity relation is a word in S, R and T: the pure reflection,
pure transmission, mixed, vacuum-matrix (rr1/tt1/tr1) and reduced relations
are rows of one table, RELATIONS, and one evaluator, chain_residual, computes
the literal left-minus-right infinity norm of any row, with no algebraic
simplification, so a defective input (or a defective equation) shows up as a
reproducible residual.  The per-family functions below name the rows they
accept and the data they read.  Heaviside projections are exact: theta(xi*k)
multiplies the whole matrix by 0 or 1, and k = 0 is a domain error rather
than a convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import matmul
from typing import Callable

import numpy as np

from .smatrix import BulkSMatrix
from .tensor import dagger, kron, norm_inf

REFLECTION_VARIANTS = ("SRSR+", "SRSR-")
TRANSMISSION_VARIANTS = ("TST", "STT-", "STT+")
MIXED_VARIANTS = ("TSRS+", "TSRS-", "SRST+", "SRST-", "TSR+", "TSR-", "RST+", "RST-")
CONSISTENCY_VARIANTS = ("rr1", "tt1", "tr1")


class ZeroMomentumError(ValueError):
    """Defect data evaluated at k = 0, where theta(k) is undefined."""


def _check_momentum(k: float) -> None:
    if k == 0:
        raise ZeroMomentumError("defect data is undefined at k = 0")


@dataclass(frozen=True)
class DefectPair:
    """Matrix-valued reflection/transmission evaluators on R \\ {0}."""

    dim: int
    reflection: Callable[[float], np.ndarray]
    transmission: Callable[[float], np.ndarray]

    def R(self, k: float) -> np.ndarray:
        _check_momentum(k)
        return np.asarray(self.reflection(k), dtype=complex)

    def T(self, k: float) -> np.ndarray:
        _check_momentum(k)
        return np.asarray(self.transmission(k), dtype=complex)


@dataclass(frozen=True)
class ProjectedDefect:
    """Heaviside projection of a DefectPair onto one half line."""

    pair: DefectPair
    xi: int  # +1 or -1

    def R(self, k: float) -> np.ndarray:
        _check_momentum(k)
        if self.xi * k > 0:
            return self.pair.R(k)
        return np.zeros((self.pair.dim, self.pair.dim), dtype=complex)

    def T(self, k: float) -> np.ndarray:
        _check_momentum(k)
        if self.xi * k > 0:
            return self.pair.T(k)
        return np.zeros((self.pair.dim, self.pair.dim), dtype=complex)


def project(pair: DefectPair, xi: int) -> ProjectedDefect:
    if xi not in (+1, -1):
        raise ValueError("projection sign must be +1 or -1")
    return ProjectedDefect(pair, xi)


def delta_defect(eta: float) -> DefectPair:
    """Scalar amplitudes of the delta impurity: T = k/(k+i eta), R = -i eta/(k+i eta)."""
    if eta < 0:
        raise ValueError("delta impurity coupling must be >= 0")

    def T(k: float) -> np.ndarray:
        return np.array([[k / (k + 1j * eta)]])

    def R(k: float) -> np.ndarray:
        return np.array([[-1j * eta / (k + 1j * eta)]])

    return DefectPair(1, R, T)


def pure_transmission_defect() -> DefectPair:
    one = np.eye(1, dtype=complex)
    zero = np.zeros((1, 1), dtype=complex)
    return DefectPair(1, lambda k: zero, lambda k: one)


def pure_reflection_defect() -> DefectPair:
    """Hard wall: R = -1, T = 0 (the eta -> infinity limit of the delta impurity)."""
    minus_one = -np.eye(1, dtype=complex)
    zero = np.zeros((1, 1), dtype=complex)
    return DefectPair(1, lambda k: minus_one, lambda k: zero)


def defect_unitarity_residual(D: DefectPair, k: float) -> float:
    """|T(k)T(k) + R(k)R(-k) - I| + |T(k)R(k) + R(k)T(-k)|."""
    eye = np.eye(D.dim, dtype=complex)
    first = D.T(k) @ D.T(k) + D.R(k) @ D.R(-k) - eye
    second = D.T(k) @ D.R(k) + D.R(k) @ D.T(-k)
    return norm_inf(first) + norm_inf(second)


def hermitian_analyticity_residual(D: DefectPair, k: float) -> float:
    """|T(k)^dag - T(k)| + |R(k)^dag - R(-k)|."""
    return norm_inf(dagger(D.T(k)) - D.T(k)) + norm_inf(dagger(D.R(k)) - D.R(-k))


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


def _momenta(k1: float, k2: float) -> dict[str, float]:
    u, v = k1 - k2, k1 + k2
    return {
        "k1": k1, "k2": k2, "-k1": -k1, "-k2": -k2,
        "k1-k2": u, "k2-k1": -u, "k1+k2": v, "-k1-k2": -v, "0": 0.0,
    }


def chain_residual(
    word: Word,
    S: Callable[[float, float], np.ndarray],
    S21: Callable[[float, float], np.ndarray],
    D: DefectPair,
    k1: float,
    k2: float,
) -> float:
    """Literal residual norm_inf(lhs - rhs) of one relation word at (k1, k2).

    S and S21 evaluate the two-leg S-matrix and its leg swap; R and T factors
    come from D, embedded on their leg with the identity on the other.  Each
    distinct factor is built once, and each side is multiplied strictly left
    to right, as a @ b @ c is, with no algebraic simplification.
    """
    _check_momentum(k1)
    _check_momentum(k2)
    at = _momenta(k1, k2)
    eye = np.eye(D.dim, dtype=complex)
    built: dict[tuple, np.ndarray] = {}

    def build(factor: tuple) -> np.ndarray:
        if factor not in built:
            kind = factor[0]
            if kind == "S":
                built[factor] = S(at[factor[1]], at[factor[2]])
            elif kind == "S21":
                built[factor] = S21(at[factor[1]], at[factor[2]])
            else:
                _, xi, leg, k = factor
                data = D if xi is None else project(D, xi)
                m = data.R(at[k]) if kind == "R" else data.T(at[k])
                built[factor] = kron(m, eye) if leg == 1 else kron(eye, m)
        return built[factor]

    lhs, rhs = word
    return norm_inf(reduce(matmul, map(build, lhs)) - reduce(matmul, map(build, rhs)))


def _projected_relation(
    S: BulkSMatrix, D: DefectPair, k1: float, k2: float, variant: str
) -> float:
    if D.dim != S.leg_dim:
        raise ValueError(f"defect dim {D.dim} does not match S leg dim {S.leg_dim}")
    return chain_residual(RELATIONS[variant], S.eval, S.eval_swapped, D, k1, k2)


def reflection_relation_residual(
    S: BulkSMatrix, D: DefectPair, k1: float, k2: float, xi: int
) -> float:
    """Literal residual of the pure-reflection relation for sign xi."""
    if xi not in (+1, -1):
        raise ValueError("projection sign must be +1 or -1")
    return _projected_relation(S, D, k1, k2, "SRSR+" if xi == +1 else "SRSR-")


def transmission_relation_residual(
    S: BulkSMatrix, D: DefectPair, k1: float, k2: float, variant: str
) -> float:
    """Literal residual of one pure-transmission relation: TST, STT- or STT+."""
    if variant not in TRANSMISSION_VARIANTS:
        raise ValueError(f"unknown transmission relation variant {variant!r}")
    return _projected_relation(S, D, k1, k2, variant)


def mixed_relation_residual(
    S: BulkSMatrix, D: DefectPair, k1: float, k2: float, variant: str
) -> float:
    """Literal residual of one mixed reflection-transmission relation.

    The equations are taken verbatim from the source, including the two
    variants whose printed form repeats the same transmission factor on both
    sides; no correction is applied.  For scalar defect data and a
    translation-invariant s, each variant reduces on its projection to
    |r*t| times a bulk obstruction (I - s(k1-k2) s(+-(k1+k2)) or a difference
    of two s factors), so the relations hold only for constant s or where
    r*t = 0: a nonconstant bulk allows reflection or transmission, not both.
    """
    if variant not in MIXED_VARIANTS:
        raise ValueError(f"unknown mixed relation variant {variant!r}")
    return _projected_relation(S, D, k1, k2, variant)


def consistency_relation_residual(
    calS: BulkSMatrix, D: DefectPair, k1: float, k2: float, variant: str
) -> float:
    """Residual of a vacuum-matrix consistency relation: rr1, tt1 or tr1.

    These are the unprojected relations satisfied by the reflection and
    transmission matrices of any Fock representation; S21(a, b) is the
    evaluated matrix with legs exchanged.
    """
    if variant not in CONSISTENCY_VARIANTS:
        raise ValueError(f"unknown consistency relation variant {variant!r}")
    return _projected_relation(calS, D, k1, k2, variant)
