"""Doubled auxiliary space: impurity models on C^{2N} built from bulk data.

The doubled index is alpha = (xi, i) with xi = +/- naming the half line and
i the isotopic index; flattening puts the xi = + block first.  Any
translation-invariant bulk S-matrix s on C^N is promoted to an impurity model
on C^{2N} by the tau/rho block ansatz of Mintchev, Ragoucy & Sorba: the
doubled S-matrix is block-diagonal in the (xi1, xi2) sectors with arguments
s(k1-k2), s(k1+k2), s(-k1-k2), s(k2-k1), and the half-line DefectPair (rho, tau)
maps to the doubled DefectPair (calR, calT) of block form
calT(k) = antidiag(tau(k), tau(-k)), calR(k) = diag(rho(k), rho(-k)).

The sector order of the doubled S-matrix is (+,+), (+,-), (-,+), (-,-):
same-side scattering far from the impurity keeps the translation-invariant
argument k1 - k2, cross-side scattering picks up k1 + k2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .defect import RELATIONS, DefectPair, chain_residual
from .smatrix import BulkSMatrix
from .tensor import norm_inf
from .tensor import swap_legs  # not called here; bench/tracing.py still spans this name

REDUCED_VARIANTS = ("tau-tau", "tau-rho", "rho-rho")


@dataclass(frozen=True)
class DoubledModel:
    """The canonical impurity model object: the bulk s, the half-line pair
    (rho, tau), and the doubled S-matrix and pair (calR, calT) built from them."""

    bulk: BulkSMatrix
    half_line: DefectPair
    calS: BulkSMatrix
    defect: DefectPair  # dim 2N

    @property
    def bulk_dim(self) -> int:
        return self.bulk.leg_dim

    @property
    def doubled_dim(self) -> int:
        return 2 * self.bulk_dim


# (sign of k1, sign of k2) in the bulk arguments of each (xi1, xi2) sector
SECTORS = {(0, 0): (1, 1), (0, 1): (1, -1), (1, 0): (-1, 1), (1, 1): (-1, -1)}


def double_defect(half: DefectPair) -> DefectPair:
    """The doubled pair (calR, calT) on C^{2N} from the half-line pair (rho, tau).

    calT is block-antidiagonal and calR block-diagonal, with the xi = -
    blocks evaluated at -k.  That makes the doubled pair Hermitian-analytic
    and unitary whenever the half-line data satisfies the symmetrized
    relations; for the delta impurity it reproduces the textbook 2x2 vacuum
    matrices exactly.
    """
    N = half.dim
    plus, minus = slice(None, N), slice(N, None)
    tau, rho = half.transmission, half.reflection

    def calT(k: float) -> np.ndarray:
        out = np.zeros((2 * N, 2 * N), dtype=complex)
        out[plus, minus] = tau(k)
        out[minus, plus] = tau(-k)
        return out

    def calR(k: float) -> np.ndarray:
        out = np.zeros((2 * N, 2 * N), dtype=complex)
        out[plus, plus] = rho(k)
        out[minus, minus] = rho(-k)
        return out

    return DefectPair(2 * N, calR, calT)


def double_S_bulk(s: BulkSMatrix) -> BulkSMatrix:
    """Promote a translation-invariant bulk S-matrix on C^N to the doubled
    S-matrix on C^{2N}.

    The result is not translation invariant whenever s is nonconstant (the
    cross-side blocks depend on k1 + k2).
    """
    if not s.translation_invariant:
        raise ValueError("double_S_bulk expects a translation-invariant bulk S-matrix")
    N = s.leg_dim
    n2 = 2 * N
    blocks = []  # ([a1, a2, b1, b2] slices of one sector, its argument signs)
    for (x1, x2), signs in SECTORS.items():
        r1, r2 = slice(x1 * N, x1 * N + N), slice(x2 * N, x2 * N + N)
        blocks.append(((r1, r2, r1, r2), signs))

    def fn(k1: float, k2: float) -> np.ndarray:
        out = np.zeros((n2, n2, n2, n2), dtype=complex)
        for block, (s1, s2) in blocks:
            out[block] = s.eval(s1 * k1, s2 * k2).reshape(N, N, N, N)
        return out.reshape(n2 * n2, n2 * n2)

    return BulkSMatrix(n2, fn, False, name=f"doubled[{s.name}]")


def build_doubled_model(s: BulkSMatrix, half_line: DefectPair) -> DoubledModel:
    return DoubledModel(s, half_line, double_S_bulk(s), double_defect(half_line))


def reduced_relation_residual(
    s: BulkSMatrix, D: DefectPair, k1: float, k2: float, variant: str
) -> float:
    """Literal residual of one reduced defect relation of the doubled model.

    s must be translation invariant and D is the half-line pair (rho, tau);
    s12(u) is evaluated as s(u, 0) and s21(u) as its leg swap.
    """
    if variant not in REDUCED_VARIANTS:
        raise ValueError(f"unknown reduced relation variant {variant!r}")
    return chain_residual(RELATIONS[variant], s.eval, s.eval_swapped, D, k1, k2)


def symmetrized_unitarity_residual(D: DefectPair, k: float) -> float:
    """|tau(k)tau(-k) + rho(k)rho(-k) - I| + |tau(k)rho(-k) + rho(k)tau(-k)|
    plus the Hermitian-analyticity defects of tau and rho, D = (rho, tau)."""
    eye = np.eye(D.dim, dtype=complex)
    t_k, t_mk, r_k, r_mk = D.T(k), D.T(-k), D.R(k), D.R(-k)
    res = norm_inf(t_k @ t_mk + r_k @ r_mk - eye)
    res += norm_inf(t_k @ r_mk + r_k @ t_mk)
    res += norm_inf(t_k.conj().T - t_mk)
    res += norm_inf(r_k.conj().T - r_mk)
    return res


def involution_matrix(D: DefectPair, k: float) -> np.ndarray:
    """Block matrix U(k) = [[T(k), R(k)], [R(-k), T(-k)]] on the (k, -k) doublet."""
    if k == 0:
        raise ValueError("involution matrix is undefined at k = 0")
    return np.block([[D.T(k), D.R(k)], [D.R(-k), D.T(-k)]])
