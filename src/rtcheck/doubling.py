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

Both doubled objects hand out these blocks at momentum arrays
(BulkSMatrix.blocks, DefectPair.blocks); the relation words, Yang-Baxter
and unitarity multiply them sector by sector.  The dense matrices, from
the same reads, serve the involution and the engine's leaves: the doubled
pair (batched when the half-line pair is) from one half-line call at k and
one at -k, the doubled S-matrix (batched when the bulk is) from one bulk call
per sector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .defect import DefectPair, family_view
from .smatrix import BulkSMatrix
from .tensor import dagger, norm_inf
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
    matrices exactly.  Its blocks, by row sector (+, -), are the half-line
    data at k and at -k: calR keeps the sector, calT flips it.  calR and
    calT broadcast over (P, 1, 1) momentum arrays when the half-line
    evaluators do, and the pair inherits ``batched`` from the half line.
    """
    N = half.dim
    plus, minus = slice(None, N), slice(N, None)
    tau, rho = half.transmission, half.reflection

    def assemble(upper, lower, flip: bool) -> np.ndarray:
        """The xi = + row block `upper` and the xi = - row block `lower` (one
        evaluator's, so both are stacks or neither), on the block diagonal
        or, with flip, off it."""
        out = np.zeros((*np.shape(upper)[:-2], 2 * N, 2 * N), dtype=complex)
        out[..., plus, minus if flip else plus] = upper
        out[..., minus, plus if flip else minus] = lower
        return out

    def calT(k) -> np.ndarray:
        return assemble(tau(k), tau(-k), flip=True)

    def calR(k) -> np.ndarray:
        return assemble(rho(k), rho(-k), flip=False)

    def blocks(kind: str, k: np.ndarray) -> np.ndarray:
        read = half.R if kind == "R" else half.T
        return np.stack([read(k), read(-k)])

    return DefectPair(2 * N, calR, calT, batched=half.batched, blocks=blocks)


def double_S_bulk(s: BulkSMatrix) -> BulkSMatrix:
    """Promote a translation-invariant bulk S-matrix on C^N to the doubled
    S-matrix on C^{2N}.

    The result is not translation invariant whenever s is nonconstant (the
    cross-side blocks depend on k1 + k2).  Its blocks, which every check
    reads, are s at the bulk arguments of each sector, in SECTORS order; the
    dense matrix of eval and the engine's leaves is assembled from the same reads.
    """
    if not s.translation_invariant:
        raise ValueError("double_S_bulk expects a translation-invariant bulk S-matrix")
    N = s.leg_dim
    n2 = 2 * N
    rows = [slice(0, N), slice(N, n2)]  # the xi = + and xi = - block of a leg
    # ([a1, a2, b1, b2] slices of one sector, its argument signs)
    slices = [((rows[x1], rows[x2]) * 2, signs) for (x1, x2), signs in SECTORS.items()]

    def fn(k1, k2) -> np.ndarray:  # floats, or (P, 1, 1) arrays when s is batched
        lead = np.shape(k1)[:-2]
        out = np.zeros((*lead, n2, n2, n2, n2), dtype=complex)
        for block, (s1, s2) in slices:
            got = s.fn(s1 * k1, s2 * k2)  # a constant s gives one matrix for every point
            out[(..., *block)] = got.reshape(*got.shape[:-2], N, N, N, N)
        return out.reshape(*lead, n2 * n2, n2 * n2)

    def blocks(k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
        return np.stack([s.eval(s1 * k1, s2 * k2) for _, (s1, s2) in slices])

    return BulkSMatrix(n2, fn, False, name=f"doubled[{s.name}]", batched=s.batched, blocks=blocks)


def build_doubled_model(s: BulkSMatrix, half_line: DefectPair) -> DoubledModel:
    return DoubledModel(s, half_line, double_S_bulk(s), double_defect(half_line))


reduced_relation_residual = family_view(REDUCED_VARIANTS, "reduced")


def symmetrized_unitarity_residual(D: DefectPair, k) -> float | np.ndarray:
    """|tau(k)tau(-k) + rho(k)rho(-k) - I| + |tau(k)rho(-k) + rho(k)tau(-k)|
    plus the Hermitian-analyticity defects of tau and rho, D = (rho, tau),
    at one momentum or at each of a 1-d array."""
    eye = np.eye(D.dim, dtype=complex)
    t_k, t_mk, r_k, r_mk = D.T(k), D.T(-k), D.R(k), D.R(-k)
    res = norm_inf(t_k @ t_mk + r_k @ r_mk - eye)
    res += norm_inf(t_k @ r_mk + r_k @ t_mk)
    res += norm_inf(dagger(t_k) - t_mk)
    res += norm_inf(dagger(r_k) - r_mk)
    return res


def involution_matrix(D: DefectPair, k) -> np.ndarray:
    """Block matrix U(k) = [[T(k), R(k)], [R(-k), T(-k)]] on the (k, -k) doublet,
    or the (P, 2 dim, 2 dim) stack of them at a 1-d momentum array."""
    return np.block([[D.T(k), D.R(k)], [D.R(-k), D.T(-k)]])
