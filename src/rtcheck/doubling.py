"""Doubled auxiliary space: impurity models on C^{2N} built from bulk data.

The doubled index is alpha = (xi, i) with xi = +/- naming the half line and
i the isotopic index; flattening puts the xi = + block first.  Two
constructions live here:

* the index embedding of the doubled scattering data into half-line data
  (embed_calS / embed_calRT), and
* the promotion of any translation-invariant bulk S-matrix s to an impurity
  model on C^{2N}: the doubled S-matrix is block-diagonal in the (xi1, xi2)
  sectors with arguments s(k1-k2), s(k1+k2), s(-k1-k2), s(k2-k1), and the
  defect generators take the block form t(k) = antidiag(tau(k), tau(-k)),
  r(k) = diag(rho(k), rho(-k)).

The sector order of the doubled S-matrix is (+,+), (+,-), (-,+), (-,-):
same-side scattering far from the impurity keeps the translation-invariant
argument k1 - k2, cross-side scattering picks up k1 + k2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .defect import RELATIONS, DefectPair, chain_residual
from .smatrix import BulkSMatrix
from .tensor import norm_inf, swap_legs

MatrixFn = Callable[[float], np.ndarray]

REDUCED_VARIANTS = ("tau-tau", "tau-rho", "rho-rho")


@dataclass(frozen=True)
class DoubledModel:
    """The canonical impurity model object: doubled S-matrix plus defect data."""

    bulk_dim: int
    calS: BulkSMatrix
    calR: MatrixFn
    calT: MatrixFn
    provenance: dict = field(default_factory=dict)

    @property
    def doubled_dim(self) -> int:
        return 2 * self.bulk_dim

    def defect_pair(self) -> DefectPair:
        return DefectPair(self.doubled_dim, self.calR, self.calT, name="doubled")


def embed_calS(S: BulkSMatrix) -> BulkSMatrix:
    """Doubled S-matrix with crossed half-line labels and isotopic columns.

    Component form: the (eta1,j1)(eta2,j2) column of row (xi1,i1)(xi2,i2) is
    delta(eta2,xi1) delta(eta1,xi2) S[(i1,i2),(j2,j1)], reproducing the
    printed index order of the embedding verbatim.
    """
    N = S.leg_dim

    def fn(k1: float, k2: float) -> np.ndarray:
        s = S.eval(k1, k2).reshape(N, N, N, N)  # s[i1,i2,j1,j2]
        eye2 = np.eye(2)
        # out[x1,i1,x2,i2, e1,j1,e2,j2] = d(e2,x1) d(e1,x2) s[i1,i2,j2,j1]
        out = np.einsum("xf,ye,abdc->xaybecfd", eye2, eye2, s)
        n2 = 2 * N
        return np.ascontiguousarray(out).reshape(n2 * n2, n2 * n2)

    return BulkSMatrix(2 * N, fn, False, S.pole_predicate, name=f"calS[{S.name}]")


def embed_calRT(R: MatrixFn, T: MatrixFn, N: int) -> tuple[MatrixFn, MatrixFn]:
    """Doubled defect matrices: calR block-diagonal, calT block-antidiagonal.

    The xi = - blocks are evaluated at -k, which is what makes the doubled
    pair Hermitian-analytic and unitary whenever the half-line data
    satisfies the symmetrized relations; for the delta impurity this
    reproduces the textbook 2x2 vacuum matrices exactly.
    """

    def calR(k: float) -> np.ndarray:
        rp = np.asarray(R(k), dtype=complex)
        rm = np.asarray(R(-k), dtype=complex)
        out = np.zeros((2 * N, 2 * N), dtype=complex)
        out[:N, :N] = rp
        out[N:, N:] = rm
        return out

    def calT(k: float) -> np.ndarray:
        tp = np.asarray(T(k), dtype=complex)
        tm = np.asarray(T(-k), dtype=complex)
        out = np.zeros((2 * N, 2 * N), dtype=complex)
        out[:N, N:] = tp
        out[N:, :N] = tm
        return out

    return calR, calT


def double_defect(tau: MatrixFn, rho: MatrixFn, N: int) -> tuple[MatrixFn, MatrixFn]:
    """Defect generators of the doubled model: (t, r) from the (tau, rho) ansatz."""
    calR, calT = embed_calRT(rho, tau, N)
    return calT, calR


def double_S_bulk(s: BulkSMatrix, allow_non_invariant: bool = False) -> BulkSMatrix:
    """Promote a bulk S-matrix on C^N to the doubled S-matrix on C^{2N}.

    The construction is stated for translation-invariant s; pass
    ``allow_non_invariant=True`` to apply it to arbitrary two-argument s.
    The result is not translation invariant whenever s is nonconstant (the
    cross-side blocks depend on k1 + k2).
    """
    if not s.translation_invariant and not allow_non_invariant:
        raise ValueError(
            "double_S_bulk expects a translation-invariant bulk S-matrix "
            "(pass allow_non_invariant=True to override)"
        )
    N = s.leg_dim
    n2 = 2 * N
    sector_args = {
        (0, 0): lambda k1, k2: (k1, k2),
        (0, 1): lambda k1, k2: (k1, -k2),
        (1, 0): lambda k1, k2: (-k1, k2),
        (1, 1): lambda k1, k2: (-k1, -k2),
    }

    def fn(k1: float, k2: float) -> np.ndarray:
        out = np.zeros((n2, n2, n2, n2), dtype=complex)  # [a1,a2,b1,b2]
        for (x1, x2), args in sector_args.items():
            blk = s.eval(*args(k1, k2)).reshape(N, N, N, N)
            r1 = slice(x1 * N, x1 * N + N)
            r2 = slice(x2 * N, x2 * N + N)
            out[r1, r2, r1, r2] = blk
        return np.ascontiguousarray(out).reshape(n2 * n2, n2 * n2)

    def pole(k1: float, k2: float) -> bool:
        return any(
            s.pole_predicate(*args(k1, k2)) for args in sector_args.values()
        )

    return BulkSMatrix(n2, fn, False, pole, name=f"doubled[{s.name}]")


def build_doubled_model(
    s: BulkSMatrix,
    tau: MatrixFn,
    rho: MatrixFn,
    allow_non_invariant: bool = False,
) -> DoubledModel:
    calS = double_S_bulk(s, allow_non_invariant=allow_non_invariant)
    calT, calR = double_defect(tau, rho, s.leg_dim)
    return DoubledModel(
        bulk_dim=s.leg_dim,
        calS=calS,
        calR=calR,
        calT=calT,
        provenance={"bulk": s, "tau": tau, "rho": rho},
    )


def half_line_defect(model: DoubledModel) -> DefectPair:
    """The (tau, rho) half-line data the doubled model was assembled from."""
    tau = model.provenance.get("tau")
    rho = model.provenance.get("rho")
    if tau is None or rho is None:
        raise ValueError("model carries no half-line provenance")
    return DefectPair(model.bulk_dim, rho, tau, name="half-line")


def reduced_relation_residual(
    s: BulkSMatrix, tau: MatrixFn, rho: MatrixFn, k1: float, k2: float, variant: str
) -> float:
    """Literal residual of one reduced defect relation of the doubled model.

    s must be translation invariant; s12(u) is evaluated as s(u, 0) and
    s21(u) as its leg swap.
    """
    if variant not in REDUCED_VARIANTS:
        raise ValueError(f"unknown reduced relation variant {variant!r}")
    s21 = lambda a, b: swap_legs(s.eval(a, b))
    pair = DefectPair(s.leg_dim, rho, tau)
    return chain_residual(RELATIONS[variant], s.eval, s21, pair, k1, k2)


def symmetrized_unitarity_residual(
    tau: MatrixFn, rho: MatrixFn, N: int, k: float
) -> float:
    """|tau(k)tau(-k) + rho(k)rho(-k) - I| + |tau(k)rho(-k) + rho(k)tau(-k)|
    plus the Hermitian-analyticity defects of tau and rho."""
    eye = np.eye(N, dtype=complex)
    t_k = np.asarray(tau(k), dtype=complex)
    t_mk = np.asarray(tau(-k), dtype=complex)
    r_k = np.asarray(rho(k), dtype=complex)
    r_mk = np.asarray(rho(-k), dtype=complex)
    res = norm_inf(t_k @ t_mk + r_k @ r_mk - eye)
    res += norm_inf(t_k @ r_mk + r_k @ t_mk)
    res += norm_inf(t_k.conj().T - t_mk)
    res += norm_inf(r_k.conj().T - r_mk)
    return res


def involution_matrix(calR: MatrixFn, calT: MatrixFn, k: float) -> np.ndarray:
    """Block matrix U(k) = [[T(k), R(k)], [R(-k), T(-k)]] on the (k, -k) doublet."""
    if k == 0:
        raise ValueError("involution matrix is undefined at k = 0")
    t_k = np.asarray(calT(k), dtype=complex)
    t_mk = np.asarray(calT(-k), dtype=complex)
    r_k = np.asarray(calR(k), dtype=complex)
    r_mk = np.asarray(calR(-k), dtype=complex)
    return np.block([[t_k, r_k], [r_mk, t_mk]])
