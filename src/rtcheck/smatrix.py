"""Momentum-dependent bulk S-matrices and their consistency residuals.

A bulk S-matrix is an evaluator (k1, k2) -> operator on C^d (x) C^d, or on
two momentum arrays the stack of operators, one per point.  The
catalog entries are all checked against the Yang-Baxter equation

    S12(k1,k2) S13(k1,k3) S23(k2,k3) = S23(k2,k3) S13(k1,k3) S12(k1,k2)

and the unitarity relation S12(k1,k2) S21(k2,k1) = I (x) I, where S21 is
obtained by swapping the legs of the evaluated matrix.  Each residual takes
one momentum per slot, for a float, or 1-d momentum arrays, for one residual
per point.

The Yang-Baxter residual works on sectors.  An S-matrix with m blocks per
leg (2 for the doubled S-matrix) maps each pair of blocks to itself, so the
three-leg difference is m^3 diagonal blocks of leg dimension n = d / m, and
each factor is applied to its own two legs of each block: m^3 (n^7 + n^8)
multiply-adds per side instead of 2 d^9 for dense d^3 x d^3 products.  On
the doubled rational N = 3 model that took ybe(doubled) from 39% of the
default check time to 8% (156 to 20 ms for 50 triples).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .tensor import embed_pair  # not called here; bench/tracing.py still spans this name
from .tensor import identity_two_leg, leg_dim, norm_inf, permutation_operator
from .tensor import swap_legs

DEFAULT_EXCLUSION_RADIUS = 1e-3
SAMPLE_SCALE = 3.0  # momenta are drawn uniformly from [-SAMPLE_SCALE, SAMPLE_SCALE]
SAMPLE_TRIES = 10_000  # rejected draws in a row before an unsatisfiable exclusion gives up


def read_points(fn: Callable, batched: bool, shape: tuple[int, ...], *ks: np.ndarray) -> np.ndarray:
    """fn at the points of the 1-d momentum arrays ks, as one (P, *shape)
    stack: one call on (P, 1, 1) arrays if fn is batched (a constant result
    is broadcast, read-only), else one call per point, with Python floats."""
    if batched:
        out = np.asarray(fn(*(k[:, None, None] for k in ks)), dtype=complex)
        full = (len(ks[0]), *shape)
        return out if out.shape == full else np.broadcast_to(out, full)
    points = [fn(*pt) for pt in zip(*(k.tolist() for k in ks))]
    return np.array(points, dtype=complex).reshape(len(ks[0]), *shape)


@dataclass(frozen=True)
class BulkSMatrix:
    """A two-leg S-matrix evaluator.  eval takes one momentum per slot, or
    two 1-d arrays of P momenta for a (P, d*d, d*d) stack."""

    leg_dim: int
    fn: Callable[[float, float], np.ndarray]
    translation_invariant: bool
    name: str = ""
    sectors: int = 1  # blocks per leg; each evaluated matrix maps every pair of them to itself
    batched: bool = False  # fn broadcasts over (P, 1, 1) momentum arrays, as the catalog's do
    blocks: Callable | None = None  # a doubled matrix's blocks: see doubling.double_S_bulk

    def eval(self, k1, k2) -> np.ndarray:
        if isinstance(k1, (int, float)) or np.ndim(k1) == 0:  # floats skip np.ndim
            return self.fn(k1, k2)
        return read_points(self.fn, self.batched, (self.leg_dim**2,) * 2, k1, k2)

    def eval_swapped(self, k1, k2) -> np.ndarray:
        """S21(k1, k2): the evaluated matrix with both legs exchanged."""
        return swap_legs(self.eval(k1, k2))


def identity_S(d: int) -> BulkSMatrix:
    eye = identity_two_leg(d)
    return BulkSMatrix(d, lambda k1, k2: eye, True, name=f"identity({d})", batched=True)


def permutation_S(d: int) -> BulkSMatrix:
    p = permutation_operator(d)
    return BulkSMatrix(d, lambda k1, k2: p, True, name=f"permutation({d})", batched=True)


def rational_S(N: int, c: float) -> BulkSMatrix:
    """s(k1 - k2) = (k I + i c P) / (k + i c) on C^N (x) C^N.

    For real c != 0 the denominator never vanishes on the real line, so the
    evaluator is total there; the pole sits at k1 - k2 = -i c.  It
    broadcasts over momentum arrays with the bits of one-point calls.  Like the
    constant catalog entries, its Yang-Baxter and unitarity residuals are
    rounding-level (~1e-15), far below the default 1e-9 tolerance.
    """
    if c == 0:
        raise ValueError("rational_S requires c != 0")
    p = permutation_operator(N)
    eye = identity_two_leg(N)

    def fn(k1: float, k2: float) -> np.ndarray:
        k = k1 - k2
        return (k * eye + 1j * c * p) / (k + 1j * c)

    return BulkSMatrix(N, fn, True, name=f"rational({N},{c})", batched=True)


def sector_blocks(x: np.ndarray, sectors: int) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal blocks (..., m, m, n*n, n*n) of a stack x (..., d*d, d*d) of
    two-leg operators whose legs have m = sectors blocks of size n, and each
    operator's largest entry outside them (...).  Block (s1, s2) is the
    operator on sector (s1, s2), the pair of leg blocks that it maps to itself."""
    m, lead = sectors, x.shape[:-2]
    n = leg_dim(x) // m
    # axes (operator, row s1, s2, column s1', s2', row i1, i2, column j1, j2)
    u = x.reshape(-1, m, n, m, n, m, n, m, n).transpose(0, 1, 3, 5, 7, 2, 4, 6, 8)
    u = u.reshape(-1, m**4, n * n, n * n)
    sizes = np.abs(u).max(axis=(2, 3))
    sizes[:, ::m * m + 1] = 0.0  # row sectors equal to column sectors: the blocks
    return u[:, ::m * m + 1].reshape(*lead, m, m, n * n, n * n), sizes.max(axis=1).reshape(lead)


def _per_point(residual: Callable, entries: int, *ks) -> np.ndarray | float:
    """residual at each point of the 1-d momentum arrays ks, over slices of
    about 2**14 / entries points (entries: one point's operator size), so that
    memory stays flat in the points; one momentum per slot gives one float."""
    arrays = [np.atleast_1d(np.asarray(k, dtype=float)) for k in ks]
    step = max(1, (1 << 14) // entries)
    out = np.concatenate([residual(*(k[i:i + step] for k in arrays))
                          for i in range(0, len(arrays[0]), step)])
    return out if np.ndim(ks[0]) else float(out[0])


def _ybe(S: BulkSMatrix, k1: np.ndarray, k2: np.ndarray, k3: np.ndarray) -> np.ndarray:
    m, P, d = S.sectors, len(k1), S.leg_dim // S.sectors
    factors = np.array([S.eval(a, b) for a, b in ((k1, k2), (k1, k3), (k2, k3))], dtype=complex)
    blocks, off_sector = sector_blocks(factors, m)
    # leading axes (point, s1, s2, s3), each factor of size 1 on the sector it does not touch
    s12 = blocks[0].reshape(P, m, m, 1, d * d, d * d)
    s13 = blocks[1].reshape(P, m, 1, m, d, d, d, d)  # axes (a, c, a', c')
    s23 = blocks[2].reshape(P, 1, m, m, d, d, d, d)  # axes (b, c, b', c')
    # S13 S23, summed over leg 3 between them: axes (a, c, a', b, b', c')
    lhs = (s13.reshape(P, m, 1, m, -1, d)
           @ s23.transpose(0, 1, 2, 3, 5, 4, 6, 7).reshape(P, 1, m, m, d, -1))
    lhs = lhs.reshape(P, m, m, m, d, d, d, d, d, d).transpose(0, 1, 2, 3, 4, 7, 5, 6, 8, 9)
    lhs = s12 @ lhs.reshape(P, m, m, m, d * d, -1)  # S12 on legs (1, 2)
    # S13 S12, summed over leg 1 between them: axes (a, c, c', b, a', b')
    rhs = (s13.transpose(0, 1, 2, 3, 4, 5, 7, 6).reshape(P, m, 1, m, -1, d)
           @ s12.reshape(P, m, m, 1, d, -1))
    rhs = rhs.reshape(P, m, m, m, d, d, d, d, d, d).transpose(0, 1, 2, 3, 4, 7, 5, 8, 9, 6)
    # S23 on legs (2, 3), batched over leg 1
    rhs = s23.reshape(P, 1, m, m, 1, d * d, d * d) @ rhs.reshape(P, m, m, m, d, d * d, -1)
    diff = np.abs(lhs.reshape(P, -1) - rhs.reshape(P, -1)).max(axis=1)
    return np.maximum(diff, off_sector.max(axis=0))  # a nan in either stays


def ybe_residual(S: BulkSMatrix, k1, k2, k3) -> np.ndarray | float:
    """norm_inf(S12 S13 S23 - S23 S13 S12), taken block by block in the sectors.

    Each factor maps every sector to itself, so each side is block-diagonal
    in the sectors (s1, s2, s3) of the three legs, with blocks that are
    products of the factors' blocks (s1, s2), (s1, s3), (s2, s3).  A block
    written into the wrong sector shows as an off-sector entry, which counts
    in the residual.  Each side forms its last two factors as one three-leg
    operator, axes (a, b, c, a', b', c'), then applies its first factor to
    that operator's rows, for all sector triples at once.
    """
    return _per_point(partial(_ybe, S), S.leg_dim**6, k1, k2, k3)


def unitarity_residual(S: BulkSMatrix, k1, k2) -> np.ndarray | float:
    eye = identity_two_leg(S.leg_dim)
    return _per_point(lambda a, b: norm_inf(S.eval(a, b) @ S.eval_swapped(b, a) - eye),
                      S.leg_dim**4, k1, k2)


def shift_invariance_residual(S: BulkSMatrix, k1, k2, shift: float) -> np.ndarray | float:
    return norm_inf(S.eval(k1, k2) - S.eval(k1 + shift, k2 + shift))


def sample_momenta(
    n: int,
    exclusion_radius: float = DEFAULT_EXCLUSION_RADIUS,
    seed: int = 0,
) -> tuple[float, ...]:
    """Deterministic momenta with |k| and all pairwise |k_i -+ k_j| >= radius.

    The exclusions keep Heaviside projections and delta supports away from
    their degenerate configurations.  min(|k - v|, |k + v|) rounds exactly
    like ||k| - |v||, which grows with the distance between |k| and |v|, so
    each draw is checked only against the accepted |v| on either side of
    |k| in sorted order.
    """
    if n < 1:
        raise ValueError("need at least one momentum")
    rng = np.random.default_rng(seed)
    values: list[float] = []
    magnitudes: list[float] = []  # |v| of the accepted momenta, sorted
    rejected = 0  # rejected draws since the last accepted one
    while len(values) < n:
        if rejected == SAMPLE_TRIES:
            raise ValueError(
                f"could not sample {n} momenta with exclusion radius {exclusion_radius}"
            )
        k = float(rng.uniform(-SAMPLE_SCALE, SAMPLE_SCALE))
        m = abs(k)
        i = bisect.bisect_left(magnitudes, m)
        neighbours = magnitudes[max(i - 1, 0):i + 1]
        if m < exclusion_radius or any(abs(m - v) < exclusion_radius for v in neighbours):
            rejected += 1
            continue
        rejected = 0
        values.append(k)
        magnitudes.insert(i, m)
    return tuple(values)
