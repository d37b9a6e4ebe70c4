"""Momentum-dependent bulk S-matrices and their consistency residuals.

A bulk S-matrix is an evaluator (k1, k2) -> operator on C^d (x) C^d, or on
two momentum arrays the stack of operators, one per point.  The
catalog entries are all checked against the Yang-Baxter equation

    S12(k1,k2) S13(k1,k3) S23(k2,k3) = S23(k2,k3) S13(k1,k3) S12(k1,k2)

and the unitarity relation S12(k1,k2) S21(k2,k1) = I (x) I, where S21 is
obtained by swapping the legs of the evaluated matrix.  Each residual takes
one momentum per slot, for a float, or 1-d momentum arrays, for one residual
per point.

Both residuals read S as sector blocks.  An S-matrix with m blocks per leg
(2 for the doubled S-matrix) maps each pair of blocks to itself, so the
three-leg difference is m^3 diagonal blocks of leg dimension n = d / m, and
each factor is applied to its own two legs of each block: m^3 (n^7 + n^8)
multiply-adds per side instead of 2 d^9 for dense d^3 x d^3 products.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .tensor import embed_pair  # not called here; bench/tracing.py still spans this name
from .tensor import identity_two_leg, leg_dim, norm_inf, permutation_operator, swap_legs

DEFAULT_EXCLUSION_RADIUS = 1e-3
SAMPLE_SCALE = 3.0  # momenta are drawn uniformly from [-SAMPLE_SCALE, SAMPLE_SCALE]
SAMPLE_TRIES = 10_000  # rejected draws in a row before an unsatisfiable exclusion gives up
# Points per reader call of the relation words and Yang-Baxter; the words join a last chunk of
# under CHUNK // 2 points to the one before it (so at most 35).  Relations benchmark (rational
# N = 3, 200 points per check, 2-core x86-64): 24 to 64 equally fast, 16 10% and 8 35% slower;
# peak RSS +<1% at 24, +7.5% at 64, and +1.5% (40.9 -> 41.5 MB) from one read per kind.
CHUNK = 24
# Entries per product slice (128 KiB of complex): doubled N = 3 Yang-Baxter took 7 ms
# for 50 triples in slices of one triple (5,832 entries), 11 ms in slices of two.
SLICE = 1 << 13


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
    batched: bool = False  # fn broadcasts over (P, 1, 1) momentum arrays, as the catalog's do
    blocks: Callable | None = None  # a doubled matrix's blocks: see doubling.double_S_bulk

    @property
    def sectors(self) -> int:
        """Blocks per leg; each evaluated matrix maps every pair of them to itself."""
        return 1 if self.blocks is None else 2

    def eval(self, k1, k2) -> np.ndarray:
        if isinstance(k1, (int, float)) or np.ndim(k1) == 0:  # floats skip np.ndim
            return self.fn(k1, k2)
        return read_points(self.fn, self.batched, (self.leg_dim**2,) * 2, k1, k2)

    def sector_blocks(self, k1, k2) -> np.ndarray:
        """The (m*m, P, n*n, n*n) blocks on the sectors (x1, x2), at x1 * m + x2,
        m = sectors, n = leg_dim / m: blocks for a doubled matrix, else eval[None]."""
        return self.eval(k1, k2)[None] if self.blocks is None else self.blocks(k1, k2)


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


def _per_point(residual: Callable, step: int, *ks) -> np.ndarray | float:
    """residual at each point of the arrays ks (1-d momenta, or stacks over points),
    step points at a time, so memory stays flat; one momentum per slot gives a float."""
    arrays = [np.atleast_1d(k) for k in ks]
    out = np.concatenate([residual(*(k[i:i + step] for k in arrays))
                          for i in range(0, len(arrays[0]), step)])
    return out if np.ndim(ks[0]) else float(out[0])


def _ybe(m: int, s12: np.ndarray, s13: np.ndarray, s23: np.ndarray) -> np.ndarray:
    """The residual at each point of the (P, m*m, d*d, d*d) factor blocks."""
    P, d = len(s12), leg_dim(s12)
    # leading axes (point, s1, s2, s3), each factor of size 1 on the sector it does not touch
    s12 = s12.reshape(P, m, m, 1, d * d, d * d)
    s13 = s13.reshape(P, m, 1, m, d, d, d, d)  # axes (a, c, a', c')
    s23 = s23.reshape(P, 1, m, m, d, d, d, d)  # axes (b, c, b', c')
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
    return np.abs(lhs.reshape(P, -1) - rhs.reshape(P, -1)).max(axis=1)


def ybe_residual(S: BulkSMatrix, k1, k2, k3) -> np.ndarray | float:
    """norm_inf(S12 S13 S23 - S23 S13 S12), taken block by block in the sectors.

    Each factor maps every sector to itself, so each side is block-diagonal
    in the sectors (s1, s2, s3) of the three legs, with blocks that are
    products of the factors' blocks (s1, s2), (s1, s3), (s2, s3).  Each side
    forms its last two factors as one three-leg operator, axes (a, b, c, a',
    b', c'), then applies its first factor to that operator's rows, for all
    sector triples at once, SLICE entries at a time.  Each factor's blocks
    are read once per CHUNK points, or per slice if that is longer.
    """
    m = S.sectors
    step = max(1, SLICE // (m**3 * (S.leg_dim // m) ** 6))

    def chunk(k1: np.ndarray, k2: np.ndarray, k3: np.ndarray) -> np.ndarray:
        blocks = [np.ascontiguousarray(S.sector_blocks(a, b).swapaxes(0, 1))
                  for a, b in ((k1, k2), (k1, k3), (k2, k3))]
        return _per_point(lambda *f: _ybe(m, *f), step, *blocks)

    return _per_point(chunk, max(CHUNK, step), k1, k2, k3)


def unitarity_residual(S: BulkSMatrix, k1, k2) -> np.ndarray | float:
    """norm_inf(S12(k1, k2) S21(k2, k1) - I), sector by sector: S21 on sector
    (x1, x2) is S's block on the mirrored sector (x2, x1), legs swapped."""
    m = S.sectors
    mirror = np.arange(m * m).reshape(m, m).T.ravel()
    eye = identity_two_leg(S.leg_dim // m)

    def residual(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        s21 = swap_legs(S.sector_blocks(b, a)[mirror])
        return norm_inf(S.sector_blocks(a, b) @ s21 - eye).max(axis=0)

    return _per_point(residual, max(1, SLICE // (m * m * (S.leg_dim // m) ** 4)), k1, k2)


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
        # n draws per call: the values and their order are those of n one-draw calls
        for k in rng.uniform(-SAMPLE_SCALE, SAMPLE_SCALE, n).tolist():
            if rejected == SAMPLE_TRIES:
                raise ValueError(
                    f"could not sample {n} momenta with exclusion radius {exclusion_radius}"
                )
            m = abs(k)
            i = bisect.bisect_left(magnitudes, m)
            neighbours = magnitudes[max(i - 1, 0):i + 1]
            if m < exclusion_radius or any(abs(m - v) < exclusion_radius for v in neighbours):
                rejected += 1
                continue
            rejected = 0
            values.append(k)
            magnitudes.insert(i, m)
            if len(values) == n:
                break
    return tuple(values)
