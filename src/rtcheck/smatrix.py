"""Momentum-dependent bulk S-matrices and their consistency residuals.

A bulk S-matrix is an evaluator (k1, k2) -> operator on C^d (x) C^d.  The
catalog entries are all checked against the Yang-Baxter equation

    S12(k1,k2) S13(k1,k3) S23(k2,k3) = S23(k2,k3) S13(k1,k3) S12(k1,k2)

and the unitarity relation S12(k1,k2) S21(k2,k1) = I (x) I, where S21 is
obtained by swapping the legs of the evaluated matrix.

The Yang-Baxter residual applies each two-leg factor to its own two legs
of the three-leg product instead of embedding it as a dense d^3 x d^3
operator: d^7 + d^8 multiply-adds per side instead of 2 d^9, and the
residual is still the largest entry of the full d^3 x d^3 difference.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .tensor import embed_pair  # not called here; bench/tracing.py still spans this name
from .tensor import as_operator, identity_two_leg, leg_dim, norm_inf, permutation_operator
from .tensor import swap_legs

DEFAULT_EXCLUSION_RADIUS = 1e-3
SAMPLE_SCALE = 3.0  # momenta are drawn uniformly from [-SAMPLE_SCALE, SAMPLE_SCALE]
SAMPLE_TRIES = 10_000  # rejected draws in a row before an unsatisfiable exclusion gives up


@dataclass(frozen=True)
class BulkSMatrix:
    leg_dim: int
    fn: Callable[[float, float], np.ndarray]
    translation_invariant: bool
    name: str = ""

    def eval(self, k1: float, k2: float) -> np.ndarray:
        return self.fn(k1, k2)

    def eval_swapped(self, k1: float, k2: float) -> np.ndarray:
        """S21(k1, k2): the evaluated matrix with both legs exchanged."""
        return swap_legs(self.eval(k1, k2))


def identity_S(d: int) -> BulkSMatrix:
    eye = identity_two_leg(d)
    return BulkSMatrix(d, lambda k1, k2: eye, True, name=f"identity({d})")


def permutation_S(d: int) -> BulkSMatrix:
    p = permutation_operator(d)
    return BulkSMatrix(d, lambda k1, k2: p, True, name=f"permutation({d})")


def rational_S(N: int, c: float) -> BulkSMatrix:
    """s(k1 - k2) = (k I + i c P) / (k + i c) on C^N (x) C^N.

    For real c != 0 the denominator never vanishes on the real line, so the
    evaluator is total there; the pole sits at k1 - k2 = -i c.  Like the
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

    return BulkSMatrix(N, fn, True, name=f"rational({N},{c})")


def ybe_residual(S: BulkSMatrix, k1: float, k2: float, k3: float) -> float:
    """norm_inf(S12 S13 S23 - S23 S13 S12), each factor applied to its own legs.

    Each side forms its last two factors as one three-leg operator, with
    axes (a, b, c, a', b', c') for row (a, b, c) and column (a', b', c'),
    then applies its first factor to that operator's rows.
    """
    s12 = as_operator(S.eval(k1, k2))
    d = leg_dim(s12)
    s13 = as_operator(S.eval(k1, k3)).reshape(d, d, d, d)  # axes (a, c, a', c')
    s23 = as_operator(S.eval(k2, k3))
    n = d**3
    # S13 S23, summed over leg 3 between them: tensordot axes (a, c, a', b, b', c')
    lhs = np.tensordot(s13, s23.reshape(d, d, d, d), axes=(3, 1)).transpose(0, 3, 1, 2, 4, 5)
    lhs = s12 @ lhs.reshape(d * d, -1)  # S12 on legs (1, 2)
    # S13 S12, summed over leg 1 between them: tensordot axes (a, c, c', b, a', b')
    rhs = np.tensordot(s13, s12.reshape(d, d, d, d), axes=(2, 0)).transpose(0, 3, 1, 4, 5, 2)
    rhs = np.matmul(s23, rhs.reshape(d, d * d, -1))  # S23 on legs (2, 3), batched over leg 1
    return norm_inf(lhs.reshape(n, n) - rhs.reshape(n, n))


def unitarity_residual(S: BulkSMatrix, k1: float, k2: float) -> float:
    eye = identity_two_leg(S.leg_dim)
    return norm_inf(S.eval(k1, k2) @ S.eval_swapped(k2, k1) - eye)


def shift_invariance_residual(S: BulkSMatrix, k1: float, k2: float, shift: float) -> float:
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
