"""Momentum-dependent bulk S-matrices and their consistency residuals.

A bulk S-matrix is an evaluator (k1, k2) -> operator on C^d (x) C^d.  The
catalog entries are all checked against the Yang-Baxter equation

    S12(k1,k2) S13(k1,k3) S23(k2,k3) = S23(k2,k3) S13(k1,k3) S12(k1,k2)

and the unitarity relation S12(k1,k2) S21(k2,k1) = I (x) I, where S21 is
obtained by swapping the legs of the evaluated matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .tensor import embed_pair, identity_two_leg, norm_inf, permutation_operator, swap_legs

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
    s12 = embed_pair(S.eval(k1, k2), (1, 2))
    s13 = embed_pair(S.eval(k1, k3), (1, 3))
    s23 = embed_pair(S.eval(k2, k3), (2, 3))
    return norm_inf(s12 @ s13 @ s23 - s23 @ s13 @ s12)


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
    their degenerate configurations.
    """
    if n < 1:
        raise ValueError("need at least one momentum")
    rng = np.random.default_rng(seed)
    values: list[float] = []
    rejected = 0  # rejected draws since the last accepted one
    while len(values) < n:
        if rejected == SAMPLE_TRIES:
            raise ValueError(
                f"could not sample {n} momenta with exclusion radius {exclusion_radius}"
            )
        k = float(rng.uniform(-SAMPLE_SCALE, SAMPLE_SCALE))
        if abs(k) < exclusion_radius or any(
            abs(k - v) < exclusion_radius or abs(k + v) < exclusion_radius for v in values
        ):
            rejected += 1
            continue
        rejected = 0
        values.append(k)
    return tuple(values)
