"""Dense complex linear algebra on one, two and three auxiliary legs.

Index flattening is row-major with leg 1 slowest: a two-leg operator X
stores X[(i1, i2), (j1, j2)] at row i1*d + i2, column j1*d + j2.  The same
rule extends to three legs.  All operators are complex128 ndarrays.
"""

from __future__ import annotations

import math

import numpy as np


def as_operator(x) -> np.ndarray:
    """Validate a square complex matrix of dim >= 1.  Non-finite entries
    pass through, so they reach the residual and fail its check."""
    a = np.asarray(x, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def leg_dim(x: np.ndarray) -> int:
    """Leg dimension d of a two-leg operator (d*d x d*d matrix)."""
    n = x.shape[0]
    d = math.isqrt(n)
    if d * d != n:
        raise ValueError(f"matrix of size {n} is not a two-leg operator")
    return d


def kron(a, b) -> np.ndarray:
    a = as_operator(a)
    b = as_operator(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return np.kron(a, b)


def identity_two_leg(d: int) -> np.ndarray:
    return np.eye(d * d, dtype=complex)


def permutation_operator(d: int) -> np.ndarray:
    """P with P[(i1,i2),(j1,j2)] = delta(i1,j2) delta(i2,j1)."""
    if d < 1:
        raise ValueError("leg dimension must be >= 1")
    p = np.zeros((d * d, d * d), dtype=complex)
    for i1 in range(d):
        for i2 in range(d):
            p[i1 * d + i2, i2 * d + i1] = 1.0
    return p


def swap_legs(x) -> np.ndarray:
    """Conjugate by the permutation operator: P X P."""
    x = as_operator(x)
    d = leg_dim(x)
    t = x.reshape(d, d, d, d)
    return np.ascontiguousarray(t.transpose(1, 0, 3, 2)).reshape(d * d, d * d)


# einsum subscripts (x[a,b,c,d], eye[e,f]) -> three-leg operator, per leg pair
EMBED_SUBSCRIPTS = {(1, 2): "abcd,ef->abecdf", (1, 3): "abcd,ef->aebcfd", (2, 3): "abcd,ef->eabfcd"}


def embed_pair(x, legs: tuple[int, int]) -> np.ndarray:
    """Embed a two-leg operator into three legs, identity on the leg not named.

    ``legs`` is an increasing pair from {1,2,3}: (1,2), (1,3) or (2,3).  Only
    the tests call it: the dense products of these embeddings are the
    reference for smatrix.ybe_residual, which applies each factor to its
    own legs.
    """
    x = as_operator(x)
    subscripts = EMBED_SUBSCRIPTS.get(tuple(legs))
    if subscripts is None:
        raise ValueError(f"invalid leg pair {legs}")
    d = leg_dim(x)
    full = np.einsum(subscripts, x.reshape(d, d, d, d), np.eye(d, dtype=complex))
    return np.ascontiguousarray(full).reshape(d**3, d**3)


def dagger(x) -> np.ndarray:
    return np.conjugate(np.asarray(x, dtype=complex)).T


def norm_inf(x) -> float:
    """Largest absolute entry (elementwise, not the operator norm)."""
    a = np.asarray(x, dtype=complex)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))
