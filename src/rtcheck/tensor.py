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
    """Leg dimension d of a two-leg operator (d*d x d*d matrix), or of each in a stack."""
    n = x.shape[-1]
    d = math.isqrt(n)
    if d * d != n:
        raise ValueError(f"matrix of size {n} is not a two-leg operator")
    return d


def kron(a, b) -> np.ndarray:
    """Kronecker product of two d x d matrices.  Either may be a stack
    (..., d, d), which gives the (..., d*d, d*d) stack of the products."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    d = a.shape[-1] if a.ndim >= 2 and b.ndim >= 2 else 0
    if d < 1 or a.shape[-2:] != (d, d) or b.shape[-2:] != (d, d):
        raise ValueError(f"expected d x d matrices or stacks of them, got {a.shape} and {b.shape}")
    out = a[..., :, None, :, None] * b[..., None, :, None, :]  # the products np.kron forms
    return out.reshape(*out.shape[:-4], d * d, d * d)


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
    """Conjugate by the permutation operator: P X P, or P X P for each X of
    a stack (..., d*d, d*d)."""
    x = as_operator(x) if np.ndim(x) == 2 else np.asarray(x, dtype=complex)
    d = leg_dim(x)
    t = x.reshape(*x.shape[:-2], d, d, d, d)
    return np.ascontiguousarray(np.swapaxes(np.swapaxes(t, -4, -3), -2, -1)).reshape(x.shape)


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
    """Conjugate transpose of a matrix, or of each matrix of a stack (..., n, n)."""
    return np.conjugate(np.swapaxes(np.asarray(x, dtype=complex), -2, -1))


def norm_inf(x) -> float | np.ndarray:
    """Largest absolute entry (elementwise, not the operator norm) of a
    matrix, as a float, or of each matrix of a stack (..., n, n)."""
    a = np.abs(np.asarray(x, dtype=complex))
    if a.ndim <= 2:
        return float(a.max()) if a.size else 0.0
    return a.max(axis=(-2, -1))
