"""The exactly solvable delta-impurity model on the line.

Scattering eigenfunctions, the matching condition at the origin, and the
transition amplitudes they generate; this is the analytic cross-check for
the algebraic machinery.  Only eta >= 0 is supported (no bound state).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .defect import DefectPair, delta_defect
from .doubling import DoubledModel, build_doubled_model
from .fock import TWO_PI, validate_orderings
from .smatrix import identity_S


@dataclass(frozen=True)
class DeltaModel:
    eta: float

    def __post_init__(self):
        if self.eta < 0:
            raise ValueError("only eta >= 0 is supported")

    def T(self, k: float) -> complex:
        if k == 0:
            raise ValueError("amplitude undefined at k = 0")
        return k / (k + 1j * self.eta)

    def R(self, k: float) -> complex:
        if k == 0:
            raise ValueError("amplitude undefined at k = 0")
        return -1j * self.eta / (k + 1j * self.eta)

    def defect_pair(self) -> DefectPair:
        return delta_defect(self.eta)

    def doubled(self) -> DoubledModel:
        """The impurity algebra data: free bulk, doubled delta amplitudes."""
        return build_doubled_model(identity_S(1), delta_defect(self.eta))


def _theta(x: float) -> float:
    if x == 0:
        raise ValueError("Heaviside undefined at 0")
    return 1.0 if x > 0 else 0.0


def psi(model: DeltaModel, k: float, branch: str, x: float) -> complex:
    """Scattering eigenfunction psi_k^branch(x); branch '+' lives on k < 0."""
    if k == 0:
        raise ValueError("eigenfunctions are labeled by k != 0")
    s = +1 if branch == "+" else -1
    if branch not in ("+", "-"):
        raise ValueError("branch must be '+' or '-'")
    if _theta(-s * k) == 0.0:
        return 0.0
    T = model.T(-s * k)
    R = model.R(-s * k)
    if x == 0:
        # both one-sided limits equal T(-sk) = 1 + R(-sk)
        return complex(T)
    if s * x < 0:
        return T * np.exp(1j * k * x)
    return np.exp(1j * k * x) + R * np.exp(-1j * k * x)


def psi_prime(model: DeltaModel, k: float, branch: str, x: float) -> complex:
    """Analytic derivative of psi; at x = 0 the one-sided limits differ, use
    x -> 0+ / 0- explicitly."""
    if k == 0:
        raise ValueError("eigenfunctions are labeled by k != 0")
    s = +1 if branch == "+" else -1
    if branch not in ("+", "-"):
        raise ValueError("branch must be '+' or '-'")
    if x == 0:
        raise ValueError("derivative at 0 is one-sided; evaluate at ±0 offsets")
    if _theta(-s * k) == 0.0:
        return 0.0
    T = model.T(-s * k)
    R = model.R(-s * k)
    if s * x < 0:
        return 1j * k * T * np.exp(1j * k * x)
    return 1j * k * np.exp(1j * k * x) - 1j * k * R * np.exp(-1j * k * x)


def _one_sided_derivatives(model, k, branch):
    s = +1 if branch == "+" else -1
    if _theta(-s * k) == 0.0:
        return 0.0, 0.0
    T = model.T(-s * k)
    R = model.R(-s * k)
    d_trans = 1j * k * T  # limit from the transmitted side
    d_inc = 1j * k * (1.0 - R)  # limit from the incident side
    if s > 0:  # branch '+': incident side is x > 0
        return d_inc, d_trans
    return d_trans, d_inc


def boundary_condition_residual(model: DeltaModel, k: float, branch: str) -> float:
    """| [psi'(0+) - psi'(0-)] - 2 eta psi(0) | from analytic one-sided limits."""
    if k == 0:
        raise ValueError("eigenfunctions are labeled by k != 0")
    d_plus, d_minus = _one_sided_derivatives(model, k, branch)
    value = psi(model, k, branch, 0.0)
    return abs((d_plus - d_minus) - 2.0 * model.eta * value)


def plane_wave_bc_residual(model: DeltaModel, k: float) -> float:
    """Negative control: e^{ikx} has a continuous derivative, so the residual
    is exactly 2 eta."""
    if k == 0:
        raise ValueError("plane waves are labeled by k != 0")
    jump = 1j * k - 1j * k  # both one-sided derivatives are i k e^{ik 0}
    return abs(jump - 2.0 * model.eta * 1.0)


def schrodinger_residual(
    model: DeltaModel, k: float, branch: str, h: float = 1e-3, extent: float = 5.0
) -> float:
    """max over a grid avoiding 0 of | -1/2 psi''_FD - (k^2/2) psi |."""
    if h <= 0 or extent <= 3 * h:
        raise ValueError("need 0 < h and extent > 3h")
    xs = np.arange(2 * h, extent, h)
    grid = np.concatenate([-xs[::-1], xs])  # stays away from the kink at 0
    vals = np.array([psi(model, k, branch, x) for x in grid])
    e = 0.5 * k * k
    worst = 0.0
    for i in range(1, len(grid) - 1):
        if abs(grid[i + 1] - grid[i] - h) > 1e-12 or abs(grid[i] - grid[i - 1] - h) > 1e-12:
            continue  # skip the junction straddling the excluded origin
        second = (vals[i + 1] - 2 * vals[i] + vals[i - 1]) / (h * h)
        worst = max(worst, abs(-0.5 * second - e * vals[i]))
    return worst


def in_out_overlap(model: DeltaModel, p: float, k: float, two_pi: bool = True):
    """The one-particle transition amplitude as (diag, flip) coefficients:
    coefficient of delta(p - k) and of delta(p + k)."""
    if p == 0 or k == 0:
        raise ValueError("amplitude undefined at zero momentum")
    c = TWO_PI if two_pi else 1.0
    diag = c * (model.T(p) if p > 0 else model.T(-p))
    flip = c * (model.R(p) if p > 0 else model.R(-p))
    return diag, flip


def n_particle_product(
    model: DeltaModel, p_list: list[float], k_list: list[float], two_pi: bool = True
) -> dict[tuple[int, ...], complex]:
    """Coefficients of the factorized product, indexed by the sign pattern
    sigma (sigma_i = +1 for the delta(p_i - k_i) branch of factor i).

    Requires nonzero momenta, k_1 < ... < k_n and p_1 > ... > p_n.
    """
    n = len(k_list)
    if len(p_list) != n:
        raise ValueError("momentum lists must have equal length")
    validate_orderings(k_list, p_list)
    out: dict[tuple[int, ...], complex] = {}
    for bits in range(2**n):
        sigma = tuple(1 - 2 * ((bits >> i) & 1) for i in range(n))
        coeff = 1.0 + 0.0j
        for i in range(n):
            p_i = sigma[i] * k_list[i]
            diag, flip = in_out_overlap(model, p_i, k_list[i], two_pi=two_pi)
            coeff *= diag if sigma[i] == +1 else flip
        out[sigma] = coeff
    return out
