"""The exactly solvable delta-impurity model on the line.

Scattering eigenfunctions and the matching condition at the origin: the
analytic cross-check for the algebraic machinery.  Only eta >= 0 is supported
(no bound state).  Each eigenfunction formula reads T and R once, via _branch.
Its transition amplitudes are fock.one_particle_amplitude on the model's pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .defect import DefectPair, delta_defect
from .doubling import DoubledModel, build_doubled_model
from .smatrix import identity_S


@dataclass(frozen=True)
class DeltaModel:
    eta: float

    def __post_init__(self):
        if self.eta < 0:
            raise ValueError("only eta >= 0 is supported")

    @cached_property  # the delta amplitudes, built once per model
    def pair(self) -> DefectPair:
        return delta_defect(self.eta)

    def T(self, k: float) -> complex:
        return complex(self.pair.T(k)[0, 0])

    def R(self, k: float) -> complex:
        return complex(self.pair.R(k)[0, 0])

    def doubled(self) -> DoubledModel:
        """The impurity algebra data: free bulk, doubled delta amplitudes."""
        return build_doubled_model(identity_S(1), self.pair)


def _branch(model: DeltaModel, k: float, branch: str) -> tuple[int, complex, complex] | None:
    """(s, T(-s k), R(-s k)) of the branch, s = +1 for '+'; None where it vanishes (s k > 0)."""
    if k == 0:
        raise ValueError("eigenfunctions are labeled by k != 0")
    if branch not in ("+", "-"):
        raise ValueError("branch must be '+' or '-'")
    s = +1 if branch == "+" else -1
    if s * k > 0:
        return None
    return s, model.T(-s * k), model.R(-s * k)


def psi(model: DeltaModel, k: float, branch: str, x: float) -> complex:
    """Scattering eigenfunction psi_k^branch(x); branch '+' lives on k < 0."""
    data = _branch(model, k, branch)
    if data is None:
        return 0.0
    s, T, R = data
    if x == 0:
        # both one-sided limits equal T(-sk) = 1 + R(-sk)
        return complex(T)
    if s * x < 0:
        return T * np.exp(1j * k * x)
    return np.exp(1j * k * x) + R * np.exp(-1j * k * x)


def psi_prime(model: DeltaModel, k: float, branch: str, x: float) -> complex:
    """Analytic derivative of psi; at x = 0 the one-sided limits differ, use
    x -> 0+ / 0- explicitly."""
    data = _branch(model, k, branch)
    if x == 0:
        raise ValueError("derivative at 0 is one-sided; evaluate at ±0 offsets")
    if data is None:
        return 0.0
    s, T, R = data
    if s * x < 0:
        return 1j * k * T * np.exp(1j * k * x)
    return 1j * k * np.exp(1j * k * x) - 1j * k * R * np.exp(-1j * k * x)


def boundary_condition_residual(model: DeltaModel, k: float, branch: str) -> float:
    """| [psi'(0+) - psi'(0-)] - 2 eta psi(0) | from analytic one-sided limits."""
    data = _branch(model, k, branch)
    if data is None:
        return 0.0
    s, T, R = data
    d_trans = 1j * k * T  # limit from the transmitted side
    d_inc = 1j * k * (1.0 - R)  # limit from the incident side
    d_plus, d_minus = (d_inc, d_trans) if s > 0 else (d_trans, d_inc)  # '+' comes from x > 0
    return abs((d_plus - d_minus) - 2.0 * model.eta * complex(T))


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
    xs = np.arange(2 * h, extent, h)  # each half line stays away from the kink at 0
    e = 0.5 * k * k
    worst = 0.0
    for half in (-xs[::-1], xs):
        vals = np.array([psi(model, k, branch, x) for x in half])
        second = (vals[2:] - 2 * vals[1:-1] + vals[:-2]) / (h * h)
        worst = np.abs(-0.5 * second - e * vals[1:-1]).max(initial=worst)
    return worst
