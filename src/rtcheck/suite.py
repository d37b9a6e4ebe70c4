"""The verification suite: named identity checks over deterministic samples.

Every check evaluates one identity's residual over the sampled momenta and
records the maximum together with the worst-case momenta; the suite never
aborts early, so a report is complete even when checks fail.

Each check is one CheckSpec row in CHECKS: its name, the points it samples
(single momenta, cyclic pairs or triples, or the factorization set), whether
it runs on the doubled data, what else it needs (N = 1, a translation-
invariant bulk, a minimum sample count), when it is on by default, and its
residual.  The registry, the default list, the requirement errors and
`rtcheck catalog` are all derived from these rows.

Projected (Heaviside) relations run on the model's half-line data, where
they are stated; the vacuum-matrix relations (rr1/tt1/tr1), unitarity,
Hermitian analyticity, the involution and the hierarchy identities run on
the doubled data.  The projected relations are also available on the
doubled data under names suffixed "(doubled)" for diagnostic runs.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import defect as dft
from . import doubling as dbl
from . import fock
from . import smatrix as sm
from .config import AssembledModel
from .report import CheckResult, VerificationReport
from .tensor import norm_inf


def _cyclic(size: int):
    """Each sampled momentum with the size - 1 that follow it, cyclically."""

    def points(momenta):
        vals = list(momenta)
        return [tuple(vals[(i + j) % len(vals)] for j in range(size)) for i in range(len(vals))]

    return points


_SINGLES, _PAIRS, _TRIPLES = _cyclic(1), _cyclic(2), _cyclic(3)


def _factorization_set(n: int):
    """The n momenta of smallest modulus, ascending, as one point."""
    return lambda momenta: [tuple(sorted(sorted(momenta, key=abs)[:n]))]


def _max_over(points, fn):
    """Largest residual and its point; the first NaN residual outranks every
    number, so a check with a non-finite residual reports it and fails."""
    worst = -1.0
    at: tuple[float, ...] = ()
    for pt in points:
        r = fn(*pt)
        if r > worst or (math.isnan(r) and not math.isnan(worst)):
            worst, at = r, tuple(pt)
    return worst, at


class _Target(NamedTuple):
    """What a residual reads: the S-matrix and defect pair of the data the
    check runs on (half-line or doubled), and the doubled model."""

    S: sm.BulkSMatrix
    pair: dft.DefectPair
    dm: dbl.DoubledModel | None


def _always(model: AssembledModel) -> bool:
    return True


def _never(model: AssembledModel) -> bool:
    return False


def _invariant(model: AssembledModel) -> bool:
    return model.bulk.translation_invariant


@dataclass(frozen=True)
class CheckSpec:
    """One verification check.  It is in the default list when
    default_for(model) holds and the model meets its needs (doubled, scalar,
    invariant); min_samples applies whenever it runs."""

    name: str
    points: Callable  # sampled momenta -> the points the residual is taken at
    residual: Callable  # (_Target, *point) -> float
    _: KW_ONLY
    doubled: bool = False  # runs on the doubled data, so needs the doubled model
    scalar: bool = False  # needs scalar isotopic sectors (N = 1)
    invariant: bool = False  # needs a translation-invariant bulk
    min_samples: int = 1
    default_for: Callable[[AssembledModel], bool] = _always


def _ybe(t, a, b, c):
    return sm.ybe_residual(t.S, a, b, c)


def _unitarity(t, a, b):
    return sm.unitarity_residual(t.S, a, b)


def _shift_invariance(t, a, b):
    return sm.shift_invariance_residual(t.S, a, b, 0.5)


def _projected(variant, t, a, b):
    if variant in dft.REFLECTION_VARIANTS:
        xi = +1 if variant.endswith("+") else -1
        return dft.reflection_relation_residual(t.S, t.pair, a, b, xi)
    if variant in dft.TRANSMISSION_VARIANTS:
        return dft.transmission_relation_residual(t.S, t.pair, a, b, variant)
    return dft.mixed_relation_residual(t.S, t.pair, a, b, variant)


def _defect_unitarity(t, k):
    return dft.defect_unitarity_residual(t.pair, k)


def _hermitian_analyticity(t, k):
    return dft.hermitian_analyticity_residual(t.pair, k)


def _consistency(variant, t, a, b):
    return dft.consistency_relation_residual(t.S, t.pair, a, b, variant)


def _reduced(variant, t, a, b):
    return dbl.reduced_relation_residual(t.dm.bulk, t.dm.half_line, a, b, variant)


def _symmetrized_unitarity(t, k):
    return dbl.symmetrized_unitarity_residual(t.dm.half_line, k)


def _j_squared(t, k):
    J = fock.involution_kernel(t.dm)
    return fock.kernel_distance(fock.compose(J, J), fock.identity_kernel(t.dm.doubled_dim), k)


def _u_squared(t, k):
    u = dbl.involution_matrix(t.pair, k)
    return norm_inf(u @ u - np.eye(u.shape[0]))


def _commutator(m, n, t, k):
    return fock.hierarchy_commutator_residual(m, n, t.dm, k)


def _hierarchy_relation(n, t, k):
    return fock.hierarchy_relation_residual(n, t.dm, k)


def _opta_agreement(t, k):
    return fock.opta_agreement_residual(t.dm, k)


def _factorization(t, *ks):
    return fock.factorization_residual(len(ks), list(ks), sorted(ks, reverse=True), t.dm)


FIG_VARIANTS = dft.REFLECTION_VARIANTS + dft.TRANSMISSION_VARIANTS + dft.MIXED_VARIANTS

# Row order is the order of the default list.
CHECKS: dict[str, CheckSpec] = {spec.name: spec for spec in (
    CheckSpec("ybe", _TRIPLES, _ybe, min_samples=3),
    CheckSpec("unitarity-S", _PAIRS, _unitarity),
    CheckSpec("shift-invariance", _PAIRS, _shift_invariance, invariant=True),
    *(CheckSpec(v, _PAIRS, partial(_projected, v)) for v in FIG_VARIANTS),
    *(
        CheckSpec(f"{v}(doubled)", _PAIRS, partial(_projected, v), doubled=True,
                  default_for=_never)
        for v in FIG_VARIANTS
    ),
    CheckSpec("ybe(doubled)", _TRIPLES, _ybe, doubled=True, min_samples=3),
    CheckSpec("unitarity-S(doubled)", _PAIRS, _unitarity, doubled=True),
    CheckSpec("defect-unitarity", _SINGLES, _defect_unitarity, doubled=True),
    CheckSpec("hermitian-analyticity", _SINGLES, _hermitian_analyticity, doubled=True),
    *(
        CheckSpec(v, _PAIRS, partial(_consistency, v), doubled=True)
        for v in dft.CONSISTENCY_VARIANTS
    ),
    *(
        CheckSpec(f"reduced-{v}", _PAIRS, partial(_reduced, v), doubled=True, invariant=True)
        for v in dbl.REDUCED_VARIANTS
    ),
    CheckSpec("symmetrized-unitarity", _SINGLES, _symmetrized_unitarity, doubled=True,
              default_for=_invariant),
    CheckSpec("J-squared", _SINGLES, _j_squared, doubled=True),
    CheckSpec("involution-U-squared", _SINGLES, _u_squared, doubled=True),
    *(
        CheckSpec(f"hierarchy-commutator({m},{n})", _SINGLES, partial(_commutator, m, n),
                  doubled=True, default_for=_never if (m, n) == (2, 4) else _always)
        for m, n in ((0, 2), (1, 3), (2, 4), (0, 1), (1, 2))
    ),
    *(
        CheckSpec(f"hierarchy-relation({n})", _SINGLES, partial(_hierarchy_relation, n),
                  doubled=True, default_for=_always if n == 2 else _never)
        for n in (0, 2)
    ),
    CheckSpec("opta-agreement", _SINGLES, _opta_agreement, doubled=True, scalar=True),
    *(
        CheckSpec(f"factorization({n})", _factorization_set(n), _factorization, doubled=True,
                  scalar=True, min_samples=n, default_for=_always if n < 4 else _never)
        for n in (1, 2, 3, 4)
    ),
)}


def _run_check(spec: CheckSpec, model: AssembledModel, momenta):
    dm = model.doubled
    if spec.doubled:
        target = _Target(dm.calS, dm.defect, dm)
    else:
        target = _Target(model.bulk, model.half_line, dm)
    return _max_over(spec.points(momenta), partial(spec.residual, target))


_REGISTRY: dict[str, Callable] = {name: partial(_run_check, spec) for name, spec in CHECKS.items()}


def _unmet(spec: CheckSpec, model: AssembledModel, samples: int | None) -> str | None:
    """Why the check cannot run on this model (and sample count), or None."""
    if spec.doubled and model.doubled is None:
        return f"check {spec.name!r} requires a doubled model (set doubled: true)"
    if spec.scalar and model.doubled.bulk_dim != 1:
        return f"check {spec.name!r} is defined for scalar isotopic sectors (N = 1)"
    if samples is not None and samples < spec.min_samples:
        what = "the Yang-Baxter check" if spec.points is _TRIPLES else f"check {spec.name!r}"
        return f"{what} needs at least {spec.min_samples} sampled momenta"
    if spec.invariant and not model.bulk.translation_invariant:
        return f"check {spec.name!r} needs a translation-invariant bulk"
    return None


def available_checks() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def default_checks(model: AssembledModel) -> tuple[str, ...]:
    return tuple(
        name for name, spec in CHECKS.items()
        if spec.default_for(model) and _unmet(spec, model, None) is None
    )


def run_suite(model: AssembledModel) -> VerificationReport:
    """Execute the configured checks; complete report even on failures."""
    cfg = model.cfg
    momenta = sm.sample_momenta(cfg.samples, cfg.exclusion_radius, cfg.seed)
    names = cfg.checks or default_checks(model)
    unknown = [n for n in names if n not in _REGISTRY]
    if unknown:
        raise ValueError(f"unknown check name(s): {unknown}; see `rtcheck catalog`")
    for name in names:  # inapplicable requests are configuration errors
        error = _unmet(CHECKS[name], model, cfg.samples)
        if error is not None:
            raise ValueError(error)
    results = []
    # non-finite data gives a nan or inf residual, which fails its check
    with np.errstate(all="ignore"):
        for name in names:
            residual, worst = _REGISTRY[name](model, momenta)
            results.append(
                CheckResult(
                    check_id=name,
                    max_residual=float(residual),
                    worst_momenta=worst,
                    samples=cfg.samples,
                    passed=bool(residual <= cfg.tolerance),
                )
            )
    return VerificationReport(
        config=cfg.echo(), checks=tuple(results), tolerance=cfg.tolerance
    )
