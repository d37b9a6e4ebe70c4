"""The verification suite: named identity checks over deterministic samples.

Every check evaluates one identity's residual over the sampled momenta and
records the maximum together with the worst-case momenta; the suite never
aborts early, so a report is complete even when checks fail.

Each check is one CheckSpec row in CHECKS: its name, the points it samples
(single momenta, cyclic pairs or triples, or the factorization set), whether
it runs on the doubled data, what else it needs (N = 1, a translation-
invariant bulk, a minimum sample count), when it is on by default, and its
residual.  A residual takes the points as momentum arrays, one 1-d array per
slot, and gives one value per point.  The registry, the default list, the
requirement errors and `rtcheck catalog` are all derived from these rows.
The relation rows and the hierarchy commutators also name a shared evaluator
and their key to it: run_suite calls each evaluator once over the keys of
the requested rows on one target, and a row alone in its group runs by
itself.  Either way each row gives the bits of a run of that row alone.

Projected (Heaviside) relations run on the model's half-line data, where
they are stated; the vacuum-matrix relations (rr1/tt1/tr1), unitarity,
Hermitian analyticity, the involution and the hierarchy identities run on
the doubled data.  The projected relations are also available on the
doubled data under names suffixed "(doubled)" for diagnostic runs.
"""

from __future__ import annotations

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
        shifts = (j % max(len(vals), 1) for j in range(size))
        return list(zip(*(vals[j:] + vals[:j] for j in shifts)))

    return points


_SINGLES, _PAIRS, _TRIPLES = _cyclic(1), _cyclic(2), _cyclic(3)


def _factorization_set(n: int):
    """The n momenta of smallest modulus, ascending, as one point."""
    return lambda momenta: [tuple(sorted(sorted(momenta, key=abs)[:n]))]


def _max_over(points, residuals):
    """Largest residual and its point; the first NaN residual outranks every
    number, so a check with a non-finite residual reports it and fails."""
    i = int(np.argmax(residuals))  # the first largest, or the first NaN
    return residuals[i], tuple(points[i])


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
    residual: Callable  # (_Target, k1[, k2[, k3]]) -> one residual per point of the 1-d arrays
    _: KW_ONLY
    doubled: bool = False  # runs on the doubled data, so needs the doubled model
    scalar: bool = False  # needs scalar isotopic sectors (N = 1)
    invariant: bool = False  # needs a translation-invariant bulk
    min_samples: int = 1
    default_for: Callable[[AssembledModel], bool] = _always
    shared: Callable | None = None  # (_Target, keys, *ks) -> one residual list per key
    key: object = None  # this row's key to `shared`


def _shared(name: str, points, shared: Callable, key, **needs) -> CheckSpec:
    """A row that `shared` evaluates together with the other rows of its
    target; alone, it is `shared` on its one key."""
    return CheckSpec(name, points, lambda t, *ks: shared(t, [key], *ks)[0], shared=shared,
                     key=key, **needs)


def _relations(t, variants, k1, k2):
    return dft.chain_residuals([dft.RELATIONS[v] for v in variants], t.S, t.pair, k1, k2)


def _reduced(t, variants, k1, k2):
    words = [dft.RELATIONS[v] for v in variants]
    return dft.chain_residuals(words, t.dm.bulk, t.dm.half_line, k1, k2)


def _commutators(t, pairs, k):
    return fock.hierarchy_commutator_residuals(pairs, t.dm, k)


def _j_squared(t, k):
    J = fock.involution_kernel(t.dm, k)
    return fock.kernel_distance(fock.compose(J, J, fock.involution_kernel(t.dm, -k)),
                                fock.identity_kernel(t.dm.doubled_dim))


def _hierarchy_relation(n, t, k):
    return fock.hierarchy_relation_residuals(n, t.dm, k)


def _factorization(t, *ks):
    point = [k.item() for k in ks]  # the set's one point
    return [fock.factorization_residual(len(point), point, sorted(point, reverse=True), t.dm)]


FIG_VARIANTS = dft.REFLECTION_VARIANTS + dft.TRANSMISSION_VARIANTS + dft.MIXED_VARIANTS

# Row order is the order of the default list.
CHECKS: dict[str, CheckSpec] = {spec.name: spec for spec in (
    CheckSpec("ybe", _TRIPLES, lambda t, *ks: sm.ybe_residual(t.S, *ks), min_samples=3),
    CheckSpec("unitarity-S", _PAIRS, lambda t, *ks: sm.unitarity_residual(t.S, *ks)),
    CheckSpec("shift-invariance", _PAIRS,
              lambda t, *ks: sm.shift_invariance_residual(t.S, *ks, 0.5), invariant=True),
    *(_shared(v, _PAIRS, _relations, v) for v in FIG_VARIANTS),
    *(
        _shared(f"{v}(doubled)", _PAIRS, _relations, v, doubled=True, default_for=_never)
        for v in FIG_VARIANTS
    ),
    CheckSpec("ybe(doubled)", _TRIPLES, lambda t, *ks: sm.ybe_residual(t.S, *ks), doubled=True,
              min_samples=3),
    CheckSpec("unitarity-S(doubled)", _PAIRS, lambda t, *ks: sm.unitarity_residual(t.S, *ks),
              doubled=True),
    CheckSpec("defect-unitarity", _SINGLES,
              lambda t, k: dft.defect_unitarity_residual(t.pair, k), doubled=True),
    CheckSpec("hermitian-analyticity", _SINGLES,
              lambda t, k: dft.hermitian_analyticity_residual(t.pair, k), doubled=True),
    *(_shared(v, _PAIRS, _relations, v, doubled=True) for v in dft.CONSISTENCY_VARIANTS),
    *(
        _shared(f"reduced-{v}", _PAIRS, _reduced, v, doubled=True, invariant=True)
        for v in dbl.REDUCED_VARIANTS
    ),
    CheckSpec("symmetrized-unitarity", _SINGLES,
              lambda t, k: dbl.symmetrized_unitarity_residual(t.dm.half_line, k), doubled=True,
              default_for=_invariant),
    CheckSpec("J-squared", _SINGLES, _j_squared, doubled=True),
    CheckSpec("involution-U-squared", _SINGLES, lambda t, k: norm_inf(
        np.linalg.matrix_power(dbl.involution_matrix(t.pair, k), 2) - np.eye(2 * t.pair.dim)),
              doubled=True),
    *(
        _shared(f"hierarchy-commutator({m},{n})", _SINGLES, _commutators, (m, n),
                doubled=True, default_for=_never if (m, n) == (2, 4) else _always)
        for m, n in ((0, 2), (1, 3), (2, 4), (0, 1), (1, 2))
    ),
    *(
        CheckSpec(f"hierarchy-relation({n})", _SINGLES, partial(_hierarchy_relation, n),
                  doubled=True, default_for=_always if n == 2 else _never)
        for n in (0, 2)
    ),
    CheckSpec("opta-agreement", _SINGLES, lambda t, k: fock.opta_agreement_residual(t.dm, k),
              doubled=True, scalar=True),
    *(
        CheckSpec(f"factorization({n})", _factorization_set(n), _factorization,
                  doubled=True, scalar=True, min_samples=n,
                  default_for=_always if n < 4 else _never)
        for n in (1, 2, 3, 4)
    ),
)}


def _target(spec: CheckSpec, model: AssembledModel) -> _Target:
    dm = model.doubled
    if spec.doubled:
        return _Target(dm.calS, dm.defect, dm)
    return _Target(model.bulk, model.half_line, dm)


def _run_check(spec: CheckSpec, model: AssembledModel, momenta):
    points = spec.points(momenta)
    return _max_over(points, spec.residual(_target(spec, model), *np.array(points, dtype=float).T))


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


def _shared_runs(names, model: AssembledModel, momenta) -> dict[str, tuple]:
    """(points, residuals) of each requested row whose evaluator and target
    another requested row shares: one evaluator call per such group."""
    groups: dict[tuple, dict[str, object]] = {}  # (evaluator, doubled) -> {row: key}
    for name in names:
        spec = CHECKS[name]
        if spec.shared is not None:
            groups.setdefault((spec.shared, spec.doubled), {})[name] = spec.key
    runs = {}
    for rows in groups.values():
        if len(rows) > 1:
            spec = CHECKS[next(iter(rows))]
            points = spec.points(momenta)
            ks = np.array(points, dtype=float).T
            got = spec.shared(_target(spec, model), list(rows.values()), *ks)
            runs.update((name, (points, residuals)) for name, residuals in zip(rows, got))
    return runs


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
        shared = _shared_runs(names, model, momenta)
        for name in names:
            got = shared.get(name)
            residual, worst = _max_over(*got) if got else _REGISTRY[name](model, momenta)
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
