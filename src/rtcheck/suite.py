"""The verification suite: named identity checks over deterministic samples.

Every check evaluates one identity's residual over the sampled momenta and
records the maximum together with the worst-case momenta; the suite never
aborts early, so a report is complete even when checks fail.

Projected (Heaviside) relations run on the model's half-line data, where
they are stated; the vacuum-matrix relations (rr1/tt1/tr1), unitarity,
Hermitian analyticity, the involution and the hierarchy identities run on
the doubled data.  The projected relations are also available on the
doubled data under names suffixed "(doubled)" for diagnostic runs.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import defect as dft
from . import doubling as dbl
from . import fock
from . import smatrix as sm
from .config import AssembledModel
from .report import CheckResult, VerificationReport
from .tensor import norm_inf

CheckFn = Callable[[AssembledModel, tuple[float, ...]], tuple[float, tuple[float, ...]]]

_REGISTRY: dict[str, CheckFn] = {}


def _register(name: str):
    def wrap(fn: CheckFn) -> CheckFn:
        _REGISTRY[name] = fn
        return fn

    return wrap


def _pairs(momenta):
    vals = list(momenta)
    return [(vals[i], vals[(i + 1) % len(vals)]) for i in range(len(vals))]


def _triples(momenta):
    vals = list(momenta)
    return [
        (vals[i], vals[(i + 1) % len(vals)], vals[(i + 2) % len(vals)])
        for i in range(len(vals))
    ]


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


def _need_doubled(model: AssembledModel):
    if model.doubled is None:
        raise ValueError("check requires a doubled model (set doubled: true)")
    return model.doubled


@_register("ybe")
def _chk_ybe(model, momenta):
    return _max_over(_triples(momenta), lambda a, b, c: sm.ybe_residual(model.bulk, a, b, c))


@_register("unitarity-S")
def _chk_unit(model, momenta):
    return _max_over(_pairs(momenta), lambda a, b: sm.unitarity_residual(model.bulk, a, b))


@_register("shift-invariance")
def _chk_shift(model, momenta):
    if not model.bulk.translation_invariant:
        return 0.0, ()
    return _max_over(
        _pairs(momenta),
        lambda a, b: sm.shift_invariance_residual(model.bulk, a, b, 0.5),
    )


@_register("ybe(doubled)")
def _chk_ybe_doubled(model, momenta):
    calS = _need_doubled(model).calS
    return _max_over(_triples(momenta), lambda a, b, c: sm.ybe_residual(calS, a, b, c))


@_register("unitarity-S(doubled)")
def _chk_unit_doubled(model, momenta):
    calS = _need_doubled(model).calS
    return _max_over(_pairs(momenta), lambda a, b: sm.unitarity_residual(calS, a, b))


@_register("defect-unitarity")
def _chk_def_unit(model, momenta):
    pair = _need_doubled(model).defect_pair()
    return _max_over([(k,) for k in momenta], lambda k: dft.defect_unitarity_residual(pair, k))


@_register("hermitian-analyticity")
def _chk_ha(model, momenta):
    pair = _need_doubled(model).defect_pair()
    return _max_over(
        [(k,) for k in momenta], lambda k: dft.hermitian_analyticity_residual(pair, k)
    )


def _fig_check(variant: str, on_doubled: bool):
    def run(model: AssembledModel, momenta):
        if on_doubled:
            dm = _need_doubled(model)
            S, pair = dm.calS, dm.defect_pair()
        else:
            S, pair = model.bulk, model.half_line
        if variant in ("SRSR+", "SRSR-"):
            xi = +1 if variant.endswith("+") else -1
            fn = lambda a, b: dft.reflection_relation_residual(S, pair, a, b, xi)
        elif variant in dft.TRANSMISSION_VARIANTS:
            fn = lambda a, b: dft.transmission_relation_residual(S, pair, a, b, variant)
        else:
            fn = lambda a, b: dft.mixed_relation_residual(S, pair, a, b, variant)
        return _max_over(_pairs(momenta), fn)

    return run


FIG_VARIANTS = dft.REFLECTION_VARIANTS + dft.TRANSMISSION_VARIANTS + dft.MIXED_VARIANTS
for _v in FIG_VARIANTS:
    _REGISTRY[_v] = _fig_check(_v, on_doubled=False)
    _REGISTRY[f"{_v}(doubled)"] = _fig_check(_v, on_doubled=True)


def _consistency_check(variant: str):
    def run(model: AssembledModel, momenta):
        dm = _need_doubled(model)
        return _max_over(
            _pairs(momenta),
            lambda a, b: dft.consistency_relation_residual(
                dm.calS, dm.calR, dm.calT, a, b, variant
            ),
        )

    return run


for _v in dft.CONSISTENCY_VARIANTS:
    _REGISTRY[_v] = _consistency_check(_v)


def _reduced_check(variant: str):
    def run(model: AssembledModel, momenta):
        dm = _need_doubled(model)
        tau = dm.provenance["tau"]
        rho = dm.provenance["rho"]
        return _max_over(
            _pairs(momenta),
            lambda a, b: dbl.reduced_relation_residual(model.bulk, tau, rho, a, b, variant),
        )

    return run


for _v in dbl.REDUCED_VARIANTS:
    _REGISTRY[f"reduced-{_v}"] = _reduced_check(_v)


@_register("symmetrized-unitarity")
def _chk_sym_unit(model, momenta):
    dm = _need_doubled(model)
    tau, rho = dm.provenance["tau"], dm.provenance["rho"]
    return _max_over(
        [(k,) for k in momenta],
        lambda k: dbl.symmetrized_unitarity_residual(tau, rho, model.bulk.leg_dim, k),
    )


@_register("J-squared")
def _chk_j2(model, momenta):
    dm = _need_doubled(model)
    J = fock.involution_kernel(dm)
    ident = fock.identity_kernel(dm.doubled_dim)
    return _max_over(
        [(k,) for k in momenta],
        lambda k: fock.kernel_distance(fock.compose(J, J), ident, k),
    )


@_register("involution-U-squared")
def _chk_u2(model, momenta):
    dm = _need_doubled(model)

    def res(k):
        u = dbl.involution_matrix(dm.calR, dm.calT, k)
        return norm_inf(u @ u - np.eye(u.shape[0]))

    return _max_over([(k,) for k in momenta], res)


@_register("opta-agreement")
def _chk_opta(model, momenta):
    dm = _need_doubled(model)
    return _max_over([(k,) for k in momenta], lambda k: fock.opta_agreement_residual(dm, k))


def _factorization_check(n: int):
    def run(model: AssembledModel, momenta):
        dm = _need_doubled(model)
        vals = sorted(momenta, key=abs)[: max(n, 1)]
        if len(vals) < n:
            raise ValueError(f"need at least {n} sampled momenta")
        ks = sorted(vals)
        ps = sorted(ks, reverse=True)
        r = fock.factorization_residual(n, ks, ps, dm)
        return r, tuple(ks)

    return run


for _n in (1, 2, 3, 4):
    _REGISTRY[f"factorization({_n})"] = _factorization_check(_n)


def _hier_comm_check(m: int, n: int):
    def run(model: AssembledModel, momenta):
        dm = _need_doubled(model)
        return _max_over(
            [(k,) for k in momenta],
            lambda k: fock.hierarchy_commutator_residual(m, n, dm, k),
        )

    return run


for _m, _n in ((0, 2), (1, 3), (2, 4), (0, 1), (1, 2)):
    _REGISTRY[f"hierarchy-commutator({_m},{_n})"] = _hier_comm_check(_m, _n)


def _hier_rel_check(n: int):
    def run(model: AssembledModel, momenta):
        dm = _need_doubled(model)
        return _max_over(
            [(k,) for k in momenta],
            lambda k: fock.hierarchy_relation_residual(n, dm, k),
        )

    return run


for _n in (0, 2):
    _REGISTRY[f"hierarchy-relation({_n})"] = _hier_rel_check(_n)


_HALF_LINE_ONLY = {"ybe", "unitarity-S", "shift-invariance", *FIG_VARIANTS}


def check_requirements(name: str, model: AssembledModel, samples: int) -> None:
    """Reject inapplicable check requests up front (configuration errors)."""
    if name not in _REGISTRY:
        raise ValueError(f"unknown check name(s): ['{name}']; see `rtcheck catalog`")
    if name not in _HALF_LINE_ONLY and model.doubled is None:
        raise ValueError(f"check {name!r} requires a doubled model (set doubled: true)")
    if name.startswith("factorization(") or name == "opta-agreement":
        if model.doubled is not None and model.doubled.bulk_dim != 1:
            raise ValueError(f"check {name!r} is defined for scalar isotopic sectors (N = 1)")
    if name.startswith("factorization("):
        n = int(name[len("factorization(") : -1])
        if samples < n:
            raise ValueError(f"check {name!r} needs at least {n} sampled momenta")
    if name.startswith("reduced-") and not model.bulk.translation_invariant:
        raise ValueError(f"check {name!r} needs a translation-invariant bulk")
    if name == "ybe" and samples < 3:
        raise ValueError("the Yang-Baxter check needs at least 3 sampled momenta")


def available_checks() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def default_checks(model: AssembledModel) -> tuple[str, ...]:
    names = ["ybe", "unitarity-S"]
    if model.bulk.translation_invariant:
        names.append("shift-invariance")
    names.extend(FIG_VARIANTS)
    if model.doubled is not None:
        names.extend(["ybe(doubled)", "unitarity-S(doubled)"])
        names.extend(["defect-unitarity", "hermitian-analyticity"])
        names.extend(dft.CONSISTENCY_VARIANTS)
        if model.bulk.translation_invariant:
            names.extend(f"reduced-{v}" for v in dbl.REDUCED_VARIANTS)
            names.append("symmetrized-unitarity")
        names.extend(["J-squared", "involution-U-squared"])
        names.extend(
            [f"hierarchy-commutator({m},{n})" for m, n in ((0, 2), (1, 3), (0, 1), (1, 2))]
        )
        names.append("hierarchy-relation(2)")
        if model.doubled.bulk_dim == 1:
            names.append("opta-agreement")
            names.extend(f"factorization({n})" for n in (1, 2, 3))
    return tuple(names)


def run_suite(model: AssembledModel) -> VerificationReport:
    """Execute the configured checks; complete report even on failures."""
    cfg = model.cfg
    sample = sm.sample_momenta(cfg.samples, cfg.exclusion_radius, cfg.seed)
    names = cfg.checks or default_checks(model)
    unknown = [n for n in names if n not in _REGISTRY]
    if unknown:
        raise ValueError(f"unknown check name(s): {unknown}; see `rtcheck catalog`")
    for name in names:
        check_requirements(name, model, cfg.samples)
    results = []
    for name in names:
        residual, worst = _REGISTRY[name](model, sample.values)
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
