"""Spans and counts around the calls into each rtcheck module, installed from
the benchmark by replacing the names the callers look up (module globals and
class attributes) and restoring them afterwards.  Nothing under src/ changes.

Each span has a name, a start, an end and a parent (the span open when it
started).  Spans are folded into per-name totals as they close, so memory
stays flat however many calls a pass makes:

* calls  - entries that are not directly nested in a span of the same name
* total  - inclusive time
* self   - total minus the time of the child spans, where a child's time
  includes the tracer's own bookkeeping around it, so that bookkeeping lands
  in no layer's self time; it shows as trace.overhead_frac instead.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter

import numpy as np

# check id -> suite family (suite.check_ms.<family>)
FIG_VARIANTS = ("SRSR+", "SRSR-", "TST", "STT-", "STT+", "TSRS+", "TSRS-",
                "SRST+", "SRST-", "TSR+", "TSR-", "RST+", "RST-")
FAMILIES = ("bulk", "projected", "projected_doubled", "vacuum", "reduced",
            "involution", "factorization", "hierarchy")


def check_family(check: str) -> str:
    if check in FIG_VARIANTS:
        return "projected"
    if check.endswith("(doubled)") and check[: -len("(doubled)")] in FIG_VARIANTS:
        return "projected_doubled"
    if check in ("ybe", "unitarity-S", "shift-invariance", "ybe(doubled)",
                 "unitarity-S(doubled)"):
        return "bulk"
    if check in ("rr1", "tt1", "tr1", "defect-unitarity", "hermitian-analyticity"):
        return "vacuum"
    if check.startswith("reduced-") or check == "symmetrized-unitarity":
        return "reduced"
    if check in ("J-squared", "involution-U-squared"):
        return "involution"
    if check.startswith("factorization(") or check == "opta-agreement":
        return "factorization"
    if check.startswith("hierarchy-"):
        return "hierarchy"
    return "other"


class _ReadCounter(np.ndarray):
    """A coefficient tensor that counts the entries its consumer reads,
    through indexing and trace (the two ways rtcheck reads one)."""

    counts: Counter | None = None

    def __getitem__(self, idx):
        out = np.ndarray.__getitem__(self.view(np.ndarray), idx)
        _ReadCounter.counts["fock.entries_read"] += np.size(out)
        return out

    def trace(self, offset=0, axis1=0, axis2=1, dtype=None, out=None):
        res = np.ndarray.trace(self.view(np.ndarray), offset, axis1, axis2, dtype, out)
        diagonal = min(self.shape[axis1], self.shape[axis2])
        _ReadCounter.counts["fock.entries_read"] += np.size(res) * diagonal
        return res


def _network_legs(net) -> int:
    return len({leg for atom in net for leg in atom[1]})


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.stack: list[list] = []  # open spans: [child time, name]
        self.stats: dict[str, list] = {}  # name -> [calls, total, self, errors]
        self.counts: Counter = Counter()
        self.shapes: set = set()
        self._restore: list = []

    def reset(self) -> None:
        self.stats.clear()
        self.counts.clear()
        self.shapes.clear()

    def _rec(self, name: str) -> list:
        rec = self.stats.get(name)
        if rec is None:
            rec = self.stats[name] = [0, 0.0, 0.0, 0]
        return rec

    def wrap(self, name, fn, after=None):
        """fn inside a span; `name` is a string or a function of the call's
        arguments; `after(args, result)` runs outside the span and may
        replace the result."""
        clock, stack, rec_of = self.clock, self.stack, self._rec
        name_of = name if callable(name) else (lambda args, _n=name: _n)

        def traced(*args, **kwargs):
            t_in = clock()
            nm = name_of(args)
            frame = [0.0, nm]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec_of(nm)[3] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                rec = rec_of(nm)
                rec[1] += t1 - t0
                rec[2] += t1 - t0 - frame[0]
                if not (stack and stack[-1][1] == nm):
                    rec[0] += 1
            if after is not None:
                out = after(args, out)
            if stack:
                stack[-1][0] += clock() - t_in
            return out

        return traced

    def run_root(self, name: str, fn):
        return self.wrap(name, fn)()

    def patch(self, owner, attr: str, replacement) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, replacement)
        self._restore.append(lambda: setattr(owner, attr, original))

    def patch_item(self, mapping: dict, key: str, replacement) -> None:
        original = mapping[key]
        mapping[key] = replacement
        self._restore.append(lambda: mapping.__setitem__(key, original))

    def span(self, owner, attr: str, name, after=None) -> None:
        self.patch(owner, attr, self.wrap(name, getattr(owner, attr), after))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()
        _ReadCounter.counts = None

    # --- what gets traced -------------------------------------------------

    def install(self) -> None:
        from rtcheck import cli, config, defect, doubling, fock, smatrix, suite

        counts = self.counts
        _ReadCounter.counts = counts
        self.span(config, "parse_config", "config.parse")
        self.span(config, "build_model", "config.build")
        self.span(cli, "parse_config", "config.parse")
        self.span(cli, "build_model", "config.build")

        self.span(smatrix.BulkSMatrix, "eval",
                  lambda args: "doubling.calS_eval" if args[0].name.startswith("doubled[")
                  else "smatrix.bulk_eval")
        self.span(smatrix, "ybe_residual", "smatrix.ybe")
        self.span(smatrix, "unitarity_residual", "smatrix.unitarity")
        self.span(smatrix, "shift_invariance_residual", "smatrix.shift")
        self.span(smatrix, "sample_momenta", "smatrix.sample")

        self.span(smatrix, "embed_pair", "tensor.embed_pair")
        self.span(defect, "kron", "tensor.kron")
        self.span(smatrix, "swap_legs", "tensor.swap_legs")
        self.span(doubling, "swap_legs", "tensor.swap_legs")

        for cls in (defect.DefectPair, defect.ProjectedDefect):
            self.span(cls, "R", "defect.data")
            self.span(cls, "T", "defect.data")
        self.span(defect, "reflection_relation_residual", "defect.reflection")
        self.span(defect, "transmission_relation_residual", "defect.transmission")
        self.span(defect, "mixed_relation_residual", "defect.mixed")
        self.span(defect, "consistency_relation_residual", "defect.consistency")
        self.span(defect, "defect_unitarity_residual", "defect.vacuum")
        self.span(defect, "hermitian_analyticity_residual", "defect.vacuum")

        self.span(doubling, "reduced_relation_residual", "doubling.reduced")
        self.span(doubling, "symmetrized_unitarity_residual", "doubling.symmetrized")
        self.span(doubling, "involution_matrix", "doubling.involution")

        self.span(fock, "normal_order_vev", "fock.normal_order", self._after_normal_order)
        self.span(fock, "evaluate_coefficient", "fock.contract", self._after_contract)
        self.span(fock, "resolve_momenta", "fock.resolve")
        for fn in ("kernel_distance", "hamiltonian_kernel", "reflection_moment_kernel",
                   "hierarchy_commutator_residual", "hierarchy_relation_residual",
                   "opta_agreement_residual"):
            self.span(fock, fn, "fock.kernel")
        self.span(fock, "factorization_residual", "fock.factorization")

        self.span(suite, "run_suite", "suite.run")
        self.span(cli, "run_suite", "suite.run")
        self._count_points(suite)
        registry = suite._REGISTRY
        for check in list(registry):
            self._trace_check(registry, check)

        self.span(cli, "emit_report", "report.emit", self._after_emit)

    def _after_normal_order(self, args, expr):
        c = self.counts
        c["fock.terms"] += len(expr.terms)
        for term in expr.terms:
            c["fock.networks"] += len(term.networks)
            for net in term.networks:
                c["fock.atoms"] += len(net)
                legs = _network_legs(net)
                if legs > c["fock.network_legs_max"]:
                    c["fock.network_legs_max"] = legs
        labels: dict[str, int] = {}
        shape = (expr.dim, tuple(
            (s.kind, s.sign, s.dress is not None, labels.setdefault(s.label, len(labels)))
            for s in expr.word))
        if shape in self.shapes:
            c["fock.normal_order_repeats"] += 1
        self.shapes.add(shape)
        return expr

    def _after_contract(self, args, coeff):
        term, model = args[1], args[3]
        d = model.doubled_dim
        self.counts["fock.entries_built"] += coeff.size
        self.counts["fock.naive_flops"] += sum(d ** _network_legs(n) for n in term.networks)
        return coeff.view(_ReadCounter)

    def _after_emit(self, args, text):
        self.counts["report.bytes"] += len(text)
        return text

    def _count_points(self, suite) -> None:
        counts, original = self.counts, suite._max_over

        def max_over(points, fn):
            points = list(points)
            counts["suite.points"] += len(points)
            return original(points, fn)

        self.patch(suite, "_max_over", max_over)

    def _trace_check(self, registry, check: str) -> None:
        counts = self.counts
        traced = self.wrap(f"suite.check.{check_family(check)}", registry[check])

        def run(model, momenta):
            before = counts["suite.points"]
            out = traced(model, momenta)
            if counts["suite.points"] == before:  # a single-point check
                counts["suite.points"] += 1
            return out

        self.patch_item(registry, check, run)


# --- per-pass summary -------------------------------------------------------

MS = 1e3

# metric -> (span name, field): field 0 calls, 1 inclusive time, 2 self time
SPAN_METRICS = {
    "smatrix.bulk_eval_calls": ("smatrix.bulk_eval", 0),
    "smatrix.bulk_eval_ms": ("smatrix.bulk_eval", 2),
    "smatrix.ybe_calls": ("smatrix.ybe", 0),
    "smatrix.ybe_ms": ("smatrix.ybe", 2),
    "smatrix.unitarity_ms": ("smatrix.unitarity", 2),
    "smatrix.sample_ms": ("smatrix.sample", 2),
    "tensor.embed_pair_calls": ("tensor.embed_pair", 0),
    "tensor.embed_pair_ms": ("tensor.embed_pair", 2),
    "tensor.kron_calls": ("tensor.kron", 0),
    "tensor.kron_ms": ("tensor.kron", 2),
    "tensor.swap_legs_calls": ("tensor.swap_legs", 0),
    "defect.reflection_ms": ("defect.reflection", 2),
    "defect.transmission_ms": ("defect.transmission", 2),
    "defect.mixed_ms": ("defect.mixed", 2),
    "defect.consistency_ms": ("defect.consistency", 2),
    "defect.vacuum_ms": ("defect.vacuum", 2),
    "defect.data_calls": ("defect.data", 0),
    "doubling.calS_eval_calls": ("doubling.calS_eval", 0),
    "doubling.calS_eval_ms": ("doubling.calS_eval", 2),
    "doubling.reduced_ms": ("doubling.reduced", 2),
    "doubling.symmetrized_ms": ("doubling.symmetrized", 2),
    "fock.normal_order_calls": ("fock.normal_order", 0),
    "fock.normal_order_ms": ("fock.normal_order", 2),
    "fock.contract_calls": ("fock.contract", 0),
    "fock.contract_ms": ("fock.contract", 2),
    "fock.resolve_ms": ("fock.resolve", 2),
    "fock.kernel_ms": ("fock.kernel", 2),
    "report.emit_ms": ("report.emit", 2),
}
SPAN_METRICS.update({f"suite.check_ms.{f}": (f"suite.check.{f}", 1) for f in FAMILIES})
COUNT_METRICS = ("fock.terms", "fock.networks", "fock.atoms", "fock.network_legs_max",
                 "fock.naive_flops", "suite.points", "report.bytes")


def pass_summary(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one pass from the tracer's totals."""
    stats, counts = tracer.stats, tracer.counts
    out: dict[str, float] = {}
    for metric, (name, field) in SPAN_METRICS.items():
        value = stats[name][field] if name in stats else 0
        out[metric] = value * MS if field else value
    for metric in COUNT_METRICS:
        out[metric] = counts[metric]
    calls = out["fock.normal_order_calls"]
    out["fock.normal_order_repeat_frac"] = (
        counts["fock.normal_order_repeats"] / calls if calls else 0.0)
    built = counts["fock.entries_built"]
    out["fock.entries_used_frac"] = counts["fock.entries_read"] / built if built else 0.0
    out["suite.check_errors"] = sum(
        rec[3] for name, rec in stats.items() if name.startswith("suite.check."))
    return out


def layer_self_ms(tracer: Tracer) -> dict[str, float]:
    """Self time per layer (the span name up to its first dot)."""
    layers: Counter = Counter()
    for name, rec in tracer.stats.items():
        layers[name.split(".", 1)[0]] += rec[2] * MS
    return dict(layers)


# exact counts: identical across passes and seeds of one code version
EXACT = tuple(m for m in SPAN_METRICS if m.endswith("_calls")) + (
    "fock.terms", "fock.networks", "fock.atoms", "fock.network_legs_max", "fock.naive_flops",
    "fock.normal_order_repeat_frac", "fock.entries_used_frac", "suite.points")


def combine(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median over passes (exact counts are equal in every pass)."""
    return {m: statistics.median(p[m] for p in passes) for m in passes[0]}


def _unit(metric: str) -> str:
    if metric.endswith("_ms") or ".check_ms." in metric:
        return "ms"
    if metric.endswith("_frac"):
        return "ratio"
    return {"fock.naive_flops": "flop", "report.bytes": "B"}.get(metric, "count")


PER_LAYER_UNITS = {m: _unit(m) for m in (
    "config.parse_ms", "config.build_ms",
    *SPAN_METRICS, *COUNT_METRICS,
    "fock.normal_order_repeat_frac", "fock.entries_used_frac", "suite.check_errors",
    "trace.overhead_frac",
)}
