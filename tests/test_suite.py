import json
import math
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rtcheck import fock, suite
from rtcheck.config import build_model, parse_config
from rtcheck.defect import CHUNK, RELATIONS, DefectPair
from rtcheck.doubling import build_doubled_model
from rtcheck.grammar import parse_expression
from rtcheck.report import (
    CheckResult,
    VerificationReport,
    emit_report,
    parse_report,
)
from rtcheck.smatrix import BulkSMatrix, sample_momenta, ybe_residual
from rtcheck.tensor import identity_two_leg, norm_inf, swap_legs
from rtcheck.suite import available_checks, default_checks, run_suite

DELTA_CFG = json.dumps({
    "bulk": {"name": "identity", "dim": 1},
    "defect": {"name": "delta", "eta": 1.0},
    "samples": 12,
    "seed": 5,
})

RATIONAL_CFG = json.dumps({
    "bulk": {"name": "rational", "N": 2, "c": 1.0},
    "defect": {"name": "delta", "eta": 1.0},
    "samples": 10,
    "seed": 3,
})

MIXED_NAMES = {"TSRS+", "TSRS-", "SRST+", "SRST-", "TSR+", "TSR-", "RST+", "RST-"}


class TestReportSerialization:
    def test_empty_check_list_global_pass(self):
        rep = VerificationReport(config={}, checks=(), tolerance=1e-9)
        assert rep.all_pass
        assert "no checks requested" in emit_report(rep, "text")

    def test_json_round_trip(self):
        rep = VerificationReport(
            config={"seed": 1},
            checks=(CheckResult("ybe", 1e-15, (0.1, 0.2), 5, True),),
            tolerance=1e-9,
        )
        assert parse_report(emit_report(rep, "json")) == rep

    def test_boundary_residual_fails_in_both_formats(self):
        rep = VerificationReport(
            config={},
            checks=(CheckResult("ybe", 2e-9, (0.1,), 5, 2e-9 <= 1e-9),),
            tolerance=1e-9,
        )
        assert not rep.all_pass
        assert "FAIL" in emit_report(rep, "text")
        assert json.loads(emit_report(rep, "json"))["checks"][0]["pass"] is False

    def test_unknown_format(self):
        rep = VerificationReport(config={}, checks=(), tolerance=1e-9)
        with pytest.raises(ValueError):
            emit_report(rep, "yaml")


class TestSuite:
    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_cyclic_points_equal_the_index_walk(self, size):
        """Each momentum with the size - 1 that follow it, cyclically, also
        when there are fewer momenta than the size."""
        for count in range(1, 8):
            vals = [float(k) for k in np.linspace(-2.5, 2.9, count)]
            want = [tuple(vals[(i + j) % count] for j in range(size)) for i in range(count)]
            got = suite._cyclic(size)(tuple(vals))
            assert got == want
            assert all(x is y for p, q in zip(got, want) for x, y in zip(p, q))

    def test_delta_full_default_suite_passes(self):
        model = build_model(parse_config(DELTA_CFG))
        report = run_suite(model)
        failed = [c.check_id for c in report.checks if not c.passed]
        assert failed == []
        assert report.all_pass

    def test_doubled_rational_fails_exactly_the_mixed_relations(self):
        # the mixed relations are the no-go obstruction for a nontrivial
        # translation-invariant bulk; everything else holds
        model = build_model(parse_config(RATIONAL_CFG))
        report = run_suite(model)
        failed = {c.check_id for c in report.checks if not c.passed}
        assert failed == MIXED_NAMES
        for c in report.checks:
            if c.check_id in MIXED_NAMES:
                assert c.max_residual > 1e-3

    def test_negative_control_discriminates(self):
        cfg = parse_config(json.dumps({
            "bulk": {"name": "identity", "dim": 1},
            "defect": {"name": "custom",
                       "transmission": "k/(k+1i)",
                       "reflection": "(-1.1i)/(k+1i)"},
            "samples": 10,
            "seed": 3,
            "checks": ["ybe", "unitarity-S", "defect-unitarity",
                        "symmetrized-unitarity", "J-squared",
                        "TSRS+(doubled)", "rr1", "tt1", "tr1"],
        }))
        report = run_suite(build_model(cfg))
        by_id = {c.check_id: c for c in report.checks}
        assert by_id["ybe"].passed
        assert by_id["unitarity-S"].passed
        assert not by_id["defect-unitarity"].passed
        assert by_id["defect-unitarity"].max_residual > 1e-3
        assert not by_id["J-squared"].passed
        assert by_id["TSRS+(doubled)"].max_residual > 1e-3
        # relations homogeneous in R are insensitive to the rescaling
        assert by_id["rr1"].passed and by_id["tt1"].passed and by_id["tr1"].passed

    def test_unknown_check_is_named(self):
        cfg = parse_config(json.dumps({"checks": ["ybe", "nonsense-check"]}))
        with pytest.raises(ValueError, match="nonsense-check"):
            run_suite(build_model(cfg))

    def test_determinism_byte_identical(self):
        r1 = emit_report(run_suite(build_model(parse_config(DELTA_CFG))), "json")
        r2 = emit_report(run_suite(build_model(parse_config(DELTA_CFG))), "json")
        assert r1 == r2

    def test_seed_changes_report(self):
        other = json.loads(DELTA_CFG)
        other["seed"] = 6
        r1 = run_suite(build_model(parse_config(DELTA_CFG)))
        r2 = run_suite(build_model(parse_config(json.dumps(other))))
        assert r1.config["seed"] != r2.config["seed"]

    def test_default_checks_cover_core_identities(self):
        model = build_model(parse_config(DELTA_CFG))
        names = set(default_checks(model))
        for expected in ("ybe", "unitarity-S", "SRSR+", "TST", "rr1",
                         "reduced-rho-rho", "J-squared", "factorization(2)",
                         "hierarchy-commutator(0,2)"):
            assert expected in names

    def test_available_checks_sorted_and_complete(self):
        names = available_checks()
        assert list(names) == sorted(names)
        assert "TSRS+(doubled)" in names

    def test_doubled_checks_need_doubled_model(self):
        cfg = parse_config(json.dumps({"doubled": False, "checks": ["rr1"]}))
        with pytest.raises(ValueError, match="doubled"):
            run_suite(build_model(cfg))

    def test_factorization_needs_enough_samples(self):
        cfg = parse_config(json.dumps({"samples": 2, "checks": ["factorization(3)"]}))
        with pytest.raises(ValueError, match="sampled momenta"):
            run_suite(build_model(cfg))

    def test_scalar_sector_checks_rejected_for_matrix_bulk(self):
        cfg = parse_config(json.dumps({
            "bulk": "rational:N=2,c=1", "checks": ["factorization(1)"]}))
        with pytest.raises(ValueError, match="scalar isotopic"):
            run_suite(build_model(cfg))

    def test_nan_residual_is_reported_and_fails(self):
        # T(k) = inf * k makes T(k) T(k) + R(k) R(-k) - 1 NaN at every point
        cfg = parse_config(json.dumps({
            "bulk": {"name": "identity", "dim": 1},
            "defect": {"name": "custom", "transmission": "1e308*1e308*k",
                       "reflection": "0"},
            "samples": 6,
            "checks": ["defect-unitarity", "ybe"],
        }))
        with np.errstate(all="ignore"):
            report = run_suite(build_model(cfg))
        unitarity, ybe = report.checks
        assert math.isnan(unitarity.max_residual)
        assert unitarity.worst_momenta != ()
        assert not unitarity.passed
        assert ybe.passed
        assert not report.all_pass

    def test_nonfinite_datum_at_one_momentum_fails_there(self):
        # the custom transmission "1e308*1e308*k" at one sampled momentum only,
        # which two cyclic pairs share, one on each side of a chunk boundary
        raw = {"bulk": "rational:N=2", "samples": 2 * CHUNK + 1, "seed": 4,
               "checks": ["tt1", "tr1", "reduced-tau-tau"]}
        model = build_model(parse_config(json.dumps(raw)))
        bad = sample_momenta(2 * CHUNK + 1, seed=4)[CHUNK]
        overflow, half = parse_expression("1e308*1e308*k"), model.half_line
        T = lambda k: overflow(k) * np.eye(2) if k == bad else half.T(k)
        broken = DefectPair(2, half.R, T)
        model = replace(model, half_line=broken, doubled=build_doubled_model(model.bulk, broken))
        with np.errstate(all="ignore"):
            report = run_suite(model)
        for check in report.checks:
            assert not check.passed and not math.isfinite(check.max_residual)
            assert bad in check.worst_momenta

    def test_checks_are_thread_safe(self):
        # evaluators are pure and models immutable: concurrent runs over the
        # same model must reproduce the sequential report exactly
        from concurrent.futures import ThreadPoolExecutor

        model = build_model(parse_config(DELTA_CFG))
        sequential = emit_report(run_suite(model), "json")
        with ThreadPoolExecutor(max_workers=4) as pool:
            reports = list(pool.map(
                lambda _: emit_report(run_suite(model), "json"), range(4)
            ))
        assert all(r == sequential for r in reports)


# --- the array contract: every check takes its points as momentum arrays ----

GOLDEN_CONFIGS = sorted((Path(__file__).parent / "golden" / "configs").glob("*.json"))


def _one_point_ybe(S, k1, k2, k3):
    """The sector-blocked Yang-Baxter kernel at one triple, written for one
    point on the blocks read out of the dense matrices: the reference for the
    batched one, which reads S.sector_blocks."""
    m, d = S.sectors, S.leg_dim // S.sectors
    factors = np.array([S.eval(a, b) for a, b in ((k1, k2), (k1, k3), (k2, k3))], dtype=complex)
    # axes (factor, row s1, s2, column s1', s2', row i1, i2, column j1, j2)
    u = factors.reshape(3, m, d, m, d, m, d, m, d).transpose(0, 1, 3, 5, 7, 2, 4, 6, 8)
    diagonal = np.arange(m * m)  # a sector (s1, s2) to itself
    blocks = u.reshape(3, m * m, m * m, d * d, d * d)[:, diagonal, diagonal]
    blocks = blocks.reshape(3, m, m, d * d, d * d)
    s12 = blocks[0].reshape(m, m, 1, d * d, d * d)
    s13 = blocks[1].reshape(m, 1, m, d, d, d, d)
    s23 = blocks[2].reshape(1, m, m, d, d, d, d)
    lhs = s13.reshape(m, 1, m, -1, d) @ s23.transpose(0, 1, 2, 4, 3, 5, 6).reshape(1, m, m, d, -1)
    lhs = lhs.reshape(m, m, m, d, d, d, d, d, d).transpose(0, 1, 2, 3, 6, 4, 5, 7, 8)
    lhs = s12 @ lhs.reshape(m, m, m, d * d, -1)
    rhs = s13.transpose(0, 1, 2, 3, 4, 6, 5).reshape(m, 1, m, -1, d) @ s12.reshape(m, m, 1, d, -1)
    rhs = rhs.reshape(m, m, m, d, d, d, d, d, d).transpose(0, 1, 2, 3, 6, 4, 7, 8, 5)
    rhs = s23.reshape(1, m, m, 1, d * d, d * d) @ rhs.reshape(m, m, m, d, d * d, -1)
    return float(np.abs(lhs.reshape(m**3, -1) - rhs.reshape(m**3, -1)).max())


def _one_point_vacuum(D, k):
    eye = np.eye(D.dim, dtype=complex)
    t_k, t_mk, r_k, r_mk = D.T(k), D.T(-k), D.R(k), D.R(-k)
    return norm_inf(t_k @ t_k + r_k @ r_mk - eye) + norm_inf(t_k @ r_k + r_k @ t_mk)


def _one_point_symmetrized(D, k):
    eye = np.eye(D.dim, dtype=complex)
    t_k, t_mk, r_k, r_mk = D.T(k), D.T(-k), D.R(k), D.R(-k)
    res = norm_inf(t_k @ t_mk + r_k @ r_mk - eye)
    res += norm_inf(t_k @ r_mk + r_k @ t_mk)
    res += norm_inf(t_k.conj().T - t_mk)
    return res + norm_inf(r_k.conj().T - r_mk)


def _one_point_u_squared(D, k):
    u = np.block([[D.T(k), D.R(k)], [D.R(-k), D.T(-k)]])
    return norm_inf(u @ u - np.eye(u.shape[0]))


def _one_point_j_squared(dm, k):
    J = fock.involution_kernel(dm, k)
    JJ = fock.compose(J, J, fock.involution_kernel(dm, -k))
    return fock.kernel_distance(JJ, fock.identity_kernel(dm.doubled_dim))


def _one_point_opta(dm, p):
    expr = fock.normal_order_vev([fock.a("p"), fock.ad("k")], dm)
    opta = fock.one_particle_amplitude(dm.half_line, p)
    jobs = [(next(t for t in expr.terms if t.pairing[0][2] == rel), {"p": p, "k": p / rel})
            for rel in (+1, -1)]
    worst = 0.0
    for coeff, ref in zip(fock.physical_coefficients(expr, jobs, dm), (opta.A, opta.B)):
        worst = max(worst, abs(coeff - complex(ref[0, 0])))
    return worst


# check -> its residual at one point of Python floats, 2-d matrices throughout
ONE_POINT = {
    "ybe": lambda t, *k: _one_point_ybe(t.S, *k),
    "ybe(doubled)": lambda t, *k: _one_point_ybe(t.S, *k),
    "unitarity-S": lambda t, a, b: norm_inf(
        t.S.eval(a, b) @ swap_legs(t.S.eval(b, a)) - identity_two_leg(t.S.leg_dim)),
    "unitarity-S(doubled)": lambda t, a, b: norm_inf(
        t.S.eval(a, b) @ swap_legs(t.S.eval(b, a)) - identity_two_leg(t.S.leg_dim)),
    "shift-invariance": lambda t, a, b: norm_inf(t.S.eval(a, b) - t.S.eval(a + 0.5, b + 0.5)),
    "defect-unitarity": lambda t, k: _one_point_vacuum(t.pair, k),
    "hermitian-analyticity": lambda t, k: (norm_inf(t.pair.T(k).conj().T - t.pair.T(k))
                                          + norm_inf(t.pair.R(k).conj().T - t.pair.R(-k))),
    "symmetrized-unitarity": lambda t, k: _one_point_symmetrized(t.dm.half_line, k),
    "J-squared": lambda t, k: _one_point_j_squared(t.dm, k),
    "involution-U-squared": lambda t, k: _one_point_u_squared(t.pair, k),
    "opta-agreement": lambda t, k: _one_point_opta(t.dm, k),
    **{f"factorization({n})": lambda t, *k: fock.factorization_residual(
        len(k), list(k), sorted(k, reverse=True), t.dm) for n in (1, 2, 3, 4)},
    **{f"hierarchy-commutator({m},{n})": lambda t, k, m=m, n=n: fock.hierarchy_commutator_residual(
        m, n, t.dm, k) for m, n in ((0, 2), (1, 3), (2, 4), (0, 1), (1, 2))},
    **{f"hierarchy-relation({n})": lambda t, k, n=n: fock.hierarchy_relation_residual(n, t.dm, k)
       for n in (0, 2)},
}


def _golden_model(path, seed, samples=None):
    raw = {**json.loads(path.read_text()), "seed": seed}
    raw.pop("checks", None)
    if samples is not None:
        raw["samples"] = samples
    return build_model(parse_config(json.dumps(raw)))


class TestArrayResiduals:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("path", GOLDEN_CONFIGS, ids=lambda p: p.stem)
    def test_array_residuals_equal_the_one_point_loop(self, path, seed):
        """Each check's residuals at its momentum arrays are, bit for bit,
        the residuals of a loop over its points with one point at a time."""
        model = _golden_model(path, seed)
        cfg = model.cfg
        momenta = sample_momenta(cfg.samples, cfg.exclusion_radius, cfg.seed)
        ran = 0
        for name, one_point in ONE_POINT.items():
            spec = suite.CHECKS[name]
            if suite._unmet(spec, model, cfg.samples) is not None:
                continue
            t, points = suite._target(spec, model), spec.points(momenta)
            got = spec.residual(t, *np.array(points, dtype=float).T)
            assert [float(g) for g in got] == [float(one_point(t, *pt)) for pt in points], name
            ran += 1
        assert ran >= 10

    # check -> (the reader it reads: target S, doubled pair or half-line pair, its calls)
    READS = {
        "ybe": ("S", 3), "ybe(doubled)": ("S", 3), "unitarity-S": ("S", 2),
        "unitarity-S(doubled)": ("S", 2), "shift-invariance": ("S", 2),
        "defect-unitarity": ("pair", 4), "hermitian-analyticity": ("pair", 3),
        "involution-U-squared": ("pair", 4), "J-squared": ("pair", 4),
        "symmetrized-unitarity": ("half", 4), "opta-agreement": ("half", 2),
        **{f"factorization({n})": ("half", 2) for n in (1, 2, 3, 4)},
    }
    # check -> the jobs of its one engine batch at a point count: two cases per
    # momentum, or the 2^n sign patterns of factorization(n)'s one point
    BATCHES = {"opta-agreement": lambda count: 2 * count,
               **{f"factorization({n})": lambda count, n=n: 2 ** n for n in (1, 2, 3, 4)}}

    @pytest.mark.parametrize("bulk", ["identity:dim=1", "rational:N=2"])
    def test_one_reader_call_per_factor_not_per_point(self, bulk, monkeypatch):
        """Each check reads each of its factors once, on the momentum arrays,
        as its smallest point count does.  Yang-Baxter and unitarity take 40 points
        in one chunk at leg dimension <= 2, so they are counted there.  A read
        of a doubled matrix's blocks is a read of that factor; the doubled
        checks make no dense read besides."""
        calls = Counter()

        def counted(cls, attr, reads=lambda obj: True):
            read = getattr(cls, attr)

            def reader(self, *ks):
                calls[id(self)] += reads(self)
                return read(self, *ks)

            monkeypatch.setattr(cls, attr, reader)

        counted(BulkSMatrix, "eval")
        counted(BulkSMatrix, "sector_blocks", lambda S: S.blocks is not None)
        counted(DefectPair, "R")
        counted(DefectPair, "T")
        batches = []
        physical = fock.physical_coefficients
        monkeypatch.setattr(fock, "physical_coefficients",
                            lambda expr, jobs, dm: batches.append(len(jobs)) or physical(
                                expr, jobs, dm))
        model = build_model(parse_config(json.dumps(
            {"bulk": bulk, "defect": "delta", "doubled": True, "samples": 40})))
        momenta = sample_momenta(40, seed=2)
        ran = 0
        for name, (reader, n) in self.READS.items():
            spec = suite.CHECKS[name]
            if suite._unmet(spec, model, 40) is not None:
                continue
            t = suite._target(spec, model)
            if reader == "S" and t.S.leg_dim > 2:  # Yang-Baxter and unitarity go in chunks
                continue
            label = {"S": t.S, "pair": t.pair, "half": t.dm.half_line}[reader]
            for count in (spec.min_samples, 40):
                calls.clear()
                batches.clear()
                points = spec.points(momenta[:count])
                spec.residual(t, *np.array(points, dtype=float).T)
                assert calls[id(label)] == n, (name, count)
                assert batches == ([self.BATCHES[name](count)] if name in self.BATCHES else [])
            ran += 1
        assert ran == (15 if bulk.startswith("identity") else 8)

    @pytest.mark.parametrize("name", ["hierarchy-commutator(0,1)", "hierarchy-relation(2)"])
    def test_engine_leaf_reads_do_not_grow_with_the_points(self, name, monkeypatch):
        """The engine reads the leaves of each contraction with one call per
        flavour on the array of their momenta, so the doubled S-matrix and
        pairs are called as often at 50 momenta as at 1."""
        calls = Counter()

        def counted(cls, attr, doubled):
            read = getattr(cls, attr)

            def reader(self, *ks):
                calls[attr] += doubled(self)
                return read(self, *ks)

            monkeypatch.setattr(cls, attr, reader)

        counted(BulkSMatrix, "eval", lambda S: S.sectors == 2)
        counted(DefectPair, "R", lambda D: D.blocks is not None)
        counted(DefectPair, "T", lambda D: D.blocks is not None)
        model = build_model(parse_config(json.dumps(
            {"bulk": "rational:N=2", "defect": "delta", "doubled": True, "samples": 50})))
        spec = suite.CHECKS[name]
        t = suite._target(spec, model)
        momenta = sample_momenta(50, seed=3)
        counts = []
        for count in (1, 50):
            calls.clear()
            spec.residual(t, *np.array(spec.points(momenta[:count]), dtype=float).T)
            counts.append(dict(calls))
        assert counts[0] == counts[1], counts
        assert counts[0]["R"] and counts[0]["T"], counts

    # check -> its calls of the doubled pair's R and T, at 1 and at 50 momenta
    ENGINE_READS = {
        # one call for H at ps and -ps and the reflection moment at ps: C-R
        # and C-T, each once on all its momenta, the dress calR read with C-R
        "hierarchy-commutator(0,1)": {"R": 1, "T": 1},
        # one call for the 7 words: the contraction leaves are the plain ZF
        # constants, read by no call, and the dresses I + calT, calT and calR
        # (at w and -w) are the model's, one call each
        "hierarchy-relation(2)": {"R": 1, "T": 2},
    }

    @pytest.mark.parametrize("name", sorted(ENGINE_READS))
    def test_engine_reads_each_leaf_once_per_momentum_array(self, name, monkeypatch):
        """A hierarchy residual reads each leaf flavour (a contraction matrix
        or a dress) with one call on all its momenta, and its four-word
        networks have no S leaf: no doubled S-matrix call, and exactly these
        pair calls at any count."""
        calls = Counter()

        def counted(cls, attr, doubled):
            read = getattr(cls, attr)

            def reader(self, *ks):
                calls[attr] += doubled(self)
                return read(self, *ks)

            monkeypatch.setattr(cls, attr, reader)

        counted(BulkSMatrix, "eval", lambda S: S.sectors == 2)
        counted(DefectPair, "R", lambda D: D.blocks is not None)
        counted(DefectPair, "T", lambda D: D.blocks is not None)
        model = build_model(parse_config(json.dumps(
            {"bulk": "rational:N=2", "defect": "delta", "doubled": True, "samples": 50})))
        spec = suite.CHECKS[name]
        t = suite._target(spec, model)
        momenta = sample_momenta(50, seed=3)
        for count in (1, 50):
            calls.clear()
            spec.residual(t, *np.array(spec.points(momenta[:count]), dtype=float).T)
            assert dict(calls) == self.ENGINE_READS[name], count

    def test_doubled_yang_baxter_memory_stays_flat(self):
        """200 doubled N = 3 triples, a few at a time: all at once added 78 MB
        of peak memory, 24 at a time 9-12 MB."""
        dm = build_model(parse_config(json.dumps(
            {"bulk": "rational:N=3", "defect": "delta", "doubled": True}))).doubled
        points = suite.CHECKS["ybe(doubled)"].points(sample_momenta(200, seed=4))
        ks = np.array(points, dtype=float).T
        ybe_residual(dm.calS, *ks[:, :2])  # first-call allocations
        tracemalloc.start()
        try:
            got = ybe_residual(dm.calS, *ks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(got) == 200 and max(got) < 1e-13
        assert peak < 1.5e6, peak

    def test_an_infinite_transmission_fails_opta_agreement(self):
        """The engine and the projected kernel both read T = inf: their gap
        is nan at every point, which fails the check instead of dropping out."""
        model = build_model(parse_config(json.dumps({
            "bulk": "identity:dim=1", "doubled": True, "samples": 5, "checks": ["opta-agreement"],
            "defect": {"name": "custom", "transmission": "1e308*1e308*k", "reflection": "0"}})))
        (check,) = run_suite(model).checks
        assert not check.passed and math.isnan(check.max_residual)

    def test_an_infinite_transmission_fails_factorization(self):
        """The engine amplitude and the product of one-particle amplitudes
        both read T = inf: a nan gap is kept by the max over sign patterns,
        as by defect-unitarity and J-squared, instead of reading 0.0."""
        checks = ["factorization(1)", "factorization(2)", "defect-unitarity", "J-squared"]
        model = build_model(parse_config(json.dumps({
            "bulk": "identity:dim=1", "doubled": True, "samples": 5, "checks": checks,
            "defect": {"name": "custom", "transmission": "1e308*1e308*k", "reflection": "0"}})))
        for check in run_suite(model).checks:
            assert not check.passed and math.isnan(check.max_residual), check.check_id


# --- rows that share an evaluator and a target run in one call --------------

GROUPED_ROWS = ["tt1", "TST", "tt1", "reduced-tau-tau", "TST(doubled)",
                "hierarchy-commutator(1,2)", "ybe", "hierarchy-commutator(0,2)",
                "hierarchy-commutator(1,2)"]


def _row_by_row(model):
    """The report of one run_suite per requested row, in the requested order."""
    cfg = model.cfg
    rows = [run_suite(replace(model, cfg=replace(cfg, checks=(name,)))).checks[0]
            for name in cfg.checks or default_checks(model)]
    return VerificationReport(config=cfg.echo(), checks=tuple(rows), tolerance=cfg.tolerance)


def _counted(fn, calls, name):
    def counted(*args):
        calls[name] += 1
        return fn(*args)

    return counted


class TestSharedRows:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("path", GOLDEN_CONFIGS, ids=lambda p: p.stem)
    def test_a_run_equals_one_run_per_row(self, path, seed):
        """Rows evaluated together give the bytes of each row run alone."""
        raw = {**json.loads(path.read_text()), "seed": seed}
        model = build_model(parse_config(json.dumps(raw)))
        assert emit_report(run_suite(model), "json") == emit_report(_row_by_row(model), "json")

    @pytest.mark.parametrize("cfg", [DELTA_CFG, RATIONAL_CFG], ids=["delta", "rational"])
    def test_interleaved_and_repeated_rows_keep_their_order(self, cfg):
        raw = {**json.loads(cfg), "doubled": True, "checks": GROUPED_ROWS}
        model = build_model(parse_config(json.dumps(raw)))
        report = run_suite(model)
        assert [c.check_id for c in report.checks] == GROUPED_ROWS
        assert report.checks[0] == report.checks[2] and report.checks[5] == report.checks[8]
        assert emit_report(report, "json") == emit_report(_row_by_row(model), "json")

    def test_one_read_per_distinct_factor_chunk_and_target_in_a_whole_run(self, monkeypatch):
        """In a default run each target reads each distinct relation factor
        once per chunk across all its rows, and the four commutator rows
        normal-order the Hamiltonian word and the reflection-moment word once
        each.  Half-line data: one bulk call per S factor, one defect call per
        R or T factor.  Doubled data: one block read per factor, which reads
        the bulk at the four sectors and the half-line data at k and -k."""
        calls = Counter()
        model = build_model(parse_config(json.dumps(
            {"bulk": "rational:N=2", "defect": "delta", "doubled": True, "samples": 40})))
        bulk = replace(model.bulk, fn=_counted(model.bulk.fn, calls, "S"))
        half = replace(model.half_line, reflection=_counted(model.half_line.reflection, calls, "R"),
                       transmission=_counted(model.half_line.transmission, calls, "T"))
        dm = build_doubled_model(bulk, half)
        dm = replace(dm, calS=replace(dm.calS, blocks=_counted(dm.calS.blocks, calls, "calS")),
                     defect=replace(dm.defect, blocks=_counted(dm.defect.blocks, calls, "blocks")))
        model = replace(model, bulk=bulk, half_line=half, doubled=dm)
        chunks = 2  # 40 pairs, CHUNK at a time
        assert math.ceil(40 / CHUNK) == chunks

        def factors(rows):
            words = [RELATIONS[suite.CHECKS[row].key] for row in rows]
            distinct = {f for word in words for f in word[0] + word[1]}
            return Counter("S" if f[0] == "S21" else f[0] for f in distinct)

        names = default_checks(model)
        relation_rows = [n for n in names if suite.CHECKS[n].points is suite._PAIRS
                         and suite.CHECKS[n].shared is not None]
        half_line = factors(n for n in relation_rows if not suite.CHECKS[n].doubled)
        doubled = factors(n for n in relation_rows
                          if suite.CHECKS[n].shared is suite._relations and suite.CHECKS[n].doubled)
        reduced = factors(n for n in relation_rows if suite.CHECKS[n].shared is suite._reduced)
        assert len(relation_rows) == 19 and sum(half_line.values()) == 21
        assert (sum(doubled.values()), sum(reduced.values())) == (9, 10)
        run_suite(replace(model, cfg=replace(model.cfg, checks=tuple(relation_rows))))
        assert calls == {
            "S": chunks * (half_line["S"] + 4 * doubled["S"] + reduced["S"]),
            "calS": chunks * doubled["S"],
            "blocks": chunks * (doubled["R"] + doubled["T"]),
            **{kind: chunks * (half_line[kind] + 2 * doubled[kind] + reduced[kind])
               for kind in "RT"},
        }

        expanded = Counter()
        normal_order = fock.normal_order_vev
        monkeypatch.setattr(fock, "normal_order_vev", lambda word, m: expanded.update(
            [(tuple(s.dress is not None for s in word), m is dm)]) or normal_order(word, m))
        calls.clear()
        run_suite(model)
        # with each row reading on its own: S 177, R 116, T 98, calS 24, blocks 12;
        # the hierarchy's calR dresses are read with its calR contraction leaves
        assert dict(calls) == {"S": 105, "R": 46, "T": 50, "calS": 18, "blocks": 8}
        # the commutators' Hamiltonian and reflection-moment words, once each
        # (with each row on its own, four times each), and the relation's
        # seven words on the run's model: four with both middle symbols
        # dressed, the ZF word and its calT and calR impurity words
        assert {shape: n for (shape, on_dm), n in expanded.items() if on_dm} == {
            (False, False, False, False): 2, (False, False, True, False): 3,
            (False, True, True, False): 4}
