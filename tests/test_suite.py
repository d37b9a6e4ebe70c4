import json
import math
from dataclasses import replace

import numpy as np
import pytest

from rtcheck.config import build_model, parse_config
from rtcheck.defect import CHUNK, DefectPair
from rtcheck.doubling import build_doubled_model
from rtcheck.grammar import parse_expression
from rtcheck.report import (
    CheckResult,
    VerificationReport,
    emit_report,
    parse_report,
)
from rtcheck.smatrix import sample_momenta
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
