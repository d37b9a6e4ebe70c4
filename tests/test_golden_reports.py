"""Verify reports and the check catalog stay as recorded in tests/golden/.

tests/golden/configs/ holds ten configs; tests/golden/<name>.json and
<name>.txt are the `rtcheck verify --format json` and `--format text` output
recorded for each, and catalog.json is the output of `rtcheck catalog`.
tests/golden/shorthand/ holds configs that spell a golden config's catalog
entries in the "name:key=value" shorthand; they give its report byte for byte.
Exit codes, check ids and their order, verdicts, worst momenta and the
catalog must match exactly.  A max_residual must match within an absolute
1e-12, so that another BLAS cannot turn a rounding-level difference into a
failure.  To record a report again:

    PYTHONPATH=src python -m rtcheck.cli verify \\
        --config tests/golden/configs/<name>.json --format json > tests/golden/<name>.json
"""

import json
from pathlib import Path

import pytest

from rtcheck.cli import main

GOLDEN = Path(__file__).parent / "golden"
EXIT_CODES = {
    "delta_n1": 0,
    "rational_n2": 1,
    "rational_n3": 1,
    "permutation_transmission": 0,
    "custom_defect": 0,
    "doubled_rows": 0,
    "permutation3_reflection": 0,
    "grouped_rows": 1,  # TST(doubled) fails on the delta impurity
    "hierarchy_rows": 0,
    "hierarchy_rows_n2": 0,  # the same rows on rational N=2, not cmp'd: BLAS-rounded
}
RESIDUAL_ATOL = 1e-12


def _verify(name: str, fmt: str, capsys) -> str:
    config = GOLDEN / "configs" / f"{name}.json"
    assert main(["verify", "--config", str(config), "--format", fmt]) == EXIT_CODES[name]
    return capsys.readouterr().out


def _pop_residuals(report: dict) -> list[float]:
    return [check.pop("max_residual") for check in report["checks"]]


def _text_row(line: str) -> tuple[str, float, str]:
    """(check id, max residual, the columns after it) of one table row."""
    check_id, residual, rest = line.split(None, 2)
    return check_id, float(residual), rest


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_json_report_matches_golden(name, capsys):
    got = json.loads(_verify(name, "json", capsys))
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    assert _pop_residuals(got) == pytest.approx(_pop_residuals(want), abs=RESIDUAL_ATOL)
    assert got == want


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_text_report_matches_golden(name, capsys):
    got = _verify(name, "text", capsys).splitlines()
    want = (GOLDEN / f"{name}.txt").read_text().splitlines()
    assert len(got) == len(want)
    # four header lines, one row per check, then the global verdict
    assert got[:4] == want[:4] and got[-1] == want[-1]
    for got_line, want_line in zip(got[4:-1], want[4:-1]):
        got_id, got_residual, got_rest = _text_row(got_line)
        want_id, want_residual, want_rest = _text_row(want_line)
        assert (got_id, got_rest) == (want_id, want_rest)
        assert got_residual == pytest.approx(want_residual, abs=RESIDUAL_ATOL)


def test_catalog_matches_golden(capsys):
    assert main(["catalog"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "catalog.json").read_text()


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_shorthand_config_gives_the_report_of_its_object_form(fmt, capsys):
    """The shorthand "identity:dim=1" echoes "dim": 1, as the object
    {"name": "identity", "dim": 1} does: one model, one report."""
    reports = []
    for folder in ("configs", "shorthand"):
        assert main(["verify", "--config", str(GOLDEN / folder / "delta_n1.json"),
                     "--format", fmt]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
