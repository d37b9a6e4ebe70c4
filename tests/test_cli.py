import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rtcheck
from rtcheck import cli, fock
from rtcheck.cli import amplitude_json, main, make_parser
from rtcheck.grammar import ExpressionError, parse_expression


def _cli_env():
    src = Path(rtcheck.__file__).resolve().parents[1]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def run_cli(*args):
    """rtcheck in a fresh interpreter, so stderr shows everything it prints."""
    return subprocess.run(
        [sys.executable, "-m", "rtcheck.cli", *args],
        env=_cli_env(), capture_output=True, text=True, timeout=60,
    )


def start_cli(*args):
    """rtcheck in a fresh interpreter, its stdout and stderr pipes open."""
    return subprocess.Popen([sys.executable, "-m", "rtcheck.cli", *args], env=_cli_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


VERIFY = ["verify"]


@pytest.fixture
def delta_config(tmp_path):
    path = tmp_path / "delta.json"
    path.write_text(json.dumps({
        "bulk": {"name": "identity", "dim": 1},
        "defect": {"name": "delta", "eta": 1.0},
        "samples": 8,
        "seed": 5,
    }))
    return str(path)


@pytest.fixture
def rational_config(tmp_path):
    path = tmp_path / "rational.json"
    path.write_text(json.dumps({
        "bulk": {"name": "rational", "N": 2, "c": 1.0},
        "defect": {"name": "delta", "eta": 1.0},
        "samples": 8,
        "seed": 5,
    }))
    return str(path)


class TestVerify:
    def test_delta_suite_exit_zero(self, delta_config, capsys):
        assert main(["verify", "--config", delta_config]) == 0
        out = capsys.readouterr().out
        assert "global: PASS" in out

    def test_rational_suite_exit_one(self, rational_config, capsys):
        assert main(["verify", "--config", rational_config]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_json_format_deterministic(self, delta_config, capsys):
        assert main(["verify", "--config", delta_config, "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--config", delta_config, "--format", "json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        parsed = json.loads(first)
        assert parsed["all_pass"] is True

    def test_seed_override(self, delta_config, capsys):
        assert main(["verify", "--config", delta_config, "--seed", "11",
                     "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["config"]["seed"] == 11

    def test_negative_seed_override_exit_two(self, delta_config, capsys):
        assert main(["verify", "--config", delta_config, "--seed", "-5"]) == 2
        assert capsys.readouterr().err == "rtcheck: error: seed must be >= 0, got -5\n"

    @pytest.mark.parametrize("fields, message, command", [
        ({"seed": -1}, "seed must be >= 0, got -1", VERIFY),
        # an infinite tolerance would pass the failing mixed relation SRST+
        ({"tolerance": float("inf"), "bulk": "rational:N=2", "checks": ["SRST+"]},
         "tolerance must be finite, got inf", VERIFY),
        ({"tolerance": float("nan")}, "tolerance must be finite, got nan", VERIFY),
        ({"exclusion_radius": float("nan")}, "exclusion_radius must be finite, got nan", VERIFY),
        ({"samples": 0}, "samples must be >= 1", VERIFY),
        ({"exclusion_radius": 0}, "exclusion_radius must be > 0", VERIFY),
        ([], "config must be a JSON object", VERIFY),
        ({"bulk": 5}, "catalog entry must be an object or string, got 5", VERIFY),
        ({"bulk": {"dim": 2}}, "bulk section must be an object with a 'name'", VERIFY),
        ({"doubled": False}, "amplitude queries need a doubled model (doubled: true)",
         ["amplitude", "--n", "0"]),
    ], ids=["seed", "tolerance-inf", "tolerance-nan", "radius-nan", "samples-0", "radius-0",
            "config-list", "bulk-number", "bulk-nameless", "amplitude-undoubled"])
    def test_out_of_range_config_value_exit_two(self, fields, message, command, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(fields))
        assert main([*command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"rtcheck: error: {message}\n"

    def test_config_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"bulk": {"name": "nosuch"}}))
        assert main(["verify", "--config", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_check_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checks": ["totally-bogus"]}))
        assert main(["verify", "--config", str(cfg)]) == 2
        assert "totally-bogus" in capsys.readouterr().err

    def test_deeply_nested_custom_defect_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "deep.json"
        deep = "(" * 3000 + "k" + ")" * 3000
        cfg.write_text(json.dumps({
            "defect": {"name": "custom", "transmission": deep, "reflection": "0"},
        }))
        assert main(["verify", "--config", str(cfg)]) == 2
        assert "nests deeper" in capsys.readouterr().err

    def test_mistyped_config_value_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checks": "ybe"}))
        assert main(["verify", "--config", str(cfg)]) == 2
        assert "checks" in capsys.readouterr().err

    def test_missing_file_exit_two(self, capsys):
        assert main(["verify", "--config", "/nonexistent.json"]) == 2

    def test_division_by_zero_in_custom_defect_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "defect": {"name": "custom", "transmission": "k/(k-k)", "reflection": "0"},
            "checks": ["TST"],
        }))
        assert main(["verify", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("rtcheck: error: division by zero in 'k/(k-k)' at k = ")
        assert "Traceback" not in err

    def test_nonfinite_defect_data_fails_its_checks(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "defect": {"name": "custom", "transmission": "1e308*1e308*k", "reflection": "0"},
            "checks": ["TST", "reduced-tau-tau"],
        }))
        proc = run_cli("verify", "--config", str(cfg))
        assert proc.returncode == 1
        assert proc.stderr == ""
        rows = [line.split()[:4] for line in proc.stdout.splitlines()[4:6]]
        assert rows == [["TST", "nan", "50", "FAIL"], ["reduced-tau-tau", "nan", "50", "FAIL"]]

    @pytest.mark.parametrize("section", [
        {"bulk": {"name": "identity", "dim": 2.7}},
        {"bulk": {"name": "identity", "dim": -1}},
        {"bulk": {"name": "permutation", "dim": True}},
        {"bulk": {"name": "rational", "N": "3"}},
        {"bulk": {"name": "rational", "c": True}},
        {"bulk": {"name": "rational", "c": float("inf")}},
        pytest.param({"bulk": {"name": "rational", "c": 10**400}}, id="c = 10**400"),
        {"bulk": {"name": "identity", "dimm": 2}},
        {"defect": {"name": "delta", "eta": "2"}},
        {"defect": {"name": "pure-reflection", "eta": 1.0}},
        {"defect": {"name": "custom", "transmission": 1, "reflection": "0"}},
        {"bulk": {"name": "identity", "dim": 1000}},
        {"bulk": {"name": "identity", "dim": 1e300}},
        {"bulk": "rational:N=7"},
    ], ids=lambda section: json.dumps(section))
    def test_bad_catalog_parameter_exit_two(self, section, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(section))
        assert main(["verify", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("rtcheck: error: ")

    def test_unsatisfiable_exclusion_radius_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"exclusion_radius": 2.0, "samples": 10}))
        assert main(["verify", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "rtcheck: error: could not sample 10 momenta with exclusion radius 2.0\n"
        )

    def test_doubled_yang_baxter_needs_three_samples(self, tmp_path, capsys):
        # with two samples every triple is degenerate, (k1, k2, k1)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 2, "checks": ["ybe(doubled)"]}))
        assert main(["verify", "--config", str(cfg)]) == 2
        assert "needs at least 3 sampled momenta" in capsys.readouterr().err


class TestAmplitude:
    def test_zero_particles_single_unit_term(self, delta_config, capsys):
        assert main(["amplitude", "--config", delta_config, "--n", "0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["terms"]) == 1
        assert out["terms"][0]["coefficient"] == {"re": 1.0, "im": 0.0}

    def test_one_particle_terms_match_amplitudes(self, delta_config, capsys):
        assert main(["amplitude", "--config", delta_config,
                     "--n", "1", "--in=-1.3", "--out=1.3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["terms"]) == 2
        by_sign = {t["pairing"][0]["sign"]: t["coefficient"] for t in out["terms"]}
        # transmission branch at p = -1.3, reflection branch at p = +1.3
        t_val = complex(by_sign[1]["re"], by_sign[1]["im"])
        r_val = complex(by_sign[-1]["re"], by_sign[-1]["im"])
        T = lambda k: k / (k + 1j)
        R = lambda k: -1j / (k + 1j)
        assert abs(t_val - T(1.3)) < 1e-12
        assert abs(r_val - R(1.3)) < 1e-12

    def test_two_particle_term_list(self, delta_config, capsys):
        assert main(["amplitude", "--config", delta_config, "--n", "2",
                     "--in=-1.3,2.1", "--out=2.1,-1.3"]) == 0
        out = json.loads(capsys.readouterr().out)
        # two matchings times two delta branches per pair
        assert len(out["terms"]) == 8
        assert all(len(t["pairing"]) == 2 for t in out["terms"])

    def test_ordering_enforced_without_flag(self, delta_config, capsys):
        assert main(["amplitude", "--config", delta_config, "--n", "2",
                     "--in=2.1,-1.3", "--out=2.1,-1.3"]) == 2
        err = capsys.readouterr().err
        assert "allow-nonphysical" in err

    def test_nonphysical_flag_allows_and_marks(self, delta_config, capsys):
        assert main(["amplitude", "--config", delta_config, "--n", "2",
                     "--in=2.1,-1.3", "--out=2.1,-1.3",
                     "--allow-nonphysical"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["nonphysical_ordering"] is True

    @pytest.mark.parametrize("flags", [[], ["--allow-nonphysical"]])
    @pytest.mark.parametrize("defect", [
        {"name": "delta", "eta": 1.0},
        {"name": "custom", "transmission": "k/(k+2i)", "reflection": "-2i/(k+2i)"},
        {"name": "pure-transmission"},
        {"name": "pure-reflection"},
    ])
    def test_zero_momentum_is_a_domain_error(self, defect, flags, tmp_path, capsys):
        # no ordering override admits defect data at k = 0
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"bulk": "identity:dim=1", "defect": defect}))
        assert main(["amplitude", "--config", str(path), "--n", "1",
                     "--in=0", "--out=0", *flags]) == 2
        assert capsys.readouterr().err == "rtcheck: error: zero momentum in amplitude query\n"

    def test_nonfinite_momenta_exit_two(self, delta_config, capsys):
        assert main(["amplitude", "--config", delta_config, "--n", "1",
                     "--in=nan", "--out=nan", "--allow-nonphysical"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_momentum_count_validated(self, delta_config, capsys):
        assert main(["amplitude", "--config", delta_config, "--n", "2",
                     "--in=1.0", "--out=2.0"]) == 2

    def test_negative_particle_count_exit_two(self, delta_config, capsys):
        assert main(["amplitude", "--config", delta_config, "--n", "-1",
                     "--in=", "--out="]) == 2
        assert "n must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["3", "-5"])
    def test_seed_is_a_usage_error(self, delta_config, seed, capsys):
        # amplitude samples nothing, so it takes no seed
        with pytest.raises(SystemExit) as exc:
            main(["amplitude", "--config", delta_config, "--n", "0", "--seed", seed])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    def test_four_particles_at_n2_finish_in_a_fresh_process(self, rational_config):
        # 384 terms over (2N)^8-entry networks: minutes with one unplanned
        # einsum per network, about a second with planned, sliced contraction
        proc = run_cli("amplitude", "--config", rational_config,
                       "--n", "4", "--in=-2.1,-0.7,0.9,2.5", "--out=2.4,1.1,-0.5,-1.9")
        assert proc.returncode == 0, proc.stderr
        assert len(json.loads(proc.stdout)["terms"]) == 384


GOLDEN_AMPLITUDE = Path(__file__).parent / "golden" / "amplitude"
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e16, -1e16, 1e22, 1.0, -1.0, 3.0,
               1.5, 0.1, float("nan"), float("inf"), float("-inf")]
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(),
                   st.integers(-2**53, 2**53).map(float))
labels = st.one_of(st.sampled_from(["k1", "p1", "k6", "p6"]), st.text(max_size=4))
pair = st.tuples(labels, labels, st.sampled_from([1, -1]))
# every term of a query has as many pairs
term_lists = st.integers(0, 6).flatmap(lambda size: st.lists(st.tuples(
    st.lists(pair, min_size=size, max_size=size), st.builds(complex, floats, floats)), max_size=5))


def _written(n, ks, ps, nonphysical, terms) -> str:
    """``amplitude_json`` on (pairing, coefficient) terms, its pair table
    made from their distinct pairs."""
    table = list(dict.fromkeys(p for pairing, _ in terms for p in pairing))
    pairings = np.array([[table.index(p) for p in pairing] for pairing, _ in terms],
                        dtype=np.intp).reshape(len(terms), len(terms[0][0]) if terms else 0)
    values = np.array([value for _, value in terms], dtype=complex)
    return "".join(amplitude_json(n, ks, ps, nonphysical, table, pairings, values))


def _dumps(n, ks, ps, nonphysical, terms) -> str:
    """The amplitude document the way the CLI wrote it before the emitter."""
    doc = {
        "n": n,
        "in_momenta": ks,
        "out_momenta": ps,
        "nonphysical_ordering": nonphysical,
        "terms": [
            {"pairing": [{"out": o, "in": i, "sign": s} for o, i, s in pairing],
             "coefficient": {"re": value.real, "im": value.imag},
             "two_pi_power": 0}
            for pairing, value in terms],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class TestAmplitudeEmitter:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 6), st.lists(floats, max_size=6), st.lists(floats, max_size=6),
           st.booleans(), term_lists)
    def test_matches_json_dumps(self, n, ks, ps, nonphysical, terms):
        # NaN and Infinity are written as json.dumps writes them, not RFC 8259
        assert _written(n, ks, ps, nonphysical, terms) == _dumps(n, ks, ps, nonphysical, terms)

    @pytest.mark.parametrize("terms", [[], [([], 1 + 0j)], [([], -0.0 - 0j), ([], 5e-324j)]])
    def test_empty_lists_and_pairings(self, terms):
        for nonphysical in (False, True):
            assert _written(0, [], [], nonphysical, terms) == _dumps(0, [], [], nonphysical, terms)

    def test_streams_one_write_per_term(self, monkeypatch, tmp_path):
        writes = []
        out = type("Out", (), {"write": writes.append, "flush": lambda self: None})
        monkeypatch.setattr(sys, "stdout", out())
        config = GOLDEN_AMPLITUDE / "pure_reflection_n1.json"
        assert main(["amplitude", "--config", str(config), "--n", "2",
                     "--in=0.5,-1.5", "--out=2.5,1", "--allow-nonphysical"]) == 0
        assert len(writes) == 8 + 2  # the head, one record per term, the tail
        doc = json.loads("".join(writes))
        assert doc["nonphysical_ordering"] is True
        assert writes[1].startswith("[\n    {") and writes[-1] == "\n  ]\n}\n"

    def test_exact_query_matches_its_byte_golden(self, capsys):
        # identity N=1 with pure reflection: every coefficient is exactly -1.0
        # or 0.0, so the bytes depend on no BLAS or CPU
        config = GOLDEN_AMPLITUDE / "pure_reflection_n1.json"
        assert main(["amplitude", "--config", str(config), "--n", "3",
                     "--in=-1.5,0.5,2", "--out=2.5,1,-0.5"]) == 0
        golden = GOLDEN_AMPLITUDE / "pure_reflection_n1_n3.json"
        assert capsys.readouterr().out == golden.read_text()

    def test_reflection_zero_prints_as_positive_zero(self, capsys):
        # the reflection term's imaginary part is contracted as -0.0 and must
        # print as 0.0, as a sum that starts from 0 would give it
        config = GOLDEN_AMPLITUDE / "pure_reflection_n1.json"
        assert main(["amplitude", "--config", str(config), "--n", "1",
                     "--in=-1.3", "--out=1.3"]) == 0
        golden = GOLDEN_AMPLITUDE / "pure_reflection_n1_n1.json"
        assert capsys.readouterr().out == golden.read_text()

    def test_exact_four_particle_query_matches_its_byte_golden(self, capsys):
        # identity N=1 with T = 1/2 and R = -1/2: all 384 coefficients are
        # exactly +-0.0625, through every batched leaf read and gather of n = 4
        config = GOLDEN_AMPLITUDE / "constant_half_n1.json"
        assert main(["amplitude", "--config", str(config), "--n", "4",
                     "--in=-1.5,0.5,1,2", "--out=2.5,1.2,-0.5,-1"]) == 0
        golden = GOLDEN_AMPLITUDE / "constant_half_n1_n4.json"
        assert capsys.readouterr().out == golden.read_text()

    def test_nonphysical_query_matches_its_byte_golden(self, capsys):
        # in-momenta out of order: the components follow each momentum's sign,
        # and every coefficient is exactly 1.0 or 0.0
        config = GOLDEN_AMPLITUDE / "pure_reflection_n1.json"
        assert main(["amplitude", "--config", str(config), "--n", "2",
                     "--in=0.5,-1.5", "--out=2.5,1", "--allow-nonphysical"]) == 0
        golden = GOLDEN_AMPLITUDE / "pure_reflection_n1_n2_nonphysical.json"
        assert capsys.readouterr().out == golden.read_text()

    def test_nonfinite_coefficients_match_their_byte_golden(self, capsys):
        # T = inf * k makes the transmission term inf + nan i, written as
        # json.dumps writes them: Infinity and NaN
        config = GOLDEN_AMPLITUDE / "nonfinite_n1.json"
        assert main(["amplitude", "--config", str(config), "--n", "1",
                     "--in=0.5", "--out=0.5"]) == 0
        golden = GOLDEN_AMPLITUDE / "nonfinite_n1_n1.json"
        assert capsys.readouterr().out == golden.read_text()


GOLDEN_CONFIGS = Path(__file__).parent / "golden" / "configs"


class TestClosedReader:
    """A reader that stops early, as `| head` does, is no error: the command
    exits with its own code and writes nothing to stderr."""

    def test_amplitude_reader_closes_after_the_first_line(self):
        # about 200 kB of terms: more than the pipe holds, so a write meets the closed end
        with start_cli("amplitude", "--config", str(GOLDEN_CONFIGS / "delta_n1.json"),
                       "--n", "4", "--in=-1.5,0.5,1,2", "--out=2.5,1.2,-0.5,-1") as proc:
            assert proc.stdout.readline() == "{\n"
            proc.stdout.close()
            assert proc.stderr.read() == ""
            assert proc.wait(timeout=60) == 0

    @pytest.mark.parametrize("argv, code", [
        (["verify", "--config", str(GOLDEN_CONFIGS / "delta_n1.json")], 0),
        (["verify", "--config", str(GOLDEN_CONFIGS / "rational_n2.json")], 1),
        (["catalog"], 0),
    ], ids=["verify-pass", "verify-fail", "catalog"])
    def test_a_reader_that_reads_nothing_keeps_the_exit_code(self, argv, code):
        with start_cli(*argv) as proc:
            proc.stdout.close()  # before the command writes its first byte
            assert proc.stderr.read() == ""
            assert proc.wait(timeout=60) == code


class TestSharedParser:
    """Every main call in a process parses with one parser; no call leaves
    an option, a default or a help width behind for the next one."""

    def test_one_parser_per_process(self):
        assert make_parser() is make_parser()

    def test_a_seed_override_does_not_carry_over(self, capsys):
        config = str(GOLDEN_CONFIGS / "delta_n1.json")
        golden = (Path(__file__).parent / "golden" / "delta_n1.json").read_text()
        assert main(["verify", "--config", config, "--format", "json", "--seed", "7"]) == 0
        assert capsys.readouterr().out != golden
        assert main(["verify", "--config", config, "--format", "json"]) == 0
        assert capsys.readouterr().out == golden

    def test_a_usage_error_leaves_the_next_query_as_it_was(self, capsys):
        config = str(GOLDEN_AMPLITUDE / "pure_reflection_n1.json")
        with pytest.raises(SystemExit) as exc:
            main(["amplitude", "--config", config, "--n", "0", "--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err
        assert main(["amplitude", "--config", config, "--n", "3",
                     "--in=-1.5,0.5,2", "--out=2.5,1,-0.5"]) == 0
        golden = GOLDEN_AMPLITUDE / "pure_reflection_n1_n3.json"
        assert capsys.readouterr().out == golden.read_text()

    def test_allow_nonphysical_does_not_carry_over(self, delta_config, capsys):
        query = ["amplitude", "--config", delta_config, "--n", "2",
                 "--in=2.1,-1.3", "--out=2.1,-1.3"]
        assert main(query + ["--allow-nonphysical"]) == 0
        assert json.loads(capsys.readouterr().out)["nonphysical_ordering"] is True
        assert main(query) == 2
        assert "--allow-nonphysical" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["amplitude", "--help"]])
    def test_help_is_laid_out_at_the_width_of_each_call(self, argv, monkeypatch, capsys):
        def help_text(parse):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            assert exc.value.code == 0
            return capsys.readouterr().out

        texts = []
        for columns in ("200", "40"):
            monkeypatch.setenv("COLUMNS", columns)
            texts.append(help_text(main))
            assert texts[-1] == help_text(make_parser.__wrapped__().parse_args)
        assert texts[0] != texts[1]


class TestCatalog:
    def test_lists_builtins(self, capsys):
        assert main(["catalog"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out["bulk"]) == {"identity", "permutation", "rational"}
        assert "delta" in out["defect"]
        assert "ybe" in out["checks"]


@pytest.mark.parametrize("command", [["verify"], ["amplitude", "--n", "0"]])
def test_config_directory_exit_two(command, tmp_path):
    # a directory is an OSError other than FileNotFoundError; exit 1 is
    # reserved for a failed check
    proc = run_cli(*command, "--config", str(tmp_path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("rtcheck: error:")
    assert "Traceback" not in proc.stderr


# random text over the grammar's alphabet, with blanks and stray letters; the
# token lists make well-formed expressions common enough to reach the checks
EXPRESSION_ALPHABET = "0123456789.eEij" + "k()+-*/" + " \t\n" + "xqK_$"
expression_texts = st.one_of(
    st.text(EXPRESSION_ALPHABET, max_size=16),
    st.lists(st.sampled_from(["k", "1", "2.5", "1e3", "3i", "1j", "0", "(", ")", "+", "-",
                              "*", "/", " ", "\t", "\n", "x"]), max_size=10).map("".join),
)


class TestOutOfMemory:
    """Running out of memory is no traceback: a one-line error, exit 2 and
    nothing on stdout.  The allocation fails by a patch, never for real."""

    @staticmethod
    def _no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.49 GiB for an array")

    def test_amplitude_exits_two(self, delta_config, monkeypatch, capsys):
        monkeypatch.setattr(fock, "_coefficients", self._no_memory)
        assert main(["amplitude", "--config", delta_config, "--n", "2",
                     "--in=-1.5,0.5", "--out=2.5,-1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "rtcheck: error: out of memory: Unable to allocate 2.49 GiB for an array\n"

    def test_verify_exits_two(self, delta_config, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_suite", self._no_memory)
        assert main(["verify", "--config", delta_config, "--format", "json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("rtcheck: error: out of memory: ") and err.count("\n") == 1


class TestNoTraceback:
    @settings(max_examples=300, deadline=None)
    @given(expression_texts)
    def test_expressions_raise_only_expression_errors(self, text):
        try:
            fn = parse_expression(text)
        except ExpressionError:
            return
        for k in (0.0, 1.5, -2.0):
            try:
                value = fn(k)
            except ExpressionError:
                continue
            assert isinstance(value, complex)

    @settings(max_examples=40, deadline=None)
    @given(expression_texts, expression_texts)
    def test_custom_defect_verify_exits_with_a_code(self, transmission, reflection):
        config = json.dumps({
            "bulk": {"name": "identity", "dim": 1},
            "defect": {"name": "custom", "transmission": transmission, "reflection": reflection},
            "samples": 3,
            "checks": ["defect-unitarity", "TST", "factorization(1)"],
        })
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "custom.json"
            path.write_text(config)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(["verify", "--config", str(path)])
        assert code in (0, 1, 2)
