import inspect
import json
import re
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import expression_texts

from rtcheck import grammar
from rtcheck.cli import main
from rtcheck.config import (
    MAX_SAMPLES,
    ConfigError,
    ModelConfig,
    build_model,
    parse_config,
    scalar_times_identity,
)
from rtcheck.defect import DefectPair, ZeroMomentumError, delta_defect
from rtcheck.grammar import MAX_NESTING, ExpressionError, parse_expression


class TestGrammar:
    def test_rational_amplitude(self):
        f = parse_expression("k/(k+1i)")
        assert abs(f(2.0) - 2 / (2 + 1j)) < 1e-15

    def test_j_suffix_and_unary_minus(self):
        f = parse_expression("-1j/(k+1j)")
        assert abs(f(2.0) - (-1j / (2 + 1j))) < 1e-15

    def test_compound_with_scientific_notation(self):
        f = parse_expression("(k*k - 2.5e0) / (k + 3i) + 1")
        assert abs(f(1.5) - ((1.5**2 - 2.5) / (1.5 + 3j) + 1)) < 1e-15

    def test_long_operator_chains_evaluate(self):
        assert parse_expression("+".join(["k"] * 5000))(0.5) == 2500
        assert parse_expression("1-2-3")(0.0) == -4
        assert parse_expression("8/2/2*-k")(3.0) == -6

    @pytest.mark.parametrize(
        "deep", ["(" * 3000 + "k" + ")" * 3000, "-" * 3000 + "k"], ids=["parens", "signs"]
    )
    def test_nesting_depth_is_bounded(self, deep):
        with pytest.raises(ExpressionError, match="nests deeper"):
            parse_expression(deep)

    def test_nesting_up_to_the_bound_parses(self):
        depth = MAX_NESTING // 2  # each level below is one parenthesis and one sign
        assert parse_expression("(-" * depth + "k" + ")" * depth)(2.0) == 2
        assert parse_expression("(" * MAX_NESTING + "k" + ")" * MAX_NESTING)(2.0) == 2

    def test_round_trip_matches_python_eval(self):
        text = "1 - 2i*k/(k*k + 4)"
        f = parse_expression(text)
        k = 0.7
        assert abs(f(k) - (1 - 2j * k / (k * k + 4))) < 1e-15

    @pytest.mark.parametrize(
        "text,k,value", [("k ", 2.0, 2), ("1 + k\n", 0.5, 1.5), ("(k)\t", -3.0, -3)]
    )
    def test_trailing_whitespace_is_allowed(self, text, k, value):
        assert parse_expression(text)(k) == value

    @pytest.mark.parametrize(
        "bad", ["k +", "q + 1", "((k)", "k $ 2", "1..2", "", "k  x", "k $"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ExpressionError):
            parse_expression(bad)


_REFERENCE_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?[ij]?)"
    r"|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<op>[()+\-*/])|$)"
)


def _reference_tokenize(text: str) -> list[tuple[str, str]]:
    """The reference for ``grammar._tokenize``: one match per step, a bad
    character where no token or trailing blank matches."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ExpressionError(f"bad character at {text[pos:]!r}")
        pos = m.end()
        if m.lastgroup:
            tokens.append((m.lastgroup, m.group(m.lastgroup)))
    return tokens


class _ReferenceParser:
    """The reference for ``grammar._compile``: recursive descent that appends
    postfix instructions to ``program``, one method per grammar rule."""

    def __init__(self, tokens: list[tuple[str, str]]):
        self.tokens = tokens
        self.i = 0
        self.nesting = 0
        self.program: list[tuple] = []

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def nested(self, rule):
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise ExpressionError(
                f"expression nests deeper than {MAX_NESTING} parentheses or signs"
            )
        rule()
        self.nesting -= 1

    def expr(self):
        self.term()
        while self.peek() in (("op", "+"), ("op", "-")):
            _, op = self.take()
            self.term()
            self.program.append((op,))

    def term(self):
        self.unary()
        while self.peek() in (("op", "*"), ("op", "/")):
            _, op = self.take()
            self.unary()
            self.program.append((op,))

    def unary(self):
        if self.peek() == ("op", "-"):
            self.take()
            self.nested(self.unary)
            self.program.append(("neg",))
        else:
            self.atom()

    def atom(self):
        kind, value = self.take()
        if kind == "num":
            if value[-1] in "ij":
                self.program.append(("const", complex(0.0, float(value[:-1]))))
            else:
                self.program.append(("const", complex(float(value))))
        elif kind == "name":
            if value != "k":
                raise ExpressionError(f"unknown name {value!r}; only 'k' is allowed")
            self.program.append(("var",))
        elif (kind, value) == ("op", "("):
            self.nested(self.expr)
            if self.take() != ("op", ")"):
                raise ExpressionError("unbalanced parentheses")
        else:
            raise ExpressionError(f"unexpected token {value!r}")


def _reference_program(text: str) -> list[tuple]:
    parser = _ReferenceParser(_reference_tokenize(text))
    parser.expr()
    if parser.peek() != (None, None):
        raise ExpressionError(f"trailing input near {parser.peek()[1]!r}")
    return parser.program


def _program_or_message(compile_text, text: str):
    try:
        return compile_text(text)
    except ExpressionError as exc:
        return str(exc)


# texts with the names the grammar rejects, a stray '$', '**' and '.', and
# nestings of '(' and '-' up to half again as deep as the grammar allows
EXPRESSION_TOKENS = ["k", "1", "2.5", "1e3", "3i", "1j", ".5", "1.", "0", "(", ")", "+", "-",
                     "*", "/", " ", "\n", "neg", "x", "i", "$", "**", "."]
token_texts = st.lists(st.sampled_from(EXPRESSION_TOKENS), max_size=40).map("".join)
nested_texts = st.builds(
    lambda opens, body, closes: "".join(opens) + body + ")" * closes,
    st.integers(0, 150).flatmap(
        lambda depth: st.lists(st.sampled_from(["(", "-"]), min_size=depth, max_size=depth)),
    expression_texts | token_texts,
    st.integers(0, 150),
)


class TestCompiler:
    """``grammar._compile`` is one shunting-yard pass that gives the
    recursive-descent program, or its error message; only input that ends
    where an operand must begin reads "unexpected end of expression" where
    the recursive descent read "unexpected token None"."""

    @settings(max_examples=500, deadline=None)
    @given(expression_texts | token_texts | nested_texts)
    def test_compiles_the_recursive_descent_program(self, text):
        expected = _program_or_message(_reference_program, text)
        if expected == "unexpected token None":
            expected = "unexpected end of expression"
        compiled = _program_or_message(lambda t: grammar._compile(grammar._tokenize(t)), text)
        assert compiled == expected

    def test_compiling_uses_no_recursion(self):
        """The deepest input the bound admits compiles and runs within 40
        frames of the caller's depth."""
        half = MAX_NESTING // 2
        deep = ["(" * MAX_NESTING + "k" + ")" * MAX_NESTING, "-" * MAX_NESTING + "k",
                "(-" * half + "k" + ")" * half]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 40)
        try:
            values = [parse_expression(text)(2.0) for text in deep]
        finally:
            sys.setrecursionlimit(limit)
        assert values == [2, 2, 2]

    @pytest.mark.parametrize("text", ["", " \n", "k+", "2*(", "-", "(k*-"])
    def test_input_cut_short_is_an_unexpected_end(self, text, tmp_path, capsys):
        with pytest.raises(ExpressionError, match=re.escape("unexpected end of expression")):
            parse_expression(text)
        path = tmp_path / "custom.json"
        path.write_text(json.dumps({
            "bulk": {"name": "identity", "dim": 1},
            "defect": {"name": "custom", "transmission": text, "reflection": "0"},
        }))
        assert main(["verify", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "rtcheck: error: bad custom defect expression: unexpected end of expression\n"


class TestParseConfig:
    def test_minimal_config_gets_defaults(self):
        cfg = parse_config(
            json.dumps({"bulk": {"name": "identity", "dim": 1},
                        "defect": {"name": "delta", "eta": 1.0}})
        )
        assert cfg.tolerance == 1e-9
        assert cfg.samples == 50
        assert cfg.exclusion_radius == 1e-3
        assert cfg.doubled is True

    def test_echo_has_every_field_and_round_trips(self):
        cfg = parse_config(json.dumps({"bulk": "rational:N=2,c=0.5", "samples": 7,
                                       "checks": ["ybe", "tt1"], "seed": 3}))
        echo = cfg.echo()
        assert list(echo) == [f.name for f in fields(ModelConfig)]
        assert echo["checks"] == ["ybe", "tt1"]
        assert parse_config(json.dumps(echo)) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config(json.dumps({"bulk": {"name": "identity"}, "bogus": 1}))

    def test_unknown_catalog_named(self):
        with pytest.raises(ConfigError, match="nosuch"):
            build_model(parse_config(json.dumps({"bulk": {"name": "nosuch"}})))

    def test_bad_json(self):
        with pytest.raises(ConfigError):
            parse_config("{not json")

    @pytest.mark.parametrize("text", [
        "[" * 100_000 + "]" * 100_000,
        '{"bulk": ' + "[" * 100_000 + "]" * 100_000 + "}",
    ], ids=["top", "bulk"])
    def test_a_config_nested_too_deeply_is_a_configuration_error(self, text, tmp_path, capsys):
        with pytest.raises(ConfigError, match="config is not valid JSON"):
            parse_config(text)
        path = tmp_path / "deep.json"
        path.write_text(text)
        assert main(["verify", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("rtcheck: error: config is not valid JSON")

    @pytest.mark.parametrize("text, key", [
        ('{"samples": 3, "samples": 4}', "samples"),
        ('{"bulk": {"name": "rational", "N": 2, "N": 3}}', "N"),
        ('{"bulk": "identity:dim=1,dim=2"}', "dim"),
    ], ids=["top", "bulk", "shorthand"])
    def test_a_repeated_key_is_a_configuration_error(self, text, key, tmp_path, capsys):
        """JSON readers keep a repeated key's last value; a config rejects it."""
        with pytest.raises(ConfigError, match=f"repeated config key '{key}'"):
            parse_config(text)
        path = tmp_path / "repeated.json"
        path.write_text(text)
        assert main(["verify", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"rtcheck: error: repeated config key '{key}'\n"

    @pytest.mark.parametrize("name", [{}, ["rational"], None])
    def test_a_catalog_name_that_is_no_string_is_unknown(self, name):
        with pytest.raises(ConfigError, match="unknown bulk catalog entry"):
            build_model(parse_config(json.dumps({"bulk": {"name": name}})))

    def test_parse_config_leaves_the_catalog_entries_to_build_model(self):
        """A catalog error shows only when build_model builds the entry, so a
        config value error in the same config is reported first."""
        cfg = parse_config(json.dumps({"bulk": "rational:c=0", "defect": "nosuch"}))
        assert cfg.bulk == {"name": "rational", "c": 0}
        with pytest.raises(ConfigError, match="rational_S requires c != 0"):
            build_model(cfg)
        with pytest.raises(ConfigError, match="samples must be >= 1"):
            parse_config(json.dumps({"bulk": "rational:c=0", "samples": 0}))

    def test_invalid_tolerance(self):
        with pytest.raises(ConfigError):
            parse_config(json.dumps({"tolerance": 0.0}))

    @pytest.mark.parametrize("key", ["tolerance", "exclusion_radius"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_nonfinite_values_rejected(self, key, value):
        # Python's JSON reader accepts the non-standard Infinity and NaN
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            parse_config(json.dumps({key: value}))

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "Infinity"])
    def test_nonfinite_env_tolerance_rejected(self, value, monkeypatch):
        monkeypatch.setenv("RTCHECK_TOLERANCE", value)
        with pytest.raises(ConfigError, match="RTCHECK_TOLERANCE must be finite"):
            parse_config(json.dumps({}))

    @pytest.mark.parametrize("samples", [MAX_SAMPLES + 1, 10**15])
    def test_samples_are_bounded(self, samples, monkeypatch, tmp_path, capsys):
        """Rejected when the config is made, so no momentum array is."""
        from rtcheck import smatrix

        sampled = []
        monkeypatch.setattr(smatrix, "sample_momenta", lambda *a: sampled.append(a))
        message = f"samples must be <= {MAX_SAMPLES}"
        with pytest.raises(ConfigError, match=message):
            parse_config(json.dumps({"samples": samples}))
        with pytest.raises(ConfigError, match=message):
            replace(parse_config(json.dumps({})), samples=samples)
        path = tmp_path / "samples.json"
        path.write_text(json.dumps({"samples": samples}))
        assert main(["verify", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"rtcheck: error: {message}\n")
        assert sampled == []
        assert parse_config(json.dumps({"samples": MAX_SAMPLES})).samples == MAX_SAMPLES

    def test_an_integer_too_long_to_read_is_a_configuration_error(self, tmp_path, capsys):
        """Past the interpreter's limit on int-string digits the JSON reader
        raises a bare ValueError; without a limit the value is over MAX_SAMPLES."""
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        text = '{"samples": %s}' % ("1" * ((limit or len(str(MAX_SAMPLES))) + 1))
        message = "config is not valid JSON" if limit else f"samples must be <= {MAX_SAMPLES}"
        with pytest.raises(ConfigError, match=message):
            parse_config(text)
        path = tmp_path / "long.json"
        path.write_text(text)
        assert main(["verify", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"rtcheck: error: {message}")
        assert "Traceback" not in err

    def test_negative_seed_rejected(self):
        for seed in (-1, -(2**70)):
            with pytest.raises(ConfigError, match="seed must be >= 0"):
                parse_config(json.dumps({"seed": seed}))
        assert parse_config(json.dumps({"seed": 0})).seed == 0

    def test_custom_defect_expressions(self):
        cfg = parse_config(
            json.dumps({
                "defect": {
                    "name": "custom",
                    "transmission": "k/(k+1i)",
                    "reflection": "-1i/(k+1i)",
                }
            })
        )
        model = build_model(cfg)
        assert abs(model.half_line.T(2.0)[0, 0] - 2 / (2 + 1j)) < 1e-15

    def test_custom_defect_missing_entry(self):
        with pytest.raises(ConfigError, match="reflection"):
            build_model(parse_config(
                json.dumps({"defect": {"name": "custom", "transmission": "k"}})
            ))

    def test_custom_defect_malformed_expression(self):
        with pytest.raises(ConfigError, match="expression"):
            build_model(parse_config(
                json.dumps({
                    "defect": {"name": "custom", "transmission": "k+", "reflection": "0"}
                })
            ))

    def test_catalog_string_shorthand(self):
        cfg = parse_config(
            json.dumps({"bulk": "rational:N=2,c=1.0", "defect": "delta:eta=0.5"})
        )
        assert cfg.bulk == {"name": "rational", "N": 2.0, "c": 1.0}
        assert cfg.defect == {"name": "delta", "eta": 0.5}
        model = build_model(cfg)
        assert model.half_line.dim == 2

    def test_shorthand_values_are_the_json_numbers_they_spell(self):
        """Digits, with an optional minus sign, are an int, as in a config
        object; anything else float() reads is a float."""
        cfg = parse_config(json.dumps({"bulk": "rational:N=2,c=1", "defect": "delta:eta=1.0"}))
        assert [type(v) for v in (cfg.bulk["N"], cfg.bulk["c"], cfg.defect["eta"])] == [
            int, int, float]
        for text, want in (("-0", 0), (" 3 ", 3), ("1e0", 1.0), ("2.", 2.0), (".5", 0.5)):
            got = parse_config(json.dumps({"defect": f"delta:eta={text}"})).defect["eta"]
            assert (got, type(got)) == (want, type(want)), text

    def test_parameterless_shorthand(self):
        cfg = parse_config(json.dumps({"defect": "pure-reflection"}))
        assert build_model(cfg).half_line.R(1.0)[0, 0] == -1.0

    def test_bad_shorthand(self):
        with pytest.raises(ConfigError, match="catalog parameter"):
            parse_config(json.dumps({"defect": "delta:eta"}))

    def test_env_tolerance_override(self, monkeypatch):
        monkeypatch.setenv("RTCHECK_TOLERANCE", "1e-6")
        cfg = parse_config(json.dumps({"defect": {"name": "delta", "eta": 1.0}}))
        assert cfg.tolerance == 1e-6

    def test_explicit_tolerance_beats_env(self, monkeypatch):
        monkeypatch.setenv("RTCHECK_TOLERANCE", "1e-6")
        cfg = parse_config(json.dumps({"tolerance": 1e-8}))
        assert cfg.tolerance == 1e-8

    def test_bad_env_tolerance(self, monkeypatch):
        monkeypatch.setenv("RTCHECK_TOLERANCE", "soup")
        with pytest.raises(ConfigError):
            parse_config(json.dumps({}))


class TestStrictTypes:
    """Config values of the wrong JSON type are errors, never coerced."""

    @staticmethod
    def rejects(key, *values):
        for value in values:
            with pytest.raises(ConfigError, match=key):
                parse_config(json.dumps({key: value}))

    def test_doubled_must_be_a_bool(self):
        self.rejects("doubled", "false", 0, None)

    def test_samples_must_be_an_integer(self):
        self.rejects("samples", 2.7, 20.0, True, "50")

    def test_seed_must_be_an_integer(self):
        self.rejects("seed", 1.5, False, "3")

    def test_checks_must_be_a_list_of_strings(self):
        self.rejects("checks", "ybe", ["ybe", 1], {"ybe": True})

    def test_exclusion_radius_must_be_a_number(self):
        self.rejects("exclusion_radius", "0.1", True, None)

    def test_tolerance_must_be_a_number(self):
        self.rejects("tolerance", "1e-9", False, [1e-9])

    def test_integers_are_numbers(self):
        cfg = parse_config(json.dumps({"tolerance": 1, "exclusion_radius": 1}))
        assert (cfg.tolerance, cfg.exclusion_radius) == (1.0, 1.0)


class TestBuildModel:
    def test_scalar_defect_lifts_to_bulk_dim(self):
        cfg = parse_config(
            json.dumps({
                "bulk": {"name": "rational", "N": 2, "c": 1.0},
                "defect": {"name": "delta", "eta": 1.0},
            })
        )
        model = build_model(cfg)
        assert model.half_line.dim == 2
        assert model.doubled is not None
        assert model.doubled.doubled_dim == 4

    def test_doubled_model_reads_the_model_data(self):
        model = build_model(parse_config(json.dumps({"bulk": "rational:N=2"})))
        assert model.doubled.bulk is model.bulk
        half = model.doubled.half_line
        for k in (-1.3, 0.4, 2.1):
            assert np.array_equal(half.T(k), model.half_line.T(k))
            assert np.array_equal(half.R(k), model.half_line.R(k))

    def test_doubled_model_carries_the_half_line_and_doubled_pairs(self):
        model = build_model(parse_config(json.dumps({"bulk": "rational:N=2"})))
        assert model.doubled.half_line is model.half_line
        doubled, half, N = model.doubled.defect, model.half_line, 2
        assert isinstance(doubled, DefectPair)
        assert doubled.dim == 2 * N
        for k in (-1.3, 0.4, 2.1):
            T, R = doubled.T(k), doubled.R(k)
            assert np.array_equal(T[:N, N:], half.T(k))
            assert np.array_equal(T[N:, :N], half.T(-k))
            assert not T[:N, :N].any() and not T[N:, N:].any()
            assert np.array_equal(R[:N, :N], half.R(k))
            assert np.array_equal(R[N:, N:], half.R(-k))
            assert not R[:N, N:].any() and not R[N:, :N].any()

    def test_each_catalog_entry_is_built_once_per_query(self, monkeypatch, tmp_path):
        """parse_config builds nothing and build_model builds each section:
        a query, the CLI's --seed override included, builds each catalog
        entry once."""
        from rtcheck import config

        built = []
        for catalog, name in ((config.BULK_CATALOG, "rational"), (config.DEFECT_CATALOG, "delta")):
            params, build = catalog[name]
            monkeypatch.setitem(catalog, name, (params, lambda entry, build=build, name=name: (
                built.append(name) or build(entry))))
        path = tmp_path / "rational.json"
        path.write_text(json.dumps({"bulk": "rational:N=2", "checks": ["rr1"]}))
        assert main(["verify", "--config", str(path), "--seed", "3"]) == 0
        assert built == ["rational", "delta"]
        built.clear()
        first = parse_config(json.dumps({"bulk": "rational:N=2"}))
        parse_config(json.dumps({"bulk": "rational:N=3"}))
        assert built == []
        assert build_model(first).bulk.leg_dim == 2
        assert built == ["rational", "delta"]

    def test_undoubled_model(self):
        cfg = parse_config(json.dumps({"doubled": False}))
        model = build_model(cfg)
        assert model.doubled is None


class TestScalarLift:
    def test_lift_reads_the_scalar_callables_once_through_its_own_check(self, monkeypatch):
        scalar = delta_defect(1.0)
        lifted = scalar_times_identity(scalar, 3)
        reads = []
        for name in ("R", "T"):
            original = getattr(DefectPair, name)
            monkeypatch.setattr(DefectPair, name, lambda self, k, _o=original, _n=name: (
                reads.append((_n, self.dim)), _o(self, k))[1])
        for k in (0.7, -1.3):
            assert np.array_equal(lifted.T(k), scalar.transmission(k)[0, 0] * np.eye(3))
            assert np.array_equal(lifted.R(k), scalar.reflection(k)[0, 0] * np.eye(3))
        # one validated read per lifted read, none of the scalar pair nested in it
        assert reads == [("T", 3), ("R", 3), ("T", 3), ("R", 3)]
        with pytest.raises(ZeroMomentumError):
            lifted.T(0.0)
