import json

import numpy as np
import pytest

from rtcheck.config import (
    ConfigError,
    build_model,
    parse_config,
)
from rtcheck.defect import DefectPair
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
        "bad", ["k +", "q + 1", "((k)", "k $ 2", "1..2", ""]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises((ExpressionError, IndexError, ValueError)):
            parse_expression(bad)


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

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config(json.dumps({"bulk": {"name": "identity"}, "bogus": 1}))

    def test_unknown_catalog_named(self):
        with pytest.raises(ConfigError, match="nosuch"):
            parse_config(json.dumps({"bulk": {"name": "nosuch"}}))

    def test_bad_json(self):
        with pytest.raises(ConfigError):
            parse_config("{not json")

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
            parse_config(
                json.dumps({"defect": {"name": "custom", "transmission": "k"}})
            )

    def test_custom_defect_malformed_expression(self):
        with pytest.raises(ConfigError, match="expression"):
            parse_config(
                json.dumps({
                    "defect": {"name": "custom", "transmission": "k+", "reflection": "0"}
                })
            )

    def test_catalog_string_shorthand(self):
        cfg = parse_config(
            json.dumps({"bulk": "rational:N=2,c=1.0", "defect": "delta:eta=0.5"})
        )
        assert cfg.bulk == {"name": "rational", "N": 2.0, "c": 1.0}
        assert cfg.defect == {"name": "delta", "eta": 0.5}
        model = build_model(cfg)
        assert model.half_line.dim == 2

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

    def test_undoubled_model(self):
        cfg = parse_config(json.dumps({"doubled": False}))
        model = build_model(cfg)
        assert model.doubled is None
