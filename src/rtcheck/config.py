"""Model configuration: parsing, validation, catalog wiring.

Configs are JSON objects (nested key-value sections); the exact schema is
documented in the README.  Custom defects supply closed-form transmission
and reflection entries in the expression grammar.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .defect import (
    DefectPair,
    delta_defect,
    pure_reflection_defect,
    pure_transmission_defect,
    scalar_data,
)
from .doubling import DoubledModel, build_doubled_model
from .grammar import parse_expression
from .smatrix import (
    DEFAULT_EXCLUSION_RADIUS,
    BulkSMatrix,
    identity_S,
    permutation_S,
    rational_S,
)

DEFAULT_TOLERANCE = 1e-9
DEFAULT_SAMPLES = 50
TOLERANCE_ENV_VAR = "RTCHECK_TOLERANCE"
# Bound on the leg dimensions dim and N: the doubled checks' work grows as N^6 to
# N^8; verify with rational N = 6 takes about 2 s and 66 MB (2-core x86-64).
MAX_LEG_DIM = 6
# Bound on samples, as memory grows about 34 MB per 1,000: verify with rational N = 3,
# 10,000 samples and exclusion_radius 1e-4 takes about 6.5 s and 374 MB (2-core x86-64).
MAX_SAMPLES = 10_000


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    bulk: dict
    defect: dict
    doubled: bool = True
    samples: int = DEFAULT_SAMPLES
    exclusion_radius: float = DEFAULT_EXCLUSION_RADIUS
    seed: int = 0
    tolerance: float = DEFAULT_TOLERANCE
    checks: tuple[str, ...] = ()  # empty means the default list for the model

    def __post_init__(self) -> None:
        """Value checks, so a --seed override through dataclasses.replace is
        checked like the config file."""
        if not all(isinstance(c, str) for c in self.checks):
            raise ConfigError(f"'checks' must be a list of check names, got {list(self.checks)!r}")
        for key in ("tolerance", "exclusion_radius"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)!r}")
        if self.tolerance <= 0:
            raise ConfigError("tolerance must be > 0")
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")
        if self.samples > MAX_SAMPLES:
            raise ConfigError(f"samples must be <= {MAX_SAMPLES}")
        if self.exclusion_radius <= 0:
            raise ConfigError("exclusion_radius must be > 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def echo(self) -> dict:
        """Every field, in declaration order, as the report's JSON `config`."""
        return {**asdict(self), "checks": list(self.checks)}


_KNOWN_KEYS = {f.name for f in fields(ModelConfig)}


def _expand_shorthand(entry) -> dict:
    """Catalog shorthand "name:key=value,key=value" -> parameter object."""
    if isinstance(entry, dict):
        return entry
    if not isinstance(entry, str):
        raise ConfigError(f"catalog entry must be an object or string, got {entry!r}")
    name, _, params = entry.partition(":")
    pairs = [("name", name.strip())]
    if params:
        for item in params.split(","):
            key, sep, value = item.partition("=")
            if not sep or not key.strip():
                raise ConfigError(f"bad catalog parameter {item!r} in {entry!r}")
            text = value.strip()
            try:  # the number it spells, as JSON reads it: digits are an int
                pairs.append((key.strip(),
                              int(text) if text.lstrip("-").isdigit() else float(text)))
            except ValueError as exc:
                raise ConfigError(f"bad catalog parameter {item!r}: {exc}") from exc
    return _unique(pairs)


def _unique(pairs: list[tuple]) -> dict:
    """A JSON object's or a shorthand's pairs as a dict: a repeated key is an error."""
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"repeated config key {key!r}")
        out[key] = value
    return out


def parse_config(text: str) -> ModelConfig:
    try:
        raw = json.loads(text, object_pairs_hook=_unique)
    except ConfigError:  # a repeated key
        raise
    except (ValueError, RecursionError) as exc:  # bad JSON, too long an int, too deep a nesting
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    bulk = _expand_shorthand(raw.get("bulk", {"name": "identity", "dim": 1}))
    defect = _expand_shorthand(raw.get("defect", {"name": "delta", "eta": 1.0}))
    return ModelConfig(
        bulk=bulk,
        defect=defect,
        doubled=_typed(raw, "doubled", True, bool, "a boolean"),
        samples=_typed(raw, "samples", DEFAULT_SAMPLES, int, "an integer"),
        exclusion_radius=float(
            _typed(raw, "exclusion_radius", DEFAULT_EXCLUSION_RADIUS, (int, float), "a number")
        ),
        seed=_typed(raw, "seed", 0, int, "an integer"),
        tolerance=float(_typed(raw, "tolerance", _env_tolerance(), (int, float), "a number")),
        checks=tuple(_typed(raw, "checks", [], list, "a list of check names")),
    )


def _typed(raw: dict, key: str, default, types, what: str):
    """raw[key] (or the default) if it has one of the JSON types; bool is
    not accepted as a number, since JSON true/false are no numbers."""
    value = raw.get(key, default)
    if isinstance(value, types) and (types is bool or not isinstance(value, bool)):
        return value
    raise ConfigError(f"{key!r} must be {what}, got {value!r}")


def _env_tolerance() -> float:
    value = os.environ.get(TOLERANCE_ENV_VAR)
    if value is None:
        return DEFAULT_TOLERANCE
    try:
        tolerance = float(value)
    except ValueError as exc:
        raise ConfigError(f"bad {TOLERANCE_ENV_VAR} value {value!r}") from exc
    if not math.isfinite(tolerance):
        raise ConfigError(f"{TOLERANCE_ENV_VAR} must be finite, got {value!r}")
    return tolerance


def _parameter(entry: dict, key: str, default, integral: bool = False):
    """A catalog parameter: a JSON number within the float range, never a
    bool.  With ``integral`` it is a leg dimension, an integral number from
    1 to MAX_LEG_DIM, returned as an int (a config may spell it 2.0)."""
    value = entry.get(key, default)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if number and abs(value) <= sys.float_info.max:
        if not integral:
            return float(value)
        if 1 <= value <= MAX_LEG_DIM and value == int(value):
            return int(value)
    what = f"an integer from 1 to {MAX_LEG_DIM}" if integral else "a finite number"
    raise ConfigError(f"{entry['name']} parameter {key!r} must be {what}, got {value!r}")


def _expression(entry: dict, key: str):
    """A custom defect entry: an expression string, compiled."""
    if not isinstance(entry.get(key), str):
        raise ConfigError(f"custom defect needs a {key!r} string, got {entry.get(key)!r}")
    try:
        return parse_expression(entry[key])
    except ValueError as exc:
        raise ConfigError(f"bad custom defect expression: {exc}") from exc


def _custom_defect(entry: dict) -> DefectPair:
    t_fn = _expression(entry, "transmission")
    r_fn = _expression(entry, "reflection")
    return DefectPair(1, scalar_data(r_fn), scalar_data(t_fn), batched=True)


# catalog entry -> (the parameters it accepts besides "name", its builder)
BULK_CATALOG = {
    "identity": (("dim",), lambda b: identity_S(_parameter(b, "dim", 1, integral=True))),
    "permutation": (("dim",), lambda b: permutation_S(_parameter(b, "dim", 1, integral=True))),
    "rational": (
        ("N", "c"),
        lambda b: rational_S(_parameter(b, "N", 2, integral=True), _parameter(b, "c", 1.0)),
    ),
}
DEFECT_CATALOG = {
    "delta": (("eta",), lambda d: delta_defect(_parameter(d, "eta", 1.0))),
    "pure-transmission": ((), lambda d: pure_transmission_defect()),
    "pure-reflection": ((), lambda d: pure_reflection_defect()),
    "custom": (("transmission", "reflection"), _custom_defect),
}


def _build(section: str, entry):
    """Build a catalog entry once its name and parameter keys are checked; a
    value its builder rejects (c = 0, eta < 0) is a ConfigError."""
    catalog = BULK_CATALOG if section == "bulk" else DEFECT_CATALOG
    if not isinstance(entry, dict) or "name" not in entry:
        raise ConfigError(f"{section} section must be an object with a 'name'")
    if not isinstance(entry["name"], str) or entry["name"] not in catalog:
        raise ConfigError(
            f"unknown {section} catalog entry {entry['name']!r}; available: {list(catalog)}"
        )
    params, build = catalog[entry["name"]]
    unknown = set(entry) - {"name", *params}
    if unknown:
        raise ConfigError(f"unknown {entry['name']!r} parameters: {sorted(unknown)}")
    try:
        return build(entry)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad {entry['name']} parameters: {exc}") from exc


def scalar_times_identity(pair: DefectPair, N: int) -> DefectPair:
    """Lift a scalar defect to N isotopic dimensions: tau = T * I etc.  The
    lifted callables read the scalar ones directly: the lifted pair's own
    ``R``/``T`` has checked the momentum."""
    eye = np.eye(N, dtype=complex)

    def tau(k: float) -> np.ndarray:
        return pair.transmission(k) * eye

    def rho(k: float) -> np.ndarray:
        return pair.reflection(k) * eye

    return DefectPair(N, rho, tau, batched=pair.batched)


def build_model(cfg: ModelConfig) -> "AssembledModel":
    bulk = _build("bulk", cfg.bulk)
    half = _build("defect", cfg.defect)
    if half.dim == 1 and bulk.leg_dim > 1:
        half = scalar_times_identity(half, bulk.leg_dim)
    doubled = None
    if cfg.doubled:
        doubled = build_doubled_model(bulk, half)
    return AssembledModel(cfg=cfg, bulk=bulk, half_line=half, doubled=doubled)


@dataclass(frozen=True)
class AssembledModel:
    """Everything the verification suite needs for one configuration."""

    cfg: ModelConfig
    bulk: BulkSMatrix
    half_line: DefectPair
    doubled: DoubledModel | None = None
