"""The row tables: the config's schema, the checker every JSON document a
command reads goes through, and the schedule rule the config is checked by.

A table maps each key to a row ``(type, default, rule)``, a nested table, or
a :class:`Tagged` section whose tag picks its table. :func:`_check_section`
checks a document against a table and raises the error it is given naming
the key; the artifact tables (:mod:`specdiff.artifacts`) are read by it too.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from pathlib import Path
from typing import Callable, NamedTuple

from .diffusion import DiffusionSchedule
from .losses import GAMMA_RULES, LAMBDA_RULES
from .model import MEAN_TYPES

__all__ = [
    "ConfigError",
    "build_schedule",
    "config_digest",
    "data_digest",
    "load_config",
    "validate_config",
]


class ConfigError(ValueError):
    """Config fails schema validation."""


class Interval(NamedTuple):
    """Numbers from ``lo`` to ``hi``, each end closed unless flagged open; no
    NaN. An ``even`` interval holds only the even integers in it."""

    lo: float
    hi: float = math.inf
    open_lo: bool = False
    open_hi: bool = False
    even: bool = False

    def holds(self, value) -> bool:
        return ((self.lo < value if self.open_lo else self.lo <= value)
                and (value < self.hi if self.open_hi else value <= self.hi)
                and not (self.even and value % 2))

    @property
    def text(self) -> str:
        if self.hi == math.inf:
            text = f"be {'>' if self.open_lo else '>='} {self.lo}"
        else:
            text = (f"lie in {'(' if self.open_lo else '['}{self.lo}, "
                    f"{self.hi}{')' if self.open_hi else ']'}")
        return text + " and be even" * self.even


# any other rule: holds(value), and text, what a value must do
Rule = NamedTuple("Rule", [("holds", Callable[[object], bool]), ("text", str)])


class Tagged(NamedTuple):
    """A nested section whose ``tag`` key, one of ``tables``' keys, picks the
    table that its other keys obey."""

    tag: str
    tables: dict

    @property
    def tag_row(self) -> tuple:
        return (str, _NO_DEFAULT, _one_of(tuple(self.tables)))


def _one_of(choices: tuple) -> Rule:
    return Rule(choices.__contains__, f"be one of {choices}")


def _each(types, rule, nonempty: bool = False) -> Rule:
    """A list whose entries are all of ``types`` and each obey ``rule``."""
    return Rule(lambda value: (bool(value) or not nonempty) and all(
        _fits(v, types) and rule.holds(v) for v in value),
        f"be a {'non-empty ' * nonempty}list of {_type_name(types)}; "
        f"every entry must {rule.text}")


def _fits(value, types) -> bool:
    """``isinstance``, except that a bool is no number: it fits only ``bool``."""
    return isinstance(value, types) and (types is bool or not isinstance(value, bool))


def _type_name(types) -> str:
    types = types if isinstance(types, tuple) else (types,)
    return " or ".join(t.__name__ for t in types)


DATA_KINDS = ("two-deltas", "isotropic-gaussian", "synthetic-shapes", "external-binary")
FAMILY_KINDS = ("none", "patch-drop", "line-subsample", "single-drop")
# each eval operation and the command-line inputs it reads
EVAL_INPUTS = {
    "mse_sweep": ("checkpoint", "checkpoint_b"),
    "generalization_psnr": ("checkpoint", "checkpoint_b"),
    "independence_demo": (),
    "distribution_distance": ("samples_a", "samples_b"),
    "uncertainty": ("checkpoint",),
    "acceleration_sweep": ("checkpoint",),
}
# rules shared by several keys and the flags (derived_rng takes no seed < 0)
_AT_LEAST_0, _AT_LEAST_1, _UNIT = Interval(0), Interval(1), Interval(0, 1)
# sizes that allocate arrays get a ceiling far above any real run, so a huge
# value fails here as a ConfigError, not later in numpy
_RECORDS, _WIDTH = Interval(1, 2 ** 24), Interval(1, 2 ** 16)
_STEPS = Interval(1, 2 ** 20)  # schedule.T; a checkpoint header's T obeys it too
_BETA = Interval(0, 1, open_lo=True, open_hi=True)
_NO_DEFAULT = object()  # the default of a required key
# the rule each command-line number obeys
FLAG_RULES = {"--seed": _AT_LEAST_0, "--limit": _AT_LEAST_0, "--eta": _UNIT,
              "--count": Interval(0, _RECORDS.hi)}

# One row per key: (type, default, rule or None). A float key also takes an
# int, a None default also takes null, a nested table is a nested section, and
# a Tagged row a required nested section whose tag picks its table.
_SCHEMA = {
    "data": {
        "kind": (str, _NO_DEFAULT, _one_of(DATA_KINDS)),
        "count": (int, _NO_DEFAULT, _RECORDS),
        "seed": (int, _NO_DEFAULT, _AT_LEAST_0),
        "dim": (int, 2, _WIDTH),
        # synthetic-shapes draws a disc radius from [1.5, min(height, width) / 4]
        "height": (int, 16, Interval(6, 2 ** 12)),
        "width": (int, 16, Interval(6, 2 ** 12)),
        "path": (str, "", None),
        "holdout": (int, 0, Interval(0, _RECORDS.hi)),
    },
    "degradation": {
        "family": (str, "none", _one_of(FAMILY_KINDS)),
        "p": (float, 0.2, Interval(0, 1, open_hi=True)),
        "patch": (int, 4, _AT_LEAST_1),
        "accel": (int, 4, _AT_LEAST_1),
        "sigma0": (float, 0.0, _AT_LEAST_0),
    },
    "schedule": {
        "T": (int, 1000, _STEPS),
        # resolved by _beta1; the schedule it builds checks the betas' order
        "beta1": ((int, float, str), "sigma0_squared",
                  Rule(lambda b: not isinstance(b, str) or b == "sigma0_squared",
                       "be 'sigma0_squared' or a number")),
        "betaT": (float, 0.2, _BETA),
    },
    "model": {
        "hidden": (list, [256, 256, 256], _each(int, _WIDTH, nonempty=True)),
        "emb_dim": (int, 32, Interval(2, _WIDTH.hi, even=True)),
        "mean_type": (str, "predict_x", _one_of(MEAN_TYPES)),
        "ema_decay": (float, 0.999, _UNIT),
        "seed": (int, 0, _AT_LEAST_0),
    },
    "train": {
        "iterations": (int, 0, _AT_LEAST_0),
        "batch_size": (int, 32, _RECORDS),
        "learning_rate": (float, 1e-3, Interval(0, open_lo=True)),
        "seed": (int, _NO_DEFAULT, _AT_LEAST_0),
        "oracle_mode": (bool, False, None),
        "log_interval": (int, 50, _AT_LEAST_1),
        "chunk_size": (int, None, _AT_LEAST_1),  # unset: the whole batch in one pass
        "loss": {
            "gamma": (str, "constant", _one_of(GAMMA_RULES)),
            "lambda": (str, "constant", _one_of(LAMBDA_RULES)),
            "lambda_coef": (float, 1e-4, _AT_LEAST_0),
            "use_ybar_variant": (bool, True, None),
            "probes": (int, 1, _WIDTH),
        },
    },
    "eval": {
        "operations": (list, [], _each(str, _one_of(tuple(EVAL_INPUTS)))),
        "seed": (int, 1234, _AT_LEAST_0),
        "count": (int, 256, _RECORDS),
        "ts": (list, [], _each(int, _AT_LEAST_1)),
        "t_stride": (int, 100, _AT_LEAST_1),
        # from 2**53 up, abar = snr / (1 + snr) rounds to 1
        "snr_levels": (list, [0.001, 10.0],
                       _each((int, float), Interval(0, 2 ** 53, open_hi=True))),
        "n_samples": (int, 10000, _RECORDS),
        "n_permutations": (int, 200, Interval(2)),
        "n_projections": (int, 256, _RECORDS),
        "uncertainty_k": (int, 8, Interval(2, _WIDTH.hi)),
        "uncertainty_sigma0": (float, 0.4, _AT_LEAST_0),
        "steps": (int, 100, _AT_LEAST_1),
        "eta": (float, 0.0, _UNIT),
        "peak": (float, 1.0, Interval(0, open_lo=True)),
        "accels": (list, [], _each(int, _AT_LEAST_1)),  # acceleration_sweep's factors
    },
}


def _check_section(table: dict, section, where: str = "config",
                   error: type = ConfigError) -> dict:
    """``section`` checked row by row against ``table``, with defaults filled
    in; a value that breaks a row raises ``error`` naming ``where.key``."""
    if not isinstance(section, dict):
        raise error(f"{where} must be an object")
    if unknown := set(section) - set(table):
        raise error(f"{where}: unknown keys {sorted(unknown)}")
    out = {}
    for key, row in table.items():
        name = key if where == "config" else f"{where}.{key}"
        if isinstance(row, dict):
            out[key] = _check_section(row, section.get(key, {}), name, error)
            continue
        if isinstance(row, Tagged):  # the tag, checked first, picks the table
            value = section.get(key)
            rows = {row.tag: row.tag_row}
            if isinstance(value, dict):
                _check_section(rows, {k: value[k] for k in rows if k in value},
                               name, error)
                rows = {**rows, **row.tables[value[row.tag]]}
            out[key] = _check_section(rows, value, name, error)
            continue
        types, default, rule = row
        value = section.get(key)
        # a validated config holds null for an unset optional key; read it back
        if key not in section or value is None and default is None:
            if default is _NO_DEFAULT:
                raise error(f"{where}: missing required key {key!r}")
            out[key] = copy.deepcopy(default)
            continue
        if types is float and _fits(value, int):
            try:
                value = float(value)
            except OverflowError:  # an integer beyond float range is not finite
                value = math.inf
        if not _fits(value, types):
            raise error(f"{name}: expected {_type_name(types)}, "
                        f"got {type(value).__name__}")
        if isinstance(value, float) and not math.isfinite(value):
            raise error(f"{name}: must be finite, got {value}")
        if rule is not None and not rule.holds(value):
            raise error(f"{name} must {rule.text}")
        out[key] = value
    return out


def validate_config(raw: dict) -> dict:
    """Check a config document against the schema's rows, filling in defaults,
    then its ``schedule`` section by building the schedule it describes;
    unknown keys are rejected."""
    cfg = _check_section(_SCHEMA, raw)
    build_schedule(cfg)
    return cfg


def load_config(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: not a UTF-8 JSON document: {exc}") from exc
    return validate_config(raw)


def config_digest(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def data_digest(cfg: dict) -> str:
    """The digest of the sections that shape a gen-data directory's bytes."""
    return config_digest({"data": cfg["data"], "degradation": cfg["degradation"]})


def _beta1(cfg: dict):
    """``schedule.beta1`` with the ``sigma0_squared`` rule resolved."""
    beta1 = cfg["schedule"]["beta1"]
    if beta1 == "sigma0_squared":
        return max(cfg["degradation"]["sigma0"] ** 2, 1e-5)
    return beta1


def build_schedule(cfg: dict) -> DiffusionSchedule:
    """The configured schedule; one that cannot be built raises ``ConfigError``."""
    s = cfg["schedule"]
    try:  # sigma0 ** 2 may overflow
        return DiffusionSchedule(s["T"], _beta1(cfg), s["betaT"])
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"schedule.T = {s['T']}, schedule.beta1 = {s['beta1']!r} and "
                          f"schedule.betaT = {s['betaT']} build no schedule: {exc}") from exc
