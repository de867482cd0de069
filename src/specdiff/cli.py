"""Experiment orchestration: configs, file formats, and subcommands.

Artifacts are flat binary tensor files (16-byte magic, u32 version, u32 rank,
u64 extents, little-endian float64 payload) with JSON sidecars; metrics are
UTF-8 CSV with ``\\n`` line endings and a mandatory header. Each command's
outputs carry the digest of the config that produced them: ``gen-data`` in
``dataset.json``, ``train`` in the checkpoint header and ``run.json``, and
``eval`` in ``eval.json``. A setting that shapes their bytes, seeds
included, lives in the config, so its digest covers it; their flags name
files. ``sample`` and ``reconstruct`` have no config: ``samples.json`` and
``recon.json`` hold their checkpoint's digest and their ``--seed``. Each
sidecar also names what its command read: the digest in ``--measurements``'
``dataset.json``, or each samples file's digest and seed. Any command run
twice on the same inputs produces byte-identical files, so no wall-clock
timing is written. Every artifact is written through a temporary file and a
rename, so an interrupted command leaves the old file or none.

The synthetic-shapes signals take their draws from the generator's raw
PCG64 words, replayed by NumPy's ``Generator`` rules
(:class:`~specdiff.training.RawDraws`, checked against ``Generator`` by the
tests), and paint their shapes in blocks of records with array ops; the bytes
are those of one ``Generator`` call per draw and one image pass per shape.

Subcommands: ``gen-data``, ``train``, ``sample``, ``reconstruct``, ``eval``,
``inspect``.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import hashlib
import json
import math
import os
import struct
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .diffusion import (
    DiffusionSchedule,
    InfeasibleScheduleError,
    ddim_sample,
    ddpm_sample,
    reconstruct,
    t_min_for_noise_var,
    zero_filled,
)
from .evaluation import (
    GaussianPosteriorDenoiser,
    TwoDeltasPosteriorDenoiser,
    denoising_mse_sweep,
    distribution_distance,
    generalization_psnr,
    independence_demo,
    uncertainty_map,
)
from .losses import GAMMA_RULES, LAMBDA_RULES, LossConfig
from .model import MEAN_TYPES, Denoiser
from .operators import (
    DegradationFamily,
    FixedMask,
    IdentityTransform,
    LineSubsampleMasks,
    Measurement,
    PatchDropMasks,
    RealDFTTransform,
    SingleDropMasks,
    corrupt,
    transform_from_descriptor,
)
from .training import (
    PrecomputedDataset,
    RawDraws,
    TrainConfig,
    derived_rng,
    precompute,
    train,
)

__all__ = [
    "Checkpoint",
    "ConfigError",
    "FormatError",
    "build_degradation_family",
    "build_model",
    "build_schedule",
    "cmd_eval",
    "cmd_gen_data",
    "cmd_reconstruct",
    "cmd_sample",
    "cmd_train",
    "config_digest",
    "generate_signals",
    "load_checkpoint",
    "load_config",
    "main",
    "read_tensor_file",
    "save_checkpoint",
    "validate_config",
    "write_pgm",
    "write_tensor_file",
]

TENSOR_MAGIC = b"SPECDIFF-TENSOR\x00"
CHECKPOINT_MAGIC = b"SPECDIFF-CKPT\x00\x00\x00"
FORMAT_VERSION = 1


class FormatError(ValueError):
    """Malformed or future-versioned artifact file."""


class ConfigError(ValueError):
    """Config fails schema validation."""


# -- artifact files -------------------------------------------------------------


def _write(path, chunks) -> None:
    """The one way an artifact is written: ``chunks`` (bytes, or C-contiguous
    ``<f8`` arrays, which are written without a copy) go to a temporary file
    beside ``path``, which then replaces ``path``. An interrupted write, by an
    error or ``KeyboardInterrupt``, leaves the old file or none, never a part."""
    path = Path(path)
    partial = path.with_name(f".{path.name}.partial")
    try:
        with open(partial, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _frame(head: bytes, path, magic: bytes, kind: str) -> int:
    """The u32 word after a framed file's version, once ``head``'s 16-byte
    ``magic`` and u32 format version are checked."""
    if len(head) < 24 or head[:16] != magic:
        raise FormatError(f"{path}: not a {kind} file")
    version, word = struct.unpack_from("<II", head, 16)
    if version > FORMAT_VERSION:
        raise FormatError(f"{path}: format version {version} is newer than supported")
    return word


def write_tensor_file(path, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    _write(path, (TENSOR_MAGIC, struct.pack(f"<II{arr.ndim}Q", FORMAT_VERSION,
                                            arr.ndim, *arr.shape), arr))


def read_tensor_file(path) -> np.ndarray:
    return _read_tensor(path)


def _read_tensor(path, rows: int | None = None, start: int = 0) -> np.ndarray:
    """The tensor file ``path``, or only ``rows`` of its rows from row
    ``start`` on, read straight into the array once the header is checked
    against the file's size; a non-finite value read raises ``FormatError``."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        rank = _frame(fh.read(24), path, TENSOR_MAGIC, "tensor")
        if size < 24 + 8 * rank:
            raise FormatError(f"{path}: truncated header")
        shape = struct.unpack(f"<{rank}Q", fh.read(8 * rank))
        # Python ints, so huge extents cannot wrap
        if size != 24 + 8 * rank + 8 * math.prod(shape):
            raise FormatError(f"{path}: payload size does not match extents")
        if rows is not None and shape:
            start = min(start, shape[0])
            fh.seek(8 * start * math.prod(shape[1:]), os.SEEK_CUR)
            shape = (min(rows, shape[0] - start), *shape[1:])
        data = np.fromfile(fh, dtype="<f8", count=math.prod(shape))
    if not np.isfinite(data).all():
        raise FormatError(f"{path}: non-finite values")
    try:  # an empty payload may still name an extent numpy cannot hold
        return data.reshape(shape)
    except ValueError as exc:
        raise FormatError(f"{path}: extents {shape}: {exc}") from exc


def write_pgm(path, image: np.ndarray) -> None:
    """Portable graymap (P2) of one 2-D array, min-max normalized."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError("PGM conversion needs a 2-D array")
    lo, hi = image.min(), image.max()
    scaled = np.zeros_like(image) if hi == lo else (image - lo) / (hi - lo)
    pixels = np.rint(scaled * 255).astype(int)
    lines = ["P2", f"{image.shape[1]} {image.shape[0]}", "255"]
    lines += [" ".join(str(v) for v in row) for row in pixels]
    _write(path, ["\n".join(lines).encode() + b"\n"])


def write_csv(path, header: list[str], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    for row in rows:
        # numpy floats too: their repr under numpy 2 is "np.float64(...)"
        lines.append(",".join(repr(float(v)) if isinstance(v, (float, np.floating))
                              else str(v) for v in row))
    _write(path, ["\n".join(lines).encode() + b"\n"])


def _write_json(path, obj) -> None:
    _write(path, [json.dumps(obj, indent=2, sort_keys=True).encode() + b"\n"])


# -- config schema -------------------------------------------------------------


class Interval(NamedTuple):
    """Numbers from ``lo`` to ``hi``, each end closed unless flagged open; no NaN."""

    lo: float
    hi: float = math.inf
    open_lo: bool = False
    open_hi: bool = False

    def holds(self, value) -> bool:
        return ((self.lo < value if self.open_lo else self.lo <= value)
                and (value < self.hi if self.open_hi else value <= self.hi))

    @property
    def text(self) -> str:
        if self.hi == math.inf:
            return f"be {'>' if self.open_lo else '>='} {self.lo}"
        return (f"lie in {'(' if self.open_lo else '['}{self.lo}, "
                f"{self.hi}{')' if self.open_hi else ']'}")


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
_EVAL_INPUTS = {
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
        "emb_dim": (int, 32, Rule(lambda e: e >= 2 and e % 2 == 0,
                                  "be a positive even number")),
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
        "operations": (list, [], _each(str, _one_of(tuple(_EVAL_INPUTS)))),
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


def _data_digest(cfg: dict) -> str:
    """The digest of the sections that shape a gen-data directory's bytes."""
    return config_digest({"data": cfg["data"], "degradation": cfg["degradation"]})


# -- experiment assembly --------------------------------------------------------


def generate_signals(data_cfg: dict, count: int, seed: int,
                     start: int = 0) -> np.ndarray:
    """Clean signal rows for the configured distribution; of an
    ``external-binary`` source, only the ``count`` rows from row ``start`` on
    are read, and a file that lacks them raises ``ConfigError``."""
    kind = data_cfg["kind"]
    rng = derived_rng(seed, 0)
    if kind == "two-deltas":
        signs = rng.integers(0, 2, size=count) * 2 - 1
        return np.outer(signs, np.ones(2))
    if kind == "isotropic-gaussian":
        return rng.standard_normal((count, data_cfg["dim"]))
    if kind == "synthetic-shapes":
        return _shapes(count, data_cfg["height"], data_cfg["width"], rng)
    arr = _read_tensor(data_cfg["path"], rows=count, start=start)
    if arr.ndim != 2 or arr.shape[0] < count:
        raise ConfigError(f"data.path {data_cfg['path']}: an external-binary file "
                          f"must be a 2-D array of at least {start + count} rows")
    return arr


# pixels painted at a time: blocks of 64 records at the 16x16 presets, whose
# temporaries add ~0.5 MB to a preset-size set-up (tracemalloc)
_PAINT_PIXELS = 1 << 14


def _shapes(count: int, h: int, w: int, rng) -> np.ndarray:
    """Random axis-aligned rectangles and discs on a small grid, values in [0, 1].

    Each record draws 1 to 3 shapes from ``rng``, replayed from its raw words
    (:class:`~specdiff.training.RawDraws`). The shapes are then painted with
    array ops, a block of records and one shape slot at a time: a record is
    the elementwise max of its shapes, which is exact in any order.
    """
    draws = RawDraws(rng.bit_generator)
    integers, uniform, random = draws.integers, draws.uniform, draws.random
    out = np.zeros((count, h, w))
    yy, xx = np.arange(h)[:, None], np.arange(w)
    rows = max(1, _PAINT_PIXELS // (h * w))
    for lo in range(0, count, rows):
        block = out[lo:lo + rows]
        rects, discs = ([], [], []), ([], [], [])  # per slot: (record, ...)
        for i in range(len(block)):
            for slot in range(integers(1, 4)):
                intensity = uniform(0.4, 1.0)
                if random() < 0.5:
                    y0 = integers(0, h - 2)
                    x0 = integers(0, w - 2)
                    y1 = integers(y0 + 2, min(h, y0 + h // 2) + 1)
                    x1 = integers(x0 + 2, min(w, x0 + w // 2) + 1)
                    rects[slot].append((i, intensity, y0, x0, y1, x1))
                else:
                    cy = uniform(2, h - 2)
                    cx = uniform(2, w - 2)
                    r = uniform(1.5, min(h, w) / 4)
                    discs[slot].append((i, intensity, cy, cx, r ** 2))
        for params in rects + discs:
            if not params:
                continue
            idx, intensity, *p = np.array(params).T[:, :, None, None]
            if len(p) == 4:
                y0, x0, y1, x1 = p
                inside = (y0 <= yy) & (yy < y1) & (x0 <= xx) & (xx < x1)
            else:
                cy, cx, r2 = p
                inside = (yy - cy) ** 2 + (xx - cx) ** 2 <= r2
            idx = idx.ravel().astype(np.intp)
            patch = intensity * inside
            block[idx] = np.maximum(block[idx], patch, out=patch)
    return out.reshape(count, h * w)


def build_degradation_family(cfg: dict) -> DegradationFamily:
    """The configured family for the configured signals' width (of an
    ``external-binary`` source, its header alone is read); masks that cannot
    fit the signal raise ``ConfigError``."""
    deg = cfg["degradation"]
    n = generate_signals(cfg["data"], 0, 0).shape[1]
    family = deg["family"]
    vt = IdentityTransform(n)
    if family == "line-subsample":
        if n % 2:
            raise ConfigError("line-subsample needs an even signal dimension "
                              "(real/imaginary channel pairs)")
        vt = RealDFTTransform(n // 2)
    try:
        if family == "patch-drop":  # flat signals: patches tile a single row
            flat = cfg["data"]["kind"] != "synthetic-shapes"
            h, w = (1, n) if flat else (cfg["data"]["height"], cfg["data"]["width"])
            masks = PatchDropMasks(h, w, deg["patch"], deg["p"])
        elif family == "line-subsample":
            masks = LineSubsampleMasks(lines=n // 2, accel=deg["accel"])
        elif family == "single-drop":
            masks = SingleDropMasks(n)
        else:
            masks = FixedMask(np.ones(n, dtype=bool))
    except ValueError as exc:
        key = {"patch-drop": "patch", "line-subsample": "accel"}.get(family, "family")
        raise ConfigError(f"degradation.{key}: {exc} ({family}, n = {n})") from exc
    return DegradationFamily(vt, masks, deg["sigma0"])


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


def build_model(cfg: dict, n: int) -> Denoiser:
    m = cfg["model"]
    return Denoiser.create(n, hidden=tuple(m["hidden"]), emb_dim=m["emb_dim"],
                           mean_type=m["mean_type"], ema_decay=m["ema_decay"],
                           rng=derived_rng(m["seed"], 77))


def build_train_config(cfg: dict) -> TrainConfig:
    """The loop's config; an unset ``chunk_size`` resolves to ``batch_size``."""
    t = cfg["train"]
    chunk = t["batch_size"] if t["chunk_size"] is None else t["chunk_size"]
    loss = t["loss"]
    loss_cfg = LossConfig(gamma=loss["gamma"], lam=loss["lambda"],
                          lam_coef=loss["lambda_coef"],
                          use_ybar_variant=loss["use_ybar_variant"],
                          probes=loss["probes"])
    return TrainConfig(iterations=t["iterations"], batch_size=t["batch_size"],
                       learning_rate=t["learning_rate"],
                       seed=t["seed"], loss=loss_cfg, oracle_mode=t["oracle_mode"],
                       log_interval=t["log_interval"], chunk_size=chunk)


# One table per JSON kind that a command reads, in the config's row form. A
# reader checks the keys its table names and ignores any other top-level key.
_VERSION = Interval(1, FORMAT_VERSION)
_DIGEST = Rule(lambda d: len(d) == 64 and set(d) <= set("0123456789abcdef"),
               "be 64 lowercase hex digits")
# a transform's descriptor(), by kind
_TRANSFORM = Tagged("kind", {"identity": {"n": (int, _NO_DEFAULT, _AT_LEAST_1)},
                             "real_dft": {"lines": (int, _NO_DEFAULT, _AT_LEAST_1)}})
_CHECKPOINT_HEADER = {
    "format_version": (int, FORMAT_VERSION, _VERSION),
    "arch": {
        "n": (int, _NO_DEFAULT, _AT_LEAST_1),
        **{key: (_SCHEMA["model"][key][0], _NO_DEFAULT, _SCHEMA["model"][key][2])
           for key in ("hidden", "emb_dim", "mean_type", "ema_decay")},
        "nonlin": (str, "tanh", _one_of(("tanh",))),  # older checkpoints name it
    },
    "step_count": (int, _NO_DEFAULT, _AT_LEAST_0),
    "config_digest": (str, _NO_DEFAULT, _DIGEST),
    "schedule": {
        "T": (int, _NO_DEFAULT, _STEPS),
        "beta1": (float, _NO_DEFAULT, _BETA),
        "betaT": (float, _NO_DEFAULT, _BETA),
        "t_min_valid": (int, _NO_DEFAULT, _AT_LEAST_1),
    },
    "schedule_digest": (str, _NO_DEFAULT, _DIGEST),
    "vt": _TRANSFORM,
    "param_count": (int, _NO_DEFAULT, _AT_LEAST_0),
}
_DATASET_META = {
    "format_version": (int, _NO_DEFAULT, _VERSION),
    "config_digest": (str, None, _DIGEST),
    "data_digest": (str, None, _DIGEST),  # older directories lack it
    "n": (int, _NO_DEFAULT, _AT_LEAST_1),
    "sigma0": (float, _NO_DEFAULT, _AT_LEAST_0),
    "vt": _TRANSFORM,
    "s_const": (float, 1.0, _one_of((1.0,))),  # older directories hold it
}
_SAMPLES_META = {
    "format_version": (int, FORMAT_VERSION, _VERSION),
    "config_digest": (str, _NO_DEFAULT, _DIGEST),
    "seed": (int, _NO_DEFAULT, _AT_LEAST_0),
}


def _json_header(raw: bytes, path, table: dict, where: str) -> dict:
    """The JSON object ``where`` of ``path``, as read, once the keys that
    ``table`` names obey its rows; any malformation is a ``FormatError``."""
    where = f"{path}: {where}"
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{where} is malformed: {exc}") from exc
    named = {key: header[key] for key in table if key in header} \
        if isinstance(header, dict) else header
    _check_section(table, named, where, FormatError)
    return header


def _schedule_digest(schedule: dict) -> str:
    return hashlib.sha256(json.dumps(schedule, sort_keys=True).encode()).hexdigest()


# -- checkpoints -----------------------------------------------------------------


class Checkpoint:
    """Serialized training outcome: parameters, shadow parameters, provenance,
    and what the header describes, each built once here (``vt``, :meth:`model`,
    :meth:`rebuild_schedule`). ``params`` and ``ema_params`` are that model's
    arrays, copies of those given. A header that cannot be built raises."""

    def __init__(self, arch: dict, params: np.ndarray, ema_params: np.ndarray,
                 step_count: int, config_digest: str, schedule: dict,
                 vt_descriptor: dict):
        self.arch = arch
        self.step_count = int(step_count)
        self.config_digest = config_digest
        self.schedule = schedule
        self.vt_descriptor = vt_descriptor
        self.vt = transform_from_descriptor(vt_descriptor)
        self._model = Denoiser.from_arch(arch, params, ema_params)
        if self.vt.n != self._model.n:
            raise ValueError(f"vt has n = {self.vt.n}, arch has n = {self._model.n}")
        self.params, self.ema_params = self._model.params, self._model.ema_params
        self._schedule = DiffusionSchedule(**schedule)

    def header(self) -> dict:
        return _checkpoint_header(self.arch, self.step_count, self.config_digest,
                                  self.schedule, self.vt_descriptor, self.params.size)

    def model(self) -> Denoiser:
        return self._model

    def rebuild_schedule(self) -> DiffusionSchedule:
        return self._schedule

    def __eq__(self, other):
        return (isinstance(other, Checkpoint)
                and self.header() == other.header()
                and np.array_equal(self.params, other.params)
                and np.array_equal(self.ema_params, other.ema_params))


def _checkpoint_header(arch: dict, step_count: int, config_digest: str,
                       schedule: dict, vt_descriptor: dict, param_count: int) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "arch": arch,
        "step_count": int(step_count),
        "config_digest": config_digest,
        "schedule": schedule,
        "schedule_digest": _schedule_digest(schedule),
        "vt": vt_descriptor,
        "param_count": int(param_count),
    }


def _write_checkpoint(path, header: dict, params: np.ndarray,
                      ema_params: np.ndarray) -> None:
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    _write(path, (CHECKPOINT_MAGIC, struct.pack("<II", FORMAT_VERSION, len(raw)),
                  raw, np.ascontiguousarray(params, dtype="<f8"),
                  np.ascontiguousarray(ema_params, dtype="<f8")))


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    _write_checkpoint(path, ckpt.header(), ckpt.params, ckpt.ema_params)


def load_checkpoint(path) -> Checkpoint:
    raw = Path(path).read_bytes()
    header_len = _frame(raw, path, CHECKPOINT_MAGIC, "checkpoint")
    offset = 24 + header_len
    if len(raw) < offset:
        raise FormatError(f"{path}: truncated header")
    header = _json_header(raw[24:offset], path, _CHECKPOINT_HEADER, "header")
    count = header["param_count"]
    if header["schedule_digest"] != _schedule_digest(header["schedule"]):
        raise FormatError(f"{path}: schedule digest mismatch")
    if len(raw) != offset + 16 * count:
        raise FormatError(f"{path}: parameter payload size mismatch")
    params = np.frombuffer(raw, dtype="<f8", offset=offset, count=count)
    ema = np.frombuffer(raw, dtype="<f8", offset=offset + 8 * count, count=count)
    if not (np.isfinite(params).all() and np.isfinite(ema).all()):
        raise FormatError(f"{path}: non-finite parameter or EMA values")
    try:  # a bad arch, schedule or vt fails here and not at first use
        return Checkpoint(arch=header["arch"], params=params, ema_params=ema,
                          step_count=header["step_count"],
                          config_digest=header["config_digest"],
                          schedule=header["schedule"], vt_descriptor=header["vt"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: bad arch, schedule or vt: {exc!r}") from exc


# -- commands ---------------------------------------------------------------------


def _check_noise_floor(schedule: DiffusionSchedule, noise_var, source: str) -> None:
    """Raise ``ConfigError`` naming ``source`` when no timestep of ``schedule``
    can top up the measurement variance ``noise_var`` (its largest entry)."""
    try:
        t_min_for_noise_var(schedule, noise_var)
    except InfeasibleScheduleError as exc:
        raise ConfigError(f"{source}: {exc} on a schedule with T = {schedule.T}, "
                          f"betaT = {schedule.betaT:.3g}") from exc


def _check_flag(flag: str, value, rule) -> None:
    """A command-line ``value`` obeys the schema's ``rule``; None is unset."""
    if value is not None and not rule.holds(value):
        raise ConfigError(f"{flag} must {rule.text}, got {value}")


def _out_dir(out) -> Path:
    """The output directory, made once every input is read and checked."""
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_gen_data(cfg: dict, out) -> Path:
    """Write clean signals and precomputed measurements with a JSON sidecar."""
    seed, count = cfg["data"]["seed"], cfg["data"]["count"]
    signals = generate_signals(cfg["data"], count + cfg["data"]["holdout"], seed)
    family = build_degradation_family(cfg)
    clean, holdout = signals[:count], signals[count:]
    data = precompute(clean, family, seed=seed)
    out_path = _out_dir(out)
    write_tensor_file(out_path / "clean.bin", clean)
    write_tensor_file(out_path / "ybar.bin", data.ybar)
    write_tensor_file(out_path / "masks.bin", data.masks.astype(np.float64))
    if cfg["data"]["holdout"]:
        write_tensor_file(out_path / "holdout.bin", holdout)
    _write_json(out_path / "dataset.json", {
        "format_version": FORMAT_VERSION,
        "config_digest": config_digest(cfg),
        "data_digest": _data_digest(cfg),
        "kind": cfg["data"]["kind"],
        "count": count,
        "holdout": cfg["data"]["holdout"],
        "n": family.n,
        "sigma0": family.sigma0,
        "seed": seed,
        "vt": family.vt.descriptor(),
    })
    return out_path


def _load_dataset_dir(path: Path, rows: int | None = None):
    """A ``gen-data`` directory's measurements, all of them or only the first
    ``rows``, which alone are then read and checked, as ``(meta, ybar, masks,
    var)`` with ``var`` the noise variance of every kept entry; ``clean.bin``
    is left to the one caller that reads it."""
    for name in ("dataset.json", "ybar.bin", "masks.bin"):
        if path.is_dir() and not (path / name).is_file():
            raise FormatError(f"{path}: gen-data directory lacks {name}")
    meta = _json_header((path / "dataset.json").read_bytes(), path, _DATASET_META,
                        "dataset.json")
    ybar = _read_tensor(path / "ybar.bin", rows)
    masks = _read_tensor(path / "masks.bin", rows)
    if ybar.ndim != 2 or ybar.shape != masks.shape or ybar.shape[1] != meta["n"]:
        raise FormatError(f"{path}: ybar {ybar.shape} and masks {masks.shape} "
                          f"must be equal-shaped 2-D arrays of n = {meta['n']} columns")
    if not np.all((masks == 0.0) | (masks == 1.0)):
        raise FormatError(f"{path}: mask values must be exactly 0.0 or 1.0")
    masks = masks == 1.0
    if np.any(ybar[~masks] != 0.0):
        raise FormatError(f"{path}: ybar is non-zero at unobserved entries")
    sigma0 = float(meta["sigma0"])
    return meta, ybar, masks, sigma0 * sigma0  # precompute's var, bit for bit


def _dataset(cfg: dict, measurements):
    """Training data, its family and the ``config_digest`` in ``dataset.json``:
    read from the gen-data directory ``measurements``, which the config's
    ``data`` and ``degradation`` sections must have written, or simulated when
    that is None (no digest); only the oracle reads the directory's
    ``clean.bin``, its target."""
    family = build_degradation_family(cfg)
    if measurements is None:
        signals = generate_signals(cfg["data"], cfg["data"]["count"],
                                   cfg["data"]["seed"])
        return precompute(signals, family, seed=cfg["data"]["seed"]), family, None
    meta, ybar, masks, var = _load_dataset_dir(Path(measurements))
    if meta.get("data_digest") is None:
        raise ConfigError(f"--measurements {measurements}: dataset.json records no "
                          "data_digest; re-run gen-data to train on it")
    # an external-binary source may have changed width since gen-data read it
    if meta["data_digest"] != _data_digest(cfg) or meta["n"] != family.n:
        raise ConfigError(f"--measurements {measurements} was not written from the "
                          "configured data and degradation sections")
    clean_xbar = None
    if cfg["train"]["oracle_mode"]:
        clean_path = Path(measurements) / "clean.bin"
        if not clean_path.exists():
            raise ConfigError(f"train.oracle_mode needs clean.bin in --measurements "
                              f"{measurements}")
        clean_xbar = family.vt.apply(read_tensor_file(clean_path))
    data = PrecomputedDataset(ybar=ybar, masks=masks, var=var, w=family.weights(),
                              clean_xbar=clean_xbar)
    return data, family, meta.get("config_digest")


def cmd_train(cfg: dict, out, measurements=None) -> Path:
    """Precompute measurements, or read them from the gen-data directory
    ``measurements``, run the training loop, persist the outcome."""
    data, family, measurements_digest = _dataset(cfg, measurements)
    schedule = build_schedule(cfg)
    _check_noise_floor(schedule, data.worst_noise_var(),
                       "degradation.sigma0" if measurements is None
                       else f"--measurements {measurements}: sigma0")
    model = build_model(cfg, family.n)
    train_cfg = build_train_config(cfg)
    out_path = _out_dir(out)
    result = train(model, train_cfg, data, schedule)

    digest = config_digest(cfg)
    schedule = dataclasses.replace(schedule, t_min_valid=result.t_min_valid)
    header = _checkpoint_header(model.arch(), train_cfg.iterations, digest,
                                schedule.header(), family.vt.descriptor(),
                                model.param_count)
    _write_checkpoint(out_path / "checkpoint.bin", header, model.params,
                      model.ema_params)
    write_csv(out_path / "metrics.csv",
              ["step", "loss", "divergence_term", "grad_norm"],
              [(r.step, r.loss, r.divergence_term, r.grad_norm)
               for r in result.metrics])
    _write_json(out_path / "run.json", {
        "config_digest": digest,
        "measurements_config_digest": measurements_digest,
        "steps": train_cfg.iterations,
        "t_min_valid": result.t_min_valid,
    })
    return out_path


def _check_steps(steps: int, schedule: DiffusionSchedule, name: str = "--steps") -> None:
    if not 1 <= steps <= schedule.T:
        raise ConfigError(f"{name} must lie in [1, {schedule.T}] for this "
                          f"checkpoint's schedule, got {steps}")


def _read_rows(path, flag: str, width: int | None = None,
               min_rows: int = 1) -> np.ndarray:
    """The tensor file ``path`` as a non-empty 2-D array of at least
    ``min_rows`` rows, ``width`` wide when given; any other array raises
    ``ConfigError`` naming ``flag``."""
    rows = read_tensor_file(path)
    if rows.ndim != 2 or rows.size == 0 or width not in (None, rows.shape[1]):
        raise ConfigError(f"{flag} {path}: an array of shape {rows.shape} is not a "
                          "non-empty 2-D array of rows"
                          + ("" if width is None else f" of width {width}"))
    if rows.shape[0] < min_rows:
        raise ConfigError(f"{flag} {path}: {rows.shape[0]} row(s), fewer than "
                          f"the {min_rows} needed")
    return rows


SAMPLE_CHUNK = 64  # samples per derived-seed chunk


def cmd_sample(checkpoint_path, out, sampler: str, steps: int,
               count: int, seed: int, eta: float = 0.0) -> Path:
    """Generate samples from a checkpoint; chunks use derived seeds."""
    if sampler not in ("ddim", "ddpm"):
        raise ValueError("sampler must be 'ddim' or 'ddpm'")
    _check_flag("--count", count, Interval(0, _RECORDS.hi))
    _check_flag("--seed", seed, _AT_LEAST_0)
    if sampler == "ddim":  # DDPM ignores --eta, as it does --steps
        _check_flag("--eta", eta, _UNIT)
    ckpt = load_checkpoint(checkpoint_path)
    model, schedule, vt = ckpt.model(), ckpt.rebuild_schedule(), ckpt.vt
    if sampler == "ddim":
        _check_steps(steps, schedule)
    out_path = _out_dir(out)
    blocks = []
    for ci, lo in enumerate(range(0, count, SAMPLE_CHUNK)):
        size = min(SAMPLE_CHUNK, count - lo)
        rng = derived_rng(seed, ci)
        if sampler == "ddim":
            blocks.append(ddim_sample(model, schedule, steps, eta, rng, vt,
                                      count=size))
        else:
            blocks.append(ddpm_sample(model, schedule, rng, vt, count=size))
    samples = np.concatenate(blocks) if blocks else np.zeros((0, vt.n))
    write_tensor_file(out_path / "samples.bin", samples)
    _write_json(out_path / "samples.json", {
        "format_version": FORMAT_VERSION,
        "config_digest": ckpt.config_digest,
        "sampler": sampler,
        "steps": steps if sampler == "ddim" else None,  # DDPM visits every t
        "eta": eta if sampler == "ddim" else None,
        "count": count,
        "seed": seed,
    })
    return out_path


def cmd_reconstruct(checkpoint_path, measurements_dir, out,
                    steps: int, seed: int, eta: float = 0.0,
                    limit: int | None = None) -> Path:
    """Reconstruct stored measurements, and write their zero-filled baseline."""
    _check_flag("--limit", limit, _AT_LEAST_0)
    _check_flag("--seed", seed, _AT_LEAST_0)
    _check_flag("--eta", eta, _UNIT)
    ckpt = load_checkpoint(checkpoint_path)
    model, schedule, vt = ckpt.model(), ckpt.rebuild_schedule(), ckpt.vt
    _check_steps(steps, schedule)
    meta, ybar, masks, var = _load_dataset_dir(Path(measurements_dir), limit)
    if meta["n"] != vt.n or meta["vt"] != ckpt.vt_descriptor:
        raise ConfigError(f"--measurements {measurements_dir}: n = {meta['n']}, vt = "
                          f"{meta['vt']} differ from the checkpoint's n = {vt.n}, "
                          f"vt = {ckpt.vt_descriptor}")
    count = len(ybar)
    _check_noise_floor(schedule, var if masks.any() else 0.0,
                       f"--measurements {measurements_dir}: sigma0")
    out_path = _out_dir(out)
    recons = np.empty((count, vt.n))
    zf = np.empty((count, vt.n))
    for i in range(count):
        m = Measurement(ybar=ybar[i], mask=masks[i], noise_var=masks[i] * var)
        zf[i] = zero_filled(m, vt)
        recons[i] = reconstruct(model, schedule, m, steps, derived_rng(seed, i),
                                vt, eta=eta)
    write_tensor_file(out_path / "recon.bin", recons)
    write_tensor_file(out_path / "zero_filled.bin", zf)
    _write_json(out_path / "recon.json", {
        "format_version": FORMAT_VERSION,
        "config_digest": ckpt.config_digest,
        "measurements_config_digest": meta.get("config_digest"),
        "steps": steps,
        "eta": eta,
        "seed": seed,
        "count": count,
    })
    return out_path


def _eval_ts(cfg: dict, schedule: DiffusionSchedule) -> list[int]:
    """``eval.ts``, or every ``eval.t_stride``-th timestep from the schedule's
    ``t_min_valid`` on, with ``T`` last."""
    ts = list(cfg["eval"]["ts"])
    if not ts:
        ts = list(range(schedule.t_min_valid, schedule.T + 1, cfg["eval"]["t_stride"]))
        if ts[-1] != schedule.T:
            ts.append(schedule.T)
    return ts


def _samples_provenance(path) -> tuple:
    """``(config_digest, seed)`` of the ``samples.json`` beside the samples
    file ``path``, or ``(None, None)`` where there is none."""
    sidecar = Path(path).with_name("samples.json")
    if not sidecar.is_file():
        return None, None
    meta = _json_header(sidecar.read_bytes(), sidecar.parent, _SAMPLES_META,
                        "samples.json")
    return meta["config_digest"], meta["seed"]


def cmd_eval(cfg: dict, out, checkpoint=None, checkpoint_b=None, samples_a=None,
             samples_b=None) -> Path:
    """Run the configured evaluation operations, one CSV per operation, and
    write ``eval.json``: the config's digest, the ``config_digest`` of each
    checkpoint an operation read, and the ``config_digest`` and ``seed`` of
    the ``samples.json`` beside each samples file it read (null for a flag
    that none reads, or a samples file with no sidecar).

    The eval set is ``eval.count`` signals drawn from ``eval.seed``; of an
    ``external-binary`` source, it is the ``eval.count`` rows that follow the
    first ``data.count``, the rows ``train`` reads (``gen-data`` writes them
    first into ``holdout.bin``).

    Every input is read and checked, and what the operations share is built,
    once before the output directory is made. Every operation on a checkpoint
    works in checkpoint A's transform. A flag an operation needs that is
    missing, an ``eval.ts`` entry beyond ``T`` of checkpoint A's schedule,
    config signals whose width is not A's ``n`` or an ``external-binary``
    source of fewer than ``data.count + eval.count`` rows, a checkpoint B
    whose schedule's ``T``, ``beta1`` or ``betaT``, transform or ``n`` differs
    from A's, an ``eval.steps`` beyond A's ``T`` for an operation that
    reconstructs, or a samples file that is not a 2-D array of at least 2 rows
    (for ``--samples-b``, of ``--samples-a``'s width) raises ``ConfigError``;
    a malformed ``samples.json`` beside one raises ``FormatError``.
    ``uncertainty`` runs its reconstructions at ``eta = max(eval.eta, 0.5)``,
    so an ``eval.eta`` below 0.5 (the default 0.0 included) is raised to 0.5
    there and its ``k`` runs stay stochastic. ``acceleration_sweep``
    reconstructs the eval set's first ``min(8, eval.count)`` rows from DFT
    lines kept at each factor of ``eval.accels`` and sigma0 = 0.01; an empty
    ``eval.accels``, an A not in ``real_dft``, a factor that does not fit A's
    lines or an A that cannot top up sigma0 = 0.01 raises ``ConfigError`` too.
    """
    ev = cfg["eval"]
    ops, seed = ev["operations"], ev["seed"]
    given = {"checkpoint": checkpoint, "checkpoint_b": checkpoint_b,
             "samples_a": samples_a, "samples_b": samples_b}
    for op in ops:
        for name in _EVAL_INPUTS[op]:
            if given[name] is None:
                flag = "--" + name.replace("_", "-")
                raise ConfigError(f"eval operation {op!r} needs {flag}")
    if "acceleration_sweep" in ops and not ev["accels"]:
        raise ConfigError("eval operation 'acceleration_sweep' needs eval.accels")
    needs = {name for op in ops for name in _EVAL_INPUTS[op]}
    ca = load_checkpoint(checkpoint) if "checkpoint" in needs else None
    cb = load_checkpoint(checkpoint_b) if "checkpoint_b" in needs else None
    if ca is not None:  # every operation that reads B reads A too
        if max(ev["ts"], default=0) > ca.schedule["T"]:
            raise ConfigError(f"eval.ts must be <= T = {ca.schedule['T']} of the "
                              "--checkpoint schedule")
        # one read of the eval set: the width and every operation's clean rows;
        # an external file's are the rows after the data.count that train read
        clean_rows = generate_signals(cfg["data"], ev["count"], seed,
                                      start=cfg["data"]["count"])
        width = clean_rows.shape[1]
        if width != ca.vt.n:
            raise ConfigError(f"data: signals of width {width} do not fit "
                              f"--checkpoint's n = {ca.vt.n}")
        schedule, model_a = ca.rebuild_schedule(), ca.model()
    if cb is not None:
        # B is scored on A's timesteps and inputs; t_min_valid may differ (a GSURE
        # model and its oracle do)
        pairs = [(f"schedule {key}", ca.schedule[key], cb.schedule[key])
                 for key in ("T", "beta1", "betaT")]
        pairs += [("n", ca.arch["n"], cb.arch["n"]),
                  ("vt", ca.vt_descriptor, cb.vt_descriptor)]
        for what, a, b in pairs:
            if a != b:
                raise ConfigError(f"--checkpoint-b {what} = {b} differs from "
                                  f"--checkpoint's {a}")
        model_b = cb.model()
        xbar = ca.vt.apply(clean_rows)
        ts = _eval_ts(cfg, schedule)
    if "uncertainty" in ops:
        sigma0 = ev["uncertainty_sigma0"]
        _check_noise_floor(schedule, sigma0 * sigma0, "eval.uncertainty_sigma0")
        clean = clean_rows[0]
    if "uncertainty" in ops or "acceleration_sweep" in ops:
        _check_steps(ev["steps"], schedule, "eval.steps")
    if "acceleration_sweep" in ops:
        kind = ca.vt_descriptor["kind"]
        if kind != "real_dft":
            raise ConfigError("an acceleration sweep masks DFT lines; the "
                              f"checkpoint's transform is {kind!r}")
        families = []
        for r in ev["accels"]:
            try:
                masks = LineSubsampleMasks(lines=ca.vt.n // 2, accel=r)
            except ValueError as exc:
                raise ConfigError(f"eval.accels entry {r}: {exc}") from exc
            families.append((r, DegradationFamily(ca.vt, masks, sigma0=0.01)))
        _check_noise_floor(schedule, 0.01 * 0.01, "acceleration_sweep's sigma0 = 0.01")
        sweep = clean_rows[:8]
    sa = sb = (None, None)
    if "distribution_distance" in ops:
        a = _read_rows(samples_a, "--samples-a", min_rows=2)
        b = _read_rows(samples_b, "--samples-b", a.shape[1], min_rows=2)
        sa, sb = _samples_provenance(samples_a), _samples_provenance(samples_b)
    out_path = _out_dir(out)

    for op in ops:
        if op == "mse_sweep":
            res = denoising_mse_sweep(model_a, model_b, xbar, schedule, ts,
                                      derived_rng(seed, 1))
            write_csv(out_path / "mse_sweep.csv", ["t", "mse_a", "mse_b"], res.rows)
        elif op == "generalization_psnr":
            rows = generalization_psnr(model_a, model_b, xbar, schedule, ts,
                                       derived_rng(seed, 2), peak=ev["peak"])
            write_csv(out_path / "psnr.csv", ["t", "psnr"], rows)
        elif op == "independence_demo":
            rows = []
            for prior, model in (("isotropic-gaussian", GaussianPosteriorDenoiser()),
                                 ("two-deltas", TwoDeltasPosteriorDenoiser())):
                recs = independence_demo(prior, model, ev["snr_levels"],
                                         ev["n_samples"], derived_rng(seed, 3),
                                         n_permutations=ev["n_permutations"])
                rows += [(prior, r.snr, r.abar, r.energy, r.z, r.null_mean,
                          r.null_sd) for r in recs]
            write_csv(out_path / "independence.csv",
                      ["prior", "snr", "abar", "energy", "z", "null_mean", "null_sd"],
                      rows)
        elif op == "distribution_distance":
            res = distribution_distance(a, b, ev["n_projections"], derived_rng(seed, 4))
            write_csv(out_path / "distance.csv",
                      ["sliced_wasserstein", "mean_gap", "cov_gap"],
                      [(res.sliced_wasserstein, res.mean_gap, res.cov_gap)])
        elif op == "uncertainty":
            fam = DegradationFamily(ca.vt, FixedMask(np.ones(ca.vt.n, dtype=bool)),
                                    sigma0)
            rng = derived_rng(seed, 5)
            m = corrupt(clean, fam, rng)
            mean, std = uncertainty_map(model_a, schedule, m, ev["uncertainty_k"],
                                        rng=derived_rng(seed, 6), vt=ca.vt,
                                        steps=ev["steps"], eta=max(ev["eta"], 0.5))
            write_tensor_file(out_path / "uncertainty_mean.bin", mean)
            write_tensor_file(out_path / "uncertainty_std.bin", std)
        else:  # acceleration_sweep
            rows = []
            for r, fam in families:
                resid = 0.0
                for i, x in enumerate(sweep):
                    rng = derived_rng(seed, 7, r, i)
                    m = corrupt(x, fam, rng)
                    rec = reconstruct(model_a, schedule, m, ev["steps"],
                                      derived_rng(seed, 7, r, i, 1), ca.vt, eta=ev["eta"])
                    gap = rec - x  # einsum, not BLAS: same bits at any thread count
                    resid += float(np.sqrt(np.einsum("i,i->", gap, gap)))
                rows.append((r, resid / len(sweep), bool(np.isfinite(resid))))
            write_csv(out_path / "rsweep.csv", ["accel", "residual_norm", "finite"], rows)
    _write_json(out_path / "eval.json", {
        "format_version": FORMAT_VERSION,
        "config_digest": config_digest(cfg),
        "checkpoint_config_digest": None if ca is None else ca.config_digest,
        "checkpoint_b_config_digest": None if cb is None else cb.config_digest,
        "samples_a_config_digest": sa[0],
        "samples_a_seed": sa[1],
        "samples_b_config_digest": sb[0],
        "samples_b_seed": sb[1],
    })
    return out_path


def cmd_inspect(path, pgm=None, index: int = 0, height: int | None = None,
                width: int | None = None) -> None:
    """Describe an artifact file; optionally dump one record as a graymap."""
    path = Path(path)
    if path.suffix in (".json", ".csv", ".pgm"):
        try:
            print(path.read_text(encoding="utf-8").strip())
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc
        return
    with open(path, "rb") as fh:  # the magic picks the reader
        magic = fh.read(16)
    if magic == CHECKPOINT_MAGIC:
        header = load_checkpoint(path).header()
        header["t_min_valid"] = header["schedule"]["t_min_valid"]
        print(f"{path}: checkpoint")
        for key in ("arch", "step_count", "config_digest", "schedule_digest",
                    "t_min_valid", "param_count"):
            print(f"  {key}: {json.dumps(header[key], sort_keys=True)}")
        return
    arr = read_tensor_file(path)
    print(f"{path}: shape={arr.shape} dtype=float64 "
          f"min={arr.min(initial=np.inf):.6g} max={arr.max(initial=-np.inf):.6g}")
    if pgm is not None:
        if arr.ndim == 2 and not 0 <= index < len(arr):
            raise ConfigError(f"--index must lie in [0, {len(arr)}), got {index}")
        record = arr[index] if arr.ndim == 2 else arr
        if height is None or width is None:
            side = int(np.sqrt(record.size))
            if side * side != record.size:
                raise ConfigError(f"a record of {record.size} values is not square; "
                                  "pass --height and --width")
            height = width = side
        if height * width != record.size:
            raise ConfigError(f"--height {height} x --width {width} does not match "
                              f"the record's {record.size} values")
        write_pgm(pgm, record.reshape(height, width))


# -- argument parsing ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="specdiff",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_configured(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", required=True, help="output directory")
        return p

    def add_reverse(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--steps", type=int, default=100)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--eta", type=float, default=0.0)
        return p

    add_configured("gen-data", "write clean signals and measurements")
    p = add_configured("train", "train a model per the config")
    p.add_argument("--measurements", default=None,
                   help="gen-data output directory to train on (default: simulate)")

    p = add_reverse("sample", "generate samples from a checkpoint")
    p.add_argument("--sampler", choices=["ddim", "ddpm"], default="ddim")
    p.add_argument("--count", type=int, default=1)

    p = add_reverse("reconstruct", "reconstruct stored measurements")
    p.add_argument("--measurements", required=True, help="gen-data output directory")
    p.add_argument("--limit", type=int, default=None)

    p = add_configured("eval", "run configured evaluation operations")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--checkpoint-b", default=None)
    p.add_argument("--samples-a", default=None)
    p.add_argument("--samples-b", default=None)

    p = sub.add_parser("inspect", help="describe an artifact file")
    p.add_argument("path")
    p.add_argument("--pgm", default=None)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--width", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "gen-data":
        cmd_gen_data(load_config(args.config), args.out)
    elif args.command == "train":
        cmd_train(load_config(args.config), args.out, args.measurements)
    elif args.command == "sample":
        cmd_sample(args.checkpoint, args.out, args.sampler, args.steps,
                   args.count, args.seed, eta=args.eta)
    elif args.command == "reconstruct":
        cmd_reconstruct(args.checkpoint, args.measurements, args.out, args.steps,
                        args.seed, eta=args.eta, limit=args.limit)
    elif args.command == "eval":
        cmd_eval(load_config(args.config), args.out, checkpoint=args.checkpoint,
                 checkpoint_b=args.checkpoint_b, samples_a=args.samples_a,
                 samples_b=args.samples_b)
    elif args.command == "inspect":
        cmd_inspect(args.path, pgm=args.pgm, index=args.index,
                    height=args.height, width=args.width)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
