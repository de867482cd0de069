"""The on-disk kinds: tensor files, checkpoints, gen-data directories and
samples, each with one reader, one writer and a :func:`describe` entry, and
the CSV, graymap and JSON writers. Each JSON document a command reads is
checked by a table of rows in the config's form (:mod:`specdiff.schema`).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .diffusion import DiffusionSchedule
from .model import Denoiser
from .operators import transform_from_descriptor
from .schema import (
    _AT_LEAST_0,
    _AT_LEAST_1,
    _BETA,
    _NO_DEFAULT,
    _SCHEMA,
    _STEPS,
    Interval,
    Rule,
    Tagged,
    _check_section,
    _one_of,
)

__all__ = [
    "Checkpoint",
    "FormatError",
    "describe",
    "describe_tensor",
    "load_checkpoint",
    "read_gen_data",
    "read_samples",
    "read_tensor_file",
    "save_checkpoint",
    "write_checkpoint",
    "write_csv",
    "write_gen_data",
    "write_json",
    "write_pgm",
    "write_samples",
    "write_tensor_file",
]

TENSOR_MAGIC = b"SPECDIFF-TENSOR\x00"
CHECKPOINT_MAGIC = b"SPECDIFF-CKPT\x00\x00\x00"
FORMAT_VERSION = 1


class FormatError(ValueError):
    """Malformed or future-versioned artifact file."""


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


# -- tensor files ------------------------------------------------------------------


def write_tensor_file(path, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    _write(path, (TENSOR_MAGIC, struct.pack(f"<II{arr.ndim}Q", FORMAT_VERSION,
                                            arr.ndim, *arr.shape), arr))


def read_tensor_file(path, rows: int | None = None, start: int = 0) -> np.ndarray:
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


def describe_tensor(path, arr: np.ndarray) -> str:
    """The tensor file ``path``, read as ``arr``: its shape and range."""
    return (f"{path}: shape={arr.shape} dtype=float64 "
            f"min={arr.min(initial=np.inf):.6g} max={arr.max(initial=-np.inf):.6g}")


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


def write_json(path, obj: dict, version: int | None = FORMAT_VERSION) -> None:
    """A sidecar: ``obj`` and its ``format_version``, ``version``, unless None."""
    obj = obj if version is None else {"format_version": version, **obj}
    _write(path, [json.dumps(obj, indent=2, sort_keys=True).encode() + b"\n"])


# -- the JSON tables -----------------------------------------------------------------


# One table per JSON kind that a command reads, in the config's row form.
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
# the sidecars that have a table, by file name
_SIDECARS = {"dataset.json": _DATASET_META, "samples.json": _SAMPLES_META}


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


def _read_sidecar(path: Path) -> dict:
    """The sidecar ``path``, checked by its table; an error names its directory."""
    return _json_header(path.read_bytes(), path.parent, _SIDECARS[path.name], path.name)


def _describe_document(path, kind: str, doc: dict) -> str:
    """``path``'s kind, then each dotted key of ``doc`` with its JSON value."""
    lines = [f"{path}: {kind}"]

    def walk(node: dict, prefix: str) -> None:
        for key, value in node.items():
            if isinstance(value, dict):
                walk(value, f"{prefix}{key}.")
            else:
                lines.append(f"  {prefix}{key}: {json.dumps(value, sort_keys=True)}")
    walk(doc, "")
    return "\n".join(lines)


# -- checkpoints -----------------------------------------------------------------


def _schedule_digest(schedule: dict) -> str:
    return hashlib.sha256(json.dumps(schedule, sort_keys=True).encode()).hexdigest()


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
        # the descriptor's width first: a real_dft transform is a dense
        # (2 * lines)-square matrix, built last
        width = (vt_descriptor["n"] if vt_descriptor["kind"] == "identity"
                 else 2 * vt_descriptor["lines"])
        if width != arch["n"]:
            raise ValueError(f"vt has n = {width}, arch has n = {arch['n']}")
        self._model = Denoiser.from_arch(arch, params, ema_params)
        self.params, self.ema_params = self._model.params, self._model.ema_params
        self._schedule = DiffusionSchedule(**schedule)
        self.vt = transform_from_descriptor(vt_descriptor)

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


def write_checkpoint(path, arch: dict, params: np.ndarray, ema_params: np.ndarray,
                     step_count: int, config_digest: str, schedule: dict,
                     vt_descriptor: dict) -> None:
    """The checkpoint of these fields, :class:`Checkpoint`'s, without one built."""
    header = _checkpoint_header(arch, step_count, config_digest, schedule,
                                vt_descriptor, params.size)
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    _write(path, (CHECKPOINT_MAGIC, struct.pack("<II", FORMAT_VERSION, len(raw)),
                  raw, np.ascontiguousarray(params, dtype="<f8"),
                  np.ascontiguousarray(ema_params, dtype="<f8")))


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    write_checkpoint(path, ckpt.arch, ckpt.params, ckpt.ema_params, ckpt.step_count,
                     ckpt.config_digest, ckpt.schedule, ckpt.vt_descriptor)


def load_checkpoint(path) -> Checkpoint:
    """The checkpoint ``path``: its frame, header and size are checked first,
    then its two vectors are read straight into their arrays."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header_len = _frame(fh.read(24), path, CHECKPOINT_MAGIC, "checkpoint")
        if size < 24 + header_len:
            raise FormatError(f"{path}: truncated header")
        header = _json_header(fh.read(header_len), path, _CHECKPOINT_HEADER, "header")
        count = header["param_count"]
        if header["schedule_digest"] != _schedule_digest(header["schedule"]):
            raise FormatError(f"{path}: schedule digest mismatch")
        if size != 24 + header_len + 16 * count:
            raise FormatError(f"{path}: parameter payload size mismatch")
        params = np.fromfile(fh, dtype="<f8", count=count)
        ema = np.fromfile(fh, dtype="<f8", count=count)
    if not (np.isfinite(params).all() and np.isfinite(ema).all()):
        raise FormatError(f"{path}: non-finite parameter or EMA values")
    try:  # a bad arch, schedule or vt fails here and not at first use
        return Checkpoint(arch=header["arch"], params=params, ema_params=ema,
                          step_count=header["step_count"],
                          config_digest=header["config_digest"],
                          schedule=header["schedule"], vt_descriptor=header["vt"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: bad arch, schedule or vt: {exc!r}") from exc


# -- gen-data directories -----------------------------------------------------------


def write_gen_data(path: Path, clean: np.ndarray, holdout: np.ndarray, data,
                   family, **provenance) -> None:
    """The directory ``path`` of ``data``'s measurements of ``clean`` under
    ``family``, and ``holdout.bin`` when ``holdout`` has rows; ``dataset.json``
    records ``provenance`` too."""
    write_tensor_file(path / "clean.bin", clean)
    write_tensor_file(path / "ybar.bin", data.ybar)
    write_tensor_file(path / "masks.bin", data.masks.astype(np.float64))
    if len(holdout):
        write_tensor_file(path / "holdout.bin", holdout)
    write_json(path / "dataset.json", {
        **provenance, "count": len(clean), "holdout": len(holdout), "n": family.n,
        "sigma0": family.sigma0, "vt": family.vt.descriptor()})


def read_gen_data(path, rows: int | None = None, clean: bool = False) -> tuple:
    """The gen-data directory ``path``'s measurements, all of them or only the
    first ``rows``, which alone are then read and checked, as ``(meta, ybar,
    masks, var, clean)``: ``var`` is the noise variance of every kept entry,
    and ``clean`` the ``clean.bin`` rows, shaped as ``ybar``'s, if ``clean``
    is set, else None."""
    path = Path(path)
    for name in ("dataset.json", "ybar.bin", "masks.bin"):
        if path.is_dir() and not (path / name).is_file():
            raise FormatError(f"{path}: gen-data directory lacks {name}")
    meta = _read_sidecar(path / "dataset.json")
    ybar = read_tensor_file(path / "ybar.bin", rows)
    masks = read_tensor_file(path / "masks.bin", rows)
    if ybar.ndim != 2 or ybar.shape != masks.shape or ybar.shape[1] != meta["n"]:
        raise FormatError(f"{path}: ybar {ybar.shape} and masks {masks.shape} "
                          f"must be equal-shaped 2-D arrays of n = {meta['n']} columns")
    if not np.all((masks == 0.0) | (masks == 1.0)):
        raise FormatError(f"{path}: mask values must be exactly 0.0 or 1.0")
    masks = masks == 1.0
    if np.any(ybar[~masks] != 0.0):
        raise FormatError(f"{path}: ybar is non-zero at unobserved entries")
    clean_rows = read_tensor_file(path / "clean.bin", rows) if clean else None
    if clean and clean_rows.shape != ybar.shape:
        raise FormatError(f"{path}: clean.bin {clean_rows.shape} must be shaped as "
                          f"ybar {ybar.shape}")
    sigma0 = float(meta["sigma0"])  # precompute's var, bit for bit
    return meta, ybar, masks, sigma0 * sigma0, clean_rows


def write_samples(path: Path, samples: np.ndarray, **provenance) -> None:
    """``samples.bin`` in the directory ``path``, and ``samples.json`` of
    ``provenance``."""
    write_tensor_file(path / "samples.bin", samples)
    write_json(path / "samples.json", provenance)


def read_samples(path) -> tuple[np.ndarray, dict]:
    """The samples file ``path`` and the ``samples.json`` beside it, checked by
    its rows, or ``{}`` where there is none."""
    rows = read_tensor_file(path)
    sidecar = Path(path).with_name("samples.json")
    return rows, _read_sidecar(sidecar) if sidecar.is_file() else {}


def describe(path) -> str:
    """What ``inspect`` prints of the artifact file ``path``, by its kind: the
    header of a checkpoint, ``dataset.json`` or ``samples.json``, read through
    its table, one dotted key a line; a tensor file's shape and range; any
    other CSV, JSON or graymap as its text, which must be UTF-8."""
    path = Path(path)
    if path.name in _SIDECARS:
        return _describe_document(path, path.name, _read_sidecar(path))
    if path.suffix in (".json", ".csv", ".pgm"):
        try:
            return path.read_text(encoding="utf-8").strip()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc
    with open(path, "rb") as fh:  # the magic picks the reader
        magic = fh.read(16)
    if magic == CHECKPOINT_MAGIC:
        return _describe_document(path, "checkpoint", load_checkpoint(path).header())
    return describe_tensor(path, read_tensor_file(path))
