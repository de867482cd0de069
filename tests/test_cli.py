"""File formats, config validation, checkpoints, and subcommands."""

import argparse
import collections
import hashlib
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specdiff import artifacts, cli, schema, signals
from specdiff.artifacts import (
    CHECKPOINT_MAGIC,
    Checkpoint,
    FormatError,
    load_checkpoint,
    read_tensor_file,
    save_checkpoint,
    write_tensor_file,
)
from specdiff.cli import (
    build_degradation_family,
    build_train_config,
    cmd_eval,
    cmd_gen_data,
    cmd_inspect,
    cmd_reconstruct,
    cmd_sample,
    cmd_train,
    main,
)
from specdiff.diffusion import reconstruct
from specdiff.losses import LossConfig
from specdiff.model import Denoiser
from specdiff.operators import DegradationFamily, LineSubsampleMasks, corrupt
from specdiff.schema import (
    FAMILY_KINDS,
    ConfigError,
    config_digest,
    load_config,
    validate_config,
)
from specdiff.signals import generate_signals
from specdiff.training import derived_rng

from helpers import reference_shapes, traced
from schema_cases import DIGEST, TABLES, schema_rows, with_value


ROOT = Path(__file__).parents[1]
PRESETS = sorted((ROOT / "configs").glob("*.json"))
MINIMAL = {"data": {"kind": "two-deltas", "count": 1, "seed": 0}, "train": {"seed": 0}}
INTERVAL_ROWS = [(where, row) for where, row in schema_rows()
                 if isinstance(row[2], schema.Interval)]


def readme_config_table(table=schema._SCHEMA):
    """README's table of the rows in ``table``, the config's by default,
    rendered with the rule text that their error messages use."""
    lines = ["| key | type | default | rule |", "| --- | --- | --- | --- |"]
    for where, (types, default, rule) in schema_rows(table):
        shown = "required" if default is schema._NO_DEFAULT else f"`{json.dumps(default)}`"
        lines.append(f"| `{where}` | {schema._type_name(types)} | {shown} | "
                     f"{'' if rule is None else 'must ' + rule.text} |")
    return "\n".join(lines) + "\n"


# each JSON kind a command reads: its rows, and a document that obeys them
ARTIFACT_TABLES = {kind: TABLES[kind] for kind in ("header", "dataset.json", "samples.json")}
ARTIFACT_ROWS = [(kind, key, row) for kind, (table, _) in ARTIFACT_TABLES.items()
                 for key, row in schema_rows(table)]
ARTIFACT_INTERVAL_ROWS = [(kind, key, row) for kind, key, row in ARTIFACT_ROWS
                          if isinstance(row[2], schema.Interval)]


def read_artifact(kind, key, value):
    """The document of ``kind`` with the dotted ``key`` set to ``value``, read
    through its rows."""
    table, doc = ARTIFACT_TABLES[kind]
    if key == "vt.lines":  # a row of the real_dft transform's table
        doc = {**doc, "vt": {"kind": "real_dft", "lines": 1}}
    raw = json.dumps(with_value(doc, key, value)).encode()
    return artifacts._json_header(raw, "dir", table, kind)


SIZES = st.integers(-1, 20)
DATA_SECTIONS = st.fixed_dictionaries(
    {"kind": st.sampled_from(["two-deltas", "isotropic-gaussian", "synthetic-shapes"]),
     "count": st.integers(0, 3), "seed": st.integers(0, 3)},
    optional={"dim": SIZES, "height": SIZES, "width": SIZES})
DEGRADATION_SECTIONS = st.fixed_dictionaries({}, optional={
    "family": st.sampled_from(FAMILY_KINDS), "p": st.floats(-0.5, 1.5),
    "patch": SIZES, "accel": SIZES, "sigma0": st.floats(0.0, 0.5)})


def two_deltas_config(iterations=30, oracle=False, seed=5):
    return validate_config({
        "data": {"kind": "two-deltas", "count": 128, "seed": 9},
        "degradation": {"family": "single-drop", "sigma0": 0.01},
        "schedule": {"T": 50, "betaT": 0.2},
        "model": {"hidden": [16, 16], "emb_dim": 8, "ema_decay": 0.99},
        "train": {"iterations": iterations, "batch_size": 8, "seed": seed,
                  "learning_rate": 1e-3, "log_interval": 10,
                  "oracle_mode": oracle, "chunk_size": 4,
                  "loss": {"gamma": "snr", "lambda": "scaled_inverse_snr"}},
    })


def rows_read(monkeypatch) -> collections.Counter:
    """Payload rows of each tensor file that the commands read from now on, by
    file name (a file read for its header alone counts 0)."""
    counts = collections.Counter()
    read = read_tensor_file

    def counting_read(path, rows=None, start=0):
        arr = read(path, rows, start)
        counts[Path(path).name] += len(arr) if arr.ndim else 1
        return arr

    for module in (artifacts, signals, cli):  # each module that calls the reader
        monkeypatch.setattr(module, "read_tensor_file", counting_read)
    return counts


class TestTensorFiles:
    def test_roundtrip(self, tmp_path):
        arr = np.random.default_rng(0).standard_normal((5, 3))
        path = tmp_path / "a.bin"
        write_tensor_file(path, arr)
        back = read_tensor_file(path)
        assert np.array_equal(arr, back)

    def test_zero_size_roundtrip(self, tmp_path):
        path = tmp_path / "empty.bin"
        write_tensor_file(path, np.zeros((0, 4)))
        assert read_tensor_file(path).shape == (0, 4)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a tensor file at all....")
        with pytest.raises(FormatError):
            read_tensor_file(path)

    def test_future_version_rejected(self, tmp_path):
        arr = np.zeros(2)
        path = tmp_path / "v.bin"
        write_tensor_file(path, arr)
        raw = bytearray(path.read_bytes())
        raw[16] = 99  # bump the version field
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            read_tensor_file(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "t.bin"
        write_tensor_file(path, np.zeros(8))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            read_tensor_file(path)

    @pytest.mark.parametrize("extents", [(2 ** 62, 2 ** 62), (2 ** 63 - 1, 0)],
                             ids=["product-wraps", "extent-too-large"])
    def test_extents_beyond_int64_rejected(self, tmp_path, extents):
        # no payload: 2^62 x 2^62 wraps to 0 in int64, and an empty array
        # cannot take an extent of 2^63 - 1
        path = tmp_path / "huge.bin"
        path.write_bytes(artifacts.TENSOR_MAGIC + struct.pack("<II2Q", 1, 2, *extents))
        with pytest.raises(FormatError):
            main(["inspect", str(path)])

    @pytest.mark.parametrize("shape", [(6, 3), (6,), (0, 4), (4, 2, 3)])
    def test_first_rows_are_the_whole_read_sliced(self, tmp_path, shape):
        path = tmp_path / "a.bin"
        write_tensor_file(path, np.random.default_rng(1).standard_normal(shape))
        whole = read_tensor_file(path)
        for rows in range(shape[0] + 2):
            got = read_tensor_file(path, rows)
            assert got.shape == whole[:rows].shape
            assert got.tobytes() == whole[:rows].tobytes()
            for start in range(shape[0] + 2):  # rows from a later row on
                got = read_tensor_file(path, rows, start)
                assert got.tobytes() == whole[start:start + rows].tobytes()
                assert got.shape == whole[start:start + rows].shape

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, tmp_path, value):
        # in the rows read; a row after them is neither read nor checked
        arr = np.ones((4, 2))
        arr[2, 1] = value
        path = tmp_path / "a.bin"
        write_tensor_file(path, arr)
        with pytest.raises(FormatError, match="a.bin: non-finite values"):
            read_tensor_file(path)
        assert read_tensor_file(path, 2).tobytes() == arr[:2].tobytes()

    def test_first_rows_read_alone(self, tmp_path):
        # one row of a 2 MB file allocates one row, not the file
        path = tmp_path / "big.bin"
        write_tensor_file(path, np.ones((4096, 64)))
        row, peak = traced(lambda: read_tensor_file(path, 1))
        assert row.shape == (1, 64) and peak < 2 ** 16

    @pytest.mark.parametrize("damage", ["magic", "version", "header", "payload"])
    def test_first_rows_of_a_malformed_file_rejected(self, tmp_path, damage):
        # a read of 0 rows still checks the header and the whole payload's size
        path = tmp_path / "bad.bin"
        write_tensor_file(path, np.zeros((4, 2)))
        raw = bytearray(path.read_bytes())
        if damage == "magic":
            raw[0] ^= 1
        elif damage == "version":
            raw[16] = 99
        elif damage == "header":  # 24 + 8 * rank = 40 bytes of header
            del raw[30:]
        else:
            del raw[-8:]
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            read_tensor_file(path, 0)


class TestConfig:
    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"data": {"kind": "two-deltas", "count": 1, "seed": 0},
                             "train": {"seed": 0}, "bogus": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"data": {"kind": "two-deltas", "count": 1, "seed": 0,
                                      "spam": 1},
                             "train": {"seed": 0}})

    @pytest.mark.parametrize("section, key, value", [
        ("train", "threads", 2),  # chunks run one after another
        ("", "io", {"deterministic_timing": False}),  # no wall time in metrics.csv
        ("", "io", {"out_dir": "out", "data_dir": "data"}),  # paths are flags
        ("data", "prior_var", 1.0),  # isotropic-gaussian data has unit variance
        ("model", "nonlin", "softplus"),  # the net is tanh
        ("train.loss", "probe_kind", "rademacher"),  # probes are Gaussian
        ("degradation", "s_const", 2.0),  # kept coordinates have singular value 1
    ])
    def test_removed_keys_rejected(self, section, key, value):
        name = section.split(".")[-1] or "config"
        with pytest.raises(ConfigError, match=f"{name}: unknown keys.*{key}"):
            validate_config(with_value(MINIMAL, f"{section}.{key}".lstrip("."), value))

    @pytest.mark.parametrize("text", [b"{", b"\xff\xfe{}"], ids=["json", "utf8"])
    @pytest.mark.parametrize("command", ["gen-data", "train", "eval"])
    def test_unreadable_config_file_rejected(self, tmp_path, command, text):
        path = tmp_path / "cfg.json"
        path.write_bytes(text)
        with pytest.raises(ConfigError, match="not a UTF-8 JSON document"):
            main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    def test_missing_required_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"data": {"kind": "two-deltas", "count": 1, "seed": 0}})

    def test_defaults_filled(self):
        cfg = validate_config({"data": {"kind": "two-deltas", "count": 4, "seed": 0},
                               "train": {"seed": 1}})
        assert cfg["schedule"]["T"] == 1000
        assert cfg["train"]["loss"]["lambda_coef"] == 1e-4

    def test_digest_stable_under_key_order(self):
        a = validate_config({"data": {"kind": "two-deltas", "count": 4, "seed": 0},
                             "train": {"seed": 1}})
        b = validate_config({"train": {"seed": 1},
                             "data": {"seed": 0, "count": 4, "kind": "two-deltas"}})
        assert config_digest(a) == config_digest(b)

    @pytest.mark.parametrize("where, value", [
        ("model.mean_type", "x"),
        ("model.hidden", ["a"]),
        ("model.hidden", []),
        ("train.loss.gamma", "bogus"),
        ("train.loss.lambda", "bogus"),
        ("train.loss.probes", 0),
        ("eval.eta", 1.5),
        ("train.batch_size", 0),
        ("train.learning_rate", 0),
        ("train.iterations", -1),
        ("train.log_interval", 0),
        ("train.chunk_size", 0),
        ("schedule.T", 0),
        ("schedule.betaT", 1.5),
        ("schedule.beta1", 0.5),
        ("schedule.beta1", "bogus"),
        ("degradation.sigma0", -1),
        ("degradation.p", 1.0),
        ("model.emb_dim", 3),
        ("model.emb_dim", 2 ** 40),  # a ceiling, so train asks numpy for no 2 PiB
        ("model.emb_dim", 10 ** 400),
        ("data.count", -1),
        ("data.holdout", -3),
        ("data.dim", 0),
        ("data.height", 0),
        ("data.width", 0),
        ("data.height", 5),
        ("data.width", 5),
        ("degradation.patch", 0),
        ("degradation.accel", 0),
        ("model.ema_decay", 1.5),
        ("eval.t_stride", 0),
        ("eval.count", 0),
        ("eval.steps", 0),
        ("eval.n_samples", 0),
        ("eval.n_permutations", 0),
        ("eval.n_permutations", 1),
        ("train.loss.lambda_coef", -1.0),
        ("eval.uncertainty_sigma0", -0.5),
        ("eval.peak", 0),
        ("eval.n_projections", 0),
        ("eval.uncertainty_k", 1),
        ("eval.operations", ["mse_sweep", "bogus"]),
        ("eval.ts", [0, 5]),
        ("eval.ts", ["x"]),
        ("eval.ts", [2.5]),
        ("eval.snr_levels", [-2.0]),
        ("eval.snr_levels", ["x"]),
        ("eval.snr_levels", [10.0, 1e16]),
        ("eval.accels", [2, 0]),
        ("eval.accels", [2, "x"]),
        ("eval.accels", [2.5]),
    ])
    def test_out_of_range_value_rejected(self, where, value):
        raw = {"data": {"kind": "two-deltas", "count": 1, "seed": 0},
               "train": {"seed": 0}}
        *path, key = where.split(".")
        node = raw
        for part in path:
            node = node.setdefault(part, {})
        node[key] = value
        with pytest.raises(ConfigError, match=where.replace(".", r"\.")):
            validate_config(raw)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("section, key", [
        tuple(where.rsplit(".", 1)) for where, (types, _, _) in schema_rows()
        if float in (types if isinstance(types, tuple) else (types,))])
    def test_non_finite_float_rejected(self, section, key, value):
        with pytest.raises(ConfigError, match=rf"{section}\.{key}: must be finite"):
            validate_config(with_value(MINIMAL, f"{section}.{key}", value))

    @pytest.mark.parametrize("where, value, named", [
        ("degradation.p", 10 ** 400, "degradation.p"),  # float() overflows
        ("eval.snr_levels", [10 ** 400], "eval.snr_levels"),
        ("eval.operations", [["mse_sweep"]], "eval.operations"),  # unhashable
        ("degradation.sigma0", 1e200, "schedule.beta1"),  # sigma0 ** 2 overflows
    ], ids=["huge-int", "huge-int-entry", "unhashable-entry", "huge-sigma0"])
    def test_malformed_values_raise_config_error(self, where, value, named):
        with pytest.raises(ConfigError, match=re.escape(named)):
            validate_config(with_value(MINIMAL, where, value))

    @pytest.mark.parametrize("where, row", INTERVAL_ROWS,
                             ids=[where for where, _ in INTERVAL_ROWS])
    def test_interval_rows_hold_at_and_reject_past_their_bounds(self, where, row):
        types, _, rule = row
        # at the default betaT, abar underflows long before 2**20 steps
        base = with_value(MINIMAL, "schedule.betaT", 1e-4) \
            if where == "schedule.T" else MINIMAL
        for bound, is_open, up in ((rule.lo, rule.open_lo, False),
                                   (rule.hi, rule.open_hi, True)):
            if bound == float("inf"):
                continue
            if is_open:
                outside = bound
            else:
                validate_config(with_value(base, where, bound))
                outside = bound + (1 if up else -1) if types is int \
                    else float(np.nextafter(bound, np.inf if up else -np.inf))
            with pytest.raises(ConfigError, match=re.escape(where)):
                validate_config(with_value(base, where, outside))

    @pytest.mark.parametrize("table", [schema._SCHEMA] + [
        table for table, _ in ARTIFACT_TABLES.values()], ids=["config", *ARTIFACT_TABLES])
    def test_defaults_obey_their_rows(self, table):
        # validation fills defaults in unchecked, so the table must hold valid ones
        for where, (types, default, rule) in schema_rows(table):
            if default is not schema._NO_DEFAULT and default is not None:
                assert schema._fits(default, types), where
                assert rule is None or rule.holds(default), where

    def test_readme_holds_the_config_table(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        assert readme_config_table() in readme

    @pytest.mark.parametrize("kind", ARTIFACT_TABLES)
    def test_readme_holds_the_artifact_tables(self, kind):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        assert readme_config_table(ARTIFACT_TABLES[kind][0]) in readme

    @pytest.mark.parametrize("preset, digest", [
        ("shapes_lines", "624fffaa6e0b8555bb4325764b08035cd3bb0bdb569bc071d80536c1f513243e"),
        ("shapes_patch", "ebdc4b1a3de509e7ee7b118ac38f1d6759ddc3ec3cfce80e61dfb9e5d84e9ba4"),
        ("two_deltas", "5a2877ca61bc8299a4502abaa7660aa32043957fbc5998e84993badf1e0a71d2"),
        (None, "06dd6b971168334573c9c0a12754a6d780113a05cf3a441894567319459202d3"),
    ], ids=["shapes_lines", "shapes_patch", "two_deltas", "all-defaults"])
    def test_config_digests_are_pinned(self, preset, digest):
        cfg = load_config(ROOT / "configs" / f"{preset}.json") if preset \
            else validate_config(MINIMAL)
        assert config_digest(cfg) == digest

    def test_loss_defaults_are_loss_config_defaults(self):
        assert build_train_config(validate_config(MINIMAL)).loss == LossConfig()

    @pytest.mark.parametrize("section, key", [("train", "seed"), ("schedule", "T")])
    def test_null_rejected_where_none_is_not_the_default(self, section, key):
        raw = {"data": {"kind": "two-deltas", "count": 1, "seed": 0},
               "train": {"seed": 0}}
        raw.setdefault(section, {})[key] = None
        with pytest.raises(ConfigError, match=key):
            validate_config(raw)

    def test_sigma0_squared_beta1_checked_against_beta_t(self):
        # the default beta1 rule resolves to sigma0**2 = 0.25 > betaT = 0.2
        with pytest.raises(ConfigError, match=r"schedule\.beta1"):
            validate_config({"data": {"kind": "two-deltas", "count": 1, "seed": 0},
                             "train": {"seed": 0}, "degradation": {"sigma0": 0.5}})

    @pytest.mark.parametrize("section, key, value", [
        ("degradation", "sigma0", 0.5),  # the default rule: sigma0**2 = 0.25 > 0.2
        ("degradation", "sigma0", 1e200),  # sigma0**2 overflows
        ("schedule", "beta1", 0.5)])
    def test_beta1_checked_against_beta_t(self, section, key, value):
        # a rule across rows, which the schedule that validation builds checks
        cfg = {**MINIMAL, section: {key: value}}
        with pytest.raises(ConfigError, match=r"schedule\.beta1 = .* build no schedule"):
            validate_config(cfg)

    def test_schedule_that_underflows_rejected_before_output(self, tmp_path):
        # from 1e-4 to 0.2 over 6920 steps, abar stops decreasing at its last
        # step; train used to make --out and then raise a bare ValueError
        raw = json.loads((ROOT / "configs" / "two_deltas.json").read_text())
        raw["schedule"]["T"] = 6920
        path, out = tmp_path / "cfg.json", tmp_path / "out"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=r"schedule\.T = 6920, .* schedule\.betaT"
                                              r" = 0\.2 build no schedule"):
            load_config(path)
        with pytest.raises(ConfigError, match=r"schedule\.T"):
            main(["train", "--config", str(path), "--out", str(out)])
        assert not out.exists()
        raw["schedule"]["T"] = 6919
        path.write_text(json.dumps(raw))
        assert load_config(path)["schedule"]["T"] == 6919

    def test_validated_defaults_are_copies(self):
        raw = {"data": {"kind": "two-deltas", "count": 1, "seed": 0},
               "train": {"seed": 0}}
        first = validate_config(raw)
        first["model"]["hidden"].append(7)
        first["eval"]["ts"].append(3)
        first["eval"]["operations"].append("psnr")
        second = validate_config(raw)
        assert second["model"]["hidden"] == [256, 256, 256]
        assert second["eval"]["ts"] == []
        assert second["eval"]["operations"] == []

    @pytest.mark.parametrize("path", PRESETS, ids=lambda p: p.name)
    def test_validation_is_idempotent(self, path):
        once = validate_config(json.loads(path.read_text(encoding="utf-8")))
        assert validate_config(once) == once

    @settings(max_examples=200)
    @given(data=DATA_SECTIONS, degradation=DEGRADATION_SECTIONS)
    def test_accepted_sections_build_or_raise_config_error(self, data, degradation):
        try:
            cfg = validate_config({"data": data, "degradation": degradation,
                                   "train": {"seed": 0}})
        except ConfigError:
            return
        assert validate_config(cfg) == cfg
        try:
            build_degradation_family(cfg)
            generate_signals(cfg["data"], 2, 0)
        except ConfigError:
            pass

    @pytest.mark.parametrize("data, degradation, key", [
        ({"kind": "two-deltas"}, {"family": "patch-drop"}, "patch"),
        ({"kind": "synthetic-shapes"}, {"family": "patch-drop", "patch": 5}, "patch"),
        ({"kind": "isotropic-gaussian", "dim": 1}, {"family": "single-drop"}, "family"),
        ({"kind": "two-deltas"}, {"family": "line-subsample", "accel": 1}, "accel"),
        ({"kind": "two-deltas"}, {"family": "line-subsample", "accel": 2}, "accel"),
    ], ids=["flat-patch", "shapes-patch-5", "single-drop-dim-1", "lines-accel-1",
            "lines-accel-2"])
    @pytest.mark.parametrize("cmd", [cmd_gen_data, cmd_train])
    def test_masks_that_do_not_fit_fail_before_output(self, tmp_path, cmd, data,
                                                      degradation, key):
        cfg = validate_config({"data": {"count": 4, "seed": 0, **data},
                               "degradation": degradation, "train": {"seed": 0}})
        with pytest.raises(ConfigError, match=rf"degradation\.{key}"):
            cmd(cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"data": {"kind": "spirals", "count": 1, "seed": 0},
                             "train": {"seed": 0}})

    @pytest.mark.parametrize("path", PRESETS, ids=lambda p: p.name)
    def test_presets_train_the_whole_batch_on_one_tape(self, path):
        cfg = load_config(path)
        assert cfg["train"]["chunk_size"] is None
        chunk = build_train_config(cfg).chunk_size
        assert type(chunk) is int and chunk == cfg["train"]["batch_size"]


class TestArtifactTables:
    """The rows of each JSON kind a command reads, checked as the config's are."""

    @pytest.mark.parametrize("kind, key, row", ARTIFACT_INTERVAL_ROWS, ids=[
        f"{kind}.{key}" for kind, key, _ in ARTIFACT_INTERVAL_ROWS])
    def test_interval_rows_hold_at_and_reject_past_their_bounds(self, kind, key, row):
        types, _, rule = row
        for bound, is_open, up in ((rule.lo, rule.open_lo, False),
                                   (rule.hi, rule.open_hi, True)):
            if bound == float("inf"):
                continue
            if is_open:
                outside = bound
            else:
                read_artifact(kind, key, bound)
                outside = bound + (1 if up else -1) if types is int \
                    else float(np.nextafter(bound, np.inf if up else -np.inf))
            with pytest.raises(FormatError, match=re.escape(f"dir: {kind}.{key} must")):
                read_artifact(kind, key, outside)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("kind, key", [
        (kind, key) for kind, key, (types, _, _) in ARTIFACT_ROWS if types is float])
    def test_non_finite_float_rejected(self, kind, key, value):
        with pytest.raises(FormatError, match=re.escape(f"{kind}.{key}: must be finite")):
            read_artifact(kind, key, value)

    @pytest.mark.parametrize("section", ["arch", "schedule"])
    def test_unknown_nested_key_rejected(self, section):
        with pytest.raises(FormatError, match=re.escape(f"dir: header.{section}: "
                                                        "unknown keys ['spam']")):
            read_artifact("header", f"{section}.spam", 1)

    @pytest.mark.parametrize("vt, named", [
        ({"kind": "identity", "n": 2.0}, "vt.n: expected int, got float"),
        ({"kind": "real_dft", "lines": 0}, "vt.lines must be >= 1"),
        ({"kind": "identity", "n": 2.0, "extra": [1]}, "vt: unknown keys ['extra']"),
        ({"kind": "real_dft", "n": 2}, "vt: unknown keys ['n']"),
        ({"kind": "fourier", "n": 2}, "vt.kind must be one of ('identity', 'real_dft')"),
        ({"n": 2}, "vt: missing required key 'kind'"),
        ("identity", "vt must be an object"),
    ], ids=["float-n", "zero-lines", "extra-key", "key-of-another-kind",
            "unknown-kind", "no-kind", "not-an-object"])
    @pytest.mark.parametrize("kind", ["header", "dataset.json"])
    def test_transform_descriptor_typed_by_its_kind(self, kind, vt, named):
        with pytest.raises(FormatError, match=re.escape(f"dir: {kind}.{named}")):
            read_artifact(kind, "vt", vt)

    @pytest.mark.parametrize("kind", ARTIFACT_TABLES)
    def test_document_is_read_as_it_stands(self, kind):
        # other top-level keys are ignored, and no default or int-to-float
        # conversion of the rows reaches the document
        doc = json.loads(json.dumps(ARTIFACT_TABLES[kind][1]))
        doc["spam"] = [1]
        if kind == "header":
            doc["arch"]["ema_decay"] = 1
        read = artifacts._json_header(json.dumps(doc).encode(), "dir",
                                ARTIFACT_TABLES[kind][0], kind)
        assert read == doc
        assert json.dumps(read) == json.dumps(doc)  # the 1 stays an int


class TestSignals:
    def test_two_deltas_values(self):
        cfg = {"kind": "two-deltas"}
        sig = generate_signals({**cfg}, 1000, seed=3)
        assert sig.shape == (1000, 2)
        assert set(map(tuple, np.unique(sig, axis=0).tolist())) <= {(-1.0, -1.0), (1.0, 1.0)}
        # both modes actually appear
        assert len(np.unique(sig, axis=0)) == 2

    def test_shapes_range_and_shape(self):
        sig = generate_signals({"kind": "synthetic-shapes", "height": 8, "width": 8},
                               16, seed=4)
        assert sig.shape == (16, 64)
        assert sig.min() >= 0.0 and sig.max() <= 1.0

    # count 0 and 1, non-square, blocks of 180 records (13x7) and of 12 (40x33)
    # crossed, one record per block (130x129), and the preset size
    @pytest.mark.parametrize("count, h, w", [(0, 16, 16), (1, 16, 16), (37, 6, 9),
                                             (300, 13, 7), (30, 40, 33),
                                             (3, 130, 129), (4096, 16, 16)])
    @pytest.mark.parametrize("seed", [0, 1, 101, 301, 2**40 + 3])
    def test_shapes_equal_the_per_draw_reference(self, seed, count, h, w):
        got = generate_signals({"kind": "synthetic-shapes", "height": h, "width": w},
                               count, seed)
        want = reference_shapes(count, h, w, derived_rng(seed, 0))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_shapes_painting_memory_bound(self):
        # at the preset size the painting blocks add at most 1 MB to the output
        data = {"kind": "synthetic-shapes", "height": 16, "width": 16}
        out, peak = traced(lambda: generate_signals(data, 4096, 101))
        assert peak <= out.nbytes + 2**20

    def test_zero_count(self, tmp_path):
        cfg = two_deltas_config()
        cfg["data"]["count"] = 0
        out = cmd_gen_data(cfg, tmp_path / "d0")
        assert read_tensor_file(out / "clean.bin").shape == (0, 2)
        assert read_tensor_file(out / "ybar.bin").shape == (0, 2)

    def test_external_binary_source(self, tmp_path):
        rows = np.random.default_rng(5).standard_normal((10, 3))
        src = tmp_path / "ext.bin"
        write_tensor_file(src, rows)
        sig = generate_signals({"kind": "external-binary", "path": str(src)},
                               6, seed=0)
        np.testing.assert_array_equal(sig, rows[:6])
        sig = generate_signals({"kind": "external-binary", "path": str(src)},
                               4, seed=0, start=6)
        np.testing.assert_array_equal(sig, rows[6:])
        for count, start in ((99, 0), (4, 7)):
            with pytest.raises(ConfigError, match=f"ext.bin: .* {count + start} rows"):
                generate_signals({"kind": "external-binary", "path": str(src)},
                                 count, seed=0, start=start)

    def test_external_binary_with_a_non_finite_entry_rejected(self, tmp_path):
        rows = np.ones((8, 3))
        rows[1, 2] = np.inf
        src = tmp_path / "ext.bin"
        write_tensor_file(src, rows)
        cfg = validate_config({"data": {"kind": "external-binary", "count": 4,
                                        "seed": 0, "path": str(src)},
                               "train": {"seed": 0}})
        for cmd in (cmd_gen_data, cmd_train):
            with pytest.raises(FormatError, match="ext.bin: non-finite values"):
                cmd(cfg, tmp_path / "out")
            assert not (tmp_path / "out").exists()

    def test_external_binary_of_wrong_rank_rejected(self, tmp_path):
        src = tmp_path / "ext.bin"
        write_tensor_file(src, np.arange(6.0))
        cfg = validate_config({"data": {"kind": "external-binary", "count": 4,
                                        "seed": 0, "path": str(src)},
                               "train": {"seed": 0}})
        for cmd in (cmd_gen_data, cmd_train):
            with pytest.raises(ConfigError, match="external-binary file"):
                cmd(cfg, tmp_path / "out")

    @pytest.mark.parametrize("command, rows", [
        ("gen-data", {"signals.bin": 34}),
        ("train", {"signals.bin": 30}),
        ("train-data-dir", {"signals.bin": 0, "ybar.bin": 30, "masks.bin": 30})],
        ids=["gen-data", "train", "train-data-dir"])
    def test_external_source_read_once(self, tmp_path, monkeypatch, command, rows):
        # the family's width probe reads the source's header alone, and a
        # command that trains on --measurements reads none of its payload
        src = tmp_path / "signals.bin"
        write_tensor_file(src, np.random.default_rng(2).standard_normal((40, 2)))
        cfg = two_deltas_config(iterations=2)
        cfg["data"] = {**cfg["data"], "kind": "external-binary", "path": str(src),
                       "count": 30, "holdout": 4}
        cfg = validate_config(cfg)
        data = cmd_gen_data(cfg, tmp_path / "data") if command == "train-data-dir" \
            else None
        reads = rows_read(monkeypatch)
        if command == "gen-data":
            cmd_gen_data(cfg, tmp_path / "out")
        else:
            cmd_train(cfg, tmp_path / "out", data)
        assert reads == rows


class TestCheckpoints:
    def make(self):
        rng = np.random.default_rng(1)
        return Checkpoint(
            arch={"n": 2, "hidden": [4], "emb_dim": 8, "mean_type": "predict_x",
                  "ema_decay": 0.99},
            params=rng.standard_normal(54), ema_params=rng.standard_normal(54),
            step_count=17, config_digest=DIGEST,
            schedule={"T": 10, "beta1": 1e-4, "betaT": 0.2, "t_min_valid": 1},
            vt_descriptor={"kind": "identity", "n": 2},
        )

    def test_roundtrip_bit_exact(self, tmp_path):
        ckpt = self.make()
        path = tmp_path / "c.bin"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        assert loaded == ckpt
        # a checkpoint holds the one model and schedule it describes
        model = loaded.model()
        assert model.params is loaded.params and model.ema_params is loaded.ema_params
        assert model is loaded.model()
        assert loaded.rebuild_schedule() is loaded.rebuild_schedule()

    def test_load_memory_bound(self, tmp_path):
        # the shapes_patch preset's net (271,360 parameters): loading holds the
        # two vectors read and the model's copies of them, and little more
        net = Denoiser.create(256, hidden=(256, 256, 256), emb_dim=32)
        path = tmp_path / "c.bin"
        save_checkpoint(path, Checkpoint(
            arch=net.arch(), params=net.params, ema_params=net.ema_params,
            step_count=0, config_digest=DIGEST,
            schedule={"T": 1000, "beta1": 1e-4, "betaT": 0.2, "t_min_valid": 1},
            vt_descriptor={"kind": "identity", "n": 256}))
        ckpt, peak = traced(lambda: load_checkpoint(path))
        assert ckpt.params.size == 271_360
        assert peak <= 4 * ckpt.params.nbytes + 2**17

    @pytest.mark.parametrize("command, builds", [
        ("sample", 1), ("reconstruct", 1), ("eval", 2)])
    def test_each_checkpoint_builds_its_model_and_schedule_once(
            self, tmp_path, monkeypatch, command, builds):
        # eval runs every operation on two checkpoints; the acceleration
        # sweep needs real-DFT signals
        cfg = two_deltas_config(iterations=2)
        cfg["data"].update(kind="isotropic-gaussian", dim=8)
        cfg["degradation"].update(family="line-subsample", accel=2)
        cfg["eval"].update(operations=list(schema.EVAL_INPUTS), count=16, n_samples=200,
                           n_permutations=20, uncertainty_k=2, steps=5, accels=[2])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        data = str(cmd_gen_data(cfg, tmp_path / "data"))
        ckpt = str(cmd_train(cfg, tmp_path / "run") / "checkpoint.bin")
        samples = str(tmp_path / "samples.bin")
        write_tensor_file(samples, np.random.default_rng(0).standard_normal((4, 8)))
        argv = {"sample": ["sample", "--checkpoint", ckpt, "--steps", "5",
                           "--count", "4", "--seed", "1"],
                "reconstruct": ["reconstruct", "--checkpoint", ckpt, "--measurements",
                                data, "--limit", "2", "--steps", "5", "--seed", "1"],
                "eval": ["eval", "--config", str(cfg_path), "--checkpoint", ckpt,
                         "--checkpoint-b", ckpt, "--samples-a", samples,
                         "--samples-b", samples]}[command]
        counts = collections.Counter()
        from_arch, schedule = Denoiser.from_arch.__func__, schema.DiffusionSchedule

        def counted_model(cls, *args):
            counts["model"] += 1
            return from_arch(cls, *args)

        def counted_schedule(*args, **kwargs):
            counts["schedule"] += 1
            return schedule(*args, **kwargs)

        monkeypatch.setattr(Denoiser, "from_arch", classmethod(counted_model))
        for module in (artifacts, schema):  # a checkpoint's and a config's
            monkeypatch.setattr(module, "DiffusionSchedule", counted_schedule)
        main(argv + ["--out", str(tmp_path / "out")])
        # eval's load_config builds the config's schedule once, to check it
        configs = command == "eval"
        assert counts == {"model": builds, "schedule": builds + configs}

    def test_train_header_records_the_configured_schedule(self, tmp_path):
        # at T = 1 the one beta is beta1; the header used to store it as betaT
        cfg = two_deltas_config(iterations=2)
        cfg["schedule"]["T"] = 1
        run = cmd_train(cfg, tmp_path / "run")
        schedule = load_checkpoint(run / "checkpoint.bin").schedule
        assert schedule == {"T": 1, "beta1": 1e-4, "betaT": 0.2, "t_min_valid": 1}

    def test_train_saves_without_a_checkpoint_object(self, tmp_path, monkeypatch):
        # train writes its model's header and vectors as they are; the file
        # equals what save_checkpoint writes for the checkpoint it loads as
        def no_checkpoint(*args, **kwargs):
            raise AssertionError("train built a Checkpoint")

        for module in (artifacts, cli):
            monkeypatch.setattr(module, "Checkpoint", no_checkpoint)
        path = cmd_train(two_deltas_config(iterations=2),
                         tmp_path / "run") / "checkpoint.bin"
        monkeypatch.undo()
        ckpt = load_checkpoint(path)
        assert ckpt.step_count == 2
        save_checkpoint(tmp_path / "again.bin", ckpt)
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        save_checkpoint(path, self.make())
        raw = bytearray(path.read_bytes())
        raw[16] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def write_raw(self, path, header: bytes):
        """A checkpoint file around ``header`` verbatim, with the sample payload."""
        ckpt = self.make()
        with open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<II", 1, len(header)))
            fh.write(header)
            fh.write(ckpt.params.tobytes())
            fh.write(ckpt.ema_params.tobytes())

    def header_bytes(self, **changes) -> bytes:
        return json.dumps({**self.make().header(), **changes}, sort_keys=True).encode()

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        save_checkpoint(path, self.make())
        raw = path.read_bytes()
        header_len = struct.unpack_from("<I", raw, 20)[0]
        for cut in (24 + header_len // 2, 30):
            path.write_bytes(raw[:cut])
            with pytest.raises(FormatError):
                load_checkpoint(path)

    @pytest.mark.parametrize("header", [b'{"arch": ', b"\xff\xfe\x00garbled",
                                        b"[1, 2, 3]"], ids=["json", "utf8", "list"])
    def test_garbled_header_rejected(self, tmp_path, header):
        path = tmp_path / "c.bin"
        self.write_raw(path, header)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["param_count", "arch", "schedule"])
    def test_missing_header_key_rejected(self, tmp_path, key):
        path = tmp_path / "c.bin"
        header = json.loads(self.header_bytes())
        del header[key]
        self.write_raw(path, json.dumps(header).encode())
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_bad_param_count_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        self.write_raw(path, self.header_bytes(param_count="54"))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, value", [
        ("arch", {"hidden": [4], "emb_dim": 8, "mean_type": "predict_x",
                  "ema_decay": 0.99}),
        ("arch", "mlp"),
        ("arch", {"n": 2, "hidden": [5], "emb_dim": 8, "mean_type": "predict_x",
                  "ema_decay": 0.99}),
        ("arch", {"n": 2, "hidden": [4], "emb_dim": 8, "mean_type": "predict_x",
                  "ema_decay": 0.99, "nonlin": "relu"}),
        ("schedule", {"beta1": 1e-4, "betaT": 0.2, "t_min_valid": 1}),
        ("schedule", {"T": 10, "beta1": 1e-4, "betaT": 1.5, "t_min_valid": 1}),
        ("vt", {"n": 2}),
        ("vt", {"kind": "fourier", "n": 2}),
        ("step_count", 2.7),
        ("step_count", -5),
        ("step_count", True),
        ("step_count", "3"),
        ("format_version", 99),
        ("format_version", "1"),
        ("schedule", {"T": 10, "beta1": 1e-4, "betaT": 0.2, "t_min_valid": True}),
        ("arch", {"n": 2, "hidden": [4], "emb_dim": 8.0, "mean_type": "predict_x",
                  "ema_decay": 0.99}),
        ("vt", {"kind": "identity", "n": 2.0}),
        ("vt", {"kind": "identity", "n": 2, "extra": [1]}),
        ("schedule", {"T": 7000, "beta1": 1e-4, "betaT": 0.2, "t_min_valid": 1}),
    ], ids=["arch-no-n", "arch-str", "arch-hidden-vs-params", "arch-nonlin",
            "schedule-no-T", "schedule-bad-beta", "vt-no-kind", "vt-unknown-kind",
            "step-float", "step-negative", "step-bool", "step-str", "version-newer",
            "version-str", "schedule-t-min-bool", "arch-emb-dim-float", "vt-float-n",
            "vt-extra-key", "schedule-underflows"])
    def test_bad_header_content_rejected(self, tmp_path, field, value):
        # well-formed JSON whose arch, schedule or vt cannot be rebuilt, whose
        # step count is not a non-negative integer, whose format_version is
        # not an integer no newer than the reader's, or whose arch, schedule or
        # vt breaks a row (a boolean t_min_valid, a float emb_dim or vt.n, a
        # key the vt kind does not name)
        path = tmp_path / "c.bin"
        changes = {field: value}
        if field == "schedule":
            changes["schedule_digest"] = hashlib.sha256(
                json.dumps(value, sort_keys=True).encode()).hexdigest()
        self.write_raw(path, self.header_bytes(**changes))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_file_of_another_kind_read_no_further_than_its_frame(self, tmp_path):
        # a 128 MB tensor file passed as --checkpoint used to be read whole
        path, out = tmp_path / "big.bin", tmp_path / "out"
        with open(path, "wb") as fh:  # sparse: its zeros take no disk
            fh.write(artifacts.TENSOR_MAGIC + struct.pack("<II2Q", 1, 2, 2 ** 14, 2 ** 10))
            fh.truncate(40 + 2 ** 27)

        def read():
            with pytest.raises(FormatError, match="not a checkpoint file"):
                main(["sample", "--checkpoint", str(path), "--seed", "1",
                      "--out", str(out)])

        assert traced(read)[1] < 2 ** 20
        assert not out.exists()

    @pytest.mark.parametrize("field, value, error", [
        ("vt", {"kind": "identity", "n": 4}, "vt has n = 4, arch has n = 2"),
        # a 2000-square matrix, which the loader used to build (114 MB traced)
        # before comparing its width with arch.n
        ("vt", {"kind": "real_dft", "lines": 1000}, "vt has n = 2000, arch has n = 2"),
        ("params", np.nan, "non-finite"),
        ("ema_params", np.inf, "non-finite"),
    ], ids=["vt-n", "vt-lines", "params-nan", "ema-inf"])
    def test_checkpoint_that_sample_would_trip_on_rejected(self, tmp_path, field,
                                                           value, error):
        ckpt = self.make()
        if field == "vt":
            ckpt.vt_descriptor = value
        else:
            getattr(ckpt, field)[3] = value
        path, out = tmp_path / "c.bin", tmp_path / "out"
        save_checkpoint(path, ckpt)

        def sample():
            with pytest.raises(FormatError, match=error):
                main(["sample", "--checkpoint", str(path), "--steps", "5", "--seed", "1",
                      "--out", str(out)])

        assert traced(sample)[1] < 2 ** 20
        assert not out.exists()

    def test_tanh_nonlin_of_older_checkpoints_accepted(self, tmp_path):
        # checkpoints written while the nonlinearity was an option name it
        run = cmd_train(two_deltas_config(iterations=2), tmp_path / "run")
        ckpt = load_checkpoint(run / "checkpoint.bin")
        assert "nonlin" not in ckpt.arch
        ckpt.arch = {**ckpt.arch, "nonlin": "tanh"}
        save_checkpoint(tmp_path / "old.bin", ckpt)
        samples = []
        for path, name in ((run / "checkpoint.bin", "new"), (tmp_path / "old.bin", "old")):
            main(["sample", "--checkpoint", str(path), "--steps", "10", "--count", "4",
                  "--seed", "3", "--out", str(tmp_path / name)])
            samples.append((tmp_path / name / "samples.bin").read_bytes())
        assert samples[0] == samples[1]

    def test_huge_schedule_T_rejected_before_output(self, tmp_path):
        # T = 10**15 used to reach a bare MemoryError building the schedule
        path, out = tmp_path / "c.bin", tmp_path / "out"
        schedule = {"T": 10 ** 15, "beta1": 1e-4, "betaT": 0.2, "t_min_valid": 1}
        digest = hashlib.sha256(json.dumps(schedule, sort_keys=True).encode()).hexdigest()
        self.write_raw(path, self.header_bytes(schedule=schedule, schedule_digest=digest))
        with pytest.raises(FormatError, match=r"schedule\.T must lie in \[1, 1048576\]"):
            main(["sample", "--checkpoint", str(path), "--steps", "5", "--seed", "1",
                  "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("digest", [[1, 2], "abc", None], ids=["list", "abc", "null"])
    def test_untyped_config_digest_rejected_before_output(self, tmp_path, digest):
        # sample used to copy it into a samples.json that eval then rejected
        path, out = tmp_path / "c.bin", tmp_path / "out"
        self.write_raw(path, self.header_bytes(config_digest=digest))
        with pytest.raises(FormatError, match="header.config_digest"):
            main(["sample", "--checkpoint", str(path), "--steps", "5", "--seed", "1",
                  "--out", str(out)])
        assert not out.exists()

    def test_schedule_digest_mismatch_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        tampered = {"T": 10, "beta1": 1e-4, "betaT": 0.3, "t_min_valid": 1}
        self.write_raw(path, self.header_bytes(schedule=tampered))
        with pytest.raises(FormatError, match="schedule digest"):
            load_checkpoint(path)
        # the same schedule with its own digest loads
        digest = hashlib.sha256(json.dumps(tampered, sort_keys=True).encode()).hexdigest()
        self.write_raw(path, self.header_bytes(schedule=tampered, schedule_digest=digest))
        assert load_checkpoint(path).schedule == tampered


class TestDatasetDirectory:
    @pytest.fixture
    def data_cfg(self):
        return two_deltas_config(iterations=1)

    @pytest.fixture
    def data_dir(self, data_cfg, tmp_path):
        return cmd_gen_data(data_cfg, tmp_path / "data")

    def test_valid_directory_trains(self, data_cfg, data_dir, tmp_path):
        out = cmd_train(data_cfg, tmp_path / "run", data_dir)
        assert load_checkpoint(out / "checkpoint.bin").step_count == 1

    # 0.2261...: Python's sigma0 ** 2 rounds differently from sigma0 * sigma0
    @pytest.mark.parametrize("sigma0", [0.01, 0.22610530546880114])
    def test_directory_equals_simulated_dataset(self, tmp_path, sigma0):
        # the oracle, so that the directory's clean.bin is read too
        cfg = two_deltas_config(oracle=True)
        cfg["degradation"]["sigma0"] = sigma0
        simulated, _, _ = cli._dataset(cfg, None)
        loaded, _, _ = cli._dataset(cfg, cmd_gen_data(cfg, tmp_path / "data"))
        for name in ("ybar", "masks", "noise_var", "clean_xbar"):
            assert getattr(loaded, name).tobytes() == getattr(simulated, name).tobytes()

    def rewrite(self, data_dir, name, arr):
        write_tensor_file(data_dir / name, arr)

    def test_fractional_mask_rejected(self, data_cfg, data_dir, tmp_path):
        masks = read_tensor_file(data_dir / "masks.bin")
        masks[0, 0] = 0.5
        self.rewrite(data_dir, "masks.bin", masks)
        with pytest.raises(FormatError, match="0.0 or 1.0"):
            cmd_train(data_cfg, tmp_path / "run", data_dir)

    def test_shape_mismatch_rejected(self, data_cfg, data_dir, tmp_path):
        masks = read_tensor_file(data_dir / "masks.bin")
        self.rewrite(data_dir, "masks.bin", masks[:-1])
        with pytest.raises(FormatError, match="equal-shaped"):
            cmd_train(data_cfg, tmp_path / "run", data_dir)

    def test_nonzero_ybar_at_unobserved_entry_rejected(self, data_cfg, data_dir,
                                                       tmp_path):
        ybar = read_tensor_file(data_dir / "ybar.bin")
        masks = read_tensor_file(data_dir / "masks.bin")
        ybar[masks == 0.0] = 0.25
        self.rewrite(data_dir, "ybar.bin", ybar)
        with pytest.raises(FormatError, match="unobserved"):
            cmd_train(data_cfg, tmp_path / "run", data_dir)

    def test_garbled_sidecar_rejected(self, data_cfg, data_dir, tmp_path):
        (data_dir / "dataset.json").write_text('{"n": 2')
        with pytest.raises(FormatError):
            cmd_train(data_cfg, tmp_path / "run", data_dir)

    @pytest.mark.parametrize("value", [1, 1.0])
    def test_unit_s_const_of_older_sidecars_accepted(self, data_cfg, data_dir, tmp_path,
                                                     value):
        # directories written while the kept singular value was an option hold it
        sidecar = data_dir / "dataset.json"
        meta = json.loads(sidecar.read_text())
        assert "s_const" not in meta
        new = cmd_train(data_cfg, tmp_path / "new", data_dir) / "checkpoint.bin"
        sidecar.write_text(json.dumps({**meta, "s_const": value}))
        old = cmd_train(data_cfg, tmp_path / "old", data_dir) / "checkpoint.bin"
        assert old.read_bytes() == new.read_bytes()

    @pytest.mark.parametrize("field, value", [
        ("format_version", "1"),
        ("format_version", 2),
        ("n", "2"),
        ("n", 3),
        ("sigma0", "0.01"),
        ("sigma0", -0.5),
        ("s_const", None),
        ("s_const", 0),
        ("s_const", 2.0),
        ("data_digest", "abc"),
        ("vt", {"kind": "identity", "n": 2, "extra": 1}),
    ], ids=["version-str", "version-newer", "n-str", "n-vs-columns", "sigma0-str",
            "sigma0-negative", "s_const-null", "s_const-zero", "s_const-two",
            "data-digest-abc", "vt-extra-key"])
    def test_bad_sidecar_field_rejected(self, data_cfg, data_dir, tmp_path, field,
                                        value):
        sidecar = data_dir / "dataset.json"
        meta = json.loads(sidecar.read_text())
        meta[field] = value
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(FormatError, match=field) as exc:
            cmd_train(data_cfg, tmp_path / "run", data_dir)
        assert str(exc.value).startswith(f"{sidecar.parent}: ")

    @pytest.mark.parametrize("command", ["train", "reconstruct"])
    def test_untyped_config_digest_rejected_before_output(self, data_cfg, data_dir,
                                                          tmp_path, command):
        # the digest used to be copied into run.json or recon.json as it stood
        sidecar = data_dir / "dataset.json"
        meta = json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps({**meta, "config_digest": {"x": 1}}))
        out = tmp_path / "out"
        with pytest.raises(FormatError, match="dataset.json.config_digest"):
            if command == "train":
                cmd_train(data_cfg, out, data_dir)
            else:
                ckpt = cmd_train(data_cfg, tmp_path / "run") / "checkpoint.bin"
                cmd_reconstruct(ckpt, data_dir, out, steps=4, seed=1)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "reconstruct"])
    def test_file_as_measurements_rejected_before_output(self, data_cfg, data_dir,
                                                         tmp_path, command):
        # a file used to raise NotADirectoryError on its dataset.json
        ybar, out = data_dir / "ybar.bin", tmp_path / "out"
        if command == "train":
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(data_cfg))
            argv = ["train", "--config", str(cfg_path)]
        else:
            ckpt = cmd_train(data_cfg, tmp_path / "run") / "checkpoint.bin"
            argv = ["reconstruct", "--checkpoint", str(ckpt), "--steps", "4",
                    "--seed", "1"]
        with pytest.raises(FormatError, match=f"^{re.escape(str(ybar))}: not a "
                                              "gen-data directory$"):
            main(argv + ["--measurements", str(ybar), "--out", str(out)])
        assert not out.exists()

    def test_n_other_than_the_columns_rejected(self, data_cfg, data_dir, tmp_path):
        # every row holds; n = 3 does not describe the 2-column arrays
        sidecar = data_dir / "dataset.json"
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "n": 3}))
        with pytest.raises(FormatError, match="n = 3 columns") as exc:
            cmd_train(data_cfg, tmp_path / "run", data_dir)
        assert str(exc.value).startswith(f"{sidecar.parent}: ")

    @pytest.mark.parametrize("section, key, value", [
        ("data", "seed", 10), ("data", "count", 64), ("degradation", "sigma0", 0.3),
        ("degradation", "p", 0.1)], ids=["seed", "count", "sigma0", "p"])
    def test_directory_of_another_config_rejected_before_output(
            self, data_cfg, data_dir, tmp_path, section, key, value):
        # train used to take the directory's masks and noise under this
        # config's weights and digest
        data_cfg[section][key] = value
        out = tmp_path / "run"
        with pytest.raises(ConfigError, match="not written from the configured data "
                                              "and degradation"):
            cmd_train(validate_config(data_cfg), out, data_dir)
        assert not out.exists()

    def test_directory_without_data_digest(self, data_cfg, data_dir, tmp_path):
        # written before gen-data recorded the digest: it still reconstructs,
        # and train asks for it to be written again
        sidecar = data_dir / "dataset.json"
        meta = json.loads(sidecar.read_text())
        del meta["data_digest"]
        sidecar.write_text(json.dumps(meta))
        ckpt = cmd_train(data_cfg, tmp_path / "run") / "checkpoint.bin"
        rec = cmd_reconstruct(ckpt, data_dir, tmp_path / "rec", steps=4, seed=1, limit=2)
        assert read_tensor_file(rec / "recon.bin").shape == (2, 2)
        with pytest.raises(ConfigError, match="re-run gen-data"):
            cmd_train(data_cfg, tmp_path / "out", data_dir)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "reconstruct"])
    def test_non_finite_measurement_rejected_before_output(self, data_cfg, data_dir,
                                                           tmp_path, command):
        # train used to raise TrainingDiverged at step 1, and reconstruct
        # NonFiniteError, each once its output directory was made
        ybar = read_tensor_file(data_dir / "ybar.bin")
        masks = read_tensor_file(data_dir / "masks.bin")
        ybar[tuple(np.argwhere(masks == 1.0)[0])] = np.nan
        self.rewrite(data_dir, "ybar.bin", ybar)
        out = tmp_path / "out"
        with pytest.raises(FormatError, match="ybar.bin: non-finite values"):
            if command == "train":
                cmd_train(data_cfg, out, data_dir)
            else:
                ckpt = cmd_train(data_cfg, tmp_path / "run") / "checkpoint.bin"
                cmd_reconstruct(ckpt, data_dir, out, steps=4, seed=1)
        assert not out.exists()

    @pytest.mark.parametrize("name", ["dataset.json", "ybar.bin", "masks.bin"])
    def test_missing_member_rejected(self, data_cfg, data_dir, tmp_path, name):
        (data_dir / name).unlink()
        with pytest.raises(FormatError, match=f"^{re.escape(str(data_dir))}: .* {name}$"):
            cmd_train(data_cfg, tmp_path / "run", data_dir)

    @pytest.mark.parametrize("command, reads", [
        ("reconstruct", {"ybar.bin": 1, "masks.bin": 1}),
        ("train", {"ybar.bin": 128, "masks.bin": 128}),
        ("oracle", {"ybar.bin": 128, "masks.bin": 128, "clean.bin": 128})],
        ids=["reconstruct", "train", "oracle"])
    def test_clean_signals_read_only_by_the_oracle(self, data_cfg, data_dir, tmp_path,
                                                   monkeypatch, command, reads):
        # and reconstruct --limit reads only the rows it reconstructs
        ckpt = cmd_train(data_cfg, tmp_path / "run", data_dir) / "checkpoint.bin"
        data_cfg["train"]["oracle_mode"] = command == "oracle"
        counts = rows_read(monkeypatch)
        if command == "reconstruct":
            cmd_reconstruct(ckpt, data_dir, tmp_path / "rec",
                            steps=4, seed=1, limit=1)
        else:
            cmd_train(data_cfg, tmp_path / "out", data_dir)
        assert counts == reads

    @pytest.mark.parametrize("shape", [(3, 2), (128, 3)], ids=["rows", "columns"])
    def test_oracle_clean_signals_of_another_shape_rejected(self, data_cfg, data_dir,
                                                            tmp_path, shape):
        # ybar.bin is 128 x 2
        self.rewrite(data_dir, "clean.bin", np.ones(shape))
        data_cfg["train"]["oracle_mode"] = True
        out = tmp_path / "run"
        with pytest.raises(FormatError, match=re.escape(f"clean.bin {shape}")):
            cmd_train(data_cfg, out, data_dir)
        assert not out.exists()

    def test_oracle_training_without_clean_signals_rejected(self, data_cfg, data_dir,
                                                            tmp_path):
        (data_dir / "clean.bin").unlink()
        data_cfg["train"]["oracle_mode"] = True
        out = tmp_path / "run"
        with pytest.raises(ConfigError, match="oracle_mode needs clean.bin"):
            cmd_train(data_cfg, out, data_dir)
        assert not out.exists()


class TestCommands:
    def test_gen_data_writes_dataset(self, tmp_path):
        cfg = two_deltas_config()
        out = cmd_gen_data(cfg, tmp_path / "data")
        meta = json.loads((out / "dataset.json").read_text())
        assert meta["n"] == 2 and meta["count"] == 128
        ybar = read_tensor_file(out / "ybar.bin")
        masks = read_tensor_file(out / "masks.bin").astype(bool)
        assert np.all(ybar[~masks] == 0.0)
        assert np.all(masks.sum(axis=1) == 1)  # one coordinate dropped per record

    def test_train_and_metrics(self, tmp_path):
        cfg = two_deltas_config()
        out = cmd_train(cfg, tmp_path / "run")
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "step,loss,divergence_term,grad_norm"
        assert len(lines) > 2
        ckpt = load_checkpoint(out / "checkpoint.bin")
        assert ckpt.step_count == 30
        assert ckpt.config_digest == config_digest(cfg)

    def test_oracle_mode_trains_on_clean(self, tmp_path):
        cfg = two_deltas_config(oracle=True)
        out = cmd_train(cfg, tmp_path / "oracle")
        rows = (out / "metrics.csv").read_text().splitlines()[1:]
        assert all(float(r.split(",")[2]) == 0.0 for r in rows)  # no divergence term

    def test_train_determinism_across_runs(self, tmp_path):
        out1 = cmd_train(two_deltas_config(), tmp_path / "r1")
        out2 = cmd_train(two_deltas_config(), tmp_path / "r2")
        for name in ("checkpoint.bin", "metrics.csv", "run.json"):
            assert (out2 / name).read_bytes() == (out1 / name).read_bytes()

    def test_sample_determinism_and_shape(self, tmp_path):
        cfg = two_deltas_config()
        run = cmd_train(cfg, tmp_path / "run")
        s1 = cmd_sample(run / "checkpoint.bin", tmp_path / "s1", "ddim", 10, 5, 77)
        s2 = cmd_sample(run / "checkpoint.bin", tmp_path / "s2", "ddim", 10, 5, 77)
        assert (s1 / "samples.bin").read_bytes() == (s2 / "samples.bin").read_bytes()
        assert read_tensor_file(s1 / "samples.bin").shape == (5, 2)
        s3 = cmd_sample(run / "checkpoint.bin", tmp_path / "s3", "ddpm", 10, 2, 78)
        assert read_tensor_file(s3 / "samples.bin").shape == (2, 2)

    def test_reconstruct_zero_filled_exact(self, tmp_path):
        cfg = two_deltas_config()
        data = cmd_gen_data(cfg, tmp_path / "data")
        run = cmd_train(cfg, tmp_path / "run")
        out = cmd_reconstruct(run / "checkpoint.bin", data, tmp_path / "rec",
                              steps=10, seed=5, limit=6)
        zf = read_tensor_file(out / "zero_filled.bin")
        ybar = read_tensor_file(data / "ybar.bin")[:6]
        assert np.array_equal(zf, ybar)  # identity transform: zero-filled == ybar
        rec = read_tensor_file(out / "recon.bin")
        assert rec.shape == (6, 2) and np.all(np.isfinite(rec))

    def test_eval_independence_csv(self, tmp_path):
        cfg = two_deltas_config()
        cfg["eval"]["operations"] = ["independence_demo"]
        # clouds of ~2,500 rows: above the permutation test's 2,000-point cap
        cfg["eval"]["n_samples"] = 5000
        cfg["eval"]["n_permutations"] = 20
        out = cmd_eval(cfg, tmp_path / "eval")
        lines = (out / "independence.csv").read_text().splitlines()
        assert lines[0] == "prior,snr,abar,energy,z,null_mean,null_sd"
        assert len(lines) == 5  # two priors x two SNR levels
        # energy is the permutation test's own statistic, so z reads off the row
        for line in lines[1:]:
            energy, z, null_mean, null_sd = map(float, line.split(",")[3:])
            np.testing.assert_allclose(z, (energy - null_mean) / null_sd, rtol=1e-12)

    def test_eval_pair_csvs_hold_plain_numbers(self, tmp_path):
        # two different checkpoints give finite PSNRs, numpy floats that
        # must be written as numbers, not as their reprs
        a, b = (cmd_train(two_deltas_config(iterations=2, seed=s),
                          tmp_path / f"run{s}") / "checkpoint.bin" for s in (5, 6))
        cfg = two_deltas_config()
        cfg["eval"].update(operations=["mse_sweep", "generalization_psnr"], count=16)
        out = cmd_eval(cfg, tmp_path / "eval", checkpoint=a, checkpoint_b=b)
        for name in ("mse_sweep.csv", "psnr.csv"):
            rows = [line.split(",") for line in
                    (out / name).read_text().splitlines()[1:]]
            assert rows and all(np.isfinite(float(cell)) for row in rows for cell in row)

    def test_eval_distance_between_files(self, tmp_path):
        rng = np.random.default_rng(0)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        write_tensor_file(a, rng.standard_normal((200, 2)))
        write_tensor_file(b, rng.standard_normal((200, 2)))
        cfg = two_deltas_config()
        cfg["eval"]["operations"] = ["distribution_distance"]
        out = cmd_eval(cfg, tmp_path / "eval", samples_a=a, samples_b=b)
        lines = (out / "distance.csv").read_text().splitlines()
        assert lines[0] == "sliced_wasserstein,mean_gap,cov_gap"

    def test_sample_sidecar_records_what_the_sampler_used(self, tmp_path):
        # DDPM visits every timestep and draws fresh noise: no steps, no eta
        ckpt = cmd_train(two_deltas_config(iterations=2),
                         tmp_path / "run") / "checkpoint.bin"
        seen = {}
        for sampler in ("ddim", "ddpm"):
            out = cmd_sample(ckpt, tmp_path / sampler, sampler, 10, 2, 7, eta=0.5)
            meta = json.loads((out / "samples.json").read_text())
            seen[sampler] = meta["steps"], meta["eta"]
        assert seen == {"ddim": (10, 0.5), "ddpm": (None, None)}

    @pytest.mark.parametrize("ops, reads", [
        (["mse_sweep"], "ab"), (["uncertainty"], "a"), (["independence_demo"], "")],
        ids=["mse_sweep", "uncertainty", "independence_demo"])
    def test_eval_sidecar_names_config_and_checkpoints(self, tmp_path, ops, reads):
        # each checkpoint's digest when an operation read it, else null
        runs = {name: cmd_train(two_deltas_config(iterations=2, seed=seed),
                                tmp_path / name) for name, seed in (("a", 5), ("b", 6))}
        cfg = two_deltas_config()
        cfg["eval"].update(operations=ops, count=4, steps=5, uncertainty_k=2,
                           n_samples=50, n_permutations=2)
        out = cmd_eval(cfg, tmp_path / "eval", checkpoint=runs["a"] / "checkpoint.bin",
                       checkpoint_b=runs["b"] / "checkpoint.bin")
        digests = {name: json.loads((run / "run.json").read_text())["config_digest"]
                   for name, run in runs.items()}
        assert digests["a"] != digests["b"]  # the seeds differ, so a swap shows
        assert json.loads((out / "eval.json").read_text()) == {
            "format_version": artifacts.FORMAT_VERSION, "config_digest": config_digest(cfg),
            "checkpoint_config_digest": digests["a"] if "a" in reads else None,
            "checkpoint_b_config_digest": digests["b"] if "b" in reads else None,
            "samples_a_config_digest": None, "samples_a_seed": None,
            "samples_b_config_digest": None, "samples_b_seed": None}

    def test_run_and_recon_sidecars_name_the_measurements(self, tmp_path):
        # the dataset.json digest of --measurements, or null when train simulates
        cfg = two_deltas_config(iterations=2)
        data = cmd_gen_data(cfg, tmp_path / "data")
        data_digest = json.loads((data / "dataset.json").read_text())["config_digest"]
        read = cmd_train(cfg, tmp_path / "read", data)
        simulated = cmd_train(cfg, tmp_path / "simulated")
        rec = cmd_reconstruct(simulated / "checkpoint.bin", data, tmp_path / "rec",
                              steps=4, seed=1, limit=1)
        seen = [json.loads(path.read_text())["measurements_config_digest"]
                for path in (read / "run.json", simulated / "run.json",
                             rec / "recon.json")]
        assert seen == [data_digest, None, data_digest]

    def test_eval_sidecar_names_the_samples(self, tmp_path):
        # the digest and seed in each samples file's samples.json, null without one
        ckpt = cmd_train(two_deltas_config(iterations=2), tmp_path / "run") \
            / "checkpoint.bin"
        a = cmd_sample(ckpt, tmp_path / "a", "ddim", 5, 4, 11) / "samples.bin"
        b = tmp_path / "b.bin"
        write_tensor_file(b, np.random.default_rng(0).standard_normal((4, 2)))
        cfg = two_deltas_config()
        cfg["eval"]["operations"] = ["distribution_distance"]
        meta = json.loads(cmd_eval(cfg, tmp_path / "eval", samples_a=a,
                                   samples_b=b).joinpath("eval.json").read_text())
        assert {key: meta[key] for key in meta if key.startswith("samples_")} == {
            "samples_a_config_digest": load_checkpoint(ckpt).config_digest,
            "samples_a_seed": 11, "samples_b_config_digest": None,
            "samples_b_seed": None}

    @pytest.mark.parametrize("text", [
        '{"seed": 1', '[1, 2]', '{"seed": 1}',
        f'{{"config_digest": "{DIGEST}", "seed": 1, "format_version": 99}}',
        f'{{"config_digest": "{DIGEST}", "seed": 1, "format_version": "1"}}',
        '{"config_digest": [1, 2], "seed": 1}', '{"config_digest": "abc", "seed": 1}',
        f'{{"config_digest": "{DIGEST.upper()}", "seed": 1}}',
        f'{{"config_digest": "{DIGEST}", "seed": -1}}',
        f'{{"config_digest": "{DIGEST}", "seed": true}}',
    ], ids=["json", "list", "no-digest", "version-newer", "version-str",
            "digest-list", "digest-abc", "digest-upper", "seed-negative", "seed-bool"])
    def test_malformed_samples_sidecar_rejected_before_out(self, tmp_path, text):
        samples = tmp_path / "a" / "samples.bin"
        samples.parent.mkdir()
        write_tensor_file(samples, np.ones((3, 2)))
        (samples.parent / "samples.json").write_text(text)
        cfg = two_deltas_config()
        cfg["eval"]["operations"] = ["distribution_distance"]
        with pytest.raises(FormatError, match="samples.json"):
            cmd_eval(cfg, tmp_path / "out", samples_a=samples, samples_b=samples)
        assert not (tmp_path / "out").exists()

    def test_unversioned_samples_sidecar_loads(self, tmp_path):
        write_tensor_file(tmp_path / "samples.bin", np.ones((3, 2)))
        (tmp_path / "samples.json").write_text(
            f'{{"config_digest": "{DIGEST}", "seed": 1}}')
        _, meta = artifacts.read_samples(tmp_path / "samples.bin")
        assert meta == {"config_digest": DIGEST, "seed": 1}

    def test_inspect_and_pgm(self, tmp_path, capsys):
        arr = np.arange(16.0).reshape(1, 16)
        path = tmp_path / "img.bin"
        write_tensor_file(path, arr)
        pgm = tmp_path / "img.pgm"
        cmd_inspect(path, pgm=pgm, index=0)
        text = pgm.read_text().splitlines()
        assert text[0] == "P2" and text[1] == "4 4"
        capsys.readouterr()
        cmd_inspect(pgm)  # a graymap is text
        assert capsys.readouterr().out == pgm.read_text()

    @pytest.mark.parametrize("name", ["metrics.csv", "run.json"])
    def test_inspect_non_utf8_text_rejected(self, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(b"\xff\xfe,garbled\n")
        with pytest.raises(FormatError, match="not UTF-8"):
            main(["inspect", str(path)])

    @pytest.mark.parametrize("shape, flags, flag", [
        ((3, 16), ["--index", "3"], "--index"),
        ((3, 16), ["--index", "-1"], "--index"),
        ((2, 12), [], "--height and --width"),
        ((2, 16), ["--height", "3", "--width", "5"], "--height 3 x --width 5"),
    ])
    def test_inspect_pgm_flags_rejected(self, tmp_path, shape, flags, flag):
        path, pgm = tmp_path / "a.bin", tmp_path / "a.pgm"
        write_tensor_file(path, np.zeros(shape))
        with pytest.raises(ConfigError, match=flag):
            main(["inspect", str(path), "--pgm", str(pgm)] + flags)
        assert not pgm.exists()

    def test_inspect_checkpoint(self, tmp_path, capsys):
        cfg = two_deltas_config(iterations=2)
        run = cmd_train(cfg, tmp_path / "run")
        cmd_inspect(run / "checkpoint.bin")
        text = capsys.readouterr().out
        ckpt = load_checkpoint(run / "checkpoint.bin")
        # every key of the header, one dotted key a line
        assert text.startswith(f"{run / 'checkpoint.bin'}: checkpoint\n")
        for line in ("arch.hidden: [16, 16]", "step_count: 2",
                     f'config_digest: "{config_digest(cfg)}"',
                     f'schedule_digest: "{ckpt.header()["schedule_digest"]}"',
                     f"schedule.t_min_valid: {ckpt.schedule['t_min_valid']}",
                     'vt.kind: "identity"', f"param_count: {ckpt.params.size}"):
            assert f"  {line}\n" in text

    def test_inspect_reads_sidecars_through_their_rows(self, tmp_path, capsys):
        cfg = two_deltas_config(iterations=2)
        data = cmd_gen_data(cfg, tmp_path / "data")
        ckpt = cmd_train(cfg, tmp_path / "run") / "checkpoint.bin"
        samples = cmd_sample(ckpt, tmp_path / "samples", "ddpm", 5, 2, 3)
        cmd_inspect(data / "dataset.json")
        cmd_inspect(samples / "samples.json")
        text = capsys.readouterr().out
        for line in ("dataset.json", "  n: 2", '  vt.kind: "identity"',
                     "samples.json", '  sampler: "ddpm"', "  seed: 3"):
            assert line in text
        (data / "dataset.json").write_text('{"n": 2}')
        with pytest.raises(FormatError, match="missing required key 'format_version'"):
            cmd_inspect(data / "dataset.json")
        with pytest.raises(FormatError, match="not a tensor file"):  # --pgm needs one
            cmd_inspect(samples / "samples.json", pgm=tmp_path / "a.pgm")

    def test_inspect_gen_data_directory(self, tmp_path, capsys):
        cfg = two_deltas_config()
        cfg["data"]["holdout"] = 3
        data = cmd_gen_data(cfg, tmp_path / "data")
        cmd_inspect(data)
        lines = capsys.readouterr().out.splitlines()
        # dataset.json through its rows, one dotted key a line, then the tensors
        assert lines[0] == f"{data}: gen-data"
        for line in (f'config_digest: "{config_digest(cfg)}"', "count: 128",
                     "holdout: 3", "n: 2", "sigma0: 0.01", 'vt.kind: "identity"'):
            assert f"  {line}" in lines
        tensors = [line.split(":")[0] for line in lines if not line.startswith(" ")]
        assert tensors[1:] == [str(data / name) for name in
                               ("clean.bin", "ybar.bin", "masks.bin", "holdout.bin")]
        assert f"{data / 'masks.bin'}: shape=(128, 2) dtype=float64 min=0 max=1" in lines
        assert lines[-1].startswith(f"{data / 'holdout.bin'}: shape=(3, 2) ")

    @pytest.mark.parametrize("kind", ["empty", "run"])
    def test_inspect_other_directory_rejected(self, tmp_path, kind):
        # inspect used to open a directory as a file: IsADirectoryError
        path = tmp_path / kind
        if kind == "run":
            cmd_train(two_deltas_config(iterations=2), path)
        else:
            path.mkdir()
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: gen-data "
                                              "directory lacks dataset.json$"):
            main(["inspect", str(path)])

    def test_inspect_metrics_csv(self, tmp_path, capsys):
        run = cmd_train(two_deltas_config(iterations=2), tmp_path / "run")
        cmd_inspect(run / "metrics.csv")
        assert capsys.readouterr().out == (run / "metrics.csv").read_text()

    def test_main_entrypoint(self, tmp_path):
        cfg = two_deltas_config(iterations=2)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / "m")]) == 0
        assert (tmp_path / "m" / "checkpoint.bin").exists()

    def dft_sweep(self, tmp_path, count=16):
        """A real-DFT (16-line) checkpoint, and an eval config on its signals
        whose one operation is the acceleration sweep."""
        cfg = validate_config({
            "data": {"kind": "isotropic-gaussian", "count": 64, "seed": 2,
                     "dim": 32},
            "degradation": {"family": "line-subsample", "accel": 2,
                            "sigma0": 0.01},
            "schedule": {"T": 40, "betaT": 0.2},
            "model": {"hidden": [16], "emb_dim": 8, "ema_decay": 0.99},
            "train": {"iterations": 3, "batch_size": 4, "seed": 3,
                      "learning_rate": 1e-3, "chunk_size": 4},
            "eval": {"operations": ["acceleration_sweep"], "count": count,
                     "seed": 6, "steps": 8, "eta": 0.3, "accels": [2, 4]},
        })
        return cmd_train(cfg, tmp_path / "run") / "checkpoint.bin", cfg

    @pytest.mark.parametrize("count", [16, 3])
    def test_acceleration_sweep_rows(self, tmp_path, count):
        # each factor's row: the mean residual norm over the eval set's first
        # min(8, eval.count) rows, corrupted under key 7 and reconstructed
        ckpt, cfg = self.dft_sweep(tmp_path, count)
        out = cmd_eval(cfg, tmp_path / "sweep", checkpoint=ckpt)
        loaded = load_checkpoint(ckpt)
        model, schedule, vt = loaded.model(), loaded.rebuild_schedule(), loaded.vt
        clean = generate_signals(cfg["data"], count, 6)[:8]
        want = ["accel,residual_norm,finite"]
        for r in (2, 4):
            fam = DegradationFamily(vt, LineSubsampleMasks(lines=16, accel=r), 0.01)
            norms = []
            for i, x in enumerate(clean):
                m = corrupt(x, fam, derived_rng(6, 7, r, i))
                rec = reconstruct(model, schedule, m, 8, derived_rng(6, 7, r, i, 1), vt,
                                  eta=0.3)
                norms.append(np.sqrt(np.einsum("i,i->", rec - x, rec - x)))
            want.append(f"{r},{sum(map(float, norms)) / len(clean)!r},True")
        assert (out / "rsweep.csv").read_text().splitlines() == want

    def test_acceleration_sweep_rejects_non_dft_checkpoint(self, tmp_path, monkeypatch):
        run = cmd_train(two_deltas_config(iterations=2), tmp_path / "run")
        cfg = two_deltas_config()
        cfg["eval"].update(operations=["acceleration_sweep"], steps=4, accels=[2])
        monkeypatch.setattr(cli, "reconstruct", None)  # any call would fail
        with pytest.raises(ConfigError, match="'identity'"):
            cmd_eval(cfg, tmp_path / "sweep", checkpoint=run / "checkpoint.bin")
        assert not (tmp_path / "sweep").exists()

    def test_accels_enter_the_eval_digest(self, tmp_path):
        # the sweep's factors shape rsweep.csv, so eval.json's digest names them
        ckpt, cfg = self.dft_sweep(tmp_path, count=2)
        outs = []
        for accels in ([2], [2, 4]):
            cfg["eval"]["accels"] = accels
            outs.append(cmd_eval(validate_config(cfg), tmp_path / f"sweep{len(accels)}",
                                 checkpoint=ckpt))
        digests = [json.loads((out / "eval.json").read_text())["config_digest"]
                   for out in outs]
        assert digests[0] != digests[1]
        assert (outs[0] / "rsweep.csv").read_text() != (outs[1] / "rsweep.csv").read_text()

    @pytest.mark.parametrize("accel", [0, 64])
    def test_acceleration_sweep_rejects_infeasible_accel(self, tmp_path, monkeypatch,
                                                         accel):
        ckpt, cfg = self.dft_sweep(tmp_path)
        cfg["eval"]["accels"] = [2, accel]  # 0 bypasses the schema, as from a caller
        monkeypatch.setattr(cli, "reconstruct", None)  # any call would fail
        with pytest.raises(ConfigError, match=rf"eval\.accels entry {accel}:"):
            cmd_eval(cfg, tmp_path / "sweep", checkpoint=ckpt)
        assert not (tmp_path / "sweep").exists()


class TestReverseCommandArguments:
    """Bad sampler and reconstruction flags fail up front, naming the flag."""

    @pytest.fixture
    def checkpoint(self, tmp_path):
        run = cmd_train(two_deltas_config(iterations=2), tmp_path / "run")
        return str(run / "checkpoint.bin")

    @pytest.mark.parametrize("argv, flag", [
        (["reconstruct", "--seed", "1", "--measurements", "data", "--limit", "-1"],
         "--limit"),
        (["sample", "--seed", "1", "--count", "-3"], "--count"),
    ])
    def test_rejected_before_any_work(self, tmp_path, monkeypatch, argv, flag):
        monkeypatch.setattr(cli, "load_checkpoint", None)  # any call would fail
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=flag):
            main(argv + ["--checkpoint", str(tmp_path / "checkpoint.bin"),
                         "--out", str(out)])
        assert not out.exists()

    def test_count_has_the_records_ceiling(self, tmp_path):
        # checked before the checkpoint is read: at the ceiling the missing
        # file is what fails, past it the flag
        out, ckpt = tmp_path / "out", str(tmp_path / "missing.bin")
        argv = ["sample", "--checkpoint", ckpt, "--seed", "1", "--out", str(out)]
        with pytest.raises(FileNotFoundError):
            main(argv + ["--count", str(2 ** 24)])
        with pytest.raises(ConfigError, match=r"--count must lie in \[0, 16777216\]"):
            main(argv + ["--count", str(2 ** 24 + 1)])
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--measurements", "data", "--r-sweep", "2"],
        ["--measurements", "data", "--clean", "c.bin"],
        [],
    ], ids=["r-sweep", "clean", "no-measurements"])
    def test_reconstruct_has_one_mode(self, tmp_path, monkeypatch, capsys, flags):
        # the acceleration sweep is an eval operation; reconstruct reads
        # stored measurements and nothing else
        monkeypatch.setattr(cli, "load_checkpoint", None)  # any call would fail
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["reconstruct", "--checkpoint", "c.bin", "--seed", "1",
                  "--out", str(out)] + flags)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert ("unrecognized arguments" in err if flags
                else "required: --measurements" in err)
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["sample", "--steps", "0"],
        ["sample"],  # the default 100 steps on the checkpoint's T = 50
        ["sample", "--steps", "51"],
        ["reconstruct", "--steps", "0"],
        ["reconstruct", "--steps", "51"],
    ])
    def test_steps_outside_the_schedule_rejected_before_out(self, checkpoint,
                                                            tmp_path, argv):
        if argv[0] == "reconstruct":
            argv = argv + ["--measurements", str(tmp_path / "data")]
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=r"--steps must lie in \[1, 50\]"):
            main(argv + ["--seed", "1", "--checkpoint", checkpoint, "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["sample", "--eta", "2"],
        ["sample", "--sampler", "ddim", "--eta", "nan"],
        ["reconstruct", "--eta", "-0.5"],
        ["reconstruct", "--eta", "1.5"],
    ])
    def test_eta_outside_unit_interval_rejected_before_out(self, checkpoint,
                                                          tmp_path, argv):
        if argv[0] == "reconstruct":
            argv = argv + ["--measurements", str(tmp_path / "data")]
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=r"--eta must lie in \[0, 1\]"):
            main(argv + ["--steps", "5", "--seed", "1", "--checkpoint", checkpoint,
                         "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["sample", "--seed", "-1"],
        ["sample", "--sampler", "ddpm", "--seed", "-1"],
        ["reconstruct", "--seed", "-3"],
    ])
    def test_negative_seed_rejected_before_out(self, checkpoint, tmp_path, argv):
        if argv[0] == "reconstruct":
            argv = argv + ["--measurements", str(tmp_path / "data")]
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=r"--seed must be >= 0, got -\d"):
            main(argv + ["--steps", "5", "--checkpoint", checkpoint, "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("dim, family", [(4, "line-subsample"), (6, "none")],
                             ids=["vt", "n"])
    def test_measurements_of_another_transform_rejected_before_out(self, tmp_path,
                                                                   dim, family):
        # the checkpoint works in the identity basis of n = 4
        cfg = two_deltas_config(iterations=2)
        cfg["data"].update(kind="isotropic-gaussian", dim=4)
        cfg["degradation"]["family"] = "none"
        ckpt = cmd_train(validate_config(cfg), tmp_path / "run") / "checkpoint.bin"
        cfg["data"]["dim"] = dim
        cfg["degradation"].update(family=family, accel=2)
        data = cmd_gen_data(validate_config(cfg), tmp_path / "data")
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="--measurements .* differ from the "
                                              "checkpoint's n = 4"):
            main(["reconstruct", "--checkpoint", str(ckpt), "--measurements", str(data),
                  "--steps", "5", "--seed", "1", "--out", str(out)])
        assert not out.exists()

    def test_missing_measurements_not_found(self, checkpoint, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(FileNotFoundError):
            main(["reconstruct", "--checkpoint", checkpoint, "--measurements",
                  str(tmp_path / "nowhere"), "--steps", "5", "--seed", "1",
                  "--out", str(out)])
        assert not out.exists()

    def test_ddpm_ignores_eta(self, checkpoint, tmp_path):
        out = tmp_path / "out"
        main(["sample", "--sampler", "ddpm", "--eta", "2", "--seed", "1", "--count", "1",
              "--checkpoint", checkpoint, "--out", str(out)])
        assert read_tensor_file(out / "samples.bin").shape == (1, 2)

    def test_ddpm_ignores_steps(self, checkpoint, tmp_path):
        out = tmp_path / "out"
        main(["sample", "--sampler", "ddpm", "--seed", "1", "--count", "1",
              "--checkpoint", checkpoint, "--out", str(out)])
        assert read_tensor_file(out / "samples.bin").shape == (1, 2)

    def test_zero_count_and_limit_write_empty_outputs(self, checkpoint, tmp_path):
        cfg = two_deltas_config()
        data = cmd_gen_data(cfg, tmp_path / "data")
        rec = cmd_reconstruct(checkpoint, data, tmp_path / "rec", steps=4, seed=1,
                              limit=0)
        assert read_tensor_file(rec / "recon.bin").shape == (0, 2)
        smp = cmd_sample(checkpoint, tmp_path / "smp", "ddim", 4, 0, 1)
        assert read_tensor_file(smp / "samples.bin").shape == (0, 2)


class TestCommandLine:
    """Where a command's settings and paths come from."""

    @pytest.mark.parametrize("argv", [
        ["gen-data", "--config", "cfg.json"],
        ["train", "--config", "cfg.json"],
        ["sample", "--checkpoint", "c.bin", "--seed", "1"],
        ["reconstruct", "--checkpoint", "c.bin", "--measurements", "data",
         "--seed", "1"],
        ["eval", "--config", "cfg.json"],
    ], ids=lambda argv: argv[0])
    def test_out_is_required(self, tmp_path, monkeypatch, capsys, argv):
        # no command writes to an implicit directory
        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps(two_deltas_config(iterations=1)))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "required: --out" in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]

    # the only flags of the configured commands: each names a file
    FILE_FLAGS = {"gen-data": {"--config", "--out"},
                  "train": {"--config", "--out", "--measurements"},
                  "eval": {"--config", "--out", "--checkpoint", "--checkpoint-b",
                           "--samples-a", "--samples-b"}}

    def test_configured_commands_take_only_file_flags(self):
        # a setting that shapes output bytes belongs in the config, where
        # config_digest covers it
        commands = next(action.choices for action in cli._build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        flags = {name: {flag for action in commands[name]._actions
                        for flag in action.option_strings} - {"-h", "--help"}
                 for name in self.FILE_FLAGS}
        assert flags == self.FILE_FLAGS
        inputs = {"--" + name.replace("_", "-")
                  for names in schema.EVAL_INPUTS.values() for name in names}
        assert inputs <= self.FILE_FLAGS["eval"]


class TestConfigValuesRejectedBeforeWork:
    """Values that once passed validation and then failed mid-run, wrote NaN
    statistics, or trained on a meaningless loss raise ConfigError before the
    output directory exists."""

    @pytest.mark.parametrize("section, key, value", [
        ("loss", "lambda_coef", float("nan")),
        ("loss", "lambda_coef", -1.0),
        ("train", "learning_rate", float("inf")),
    ])
    def test_train(self, tmp_path, section, key, value):
        cfg = two_deltas_config(iterations=2)
        (cfg["train"]["loss"] if section == "loss" else cfg[section])[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=key):
            main(["train", "--config", str(cfg_path), "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("where", ["data.count", "data.dim", "data.height",
                                       "data.width", "model.hidden", "eval.count",
                                       "schedule.T", "train.batch_size",
                                       "train.loss.probes", "eval.n_samples",
                                       "eval.n_projections", "eval.uncertainty_k",
                                       "data.holdout"])
    @pytest.mark.parametrize("size", [2 ** 40, 10 ** 400])
    @pytest.mark.parametrize("command", ["gen-data", "train"])
    def test_huge_sizes(self, tmp_path, command, size, where):
        # without a ceiling these passed validation and failed allocating arrays
        cfg = two_deltas_config(iterations=2)
        *path, key = where.split(".")
        node = cfg
        for part in path:
            node = node[part]
        node[key] = [size] if key == "hidden" else size
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=re.escape(where)):
            main([command, "--config", str(cfg_path), "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("key, value, ops", [
        ("uncertainty_sigma0", -0.5, ["uncertainty"]),
        ("peak", 0.0, ["generalization_psnr"]),
        ("n_permutations", 1, ["independence_demo"]),
    ])
    def test_eval(self, tmp_path, key, value, ops):
        run = cmd_train(two_deltas_config(iterations=2), tmp_path / "run")
        ckpt = str(run / "checkpoint.bin")
        cfg = two_deltas_config()
        cfg["eval"].update({"operations": ops, "n_samples": 50, key: value})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=rf"eval\.{key} must be"):
            main(["eval", "--config", str(cfg_path), "--out", str(out),
                  "--checkpoint", ckpt, "--checkpoint-b", ckpt])
        assert not out.exists()


class TestNegativeSeedsRejectedBeforeOutput:
    """Seeds feed ``derived_rng``, which takes no negative integer: a negative
    config seed or ``--seed`` raises ConfigError before any output exists.
    ``gen-data`` and ``train`` take no ``--seed``."""

    def write(self, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    @pytest.mark.parametrize("command", ["gen-data", "train"])
    @pytest.mark.parametrize("section", ["data", "model", "train"])
    def test_configured_commands(self, tmp_path, command, section):
        cfg = two_deltas_config(iterations=2)
        cfg[section]["seed"] = -1
        with pytest.raises(ConfigError, match=rf"{section}\.seed must be >= 0"):
            main([command, "--out", str(tmp_path / "out"),
                  "--config", self.write(tmp_path, cfg)])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["gen-data", "train"])
    def test_seed_flag_is_a_usage_error(self, tmp_path, capsys, command):
        # their seeds come from the config alone, so its digest covers them
        cfg = self.write(tmp_path, two_deltas_config(iterations=2))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--out", str(tmp_path / "out"),
                  "--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_eval(self, tmp_path):
        ckpt = cmd_train(two_deltas_config(iterations=2), tmp_path / "run")
        cfg = two_deltas_config()
        cfg["eval"].update({"operations": ["mse_sweep"], "seed": -1})
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=r"eval\.seed must be >= 0"):
            main(["eval", "--config", self.write(tmp_path, cfg), "--out", str(out),
                  "--checkpoint", str(ckpt / "checkpoint.bin"),
                  "--checkpoint-b", str(ckpt / "checkpoint.bin")])
        assert not out.exists()


class TestInfeasibleNoiseRejectedBeforeOutput:
    """Measurement noise that no timestep of the schedule can top up raises
    ConfigError naming its source before the output directory exists."""

    def config(self, sigma0=0.01, **eval_keys):
        cfg = two_deltas_config(iterations=2)
        cfg["schedule"] = {"T": 50, "beta1": 1e-4, "betaT": 0.2}
        cfg["degradation"]["sigma0"] = sigma0
        cfg["eval"].update(eval_keys)
        return validate_config(cfg)

    def write(self, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_train(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=r"degradation\.sigma0: no timestep "
                                              r"can top up measurement variance 400"):
            main(["train", "--config", self.write(tmp_path, self.config(20.0)),
                  "--out", str(out)])
        assert not out.exists()

    def test_reconstruct_measurements(self, tmp_path):
        ckpt = cmd_train(self.config(), tmp_path / "run") / "checkpoint.bin"
        data = cmd_gen_data(self.config(20.0), tmp_path / "data")
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=r"--measurements .*: sigma0: no timestep"):
            main(["reconstruct", "--checkpoint", str(ckpt), "--measurements", str(data),
                  "--steps", "5", "--seed", "1", "--out", str(out)])
        assert not out.exists()

    def test_eval_acceleration_sweep(self, tmp_path):
        # the sweep's fixed sigma0 = 0.01 outgrows a schedule this short
        cfg = validate_config({
            "data": {"kind": "isotropic-gaussian", "count": 16, "seed": 2, "dim": 8},
            "degradation": {"family": "line-subsample", "accel": 2, "sigma0": 0.0},
            "schedule": {"T": 10, "beta1": 1e-6, "betaT": 1e-6},
            "model": {"hidden": [8], "emb_dim": 4, "ema_decay": 0.99},
            "train": {"iterations": 2, "batch_size": 4, "seed": 3},
            "eval": {"operations": ["acceleration_sweep"], "count": 2, "steps": 5,
                     "accels": [2]}})
        ckpt = cmd_train(cfg, tmp_path / "run") / "checkpoint.bin"
        out = tmp_path / "out"
        with pytest.raises(ConfigError,
                           match=r"acceleration_sweep's sigma0 = 0\.01: no timestep"):
            main(["eval", "--config", self.write(tmp_path, cfg), "--out", str(out),
                  "--checkpoint", str(ckpt)])
        assert not out.exists()

    def test_eval_uncertainty(self, tmp_path):
        ckpt = cmd_train(self.config(), tmp_path / "run") / "checkpoint.bin"
        cfg = self.config(operations=["uncertainty"], uncertainty_sigma0=50.0)
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=r"eval\.uncertainty_sigma0: no timestep"):
            main(["eval", "--config", self.write(tmp_path, cfg), "--out", str(out),
                  "--checkpoint", str(ckpt)])
        assert not out.exists()


class TestEvalInputs:
    """Eval inputs that an operation reads are checked before anything is written."""

    def run_eval(self, tmp_path, ops, flags, **eval_keys):
        cfg = two_deltas_config()
        cfg["eval"].update(operations=list(ops), **eval_keys)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        main(["eval", "--config", str(cfg_path), "--out", str(tmp_path / "out")] + flags)

    @pytest.mark.parametrize("ops, flags, missing", [
        (["mse_sweep"], [], "--checkpoint"),
        (["independence_demo", "generalization_psnr"], ["--checkpoint", "a"],
         "--checkpoint-b"),
        (["uncertainty"], ["--checkpoint-b", "b"], "--checkpoint"),
        (["distribution_distance"], ["--samples-b", "b"], "--samples-a"),
        (["distribution_distance"], ["--samples-a", "a"], "--samples-b"),
        (["acceleration_sweep"], ["--checkpoint", "a"], "eval.accels"),
        (["acceleration_sweep"], [], "--checkpoint"),
    ])
    def test_missing_flag_named(self, tmp_path, monkeypatch, ops, flags, missing):
        monkeypatch.setattr(cli, "load_checkpoint", None)  # any call would fail
        with pytest.raises(ConfigError, match=f"needs {missing}$"):
            self.run_eval(tmp_path, ops, flags)
        assert not (tmp_path / "out").exists()

    def test_seed_flag_is_a_usage_error(self, tmp_path, capsys):
        # eval's seeds come from the config's eval.seed alone
        with pytest.raises(SystemExit) as exc:
            self.run_eval(tmp_path, ["mse_sweep"], ["--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_ts_beyond_the_checkpoint_schedule_rejected(self, tmp_path):
        run = cmd_train(two_deltas_config(iterations=2), tmp_path / "run")
        ckpt = str(run / "checkpoint.bin")
        with pytest.raises(ConfigError, match=r"eval\.ts must be <= T = 50"):
            self.run_eval(tmp_path, ["mse_sweep"],
                          ["--checkpoint", ckpt, "--checkpoint-b", ckpt], ts=[10, 51])
        assert not (tmp_path / "out").exists()

    def train_pair(self, tmp_path, schedule_b, sigma0_b=0.01):
        """Checkpoint A (T = 50, beta1 = 1e-4, betaT = 0.2) and checkpoint B with
        ``schedule_b`` over A's schedule, trained at ``sigma0_b``."""
        cfg_a = two_deltas_config(iterations=2)
        cfg_a["schedule"]["beta1"] = 1e-4
        cfg_b = two_deltas_config(iterations=2)
        cfg_b["schedule"].update({"beta1": 1e-4, **schedule_b})
        cfg_b["degradation"]["sigma0"] = sigma0_b
        return [str(cmd_train(cfg, tmp_path / name) / "checkpoint.bin")
                for cfg, name in ((cfg_a, "a"), (cfg_b, "b"))]

    @pytest.mark.parametrize("schedule_b, key", [
        ({"T": 10}, "T"), ({"betaT": 0.1}, "betaT"), ({"beta1": 1e-3}, "beta1")],
        ids=["T", "betaT", "beta1"])
    def test_checkpoint_b_on_another_schedule_rejected(self, tmp_path, schedule_b, key):
        # B would be scored at A's timesteps, which B was not trained on
        a, b = self.train_pair(tmp_path, schedule_b)
        with pytest.raises(ConfigError, match=f"--checkpoint-b schedule {key} "):
            self.run_eval(tmp_path, ["mse_sweep"], ["--checkpoint", a, "--checkpoint-b", b])
        assert not (tmp_path / "out").exists()

    def train_net(self, tmp_path, name, dim, family):
        """A 2-step checkpoint on ``dim``-wide Gaussian signals, masked by ``family``
        (accel 2 fits the 4 or 2 DFT lines of ``line-subsample`` at dim 8 or 4)."""
        cfg = two_deltas_config(iterations=2)
        cfg["data"].update(kind="isotropic-gaussian", dim=dim)
        cfg["degradation"].update(family=family, accel=2)
        return cmd_train(validate_config(cfg), tmp_path / name) / "checkpoint.bin"

    def eval_config(self, ops, dim, family):
        cfg = two_deltas_config()
        cfg["data"].update(kind="isotropic-gaussian", dim=dim)
        cfg["degradation"]["family"] = family
        cfg["eval"].update(operations=ops, count=16)
        return validate_config(cfg)

    def test_pair_operations_score_in_checkpoint_a_basis(self, tmp_path):
        # the eval config's degradation family does not choose the basis
        a = self.train_net(tmp_path, "a", 8, "line-subsample")
        outs = [cmd_eval(self.eval_config(["mse_sweep", "generalization_psnr"],
                                          8, family), tmp_path / family,
                         checkpoint=a, checkpoint_b=a)
                for family in ("line-subsample", "none")]
        for name in ("mse_sweep.csv", "psnr.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize("dim_b, family_b, what", [
        (8, "none", "vt"), (4, "line-subsample", "n")], ids=["vt", "n"])
    def test_checkpoint_b_in_another_basis_rejected(self, tmp_path, dim_b, family_b,
                                                    what):
        a = self.train_net(tmp_path, "a", 8, "line-subsample")
        b = self.train_net(tmp_path, "b", dim_b, family_b)
        cfg = self.eval_config(["mse_sweep"], 8, "line-subsample")
        with pytest.raises(ConfigError, match=f"--checkpoint-b {what} = "):
            cmd_eval(cfg, tmp_path / "out", checkpoint=a, checkpoint_b=b)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("ops", [["mse_sweep"], ["uncertainty"],
                                     ["acceleration_sweep"]])
    def test_signals_of_another_width_rejected(self, tmp_path, ops):
        a = self.train_net(tmp_path, "a", 8, "line-subsample")
        cfg = self.eval_config(ops, 4, "none")
        cfg["eval"]["accels"] = [2]
        with pytest.raises(ConfigError, match="width 4 .* n = 8"):
            cmd_eval(cfg, tmp_path / "out", checkpoint=a, checkpoint_b=a)
        assert not (tmp_path / "out").exists()

    def test_checkpoints_may_differ_in_t_min_valid(self, tmp_path):
        a, b = self.train_pair(tmp_path, {}, sigma0_b=0.2)
        assert load_checkpoint(a).schedule["t_min_valid"] \
            < load_checkpoint(b).schedule["t_min_valid"]
        self.run_eval(tmp_path, ["mse_sweep"], ["--checkpoint", a, "--checkpoint-b", b])
        assert (tmp_path / "out" / "mse_sweep.csv").exists()

    @pytest.mark.parametrize("eta, used", [(0.0, 0.5), (0.8, 0.8)])
    def test_uncertainty_runs_at_eta_of_at_least_one_half(self, tmp_path, monkeypatch,
                                                         eta, used):
        run = cmd_train(two_deltas_config(iterations=2), tmp_path / "run")
        seen = []

        def fake_map(model, schedule, m, k, *, rng, vt, steps, eta):
            seen.append(eta)
            return np.zeros(vt.n), np.zeros(vt.n)

        monkeypatch.setattr(cli, "uncertainty_map", fake_map)
        cfg = two_deltas_config()
        cfg["eval"].update(operations=["uncertainty"], eta=eta, steps=10)
        cmd_eval(cfg, tmp_path / "out", checkpoint=run / "checkpoint.bin")
        assert seen == [used]

    @pytest.mark.parametrize("op", ["uncertainty", "acceleration_sweep"])
    def test_steps_beyond_the_checkpoint_schedule_rejected(self, tmp_path, op):
        # the default eval.steps of 100 on a checkpoint of T = 50; the sweep
        # checks its steps before its checkpoint's transform
        run = cmd_train(two_deltas_config(iterations=2), tmp_path / "run")
        with pytest.raises(ConfigError, match=r"eval\.steps must lie in \[1, 50\]"):
            self.run_eval(tmp_path, [op], ["--checkpoint", str(run / "checkpoint.bin")],
                          accels=[2])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("a, b, flag", [
        (np.zeros((0, 2)), np.ones((3, 2)), "--samples-a"),
        (np.ones(2), np.ones((3, 2)), "--samples-a"),
        (np.ones((3, 2)), np.zeros((0, 2)), "--samples-b"),
        (np.ones((3, 2)), np.ones((3, 3)), "--samples-b"),
    ], ids=["a-empty", "a-1d", "b-empty", "b-width"])
    def test_bad_samples_rejected(self, tmp_path, a, b, flag):
        paths = [str(tmp_path / "a.bin"), str(tmp_path / "b.bin")]
        write_tensor_file(paths[0], a)
        write_tensor_file(paths[1], b)
        with pytest.raises(ConfigError, match=f"{flag} .* not a non-empty 2-D array"):
            self.run_eval(tmp_path, ["distribution_distance"],
                          ["--samples-a", paths[0], "--samples-b", paths[1]])
        assert not (tmp_path / "out").exists()

    def test_non_finite_samples_rejected(self, tmp_path):
        # eval used to write nan,nan,nan into distance.csv
        a = np.ones((3, 2))
        a[1, 0] = np.nan
        paths = [str(tmp_path / "a.bin"), str(tmp_path / "b.bin")]
        write_tensor_file(paths[0], a)
        write_tensor_file(paths[1], np.ones((3, 2)))
        with pytest.raises(FormatError, match="a.bin: non-finite values"):
            self.run_eval(tmp_path, ["distribution_distance"],
                          ["--samples-a", paths[0], "--samples-b", paths[1]])
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("a, b, flag", [
        (np.ones((1, 2)), np.ones((3, 2)), "--samples-a"),
        (np.ones((3, 2)), np.ones((1, 2)), "--samples-b"),
    ], ids=["a-one-row", "b-one-row"])
    def test_one_row_samples_rejected(self, tmp_path, a, b, flag):
        # one row has no sample covariance: cov_gap would be nan
        paths = [str(tmp_path / "a.bin"), str(tmp_path / "b.bin")]
        write_tensor_file(paths[0], a)
        write_tensor_file(paths[1], b)
        with pytest.raises(ConfigError, match=f"{flag} .* 1 row"):
            self.run_eval(tmp_path, ["distribution_distance"],
                          ["--samples-a", paths[0], "--samples-b", paths[1]])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("ops", [["mse_sweep", "uncertainty"], ["uncertainty"]],
                             ids=["mse_sweep+uncertainty", "uncertainty"])
    def test_external_source_read_once(self, tmp_path, monkeypatch, ops):
        # eval.count rows, once, whichever operations run
        run = cmd_train(two_deltas_config(iterations=2), tmp_path / "run")
        src = tmp_path / "signals.bin"
        write_tensor_file(src, np.random.default_rng(2).standard_normal((10, 2)))
        reads = rows_read(monkeypatch)
        cfg = two_deltas_config()
        cfg["data"] = {"kind": "external-binary", "path": str(src), "count": 6, "seed": 0}
        cfg["eval"].update(operations=ops, count=4, steps=5, t_stride=25,
                           uncertainty_k=2)
        ckpt = run / "checkpoint.bin"
        cmd_eval(validate_config(cfg), tmp_path / "out", checkpoint=ckpt,
                 checkpoint_b=ckpt)
        assert reads == {"signals.bin": 4}

    def test_external_eval_set_is_the_rows_after_the_training_rows(self, tmp_path,
                                                                  monkeypatch):
        # the models trained on the file's first data.count rows; eval scores
        # the next eval.count, which gen-data writes first into holdout.bin
        run = cmd_train(two_deltas_config(iterations=2), tmp_path / "run")
        src = tmp_path / "signals.bin"
        write_tensor_file(src, np.random.default_rng(2).standard_normal((40, 2)))
        cfg = two_deltas_config()
        cfg["data"] = {"kind": "external-binary", "path": str(src), "count": 30,
                       "seed": 0, "holdout": 10}
        cfg["eval"].update(operations=["mse_sweep"], count=8, t_stride=25)
        cfg = validate_config(cfg)
        holdout = read_tensor_file(cmd_gen_data(cfg, tmp_path / "data") / "holdout.bin")
        seen = []
        sweep = cli.denoising_mse_sweep
        monkeypatch.setattr(cli, "denoising_mse_sweep",
                            lambda a, b, xbar, *rest: seen.append(xbar) or
                            sweep(a, b, xbar, *rest))
        ckpt = run / "checkpoint.bin"
        cmd_eval(cfg, tmp_path / "out", checkpoint=ckpt, checkpoint_b=ckpt)
        assert seen[0].tobytes() == holdout[:8].tobytes()  # identity transform

    @pytest.mark.parametrize("ops", [["mse_sweep"], ["uncertainty"]],
                             ids=["mse_sweep", "uncertainty"])
    def test_external_source_short_of_eval_count_rejected(self, tmp_path, ops):
        run = cmd_train(two_deltas_config(iterations=2), tmp_path / "run")
        src = tmp_path / "signals.bin"
        write_tensor_file(src, np.ones((4, 2)))
        cfg = two_deltas_config()
        cfg["data"] = {"kind": "external-binary", "path": str(src), "count": 4, "seed": 0}
        cfg["eval"].update(operations=ops, count=5, steps=5)
        ckpt = run / "checkpoint.bin"
        with pytest.raises(ConfigError, match="external-binary file"):
            cmd_eval(validate_config(cfg), tmp_path / "out", checkpoint=ckpt,
                     checkpoint_b=ckpt)
        assert not (tmp_path / "out").exists()
