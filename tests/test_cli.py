"""File formats, config validation, checkpoints, and subcommands."""

import hashlib
import json
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specdiff import cli
from specdiff.cli import (
    CHECKPOINT_MAGIC,
    FAMILY_KINDS,
    Checkpoint,
    ConfigError,
    FormatError,
    build_degradation_family,
    build_train_config,
    cmd_eval,
    cmd_gen_data,
    cmd_inspect,
    cmd_reconstruct,
    cmd_sample,
    cmd_train,
    config_digest,
    generate_signals,
    load_checkpoint,
    load_config,
    main,
    read_tensor_file,
    save_checkpoint,
    validate_config,
    write_tensor_file,
)
from specdiff.losses import LossConfig
from specdiff.training import derived_rng

from helpers import reference_shapes


ROOT = Path(__file__).parents[1]
PRESETS = sorted((ROOT / "configs").glob("*.json"))
MINIMAL = {"data": {"kind": "two-deltas", "count": 1, "seed": 0}, "train": {"seed": 0}}


def schema_rows(table=cli._SCHEMA, prefix=""):
    """Each config key's dotted name and its ``(type, default, rule)`` row."""
    for key, row in table.items():
        if isinstance(row, dict):
            yield from schema_rows(row, f"{prefix}{key}.")
        else:
            yield prefix + key, row


INTERVAL_ROWS = [(where, row) for where, row in schema_rows()
                 if isinstance(row[2], cli.Interval)]


def config_with(where, value):
    """The all-defaults config with the dotted key ``where`` set to ``value``."""
    raw = json.loads(json.dumps(MINIMAL))
    *path, key = where.split(".")
    node = raw
    for part in path:
        node = node.setdefault(part, {})
    node[key] = value
    return raw


def readme_config_table():
    """README's config table, rendered from the schema rows with the rule
    text that ``ConfigError`` messages use."""
    lines = ["| key | type | default | rule |", "| --- | --- | --- | --- |"]
    for where, (types, default, rule) in schema_rows():
        shown = "required" if default is cli._NO_DEFAULT else f"`{json.dumps(default)}`"
        lines.append(f"| `{where}` | {cli._type_name(types)} | {shown} | "
                     f"{'' if rule is None else 'must ' + rule.text} |")
    return "\n".join(lines) + "\n"


SIZES = st.integers(-1, 20)
DATA_SECTIONS = st.fixed_dictionaries(
    {"kind": st.sampled_from(["two-deltas", "isotropic-gaussian", "synthetic-shapes"]),
     "count": st.integers(0, 3), "seed": st.integers(0, 3)},
    optional={"dim": SIZES, "height": SIZES, "width": SIZES})
DEGRADATION_SECTIONS = st.fixed_dictionaries({}, optional={
    "family": st.sampled_from(FAMILY_KINDS), "p": st.floats(-0.5, 1.5),
    "patch": SIZES, "accel": SIZES, "sigma0": st.floats(0.0, 0.5)})


def two_deltas_config(out_dir, iterations=30, oracle=False, seed=5):
    return validate_config({
        "data": {"kind": "two-deltas", "count": 128, "seed": 9},
        "degradation": {"family": "single-drop", "sigma0": 0.01},
        "schedule": {"T": 50, "betaT": 0.2},
        "model": {"hidden": [16, 16], "emb_dim": 8, "ema_decay": 0.99},
        "train": {"iterations": iterations, "batch_size": 8, "seed": seed,
                  "learning_rate": 1e-3, "log_interval": 10,
                  "oracle_mode": oracle, "chunk_size": 4,
                  "loss": {"gamma": "snr", "lambda": "scaled_inverse_snr"}},
        "io": {"out_dir": str(out_dir)},
    })


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
        path.write_bytes(cli.TENSOR_MAGIC + struct.pack("<II2Q", 1, 2, *extents))
        with pytest.raises(FormatError):
            main(["inspect", str(path)])


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
        ("io", "deterministic_timing", False),  # no wall time in metrics.csv
        ("data", "prior_var", 1.0),  # isotropic-gaussian data has unit variance
        ("model", "nonlin", "softplus"),  # the net is tanh
        ("train.loss", "probe_kind", "rademacher"),  # probes are Gaussian
        ("degradation", "s_const", 2.0),  # kept coordinates have singular value 1
    ])
    def test_removed_keys_rejected(self, section, key, value):
        cfg = {"data": {"kind": "two-deltas", "count": 1, "seed": 0},
               "train": {"seed": 0}}
        node = cfg
        for part in section.split("."):
            node = node.setdefault(part, {})
        node[key] = value
        name = section.split(".")[-1]
        with pytest.raises(ConfigError, match=f"{name}: unknown keys.*{key}"):
            validate_config(cfg)

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
            validate_config(config_with(f"{section}.{key}", value))

    @pytest.mark.parametrize("where, value, named", [
        ("degradation.p", 10 ** 400, "degradation.p"),  # float() overflows
        ("eval.snr_levels", [10 ** 400], "eval.snr_levels"),
        ("eval.operations", [["mse_sweep"]], "eval.operations"),  # unhashable
        ("degradation.sigma0", 1e200, "schedule.beta1"),  # sigma0 ** 2 overflows
    ], ids=["huge-int", "huge-int-entry", "unhashable-entry", "huge-sigma0"])
    def test_malformed_values_raise_config_error(self, where, value, named):
        with pytest.raises(ConfigError, match=re.escape(named)):
            validate_config(config_with(where, value))

    @pytest.mark.parametrize("where, row", INTERVAL_ROWS,
                             ids=[where for where, _ in INTERVAL_ROWS])
    def test_interval_rows_hold_at_and_reject_past_their_bounds(self, where, row):
        types, _, rule = row
        for bound, is_open, up in ((rule.lo, rule.open_lo, False),
                                   (rule.hi, rule.open_hi, True)):
            if bound == float("inf"):
                continue
            if is_open:
                outside = bound
            else:
                validate_config(config_with(where, bound))
                outside = bound + (1 if up else -1) if types is int \
                    else float(np.nextafter(bound, np.inf if up else -np.inf))
            with pytest.raises(ConfigError, match=re.escape(where)):
                validate_config(config_with(where, outside))

    def test_defaults_obey_their_rows(self):
        # validation fills defaults in unchecked, so the table must hold valid ones
        for where, (types, default, rule) in schema_rows():
            if default is not cli._NO_DEFAULT and default is not None:
                assert cli._fits(default, types), where
                assert rule is None or rule.holds(default), where

    def test_readme_holds_the_config_table(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        assert readme_config_table() in readme

    @pytest.mark.parametrize("preset, digest", [
        ("shapes_lines", "ba4136f20cadc5bf088c086765e766fa8a700b86ccf1a0954cc50c87b849405e"),
        ("shapes_patch", "ea4c2007b3a6d1ea7d7b7d3206fa289dd022b303a35aa539e6edcdc7211ea412"),
        ("two_deltas", "33691be0f9df2829ee2e556ae6a477693589635676d2cf2faebacd94f348b968"),
        (None, "02f1c9d2dd79ef26f8ac4791e6374b1d7eeced78996222f3f8fefa54260bc3ba"),
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

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
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
        tracemalloc.start()
        try:
            out = generate_signals(data, 4096, 101)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 2**20

    def test_zero_count(self, tmp_path):
        cfg = two_deltas_config(tmp_path)
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
        with pytest.raises(ConfigError):
            generate_signals({"kind": "external-binary", "path": str(src)},
                             99, seed=0)

    def test_external_binary_of_wrong_rank_rejected(self, tmp_path):
        src = tmp_path / "ext.bin"
        write_tensor_file(src, np.arange(6.0))
        cfg = validate_config({"data": {"kind": "external-binary", "count": 4,
                                        "seed": 0, "path": str(src)},
                               "train": {"seed": 0}})
        for cmd in (cmd_gen_data, cmd_train):
            with pytest.raises(ConfigError, match="external-binary file"):
                cmd(cfg, tmp_path / "out")


class TestCheckpoints:
    def make(self):
        rng = np.random.default_rng(1)
        return Checkpoint(
            arch={"n": 2, "hidden": [4], "emb_dim": 8, "mean_type": "predict_x",
                  "ema_decay": 0.99},
            params=rng.standard_normal(54), ema_params=rng.standard_normal(54),
            step_count=17, config_digest="abc123",
            schedule={"T": 10, "beta1": 1e-4, "betaT": 0.2, "t_min_valid": 1},
            vt_descriptor={"kind": "identity", "n": 2},
        )

    def test_roundtrip_bit_exact(self, tmp_path):
        ckpt = self.make()
        path = tmp_path / "c.bin"
        save_checkpoint(path, ckpt)
        assert load_checkpoint(path) == ckpt

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
    ], ids=["arch-no-n", "arch-str", "arch-hidden-vs-params", "arch-nonlin",
            "schedule-no-T", "schedule-bad-beta", "vt-no-kind", "vt-unknown-kind",
            "step-float", "step-negative", "step-bool", "step-str"])
    def test_bad_header_content_rejected(self, tmp_path, field, value):
        # well-formed JSON whose arch, schedule or vt cannot be rebuilt, or
        # whose step count is not a non-negative integer
        path = tmp_path / "c.bin"
        changes = {field: value}
        if field == "schedule":
            changes["schedule_digest"] = hashlib.sha256(
                json.dumps(value, sort_keys=True).encode()).hexdigest()
        self.write_raw(path, self.header_bytes(**changes))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, value, error", [
        ("vt", {"kind": "identity", "n": 4}, "vt has n = 4, arch has n = 2"),
        ("params", np.nan, "non-finite"),
        ("ema_params", np.inf, "non-finite"),
    ], ids=["vt-n", "params-nan", "ema-inf"])
    def test_checkpoint_that_sample_would_trip_on_rejected(self, tmp_path, field,
                                                           value, error):
        ckpt = self.make()
        if field == "vt":
            ckpt.vt_descriptor = value
        else:
            getattr(ckpt, field)[3] = value
        path, out = tmp_path / "c.bin", tmp_path / "out"
        save_checkpoint(path, ckpt)
        with pytest.raises(FormatError, match=error):
            main(["sample", "--checkpoint", str(path), "--steps", "5", "--seed", "1",
                  "--out", str(out)])
        assert not out.exists()

    def test_tanh_nonlin_of_older_checkpoints_accepted(self, tmp_path):
        # checkpoints written while the nonlinearity was an option name it
        run = cmd_train(two_deltas_config(tmp_path, iterations=2), tmp_path / "run")
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
    def data_cfg(self, tmp_path):
        cfg = two_deltas_config(tmp_path, iterations=1)
        cfg["io"]["data_dir"] = str(cmd_gen_data(cfg, tmp_path / "data"))
        return cfg

    def test_valid_directory_trains(self, data_cfg, tmp_path):
        out = cmd_train(data_cfg, tmp_path / "run")
        assert load_checkpoint(out / "checkpoint.bin").step_count == 1

    # 0.2261...: Python's sigma0 ** 2 rounds differently from sigma0 * sigma0
    @pytest.mark.parametrize("sigma0", [0.01, 0.22610530546880114])
    def test_directory_equals_simulated_dataset(self, tmp_path, sigma0):
        cfg = two_deltas_config(tmp_path)
        cfg["degradation"]["sigma0"] = sigma0
        simulated, _ = cli._dataset_from_config(cfg)
        cfg["io"]["data_dir"] = str(cmd_gen_data(cfg, tmp_path / "data"))
        loaded, _ = cli._dataset_from_config(cfg)
        for name in ("ybar", "masks", "noise_var", "clean_xbar"):
            assert getattr(loaded, name).tobytes() == getattr(simulated, name).tobytes()

    def rewrite(self, cfg, name, arr):
        write_tensor_file(Path(cfg["io"]["data_dir"]) / name, arr)

    def test_fractional_mask_rejected(self, data_cfg, tmp_path):
        masks = read_tensor_file(Path(data_cfg["io"]["data_dir"]) / "masks.bin")
        masks[0, 0] = 0.5
        self.rewrite(data_cfg, "masks.bin", masks)
        with pytest.raises(FormatError, match="0.0 or 1.0"):
            cmd_train(data_cfg, tmp_path / "run")

    def test_shape_mismatch_rejected(self, data_cfg, tmp_path):
        masks = read_tensor_file(Path(data_cfg["io"]["data_dir"]) / "masks.bin")
        self.rewrite(data_cfg, "masks.bin", masks[:-1])
        with pytest.raises(FormatError, match="equal-shaped"):
            cmd_train(data_cfg, tmp_path / "run")

    def test_nonzero_ybar_at_unobserved_entry_rejected(self, data_cfg, tmp_path):
        data_dir = Path(data_cfg["io"]["data_dir"])
        ybar = read_tensor_file(data_dir / "ybar.bin")
        masks = read_tensor_file(data_dir / "masks.bin")
        ybar[masks == 0.0] = 0.25
        self.rewrite(data_cfg, "ybar.bin", ybar)
        with pytest.raises(FormatError, match="unobserved"):
            cmd_train(data_cfg, tmp_path / "run")

    def test_garbled_sidecar_rejected(self, data_cfg, tmp_path):
        (Path(data_cfg["io"]["data_dir"]) / "dataset.json").write_text('{"n": 2')
        with pytest.raises(FormatError):
            cmd_train(data_cfg, tmp_path / "run")

    @pytest.mark.parametrize("value", [1, 1.0])
    def test_unit_s_const_of_older_sidecars_accepted(self, data_cfg, tmp_path, value):
        # directories written while the kept singular value was an option hold it
        sidecar = Path(data_cfg["io"]["data_dir"]) / "dataset.json"
        meta = json.loads(sidecar.read_text())
        assert "s_const" not in meta
        new = cmd_train(data_cfg, tmp_path / "new") / "checkpoint.bin"
        sidecar.write_text(json.dumps({**meta, "s_const": value}))
        old = cmd_train(data_cfg, tmp_path / "old") / "checkpoint.bin"
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
    ], ids=["version-str", "version-newer", "n-str", "n-vs-columns", "sigma0-str",
            "sigma0-negative", "s_const-null", "s_const-zero", "s_const-two"])
    def test_bad_sidecar_field_rejected(self, data_cfg, tmp_path, field, value):
        sidecar = Path(data_cfg["io"]["data_dir"]) / "dataset.json"
        meta = json.loads(sidecar.read_text())
        meta[field] = value
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(FormatError, match=field) as exc:
            cmd_train(data_cfg, tmp_path / "run")
        assert str(exc.value).startswith(f"{sidecar.parent}: ")

    @pytest.mark.parametrize("name", ["dataset.json", "ybar.bin", "masks.bin"])
    def test_missing_member_rejected(self, data_cfg, tmp_path, name):
        data_dir = Path(data_cfg["io"]["data_dir"])
        (data_dir / name).unlink()
        with pytest.raises(FormatError, match=f"^{re.escape(str(data_dir))}: .* {name}$"):
            cmd_train(data_cfg, tmp_path / "run")

    def test_oracle_training_without_clean_signals_rejected(self, data_cfg, tmp_path):
        (Path(data_cfg["io"]["data_dir"]) / "clean.bin").unlink()
        data_cfg["train"]["oracle_mode"] = True
        out = tmp_path / "run"
        with pytest.raises(ConfigError, match="oracle_mode needs clean.bin"):
            cmd_train(data_cfg, out)
        assert not out.exists()


class TestCommands:
    def test_gen_data_writes_dataset(self, tmp_path):
        cfg = two_deltas_config(tmp_path)
        out = cmd_gen_data(cfg, tmp_path / "data")
        meta = json.loads((out / "dataset.json").read_text())
        assert meta["n"] == 2 and meta["count"] == 128
        ybar = read_tensor_file(out / "ybar.bin")
        masks = read_tensor_file(out / "masks.bin").astype(bool)
        assert np.all(ybar[~masks] == 0.0)
        assert np.all(masks.sum(axis=1) == 1)  # one coordinate dropped per record

    def test_train_and_metrics(self, tmp_path):
        cfg = two_deltas_config(tmp_path)
        out = cmd_train(cfg, tmp_path / "run")
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "step,loss,divergence_term,grad_norm"
        assert len(lines) > 2
        ckpt = load_checkpoint(out / "checkpoint.bin")
        assert ckpt.step_count == 30
        assert ckpt.config_digest == config_digest(cfg)

    def test_oracle_mode_trains_on_clean(self, tmp_path):
        cfg = two_deltas_config(tmp_path, oracle=True)
        out = cmd_train(cfg, tmp_path / "oracle")
        rows = (out / "metrics.csv").read_text().splitlines()[1:]
        assert all(float(r.split(",")[2]) == 0.0 for r in rows)  # no divergence term

    def test_train_determinism_across_runs(self, tmp_path):
        out1 = cmd_train(two_deltas_config(tmp_path), tmp_path / "r1")
        out2 = cmd_train(two_deltas_config(tmp_path), tmp_path / "r2")
        for name in ("checkpoint.bin", "metrics.csv", "run.json"):
            assert (out2 / name).read_bytes() == (out1 / name).read_bytes()

    def test_sample_determinism_and_shape(self, tmp_path):
        cfg = two_deltas_config(tmp_path)
        run = cmd_train(cfg, tmp_path / "run")
        s1 = cmd_sample(run / "checkpoint.bin", tmp_path / "s1", "ddim", 10, 5, 77)
        s2 = cmd_sample(run / "checkpoint.bin", tmp_path / "s2", "ddim", 10, 5, 77)
        assert (s1 / "samples.bin").read_bytes() == (s2 / "samples.bin").read_bytes()
        assert read_tensor_file(s1 / "samples.bin").shape == (5, 2)
        s3 = cmd_sample(run / "checkpoint.bin", tmp_path / "s3", "ddpm", 10, 2, 78)
        assert read_tensor_file(s3 / "samples.bin").shape == (2, 2)

    def test_reconstruct_zero_filled_exact(self, tmp_path):
        cfg = two_deltas_config(tmp_path)
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
        cfg = two_deltas_config(tmp_path)
        cfg["eval"]["operations"] = ["independence_demo"]
        cfg["eval"]["n_samples"] = 400
        cfg["eval"]["n_permutations"] = 20
        out = cmd_eval(cfg, tmp_path / "eval")
        lines = (out / "independence.csv").read_text().splitlines()
        assert lines[0] == "prior,snr,abar,energy,z,null_mean,null_sd"
        assert len(lines) == 5  # two priors x two SNR levels

    def test_eval_pair_csvs_hold_plain_numbers(self, tmp_path):
        # two different checkpoints give finite PSNRs, numpy floats that
        # must be written as numbers, not as their reprs
        a, b = (cmd_train(two_deltas_config(tmp_path, iterations=2, seed=s),
                          tmp_path / f"run{s}") / "checkpoint.bin" for s in (5, 6))
        cfg = two_deltas_config(tmp_path)
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
        cfg = two_deltas_config(tmp_path)
        cfg["eval"]["operations"] = ["distribution_distance"]
        out = cmd_eval(cfg, tmp_path / "eval", samples_a=a, samples_b=b)
        lines = (out / "distance.csv").read_text().splitlines()
        assert lines[0] == "sliced_wasserstein,mean_gap,cov_gap"

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
        cfg = two_deltas_config(tmp_path, iterations=2)
        run = cmd_train(cfg, tmp_path / "run")
        cmd_inspect(run / "checkpoint.bin")
        text = capsys.readouterr().out
        ckpt = load_checkpoint(run / "checkpoint.bin")
        for line in ("checkpoint", '"hidden": [16, 16]', "step_count: 2",
                     f'config_digest: "{config_digest(cfg)}"',
                     f'schedule_digest: "{ckpt.header()["schedule_digest"]}"',
                     f"t_min_valid: {ckpt.schedule['t_min_valid']}",
                     f"param_count: {ckpt.params.size}"):
            assert line in text

    def test_inspect_metrics_csv(self, tmp_path, capsys):
        run = cmd_train(two_deltas_config(tmp_path, iterations=2), tmp_path / "run")
        cmd_inspect(run / "metrics.csv")
        assert capsys.readouterr().out == (run / "metrics.csv").read_text()

    def test_main_entrypoint(self, tmp_path):
        cfg = two_deltas_config(tmp_path, iterations=2)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / "m")]) == 0
        assert (tmp_path / "m" / "checkpoint.bin").exists()

    def dft_checkpoint_and_clean(self, tmp_path):
        """A real-DFT (16-line) checkpoint and 4 clean signals for a sweep."""
        cfg = validate_config({
            "data": {"kind": "isotropic-gaussian", "count": 64, "seed": 2,
                     "dim": 32},
            "degradation": {"family": "line-subsample", "accel": 2,
                            "sigma0": 0.01},
            "schedule": {"T": 40, "betaT": 0.2},
            "model": {"hidden": [16], "emb_dim": 8, "ema_decay": 0.99},
            "train": {"iterations": 3, "batch_size": 4, "seed": 3,
                      "learning_rate": 1e-3, "chunk_size": 4},
        })
        run = cmd_train(cfg, tmp_path / "run")
        clean = tmp_path / "clean.bin"
        write_tensor_file(clean, generate_signals(cfg["data"], 4, seed=6))
        return run / "checkpoint.bin", clean

    def test_r_sweep_outputs(self, tmp_path):
        ckpt, clean = self.dft_checkpoint_and_clean(tmp_path)
        out = cmd_reconstruct(ckpt, None, tmp_path / "sweep",
                              steps=8, seed=9, r_sweep=[2, 4],
                              clean_path=clean)
        lines = (out / "rsweep.csv").read_text().splitlines()
        assert lines[0] == "accel,residual_norm,finite"
        assert len(lines) == 3

    def test_r_sweep_rejects_non_dft_checkpoint(self, tmp_path, monkeypatch):
        run = cmd_train(two_deltas_config(tmp_path, iterations=2), tmp_path / "run")
        clean = tmp_path / "clean.bin"
        write_tensor_file(clean, np.ones((4, 2)))
        monkeypatch.setattr(cli, "reconstruct", None)  # any call would fail
        with pytest.raises(ConfigError, match="'identity'"):
            cmd_reconstruct(run / "checkpoint.bin", None, tmp_path / "sweep",
                            steps=4, seed=9, r_sweep=[2], clean_path=clean)

    @pytest.mark.parametrize("rows", [np.zeros((0, 32)), np.ones(32), np.ones((4, 30))],
                             ids=["empty", "1d", "width"])
    def test_r_sweep_rejects_clean_signals_that_are_not_rows(self, tmp_path, rows):
        ckpt, clean = self.dft_checkpoint_and_clean(tmp_path)
        write_tensor_file(clean, rows)
        out = tmp_path / "sweep"
        with pytest.raises(ConfigError, match="--clean .* not a non-empty 2-D array "
                                              "of rows of width 32"):
            main(["reconstruct", "--checkpoint", str(ckpt), "--r-sweep", "2",
                  "--clean", str(clean), "--steps", "4", "--seed", "9", "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("accel", [0, 64])
    def test_r_sweep_rejects_infeasible_accel(self, tmp_path, monkeypatch, accel):
        ckpt, clean = self.dft_checkpoint_and_clean(tmp_path)
        monkeypatch.setattr(cli, "reconstruct", None)  # any call would fail
        with pytest.raises(ConfigError, match=f"accel {accel}:"):
            cmd_reconstruct(ckpt, None, tmp_path / "sweep", steps=4, seed=9,
                            r_sweep=[2, accel], clean_path=clean)


class TestReverseCommandArguments:
    """Bad sampler and reconstruction flags fail up front, naming the flag."""

    @pytest.fixture
    def checkpoint(self, tmp_path):
        run = cmd_train(two_deltas_config(tmp_path, iterations=2), tmp_path / "run")
        return str(run / "checkpoint.bin")

    @pytest.mark.parametrize("argv, flag", [
        (["reconstruct", "--seed", "1"], "--measurements"),
        (["reconstruct", "--seed", "1", "--r-sweep", "2"], "--clean"),
        (["reconstruct", "--seed", "1", "--measurements", "data", "--limit", "-1"],
         "--limit"),
        (["sample", "--seed", "1", "--count", "-3"], "--count"),
        (["reconstruct", "--seed", "1", "--r-sweep", "2,x", "--clean", "c.bin"],
         "--r-sweep"),
        (["reconstruct", "--seed", "1", "--r-sweep", "2", "--clean", "c.bin",
          "--measurements", "data"], "--measurements"),
        (["reconstruct", "--seed", "1", "--r-sweep", "2", "--clean", "c.bin",
          "--limit", "3"], "--limit"),
    ])
    def test_rejected_before_any_work(self, tmp_path, monkeypatch, argv, flag):
        monkeypatch.setattr(cli, "load_checkpoint", None)  # any call would fail
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=flag):
            main(argv + ["--checkpoint", str(tmp_path / "checkpoint.bin"),
                         "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["sample", "--steps", "0"],
        ["sample"],  # the default 100 steps on the checkpoint's T = 50
        ["sample", "--steps", "51"],
        ["reconstruct", "--steps", "0"],
        ["reconstruct", "--steps", "51"],
        ["reconstruct", "--steps", "51", "--r-sweep", "2", "--clean", "c.bin"],
    ])
    def test_steps_outside_the_schedule_rejected_before_out(self, checkpoint,
                                                            tmp_path, argv):
        if argv[0] == "reconstruct" and "--r-sweep" not in argv:
            argv = argv + ["--measurements", str(tmp_path / "data")]
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=r"--steps must lie in \[1, 50\]"):
            main(argv + ["--seed", "1", "--checkpoint", checkpoint, "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["sample", "--eta", "2"],
        ["sample", "--sampler", "ddim", "--eta", "nan"],
        ["reconstruct", "--eta", "-0.5"],
        ["reconstruct", "--eta", "1.5", "--r-sweep", "2", "--clean", "c.bin"],
    ])
    def test_eta_outside_unit_interval_rejected_before_out(self, checkpoint,
                                                          tmp_path, argv):
        if argv[0] == "reconstruct" and "--r-sweep" not in argv:
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
        ["reconstruct", "--seed", "-3", "--r-sweep", "2", "--clean", "c.bin"],
    ])
    def test_negative_seed_rejected_before_out(self, checkpoint, tmp_path, argv):
        if argv[0] == "reconstruct" and "--r-sweep" not in argv:
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
        cfg = two_deltas_config(tmp_path, iterations=2)
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
        cfg = two_deltas_config(tmp_path)
        data = cmd_gen_data(cfg, tmp_path / "data")
        rec = cmd_reconstruct(checkpoint, data, tmp_path / "rec", steps=4, seed=1,
                              limit=0)
        assert read_tensor_file(rec / "recon.bin").shape == (0, 2)
        smp = cmd_sample(checkpoint, tmp_path / "smp", "ddim", 4, 0, 1)
        assert read_tensor_file(smp / "samples.bin").shape == (0, 2)


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
        cfg = two_deltas_config(tmp_path, iterations=2)
        (cfg["train"]["loss"] if section == "loss" else cfg[section])[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=key):
            main(["train", "--config", str(cfg_path), "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("where", ["data.count", "data.dim", "data.height",
                                       "data.width", "model.hidden", "eval.count"])
    @pytest.mark.parametrize("command", ["gen-data", "train"])
    def test_huge_sizes(self, tmp_path, command, where):
        # without a ceiling these passed validation and failed allocating arrays
        cfg = two_deltas_config(tmp_path, iterations=2)
        section, key = where.split(".")
        cfg[section][key] = [10 ** 400] if key == "hidden" else 10 ** 400
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
        run = cmd_train(two_deltas_config(tmp_path, iterations=2), tmp_path / "run")
        ckpt = str(run / "checkpoint.bin")
        cfg = two_deltas_config(tmp_path)
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
    config seed or ``--seed`` raises ConfigError before any output exists."""

    def write(self, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    @pytest.mark.parametrize("command", ["gen-data", "train"])
    @pytest.mark.parametrize("section", ["data", "model", "train", "flag"])
    def test_configured_commands(self, tmp_path, command, section):
        cfg = two_deltas_config(tmp_path, iterations=2)
        argv = [command, "--out", str(tmp_path / "out")]
        if section == "flag":
            argv += ["--seed", "-3"]
        else:
            cfg[section]["seed"] = -1
        where = "--seed" if section == "flag" else rf"{section}\.seed"
        with pytest.raises(ConfigError, match=rf"{where} must be >= 0"):
            main(argv + ["--config", self.write(tmp_path, cfg)])
        assert not (tmp_path / "out").exists()

    def test_eval(self, tmp_path):
        ckpt = cmd_train(two_deltas_config(tmp_path, iterations=2), tmp_path / "run")
        cfg = two_deltas_config(tmp_path)
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

    def config(self, tmp_path, sigma0=0.01, **eval_keys):
        cfg = two_deltas_config(tmp_path, iterations=2)
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
            main(["train", "--config", self.write(tmp_path, self.config(tmp_path, 20.0)),
                  "--out", str(out)])
        assert not out.exists()

    def test_reconstruct_measurements(self, tmp_path):
        ckpt = cmd_train(self.config(tmp_path), tmp_path / "run") / "checkpoint.bin"
        data = cmd_gen_data(self.config(tmp_path, 20.0), tmp_path / "data")
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=r"--measurements .*: sigma0: no timestep"):
            main(["reconstruct", "--checkpoint", str(ckpt), "--measurements", str(data),
                  "--steps", "5", "--seed", "1", "--out", str(out)])
        assert not out.exists()

    def test_reconstruct_r_sweep(self, tmp_path):
        # the sweep's fixed sigma0 = 0.01 outgrows a schedule this short
        cfg = validate_config({
            "data": {"kind": "isotropic-gaussian", "count": 16, "seed": 2, "dim": 8},
            "degradation": {"family": "line-subsample", "accel": 2, "sigma0": 0.0},
            "schedule": {"T": 10, "beta1": 1e-6, "betaT": 1e-6},
            "model": {"hidden": [8], "emb_dim": 4, "ema_decay": 0.99},
            "train": {"iterations": 2, "batch_size": 4, "seed": 3}})
        ckpt = cmd_train(cfg, tmp_path / "run") / "checkpoint.bin"
        clean = tmp_path / "clean.bin"
        write_tensor_file(clean, generate_signals(cfg["data"], 2, seed=6))
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=r"--r-sweep's sigma0 = 0\.01: no timestep"):
            main(["reconstruct", "--checkpoint", str(ckpt), "--r-sweep", "2",
                  "--clean", str(clean), "--steps", "5", "--seed", "1", "--out", str(out)])
        assert not out.exists()

    def test_eval_uncertainty(self, tmp_path):
        ckpt = cmd_train(self.config(tmp_path), tmp_path / "run") / "checkpoint.bin"
        cfg = self.config(tmp_path, operations=["uncertainty"], uncertainty_sigma0=50.0)
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=r"eval\.uncertainty_sigma0: no timestep"):
            main(["eval", "--config", self.write(tmp_path, cfg), "--out", str(out),
                  "--checkpoint", str(ckpt)])
        assert not out.exists()


class TestEvalInputs:
    """Eval inputs that an operation reads are checked before anything is written."""

    def run_eval(self, tmp_path, ops, flags, ts=()):
        cfg = two_deltas_config(tmp_path)
        cfg["eval"]["operations"] = list(ops)
        cfg["eval"]["ts"] = list(ts)
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
        run = cmd_train(two_deltas_config(tmp_path, iterations=2), tmp_path / "run")
        ckpt = str(run / "checkpoint.bin")
        with pytest.raises(ConfigError, match=r"eval\.ts must be <= T = 50"):
            self.run_eval(tmp_path, ["mse_sweep"],
                          ["--checkpoint", ckpt, "--checkpoint-b", ckpt], ts=[10, 51])
        assert not (tmp_path / "out").exists()

    def train_pair(self, tmp_path, schedule_b, sigma0_b=0.01):
        """Checkpoint A (T = 50, beta1 = 1e-4, betaT = 0.2) and checkpoint B with
        ``schedule_b`` over A's schedule, trained at ``sigma0_b``."""
        cfg_a = two_deltas_config(tmp_path, iterations=2)
        cfg_a["schedule"]["beta1"] = 1e-4
        cfg_b = two_deltas_config(tmp_path, iterations=2)
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
        cfg = two_deltas_config(tmp_path, iterations=2)
        cfg["data"].update(kind="isotropic-gaussian", dim=dim)
        cfg["degradation"].update(family=family, accel=2)
        return cmd_train(validate_config(cfg), tmp_path / name) / "checkpoint.bin"

    def eval_config(self, tmp_path, ops, dim, family):
        cfg = two_deltas_config(tmp_path)
        cfg["data"].update(kind="isotropic-gaussian", dim=dim)
        cfg["degradation"]["family"] = family
        cfg["eval"].update(operations=ops, count=16)
        return validate_config(cfg)

    def test_pair_operations_score_in_checkpoint_a_basis(self, tmp_path):
        # the eval config's degradation family does not choose the basis
        a = self.train_net(tmp_path, "a", 8, "line-subsample")
        outs = [cmd_eval(self.eval_config(tmp_path, ["mse_sweep", "generalization_psnr"],
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
        cfg = self.eval_config(tmp_path, ["mse_sweep"], 8, "line-subsample")
        with pytest.raises(ConfigError, match=f"--checkpoint-b {what} = "):
            cmd_eval(cfg, tmp_path / "out", checkpoint=a, checkpoint_b=b)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("ops", [["mse_sweep"], ["uncertainty"]])
    def test_signals_of_another_width_rejected(self, tmp_path, ops):
        a = self.train_net(tmp_path, "a", 8, "line-subsample")
        cfg = self.eval_config(tmp_path, ops, 4, "none")
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
        run = cmd_train(two_deltas_config(tmp_path, iterations=2), tmp_path / "run")
        seen = []

        def fake_map(model, schedule, m, k, *, rng, vt, steps, eta):
            seen.append(eta)
            return np.zeros(vt.n), np.zeros(vt.n)

        monkeypatch.setattr(cli, "uncertainty_map", fake_map)
        cfg = two_deltas_config(tmp_path)
        cfg["eval"].update(operations=["uncertainty"], eta=eta, steps=10)
        cmd_eval(cfg, tmp_path / "out", checkpoint=run / "checkpoint.bin")
        assert seen == [used]

    def test_steps_beyond_the_checkpoint_schedule_rejected(self, tmp_path):
        # the default eval.steps of 100 on a checkpoint of T = 50
        run = cmd_train(two_deltas_config(tmp_path, iterations=2), tmp_path / "run")
        with pytest.raises(ConfigError, match=r"eval\.steps must lie in \[1, 50\]"):
            self.run_eval(tmp_path, ["uncertainty"],
                          ["--checkpoint", str(run / "checkpoint.bin")])
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

    def test_external_source_read_once(self, tmp_path, monkeypatch):
        run = cmd_train(two_deltas_config(tmp_path, iterations=2), tmp_path / "run")
        src = tmp_path / "signals.bin"
        write_tensor_file(src, np.random.default_rng(2).standard_normal((6, 2)))
        reads = []

        def counting_read(path):
            reads.append(Path(path))
            return read_tensor_file(path)

        monkeypatch.setattr(cli, "read_tensor_file", counting_read)
        cfg = two_deltas_config(tmp_path)
        cfg["data"] = {"kind": "external-binary", "path": str(src), "count": 6, "seed": 0}
        cfg["eval"].update(operations=["mse_sweep", "uncertainty"], count=4, steps=5,
                           t_stride=25, uncertainty_k=2)
        ckpt = run / "checkpoint.bin"
        cmd_eval(validate_config(cfg), tmp_path / "out", checkpoint=ckpt,
                 checkpoint_b=ckpt)
        assert reads.count(src) == 1

    def test_external_source_short_of_eval_count_rejected(self, tmp_path):
        run = cmd_train(two_deltas_config(tmp_path, iterations=2), tmp_path / "run")
        src = tmp_path / "signals.bin"
        write_tensor_file(src, np.ones((4, 2)))
        cfg = two_deltas_config(tmp_path)
        cfg["data"] = {"kind": "external-binary", "path": str(src), "count": 4, "seed": 0}
        cfg["eval"].update(operations=["mse_sweep"], count=5)
        ckpt = run / "checkpoint.bin"
        with pytest.raises(ConfigError, match="external-binary file"):
            cmd_eval(validate_config(cfg), tmp_path / "out", checkpoint=ckpt,
                     checkpoint_b=ckpt)
        assert not (tmp_path / "out").exists()
