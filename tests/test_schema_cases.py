"""The row tables' generated cases against every command that reads each
table, and byte and flag fuzzing of what the commands read. An accepted case
is only validated, so no command runs at a bound's size."""

import functools
import itertools
import json
import re
import shutil
import struct
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from specdiff import cli
from specdiff.cli import ConfigError, FormatError, main, validate_config

from helpers import traced
from schema_cases import CASES, TABLES, schema_rows

# each row's or section's cases, in table order
ROWS = {}
for case in CASES:
    ROWS.setdefault((case.table, case.where), []).append(case)


@pytest.fixture(scope="module", autouse=True)
def one_parser():
    # main builds its parser on every call, most of a rejected run's time
    # here; one parser parses each argv the same
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_build_parser", functools.cache(cli._build_parser))
        yield


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """One valid input of each kind: configs, a gen-data directory, a
    checkpoint (T = 100) and a sampled directory."""
    root = tmp_path_factory.mktemp("inputs")
    cfg = validate_config({
        "data": {"kind": "two-deltas", "count": 4, "seed": 0},
        "degradation": {"family": "single-drop", "sigma0": 0.01},
        "schedule": {"T": 100},
        "model": {"hidden": [4], "emb_dim": 8, "ema_decay": 0.99},
        "train": {"iterations": 0, "batch_size": 4, "seed": 0},
        "eval": {"operations": ["mse_sweep"], "count": 4, "t_stride": 5}})
    ckpt = cli.cmd_train(cfg, root / "run") / "checkpoint.bin"
    paths = {"cfg": root / "cfg.json", "distance_cfg": root / "distance.json",
             "data": cli.cmd_gen_data(cfg, root / "data"), "ckpt": ckpt,
             "samples": cli.cmd_sample(ckpt, root / "samples", "ddim", 5, 3, 1)}
    paths["cfg"].write_text(json.dumps(cfg))
    cfg["eval"]["operations"] = ["distribution_distance"]
    paths["distance_cfg"].write_text(json.dumps(cfg))
    valid = ckpt.read_bytes()
    return SimpleNamespace(root=root, count=itertools.count(),
                           payload=valid[24 + struct.unpack_from("<I", valid, 20)[0]:],
                           **{key: str(path) for key, path in paths.items()})


def write_case(table: str, doc, inputs) -> Path:
    """A fresh input of ``table``'s kind holding the document ``doc``; a
    sidecar gets a directory that links the valid one's tensor files."""
    raw = json.dumps(doc).encode()
    n = next(inputs.count)
    if table == "config":
        path = inputs.root / f"cfg{n}.json"
    elif table == "header":
        path = inputs.root / f"checkpoint{n}.bin"
        raw = cli.CHECKPOINT_MAGIC + struct.pack("<II", 1, len(raw)) + raw + inputs.payload
    else:
        (case_dir := inputs.root / f"case{n}").mkdir()
        valid = Path(inputs.data if table == "dataset.json" else inputs.samples)
        for tensor in valid.glob("*.bin"):
            (case_dir / tensor.name).symlink_to(tensor)
        path = case_dir / table
    path.write_bytes(raw)
    return path


def reading_commands(table: str, path: Path, inputs, out: Path):
    """``main``'s argv for every command that reads ``table`` from ``path``."""
    samples = str(path.parent / "samples.bin")
    path, out, directory = str(path), str(out), str(path.parent)
    reverse = ["--seed", "1", "--steps", "5", "--out", out]
    return {"config": [[command, "--config", path, "--out", out]
                       for command in ("gen-data", "train", "eval")],
            "header": [["sample", "--checkpoint", path, *reverse],
                       ["reconstruct", "--checkpoint", path, "--measurements",
                        inputs.data, *reverse],
                       ["eval", "--config", inputs.cfg, "--checkpoint", path,
                        "--checkpoint-b", path, "--out", out],
                       ["inspect", path]],
            "dataset.json": [["train", "--config", inputs.cfg, "--measurements",
                              directory, "--out", out],
                             ["reconstruct", "--checkpoint", inputs.ckpt,
                              "--measurements", directory, *reverse]],
            "samples.json": [["eval", "--config", inputs.distance_cfg, "--samples-a",
                              samples, "--samples-b", samples, "--out", out]]}[table]


def check_rejected(case, inputs):
    path = write_case(case.table, case.doc, inputs)
    error = ConfigError if case.table == "config" else FormatError
    # an artifact's error names the file, or the directory holding the sidecar
    named = case.named if case.table == "config" else \
        f"{path if case.table == 'header' else path.parent}: {case.named}"
    out = path.with_suffix(".out")
    for argv in reading_commands(case.table, path, inputs, out):
        exc, peak = traced(lambda: pytest.raises(error, main, argv))
        assert str(exc.value).startswith(named), (case.id, argv[0])
        assert not out.exists(), (case.id, argv[0])
        assert peak <= path.stat().st_size + 2 ** 20, (case.id, argv[0])


@pytest.mark.parametrize("where", ROWS, ids=[f"{table}:{key}" for table, key in ROWS])
def test_row_cases(where, inputs):
    # an accepted case is validated alone; a rejected one fails every reader
    for case in ROWS[where]:
        if case.verdict is not None:
            check_rejected(case, inputs)
        elif case.table == "config":
            validate_config(case.doc)
        else:
            assert cli._json_header(json.dumps(case.doc).encode(), "dir",
                                    TABLES[case.table][0], case.table) == case.doc, case.id


@pytest.mark.parametrize("table", TABLES)
def test_every_row_has_generated_cases(table):
    # a row the generator cannot walk fails here: each row is taken, typed
    # and, if it has a rule, broken
    rows = dict(schema_rows(TABLES[table][0]))
    mine = [case for case in CASES if case.table == table]
    for verdict in (None, "type"):
        assert set(rows) <= {case.where for case in mine if case.verdict == verdict}
    assert {where for where, (_, _, rule) in rows.items() if rule is not None} \
        <= {case.where for case in mine if case.verdict == "rule"}


# -- byte and flag fuzzing ----------------------------------------------------

def read_gen_data(path, inputs):
    cfg = json.loads(Path(inputs.cfg).read_text())
    cfg["train"]["oracle_mode"] = True  # so that clean.bin is read too
    cli._dataset(cfg, path.parent)


# each artifact a command reads: the input directory and file holding it,
# and its reader (of a tensor file's header and size alone, as with --limit 0)
ARTIFACTS = {
    "tensor": ("samples", "samples.bin", lambda path, _: cli._read_tensor(path, 0)),
    "checkpoint": ("run", "checkpoint.bin", lambda path, _: cli.load_checkpoint(path)),
    **{name: ("data", name, read_gen_data)
       for name in ("dataset.json", "ybar.bin", "masks.bin", "clean.bin")},
    "samples.json": ("samples", "samples.json",
                     lambda path, _: cli._samples_provenance(path)),
}
FRAMED = {"tensor", "checkpoint", "ybar.bin", "masks.bin", "clean.bin"}
# bytes set anywhere, half of them in a framed file's 24-byte frame
EDITS = st.lists(st.tuples(st.integers(0, 23) | st.integers(0, 2 ** 16),
                           st.integers(0, 255)), min_size=1, max_size=4)


@pytest.mark.parametrize("kind", ARTIFACTS)
@settings(max_examples=20)
@given(how=st.sampled_from(["set", "version", "cut", "append"]), edits=EDITS,
       version=st.integers(0, 2 ** 32 - 1), cut=st.integers(0, 2 ** 16),
       tail=st.binary(min_size=1, max_size=16))
def test_mutated_bytes_read_or_raise_typed(inputs, kind, how, edits, version, cut, tail):
    # one mutation: the reader takes the file or raises ConfigError or
    # FormatError, and refuses a framed file of another size, magic or version
    directory, name, read = ARTIFACTS[kind]
    case_dir = inputs.root / f"fuzz{next(inputs.count)}"
    case_dir.mkdir()
    for member in (inputs.root / directory).iterdir():
        (case_dir / member.name).symlink_to(member)
    path = case_dir / name
    valid = path.read_bytes()
    path.unlink()
    raw = bytearray(valid)
    if how == "version" and kind in FRAMED:
        struct.pack_into("<I", raw, 16, version)
    elif how == "cut":
        del raw[cut % len(raw):]
    elif how == "append":
        raw += tail
    else:
        for at, byte in edits:
            raw[at % len(raw)] = byte
    path.write_bytes(raw)
    refused = kind in FRAMED and (len(raw) != len(valid) or raw[:16] != valid[:16] or
                                  struct.unpack_from("<I", raw, 16)[0] > cli.FORMAT_VERSION)
    try:
        read(path, inputs)
    except (ConfigError, FormatError):
        pass
    else:
        assert not refused
    shutil.rmtree(case_dir)


def flag(name, values):
    return st.one_of(st.just([]), values.map(lambda value: [name, str(value)]))


# mostly numbers in or near range, sometimes one that is not
INTS = st.one_of(st.integers(-2, 120), st.integers(1, 100),
                 st.sampled_from([2 ** 24 + 1, 2 ** 70, "x", "", "1e3", "nan"]))
FLAGS = {
    "common": [("--steps", INTS), ("--seed", INTS),
               ("--eta", st.one_of(st.floats(-0.5, 1.5), st.floats(0, 1),
                                   st.sampled_from(["nan", "inf", "x"])))],
    "sample": [("--sampler", st.sampled_from(["ddim", "ddpm", "euler"])),
               ("--count", st.one_of(st.integers(-2, 3), st.just(2 ** 24 + 1)))],
    "reconstruct": [("--limit", INTS)],
}


@settings(max_examples=30)
@given(command=st.sampled_from(["sample", "reconstruct"]), data=st.data())
def test_generated_flags_run_or_raise_typed(inputs, command, data):
    # each command's flags, and now and then one of the other command's,
    # which is a usage error; every run is tiny (at most 3 samples of, or 4
    # records reconstructed by, a 4-unit net over T = 100)
    other = "reconstruct" if command == "sample" else "sample"
    named = FLAGS["common"] + FLAGS[command] + data.draw(
        st.sampled_from([[], [], [], FLAGS[other][:1]]))
    argv = [command, "--checkpoint", inputs.ckpt, "--seed", "1",
            *(["--measurements", inputs.data] if command == "reconstruct" else [])]
    argv += [word for name, values in named for word in data.draw(flag(name, values))]
    out = inputs.root / f"flags{next(inputs.count)}"
    try:
        assert main(argv + ["--out", str(out)]) == 0
    except SystemExit as exc:
        assert exc.code == 2
    except (ConfigError, FormatError) as exc:
        assert re.match(r"--\w+ ", str(exc)), exc
    else:
        shutil.rmtree(out)
        return
    assert not out.exists()
