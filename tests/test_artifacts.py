"""Every command once on shrunken presets, checked byte for byte.

The command set runs through ``main([...])`` in child processes pinned to one
and to two BLAS threads, with paths relative to their working directory, since
the external-binary config's ``data.path`` enters its config digest. Each
file's sha256 must equal ``tests/artifact_digests.json`` at both thread counts,
``inspect`` must describe each file, and no temporary file of the atomic
writer may remain.
The pins remain because an unpinned run takes as many threads as the machine
has CPUs, so it would check a different count on each machine; pinning checks
the same two everywhere. OpenBLAS may cap its threads at the CPU count, so the
two-thread run has power only on a machine with at least 2 CPUs. The
manifest's shrunk nets are too small for a thread-dependent sum over the
parameters to show, so a full-size ``train`` is checked at both counts too.

After a change that moves artifact bytes on purpose, rewrite the manifest
with ``PYTHONPATH=src python tests/test_artifacts.py --rewrite``, which prints
each entry it adds, removes or changes.

The same command set, plus ``inspect`` on every file it writes, is also the
reach guard: run in process under ``sys.setprofile``, it must reach every
function and method that a library module names through ``__all__``, save
those ``UNREACHED`` lists with a reason.
"""

import contextlib
import hashlib
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import specdiff
from specdiff import cli

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "artifact_digests.json"
PRESETS = ("shapes_lines", "shapes_patch", "two_deltas")
EVAL_OPS = ["mse_sweep", "generalization_psnr", "independence_demo",
            "distribution_distance", "uncertainty"]


def shrunk(preset: str) -> dict:
    """``configs/<preset>.json`` at a size that runs in a fraction of a second."""
    cfg = json.loads((ROOT / "configs" / f"{preset}.json").read_text())
    cfg["data"].update(count=64, holdout=8)
    cfg["model"]["hidden"] = [16, 16]
    cfg["train"].update(iterations=3, log_interval=1)
    cfg["eval"].update(operations=EVAL_OPS, count=16, n_samples=200,
                       n_permutations=20, n_projections=16, uncertainty_k=2, steps=5)
    return cfg


def extra_configs() -> dict:
    """Kinds the presets do not reach: Gaussian signals under single-drop masks,
    an external binary source (the Gaussian set's clean signals), and the
    shrunk ``shapes_lines`` eval whose one operation is the acceleration sweep
    (its own config, so that no preset config changes)."""
    gaussian = {"data": {"kind": "isotropic-gaussian", "dim": 4, "count": 32, "seed": 5},
                "degradation": {"family": "single-drop", "sigma0": 0.01},
                "schedule": {"T": 50},
                "model": {"hidden": [8], "emb_dim": 4},
                "train": {"iterations": 2, "batch_size": 8, "seed": 6, "log_interval": 1}}
    external = json.loads(json.dumps(gaussian))
    external["data"] = {"kind": "external-binary", "path": "gaussian/data/clean.bin",
                        "count": 16, "seed": 7}
    sweep = shrunk("shapes_lines")
    sweep["eval"].update(operations=["acceleration_sweep"], accels=[2, 4])
    return {"gaussian": gaussian, "external": external, "shapes_lines_sweep": sweep}


def commands() -> list[list[str]]:
    """Every command: gen-data, GSURE and oracle train on its directory, DDIM
    and DDPM sample, reconstruct, eval with the five operations that the
    presets run and, on ``shapes_lines``, the acceleration sweep, and inspect
    --pgm."""
    argv = []
    for p in PRESETS:
        argv += [
            ["gen-data", "--config", f"{p}.json", "--out", f"{p}/data"],
            ["train", "--config", f"{p}.json", "--measurements", f"{p}/data",
             "--out", f"{p}/gsure"],
            ["train", "--config", f"{p}_oracle.json", "--measurements", f"{p}/data",
             "--out", f"{p}/oracle"],
            ["sample", "--checkpoint", f"{p}/gsure/checkpoint.bin", "--out", f"{p}/ddim",
             "--sampler", "ddim", "--steps", "5", "--count", "8", "--seed", "1"],
            ["sample", "--checkpoint", f"{p}/gsure/checkpoint.bin", "--out", f"{p}/ddpm",
             "--sampler", "ddpm", "--count", "4", "--seed", "2"],
            ["reconstruct", "--checkpoint", f"{p}/gsure/checkpoint.bin",
             "--measurements", f"{p}/data", "--limit", "4", "--steps", "5",
             "--seed", "3", "--out", f"{p}/recon"],
            ["eval", "--config", f"{p}.json", "--out", f"{p}/eval",
             "--checkpoint", f"{p}/gsure/checkpoint.bin",
             "--checkpoint-b", f"{p}/oracle/checkpoint.bin",
             "--samples-a", f"{p}/ddim/samples.bin",
             "--samples-b", f"{p}/ddpm/samples.bin"],
        ]
        if p.startswith("shapes"):
            argv.append(["inspect", f"{p}/data/clean.bin", "--pgm", f"{p}/clean.pgm"])
    argv.append(["eval", "--config", "shapes_lines_sweep.json", "--out",
                 "shapes_lines/sweep", "--checkpoint",
                 "shapes_lines/gsure/checkpoint.bin"])
    for name in ("gaussian", "external"):
        argv += [["gen-data", "--config", f"{name}.json", "--out", f"{name}/data"],
                 ["train", "--config", f"{name}.json", "--out", f"{name}/gsure"]]
    return argv


def run_commands() -> None:
    """Write the configs into the working directory and run every command."""
    configs = extra_configs()
    for p in PRESETS:
        configs[p] = shrunk(p)
        configs[f"{p}_oracle"] = json.loads(json.dumps(configs[p]))
        configs[f"{p}_oracle"]["train"]["oracle_mode"] = True
    for name, cfg in configs.items():
        Path(f"{name}.json").write_text(json.dumps(cfg, indent=1, sort_keys=True))
    for argv in commands():
        cli.main(argv)


def run_child(workdir: Path, threads: int = 1, *args: str) -> None:
    """``python *args`` in a fresh process on ``threads`` BLAS threads, by
    default ``run_commands``."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "OMP_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    args = args or (str(Path(__file__).resolve()), "--run")
    proc = subprocess.run([sys.executable, *args], cwd=workdir, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def digests(workdir: Path) -> dict:
    return {path.relative_to(workdir).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(workdir.rglob("*")) if path.is_file()}


def build() -> dict:
    """numpy's version and BLAS build, which the bytes may depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


@pytest.mark.parametrize("threads", [1, 2])
def test_every_command_writes_the_manifest_bytes(tmp_path, capsys, threads):
    run_child(tmp_path, threads)
    assert not list(tmp_path.rglob("*.partial"))
    manifest = json.loads(MANIFEST.read_text())
    found = digests(tmp_path)
    changed = sorted(name for name in found.keys() | manifest["files"].keys()
                     if found.get(name) != manifest["files"].get(name))
    assert not changed, (f"artifact bytes differ from the manifest: {changed}; "
                         f"manifest built on {manifest['build']}, this is {build()}")
    for name in found:
        cli.main(["inspect", str(tmp_path / name)])
        assert capsys.readouterr().out


def test_full_size_metrics_equal_at_one_and_two_threads(tmp_path):
    # the two_deltas net (35,714 parameters): BLAS splits a dot product of
    # 20,000 or more entries over its threads, and so would a gradient norm
    cfg = json.loads((ROOT / "configs" / "two_deltas.json").read_text())
    cfg["data"]["count"] = 64
    cfg["train"].update(iterations=3, log_interval=1)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    cli_main = "import sys; from specdiff import cli; cli.main(sys.argv[1:])"
    for threads in (1, 2):
        run_child(tmp_path, threads, "-c", cli_main, "train", "--config", "cfg.json",
                  "--out", str(threads))
    assert (tmp_path / "1" / "metrics.csv").read_bytes() \
        == (tmp_path / "2" / "metrics.csv").read_bytes()


@pytest.mark.parametrize("oracle", [False, True], ids=["gsure", "oracle"])
@pytest.mark.parametrize("preset", PRESETS)
def test_train_on_gen_data_equals_simulated_train(tmp_path, preset, oracle):
    # --measurements is a path, not a setting: the directory that gen-data
    # writes from a config trains that config to the bytes of simulated data
    cfg = shrunk(preset)
    cfg["train"]["oracle_mode"] = oracle
    cfg = cli.validate_config(cfg)
    data = cli.cmd_gen_data(cfg, tmp_path / "data")
    read = cli.cmd_train(cfg, tmp_path / "read", data)
    simulated = cli.cmd_train(cfg, tmp_path / "simulated")
    for name in ("checkpoint.bin", "metrics.csv"):
        assert (read / name).read_bytes() == (simulated / name).read_bytes()


# public functions and methods that no command reaches, each with its reason
UNREACHED = {
    "cli.Checkpoint.__eq__": "only the bench's checkpoint round trip compares them",
    "cli.save_checkpoint": "only the bench saves a Checkpoint; train writes its "
                           "model's header and vectors without one",
    "training.PrecomputedDataset.measurement": "only the bench reads it",
    "training.PrecomputedDataset.noise_var":
        "only the bench reads it; training derives rows as masks * var",
    "evaluation.energy_distance": "the bench traces it by name (ROADMAP item 1); "
                                  "tests pin it against the dense reference",
    "evaluation.GaussianPosteriorDenoiser.denoise":
        "the exact posterior; no evaluation artifact scores against it yet",
    "evaluation.TwoDeltasPosteriorDenoiser.denoise":
        "the exact posterior; no evaluation artifact scores against it yet",
    "operators.OrthoTransform.apply": "abstract",
    "operators.OrthoTransform.apply_inverse": "abstract",
    "operators.OrthoTransform.descriptor": "abstract; an explicit matrix has none",
    "training.TrainingDiverged.__init__": "raised only when a run diverges",
}


def public_functions() -> dict:
    """The code of every function and method, properties included, that a
    library module names through ``__all__`` and defines in its own source
    (so no dataclass- or NamedTuple-generated method), by
    ``module.qualname``."""
    found = {}
    for info in pkgutil.iter_modules(specdiff.__path__):
        module = importlib.import_module(f"specdiff.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            for member in vars(obj).values() if isinstance(obj, type) else [obj]:
                fn = getattr(member, "fget", getattr(member, "__func__", member))
                code = getattr(fn, "__code__", None)
                if code is not None and code.co_filename == module.__file__:
                    found[f"{info.name}.{fn.__qualname__}"] = code
    return found


def unreached(reached: set, allowed) -> list:
    return sorted(name for name, code in public_functions().items()
                  if code not in reached and name not in allowed)


@pytest.fixture(scope="module")
def reached(tmp_path_factory) -> set:
    """The code objects that ``run_commands`` and ``inspect`` on every file
    it wrote call, in this process."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    cwd = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("reach"))
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            run_commands()
            for path in sorted(Path().rglob("*")):
                if path.is_file():
                    cli.main(["inspect", str(path)])
    finally:
        sys.setprofile(None)
        os.chdir(cwd)
    return codes


def test_every_public_function_is_reached(reached):
    assert unreached(reached, UNREACHED) == []


@pytest.mark.parametrize("name", sorted(UNREACHED))
def test_each_allowed_name_is_unreached(reached, name):
    # the guard fails without the entry, so no entry outlives its reason
    assert unreached(reached, UNREACHED.keys() - {name}) == [name]


@pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
def test_interrupted_write_leaves_the_old_file_or_none(tmp_path, error):
    def chunks():
        yield b"new bytes"
        raise error("interrupted")

    old, new = tmp_path / "old.bin", tmp_path / "new.bin"
    old.write_bytes(b"old bytes")
    for path in (old, new):
        with pytest.raises(error):
            cli._write(path, chunks())
    assert old.read_bytes() == b"old bytes" and not new.exists()
    assert [p.name for p in tmp_path.iterdir()] == ["old.bin"]  # no temporary file


if __name__ == "__main__":
    if sys.argv[1:] == ["--run"]:
        run_commands()
    elif sys.argv[1:] == ["--rewrite"]:
        with tempfile.TemporaryDirectory() as tmp:
            run_child(Path(tmp))
            files = digests(Path(tmp))
        old = json.loads(MANIFEST.read_text())["files"]
        for name in sorted(old.keys() | files.keys()):
            if old.get(name) != files.get(name):
                print("added" if name not in old else "removed" if name not in files
                      else "changed", name)
        MANIFEST.write_text(json.dumps({"build": build(), "files": files},
                                       indent=1, sort_keys=True) + "\n")
    else:
        sys.exit("usage: test_artifacts.py --rewrite")
