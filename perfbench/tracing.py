"""Spans at the library's layer boundaries, recorded only in the traced run.

:func:`installed` replaces each public function listed in :data:`TARGETS` with
a wrapper that records a span, in the defining module and in every
``specdiff`` module that imported it by name, and puts the originals back on
exit. Methods are wrapped on their class. Spans stay in memory as tuples and
are written once, after the run, by :meth:`Tracer.write`.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """In-memory span log: ``(id, parent, name, phase, op, start, end, attrs)``."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.phase = ""
        self.op = 0
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, attrs=None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)  # reserve the id; filled in when the span ends
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, self.phase, self.op, start, end,
                               attrs)

    def wrap(self, name: str, fn, attrs_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = attrs_of(args, kwargs) if attrs_of is not None else None
            with self.span(name, attrs):
                return fn(*args, **kwargs)

        return traced

    def write(self, path) -> None:
        """One JSON array per line: id, parent, name, phase, op, start_us, end_us."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, phase, op, start, end, attrs in self.spans:
                fh.write(json.dumps([sid, parent, name, phase, op,
                                     round((start - self._t0) * 1e6),
                                     round((end - self._t0) * 1e6), attrs]) + "\n")


# -- what gets wrapped ---------------------------------------------------------


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _forward_attrs(args, kwargs):
    graph = args[0]
    tangents = kwargs.get("tangents", args[2] if len(args) > 2 else None)
    return {"dual": tangents is not None, "nodes": len(graph._nodes)}


def _denoise_attrs(args, kwargs):
    x = np.asarray(_arg(args, kwargs, 1, "xbar_t"))
    return {"rows": 1 if x.ndim == 1 else int(x.shape[0])}


def _gsure_attrs(args, kwargs):
    ybar = np.atleast_2d(_arg(args, kwargs, 1, "ybar_rows"))
    probes = np.atleast_2d(_arg(args, kwargs, 5, "probe_rows"))
    return {"mse_rows": int(ybar.shape[0]), "rows": int(probes.shape[0])}


def _perm_attrs(args, kwargs):
    x = np.atleast_2d(_arg(args, kwargs, 0, "x"))
    y = np.atleast_2d(_arg(args, kwargs, 1, "y"))
    cap = kwargs.get("max_points", 2000)
    n, m = min(x.shape[0], cap), min(y.shape[0], cap)
    perms = int(_arg(args, kwargs, 2, "n_permutations"))
    # each shuffle reads the n*n, m*m and n*m distance blocks once, at least
    return {"perms": perms, "bytes": 8.0 * (n * n + m * m + n * m) * perms}


# (span name, module, attribute, attrs function); classes are listed by dotted
# attribute and wrapped on the class itself
TARGETS = [
    ("autodiff.forward", "autodiff", "forward", _forward_attrs),
    ("autodiff.backward", "autodiff", "backward", None),
    ("model.build_graph", "model", "Denoiser.build_graph", None),
    ("model.denoise", "model", "Denoiser.denoise", _denoise_attrs),
    ("model.ema", "model", "Denoiser.ema_update", None),
    ("training.train", "training", "train", None),
    ("training.adam", "training", "adam_step", None),
    ("training.precompute", "training", "precompute", None),
    ("losses.gsure", "losses", "gsure_loss_from_samples", _gsure_attrs),
    ("losses.supervised", "losses", "supervised_loss_from_samples", None),
    ("diffusion.perturb", "diffusion", "perturb_batch", None),
    ("diffusion.ddim", "diffusion", "ddim_sample", None),
    ("diffusion.ddpm", "diffusion", "ddpm_sample", None),
    ("diffusion.reconstruct", "diffusion", "reconstruct", None),
    ("operators.corrupt", "operators", "corrupt", None),
    ("evaluation.mse_sweep", "evaluation", "denoising_mse_sweep", None),
    ("evaluation.psnr", "evaluation", "generalization_psnr", None),
    ("evaluation.independence", "evaluation", "independence_demo", None),
    ("evaluation.energy_distance", "evaluation", "energy_distance", None),
    ("evaluation.energy_perm", "evaluation", "energy_permutation_test", _perm_attrs),
    ("cli.signals", "cli", "generate_signals", None),
    ("cli.checkpoint_save", "cli", "save_checkpoint", None),
    ("cli.checkpoint_load", "cli", "load_checkpoint", None),
]


def _transform_methods(operators):
    """Every ``apply``/``apply_inverse`` an orthogonal transform class defines."""
    for cls in vars(operators).values():
        if inspect.isclass(cls) and issubclass(cls, operators.OrthoTransform) \
                and cls is not operators.OrthoTransform:
            for meth in ("apply", "apply_inverse"):
                if meth in vars(cls):
                    yield cls, meth


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block."""
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "specdiff" or name.startswith("specdiff.")}
    restore = []

    def patch(owner, attr, new):
        restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    try:
        for span_name, mod_name, attr, attrs_of in TARGETS:
            home = modules[f"specdiff.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                patch(cls, meth, tracer.wrap(span_name, vars(cls)[meth], attrs_of))
                continue
            original = getattr(home, attr)
            wrapped = tracer.wrap(span_name, original, attrs_of)
            for mod in modules.values():
                if vars(mod).get(attr) is original:
                    patch(mod, attr, wrapped)
        for cls, meth in _transform_methods(modules["specdiff.operators"]):
            patch(cls, meth, tracer.wrap("operators.transform", vars(cls)[meth]))
        yield tracer
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)


# -- aggregation -----------------------------------------------------------------


class SpanTable:
    """Per-(phase, name) totals: count, busy seconds, self seconds, attrs sums."""

    def __init__(self, spans):
        child = defaultdict(float)
        for sid, parent, _, _, _, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self._rows = defaultdict(lambda: {"count": 0, "busy": 0.0, "self": 0.0,
                                          "attrs": defaultdict(float)})
        for sid, _, name, phase, _, start, end, attrs in spans:
            row = self._rows[(phase, name)]
            row["count"] += 1
            row["busy"] += end - start
            row["self"] += end - start - child[sid]
            for key, value in (attrs or {}).items():
                row["attrs"][key] += float(value)
                if key == "dual":  # splits forward busy time into value and dual
                    row["attrs"]["busy_dual"] += (end - start) * float(value)

    def count(self, phase, name) -> int:
        return self._rows[(phase, name)]["count"]

    def busy(self, phase, name) -> float:
        return self._rows[(phase, name)]["busy"]

    def self_time(self, phase, name) -> float:
        return self._rows[(phase, name)]["self"]

    def attr(self, phase, name, key) -> float:
        return self._rows[(phase, name)]["attrs"][key]
