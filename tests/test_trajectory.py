"""Trajectory guards: training steps and the reverse process against stored values.

Each preset's architecture, loss and degradation train for 3 steps on 64
records, in GSURE and oracle mode, through ``cmd_train``. The stored values
are ``(loss, divergence_term, grad_norm)`` per step from ``metrics.csv`` and
two checksums of the trained parameters. The tolerance lets BLAS reduction
order through and catches any change to what a step computes; a change that
is meant to alter training updates these values and names them.

The reverse-process guard runs DDIM (``eta`` 0 and 0.85), DDPM and
``reconstruct`` with each preset's architecture and degradation on a 100-step
schedule, on randomly perturbed EMA weights. It stores a random projection
and the sum of squares of each sampler's output.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from specdiff.cli import (
    build_degradation_family,
    build_model,
    build_schedule,
    cmd_train,
    generate_signals,
    load_checkpoint,
    validate_config,
)
from specdiff.diffusion import ddim_sample, ddpm_sample, reconstruct
from specdiff.training import derived_rng

from helpers import SpectralDegradation, corrupt_spectral

CONFIGS = Path(__file__).parents[1] / "configs"
RTOL = 1e-9

# preset-mode: ([(loss, divergence_term, grad_norm) for steps 1..3],
#               sum(params), params @ params)
EXPECTED = {
    "shapes_lines-gsure": (
        [(2.5551069190668063e+19, 2.5551069190668063e+19, 1.8787277389381243e+19),
         (3.4239431131025375e+20, 3.4239431131025375e+20, 1.9606220503869512e+20),
         (3.5692351910911764e+20, 3.5692351910911764e+20, 3.2688655334031576e+20)],
        -17.118147257064685, 1025.7247016770311),
    "shapes_lines-oracle": (
        [(257.66047279042834, 0.0, 40.736473838965225),
         (258.57269758528344, 0.0, 40.14571508715818),
         (255.1864485289413, 0.0, 39.598035876943435)],
        -18.53113875061924, 1025.6627610225435),
    "shapes_patch-gsure": (
        [(23.187712440030733, 1.7912228539607934e-06, 15.580504358994219),
         (25.802585824533622, 6.0282887486596995e-06, 16.688824177594814),
         (22.696930051343625, 2.757788403615084e-05, 15.34030992008162)],
        41.740822883426745, 1018.4730480473875),
    "shapes_patch-oracle": (
        [(23.1253994607604, 0.0, 14.553852920914915),
         (25.29643811000106, 0.0, 15.665266850770491),
         (22.19779932715881, 0.0, 13.932803984827176)],
        42.39101494817914, 1018.4027380572015),
    "two_deltas-gsure": (
        [(34.10110808235184, -6.223466671344216e-06, 215.2104604505622),
         (14.041922064110155, 2.2230560362322286e-06, 73.62968398426867),
         (33.0055159843298, 6.327655127379202e-06, 203.50096418921126)],
        5.571032095743813, 499.6357167320756),
    "two_deltas-oracle": (
        [(17.668653940322653, 0.0, 112.36374231007072),
         (9.581231194349199, 0.0, 50.77037036817248),
         (19.685503091651512, 0.0, 117.05214363971541)],
        5.657225218073589, 499.62683699482056),
}


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_three_steps_match_stored_trajectory(case, tmp_path):
    preset, mode = case.split("-")
    raw = json.loads((CONFIGS / f"{preset}.json").read_text(encoding="utf-8"))
    raw["data"].update(count=64, holdout=0)
    raw["train"].update(iterations=3, log_interval=1, oracle_mode=mode == "oracle")
    cmd_train(validate_config(raw), tmp_path)

    lines = (tmp_path / "metrics.csv").read_text(encoding="utf-8").splitlines()[1:]
    rows = [[float(v) for v in line.split(",")[1:4]] for line in lines]
    params = load_checkpoint(tmp_path / "checkpoint.bin").params
    want_rows, want_sum, want_sq = EXPECTED[case]
    np.testing.assert_allclose(rows, want_rows, rtol=RTOL, atol=0)
    np.testing.assert_allclose([np.sum(params), params @ params],
                               [want_sum, want_sq], rtol=RTOL, atol=0)


def reverse_outputs(preset):
    """``(u . out, out . out)`` of DDIM at eta 0 and 0.85, DDPM and reconstruct,
    with ``u`` a fixed Gaussian vector (a plain sum can cancel to nothing)."""
    raw = json.loads((CONFIGS / f"{preset}.json").read_text(encoding="utf-8"))
    # at T = 1000, abar_T < 1e-40 and an untrained predict_epsilon net's clean
    # estimate (x - s eps) / sqrt(abar_T) swamps every kept coordinate
    raw["schedule"]["T"] = 100
    cfg = validate_config(raw)
    family = build_degradation_family(cfg)
    vt = family.vt
    model = build_model(cfg, vt.n)
    model.ema_params = model.params + 0.05 * derived_rng(7, 0).standard_normal(
        model.param_count)
    schedule = build_schedule(cfg)
    clean = generate_signals(cfg["data"], 1, seed=8)[0]
    rng = derived_rng(7, 1)
    mask = family.masks.sample(rng)
    while mask.all() or not mask.any():  # some coordinates kept, some not
        mask = family.masks.sample(rng)
    deg = SpectralDegradation(vt, mask.astype(np.float64), family.sigma0)
    m = corrupt_spectral(clean, deg, rng)
    outs = {
        "ddim": ddim_sample(model, schedule, 20, 0.0, derived_rng(7, 2), vt, count=3),
        "ddim-eta": ddim_sample(model, schedule, 20, 0.85, derived_rng(7, 3), vt,
                                count=3),
        "ddpm": ddpm_sample(model, schedule, derived_rng(7, 4), vt, count=2),
        "reconstruct": reconstruct(model, schedule, m, 20, derived_rng(7, 5), vt),
    }
    stats = {}
    for sampler, out in outs.items():
        out = out.ravel()
        u = derived_rng(7, 6).standard_normal(out.size)
        stats[sampler] = (float(u @ out), float(out @ out))
    return stats


# preset: {sampler: (u . out, out . out)}
REVERSE_EXPECTED = {
    "shapes_lines": {
        "ddim": (3662.311509898279, 39683989.35624012),
        "ddim-eta": (6374.128640717509, 56264064.858338855),
        "ddpm": (5746.983004990812, 55296453.13137262),
        "reconstruct": (-4436.145144141554, 11378132.513371367),
    },
    "shapes_patch": {
        "ddim": (18.77084662448978, 144.92058828398166),
        "ddim-eta": (16.010614734595272, 136.98639784280982),
        "ddpm": (5.968838212166968, 94.50990922826273),
        "reconstruct": (-3.155666833913918, 26.996970819451455),
    },
    "two_deltas": {
        "ddim": (0.0018135131576983246, 0.16063773133997508),
        "ddim-eta": (-0.031541694302244565, 0.14113939306810439),
        "ddpm": (0.08204691309620142, 0.08342291653585274),
        "reconstruct": (0.5497885778477637, 0.48435794518011105),
    },
}


@pytest.mark.parametrize("case", sorted(REVERSE_EXPECTED))
def test_reverse_process_matches_stored_outputs(case):
    got = reverse_outputs(case)
    want = REVERSE_EXPECTED[case]
    assert sorted(got) == sorted(want)
    for sampler in want:
        np.testing.assert_allclose(got[sampler], want[sampler], rtol=RTOL, atol=0,
                                   err_msg=sampler)
