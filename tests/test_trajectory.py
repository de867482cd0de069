"""Trajectory guard: three training steps of every preset against stored values.

Each preset's architecture, loss and degradation train for 3 steps on 64
records, in GSURE and oracle mode, through ``cmd_train``. The stored values
are ``(loss, divergence_term, grad_norm)`` per step from ``metrics.csv`` and
two checksums of the trained parameters. The ``-softplus`` and ``-sin`` cases
swap in the nonlinearities no preset uses, with a constant divergence weight
of 1, so that their second derivatives carry full weight. The tolerance lets
BLAS reduction order through and catches any change to what a step computes;
a change that is meant to alter training updates these values and names them.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from specdiff.cli import cmd_train, load_checkpoint, validate_config

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
    "two_deltas-gsure-softplus": (
        [(27.897220194058914, -0.26965855704989433, 339.07959077804753),
         (16.167649479450013, -0.0439523453502236, 111.81475979202273),
         (30.2225699502186, 0.2767432273584298, 212.4654198468202)],
        6.296587673922686, 499.60690898786436),
    "two_deltas-gsure-sin": (
        [(34.18598205266426, -0.28386047471259007, 253.69696835902306),
         (13.893254991891832, -0.21975634648825682, 89.70718430180857),
         (32.43587283350914, -0.7621357021562334, 230.0099663962205)],
        5.078619560346452, 499.69857790252627),
}


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_three_steps_match_stored_trajectory(case, tmp_path):
    preset, mode, *nonlin = case.split("-")
    raw = json.loads((CONFIGS / f"{preset}.json").read_text(encoding="utf-8"))
    if nonlin:
        raw["model"]["nonlin"] = nonlin[0]
        raw["train"]["loss"].update({"lambda": "constant", "lambda_coef": 1.0})
    raw["data"].update(count=64, holdout=0)
    raw["train"].update(iterations=3, log_interval=1, oracle_mode=mode == "oracle")
    raw["io"]["out_dir"] = str(tmp_path)
    cmd_train(validate_config(raw))

    lines = (tmp_path / "metrics.csv").read_text(encoding="utf-8").splitlines()[1:]
    rows = [[float(v) for v in line.split(",")[1:4]] for line in lines]
    params = load_checkpoint(tmp_path / "checkpoint.bin").params
    want_rows, want_sum, want_sq = EXPECTED[case]
    np.testing.assert_allclose(rows, want_rows, rtol=RTOL, atol=0)
    np.testing.assert_allclose([np.sum(params), params @ params],
                               [want_sum, want_sq], rtol=RTOL, atol=0)
