"""Evaluation battery: sweeps, independence demo, distances."""

import tracemalloc

import numpy as np
import pytest

from specdiff import evaluation
from specdiff.diffusion import DiffusionSchedule, InfeasibleTimestepError
from specdiff.evaluation import (
    GaussianPosteriorDenoiser,
    TwoDeltasPosteriorDenoiser,
    _row_quantiles,
    denoising_mse_sweep,
    distribution_distance,
    energy_distance,
    energy_permutation_test,
    generalization_psnr,
    independence_demo,
    uncertainty_map,
)
from specdiff.operators import IdentityTransform, Measurement

from fixtures import ConstantModel
from helpers import (
    dense_energy_distance,
    dense_energy_permutation_test,
    per_projection_sliced_wasserstein,
)


class PerfectModel:
    """Returns the stored clean rows regardless of input."""

    def __init__(self, clean):
        self.clean = np.atleast_2d(np.asarray(clean, dtype=np.float64))

    def denoise(self, xbar_t, t, schedule, ema=True):
        return self.clean.copy()


@pytest.fixture(scope="module")
def schedule():
    return DiffusionSchedule(100, 1e-4, 0.2)


class TestSweeps:
    def test_perfect_model_zero_mse(self, schedule):
        rng = np.random.default_rng(0)
        clean = rng.standard_normal((16, 4))
        res = denoising_mse_sweep(PerfectModel(clean), ConstantModel(np.zeros(4)),
                                  clean, schedule, [1, 50, 100], rng)
        for t, mse_a, mse_b in res.rows:
            assert mse_a == 0.0
            assert mse_b == pytest.approx(np.mean(clean ** 2), rel=0.3)

    def test_rows_sorted_by_t(self, schedule):
        rng = np.random.default_rng(1)
        clean = rng.standard_normal((4, 3))
        res = denoising_mse_sweep(ConstantModel(np.zeros(3)),
                                  ConstantModel(np.zeros(3)),
                                  clean, schedule, [70, 10, 40], rng)
        assert [r[0] for r in res.rows] == [10, 40, 70]

    def test_psnr_identical_models_is_inf(self, schedule):
        rng = np.random.default_rng(2)
        clean = rng.standard_normal((8, 3))
        model = GaussianPosteriorDenoiser()
        rows = generalization_psnr(model, model, clean, schedule, [5, 50], rng)
        assert all(np.isinf(p) for _, p in rows)

    def test_psnr_constant_offset_closed_form(self, schedule):
        rng = np.random.default_rng(3)
        clean = rng.standard_normal((8, 3))
        delta = 0.05
        a = ConstantModel(np.zeros(3))
        b = ConstantModel(np.full(3, delta))
        rows = generalization_psnr(a, b, clean, schedule, [10], rng, peak=1.0)
        assert rows[0][1] == pytest.approx(20 * np.log10(1.0 / delta), rel=1e-10)


class TestPosteriorDenoisers:
    @pytest.mark.parametrize("denoiser", [GaussianPosteriorDenoiser(),
                                          TwoDeltasPosteriorDenoiser()],
                             ids=["gaussian", "two-deltas"])
    @pytest.mark.parametrize("shape", [(2,), (1, 2), (3, 2)])
    def test_estimate_keeps_input_rank(self, denoiser, shape):
        u = np.arange(1, 1 + np.prod(shape), dtype=np.float64).reshape(shape) / 10
        out = denoiser.estimate(u, 0.6)
        assert out.shape == shape
        np.testing.assert_array_equal(out.reshape(-1, 2)[0],
                                      denoiser.estimate(u.reshape(-1, 2)[0], 0.6))

    def test_two_deltas_posterior_mean(self):
        u, abar = np.array([[0.3, -0.1]]), 0.6
        m = np.tanh(np.sqrt(abar) * (0.3 - 0.1) / (1 - abar))
        np.testing.assert_array_equal(TwoDeltasPosteriorDenoiser().estimate(u, abar),
                                      [[m, m]])


class TestEnergyDistance:
    def test_zero_on_identical_inputs(self):
        x = np.random.default_rng(4).standard_normal((64, 2))
        assert energy_distance(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((50, 2))
        y = rng.standard_normal((70, 2)) + 0.5
        assert energy_distance(x, y) == pytest.approx(energy_distance(y, x))

    def test_positive_for_shifted_clouds(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((400, 2))
        y = rng.standard_normal((400, 2)) + np.array([2.0, 0.0])
        assert energy_distance(x, y) > 0.5

    def test_permutation_test_separates(self):
        rng = np.random.default_rng(7)
        same = energy_permutation_test(rng.standard_normal((500, 2)),
                                       rng.standard_normal((500, 2)), 100, rng)
        shifted = energy_permutation_test(rng.standard_normal((500, 2)),
                                          rng.standard_normal((500, 2)) + 1.0,
                                          100, rng)
        assert abs(same["z"]) < 3
        assert shifted["z"] > 10


def cloud_pair(n, m, d, seed, duplicates=False):
    """Two point clouds whose law differs; with ``duplicates`` the points
    sit on a small integer grid, so many rows (and pooled pairs) repeat."""
    rng = np.random.default_rng(seed)
    if duplicates:
        return (rng.integers(0, 3, (n, d)).astype(np.float64),
                rng.integers(1, 4, (m, d)).astype(np.float64))
    return rng.standard_normal((n, d)), 1.3 * rng.standard_normal((m, d)) + 0.2


# n + m below the shipped tile width of 2^17 // label columns, so tiles hold
# 2^17 // (n + m) rows: several row tiles with a ragged last one, or one tile;
# then n + m ragged against the small tile budgets below, and below one tile
CLOUD_CASES = [(300, 517, 1), (257, 256, 2), (600, 333, 5), (1, 3, 2),
               (30, 41, 1), (23, 19, 5), (1, 2, 2)]


# the shipped tile budget, then small ones: energy_distance's 2 label columns
# make 2 x 63 and 2 x 40 tiles, and a 40-shuffle test's 42 make 42 x 3 tiles,
# whose diagonal square spans 14 column tiles, and 80 x 1 tiles
@pytest.fixture(params=[evaluation._TILE_ELEMENTS, 126, 80],
                ids=lambda elements: f"tile{elements}")
def tile_budget(request, monkeypatch):
    monkeypatch.setattr(evaluation, "_TILE_ELEMENTS", request.param)


class TestEnergyKernelMatchesDenseReference:
    @pytest.mark.parametrize("duplicates", [False, True], ids=["distinct", "dup"])
    @pytest.mark.parametrize("n,m,d", CLOUD_CASES)
    def test_energy_distance(self, tile_budget, n, m, d, duplicates):
        x, y = cloud_pair(n, m, d, n + m + d, duplicates)
        np.testing.assert_allclose(energy_distance(x, y),
                                   dense_energy_distance(x, y), rtol=1e-9)

    @pytest.mark.parametrize("duplicates", [False, True], ids=["distinct", "dup"])
    @pytest.mark.parametrize("n,m,d", CLOUD_CASES)
    def test_permutation_test_and_draws(self, tile_budget, n, m, d, duplicates):
        x, y = cloud_pair(n, m, d, n + m + d, duplicates)
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        got = energy_permutation_test(x, y, 40, rng)
        want = dense_energy_permutation_test(x, y, 40, ref_rng)
        for key in want:
            np.testing.assert_allclose(got[key], want[key], rtol=1e-9, err_msg=key)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_subsampling_and_more_shuffles_than_one_pass(self):
        # x and y both above max_points, then 300 shuffles: two label passes
        x, y = cloud_pair(700, 450, 2, 21)
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        got = energy_permutation_test(x, y, 300, rng, max_points=120)
        want = dense_energy_permutation_test(x, y, 300, ref_rng, max_points=120)
        for key in want:
            np.testing.assert_allclose(got[key], want[key], rtol=1e-9, err_msg=key)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("n_permutations", [0, 1])
    def test_fewer_than_two_permutations_rejected(self, n_permutations):
        # one shuffle has no sample spread: its null_sd would be NaN
        x, y = cloud_pair(5, 6, 2, 23)
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="at least 2 permutations"):
            energy_permutation_test(x, y, n_permutations, rng)
        assert rng.bit_generator.state == state

    def test_energy_distance_memory_is_two_tiles(self):
        # two 1 MB tiles plus N x 2 labels and products; one 256-row block
        # of the distance matrix alone is 20 MB at this size
        x, y = cloud_pair(5000, 5000, 2, 24)
        tracemalloc.start()
        try:
            energy_distance(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_peak_memory_bounded(self):
        # the dense (N, N, d) difference array plus the N x N distance matrix
        # took ~384 MB at this size; the tiled kernel stays well under
        x, y = cloud_pair(2000, 2000, 2, 22)
        tracemalloc.start()
        try:
            energy_permutation_test(x, y, 200, np.random.default_rng(5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20


class TestIndependenceDemo:
    def test_three_regimes(self):
        # snr = 4 keeps the two-deltas saturation flips frequent enough for a
        # well-behaved permutation null at this unit-test sample size
        low, high = 1e-3, 4.0
        gauss = independence_demo("isotropic-gaussian", GaussianPosteriorDenoiser(),
                                  [low, high], 2000, np.random.default_rng(8),
                                  n_permutations=60)
        assert abs(gauss[0].z) < 3      # low SNR: masking invisible
        assert gauss[1].z > 3           # high SNR: Gaussian errors follow the mask
        deltas = independence_demo("two-deltas", TwoDeltasPosteriorDenoiser(),
                                   [low, high], 2000, np.random.default_rng(9),
                                   n_permutations=60)
        assert abs(deltas[0].z) < 3
        assert abs(deltas[1].z) < 3     # two-point prior keeps errors mask-free

    @pytest.mark.parametrize("n_samples", [10_000, 600], ids=["subsampled", "whole"])
    @pytest.mark.parametrize("dist,model", [
        ("isotropic-gaussian", GaussianPosteriorDenoiser()),
        ("two-deltas", TwoDeltasPosteriorDenoiser()),
    ], ids=["gauss", "deltas"])
    def test_record_is_one_permutation_test(self, monkeypatch, dist, model, n_samples):
        # energy is the test's statistic on the subsample its null shuffles, so
        # z reads off the record; clouds within max_points are not subsampled
        clouds, test = [], evaluation.energy_permutation_test

        def recording_test(x, y, *args, **kwargs):
            clouds.append((x, y))
            return test(x, y, *args, **kwargs)

        monkeypatch.setattr(evaluation, "energy_permutation_test", recording_test)
        records = independence_demo(dist, model, [1e-3, 10.0], n_samples,
                                    np.random.default_rng(31), n_permutations=20)
        for r, (e0, e1) in zip(records, clouds, strict=True):
            assert r.z == (r.energy - r.null_mean) / r.null_sd
            if max(len(e0), len(e1)) <= 2000:
                # the statistic cancels mean distances, so its rounding scales
                # with the clouds' extent, not with the statistic
                extent = np.abs(np.concatenate([e0, e1])).max()
                np.testing.assert_allclose(r.energy, energy_distance(e0, e1),
                                           rtol=1e-12, atol=1e-12 * extent)
        assert (max(len(e0), len(e1)) > 2000) == (n_samples == 10_000)

    def test_infeasible_top_up_raises(self):
        # at snr 1000, abar * sigma0^2 ~ 1e-2 exceeds the marginal 1 - abar ~ 1e-3
        with pytest.raises(InfeasibleTimestepError):
            independence_demo("isotropic-gaussian", GaussianPosteriorDenoiser(),
                              [1000.0], 50, np.random.default_rng(0), sigma0=0.1)

    def test_requires_known_distribution(self):
        with pytest.raises(ValueError):
            independence_demo("cauchy", GaussianPosteriorDenoiser(), [1.0], 10,
                              np.random.default_rng(0))


class TestUncertaintyMap:
    def test_deterministic_sampler_zero_spread(self, schedule):
        n = 4
        m = Measurement(ybar=np.array([0.5, 0.0, -0.2, 0.1]),
                        mask=np.ones(n, dtype=bool), noise_var=np.zeros(n))
        from specdiff.diffusion import reconstruct

        model = GaussianPosteriorDenoiser()
        mean, std = uncertainty_map(model, schedule, m, k=8,
                                    rng=np.random.default_rng(12),
                                    vt=IdentityTransform(n), steps=10, eta=0.0)
        # every coordinate is kept without noise, so each run ends on the
        # measurement whatever its seed; replicate runs are bit-identical, and
        # the reported spread is zero up to the rounding of the reduction
        a = reconstruct(model, schedule, m, 10, np.random.default_rng(7),
                        IdentityTransform(n), eta=0.0)
        b = reconstruct(model, schedule, m, 10, np.random.default_rng(7),
                        IdentityTransform(n), eta=0.0)
        np.testing.assert_array_equal(a, b)
        assert std.max() <= 1e-15

    def test_stochastic_spread_positive(self, schedule):
        n = 4
        m = Measurement(ybar=np.array([0.5, 0.0, 0.0, 0.1]),
                        mask=np.array([True, False, False, True]),
                        noise_var=np.zeros(n))
        model = GaussianPosteriorDenoiser()
        mean, std = uncertainty_map(model, schedule, m, k=4,
                                    rng=np.random.default_rng(13),
                                    vt=IdentityTransform(n), steps=10, eta=0.9)
        assert std[~m.mask].max() > 0  # unobserved coordinates vary across runs

    def test_needs_two_runs(self, schedule):
        m = Measurement(ybar=np.zeros(2), mask=np.ones(2, dtype=bool),
                        noise_var=np.zeros(2))
        with pytest.raises(ValueError):
            uncertainty_map(GaussianPosteriorDenoiser(), schedule, m, k=1,
                            rng=np.random.default_rng(0), vt=IdentityTransform(2))


class TestDistributionDistance:
    def test_identical_sets_zero(self):
        x = np.random.default_rng(14).standard_normal((256, 3))
        res = distribution_distance(x, x, 64, np.random.default_rng(15))
        assert res.sliced_wasserstein == pytest.approx(0.0, abs=1e-12)
        assert res.mean_gap == 0.0 and res.cov_gap == 0.0

    def test_shifted_gaussians_recover_shift_norm(self):
        rng = np.random.default_rng(16)
        delta = np.array([1.0, 0.0])
        a = rng.standard_normal((4096, 2))
        b = rng.standard_normal((4096, 2)) + delta
        res = distribution_distance(a, b, 512, np.random.default_rng(17))
        assert abs(res.sliced_wasserstein - 1.0) <= 0.1
        assert res.mean_gap == pytest.approx(1.0, abs=0.1)

    def test_symmetry(self):
        rng = np.random.default_rng(18)
        a = rng.standard_normal((100, 2))
        b = 2 * rng.standard_normal((80, 2))
        r1 = distribution_distance(a, b, 128, np.random.default_rng(19))
        r2 = distribution_distance(b, a, 128, np.random.default_rng(19))
        assert r1.sliced_wasserstein == pytest.approx(r2.sliced_wasserstein, rel=1e-12)

    @pytest.mark.parametrize("na,nb,d", [(4096, 4096, 2), (1000, 1000, 3),
                                         (37, 37, 2), (1000, 37, 4), (2, 5, 1)])
    def test_bit_equal_to_per_projection_quantiles(self, na, nb, d):
        rng = np.random.default_rng(na + nb + d)
        a = rng.standard_normal((na, d))
        b = 2 * rng.standard_normal((nb, d)) + 0.3
        got = distribution_distance(a, b, 16, np.random.default_rng(20))
        want = per_projection_sliced_wasserstein(a, b, 16, np.random.default_rng(20))
        assert got.sliced_wasserstein == want

    @pytest.mark.parametrize("n,size", [(4096, 4096), (1000, 1000), (37, 37),
                                        (37, 1000), (1, 5)])
    def test_row_quantiles_bit_equal_to_np_quantile(self, n, size):
        rows = np.sort(np.random.default_rng(n).standard_normal((3, n)), axis=1)
        qs = (np.arange(size) + 0.5) / size
        np.testing.assert_array_equal(_row_quantiles(rows, qs),
                                      np.quantile(rows, qs, axis=1).T)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("na, nb", [(1, 4), (4, 1)])
    def test_one_row_rejected(self, na, nb):
        # np.cov of one row warns and gives nan
        with pytest.raises(ValueError, match="at least 2 rows"):
            distribution_distance(np.ones((na, 2)), np.ones((nb, 2)), 8,
                                  np.random.default_rng(0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            distribution_distance(np.zeros((0, 2)), np.zeros((4, 2)), 8,
                                  np.random.default_rng(0))
