"""Degradation operators, mask sampling, and the measurement model."""

import numpy as np
import pytest

from specdiff.operators import (
    DegradationFamily,
    FixedMask,
    IdentityTransform,
    LineSubsampleMasks,
    MatrixTransform,
    Measurement,
    PatchDropMasks,
    RealDFTTransform,
    SingleDropMasks,
    SpectralDegradation,
    corrupt,
    corrupt_batch,
    transform_from_descriptor,
)


def random_orthogonal(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


class TestOrthoTransforms:
    @pytest.mark.parametrize("make", [
        lambda rng: IdentityTransform(8),
        lambda rng: MatrixTransform(random_orthogonal(8, rng)),
        lambda rng: RealDFTTransform(4),
    ])
    def test_roundtrip_and_isometry(self, make):
        rng = np.random.default_rng(0)
        tr = make(rng)
        x = rng.standard_normal(tr.n)
        back = tr.apply_inverse(tr.apply(x))
        np.testing.assert_allclose(back, x, rtol=0, atol=1e-10)
        assert abs(np.linalg.norm(tr.apply(x)) - np.linalg.norm(x)) < 1e-10

    def test_transforms_act_on_rows(self):
        tr = RealDFTTransform(8)
        rng = np.random.default_rng(1)
        xs = rng.standard_normal((5, tr.n))
        batched = tr.apply(xs)
        for i in range(5):
            np.testing.assert_allclose(batched[i], tr.apply(xs[i]), atol=1e-12)

    def test_real_dft_matches_complex_fft(self):
        lines = 8
        tr = RealDFTTransform(lines)
        rng = np.random.default_rng(2)
        re = rng.standard_normal(lines)
        im = rng.standard_normal(lines)
        out = tr.apply(np.concatenate([re, im]))
        spec = np.fft.fft(re + 1j * im) / np.sqrt(lines)
        centered = np.fft.fftshift(spec)
        np.testing.assert_allclose(out[:lines], centered.real, atol=1e-10)
        np.testing.assert_allclose(out[lines:], centered.imag, atol=1e-10)

    def test_non_orthogonal_matrix_rejected(self):
        with pytest.raises(ValueError):
            MatrixTransform(np.array([[1.0, 0.1], [0.0, 1.0]]))

    @pytest.mark.parametrize("tr", [IdentityTransform(6), RealDFTTransform(5)],
                             ids=["identity", "real_dft"])
    def test_descriptor_rebuilds_the_transform(self, tr):
        back = transform_from_descriptor(tr.descriptor())
        assert type(back) is type(tr) and back.descriptor() == tr.descriptor()
        x = np.random.default_rng(3).standard_normal((2, tr.n))
        np.testing.assert_array_equal(back.apply(x), tr.apply(x))

    @pytest.mark.parametrize("desc", [
        {"kind": "matrix", "digest": "0" * 16},  # a digest cannot be inverted
        {"kind": "permutation", "perm": [1, 0]},
    ], ids=["matrix", "permutation"])
    def test_descriptor_without_a_rebuild_rejected(self, desc):
        with pytest.raises(ValueError, match="cannot be rebuilt"):
            transform_from_descriptor(desc)


class TestPatchMasks:
    def test_p_zero_keeps_everything(self):
        assert PatchDropMasks(8, 8, 4, 0.0).sample(np.random.default_rng(0)).all()

    def test_p_one_rejected(self):
        with pytest.raises(ValueError, match="0 <= p < 1"):
            PatchDropMasks(8, 8, 4, 1.0)

    def test_patch_must_tile(self):
        with pytest.raises(ValueError, match="does not tile"):
            PatchDropMasks(10, 8, 4, 0.2)

    def test_equals_np_repeat_upsampling(self):
        dist = PatchDropMasks(8, 12, 4, 0.5)
        keep = np.random.default_rng(4).random((2, 3)) >= 0.5
        want = np.repeat(np.repeat(keep, 4, axis=0), 4, axis=1).reshape(-1)
        assert dist.sample(np.random.default_rng(4)).tobytes() == want.tobytes()

    def test_masks_are_patch_constant(self):
        rng = np.random.default_rng(3)
        m = PatchDropMasks(16, 16, 4, 0.5).sample(rng).reshape(16, 16)
        for bi in range(4):
            for bj in range(4):
                block = m[4 * bi:4 * bi + 4, 4 * bj:4 * bj + 4]
                assert block.all() or not block.any()

    def test_keep_frequency_matches_probability(self):
        # per-pixel keep frequency 0.8 within 3 sigma binomial over many draws;
        # the all-pixels check uses a union bound over the 64 independent patches
        p, draws = 0.2, 10_000
        rng = np.random.default_rng(4)
        dist = PatchDropMasks(32, 32, 4, p)
        counts = np.zeros(dist.n)
        for _ in range(draws):
            counts += dist.sample(rng)
        freq = counts / draws
        se = np.sqrt(p * (1 - p) / draws)
        assert abs(freq[0] - 0.8) <= 3 * se
        assert np.all(np.abs(freq - 0.8) <= 4.5 * se)
        assert abs(freq.mean() - 0.8) <= 3 * se / np.sqrt(64)

    @pytest.mark.parametrize("dist", [PatchDropMasks(1, 2, 1, 0.5),
                                      PatchDropMasks(6, 4, 1, 0.3),
                                      PatchDropMasks(16, 16, 4, 0.2)])
    def test_sample_equals_the_repeat_form(self, dist):
        # patch 1 skips the repeats; the booleans are the same
        for seed in range(20):
            keep = np.random.default_rng(seed).random(
                (dist.height // dist.patch, dist.width // dist.patch)) >= dist.p
            expected = np.repeat(np.repeat(keep, dist.patch, axis=0), dist.patch,
                                 axis=1).reshape(-1)
            got = dist.sample(np.random.default_rng(seed))
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    def test_same_seed_reproducible(self):
        dist = PatchDropMasks(16, 16, 4, 0.3)
        m1 = dist.sample(np.random.default_rng(77))
        m2 = dist.sample(np.random.default_rng(77))
        assert np.array_equal(m1, m2)


class TestLineMasks:
    """A paired mask's first half is the line mask; its second repeats it."""

    def test_full_scale_counts(self):
        m = LineSubsampleMasks(lines=320, accel=4).sample(np.random.default_rng(0))[:320]
        assert m.sum() == 80
        assert m[145:175].all()  # central 30 lines always present

    def test_noncentral_keep_probability(self):
        rng = np.random.default_rng(1)
        n, r, draws = 320, 4, 4000
        dist = LineSubsampleMasks(lines=n, accel=r)
        counts = np.zeros(n)
        for _ in range(draws):
            counts += dist.sample(rng)[:n]
        freq = counts / draws
        central = slice(145, 175)
        assert np.all(freq[central] == 1.0)
        rest = np.ones(n, dtype=bool)
        rest[central] = False
        p = 200.0 / (320 * 4 - 120)
        se = np.sqrt(p * (1 - p) / draws)
        # union bound over the 290 non-central lines
        assert np.all(np.abs(freq[rest] - p) <= 5 * se)
        assert abs(freq[rest][0] - p) <= 3 * se
        # exactly 50 extra lines per draw, so the pooled mean is exact
        assert freq[rest].mean() == pytest.approx(p, abs=1e-12)

    def test_r_one_keeps_all(self):
        assert LineSubsampleMasks(lines=320, accel=1).sample(np.random.default_rng(0)).all()

    def test_infeasible_acceleration_rejected(self):
        with pytest.raises(ValueError, match="acceleration 32"):
            LineSubsampleMasks(lines=16, accel=32)

    def test_paired_mask_duplicates_lines(self):
        dist = LineSubsampleMasks(lines=16, accel=2)
        m = dist.sample(np.random.default_rng(5))
        assert m.shape == (32,) == (dist.n,)
        assert np.array_equal(m[:16], m[16:])


class TestExpectedProjectionAndWeights:
    def test_patch_drop_analytic(self):
        np.testing.assert_allclose(PatchDropMasks(8, 8, 4, 0.2).keep_probabilities(), 0.8)

    def test_line_subsample_analytic(self):
        ep = LineSubsampleMasks(lines=320, accel=4).keep_probabilities()
        np.testing.assert_array_equal(ep[:320], ep[320:])
        np.testing.assert_allclose(ep[145:175], 1.0)
        rest = np.ones(320, dtype=bool)
        rest[145:175] = False
        np.testing.assert_allclose(ep[:320][rest], 200.0 / 1160.0)

    def test_line_subsample_empirical(self):
        dist = LineSubsampleMasks(lines=32, accel=4)
        ep = dist.keep_probabilities()
        rng = np.random.default_rng(8)
        draws = 4000
        freq = sum(dist.sample(rng) for _ in range(draws)) / draws
        se = np.sqrt(ep * (1 - ep) / draws)
        assert np.all(np.abs(freq - ep) <= 4 * se + 1e-12)

    def test_fixed_full_mask(self):
        fam = DegradationFamily(IdentityTransform(5), FixedMask(np.ones(5, dtype=bool)), 0.0)
        np.testing.assert_array_equal(fam.masks.keep_probabilities(), 1.0)
        np.testing.assert_array_equal(fam.weights(), 1.0)

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError, match="E\\[P\\] has a zero entry"):
            DegradationFamily(IdentityTransform(3), FixedMask(np.array([True, False, True])),
                              0.0)

    def test_weight_values(self):
        # acquisition at acceleration 4: central lines weight 1, others sqrt(5.8)
        fam = DegradationFamily(IdentityTransform(640), LineSubsampleMasks(320, 4), 0.0)
        w = fam.weights()
        np.testing.assert_array_equal(w[:320], w[320:])
        np.testing.assert_allclose(w[145:175], 1.0)
        rest = np.ones(320, dtype=bool)
        rest[145:175] = False
        np.testing.assert_allclose(w[:320][rest], np.sqrt(5.8))

    @pytest.mark.parametrize("masks", [PatchDropMasks(8, 8, 2, 0.35),
                                       LineSubsampleMasks(lines=32, accel=3),
                                       SingleDropMasks(7)],
                             ids=["patch", "line", "single"])
    def test_weight_squared_times_ep_is_identity(self, masks):
        fam = DegradationFamily(IdentityTransform(masks.n), masks, 0.0)
        w = fam.weights()
        np.testing.assert_allclose(w * w * masks.keep_probabilities(), 1.0,
                                   rtol=0, atol=1e-12)


class TestCorrupt:
    def test_noiseless_full_mask_identity(self):
        deg = SpectralDegradation(IdentityTransform(6), np.ones(6), 0.0)
        x = np.arange(6.0)
        m = corrupt(x, deg, np.random.default_rng(0))
        np.testing.assert_array_equal(m.ybar, x)

    def test_masked_entries_exactly_zero(self):
        s = np.array([1.0, 0.0, 1.0, 0.0])
        deg = SpectralDegradation(IdentityTransform(4), s, 0.5)
        m = corrupt(np.ones(4), deg, np.random.default_rng(1))
        assert m.ybar[1] == 0.0 and m.ybar[3] == 0.0
        assert m.noise_var[1] == 0.0 and m.noise_var[3] == 0.0

    def test_noise_variance_monte_carlo(self):
        # kept-entry variance of (ybar - xbar) matches sigma0^2/s^2 at 3 SE
        sigma0, draws = 0.01, 100_000
        deg = SpectralDegradation(IdentityTransform(4), np.ones(4), sigma0)
        x = np.array([0.3, -0.1, 2.0, 0.7])
        rng = np.random.default_rng(2)
        ybar = corrupt_batch(np.tile(x, (draws, 1)), deg, rng)
        resid = ybar - x
        var = resid.var(axis=0)
        se = sigma0 ** 2 * np.sqrt(2.0 / draws)
        assert np.all(np.abs(var - sigma0 ** 2) <= 3 * se)

    def test_scaled_singulars_noise(self):
        s = np.array([2.0, 0.5])
        deg = SpectralDegradation(IdentityTransform(2), s, 0.1)
        np.testing.assert_allclose(deg.noise_var, [0.0025, 0.04])

    def test_projection_algebra(self):
        rng = np.random.default_rng(3)
        dist = PatchDropMasks(8, 8, 4, 0.4)
        for _ in range(10):
            p = dist.sample(rng).astype(float)
            np.testing.assert_array_equal(p * p, p)  # P^2 = P = P^T = pinv(P)

    def test_svd_consistency_with_explicit_operator(self):
        # y = U S V^T x + z then pinv(S) U^T y agrees with corrupt() in moments
        rng = np.random.default_rng(4)
        n, draws = 6, 10_000
        u = random_orthogonal(n, rng)
        v = random_orthogonal(n, rng)
        s = np.array([1.0, 0.0, 2.0, 1.0, 0.0, 0.5])
        sigma0 = 0.05
        x = rng.standard_normal(n)

        h = u @ np.diag(s) @ v.T
        pinv_s = np.where(s > 0, 1.0 / np.where(s > 0, s, 1.0), 0.0)
        z = sigma0 * rng.standard_normal((draws, n))
        ybar_ref = (x @ h.T + z) @ u * pinv_s  # rows: pinv(S) U^T (Hx + z)

        deg = SpectralDegradation(MatrixTransform(v.T), s, sigma0)
        ybar = corrupt_batch(np.tile(x, (draws, 1)), deg, np.random.default_rng(5))

        kept = s > 0
        se_mean = np.sqrt(deg.noise_var[kept] / draws)
        assert np.all(np.abs(ybar_ref.mean(0)[kept] - ybar.mean(0)[kept]) <= 6 * se_mean)
        se_var = deg.noise_var[kept] * np.sqrt(2.0 / draws)
        assert np.all(np.abs(ybar_ref.var(0)[kept] - ybar.var(0)[kept]) <= 6 * se_var)
        assert np.all(ybar_ref[:, ~kept] == 0.0) and np.all(ybar[:, ~kept] == 0.0)

    def test_measurement_invariant_enforced(self):
        with pytest.raises(ValueError):
            Measurement(ybar=np.array([1.0, 0.5]), mask=np.array([True, False]),
                        noise_var=np.zeros(2))


class TestDegradationFamily:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DegradationFamily(IdentityTransform(10), PatchDropMasks(4, 4, 2, 0.2), 0.01)

    def test_sample_produces_binary_singulars(self):
        fam = DegradationFamily(IdentityTransform(16), PatchDropMasks(4, 4, 2, 0.5),
                                0.01)
        deg = fam.sample(np.random.default_rng(0))
        assert set(np.unique(deg.singulars)) == {0.0, 1.0}
        assert deg.noise_var.max() == 0.01 ** 2

    def test_weights_shape(self):
        fam = DegradationFamily(IdentityTransform(16), PatchDropMasks(4, 4, 2, 0.2), 0.0)
        np.testing.assert_allclose(fam.weights(), 0.8 ** -0.5)
