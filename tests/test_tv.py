import numpy as np
import pytest

from convdeblur.metrics import psnr
from convdeblur.synth import make_kernel, make_test_image
from convdeblur.tensorops import conv2d_full
from convdeblur.tv import (TvSolverConfig, soft_threshold, total_variation,
                           tv_deconv)


class TestHelpers:
    def test_soft_threshold(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        assert np.allclose(soft_threshold(x, 1.0), [-1.0, 0.0, 0.0, 0.0, 1.0])

    def test_total_variation_constant_zero(self):
        assert total_variation(np.full((6, 6), 0.3)) == 0.0

    def test_total_variation_known(self):
        img = np.zeros((4, 4))
        img[:, 2:] = 1.0
        # periodic differences: each row crosses the step twice
        assert total_variation(img) == 8.0

    def test_blur_never_increases_tv(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            img = rng.uniform(size=(12, 12))
            k = make_kernel("gaussian", 3, {"sigma": 0.8})
            b = conv2d_full(img, k)
            padded = np.zeros_like(b)
            padded[:12, :12] = img
            assert total_variation(b) <= total_variation(padded) + 1e-9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TvSolverConfig(lam=-1.0)
        with pytest.raises(ValueError):
            TvSolverConfig(max_inner=0)


class TestTvDeconv:
    def test_exact_inverse_without_tv(self):
        # lam=0 and a full-convolution observation: restoration is exact
        img = make_test_image("polygons", 32, seed=1)
        k = make_kernel("gaussian", 5, {"sigma": 1.2})
        b = conv2d_full(img, k)
        res = tv_deconv(b, k, TvSolverConfig(lam=0.0, max_inner=50))
        assert res.image.shape == img.shape
        assert np.max(np.abs(res.image - img)) < 1e-8

    def test_impulse_kernel_identity(self):
        img = make_test_image("bars", 24, seed=0)
        res = tv_deconv(img, np.ones((1, 1)), TvSolverConfig(lam=0.0))
        assert np.allclose(res.image, img, atol=1e-10)

    def test_improves_psnr_on_strong_blur(self):
        img = make_test_image("polygons", 48, seed=5)
        k = make_kernel("curve", 9, {}, seed=2)
        b = conv2d_full(img, k)
        res = tv_deconv(b, k, TvSolverConfig(lam=0.0015, max_inner=400))
        blurry_crop = b[4:52, 4:52]
        assert psnr(res.image, img) > psnr(blurry_crop, img) + 3.0

    def test_cropped_observation_mode(self):
        img = make_test_image("polygons", 48, seed=3)
        k = make_kernel("gaussian", 5, {"sigma": 1.2})
        b = conv2d_full(img, k)[2:50, 2:50]
        res = tv_deconv(b, k, TvSolverConfig(lam=0.0015, max_inner=300),
                        assume_full=False)
        assert res.image.shape == b.shape
        assert psnr(res.image, img) > psnr(b, img)

    def test_warm_start_no_worse(self):
        img = make_test_image("polygons", 32, seed=4)
        k = make_kernel("gaussian", 5, {"sigma": 1.0})
        b = conv2d_full(img, k)
        cfg = TvSolverConfig(lam=0.0015, max_inner=800, tol=1e-4)
        cold = tv_deconv(b, k, cfg)
        warm = tv_deconv(b, k, cfg, x0=cold.image)
        assert warm.converged

        def objective(x):
            resid = b - conv2d_full(x, k)
            return float(np.sum(resid * resid)) + cfg.lam * total_variation(x)

        assert objective(warm.image) <= objective(cold.image) * 1.001

    @pytest.mark.parametrize("assume_full", [True, False],
                             ids=["full", "cropped"])
    def test_state_resumes_iteration(self, assume_full):
        # ten iterations, then ten more from the returned state, are the
        # same iterate as twenty in one call, for both data models
        img = make_test_image("polygons", 32, seed=4)
        k = make_kernel("gaussian", 5, {"sigma": 1.0})
        b = conv2d_full(img, k)
        if not assume_full:
            b = b[2:34, 2:34]
        cfg = TvSolverConfig(lam=0.0015, max_inner=10, tol=0.0)
        first = tv_deconv(b, k, cfg, assume_full=assume_full)
        resumed = tv_deconv(b, k, cfg, assume_full=assume_full,
                            state=first.state)
        whole = tv_deconv(b, k, TvSolverConfig(lam=0.0015, max_inner=20,
                                               tol=0.0),
                          assume_full=assume_full)
        assert np.array_equal(resumed.image, whole.image)
        # one warm start at a time, and a state of the problem's own size
        with pytest.raises(ValueError):
            tv_deconv(b, k, cfg, assume_full=assume_full, x0=first.image,
                      state=first.state)
        with pytest.raises(ValueError):
            tv_deconv(b[2:-2, 2:-2], k, cfg, assume_full=assume_full,
                      state=first.state)

    def test_nonconverged_flagged(self):
        img = make_test_image("polygons", 32, seed=6)
        k = make_kernel("curve", 7, {}, seed=1)
        b = conv2d_full(img, k)
        res = tv_deconv(b, k, TvSolverConfig(lam=0.0015, max_inner=8,
                                             tol=1e-12))
        assert not res.converged
        assert res.iterations == 8

    def test_observation_smaller_than_kernel(self):
        with pytest.raises(ValueError):
            tv_deconv(np.ones((3, 3)), np.full((5, 5), 1.0 / 25.0))
