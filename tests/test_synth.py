import numpy as np
import pytest

from convdeblur.features import apply_filter, make_log
from convdeblur.synth import (IMAGE_KINDS, KERNEL_FAMILIES, align_kernels,
                              kernel_error, make_kernel, make_test_image,
                              synth_blur)
from convdeblur.tensorops import conv2d_full, validate_kernel


class TestMakeKernel:
    @pytest.mark.parametrize("family", KERNEL_FAMILIES)
    def test_on_simplex(self, family):
        k = make_kernel(family, 7, seed=3)
        validate_kernel(k)

    def test_gaussian_impulse_limit(self):
        k = make_kernel("gaussian", 5, {"sigma": 0.0})
        assert k[2, 2] == 1.0
        assert k.sum() == 1.0

    def test_motion_line_horizontal(self):
        k = make_kernel("motion-line", 5, {"angle": 0.0, "length": 4})
        # four unit-spaced points in the middle row, equal weights
        assert np.allclose(k[2, :].sum(), 1.0)
        assert np.allclose(k[[0, 1, 3, 4], :], 0.0)

    def test_seed_reproducible(self):
        a = make_kernel("curve", 9, seed=42)
        b = make_kernel("curve", 9, seed=42)
        assert np.array_equal(a, b)
        c = make_kernel("curve", 9, seed=43)
        assert not np.array_equal(a, c)

    def test_unknown_family_and_params(self):
        with pytest.raises(ValueError):
            make_kernel("disk", 5)
        with pytest.raises(ValueError):
            make_kernel("gaussian", 5, {"sigmaa": 1.0})
        with pytest.raises(ValueError):
            make_kernel("gaussian", 0)

    @pytest.mark.parametrize("family, key", [("gaussian", "sigma"),
                                             ("motion-line", "angle")])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_params_rejected(self, family, key, bad):
        # a NaN sigma gave an all-NaN kernel, an infinite angle a NaN
        # position that failed to convert to a pixel index
        with pytest.raises(ValueError, match=f"{key} must be .*finite"):
            make_kernel(family, 5, {key: bad})

    @pytest.mark.parametrize("family, key", [("motion-line", "length"),
                                             ("random-sparse", "count"),
                                             ("curve", "steps")])
    def test_counts_must_be_integers(self, family, key):
        # 7.9 would otherwise truncate to the 7 of another kernel
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            make_kernel(family, 9, {key: 7.9})
        with pytest.raises(ValueError, match=key):
            make_kernel(family, 9, {key: float("inf")})
        assert np.array_equal(make_kernel(family, 9, {key: 7.0}, seed=2),
                              make_kernel(family, 9, {key: 7}, seed=2))


class TestMakeTestImage:
    @pytest.mark.parametrize("kind", IMAGE_KINDS)
    def test_range_and_shape(self, kind):
        img = make_test_image(kind, 40, seed=1)
        assert img.shape == (40, 40)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_reproducible(self):
        assert np.array_equal(make_test_image("polygons", 32, seed=9),
                              make_test_image("polygons", 32, seed=9))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_test_image("photo", 32)


class TestSynthBlur:
    def test_noiseless_is_exact_convolution(self):
        img = make_test_image("step", 24)
        k = make_kernel("gaussian", 5, {"sigma": 1.0})
        b, noise = synth_blur(img, k)
        assert np.array_equal(b, conv2d_full(img, k))
        assert not noise.any()

    def test_noise_norm_is_exact(self):
        img = make_test_image("polygons", 24, seed=2)
        k = make_kernel("gaussian", 5, {"sigma": 1.0})
        f = make_log(1.0)
        for eps in (0.01, 0.5):
            _, noise = synth_blur(img, k, eps=eps, seed=4, f=f)
            assert np.isclose(np.linalg.norm(apply_filter(f, noise)), eps,
                              rtol=1e-12)

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            synth_blur(np.ones((4, 4)), np.ones((1, 1)), eps=-1.0)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="eps must be nonnegative and"):
            synth_blur(np.ones((4, 4)), np.ones((1, 1)), eps=eps)


class TestAlignment:
    def test_identical_kernels_zero_error(self):
        k = make_kernel("curve", 7, seed=0)
        assert kernel_error(k, k) == 0.0

    def test_shifted_kernel_realigned(self):
        k = np.zeros((5, 5))
        k[1, 1] = 0.6
        k[1, 2] = 0.4
        shifted = np.roll(k, (1, 1), axis=(0, 1))
        assert kernel_error(shifted, k) < 1e-12

    def test_different_sizes_padded(self):
        k_small = make_kernel("gaussian", 5, {"sigma": 1.0})
        k_big = np.pad(k_small, 2)
        assert kernel_error(k_small, k_big) < 1e-12

    def test_align_returns_common_shape(self):
        a, b = align_kernels(np.ones((3, 3)) / 9, np.ones((5, 5)) / 25)
        assert a.shape == b.shape == (5, 5)
