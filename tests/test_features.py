import numpy as np
import pytest

from convdeblur.features import DELTA, apply_filter, get_filter, make_log
from convdeblur.tensorops import conv2d_full


class TestDelta:
    def test_is_1x1_identity(self):
        assert DELTA.shape == (1, 1)
        x = np.arange(20.0).reshape(4, 5)
        out = apply_filter(DELTA, x)
        assert np.array_equal(out, x)
        assert out is not x  # must be a copy
        # other 1x1 taps scale the image, as a full convolution does
        assert np.array_equal(apply_filter(np.full((1, 1), 2.0), x), 2.0 * x)

    def test_get_filter(self):
        assert get_filter("delta") is DELTA


class TestLog:
    def test_zero_sum(self):
        for sigma in (0.5, 1.0, 2.0):
            f = make_log(sigma)
            assert abs(f.sum()) < 1e-14

    def test_grid_size(self):
        assert make_log(1.0).shape == (7, 7)
        assert make_log(2.0).shape == (13, 13)

    def test_symmetry(self):
        taps = make_log(1.0)
        assert np.allclose(taps, taps[::-1, :])
        assert np.allclose(taps, taps[:, ::-1])
        assert np.allclose(taps, taps.T)

    def test_constant_image_maps_to_zero(self):
        f = make_log(1.0)
        out = apply_filter(f, np.full((10, 10), 0.7))
        # interior response is exactly zero (boundary rows see the pad)
        inner = out[6:-6, 6:-6]
        assert np.max(np.abs(inner)) < 1e-12

    def test_apply_is_full_convolution(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(size=(9, 8))
        f = make_log(1.0)
        assert np.allclose(apply_filter(f, img), conv2d_full(f, img))

    @pytest.mark.parametrize("shape", [(9, 9), (10, 10), (9, 16)])
    def test_fft_filter_matches_direct_convolution(self, shape):
        img = np.random.default_rng(1).uniform(size=shape)
        f = make_log(1.0)
        ref = conv2d_full(f, img)
        out = apply_filter(f, img)
        assert out.shape == ref.shape
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_center_is_negative_peak(self):
        taps = make_log(1.0)
        r = taps.shape[0] // 2
        assert taps[r, r] == taps.min()

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            make_log(0.0)
        for sigma in (np.nan, np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                make_log(sigma)

    def test_unknown_names(self):
        with pytest.raises(ValueError):
            get_filter("sobel")
