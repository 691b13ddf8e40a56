import math

import numpy as np
import pytest

from convdeblur.metrics import noiseless_error_bound, noisy_error_bound, psnr


class TestPsnr:
    def test_identical_is_inf(self):
        img = np.random.default_rng(0).uniform(size=(8, 8))
        assert psnr(img, img) == float("inf")

    def test_known_value(self):
        a = np.zeros((4, 4))
        b = np.full((4, 4), 0.1)
        assert np.isclose(psnr(a, b), 20.0)

    def test_peak_scaling(self):
        a = np.zeros((4, 4))
        b = np.full((4, 4), 25.5)
        assert np.isclose(psnr(a, b, peak=255.0), 20.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((2, 2)), np.zeros((3, 3)))


class TestBounds:
    def test_noiseless_formula(self):
        assert np.isclose(noiseless_error_bound(3.0, 2.0),
                          math.sqrt(2.0) * 1.5)

    def test_noisy_reduces_to_noiseless_at_zero_eps(self):
        assert np.isclose(noisy_error_bound(3.0, 0.5, 2.0, 4, 4, 0.0),
                          noiseless_error_bound(3.0, 2.0))

    def test_noisy_monotone_in_eps(self):
        b1 = noisy_error_bound(3.0, 0.5, 2.0, 4, 4, 0.01)
        b2 = noisy_error_bound(3.0, 0.5, 2.0, 4, 4, 0.1)
        assert b2 > b1 > noiseless_error_bound(3.0, 2.0)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            noiseless_error_bound(1.0, 0.0)
        with pytest.raises(ValueError):
            noisy_error_bound(1.0, 0.0, 1.0, 2, 2, 0.1)
