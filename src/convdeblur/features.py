"""Feature filters applied before spectral analysis: raw pixels or LoG edges.

A filter is its 2D array of taps; DELTA, the 1x1 impulse, keeps raw pixels.
"""

import numpy as np

from .tensorops import _fft_conv_full, as_image

DELTA = np.ones((1, 1))


def make_log(sigma=1.0):
    """Laplacian-of-Gaussian taps on a (2*ceil(3*sigma)+1)^2 grid.

    Taps are mean-subtracted so the filter sums exactly to zero (constant
    images map to zero). Amplitude is not normalized: rescaling the filter
    scales all convolution eigenvalues uniformly and cancels in the
    regularizer weights.
    """
    if not 0 < sigma < np.inf:
        raise ValueError("sigma must be positive and finite")
    r = int(np.ceil(3.0 * sigma))
    y, x = np.mgrid[-r:r + 1, -r:r + 1].astype(np.float64)
    r2 = (x * x + y * y) / (2.0 * sigma ** 2)
    taps = -(1.0 / (np.pi * sigma ** 4)) * (1.0 - r2) * np.exp(-r2)
    taps -= taps.mean()
    return taps


def get_filter(name, sigma=1.0):
    if name == "delta":
        return DELTA
    if name == "log":
        return make_log(sigma)
    raise ValueError(f"unknown feature filter {name!r}")


def apply_filter(f, img):
    """Full-mode convolution of the taps f with the image, by FFT; a 1x1 f
    scales a copy of the image."""
    f, img = as_image(f), as_image(img)
    if f.shape == (1, 1):
        return f[0, 0] * img
    return _fft_conv_full(f, img)
