"""Feature filters applied before spectral analysis: raw pixels or LoG edges."""

from dataclasses import dataclass

import numpy as np

from .tensorops import _fft_conv_full, as_image


@dataclass(frozen=True)
class FeatureFilter:
    """A small convolution filter; kind 'delta' is the 1x1 impulse."""
    kind: str
    taps: np.ndarray

    def __post_init__(self):
        if self.kind not in ("delta", "log"):
            raise ValueError(f"unknown filter kind {self.kind!r}")


DELTA = FeatureFilter("delta", np.ones((1, 1)))


def make_log(sigma=1.0):
    """Laplacian-of-Gaussian filter on a (2*ceil(3*sigma)+1)^2 grid.

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
    return FeatureFilter("log", taps)


def get_filter(name, sigma=1.0):
    if name == "delta":
        return DELTA
    if name == "log":
        return make_log(sigma)
    raise ValueError(f"unknown feature filter {name!r}")


def apply_filter(f, img):
    """Full-mode convolution of the filter with the image, by FFT; delta is
    identity (a copy)."""
    img = as_image(img)
    if f.kind == "delta":
        return img.copy()
    return _fft_conv_full(f.taps, img)
