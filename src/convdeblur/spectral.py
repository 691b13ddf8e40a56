"""Convolution eigenvalues/eigenvectors of an image, sharpness, condition number.

The convolution eigenvalues of an image under a feature filter are the
singular values of the Toeplitz operator of the filtered image acting on
s1 x s2 probes; the eigenvectors are the right singular vectors reshaped.
Neither method forms that operator: 'svd' streams its rows through a QR,
'gram' diagonalizes its Gram matrix.
"""

from dataclasses import dataclass

import numpy as np

from .features import DELTA, apply_filter
from .tensorops import as_image, toeplitz_gram
# Not used here: the traced benchmark run (perfbench/tracing.py) wraps this
# name and requires it to exist.
from .tensorops import toeplitz  # noqa: F401

# Toeplitz rows per streamed QR block of method 'svd' (whole output rows of
# the convolution, at least one)
TSQR_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class ConvSpectrum:
    s1: int
    s2: int
    sigmas: np.ndarray      # (s1*s2,), nonincreasing, all > 0 for nonzero input
    vectors: np.ndarray     # (s1*s2, s1, s2), unit Frobenius norm, orthonormal

    @property
    def sigma_max(self):
        return float(self.sigmas[0])

    @property
    def sigma_min(self):
        return float(self.sigmas[-1])


def _toeplitz_r(x, k1, k2):
    """Triangular factor R of toeplitz(x, k1, k2) = QR, by a streamed QR.

    Row blocks of the operator are generated from x on the fly and folded
    in one at a time, R <- qr([R; block]) (Demmel, Grigori, Hoemmen &
    Langou, SIAM J. Sci. Comput. 2012), so memory holds R and one block
    while the singular values keep full accuracy: R^T R is the Gram matrix,
    but the Gram matrix itself is never formed.
    """
    # sliding k1 x k2 windows of the zero-embedded x; the flipped window at
    # output pixel (i, j) is row (i, j) of the Toeplitz matrix
    padded = np.pad(x, ((k1 - 1, k1 - 1), (k2 - 1, k2 - 1)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (k1, k2))
    windows = windows[:, :, ::-1, ::-1]
    out1, out2 = windows.shape[:2]
    step = max(1, TSQR_BLOCK_ROWS // out2)
    r = np.zeros((0, k1 * k2))
    for i in range(0, out1, step):
        block = windows[i:i + step].reshape(-1, k1 * k2)
        r = np.linalg.qr(np.vstack((r, block)), mode="r")
    return r


def _fix_signs(vecs):
    """Flip each row so its first entry of at least half the row's largest
    magnitude is positive.

    Eigenvectors of the Gram matrix are symmetric or antisymmetric under a
    180-degree rotation of the probe, so the largest magnitude alone is
    often reached twice, with opposite signs.
    """
    mag = np.abs(vecs)
    first = np.argmax(mag >= 0.5 * mag.max(axis=1, keepdims=True), axis=1)
    signs = np.where(vecs[np.arange(len(vecs)), first] < 0, -1.0, 1.0)
    return vecs * signs[:, None]


def conv_spectrum(img, f=DELTA, s1=None, s2=None, method="svd"):
    """All s1*s2 convolution eigenvalue/eigenvector pairs of an image.

    method='svd' takes the SVD of the triangular factor of a streamed QR of
    the Toeplitz matrix (numerically preferable: no condition-number
    squaring); method='gram' diagonalizes the Gram matrix, formed by FFT
    correlation, which is cheaper for large images. Each eigenvector's sign
    is fixed by _fix_signs, so both methods return the same vectors where
    the eigenvalues are well separated.
    """
    img = as_image(img)
    if s1 is None or s2 is None:
        raise ValueError("sampling sizes s1, s2 are required")
    if s1 < 1 or s2 < 1:
        raise ValueError("sampling sizes must be >= 1")
    if not np.any(img):
        raise ValueError("degenerate input: zero image has no spectrum")
    feat = apply_filter(f, img)
    if not np.any(feat):
        raise ValueError("degenerate input: filtered image is identically zero")
    if method == "svd":
        _, sig, vecs = np.linalg.svd(_toeplitz_r(feat, s1, s2))
    elif method == "gram":
        g = toeplitz_gram(feat, s1, s2)
        w, v = np.linalg.eigh(g)
        order = np.argsort(w)[::-1]
        sig = np.sqrt(np.clip(w[order], 0.0, None))
        vecs = v[:, order].T
    else:
        raise ValueError(f"unknown method {method!r}")
    vecs = _fix_signs(vecs)
    return ConvSpectrum(s1, s2, sig, vecs.reshape(s1 * s2, s1, s2))


def sharpness(img, f=DELTA, s1=None, s2=None, method="svd"):
    """Smallest convolution eigenvalue; large values mean a sharp image."""
    return conv_spectrum(img, f, s1, s2, method).sigma_min


def conv_condition(img, f=DELTA, s1=None, s2=None, method="svd"):
    """sigma_max / sigma_min of the image's convolution spectrum (>= 1)."""
    spec = conv_spectrum(img, f, s1, s2, method)
    return spec.sigma_max / spec.sigma_min
