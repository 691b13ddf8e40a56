"""Convolution eigenvalues/eigenvectors of an image.

The convolution eigenvalues of an image under a feature filter are the
singular values of the Toeplitz operator of the filtered image acting on
s1 x s2 probes; the eigenvectors are the right singular vectors reshaped.
Neither method forms that operator: 'svd' streams its rows through a QR,
'gram' diagonalizes its Gram matrix, which equals its own 180-degree
rotation, as two half-size blocks.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .features import apply_filter
from .tensorops import BLOCK_ROWS, toeplitz_gram, toeplitz_row_blocks
# Not used here: the traced benchmark run (perfbench/tracing.py) wraps this
# name and requires it to exist.
from .tensorops import toeplitz  # noqa: F401

# Method 'gram' warns below this sigma_min / sigma_max. Its eigenvalues carry
# an absolute error of about eps * sigma_max^2, a relative sigma error of
# about eps * (sigma_max / sigma_i)^2: 1% at a ratio of 3.5e-8.
GRAM_MIN_RATIO = 1e-7


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
        """Sharpness: large values mean a sharp image."""
        return float(self.sigmas[-1])


def _toeplitz_r(x, k1, k2):
    """Triangular factor R of toeplitz(x, k1, k2) = QR, by a streamed QR.

    Row blocks of the operator are generated from x on the fly and folded
    in one at a time, R <- qr([R; block]) (Demmel, Grigori, Hoemmen &
    Langou, SIAM J. Sci. Comput. 2012), so memory holds R and one block
    while the singular values keep full accuracy: R^T R is the Gram matrix,
    but the Gram matrix itself is never formed. A block has at least twice
    as many rows as R, so each QR mostly factors new rows.
    """
    r = np.zeros((0, k1 * k2))
    for block in toeplitz_row_blocks(
            x, k1, k2, block_rows=max(BLOCK_ROWS, 2 * k1 * k2)):
        r = np.linalg.qr(np.vstack((r, block)), mode="r")
    return r


def _centrosymmetric_eigh(g):
    """np.linalg.eigh of a symmetric, centrosymmetric n x n matrix g (equal
    to g[::-1, ::-1]) by two eigensolves of about half its size.

    Index i pairs with n-1-i, the 180-degree rotation of the probe. The
    eigenvectors are symmetric or antisymmetric under the pairing
    (Cantoni & Butler, Linear Algebra Appl. 13, 1976): the symmetric ones
    solve G_ll + G_lh on the first (n+1)//2 indices, the middle one (odd n)
    scaled by sqrt(2); the antisymmetric ones solve G_ll - G_lh on the
    first n//2. Returns the eigenvalues, unsorted, and the unit eigenvectors
    as columns.
    """
    n = g.shape[0]
    h, hs = n // 2, (n + 1) // 2
    mirrored = g[:hs, ::-1]
    d = np.ones(hs)
    d[h:] = np.sqrt(0.5)        # the middle index, if n is odd
    w_sym, y = np.linalg.eigh((g[:hs, :hs] + mirrored[:, :hs])
                              * d * d[:, None])
    w_anti, z = np.linalg.eigh(g[:h, :h] - mirrored[:h, :h])
    v = np.zeros((n, n))
    v[:hs, :hs] = y * (np.sqrt(0.5) / d)[:, None]
    v[:h, hs:] = z * np.sqrt(0.5)
    v[hs:, :hs] = v[:h, :hs][::-1]
    v[hs:, hs:] = -v[:h, hs:][::-1]
    return np.concatenate((w_sym, w_anti)), v


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


def conv_spectrum(img, f, s1, s2, method="gram"):
    """All s1*s2 convolution eigenvalue/eigenvector pairs of an image.

    method='gram' diagonalizes the Gram matrix, formed by one FFT
    autocorrelation, in two half-size blocks; it squares the condition
    number, so it warns (RuntimeWarning) when sigma_min / sigma_max falls
    below GRAM_MIN_RATIO.
    method='svd' takes the SVD of the triangular factor of a streamed QR of
    the Toeplitz matrix: the accurate reference, at a cost that grows with
    pixels times (s1*s2)^2. Each eigenvector's sign is fixed by _fix_signs,
    so both methods return the same vectors where the eigenvalues are well
    separated.
    """
    if s1 < 1 or s2 < 1:
        raise ValueError("sampling sizes must be >= 1")
    feat = apply_filter(f, img)
    if not np.any(feat):
        raise ValueError("degenerate input: filtered image is identically zero")
    if method == "svd":
        _, sig, vecs = np.linalg.svd(_toeplitz_r(feat, s1, s2))
    elif method == "gram":
        w, v = _centrosymmetric_eigh(toeplitz_gram(feat, s1, s2))
        order = np.argsort(w)[::-1]
        sig = np.sqrt(np.clip(w[order], 0.0, None))
        vecs = v[:, order].T
        ratio = sig[-1] / sig[0]
        if ratio < GRAM_MIN_RATIO:
            warnings.warn(
                f"sigma_min / sigma_max = {ratio:.2g} is below "
                f"{GRAM_MIN_RATIO:g}: method 'gram' loses the relative "
                "accuracy of the smallest sigmas; method='svd' keeps it",
                RuntimeWarning, stacklevel=2)
    else:
        raise ValueError(f"unknown method {method!r}")
    vecs = _fix_signs(vecs)
    return ConvSpectrum(s1, s2, sig, vecs.reshape(s1 * s2, s1, s2))
