"""Convolution eigenvalues/eigenvectors of an image.

The convolution eigenvalues of an image under a feature filter are the
singular values of the Toeplitz operator A of the filtered image acting on
s1 x s2 probes; the eigenvectors are the right singular vectors reshaped.
Neither method forms that operator: 'svd' streams its rows through a QR into
a triangular R with R^T R = A^T A, 'gram' forms the Gram matrix A^T A, which
equals its own 180-degree rotation, and splits it into two half-size blocks.
Both take eigenvalues only. The spectrum keeps that matrix, from which the
eigenvectors are computed on first use and the inverse Gram matrix, which
the kernel regularizer needs, from triangular factors.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property

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
    method: str             # 'gram' or 'svd'
    matrix: np.ndarray      # 'gram': G = A^T A; 'svd': triangular R, R^T R = G

    @property
    def sigma_max(self):
        return float(self.sigmas[0])

    @property
    def sigma_min(self):
        """Sharpness: large values mean a sharp image."""
        return float(self.sigmas[-1])

    @cached_property
    def vectors(self):
        """(s1*s2, s1, s2) eigenvectors in the order of sigmas: unit
        Frobenius norm, orthonormal, signs fixed by _fix_signs. Computed on
        first access."""
        if self.method == "svd":
            vecs = np.linalg.svd(self.matrix)[2]
        else:
            (w_sym, y), (w_anti, z) = map(np.linalg.eigh,
                                          _half_blocks(self.matrix))
            order = np.argsort(np.concatenate((w_sym, w_anti)))[::-1]
            vecs = _from_half_basis(y, z)[:, order].T
        return _fix_signs(vecs).reshape(-1, self.s1, self.s2)

    def gram_inverse(self, floor):
        """G^-1 = sum_i v_i v_i^T / sigma_i^2 without the eigenvectors, or
        None where a block is not positive definite or a triangular factor
        has a pivot below floor.

        Each block of G ('svd': G itself; 'gram': its two half blocks) is
        U^T U, U = R or the block's upper Cholesky factor, whose pivots are
        at least the block's sigma_min. The block's inverse is W W^T,
        W = U^-1 (_triangular_inverse): positive semidefinite by
        construction.
        """
        try:
            factors = ([self.matrix] if self.method == "svd" else
                       [np.linalg.cholesky(b, upper=True)
                        for b in _half_blocks(self.matrix)])
        except np.linalg.LinAlgError:       # a block is not positive definite
            return None
        if any(np.any(np.abs(np.diagonal(u)) < floor) for u in factors):
            return None
        inv = [w @ w.T for w in map(_triangular_inverse, factors)]
        return inv[0] if self.method == "svd" else _from_half_blocks(*inv)


def _triangular_inverse(u):
    """U^-1 of an upper triangular U with nonzero pivots, by halves:
    [[W11, -W11 U12 W22], [0, W22]] with W11, W22 the inverses of the
    diagonal blocks, np.linalg.inv on blocks of at most 16 rows. Below the
    diagonal, W is exactly zero. Its error obeys back substitution's bound,
    about eps * kappa(U) relative (Du Croz & Higham, IMA J. Numer. Anal.
    12, 1992); on the factors of an ill-conditioned spectrum it measured
    10 to 40 times LAPACK's, well inside that bound."""
    n = len(u)
    if n <= 16:
        return np.linalg.inv(u)
    h = n // 2
    w = np.zeros_like(u)
    w[:h, :h] = _triangular_inverse(u[:h, :h])
    w[h:, h:] = _triangular_inverse(u[h:, h:])
    w[:h, h:] = -w[:h, :h] @ (u[:h, h:] @ w[h:, h:])
    return w


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


def _half_blocks(g):
    """The two half-size blocks of a symmetric, centrosymmetric n x n matrix
    g (equal to g[::-1, ::-1]): g = Q diag(sym, anti) Q^T.

    Index i pairs with n-1-i, the 180-degree rotation of the probe. The
    columns of the orthogonal Q are symmetric or antisymmetric under the
    pairing (Cantoni & Butler, Linear Algebra Appl. 13, 1976): sym is
    G_ll + G_lh on the first (n+1)//2 indices, the middle one (odd n)
    scaled by sqrt(2); anti is G_ll - G_lh on the first n//2.
    _from_half_basis and _from_half_blocks map block results back.
    """
    n = g.shape[0]
    h, hs = n // 2, (n + 1) // 2
    mirrored = g[:hs, ::-1]
    d = np.ones(hs)
    d[h:] = np.sqrt(0.5)        # the middle index, if n is odd
    return ((g[:hs, :hs] + mirrored[:, :hs]) * d * d[:, None],
            g[:h, :h] - mirrored[:h, :h])


def _from_half_basis(sym, anti):
    """Q diag(sym, anti) for the Q of _half_blocks: eigenvectors of the
    blocks as eigenvectors of g."""
    h, hs = len(anti), len(sym)
    v = np.zeros((h + hs, h + hs))
    v[:hs, :hs] = np.sqrt(0.5) * sym
    v[h:hs, :hs] = sym[h:]      # the middle index, if n is odd
    v[:h, hs:] = np.sqrt(0.5) * anti
    v[hs:, :hs] = v[:h, :hs][::-1]
    v[hs:, hs:] = -v[:h, hs:][::-1]
    return v


def _from_half_blocks(sym, anti):
    """Q diag(sym, anti) Q^T for the Q of _half_blocks, for symmetric
    blocks: the centrosymmetric matrix whose half blocks they are."""
    h, hs = len(anti), len(sym)
    c = np.full(hs, np.sqrt(0.5))
    c[h:] = 1.0                 # the middle index, if n is odd
    ms, ma = sym * c * c[:, None], 0.5 * anti
    top = np.empty((hs, h + hs))
    top[:, :hs] = ms
    top[:h, :h] += ma
    top[:, hs:] = ms[:, :h][:, ::-1]
    top[:h, hs:] -= ma[:, ::-1]
    return np.vstack((top, top[:h][::-1, ::-1]))


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
    """All s1*s2 convolution eigenvalues of an image, with the matrix their
    eigenvectors come from.

    method='gram' takes the eigenvalues of the Gram matrix, formed by one
    FFT autocorrelation, in two half-size blocks; it squares the condition
    number, so it warns (RuntimeWarning) when sigma_min / sigma_max falls
    below GRAM_MIN_RATIO.
    method='svd' takes the singular values of the triangular factor of a
    streamed QR of the Toeplitz matrix: the accurate reference, at a cost
    that grows with pixels times (s1*s2)^2. Both methods return the same
    eigenvectors where the eigenvalues are well separated.
    """
    if s1 < 1 or s2 < 1:
        raise ValueError("sampling sizes must be >= 1")
    feat = apply_filter(f, img)
    if not np.any(feat):
        raise ValueError("degenerate input: filtered image is identically zero")
    if method == "svd":
        mat = _toeplitz_r(feat, s1, s2)
        sig = np.linalg.svd(mat, compute_uv=False)
    elif method == "gram":
        mat = toeplitz_gram(feat, s1, s2)
        w = np.concatenate([np.linalg.eigvalsh(b) for b in _half_blocks(mat)])
        sig = np.sqrt(np.clip(np.sort(w)[::-1], 0.0, None))
        ratio = sig[-1] / sig[0]
        if ratio < GRAM_MIN_RATIO:
            warnings.warn(
                f"sigma_min / sigma_max = {ratio:.2g} is below "
                f"{GRAM_MIN_RATIO:g}: method 'gram' loses the relative "
                "accuracy of the smallest sigmas; method='svd' keeps it",
                RuntimeWarning, stacklevel=2)
    else:
        raise ValueError(f"unknown method {method!r}")
    return ConvSpectrum(s1, s2, sig, method, mat)
