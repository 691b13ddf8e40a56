"""Image-dependent convex kernel regularizer and its Hessian.

Given the convolution spectrum of the blurry image, the regularizer value at
a kernel K is sum_i ||K (x) kappa_i||_F^2 / sigma_i^2, a quadratic form
vec(K)^T H vec(K). Its minimizer over the simplex approximates the true
blur kernel without any knowledge of the sharp image.
"""

from dataclasses import dataclass

import numpy as np

from .tensorops import as_image, lag_gram, vectorize

SIGMA_CLAMP_REL = 1e-12


@dataclass(frozen=True)
class RegularizerHessian:
    m1: int
    m2: int
    matrix: np.ndarray        # (m1*m2, m1*m2), symmetric positive definite
    clamp_count: int = 0      # eigenvalues clamped up to SIGMA_CLAMP_REL*sigma_max


def build_hessian(spec, m1, m2):
    """Assemble H = sum_i A(kappa_i)^T A(kappa_i) / sigma_i^2.

    Entry ((u,v),(u',v')) of A(kappa_i)^T A(kappa_i) is the autocorrelation
    of kappa_i at lag (u-u', v-v'), so H is the lag gather of the 2-D lag
    sums of P = V diag(1/sigma^2) V^T, V holding the vectorized kappa_i as
    columns. P is the inverse Gram matrix, taken from triangular factors
    of the spectrum's matrix without its eigenvectors.

    Near-zero singular values are clamped to SIGMA_CLAMP_REL * sigma_max so
    H stays finite; the clamped directions are the ones the data most
    strongly forbids, and the count is reported on the result. Where a
    sigma or a factor's pivot falls below that floor, or a factorization
    fails, P is the eigenvector sum with the sigmas clamped.
    """
    if m1 < 1 or m2 < 1:
        raise ValueError("kernel sizes must be >= 1")
    s1, s2 = spec.s1, spec.s2
    n = s1 * s2
    if len(spec.sigmas) != n or spec.matrix.shape != (n, n):
        raise ValueError("incomplete spectrum: all s1*s2 pairs are required")
    floor = SIGMA_CLAMP_REL * spec.sigma_max
    clamped = int(np.count_nonzero(spec.sigmas < floor))
    p = None if clamped else spec.gram_inverse(floor)
    if p is None:
        v = spec.vectors.reshape(n, n)
        p = (v.T / np.maximum(spec.sigmas, floor) ** 2) @ v
    # lag sums: entry (d1, d2) adds P[(a,b),(a',b')] over a-a'=d1, b-b'=d2
    a1, a2 = np.divmod(np.arange(n), s2)
    lag = ((a1[:, None] - a1[None, :] + s1 - 1) * (2 * s2 - 1)
           + a2[:, None] - a2[None, :] + s2 - 1)
    lags = np.bincount(lag.ravel(), weights=p.ravel(),
                       minlength=(2 * s1 - 1) * (2 * s2 - 1))
    h = lag_gram(lags.reshape(2 * s1 - 1, 2 * s2 - 1), m1, m2)
    return RegularizerHessian(m1, m2, h, clamped)


def h_value(hess, k):
    """Quadratic form vec(K)^T H vec(K)."""
    k = as_image(k)
    if k.shape != (hess.m1, hess.m2):
        raise ValueError(f"kernel shape {k.shape} does not match "
                         f"({hess.m1}, {hess.m2}) Hessian")
    v = vectorize(k)
    return float(v @ hess.matrix @ v)

