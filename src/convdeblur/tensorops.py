"""Dense 2D convolution, vectorization, and Toeplitz operator construction.

All images and kernels are plain 2D float64 numpy arrays. Vectorization is
row-major everywhere; the Toeplitz row/column ordering is defined by it.
"""

import numpy as np
from scipy import signal


def as_image(x):
    """Coerce to a validated 2D float64 array (finite, nonempty)."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"expected a nonempty 2D array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("image contains NaN or Inf")
    return a


def validate_kernel(k, tol=1e-9):
    """Check simplex membership: nonnegative entries summing to one."""
    k = as_image(k)
    if np.any(k < 0):
        raise ValueError("kernel has negative entries")
    s = k.sum()
    if abs(s - 1.0) > tol:
        raise ValueError(f"kernel sums to {s!r}, expected 1 within {tol}")
    return k


def central_window(full_shape, out_shape):
    """Slices of the central out_shape window of an array of full_shape."""
    o1 = (full_shape[0] - out_shape[0]) // 2
    o2 = (full_shape[1] - out_shape[1]) // 2
    return slice(o1, o1 + out_shape[0]), slice(o2, o2 + out_shape[1])


def conv2d_full(x, y):
    """Full 2D convolution: output (l1+k1-1) x (l2+k2-1), zero boundary."""
    x = as_image(x)
    y = as_image(y)
    return signal.convolve2d(x, y, mode="full")


def conv2d_valid(x, y):
    """Valid 2D convolution: only fully-overlapping positions."""
    x = as_image(x)
    y = as_image(y)
    if y.shape[0] > x.shape[0] or y.shape[1] > x.shape[1]:
        raise ValueError(f"second operand {y.shape} larger than first {x.shape}")
    return signal.convolve2d(x, y, mode="valid")


def vectorize(x):
    """Row-major flattening; the project-wide vectorization order."""
    return as_image(x).ravel()


def devectorize(v, rows, cols):
    v = np.asarray(v, dtype=np.float64).ravel()
    if v.size != rows * cols:
        raise ValueError(f"cannot reshape length {v.size} into {rows}x{cols}")
    return v.reshape(rows, cols)


def toeplitz(x, k1, k2):
    """Matrix A realizing full convolution with x on vectorized k1 x k2 probes.

    A has shape (l1+k1-1)(l2+k2-1) x k1*k2 and satisfies
    A @ vectorize(Y) == vectorize(conv2d_full(x, Y)) for every k1 x k2 Y.
    """
    x = as_image(x)
    if k1 < 1 or k2 < 1:
        raise ValueError("probe sizes must be >= 1")
    l1, l2 = x.shape
    out1, out2 = l1 + k1 - 1, l2 + k2 - 1
    a = np.zeros((out1, out2, k1, k2))
    for u in range(k1):
        for v in range(k2):
            a[u:u + l1, v:v + l2, u, v] = x
    return a.reshape(out1 * out2, k1 * k2)


def toeplitz_gram(x, k1, k2):
    """toeplitz(x,k1,k2).T @ toeplitz(x,k1,k2) without forming the operator.

    Columns of the Toeplitz matrix are shifted zero-embedded copies of x, so
    entry ((u,v),(u',v')) is the autocorrelation of x at lag (u-u', v-v').
    """
    x = as_image(x)
    if k1 < 1 or k2 < 1:
        raise ValueError("probe sizes must be >= 1")
    acorr = signal.fftconvolve(x, x[::-1, ::-1], mode="full")
    # acorr has shape (2*l1-1, 2*l2-1); lag (0,0) sits at (l1-1, l2-1).
    # Pad with zeros when probe sizes exceed the source (lags past the
    # support correlate to zero).
    p1, p2 = max(0, k1 - x.shape[0]), max(0, k2 - x.shape[1])
    if p1 or p2:
        acorr = np.pad(acorr, ((p1, p1), (p2, p2)))
    c1, c2 = x.shape[0] - 1 + p1, x.shape[1] - 1 + p2
    u = np.arange(k1)
    v = np.arange(k2)
    lag1 = u[:, None, None, None] - u[None, None, :, None]
    lag2 = v[None, :, None, None] - v[None, None, None, :]
    g = acorr[c1 + lag1, c2 + lag2]
    g = g.reshape(k1 * k2, k1 * k2)
    return 0.5 * (g + g.T)


def toeplitz_apply_adjoint(x, b, k1, k2):
    """toeplitz(x,k1,k2).T @ vectorize(b) computed by cross-correlation."""
    x = as_image(x)
    b = as_image(b)
    if b.shape != (x.shape[0] + k1 - 1, x.shape[1] + k2 - 1):
        raise ValueError(f"rhs shape {b.shape} inconsistent with operator")
    out = signal.fftconvolve(b, x[::-1, ::-1], mode="valid")
    return out.ravel()
