"""Dense 2D convolution, vectorization, and Toeplitz operators.

All images and kernels are plain 2D float64 numpy arrays. Vectorization is
row-major everywhere; the Toeplitz row/column ordering is defined by it.

The direct convolution is a sum of shifted slices of the larger operand, one
per entry of the smaller one, so its cost is output size times the smaller
operand whatever the argument order; `_fft_conv_full` is the FFT version.
Products with the Toeplitz operator of an image (its Gram matrix, its
adjoint) are FFT correlations on the smallest fast grid on which the lags
they need do not wrap: l + min(k, l) - 1 for the Gram matrix, whose lags
past the image are exact zeros, and the right-hand side's size for the
adjoint. `Observation` places a blurry image on the full-convolution grid.
`toeplitz_row_blocks` streams the rows of masked output pixels a block at a
time, and `toeplitz` builds the explicit matrix, whose size grows with
pixels times probe size (tests use it as the reference).
`rfft2`, `irfft2` and `fast_len` match scipy.fft bit for bit, without scipy.
"""

import numpy as np

# Toeplitz rows per block of toeplitz_row_blocks
BLOCK_ROWS = 1024


def as_image(x):
    """Coerce to a validated 2D float64 array (finite, nonempty)."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"expected a nonempty 2D array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("image contains NaN or Inf")
    return a


def validate_kernel(k):
    """Check simplex membership: nonnegative entries summing to one."""
    k = as_image(k)
    if np.any(k < 0):
        raise ValueError("kernel has negative entries")
    s = k.sum()
    if abs(s - 1.0) > 1e-9:
        raise ValueError(f"kernel sums to {s!r}, expected 1 within 1e-09")
    return k


def central_window(full_shape, out_shape):
    """Slices of the central out_shape window of an array of full_shape."""
    o1 = (full_shape[0] - out_shape[0]) // 2
    o2 = (full_shape[1] - out_shape[1]) // 2
    return slice(o1, o1 + out_shape[0]), slice(o2, o2 + out_shape[1])


class Observation:
    """B on the full-convolution grid of a latent image blurred by a k_shape
    kernel: the whole grid (full=True) or its central latent-size window.
    Holds B, k_shape, the latent and grid shapes, B's window on the grid,
    the frame mask outside it, B zero-embedded, and the latent start."""

    def __init__(self, b, k_shape, full):
        self.b, self.k_shape = as_image(b), tuple(k_shape)
        n, m = self.b.shape, self.k_shape
        if full:
            self.shape, self.grid = (n[0] - m[0] + 1, n[1] - m[1] + 1), n
        else:
            self.shape, self.grid = n, (n[0] + m[0] - 1, n[1] + m[1] - 1)
        if min(self.shape) < 1 or min(m) < 1:
            raise ValueError("B smaller than the kernel, or a kernel size < 1")
        self.window = central_window(self.grid, n)
        self.frame = np.ones(self.grid, dtype=bool)
        self.frame[self.window] = False
        self.embedded = np.zeros(self.grid)
        self.embedded[self.window] = self.b
        self.start = self.b[central_window(n, self.shape)]   # latent size

    def check(self, img_shape, k_shape):
        """ValueError unless img_shape and k_shape are the latent's and K's."""
        if img_shape != self.shape or k_shape != self.k_shape:
            raise ValueError("blurry/latent/kernel sizes are inconsistent")


def conv2d_full(x, y):
    """Full 2D convolution: output (l1+k1-1) x (l2+k2-1), zero boundary.

    Symmetric in its arguments, bit for bit when they differ in size: the
    operand with fewer entries is the one iterated over.
    """
    x = as_image(x)
    y = as_image(y)
    if y.size > x.size:
        x, y = y, x
    l1, l2 = x.shape
    out = np.zeros((l1 + y.shape[0] - 1, l2 + y.shape[1] - 1))
    for (u, v), w in np.ndenumerate(y):
        out[u:u + l1, v:v + l2] += w * x
    return out


def fast_len(n):
    """Smallest 2^a 3^b 5^c >= n, the sizes pocketfft transforms fastest."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # p35 times the least power of two reaching n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def rfft2(x, s):
    """Half-spectrum of x cut or zero-padded to shape s, built in one array."""
    fx = np.zeros((s[0], s[1] // 2 + 1), complex)
    np.fft.rfft(x[:s[0]], s[1], axis=1, out=fx[:len(x)])
    return np.fft.fft(fx, axis=0, out=fx)


def irfft2(fx, s):
    """Inverse of rfft2 to shape s: unscaled passes, then pocketfft's factor."""
    x = np.fft.irfft(np.fft.ifft(fx, s[0], axis=0, norm="forward"), s[1],
                     axis=1, norm="forward")
    x *= float(1 / np.longdouble(s[0] * s[1]))
    return x


def _fft_conv_full(x, y):
    """Full 2D convolution by real FFTs padded to fast lengths."""
    shape = (x.shape[0] + y.shape[0] - 1, x.shape[1] + y.shape[1] - 1)
    fshape = [fast_len(n) for n in shape]
    prod = rfft2(x, fshape) * rfft2(y, fshape)
    return irfft2(prod, fshape)[:shape[0], :shape[1]]


def vectorize(x):
    """Row-major flattening; the project-wide vectorization order."""
    return as_image(x).ravel()


def devectorize(v, rows, cols):
    return np.asarray(v, dtype=np.float64).ravel().reshape(rows, cols)


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


def toeplitz_row_blocks(x, k1, k2, mask=None, block_rows=BLOCK_ROWS):
    """Row blocks of toeplitz(x, k1, k2), generated from x on the fly: the
    rows of the true pixels of mask, a boolean array over the (l1+k1-1) x
    (l2+k2-1) output grid (default: all of it), row-major, in blocks of
    block_rows rounded down to whole grid rows (at least one). An empty mask
    yields no block.
    """
    out = (x.shape[0] + k1 - 1, x.shape[1] + k2 - 1)
    mask = np.ones(out, dtype=bool) if mask is None else mask
    if mask.shape != out:
        raise ValueError(f"mask shape {mask.shape} is not the grid {out}")
    pixels = np.flatnonzero(mask)
    if pixels.size == 0:
        return
    # the flipped k1 x k2 window of the zero-embedded x at output pixel
    # (i, j) is row (i, j) of the Toeplitz matrix
    padded = np.pad(x, ((k1 - 1, k1 - 1), (k2 - 1, k2 - 1)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (k1, k2))
    step = max(1, block_rows // out[1]) * out[1]
    for start in range(0, pixels.size, step):
        i, j = np.unravel_index(pixels[start:start + step], out)
        yield windows[i, j, ::-1, ::-1].reshape(-1, k1 * k2)


def lag_gram(lags, k1, k2):
    """Symmetric k1*k2 x k1*k2 matrix with entry ((u,v),(u',v')) equal to
    lags at lag (u-u', v-v').

    lags has odd shape (2*r1-1, 2*r2-1) with lag (0,0) at its centre; lags
    past its support count as zero.
    """
    if k1 < 1 or k2 < 1:
        raise ValueError("probe sizes must be >= 1")
    r1, r2 = (lags.shape[0] + 1) // 2, (lags.shape[1] + 1) // 2
    p1, p2 = max(0, k1 - r1), max(0, k2 - r2)
    if p1 or p2:
        lags = np.pad(lags, ((p1, p1), (p2, p2)))
    c1, c2 = r1 - 1 + p1, r2 - 1 + p2
    u = np.arange(k1)
    v = np.arange(k2)
    lag1 = u[:, None, None, None] - u[None, None, :, None]
    lag2 = v[None, :, None, None] - v[None, None, None, :]
    g = lags[c1 + lag1, c2 + lag2].reshape(k1 * k2, k1 * k2)
    return 0.5 * (g + g.T)


def toeplitz_gram(x, k1, k2):
    """toeplitz(x,k1,k2).T @ toeplitz(x,k1,k2) without forming the operator.

    Columns of the Toeplitz matrix are shifted zero-embedded copies of x, so
    entry ((u,v),(u',v')) is the autocorrelation of x at lag (u-u', v-v'):
    the inverse transform of |X|^2 on a grid of at least l + r - 1 per axis,
    on which the lags |d| < r = min(k, l) do not wrap. Lags at or past the
    size of x are exact zeros, filled in by lag_gram.
    """
    x = as_image(x)
    r1, r2 = min(k1, x.shape[0]), min(k2, x.shape[1])
    fshape = (fast_len(x.shape[0] + r1 - 1), fast_len(x.shape[1] + r2 - 1))
    fx = rfft2(x, fshape)
    corr = irfft2(fx.real ** 2 + fx.imag ** 2, fshape)
    # lags -(r-1) .. r-1 in order, negative ones read from the grid's end
    lags = corr[np.ix_(np.arange(1 - r1, r1), np.arange(1 - r2, r2))]
    return lag_gram(lags, k1, k2)


def toeplitz_apply_adjoint(x, b, k1, k2):
    """toeplitz(x,k1,k2).T @ vectorize(b), the cross-correlation of b with x
    at lags 0..k-1, computed on a grid of at least b.shape, where those lags
    do not wrap."""
    x = as_image(x)
    b = as_image(b)
    if b.shape != (x.shape[0] + k1 - 1, x.shape[1] + k2 - 1):
        raise ValueError(f"rhs shape {b.shape} inconsistent with operator")
    fshape = [fast_len(n) for n in b.shape]
    prod = rfft2(b, fshape) * np.conj(rfft2(x, fshape))
    return irfft2(prod, fshape)[:k1, :k2].ravel()
