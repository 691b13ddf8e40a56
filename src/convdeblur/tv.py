"""Non-blind TV-regularized deconvolution.

Minimizes ||B - W(I (x) K)||_F^2 + lam * total_variation(I), the anisotropic
TV being the l1 norm of I's periodic forward differences, where W keeps the
observed window of the full convolution: all of it for full-convolution data
(B.shape == I.shape + K.shape - 1), its central I.shape window for a cropped
observation (B.shape == I.shape).

Both data models are solved by one ADMM on exactly this objective (Almeida &
Figueiredo, "Deconvolving images with unknown boundaries using ADMM", IEEE
TIP 2013). The latent is zero-embedded in the full-convolution grid padded
to 5-smooth sizes (`fast_len`), where the periodic convolution equals the
full one, and the observation becomes a 0/1 mask on that grid. The mask is
1 on B's window and on the added band, where B is taken as zero: K*pad(I)
is exactly zero there, so the band changes the iterates but not the
minimizer. TV stays on I's own grid. Every subproblem is then diagonal in
the FFT or pointwise.

The grid variables (y = pad(I), K*y and their duals) are held as rfft2
half-spectra, where the y-update and the dual updates are pointwise. With
full-convolution data the mask is all ones and the data update is pointwise
there too, so an iteration takes two transforms on the grid (back for the
I-update, forth for pad(I)) and two on I's grid. A cropped observation
applies its mask on the grid, which adds one round trip. The split and dual
variables are returned so that a caller can resume the iteration.
"""

import math
from dataclasses import dataclass

import numpy as np

from .tensorops import (Observation, as_image, fast_len, irfft2, rfft2,
                        validate_kernel)

# ADMM penalty of the y = pad(I) and g = grad(I) splits
ADMM_PENALTY = 0.1
# ADMM penalty of the data split v = K*y
DATA_PENALTY = 1.0


@dataclass
class TvSolverConfig:
    """lam weighs TV; max_inner caps the iterations and tol is the stopping
    test."""
    lam: float = 0.0015
    max_inner: int = 5000
    tol: float = 1e-5

    def __post_init__(self):
        if not 0 <= self.lam < math.inf:
            raise ValueError("lam must be nonnegative and finite")
        if self.max_inner < 1:
            raise ValueError("max_inner must be >= 1")
        if not 0 <= self.tol < math.inf:
            raise ValueError("tol must be nonnegative and finite")


@dataclass(frozen=True)
class AdmmState:
    """Split and scaled dual variables of the solver. All but the gradient
    pair live on the full-convolution grid padded to 5-smooth sizes, with
    B observed as zero on the added band, and are held as its rfft2
    half-spectra; the gradient pair is real, on I's grid. grid is the
    padded grid's shape, which the half-spectra alone do not fix: widths 2j
    and 2j + 1 both give j + 1 columns."""
    pad: np.ndarray         # y = pad(I)
    blur: np.ndarray        # K*y for the kernel of the call that returned it
    grad: np.ndarray        # g = grad(I), shape (2, n1, n2)
    pad_dual: np.ndarray
    data_dual: np.ndarray
    grad_dual: np.ndarray
    grid: tuple


@dataclass(frozen=True)
class TvResult:
    image: np.ndarray
    iterations: int
    converged: bool
    state: AdmmState


def total_variation(img):
    """Anisotropic TV: l1 norm of periodic forward differences."""
    dx, dy = _grad(as_image(img))
    return float(np.abs(dx).sum() + np.abs(dy).sum())


def _grad(x, out=None):
    """Horizontal and vertical periodic forward differences of x, stacked
    into out (shape (2,) + x.shape; ValueError unless it has a flat view).

    Each difference is one pass over the raveled arrays; the horizontal
    one then rewrites its wrapped last column in one strided pass."""
    if out is None:
        out = np.empty((2,) + x.shape)
    w = x.shape[1]
    f, (o0, o1) = x.ravel(), out.reshape(2, -1, copy=False)
    np.subtract(f[1:], f[:-1], out=o0[:-1])
    np.subtract(f[::w], f[w - 1::w], out=o0[w - 1::w])
    np.subtract(f[w:], f[:-w], out=o1[:-w])
    np.subtract(f[:w], f[-w:], out=o1[-w:])
    return out


def _grad_adjoint(g, out):
    """Adjoint of _grad, written into out (shape g.shape[1:], with a flat
    view) by passes over the raveled arrays, as in _grad."""
    w = out.shape[1]
    (f0, f1), o = g.reshape(2, -1), out.reshape(-1, copy=False)
    np.subtract(f0[:-1], f0[1:], out=o[1:])
    np.subtract(f0[w - 1::w], f0[::w], out=o[::w])
    o[w:] += f1[:-w]
    o[w:] -= f1[w:]
    o[:w] += f1[-w:]
    o[:w] -= f1[:w]
    return out


def _grid_sq_norm(fx, grid):
    """Squared l2 norm of a real grid array from its rfft2 half-spectrum, by
    Parseval: column 0 and, for an even width, the Nyquist column have no
    conjugate twin and count once, the other columns twice."""
    a = fx.real ** 2 + fx.imag ** 2
    total = 2.0 * a.sum() - a[:, 0].sum()
    if grid[1] % 2 == 0:
        total -= a[:, -1].sum()
    return total / (grid[0] * grid[1])


def tv_deconv(b, k, cfg=None, assume_full=True, state=None):
    """Restore the latent image of Observation(b, k.shape, assume_full)
    given the blur kernel k: of shape b.shape - k.shape + 1 for full data
    (assume_full=True), of b's shape for a cropped b.

    The image is found by ADMM on the objective of the module docstring. It
    stops as converged once the relative image change and the relative
    primal residual both fall below cfg.tol (tol = 0 runs all cfg.max_inner
    iterations). The result carries the solver's split and dual variables;
    passing them back as `state` resumes the iteration where it stopped.
    Without a state it starts from Observation.start, b's central window.
    """
    k = validate_kernel(k)
    cfg = cfg or TvSolverConfig()
    obs = Observation(b, k.shape, assume_full)
    b, shape = obs.b, obs.shape
    n1, n2 = shape
    # the FFT grid of every grid variable (see the module docstring)
    grid = tuple(fast_len(n) for n in obs.grid)
    fk = rfft2(k, grid)   # k zero-embedded at the grid's top left

    # Splits: v = K*y carries the data term under the observation mask,
    # y = pad(I) makes that convolution exact (the kernel never wraps onto
    # the zero band), g = grad(I) carries the TV term. The (I, v) and
    # (y, g) blocks alternate; the duals are scaled. y, K*y and their duals
    # are kept as half-spectra, so the y- and dual updates are pointwise.
    rho, mu = ADMM_PENALTY, DATA_PENALTY
    if assume_full:
        # the mask is all ones: v = (2 b + mu (K*y - uv)) / (2 + mu) is
        # pointwise in Fourier space too
        fb2 = rfft2(b, grid) * (2.0 / (2.0 + mu))
    else:
        # 2 mask b and 2 mask + mu, mask being 0 on the frame only: the
        # band past the full-convolution grid is observed
        band = [(0, n - g) for n, g in zip(grid, obs.grid)]
        b2 = np.pad(2.0 * obs.embedded, band)
        v_den = np.where(np.pad(obs.frame, band), mu, mu + 2.0)
    # y-update weights of K'(v + uv) and pad(I) - uy
    y_den = mu * np.abs(fk) ** 2 + rho
    wv = mu * np.conj(fk) / y_den
    wp = rho / y_den
    thr = cfg.lam / rho
    i_inv = 1.0 / (1.0 + (
        (2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n1) / n1))[:, None]
        + (2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n2 // 2 + 1) / n2))))
    if state is None:
        fy = rfft2(obs.start, grid)   # rfft2 zero-pads it to the grid
        state = AdmmState(fy, fk * fy, _grad(obs.start), np.zeros_like(fy),
                          np.zeros_like(fy), np.zeros((2, n1, n2)), grid)
    elif state.grid != grid or state.grad.shape != (2, n1, n2):
        raise ValueError("solver state does not match the problem size")
    fy, fky, g = state.pad, state.blur, state.grad
    # private copies, as the duals are updated in place
    fuy, fuv, ug = (state.pad_dual.copy(), state.data_dual.copy(),
                    state.grad_dual.copy())
    # work buffers: in the loop only the FFTs allocate
    rhs = np.empty(shape)
    gsum, gi, g_buf = np.empty((3, 2, n1, n2))
    tmp, fv_buf, fy_buf, fky_buf = np.empty((4,) + fk.shape, dtype=complex)
    img = None
    it = 0
    converged = False
    while it < cfg.max_inner:
        # I: (1 + grad'grad) I = pad'(y + uy) + grad'(g + ug), as pad'pad = 1
        _grad_adjoint(np.add(g, ug, out=gsum), rhs)
        rhs += irfft2(np.add(fy, fuy, out=tmp), grid)[:n1, :n2]
        frhs = rfft2(rhs, shape)
        frhs *= i_inv
        new = irfft2(frhs, shape)
        fpad = rfft2(new, grid)
        # v: (2 mask + mu) v = 2 mask b + mu (K*y - uv), pointwise
        fv = np.subtract(fky, fuv, out=fv_buf)
        if assume_full:
            fv *= mu / (2.0 + mu)
            fv += fb2
        else:
            v = irfft2(fv, grid)
            v *= mu
            v += b2
            v /= v_den
            fv = rfft2(v, grid)
        # y: (mu K'K + rho) y = mu K'(v + uv) + rho (pad(I) - uy)
        fy = np.add(fv, fuv, out=fy_buf)
        fy *= wv
        np.subtract(fpad, fuy, out=tmp)
        tmp *= wp
        fy += tmp
        fky = np.multiply(fk, fy, out=fky_buf)
        # g = shrink(grad(I) - ug) at lam / rho, shrink(d) = d - clip(d); the
        # dual update ug + g - grad(I) is then clip(ug - grad(I))
        _grad(new, gi)
        m = np.subtract(ug, gi, out=gsum)
        np.clip(m, -thr, thr, out=ug)
        g = np.subtract(ug, m, out=g_buf)
        # primal residuals of the v and y splits, which update their duals
        rv = np.subtract(fv, fky, out=fv)
        ry = np.subtract(fy, fpad, out=fpad)
        fuv += rv
        fuy += ry
        if cfg.tol > 0 and img is not None:
            rg = g - gi
            scale = max(np.linalg.norm(new), 1e-30)
            change = np.linalg.norm(new - img) / scale
            resid = math.sqrt(_grid_sq_norm(rv, grid) + _grid_sq_norm(ry, grid)
                              + np.vdot(rg, rg)) / scale
            converged = max(change, resid) < cfg.tol
        img = new
        it += 1
        if converged:
            break
    return TvResult(img, it, converged, AdmmState(fy, fky, g, fuy, fuv, ug,
                                                    grid))
