"""Non-blind TV-regularized deconvolution.

Minimizes ||B - W(I (x) K)||_F^2 + lam * total_variation(I), the anisotropic
TV being the l1 norm of I's periodic forward differences, where W keeps the
observed window of the full convolution: all of it for full-convolution data
(B.shape == I.shape + K.shape - 1), its central I.shape window for a cropped
observation (B.shape == I.shape).

Both data models are solved by one ADMM on exactly this objective (Almeida &
Figueiredo, "Deconvolving images with unknown boundaries using ADMM", IEEE
TIP 2013). The latent is zero-embedded in the full-convolution grid, where
the periodic convolution equals the full one, and the observation becomes a
0/1 mask on that grid; TV stays on I's own grid. Every subproblem is then
diagonal in the FFT or pointwise. The split and dual variables are returned
so that a caller can resume the iteration.
"""

from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from .tensorops import as_image, central_window, validate_kernel

# ADMM penalty of the y = pad(I) and g = grad(I) splits
ADMM_PENALTY = 0.1
# ADMM penalty of the data split v = K*y
DATA_PENALTY = 1.0


@dataclass
class TvSolverConfig:
    """lam weighs TV; max_inner caps the iterations and tol is the stopping
    test."""
    lam: float = 0.0015
    max_inner: int = 100
    tol: float = 1e-5

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.max_inner < 1:
            raise ValueError("max_inner must be >= 1")


@dataclass(frozen=True)
class AdmmState:
    """Split and scaled dual variables of the solver. All but the gradient
    pair live on the full-convolution grid."""
    pad: np.ndarray         # y = pad(I)
    blur: np.ndarray        # K*y, which the data split v tracks
    grad: np.ndarray        # g = grad(I), shape (2, n1, n2)
    pad_dual: np.ndarray
    data_dual: np.ndarray
    grad_dual: np.ndarray


@dataclass(frozen=True)
class TvResult:
    image: np.ndarray
    iterations: int
    converged: bool
    state: AdmmState = None   # None for the lam = 0 inverse filter


def total_variation(img):
    """Anisotropic TV: l1 norm of periodic forward differences."""
    dx, dy = _grad(as_image(img))
    return float(np.abs(dx).sum() + np.abs(dy).sum())


def _grad(x):
    """Horizontal and vertical periodic forward differences, stacked."""
    return np.stack([np.roll(x, -1, axis=1) - x, np.roll(x, -1, axis=0) - x])


def _grad_adjoint(g):
    return (np.roll(g[0], 1, axis=1) - g[0]) + (np.roll(g[1], 1, axis=0) - g[1])


def soft_threshold(x, thr):
    return x - np.clip(x, -thr, thr)


def _otf(psf, shape):
    """Real FFT of a filter embedded at the top-left of the given grid."""
    pad = np.zeros(shape)
    pad[:psf.shape[0], :psf.shape[1]] = psf
    return sfft.rfft2(pad)


def tv_deconv(b, k, cfg=None, assume_full=True, x0=None, state=None):
    """Restore the latent image given the blur kernel.

    With assume_full=True, b is the full-convolution output and the latent
    image has shape b.shape - k.shape + 1. With assume_full=False, b is the
    central window of the convolution and the latent keeps b's size.

    The image is found by ADMM on the objective of the module docstring. It
    stops as converged once the relative image change and the relative
    primal residual both fall below cfg.tol. The result carries the solver's
    split and dual variables; passing them back as `state` resumes the
    iteration where it stopped. x0 (a latent-size image) and `state` are two
    ways to warm-start and may not be given together; with neither, the
    iteration starts from b's central window at the latent size. With
    lam = 0 and full-convolution data the minimizer is the inverse filter,
    returned directly.
    """
    b = as_image(b)
    k = validate_kernel(k)
    cfg = cfg or TvSolverConfig()
    if x0 is not None and state is not None:
        raise ValueError("give a warm start as x0 or as state, not both")
    m1, m2 = k.shape
    if assume_full:
        grid = b.shape
        shape = (b.shape[0] - m1 + 1, b.shape[1] - m2 + 1)
        if shape[0] < 1 or shape[1] < 1:
            raise ValueError("observed image smaller than the kernel")
    else:
        grid = (b.shape[0] + m1 - 1, b.shape[1] + m2 - 1)
        shape = b.shape
    n1, n2 = shape
    fk = _otf(k, grid)

    if cfg.lam == 0.0 and assume_full:
        # no regularizer: the minimizer is the inverse filter (exact for
        # consistent full-convolution data)
        img = sfft.irfft2(np.conj(fk) * sfft.rfft2(b)
                          / np.maximum(np.abs(fk) ** 2, 1e-30), s=grid)
        return TvResult(img[:n1, :n2].copy(), 1, True)

    # Splits: v = K*y carries the data term under the observation mask,
    # y = pad(I) makes that convolution exact (the kernel never wraps onto
    # the zero band), g = grad(I) carries the TV term. The (I, v) and
    # (y, g) blocks alternate; the duals are scaled.
    rho, mu = ADMM_PENALTY, DATA_PENALTY
    window = central_window(grid, b.shape)
    # 2 mask b and 2 mask + mu, mask being 1 on the observed window only
    b2 = np.zeros(grid)
    b2[window] = 2.0 * b
    v_den = np.full(grid, mu)
    v_den[window] += 2.0
    fk_adj = mu * np.conj(fk)
    y_den = mu * np.abs(fk) ** 2 + rho
    lap = ((2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n1) / n1))[:, None]
           + (2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n2 // 2 + 1) / n2)))
    if state is None:
        img = b[central_window(b.shape, shape)] if x0 is None else as_image(x0)
        if img.shape != shape:
            raise ValueError("warm start must match the latent size")
        y = np.zeros(grid)
        y[:n1, :n2] = img
        state = AdmmState(y, sfft.irfft2(fk * sfft.rfft2(y), s=grid),
                          _grad(img), np.zeros(grid), np.zeros(grid),
                          np.zeros((2, n1, n2)))
    elif state.pad.shape != grid or state.grad.shape != (2, n1, n2):
        raise ValueError("solver state does not match the problem size")
    y, ky, g = state.pad, state.blur, state.grad
    uy, uv, ug = state.pad_dual, state.data_dual, state.grad_dual
    img = None
    it = 0
    converged = False
    while it < cfg.max_inner:
        # I: (1 + grad'grad) I = pad'(y + uy) + grad'(g + ug), as pad'pad = 1
        rhs = (y + uy)[:n1, :n2] + _grad_adjoint(g + ug)
        new = sfft.irfft2(sfft.rfft2(rhs) / (1.0 + lap), s=shape)
        padded = np.zeros(grid)
        padded[:n1, :n2] = new
        # v: (2 mask + mu) v = 2 mask b + mu (K*y - uv), pointwise
        v = (b2 + mu * (ky - uv)) / v_den
        # y: (mu K'K + rho) y = mu K'(v + uv) + rho (pad(I) - uy)
        fy = (fk_adj * sfft.rfft2(v + uv)
              + rho * sfft.rfft2(padded - uy)) / y_den
        y = sfft.irfft2(fy, s=grid)
        ky = sfft.irfft2(fk * fy, s=grid)
        gi = _grad(new)
        g = soft_threshold(gi - ug, cfg.lam / rho)
        # primal residuals of the three splits, which update the duals
        rv, ry, rg = v - ky, y - padded, g - gi
        uv = uv + rv
        uy = uy + ry
        ug = ug + rg
        scale = max(np.linalg.norm(new), 1e-30)
        change = np.linalg.norm(new - img) / scale if img is not None else np.inf
        resid = np.linalg.norm([np.linalg.norm(rv), np.linalg.norm(ry),
                                np.linalg.norm(rg)]) / scale
        img = new
        it += 1
        if max(change, resid) < cfg.tol:
            converged = True
            break
    return TvResult(img, it, converged, AdmmState(y, ky, g, uy, uv, ug))
