"""Blind deblurring by alternating minimization.

Objective: ||B - I (x) K||_F^2 + lam * TV(I) + alpha * h(K) over kernels on
the simplex. The kernel regularizer h is the image-dependent quadratic form
built from the blurry image's convolution spectrum; it is built once per run
since it depends only on B. The kernel step is a simplex-constrained QP, the
image step is TV deconvolution.
"""

import copy
import math
from dataclasses import dataclass

import numpy as np

from .features import get_filter
from .regularizer import build_hessian, h_value
from .simplex_qp import QpProblem, solve_qp
from .spectral import conv_spectrum
from .tensorops import (as_image, central_window, conv2d_full, devectorize,
                        toeplitz, toeplitz_apply_adjoint, toeplitz_gram,
                        vectorize)
from .tv import TvSolverConfig, total_variation, tv_deconv

OBJECTIVE_SLACK = 1e-6
# ADMM iterations per image step. The solver state carries over between
# outer iterations, so the alternation interleaves one ADMM run with exact
# kernel steps; a fixed count keeps that map the same at every outer
# iteration (an inner stop at a tolerance lets the objective jitter upward
# near the fixed point).
IMAGE_STEP_ITERS = 20
# TV weight continuation of the full-convolution image step: outer iteration
# t uses lam * max(1, LAM_START * LAM_DECAY**(t - 1)), reaching lam at t = 6.
# The first kernels are poor, and the exact TV minimizer at a small lam fits
# their misfit with ringing that the next kernel step then fits in turn; a
# heavier TV weight keeps those first images piecewise smooth. Cropped
# observations use lam throughout: there the heavier start keeps kernels
# below the no-blur threshold in alpha away from the impulse.
LAM_START = 30.0
LAM_DECAY = 0.5


@dataclass
class DeblurConfig:
    m1: int
    m2: int
    s1: int = None          # default ceil(1.5 * m)
    s2: int = None
    alpha: float = 1.0
    lam: float = 0.0015
    feature: str = "log"
    log_sigma: float = 1.0
    max_outer: int = 150
    k_tol: float = 1e-6
    obj_rel_tol: float = 1e-8
    qp_tol: float = 1e-8
    qp_max_iter: int = 10000
    spectrum_method: str = "svd"
    assume_full: bool = True    # False: B is a same-size (cropped) observation

    def __post_init__(self):
        if self.m1 < 1 or self.m2 < 1:
            raise ValueError("kernel sizes must be >= 1")
        if self.alpha < 0 or self.lam < 0:
            raise ValueError("alpha and lam must be nonnegative")
        if self.s1 is None:
            self.s1 = math.ceil(1.5 * self.m1)
        if self.s2 is None:
            self.s2 = math.ceil(1.5 * self.m2)

    def filter(self):
        return get_filter(self.feature, self.log_sigma)


@dataclass(frozen=True)
class DeblurResult:
    image: np.ndarray
    kernel: np.ndarray
    trace: list             # accepted objective values, one per outer iteration
    iterations: int
    converged: bool


def kstep(b, img, hess, alpha, tol=1e-8, max_iter=10000, x0=None, crop=False):
    """Kernel update: min ||vec(B) - A(I) vec(K)||^2 + alpha vec(K)' H vec(K)
    over the simplex.

    crop=False: B is the full-convolution output of img; the Gram matrix and
    adjoint product of A(I) are formed directly by FFT correlation.
    crop=True: B and img share a shape and only the central window of the
    convolution is observed; the cropped Toeplitz rows are built explicitly
    (desk-scale sizes keep this cheap)."""
    b = as_image(b)
    img = as_image(img)
    m1, m2 = hess.m1, hess.m2
    if crop:
        if b.shape != img.shape:
            raise ValueError("cropped mode requires B and I of equal shape")
        full = (img.shape[0] + m1 - 1, img.shape[1] + m2 - 1)
        s1, s2 = central_window(full, b.shape)
        a = toeplitz(img, m1, m2).reshape(full[0], full[1], m1 * m2)
        a = a[s1, s2].reshape(b.size, m1 * m2)
        q = a.T @ a
        c = -2.0 * (a.T @ b.ravel())
    else:
        if b.shape != (img.shape[0] + m1 - 1, img.shape[1] + m2 - 1):
            raise ValueError("blurry/latent/kernel sizes are inconsistent")
        q = toeplitz_gram(img, m1, m2)
        c = -2.0 * toeplitz_apply_adjoint(img, b, m1, m2)
    q = 0.5 * (q + q.T) + alpha * hess.matrix
    sol = solve_qp(QpProblem(q, c), tol=tol, max_iter=max_iter, x0=x0)
    return devectorize(sol.point, m1, m2), sol


def estimate_kernel(spec, m1, m2, tol=1e-8, max_iter=10000):
    """Direct kernel estimate: minimize h(K) alone over the simplex (no
    latent-image knowledge). Returns (kernel, hessian, qp solution)."""
    hess = build_hessian(spec, m1, m2)
    sol = solve_qp(QpProblem(hess.matrix), tol=tol, max_iter=max_iter)
    return devectorize(sol.point, m1, m2), hess, sol


def blind_objective(b, img, k, lam, alpha, hess, crop=False):
    pred = conv2d_full(img, k)
    if crop:
        s1, s2 = central_window(pred.shape, b.shape)
        pred = pred[s1, s2]
    resid = b - pred
    return float(np.sum(resid * resid)) + lam * total_variation(img) \
        + alpha * h_value(hess, k)


def blind_deblur(b, cfg, spectrum=None, hessian=None):
    """Alternating minimization for the full blind problem.

    The latent image is initialized from the observed blurry image (its
    central crop at the latent size); iterations run until the kernel and
    objective both stall, not for a fixed small count. An outer iteration
    whose objective rises above the previous one ends the run unconverged,
    with the previous iterate. The trace holds blind_objective at cfg.lam.

    Each image step takes IMAGE_STEP_ITERS ADMM iterations on the image
    part of blind_objective, resuming from the previous step's solver state.
    With full-convolution data its TV weight starts at LAM_START * lam and
    falls by the factor LAM_DECAY each outer iteration down to lam; the run
    can only stop as converged once the weight is lam.
    """
    b = as_image(b)
    crop = not cfg.assume_full
    if crop:
        shape = b.shape
    else:
        shape = (b.shape[0] - cfg.m1 + 1, b.shape[1] - cfg.m2 + 1)
        if shape[0] < 1 or shape[1] < 1:
            raise ValueError("image smaller than the kernel")
    img = b[central_window(b.shape, shape)].copy()
    if spectrum is None:
        spectrum = conv_spectrum(b, cfg.filter(), cfg.s1, cfg.s2,
                                 method=cfg.spectrum_method)
    hess = hessian if hessian is not None else build_hessian(spectrum, cfg.m1, cfg.m2)
    k = np.full((cfg.m1, cfg.m2), 1.0 / (cfg.m1 * cfg.m2))
    trace = []
    prev_obj = None
    converged = False
    it = 0
    state = None
    lam_factor = 1.0
    for it in range(1, cfg.max_outer + 1):
        k_new, _ = kstep(b, img, hess, cfg.alpha, tol=cfg.qp_tol,
                         max_iter=cfg.qp_max_iter, x0=vectorize(k), crop=crop)
        if not crop:
            lam_factor = max(1.0, LAM_START * LAM_DECAY ** (it - 1))
        tv_cfg = TvSolverConfig(lam=cfg.lam * lam_factor,
                                max_inner=IMAGE_STEP_ITERS, tol=0.0)
        # the first call starts from the central window that img holds
        res = tv_deconv(b, k_new, tv_cfg, assume_full=cfg.assume_full,
                        state=state)
        img_new = res.image
        obj = blind_objective(b, img_new, k_new, cfg.lam, cfg.alpha, hess,
                              crop=crop)
        if prev_obj is not None and obj > prev_obj + OBJECTIVE_SLACK * max(1.0, abs(prev_obj)):
            # the objective rose: not a descent step, so stop unconverged
            # and keep the previous (better) iterate
            it -= 1
            break
        k_change = float(np.linalg.norm(k_new - k))
        k, img, state = k_new, img_new, res.state
        trace.append(obj)
        if prev_obj is not None:
            rel = abs(prev_obj - obj) / max(abs(prev_obj), 1e-30)
            if (k_change < cfg.k_tol and rel < cfg.obj_rel_tol
                    and lam_factor == 1.0):
                converged = True
                break
        prev_obj = obj
    return DeblurResult(img, k, trace, it, converged)


def impulse_distance(k):
    """Frobenius distance from k to the nearest single-impulse kernel."""
    k = as_image(k)
    return float(np.sqrt(max(np.sum(k * k) - 2.0 * k.max() + 1.0, 0.0)))


def alpha_sweep(b, cfg, alphas, spectrum=None, hessian=None, feature_sharpness=True):
    """Run blind_deblur per alpha; report distance of the estimated kernel
    from an impulse and the restored image's sharpness, exposing the
    no-blur threshold."""
    if len(alphas) == 0:
        raise ValueError("alpha list is empty")
    b = as_image(b)
    if spectrum is None:
        spectrum = conv_spectrum(b, cfg.filter(), cfg.s1, cfg.s2,
                                 method=cfg.spectrum_method)
    if hessian is None:
        hessian = build_hessian(spectrum, cfg.m1, cfg.m2)
    rows = []
    for a in alphas:
        c = copy.deepcopy(cfg)
        c.alpha = float(a)
        res = blind_deblur(b, c, spectrum=spectrum, hessian=hessian)
        row = {
            "alpha": float(a),
            "impulse_distance": impulse_distance(res.kernel),
            "iterations": res.iterations,
            "converged": res.converged,
            "objective": res.trace[-1] if res.trace else float("nan"),
            "result": res,
        }
        if feature_sharpness:
            spec_i = conv_spectrum(res.image, cfg.filter(), cfg.s1, cfg.s2,
                                   method=cfg.spectrum_method)
            row["sharpness"] = spec_i.sigma_min
        rows.append(row)
    return rows
