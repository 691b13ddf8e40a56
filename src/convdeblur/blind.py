"""Blind deblurring by alternating minimization.

Objective: ||B - I (x) K||_F^2 + lam * TV(I) + alpha * h(K) over kernels on
the simplex. The kernel regularizer h is the image-dependent quadratic form
built from the blurry image's convolution spectrum; it is built once per run
since it depends only on B. The kernel step is a simplex-constrained QP, the
image step is TV deconvolution.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .features import get_filter
from .regularizer import build_hessian, h_value
from .simplex_qp import QpProblem, solve_qp
from .spectral import conv_spectrum
from .tensorops import (Observation, _fft_conv_full, as_image, devectorize,
                        toeplitz_apply_adjoint, toeplitz_gram,
                        toeplitz_row_blocks, vectorize)
# Not used here: the traced benchmark run (perfbench/tracing.py) wraps these
# names and requires them to exist.
from .tensorops import conv2d_full, toeplitz  # noqa: F401
from .tv import TvSolverConfig, total_variation, tv_deconv

OBJECTIVE_SLACK = 1e-6
# blind_deblur converges once the kernel moves by less than K_TOL (Frobenius)
# and the objective by less than OBJ_REL_TOL relative, in one outer iteration
K_TOL = 1e-6
OBJ_REL_TOL = 1e-8
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


def sample_size(m, s=None):
    """Spectrum probe size for a kernel of size m: s, or ceil(1.5 m) when s
    is None."""
    return math.ceil(1.5 * m) if s is None else s


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
    spectrum_method: str = "gram"
    assume_full: bool = True    # False: B is a same-size (cropped) observation

    def __post_init__(self):
        if self.m1 < 1 or self.m2 < 1:
            raise ValueError("kernel sizes must be >= 1")
        if not (0 <= self.alpha < math.inf and 0 <= self.lam < math.inf):
            raise ValueError("alpha and lam must be nonnegative and finite")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")
        if self.spectrum_method not in ("svd", "gram"):
            raise ValueError(f"unknown spectrum method {self.spectrum_method!r}")
        self.filter()   # an unknown feature or a bad log_sigma raises here
        self.s1 = sample_size(self.m1, self.s1)
        self.s2 = sample_size(self.m2, self.s2)
        if self.s1 < 1 or self.s2 < 1:
            raise ValueError("sampling sizes must be >= 1")

    def filter(self):
        return get_filter(self.feature, self.log_sigma)


@dataclass(frozen=True)
class DeblurResult:
    image: np.ndarray
    kernel: np.ndarray
    trace: list             # accepted objective values, one per outer iteration
    iterations: int         # len(trace)
    converged: bool


def kstep(obs, img, hess, alpha, x0=None):
    """Kernel update: min ||vec(B) - W A(I) vec(K)||^2 + alpha vec(K)' H vec(K)
    over the simplex, B and its window W given by the Observation obs, whose
    latent and kernel shapes img and hess must have.

    Q is the FFT Gram of A(I) minus the Gram of the Toeplitz rows of obs's
    frame (summed over blocks: a perimeter's worth, none for full data); c
    is the FFT adjoint of obs's zero-embedded B."""
    img, (m1, m2) = as_image(img), obs.k_shape
    obs.check(img.shape, (hess.m1, hess.m2))
    q = toeplitz_gram(img, m1, m2)
    for blk in toeplitz_row_blocks(img, m1, m2, obs.frame):
        q -= blk.T @ blk
    c = -2.0 * toeplitz_apply_adjoint(img, obs.embedded, m1, m2)
    q = 0.5 * (q + q.T) + alpha * hess.matrix
    sol = solve_qp(QpProblem(q, c), x0=x0)
    return devectorize(sol.point, m1, m2), sol


def estimate_kernel(spec, m1, m2):
    """Direct kernel estimate: minimize h(K) alone over the simplex (no
    latent-image knowledge). Returns (kernel, hessian, qp solution)."""
    hess = build_hessian(spec, m1, m2)
    sol = solve_qp(QpProblem(hess.matrix))
    return devectorize(sol.point, m1, m2), hess, sol


def blind_objective(obs, img, k, lam, alpha, hess):
    """The objective at (img, k), B matched to its window of img (x) k."""
    obs.check(img.shape, k.shape)
    resid = obs.b - _fft_conv_full(img, k)[obs.window]
    return float(np.sum(resid * resid)) + lam * total_variation(img) \
        + alpha * h_value(hess, k)


def _hessian(b, cfg, spectrum, hessian):
    """The kernel regularizer's Hessian: hessian if given, else built from
    spectrum, else from B's own spectrum under cfg."""
    if hessian is not None:
        return hessian
    if spectrum is None:
        spectrum = conv_spectrum(b, cfg.filter(), cfg.s1, cfg.s2,
                                 method=cfg.spectrum_method)
    return build_hessian(spectrum, cfg.m1, cfg.m2)


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
    obs = Observation(b, (cfg.m1, cfg.m2), cfg.assume_full)
    img = obs.start
    hess = _hessian(obs.b, cfg, spectrum, hessian)
    k = np.full((cfg.m1, cfg.m2), 1.0 / (cfg.m1 * cfg.m2))
    trace = []
    converged = False
    state = None
    lam_factor = 1.0
    for it in range(1, cfg.max_outer + 1):
        k_new, _ = kstep(obs, img, hess, cfg.alpha, x0=vectorize(k))
        if cfg.assume_full:
            lam_factor = max(1.0, LAM_START * LAM_DECAY ** (it - 1))
        tv_cfg = TvSolverConfig(lam=cfg.lam * lam_factor,
                                max_inner=IMAGE_STEP_ITERS, tol=0.0)
        # the first call starts from obs.start, as img does
        res = tv_deconv(obs.b, k_new, tv_cfg, assume_full=cfg.assume_full,
                        state=state)
        img_new = res.image
        obj = blind_objective(obs, img_new, k_new, cfg.lam, cfg.alpha, hess)
        if trace and obj > trace[-1] + OBJECTIVE_SLACK * max(1.0, abs(trace[-1])):
            # the objective rose: not a descent step, so stop unconverged
            # and keep the previous (better) iterate
            break
        k_change = float(np.linalg.norm(k_new - k))
        k, img, state = k_new, img_new, res.state
        trace.append(obj)
        if len(trace) > 1:
            rel = abs(trace[-2] - obj) / max(abs(trace[-2]), 1e-30)
            if k_change < K_TOL and rel < OBJ_REL_TOL and lam_factor == 1.0:
                converged = True
                break
    return DeblurResult(img, k, trace, len(trace), converged)


def impulse_distance(k):
    """Frobenius distance from k to the nearest single-impulse kernel."""
    k = as_image(k)
    return float(np.sqrt(max(np.sum(k * k) - 2.0 * k.max() + 1.0, 0.0)))


def alpha_sweep(b, cfg, alphas, spectrum=None, hessian=None):
    """Run blind_deblur per alpha, each replacing cfg.alpha; report distance
    of the estimated kernel from an impulse and the restored image's
    sharpness, exposing the no-blur threshold."""
    if len(alphas) == 0:
        raise ValueError("alpha list is empty")
    cfgs = [replace(cfg, alpha=float(a)) for a in alphas]
    b = as_image(b)
    hessian = _hessian(b, cfg, spectrum, hessian)
    rows = []
    for c in cfgs:
        res = blind_deblur(b, c, hessian=hessian)
        spec_i = conv_spectrum(res.image, cfg.filter(), cfg.s1, cfg.s2,
                               method=cfg.spectrum_method)
        rows.append({
            "alpha": c.alpha,
            "impulse_distance": impulse_distance(res.kernel),
            "sharpness": spec_i.sigma_min,
            "iterations": res.iterations,
            "converged": res.converged,
            "objective": res.trace[-1],
            "result": res,
        })
    return rows
