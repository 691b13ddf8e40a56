"""Benchmark workloads: case generation, the timed operation, output checks.

Each workload turns (name, seed) into a pool of cases with
``convdeblur.synth`` during setup; the timed operation hands the library only
arrays. Library functions are called through their module
(``spectral.conv_spectrum``, ``blind.blind_deblur``) so that the traced run's
wrappers, installed on those module globals, see the calls.

Sizes are scaled down from the acceptance criteria so that one run of
``--seconds`` holds enough operations for a steady median.
"""

from dataclasses import dataclass

import numpy as np

from convdeblur import blind, features, metrics, spectral, synth, tensorops
from convdeblur.regularizer import build_hessian

LOG = features.make_log(1.0)
# criterion 7's lower noise level: ||LoG(noise)||_F = 0.01 * sigma_min(I0)
NOISE_RATIO = 0.01
# criteria 6/7 kernel families
FAMILIES = (("gaussian", {"sigma": 1.8}),
            ("motion-line", {"angle": 30.0, "length": 7}),
            ("random-sparse", {}),
            ("curve", {}))
# quality gates, from criteria 9 and 10
MIN_PSNR_GAIN_DB = 2.0
MAX_DIST_BELOW = 0.05
MIN_DIST_ABOVE = 0.3


@dataclass(frozen=True)
class Case:
    blurry: np.ndarray
    sharp: np.ndarray
    kernel: np.ndarray
    sigma_min_sharp: float
    eps: float
    spectrum: object = None      # built in setup for the blind workloads
    hessian: object = None


def _seeds(tag, seed, n):
    return [int(x) for x in np.random.SeedSequence([tag, seed]).generate_state(n)]


def _blind_case(sharp, kernel, m, s, noise_seed, crop=None):
    """Blur with criterion-7 noise, optionally crop to the sharp image's
    size, and build the gram spectrum and Hessian that every op reuses."""
    sigma_min = spectral.conv_spectrum(sharp, LOG, s, s,
                                       method="gram").sigma_min
    eps = NOISE_RATIO * sigma_min
    b, _ = synth.synth_blur(sharp, kernel, eps=eps, seed=noise_seed, f=LOG)
    if crop is not None:
        b = b[crop:crop + sharp.shape[0], crop:crop + sharp.shape[1]].copy()
    spec = spectral.conv_spectrum(b, LOG, s, s, method="gram")
    return Case(b, sharp, kernel, sigma_min, eps, spec,
                build_hessian(spec, m, m))


class Estimate:
    """Kernel from the blurry image alone: LoG spectrum by the library's
    default method (svd), then the simplex QP on the regularizer.

    The scenes are fixed and the seed draws the noise: with images drawn
    from the seed, the curve family's error alone moves the pool's mean
    kernel error by about 10% from seed to seed."""

    tag = 1

    def __init__(self, smoke=False):
        self.size, self.m, self.s = (24, 3, 5) if smoke else (128, 9, 14)
        # criteria 6/7's images; their kernels share the image's seed
        self.image_seeds = (0,) if smoke else (0, 1)
        self.families = FAMILIES[:1] if smoke else FAMILIES

    def setup(self, seed):
        cases = []
        noise_seeds = _seeds(self.tag, seed, len(self.image_seeds))
        for img_seed, noise_seed in zip(self.image_seeds, noise_seeds):
            sharp = synth.make_test_image("polygons", self.size, seed=img_seed)
            sigma_min = spectral.conv_spectrum(sharp, LOG, self.s, self.s,
                                               method="gram").sigma_min
            for family, params in self.families:
                k0 = synth.make_kernel(family, self.m, params, seed=img_seed)
                for eps in (0.0, NOISE_RATIO * sigma_min):
                    b, _ = synth.synth_blur(sharp, k0, eps=eps,
                                            seed=noise_seed, f=LOG)
                    cases.append(Case(b, sharp, k0, sigma_min, eps))
        return cases

    def op(self, case):
        spec = spectral.conv_spectrum(case.blurry, LOG, self.s, self.s)
        k, _, _ = blind.estimate_kernel(spec, self.m, self.m)
        return k, spec

    def check(self, case, out):
        """Quality numbers and the list of failed checks."""
        k, spec = out
        tensorops.validate_kernel(k)
        err = synth.kernel_error(k, case.kernel)
        bound = metrics.noisy_error_bound(spec.sigma_max, spec.sigma_min,
                                          case.sigma_min_sharp, self.s,
                                          self.s, case.eps)
        failed = [] if err <= bound else [f"kernel error {err} > bound {bound}"]
        return {"kernel_err": err}, failed

    @staticmethod
    def kernels(out):
        return [out[0]]


class BlindFull:
    """Criterion 9's scene (polygons seed 7, curve kernel seed 1), scaled
    down: full-convolution data, fixed alpha, fixed outer-iteration count."""

    tag = 2

    def __init__(self, smoke=False):
        self.size, self.m, self.s = (32, 3, 5) if smoke else (80, 9, 14)
        self.cfg = blind.DeblurConfig(
            m1=self.m, m2=self.m, s1=self.s, s2=self.s, alpha=1e-2,
            lam=0.0015, max_outer=3 if smoke else 30, spectrum_method="gram")

    def setup(self, seed):
        sharp = synth.make_test_image("polygons", self.size, seed=7)
        k0 = synth.make_kernel("curve", self.m, {}, seed=1)
        return [_blind_case(sharp, k0, self.m, self.s,
                            _seeds(self.tag, seed, 1)[0])]

    def op(self, case):
        return blind.blind_deblur(case.blurry, self.cfg,
                                  spectrum=case.spectrum,
                                  hessian=case.hessian)

    def check(self, case, res):
        tensorops.validate_kernel(res.kernel)
        o = (self.m - 1) // 2
        n = case.sharp.shape[0]
        blurry = case.blurry[o:o + n, o:o + n]
        gain = (metrics.psnr(res.image, case.sharp)
                - metrics.psnr(blurry, case.sharp))
        err = synth.kernel_error(res.kernel, case.kernel)
        bound = metrics.noisy_error_bound(
            case.spectrum.sigma_max, case.spectrum.sigma_min,
            case.sigma_min_sharp, self.s, self.s, case.eps)
        failed = []
        if gain < MIN_PSNR_GAIN_DB:
            failed.append(f"PSNR gain {gain} dB < {MIN_PSNR_GAIN_DB}")
        if err > bound:
            failed.append(f"kernel error {err} > bound {bound}")
        return {"kernel_err": err, "psnr_gain_db": gain}, failed

    @staticmethod
    def kernels(res):
        return [res.kernel]


class BlindCropped:
    """Criterion 10's model: a same-size crop of a gaussian blur, probed at
    one alpha below and one above the no-blur threshold."""

    tag = 3
    alphas = (1e-8, 1e-5)

    def __init__(self, smoke=False):
        self.size, self.m, self.s = (32, 5, 8) if smoke else (64, 5, 8)
        self.cfgs = [blind.DeblurConfig(
            m1=self.m, m2=self.m, s1=self.s, s2=self.s, alpha=a, lam=0.0015,
            max_outer=2 if smoke else 5, assume_full=False,
            spectrum_method="gram") for a in self.alphas]

    def setup(self, seed):
        sharp = synth.make_test_image("polygons", self.size, seed=3)
        k0 = synth.make_kernel("gaussian", self.m, {"sigma": 0.8})
        return [_blind_case(sharp, k0, self.m, self.s,
                            _seeds(self.tag, seed, 1)[0],
                            crop=(self.m - 1) // 2)]

    def op(self, case):
        return [blind.blind_deblur(case.blurry, cfg, spectrum=case.spectrum,
                                   hessian=case.hessian) for cfg in self.cfgs]

    def check(self, case, runs):
        for r in runs:
            tensorops.validate_kernel(r.kernel)
        below, above = (blind.impulse_distance(r.kernel) for r in runs)
        failed = []
        if not below < MAX_DIST_BELOW:
            failed.append(f"distance below threshold {below} >= "
                          f"{MAX_DIST_BELOW}")
        if not above > MIN_DIST_ABOVE:
            failed.append(f"distance above threshold {above} <= "
                          f"{MIN_DIST_ABOVE}")
        # quality is judged on the run above the threshold only
        gain = (metrics.psnr(runs[1].image, case.sharp)
                - metrics.psnr(case.blurry, case.sharp))
        return {"kernel_err": synth.kernel_error(runs[1].kernel, case.kernel),
                "psnr_gain_db": gain, "dist_below": below,
                "dist_above": above}, failed

    @staticmethod
    def kernels(runs):
        return [r.kernel for r in runs]


WORKLOADS = {"estimate": Estimate, "blind-full": BlindFull,
             "blind-cropped": BlindCropped}
