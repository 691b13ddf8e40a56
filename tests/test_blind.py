import dataclasses

import numpy as np
import pytest

from convdeblur import blind
from convdeblur.blind import (DeblurConfig, alpha_sweep, blind_deblur,
                              blind_objective, estimate_kernel,
                              impulse_distance, kstep)
from convdeblur.features import make_log
from convdeblur.metrics import psnr
from convdeblur.regularizer import build_hessian
from convdeblur.spectral import conv_spectrum
from convdeblur.synth import kernel_error, make_kernel, make_test_image, synth_blur
from convdeblur.tensorops import toeplitz, vectorize


@pytest.fixture(scope="module")
def case():
    img = make_test_image("polygons", 48, seed=1)
    k0 = make_kernel("gaussian", 5, {"sigma": 1.0})
    b, _ = synth_blur(img, k0)
    spec = conv_spectrum(b, make_log(1.0), 8, 8, method="gram")
    hess = build_hessian(spec, 5, 5)
    return img, k0, b, spec, hess


class TestKstep:
    def test_recovers_kernel_given_sharp_image(self, case):
        # alpha=0 with the true latent image: the data term alone pins K
        img, k0, b, _, hess = case
        k, sol = kstep(b, img, hess, alpha=0.0, tol=1e-10)
        assert sol.converged
        assert np.linalg.norm(k - k0) < 1e-5

    def test_fft_gram_matches_explicit_toeplitz(self, case):
        img, k0, b, _, hess = case
        k_fast, _ = kstep(b, img, hess, alpha=0.1)
        a = toeplitz(img, 5, 5)
        from convdeblur.simplex_qp import QpProblem, solve_qp
        q = a.T @ a + 0.1 * hess.matrix
        c = -2.0 * (a.T @ b.ravel())
        sol = solve_qp(QpProblem(0.5 * (q + q.T), c))
        assert np.linalg.norm(vectorize(k_fast) - sol.point) < 1e-6

    def test_cropped_mode_identity_fit(self, case):
        # with a same-size observation equal to the latent, the impulse fits
        img, _, _, _, hess = case
        k, _ = kstep(img, img, hess, alpha=0.0, crop=True)
        assert impulse_distance(k) < 1e-4

    def test_size_mismatch_rejected(self, case):
        img, _, b, _, hess = case
        with pytest.raises(ValueError):
            kstep(b[:-1], img, hess, 0.0)
        with pytest.raises(ValueError):
            kstep(b, img, hess, 0.0, crop=True)


class TestEstimateKernel:
    def test_blind_estimate_close_to_truth(self, case):
        _, k0, _, spec, _ = case
        k, hess, sol = estimate_kernel(spec, 5, 5)
        assert sol.converged
        assert kernel_error(k, k0) < 0.3

    def test_kernel_on_simplex(self, case):
        _, _, _, spec, _ = case
        k, _, _ = estimate_kernel(spec, 5, 5)
        assert np.all(k >= 0)
        assert np.isclose(k.sum(), 1.0, atol=1e-9)


class TestBlindDeblur:
    def test_improves_psnr_and_kernel(self, case):
        img, k0, b, spec, hess = case
        cfg = DeblurConfig(m1=5, m2=5, s1=8, s2=8, alpha=0.01, lam=0.0015,
                           max_outer=40, spectrum_method="gram")
        res = blind_deblur(b, cfg, spectrum=spec, hessian=hess)
        blur_crop = b[2:50, 2:50]
        assert res.image.shape == img.shape
        assert psnr(res.image, img) > psnr(blur_crop, img)
        assert kernel_error(res.kernel, k0) < impulse_distance(k0)  # beats no-blur
        assert np.all(res.kernel >= 0)
        assert np.isclose(res.kernel.sum(), 1.0, atol=1e-9)

    def test_trace_monotone_nonincreasing(self, case):
        _, _, b, spec, hess = case
        cfg = DeblurConfig(m1=5, m2=5, s1=8, s2=8, alpha=0.01, max_outer=15,
                           spectrum_method="gram")
        res = blind_deblur(b, cfg, spectrum=spec, hessian=hess)
        diffs = np.diff(res.trace)
        assert np.all(diffs <= 1e-6 * np.maximum(1.0, np.abs(res.trace[:-1])))

    def test_objective_consistent_with_trace(self, case):
        _, _, b, spec, hess = case
        cfg = DeblurConfig(m1=5, m2=5, s1=8, s2=8, alpha=0.01, max_outer=10,
                           spectrum_method="gram")
        res = blind_deblur(b, cfg, spectrum=spec, hessian=hess)
        obj = blind_objective(b, res.image, res.kernel, cfg.lam, cfg.alpha, hess)
        assert np.isclose(obj, res.trace[-1], rtol=1e-10)

    def test_iteration_cap_flags(self, case):
        _, _, b, spec, hess = case
        cfg = DeblurConfig(m1=5, m2=5, s1=8, s2=8, alpha=0.01, max_outer=2,
                           spectrum_method="gram")
        res = blind_deblur(b, cfg, spectrum=spec, hessian=hess)
        assert res.iterations <= 2
        if res.iterations == 2 and len(res.trace) == 2:
            assert not res.converged or res.trace[-1] <= res.trace[0]

    def test_objective_rise_is_not_convergence(self, case, monkeypatch):
        # an image step that raises the objective ends the run unconverged,
        # returning the previous iterate, the last one in the trace
        _, _, b, spec, hess = case
        real = blind.tv_deconv
        calls = []

        def worse_third_step(*args, **kwargs):
            res = real(*args, **kwargs)
            calls.append(res)
            if len(calls) == 3:
                return dataclasses.replace(res, image=np.zeros_like(res.image))
            return res

        monkeypatch.setattr(blind, "tv_deconv", worse_third_step)
        cfg = DeblurConfig(m1=5, m2=5, s1=8, s2=8, alpha=0.01, max_outer=10,
                           spectrum_method="gram")
        res = blind_deblur(b, cfg, spectrum=spec, hessian=hess)
        assert len(calls) == 3
        assert res.converged is False
        assert res.iterations == len(res.trace) == 2
        assert res.trace[1] <= res.trace[0]
        obj = blind_objective(b, res.image, res.kernel, cfg.lam, cfg.alpha, hess)
        assert np.isclose(obj, res.trace[-1], rtol=1e-10)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DeblurConfig(m1=0, m2=5)
        with pytest.raises(ValueError):
            DeblurConfig(m1=5, m2=5, alpha=-1.0)

    def test_default_sampling_sizes(self):
        cfg = DeblurConfig(m1=9, m2=9)
        assert cfg.s1 == cfg.s2 == 14


class TestImpulseDistance:
    def test_impulse_is_zero(self):
        k = np.zeros((5, 5))
        k[2, 2] = 1.0
        assert impulse_distance(k) == 0.0

    def test_uniform_kernel(self):
        k = np.full((3, 3), 1.0 / 9.0)
        assert np.isclose(impulse_distance(k), np.sqrt(1.0 / 9.0 - 2.0 / 9.0 + 1.0))


class TestAlphaSweep:
    def test_rows_and_ordering(self, case):
        _, _, b, spec, hess = case
        cfg = DeblurConfig(m1=5, m2=5, s1=8, s2=8, alpha=1.0, max_outer=5,
                           spectrum_method="gram")
        rows = alpha_sweep(b, cfg, [1e-3, 1e-1], spectrum=spec, hessian=hess)
        assert [r["alpha"] for r in rows] == [1e-3, 1e-1]
        for r in rows:
            assert set(r) >= {"alpha", "impulse_distance", "iterations",
                              "converged", "objective", "sharpness"}

    def test_empty_alphas_rejected(self, case):
        _, _, b, spec, hess = case
        cfg = DeblurConfig(m1=5, m2=5, s1=8, s2=8)
        with pytest.raises(ValueError):
            alpha_sweep(b, cfg, [], spectrum=spec, hessian=hess)
