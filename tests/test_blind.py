import dataclasses
import tracemalloc

import numpy as np
import pytest

from convdeblur import blind
from convdeblur.blind import (DeblurConfig, alpha_sweep, blind_deblur,
                              blind_objective, estimate_kernel,
                              impulse_distance, kstep, sample_size)
from convdeblur.features import make_log
from convdeblur.metrics import psnr
from convdeblur.regularizer import RegularizerHessian, build_hessian
from convdeblur.spectral import conv_spectrum
from convdeblur.synth import kernel_error, make_kernel, make_test_image, synth_blur
from convdeblur.tensorops import (Observation, central_window, conv2d_full,
                                  toeplitz, vectorize)


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
        k, sol = kstep(Observation(b, (5, 5), True), img, hess, alpha=0.0)
        assert sol.converged
        assert np.linalg.norm(k - k0) < 1e-5

    def test_fft_gram_matches_explicit_toeplitz(self, case):
        img, k0, b, _, hess = case
        k_fast, _ = kstep(Observation(b, (5, 5), True), img, hess, alpha=0.1)
        a = toeplitz(img, 5, 5)
        from convdeblur.simplex_qp import QpProblem, solve_qp
        q = a.T @ a + 0.1 * hess.matrix
        c = -2.0 * (a.T @ b.ravel())
        sol = solve_qp(QpProblem(0.5 * (q + q.T), c))
        assert np.linalg.norm(vectorize(k_fast) - sol.point) < 1e-6

    def test_cropped_gram_matches_explicit_toeplitz(self, case, monkeypatch):
        # the QP of a cropped kstep, the FFT Gram less the frame's rows, is
        # that of the explicit Toeplitz rows of the window: on the fixture;
        # with an even kernel, whose frame is a row and a column wider on
        # the far side; with a non-square kernel and image; and with a
        # kernel longer than the image along one axis
        img, k0, _, _, hess = case
        rng = np.random.default_rng(4)
        inputs = [(img, k0, hess)]
        for xs, ks in (((48, 48), (4, 4)), ((20, 13), (5, 3)),
                       ((7, 9), (9, 6))):
            x = img if xs == img.shape else rng.random(xs)
            eye = RegularizerHessian(*ks, np.eye(ks[0] * ks[1]))
            inputs.append((x, rng.random(ks), eye))
        problems = []
        real = blind.solve_qp
        monkeypatch.setattr(blind, "solve_qp",
                            lambda p, **kw: problems.append(p) or real(p, **kw))
        for x, k, h in inputs:
            m = h.m1 * h.m2
            grid = (x.shape[0] + h.m1 - 1, x.shape[1] + h.m2 - 1)
            window = central_window(grid, x.shape)
            b = conv2d_full(x, k)[window]
            kstep(Observation(b, (h.m1, h.m2), False), x, h, alpha=0.1)
            a = toeplitz(x, h.m1, h.m2).reshape(grid + (m,))[window]
            a = a.reshape(-1, m)
            q = a.T @ a + 0.1 * h.matrix
            c = -2.0 * (a.T @ b.ravel())
            p = problems.pop()
            assert np.linalg.norm(p.q - q) <= 1e-12 * np.linalg.norm(q)
            assert np.linalg.norm(p.c - c) <= 1e-12 * np.linalg.norm(c)

    def test_only_the_frame_rows_are_streamed(self, case, monkeypatch):
        # a cropped kstep streams the Toeplitz rows of the grid outside the
        # window, 52^2 - 48^2 of them; with full data there is no frame
        img, _, b, _, hess = case
        streamed = []
        real = blind.toeplitz_row_blocks

        def counting(*args, **kwargs):
            for blk in real(*args, **kwargs):
                streamed.append(len(blk))
                yield blk
        monkeypatch.setattr(blind, "toeplitz_row_blocks", counting)
        kstep(Observation(b, (5, 5), True), img, hess, alpha=0.1)
        assert streamed == []
        kstep(Observation(b[2:50, 2:50], (5, 5), False), img, hess, alpha=0.1)
        assert sum(streamed) == 52 * 52 - 48 * 48

    def test_cropped_memory_is_independent_of_operator_size(self):
        # the explicit 268^2 x 169 Toeplitz matrix alone would take 97 MB
        img = make_test_image("polygons", 256, seed=1)
        k0 = make_kernel("gaussian", 13, {"sigma": 2.0})
        b = synth_blur(img, k0)[0][6:262, 6:262]
        hess = build_hessian(conv_spectrum(b, make_log(1.0), 20, 20), 13, 13)
        tracemalloc.start()
        try:
            kstep(Observation(b, (13, 13), False), img, hess, alpha=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_cropped_mode_identity_fit(self, case):
        # with a same-size observation equal to the latent, the impulse fits
        img, _, _, _, hess = case
        k, _ = kstep(Observation(img, (5, 5), False), img, hess, alpha=0.0)
        assert impulse_distance(k) < 1e-4

    def test_size_mismatch_rejected(self, case):
        # the observation's latent shape must be I's: a B one row short of
        # the full convolution of I, or of I's size when cropped, is neither
        img, _, b, _, hess = case
        with pytest.raises(ValueError, match="inconsistent"):
            kstep(Observation(b[:-1], (5, 5), True), img, hess, 0.0)
        with pytest.raises(ValueError, match="inconsistent"):
            kstep(Observation(img[:-1], (5, 5), False), img, hess, 0.0)

    def test_other_latent_or_kernel_shape_rejected(self, case):
        # an image of another latent shape than the observation's, or a
        # Hessian of another kernel size than it was made for
        img, _, b, _, hess = case
        for full, obs_b in ((True, b), (False, b[2:50, 2:50])):
            obs = Observation(obs_b, (5, 5), full)
            with pytest.raises(ValueError, match="inconsistent"):
                kstep(obs, img[:, :-1], hess, 0.0)
            with pytest.raises(ValueError, match="inconsistent"):
                kstep(obs, np.pad(img, 1), hess, 0.0)
        # a 3 x 3 kernel's latent has the 50 x 50 shape of np.pad(img, 1)
        with pytest.raises(ValueError, match="inconsistent"):
            kstep(Observation(b, (3, 3), True), np.pad(img, 1), hess, 0.0)

    def test_one_by_one_kernel_models_agree(self, case, monkeypatch):
        # with m = 1 x 1 the full convolution has I's size: both data models
        # are the same problem, that of the explicit Toeplitz column
        img, _, _, spec, _ = case
        b = 0.5 * img + 0.01
        problems = []
        real = blind.solve_qp
        monkeypatch.setattr(blind, "solve_qp",
                            lambda p, **kw: problems.append(p) or real(p, **kw))
        for full in (True, False):
            kstep(Observation(b, (1, 1), full), img, build_hessian(spec, 1, 1),
                  alpha=0.0)
        p, p_cropped = problems
        assert np.array_equal(p.q, p_cropped.q)
        assert np.array_equal(p.c, p_cropped.c)
        assert np.isclose(p.q[0, 0], np.sum(img * img), rtol=1e-12)
        assert np.isclose(p.c[0], -2.0 * np.sum(img * b), rtol=1e-12)


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
        obj = blind_objective(Observation(b, (5, 5), True), res.image,
                              res.kernel, cfg.lam, cfg.alpha, hess)
        assert np.isclose(obj, res.trace[-1], rtol=1e-10)

    def test_objective_rejects_what_does_not_fit(self, case):
        # the true image and kernel fit B; an image padded by one pixel, or
        # a kernel of another size than the observation's, does not, and
        # used to give a finite objective (8.05 for either case here)
        img, k0, b, _, hess = case
        obs = Observation(b, (5, 5), True)
        assert blind_objective(obs, img, k0, 0.0, 0.0, hess) < 1e-20
        with pytest.raises(ValueError, match="inconsistent"):
            blind_objective(obs, np.pad(img, 1), k0, 0.0, 0.0, hess)
        # np.pad(img, 1) is the latent of a 3 x 3 kernel's observation
        obs3 = Observation(b, (3, 3), True)
        with pytest.raises(ValueError, match="inconsistent"):
            blind_objective(obs3, np.pad(img, 1), k0, 0.0, 0.0, hess)

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
        obj = blind_objective(Observation(b, (5, 5), True), res.image,
                              res.kernel, cfg.lam, cfg.alpha, hess)
        assert np.isclose(obj, res.trace[-1], rtol=1e-10)

    @pytest.mark.parametrize("alpha, max_outer, rise_at, iterations", [
        (100.0, 150, None, 13),     # converges
        (0.01, 3, None, 3),         # stops at max_outer
        (0.01, 10, 3, 2),           # the objective rises at iteration 3
    ])
    def test_iterations_count_the_trace(self, case, monkeypatch, alpha,
                                        max_outer, rise_at, iterations):
        _, _, b, _, hess = case
        real = blind.blind_objective
        calls = []

        def objective(*args):
            calls.append(args)
            return real(*args) + (1e3 if len(calls) == rise_at else 0.0)

        monkeypatch.setattr(blind, "blind_objective", objective)
        cfg = DeblurConfig(m1=5, m2=5, s1=8, s2=8, alpha=alpha,
                           max_outer=max_outer, spectrum_method="gram")
        res = blind_deblur(b, cfg, hessian=hess)
        assert res.iterations == len(res.trace) == iterations
        assert res.converged is (iterations < max_outer and rise_at is None)

    def test_zero_lam_runs_the_image_step(self):
        # at lam = 0 the image step is still the ADMM, with carried state:
        # the inverse filter of a lone first step ended this run after one
        # outer iteration
        img = make_test_image("polygons", 48, seed=0)
        b, _ = synth_blur(img, make_kernel("gaussian", 5, {"sigma": 1.0}))
        res = blind_deblur(b, DeblurConfig(m1=5, m2=5, alpha=0.01, lam=0.0,
                                           max_outer=40))
        assert res.iterations > 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DeblurConfig(m1=0, m2=5)
        with pytest.raises(ValueError):
            DeblurConfig(m1=5, m2=5, alpha=-1.0)
        # NaN fails no comparison; it and inf are rejected where they are set
        for bad in ({"alpha": np.nan}, {"alpha": np.inf}, {"lam": np.nan},
                    {"lam": np.inf}):
            with pytest.raises(ValueError, match="nonnegative and finite"):
                DeblurConfig(m1=5, m2=5, **bad)
        # with a Hessian given, a run reads neither the method nor the
        # filter: they are checked here, not at a later sweep's spectrum
        with pytest.raises(ValueError, match="unknown spectrum method"):
            DeblurConfig(m1=5, m2=5, spectrum_method="bogus")
        with pytest.raises(ValueError, match="NaN"):
            DeblurConfig(m1=5, m2=5, f=np.full((3, 3), np.nan))
        with pytest.raises(ValueError, match="2D"):
            DeblurConfig(m1=5, m2=5, f=np.ones(3))
        with pytest.raises(ValueError, match="sampling sizes"):
            DeblurConfig(m1=5, m2=5, s1=0)
        with pytest.raises(ValueError, match="max_outer"):
            DeblurConfig(m1=5, m2=5, max_outer=0)

    def test_spectrum_built_only_for_a_missing_hessian(self, case,
                                                       monkeypatch):
        # a given Hessian is used as is; without one the spectrum is built
        # once per call, and alpha_sweep's runs share its Hessian
        _, _, b, _, hess = case
        calls = []
        real = blind.conv_spectrum
        monkeypatch.setattr(blind, "conv_spectrum",
                            lambda *a, **kw: calls.append(a) or real(*a, **kw))
        cfg = DeblurConfig(m1=5, m2=5, s1=8, s2=8, max_outer=1,
                           spectrum_method="gram")
        blind_deblur(b, cfg, hessian=hess)
        assert calls == []
        blind_deblur(b, cfg)
        assert len(calls) == 1
        calls.clear()
        # one spectrum for the Hessian, one per restored image's sharpness
        alpha_sweep(b, cfg, [1e-3, 1e-1])
        assert len(calls) == 3
        calls.clear()
        alpha_sweep(b, cfg, [1e-3, 1e-1], hessian=hess)
        assert len(calls) == 2

    def test_filter_taps_default_and_equality(self):
        # the default is the LoG at sigma 1; configs with array taps compare
        # without raising, on every field but the taps
        cfg = DeblurConfig(m1=5, m2=5)
        assert np.array_equal(cfg.f, make_log(1.0))
        assert cfg == DeblurConfig(m1=5, m2=5)
        assert cfg != DeblurConfig(m1=5, m2=5, alpha=2.0)

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
        _, _, b, _, hess = case
        cfg = DeblurConfig(m1=5, m2=5, s1=8, s2=8, alpha=1.0, max_outer=5,
                           spectrum_method="gram")
        rows = alpha_sweep(b, cfg, [1e-3, 1e-1], hessian=hess)
        assert [r["alpha"] for r in rows] == [1e-3, 1e-1]
        for r in rows:
            assert set(r) >= {"alpha", "impulse_distance", "iterations",
                              "converged", "objective", "sharpness"}

    def test_empty_alphas_rejected(self, case):
        _, _, b, _, hess = case
        cfg = DeblurConfig(m1=5, m2=5, s1=8, s2=8)
        with pytest.raises(ValueError):
            alpha_sweep(b, cfg, [], hessian=hess)

    def test_negative_alpha_rejected_before_any_run(self, case, monkeypatch):
        _, _, b, _, hess = case
        runs = []
        monkeypatch.setattr(blind, "blind_deblur",
                            lambda *args, **kwargs: runs.append(args))
        cfg = DeblurConfig(m1=5, m2=5, s1=8, s2=8)
        with pytest.raises(ValueError, match="nonnegative"):
            alpha_sweep(b, cfg, [0.1, -1.0], hessian=hess)
        assert runs == []


# transpose and 180-degree turn, each with the kernel shape it maps m1 x m2 to
TURNS = {"transpose": (lambda a: a.T, lambda m1, m2: (m2, m1)),
         "rot180": (lambda a: a[::-1, ::-1], lambda m1, m2: (m1, m2))}


class TestEquivariance:
    """Turning B turns the kernel and the image the same way, to rounding.
    Largest deviations measured, and the gates: estimate_kernel 7.3e-13,
    gate 1e-10; blind_deblur on full data 1.1e-12 for the kernel and
    4.4e-11 for the image, gates 5e-9 and 1e-8; on cropped data 6.2e-13
    and 2.2e-11, gate 2e-9 for both. An earlier measurement of the first
    three, 2.0e-12, 6.5e-11 and 1.2e-9, passes too. A transform that mixes
    up its axes misses the gates by orders of magnitude."""

    @pytest.fixture(scope="class")
    def scene(self):
        img = make_test_image("polygons", 64, seed=1)
        k0 = make_kernel("curve", 7, seed=1)[:, 1:6]
        return img, k0 / k0.sum()

    @staticmethod
    def estimate(b, m1, m2):
        spec = conv_spectrum(b, make_log(1.0), sample_size(m1),
                             sample_size(m2))
        return estimate_kernel(spec, m1, m2)[0]

    @pytest.mark.parametrize("turn", TURNS)
    def test_estimate_kernel(self, scene, turn):
        fn, shape = TURNS[turn]
        b = conv2d_full(*scene)
        k = self.estimate(b, 7, 5)
        assert np.abs(self.estimate(fn(b), *shape(7, 5)) - fn(k)).max() < 1e-10
        assert np.abs(self.estimate(3.7 * fn(b), *shape(7, 5))
                      - fn(k)).max() < 1e-10

    # (kernel, image) gates per data model
    @pytest.mark.parametrize("assume_full, gates",
                             [(True, (5e-9, 1e-8)), (False, (2e-9, 2e-9))],
                             ids=["full", "cropped"])
    def test_blind_deblur(self, scene, assume_full, gates):
        img, k0 = scene
        b = conv2d_full(img, k0)
        if not assume_full:
            b = b[central_window(b.shape, img.shape)]

        def run(b, m1, m2):
            return blind_deblur(b, DeblurConfig(m1=m1, m2=m2, alpha=0.01,
                                                max_outer=40,
                                                assume_full=assume_full))
        res = run(b, 7, 5)
        for fn, shape in TURNS.values():
            turned = run(fn(b), *shape(7, 5))
            assert np.abs(turned.kernel - fn(res.kernel)).max() < gates[0]
            assert np.abs(turned.image - fn(res.image)).max() < gates[1]
