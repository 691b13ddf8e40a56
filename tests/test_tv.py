import dataclasses

import numpy as np
import pytest
from scipy import fft as sfft

from convdeblur import tv
from convdeblur.metrics import psnr
from convdeblur.synth import make_kernel, make_test_image
from convdeblur.tensorops import central_window, conv2d_full, fast_len
from convdeblur.tv import TvSolverConfig, total_variation, tv_deconv


def roll_grad(x):
    """Reference: periodic forward differences by np.roll, stacked."""
    return np.stack([np.roll(x, -1, axis=1) - x, np.roll(x, -1, axis=0) - x])


def roll_grad_adjoint(g):
    return (np.roll(g[0], 1, axis=1) - g[0]) + (np.roll(g[1], 1, axis=0) - g[1])


def fast_grid(b, k, assume_full):
    """b's full-convolution grid padded to 5-smooth sizes, by scipy."""
    full = b.shape if assume_full else np.add(b.shape, k.shape) - 1
    return tuple(sfft.next_fast_len(int(n), real=True) for n in full)


def reference_tv_deconv(b, k, cfg, assume_full=True, state=None, grid=None):
    """Reference: tv_deconv's masked ADMM with every grid variable in real
    space (six transforms per iteration), for lam > 0, on the
    full-convolution grid or on a given larger grid, whose added band is
    observed as zeros. Its state is the tuple (y, K*y, g, uy, uv, ug) of
    real arrays; without one, it starts from b's central window. Returns
    (image, iterations, converged, state).
    """
    m1, m2 = k.shape
    if assume_full:
        full, shape = b.shape, (b.shape[0] - m1 + 1, b.shape[1] - m2 + 1)
    else:
        full, shape = (b.shape[0] + m1 - 1, b.shape[1] + m2 - 1), b.shape
    grid = grid or full
    n1, n2 = shape
    fk = sfft.rfft2(k, s=grid)
    rho, mu = tv.ADMM_PENALTY, tv.DATA_PENALTY
    window = central_window(full, b.shape)
    # observed: b's window and the band past the full-convolution grid
    mask = np.ones(grid)
    mask[:full[0], :full[1]] = 0.0
    mask[window] = 1.0
    b2 = np.zeros(grid)
    b2[window] = 2.0 * b
    v_den = mu + 2.0 * mask
    fk_adj = mu * np.conj(fk)
    y_den = mu * np.abs(fk) ** 2 + rho
    lap = ((2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n1) / n1))[:, None]
           + (2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n2 // 2 + 1) / n2)))
    if state is None:
        img = b[central_window(b.shape, shape)]
        y = np.zeros(grid)
        y[:n1, :n2] = img
        state = (y, sfft.irfft2(fk * sfft.rfft2(y), s=grid), roll_grad(img),
                 np.zeros(grid), np.zeros(grid), np.zeros((2, n1, n2)))
    y, ky, g, uy, uv, ug = state
    img = None
    it = 0
    converged = False
    while it < cfg.max_inner:
        rhs = (y + uy)[:n1, :n2] + roll_grad_adjoint(g + ug)
        new = sfft.irfft2(sfft.rfft2(rhs) / (1.0 + lap), s=shape)
        padded = np.zeros(grid)
        padded[:n1, :n2] = new
        v = (b2 + mu * (ky - uv)) / v_den
        fy = (fk_adj * sfft.rfft2(v + uv)
              + rho * sfft.rfft2(padded - uy)) / y_den
        y = sfft.irfft2(fy, s=grid)
        ky = sfft.irfft2(fk * fy, s=grid)
        gi = roll_grad(new)
        d = gi - ug
        g = d - np.clip(d, -cfg.lam / rho, cfg.lam / rho)
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
    return img, it, converged, (y, ky, g, uy, uv, ug)


def blurred_pair(assume_full, size=32, noise=0.0):
    """A polygon image's blur plus noise, full or cropped to the image size,
    with its kernel and a second kernel of the same size. The
    full-convolution grid is 5-smooth at size 32 and padded from 35 to 36
    at size 31."""
    img = make_test_image("polygons", size, seed=4)
    k = make_kernel("gaussian", 5, {"sigma": 1.0})
    b = conv2d_full(img, k)
    if noise:
        b += noise * np.random.default_rng(0).standard_normal(b.shape)
    if not assume_full:
        b = b[2:-2, 2:-2]
    return b, k, make_kernel("curve", 5, {}, seed=1)


class TestHelpers:
    def test_total_variation_constant_zero(self):
        assert total_variation(np.full((6, 6), 0.3)) == 0.0

    def test_total_variation_known(self):
        img = np.zeros((4, 4))
        img[:, 2:] = 1.0
        # periodic differences: each row crosses the step twice
        assert total_variation(img) == 8.0

    def test_blur_never_increases_tv(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            img = rng.uniform(size=(12, 12))
            k = make_kernel("gaussian", 3, {"sigma": 0.8})
            b = conv2d_full(img, k)
            padded = np.zeros_like(b)
            padded[:12, :12] = img
            assert total_variation(b) <= total_variation(padded) + 1e-9

    def test_gradient_matches_roll(self):
        x = np.random.default_rng(2).uniform(size=(7, 5))
        assert np.array_equal(tv._grad(x), roll_grad(x))
        g = np.random.default_rng(3).uniform(size=(2, 7, 5))
        assert np.allclose(tv._grad_adjoint(g, np.empty((7, 5))),
                           roll_grad_adjoint(g), rtol=0, atol=1e-15)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TvSolverConfig(lam=-1.0)
        with pytest.raises(ValueError):
            TvSolverConfig(max_inner=0)
        with pytest.raises(ValueError, match="tol"):
            TvSolverConfig(tol=-1.0)
        # NaN fails no comparison; it and inf are rejected where they are set
        for key in ("lam", "tol"):
            for bad in (np.nan, np.inf):
                with pytest.raises(ValueError,
                                   match=f"{key} must be nonnegative and fin"):
                    TvSolverConfig(**{key: bad})
        # tol = 0 runs every iteration, as blind_deblur's image steps do
        TvSolverConfig(tol=0.0)


class TestTvDeconv:
    def test_exact_inverse_without_tv(self):
        # lam=0 and a full-convolution observation: restoration is exact,
        # also on a grid padded past the full convolution (35 -> 36)
        for size in (32, 31):
            img = make_test_image("polygons", size, seed=1)
            k = make_kernel("gaussian", 5, {"sigma": 1.2})
            b = conv2d_full(img, k)
            res = tv_deconv(b, k, TvSolverConfig(lam=0.0, max_inner=50))
            assert res.image.shape == img.shape
            assert np.max(np.abs(res.image - img)) < 1e-8

    def test_zero_tol_runs_admm_without_tv(self):
        # tol = 0 runs all max_inner iterations and returns a state to
        # resume from, also at lam = 0, where the inverse filter would not
        img = make_test_image("polygons", 32, seed=1)
        k = make_kernel("gaussian", 5, {"sigma": 1.2})
        res = tv_deconv(conv2d_full(img, k), k,
                        TvSolverConfig(lam=0.0, max_inner=7, tol=0.0))
        assert res.iterations == 7
        assert res.state is not None

    def test_impulse_kernel_identity(self):
        img = make_test_image("bars", 24, seed=0)
        res = tv_deconv(img, np.ones((1, 1)), TvSolverConfig(lam=0.0))
        assert np.allclose(res.image, img, atol=1e-10)

    def test_improves_psnr_on_strong_blur(self):
        img = make_test_image("polygons", 48, seed=5)
        k = make_kernel("curve", 9, {}, seed=2)
        b = conv2d_full(img, k)
        res = tv_deconv(b, k, TvSolverConfig(lam=0.0015, max_inner=400))
        blurry_crop = b[4:52, 4:52]
        assert psnr(res.image, img) > psnr(blurry_crop, img) + 3.0

    def test_cropped_observation_mode(self):
        img = make_test_image("polygons", 48, seed=3)
        k = make_kernel("gaussian", 5, {"sigma": 1.2})
        b = conv2d_full(img, k)[2:50, 2:50]
        res = tv_deconv(b, k, TvSolverConfig(lam=0.0015, max_inner=300),
                        assume_full=False)
        assert res.image.shape == b.shape
        assert psnr(res.image, img) > psnr(b, img)

    def test_warm_start_no_worse(self):
        img = make_test_image("polygons", 32, seed=4)
        k = make_kernel("gaussian", 5, {"sigma": 1.0})
        b = conv2d_full(img, k)
        cfg = TvSolverConfig(lam=0.0015, max_inner=800, tol=1e-4)
        cold = tv_deconv(b, k, cfg)
        warm = tv_deconv(b, k, cfg, state=cold.state)
        assert warm.converged

        def objective(x):
            resid = b - conv2d_full(x, k)
            return float(np.sum(resid * resid)) + cfg.lam * total_variation(x)

        assert objective(warm.image) <= objective(cold.image) * 1.001

    @pytest.mark.parametrize("assume_full", [True, False],
                             ids=["full", "cropped"])
    def test_state_resumes_iteration(self, assume_full):
        # ten iterations, then ten more from the returned state, are the
        # same iterate as twenty in one call, for both data models
        img = make_test_image("polygons", 32, seed=4)
        k = make_kernel("gaussian", 5, {"sigma": 1.0})
        b = conv2d_full(img, k)
        if not assume_full:
            b = b[2:34, 2:34]
        cfg = TvSolverConfig(lam=0.0015, max_inner=10, tol=0.0)
        first = tv_deconv(b, k, cfg, assume_full=assume_full)
        resumed = tv_deconv(b, k, cfg, assume_full=assume_full,
                            state=first.state)
        whole = tv_deconv(b, k, TvSolverConfig(lam=0.0015, max_inner=20,
                                               tol=0.0),
                          assume_full=assume_full)
        assert np.array_equal(resumed.image, whole.image)
        # a state of the problem's own size only
        with pytest.raises(ValueError):
            tv_deconv(b[2:-2, 2:-2], k, cfg, assume_full=assume_full,
                      state=first.state)
        # a kernel one column wider: for cropped data 20 columns wide the
        # grid is 36 x 25 in place of 36 x 24, both 5-smooth and so not
        # padded, with half-spectra of the same 13 columns
        narrow = b[:, :20]
        state = tv_deconv(narrow, k, cfg, assume_full=assume_full).state
        with pytest.raises(ValueError, match="solver state"):
            tv_deconv(narrow, np.full((5, 6), 1.0 / 30), cfg,
                      assume_full=assume_full, state=state)

    @pytest.mark.parametrize("case, size", [
        ("cold", 32), ("resume", 32), ("tol", 32),
        ("cold", 31), ("resume", 31), ("tol", 31)],
        ids=["cold", "resume", "tol", "cold-31px", "resume-31px", "tol-31px"])
    @pytest.mark.parametrize("assume_full", [True, False],
                             ids=["full", "cropped"])
    def test_matches_real_space_reference(self, assume_full, case, size):
        # the loop over half-spectra is the real-space loop up to rounding:
        # from a cold start, resuming a kernel-A state with kernel B as
        # blind_deblur does, and stopping at a tolerance; at size 31 both
        # run on the padded grid
        b, k, k2 = blurred_pair(assume_full, size)
        grid = fast_grid(b, k, assume_full)
        # the tol cases converge in 175 to 201 iterations
        stop = case == "tol"
        cfg = TvSolverConfig(lam=0.0015, max_inner=400 if stop else 200,
                             tol=1e-4 if stop else 0.0)
        state = ref_state = None
        if case == "resume":
            state = tv_deconv(b, k, cfg, assume_full=assume_full).state
            ref_state = reference_tv_deconv(b, k, cfg, assume_full,
                                            grid=grid)[3]
            k = k2
        res = tv_deconv(b, k, cfg, assume_full=assume_full, state=state)
        img, iters, converged, ref_state = reference_tv_deconv(
            b, k, cfg, assume_full, ref_state, grid)
        assert np.linalg.norm(res.image - img) <= 1e-12 * np.linalg.norm(img)
        assert (res.iterations, res.converged) == (iters, converged)
        assert converged == (case == "tol")
        # the state holds the reference's grid variables as half-spectra
        assert res.state.grid == grid
        for name, ref in zip(("pad", "blur", "grad", "pad_dual", "data_dual",
                              "grad_dual"), ref_state):
            got = getattr(res.state, name)
            if name not in ("grad", "grad_dual"):
                got = sfft.irfft2(got, s=grid)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(img).max(), name

    @pytest.mark.parametrize("assume_full", [True, False],
                             ids=["full", "cropped"])
    def test_padding_keeps_the_minimizer(self, assume_full):
        # on noisy data, the iterates on the grid padded from 35 to 36 and on
        # the unpadded grid differ, but both converge to one minimizer
        b, k, _ = blurred_pair(assume_full, 31, noise=0.01)
        cfg = TvSolverConfig(lam=0.0015, max_inner=20000, tol=1e-10)
        res = tv_deconv(b, k, cfg, assume_full=assume_full)
        img, _, converged, _ = reference_tv_deconv(b, k, cfg, assume_full)
        assert res.converged and converged
        assert res.state.grid == (36, 36)
        assert np.linalg.norm(res.image - img) <= 1e-9 * np.linalg.norm(img)

    @pytest.mark.parametrize("assume_full", [True, False],
                             ids=["full", "cropped"])
    def test_passed_state_is_left_unchanged(self, assume_full):
        b, k, k2 = blurred_pair(assume_full)
        cfg = TvSolverConfig(lam=0.0015, max_inner=10, tol=1e-12)
        state = tv_deconv(b, k, cfg, assume_full=assume_full).state
        before = {f.name: np.copy(getattr(state, f.name))
                  for f in dataclasses.fields(state)}
        tv_deconv(b, k2, cfg, assume_full=assume_full, state=state)
        for name, arr in before.items():
            assert np.array_equal(getattr(state, name), arr), name

    @pytest.mark.parametrize("assume_full,grid_per_iter",
                             [(True, 2), (False, 4)], ids=["full", "cropped"])
    def test_transforms_per_iteration(self, monkeypatch, assume_full,
                                      grid_per_iter):
        # two transforms on I's grid and two on the full grid per iteration,
        # plus a round trip for the cropped mask; a slide back to real-space
        # grid variables, or off 5-smooth grid sizes, shows on any machine
        b, k, _ = blurred_pair(assume_full, 31)
        shapes = []   # the grid of each transform, its s
        for name in ("rfft2", "irfft2"):
            def counted(x, s, _fn=getattr(tv, name)):
                shapes.append(tuple(s))
                return _fn(x, s)
            monkeypatch.setattr(tv, name, counted)
        counts = []
        for iters in (10, 20):
            shapes.clear()
            res = tv_deconv(b, k, TvSolverConfig(max_inner=iters, tol=0.0),
                            assume_full=assume_full)
            latent = sum(s == res.image.shape for s in shapes)
            counts.append((latent, len(shapes) - latent))
            assert all(fast_len(n) == n for s in shapes
                       if s != res.image.shape for n in s)
        per_iter = tuple((c1 - c0) / 10 for c0, c1 in zip(*counts))
        assert per_iter == (2, grid_per_iter)

    def test_nonconverged_flagged(self):
        img = make_test_image("polygons", 32, seed=6)
        k = make_kernel("curve", 7, {}, seed=1)
        b = conv2d_full(img, k)
        res = tv_deconv(b, k, TvSolverConfig(lam=0.0015, max_inner=8,
                                             tol=1e-12))
        assert not res.converged
        assert res.iterations == 8

    def test_observation_smaller_than_kernel(self):
        with pytest.raises(ValueError):
            tv_deconv(np.ones((3, 3)), np.full((5, 5), 1.0 / 25.0))
