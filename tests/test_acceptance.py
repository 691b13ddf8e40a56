"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line on the live terminal (bypassing
capture) so the run log shows the per-criterion verdict, then asserts.
Tolerances are pinned here and nowhere else.
"""

import itertools
import math

import numpy as np
import pytest

import convdeblur as cd
from convdeblur.blind import (DeblurConfig, blind_deblur, estimate_kernel,
                              impulse_distance)
from convdeblur.features import DELTA, make_log
from convdeblur.metrics import (noiseless_error_bound, noisy_error_bound,
                                psnr)
from convdeblur.regularizer import build_hessian
from convdeblur.simplex_qp import QpProblem, solve_qp
from convdeblur.spectral import conv_spectrum
from convdeblur.synth import (kernel_error, make_kernel, make_test_image,
                              synth_blur)
from convdeblur.tensorops import (conv2d_full, toeplitz, toeplitz_gram,
                                  vectorize)
from convdeblur.tv import total_variation


def report(capsys, num, name, passed, detail=""):
    line = f"criterion {num:2d} ({name}): {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    with capsys.disabled():
        print("\n" + line)
    assert passed, line


def random_simplex_kernel(rng, m1, m2):
    k = rng.uniform(size=(m1, m2))
    return k / k.sum()


def test_criterion_01_toeplitz_faithfulness(capsys):
    # toeplitz stacks the production rows of toeplitz_row_blocks;
    # conv2d_full's direct sums are the independent reference
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        l1, l2 = rng.integers(2, 33, 2)
        k1, k2 = rng.integers(1, 8, 2)
        x = rng.standard_normal((l1, l2))
        y = rng.standard_normal((k1, k2))
        lhs = toeplitz(x, k1, k2) @ vectorize(y)
        rhs = vectorize(conv2d_full(x, y))
        worst = max(worst, np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))
    report(capsys, 1, "Toeplitz faithfulness", worst < 1e-10,
           f"max rel err {worst:.2e} over 50 pairs")


def test_criterion_02_eigenvalue_monotonicity(capsys):
    rng = np.random.default_rng(102)
    filters = [DELTA, make_log(1.0)]
    worst = -np.inf
    for _ in range(25):  # 25 pairs x 2 features = 50 checked spectra
        n = int(rng.integers(10, 17))
        img = rng.uniform(size=(n, n))
        k = random_simplex_kernel(rng, int(rng.integers(2, 5)),
                                  int(rng.integers(2, 5)))
        b = conv2d_full(img, k)
        for f in filters:
            si = conv_spectrum(img, f, 4, 4).sigmas
            sb = conv_spectrum(b, f, 4, 4).sigmas
            worst = max(worst, float(np.max(sb - si)))
    report(capsys, 2, "eigenvalue monotonicity under blur", worst <= 1e-9,
           f"max sigma_i(B)-sigma_i(I) = {worst:.2e}")


def test_criterion_03_hessian_identity_and_floor(capsys):
    rng = np.random.default_rng(103)
    worst_id = 0.0
    worst_gap = np.inf
    for _ in range(10):
        n = int(rng.integers(12, 20))
        img = rng.uniform(size=(n, n))
        s1, s2 = int(rng.integers(3, 6)), int(rng.integers(3, 6))
        m1, m2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        spec = conv_spectrum(img, DELTA, s1, s2)
        total = sum(toeplitz_gram(v, m1, m2) for v in spec.vectors)
        dev = np.max(np.abs(total - s1 * s2 * np.eye(m1 * m2)))
        worst_id = max(worst_id, float(dev))
        hess = build_hessian(spec, m1, m2)
        lam_min = float(np.linalg.eigvalsh(hess.matrix)[0])
        floor = s1 * s2 / spec.sigma_max ** 2
        worst_gap = min(worst_gap, lam_min - floor)
    ok = worst_id < 1e-8 and worst_gap >= -1e-6
    report(capsys, 3, "unweighted eigenvector sum identity + Hessian floor",
           ok, f"max identity dev {worst_id:.2e}, min eig gap {worst_gap:.2e}")


def test_criterion_04_product_norm_inequality(capsys):
    rng = np.random.default_rng(104)
    worst = -np.inf
    for _ in range(100):
        x = rng.standard_normal((int(rng.integers(2, 16)),
                                 int(rng.integers(2, 16))))
        y = rng.standard_normal((int(rng.integers(1, 8)),
                                 int(rng.integers(1, 8))))
        lhs = np.linalg.norm(conv2d_full(x, y))
        rhs = np.linalg.norm(x) * np.sum(np.abs(y))
        worst = max(worst, float(lhs - rhs))
    report(capsys, 4, "||X*Y||_F <= ||X||_F ||Y||_1", worst <= 1e-10,
           f"max violation {worst:.2e} over 100 pairs")


def test_criterion_05_tv_nonincreasing_under_blur(capsys):
    rng = np.random.default_rng(105)
    worst = -np.inf
    for _ in range(50):
        n = int(rng.integers(8, 24))
        img = rng.uniform(size=(n, n))
        k = random_simplex_kernel(rng, int(rng.integers(2, 6)),
                                  int(rng.integers(2, 6)))
        b = conv2d_full(img, k)
        padded = np.zeros_like(b)
        padded[:n, :n] = img
        worst = max(worst, total_variation(b) - total_variation(padded))
    report(capsys, 5, "TV(I*K) <= TV(I) with zero-embedding", worst <= 1e-9,
           f"max violation {worst:.2e} over 50 pairs")


# --- kernel-recovery cases shared by criteria 6 and 7 -----------------------

RECOVERY_FAMILIES = [
    ("gaussian", {"sigma": 1.8}),
    ("motion-line", {"angle": 30.0, "length": 7}),
    ("random-sparse", {}),
    ("curve", {}),
]

# empirical noiseless errors pinned as regression baselines, keyed by
# (seed, family); recomputed values must stay within 0.02 of these. The
# Gaussian entries are the exact QP minimizer, H^-1 1 / 1^T H^-1 1.
RECOVERY_BASELINES = {
    (0, "gaussian"): 0.0073, (0, "motion-line"): 0.266,
    (0, "random-sparse"): 0.339, (0, "curve"): 0.160,
    (1, "gaussian"): 0.0071, (1, "motion-line"): 0.264,
    (1, "random-sparse"): 0.336, (1, "curve"): 0.257,
    (2, "gaussian"): 0.0077, (2, "motion-line"): 0.258,
    (2, "random-sparse"): 0.332, (2, "curve"): 0.441,
}


@pytest.fixture(scope="module")
def recovery_cases():
    f = make_log(1.0)
    m, s = 9, 14
    cases = []
    for seed in (0, 1, 2):
        img = make_test_image("polygons", 128, seed=seed)
        spec_i = conv_spectrum(img, f, s, s, method="gram")
        for family, params in RECOVERY_FAMILIES:
            k0 = make_kernel(family, m, params, seed=seed)
            cases.append({"seed": seed, "family": family, "img": img,
                          "k0": k0, "spec_i": spec_i, "f": f, "m": m, "s": s})
    return cases


# its noiseless Gaussian cases fall below the gram method's accuracy ratio
@pytest.mark.filterwarnings("ignore:sigma_min / sigma_max:RuntimeWarning")
def test_criterion_06_noiseless_recovery_bound(capsys, recovery_cases):
    violations = 0
    drift = 0.0
    closed_form_gap = 0.0
    for c in recovery_cases:
        b, _ = synth_blur(c["img"], c["k0"])
        spec_b = conv_spectrum(b, c["f"], c["s"], c["s"], method="gram")
        k_est, hess, _ = estimate_kernel(spec_b, c["m"], c["m"])
        if c["family"] == "gaussian":
            # the pinned Gaussian kernels are the nonnegative closed form
            closed = np.linalg.solve(hess.matrix, np.ones(c["m"] ** 2))
            closed /= closed.sum()
            gap = np.abs(vectorize(k_est) - closed).max() / closed.max()
            closed_form_gap = max(closed_form_gap,
                                  gap if closed.min() >= 0 else np.inf)
        err = kernel_error(k_est, c["k0"])
        bound = noiseless_error_bound(spec_b.sigma_max, c["spec_i"].sigma_min)
        if err > bound:
            violations += 1
        drift = max(drift, abs(err - RECOVERY_BASELINES[(c["seed"],
                                                         c["family"])]))
    ok = violations == 0 and drift <= 0.02 and closed_form_gap <= 1e-8
    report(capsys, 6, "noiseless kernel recovery bound", ok,
           f"{len(recovery_cases)} cases, {violations} violations, "
           f"max baseline drift {drift:.4f}, Gaussian closed-form gap "
           f"{closed_form_gap:.1e}")


def test_criterion_07_noisy_recovery_bound(capsys, recovery_cases):
    violations = 0
    checked = 0
    for c in recovery_cases:
        for ratio in (0.01, 0.1):
            eps = ratio * c["spec_i"].sigma_min
            b, _ = synth_blur(c["img"], c["k0"], eps=eps,
                              seed=c["seed"] + 100, f=c["f"])
            spec_b = conv_spectrum(b, c["f"], c["s"], c["s"], method="gram")
            k_est, _, _ = estimate_kernel(spec_b, c["m"], c["m"])
            err = kernel_error(k_est, c["k0"])
            bound = noisy_error_bound(spec_b.sigma_max, spec_b.sigma_min,
                                      c["spec_i"].sigma_min, c["s"], c["s"],
                                      eps)
            checked += 1
            if err > bound:
                violations += 1
    report(capsys, 7, "noisy kernel recovery bound", violations == 0,
           f"{checked} cases, {violations} violations")


def test_criterion_08_qp_solver(capsys):
    # pinned diagonal case
    sol = solve_qp(QpProblem(np.diag([1.0, 10.0])))
    diag_ok = np.allclose(sol.point, [10.0 / 11.0, 1.0 / 11.0], atol=1e-6)

    # KKT residual and brute-force grid agreement on random problems, d <= 3
    rng = np.random.default_rng(108)
    kkt_ok = True
    grid_ok = True
    for d in (2, 3):
        for _ in range(5):
            m = rng.standard_normal((d, d))
            p = QpProblem(m @ m.T + 0.05 * np.eye(d), rng.standard_normal(d))
            s = solve_qp(p, tol=1e-8)
            step = 1e-3
            if s.kkt_residual > 1e-6:
                kkt_ok = False
            # 1e-3-resolution simplex grid
            ticks = np.arange(0.0, 1.0 + step / 2, step)
            if d == 2:
                pts = np.stack([ticks, 1.0 - ticks], axis=1)
                vals = np.einsum("ni,ij,nj->n", pts, p.q, pts) + pts @ p.c
                best = float(vals.min())
            else:
                best = np.inf
                for a in ticks:
                    rem = 1.0 - a
                    bs = ticks[ticks <= rem + step / 2]
                    pts = np.stack([np.full(bs.size, a), bs, rem - bs], axis=1)
                    pts[:, 2] = np.maximum(pts[:, 2], 0.0)
                    vals = np.einsum("ni,ij,nj->n", pts, p.q, pts) + pts @ p.c
                    best = min(best, float(vals.min()))
            if not s.objective <= best + 1e-3:
                grid_ok = False
    ok = diag_ok and kkt_ok and grid_ok
    report(capsys, 8, "simplex QP correctness", ok,
           f"diag={diag_ok} kkt={kkt_ok} grid={grid_ok}")


def test_criterion_09_end_to_end_blind_deblurring(capsys):
    img = make_test_image("polygons", 300, seed=7)
    m = 13
    k0 = make_kernel("curve", m, {}, seed=1)
    b, _ = synth_blur(img, k0)
    f = make_log(1.0)
    s = 20
    spec_b = conv_spectrum(b, f, s, s, method="gram")
    spec_i = conv_spectrum(img, f, s, s, method="gram")
    hess = build_hessian(spec_b, m, m)

    cfg = DeblurConfig(m1=m, m2=m, s1=s, s2=s, alpha=1.0, lam=0.0015,
                       max_outer=150, spectrum_method="gram")
    rows = cd.alpha_sweep(b, cfg, [1e-3, 1e-2, 1e-1], hessian=hess)
    # tune alpha: sharpest restored image among non-degenerate kernels
    usable = [r for r in rows if r["impulse_distance"] > 0.05]
    best = max(usable, key=lambda r: r["sharpness"])
    res = best["result"]

    blur_crop = b[(m - 1) // 2:(m - 1) // 2 + 300,
                  (m - 1) // 2:(m - 1) // 2 + 300]
    gain = psnr(res.image, img) - psnr(blur_crop, img)
    err = kernel_error(res.kernel, k0)
    bound = noiseless_error_bound(spec_b.sigma_max, spec_i.sigma_min)
    ok = gain >= 2.0 and err <= bound and res.converged and res.iterations <= 150
    report(capsys, 9, "end-to-end blind deblurring", ok,
           f"alpha={best['alpha']:g} PSNR gain {gain:.2f} dB, kernel err "
           f"{err:.3f} (bound {bound:.1f}), iters {res.iterations}, "
           f"converged {res.converged}")


def test_criterion_10_no_blur_threshold(capsys):
    img = make_test_image("polygons", 80, seed=3)
    k0 = make_kernel("gaussian", 5, {"sigma": 0.8})
    b = synth_blur(img, k0)[0][2:82, 2:82]  # same-size observation
    spec = conv_spectrum(b, make_log(1.0), 8, 8, method="gram")
    hess = build_hessian(spec, 5, 5)

    def distance_at(alpha):
        cfg = DeblurConfig(m1=5, m2=5, s1=8, s2=8, alpha=alpha, lam=0.0015,
                           max_outer=30, assume_full=False,
                           spectrum_method="gram")
        res = blind_deblur(b, cfg, spectrum=spec, hessian=hess)
        return impulse_distance(res.kernel)

    # bisection on log10(alpha) for the crossing of 0.15 (midpoint of the
    # 0.05 / 0.3 gates); the sweep is monotone in this regime
    lo, hi = -9.0, -4.0
    assert distance_at(10.0 ** lo) < 0.15 < distance_at(10.0 ** hi)
    for _ in range(6):
        mid = 0.5 * (lo + hi)
        if distance_at(10.0 ** mid) < 0.15:
            lo = mid
        else:
            hi = mid
    alpha_star = 10.0 ** (0.5 * (lo + hi))
    d_below = distance_at(alpha_star / 10.0)
    d_above = distance_at(alpha_star * 10.0)
    ok = d_below < 0.05 and d_above > 0.3
    report(capsys, 10, "no-blur threshold in alpha", ok,
           f"alpha*={alpha_star:.2e}, |K-delta| {d_below:.3f} below / "
           f"{d_above:.3f} above")


def test_criterion_11_determinism(capsys, tmp_path):
    from click.testing import CliRunner
    from convdeblur.cli import main
    from convdeblur.imgio import save_image

    img = make_test_image("polygons", 64, seed=1)
    k = make_kernel("curve", 7, seed=2)
    b, _ = synth_blur(img, k)
    bpath = tmp_path / "b.pgm"
    save_image(bpath, b)

    runner = CliRunner()
    outputs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        r1 = runner.invoke(main, ["spectrum", str(bpath), "--sample-size",
                                  "8", "-o", str(out)])
        r2 = runner.invoke(main, ["sweep", str(bpath), "--kernel-size", "7",
                                  "--alphas", "0.01,0.1", "--max-iters", "4",
                                  "--method", "gram", "-o", str(out)])
        assert r1.exit_code == 0 and r2.exit_code == 0
        outputs.append((out / "spectrum.csv").read_bytes()
                       + (out / "sweep.csv").read_bytes())
    ok = outputs[0] == outputs[1]
    report(capsys, 11, "seeded runs produce byte-identical CSVs", ok,
           f"{len(outputs[0])} bytes compared")
