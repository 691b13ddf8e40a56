"""Command-line interface.

Exit codes: 0 success, 2 validation/input error, 3 solver did not converge.
Every flag can also be given in a flat key=value config file via --config;
values on the command line win. The CONVDEBLUR_OUT environment variable sets
the default output root.
"""

import math
import os
import sys
import time

import click
import numpy as np

from . import blind, imgio, metrics, synth
from .features import get_filter
from .regularizer import build_hessian
from .spectral import conv_spectrum
from .tensorops import central_window
from .tv import TvSolverConfig, tv_deconv

EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3


def read_config(path):
    cfg = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {line!r} (expected key=value)")
            key, val = line.split("=", 1)
            cfg[key.strip().replace("-", "_")] = val.strip()
    return cfg


def apply_config(ctx):
    """Fill params whose value came from their default with config values."""
    path = ctx.params.pop("config", None)
    if not path:
        return
    cfg = read_config(path)
    for param in ctx.command.params:
        name = param.name
        if name in cfg and ctx.get_parameter_source(name) == click.core.ParameterSource.DEFAULT:
            ctx.params[name] = param.type.convert(cfg[name], param, ctx)


def common_options(fn):
    fn = click.option("--config", type=click.Path(exists=True),
                      help="flat key=value config file; CLI flags override")(fn)
    fn = click.option("-o", "--out", default=None,
                      help="output directory (default: $CONVDEBLUR_OUT or cwd)")(fn)
    return fn


def out_dir(out):
    root = out or os.environ.get("CONVDEBLUR_OUT") or "."
    os.makedirs(root, exist_ok=True)
    return root


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


@click.group()
@click.version_option()
def main():
    """Blind deblurring via convolution-operator spectra."""


def _run(fn):
    try:
        fn()
    except (ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)


@main.command()
@click.argument("image", type=click.Path(exists=True))
@click.option("--feature", type=click.Choice(["delta", "log"]), default="log")
@click.option("--log-sigma", type=float, default=1.0)
@click.option("--sample-size", type=int, default=18, help="s1 = s2")
@click.option("--method", type=click.Choice(["svd", "gram"]), default="svd")
@click.option("--save-eigenvectors", type=int, default=0,
              help="save the first N eigenvectors as images")
@common_options
@click.pass_context
def spectrum(ctx, image, feature, log_sigma, sample_size, method,
             save_eigenvectors, out, **_):
    """Convolution eigenvalues of IMAGE: emits index,sigma CSV."""
    apply_config(ctx)
    p = ctx.params

    def go():
        img = imgio.load_image(image)
        f = get_filter(p["feature"], p["log_sigma"])
        spec = conv_spectrum(img, f, p["sample_size"], p["sample_size"],
                             method=p["method"])
        root = out_dir(p["out"])
        write_csv(os.path.join(root, "spectrum.csv"), ["index", "sigma"],
                  [(i + 1, float(s)) for i, s in enumerate(spec.sigmas)])
        for i in range(min(p["save_eigenvectors"], len(spec.sigmas))):
            v = spec.vectors[i]
            rng = v.max() - v.min()
            imgio.save_image(os.path.join(root, f"eigenvector_{i + 1:03d}.pgm"),
                             (v - v.min()) / rng if rng > 0 else v * 0)
        click.echo(f"sigma_max={spec.sigma_max:.6g} sigma_min={spec.sigma_min:.6g} "
                   f"ccond={spec.sigma_max / spec.sigma_min:.6g}")

    _run(go)


@main.command("estimate-kernel")
@click.argument("image", type=click.Path(exists=True))
@click.option("--kernel-size", type=int, required=True)
@click.option("--sample-size", type=int, default=None,
              help="default: ceil(1.5 * kernel size)")
@click.option("--feature", type=click.Choice(["delta", "log"]), default="log")
@click.option("--log-sigma", type=float, default=1.0)
@click.option("--method", type=click.Choice(["svd", "gram"]), default="svd")
@common_options
@click.pass_context
def estimate_kernel_cmd(ctx, image, kernel_size, sample_size, feature,
                        log_sigma, method, out, **_):
    """Estimate the blur kernel from IMAGE alone (no latent image)."""
    apply_config(ctx)
    p = ctx.params

    def go():
        img = imgio.load_image(image)
        m = p["kernel_size"]
        s = p["sample_size"] or math.ceil(1.5 * m)
        f = get_filter(p["feature"], p["log_sigma"])
        spec = conv_spectrum(img, f, s, s, method=p["method"])
        k, _, sol = blind.estimate_kernel(spec, m, m)
        root = out_dir(p["out"])
        imgio.save_kernel_txt(os.path.join(root, "kernel.txt"), k)
        imgio.save_kernel_image(os.path.join(root, "kernel.pgm"), k)
        click.echo(f"objective={sol.objective:.6g} kkt={sol.kkt_residual:.3g} "
                   f"iterations={sol.iterations}")
        if not sol.converged:
            click.echo("warning: QP did not converge", err=True)
            sys.exit(EXIT_NO_CONVERGENCE)

    _run(go)


@main.command("deconv")
@click.argument("image", type=click.Path(exists=True))
@click.argument("kernel", type=click.Path(exists=True))
@click.option("--lambda", "lam", type=float, default=0.0015)
@click.option("--max-iters", type=int, default=5000)
@click.option("--tol", type=float, default=1e-5)
@click.option("--cropped", is_flag=True,
              help="treat IMAGE as a cropped observation rather than "
                   "full-convolution output")
@common_options
@click.pass_context
def deconv_cmd(ctx, image, kernel, lam, max_iters, tol, cropped, out, **_):
    """Non-blind TV deconvolution of IMAGE with a known KERNEL file."""
    apply_config(ctx)
    p = ctx.params

    def go():
        b = imgio.load_image(image)
        k = imgio.load_kernel_txt(kernel)
        res = tv_deconv(b, k, TvSolverConfig(lam=p["lam"],
                                             max_inner=p["max_iters"],
                                             tol=p["tol"]),
                        assume_full=not p["cropped"])
        root = out_dir(p["out"])
        imgio.save_image(os.path.join(root, "restored.pgm"), res.image)
        click.echo(f"iterations={res.iterations} converged={res.converged}")
        if not res.converged:
            sys.exit(EXIT_NO_CONVERGENCE)

    _run(go)


def _deblur_options(fn):
    fn = click.option("--kernel-size", type=int, required=True)(fn)
    fn = click.option("--sample-size", type=int, default=None)(fn)
    fn = click.option("--lambda", "lam", type=float, default=0.0015)(fn)
    fn = click.option("--max-iters", type=int, default=150)(fn)
    fn = click.option("--feature", type=click.Choice(["delta", "log"]),
                      default="log")(fn)
    fn = click.option("--log-sigma", type=float, default=1.0)(fn)
    fn = click.option("--method", type=click.Choice(["svd", "gram"]),
                      default="svd")(fn)
    fn = click.option("--cropped", is_flag=True,
                      help="treat IMAGE as a cropped observation rather than "
                           "full-convolution output")(fn)
    return fn


def _make_config(p, alpha):
    m = p["kernel_size"]
    s = p["sample_size"] or math.ceil(1.5 * m)
    return blind.DeblurConfig(
        m1=m, m2=m, s1=s, s2=s, alpha=alpha, lam=p["lam"],
        feature=p["feature"], log_sigma=p["log_sigma"],
        max_outer=p["max_iters"], spectrum_method=p["method"],
        assume_full=not p["cropped"])


@main.command("deblur")
@click.argument("image", type=click.Path(exists=True))
@click.option("--alpha", type=float, required=True)
@_deblur_options
@common_options
@click.pass_context
def deblur_cmd(ctx, image, alpha, out, **_):
    """Blind deblurring of IMAGE by alternating minimization."""
    apply_config(ctx)
    p = ctx.params

    def go():
        b = imgio.load_image(image)
        cfg = _make_config(p, p["alpha"])
        res = blind.blind_deblur(b, cfg)
        root = out_dir(p["out"])
        imgio.save_image(os.path.join(root, "restored.pgm"), res.image)
        imgio.save_kernel_image(os.path.join(root, "kernel.pgm"), res.kernel)
        imgio.save_kernel_txt(os.path.join(root, "kernel.txt"), res.kernel)
        write_csv(os.path.join(root, "trace.csv"), ["iteration", "objective"],
                  [(i + 1, v) for i, v in enumerate(res.trace)])
        click.echo(f"iterations={res.iterations} converged={res.converged}")
        if not res.converged:
            sys.exit(EXIT_NO_CONVERGENCE)

    _run(go)


@main.command("synth")
@click.option("--image", "image_kind", default="polygons",
              help="procedural kind (step|bars|checker|polygons) or a file path")
@click.option("--size", type=int, default=128)
@click.option("--kernel-family",
              type=click.Choice(list(synth.KERNEL_FAMILIES)), default="gaussian")
@click.option("--kernel-size", type=int, default=9)
@click.option("--kernel-param", multiple=True,
              help="key=value, e.g. sigma=1.5 or angle=30")
@click.option("--noise", type=float, default=0.0,
              help="feature-domain noise norm eps")
@click.option("--seed", type=int, default=0)
@common_options
@click.pass_context
def synth_cmd(ctx, image_kind, size, kernel_family, kernel_size, kernel_param,
              noise, seed, out, **_):
    """Generate a seeded synthetic blur case (sharp, blurry, true kernel)."""
    apply_config(ctx)
    p = ctx.params

    def go():
        kind = p["image_kind"]
        if kind in synth.IMAGE_KINDS:
            sharp = synth.make_test_image(kind, p["size"], seed=p["seed"])
        else:
            sharp = imgio.load_image(kind)
        params = {}
        for kv in p["kernel_param"]:
            key, val = kv.split("=", 1)
            params[key] = float(val)
        k = synth.make_kernel(p["kernel_family"], p["kernel_size"], params,
                              seed=p["seed"])
        b, _ = synth.synth_blur(sharp, k, eps=p["noise"], seed=p["seed"])
        root = out_dir(p["out"])
        imgio.save_image(os.path.join(root, "sharp.pgm"), sharp)
        peak = b.max()
        imgio.save_image(os.path.join(root, "blurry.pgm"),
                         b / peak if peak > 1 else b)
        np.save(os.path.join(root, "blurry.npy"), b)
        np.save(os.path.join(root, "sharp.npy"), sharp)
        imgio.save_kernel_txt(os.path.join(root, "kernel_true.txt"), k)
        with open(os.path.join(root, "case.cfg"), "w") as fh:
            for key in ("image_kind", "size", "kernel_family", "kernel_size",
                        "noise", "seed"):
                fh.write(f"{key}={p[key]}\n")
        click.echo(f"case written to {root}")

    _run(go)


@main.command("eval")
@click.option("--case", "case_dir", type=click.Path(exists=True), required=True,
              help="directory produced by the synth command")
@click.option("--kernel-size", type=int, default=None,
              help="estimation size (default: true size)")
@click.option("--feature", type=click.Choice(["delta", "log"]), default="log")
@click.option("--log-sigma", type=float, default=1.0)
@click.option("--lambda", "lam", type=float, default=0.0015)
@common_options
@click.pass_context
def eval_cmd(ctx, case_dir, kernel_size, feature, log_sigma, lam, out, **_):
    """Estimate the kernel of a synthetic case, restore, and report metrics."""
    apply_config(ctx)
    p = ctx.params

    def go():
        t0 = time.perf_counter()
        b = np.load(os.path.join(p["case_dir"], "blurry.npy"))
        sharp = np.load(os.path.join(p["case_dir"], "sharp.npy"))
        k_true = imgio.load_kernel_txt(os.path.join(p["case_dir"],
                                                    "kernel_true.txt"))
        m = p["kernel_size"] or k_true.shape[0]
        s = math.ceil(1.5 * m)
        f = get_filter(p["feature"], p["log_sigma"])
        spec_b = conv_spectrum(b, f, s, s)
        spec_i = conv_spectrum(sharp, f, s, s)
        k_est, _, _ = blind.estimate_kernel(spec_b, m, m)
        restored = tv_deconv(b, k_est, TvSolverConfig(lam=p["lam"])).image
        # an estimation size other than the true one restores an image of
        # another size: score all three on their common central window
        common = np.minimum(restored.shape, sharp.shape)

        def window(x):
            return x[central_window(x.shape, common)]

        report = metrics.MetricsReport(
            kernel_error=synth.kernel_error(k_est, k_true),
            noiseless_bound=metrics.noiseless_error_bound(
                spec_b.sigma_max, spec_i.sigma_min),
            noisy_bound=metrics.noisy_error_bound(
                spec_b.sigma_max, spec_b.sigma_min, spec_i.sigma_min, s, s, 0.0),
            psnr_blurry=metrics.psnr(window(b), window(sharp)),
            psnr_restored=metrics.psnr(window(restored), window(sharp)),
            sigma_ratio=spec_b.sigma_max / spec_i.sigma_min,
            runtime_seconds=time.perf_counter() - t0,
        )
        root = out_dir(p["out"])
        write_csv(os.path.join(root, "metrics.csv"), ["metric", "value"],
                  report.rows())
        imgio.save_kernel_txt(os.path.join(root, "kernel_estimated.txt"), k_est)
        imgio.save_image(os.path.join(root, "restored.pgm"), restored)
        for name, value in report.rows():
            click.echo(f"{name}={value:.6g}")
        if report.psnr_restored < report.psnr_blurry:
            click.echo("warning: the restored image is further from the sharp "
                       "image than the blurry input is; the estimated kernel "
                       "does not explain the blur", err=True)

    _run(go)


@main.command("sweep")
@click.argument("image", type=click.Path(exists=True))
@click.option("--alphas", required=True, help="comma-separated alpha values")
@_deblur_options
@common_options
@click.pass_context
def sweep_cmd(ctx, image, alphas, out, **_):
    """Run blind deblurring over a list of alpha values."""
    apply_config(ctx)
    p = ctx.params

    def go():
        b = imgio.load_image(image)
        alist = [float(a) for a in p["alphas"].split(",") if a.strip()]
        cfg = _make_config(p, alist[0])
        rows = blind.alpha_sweep(b, cfg, alist)
        root = out_dir(p["out"])
        write_csv(os.path.join(root, "sweep.csv"),
                  ["alpha", "impulse_distance", "sharpness", "iterations",
                   "converged", "objective"],
                  [(r["alpha"], r["impulse_distance"], r["sharpness"],
                    r["iterations"], int(r["converged"]), r["objective"])
                   for r in rows])
        click.echo(f"sweep written to {os.path.join(root, 'sweep.csv')}")

    _run(go)


@main.group()
def repro():
    """Reproduce the desk-scale spectrum and kernel-estimation studies."""


@repro.command("fig2")
@click.option("--image", "image_kind", default="polygons")
@click.option("--size", type=int, default=128)
@click.option("--kernel-sigma", type=float, default=2.0,
              help="Gaussian blur kernel width")
@click.option("--kernel-size", type=int, default=9)
@click.option("--sample-size", type=int, default=18)
@click.option("--seed", type=int, default=0)
@common_options
@click.pass_context
def repro_fig2(ctx, image_kind, size, kernel_sigma, kernel_size, sample_size,
               seed, out, **_):
    """Spectra of a sharp and Gaussian-blurred image under both features."""
    apply_config(ctx)
    p = ctx.params

    def go():
        if p["image_kind"] in synth.IMAGE_KINDS:
            sharp = synth.make_test_image(p["image_kind"], p["size"], p["seed"])
        else:
            sharp = imgio.load_image(p["image_kind"])
        k = synth.make_kernel("gaussian", p["kernel_size"],
                              {"sigma": p["kernel_sigma"]}, seed=p["seed"])
        b, _ = synth.synth_blur(sharp, k)
        s = p["sample_size"]
        root = out_dir(p["out"])
        rows = []
        ratios = {}
        for feat in ("delta", "log"):
            f = get_filter(feat, 1.0)
            spec_i = conv_spectrum(sharp, f, s, s)
            spec_b = conv_spectrum(b, f, s, s)
            for i in range(s * s):
                rows.append((feat, i + 1, float(spec_i.sigmas[i]),
                             float(spec_b.sigmas[i])))
            ratios[feat] = spec_b.sigma_max / spec_i.sigma_min
        write_csv(os.path.join(root, "fig2_spectra.csv"),
                  ["feature", "index", "sigma_sharp", "sigma_blurry"], rows)
        write_csv(os.path.join(root, "fig2_ratios.csv"),
                  ["feature", "sigma_max_B_over_sigma_min_I0"],
                  [(feat, r) for feat, r in ratios.items()])
        imgio.save_image(os.path.join(root, "fig2_sharp.pgm"), sharp)
        peak = b.max()
        imgio.save_image(os.path.join(root, "fig2_blurry.pgm"),
                         b / peak if peak > 1 else b)
        click.echo(f"ratio delta={ratios['delta']:.4g} log={ratios['log']:.4g}")

    _run(go)


@repro.command("fig3")
@click.option("--image", "image_kind", default="polygons")
@click.option("--size", type=int, default=128)
@click.option("--kernel-size", type=int, default=9)
@click.option("--seed", type=int, default=0)
@common_options
@click.pass_context
def repro_fig3(ctx, image_kind, size, kernel_size, seed, out, **_):
    """Estimate six 9x9 kernels from blurred images alone; tabulate errors
    against the noiseless recovery bound."""
    apply_config(ctx)
    p = ctx.params

    def go():
        if p["image_kind"] in synth.IMAGE_KINDS:
            sharp = synth.make_test_image(p["image_kind"], p["size"], p["seed"])
        else:
            sharp = imgio.load_image(p["image_kind"])
        m = p["kernel_size"]
        s = math.ceil(1.5 * m)
        f = get_filter("log", 1.0)
        spec_i = conv_spectrum(sharp, f, s, s)
        cases = [
            ("gaussian", {"sigma": m / 5.0}),
            ("gaussian", {"sigma": m / 8.0}),
            ("motion-line", {"angle": 30.0, "length": m}),
            ("motion-line", {"angle": 75.0, "length": m - 2}),
            ("random-sparse", {}),
            ("curve", {}),
        ]
        root = out_dir(p["out"])
        rows = []
        for idx, (family, params) in enumerate(cases):
            k_true = synth.make_kernel(family, m, params, seed=p["seed"] + idx)
            b, _ = synth.synth_blur(sharp, k_true)
            spec_b = conv_spectrum(b, f, s, s)
            k_est, _, _ = blind.estimate_kernel(spec_b, m, m)
            err = synth.kernel_error(k_est, k_true)
            bound = metrics.noiseless_error_bound(spec_b.sigma_max,
                                                  spec_i.sigma_min)
            rows.append((idx + 1, family, err, bound))
            imgio.save_kernel_image(
                os.path.join(root, f"fig3_true_{idx + 1}.pgm"), k_true)
            imgio.save_kernel_image(
                os.path.join(root, f"fig3_estimated_{idx + 1}.pgm"), k_est)
        write_csv(os.path.join(root, "fig3_errors.csv"),
                  ["case", "family", "kernel_error", "noiseless_bound"], rows)
        for row in rows:
            click.echo(f"case {row[0]} ({row[1]}): error={row[2]:.4g} "
                       f"bound={row[3]:.4g}")

    _run(go)


if __name__ == "__main__":
    main()
