"""Command-line interface.

Exit codes: 0 success, 2 validation/input error, 3 solver did not converge.
Every option, required ones included, can also be given in a flat key=value
config file via --config, keyed by its long flag name (sample-size=8,
lambda=0.01); values on the command line win. The CONVDEBLUR_OUT environment
variable sets the default output root.
"""

import os
import sys
import time
import warnings

import click
import numpy as np

from . import blind, imgio, metrics, synth
from .features import apply_filter, get_filter, make_log
from .spectral import GRAM_MIN_RATIO, conv_spectrum
from .tensorops import central_window, conv2d_full
from .tv import TvSolverConfig, tv_deconv

EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3


def load_config(ctx, _param, path):
    """Eager --config callback: the file's key=value lines become the
    command's default_map. Keys are long flag names; an underscore reads as
    a dash. A repeated key gives a multiple option one item per line; any
    other option takes the last."""
    if path is None:
        return
    params = {max(param.opts, key=len).lstrip("-"): param
              for param in ctx.command.params}
    defaults = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise click.BadParameter(
                    f"bad config line {line!r} (expected key=value)")
            key, val = (part.strip() for part in line.split("=", 1))
            param = params.get(key.replace("_", "-"))
            if param is None:
                raise click.BadParameter(f"unknown config key {key!r}")
            if param.multiple:
                defaults.setdefault(param.name, []).append(val)
            else:
                defaults[param.name] = val
    ctx.default_map = defaults


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


# Options shared by several subcommands. A click.option decorator makes a new
# Option each time it is applied, so one can serve many commands.
COMMON = (
    click.option("-o", "--out", default=None,
                 help="output directory (default: $CONVDEBLUR_OUT or cwd)"),
    click.option("--config", type=click.Path(exists=True, dir_okay=False),
                 is_eager=True, expose_value=False, callback=load_config,
                 help="flat key=value config file; CLI flags override"),
)
IMAGE = click.argument("image", type=click.Path(exists=True))
FEATURE = (
    click.option("--feature", type=click.Choice(["delta", "log"]), default="log"),
    click.option("--log-sigma", type=float, default=1.0),
)
METHOD = click.option("--method", type=click.Choice(["svd", "gram"]),
                      default=blind.DeblurConfig.spectrum_method,
                      show_default=True,
                      help="gram: FFT Gram matrix, warns when sigma_min / "
                           f"sigma_max < {GRAM_MIN_RATIO:g}; svd: streamed "
                           "QR, the accurate reference")
LAMBDA = click.option("--lambda", "lam", default=TvSolverConfig.lam)
CROPPED = click.option("--cropped", is_flag=True,
                       help="treat IMAGE as a cropped observation rather than "
                            "full-convolution output")


KERNEL = (click.option("--kernel-size", type=int, required=True),
          click.option("--sample-size", type=int, default=None,
                       help="default: ceil(1.5 * kernel size)"))
# A synthetic scene: a test image, the size of its kernel, the seed of both
SCENE = (click.option("--image", "image_kind", default="polygons",
                      help="procedural kind (step|bars|checker|polygons) "
                           "or a file path"),
         click.option("--size", type=int, default=128),
         click.option("--kernel-size", type=int, default=9),
         click.option("--seed", type=int, default=0))
DEBLUR = (*KERNEL, LAMBDA,
          click.option("--max-iters", default=blind.DeblurConfig.max_outer),
          *FEATURE, METHOD, CROPPED)


def _one_line_warnings(show):
    """A warnings.showwarning that prints a RuntimeWarning as one line and
    passes any other category to show."""
    def showwarning(message, category, filename, lineno, file=None,
                    line=None):
        if issubclass(category, RuntimeWarning):
            click.echo(f"warning: {message}", err=True)
        else:
            show(message, category, filename, lineno, file, line)
    return showwarning


def subcommand(group, name, *options):
    """Register the decorated body as subcommand `name` of group.

    The command takes the given options (listed in --help in this order)
    plus --config and -o. It resolves and creates the output root, and calls
    the body with every parameter as a keyword, the output root as `out`.
    ValueError, OSError and MemoryError (an array too large to allocate)
    exit with EXIT_VALIDATION. A RuntimeWarning prints as one
    `warning: <message>` line on stderr."""
    def register(body):
        def run(out, **params):
            try:
                out = out or os.environ.get("CONVDEBLUR_OUT") or "."
                os.makedirs(out, exist_ok=True)
                with warnings.catch_warnings():
                    warnings.showwarning = _one_line_warnings(
                        warnings.showwarning)
                    body(out=out, **params)
            except (ValueError, OSError, MemoryError) as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(EXIT_VALIDATION)

        run.__doc__ = body.__doc__
        for option in reversed(options + COMMON):
            run = option(run)
        return group.command(name)(run)
    return register


def to_float(text, what):
    """A finite float(text), or a ValueError naming what and the bad text."""
    try:
        if np.isfinite(float(text)):
            return float(text)
    except ValueError:
        raise ValueError(f"{what}: {text!r} is not a number") from None
    raise ValueError(f"{what}: {text!r} is not finite")


def load_scene(image_kind, size, seed):
    """A procedural test image of the named kind, else the image file."""
    if image_kind in synth.IMAGE_KINDS:
        return synth.make_test_image(image_kind, size, seed=seed)
    return imgio.load_image(image_kind)


def save_peak_normalized(path, img):
    """Save img scaled to peak 1 if its peak is above 1."""
    peak = img.max()
    imgio.save_image(path, img / peak if peak > 1 else img)


def warn_unless_converged(what, sol):
    """One warning line on stderr if the solver result sol did not converge."""
    if not sol.converged:
        click.echo(f"warning: {what} stopped unconverged after "
                   f"{sol.iterations} iterations", err=True)


def exit_unless_converged(converged):
    if not converged:
        sys.exit(EXIT_NO_CONVERGENCE)


def deblur_config(kernel_size, sample_size, lam, max_iters, feature,
                  log_sigma, method, cropped, alpha=1.0):
    """The options of deblur and sweep; sweep replaces alpha per run."""
    return blind.DeblurConfig(
        m1=kernel_size, m2=kernel_size, s1=sample_size, s2=sample_size,
        alpha=alpha, lam=lam, f=get_filter(feature, log_sigma),
        max_outer=max_iters, spectrum_method=method, assume_full=not cropped)


@click.group()
@click.version_option()
def main():
    """Blind deblurring via convolution-operator spectra."""


@subcommand(main, "spectrum", IMAGE, *FEATURE,
            click.option("--sample-size", type=int, default=18, help="s1 = s2"),
            METHOD,
            click.option("--save-eigenvectors", type=click.IntRange(min=0),
                         default=0,
                         help="save the first N eigenvectors as images"))
def spectrum(image, feature, log_sigma, sample_size, method,
             save_eigenvectors, out):
    """Convolution eigenvalues of IMAGE: emits index,sigma CSV."""
    f = get_filter(feature, log_sigma)
    spec = conv_spectrum(imgio.load_image(image), f, sample_size, sample_size,
                         method)
    write_csv(os.path.join(out, "spectrum.csv"), ["index", "sigma"],
              [(i + 1, float(s)) for i, s in enumerate(spec.sigmas)])
    for i in range(min(save_eigenvectors, len(spec.sigmas))):
        v = spec.vectors[i]
        rng = v.max() - v.min()
        imgio.save_image(os.path.join(out, f"eigenvector_{i + 1:03d}.pgm"),
                         (v - v.min()) / rng if rng > 0 else v * 0)
    click.echo(f"sigma_max={spec.sigma_max:.6g} sigma_min={spec.sigma_min:.6g} "
               f"ccond={spec.sigma_max / spec.sigma_min:.6g}")


@subcommand(main, "estimate-kernel", IMAGE,
            *KERNEL, *FEATURE, METHOD)
def estimate_kernel_cmd(image, kernel_size, sample_size, feature, log_sigma,
                        method, out):
    """Estimate the blur kernel from IMAGE alone (no latent image).

    Prints the QP's objective, its scale-free KKT residual and its
    iterations, which count working-set changes."""
    s = blind.sample_size(kernel_size, sample_size)
    f = get_filter(feature, log_sigma)
    spec = conv_spectrum(imgio.load_image(image), f, s, s, method)
    k, _, sol = blind.estimate_kernel(spec, kernel_size, kernel_size)
    imgio.save_kernel_txt(os.path.join(out, "kernel.txt"), k)
    imgio.save_kernel_image(os.path.join(out, "kernel.pgm"), k)
    click.echo(f"objective={sol.objective:.6g} kkt={sol.kkt_residual:.3g} "
               f"iterations={sol.iterations}")
    warn_unless_converged("the kernel QP", sol)
    exit_unless_converged(sol.converged)


@subcommand(main, "deconv", IMAGE,
            click.argument("kernel", type=click.Path(exists=True)), LAMBDA,
            click.option("--max-iters", default=TvSolverConfig.max_inner),
            click.option("--tol", default=TvSolverConfig.tol), CROPPED)
def deconv_cmd(image, kernel, lam, max_iters, tol, cropped, out):
    """Non-blind TV deconvolution of IMAGE with a known KERNEL file."""
    res = tv_deconv(imgio.load_image(image), imgio.load_kernel_txt(kernel),
                    TvSolverConfig(lam=lam, max_inner=max_iters, tol=tol),
                    assume_full=not cropped)
    imgio.save_image(os.path.join(out, "restored.pgm"), res.image)
    click.echo(f"iterations={res.iterations} converged={res.converged}")
    exit_unless_converged(res.converged)


@subcommand(main, "deblur", IMAGE,
            click.option("--alpha", type=float, required=True), *DEBLUR)
def deblur_cmd(image, out, **options):
    """Blind deblurring of IMAGE by alternating minimization."""
    res = blind.blind_deblur(imgio.load_image(image), deblur_config(**options))
    imgio.save_image(os.path.join(out, "restored.pgm"), res.image)
    imgio.save_kernel_image(os.path.join(out, "kernel.pgm"), res.kernel)
    imgio.save_kernel_txt(os.path.join(out, "kernel.txt"), res.kernel)
    write_csv(os.path.join(out, "trace.csv"), ["iteration", "objective"],
              [(i + 1, v) for i, v in enumerate(res.trace)])
    click.echo(f"iterations={res.iterations} converged={res.converged}")
    exit_unless_converged(res.converged)


@subcommand(main, "synth", *SCENE,
            click.option("--kernel-family",
                         type=click.Choice(list(synth.KERNEL_FAMILIES)),
                         default="gaussian"),
            click.option("--kernel-param", multiple=True,
                         help="key=value, e.g. sigma=1.5 or angle=30"),
            click.option("--noise", type=float, default=0.0,
                         help="feature-domain noise norm eps"))
def synth_cmd(image_kind, size, kernel_size, seed, kernel_family,
              kernel_param, noise, out):
    """Generate a seeded synthetic blur case (sharp, blurry, true kernel)."""
    sharp = load_scene(image_kind, size, seed)
    params = {}
    for key, eq, val in (kv.partition("=") for kv in kernel_param):
        if not eq:
            raise ValueError(f"--kernel-param {key!r} is not key=value")
        params[key] = to_float(val, f"--kernel-param {key + eq + val!r}")
    k = synth.make_kernel(kernel_family, kernel_size, params, seed=seed)
    b, _ = synth.synth_blur(sharp, k, eps=noise, seed=seed)
    imgio.save_image(os.path.join(out, "sharp.pgm"), sharp)
    save_peak_normalized(os.path.join(out, "blurry.pgm"), b)
    np.save(os.path.join(out, "blurry.npy"), b)
    np.save(os.path.join(out, "sharp.npy"), sharp)
    imgio.save_kernel_txt(os.path.join(out, "kernel_true.txt"), k)
    # the options of this run, in the config format of synth --config
    with open(os.path.join(out, "case.cfg"), "w") as fh:
        for key, val in (("image", image_kind), ("size", size),
                         ("kernel-family", kernel_family),
                         ("kernel-size", kernel_size),
                         *(("kernel-param", kv) for kv in kernel_param),
                         ("noise", noise), ("seed", seed)):
            fh.write(f"{key}={val}\n")
    click.echo(f"case written to {out}")


@subcommand(main, "eval",
            click.option("--case", "case_dir", type=click.Path(exists=True),
                         required=True,
                         help="directory produced by the synth command"),
            click.option("--kernel-size", type=click.IntRange(min=1),
                         default=None,
                         help="estimation size (default: true size)"),
            *FEATURE, METHOD, LAMBDA)
def eval_cmd(case_dir, kernel_size, feature, log_sigma, method, lam, out):
    """Estimate the kernel of a synthetic case, restore, and report metrics."""
    t0 = time.perf_counter()
    b = np.load(os.path.join(case_dir, "blurry.npy"))
    sharp = np.load(os.path.join(case_dir, "sharp.npy"))
    k_true = imgio.load_kernel_txt(os.path.join(case_dir, "kernel_true.txt"))
    m = k_true.shape[0] if kernel_size is None else kernel_size
    s = blind.sample_size(m)
    f = get_filter(feature, log_sigma)
    spec_b, spec_i = (conv_spectrum(x, f, s, s, method) for x in (b, sharp))
    # the case's noise norm under f, exactly 0 for a noiseless case
    eps = np.linalg.norm(apply_filter(f, b - conv2d_full(sharp, k_true)))
    k_est, _, qp = blind.estimate_kernel(spec_b, m, m)
    res = tv_deconv(b, k_est, TvSolverConfig(lam=lam))
    restored = res.image
    # an estimation size other than the true one restores an image of
    # another size: score all three on their common central window
    common = np.minimum(restored.shape, sharp.shape)

    def window(x):
        return x[central_window(x.shape, common)]

    report = dict(
        kernel_error=synth.kernel_error(k_est, k_true),
        noiseless_bound=metrics.noiseless_error_bound(
            spec_b.sigma_max, spec_i.sigma_min),
        noisy_bound=metrics.noisy_error_bound(
            spec_b.sigma_max, spec_b.sigma_min, spec_i.sigma_min, s, s, eps),
        psnr_blurry=metrics.psnr(window(b), window(sharp)),
        psnr_restored=metrics.psnr(window(restored), window(sharp)),
        sigma_ratio=spec_b.sigma_max / spec_i.sigma_min,
        runtime_seconds=time.perf_counter() - t0,
    )
    write_csv(os.path.join(out, "metrics.csv"), ["metric", "value"],
              report.items())
    imgio.save_kernel_txt(os.path.join(out, "kernel_estimated.txt"), k_est)
    imgio.save_image(os.path.join(out, "restored.pgm"), restored)
    for name, value in report.items():
        click.echo(f"{name}={value:.6g}")
    warn_unless_converged("the kernel QP", qp)
    warn_unless_converged("the image step", res)
    if report["psnr_restored"] < report["psnr_blurry"]:
        click.echo("warning: the restored image is further from the sharp "
                   "image than the blurry input is; the estimated kernel "
                   "does not explain the blur", err=True)


@subcommand(main, "sweep", IMAGE,
            click.option("--alphas", required=True,
                         help="comma-separated alpha values"), *DEBLUR)
def sweep_cmd(image, alphas, out, **options):
    """Run blind deblurring over a list of alpha values."""
    alist = [to_float(a, "--alphas") for a in alphas.split(",") if a.strip()]
    rows = blind.alpha_sweep(imgio.load_image(image), deblur_config(**options),
                             alist)
    write_csv(os.path.join(out, "sweep.csv"),
              ["alpha", "impulse_distance", "sharpness", "iterations",
               "converged", "objective"],
              [(r["alpha"], r["impulse_distance"], r["sharpness"],
                r["iterations"], int(r["converged"]), r["objective"])
               for r in rows])
    click.echo(f"sweep written to {os.path.join(out, 'sweep.csv')}")


@main.group()
def repro():
    """Reproduce the desk-scale spectrum and kernel-estimation studies."""


@subcommand(repro, "fig2", *SCENE,
            click.option("--kernel-sigma", type=float, default=2.0,
                         help="Gaussian blur kernel width"),
            click.option("--sample-size", type=int, default=18), METHOD)
def repro_fig2(image_kind, size, kernel_size, seed, kernel_sigma, sample_size,
               method, out):
    """Spectra of a sharp and Gaussian-blurred image under both features."""
    sharp = load_scene(image_kind, size, seed)
    k = synth.make_kernel("gaussian", kernel_size, {"sigma": kernel_sigma},
                          seed=seed)
    b, _ = synth.synth_blur(sharp, k)
    rows = []
    ratios = {}
    for feat in ("delta", "log"):
        f = get_filter(feat)
        spec_i = conv_spectrum(sharp, f, sample_size, sample_size, method)
        spec_b = conv_spectrum(b, f, sample_size, sample_size, method)
        for i in range(sample_size ** 2):
            rows.append((feat, i + 1, float(spec_i.sigmas[i]),
                         float(spec_b.sigmas[i])))
        ratios[feat] = spec_b.sigma_max / spec_i.sigma_min
    write_csv(os.path.join(out, "fig2_spectra.csv"),
              ["feature", "index", "sigma_sharp", "sigma_blurry"], rows)
    write_csv(os.path.join(out, "fig2_ratios.csv"),
              ["feature", "sigma_max_B_over_sigma_min_I0"],
              [(feat, r) for feat, r in ratios.items()])
    imgio.save_image(os.path.join(out, "fig2_sharp.pgm"), sharp)
    save_peak_normalized(os.path.join(out, "fig2_blurry.pgm"), b)
    click.echo(f"ratio delta={ratios['delta']:.4g} log={ratios['log']:.4g}")


@subcommand(repro, "fig3", *SCENE, METHOD)
def repro_fig3(image_kind, size, kernel_size, seed, method, out):
    """Estimate six 9x9 kernels from blurred images alone; tabulate errors
    against the noiseless recovery bound."""
    sharp = load_scene(image_kind, size, seed)
    m = kernel_size
    s = blind.sample_size(m)
    spec_i = conv_spectrum(sharp, make_log(), s, s, method)
    cases = [
        ("gaussian", {"sigma": m / 5.0}),
        ("gaussian", {"sigma": m / 8.0}),
        ("motion-line", {"angle": 30.0, "length": m}),
        ("motion-line", {"angle": 75.0, "length": m - 2}),
        ("random-sparse", {}),
        ("curve", {}),
    ]
    rows = []
    for idx, (family, params) in enumerate(cases):
        k_true = synth.make_kernel(family, m, params, seed=seed + idx)
        b, _ = synth.synth_blur(sharp, k_true)
        spec_b = conv_spectrum(b, make_log(), s, s, method)
        k_est, _, qp = blind.estimate_kernel(spec_b, m, m)
        warn_unless_converged(f"case {idx + 1}'s kernel QP", qp)
        err = synth.kernel_error(k_est, k_true)
        bound = metrics.noiseless_error_bound(spec_b.sigma_max,
                                              spec_i.sigma_min)
        rows.append((idx + 1, family, err, bound))
        imgio.save_kernel_image(
            os.path.join(out, f"fig3_true_{idx + 1}.pgm"), k_true)
        imgio.save_kernel_image(
            os.path.join(out, f"fig3_estimated_{idx + 1}.pgm"), k_est)
    write_csv(os.path.join(out, "fig3_errors.csv"),
              ["case", "family", "kernel_error", "noiseless_bound"], rows)
    for row in rows:
        click.echo(f"case {row[0]} ({row[1]}): error={row[2]:.4g} "
                   f"bound={row[3]:.4g}")


if __name__ == "__main__":
    main()
