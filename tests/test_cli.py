import dataclasses
import os
import re
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from convdeblur import blind, cli
from convdeblur.blind import DeblurConfig, blind_deblur, sample_size
from convdeblur.cli import main
from convdeblur.features import DELTA, make_log
from convdeblur.imgio import (load_image, load_kernel_txt, save_image,
                              save_kernel_txt)
from convdeblur.metrics import noiseless_error_bound, noisy_error_bound
from convdeblur.spectral import conv_spectrum
from convdeblur.synth import make_kernel, make_test_image, synth_blur
from convdeblur.tv import TvSolverConfig


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def blurry_pgm(tmp_path):
    img = make_test_image("polygons", 48, seed=1)
    k = make_kernel("gaussian", 5, {"sigma": 1.0})
    b, _ = synth_blur(img, k)
    path = tmp_path / "blurry.pgm"
    save_image(path, b)
    return str(path)


def test_spectrum_command(runner, blurry_pgm, tmp_path):
    out = tmp_path / "o"
    r = runner.invoke(main, ["spectrum", blurry_pgm, "--sample-size", "6",
                             "-o", str(out)])
    assert r.exit_code == 0, r.output
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "index,sigma"
    assert len(lines) == 37
    sigmas = [float(l.split(",")[1]) for l in lines[1:]]
    assert sigmas == sorted(sigmas, reverse=True)


def test_spectrum_saves_eigenvectors(runner, blurry_pgm, tmp_path):
    out = tmp_path / "o"
    r = runner.invoke(main, ["spectrum", blurry_pgm, "--sample-size", "4",
                             "--save-eigenvectors", "2", "-o", str(out)])
    assert r.exit_code == 0, r.output
    assert (out / "eigenvector_001.pgm").exists()
    assert (out / "eigenvector_002.pgm").exists()


def test_estimate_kernel_command(runner, blurry_pgm, tmp_path):
    out = tmp_path / "o"
    r = runner.invoke(main, ["estimate-kernel", blurry_pgm,
                             "--kernel-size", "5", "-o", str(out)])
    assert r.exit_code == 0, r.output
    k = load_kernel_txt(out / "kernel.txt")
    assert k.shape == (5, 5)


@pytest.mark.parametrize("cropped", [False, True], ids=["full", "cropped"])
def test_deconv_command(runner, tmp_path, cropped):
    img = make_test_image("polygons", 40, seed=2)
    k = make_kernel("gaussian", 5, {"sigma": 1.0})
    b, _ = synth_blur(img, k)
    if cropped:
        b = b[2:42, 2:42]
    bpath = tmp_path / "b.pgm"
    save_image(bpath, b)
    kpath = tmp_path / "k.txt"
    save_kernel_txt(kpath, k)
    out = tmp_path / "o"
    r = runner.invoke(main, ["deconv", str(bpath), str(kpath), "-o", str(out)]
                      + (["--cropped"] if cropped else []))
    assert r.exit_code == 0, r.output
    assert load_image(str(out / "restored.pgm")).shape == (40, 40)


def test_deblur_command(runner, blurry_pgm, tmp_path):
    out = tmp_path / "o"
    r = runner.invoke(main, ["deblur", blurry_pgm, "--kernel-size", "5",
                             "--alpha", "0.01", "--max-iters", "3",
                             "--method", "gram", "-o", str(out)])
    # 3 iterations will not converge: exit code must be the convergence code
    assert r.exit_code in (0, 3), r.output
    assert (out / "restored.pgm").exists()
    assert (out / "kernel.txt").exists()
    assert (out / "trace.csv").read_text().startswith("iteration,objective")


def test_synth_and_eval_commands(runner, tmp_path):
    case = tmp_path / "case"
    r = runner.invoke(main, ["synth", "--image", "polygons", "--size", "48",
                             "--kernel-family", "gaussian",
                             "--kernel-size", "5", "--kernel-param",
                             "sigma=1.0", "--seed", "3", "-o", str(case)])
    assert r.exit_code == 0, r.output
    for name in ("sharp.pgm", "blurry.pgm", "blurry.npy", "sharp.npy",
                 "kernel_true.txt", "case.cfg"):
        assert (case / name).exists()

    out = tmp_path / "eval"
    r = runner.invoke(main, ["eval", "--case", str(case), "-o", str(out)])
    assert r.exit_code == 0, r.output
    lines = (out / "metrics.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines] == [
        "metric", "kernel_error", "noiseless_bound", "noisy_bound",
        "psnr_blurry", "psnr_restored", "sigma_ratio", "runtime_seconds"]
    assert lines[0] == "metric,value"


def test_deblur_cropped_command(runner, blurry_pgm, tmp_path):
    out = tmp_path / "o"
    r = runner.invoke(main, ["deblur", blurry_pgm, "--kernel-size", "5",
                             "--alpha", "1e-5", "--max-iters", "2",
                             "--method", "gram", "--cropped", "-o", str(out)])
    assert r.exit_code in (0, 3), r.output
    restored = load_image(str(out / "restored.pgm"))
    assert restored.shape == load_image(blurry_pgm).shape


@pytest.mark.filterwarnings("default:sigma_min / sigma_max:RuntimeWarning")
@pytest.mark.parametrize("method, n_lines", [("gram", 1), ("svd", 0)])
def test_eval_prints_the_gram_warning_on_one_line(runner, tmp_path, method,
                                                  n_lines):
    # criterion 6's noiseless Gaussian case: sigma_min / sigma_max = 3.5e-8
    case = tmp_path / "case"
    r = runner.invoke(main, ["synth", "--size", "128", "--kernel-size", "9",
                             "--kernel-param", "sigma=1.8", "-o", str(case)])
    assert r.exit_code == 0, r.output
    r = runner.invoke(main, ["eval", "--case", str(case), "--method", method,
                             "-o", str(tmp_path / "eval")])
    assert r.exit_code == 0, r.output
    # the image step converges: no line of its own
    lines = r.stderr.splitlines()
    assert len(lines) == n_lines
    assert all(re.match(r"warning: sigma_min / sigma_max = \S+ is below "
                        r"1e-07", l) for l in lines)


def test_eval_warns_for_each_unconverged_solver(runner, tmp_path,
                                                monkeypatch):
    # eval's image step runs with deconv's defaults and converges on this
    # case, so nothing warns; each solver that reports unconverged gets one
    # warning line, which changes neither the outputs nor the exit code
    case = tmp_path / "case"
    r = runner.invoke(main, ["synth", "--size", "48", "--kernel-size", "5",
                             "-o", str(case)])
    assert r.exit_code == 0, r.output
    steps = []
    real_tv = cli.tv_deconv
    monkeypatch.setattr(cli, "tv_deconv", lambda *args, **kwargs:
                        steps.append(real_tv(*args, **kwargs)) or steps[-1])
    r = runner.invoke(main, ["eval", "--case", str(case), "-o",
                             str(tmp_path / "a")])
    assert r.exit_code == 0, r.output
    assert r.stderr == ""
    [step] = steps
    assert step.converged
    assert step.iterations < TvSolverConfig.max_inner
    real_qp = blind.solve_qp
    monkeypatch.setattr(blind, "solve_qp", lambda *args, **kwargs:
                        dataclasses.replace(real_qp(*args, **kwargs),
                                            converged=False))
    monkeypatch.setattr(cli, "tv_deconv", lambda *args, **kwargs:
                        dataclasses.replace(real_tv(*args, **kwargs),
                                            converged=False))
    r = runner.invoke(main, ["eval", "--case", str(case), "-o",
                             str(tmp_path / "b")])
    assert r.exit_code == 0, r.output
    assert r.stderr.splitlines() == [
        "warning: the kernel QP stopped unconverged after 0 iterations",
        "warning: the image step stopped unconverged after "
        f"{step.iterations} iterations"]
    for name in ("kernel_estimated.txt", "restored.pgm"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()
    r = runner.invoke(main, ["repro", "fig3", "--size", "48",
                             "--kernel-size", "5", "-o", str(tmp_path / "f")])
    assert r.exit_code == 0, r.output
    assert r.stderr.splitlines() == [
        f"warning: case {i}'s kernel QP stopped unconverged after "
        "0 iterations" for i in range(1, 7)]


def test_eval_noisy_bound_uses_the_case_noise(runner, tmp_path):
    # eps is ||LoG(B - I0 * K0)||_F, the --noise of synth, which draws the
    # noise under the same LoG
    case = tmp_path / "case"
    r = runner.invoke(main, ["synth", "--size", "48", "--kernel-size", "5",
                             "--noise", "0.05", "-o", str(case)])
    assert r.exit_code == 0, r.output
    out = tmp_path / "eval"
    r = runner.invoke(main, ["eval", "--case", str(case), "-o", str(out)])
    assert r.exit_code == 0, r.output
    rows = dict(line.split(",") for line in
                (out / "metrics.csv").read_text().splitlines()[1:])
    s = sample_size(5)
    spec_b, spec_i = (conv_spectrum(np.load(case / name), make_log(1.0), s,
                                    s, "gram")
                      for name in ("blurry.npy", "sharp.npy"))
    expected = noisy_error_bound(spec_b.sigma_max, spec_b.sigma_min,
                                 spec_i.sigma_min, s, s, eps=0.05)
    assert float(rows["noisy_bound"]) == pytest.approx(expected, rel=1e-9)
    assert float(rows["noiseless_bound"]) == noiseless_error_bound(
        spec_b.sigma_max, spec_i.sigma_min)
    assert float(rows["noisy_bound"]) > float(rows["noiseless_bound"])


def test_deconv_names_a_kernel_file_that_is_not_text(runner, tmp_path):
    case = tmp_path / "case"
    r = runner.invoke(main, ["synth", "--size", "16", "--kernel-size", "3",
                             "-o", str(case)])
    assert r.exit_code == 0, r.output
    kernel = str(case / "blurry.npy")
    r = runner.invoke(main, ["deconv", str(case / "blurry.pgm"), kernel,
                             "-o", str(tmp_path / "o")])
    assert r.exit_code == 2, r.output
    assert f"malformed kernel file {kernel!r}" in r.stderr
    assert "whitespace-separated decimals" in r.stderr


@pytest.mark.parametrize("flags, taps", [
    (["--feature", "delta"], DELTA), (["--log-sigma", "2"], make_log(2.0))],
    ids=["delta", "log-sigma-2"])
def test_deblur_filter_flags_give_the_library_taps(runner, blurry_pgm,
                                                   tmp_path, flags, taps):
    out = tmp_path / "o"
    r = runner.invoke(main, ["deblur", blurry_pgm, "--kernel-size", "5",
                             "--alpha", "0.01", "--max-iters", "3", *flags,
                             "-o", str(out)])
    assert r.exit_code in (0, 3), r.output
    res = blind_deblur(load_image(blurry_pgm),
                       DeblurConfig(m1=5, m2=5, alpha=0.01, max_outer=3,
                                    f=taps))
    assert np.array_equal(load_kernel_txt(out / "kernel.txt"), res.kernel)


def test_eval_warns_when_restoration_is_worse_than_blurry(runner, tmp_path):
    # the spectral estimate of this off-centre curve kernel is a wide blob
    # (kernel error 0.26); restoring with it loses to the blurry input,
    # which eval reports on stderr while still writing every output
    case = tmp_path / "case"
    r = runner.invoke(main, ["synth", "--image", "polygons", "--size", "96",
                             "--kernel-family", "curve", "--kernel-size", "9",
                             "--seed", "3", "-o", str(case)])
    assert r.exit_code == 0, r.output
    out = tmp_path / "eval"
    r = runner.invoke(main, ["eval", "--case", str(case), "-o", str(out)])
    assert r.exit_code == 0, r.output
    rows = dict(line.split(",") for line in
                (out / "metrics.csv").read_text().splitlines()[1:])
    assert float(rows["psnr_restored"]) < float(rows["psnr_blurry"])
    assert "warning: the restored image is further" in r.stderr
    assert (out / "restored.pgm").exists()


def test_eval_with_another_kernel_size(runner, tmp_path):
    # a 3x3 estimate of a 5x5 blur restores a larger image than the sharp
    # one; eval scores them on their common central window
    case = tmp_path / "case"
    r = runner.invoke(main, ["synth", "--size", "48", "--kernel-size", "5",
                             "-o", str(case)])
    assert r.exit_code == 0, r.output
    out = tmp_path / "eval"
    r = runner.invoke(main, ["eval", "--case", str(case), "--kernel-size",
                             "3", "-o", str(out)])
    assert r.exit_code == 0, r.output
    rows = dict(line.split(",") for line in
                (out / "metrics.csv").read_text().splitlines()[1:])
    assert np.isfinite(float(rows["psnr_restored"]))
    assert load_kernel_txt(out / "kernel_estimated.txt").shape == (3, 3)


@pytest.mark.parametrize("size", ["0", "-1"])
def test_eval_kernel_size_below_one_is_a_validation_error(runner, tmp_path,
                                                          size):
    # 0 is not "unset": it must not fall back to the true size
    case = tmp_path / "case"
    r = runner.invoke(main, ["synth", "--size", "32", "--kernel-size", "3",
                             "-o", str(case)])
    assert r.exit_code == 0, r.output
    r = runner.invoke(main, ["eval", "--case", str(case), "--kernel-size",
                             size, "-o", str(tmp_path / "eval")])
    assert r.exit_code == 2, r.output
    assert "--kernel-size" in r.stderr


def test_sweep_command(runner, blurry_pgm, tmp_path):
    out = tmp_path / "o"
    r = runner.invoke(main, ["sweep", blurry_pgm, "--kernel-size", "5",
                             "--alphas", "0.01,0.1", "--max-iters", "3",
                             "--method", "gram", "-o", str(out)])
    assert r.exit_code == 0, r.output
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "alpha,impulse_distance,sharpness,iterations,converged,objective"
    assert len(lines) == 3


def test_repro_fig2(runner, tmp_path):
    out = tmp_path / "o"
    r = runner.invoke(main, ["repro", "fig2", "--size", "48",
                             "--kernel-size", "5", "--sample-size", "6",
                             "-o", str(out)])
    assert r.exit_code == 0, r.output
    assert (out / "fig2_spectra.csv").exists()
    assert (out / "fig2_ratios.csv").exists()


def test_repro_fig3(runner, tmp_path):
    out = tmp_path / "o"
    r = runner.invoke(main, ["repro", "fig3", "--size", "48",
                             "--kernel-size", "5", "-o", str(out)])
    assert r.exit_code == 0, r.output
    assert r.stderr == ""   # every kernel QP converged
    lines = (out / "fig3_errors.csv").read_text().splitlines()
    assert lines[0] == "case,family,kernel_error,noiseless_bound"
    assert len(lines) == 7
    for line in lines[1:]:
        _, _, err, bound = line.split(",")
        assert float(err) < float(bound)


def test_env_var_output_root(runner, blurry_pgm, tmp_path, monkeypatch):
    root = tmp_path / "envout"
    monkeypatch.setenv("CONVDEBLUR_OUT", str(root))
    r = runner.invoke(main, ["spectrum", blurry_pgm, "--sample-size", "4"])
    assert r.exit_code == 0, r.output
    assert (root / "spectrum.csv").exists()


def test_config_file_and_cli_precedence(runner, blurry_pgm, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sample-size=4\nmethod=gram\n")
    out1 = tmp_path / "o1"
    r = runner.invoke(main, ["spectrum", blurry_pgm, "--config", str(cfg),
                             "-o", str(out1)])
    assert r.exit_code == 0, r.output
    assert len((out1 / "spectrum.csv").read_text().splitlines()) == 17

    # explicit flag wins over the config file
    out2 = tmp_path / "o2"
    r = runner.invoke(main, ["spectrum", blurry_pgm, "--config", str(cfg),
                             "--sample-size", "3", "-o", str(out2)])
    assert r.exit_code == 0, r.output
    assert len((out2 / "spectrum.csv").read_text().splitlines()) == 10


def test_validation_exit_code(runner, tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"not a pgm")
    r = runner.invoke(main, ["spectrum", str(bad), "--sample-size", "4",
                             "-o", str(tmp_path)])
    assert r.exit_code == 2


@pytest.mark.parametrize("data, problem", [
    (b"P5\n48 48\n255\n\x01\x02", "2 pixels, not width x height = 2304"),
    (b"P2\n2 2\n255\n1 2 3\n", "3 pixels, not width x height = 4"),
    (b"P5\n48 ", "no P2 or P5 header"),
    (b"P2\n2 1\n255\n300 4\n", "pixel values are not integers in 0..255"),
    (b"P2\n2 1\n255\n300 -4\n", "pixel values are not integers in 0..255"),
    (b"P2\n1 1\n255\n1.5\n", "pixel values are not integers in 0..255"),
    (b"P5\n1 1\n100\n\xff", "pixel values are not integers in 0..100"),
    (b"P5\n1 1\n1000\n\x03\xe9", "pixel values are not integers in 0..1000"),
    (b"P5\n1 1\n255\n\x10\x20\x30", "3 pixels, not width x height = 1"),
    (b"P2\n1 1\n255\n16 32\n", "2 pixels, not width x height = 1")],
    ids=["short-p5-raster", "few-p2-pixels", "truncated-header",
         "p2-above-maxval", "p2-negative", "p2-fraction",
         "p5-8bit-above-maxval", "p5-16bit-above-maxval", "long-p5-raster",
         "many-p2-pixels"])
def test_malformed_pgm_is_named(runner, tmp_path, data, problem):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(data)
    r = runner.invoke(main, ["spectrum", str(bad), "--sample-size", "2",
                             "-o", str(tmp_path)])
    assert r.exit_code == 2, r.output
    assert f"error: malformed PGM file {str(bad)!r}: {problem}" in r.stderr


def test_png_without_pillow_is_a_validation_error(runner, tmp_path,
                                                  monkeypatch):
    # hide Pillow, so that this runs the same where it is installed
    monkeypatch.setitem(sys.modules, "PIL", None)
    png = tmp_path / "a.png"
    png.write_bytes(b"")
    r = runner.invoke(main, ["spectrum", str(png), "-o", str(tmp_path)])
    assert r.exit_code == 2, r.output
    assert "unsupported image format '.png' (install Pillow" in r.stderr


def test_array_too_large_is_a_validation_error(runner, blurry_pgm, tmp_path,
                                               monkeypatch):
    # numpy's allocation failure is a MemoryError; the spectrum raises one
    # here in place of allocating, so no memory is spent
    def conv_spectrum(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.1 TiB for an array")

    monkeypatch.setattr(cli, "conv_spectrum", conv_spectrum)
    r = runner.invoke(main, ["spectrum", blurry_pgm, "--sample-size", "110",
                             "-o", str(tmp_path)])
    assert r.exit_code == 2, r.output
    assert r.stderr.splitlines() == [
        "error: Unable to allocate 1.1 TiB for an array"]


def test_synth_image_file_is_the_scene(runner, tmp_path):
    scene = make_test_image("bars", 24, seed=4)
    save_image(tmp_path / "scene.pgm", scene)
    r = runner.invoke(main, ["synth", "--image", str(tmp_path / "scene.pgm"),
                             "--kernel-size", "3", "-o", str(tmp_path / "c")])
    assert r.exit_code == 0, r.output
    sharp = np.load(tmp_path / "c" / "sharp.npy")
    # the file's 8-bit pixels, not a procedural image of the default size
    assert np.array_equal(sharp, load_image(tmp_path / "scene.pgm"))
    assert sharp.shape == (24, 24)
    assert np.load(tmp_path / "c" / "blurry.npy").shape == (26, 26)


def test_config_comments_and_blank_lines_are_skipped(runner, blurry_pgm,
                                                     tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# spectrum on 3 x 3 probes\n\n  \nsample-size=3\n"
                   "  # method=svd\n")
    r = runner.invoke(main, ["spectrum", blurry_pgm, "--config", str(cfg),
                             "-o", str(tmp_path / "a")])
    assert r.exit_code == 0, r.output
    r = runner.invoke(main, ["spectrum", blurry_pgm, "--sample-size", "3",
                             "-o", str(tmp_path / "b")])
    assert r.exit_code == 0, r.output
    assert ((tmp_path / "a" / "spectrum.csv").read_bytes()
            == (tmp_path / "b" / "spectrum.csv").read_bytes())


def test_missing_file_exit_nonzero(runner):
    r = runner.invoke(main, ["spectrum", "/no/such/file.pgm"])
    assert r.exit_code != 0


def test_determinism_byte_identical(runner, blurry_pgm, tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        r = runner.invoke(main, ["spectrum", blurry_pgm, "--sample-size", "5",
                                 "-o", str(out)])
        assert r.exit_code == 0, r.output
        outs.append((out / "spectrum.csv").read_bytes())
    assert outs[0] == outs[1]


def test_sweep_empty_alpha_list_is_a_validation_error(runner, blurry_pgm,
                                                      tmp_path):
    r = runner.invoke(main, ["sweep", blurry_pgm, "--kernel-size", "5",
                             "--alphas", ",", "-o", str(tmp_path)])
    assert r.exit_code == 2, r.output
    assert "alpha list is empty" in r.stderr


def test_sweep_bad_alpha_is_a_validation_error(runner, blurry_pgm, tmp_path):
    r = runner.invoke(main, ["sweep", blurry_pgm, "--kernel-size", "5",
                             "--alphas", "0.1,abc", "-o", str(tmp_path)])
    assert r.exit_code == 2, r.output
    assert "--alphas: 'abc' is not a number" in r.stderr


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_sweep_non_finite_alpha_is_a_validation_error(runner, blurry_pgm,
                                                      tmp_path, alpha):
    # a NaN alpha reached the QP's eigensolver after a full blind run
    r = runner.invoke(main, ["sweep", blurry_pgm, "--kernel-size", "5",
                             "--alphas", f"0.1,{alpha}", "-o", str(tmp_path)])
    assert r.exit_code == 2, r.output
    assert f"--alphas: '{alpha}' is not finite" in r.stderr
    assert not (tmp_path / "sweep.csv").exists()



@pytest.mark.parametrize("command", [
    ["estimate-kernel"],
    ["deblur", "--alpha", "0.1", "--max-iters", "1"],
    ["sweep", "--alphas", "0.1", "--max-iters", "1"],
], ids=["estimate-kernel", "deblur", "sweep"])
def test_zero_sample_size_is_a_validation_error(runner, blurry_pgm, tmp_path,
                                                command):
    # 0 is not "unset": it must not fall back to the default ceil(1.5 m)
    r = runner.invoke(main, [command[0], blurry_pgm, *command[1:],
                             "--kernel-size", "5", "--sample-size", "0",
                             "--method", "gram", "-o", str(tmp_path)])
    assert r.exit_code == 2, r.output
    assert "sampling sizes must be >= 1" in r.stderr


def test_bad_config_line_is_a_validation_error(runner, blurry_pgm, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sample-size 4\n")
    r = runner.invoke(main, ["spectrum", blurry_pgm, "--config", str(cfg),
                             "-o", str(tmp_path)])
    assert r.exit_code == 2
    assert "bad config line" in r.stderr


def test_unknown_config_key_is_a_validation_error(runner, blurry_pgm,
                                                  tmp_path):
    # lam is --lambda's parameter name, not a flag name: it must not be
    # dropped silently, running at the default lambda
    save_kernel_txt(tmp_path / "k.txt", make_kernel("gaussian", 5, {"sigma": 1.0}))
    (tmp_path / "run.cfg").write_text("lam=0.01\n")
    r = runner.invoke(main, ["deconv", blurry_pgm, str(tmp_path / "k.txt"),
                             "--config", str(tmp_path / "run.cfg"),
                             "-o", str(tmp_path / "o")])
    assert r.exit_code == 2, r.output
    assert "unknown config key 'lam'" in r.stderr
    assert not (tmp_path / "o" / "restored.pgm").exists()


def test_required_options_from_config(runner, blurry_pgm, tmp_path):
    # --kernel-size and --alpha are required: the config file can give them
    (tmp_path / "run.cfg").write_text("kernel-size=5\nalpha=0.01\n")
    kernels = {}
    for name, args in [("config", ["--config", str(tmp_path / "run.cfg")]),
                       ("flag", ["--kernel-size", "5", "--alpha", "0.01"])]:
        r = runner.invoke(main, ["deblur", blurry_pgm, *args,
                                 "-o", str(tmp_path / name)])
        assert r.exit_code == 0, r.output
        kernels[name] = (tmp_path / name / "kernel.txt").read_bytes()
    assert kernels["config"] == kernels["flag"]


def test_sweep_alphas_from_config(runner, blurry_pgm, tmp_path):
    (tmp_path / "run.cfg").write_text("alphas=0.01,0.1\nkernel-size=5\n")
    r = runner.invoke(main, ["sweep", blurry_pgm, "--config",
                             str(tmp_path / "run.cfg"), "--max-iters", "3",
                             "-o", str(tmp_path)])
    assert r.exit_code == 0, r.output
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["0.01", "0.1"]


@pytest.mark.parametrize("command, message", [
    (["deblur", "--kernel-size", "5", "--alpha", "0.01", "--max-iters", "0"],
     "max_outer must be >= 1"),
    (["deconv", "K", "--tol", "-1"], "tol must be nonnegative"),
    (["deconv", "K", "--tol", "nan"], "tol must be nonnegative and finite"),
    (["deconv", "K", "--lambda", "nan"], "lam must be nonnegative and finite"),
    (["deblur", "--kernel-size", "5", "--alpha", "nan"],
     "alpha and lam must be nonnegative and finite"),
    (["deblur", "--kernel-size", "5", "--alpha", "0.1", "--lambda", "inf"],
     "alpha and lam must be nonnegative and finite"),
    (["spectrum", "--save-eigenvectors", "-3"], "-3 is not in the range x>=0"),
], ids=["deblur-max-iters-0", "deconv-negative-tol", "deconv-nan-tol",
        "deconv-nan-lambda", "deblur-nan-alpha", "deblur-inf-lambda",
        "spectrum-negative-eigenvectors"])
def test_values_that_do_nothing_are_validation_errors(runner, blurry_pgm,
                                                      tmp_path, command,
                                                      message):
    # zero outer iterations and a negative tolerance would run and report
    # non-convergence (exit 3) rather than reject the value, a negative
    # eigenvector count would save none and exit 0; a NaN or
    # infinite weight or tolerance is rejected where it is set
    kpath = tmp_path / "k.txt"
    save_kernel_txt(kpath, make_kernel("gaussian", 5, {"sigma": 1.0}))
    args = [str(kpath) if a == "K" else a for a in command[1:]]
    r = runner.invoke(main, [command[0], blurry_pgm, *args,
                             "-o", str(tmp_path / "o")])
    assert r.exit_code == 2, r.output
    assert message in r.stderr


@pytest.mark.parametrize("param, message", [
    ("sigma", "--kernel-param 'sigma' is not key=value"),
    ("length=7.9", "length must be an integer"),
    ("sigma=abc", "--kernel-param 'sigma=abc': 'abc' is not a number"),
    ("angle=inf", "--kernel-param 'angle=inf': 'inf' is not finite"),
    ("length=nan", "--kernel-param 'length=nan': 'nan' is not finite"),
], ids=["no-equals", "fractional-length", "not-a-number", "infinite",
        "nan"])
def test_bad_kernel_param_is_a_validation_error(runner, tmp_path, param,
                                                message):
    r = runner.invoke(main, ["synth", "--size", "16", "--kernel-size", "9",
                             "--kernel-family", "motion-line",
                             "--kernel-param", param,
                             "-o", str(tmp_path / "case")])
    assert r.exit_code == 2, r.output
    assert message in r.stderr


def test_config_keys_are_flag_names(runner, tmp_path):
    # --lambda's parameter is named lam; the config key is the flag name
    img = make_test_image("polygons", 32, seed=2)
    k = make_kernel("gaussian", 5, {"sigma": 1.0})
    b, _ = synth_blur(img, k)
    save_image(tmp_path / "b.pgm", b)
    save_kernel_txt(tmp_path / "k.txt", k)
    (tmp_path / "run.cfg").write_text("lambda=0.02\n")
    restored = {}
    for name, args in [("default", []), ("flag", ["--lambda", "0.02"]),
                       ("config", ["--config", str(tmp_path / "run.cfg")])]:
        r = runner.invoke(main, ["deconv", str(tmp_path / "b.pgm"),
                                 str(tmp_path / "k.txt"), *args,
                                 "-o", str(tmp_path / name)])
        assert r.exit_code == 0, r.output
        restored[name] = (tmp_path / name / "restored.pgm").read_bytes()
    assert restored["config"] == restored["flag"] != restored["default"]


def test_case_cfg_reproduces_the_case(runner, tmp_path):
    # case.cfg holds synth's options by flag name, a repeated kernel-param
    # line per item, so feeding it back rebuilds the case bit for bit
    r = runner.invoke(main, ["synth", "--image", "bars", "--size", "32",
                             "--kernel-family", "motion-line",
                             "--kernel-size", "7", "--kernel-param",
                             "angle=30", "--kernel-param", "length=5",
                             "--noise", "0.05", "--seed", "2",
                             "-o", str(tmp_path / "a")])
    assert r.exit_code == 0, r.output
    cfg = (tmp_path / "a" / "case.cfg").read_text()
    assert "image=bars\n" in cfg and "kernel-param=length=5\n" in cfg
    r = runner.invoke(main, ["synth", "--config", str(tmp_path / "a" / "case.cfg"),
                             "-o", str(tmp_path / "b")])
    assert r.exit_code == 0, r.output
    for name in ("blurry.npy", "kernel_true.txt", "case.cfg"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name


def read_readme():
    with open(os.path.join(os.path.dirname(__file__), os.pardir,
                           "README.md")) as fh:
        return fh.read()


def test_readme_lists_every_subcommand():
    # the README's command table names exactly the registered subcommands
    section = read_readme().split("## Command-line interface")[1]
    section = section.split("\n#")[0]
    listed = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            words = line.split("`")[1].split()
            listed.add(" ".join(words[:2]) if words[0] == "repro" else words[0])
    registered = set(main.commands) - {"repro"}
    registered |= {f"repro {name}" for name in main.commands["repro"].commands}
    assert listed == registered


def test_readme_states_the_library_defaults():
    # the CLI reads these defaults from the library; the README repeats them
    text = " ".join(read_readme().split())
    found = re.search(r"`TvSolverConfig` \(λ (\S+), (\d+) iterations, "
                      r"tolerance (\S+)\) and `DeblurConfig` \(`(\w+)`, "
                      r"(\d+) outer iterations\)", text)
    assert found, "the README no longer states the CLI defaults"
    lam, max_inner, tol, method, max_outer = found.groups()
    assert ((float(lam), int(max_inner), float(tol))
            == (TvSolverConfig.lam, TvSolverConfig.max_inner,
                TvSolverConfig.tol))
    assert ((method, int(max_outer))
            == (DeblurConfig.spectrum_method, DeblurConfig.max_outer))
