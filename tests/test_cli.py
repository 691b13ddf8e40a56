import dataclasses
import os
import re

import numpy as np
import pytest
from click.testing import CliRunner

from convdeblur import blind
from convdeblur.cli import main
from convdeblur.imgio import (load_image, load_kernel_txt, save_image,
                              save_kernel_txt)
from convdeblur.synth import make_kernel, make_test_image, synth_blur

IMAGE_STEP_UNCONVERGED = ("warning: the image step stopped unconverged "
                          "after 100 iterations")


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
    *lines, last = r.stderr.splitlines()
    assert len(lines) == n_lines
    assert all(re.match(r"warning: sigma_min / sigma_max = \S+ is below "
                        r"1e-07", l) for l in lines)
    # the image step's 100 ADMM iterations stop short of its tolerance
    assert last == IMAGE_STEP_UNCONVERGED


def test_eval_warns_for_each_unconverged_solver(runner, tmp_path,
                                                monkeypatch):
    # one warning line per solver that stops unconverged: the image step
    # on this case, and the kernel QP when it reports so; neither changes
    # the outputs or the exit code
    case = tmp_path / "case"
    r = runner.invoke(main, ["synth", "--size", "48", "--kernel-size", "5",
                             "-o", str(case)])
    assert r.exit_code == 0, r.output
    r = runner.invoke(main, ["eval", "--case", str(case), "-o",
                             str(tmp_path / "a")])
    assert r.exit_code == 0, r.output
    assert r.stderr.splitlines() == [IMAGE_STEP_UNCONVERGED]
    real = blind.solve_qp
    monkeypatch.setattr(blind, "solve_qp", lambda *args, **kwargs:
                        dataclasses.replace(real(*args, **kwargs),
                                            converged=False))
    r = runner.invoke(main, ["eval", "--case", str(case), "-o",
                             str(tmp_path / "b")])
    assert r.exit_code == 0, r.output
    assert r.stderr.splitlines() == [
        "warning: the kernel QP stopped unconverged after 0 iterations",
        IMAGE_STEP_UNCONVERGED]
    for name in ("kernel_estimated.txt", "restored.pgm"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()
    r = runner.invoke(main, ["repro", "fig3", "--size", "48",
                             "--kernel-size", "5", "-o", str(tmp_path / "f")])
    assert r.exit_code == 0, r.output
    assert r.stderr.splitlines() == [
        f"warning: case {i}'s kernel QP stopped unconverged after "
        "0 iterations" for i in range(1, 7)]


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
], ids=["deblur-max-iters-0", "deconv-negative-tol", "deconv-nan-tol",
        "deconv-nan-lambda", "deblur-nan-alpha", "deblur-inf-lambda"])
def test_values_that_do_nothing_are_validation_errors(runner, blurry_pgm,
                                                      tmp_path, command,
                                                      message):
    # zero outer iterations and a negative tolerance would run and report
    # non-convergence (exit 3) rather than reject the value; a NaN or
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


def test_readme_lists_every_subcommand():
    # the README's command table names exactly the registered subcommands
    with open(os.path.join(os.path.dirname(__file__), os.pardir,
                           "README.md")) as fh:
        readme = fh.read()
    section = readme.split("## Command-line interface")[1].split("\n#")[0]
    listed = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            words = line.split("`")[1].split()
            listed.add(" ".join(words[:2]) if words[0] == "repro" else words[0])
    registered = set(main.commands) - {"repro"}
    registered |= {f"repro {name}" for name in main.commands["repro"].commands}
    assert listed == registered
