import os

import numpy as np
import pytest
from click.testing import CliRunner

from convdeblur.cli import main
from convdeblur.imgio import (load_image, load_kernel_txt, save_image,
                              save_kernel_txt)
from convdeblur.synth import make_kernel, make_test_image, synth_blur


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
    text = (out / "metrics.csv").read_text()
    assert text.startswith("metric,value")
    assert "kernel_error" in text and "noiseless_bound" in text


def test_deblur_cropped_command(runner, blurry_pgm, tmp_path):
    out = tmp_path / "o"
    r = runner.invoke(main, ["deblur", blurry_pgm, "--kernel-size", "5",
                             "--alpha", "1e-5", "--max-iters", "2",
                             "--method", "gram", "--cropped", "-o", str(out)])
    assert r.exit_code in (0, 3), r.output
    restored = load_image(str(out / "restored.pgm"))
    assert restored.shape == load_image(blurry_pgm).shape


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
