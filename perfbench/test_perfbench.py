"""Harness tests: toy-size runs of every workload emit every metric.

    python3 -m pytest perfbench/test_perfbench.py

Each run is a separate process, because the benchmark refuses to start once
numpy is imported (the BLAS thread count must be pinned first).
"""

import json
import os
import shutil
import subprocess
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    proc = run("--workload", workload, "--seed", "0", "--seconds", "0.1",
               "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["correct"] and result["failed"] == 0, proc.stderr
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace:
        assert result["metrics"]["trace.missing"]["value"] == 0


def test_smoke_seed_fixes_quality():
    runs = [run("--workload", "estimate", "--seed", "4", "--seconds", "0.1",
                "--smoke") for _ in range(2)]
    values = [json.loads(p.stdout.strip().splitlines()[-1])["metrics"]
              ["kernel_err"]["value"] for p in runs]
    assert values[0] == values[1]


def test_refuses_without_sources(tmp_path):
    # only BENCHMARK.json and the benchmark's own files, no src/
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "estimate",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_refuses_after_numpy_import():
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, numpy; "
                           f"sys.path.insert(0, {HERE!r}); import run; "
                           "sys.exit(run.main(['--workload', 'estimate', "
                           "'--seed', '0', '--seconds', '1']))"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2
    assert "numpy" in proc.stderr


def test_tracer_self_times_and_missing_names(monkeypatch):
    sys.path.insert(0, HERE)
    import tracing

    fake = types.ModuleType("fake_layers")

    def solve():
        time.sleep(0.01)
        return types.SimpleNamespace(iterations=7, converged=True)

    def step():
        time.sleep(0.01)
        return fake.solve()

    fake.solve, fake.step = solve, step
    monkeypatch.setitem(sys.modules, "fake_layers", fake)
    monkeypatch.setattr(tracing, "TARGETS", (
        ("fake_layers", "step", "blind.kstep", None),
        ("fake_layers", "solve", "simplex_qp.solve_qp", tracing._solver),
        ("fake_layers", "renamed_away", "blind.blind_objective", None),
        ("no_such_module", "f", "blind.blind_deblur", None)))
    tracer = tracing.Tracer()
    for _ in range(2):
        _, wall = tracer.run_op(lambda: fake.step())
        assert wall >= 0.02
    assert fake.step is step and fake.solve is solve
    assert tracer.missing == ["fake_layers.renamed_away", "no_such_module.f"]
    assert tracer.selftime_residual() < 1e-9
    m = tracer.layer_metrics()
    assert m["blind.kstep.calls"][0] == 1.0
    assert m["simplex_qp.solve_qp.iters"][0] == 7.0
    assert m["simplex_qp.solve_qp.converged_frac"][0] == 1.0
    assert m["blind.kstep.self_s"][0] < m["blind.kstep.s"][0]
    assert m["trace.missing"][0] == 2
