#!/usr/bin/env python3
"""convdeblur benchmark: one workload, one process, one client, one BLAS thread.

    python3 perfbench/run.py --workload estimate --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``. Set-up
generates the cases from ``--seed`` (repeated, and reported as a median).
Then a closed loop starts the next operation only when the previous one and
its output checks are done, until ``--seconds`` would be exceeded (the cases
of the pool are always completed once). The loop is single-threaded and has
no queue, so there is no wait time to record.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced operations and reports per-layer metrics from spans.
``--smoke`` shrinks every case to toy size for the harness's own tests.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record
(environment, samples, per-case quality, spans) goes to ``perfbench/out/``.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3
# allowed |sum of span self times - op wall time| per traced op
SELFTIME_TOL_S = 1e-6


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("estimate", "blind-full", "blind-cropped"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="toy-size cases, one set-up, for the harness tests")
    return p.parse_args(argv)


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy
    import scipy
    return {"git_sha": git_sha(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            **{v: os.environ.get(v) for v in THREAD_VARS}}


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def run_loop(wl, cases, seconds, tracer):
    """Closed loop over the case pool; returns the raw record of the run."""
    import numpy as np
    rec = {"op_s": [], "traced_op_s": [], "mpx": 0.0, "attempted": 0,
           "failures": [], "quality": {}}
    first = {}
    start = time.perf_counter()
    i = 0
    last = 0.0     # duration of the previous pass through the loop body
    while True:
        elapsed = time.perf_counter() - start
        full_pass = tracer is not None or i >= len(cases)
        if i > 0 and full_pass and elapsed + last > seconds:
            break
        idx = i % len(cases)
        case = cases[idx]
        i += 1
        began = time.perf_counter()
        for traced in ((False, True) if tracer is not None else (False,)):
            rec["attempted"] += 1
            try:
                if traced:
                    out, dt = tracer.run_op(wl.op, case)
                else:
                    t = time.perf_counter()
                    out = wl.op(case)
                    dt = time.perf_counter() - t
                if traced:
                    rec["traced_op_s"].append(dt)
                else:
                    rec["op_s"].append(dt)
                    rec["mpx"] += case.blurry.size / 1e6
                quality, problems = wl.check(case, out)
                kernels = wl.kernels(out)
                if idx not in first:
                    first[idx] = kernels
                    rec["quality"][idx] = quality
                elif not all(np.array_equal(a, b)
                             for a, b in zip(kernels, first[idx])):
                    problems.append("kernel differs from the first op on "
                                    "the same case")
            except Exception as exc:  # count the failed op, keep measuring
                problems = [f"{type(exc).__name__}: {exc}"]
            if problems:
                rec["failures"].append({"case": idx, "problems": problems})
                print(f"check failed on case {idx}: {'; '.join(problems)}",
                      file=sys.stderr)
        last = time.perf_counter() - began
    return rec


def main(argv=None):
    args = parse_args(argv)
    if "numpy" in sys.modules:
        print("error: numpy was imported before the BLAS threads were pinned",
              file=sys.stderr)
        return 2
    for v in THREAD_VARS:
        os.environ[v] = "1"
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "convdeblur", "__init__.py")):
        print(f"error: no convdeblur sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import convdeblur
    import tracing
    import workloads
    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.realpath(convdeblur.__file__)) != \
            os.path.realpath(os.path.join(src, "convdeblur")):
        print(f"error: convdeblur imported from {convdeblur.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload](smoke=args.smoke)
    setup_times = []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        t = time.perf_counter()
        cases = wl.setup(args.seed)
        setup_times.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(setup_times)

    tracer = tracing.Tracer() if args.trace else None
    rec = run_loop(wl, cases, args.seconds, tracer)
    if not rec["op_s"]:
        print("error: no operation completed", file=sys.stderr)
        return 1
    if tracer is not None:
        residual = tracer.selftime_residual()
        if residual > SELFTIME_TOL_S:
            rec["failures"].append({"problems": [
                f"span self times miss the op wall time by {residual} s"]})
        metrics = tracer.layer_metrics()
        p50 = statistics.median(rec["traced_op_s"] or [0.0])
        untraced = statistics.median(rec["op_s"] or [0.0])
        metrics["trace.op_s.p50"] = (p50, "s")
        metrics["trace.untraced_op_s.p50"] = (untraced, "s")
        metrics["trace.overhead_s"] = (p50 - untraced, "s")
    else:
        quality = [rec["quality"][k] for k in sorted(rec["quality"])]
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_s.p50": (statistics.median(rec["op_s"]), "s"),
            "mpx_per_s": (rec["mpx"] / sum(rec["op_s"]), "Mpx/s"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "kernel_err": (statistics.fmean(q["kernel_err"] for q in quality),
                           "1"),
        }
    failed = len(rec["failures"])
    env = environment()

    n = len(rec["op_s"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {n}{' + %d traced' % len(rec['traced_op_s']) if args.trace else ''}"
          f"  setup runs {len(setup_times)}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    if tracer is not None and tracer.missing:
        print("  missing (not traced): " + ", ".join(tracer.missing))
    if not args.trace:
        tail = tail_percentile(rec["op_s"])
        print(f"  {'op_s tail':44s} " + (
            f"p{tail[0]:.0f} = {tail[1]:.6g} s (n={n})" if tail else
            f"none: n={n} < 20 leaves no percentile above the median "
            f"with ten samples beyond it"))
        for key in ("psnr_gain_db", "dist_below", "dist_above"):
            vals = [q[key] for q in quality if key in q]
            if vals:
                print(f"  {key:44s} {statistics.fmean(vals):14.6g}")
    print(f"  {'error_frac':44s} {failed / rec['attempted']:14.6g} "
          f"({failed} of {rec['attempted']})")

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    record = {"args": vars(args), "env": env, "setup_times_s": setup_times,
              "import_s": import_s, "op_s": rec["op_s"],
              "traced_op_s": rec["traced_op_s"],
              "quality": {str(k): v for k, v in rec["quality"].items()},
              "failures": rec["failures"],
              "metrics": {k: v[0] for k, v in metrics.items()}}
    if tracer is not None:
        record["missing"] = tracer.missing
        record["spans"] = tracer.dump()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(record, f)

    print(json.dumps({
        "correct": failed == 0, "attempted": rec["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
