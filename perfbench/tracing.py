"""Span tracer for the traced benchmark run.

Wrappers are installed on the module global that each caller looks up
(``convdeblur.blind.tv_deconv`` is what ``blind_deblur`` calls), so nothing
under ``src/`` changes. Spans are kept in memory as
``[name, start, end, parent, op]`` and turned into per-layer metrics at the
end of the run. A layer's self time is its span's duration minus the time
covered by its child spans, so within one op the self times of all spans,
the op's own root span included, add up to the op's wall time.
"""

import functools
import importlib
import time

ROOT = "harness.op"


def _mb(rec, result):
    rec["mb"] = result.nbytes / 1e6


def _solver(rec, result):
    rec["iters"] = result.iterations
    rec["converged"] = bool(result.converged)


def _tv_name(args, kwargs):
    full = kwargs.get("assume_full", args[3] if len(args) > 3 else True)
    return "tv.tv_deconv.full" if full else "tv.tv_deconv.cropped"


# (module, global the caller looks up, layer name or naming function, counter)
TARGETS = (
    ("convdeblur.spectral", "apply_filter", "features.apply_filter", None),
    ("convdeblur.spectral", "conv_spectrum", "spectral.conv_spectrum", None),
    ("convdeblur.spectral", "toeplitz", "tensorops.toeplitz", _mb),
    ("convdeblur.blind", "estimate_kernel", "blind.estimate_kernel", None),
    ("convdeblur.blind", "build_hessian", "regularizer.build_hessian", None),
    ("convdeblur.blind", "solve_qp", "simplex_qp.solve_qp", _solver),
    ("convdeblur.blind", "kstep", "blind.kstep", None),
    ("convdeblur.blind", "toeplitz", "tensorops.toeplitz", _mb),
    ("convdeblur.blind", "toeplitz_gram", "tensorops.toeplitz_gram", None),
    ("convdeblur.blind", "toeplitz_apply_adjoint",
     "tensorops.toeplitz_apply_adjoint", None),
    ("convdeblur.blind", "tv_deconv", _tv_name, _solver),
    ("convdeblur.blind", "blind_objective", "blind.blind_objective", None),
    ("convdeblur.blind", "conv2d_full", "tensorops.conv2d_full", None),
    ("convdeblur.blind", "blind_deblur", "blind.blind_deblur", _solver),
)

LAYERS = (
    "features.apply_filter", "spectral.conv_spectrum", "tensorops.toeplitz",
    "tensorops.toeplitz_gram", "tensorops.toeplitz_apply_adjoint",
    "tensorops.conv2d_full", "regularizer.build_hessian",
    "simplex_qp.solve_qp", "blind.estimate_kernel", "blind.kstep",
    "blind.blind_objective", "blind.blind_deblur", "tv.tv_deconv.full",
    "tv.tv_deconv.cropped", ROOT,
)
# layers whose spans carry a solver result: iteration count and convergence
SOLVER_LAYERS = ("simplex_qp.solve_qp", "tv.tv_deconv.full",
                 "tv.tv_deconv.cropped", "blind.blind_deblur")


class Tracer:
    """Records nested spans while installed; one instance per run."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent, op]
        self.counters = {}     # span index -> {"iters", "converged", "mb"}
        self.missing = []
        self._stack = []
        self._saved = []
        self._op = -1

    def install(self):
        for mod_name, attr, name, counter in TARGETS:
            try:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr)
            except (ImportError, AttributeError):
                label = f"{mod_name}.{attr}"
                if label not in self.missing:
                    self.missing.append(label)
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, counter))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved = []

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name if isinstance(name, str)
                             else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                counter(self.counters.setdefault(idx, {}), result)
            return result
        return traced

    def run_op(self, fn, *args):
        """Run fn(*args) inside a root span; returns (result, wall seconds)."""
        self._op += 1
        self.install()
        try:
            idx = self._open(ROOT)
            try:
                result = fn(*args)
            finally:
                self._close(idx)
        finally:
            self.uninstall()
        start, end = self.spans[idx][1:3]
        return result, end - start

    def self_times(self):
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, covered)]

    def selftime_residual(self):
        """Largest |sum of self times - root wall time| over the ops."""
        sums, walls = {}, {}
        for span, st in zip(self.spans, self.self_times()):
            sums[span[4]] = sums.get(span[4], 0.0) + st
            if span[3] < 0:
                walls[span[4]] = span[2] - span[1]
        return max((abs(sums[op] - walls[op]) for op in walls), default=0.0)

    def layer_metrics(self):
        """Per-layer counts and times, averaged per traced op."""
        ops = max(self._op + 1, 1)
        agg = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "iters": 0,
                      "converged": 0, "mb": 0.0} for name in LAYERS}
        for i, (span, st) in enumerate(zip(self.spans, self.self_times())):
            a = agg[span[0]]
            a["calls"] += 1
            a["s"] += span[2] - span[1]
            a["self_s"] += st
            c = self.counters.get(i, {})
            a["iters"] += c.get("iters", 0)
            a["converged"] += int(c.get("converged", False))
            a["mb"] += c.get("mb", 0.0)
        out = {}
        for name in LAYERS:
            a = agg[name]
            if name == ROOT:
                out[f"{name}.self_s"] = (a["self_s"] / ops, "s")
                continue
            out[f"{name}.calls"] = (a["calls"] / ops, "count")
            out[f"{name}.s"] = (a["s"] / ops, "s")
            out[f"{name}.self_s"] = (a["self_s"] / ops, "s")
            if name in SOLVER_LAYERS:
                key = "outer_iters" if name == "blind.blind_deblur" else "iters"
                out[f"{name}.{key}"] = (a["iters"] / ops, "count")
                out[f"{name}.converged_frac"] = (
                    a["converged"] / a["calls"] if a["calls"] else 0.0,
                    "fraction")
        out["tensorops.toeplitz.mb"] = (agg["tensorops.toeplitz"]["mb"] / ops,
                                        "MB")
        out["trace.spans"] = (len(self.spans) / ops, "count")
        out["trace.missing"] = (len(self.missing), "count")
        return out

    def dump(self):
        """Spans as plain lists, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[n, s - t0, e - t0, p, op, st]
                for (n, s, e, p, op), st in zip(self.spans, self.self_times())]
