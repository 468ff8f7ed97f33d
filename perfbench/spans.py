"""Span tracer for the benchmark's traced run.

The tracer wraps public ptybench functions from outside the package; the
package itself is not changed. Most functions are imported by name into
the modules that call them (``from .grids import dft2``), so patching only
the defining module would record nothing: `Tracer.install` replaces every
ptybench module attribute that is bound to a wrapped function, and
`Tracer.uninstall` puts the originals back.

Spans are kept in memory as (name, start, end, parent) and turned into
numpy arrays after each traced grid, so a long run stays small.
"""

import math
import os
import sys
import time

import numpy as np

from ptybench import engine

# layer span name -> (module, function)
WRAPPED = {
    "grids.fft": [("ptybench.grids", "dft2"), ("ptybench.grids", "idft2")],
    "grids.padcrop": [("ptybench.grids", "zero_pad_center"),
                      ("ptybench.grids", "crop_center")],
    "forward.exit_wave": [("ptybench.forward", "exit_wave")],
    "forward.simulate": [("ptybench.forward", "simulate_dataset")],
    "noise.apply": [("ptybench.noise", "apply_noise")],
    "cost.residual": [("ptybench.cost", "gradient_residual")],
    "engine.sweep": [("ptybench.engine", "position_sweep")],
    "metrics.align": [("ptybench.metrics", "align_and_error")],
    "metrics.mask": [("ptybench.metrics", "illumination_mask")],
    "harness.build_problem": [("ptybench.harness", "build_problem")],
    "harness.run_experiment": [("ptybench.harness", "run_experiment")],
    "harness.export": [("ptybench.harness", "export")],
}
SPAN_NAMES = sorted(WRAPPED)
_NAME_ID = {name: i for i, name in enumerate(SPAN_NAMES)}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Records one span per call of a wrapped function, plus exact work
    counters taken from the call's arguments and result."""

    def __init__(self):
        self._open = []      # spans of the current grid
        self._stack = []     # indices of spans still running
        self.grids = []      # per traced grid: dict of numpy arrays
        self.counts = {}
        self._patched = []   # (module, attribute, original)

    # -- counters, keyed by metric name ------------------------------------

    def _add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def _count_fft(self, args, kwargs, result):
        n = result.size
        # 5 N log2 N flops per complex transform; bytes are the input read
        # and the output written, computed from the array sizes
        self._add("grids.fft_flop_computed", 5 * n * math.log2(n))
        self._add("grids.fft_bytes_computed",
                  _arg(args, kwargs, 0, "field").nbytes + result.nbytes)

    def _count_sweep(self, args, kwargs, result):
        self._add("engine.sweeps", 1)
        if _arg(args, kwargs, 2, "rule") is engine.WARMUP_RULE:
            self._add("engine.warmup_sweeps", 1)
        dataset = _arg(args, kwargs, 1, "dataset")
        self._add("engine.position_updates", len(dataset.geometry.positions))

    def _count_noise(self, args, kwargs, result):
        self._add("noise.patterns_sampled", len(result))

    def _count_export(self, args, kwargs, result):
        self._add("harness.export_bytes",
                  sum(os.path.getsize(p) for p in result.values()))

    def _count_cells(self, args, kwargs, result):
        self._add("harness.cells", len(result.cells))
        self._add("harness.cells_failed",
                  sum(not cell["ok"] for cell in result.cells.values()))

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, span_name, fn, counter):
        name_id = _NAME_ID[span_name]
        spans, stack, clock = self._open, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if counter is not None:
                counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        counters = {"dft2": self._count_fft, "idft2": self._count_fft,
                    "position_sweep": self._count_sweep,
                    "apply_noise": self._count_noise,
                    "export": self._count_export,
                    "run_experiment": self._count_cells}
        modules = [m for name, m in sys.modules.items()
                   if name == "ptybench" or name.startswith("ptybench.")]
        for span_name, targets in WRAPPED.items():
            for module_name, attr in targets:
                original = getattr(sys.modules[module_name], attr)
                wrapper = self._wrap(span_name, original, counters.get(attr))
                # replace the definition and every alias imported by name
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, key, original))
                            setattr(module, key, wrapper)

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    # -- per-grid bookkeeping ------------------------------------------------

    def begin_grid(self):
        self._open.clear()
        self._stack.clear()
        self.counts = {}

    def end_grid(self):
        """Close the current traced grid; returns its layer metrics."""
        raw = np.array(self._open, dtype=float).reshape(-1, 4)
        name = raw[:, 0].astype(np.int32)
        start, end = raw[:, 1], raw[:, 2]
        parent = raw[:, 3].astype(np.int64)
        self.grids.append({"name": name, "start": start, "end": end,
                           "parent": parent})
        self._open.clear()
        return layer_metrics(name, start, end, parent, self.counts)

    def save(self, path):
        """Write every traced grid's spans to one .npz file."""
        arrays = {"span_names": np.array(SPAN_NAMES)}
        for i, grid in enumerate(self.grids):
            for key, value in grid.items():
                arrays[f"grid{i}_{key}"] = value
        np.savez_compressed(path, **arrays)


def layer_metrics(name, start, end, parent, counts):
    """Per-layer totals for one traced grid (run_experiment + export)."""
    duration = end - start
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                             minlength=len(duration))
    self_time = duration - child_time

    def total(span, values=duration):
        return float(values[name == _NAME_ID[span]].sum())

    def calls(span):
        return int(np.count_nonzero(name == _NAME_ID[span]))

    out = {
        "grids.fft_calls": calls("grids.fft"),
        "grids.fft_s": total("grids.fft"),
        "grids.padcrop_calls": calls("grids.padcrop"),
        "grids.padcrop_s": total("grids.padcrop"),
        "forward.exit_wave_calls": calls("forward.exit_wave"),
        "forward.exit_wave_s": total("forward.exit_wave"),
        "forward.simulate_calls": calls("forward.simulate"),
        "forward.simulate_s": total("forward.simulate"),
        "noise.apply_s": total("noise.apply"),
        "cost.residual_calls": calls("cost.residual"),
        "cost.residual_s": total("cost.residual"),
        "engine.sweep_s": total("engine.sweep"),
        "engine.self_s": total("engine.sweep", self_time),
        "metrics.align_calls": calls("metrics.align"),
        "metrics.align_s": total("metrics.align"),
        "metrics.mask_s": total("metrics.mask"),
        "harness.build_problem_s": total("harness.build_problem"),
        "harness.export_s": total("harness.export"),
        "harness.self_s": total("harness.run_experiment", self_time),
    }
    for key in ("grids.fft_flop_computed", "grids.fft_bytes_computed",
                "engine.sweeps", "engine.warmup_sweeps",
                "engine.position_updates", "noise.patterns_sampled",
                "harness.cells", "harness.cells_failed",
                "harness.export_bytes"):
        out[key] = counts.get(key, 0)
    return out
