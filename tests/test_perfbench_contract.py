"""The names and argument positions the benchmark's span tracer
(`perfbench/spans.py`) relies on: it wraps ptybench functions by module
attribute and reads some of their arguments by position, so a refactor
that moves them would make the traced counters silently wrong."""

import importlib
import importlib.util
import inspect
import os

import numpy as np
import pytest

import ptybench as pb
from ptybench import engine, grids, harness

SPANS = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                     "perfbench", "spans.py")


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _parameters(fn):
    return list(inspect.signature(fn).parameters)


def test_every_wrapped_name_is_a_function(spans):
    targets = [t for group in spans.WRAPPED.values() for t in group]
    assert targets
    for module_name, attr in targets:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert inspect.isfunction(fn), f"{module_name}.{attr}"


def test_arguments_the_tracer_reads_by_position():
    # _count_sweep reads the dataset and the rule; _count_fft the input
    assert _parameters(engine.position_sweep)[:4] == [
        "state", "dataset", "rule", "mu"]
    for fn in (grids.dft2, grids.idft2):
        assert _parameters(fn)[0] == "field"


def _toy_dataset():
    """Four positions of an 8x8 probe on a 16x16 object."""
    probe = pb.make_probe("tophat", 3, (8, 8))
    geometry = pb.raster_positions((16, 16), (8, 8), step=8, jitter=0)
    patterns = pb.simulate_dataset(np.ones((16, 16), complex), probe,
                                   geometry, pb.Mode.REAL_SPACE, 1)
    return pb.Dataset(geometry, patterns, probe)


def test_warmup_sweeps_pass_the_warmup_rule(monkeypatch):
    # warmup sweeps are counted by the identity of their rule
    rules = []
    sweep = engine.position_sweep

    def recording(state, dataset, rule, mu):
        rules.append(rule)
        return sweep(state, dataset, rule, mu)

    monkeypatch.setattr(engine, "position_sweep", recording)
    dataset = _toy_dataset()
    pb.run_scheme(pb.scheme(9, 2, 1), dataset)
    assert [rule is engine.WARMUP_RULE for rule in rules] == [
        True, True, False]


def test_tracer_counts_the_work_of_a_real_run(spans):
    # a refactor that bypasses a wrapped name changes these counts
    dataset = _toy_dataset()
    n = len(dataset.geometry.positions)
    assert n == 4
    tracer = spans.Tracer()
    tracer.begin_grid()
    tracer.install()
    try:
        pb.run_scheme(pb.scheme(9, 2, 1), dataset)
    finally:
        tracer.uninstall()
    counts = tracer.end_grid()
    assert (counts["engine.sweeps"], counts["engine.warmup_sweeps"],
            counts["engine.position_updates"], counts["grids.fft_calls"]) == (
        3, 2, 3 * n, 6 * n)


@pytest.mark.parametrize("settings, expected", [
    # one shared warmup of 2 sweeps, then 1 refinement sweep per scheme
    (dict(warmup_iterations=2, refinement_iterations=1), (4, 2, 36, 4)),
    # no warmup: 3 outer rounds of 2 inner sweeps per scheme
    (dict(adapter=True, adapter_inner_sweeps=2, adapter_outer_rounds=3),
     (12, 0, 108, 4)),
])
def test_tracer_counts_the_work_of_a_grid(spans, settings, expected):
    # every sweep of a grid passes through the wrapped position_sweep. At
    # oversampling 1 the schemes run one after another: the tracer's
    # counters are not safe across threads.
    cfg = harness.ExperimentConfig(
        object_dims=(32, 32), window=(16, 16), probe_radius=5.0,
        scan_step=8, scheme_ids=(1, 9), realizations=2, oversampling=1,
        **settings)
    tracer = spans.Tracer()
    tracer.begin_grid()
    tracer.install()
    try:
        harness.run_experiment(cfg)
    finally:
        tracer.uninstall()
    counts = tracer.end_grid()
    assert (counts["engine.sweeps"], counts["engine.warmup_sweeps"],
            counts["engine.position_updates"], counts["harness.cells"]) == (
        expected)
