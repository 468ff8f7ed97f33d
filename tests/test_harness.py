import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
# imported before any memory is traced: a pooled grid imports it on first
# use, and its modules are not the grid's memory
import concurrent.futures  # noqa: F401

import numpy as np
import pytest
from scipy import stats

import ptybench.engine
import ptybench.forward
import ptybench.harness
from ptybench import (ExperimentConfig, ExperimentRecord, compare_schemes,
                      export, load_record, parse_config)
from ptybench.forward import Dataset
from ptybench.harness import build_problem, realization_seed, run_experiment
from ptybench.noise import NoiseModel, apply_noise


SMALL_CONFIG = dict(
    object_dims=(32, 32), window=(16, 16), scan_step=8, scan_jitter=1,
    probe_radius=5.0, photon_budget=1e4, scheme_ids=(1, 2),
    warmup_iterations=10, refinement_iterations=10, realizations=3,
    master_seed=42)


def small_config(**overrides):
    return ExperimentConfig(**{**SMALL_CONFIG, **overrides})


def clean_means(cfg):
    """The noise-free means of `cfg`'s problem, simulated and scaled to its
    photon budget here rather than through the harness's own draw."""
    truth, probe, geometry = build_problem(cfg)[:3]
    return ptybench.scale_to_budget(
        ptybench.simulate_dataset(truth, probe, geometry,
                                  ptybench.Mode.REAL_SPACE, cfg.oversampling),
        cfg.photon_budget)


def traced_peak(run):
    """`run()`'s result and the peak memory it traced, in bytes over what
    was held before it."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        base = tracemalloc.get_traced_memory()[0]
        return run(), tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def record_with_failed_scheme(monkeypatch, failing_id=2):
    """A three-scheme, two-realization record in which every cell of
    `failing_id` failed, recorded as the engine records a divergence."""
    original = ptybench.engine.refine

    def flaky(spec, dataset, state):
        if spec.id == failing_id:
            state.failures.update(
                (k, ArithmeticError("synthetic divergence"))
                for k in range(len(state.object_estimate)))
        return original(spec, dataset, state)

    monkeypatch.setattr("ptybench.harness.engine.refine", flaky)
    return run_experiment(small_config(scheme_ids=(1, 2, 3), realizations=2,
                                       warmup_iterations=2,
                                       refinement_iterations=2))


@pytest.fixture(autouse=True)
def four_cpus(monkeypatch):
    # at oversampling 5 the schemes then run on a thread pool whatever the
    # host's CPU count
    monkeypatch.setattr(ptybench.harness, "usable_cpus", lambda: 4)


# --- config parsing -----------------------------------------------------------

def test_parse_config_round_trip():
    text = """
    # comment line
    mode = fourier_space
    object_dims = 32x32
    scheme_ids = 1, 2, 9
    photon_budget = 1e5
    realizations = 5
    adapter = true
    """
    cfg = parse_config(text)
    assert cfg.mode == "fourier_space"
    assert cfg.object_dims == (32, 32)
    assert cfg.scheme_ids == (1, 2, 9)
    assert cfg.photon_budget == 1e5
    assert cfg.adapter is True


def test_parse_config_unknown_key_errors():
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config("not_a_key = 3")


def test_parse_config_rejects_misspelled_boolean():
    with pytest.raises(ValueError, match="line 1: adapter"):
        parse_config("adapter = ture")


def test_parse_config_rejects_line_without_equals():
    with pytest.raises(ValueError,
                       match="line 2: expected 'key = value', got 'seed 3'"):
        parse_config("realizations = 2\nseed 3")


def test_parse_config_rejects_repeated_key():
    with pytest.raises(ValueError,
                       match="line 3: realizations repeats line 1"):
        parse_config("realizations = 2\nmaster_seed = 1\nrealizations = 3")


@pytest.mark.parametrize("text", [
    "scheme_ids = 1,,2", "scheme_ids = 1,2,", "scheme_ids = 1, ,2",
    "window = 32x", "object_dims = x64"])
def test_parse_config_rejects_empty_tuple_item(text):
    key, value = (part.strip() for part in text.split("="))
    with pytest.raises(ValueError, match=re.escape(
            f"line 1: {key}: empty item in {value!r}")):
        parse_config(text)


def test_parse_config_empty_tuple_reaches_validation():
    with pytest.raises(ValueError, match="at least one scheme"):
        parse_config("scheme_ids =")


def test_readme_example_config_parses():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as f:
        (example,) = re.findall(r"```ini\n(.*?)```", f.read(), re.S)
    cfg = parse_config(example)
    assert (cfg.scheme_ids, cfg.master_seed) == ((1, 2, 5), 7)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(oversampling=3).validate()
    with pytest.raises(ValueError):
        small_config(scheme_ids=(99,)).validate()
    with pytest.raises(ValueError):
        small_config(photon_budget=-1.0).validate()


@pytest.mark.parametrize("overrides, message", [
    (dict(scheme_ids=(1, 2, 1)), "duplicate scheme ids"),
    (dict(warmup_iterations=-1), "warmup_iterations"),
    (dict(refinement_iterations=-1), "refinement_iterations"),
    (dict(scan_jitter=-1), "scan_jitter"),
    (dict(adapter_inner_sweeps=0), "adapter_inner_sweeps"),
    (dict(adapter_outer_rounds=0), "adapter_outer_rounds"),
    (dict(window=(16, 40)), "larger than the object"),
    (dict(adapter_mu_c=1.5), "adapter_mu_c"),
    (dict(scheme_ids=()), "at least one scheme"),
    (dict(photon_budget=float("nan")), "photon budget"),
    (dict(photon_budget=float("inf")), "photon budget"),
    (dict(window=(16, 16, 4)), "window must be two positive ints"),
    (dict(object_dims=(32, 0)), "object_dims must be two positive ints"),
    (dict(probe_radius=20.0), "probe_radius"),
    (dict(probe_radius=-10.0), "probe_radius"),
    (dict(probe_radius=float("nan")), "probe_radius"),
    # no pixel centre of the 16x16 window lies within 0.3 of its centre
    (dict(probe_radius=0.3), "^probe_kind, probe_radius, window: .*lights no"),
    (dict(scan_step=0), "scan_step"),
    (dict(scan_step=8, scan_jitter=4), "scan_jitter"),
    (dict(object_kind="portrait"), "object_kind"),
    (dict(probe_kind="airy"), "probe_kind"),
    (dict(master_seed=-1), "master_seed"),
    (dict(realizations=0), "realizations must be >= 1"),
    (dict(output_dir=""), "output_dir"),
    (dict(mode="fourier"), "^mode: "),
    (dict(noise_model="gaussian"), "^noise_model: "),
    # each field takes its default's type: a value that only compares equal
    # to one is refused where it is checked, not deep inside the run
    (dict(scheme_ids=(2.0,)), "^scheme_ids must be a tuple of ints"),
    (dict(scheme_ids=(True,)), "^scheme_ids must be a tuple of ints"),
    (dict(realizations=True), "^realizations must be an int, got True"),
    (dict(realizations=2.0), "^realizations must be an int, got 2.0"),
    (dict(realizations=np.int64(2)), "^realizations must be an int"),
    (dict(oversampling=1.0), "^oversampling must be an int"),
    (dict(window=(16.0, 16.0)), "^window must be a tuple of ints"),
    (dict(master_seed=0.0), "^master_seed must be an int"),
    (dict(adapter=1), "^adapter must be a bool, got 1"),
], ids=["duplicate_schemes", "negative_warmup", "negative_refinement",
        "negative_jitter", "inner_sweeps_zero", "outer_rounds_zero",
        "window_too_large", "adapter_mu_c_above_one", "no_schemes",
        "nan_photon_budget", "infinite_photon_budget", "window_three_dims",
        "object_dims_zero", "probe_radius_too_large", "probe_radius_negative",
        "probe_radius_nan", "tophat_lights_no_pixel", "scan_step_zero",
        "jitter_half_step", "unknown_object_kind", "unknown_probe_kind",
        "negative_master_seed", "no_realizations", "empty_output_dir",
        "unknown_mode", "unknown_noise_model", "float_scheme_id",
        "bool_scheme_id", "bool_realizations", "float_realizations",
        "numpy_realizations", "float_oversampling", "float_window",
        "float_master_seed", "int_adapter"])
def test_config_validation_rejects(overrides, message):
    with pytest.raises(ValueError, match=message):
        small_config(**overrides).validate()


def test_config_hash_stable():
    assert small_config().hash() == small_config().hash()
    assert small_config().hash() != small_config(master_seed=43).hash()


@pytest.mark.parametrize("key, value", [
    ("probe_radius", 5), ("photon_budget", 10000), ("adapter_mu_c", 1)])
def test_equal_configs_hash_equally(key, value):
    as_int, as_float = small_config(**{key: value}), small_config(
        **{key: float(value)})
    assert as_int == as_float
    assert as_int.hash() == as_float.hash()


@pytest.mark.parametrize("key, value, like", [
    ("photon_budget", 10000, 1e4), ("photon_budget", np.float64(1e4), 1e4),
    ("scheme_ids", [1, 2], (1, 2))], ids=["int", "numpy_float", "list"])
def test_config_validation_accepts_what_hashes_like_its_type(key, value,
                                                             like):
    cfg = small_config(**{key: value})
    cfg.validate()
    assert cfg.hash() == small_config(**{key: like}).hash()


# --- experiment runs ------------------------------------------------------------

def test_run_builds_its_pieces_once(monkeypatch):
    calls = {}
    synthesize, scheme, adapter_config = (ptybench.forward.synthesize_object,
                                          ptybench.engine.scheme,
                                          ptybench.engine.AdapterConfig)

    def counted_synthesize(*args, **kwargs):
        calls["objects"] += 1
        return synthesize(*args, **kwargs)

    def counted_scheme(sid, *args, **kwargs):
        calls["schemes"].append(sid)
        return scheme(sid, *args, **kwargs)

    def counted_adapter(*args, **kwargs):
        calls["adapters"] += 1
        return adapter_config(*args, **kwargs)

    monkeypatch.setattr(ptybench.forward, "synthesize_object",
                        counted_synthesize)
    monkeypatch.setattr(ptybench.engine, "scheme", counted_scheme)
    # validate() builds the adapter settings through the reference it took
    # at import: a rebuild per scheme or per stack would show here
    monkeypatch.setattr(ptybench.engine, "AdapterConfig", counted_adapter)
    for adapter in (False, True):
        calls.update(objects=0, schemes=[], adapters=0)
        # at oversampling 5 each realization is a stack: a build per stack
        # would show as a repeated scheme id
        run_experiment(small_config(realizations=2, oversampling=5,
                                    warmup_iterations=1,
                                    refinement_iterations=1, adapter=adapter,
                                    adapter_inner_sweeps=1,
                                    adapter_outer_rounds=1))
        assert calls == {"objects": 1, "schemes": [1, 2], "adapters": 0}


def test_noise_free_realizations_identical():
    cfg = small_config(noise_model="noise_free", realizations=3,
                       scheme_ids=(1,))
    record = run_experiment(cfg)
    errors = record.final_errors(1)
    assert len(errors) == 3
    assert errors[0] == errors[1] == errors[2]


def test_realization_streams_independent_of_count():
    a = run_experiment(small_config(realizations=1, scheme_ids=(1,)))
    b = run_experiment(small_config(realizations=2, scheme_ids=(1,)))
    assert a.cells[(1, 0)]["curve"] == b.cells[(1, 0)]["curve"]


def test_summary_statistics_self_consistent():
    record = run_experiment(small_config())
    for sid in (1, 2):
        errors = np.asarray(record.final_errors(sid))
        summary = record.summaries[sid]
        assert summary["median"] == pytest.approx(np.median(errors))
        assert summary["mean"] == pytest.approx(np.mean(errors))
        assert summary["n"] == len(errors)


@pytest.mark.parametrize("oversampling", [1, 5])
def test_fourier_problem_scans_the_centered_spectrum(oversampling):
    cfg = small_config(mode="fourier_space", oversampling=oversampling,
                       noise_model="noise_free")
    problem = build_problem(cfg)
    truth, probe, geometry = problem[:3]
    obj = ptybench.forward.synthesize_object(
        cfg.object_kind, cfg.object_dims, seed=cfg.master_seed)
    centered = obj * (-1.0) ** np.add.outer(np.arange(32), np.arange(32))
    assert np.array_equal(truth, ptybench.dft2(centered))
    # the harness's noise-free draw is the scaled Fourier-space stack
    draw = ptybench.harness.noisy_patterns(cfg, problem, [0])
    assert np.array_equal(draw[:, 0], ptybench.scale_to_budget(
        ptybench.simulate_dataset(centered, probe, geometry,
                                  ptybench.Mode.FOURIER_SPACE, oversampling),
        cfg.photon_budget))


def test_build_problem_simulates_no_pattern(monkeypatch):
    calls = []
    for name in ("diffract", "exit_wave"):
        def counted(*args, _original=getattr(ptybench.forward, name),
                    _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(ptybench.forward, name, counted)
    cfg = small_config(oversampling=5)
    problem = build_problem(cfg)
    assert calls == [] and len(problem) == 6
    # a draw simulates its own means, one exit wave and pattern a position
    n = len(problem[2].positions)
    ptybench.harness.noisy_patterns(cfg, problem, [0])
    assert sorted(calls) == ["diffract"] * n + ["exit_wave"] * n


@pytest.mark.parametrize("oversampling", [1, 5])
@pytest.mark.parametrize("model", ["noise_free", "poisson", "speckle"])
def test_each_draw_is_its_realization_on_its_own_scaled_means(model,
                                                              oversampling):
    cfg = small_config(noise_model=model, oversampling=oversampling)
    realizations = [2, 0]   # out of order: slice k is keyed by r, not k
    draw = ptybench.harness.noisy_patterns(cfg, build_problem(cfg),
                                           realizations)
    for k, r in enumerate(realizations):
        oracle = apply_noise(clean_means(cfg), NoiseModel(model),
                             realization_seed(cfg.master_seed, r))
        assert draw[:, k].tobytes() == oracle.tobytes()


@pytest.mark.parametrize("model", ["poisson", "speckle"])
def test_a_draw_holds_one_pattern_stack(model):
    # 225 positions of 40x40 float patterns (2.9 MB a stack): the draw's
    # own stack, and no boolean stack from its nonnegativity checks
    cfg = small_config(object_dims=(64, 64), window=(8, 8), scan_step=4,
                       probe_radius=3.0, oversampling=5, noise_model=model)
    problem = build_problem(cfg)
    _, probe, geometry = problem[:3]
    stack_bytes = len(geometry.positions) * 40 * 40 * 8
    # a first draw loads what numpy loads on first use, and fills the
    # transforms' caches: neither is the draw's memory
    ptybench.harness.noisy_patterns(cfg, problem, [0])
    _, peak = traced_peak(lambda: Dataset(
        geometry, ptybench.harness.noisy_patterns(cfg, problem, [0]), probe))
    assert peak / stack_bytes < 1.05


def test_failure_isolation(monkeypatch, tmp_path):
    calls = {"n": 0}
    original = ptybench.engine.refine

    def flaky(spec, dataset, state):
        # the engine's own record of a diverged realization, for every slice
        if spec.id == 2:
            state.failures.update(
                (k, ArithmeticError("synthetic divergence"))
                for k in range(len(state.object_estimate)))
        return original(spec, dataset, state)

    monkeypatch.setattr("ptybench.harness.engine.refine", flaky)
    # oversampling 5 runs the schemes on the thread pool
    for oversampling in (1, 5):
        record = run_experiment(small_config(realizations=2,
                                             oversampling=oversampling))
        assert record.summaries[2].get("failed") is True
        for r in range(2):
            assert record.cells[(2, r)]["ok"] is False
            assert "synthetic divergence" in record.cells[(2, r)]["error"]
            assert record.cells[(1, r)]["ok"] is True  # siblings unaffected
        # the failed scheme's summary row has no statistic and no sample
        paths = export(record, str(tmp_path / str(oversampling)))
        with open(paths["summary.csv"]) as f:
            rows = {line.split(",")[0]: line.rstrip("\n").split(",")
                    for line in f if line[0].isdigit()}
        assert rows["2"][4:] == ["nan"] * 5 + ["0"]
        assert rows["1"][-1] == "2"
        loaded = load_record(paths["record.json"])
        assert loaded.summaries == record.summaries
        assert loaded.summaries[2] == {"failed": True}


def test_warmup_failure_fails_every_cell(monkeypatch):
    original = ptybench.engine.warm_start

    def failing(*args, **kwargs):
        # every slice of the warmup diverged; the forks inherit the record,
        # so every refinement stops at once
        state = original(*args, **kwargs)
        state.failures.update(
            (k, ArithmeticError("synthetic warmup divergence"))
            for k in range(len(state.object_estimate)))
        return state

    monkeypatch.setattr("ptybench.harness.engine.warm_start", failing)
    for oversampling in (1, 5):
        record = run_experiment(small_config(realizations=2,
                                             oversampling=oversampling))
        for cell in record.cells.values():
            assert cell["ok"] is False
            assert "synthetic warmup divergence" in cell["error"]
        assert all(record.summaries[sid].get("failed") for sid in (1, 2))


def test_oversampled_grid_runs_one_realization_at_a_time():
    cfg = small_config(oversampling=5, realizations=2, scheme_ids=(2, 1),
                       warmup_iterations=2, refinement_iterations=2)
    # switch threads often, so the pooled schemes interleave finely
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        record = run_experiment(cfg)
    finally:
        sys.setswitchinterval(interval)
    assert record.meta["environment"]["workers"] == 2
    assert [t["realizations"] for t in record.meta["timings"]] == [1, 1]
    assert all(list(t["scheme_s"]) == ["2", "1"]
               for t in record.meta["timings"])
    # each one-slice stack gives the realization's own 2D run
    truth, probe, geometry, mask = build_problem(cfg)[:4]
    clean = clean_means(cfg)
    for r in range(2):
        patterns = apply_noise(clean, NoiseModel.POISSON,
                               realization_seed(cfg.master_seed, r))
        for sid in cfg.scheme_ids:
            single = ptybench.engine.run_scheme(
                ptybench.engine.scheme(sid, 2, 2),
                Dataset(geometry, patterns, probe),
                true_object=truth, mask=mask, seed=cfg.master_seed)
            assert record.cells[(sid, r)]["curve"] == [
                (i, float(e)) for i, e in single.error_log]


def own_adapter_curve(cfg, sid, r):
    """The error curve of scheme `sid`'s own 2D adapter run on realization
    `r` of `cfg`, as `adapt_constraints` gives it."""
    truth, probe, geometry, mask = build_problem(cfg)[:4]
    patterns = apply_noise(clean_means(cfg), NoiseModel(cfg.noise_model),
                           realization_seed(cfg.master_seed, r))
    adapter_cfg = ptybench.engine.AdapterConfig(
        mu_c=cfg.adapter_mu_c, inner_sweeps=cfg.adapter_inner_sweeps,
        outer_rounds=cfg.adapter_outer_rounds,
        inner_rule=ptybench.engine.SCHEMES[sid].refinement_rule,
        inner_mu=ptybench.engine.SCHEMES[sid].mu)
    state = ptybench.engine.adapt_constraints(
        Dataset(geometry, patterns, probe), adapter_cfg, true_object=truth,
        mask=mask, seed=cfg.master_seed)[0]
    return [(i, float(e)) for i, e in state.error_log]


def test_adapter_grid_runs_all_realizations_as_one_stack():
    cfg = small_config(adapter=True, realizations=2, scheme_ids=(1, 9),
                       adapter_inner_sweeps=2, adapter_outer_rounds=3)
    record = run_experiment(cfg)
    (stack,) = record.meta["timings"]
    assert stack["realizations"] == 2
    # each slice of the stack gives the realization's own 2D adapter run
    for r in range(2):
        for sid in cfg.scheme_ids:
            assert record.cells[(sid, r)]["curve"] == own_adapter_curve(
                cfg, sid, r)


def test_oversampled_adapter_runs_each_adapt_their_own_patterns():
    cfg = small_config(oversampling=5, adapter=True, realizations=2,
                       scheme_ids=(9, 1), adapter_inner_sweeps=1,
                       adapter_outer_rounds=3)
    # switch threads often, so the pooled runs interleave finely
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        record = run_experiment(cfg)
    finally:
        sys.setswitchinterval(interval)
    assert record.meta["environment"]["workers"] == 2
    assert [t["realizations"] for t in record.meta["timings"]] == [1, 1]
    assert all(list(t["scheme_s"]) == ["9", "1"]
               for t in record.meta["timings"])
    for r in range(2):
        for sid in cfg.scheme_ids:
            assert record.cells[(sid, r)]["curve"] == own_adapter_curve(
                cfg, sid, r)


def test_oversampled_adapter_grid_runs_one_stack_at_a_time(monkeypatch):
    # 3 runs per stack on 2 threads: a pool that took the next stack's runs
    # while this stack's last run is still going would interleave the stacks
    monkeypatch.setattr(ptybench.harness, "usable_cpus", lambda: 2)
    cfg = small_config(oversampling=5, adapter=True, realizations=2,
                       scheme_ids=(1, 2, 3), adapter_inner_sweeps=1,
                       adapter_outer_rounds=2)
    problem = build_problem(cfg)
    draws = [ptybench.harness.noisy_patterns(cfg, problem, [r])
             for r in range(2)]
    original = ptybench.engine.adapt_in_place
    events = []

    def logged(dataset, *args, **kwargs):
        # a run's patterns are its realization's draw until it adapts them
        (r,) = [r for r, drawn in enumerate(draws)
                if np.array_equal(dataset.patterns, drawn)]
        events.append(("start", r))
        state = original(dataset, *args, **kwargs)
        events.append(("end", r))
        return state

    monkeypatch.setattr(ptybench.engine, "adapt_in_place", logged)
    record = run_experiment(cfg)
    assert record.meta["environment"]["workers"] == 2
    assert all(cell["ok"] for cell in record.cells.values())
    # every run of realization 0 ends before any run of realization 1 starts
    assert [r for _, r in events] == [0] * 6 + [1] * 6


def adapter_grid_peak(monkeypatch, workers):
    """The traced peak memory of an oversampling-5 adapter grid of two
    schemes on `workers` threads, in pattern stacks: 225 positions of 40x40
    float patterns (2.9 MB a stack) outweigh the temporaries of one
    position update."""
    monkeypatch.setattr(ptybench.harness, "usable_cpus", lambda: workers)
    cfg = small_config(object_dims=(64, 64), window=(8, 8), scan_step=4,
                       probe_radius=3.0, oversampling=5, adapter=True,
                       realizations=2, scheme_ids=(1, 9),
                       adapter_inner_sweeps=1, adapter_outer_rounds=2)
    stack_bytes = len(build_problem(cfg)[2].positions) * 40 * 40 * 8
    record, peak = traced_peak(lambda: run_experiment(cfg))
    assert record.meta["environment"]["workers"] == workers
    assert all(cell["ok"] for cell in record.cells.values())
    return peak / stack_bytes


def test_adapter_grid_holds_one_pattern_stack_per_run(monkeypatch):
    # one run at a time: at its peak the grid holds only the run's own
    # patterns, simulated, drawn and adapted in place; a noise-free stack
    # held for the grid, a shared noisy stack beside an adapted copy, or a
    # draw through a temporary stack would each add one
    assert adapter_grid_peak(monkeypatch, 1) < 1.5


def test_concurrent_adapter_runs_hold_one_pattern_stack_each(monkeypatch):
    # two runs at a time hold two pattern stacks and their temporaries; a
    # noise-free stack held for the grid would add a third
    assert adapter_grid_peak(monkeypatch, 2) < 2.5


# a 32x32 window's far field at oversampling 5: one complex 160x160 grid
FAR_FIELD_BYTES = 160 * 160 * 16


def oversampled_problem():
    """The adapter_os5 benchmark's problem at 160x160 patterns: Fourier-space
    speckle data on a 64x64 object scanned by a 32x32 window, one drawn
    realization, and its four schemes."""
    cfg = small_config(object_dims=(64, 64), window=(32, 32), scan_step=8,
                       probe_radius=10.0, mode="fourier_space",
                       noise_model="speckle", photon_budget=1e5,
                       oversampling=5, adapter=True, realizations=1,
                       scheme_ids=(1, 2, 9, 15), adapter_inner_sweeps=1,
                       adapter_outer_rounds=1)
    problem = build_problem(cfg)
    _, probe, geometry = problem[:3]
    dataset = Dataset(geometry,
                      ptybench.harness.noisy_patterns(cfg, problem, [0]),
                      probe)
    return cfg, problem, dataset


def test_oversampling_5_position_steps_stay_within_their_grid_budgets():
    # what each step allocates over what its caller holds, in far-field
    # grids: the rules write into the far field they are given, the draws
    # into their output, and the adapter's mixing into the targets, so each
    # holds only the grids its formula needs at once
    cfg, problem, dataset = oversampled_problem()
    truth, probe, geometry, _, _, adapter = problem
    obj = truth[None]  # the one-realization stack a run sweeps
    j = len(geometry.positions) // 2
    pos = geometry.positions[j]
    (r, c), (wh, ww) = pos, geometry.window
    g = ptybench.forward.exit_wave(obj, probe, pos)
    pattern = dataset.patterns[j]
    ptybench.idft2(ptybench.dft2(g, 5), (wh, ww))
    budgets = {  # grids, beside the far field that each update is given
        # |G|^2, T(|G|^2), T'(|G|^2) and T(y), real half grids
        "GradientDescent": 2.25,
        # |G|^2 and the two transformed terms of the mix, then one pass
        # of the back-projection
        "FourierMix": 2.0,
        # sqrt(y) and |G|, then one pass of the back-projection
        "ObjectMix": 1.75,
        # one pattern's uniform draws (Poisson: its integer counts)
        **{model.value: 0.75 for model in NoiseModel},
        # one predicted pattern: its far field and modulus
        "mix_targets": 1.75,
    }
    # every registry scheme, against the budget of its rule's class
    peaks, limits = {}, dict(budgets)
    for spec in ptybench.SCHEMES.values():
        window = obj[..., r:r + wh, c:c + ww].copy()
        G = ptybench.dft2(g, 5)
        key = f"scheme {spec.id}"
        limits[key] = budgets[type(spec.refinement_rule).__name__]
        peaks[key] = traced_peak(lambda: spec.refinement_rule.update(
            window, g, G, pattern, probe, spec.mu))[1]
    means = dataset.patterns[:3].copy()
    for model in NoiseModel:
        peaks[model.value] = traced_peak(
            lambda: apply_noise(means, model, 7, out=means))[1]
    peaks["mix_targets"] = traced_peak(lambda: ptybench.engine._mix_targets(
        dataset, obj, adapter.mu_c))[1]
    assert {key: round(peak / FAR_FIELD_BYTES, 2)
            for key, peak in peaks.items()
            if peak > limits[key] * FAR_FIELD_BYTES} == {}


def test_oversampling_5_adapter_runs_peak_within_3_5_far_field_grids():
    # one sweep and one mixing pass of each adapter_os5 scheme: the sweep
    # holds one far field and the temporaries of its update, which stay
    # under 3.5 grids beside the run's own patterns
    cfg, problem, _ = oversampled_problem()
    truth, probe, geometry, mask, specs, adapter = problem
    peaks = {}
    for spec in specs:
        dataset = Dataset(
            geometry, ptybench.harness.noisy_patterns(cfg, problem, [0]),
            probe)
        config = replace(adapter, inner_rule=spec.refinement_rule,
                         inner_mu=spec.mu)
        peaks[spec.id] = traced_peak(lambda: ptybench.engine.adapt_in_place(
            dataset, config, true_object=truth, mask=mask, seed=0))[1]
    assert max(peaks.values()) < 3.5 * FAR_FIELD_BYTES, {
        sid: round(peak / FAR_FIELD_BYTES, 2) for sid, peak in peaks.items()}


def test_programming_error_propagates(monkeypatch):
    original = ptybench.engine.refine

    def broken(spec, *args, **kwargs):
        if spec.id == 2:
            raise TypeError("synthetic bug")
        return original(spec, *args, **kwargs)

    monkeypatch.setattr("ptybench.harness.engine.refine", broken)
    threads = threading.active_count()
    for oversampling in (1, 5):
        with pytest.raises(TypeError, match="synthetic bug"):
            run_experiment(small_config(realizations=1,
                                        oversampling=oversampling))
        # the run shut its pool down before the error left it
        assert threading.active_count() == threads


@pytest.mark.parametrize("target, error, oversampling", [
    # a ValueError at oversampling 1 is named by its target alone
    pytest.param(target, error, s, id=target if (error, s) == (ValueError, 1)
                 else f"{target}-{error.__name__}-{s}")
    for error in (ValueError, ArithmeticError) for s in (1, 5)
    for target in ("refine", "warm_start")])
def test_value_error_in_a_run_propagates(monkeypatch, target, error,
                                         oversampling):
    # a cell fails only where the engine recorded its realization as
    # failed: any error that leaves the sweeps or the shared warmup, an
    # ArithmeticError too, is a bug and ends the run
    def broken(*args, **kwargs):
        raise error("synthetic shape mismatch")

    monkeypatch.setattr(f"ptybench.harness.engine.{target}", broken)
    threads = threading.active_count()
    with pytest.raises(error, match="synthetic shape mismatch"):
        run_experiment(small_config(realizations=1,
                                    oversampling=oversampling))
    assert threading.active_count() == threads


# --- comparisons ----------------------------------------------------------------

@pytest.mark.parametrize("oversampling", [1, 5])
def test_cells_are_in_realization_then_scheme_order(oversampling):
    cfg = small_config(oversampling=oversampling, realizations=2,
                       scheme_ids=(2, 1), warmup_iterations=1,
                       refinement_iterations=1)
    record = run_experiment(cfg)
    assert list(record.cells) == [(2, 0), (1, 0), (2, 1), (1, 1)]
    for (_, r), cell in record.cells.items():
        assert list(cell) == ["seed", "ok", "curve", "final_error"]
        assert cell["seed"] == realization_seed(cfg.master_seed, r)


def test_summaries_follow_the_cells():
    record = run_experiment(small_config(realizations=2, warmup_iterations=2,
                                         refinement_iterations=2))
    record.cells[(1, 0)]["final_error"] = 0.25
    record.cells[(1, 1)]["final_error"] = 0.75
    assert record.summaries[1] == {"median": 0.5, "mean": 0.5, "std": 0.25,
                                   "min": 0.25, "max": 0.75, "n": 2}
    record.cells[(2, 1)]["ok"] = False
    assert record.summaries[2]["n"] == 1
    record.cells[(2, 0)]["ok"] = False
    assert record.summaries[2] == {"failed": True}
    assert list(record.summaries) == [1, 2]


def test_compare_scheme_with_itself():
    record = run_experiment(small_config(scheme_ids=(1,)))
    result = compare_schemes(record, 1, 1)
    assert result["median_difference"] == 0.0
    assert result["sign_test_p"] == 1.0


def test_compare_all_wins_p_value():
    record = run_experiment(small_config(realizations=20,
                                         warmup_iterations=2,
                                         refinement_iterations=2))
    # fabricate a strictly-dominating candidate to pin the binomial formula
    for r in range(20):
        record.cells[(2, r)]["final_error"] = \
            record.cells[(1, r)]["final_error"] / 2
    result = compare_schemes(record, 1, 2)
    assert result["candidate_wins"] == 20
    assert result["sign_test_p"] == pytest.approx(2 * 0.5 ** 20, rel=1e-9)


def test_sign_test_matches_the_binomial_tail():
    # every (wins, losses) up to 60 trials, each beside one tied realization
    # so that zero trials still has a pair
    for trials in range(61):
        for wins in range(trials + 1):
            record = ExperimentRecord(config={}, config_hash="")
            for r, error in enumerate([0.5] * wins + [1.5] * (trials - wins)
                                      + [1.0]):
                record.cells[(1, r)] = {"ok": True, "final_error": 1.0}
                record.cells[(2, r)] = {"ok": True, "final_error": error}
            p = compare_schemes(record, 1, 2)["sign_test_p"]
            if trials == 0:
                assert p == 1.0
            else:
                assert p == pytest.approx(
                    stats.binomtest(wins, trials, 0.5).pvalue, rel=1e-12)


def test_compare_pairs_on_realization_after_failed_cell():
    # the candidate fails in realization 0 and is 0.5 better in 1..3
    record = ExperimentRecord(config={}, config_hash="")
    for r in range(4):
        record.cells[(1, r)] = {"ok": True, "final_error": 1.0 + r}
        record.cells[(2, r)] = {"ok": True, "final_error": 0.5 + r}
    record.cells[(2, 0)] = {"ok": False, "final_error": float("nan")}
    result = compare_schemes(record, 1, 2)
    assert result["n_pairs"] == 3
    assert result["candidate_wins"] == 3
    assert result["candidate_losses"] == 0
    assert result["median_difference"] == -0.5


def test_compare_without_shared_realization_errors():
    # the candidate fails in every realization: there is nothing to pair
    record = ExperimentRecord(config={}, config_hash="")
    for r in range(2):
        record.cells[(1, r)] = {"ok": True, "final_error": 1.0}
        record.cells[(3, r)] = {"ok": False, "final_error": float("nan")}
    with pytest.raises(ValueError, match="schemes 1 and 3"):
        compare_schemes(record, 1, 3)


def test_compare_missing_scheme_errors():
    record = run_experiment(small_config(scheme_ids=(1,)))
    with pytest.raises(ValueError):
        compare_schemes(record, 1, 5)


def test_paired_differences_recomputable_from_curves():
    record = run_experiment(small_config())
    result = compare_schemes(record, 1, 2)
    diffs = [record.cells[(2, r)]["curve"][-1][1]
             - record.cells[(1, r)]["curve"][-1][1]
             for r in range(3)]
    assert result["median_difference"] == pytest.approx(np.median(diffs))


# --- persistence ----------------------------------------------------------------

def test_export_and_load_round_trip(tmp_path):
    record = run_experiment(small_config())
    paths = export(record, str(tmp_path))
    loaded = load_record(paths["record.json"])
    assert loaded.config == record.config
    assert loaded.config_hash == record.config_hash
    assert set(loaded.cells) == set(record.cells)
    for key in record.cells:
        assert loaded.cells[key]["curve"] == record.cells[key]["curve"]
    assert loaded.summaries == record.summaries


def test_summary_row_count(tmp_path):
    record = run_experiment(small_config())
    paths = export(record, str(tmp_path))
    with open(paths["summary.csv"]) as f:
        rows = [line for line in f if line.strip()
                and not line.startswith("#")]
    assert len(rows) == 1 + len(record.summaries)  # header + schemes


def test_curves_spot_value(tmp_path):
    record = run_experiment(small_config())
    paths = export(record, str(tmp_path))
    last = None
    with open(paths["curves.csv"]) as f:
        for line in f:
            if line.startswith(("#", "scheme")):
                continue
            sid, r, it, err = line.strip().split(",")
            if sid == "1" and r == "0":
                last = float(err)
    assert last == record.cells[(1, 0)]["final_error"]


def test_outputs_embed_config_hash(tmp_path):
    record = run_experiment(small_config(scheme_ids=(1,)))
    paths = export(record, str(tmp_path))
    for name in ("summary.csv", "curves.csv"):
        with open(paths[name]) as f:
            assert record.config_hash in f.readline()
    with open(paths["record.json"]) as f:
        assert json.load(f)["config_hash"] == record.config_hash


def test_load_detects_tampered_summary(tmp_path):
    record = run_experiment(small_config(scheme_ids=(1,)))
    paths = export(record, str(tmp_path))
    with open(paths["record.json"]) as f:
        payload = json.load(f)
    payload["summaries"]["1"]["median"] += 0.5
    with open(paths["record.json"], "w") as f:
        json.dump(payload, f)
    with pytest.raises(ValueError, match="self-consistency"):
        load_record(paths["record.json"])


@pytest.mark.parametrize("tamper", [
    lambda summaries: summaries.update({"1": {"failed": True}}),
    lambda summaries: summaries.pop("1"),
    lambda summaries: summaries.update({"2": summaries["1"]}),
    lambda summaries: summaries["1"].update(p90=0.5),
], ids=["ok_scheme_said_failed", "summary_missing",
        "failed_scheme_with_statistics", "extra_statistic"])
def test_load_checks_summaries_against_cells_both_ways(monkeypatch, tmp_path,
                                                      tamper):
    record = record_with_failed_scheme(monkeypatch)
    paths = export(record, str(tmp_path))
    assert load_record(paths["record.json"]).summaries == record.summaries
    with open(paths["record.json"]) as f:
        payload = json.load(f)
    tamper(payload["summaries"])
    with open(paths["record.json"], "w") as f:
        json.dump(payload, f)
    with pytest.raises(ValueError, match="self-consistency"):
        load_record(paths["record.json"])


@pytest.mark.parametrize("final_error", [0.5, None, "0.5"],
                         ids=["off_curve", "null", "string"])
def test_load_refuses_a_final_error_off_its_curve(tmp_path, final_error):
    record = run_experiment(small_config(scheme_ids=(1,), realizations=1))
    paths = export(record, str(tmp_path))
    with open(paths["record.json"]) as f:
        payload = json.load(f)
    (cell,) = payload["cells"]
    cell["final_error"] = final_error
    if isinstance(final_error, float):
        # the summary agrees with the tampered value: only the curve does not
        payload["summaries"]["1"].update(median=final_error, mean=final_error,
                                         min=final_error, max=final_error)
    with open(paths["record.json"], "w") as f:
        json.dump(payload, f)
    with pytest.raises(ValueError, match="self-consistency.*realization 0: "
                                         "final_error is not the last error"):
        load_record(paths["record.json"])


@pytest.mark.parametrize("value", [None, "0.5", [0.5]],
                         ids=["null", "string", "list"])
def test_load_refuses_a_statistic_that_is_not_a_number(tmp_path, value):
    record = run_experiment(small_config(scheme_ids=(1,), realizations=1))
    paths = export(record, str(tmp_path))
    with open(paths["record.json"]) as f:
        payload = json.load(f)
    payload["summaries"]["1"]["median"] = value
    with open(paths["record.json"], "w") as f:
        json.dump(payload, f)
    with pytest.raises(ValueError, match="scheme 1, statistic 'median'"):
        load_record(paths["record.json"])


def fail_scheme_1(payload, **error):
    """Records scheme 1's two cells as failed, with the summary a failed
    scheme has, and `error` as each cell's error."""
    for cell in payload["cells"][:2]:
        cell.update(ok=False, curve=[], final_error=None, **error)
    payload["summaries"]["1"] = {"failed": True}


@pytest.mark.parametrize("tamper, fault", [
    (lambda p: p["summaries"].update({"1": None}),
     "the summary of scheme 1 is not an object"),
    (lambda p: p.pop("summaries"), "'summaries' is missing"),
    (lambda p: p.update(cells=None), "'cells' is missing or not a list"),
    (lambda p: p["cells"][0].pop("ok"), "cell 0 is not an object with"),
    (lambda p: p["cells"][1].pop("curve"), "cell 1 is not an object with"),
    (lambda p: p["cells"][0].update(ok="yes"),
     "cell 0 is not an object with a boolean ok,"),
    (lambda p: p["cells"][0].update(scheme="1"),
     "cell 0 \\(scheme '1', realization 0\\) is off the grid"),
    (lambda p: p["cells"][0].update(scheme=3),
     "cell 0 \\(scheme 3, realization 0\\) is off the grid"),
    (lambda p: p["cells"][0].update(curve=None),
     "cell 0 is not an object with a boolean ok, a curve list"),
    (lambda p: p["cells"].append(dict(p["cells"][-1])),
     re.escape("cell 4 repeats cell (2, 1)")),
    (lambda p: p["cells"].pop(),
     re.escape("no cell for (scheme, realization) [(2, 1)]")),
    (lambda p: p["config"].update(realizations=None),
     "its config names no scheme_ids x realizations grid"),
    # the config passes the checks of a config built in Python
    (lambda p: p["config"].update(scheme_ids=[99]),
     "its config names no scheme_ids x realizations grid: scheme_ids, "),
    (lambda p: p["config"].update(scheme_ids=[1, 1]),
     "its config names no scheme_ids x realizations grid: duplicate scheme "
     "ids"),
    (lambda p: p["config"].update(realizations=0),
     "its config names no scheme_ids x realizations grid: realizations must "
     "be >= 1"),
    (lambda p: p["config"].update(probe_radius=-1),
     "its config names no scheme_ids x realizations grid: probe_kind, "
     "probe_radius, window: "),
    (lambda p: p["config"].update(seed=1),
     "its config names no scheme_ids x realizations grid: .*unexpected "
     "keyword argument 'seed'"),
    (lambda p: p.update(config_hash="0" * 16),
     "config_hash '0000000000000000' is not the hash of its config"),
    # a missing key takes its default, and 1e5 is not the budget that ran
    (lambda p: p["config"].pop("photon_budget"),
     "config_hash '[0-9a-f]{16}' is not the hash of its config"),
    # code that lists failed cells reads cell["error"]: a cell holds one,
    # a string, exactly when it failed
    (fail_scheme_1, "cell 0 is not an object with"),
    (lambda p: fail_scheme_1(p, error=5), "cell 0 is not an object with"),
    (lambda p: p["cells"][0].update(error="ArithmeticError: x"),
     "cell 0 is not an object with"),
    (lambda p: p["cells"][0].pop("seed"), "cell 0 is not an object with"),
    (lambda p: p["cells"][0].update(seed="7"), "cell 0 is not an object with"),
] + [
    (lambda p, entry=entry: p["cells"][0]["curve"].insert(0, entry),
     "cell 0 curve entry 0 is not an \\[iteration, error\\] pair")
    for entry in ([0, None], 7, [0, 1, 2], ["x", 0.5])
], ids=["null_summary", "no_summaries", "null_cells", "cell_without_ok",
        "cell_without_curve", "string_ok", "string_scheme",
        "scheme_off_the_grid", "null_curve", "duplicated_cell",
        "missing_cell", "no_grid", "unknown_scheme_in_config",
        "duplicate_scheme_in_config", "no_realizations_in_config",
        "negative_probe_radius_in_config", "unknown_config_key",
        "edited_config_hash", "config_key_missing",
        "failed_cell_without_error", "int_error",
        "ok_cell_with_error", "cell_without_seed", "string_seed",
        "null_error_in_curve", "int_curve_entry",
        "three_item_curve_entry", "string_iteration_in_curve"])
def test_load_refuses_a_malformed_record(tmp_path, tamper, fault):
    record = run_experiment(small_config(realizations=2,
                                         warmup_iterations=2,
                                         refinement_iterations=2))
    paths = export(record, str(tmp_path))
    assert load_record(paths["record.json"]).cells == record.cells
    with open(paths["record.json"]) as f:
        payload = json.load(f)
    tamper(payload)
    with open(paths["record.json"], "w") as f:
        json.dump(payload, f)
    with pytest.raises(ValueError, match=f"malformed record: {fault}"):
        load_record(paths["record.json"])


def test_load_gives_a_missing_config_key_its_default(tmp_path):
    record = run_experiment(small_config(scheme_ids=(1,), realizations=1,
                                         warmup_iterations=2,
                                         refinement_iterations=2))
    path = export(record, str(tmp_path))["record.json"]
    with open(path) as f:
        payload = json.load(f)
    # the record ran at the default mode, as a config file that leaves it
    # out does
    del payload["config"]["mode"]
    with open(path, "w") as f:
        json.dump(payload, f)
    assert load_record(path).cells == record.cells


@pytest.mark.parametrize("curve, final_error", [
    ("kept", "not a number"), ("kept", None), ([], "not a number"),
    ([], 0.5), ([], [])],
    ids=["curve_and_string", "curve", "string", "number", "list"])
def test_load_refuses_a_failed_cell_that_carries_data(tmp_path, curve,
                                                      final_error):
    record = run_experiment(small_config(scheme_ids=(1,), realizations=1,
                                         warmup_iterations=2,
                                         refinement_iterations=2))
    paths = export(record, str(tmp_path))
    with open(paths["record.json"]) as f:
        payload = json.load(f)
    (cell,) = payload["cells"]
    # a failed cell's keys, so only its data can give it away
    cell.update(ok=False, error="ArithmeticError: x", final_error=final_error)
    if curve != "kept":
        cell["curve"] = curve
    # the summary a failed scheme has: only the cell can give it away
    payload["summaries"]["1"] = {"failed": True}
    with open(paths["record.json"], "w") as f:
        json.dump(payload, f)
    with pytest.raises(ValueError, match="self-consistency check failed for "
                                         "scheme 1, realization 0: a failed "
                                         "cell has a curve or a final_error"):
        load_record(paths["record.json"])


def test_record_json_is_strict_with_a_failed_cell(monkeypatch, tmp_path):
    record = record_with_failed_scheme(monkeypatch)
    paths = export(record, str(tmp_path))

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    with open(paths["record.json"]) as f:
        payload = json.loads(f.read(), parse_constant=refuse)
    loaded = load_record(paths["record.json"])
    assert loaded.cells[(2, 0)]["ok"] is False
    assert loaded.cells[(2, 0)]["final_error"] is None
    assert loaded.summaries == record.summaries
    # an older file that wrote NaN for a failed cell still loads
    for cell in payload["cells"]:
        if not cell["ok"]:
            cell["final_error"] = float("nan")
    with open(paths["record.json"], "w") as f:
        json.dump(payload, f)
    assert load_record(paths["record.json"]).summaries == record.summaries


def test_rerun_reproduces_files_byte_identically(tmp_path):
    cfg = small_config()
    dirs = [tmp_path / "a", tmp_path / "b"]
    outputs = []
    for d in dirs:
        record = run_experiment(cfg)
        export(record, str(d))
        outputs.append({name: (d / name).read_bytes()
                        for name in ("summary.csv", "curves.csv")})
    assert outputs[0] == outputs[1]


def test_record_meta_says_what_ran_and_where_time_went(tmp_path):
    record = run_experiment(small_config(realizations=2))
    environment = record.meta["environment"]
    assert environment["config_hash"] == record.config_hash
    assert set(environment) == {"ptybench", "python", "numpy", "config_hash",
                                "workers"}
    assert environment["workers"] == 1  # oversampling 1: no pool
    (stack,) = record.meta["timings"]
    assert stack["realizations"] == 2
    assert stack["warmup_s"] >= 0
    assert sorted(stack["scheme_s"]) == ["1", "2"]
    paths = export(record, str(tmp_path))
    assert load_record(paths["record.json"]).meta == record.meta


def test_no_command_loads_scipy(tmp_path):
    # numpy is ptybench's one runtime dependency: a grid, its export, the
    # record's load and a comparison run without scipy
    src = os.path.dirname(os.path.dirname(ptybench.forward.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import ptybench; "
            "cfg = ptybench.ExperimentConfig(object_dims=(32, 32), "
            "window=(16, 16), probe_radius=5.0, scheme_ids=(1, 2), "
            "warmup_iterations=1, refinement_iterations=1, realizations=2); "
            "record = ptybench.run_experiment(cfg); "
            "paths = ptybench.export(record, sys.argv[2]); "
            "record = ptybench.load_record(paths['record.json']); "
            "print(ptybench.compare_schemes(record, 1, 2)['n_pairs'], "
            "'scipy' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code, src, str(tmp_path)],
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "2 False"

