import json

import numpy as np
import pytest

import ptybench.engine
from ptybench import (ExperimentConfig, ExperimentRecord, compare_schemes,
                      export, load_record, parse_config)
from ptybench.forward import Dataset, Mode
from ptybench.harness import build_problem, realization_seed, run_experiment
from ptybench.noise import NoiseModel, apply_noise


SMALL_CONFIG = dict(
    object_dims=(32, 32), window=(16, 16), scan_step=8, scan_jitter=1,
    probe_radius=5.0, photon_budget=1e4, scheme_ids=(1, 2),
    warmup_iterations=10, refinement_iterations=10, realizations=3,
    master_seed=42)


def small_config(**overrides):
    return ExperimentConfig(**{**SMALL_CONFIG, **overrides})


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
], ids=["duplicate_schemes", "negative_warmup", "negative_refinement",
        "negative_jitter", "inner_sweeps_zero", "outer_rounds_zero",
        "window_too_large", "adapter_mu_c_above_one"])
def test_config_validation_rejects(overrides, message):
    with pytest.raises(ValueError, match=message):
        small_config(**overrides).validate()


def test_config_hash_stable():
    assert small_config().hash() == small_config().hash()
    assert small_config().hash() != small_config(master_seed=43).hash()


# --- experiment runs ------------------------------------------------------------

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


def test_failure_isolation(monkeypatch):
    calls = {"n": 0}
    original = ptybench.engine.run_scheme

    def flaky(spec, *args, **kwargs):
        if spec.id == 2:
            raise ArithmeticError("synthetic divergence")
        return original(spec, *args, **kwargs)

    monkeypatch.setattr("ptybench.harness.engine.run_scheme", flaky)
    record = run_experiment(small_config(realizations=2))
    assert record.summaries[2].get("failed") is True
    for r in range(2):
        assert record.cells[(2, r)]["ok"] is False
        assert "synthetic divergence" in record.cells[(2, r)]["error"]
        assert record.cells[(1, r)]["ok"] is True  # siblings unaffected


def test_warmup_failure_fails_every_cell(monkeypatch):
    def failing(*args, **kwargs):
        raise ArithmeticError("synthetic warmup divergence")

    monkeypatch.setattr("ptybench.harness.engine.warm_start", failing)
    record = run_experiment(small_config(realizations=2))
    for cell in record.cells.values():
        assert cell["ok"] is False
        assert "synthetic warmup divergence" in cell["error"]
    assert all(record.summaries[sid].get("failed") for sid in (1, 2))


def test_oversampled_grid_runs_one_realization_at_a_time():
    cfg = small_config(oversampling=5, realizations=2, scheme_ids=(1,),
                       warmup_iterations=2, refinement_iterations=2)
    record = run_experiment(cfg)
    assert [t["realizations"] for t in record.meta["timings"]] == [1, 1]
    # each one-slice stack gives the realization's own 2D run
    _, truth, probe, geometry, mask, clean = build_problem(cfg)
    for r in range(2):
        patterns = apply_noise(clean, NoiseModel.POISSON,
                               realization_seed(cfg.master_seed, r))
        single = ptybench.engine.run_scheme(
            ptybench.engine.scheme(1, 2, 2),
            Dataset(Mode.REAL_SPACE, geometry, 5, patterns, probe),
            true_object=truth, mask=mask, seed=cfg.master_seed)
        assert record.cells[(1, r)]["curve"] == [
            (i, float(e)) for i, e in single.error_log]


def test_programming_error_propagates(monkeypatch):
    original = ptybench.engine.run_scheme

    def broken(spec, *args, **kwargs):
        if spec.id == 2:
            raise TypeError("synthetic bug")
        return original(spec, *args, **kwargs)

    monkeypatch.setattr("ptybench.harness.engine.run_scheme", broken)
    with pytest.raises(TypeError, match="synthetic bug"):
        run_experiment(small_config(realizations=1))


# --- comparisons ----------------------------------------------------------------

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
    assert set(environment) == {"ptybench", "python", "numpy", "scipy",
                                "config_hash"}
    (stack,) = record.meta["timings"]
    assert stack["realizations"] == 2
    assert stack["warmup_s"] >= 0
    assert sorted(stack["scheme_s"]) == ["1", "2"]
    paths = export(record, str(tmp_path))
    assert load_record(paths["record.json"]).meta == record.meta
