import json
import os

import numpy as np
import pytest

import ptybench.engine
from ptybench.cli import build_parser, main
from ptybench.harness import ExperimentConfig


CONFIG_TEXT = """
object_dims = 32x32
window = 16x16
scan_step = 8
scan_jitter = 1
probe_radius = 5
photon_budget = 1e4
scheme_ids = 1,2
warmup_iterations = 10
refinement_iterations = 10
realizations = 2
master_seed = 7
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CONFIG_TEXT)
    return str(path)


def test_simulate_writes_dataset(tmp_path, config_file, capsys):
    out = tmp_path / "data.npz"
    assert main(["simulate", config_file, str(out)]) == 0
    assert out.exists()
    with np.load(out) as data:
        assert data["patterns"].shape[1:] == (16, 16)
        assert np.all(data["patterns"] >= 0)


def test_output_paths_are_reported_as_written(tmp_path, config_file,
                                             capsys):
    # numpy appends .npz to a name that lacks it: the commands print and
    # read the file it wrote
    data, est = tmp_path / "data", tmp_path / "est"
    assert main(["simulate", config_file, str(data)]) == 0
    written = capsys.readouterr().out.split(":", 1)[0]
    assert written == f"wrote {data}.npz"
    assert main(["reconstruct", written.removeprefix("wrote "),
                 "--scheme", "1", "--warmup", "2", "--refinement", "0",
                 "--output", str(est)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"wrote {est}.npz"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "data.npz", "est.npz", "exp.cfg"]


def test_simulated_realization_reproduces_the_bench_cell(tmp_path,
                                                       config_file, capsys):
    # simulate draws the grid's noise realization, and reconstruct with the
    # grid's seed and sweep counts retraces that realization's cell
    out_dir, data, est = (str(tmp_path / name)
                          for name in ("results", "data.npz", "est.npz"))
    assert main(["bench", config_file, "--output-dir", out_dir]) == 0
    assert main(["simulate", config_file, data, "--realization", "1"]) == 0
    assert main(["reconstruct", data, "--scheme", "1", "--warmup", "10",
                 "--refinement", "10", "--seed", "7", "--output", est]) == 0
    with open(os.path.join(out_dir, "record.json")) as f:
        (cell,) = [cell for cell in json.load(f)["cells"]
                   if (cell["scheme"], cell["realization"]) == (1, 1)]
    with np.load(est) as result:
        assert result["error_log"].tolist() == cell["curve"]


def test_reconstruct_runs_on_dataset(tmp_path, config_file, capsys):
    data = tmp_path / "data.npz"
    est = tmp_path / "est.npz"
    main(["simulate", config_file, str(data)])
    assert main(["reconstruct", str(data), "--scheme", "1",
                 "--warmup", "10", "--refinement", "0",
                 "--output", str(est)]) == 0
    assert "final masked error" in capsys.readouterr().out
    with np.load(est) as result:
        assert result["object_estimate"].shape == (32, 32)


def test_reconstruct_refuses_a_truth_that_is_zero_on_the_mask(tmp_path,
                                                              config_file,
                                                              capsys):
    # a zero truth is a bad input, not a run that diverged at sweep 0
    data = tmp_path / "data.npz"
    main(["simulate", config_file, str(data)])
    with np.load(data) as stored:
        arrays = dict(stored)
    arrays["truth"] = np.zeros_like(arrays["truth"])
    zero = tmp_path / "zero.npz"
    np.savez_compressed(zero, **arrays)
    capsys.readouterr()
    est = tmp_path / "est.npz"
    assert main(["reconstruct", str(zero), "--scheme", "1", "--warmup", "2",
                 "--refinement", "2", "--output", str(est)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: ValueError: ground truth is zero on the "
                            "mask; relative error undefined\n")
    assert captured.out == "" and not est.exists()


def test_reconstruct_runs_unscored_on_data_without_truth(tmp_path,
                                                        config_file, capsys):
    data = tmp_path / "data.npz"
    main(["simulate", config_file, str(data)])
    with np.load(data) as stored:
        arrays = {k: v for k, v in stored.items() if k != "truth"}
    measured = tmp_path / "measured.npz"
    np.savez_compressed(measured, **arrays)
    capsys.readouterr()
    est, scored = tmp_path / "est.npz", tmp_path / "scored.npz"
    assert main(["reconstruct", str(measured), "--scheme", "2",
                 "--warmup", "3", "--refinement", "2",
                 "--output", str(est)]) == 0
    assert capsys.readouterr().out == f"scheme 2: 5 sweeps\nwrote {est}\n"
    # the same sweeps as on the dataset with its truth, only not scored
    main(["reconstruct", str(data), "--scheme", "2", "--warmup", "3",
          "--refinement", "2", "--output", str(scored)])
    with np.load(est) as result, np.load(scored) as want:
        assert result["error_log"].size == 0
        assert np.array_equal(result["object_estimate"],
                              want["object_estimate"])


def test_fourier_dataset_keeps_its_mode_only_in_config(tmp_path, config_file,
                                                      capsys):
    config = tmp_path / "fourier.cfg"
    config.write_text(CONFIG_TEXT + "mode = fourier_space\n")
    data = tmp_path / "data.npz"
    assert main(["simulate", str(config), str(data)]) == 0
    with np.load(data) as stored:
        assert "mode" not in stored.files
        assert json.loads(str(stored["config"]))["mode"] == "fourier_space"
    assert main(["reconstruct", str(data), "--scheme", "1",
                 "--warmup", "10", "--refinement", "0"]) == 0
    assert "final masked error" in capsys.readouterr().out


def test_reconstruct_reads_a_dataset_with_a_mode_key(tmp_path, config_file,
                                                    capsys):
    data = tmp_path / "data.npz"
    main(["simulate", config_file, str(data)])
    with np.load(data) as stored:
        arrays = {**stored, "mode": "real_space"}
    legacy = tmp_path / "legacy.npz"
    np.savez_compressed(legacy, **arrays)
    assert main(["reconstruct", str(legacy), "--scheme", "1",
                 "--warmup", "10", "--refinement", "0"]) == 0
    assert "final masked error" in capsys.readouterr().out


def test_dataset_file_keeps_oversampling_only_in_config(tmp_path,
                                                       config_file, capsys):
    data = tmp_path / "data.npz"
    main(["simulate", config_file, str(data)])
    with np.load(data) as stored:
        assert "oversampling" not in stored.files
        assert json.loads(str(stored["config"]))["oversampling"] == 1
        arrays = dict(stored)
    # an older file with the key still loads, and the key is ignored
    legacy = tmp_path / "legacy.npz"
    np.savez_compressed(legacy, **arrays, oversampling=1)
    assert main(["reconstruct", str(legacy), "--scheme", "1",
                 "--warmup", "10", "--refinement", "0"]) == 0
    assert "final masked error" in capsys.readouterr().out
    # patterns that do not fit the probe are refused when the file loads
    corrupt = tmp_path / "corrupt.npz"
    np.savez_compressed(corrupt, **{**arrays,
                                    "patterns": arrays["patterns"][..., :8]})
    assert main(["reconstruct", str(corrupt), "--scheme", "1"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: ValueError: pattern shape (16, 8)")
    # and so are patterns with a negative intensity
    patterns = arrays["patterns"].copy()
    patterns[0, 0, 0] = -1.0
    np.savez_compressed(corrupt, **{**arrays, "patterns": patterns})
    assert main(["reconstruct", str(corrupt), "--scheme", "1"]) == 1
    assert capsys.readouterr().err == (
        "error: ValueError: intensity patterns must be nonnegative\n")


def test_unwritable_output_fails_before_any_work(tmp_path, config_file,
                                                 capsys, monkeypatch):
    data = tmp_path / "data.npz"
    main(["simulate", config_file, str(data)])
    capsys.readouterr()
    calls = []
    monkeypatch.setattr("ptybench.engine.run_scheme",
                        lambda *args, **kwargs: calls.append(args))
    monkeypatch.setattr("ptybench.harness.build_problem",
                        lambda *args, **kwargs: calls.append(args))
    missing = tmp_path / "nodir"
    assert main(["reconstruct", str(data), "--scheme", "2",
                 "--output", str(missing / "est.npz")]) == 1
    assert capsys.readouterr().err.startswith(
        "error: FileNotFoundError: --output: ")
    assert main(["simulate", config_file, str(missing / "data")]) == 1
    assert capsys.readouterr().err.startswith(
        "error: FileNotFoundError: output: ")
    # an empty path, or a directory's, names no file
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    for path in ("", str(tmp_path) + os.sep):
        assert main(["reconstruct", str(data), "--scheme", "2",
                     "--output", path]) == 1
        assert capsys.readouterr().err.startswith(
            "error: ValueError: --output must name a file")
        assert main(["simulate", config_file, path]) == 1
        assert capsys.readouterr().err.startswith(
            "error: ValueError: output must name a file")
    assert sorted(tmp_path.iterdir()) == before
    assert calls == []
    assert not missing.exists()


def test_sweep_and_adapter_defaults_agree_everywhere(capsys):
    spec = ptybench.engine.SchemeSpec(0, None, 0.0)
    adapter = ptybench.engine.AdapterConfig()
    counts = (spec.warmup_iterations, spec.refinement_iterations)
    cfg = ExperimentConfig()
    assert (cfg.warmup_iterations, cfg.refinement_iterations) == counts
    assert (cfg.adapter_mu_c, cfg.adapter_inner_sweeps,
            cfg.adapter_outer_rounds) == (adapter.mu_c, adapter.inner_sweeps,
                                          adapter.outer_rounds)
    looked_up = ptybench.engine.scheme(3)
    assert (looked_up.warmup_iterations,
            looked_up.refinement_iterations) == counts
    args = build_parser().parse_args(["reconstruct", "data.npz",
                                      "--scheme", "3"])
    assert (args.warmup, args.refinement) == counts
    # so is the registry's size, read from its one rule list
    count = len(ptybench.engine.SCHEMES)
    assert cfg.scheme_ids == tuple(range(1, count + 1))
    assert cfg.hash() == "b43d3eceddc836ed"
    with pytest.raises(SystemExit):
        build_parser().parse_args(["reconstruct", "--help"])
    assert f"scheme id 1..{count}" in capsys.readouterr().out


@pytest.mark.parametrize("value", [0.0, np.nan], ids=["zero", "nan"])
def test_reconstruct_refuses_a_dataset_probe_without_intensity(
        tmp_path, config_file, capsys, value):
    data = tmp_path / "data.npz"
    main(["simulate", config_file, str(data)])
    with np.load(data) as stored:
        arrays = dict(stored)
    arrays["probe"] = np.full_like(arrays["probe"], value)
    dark = tmp_path / "dark.npz"
    np.savez_compressed(dark, **arrays)
    capsys.readouterr()
    assert main(["reconstruct", str(dark), "--scheme", "1", "--warmup", "1",
                 "--refinement", "0"]) == 1
    captured = capsys.readouterr()
    assert "sweeps" not in captured.out
    assert captured.err.startswith("error: ValueError: probe intensity")


def test_reconstruct_rejects_negative_sweep_counts(tmp_path, config_file,
                                                  capsys):
    data = tmp_path / "data.npz"
    main(["simulate", config_file, str(data)])
    assert main(["reconstruct", str(data), "--scheme", "1",
                 "--warmup", "-5", "--refinement", "-3"]) == 1
    captured = capsys.readouterr()
    assert "sweeps" not in captured.out
    assert captured.err.startswith("error: ValueError: sweep counts")


def test_negative_realization_or_seed_is_rejected(tmp_path, config_file,
                                                 capsys):
    data = tmp_path / "data.npz"
    assert main(["simulate", config_file, str(data),
                 "--realization", "-1"]) == 1
    assert not data.exists()
    assert capsys.readouterr().err == (
        "error: ValueError: --realization must be >= 0, got -1\n")
    main(["simulate", config_file, str(data)])
    capsys.readouterr()
    assert main(["reconstruct", str(data), "--scheme", "1",
                 "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert "sweeps" not in captured.out
    assert captured.err == "error: ValueError: --seed must be >= 0, got -1\n"


def test_bench_and_compare(tmp_path, config_file, capsys):
    out_dir = tmp_path / "results"
    assert main(["bench", config_file, "--output-dir", str(out_dir)]) == 0
    for name in ("summary.csv", "curves.csv", "record.json"):
        assert (out_dir / name).exists()
    assert main(["compare", str(out_dir / "record.json"),
                 "--baseline", "1", "--candidate", "2"]) == 0
    out = capsys.readouterr().out
    result = json.loads(out[out.index("{"):])
    assert result["n_pairs"] == 2


def test_error_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert main(["bench", missing]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_bench_rejects_empty_output_dir(tmp_path, config_file, capsys,
                                        monkeypatch):
    # an empty override is applied, and an empty output_dir is rejected
    # before any cell runs, from the command line or from the config
    monkeypatch.chdir(tmp_path)
    empty = tmp_path / "empty.cfg"
    empty.write_text(CONFIG_TEXT + "output_dir =\n")
    for argv in (["bench", config_file, "--output-dir", ""],
                 ["bench", str(empty)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "scheme" not in captured.out
        assert "ValueError" in captured.err and "output_dir" in captured.err
    assert list(tmp_path.rglob("summary.csv")) == []


def test_bench_fails_before_the_grid_when_output_dir_cannot_be_made(
        tmp_path, config_file, capsys, monkeypatch):
    # main reports any exception, so record the call rather than raise
    ran = []
    monkeypatch.setattr("ptybench.harness.run_experiment", ran.append)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main(["bench", config_file, "--output-dir",
                 str(blocker / "sub")]) == 1
    assert ran == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_bad_config_key_fails(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus = 1\n")
    assert main(["bench", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unknown config key" in err


def test_bench_reports_failed_cells(tmp_path, config_file, capsys,
                                    monkeypatch):
    original = ptybench.engine.refine

    def flaky(spec, dataset, state):
        # the engine's own record of a diverged realization, for every slice
        if spec.id == 2:
            state.failures.update(
                (k, ArithmeticError("synthetic divergence"))
                for k in range(len(state.object_estimate)))
        return original(spec, dataset, state)

    monkeypatch.setattr("ptybench.harness.engine.refine", flaky)
    out_dir = str(tmp_path / "results")
    assert main(["bench", config_file, "--output-dir", out_dir]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("failed cell")] == [
        "failed cell: scheme 2 realization 0 ArithmeticError",
        "failed cell: scheme 2 realization 1 ArithmeticError",
        "failed cells: 2 of 4"]

    def broken(spec, dataset, state):
        state.failures.update(
            (k, ArithmeticError("synthetic divergence"))
            for k in range(len(state.object_estimate)))
        return original(spec, dataset, state)

    monkeypatch.setattr("ptybench.harness.engine.refine", broken)
    assert main(["bench", config_file, "--output-dir", out_dir]) == 1
    captured = capsys.readouterr()
    assert "failed cells: 4 of 4" in captured.out
    assert captured.err.startswith("error:")
