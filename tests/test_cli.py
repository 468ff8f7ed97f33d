import json

import numpy as np
import pytest

import ptybench.engine
from ptybench.cli import main


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


def test_bad_config_key_fails(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus = 1\n")
    assert main(["bench", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unknown config key" in err


def test_bench_reports_failed_cells(tmp_path, config_file, capsys,
                                    monkeypatch):
    original = ptybench.engine.run_scheme

    def flaky(spec, *args, **kwargs):
        if spec.id == 2:
            raise ArithmeticError("synthetic divergence")
        return original(spec, *args, **kwargs)

    monkeypatch.setattr("ptybench.harness.engine.run_scheme", flaky)
    out_dir = str(tmp_path / "results")
    assert main(["bench", config_file, "--output-dir", out_dir]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("failed cell")] == [
        "failed cell: scheme 2 realization 0 ArithmeticError",
        "failed cell: scheme 2 realization 1 ArithmeticError",
        "failed cells: 2 of 4"]

    def broken(spec, *args, **kwargs):
        raise ArithmeticError("synthetic divergence")

    monkeypatch.setattr("ptybench.harness.engine.run_scheme", broken)
    assert main(["bench", config_file, "--output-dir", out_dir]) == 1
    captured = capsys.readouterr()
    assert "failed cells: 4 of 4" in captured.out
    assert captured.err.startswith("error:")
