"""Golden outputs: the exported CSVs of two tiny experiments are pinned by
sha256, so any change to the numbers a run produces (or to their order or
formatting) fails here.

The digests hold for the numpy/pocketfft build the repository is developed
on (numpy 2.4, x86-64); a different FFT build may change the last bits of
the errors, and then these digests must be recorded again on purpose.
"""

import hashlib
from pathlib import Path

import pytest

from ptybench import export, parse_config
from ptybench.harness import run_experiment


_TINY = """
object_dims = 32x32
window = 16x16
probe_radius = 5
scan_step = 8
photon_budget = 1e4
master_seed = 5
"""

REAL_SPACE = _TINY + """
scheme_ids = 1,3,9,15
warmup_iterations = 2
refinement_iterations = 3
realizations = 2
"""

FOURIER_ADAPTER_OS5 = _TINY + """
mode = fourier_space
noise_model = speckle
oversampling = 5
scheme_ids = 1,2,9,15
adapter = true
adapter_inner_sweeps = 2
adapter_outer_rounds = 2
realizations = 1
"""

GOLDEN = {
    "real_space": (REAL_SPACE, {
        "summary.csv": "c4ad4ab5367fd70d3f23bc86da3a1d79"
                       "11697236bf7a34dcd52bfd1a5ac3b798",
        "curves.csv": "2e2bfb7b439ada19ec15eceb3fdc2307"
                      "d3461790a1f752f25ded947599476348",
    }),
    "fourier_adapter_os5": (FOURIER_ADAPTER_OS5, {
        "summary.csv": "a23995a4ec07db5518f2264d67cf0eaa"
                       "5f15108c91587ca21565d83f62184a74",
        "curves.csv": "ed19c3faffcfb428224e286969a5eb67"
                      "3e56e16341b416902be4aee172af2fba",
    }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_exported_csvs_match_golden_digests(name, tmp_path):
    text, expected = GOLDEN[name]
    paths = export(run_experiment(parse_config(text)), str(tmp_path))
    digests = {csv: hashlib.sha256(Path(paths[csv]).read_bytes()).hexdigest()
               for csv in expected}
    assert digests == expected
