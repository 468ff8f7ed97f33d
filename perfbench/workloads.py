"""Benchmark workloads: one ptybench config per workload, made from the seed.

The seed sets the experiments' ``master_seed``: it fixes the object's phase
pattern, the scan jitter, the noise realizations and the sweep order, so
the same seed gives the same inputs. A workload with ``GRIDS_PER_RUN`` k
runs the k grids with master seeds k*seed .. k*seed + k - 1 in turn.

The final error depends on how far a run converges on its object. Sweep
counts are chosen so the error-reduction warmup of the grid workloads has
converged, and the final error sits near the noise floor whatever the
seed. The adapter does not converge in the time a run has, so it averages
the final error over several objects instead.

The 20-scheme grid at oversampling 5 is not a workload. Its warmup needs
about 8 sweeps at 160x160 to converge, which makes one grid take about
40 s on 2 CPUs; with fewer sweeps the final error varies by more than 10%
from seed to seed. adapter_os5 runs the same 160x160 transforms.
"""

DEFAULT_SEED = 0

_PROBLEM = {
    "mode": "real_space",
    "object_kind": "checkerboard_text",
    "object_dims": "64x64",
    "probe_kind": "tophat",
    "probe_radius": "10",
    "window": "32x32",
    "scan_step": "8",
    "scan_jitter": "1",
    "noise_model": "poisson",
    "photon_budget": "1e5",
    "scheme_ids": ",".join(str(i) for i in range(1, 21)),
    "realizations": "2",
}

WORKLOADS = {
    # per-position Python overhead and small (32x32) FFTs dominate
    "grid_os1": dict(_PROBLEM, oversampling="1",
                     warmup_iterations="20", refinement_iterations="40"),
    # no warmup; sweeps against adapted targets and re-simulates each round
    "adapter_os5": dict(_PROBLEM, mode="fourier_space", noise_model="speckle",
                        oversampling="5", scheme_ids="1,2,9,15",
                        adapter="true", adapter_inner_sweeps="5",
                        adapter_outer_rounds="4"),
}

GRIDS_PER_RUN = {"grid_os1": 1, "adapter_os5": 4}

# the smoke check's size: every layer still runs, in about a second
TINY = {"scheme_ids": "1,3,9,15", "realizations": "1",
        "warmup_iterations": "1", "refinement_iterations": "2",
        "adapter_inner_sweeps": "1", "adapter_outer_rounds": "2"}


def config_texts(workload: str, seed: int, tiny: bool = False) -> list:
    """The workload's ptybench config files, as `ptybench bench` reads
    them, one per grid of a run."""
    count = GRIDS_PER_RUN[workload]
    texts = []
    for master_seed in range(count * seed, count * seed + count):
        settings = dict(WORKLOADS[workload], master_seed=str(master_seed))
        if tiny:
            settings.update(TINY)
        texts.append("".join(f"{key} = {value}\n"
                             for key, value in settings.items()))
    return texts
