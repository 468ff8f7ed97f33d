"""Benchmark harness: experiment configuration, multi-realization runs,
paired scheme comparison, and CSV/JSON persistence.

For each noise realization an experiment draws an independent noisy
stack (substream keyed by master seed and realization index) and
reconstructs it with every requested scheme. The grid holds no noise-free
stack: each draw simulates its realization's means into its own pattern
buffer, scales them to the photon budget and draws the noise over them in
place. Everything is deterministic given the master seed.

Every grid runs stack by stack through one loop: at oversampling 1 all
realizations form one stack; at oversampling 5 each realization is a stack
of its own. The grids differ only in how one scheme runs on a stack. By
default the error-reduction warmup, which every scheme shares, runs once
per stack, and each scheme refines a fork of the warmed stack. The adapter
runs each scheme from the constant start with no warmup, on its own copy
of the stack's noisy patterns, drawn for the run and adapted in place. At
oversampling 5 the schemes of a stack run concurrently on a thread pool;
the results do not depend on it, and the next stack starts when the last
of them ends. A record's cells are its one source of truth: its
per-scheme summaries are derived from them.
"""

import hashlib
import json
import math
import os
import platform
import time
from dataclasses import dataclass, field, fields, asdict, replace

import numpy as np

from . import engine, forward, metrics, noise
from .forward import Dataset, Mode
from .noise import NoiseModel


@dataclass
class ExperimentConfig:
    mode: str = "real_space"              # real_space | fourier_space
    object_kind: str = "checkerboard_text"
    object_dims: tuple = (64, 64)
    probe_kind: str = "tophat"
    probe_radius: float = 10.0
    window: tuple = (32, 32)
    scan_step: int = 8
    scan_jitter: int = 1
    oversampling: int = 1
    noise_model: str = "poisson"          # noise_free | poisson | speckle
    photon_budget: float = 1e5
    scheme_ids: tuple = tuple(engine.SCHEMES)
    warmup_iterations: int = engine.SchemeSpec.warmup_iterations
    refinement_iterations: int = engine.SchemeSpec.refinement_iterations
    adapter: bool = False
    adapter_mu_c: float = engine.AdapterConfig.mu_c
    adapter_inner_sweeps: int = engine.AdapterConfig.inner_sweeps
    adapter_outer_rounds: int = engine.AdapterConfig.outer_rounds
    realizations: int = 20
    master_seed: int = 0
    output_dir: str = "results"

    def validate(self):
        """Check the rules nothing else owns, then build with each owner.
        Returns [mode, noise model, geometry, probe, object, scheme specs,
        adapter settings]."""
        if self.oversampling not in (1, 5):
            raise ValueError(f"oversampling must be 1 or 5, "
                             f"got {self.oversampling}")
        if self.realizations < 1:
            raise ValueError("realizations must be >= 1")
        if not self.output_dir:
            raise ValueError("output_dir must name a directory, got ''")
        if not self.scheme_ids:
            raise ValueError("scheme_ids must name at least one scheme")
        if len(set(self.scheme_ids)) != len(self.scheme_ids):
            raise ValueError(f"duplicate scheme ids in {self.scheme_ids}")
        for name in ("window", "object_dims"):
            dims = getattr(self, name)
            if len(dims) != 2 or min(dims) < 1:
                raise ValueError(f"{name} must be two positive ints, "
                                 f"got {dims}")
        if not 0.0 < self.photon_budget < np.inf:
            raise ValueError(f"photon budget must be positive and finite, "
                             f"got {self.photon_budget}")
        pieces = []
        for keys, build in _OWNERS:
            try:
                pieces.append(build(*(getattr(self, key) for key in keys)))
            except ValueError as exc:
                raise ValueError(f"{', '.join(keys)}: {exc}") from None
        return pieces

    def hash(self) -> str:
        # output_dir is excluded: the hash identifies the experiment's
        # content, not where its files land. Floats hash as floats: 10 == 10.0
        payload = {f.name: float(getattr(self, f.name)) if f.type is float
                   else getattr(self, f.name)
                   for f in fields(self) if f.name != "output_dir"}
        text = json.dumps(payload, sort_keys=True, default=list)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


# the config keys each constructor reads, in its argument order: the
# constructor owns their rules
_OWNERS = (
    (("mode",), Mode),
    (("noise_model",), NoiseModel),
    (("object_dims", "window", "scan_step", "scan_jitter", "master_seed"),
     forward.raster_positions),
    (("probe_kind", "probe_radius", "window"), forward.make_probe),
    (("object_kind", "object_dims", "master_seed"),
     lambda kind, dims, s: forward.synthesize_object(kind, dims, seed=s)),
    (("scheme_ids", "warmup_iterations", "refinement_iterations"),
     lambda ids, *counts: [engine.scheme(sid, *counts) for sid in ids]),
    (("adapter_mu_c", "adapter_inner_sweeps", "adapter_outer_rounds"),
     engine.AdapterConfig),
)


def _parse_ints(value: str) -> tuple:
    items = value.replace("x", ",").split(",") if value else []
    if not all(item.strip() for item in items):
        raise ValueError(f"empty item in {value!r}")
    return tuple(int(item) for item in items)


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"expected a boolean, got {value!r}")
    return lowered in ("1", "true", "yes")


# value parser for each config field, by the type of its default
_PARSERS = {
    bool: _parse_bool,
    int: int,
    float: float,
    str: str,
    tuple: _parse_ints,
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse a flat key = value config document; unknown and repeated keys
    are errors."""
    cfg = ExperimentConfig()
    defaults = asdict(cfg)
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', "
                             f"got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in defaults:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if key in seen:
            raise ValueError(f"line {lineno}: {key} repeats line {seen[key]}")
        seen[key] = lineno
        try:
            parsed = _PARSERS[type(defaults[key])](value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {key}: {exc}") from None
        setattr(cfg, key, parsed)
    cfg.validate()
    return cfg


@dataclass
class ExperimentRecord:
    config: dict
    config_hash: str
    cells: dict = field(default_factory=dict)   # (scheme, realization) -> cell
    meta: dict = field(default_factory=dict)

    def ok_errors(self, scheme_id: int) -> dict:
        """The final errors of the scheme's ok cells, keyed by realization."""
        return {r: cell["final_error"]
                for (sid, r), cell in sorted(self.cells.items())
                if sid == scheme_id and cell["ok"]}

    def final_errors(self, scheme_id: int):
        return list(self.ok_errors(scheme_id).values())

    @property
    def summaries(self) -> dict:
        """scheme -> statistics of its ok final errors, derived from the
        cells; {"failed": True} for a scheme with no ok cell."""
        return {sid: _summary_stats(self.final_errors(sid))
                for sid in sorted({sid for sid, _ in self.cells})}


def _summary_stats(errors):
    if not errors:  # no realization ran ok: no statistic
        return {"failed": True}
    arr = np.asarray(errors, dtype=float)
    return {
        "median": float(np.median(arr)),
        "mean": float(np.mean(arr)),
        "std": float(np.std(arr)),
        "min": float(np.min(arr)),
        "max": float(np.max(arr)),
        "n": int(arr.size),
    }


def build_problem(cfg: ExperimentConfig):
    """Validate a config and build its inputs. Returns (effective truth,
    probe, geometry, mask, scheme specs, adapter settings) with everything
    `validate()` built. No pattern is simulated here: each draw simulates
    its own means (`noisy_patterns`)."""
    mode, _, geometry, probe, truth, specs, adapter = cfg.validate()
    if mode is Mode.FOURIER_SPACE:
        # modulate by (-1)^(x+y) so the object's spectrum is centered in
        # the scanned array: the pupil then scans around the zero
        # frequency, as in a physical Fourier-ptychography setup
        h, w = cfg.object_dims
        truth = truth * (-1.0) ** np.add.outer(np.arange(h), np.arange(w))
    truth = forward.effective_object(truth, mode)
    mask = metrics.illumination_mask(probe, geometry)
    return truth, probe, geometry, mask, specs, adapter


def realization_seed(master_seed: int, realization: int) -> int:
    """Independent per-realization noise stream key."""
    return int(np.random.SeedSequence(
        [int(master_seed), int(realization)]).generate_state(1)[0])


def noisy_patterns(cfg: ExperimentConfig, problem, realizations):
    """The (P, R, h, w) noisy patterns of the given realizations of `cfg`'s
    noise on `problem`, the inputs `build_problem` built. Each realization's
    noise-free means are simulated straight into its slice of one array,
    scaled by their own `noise.budget_scale` and drawn over there, so no
    noise-free stack is held beside the draw. The truth (the effective
    object in both modes) is simulated as real space."""
    truth, probe, geometry = problem[:3]
    model = NoiseModel(cfg.noise_model)
    s = cfg.oversampling
    patterns = np.empty((len(geometry.positions), len(realizations))
                        + tuple(s * n for n in geometry.window))
    for k, r in enumerate(realizations):
        means = forward.simulate_dataset(truth, probe, geometry,
                                         Mode.REAL_SPACE, s,
                                         out=patterns[:, k])
        means *= noise.budget_scale(means, cfg.photon_budget)
        noise.apply_noise(means, model, realization_seed(cfg.master_seed, r),
                          out=means)
    return patterns


def _stack_cells(state, group):
    """The cells of one scheme's run on the stack of realizations `group`,
    keyed by realization."""
    cells = {}
    for k, r in enumerate(group):
        if k in state.failures:
            exc = state.failures[k]
            cells[r] = {"ok": False, "error": f"{type(exc).__name__}: {exc}",
                        "curve": [], "final_error": None}
        else:
            curve = [(int(i), float(e[k])) for i, e in state.error_log]
            cells[r] = {"ok": True, "curve": curve,
                        "final_error": curve[-1][1]}
    return cells


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_stack(cfg, problem, group, cells, pool):
    """Runs every scheme on the stack of realizations `group`, fills their
    cells and returns the stack's timings. By default the stack is drawn
    once and each scheme refines a fork of one shared warmup. Each adapter
    run draws its own copy and adapts it in place as its m~: redrawing
    costs far less than holding a stack. On a thread `pool` the schemes run
    concurrently, and their cells and times are still filled in spec order.
    A cell fails where the engine recorded its realization as failed; an
    exception that leaves a run is a bug and ends the grid."""
    truth, probe, geometry, mask, specs, adapter = problem
    timing = {"realizations": len(group), "scheme_s": {}}

    def draw():
        return Dataset(geometry, noisy_patterns(cfg, problem, group), probe)

    if cfg.adapter:
        def run(spec):
            return engine.adapt_in_place(
                draw(), replace(adapter, inner_rule=spec.refinement_rule,
                                inner_mu=spec.mu),
                true_object=truth, mask=mask, seed=cfg.master_seed)
    else:
        dataset = draw()
        t0 = time.perf_counter()
        # reconstruction seed is realization-independent: identical data
        # must give identical trajectories
        warm = engine.warm_start(dataset, cfg.warmup_iterations,
                                 true_object=truth, mask=mask,
                                 seed=cfg.master_seed)
        timing["warmup_s"] = time.perf_counter() - t0

        def run(spec):
            return engine.refine(spec, dataset, warm.fork())

    def timed(spec):
        t0 = time.perf_counter()
        return _stack_cells(run(spec), group), time.perf_counter() - t0

    for spec, (results, seconds) in zip(
            specs, (pool.map if pool else map)(timed, specs)):
        for r, cell in results.items():
            cells[(spec.id, r)].update(cell)
        timing["scheme_s"][str(spec.id)] = seconds
    return timing


def environment(cfg: ExperimentConfig, workers: int) -> dict:
    """What a run ran on: package and interpreter versions, the config
    hash and the number of threads the grid's schemes ran on."""
    from . import __version__
    return {"ptybench": __version__, "python": platform.python_version(),
            "numpy": np.__version__, "config_hash": cfg.hash(),
            "workers": workers}


def run_experiment(cfg: ExperimentConfig) -> ExperimentRecord:
    problem = build_problem(cfg)
    # all realizations as one stack at oversampling 1; at oversampling 5
    # batching 160x160 transforms gains nothing, and one stack would hold
    # every realization's patterns at once
    groups = ([range(cfg.realizations)] if cfg.oversampling == 1
              else [[r] for r in range(cfg.realizations)])
    # at oversampling 5 a stack's schemes run concurrently, one thread per
    # CPU: their 160x160 transforms and elementwise math release the
    # interpreter lock. The 32x32 sweeps at oversampling 1 hold it most of
    # the time, and measured slower on threads than one after another.
    workers = (1 if cfg.oversampling == 1
               else min(len(cfg.scheme_ids), usable_cpus()))

    # normalize tuples to lists so the in-memory record equals its JSON
    # round trip
    config_echo = json.loads(json.dumps(asdict(cfg), default=list))
    record = ExperimentRecord(config=config_echo, config_hash=cfg.hash())
    record.meta["started_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    record.meta["environment"] = environment(cfg, workers)
    # in (realization, scheme) order, the order the cells are summed in by
    # callers that iterate the record
    record.cells = {(sid, r): {"seed": realization_seed(cfg.master_seed, r)}
                    for r in range(cfg.realizations)
                    for sid in cfg.scheme_ids}
    pool = None
    if workers > 1:
        # loaded by its one user: concurrent.futures imports logging, which
        # would raise the peak memory of every run by about 0.5 MB
        from concurrent.futures import ThreadPoolExecutor
        pool = ThreadPoolExecutor(workers)

    try:
        record.meta["timings"] = [
            _run_stack(cfg, problem, group, record.cells, pool)
            for group in groups]
    finally:
        if pool is not None:
            # a bug in one scheme ends the run: drop the queued schemes
            pool.shutdown(cancel_futures=True)
    return record


def compare_schemes(record: ExperimentRecord, baseline_id: int,
                    candidate_id: int) -> dict:
    """Paired per-realization comparison: median difference of final errors
    (candidate - baseline) and the exact two-sided sign-test p-value, the
    binomial tail over the realizations where the two differ."""
    for sid in (baseline_id, candidate_id):
        if not any(key[0] == sid for key in record.cells):
            raise ValueError(f"scheme {sid} not present in the record")
    base, cand = record.ok_errors(baseline_id), record.ok_errors(candidate_id)
    # pair on the realization: one where either scheme failed has no pair
    paired = sorted(base.keys() & cand.keys())
    n = len(paired)
    if n == 0:
        raise ValueError(f"schemes {baseline_id} and {candidate_id} have no "
                         f"realization in which both ran ok")
    diffs = np.asarray([cand[r] - base[r] for r in paired])
    wins = int(np.sum(diffs < 0))
    losses = int(np.sum(diffs > 0))
    trials = wins + losses
    # exact two-sided sign test at p = 1/2, in integers: 1.0 at no trials
    tail = sum(math.comb(trials, i) for i in range(min(wins, losses) + 1))
    p = min(1.0, 2 * tail / 2 ** trials)
    return {
        "baseline": baseline_id,
        "candidate": candidate_id,
        "n_pairs": n,
        "median_difference": float(np.median(diffs)),
        "candidate_wins": wins,
        "candidate_losses": losses,
        "sign_test_p": p,
    }


# ---------------------------------------------------------------------------
# persistence

def _fmt(x: float) -> str:
    return repr(float(x))


def export(record: ExperimentRecord, out_dir: str) -> dict:
    """Write summary.csv, curves.csv, and record.json; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {name: os.path.join(out_dir, name)
             for name in ("summary.csv", "curves.csv", "record.json")}
    tag = record.config_hash
    summaries = record.summaries

    with open(paths["summary.csv"], "w", encoding="utf-8", newline="\n") as f:
        f.write(f"# config_hash={tag}\n")
        f.write("scheme,rule,functional,mu,median,mean,std,min,max,n\n")
        columns = ("median", "mean", "std", "min", "max")
        for sid, stats_row in summaries.items():
            if stats_row.get("failed"):
                # no realization ran ok: no statistic, no sample
                stats_row = dict.fromkeys(columns, float("nan")) | {"n": 0}
            rule, functional = engine.SCHEMES[sid].describe()
            f.write(",".join([str(sid), rule, functional,
                              _fmt(engine.SCHEMES[sid].mu)]
                             + [_fmt(stats_row[k]) for k in columns]
                             + [str(stats_row["n"])]) + "\n")

    with open(paths["curves.csv"], "w", encoding="utf-8", newline="\n") as f:
        f.write(f"# config_hash={tag}\n")
        f.write("scheme,realization,iteration,error\n")
        for (sid, r) in sorted(record.cells):
            for it, err in record.cells[(sid, r)]["curve"]:
                f.write(f"{sid},{r},{it},{_fmt(err)}\n")

    payload = {
        "config": record.config,
        "config_hash": record.config_hash,
        "meta": record.meta,
        "summaries": {str(k): v for k, v in summaries.items()},
        "cells": [{"scheme": sid, "realization": r, **cell}
                  for (sid, r), cell in sorted(record.cells.items())],
    }
    with open(paths["record.json"], "w", encoding="utf-8") as f:
        # strict JSON: a failed cell's final error is null, not NaN
        json.dump(payload, f, indent=1, sort_keys=True, allow_nan=False)
    return paths


def _check(ok, fault):
    if not ok:
        raise ValueError(f"malformed record: {fault}")


def load_record(path: str) -> ExperimentRecord:
    """Load record.json back. A record not shaped as `export` writes it,
    whose cells are not exactly its config's scheme x realization grid, or
    whose stored values are not those of its cells is refused."""
    with open(path, encoding="utf-8") as f:
        payload = json.load(f)
    _check(isinstance(payload, dict), "not a JSON object")
    for name, kind in (("config", dict), ("config_hash", str),
                       ("cells", list), ("summaries", dict)):
        _check(isinstance(payload.get(name), kind),
               f"{name!r} is missing or not a {kind.__name__}")
    ids, count = map(payload["config"].get, ("scheme_ids", "realizations"))
    # JSON ints: no bool or float that compares equal to one
    _check(isinstance(ids, list)
           and all(type(v) is int for v in ids + [count]),
           "its config names no scheme_ids x realizations grid")
    grid = {(sid, r) for sid in ids for r in range(count)}
    record = ExperimentRecord(payload["config"], payload["config_hash"],
                              meta=payload.get("meta", {}))
    for n, cell in enumerate(payload["cells"]):
        _check(isinstance(cell, dict) and isinstance(cell.get("ok"), bool)
               and isinstance(cell.get("curve"), list)
               and cell.keys() - {"error"} == {"scheme", "realization", "seed",
                                               "ok", "curve", "final_error"}
               and ("error" in cell) != cell["ok"]
               and type(cell["seed"]) is int
               and isinstance(cell.get("error", ""), str),
               f"cell {n} is not an object with a boolean ok, a curve list, "
               f"a scheme, realization, int seed and final_error, and an "
               f"error string exactly when it failed")
        key = sid, r = cell.pop("scheme"), cell.pop("realization")
        _check(type(sid) is int and type(r) is int and key in grid,
               f"cell {n} (scheme {sid!r}, realization {r!r}) is off the grid")
        _check(key not in record.cells, f"cell {n} repeats cell {key}")
        for k, entry in enumerate(cell["curve"]):
            # JSON numbers: an int iteration, an int or float error
            _check(isinstance(entry, list) and len(entry) == 2
                   and type(entry[0]) is int
                   and type(entry[1]) in (int, float),
                   f"cell {n} curve entry {k} is not an [iteration, error] "
                   f"pair")
        cell["curve"] = [(i, float(e)) for i, e in cell["curve"]]
        final, fault = cell["final_error"], (
            f"self-consistency check failed for scheme {sid}, realization "
            f"{r}: ")
        if cell["ok"]:
            _check(cell["curve"] and final == cell["curve"][-1][1],
                   fault + "final_error is not the last error of its curve")
        else:
            # an older file wrote NaN for a failed cell's final error
            _check(not cell["curve"] and (final is None or type(final) is
                                          float and np.isnan(final)),
                   fault + "a failed cell has a curve or a final_error")
        record.cells[key] = cell
    _check(record.cells.keys() == grid, f"no cell for (scheme, realization) "
           f"{sorted(grid - record.cells.keys())}")
    # keyed as export writes them
    derived = {str(sid): stats for sid, stats in record.summaries.items()}
    for sid in sorted(payload["summaries"].keys() | derived.keys()):
        want, got = derived.get(sid, {}), payload["summaries"].get(sid, {})
        _check(isinstance(got, dict),
               f"the summary of scheme {sid} is not an object")
        for key in sorted(want.keys() | got.keys()):
            # a stored null or string is refused here, not by np.isclose
            _check(key in want and key in got
                   and isinstance(got[key], (int, float)) and np.isclose(
                       want[key], got[key], rtol=1e-12, atol=1e-300),
                   f"self-consistency check failed for scheme {sid}, "
                   f"statistic {key!r}")
    return record
