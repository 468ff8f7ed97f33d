"""Benchmark harness: experiment configuration, multi-realization runs,
paired scheme comparison, and CSV/JSON persistence.

An experiment simulates one noise-free intensity stack, then for each
noise realization draws an independent noisy stack (substream keyed by
master seed and realization index) and reconstructs it with every
requested scheme from the same constant initial guess. Everything is
deterministic given the master seed.

The error-reduction warmup, which every scheme shares, runs once per
realization stack, and each scheme refines a copy of the warmed stack. At
oversampling 1 all realizations form one stack; at oversampling 5 each
realization is a stack of its own. The adapter has no shared warmup and
runs one realization at a time.
"""

import hashlib
import json
import os
import platform
import time
from dataclasses import dataclass, field, asdict

import numpy as np
import scipy
from scipy import stats

from . import engine, forward, metrics, noise
from .forward import Dataset, Mode
from .grids import dft2
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
    scheme_ids: tuple = tuple(range(1, 21))
    warmup_iterations: int = 100
    refinement_iterations: int = 200
    adapter: bool = False
    adapter_mu_c: float = 0.1
    adapter_inner_sweeps: int = 5
    adapter_outer_rounds: int = 40
    realizations: int = 20
    master_seed: int = 0
    output_dir: str = "results"

    def validate(self):
        Mode(self.mode)
        NoiseModel(self.noise_model)
        if self.oversampling not in (1, 5):
            raise ValueError(f"oversampling must be 1 or 5, "
                             f"got {self.oversampling}")
        if self.realizations < 1:
            raise ValueError("realizations must be >= 1")
        for sid in self.scheme_ids:
            if sid not in engine.SCHEMES:
                raise ValueError(f"unknown scheme id {sid}")
        if len(set(self.scheme_ids)) != len(self.scheme_ids):
            raise ValueError(f"duplicate scheme ids in {self.scheme_ids}")
        for name in ("warmup_iterations", "refinement_iterations",
                     "scan_jitter"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 <= self.adapter_mu_c <= 1.0:
            raise ValueError(f"adapter_mu_c must lie in [0, 1], "
                             f"got {self.adapter_mu_c}")
        if self.adapter_inner_sweeps < 1 or self.adapter_outer_rounds < 1:
            raise ValueError("adapter_inner_sweeps and adapter_outer_rounds "
                             "must be >= 1")
        if any(w > o for w, o in zip(self.window, self.object_dims)):
            raise ValueError(f"window {self.window} is larger than the "
                             f"object {self.object_dims}")
        if self.photon_budget <= 0:
            raise ValueError("photon budget must be positive")
        return self

    def hash(self) -> str:
        # output_dir is excluded: the hash identifies the experiment's
        # content, not where its files land
        payload = {k: v for k, v in asdict(self).items()
                   if k != "output_dir"}
        text = json.dumps(payload, sort_keys=True, default=list)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


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
    tuple: lambda value: tuple(int(v) for v in value.replace("x", ",")
                               .split(",") if v.strip()),
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse a flat key = value config document; unknown keys are errors."""
    cfg = ExperimentConfig()
    defaults = asdict(cfg)
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
        try:
            parsed = _PARSERS[type(defaults[key])](value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {key}: {exc}") from None
        setattr(cfg, key, parsed)
    return cfg.validate()


@dataclass
class ExperimentRecord:
    config: dict
    config_hash: str
    cells: dict = field(default_factory=dict)   # (scheme, realization) -> cell
    summaries: dict = field(default_factory=dict)  # scheme -> stats
    meta: dict = field(default_factory=dict)

    def final_errors(self, scheme_id: int):
        return [self.cells[key]["final_error"] for key in sorted(self.cells)
                if key[0] == scheme_id and self.cells[key]["ok"]]


def _summary_stats(errors):
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
    """Deterministic object / probe / geometry / noise-free stack for a
    config. Returns (obj, effective truth, probe, geometry, mask, stack)."""
    mode = Mode(cfg.mode)
    obj = forward.synthesize_object(cfg.object_kind, cfg.object_dims,
                                    seed=cfg.master_seed)
    if mode is Mode.FOURIER_SPACE:
        # modulate by (-1)^(x+y) so the object's spectrum is centered in
        # the scanned array: the pupil then scans around the zero
        # frequency, as in a physical Fourier-ptychography setup
        h, w = cfg.object_dims
        obj = obj * (-1.0) ** np.add.outer(np.arange(h), np.arange(w))
    probe = forward.make_probe(cfg.probe_kind, cfg.probe_radius, cfg.window)
    geometry = forward.raster_positions(cfg.object_dims, cfg.window,
                                        cfg.scan_step, cfg.scan_jitter,
                                        seed=cfg.master_seed)
    clean = forward.simulate_dataset(obj, probe, geometry, mode,
                                     cfg.oversampling)
    clean = noise.scale_to_budget(clean, cfg.photon_budget)
    truth = obj if mode is Mode.REAL_SPACE else dft2(obj)
    mask = metrics.illumination_mask(probe, geometry)
    return obj, truth, probe, geometry, mask, clean


def realization_seed(master_seed: int, realization: int) -> int:
    """Independent per-realization noise stream key."""
    return int(np.random.SeedSequence(
        [int(master_seed), int(realization)]).generate_state(1)[0])


def _ok_cell(curve):
    curve = [(int(i), float(e)) for i, e in curve]
    return {"ok": True, "curve": curve, "final_error": curve[-1][1]}


def _failed_cell(exc):
    return {"ok": False, "error": f"{type(exc).__name__}: {exc}",
            "curve": [], "final_error": float("nan")}


def _noisy_stack(clean, model, seeds):
    """The (P, R, h, w) noisy patterns of R realizations, drawn one
    realization at a time into one preallocated array."""
    patterns = np.empty((len(clean), len(seeds)) + clean.shape[1:])
    for r, rseed in enumerate(seeds):
        patterns[:, r] = noise.apply_noise(clean, model, rseed)
    return patterns


def _stack_cells(state, group):
    """The cells of one scheme's run on the stack of realizations `group`,
    keyed by realization."""
    return {r: _failed_cell(state.failures[k]) if k in state.failures
            else _ok_cell((i, e[k]) for i, e in state.error_log)
            for k, r in enumerate(group)}


def _run_stack(cfg, dataset, truth, mask, group, cells):
    """Every scheme on the stack of realizations `group`, from one shared
    warmup; fills cells[(scheme, realization)] and returns the timings.

    A realization whose error cannot be scored fails only its own cells.
    Any other numeric failure fails every cell of the stack it reaches:
    in the warmup every scheme's, in a scheme's sweeps that scheme's.
    """
    timing = {"realizations": len(group), "scheme_s": {}}
    t0 = time.perf_counter()
    try:
        # reconstruction seed is realization-independent: identical data
        # must give identical trajectories
        warm = engine.warm_start(dataset, cfg.warmup_iterations,
                                 true_object=truth, mask=mask,
                                 seed=cfg.master_seed)
    except engine.NUMERIC_FAILURES as exc:
        cells.update(((sid, r), _failed_cell(exc))
                     for sid in cfg.scheme_ids for r in group)
        return timing
    finally:
        timing["warmup_s"] = time.perf_counter() - t0
    for sid in cfg.scheme_ids:
        spec = engine.scheme(sid, cfg.warmup_iterations,
                             cfg.refinement_iterations)
        t0 = time.perf_counter()
        try:
            # no name holds the refined state, so it is freed before the
            # next scheme forks the warm one
            results = _stack_cells(
                engine.run_scheme(spec, dataset, true_object=truth,
                                  mask=mask, seed=cfg.master_seed,
                                  start=warm), group)
        except engine.NUMERIC_FAILURES as exc:
            results = {r: _failed_cell(exc) for r in group}
        cells.update(((sid, r), cell) for r, cell in results.items())
        timing["scheme_s"][str(sid)] = time.perf_counter() - t0
    return timing


def _run_adapter(cfg, dataset, truth, mask, r, cells):
    """Every scheme's adapter run on realization r alone; fills
    cells[(scheme, r)] and returns the timings."""
    timing = {"realizations": 1, "scheme_s": {}}
    for sid in cfg.scheme_ids:
        adapter_cfg = engine.AdapterConfig(
            mu_c=cfg.adapter_mu_c, inner_sweeps=cfg.adapter_inner_sweeps,
            outer_rounds=cfg.adapter_outer_rounds,
            inner_rule=engine.SCHEMES[sid].refinement_rule,
            inner_mu=engine.SCHEMES[sid].mu)
        t0 = time.perf_counter()
        try:
            # drop the adapted targets at once: held through the next
            # scheme's run they raise the peak memory by a pattern stack
            state = engine.adapt_constraints(
                dataset, adapter_cfg, true_object=truth, mask=mask,
                seed=cfg.master_seed)[0]
            cells[(sid, r)] = _ok_cell(state.error_log)
        except engine.NUMERIC_FAILURES as exc:
            cells[(sid, r)] = _failed_cell(exc)
        timing["scheme_s"][str(sid)] = time.perf_counter() - t0
    return timing


def environment(cfg: ExperimentConfig) -> dict:
    """What a run ran on: package and interpreter versions and the config
    hash."""
    from . import __version__
    return {"ptybench": __version__, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "config_hash": cfg.hash()}


def run_experiment(cfg: ExperimentConfig) -> ExperimentRecord:
    cfg.validate()
    mode = Mode(cfg.mode)
    model = NoiseModel(cfg.noise_model)
    _, truth, probe, geometry, mask, clean = build_problem(cfg)

    # normalize tuples to lists so the in-memory record equals its JSON
    # round trip
    config_echo = json.loads(json.dumps(asdict(cfg), default=list))
    record = ExperimentRecord(config=config_echo, config_hash=cfg.hash())
    record.meta["started_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    record.meta["environment"] = environment(cfg)
    seeds = [realization_seed(cfg.master_seed, r)
             for r in range(cfg.realizations)]
    cells, timings = {}, []
    if cfg.adapter:
        # one realization at a time, each drawing its noise when it runs:
        # batching 160x160 transforms gains nothing, and drawing every
        # realization up front raises the peak memory
        for r, rseed in enumerate(seeds):
            dataset = Dataset(mode, geometry, cfg.oversampling,
                              noise.apply_noise(clean, model, rseed), probe)
            timings.append(_run_adapter(cfg, dataset, truth, mask, r, cells))
    else:
        # all realizations as one stack at oversampling 1; at oversampling
        # 5 batching 160x160 transforms gains nothing, and one stack would
        # hold every realization's patterns at once, so each realization
        # is a one-slice stack drawing its noise when it runs
        groups = ([range(cfg.realizations)] if cfg.oversampling == 1
                  else [[r] for r in range(cfg.realizations)])
        for group in groups:
            patterns = _noisy_stack(clean, model, [seeds[r] for r in group])
            dataset = Dataset(mode, geometry, cfg.oversampling, patterns,
                              probe)
            timings.append(_run_stack(cfg, dataset, truth, mask, group,
                                      cells))
            # free this stack's patterns before the next one is drawn
            del patterns, dataset
    record.meta["timings"] = timings
    # insert in (realization, scheme) order, the order the cells are
    # summed in by callers that iterate the record
    for r, rseed in enumerate(seeds):
        for sid in cfg.scheme_ids:
            record.cells[(sid, r)] = {"seed": rseed, **cells[(sid, r)]}
    for sid in cfg.scheme_ids:
        errors = record.final_errors(sid)
        if errors:
            record.summaries[sid] = _summary_stats(errors)
        else:
            record.summaries[sid] = {"failed": True}
    return record


def compare_schemes(record: ExperimentRecord, baseline_id: int,
                    candidate_id: int) -> dict:
    """Paired per-realization comparison: median difference of final errors
    (candidate - baseline) and a two-sided sign-test p-value."""
    for sid in (baseline_id, candidate_id):
        if not any(key[0] == sid for key in record.cells):
            raise ValueError(f"scheme {sid} not present in the record")
    base, cand = ({r: cell["final_error"]
                   for (s, r), cell in record.cells.items()
                   if s == sid and cell["ok"]}
                  for sid in (baseline_id, candidate_id))
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
    if trials == 0:
        p = 1.0
    else:
        p = float(stats.binomtest(wins, trials, 0.5).pvalue)
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

    with open(paths["summary.csv"], "w", encoding="utf-8", newline="\n") as f:
        f.write(f"# config_hash={tag}\n")
        f.write("scheme,rule,functional,mu,median,mean,std,min,max,n\n")
        for sid in sorted(record.summaries):
            stats_row = record.summaries[sid]
            rule, functional = engine.SCHEMES[sid].describe()
            mu = engine.SCHEMES[sid].mu
            if stats_row.get("failed"):
                f.write(f"{sid},{rule},{functional},{mu},"
                        "nan,nan,nan,nan,nan,0\n")
                continue
            f.write(",".join([str(sid), rule, functional, _fmt(mu)]
                             + [_fmt(stats_row[k]) for k in
                                ("median", "mean", "std", "min", "max")]
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
        "summaries": {str(k): v for k, v in record.summaries.items()},
        "cells": [{"scheme": sid, "realization": r, **cell}
                  for (sid, r), cell in sorted(record.cells.items())],
    }
    with open(paths["record.json"], "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
    return paths


def load_record(path: str) -> ExperimentRecord:
    """Load record.json back; verifies summary statistics against the
    stored per-realization values."""
    with open(path, encoding="utf-8") as f:
        payload = json.load(f)
    record = ExperimentRecord(config=payload["config"],
                              config_hash=payload["config_hash"],
                              meta=payload.get("meta", {}))
    for cell in payload["cells"]:
        sid, r = cell.pop("scheme"), cell.pop("realization")
        cell["curve"] = [(int(i), float(e)) for i, e in cell["curve"]]
        record.cells[(sid, r)] = cell
    record.summaries = {int(k): v for k, v in payload["summaries"].items()}
    for sid, summary in record.summaries.items():
        if summary.get("failed"):
            continue
        recomputed = _summary_stats(record.final_errors(sid))
        for key, val in recomputed.items():
            if not np.isclose(val, summary[key], rtol=1e-12, atol=1e-300):
                raise ValueError(f"record self-consistency check failed for "
                                 f"scheme {sid}, statistic {key!r}")
    return record
