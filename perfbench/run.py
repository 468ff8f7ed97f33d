"""ptybench benchmark: times the scheme x realization grid end to end.

Run from the repository root:

  python3 perfbench/run.py --workload grid_os1 --seed 0 --seconds 50 --trace 0

One process, one caller, closed loop: after the set-up probes it runs
``harness.build_problem`` for each grid config and an untimed tiny warm-up
grid, then ``harness.run_experiment`` followed by ``harness.export`` again
and again for about ``--seconds``, checking each grid's outputs.
``--trace 0`` prints the end-to-end metrics and ``--trace 1`` the
per-layer metrics of a traced run (`spans.py`). Each metric is printed by
name with its unit, its quartiles and its sample count; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted`` (grids run), ``failed`` (grids that raised) and ``metrics``.
Run outputs, results and spans go to ``.perfbench/`` under the repository
root. ``perfbench/baseline.json`` holds the expected CSV digests for each
workload's default seed, the layer -> end-to-end metric map and the
baseline numbers; ``perfbench/smoke.py`` checks the benchmark itself.
"""

import os

# cap BLAS/OpenMP threads before numpy is imported, here and in the probes
THREAD_CAP = "2"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREAD_CAP

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 5

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-check size; skips the digest check")
    return parser.parse_args(argv)


def digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def time_setup(config_path):
    """Seconds from spawning a fresh interpreter until the probe has
    imported ptybench, parsed the config and built the problem."""
    probe = os.path.join(HERE, "setup_probe.py")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, probe, config_path],
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    return elapsed


def _cell_view(record):
    # failed cells hold a NaN final error, which never compares equal
    return {key: (cell["ok"], cell["curve"], cell.get("error"),
                  cell["final_error"] if cell["ok"] else None)
            for key, cell in record.cells.items()}


def failed_cell_list(record):
    """(scheme, realization, error type) of each failed cell."""
    return [(sid, r, cell["error"].split(":", 1)[0])
            for (sid, r), cell in sorted(record.cells.items())
            if not cell["ok"]]


def check_grid(harness, record, paths):
    """Check one grid's outputs; returns (problems, CSV digests)."""
    problems = []
    digests = {name: digest(paths[name])
               for name in ("summary.csv", "curves.csv")}
    for name in digests:
        with open(paths[name], encoding="utf-8") as f:
            header = f.readline().strip()
        if header != f"# config_hash={record.config_hash}":
            problems.append(f"{name} header {header!r}")
    cfg = record.config
    if len(record.cells) != len(cfg["scheme_ids"]) * cfg["realizations"]:
        problems.append(f"{len(record.cells)} cells recorded")
    loaded = harness.load_record(paths["record.json"])
    if (_cell_view(loaded) != _cell_view(record)
            or loaded.summaries != record.summaries):
        problems.append("record.json does not round-trip")
    # the aligned error is at most 1: scaling the estimate by 0 gives 1
    for (sid, r), cell in sorted(record.cells.items()):
        if cell["ok"] and not 0.0 < cell["final_error"] <= 1.0 + 1e-9:
            problems.append(f"cell ({sid}, {r}) final error "
                            f"{cell['final_error']}")
    return problems, digests


def manifest(args, cfgs):
    import numpy
    import scipy
    import ptybench
    return {
        "workload": args.workload,
        "seed": args.seed,
        "master_seeds": [cfg.master_seed for cfg in cfgs],
        "config_hash": [cfg.hash() for cfg in cfgs],
        "ptybench": ptybench.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
    }


def summarize(samples):
    """(median, (q1, q3, n)) of a metric's samples; exact counters stay
    whole numbers."""
    if all(isinstance(v, int) for v in samples):
        value = statistics.median_low(samples)
    else:
        value = statistics.median(samples)
    if len(samples) == 1:
        q1 = q3 = samples[0]
    else:
        q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return value, (q1, q3, len(samples))


@dataclass
class Measurement:
    """What the closed loop of one run saw. `first` maps a config index to
    the (CSV digests, record) of its first grid; `walls` holds grid wall
    times keyed by whether the grid was traced."""
    attempted: int = 0
    failed: int = 0                                # grids that raised
    problems: list = field(default_factory=list)   # failed output checks
    first: dict = field(default_factory=dict)
    walls: dict = field(default_factory=lambda: {False: [], True: []})
    cpu: list = field(default_factory=list)    # CPU s of untraced grids
    layers: list = field(default_factory=list)  # metrics of traced grids


def measure(harness, cfgs, seconds, tracer):
    """Run grids one after another for about `seconds`, checking each
    grid's outputs; the run stops at the grid boundary nearest to
    `seconds`, so that a run of long grids uses its whole time. An untraced
    run cycles through the grid configs and runs each at least once. A
    traced run uses the first config only, so its counters repeat exactly,
    and alternates an untraced and a traced grid: each pair shares the
    machine's conditions, and their ratio is the tracing overhead."""
    m = Measurement()
    minimum = 2 if tracer else len(cfgs)
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and m.attempted % 2 == 1
        k = 0 if tracer else m.attempted % len(cfgs)
        gc.collect()
        m.attempted += 1
        if traced:
            tracer.begin_grid()
            tracer.install()
        try:
            cpu0, t0 = time.process_time(), time.perf_counter()
            record = harness.run_experiment(cfgs[k])
            paths = harness.export(record, cfgs[k].output_dir)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
        except Exception:
            traceback.print_exc()
            m.failed += 1
            return m
        finally:
            if traced:
                tracer.uninstall()
        m.walls[traced].append(wall)
        if traced:
            m.layers.append(tracer.end_grid())
        else:
            m.cpu.append(cpu)
        problems, digests = check_grid(harness, record, paths)
        m.problems += problems
        if k not in m.first:
            m.first[k] = (digests, record)
        elif digests != m.first[k][0]:
            m.problems.append(f"grid {k} wrote different CSVs when repeated")
        expected = statistics.median(m.walls[False] + m.walls[True])
        if (m.attempted >= minimum
                and time.perf_counter() + expected / 2 > deadline):
            return m


def run(args):
    if not os.path.isfile(os.path.join(SRC, "ptybench", "__init__.py")):
        raise SystemExit(f"error: no ptybench sources under {SRC}")
    sys.path.insert(0, SRC)
    work = os.path.join(ROOT, ".perfbench", f"{args.workload}-seed{args.seed}"
                        + ("-tiny" if args.tiny else ""))
    os.makedirs(work, exist_ok=True)
    config_paths = []
    for k, text in enumerate(workloads.config_texts(args.workload, args.seed,
                                                    args.tiny)):
        config_paths.append(os.path.join(work, f"experiment{k}.cfg"))
        with open(config_paths[-1], "w", encoding="utf-8") as f:
            f.write(text)

    setup = ([time_setup(config_paths[0]) for _ in range(SETUP_PROBES)]
             if args.trace == 0 else [])

    import ptybench
    from ptybench import harness
    if not os.path.abspath(ptybench.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: ptybench imported from {ptybench.__file__}")
    cfgs = []
    for k, path in enumerate(config_paths):
        with open(path, encoding="utf-8") as f:
            cfgs.append(harness.parse_config(f.read()))
        cfgs[-1].output_dir = os.path.join(work, f"out{k}")
        harness.build_problem(cfgs[-1])
    # warm-up: one tiny grid runs every code path once before timing
    for k, text in enumerate(workloads.config_texts(args.workload, args.seed,
                                                    tiny=True)):
        warm = harness.parse_config(text)
        warm.output_dir = os.path.join(work, f"warmup{k}")
        harness.export(harness.run_experiment(warm), warm.output_dir)
    info = manifest(args, cfgs)
    print("manifest " + json.dumps(info, sort_keys=True))

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    m = measure(harness, cfgs, args.seconds, tracer)

    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as f:
        recorded = json.load(f)["digests"].get(args.workload, {})
    for k in sorted(m.first):
        digests, record = m.first[k]
        for sid, r, kind in failed_cell_list(record):
            print(f"failed cell: master_seed {cfgs[k].master_seed} "
                  f"scheme {sid} realization {r} {kind}")
        for name, value in digests.items():
            print(f"sha256 master_seed {cfgs[k].master_seed} {name} {value}")
        if args.seed == recorded.get("seed") and not args.tiny:
            for name, value in digests.items():
                want = recorded["grids"][k][name]
                if value != want:
                    m.problems.append(f"{name} of grid {k} has digest "
                                      f"{value}, recorded {want}")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    units = {metric["name"]: metric["unit"] for metric
             in spec["per_layer" if args.trace else "end_to_end"]}
    values, spread = {}, {}
    if not m.failed and args.trace == 0:
        cells = [cell for _, record in m.first.values()
                 for cell in record.cells.values()]
        ok = [cell["final_error"] for cell in cells if cell["ok"]]
        values["setup_s"], spread["setup_s"] = summarize(setup)
        values["grid_s"], spread["grid_s"] = summarize(m.walls[False])
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        values["cell_ok_frac"] = len(ok) / len(cells)
        values["final_err_mean"] = sum(ok) / len(ok) if ok else float("nan")
    elif not m.failed:
        for name in m.layers[0]:
            values[name], spread[name] = summarize(
                [grid[name] for grid in m.layers])
        values["proc.cpu_s"], spread["proc.cpu_s"] = summarize(m.cpu)
        values["proc.cpu_per_wall"], spread["proc.cpu_per_wall"] = summarize(
            [c / w for c, w in zip(m.cpu, m.walls[False])])
        values["trace.overhead_frac"] = statistics.median(
            t / u - 1 for u, t in zip(m.walls[False], m.walls[True]))
        tracer.save(os.path.join(work, "spans.npz"))

    for name, value in values.items():
        line = f"{name}: {value!r} {units[name]}"
        if name in spread:
            q1, q3, n = spread[name]
            line += f" (q1 {q1!r}, q3 {q3!r}, n={n})"
        print(line)
    for problem in m.problems:
        print(f"check failed: {problem}")
    correct = not m.problems and not m.failed
    result = {"correct": correct, "attempted": m.attempted,
              "failed": m.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in values.items()}}
    with open(os.path.join(work, f"result-trace{args.trace}.json"), "w",
              encoding="utf-8") as f:
        json.dump(dict(result, manifest=info, quartiles=spread,
                       digests=[m.first[k][0] for k in sorted(m.first)]),
                  f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None):
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
