"""Command-line interface.

Subcommands:
  simulate     write a (optionally noisy) dataset to an .npz file
  reconstruct  run one scheme on a stored dataset, scored against its
               ground truth when the dataset holds one
  bench        run a full experiment from a config file
  compare      paired scheme comparison from a stored record.json

Exits 0 on success; on failure prints a single machine-readable
``error: <ErrorType>: <message>`` line to stderr and exits 1. ``bench``
prints one ``failed cell: scheme S realization R <ErrorType>`` line per
(scheme, realization) cell that failed numerically and a
``failed cells: F of N`` total; it exits 0 when at least one cell ran ok
and 1 when every cell failed.
"""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import engine, forward, harness, metrics
from .forward import Dataset


def _save_dataset(path, cfg, dataset, truth):
    np.savez_compressed(
        path,
        positions=np.asarray(dataset.geometry.positions),
        window=np.asarray(dataset.geometry.window),
        object_dims=np.asarray(dataset.geometry.object_dims),
        patterns=dataset.patterns,
        probe=dataset.probe,
        truth=truth,
        config=json.dumps(cfg, default=list),
    )


def _load_dataset(path):
    with np.load(path, allow_pickle=False) as data:
        geometry = forward.ScanGeometry(
            tuple((int(r), int(c)) for r, c in data["positions"]),
            tuple(int(v) for v in data["window"]),
            tuple(int(v) for v in data["object_dims"]))
        dataset = Dataset(geometry, data["patterns"], data["probe"])
        # measured data has no ground truth: its runs are not scored
        truth = data.get("truth")
    return dataset, truth


def _read_config(path):
    with open(path, encoding="utf-8") as f:
        return harness.parse_config(f.read())


def _check_non_negative(flag, value):
    if value < 0:
        raise ValueError(f"{flag} must be >= 0, got {value}")


def _check_output_dir(flag, path):
    """The name numpy writes the .npz output `path` to: `path`, with .npz
    appended if it lacks it. A path with no file name, or one whose
    directory does not exist, is refused before any work is done, so a run
    that fails writes nothing. No file is made here."""
    if not os.path.basename(path):
        raise ValueError(f"{flag} must name a file, got {path!r}")
    directory = os.path.dirname(path) or os.curdir
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"{flag}: no directory {directory!r} to "
                                f"write {path!r} in")
    return path if path.endswith(".npz") else path + ".npz"


def _cmd_simulate(args):
    _check_non_negative("--realization", args.realization)
    output = _check_output_dir("output", args.output)
    cfg = _read_config(args.config)
    problem = harness.build_problem(cfg)
    truth, probe, geometry = problem[:3]
    patterns = harness.noisy_patterns(cfg, problem, [args.realization])[:, 0]
    dataset = Dataset(geometry, patterns, probe)
    _save_dataset(output, dataclasses.asdict(cfg), dataset, truth)
    print(f"wrote {output}: {len(patterns)} patterns of "
          f"{patterns.shape[1]}x{patterns.shape[2]}, "
          f"mode={cfg.mode}, noise={cfg.noise_model}")


def _cmd_reconstruct(args):
    _check_non_negative("--seed", args.seed)
    output = (None if args.output is None
              else _check_output_dir("--output", args.output))
    dataset, truth = _load_dataset(args.dataset)
    mask = metrics.illumination_mask(dataset.probe, dataset.geometry)
    spec = engine.scheme(args.scheme, args.warmup, args.refinement)
    state = engine.run_scheme(spec, dataset, true_object=truth, mask=mask,
                              seed=args.seed)
    score = ("" if truth is None
             else f", final masked error {state.error_log[-1][1]:.6g}")
    print(f"scheme {args.scheme}: {state.iteration} sweeps{score}")
    if output:
        np.savez_compressed(output, object_estimate=state.object_estimate,
                            error_log=np.asarray(state.error_log))
        print(f"wrote {output}")


def _cmd_bench(args):
    cfg = _read_config(args.config)
    if args.output_dir is not None:
        cfg.output_dir = args.output_dir
    # make the output directory before the grid runs, so a path that cannot
    # be one fails at once; an empty one is refused by validate()
    if cfg.output_dir:
        os.makedirs(cfg.output_dir, exist_ok=True)
    record = harness.run_experiment(cfg)
    paths = harness.export(record, cfg.output_dir)
    for sid, summary in record.summaries.items():
        if summary.get("failed"):
            print(f"scheme {sid:2d}: all realizations failed")
        else:
            print(f"scheme {sid:2d}: median {summary['median']:.6g} "
                  f"mean {summary['mean']:.6g} (n={summary['n']})")
    failed = [(key, cell["error"].split(":", 1)[0])
              for key, cell in sorted(record.cells.items()) if not cell["ok"]]
    for (sid, r), kind in failed:
        print(f"failed cell: scheme {sid} realization {r} {kind}")
    print(f"failed cells: {len(failed)} of {len(record.cells)}")
    print("wrote " + ", ".join(paths.values()))
    if len(failed) == len(record.cells):
        raise RuntimeError("every cell failed")


def _cmd_compare(args):
    record = harness.load_record(args.record)
    result = harness.compare_schemes(record, args.baseline, args.candidate)
    print(json.dumps(result, indent=1, sort_keys=True))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ptybench",
        description="Ptychographic phase-retrieval noise-robustness benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a dataset to an .npz file")
    p.add_argument("config", help="experiment config file")
    p.add_argument("output", help="output .npz path")
    p.add_argument("--realization", type=int, default=0,
                   help="noise realization index (default 0)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("reconstruct", help="run one scheme on a dataset")
    p.add_argument("dataset", help="dataset .npz from `simulate`")
    p.add_argument("--scheme", type=int, required=True,
                   help=f"scheme id 1..{len(engine.SCHEMES)}")
    p.add_argument("--warmup", type=int,
                   default=engine.SchemeSpec.warmup_iterations)
    p.add_argument("--refinement", type=int,
                   default=engine.SchemeSpec.refinement_iterations)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="optional .npz path for the estimate")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("bench", help="run a full experiment from a config")
    p.add_argument("config", help="experiment config file")
    p.add_argument("--output-dir", help="override the config's output_dir")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("compare", help="paired scheme comparison")
    p.add_argument("record", help="record.json from `bench`")
    p.add_argument("--baseline", type=int, required=True)
    p.add_argument("--candidate", type=int, required=True)
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
