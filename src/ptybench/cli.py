"""Command-line interface.

Subcommands:
  simulate     write a (optionally noisy) dataset to an .npz file
  reconstruct  run one scheme on a stored dataset
  bench        run a full experiment from a config file
  compare      paired scheme comparison from a stored record.json

Exits 0 on success; on failure prints a single machine-readable
``error: <message>`` line to stderr and exits 1. ``bench`` prints one
``failed cell: scheme S realization R <ErrorType>`` line per
(scheme, realization) cell that failed numerically and a
``failed cells: F of N`` total; it exits 0 when at least one cell ran ok
and 1 when every cell failed.
"""

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import engine, forward, harness, metrics, noise
from .forward import Dataset, Mode
from .noise import NoiseModel


def _save_dataset(path, cfg, dataset, truth):
    np.savez_compressed(
        path,
        mode=dataset.mode.value,
        positions=np.asarray(dataset.geometry.positions),
        window=np.asarray(dataset.geometry.window),
        object_dims=np.asarray(dataset.geometry.object_dims),
        oversampling=dataset.oversampling,
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
        dataset = Dataset(Mode(str(data["mode"])), geometry,
                          int(data["oversampling"]),
                          data["patterns"], data["probe"])
        truth = data["truth"]
    return dataset, truth


def _read_config(path):
    with open(path, encoding="utf-8") as f:
        return harness.parse_config(f.read())


def _cmd_simulate(args):
    cfg = _read_config(args.config)
    _, truth, probe, geometry, _, clean = harness.build_problem(cfg)
    model = NoiseModel(cfg.noise_model)
    seed = harness.realization_seed(cfg.master_seed, args.realization)
    patterns = noise.apply_noise(clean, model, seed)
    dataset = Dataset(Mode(cfg.mode), geometry, cfg.oversampling,
                      patterns, probe)
    _save_dataset(args.output, dataclasses.asdict(cfg), dataset, truth)
    print(f"wrote {args.output}: {len(patterns)} patterns of "
          f"{patterns.shape[1]}x{patterns.shape[2]}, "
          f"mode={cfg.mode}, noise={cfg.noise_model}")


def _cmd_reconstruct(args):
    dataset, truth = _load_dataset(args.dataset)
    mask = metrics.illumination_mask(dataset.probe, dataset.geometry)
    spec = engine.scheme(args.scheme, args.warmup, args.refinement)
    state = engine.run_scheme(spec, dataset, true_object=truth, mask=mask,
                              seed=args.seed)
    final = state.error_log[-1][1]
    print(f"scheme {args.scheme}: {state.iteration} sweeps, "
          f"final masked error {final:.6g}")
    if args.output:
        np.savez_compressed(args.output,
                            object_estimate=state.object_estimate,
                            error_log=np.asarray(state.error_log))
        print(f"wrote {args.output}")


def _cmd_bench(args):
    cfg = _read_config(args.config)
    if args.output_dir:
        cfg.output_dir = args.output_dir
    record = harness.run_experiment(cfg)
    paths = harness.export(record, cfg.output_dir)
    for sid in sorted(record.summaries):
        summary = record.summaries[sid]
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
    p.add_argument("--scheme", type=int, required=True, help="scheme id 1..20")
    p.add_argument("--warmup", type=int, default=100)
    p.add_argument("--refinement", type=int, default=200)
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
