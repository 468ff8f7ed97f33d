"""Smoke check of the benchmark itself.

Run from the repository root: ``python3 perfbench/smoke.py``. Runs every
workload of BENCHMARK.json at the tiny size, untraced and traced, and
asserts that each run is correct and prints every metric that
BENCHMARK.json names, with its unit. Exits nonzero on the first failure.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in spec["workloads"]:
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", workload["name"],
                                     "--seed", "0", "--seconds", "1",
                                     "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=180)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                sys.exit(f"{workload['name']} trace {trace}: run failed\n"
                         f"{proc.stdout}{proc.stderr}")
            metrics = result["metrics"]
            for metric in expected[trace]:
                got = metrics.get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    sys.exit(f"{workload['name']} trace {trace}: metric "
                             f"{metric['name']} is {got}")
            names = {metric["name"] for metric in expected[trace]}
            if set(metrics) != names:
                sys.exit(f"{workload['name']} trace {trace}: unexpected "
                         f"metrics {sorted(set(metrics) - names)}")
            print(f"ok {workload['name']} trace {trace}: "
                  f"{len(metrics)} metrics")


if __name__ == "__main__":
    main()
