"""Set-up probe: the work every ptybench command pays before it computes.

Run as ``python3 perfbench/setup_probe.py CONFIG``. It imports ptybench,
parses the config and builds the problem, then prints ``ready``. The
benchmark times it from process start to that line.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from ptybench import harness  # noqa: E402

with open(sys.argv[1], encoding="utf-8") as f:
    harness.build_problem(harness.parse_config(f.read()))
print("ready", flush=True)
