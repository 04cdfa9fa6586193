"""Cold-start probe: import rho_planes, build the workload's inputs and specs.

Started as a fresh interpreter by perfbench/run.py, which times it from
launch to the 'ready' line.
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0:1] = [os.path.join(ROOT, "src"), ROOT]

import rho_planes  # noqa: E402
import rho_planes.cli  # noqa: E402,F401
from perfbench import loop  # noqa: E402

parser = argparse.ArgumentParser()
parser.add_argument("--workload", required=True)
parser.add_argument("--seed", type=int, required=True)
args = parser.parse_args()
loop.prepare(rho_planes, args.workload, args.seed)
print("ready", flush=True)
