"""rho-planes benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload check_grid --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ./src.  With
--trace 0 the run times a closed loop for --seconds and reports the
end-to-end metrics; with --trace 1 it runs the workload's fixed traced
prefix untraced and then traced, and reports the per-layer metrics.  Human
readable lines come first; the last line of standard output is one JSON
object.  Exit code 2 means the run could not start (bad arguments, no
./src/rho_planes).
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0:1] = [ROOT]

from perfbench import workloads  # noqa: E402


def _fail(message: str):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def _load_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "rho_planes", "__init__.py")):
        _fail(f"no program source at {src}/rho_planes")
    sys.path.insert(0, src)
    import rho_planes
    import rho_planes.cli  # noqa: F401
    if not os.path.abspath(rho_planes.__file__).startswith(src + os.sep):
        _fail(f"imported rho_planes from {rho_planes.__file__}, not {src}")
    return rho_planes


def _report(args, run) -> None:
    tally = run["tally"]
    attempted = len(tally.latencies)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} requests, closed loop, one client")
    if not args.trace:
        print(f"  tail percentile: p{run['tail_q']:g} of {attempted} requests; "
              f"setup_s is the median of {len(run['setup_runs'])} cold starts")
        print(f"  {'failed_ratio':<36} {len(tally.failures) / attempted:.6g} ratio "
              f"({len(tally.failures)} of {attempted})")
    else:
        print(f"  {run['spans']} spans written under {ROOT}/.perfbench_out")
    for name, (value, unit) in run["metrics"].items():
        print(f"  {name:<36} {value:.6g} {unit}")
    for line in tally.failures[:20]:
        print("FAILED " + line, file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    rp = _load_program()
    os.chdir(ROOT)
    from perfbench import loop
    if args.trace:
        run = loop.traced_run(rp, args.workload, args.seed)
    else:
        run = loop.timed_run(rp, ROOT, args.workload, args.seed, args.seconds)

    _report(args, run)
    tally = run["tally"]
    result = {
        "correct": not tally.failures,
        "attempted": len(tally.latencies),
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in run["metrics"].items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
