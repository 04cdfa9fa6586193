"""Interleaved in-process A/B timing of two source trees on one workload.

    python3 tools/ab_interleave.py --other ../parent --workload check_grid --seed 7

Run from the repository root.  Side A is this tree's `src/rho_planes`;
side B is the `src/rho_planes` of the tree given by --other, copied to a
temporary directory and imported as `rho_planes_v`.  The workload's
seeded prefix of --requests requests runs through `perfbench.loop.execute`
on both sides, alternating which side goes first on each request, so a
slow or fast phase of the host falls on both alike.  Each side keeps its
own `oracles.Memo`.  Prints each side's summed latency, requests/s, p50
and failures, how many requests' exit code, stdout, written file, library
value (by repr), raised error or stderr differ between the sides, the
index and argv of the first that differs, and the gain of A over B; the
last line is one JSON object, with `first_differ` null when no request
differs.  Over the requests that differ it also reports `max_move`, the
largest absolute difference between corresponding numbers of the two
outputs; `max_move_at`, where that move is (the key path in a JSON output,
such as `report.worst_theta`, the column header in a CSV one, and
otherwise `code`, `stdout`, `file`, `value`, `error` or `stderr`); and
`text_differ`, how many of them differ in more than their numbers (the
text with each number blanked out); and `text_differ_at`, the name of the
first output that does so (`code`, `stdout`, `file`, `value`, `error` or
`stderr`), null when none does.
`RHO_PLANES_SEED` is set to 1, as for golden files, so no output carries
a timestamp.  Nothing under `perfbench/` changes.

The gain is not zero between identical trees.  Run with --other naming
its own tree (A/A, 640 requests), it read -1.8% and -2.2% on check_grid
(seeds 1 and 7), -0.2% and +0.3% on figures, and +2.9% and +0.6% on
orbit_walk (seeds 7 and 8): two copies of the same code spread by about
+-3%.  Quote an A/A run of the same workload and seeds beside any gain
under 5%.
"""

import argparse
import csv
import importlib
import json
import os
import re
import shutil
import statistics
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0:1] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import loop, oracles, workloads  # noqa: E402

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _load_other(tree: str, tmp: str):
    src = os.path.join(os.path.abspath(tree), "src", "rho_planes")
    if not os.path.isfile(os.path.join(src, "__init__.py")):
        raise SystemExit(f"ab_interleave: no program source at {src}")
    shutil.copytree(src, os.path.join(tmp, "rho_planes_v"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, tmp)
    rp = importlib.import_module("rho_planes_v")
    importlib.import_module("rho_planes_v.cli")
    return rp


def _summary(latencies, failures) -> dict:
    total = sum(latencies)
    return {"seconds": total, "requests_per_s": len(latencies) / total,
            "request_ms_p50": 1000.0 * statistics.median(latencies),
            "failed": len(failures)}


OUTPUTS = ("code", "stdout", "file", "value", "error", "stderr")


def _output(outcome) -> tuple:
    return (outcome.code, outcome.stdout, outcome.written, repr(outcome.value), outcome.error,
            outcome.stderr)


def _leaves(text: str, name: str) -> list[tuple[str, str]]:
    """(where, text) pieces of one output: each scalar of a JSON document under
    its key path, each cell of a CSV table under its column header, and
    otherwise (with a CSV's `#` lines) the text under the output's name."""
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    if isinstance(doc, (dict, list)):
        leaves = []

        def walk(node, path):
            if isinstance(node, dict):
                for key, child in node.items():
                    walk(child, f"{path}.{key}" if path else key)
            elif isinstance(node, list):
                for i, child in enumerate(node):
                    walk(child, f"{path}[{i}]")
            else:
                leaves.append((path, json.dumps(node)))

        walk(doc, "")
        return leaves
    lines = text.splitlines()
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    if len(rows) > 1 and len(rows[0]) > 1 and all(len(r) == len(rows[0]) for r in rows):
        comments = "\n".join(line for line in lines if line.startswith("#"))
        return [(name, comments)] + [(rows[0][j], cell) for row in rows[1:]
                                     for j, cell in enumerate(row)]
    return [(name, text)]


def _move(a: tuple, b: tuple) -> tuple[float, str | None, str | None]:
    """The largest move between corresponding numbers of two outputs, where it is
    (None when no number moved), and the name of the first output that differs
    in more than its numbers (None when none does)."""
    move, at, text_at = 0.0, None, None
    for name, x, y in zip(OUTPUTS, a, b):
        x, y = (t.decode("latin-1") if isinstance(t, bytes) else str(t) for t in (x, y))
        if NUMBER.sub("#", x) != NUMBER.sub("#", y):
            text_at = text_at or name
            continue
        xs, ys = _leaves(x, name), _leaves(y, name)
        if [w for w, _ in xs] != [w for w, _ in ys]:  # a number in a key moved
            xs, ys = [(name, x)], [(name, y)]
        for (where, p_text), (_, q_text) in zip(xs, ys):
            for p, q in zip(NUMBER.findall(p_text), NUMBER.findall(q_text)):
                if abs(float(p) - float(q)) > move:
                    move, at = abs(float(p) - float(q)), where
    return move, at, text_at


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--other", required=True, help="root of the tree to compare against")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--requests", type=int, default=640)
    args = parser.parse_args(argv)
    if args.requests < 1:
        parser.error("--requests must be positive")

    os.environ["RHO_PLANES_SEED"] = "1"
    import rho_planes
    import rho_planes.cli  # noqa: F401
    os.chdir(ROOT)
    os.makedirs(workloads.WORKDIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        sides = [rho_planes, _load_other(args.other, tmp)]
        prepared = [loop.prepare(rp, args.workload, args.seed, args.requests) for rp in sides]
        reqs = prepared[0][0]
        tallies = [loop.Tally(), loop.Tally()]
        memos = [oracles.Memo(), oracles.Memo()]
        differ, first_differ, max_move, max_move_at = 0, None, 0.0, None
        text_differ, text_differ_at = 0, None
        for index, req in enumerate(reqs):
            outcomes = [None, None]
            for s in ((0, 1) if index % 2 == 0 else (1, 0)):
                seconds, outcomes[s] = loop.execute(sides[s], req, prepared[s][1])
                tallies[s].record(index, req, seconds, outcomes[s], memos[s])
            outputs = [_output(outcome) for outcome in outcomes]
            if outputs[0] != outputs[1]:
                differ += 1
                move, at, text_at = _move(*outputs)
                if move > max_move:
                    max_move, max_move_at = move, at
                if text_at is not None:
                    text_differ += 1
                    text_differ_at = text_differ_at or text_at
                if first_differ is None:
                    first_differ = {"index": index, "kind": req.kind, "argv": list(req.argv)}

    result = {"workload": args.workload, "seed": args.seed, "requests": len(reqs),
              "differ": differ, "first_differ": first_differ, "max_move": max_move,
              "max_move_at": max_move_at, "text_differ": text_differ,
              "text_differ_at": text_differ_at}
    for name, tally in zip(("a", "b"), tallies):
        result[name] = _summary(tally.latencies, tally.failures)
        print(f"{name}: {result[name]['seconds']:.4f} s summed, "
              f"{result[name]['requests_per_s']:.2f} requests/s, "
              f"p50 {result[name]['request_ms_p50']:.4f} ms, {result[name]['failed']} failed")
        for line in tally.failures[:5]:
            print(f"  FAILED {line}", file=sys.stderr)
    result["gain"] = result["a"]["requests_per_s"] / result["b"]["requests_per_s"] - 1.0
    at = "" if max_move_at is None else f" at {max_move_at}"
    text_at = "" if text_differ_at is None else f", first in {text_differ_at}"
    print(f"{differ} of {len(reqs)} requests differ in exit code, stdout, file, value, error "
          f"or stderr ({text_differ} in more than numbers{text_at}, largest number move "
          f"{max_move:.3g}{at}); A over B: {100.0 * result['gain']:+.1f}% requests/s")
    if first_differ is not None:
        print(f"first differing request: {first_differ['index']} "
              f"({' '.join(first_differ['argv']) or first_differ['kind']})")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
