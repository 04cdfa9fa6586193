"""Smoke tests for the scripts under tools/."""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _ab_interleave(other, workload, requests):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "ab_interleave.py"), "--other", other,
         "--workload", workload, "--seed", "1", "--requests", str(requests)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert (result["workload"], result["seed"], result["requests"]) == (workload, 1, requests)
    return proc.stdout, result


def _assert_no_difference(workload):
    _, result = _ab_interleave(ROOT, workload, 16)
    assert result["differ"] == 0 and result["first_differ"] is None
    assert result["max_move"] == 0.0 and result["text_differ"] == 0
    assert result["a"]["failed"] == 0 and result["b"]["failed"] == 0


def test_ab_interleave_against_its_own_tree_finds_no_difference():
    """Both sides run the same source, so every request's output agrees and none fails."""
    _assert_no_difference("check_grid")


def test_ab_interleave_orbits_against_their_own_tree_find_no_difference():
    """Orbit requests replay recurring cycles; both sides must still agree on each."""
    _assert_no_difference("orbit_walk")


def test_ab_interleave_names_the_first_request_that_differs(tmp_path):
    """A tree whose orbit records carry a shifted turning differs on every orbit request."""
    src = os.path.join(tmp_path, "src")
    shutil.copytree(os.path.join(ROOT, "src"), src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = os.path.join(src, "rho_planes", "polygons.py")
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace('"turning": poly.total_turning,',
                              '"turning": poly.total_turning + 1.0,'))
    stdout, result = _ab_interleave(str(tmp_path), "orbit_walk", 4)
    assert result["differ"] > 0
    # only a number moved, by the shift
    assert result["max_move"] == pytest.approx(1.0, abs=1e-9) and result["text_differ"] == 0
    first = result["first_differ"]
    assert first["argv"][0] == "polygon"
    assert f"first differing request: {first['index']} ({' '.join(first['argv'])})" in stdout
