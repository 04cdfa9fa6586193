"""Smoke tests for the scripts under tools/."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_ab_interleave_against_its_own_tree_finds_no_difference():
    """Both sides run the same source, so every request's output agrees and none fails."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "ab_interleave.py"), "--other", ROOT,
         "--workload", "check_grid", "--seed", "1", "--requests", "16"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert (result["workload"], result["seed"], result["requests"]) == ("check_grid", 1, 16)
    assert result["differ"] == 0
    assert result["a"]["failed"] == 0 and result["b"]["failed"] == 0
