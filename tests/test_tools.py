"""Smoke tests for the scripts under tools/."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _ab_interleave(other, workload, requests, root=ROOT):
    """Run the tool of the tree at `root` (side A) against the tree `other` (side B)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "tools", "ab_interleave.py"), "--other", other,
         "--workload", workload, "--seed", "1", "--requests", str(requests)],
        cwd=root, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert (result["workload"], result["seed"], result["requests"]) == (workload, 1, requests)
    return proc.stdout, result


def _assert_no_difference(workload):
    _, result = _ab_interleave(ROOT, workload, 16)
    assert result["differ"] == 0 and result["first_differ"] is None
    assert result["max_move"] == 0.0 and result["text_differ"] == 0
    assert result["text_differ_at"] is None
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


def test_ab_interleave_says_where_its_largest_move_is(tmp_path):
    """A tree whose check reports carry a shifted worst_theta moves that key path only."""
    src = os.path.join(tmp_path, "src")
    shutil.copytree(os.path.join(ROOT, "src"), src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = os.path.join(src, "rho_planes", "lab.py")
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace('"worst_theta": self.worst_theta,',
                              '"worst_theta": self.worst_theta + 1e-6,'))
    stdout, result = _ab_interleave(str(tmp_path), "check_grid", 4)
    assert result["differ"] > 0 and result["text_differ"] == 0
    assert result["max_move"] == pytest.approx(1e-6, rel=1e-6)
    assert result["max_move_at"] == "report.worst_theta"
    assert "largest number move 1e-06 at report.worst_theta" in stdout


def _tree_whose_main_writes_to_stderr(root, line):
    """A copy of the program, the benchmark and the tools whose `cli.main` first
    writes `line` to stderr."""
    for part in ("src", "tools", "perfbench"):
        shutil.copytree(os.path.join(ROOT, part), os.path.join(root, part),
                        ignore=shutil.ignore_patterns("__pycache__"))
    path = os.path.join(root, "src", "rho_planes", "cli.py")
    with open(path) as fh:
        text = fh.read()
    head = "    parser = _build_parser()\n    try:\n"
    assert text.count(head) == 1
    with open(path, "w") as fh:
        fh.write(text.replace(head, f"    sys.stderr.write({line!r})\n" + head))
    return str(root)


def test_ab_interleave_compares_stderr(tmp_path):
    """Two trees that differ only in a number their `main` writes to stderr differ
    on every request, and the move is named as on stderr; a tree whose stderr
    differs in its text is named as differing there."""
    a = _tree_whose_main_writes_to_stderr(tmp_path / "a", "note 1\n")
    b = _tree_whose_main_writes_to_stderr(tmp_path / "b", "note 2\n")
    stdout, result = _ab_interleave(b, "check_grid", 4, root=a)
    assert result["differ"] == 4 and result["first_differ"]["index"] == 0
    assert (result["max_move"], result["max_move_at"], result["text_differ"],
            result["text_differ_at"]) == (1.0, "stderr", 0, None)
    assert result["a"]["failed"] == 0 and result["b"]["failed"] == 0
    assert "largest number move 1 at stderr" in stdout
    c = _tree_whose_main_writes_to_stderr(tmp_path / "c", "other note 1\n")
    stdout, result = _ab_interleave(c, "check_grid", 4, root=a)
    assert (result["differ"], result["max_move"], result["max_move_at"],
            result["text_differ"], result["text_differ_at"]) == (4, 0.0, None, 4, "stderr")
    assert "4 in more than numbers, first in stderr" in stdout


def test_ab_interleave_names_a_csv_column_or_the_output(monkeypatch):
    """CSV cells are named by their column header, other outputs by the output."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts the repository first
    spec = importlib.util.spec_from_file_location(
        "ab_interleave", os.path.join(ROOT, "tools", "ab_interleave.py"))
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    csv_a = b"# config: {}\nspec,rho,max_dev\neuclid,0.5,1e-16\nlp:4,0.5,0.25\n"
    csv_b = csv_a.replace(b"0.25", b"0.5")
    assert ab._move((0, "", csv_a, "None", None), (0, "", csv_b, "None", None)) == (
        0.25, "max_dev", None)
    assert ab._move((0, "", None, "R(x=1.0)", None), (0, "", None, "R(x=3.0)", None)) == (
        2.0, "value", None)
    assert ab._move((0, "a 2", None, "None", None), (0, "b 2", None, "None", None)) == (
        0.0, None, "stdout")


def test_src_size_counts_lines_and_settable_values(tmp_path):
    """Defaults of parameters (lambdas and keyword-only too) and of dataclass fields."""
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(
        "from dataclasses import dataclass, field\n"
        "\n"
        "\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    x: int\n"
        "    y: int = 1\n"
        "    z: list = field(default_factory=list)\n"
        "\n"
        "\n"
        "class B:\n"
        "    w: int = 2\n"
        "\n"
        "    def m(self, a, b=1, *, c=2, d):\n"
        "        return lambda e=3: a\n")
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "src_size.py"),
                           str(tmp_path)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert rows == [["pkg/__init__.py", "0", "lines", "0", "settable"],
                    ["pkg/mod.py", "15", "lines", "5", "settable"],
                    ["total", "15", "lines", "5", "settable"]]
