"""CLI behavior: dispatch, exit codes, determinism, round-trips."""

import json
import math
import os

import pytest

from rho_planes.cli import _build_parser, main


@pytest.fixture(autouse=True)
def reproducible_env(monkeypatch):
    monkeypatch.setenv("RHO_PLANES_SEED", "golden")


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_euclid_passes(capsys):
    code, out, _ = run(["check", "--spec", "euclid", "--rho", "0.5",
                        "--samples", "64"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["pass"] is True
    assert doc["report"]["max_dev"] <= 1e-9
    assert doc["config"]["command"] == "check"
    assert "generated_at" not in doc


def test_check_square_failure_is_expected_exit_zero(capsys):
    code, out, _ = run(["check", "--spec", "poly:1,1;-1,1;-1,-1;1,-1",
                        "--rho", "0.5", "--samples", "32"], capsys)
    assert code == 0  # only inner-product families gate the exit status
    assert json.loads(out)["report"]["pass"] is False


def test_check_kn_resolution(capsys):
    code, out, _ = run(["check", "--spec", "euclid", "--kn", "2,7",
                        "--samples", "32"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["rho"] == pytest.approx(math.cos(2 * math.pi / 7))
    assert doc["config"]["kn"] == "2,7"


def test_usage_errors(capsys):
    assert run(["check", "--spec", "euclid"], capsys)[0] == 2          # no rho
    assert run(["check", "--rho", "0.5"], capsys)[0] == 2              # no spec
    assert run(["check", "--spec", "euclid", "--rho", "2.0"], capsys)[0] == 2
    assert run(["check", "--spec", "nope", "--rho", "0.5"], capsys)[0] == 2
    assert run(["check", "--spec", "euclid", "--rho", "0.5",
                "--kn", "1,3"], capsys)[0] == 2                        # both
    code, _, err = run(["bogus-command"], capsys)
    assert code == 2
    assert json.loads(err.splitlines()[-1])["error"]["type"] == "usage"


def test_unknown_flag_rejected(capsys):
    code, _, err = run(["check", "--spec", "euclid", "--rho", "0.5",
                        "--frobnicate", "1"], capsys)
    assert code == 2
    assert "error" in err


def test_numerical_failure_exit_code(capsys):
    # validation allows rho=1e-12 but the star-map bracket then fails
    code, _, err = run(["ellipse", "--spec", "euclid", "--rho", "1e-12",
                        "--seed", "0"], capsys)
    assert code == 3
    assert json.loads(err.splitlines()[-1])["error"]["type"] == "numerical"


def test_check_huge_p_gives_a_finite_answer(capsys):
    # (|x|/N)^(p-1) keeps the lp:1e6 gradient finite where N^(p-1) underflows
    code, out, _ = run(["check", "--spec", "lp:1e6", "--rho", "0.5"], capsys)
    assert code == 0
    dev = json.loads(out)["report"]["max_dev"]
    assert math.isfinite(dev)
    assert dev == pytest.approx(1 / 6, abs=1e-3)  # the square's deviation at rho=1/2


@pytest.mark.parametrize("seed", ["nan", "inf", "-inf"])
def test_non_finite_seed_is_a_usage_error(seed, capsys):
    code, out, err = run(["polygon", "--spec", "euclid", "--rho", "0.5",
                          "--seed", seed], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err.splitlines()[-1])["error"]["type"] == "usage"


def test_usage_error_leaves_no_partial_file(tmp_path, capsys):
    out = tmp_path / "never.json"
    code, _, _ = run(["check", "--spec", "euclid", "--out", str(out)], capsys)
    assert code == 2
    assert not out.exists()


def test_polygon_json_and_render_roundtrip(tmp_path, capsys):
    poly_json = tmp_path / "poly.json"
    code, _, _ = run(["polygon", "--spec", "quad:1,0,4", "--kn", "2,7",
                      "--seed", "0.4", "--out", str(poly_json)], capsys)
    assert code == 0
    doc = json.loads(poly_json.read_text())
    assert doc["polygon"]["status"] == "closed"
    assert (doc["polygon"]["n"], doc["polygon"]["k"]) == (7, 2)

    direct_svg = tmp_path / "direct.svg"
    code, _, _ = run(["polygon", "--spec", "quad:1,0,4", "--kn", "2,7",
                      "--seed", "0.4", "--out", str(direct_svg)], capsys)
    assert code == 0

    rendered_svg = tmp_path / "from_json.svg"
    code, _, _ = run(["render", "--from-json", str(poly_json),
                      "--out", str(rendered_svg)], capsys)
    assert code == 0

    def geometry(svg_text):
        return [line for line in svg_text.splitlines()
                if line.startswith(("<polygon", "<polyline", "<circle"))]

    assert geometry(direct_svg.read_text()) == geometry(rendered_svg.read_text())


def test_render_with_ellipse_layers(tmp_path, capsys):
    out = tmp_path / "fig.svg"
    code, _, _ = run(["render", "--spec", "euclid", "--rho", "0.5",
                      "--seed", "0", "--show-ellipse", "--out", str(out)], capsys)
    assert code == 0
    text = out.read_text()
    assert text.count("<polygon") >= 2  # circle + homothet as closed polylines
    assert "u*" in text
    assert "<!-- config:" in text


def test_svg_byte_identical_across_runs(tmp_path, capsys):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    for path in (a, b):
        code, _, _ = run(["render", "--spec", "quad:1,0,4", "--kn", "3,7",
                          "--seed", "0.1", "--out", str(path)], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_csv_deterministic_and_gated(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(["sweep", "--spec", "euclid", "--spec", "lp:4",
                          "--rhos", "0.3,0.5", "--samples", "32",
                          "--out", str(path)], capsys)
        assert code == 0  # lp:4 failures do not gate
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "spec,rho,samples,max_dev,worst_theta,pass"
    assert len(lines) == 6


def test_area_command(capsys):
    code, out, _ = run(["area", "--spec", "poly:1,1;-1,1;-1,-1;1,-1",
                        "--alpha", "0", "--beta", str(2 * math.pi)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["sector"]["value"] == pytest.approx(4.0, abs=1e-6)


def test_ellipse_command(capsys):
    code, out, _ = run(["ellipse", "--spec", "euclid", "--rho", "0.5",
                        "--seed", "0"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["conic"]["a"] == pytest.approx(1.0, abs=1e-9)
    assert doc["conic"]["b"] == pytest.approx(0.0, abs=1e-9)
    assert doc["conic"]["c"] == pytest.approx(1.0, abs=1e-9)
    assert doc["u_star"][0] == pytest.approx(-0.5, abs=1e-9)


def test_probe_even_command(capsys):
    code, out, _ = run(["probe-even", "--spec", "euclid", "--kn", "1,4",
                        "--seed", "0"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["even_probe"]["sector_count"] == 8
    assert doc["even_probe"]["sector_spread"] <= 1e-6
    assert run(["probe-even", "--spec", "euclid", "--kn", "1,5"], capsys)[0] == 2


def test_config_file_merging(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"spec": "euclid", "rho": 0.5, "samples": 32}))
    code, out, _ = run(["check", "--config", str(conf)], capsys)
    assert code == 0
    assert json.loads(out)["config"]["samples"] == 32
    # flags win over the config file
    code, out, _ = run(["check", "--config", str(conf), "--samples", "16"], capsys)
    assert code == 0
    assert json.loads(out)["config"]["samples"] == 16


def test_timestamp_present_without_env(monkeypatch, capsys):
    monkeypatch.delenv("RHO_PLANES_SEED", raising=False)
    code, out, _ = run(["check", "--spec", "euclid", "--rho", "0.5",
                        "--samples", "32"], capsys)
    assert code == 0
    assert "generated_at" in json.loads(out)


@pytest.mark.parametrize("argv", [
    ["check", "--spec", "euclid", "--rho", "0.5", "--tol", "nan"],
    ["check", "--spec", "euclid", "--rho", "0.5", "--tol=-1e-9"],
    ["polygon", "--spec", "euclid", "--kn", "1,5", "--close-tol", "nan"],
    ["polygon", "--spec", "euclid", "--kn", "1,5", "--close-tol", "inf"],
    ["sweep", "--spec", "euclid", "--rhos", "nan,0.5"],
    ["sweep", "--spec", "euclid", "--rhos", "0.5,inf", "--tol", "inf"],
], ids=["check-tol-nan", "check-tol-negative", "polygon-close-tol-nan",
        "polygon-close-tol-inf", "sweep-rhos-nan", "sweep-rhos-inf"])
def test_non_finite_or_negative_tolerances_are_usage_errors(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err.splitlines()[-1])["error"]["type"] == "usage"


def test_overflowing_quadratic_form_is_a_usage_error(capsys):
    # 4ac overflows to inf and once passed the positive-definite test
    code, out, err = run(["check", "--spec", "quad:1e308,0,1e308", "--rho", "0.5",
                          "--samples", "8"], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err.splitlines()[-1])["error"]["type"] == "usage"


def test_reused_parser_carries_no_values_between_calls(tmp_path, capsys):
    calls = [
        ["check", "--spec", "quad:1,0,4", "--rho", "0.6", "--samples", "16",
         "--tol", "0.5"],
        ["polygon", "--spec", "euclid", "--kn", "1,5", "--seed", "0.3",
         "--close-tol", "1e-6"],
        ["sweep", "--spec", "euclid", "--spec", "lp:4", "--rhos", "0.5",
         "--samples", "8", "--format", "csv"],
        ["render", "--spec", "quad:1,0,4", "--kn", "2,7", "--show-ellipse"],
        ["check", "--spec", "euclid", "--kn", "1,5"],
        ["polygon", "--spec", "lp:4", "--rho", "0.7", "--max-steps", "50",
         "--format", "svg"],
    ]
    in_sequence = [run(argv, capsys) for argv in calls]
    alone = []
    for argv in calls:
        _build_parser.cache_clear()
        alone.append(run(argv, capsys))
    assert in_sequence == alone
    # the second check records only its own flags, none of the calls before it
    assert set(json.loads(in_sequence[4][1])["config"]) == {"command", "spec", "kn", "rho"}
