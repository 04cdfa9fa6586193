"""CLI behavior: dispatch, exit codes, determinism, round-trips."""

import argparse
import dataclasses
import json
import math
import xml.etree.ElementTree as ET

import pytest

from rho_planes import (NormSpec, RhoPlanesError, build_polygon, check_midpoint_property,
                        even_probe, rho_from_kn, sector_area, sweep)
from rho_planes import cli
from rho_planes.cli import _build_parser, main

from test_chords import NAN_GAP_RHO, NAN_GAP_TEXT, NAN_GAP_THETA


@pytest.fixture(autouse=True)
def reproducible_env(monkeypatch):
    monkeypatch.setenv("RHO_PLANES_SEED", "golden")


def _no_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def run(args, capsys):
    """Exit code, stdout and stderr; every JSON document among them must be valid JSON."""
    code = main(args)
    captured = capsys.readouterr()
    if captured.out.startswith("{"):
        json.loads(captured.out, parse_constant=_no_constant)
    for line in captured.err.splitlines():
        json.loads(line, parse_constant=_no_constant)
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


@pytest.mark.parametrize("argv, want_code, failed", [
    # --tol 0 fails euclid on rounding alone: its max_dev here is 5.55e-16
    (["check", "--spec", "euclid", "--rho", "0.5", "--tol", "0"], 1, ["euclid"]),
    (["sweep", "--spec", "lp:4", "--spec", "euclid", "--rhos", "0.5", "--tol", "0"],
     1, ["lp:4", "euclid"]),
    (["sweep", "--spec", "euclid", "--spec", "lp:4", "--rhos", "0.3,0.5"], 0, ["lp:4"]),
], ids=["check-euclid", "sweep-euclid", "sweep-only-lp4"])
def test_exit_1_exactly_when_an_inner_product_family_fails(argv, want_code, failed, capsys):
    code, out, _ = run(argv + ["--samples", "32"], capsys)
    assert code == want_code
    doc = json.loads(out)
    reports = doc["reports"] if "reports" in doc else [doc["report"]]
    assert sorted({r["spec"] for r in reports if not r["pass"]}) == sorted(failed)


def test_check_kn_resolution(capsys):
    code, out, _ = run(["check", "--spec", "euclid", "--kn", "2,7",
                        "--samples", "32"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["rho"] == pytest.approx(math.cos(2 * math.pi / 7))
    assert doc["config"]["kn"] == "2,7"


def test_usage_errors(tmp_path, capsys):
    assert run(["check", "--spec", "euclid"], capsys)[0] == 2          # no rho
    assert run(["check", "--rho", "0.5"], capsys)[0] == 2              # no spec
    assert run(["check", "--spec", "euclid", "--rho", "2.0"], capsys)[0] == 2
    assert run(["check", "--spec", "nope", "--rho", "0.5"], capsys)[0] == 2
    assert run(["check", "--spec", "euclid", "--rho", "0.5",
                "--kn", "1,3"], capsys)[0] == 2                        # both
    code, _, err = run(["bogus-command"], capsys)
    assert code == 2
    assert json.loads(err.splitlines()[-1])["error"]["type"] == "usage"
    missing = str(tmp_path / "missing.json")
    for argv, words in [
        (["check", "--config", missing], "cannot read config file"),
        (["check", "--spec", "euclid", "--kn", "1"], "--kn expects"),
        (["sweep", "--spec", "euclid"], "sweep needs --rhos"),
        (["sweep", "--spec", "euclid", "--rhos", "0.5,x"], "--rhos expects"),
        (["area", "--spec", "euclid", "--alpha", "0.1"], "area needs --alpha and --beta"),
        (["probe-even", "--spec", "euclid"], "probe-even needs --kn"),
        (["render", "--from-json", missing], "cannot read polygon JSON"),
    ]:
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, ""), argv
        assert words in json.loads(err)["error"]["message"], argv


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


def test_nan_star_map_gap_is_a_numerical_error(capsys):
    code, out, err = run(["polygon", "--spec", NAN_GAP_TEXT, "--rho", repr(NAN_GAP_RHO),
                          "--seed", repr(NAN_GAP_THETA), "--max-steps", "5"], capsys)
    assert code == 3
    assert out == ""
    [line] = err.splitlines()
    assert json.loads(line)["error"]["type"] == "numerical"


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


@pytest.mark.parametrize("argv", [
    ["render", "--spec", "lp:1", "--rho", "0.5", "--seed", "nan"],
    ["render", "--spec", "poly:1,0;0,1;-1,0;0,-1", "--rho", "0.5", "--seed", "1e400"],
    ["render", "--spec", "euclid", "--rho", "0.5", "--seed", "-inf"],
], ids=["lp1-nan", "poly-overflow", "euclid-minus-inf"])
def test_render_rejects_a_non_finite_seed_it_does_not_use(argv, capsys):
    # without --show-ellipse the seed is only written to the SVG's config
    # comment, which holds no NaN: this used to exit 4 from the JSON encoder
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err.splitlines()[-1])["error"]["type"] == "usage"


def test_usage_error_leaves_no_partial_file(tmp_path, capsys):
    out = tmp_path / "never.json"
    code, _, _ = run(["check", "--spec", "euclid", "--out", str(out)], capsys)
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("argv, target", [
    (["polygon", "--spec", "euclid", "--rho", "0.5"], "missing/x.json"),
    (["render", "--spec", "euclid", "--rho", "0.5"], "adir"),
], ids=["missing-directory", "onto-a-directory"])
def test_an_output_that_cannot_be_written_is_a_usage_error(argv, target, tmp_path, capsys):
    (tmp_path / "adir").mkdir()
    out = tmp_path / target
    code, stdout, err = run(argv + ["--out", str(out)], capsys)
    assert (code, stdout) == (2, "")
    error = json.loads(err)["error"]
    assert error["type"] == "usage"
    assert error["message"].startswith(f"cannot write output {out}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir"]
    assert list((tmp_path / "adir").iterdir()) == []


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
    # --spec is the one flag that repeats
    assert [line.split(",")[0] for line in lines[2:]] == ["euclid", "euclid", "lp:4", "lp:4"]


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
    # a flag and a config entry of the same name are two parses, not a repeat
    code, out, _ = run(["check", "--config", str(conf), "--rho", "0.3"], capsys)
    assert code == 0
    assert json.loads(out)["config"]["rho"] == 0.3


def test_timestamp_present_without_env(monkeypatch, capsys):
    monkeypatch.delenv("RHO_PLANES_SEED", raising=False)
    for argv in (["check", "--spec", "euclid", "--rho", "0.5", "--samples", "32"],
                 ["sweep", "--spec", "euclid", "--rhos", "0.5", "--samples", "32"]):
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert "generated_at" in json.loads(out), argv


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


def test_each_command_takes_its_own_flags():
    """The option strings of every command, in order, with --format's choices."""
    commands = _build_parser()._subparsers._group_actions[0].choices
    flags = {}
    for name, sub in commands.items():
        flags[name] = " ".join(
            f"{a.option_strings[0]}={'|'.join(a.choices)}" if a.choices else a.option_strings[0]
            for a in sub._actions if a.option_strings[0] != "-h")
    assert flags == {
        "check": "--spec --config --out --rho --kn --samples --tol",
        "polygon": "--spec --config --out --rho --kn --seed --max-steps --close-tol "
                   "--format=json|svg",
        "ellipse": "--spec --config --out --rho --kn --seed",
        "area": "--spec --config --out --alpha --beta --samples",
        "sweep": "--spec --config --out --rhos --samples --tol --format=json|csv",
        "probe-even": "--spec --config --out --kn --seed",
        "render": "--spec --config --out --rho --kn --seed --show-ellipse --from-json",
    }
    # only sweep's --spec repeats; no flag has a default but None
    for name, sub in commands.items():
        spec = next(a for a in sub._actions if a.dest == "spec")
        assert isinstance(spec, argparse._AppendAction) == (name == "sweep")
        assert all(a.default is None for a in sub._actions if a.dest != "help")


def _library_message(call):
    with pytest.raises(RhoPlanesError) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("argv, call", [
    (["check", "--spec", "nope", "--rho", "0.5"], lambda: NormSpec.parse("nope")),
    (["sweep", "--spec", "nope", "--rhos", "0.5"], lambda: NormSpec.parse("nope")),
    (["check", "--spec", "euclid", "--kn", "3,4"], lambda: rho_from_kn(3, 4)),
    (["probe-even", "--spec", "euclid", "--kn", "3,4"],
     lambda: even_probe(NormSpec.euclidean(), 3, 4, 0.0)),
    (["area", "--spec", "euclid", "--alpha", "0", "--beta", "9"],
     lambda: sector_area(NormSpec.euclidean(), 0.0, 9.0)),
    (["polygon", "--spec", "euclid", "--rho", "0.5", "--max-steps", "2"],
     lambda: build_polygon(NormSpec.euclidean(), (1, 0), 0.5, 2)),
    (["probe-even", "--spec", "euclid", "--kn", "1,5"],
     lambda: even_probe(NormSpec.euclidean(), 1, 5, 0.0)),
    (["sweep", "--rhos", "0.5"], lambda: sweep([], [0.5])),
    (["check", "--spec", "euclid", "--rho", "0.5", "--tol", "nan"],
     lambda: check_midpoint_property(NormSpec.euclidean(), 0.5, tol=math.nan)),
    (["polygon", "--spec", "euclid", "--kn", "1,5", "--close-tol", "inf"],
     lambda: build_polygon(NormSpec.euclidean(), (1, 0), rho_from_kn(1, 5), close_tol=math.inf)),
    (["sweep", "--spec", "euclid", "--rhos", "2.0,0.5"],
     lambda: sweep([NormSpec.euclidean()], [2.0, 0.5])),
], ids=["check-spec", "sweep-spec", "check-kn", "probe-even-kn", "area-range",
        "polygon-max-steps", "probe-even-odd-n", "sweep-no-spec", "check-tol-nan",
        "polygon-close-tol-inf", "sweep-rho-2"])
def test_library_errors_reach_the_usage_record_unchanged(argv, call, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": {"type": "usage",
                                         "message": _library_message(call)}}


@pytest.mark.parametrize("spec", ["quad:4e307,1e307,1e307", "quad:1e-300,0,1e-300",
                                  "quad:1e200,0,1e200"])
def test_extreme_but_valid_quadratic_forms_pass_check(spec, capsys):
    code, out, _ = run(["check", "--spec", spec, "--rho", "0.5", "--samples", "8"], capsys)
    assert code == 0
    report = json.loads(out)["report"]
    assert report["pass"] is True
    assert report["max_dev"] <= 1e-14


@pytest.mark.parametrize("spec", ["quad:1e16,0,1", "quad:1e20,0,1", "quad:1,0,1e-300",
                                  "quad:1e12,1.999e6,1"])
def test_quadratic_forms_beyond_the_eigenvalue_ratio_bound_are_usage_errors(spec, capsys):
    code, out, err = run(["check", "--spec", spec, "--rho", "0.5", "--samples", "8"], capsys)
    assert code == 2
    assert out == ""
    assert "eigenvalue ratio" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("spec", ["quad:1e10,0,1", "quad:1,0,1e-10"])
def test_anisotropic_forms_within_the_bound_pass_check(spec, capsys):
    code, out, _ = run(["check", "--spec", spec, "--rho", "0.5"], capsys)
    assert code == 0
    assert json.loads(out)["report"]["pass"] is True


def test_overflowing_quadratic_form_fails_the_overflow_check(capsys):
    code, _, err = run(["check", "--spec", "quad:1e308,0,1e308", "--rho", "0.5",
                        "--samples", "8"], capsys)
    assert code == 2
    assert "too large" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("rhos", ["2.0,0.5", "0.5,1.0", "0,0.5", "-0.5"])
def test_sweep_rhos_outside_the_open_unit_interval_are_usage_errors(rhos, capsys):
    code, out, err = run(["sweep", "--spec", "euclid", "--rhos", rhos,
                          "--format", "csv"], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "usage"


@pytest.mark.parametrize("argv", [
    ["check", "--spec", "euclid", "--rho", "0.5", "--samples", "4"],
    ["check", "--spec", "euclid", "--rho", "0.5", "--samples", "65537"],
    ["sweep", "--spec", "euclid", "--rhos", "0.5", "--samples", "4"],
    ["sweep", "--spec", "euclid", "--rhos", "0.5", "--samples", "65537"],
    ["area", "--spec", "euclid", "--alpha", "0", "--beta", "1", "--samples", "1048577"],
    ["polygon", "--spec", "euclid", "--rho", "0.5", "--max-steps", "100001"],
], ids=["check-4", "check-cap+1", "sweep-4", "sweep-cap+1", "area-cap+1", "polygon-cap+1"])
def test_out_of_range_sample_counts_are_usage_errors(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "usage"


@pytest.mark.parametrize("command, entries", [
    ("check", {"spec": "euclid", "rho": 0.5, "samples": "x"}),
    ("check", {"spec": "euclid", "rho": 0.5, "samples": 16.7}),
    ("check", {"spec": 5, "rho": 0.5}),
    ("check", {"spec": "euclid", "rho": 0.5, "frobnicate": 1}),
    ("check", {"spec": "euclid", "rho": 0.5, "format": "csv"}),
    ("polygon", {"spec": "euclid", "rho": 0.5, "seed": "abc"}),
    ("check", ["--spec", "euclid"]),
], ids=["samples-text", "samples-fraction", "spec-number", "unknown-key", "format-on-check",
        "seed-text", "not-an-object"])
def test_config_entries_are_checked_like_flags(command, entries, tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps(entries))
    code, out, err = run([command, "--config", str(conf)], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "usage"


@pytest.mark.parametrize("command, entries, flags", [
    ("check", {"spec": "euclid", "rho": "0.5", "samples": 16},
     ["--spec", "euclid", "--rho", "0.5", "--samples", "16"]),
    ("polygon", {"spec": "lp:4", "kn": "1,5", "max_steps": 40, "format": "svg"},
     ["--spec", "lp:4", "--kn", "1,5", "--max-steps", "40", "--format", "svg"]),
    ("render", {"spec": "euclid", "rho": 0.5, "show_ellipse": True},
     ["--spec", "euclid", "--rho", "0.5", "--show-ellipse"]),
    ("render", {"spec": "euclid", "rho": 0.5, "show_ellipse": False},
     ["--spec", "euclid", "--rho", "0.5"]),
    ("sweep", {"spec": ["euclid", "lp:4"], "rhos": "0.5", "samples": 8},
     ["--spec", "euclid", "--spec", "lp:4", "--rhos", "0.5", "--samples", "8"]),
], ids=["check-rho-text", "polygon", "render-true", "render-false", "sweep-spec-list"])
def test_config_entries_run_as_their_flags(command, entries, flags, tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps(entries))
    assert run([command, "--config", str(conf)], capsys) == run([command] + flags, capsys)


@pytest.mark.parametrize("command", ["check", "ellipse", "area", "probe-even", "render"])
def test_format_is_offered_only_where_it_chooses_the_output(command, capsys):
    code, out, err = run([command, "--spec", "euclid", "--format", "csv"], capsys)
    assert code == 2
    assert out == ""
    assert "--format" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("argv", [
    ["check", "--spec", "euclid", "--rho", "1e-12", "--samples", "8"],
    ["sweep", "--spec", "euclid", "--rhos", "1e-12,0.5", "--samples", "8", "--format", "csv"],
], ids=["check", "sweep-csv"])
def test_every_seed_failing_is_a_numerical_error(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    error = json.loads(err)["error"]
    assert error["type"] == "numerical"
    assert "8 of 8 seeds failed" in error["message"]


def test_every_seed_failing_message_is_unchanged(capsys):
    code, _, err = run(["check", "--spec", "euclid", "--rho", "1e-12"], capsys)
    assert code == 3
    assert err == (
        '{"error": {"type": "numerical", "message": "256 of 256 seeds failed; first '
        'theta=0.000000: star-map bracket failure: chords from theta=0.000000 never dip '
        'below rho=1e-12"}}\n')


@pytest.mark.parametrize("change, words", [
    (lambda doc: doc["polygon"]["vertices"][0].__setitem__(1, math.nan), "non-finite"),
    (lambda doc: doc["polygon"].__setitem__("rho", 5), "rho must lie"),
    (lambda doc: doc["config"].__setitem__("spec", ["euclid"]), "is a string"),
    (lambda doc: doc["polygon"].__setitem__("vertices", []), "got 'closed' with 0"),
    (lambda doc: doc["polygon"]["vertices"].__delitem__(slice(1, None)), "got 'closed' with 1"),
    (lambda doc: doc["polygon"].__setitem__("status", "open"), "got 'open' with 5"),
], ids=["vertex-nan", "rho-5", "spec-list", "no-vertices", "closed-one-vertex",
        "status-open"])
def test_malformed_polygon_record_is_a_usage_error(change, words, tmp_path, capsys):
    record = tmp_path / "poly.json"
    assert run(["polygon", "--spec", "euclid", "--kn", "1,5", "--out", str(record)],
               capsys)[0] == 0
    doc = json.loads(record.read_text())
    change(doc)
    record.write_text(json.dumps(doc))
    code, out, err = run(["render", "--from-json", str(record)], capsys)
    assert code == 2
    assert out == ""
    assert words in json.loads(err)["error"]["message"]


def test_a_vertex_whose_pixel_overflows_is_a_usage_error(tmp_path, capsys):
    record = tmp_path / "poly.json"
    assert run(["polygon", "--spec", "euclid", "--kn", "1,5", "--out", str(record)],
               capsys)[0] == 0
    doc = json.loads(record.read_text())
    doc["polygon"]["vertices"][0][1:] = [1e308, 0.0]
    record.write_text(json.dumps(doc))
    svg = tmp_path / "poly.svg"
    code, out, err = run(["render", "--from-json", str(record), "--out", str(svg)], capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"]["type"] == "usage"
    assert not svg.exists()


def test_a_config_holding_a_double_hyphen_renders_well_formed_xml(tmp_path, capsys):
    """`--` may not appear inside an XML comment; the config comment still reads back."""
    record, fig = tmp_path / "orbit--a.json", tmp_path / "fig.svg"
    assert run(["polygon", "--spec", "euclid", "--rho", "0.5", "--max-steps", "5",
                "--out", str(record)], capsys)[0] == 0
    assert run(["render", "--from-json", str(record), "--out", str(fig)], capsys)[0] == 0
    ET.parse(fig)
    text = fig.read_text()
    head = "<!-- config: "
    start = text.index(head) + len(head)
    assert json.loads(text[start:text.index(" -->", start)])["from_json"] == str(record)


@pytest.mark.parametrize("argv, entries", [
    (["check", "--spec", "euclid", "--rho", "0.3", "--rho", "0.5", "--samples", "16"], None),
    (["polygon", "--spec", "euclid", "--rho", "0.5", "--seed", "1", "--seed", "2"], None),
    (["check", "--spec", "euclid", "--samples", "16"], {"rho": [0.3, 0.5]}),
], ids=["check-rho", "polygon-seed", "config-rho-list"])
def test_a_flag_that_does_not_repeat_may_be_given_only_once(argv, entries, tmp_path, capsys):
    if entries is not None:
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(entries))
        argv = argv + ["--config", str(conf)]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "may be given only once" in json.loads(err)["error"]["message"]



def test_an_unexpected_exception_exits_4_with_one_json_record(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "check_midpoint_property", broken)
    code, out, err = run(["check", "--spec", "euclid", "--rho", "0.5"], capsys)
    assert code == 4
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["type"] == "internal"
    assert error["message"].startswith("ValueError: boom (at test_cli.py:")


def test_a_nan_in_a_json_output_is_an_internal_error(monkeypatch, capsys):
    class NanReport:
        passed = True

        def to_dict(self):
            return {"max_dev": math.nan}

    monkeypatch.setattr(cli, "check_midpoint_property", lambda *args: NanReport())
    code, out, err = run(["check", "--spec", "euclid", "--rho", "0.5"], capsys)
    assert code == 4
    assert out == ""
    assert "not JSON compliant" in json.loads(err)["error"]["message"]


def test_a_nan_in_a_polygon_or_sweep_record_still_fails(monkeypatch, capsys):
    """The writers skip the cycle check, not the NaN check: a NaN deep in an orbit
    record or a sweep report is still refused."""
    monkeypatch.setattr(cli, "polygon_to_dict", lambda poly: {"vertices": [(0.0, math.nan, 1.0)]})
    code, out, err = run(["polygon", "--spec", "euclid", "--rho", "0.5", "--max-steps", "10"],
                         capsys)
    assert code == 4 and out == ""
    assert "not JSON compliant" in json.loads(err)["error"]["message"]
    report = sweep([NormSpec.euclidean()], [0.5], samples=16)[0]
    nan_report = dataclasses.replace(report, max_midpoint_deviation=math.nan)
    monkeypatch.setattr(cli, "sweep", lambda *args, **kwargs: [nan_report])
    code, out, err = run(["sweep", "--spec", "euclid", "--rhos", "0.5", "--format", "json"],
                         capsys)
    assert code == 4 and out == ""
    assert "not JSON compliant" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("argv", [
    ["check", "--spec", "euclid", "--rho", "0.5", "--samples", "16"],
    ["polygon", "--spec", "lp:3", "--rho", "0.5", "--max-steps", "40"],
    ["sweep", "--spec", "euclid", "--rhos", "0.3,0.5", "--samples", "16"],
], ids=["check", "polygon", "sweep"])
def test_json_outputs_are_one_line(argv, capsys):
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out.endswith("}\n") and out.count("\n") == 1
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


# ROADMAP item 1: rho within a few floats of 1 on inner-product norms.  The
# star map's roots first try the inner-product answer, which resolves these.
@pytest.mark.parametrize("spec, rho", [
    ("euclid", 1.0 - 2.0 ** -53), ("euclid", 1.0 - 2.0 ** -52),
    ("quad:2,1,3", 1.0 - 2.0 ** -52), ("quad:2,1,3", 1.0 - 2.0 ** -51),
])
def test_check_passes_on_inner_product_norms_next_to_rho_1(spec, rho, capsys):
    code, out, _ = run(["check", "--spec", spec, "--rho", repr(rho)], capsys)
    assert code == 0
    assert json.loads(out)["report"]["max_dev"] <= 1.7e-15


@pytest.mark.parametrize("spec, rho", [
    ("quad:1,0,1e-12", 0.9999997), ("quad:1,3.813784741e-7,1.444e-12", 0.9999996826950028),
])
def test_check_passes_on_thin_ellipses_near_rho_1(spec, rho, capsys):
    code, out, _ = run(["check", "--spec", spec, "--rho", repr(rho)], capsys)
    assert code == 0


def test_check_passes_on_a_rotated_thin_ellipse_at_ordinary_rho(capsys):
    # eigenvalue ratio 4.6e8, inside the accepted 1e12 bound
    spec = "quad:5.009715384073066,-10.936170163574989,5.968393896914864"
    code, out, _ = run(["check", "--spec", spec, "--rho", "0.65"], capsys)
    assert code == 0
    assert json.loads(out)["report"]["max_dev"] <= 1e-8


@pytest.mark.parametrize("p", ["1e16", "1e300", "1e308"])
def test_check_on_an_lp_exponent_whose_dual_exponent_rounds_to_1(p, capsys):
    # q = p/(p - 1) rounds to 1.0: the dual gauge must stay smooth, not become lp:1
    code, out, _ = run(["check", "--spec", f"lp:{p}", "--rho", "0.6"], capsys)
    assert code == 0
    assert json.loads(out)["report"]["max_dev"] == pytest.approx(0.15, abs=1e-12)
