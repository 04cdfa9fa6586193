"""Tests of the benchmark itself: generator, oracles and traced counts.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import json
import math
import random

import numpy as np
import pytest

import rho_planes
import rho_planes.cli  # noqa: F401
from perfbench import geometry, loop, oracles, workloads


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / workloads.WORKDIR).mkdir(parents=True)
    return tmp_path


# -- generator --------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_and_seed_dependent(workload):
    first = workloads.prefix(workload, 7, 60)
    assert first == workloads.prefix(workload, 7, 60)
    other = workloads.prefix(workload, 8, 60)
    assert first != other
    # the seed changes the inputs, never the shape of the mix
    assert [r.kind for r in first] == [r.kind for r in other]
    assert [r.max_steps for r in first] == [r.max_steps for r in other]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generated_specs_parse_and_match_the_oracle_gauge(workload):
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=50), rng.normal(size=50)
    norms = {n.text: n for r in workloads.prefix(workload, 3, 80) for n in r.norms}
    for text, norm in norms.items():
        spec = rho_planes.NormSpec.parse(text)
        assert np.allclose(geometry.gauge(norm, x, y), spec.value_many(x, y), rtol=1e-12)


# -- traced counts ------------------------------------------------------------------


@pytest.mark.parametrize("workload,count", [("check_grid", 2), ("orbit_walk", 2), ("figures", 10)])
def test_traced_counts_repeat_exactly(in_tmp, workload, count):
    runs = [loop.traced_run(rho_planes, workload, 4, count) for _ in range(2)]
    for run in runs:
        assert not run["tally"].failures
    counts = [{k: v for k, (v, unit) in run["metrics"].items() if unit not in ("s", "ratio")}
              for run in runs]
    assert counts[0] == counts[1]
    assert counts[0]["cli.main.calls"] > 0 or workload == "figures"
    assert runs[0]["metrics"]["trace.overhead_ratio"][0] > 0


def test_trace_restores_the_library(in_tmp):
    before = (rho_planes.chords.star_map, rho_planes.polygons.star_map,
              rho_planes.NormSpec.__dict__["lp"], rho_planes.cli.main)
    loop.traced_run(rho_planes, "figures", 1, 3)
    after = (rho_planes.chords.star_map, rho_planes.polygons.star_map,
             rho_planes.NormSpec.__dict__["lp"], rho_planes.cli.main)
    assert before == after


# -- oracles ------------------------------------------------------------------------


def _run(reqs):
    """Execute requests in order; return (request, outcome) pairs, all verified."""
    memo, specs, done = oracles.Memo(), {}, []
    for req in reqs:
        _, out = loop.execute(rho_planes, req, specs)
        assert oracles.verify(req, out, memo) is None, req.argv
        done.append((req, out))
    return done


def _rejects(done, index, corrupted: oracles.Outcome) -> bool:
    """Replay the requests before `index`, then verify the corrupted outcome."""
    memo = oracles.Memo()
    for req, out in done[:index]:
        assert oracles.verify(req, out, memo) is None
    return oracles.verify(done[index][0], corrupted, memo) is not None


def _edit_json(out: oracles.Outcome, edit) -> oracles.Outcome:
    doc = json.loads(out.stdout)
    edit(doc)
    return dataclasses.replace(out, stdout=json.dumps(doc))


@pytest.fixture(scope="module")
def figure_outputs(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        tmp = tmp_path_factory.mktemp("figures")
        mp.chdir(tmp)
        (tmp / workloads.WORKDIR).mkdir(parents=True)
        # cycle 1 is a quadratic norm: n = 3, so the orbit closes fast
        reqs = workloads.prefix("figures", 2, 20)[10:]
        yield _run(reqs)


def _kind(done, kind, nth=0):
    return [i for i, (r, _) in enumerate(done) if r.kind == kind][nth]


def test_polygon_oracle_rejects_off_circle_vertex(figure_outputs):
    i = _kind(figure_outputs, "polygon")
    req, out = figure_outputs[i]
    doc = json.loads(out.written)
    doc["polygon"]["vertices"][1][1] *= 1.0 + 1e-6
    bad = dataclasses.replace(out, written=json.dumps(doc).encode())
    assert _rejects(figure_outputs, i, bad)


def test_polygon_oracle_rejects_wrong_winding(figure_outputs):
    i = _kind(figure_outputs, "polygon")
    req, out = figure_outputs[i]
    doc = json.loads(out.written)
    doc["polygon"]["k"] += 1
    bad = dataclasses.replace(out, written=json.dumps(doc).encode())
    assert _rejects(figure_outputs, i, bad)


def test_polygon_oracle_rejects_nan_token(figure_outputs):
    i = _kind(figure_outputs, "polygon")
    req, out = figure_outputs[i]
    text = out.written.decode().replace('"turning": ', '"turning": NaN, "x": ', 1)
    bad = dataclasses.replace(out, written=text.encode())
    assert _rejects(figure_outputs, i, bad)


def test_render_oracle_rejects_moved_vertex(figure_outputs):
    i = _kind(figure_outputs, "render")
    req, out = figure_outputs[i]
    text = out.written.decode()
    head, sep, tail = text.partition('<polygon points="')
    tail = tail.replace(tail[:tail.index(",")], f"{float(tail[:tail.index(',')]) + 1.0:.3f}", 1)
    bad = dataclasses.replace(out, written=(head + sep + tail).encode())
    assert _rejects(figure_outputs, i, bad)


def test_svg_oracle_rejects_truncated_and_changed_repeat(figure_outputs):
    i = _kind(figure_outputs, "polygon", 2)
    req, out = figure_outputs[i]
    assert req.repeat_key is not None
    data = out.written
    assert _rejects(figure_outputs, i, dataclasses.replace(out, written=data[:-20]))
    changed = data.replace(b'stroke-width="1.6"', b'stroke-width="1.7"')
    assert changed != data
    assert _rejects(figure_outputs, i, dataclasses.replace(out, written=changed))


def test_ellipse_oracle_rejects_perturbed_star(figure_outputs):
    i = _kind(figure_outputs, "ellipse")
    bad = _edit_json(figure_outputs[i][1],
                     lambda d: d.__setitem__("u_star", [d["u_star"][0] + 1e-7, d["u_star"][1]]))
    assert _rejects(figure_outputs, i, bad)


def _area_request(norm, alpha: float, beta: float) -> workloads.Request:
    return workloads.Request("area", ("area", "--spec", norm.text, "--alpha", repr(alpha),
                                      "--beta", repr(beta)),
                             norms=(norm,), alpha=alpha, beta=beta)


def test_area_oracle_rejects_value_beyond_estimate(in_tmp):
    norm = workloads.quad_norm(random.Random(3))
    done = _run([_area_request(norm, -0.4, 2.1)])

    def edit(doc):
        doc["sector"]["value"] += 10.0 * doc["sector"]["error_estimate"]
    assert _rejects(done, 0, _edit_json(done[0][1], edit))


@pytest.mark.xfail(strict=True, reason="known defect: sector_area's error_estimate does not "
                   "cover the rounding of its shoelace sum (perfbench/README.md)")
def test_area_estimate_covers_the_error_of_the_value(in_tmp):
    req = _area_request(workloads.euclid_norm(), -1.607435, -0.781724)
    _, out = loop.execute(rho_planes, req, {})
    assert oracles.verify(req, out, oracles.Memo()) is None


def test_probe_oracle_rejects_unequal_sectors(figure_outputs):
    i = _kind(figure_outputs, "probe-even")

    def edit(doc):
        doc["even_probe"]["sector_spread"] = 1e-3
    assert _rejects(figure_outputs, i, _edit_json(figure_outputs[i][1], edit))


def test_suite_oracle_rejects_wedge_spread(figure_outputs):
    i = _kind(figure_outputs, "suite")
    out = figure_outputs[i][1]
    bad = dataclasses.replace(out, value=dataclasses.replace(out.value, wedge_spread=1e-6))
    assert _rejects(figure_outputs, i, bad)


def test_tangency_and_frame_oracles_reject(figure_outputs):
    i = _kind(figure_outputs, "tangency")
    out = figure_outputs[i][1]
    assert _rejects(figure_outputs, i, dataclasses.replace(out, value=(True, False)))
    j = _kind(figure_outputs, "frame")
    out = figure_outputs[j][1]
    frame = dataclasses.replace(out.value, mu=out.value.mu * (1.0 + 1e-6))
    assert _rejects(figure_outputs, j, dataclasses.replace(out, value=frame))


def test_cli_oracles_reject_exit_code_and_raw_exception(figure_outputs):
    i = _kind(figure_outputs, "ellipse")
    out = figure_outputs[i][1]
    assert _rejects(figure_outputs, i, dataclasses.replace(out, code=3))
    assert _rejects(figure_outputs, i, dataclasses.replace(out, error="ValueError: boom"))


def test_check_oracles_reject_wrong_verdicts(in_tmp):
    euclid = workloads.euclid_norm()
    square = workloads.square_norm()
    kn = (1, 3)
    rho = workloads.closure_rho(*kn)
    done = _run([workloads.check_request(euclid, kn, rho),
                 workloads.check_request(square, kn, rho)])

    def dev(value, passed):
        def edit(doc):
            doc["report"]["max_dev"], doc["report"]["pass"] = value, passed
        return edit
    # an inner-product norm must pass; a square at a closure ratio must fail
    assert _rejects(done, 0, _edit_json(done[0][1], dev(1e-4, False)))
    assert _rejects(done, 1, _edit_json(done[1][1], dev(0.0, True)))
    # the pass flag must agree with max_dev, and max_dev must be finite
    assert _rejects(done, 1, _edit_json(done[1][1], dev(0.2, True)))
    nan = done[0][1].stdout.replace('"max_dev": ', '"max_dev": NaN, "was": ', 1)
    assert _rejects(done, 0, dataclasses.replace(done[0][1], stdout=nan))


def test_sweep_oracle_rejects_flipped_row_and_changed_repeat(in_tmp):
    kn = (1, 3)
    req = workloads.sweep_request((workloads.euclid_norm(), workloads.square_norm()),
                                  (workloads.closure_rho(*kn),), (kn,), "sweep-test")
    done = _run([req, req])
    out = done[1][1]
    lines = out.stdout.split("\n")
    flipped = "\n".join(lines[:2] + [lines[2].replace(",true", ",false")] + lines[3:])
    assert _rejects(done, 1, dataclasses.replace(out, stdout=flipped))
    moved = out.stdout.replace("# config: ", "# config:  ", 1)
    assert _rejects(done, 1, dataclasses.replace(out, stdout=moved))


def test_orbit_oracle_rejects_short_walk_and_bad_chord(in_tmp):
    norm = workloads.l1_norm()
    req = workloads.polygon_request(norm, None, 0.4, 0.3, max_steps=20)
    done = _run([req])
    out = done[0][1]

    def drop_last(doc):
        doc["polygon"]["vertices"].pop()
    assert _rejects(done, 0, _edit_json(out, drop_last))

    def slide_vertex(doc):
        # vertex 1 stays on the unit circle, but chord 0 -> 1 no longer supports rho*S
        theta = doc["polygon"]["vertices"][1][0] + 1e-3
        x, y = geometry.unit_point(norm, theta)
        doc["polygon"]["vertices"][1] = [theta % (2 * math.pi), x, y]
    assert _rejects(done, 0, _edit_json(out, slide_vertex))
