"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import math

import numpy as np
import pytest

from rho_planes import (build_polygon, cap_area, check_midpoint_property,
                        conic_eval, even_probe, fit_rho_ellipse,
                        frame_identities, natural_param,
                        rho_from_kn, sector_area, sector_partition_suite,
                        star_map, sweep, sweep_to_csv, tangency_dstar,
                        tangency_star, total_ball_area, wedge)
from rho_planes.cli import main as cli_main

from conftest import EUCLID, LP4, QUAD14, QUAD213, SQUARE, grid_min_along, midpoint_check

TWO_PI = 2.0 * math.pi
IPS = [EUCLID, QUAD14, QUAD213]
RHOS = [0.3, 0.5, math.cos(math.pi / 5), math.cos(2 * math.pi / 5), 0.9]


def _verdict(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_01_ips_soundness():
    worst = -1.0
    worst_cell = None
    for spec in IPS:
        for rho in RHOS:
            rep = check_midpoint_property(spec, rho, 256, tol=1e-8)
            if rep.max_midpoint_deviation > worst:
                worst = rep.max_midpoint_deviation
                worst_cell = (spec.spec_id, rho)
    _verdict(1, "ips-soundness", worst <= 1e-8,
             f"worst max_dev={worst:.3e} at {worst_cell}, bound 1e-08")


def test_criterion_02_characterization_bite():
    sq_half = check_midpoint_property(SQUARE, 0.5, 256).max_midpoint_deviation
    lp_half = check_midpoint_property(LP4, 0.5, 256).max_midpoint_deviation
    sq_third = check_midpoint_property(SQUARE, 1 / 3, 256).max_midpoint_deviation
    # the corner chord (1,1) -> (-1,0) is the derived witness at rho = 1/3
    corner = midpoint_check(SQUARE, natural_param(SQUARE, math.pi / 4), 1 / 3)
    assert corner.v.x == pytest.approx(-1.0, abs=1e-9)
    assert corner.v.y == pytest.approx(0.0, abs=1e-9)
    corner_dev = abs(corner.midpoint_norm - 1 / 3)
    ok = (sq_half >= 1e-4 and lp_half >= 1e-4
          and sq_third >= 0.16 and corner_dev >= 0.16)
    _verdict(2, "characterization-bite", ok,
             f"square@0.5={sq_half:.3e}, lp4@0.5={lp_half:.3e}, "
             f"square@1/3={sq_third:.4f}, corner-chord dev={corner_dev:.4f}")


def test_criterion_03_max_norm_polygon_facts():
    poly = build_polygon(SQUARE, (1, 0), 0.5)
    axes = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
    ok_closed = (poly.status == "closed" and poly.n == 4)
    vertex_err = max(
        min(math.hypot(v.x - ax, v.y - ay) for ax, ay in axes)
        for v in poly.vertices) if ok_closed else math.inf

    orbit = build_polygon(SQUARE, natural_param(SQUARE, 0.35), 0.5, 2000)
    ok_nc = orbit.status == "non_closing" and orbit.steps == 2000
    clusters = orbit.accumulation_points
    cluster_err = max(
        min(math.hypot(px - ax, py - ay) for ax, ay in axes)
        for px, py in clusters) if clusters else math.inf

    ok = (ok_closed and vertex_err <= 1e-8 and ok_nc
          and len(clusters) == 4 and cluster_err <= 1e-3)
    _verdict(3, "max-norm-polygon-facts", ok,
             f"axis orbit n={poly.n} err={vertex_err:.2e}; generic seed "
             f"{orbit.status} with {len(clusters)} clusters, err={cluster_err:.2e}")


def test_criterion_04_closure_classification():
    rng = np.random.default_rng(73)
    cases = [(1, 3), (1, 5), (2, 5), (1, 7), (2, 7), (3, 7)]
    failures = []
    angle_err = 0.0
    for spec in (EUCLID, QUAD14):
        for k, n in cases:
            rho = rho_from_kn(k, n)
            for seed in rng.uniform(0.0, TWO_PI, 8):
                poly = build_polygon(spec, natural_param(spec, float(seed)), rho, 200)
                if poly.status != "closed" or (poly.n, poly.k) != (n, k):
                    failures.append((spec.spec_id, k, n, float(seed), poly.status))
                    continue
                if spec is EUCLID:
                    for j, v in enumerate(poly.vertices):
                        target = (seed + TWO_PI * j * k / n) % TWO_PI
                        diff = abs((v.theta - target + math.pi) % TWO_PI - math.pi)
                        angle_err = max(angle_err, diff)
    ok = not failures and angle_err <= 1e-6
    _verdict(4, "closure-classification", ok,
             f"96 orbits, failures={failures[:3]}, euclid angle err={angle_err:.2e}")


def test_criterion_05_partition_invariants():
    rep = sector_partition_suite(QUAD14, rho_from_kn(2, 7), 0.4)
    sum_err = abs(rep.partition_sum - math.pi / 2)
    ok = (rep.n == 7 and rep.k == 2 and rep.wedge_spread <= 1e-8
          and rep.sector_spread <= 1e-5 and len(rep.partition.areas) == 14
          and rep.partition.spread <= 1e-5 and sum_err <= 1e-5)
    _verdict(5, "partition-invariants", ok,
             f"n={rep.n} k={rep.k} wedge={rep.wedge_spread:.2e} "
             f"sector={rep.sector_spread:.2e} part={rep.partition.spread:.2e} "
             f"sum_err={sum_err:.2e}")


def test_criterion_06_area_engine():
    errs = {
        "euclid": abs(total_ball_area(EUCLID, 4096) - math.pi),
        "square": abs(total_ball_area(SQUARE, 4096) - 4.0),
        "quad": abs(total_ball_area(QUAD14, 4096) - math.pi / 2),
    }
    rng = np.random.default_rng(101)
    add_ok = True
    worst_ratio = 0.0
    for i in range(100):
        spec = (EUCLID, QUAD14, SQUARE)[i % 3]
        a, b, c = np.sort(rng.uniform(0.0, TWO_PI, 3))
        if b - a < 1e-3 or c - b < 1e-3:
            continue
        s_ab = sector_area(spec, a, b)
        s_bc = sector_area(spec, b, c)
        s_ac = sector_area(spec, a, c)
        resid = abs(s_ab.value + s_bc.value - s_ac.value)
        budget = 2.0 * (s_ab.error_estimate + s_bc.error_estimate
                        + s_ac.error_estimate)
        worst_ratio = max(worst_ratio, resid / budget)
        add_ok = add_ok and resid <= budget
    ok = max(errs.values()) <= 1e-6 and add_ok
    _verdict(6, "area-engine", ok,
             f"ball errs={ {k: f'{v:.1e}' for k, v in errs.items()} }, "
             f"additivity worst resid/budget={worst_ratio:.2f}")


def test_criterion_07_rho_ellipse():
    u = natural_param(EUCLID, 0.25)
    ce = fit_rho_ellipse(u, star_map(EUCLID, u, 0.5), 0.5)
    e_err = max(abs(ce.a - 1), abs(ce.b), abs(ce.c - 1))

    uq = natural_param(QUAD14, 1.15)
    cq = fit_rho_ellipse(uq, star_map(QUAD14, uq, 0.5), 0.5)
    q_err = max(abs(cq.a - 1), abs(cq.b), abs(cq.c - 4))

    rho = rho_from_kn(2, 7)
    vertex_err = 0.0
    for spec in IPS:
        su = natural_param(spec, 0.31)
        s_star = star_map(spec, su, rho)
        conic = fit_rho_ellipse(su, s_star, rho)
        pv = build_polygon(spec, su, rho, 100)
        wx = (su.x + s_star.x) / (2 * rho)
        wy = (su.y + s_star.y) / (2 * rho)
        pw = build_polygon(spec, natural_param(spec, math.atan2(wy, wx)), rho, 100)
        assert pv.status == pw.status == "closed"
        for v in pv.vertices + pw.vertices:
            vertex_err = max(vertex_err, abs(conic_eval(conic, v) - 1.0))

    tangency_ok = True
    for spec in IPS:
        for j in range(64):
            uu = natural_param(spec, TWO_PI * j / 64)
            tangency_ok = tangency_ok and tangency_star(spec, uu, 0.5)
            tangency_ok = tangency_ok and tangency_dstar(spec, uu, 0.5)

    lp_false = 0
    for j in range(8):
        uu = natural_param(LP4, TWO_PI * j / 8)
        if not tangency_star(LP4, uu, 0.5):
            lp_false += 1
    # independent grid oracle at one witness seed
    uu = natural_param(LP4, 0.2)
    st = star_map(LP4, uu, 0.5)
    d = (0.5 * uu.x + st.x, 0.5 * uu.y + st.y)
    oracle_dip = 1.0 - grid_min_along(LP4, uu.coords, d)

    ok = (e_err <= 1e-9 and q_err <= 1e-7 and vertex_err <= 1e-7
          and tangency_ok and lp_false >= 1 and oracle_dip > 1e-6)
    _verdict(7, "rho-ellipse", ok,
             f"euclid fit err={e_err:.1e}, quad fit err={q_err:.1e}, vertex "
             f"err={vertex_err:.1e}, ips tangency={tangency_ok}, lp4 false "
             f"samples={lp_false}/8, oracle dip={oracle_dip:.2e}")


def test_criterion_08_frame_identities():
    rng = np.random.default_rng(11)
    worst = 0.0
    for spec in (EUCLID, QUAD14):
        for _ in range(3):
            a = float(rng.uniform(0.0, 3.0))
            b = a + float(rng.uniform(0.4, math.pi))
            worst = max(worst, *frame_identities(spec, 0.5, a, b))
    _verdict(8, "frame-identities", worst <= 1e-6,
             f"worst residual={worst:.2e}, bound 1e-06")


def test_criterion_09_constancy():
    worst_cap, worst_wedge = 0.0, 0.0
    for spec in IPS:
        caps, wedges = [], []
        for j in range(32):
            u = natural_param(spec, 0.07 + TWO_PI * j / 32)
            us = star_map(spec, u, 0.5)
            caps.append(cap_area(spec, u, us))
            wedges.append(wedge(u, us))
        worst_cap = max(worst_cap, max(caps) - min(caps))
        worst_wedge = max(worst_wedge, max(wedges) - min(wedges))
    ok = worst_cap <= 1e-6 and worst_wedge <= 1e-8
    _verdict(9, "constancy", ok,
             f"cap spread={worst_cap:.2e} (<=1e-06), "
             f"wedge spread={worst_wedge:.2e} (<=1e-08)")


def test_criterion_10_even_probe():
    worst_spread, worst_anti = 0.0, 0.0
    for k, n in ((1, 4), (1, 6)):
        rec = even_probe(EUCLID, k, n, 0.0)
        assert rec.pv_status == "closed" and rec.sector_count == 2 * n
        worst_spread = max(worst_spread, rec.sector_spread)
        worst_anti = max(worst_anti, rec.antipodal_match_dist)
    ok = worst_spread <= 1e-6 and worst_anti <= 1e-8
    _verdict(10, "even-probe", ok,
             f"2n-sector spread={worst_spread:.2e} (<=1e-06), "
             f"antipodal match={worst_anti:.2e} (<=1e-08)")


def test_criterion_11_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("RHO_PLANES_SEED", "golden")
    csv_texts = []
    for _ in range(2):
        result = sweep([EUCLID, LP4], [0.3, 0.5], samples=32)
        csv_texts.append(sweep_to_csv(result, comment="fixed"))
    svg_paths = [tmp_path / "a.svg", tmp_path / "b.svg"]
    for path in svg_paths:
        code = cli_main(["render", "--spec", "quad:1,0,4", "--kn", "2,7",
                         "--seed", "0.4", "--show-ellipse", "--out", str(path)])
        assert code == 0
    svg_same = svg_paths[0].read_bytes() == svg_paths[1].read_bytes()
    ok = csv_texts[0] == csv_texts[1] and svg_same
    _verdict(11, "determinism", ok,
             f"csv identical={csv_texts[0] == csv_texts[1]}, svg identical={svg_same}")
