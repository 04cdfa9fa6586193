"""Sector and cap areas: exact cases, additivity, constancy across the circle."""

import math

import numpy as np
import pytest

from rho_planes import (DomainError, NormSpec, cap_area, natural_param, sector_area,
                        star_map, total_ball_area, wedge)

from conftest import DIAMOND, EUCLID, IPS_SPECS, QUAD14, SQUARE, spec_ids

TWO_PI = 2.0 * math.pi


def test_total_ball_areas():
    assert total_ball_area(EUCLID) == pytest.approx(math.pi, abs=1e-6)
    assert total_ball_area(SQUARE) == pytest.approx(4.0, abs=1e-6)
    assert total_ball_area(QUAD14) == pytest.approx(math.pi / 2, abs=1e-6)
    assert total_ball_area(DIAMOND) == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0, 8.0, 16.0, 100.0])
def test_lp_ball_area_matches_the_gamma_closed_form(p):
    """The lp unit ball has area 4*Gamma(1 + 1/p)^2/Gamma(1 + 2/p); the shoelace value
    is within its own error estimate of it, and within 1e-6 relative (measured:
    2.7e-8 at p = 1.1, the cusps of the near-diamond, down to 1.8e-13 at p = 2)."""
    spec = NormSpec.lp(p)
    want = 4.0 * math.exp(2.0 * math.lgamma(1.0 + 1.0 / p) - math.lgamma(1.0 + 2.0 / p))
    sec = sector_area(spec, 0.0, TWO_PI)
    assert sec.value == total_ball_area(spec)
    assert abs(sec.value - want) <= sec.error_estimate
    assert sec.value == pytest.approx(want, rel=1e-6)


def test_quarter_disc():
    sec = sector_area(EUCLID, 0.0, math.pi / 2)
    assert sec.value == pytest.approx(math.pi / 4, abs=1e-6)
    assert sec.error_estimate > 0.0
    assert 0.0 <= sec.value <= total_ball_area(EUCLID) + 1e-12


def test_sector_domain_checks():
    with pytest.raises(DomainError):
        sector_area(EUCLID, 1.0, 1.0)
    with pytest.raises(DomainError):
        sector_area(EUCLID, 0.0, 7.0)
    with pytest.raises(DomainError):
        sector_area(EUCLID, 0.0, 1.0, samples=8)


def test_refinement_stability():
    for spec in (EUCLID, QUAD14, SQUARE):
        sec = sector_area(spec, 0.1, 2.0, 1024)
        finer = sector_area(spec, 0.1, 2.0, 2048)
        assert abs(finer.value - sec.value) <= sec.error_estimate


@pytest.mark.parametrize("spec", [EUCLID, QUAD14, SQUARE],
                         ids=["euclid", "quad:1,0,4", "square"])
def test_sector_additivity(spec, rng):
    for _ in range(50):
        a, b, c = np.sort(rng.uniform(0.0, TWO_PI, 3))
        if b - a < 1e-3 or c - b < 1e-3:
            continue
        s_ab = sector_area(spec, a, b)
        s_bc = sector_area(spec, b, c)
        s_ac = sector_area(spec, a, c)
        budget = 2.0 * (s_ab.error_estimate + s_bc.error_estimate + s_ac.error_estimate)
        assert abs(s_ab.value + s_bc.value - s_ac.value) <= budget


@pytest.mark.parametrize("spec", [EUCLID, QUAD14, SQUARE],
                         ids=["euclid", "quad:1,0,4", "square"])
def test_sector_central_symmetry(spec, rng):
    for _ in range(10):
        a = float(rng.uniform(0.0, TWO_PI))
        b = a + float(rng.uniform(0.1, math.pi))
        s1 = sector_area(spec, a, b)
        s2 = sector_area(spec, a + math.pi, b + math.pi)
        assert s1.value == pytest.approx(s2.value, abs=1e-12)


def test_cap_area_examples():
    assert cap_area(EUCLID, (1, 0), (0, 1)) == pytest.approx(
        math.pi / 4 - 0.5, abs=1e-9)
    assert cap_area(SQUARE, (1, 0), (0, 1)) == pytest.approx(0.5, abs=1e-9)
    # circular segment subtending 2*pi/3
    got = cap_area(EUCLID, (1, 0), (-0.5, math.sqrt(3) / 2))
    assert got == pytest.approx(math.pi / 3 - math.sqrt(3) / 4, abs=1e-9)


def test_cap_area_needs_order():
    with pytest.raises(DomainError):
        cap_area(EUCLID, (0, 1), (1, 0))


@pytest.mark.parametrize("spec", IPS_SPECS, ids=spec_ids(IPS_SPECS))
def test_cap_constancy_along_circle(spec):
    rho = 0.5
    caps = []
    for j in range(32):
        u = natural_param(spec, 0.05 + TWO_PI * j / 32)
        caps.append(cap_area(spec, u, star_map(spec, u, rho)))
    assert max(caps) - min(caps) <= 1e-6


@pytest.mark.parametrize("spec", IPS_SPECS, ids=spec_ids(IPS_SPECS))
def test_wedge_constancy_along_circle(spec):
    rho = math.cos(math.pi / 5)
    vals = []
    for j in range(32):
        u = natural_param(spec, 0.11 + TWO_PI * j / 32)
        vals.append(wedge(u, star_map(spec, u, rho)))
    assert max(vals) - min(vals) <= 1e-8


@pytest.mark.parametrize("spec", IPS_SPECS, ids=spec_ids(IPS_SPECS))
def test_sector_transport_under_star_map(spec, rng):
    rho = 0.45
    for _ in range(6):
        a, b = np.sort(rng.uniform(0.0, TWO_PI, 2))
        if b - a < 1e-2 or b - a > math.pi:
            continue
        u = natural_param(spec, float(a))
        v = natural_param(spec, float(b))
        us, vs = star_map(spec, u, rho), star_map(spec, v, rho)
        gap_uv = (v.theta - u.theta) % TWO_PI
        gap_st = (vs.theta - us.theta) % TWO_PI
        area_uv = sector_area(spec, u.theta, u.theta + gap_uv).value
        area_st = sector_area(spec, us.theta, us.theta + gap_st).value
        assert area_uv == pytest.approx(area_st, abs=1e-6)
