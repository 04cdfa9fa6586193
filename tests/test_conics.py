"""Supporting-conic fits and tangency conditions."""

import math

import numpy as np
import pytest

from rho_planes import (GeometryError, UnitPoint, build_polygon, conic_eval,
                        fit_rho_ellipse, is_birkhoff_orthogonal, natural_param,
                        rho_from_kn, star_map, tangency_dstar, tangency_star)

from conftest import EUCLID, IPS_SPECS, LP4, QUAD14, grid_min_along, spec_ids

TWO_PI = 2.0 * math.pi


def test_fit_euclid_recovers_unit_circle():
    u = natural_param(EUCLID, 0.0)
    conic = fit_rho_ellipse(u, star_map(EUCLID, u, 0.5), 0.5)
    assert conic.a == pytest.approx(1.0, abs=1e-9)
    assert conic.b == pytest.approx(0.0, abs=1e-9)
    assert conic.c == pytest.approx(1.0, abs=1e-9)


def test_fit_quad_recovers_form():
    u = natural_param(QUAD14, 0.9)
    conic = fit_rho_ellipse(u, star_map(QUAD14, u, 0.5), 0.5)
    assert conic.a == pytest.approx(1.0, abs=1e-7)
    assert conic.b == pytest.approx(0.0, abs=1e-7)
    assert conic.c == pytest.approx(4.0, abs=1e-7)


def test_fit_square_by_hand():
    # u=(1,0), u*=(0,1), w=(1,1): solving the 3x3 system gives (1,-1,1)
    conic = fit_rho_ellipse(UnitPoint(0.0, (1.0, 0.0)),
                            UnitPoint(math.pi / 2, (0.0, 1.0)), 0.5)
    assert conic.a == pytest.approx(1.0, abs=1e-12)
    assert conic.b == pytest.approx(-1.0, abs=1e-12)
    assert conic.c == pytest.approx(1.0, abs=1e-12)
    assert conic.cond > 0.0


def test_conic_eval_examples():
    from rho_planes.conics import ConicForm
    circ = ConicForm(1.0, 0.0, 1.0, 1.0)
    assert conic_eval(circ, (0, 1)) == 1.0
    ell = ConicForm(1.0, 0.0, 4.0, 1.0)
    assert conic_eval(ell, (0.5, 0.0)) == pytest.approx(0.25)
    sq = ConicForm(1.0, -1.0, 1.0, 1.0)
    assert conic_eval(sq, (1, 1)) == pytest.approx(1.0)


def test_fit_swap_invariance():
    u = natural_param(QUAD14, 1.3)
    v = star_map(QUAD14, u, 0.4)
    c1 = fit_rho_ellipse(u, v, 0.4)
    c2 = fit_rho_ellipse(v, u, 0.4)
    assert c1.a == pytest.approx(c2.a, abs=1e-10)
    assert c1.b == pytest.approx(c2.b, abs=1e-10)
    assert c1.c == pytest.approx(c2.c, abs=1e-10)


def test_fit_degenerate_rejected():
    # antipodal endpoints make the three points pairwise parallel
    u = UnitPoint(0.0, (1.0, 0.0))
    v = UnitPoint(math.pi, (-1.0, 0.0))
    with pytest.raises(GeometryError):
        fit_rho_ellipse(u, v, 0.5)


@pytest.mark.parametrize("spec", IPS_SPECS, ids=spec_ids(IPS_SPECS))
def test_conic_through_orbit_vertices(spec):
    """On inner-product circles the fitted conic carries both orbits."""
    rho = rho_from_kn(2, 7)
    u = natural_param(spec, 0.31)
    u_star = star_map(spec, u, rho)
    conic = fit_rho_ellipse(u, u_star, rho)

    pv = build_polygon(spec, u, rho, 100)
    assert pv.status == "closed"
    wx = (u.x + u_star.x) / (2 * rho)
    wy = (u.y + u_star.y) / (2 * rho)
    pw = build_polygon(spec, natural_param(spec, math.atan2(wy, wx)), rho, 100)
    assert pw.status == "closed"
    for v in pv.vertices + pw.vertices:
        assert conic_eval(conic, v) == pytest.approx(1.0, abs=1e-7)


@pytest.mark.parametrize("spec", IPS_SPECS, ids=spec_ids(IPS_SPECS))
def test_conic_locally_minimal_along_circle_at_midpoint(spec):
    rho = 0.55
    u = natural_param(spec, 0.8)
    u_star = star_map(spec, u, rho)
    conic = fit_rho_ellipse(u, u_star, rho)
    wx = (u.x + u_star.x) / (2 * rho)
    wy = (u.y + u_star.y) / (2 * rho)
    tw = math.atan2(wy, wx)
    g0 = conic_eval(conic, natural_param(spec, tw))
    for h in (1e-3, 2e-3):
        assert conic_eval(conic, natural_param(spec, tw + h)) >= g0 - 1e-12
        assert conic_eval(conic, natural_param(spec, tw - h)) >= g0 - 1e-12


@pytest.mark.parametrize("spec", IPS_SPECS, ids=spec_ids(IPS_SPECS))
def test_chord_touch_point_on_scaled_conic(spec):
    rho = 0.62
    u = natural_param(spec, 2.2)
    u_star = star_map(spec, u, rho)
    conic = fit_rho_ellipse(u, u_star, rho)
    mid = ((u.x + u_star.x) / 2, (u.y + u_star.y) / 2)
    assert conic_eval(conic, mid) == pytest.approx(rho * rho, abs=1e-7)


@pytest.mark.parametrize("spec", IPS_SPECS, ids=spec_ids(IPS_SPECS))
@pytest.mark.parametrize("rho", [0.5, math.cos(math.pi / 5)])
def test_tangency_holds_on_ips(spec, rho):
    for theta in np.linspace(0.0, TWO_PI, 9):
        u = natural_param(spec, float(theta))
        assert tangency_star(spec, u, rho)
        assert tangency_dstar(spec, u, rho)


def test_tangency_fails_on_lp4():
    u = natural_param(LP4, 0.2)
    assert not tangency_star(LP4, u, 0.5)
    assert not tangency_dstar(LP4, u, 0.5)
    # independent dense-grid oracle: the direction strictly improves the norm
    st = star_map(LP4, u, 0.5)
    coef = 1.0 - 2.0 * 0.25
    d = (coef * u.x + st.x, coef * u.y + st.y)
    assert grid_min_along(LP4, u.coords, d) < 1.0 - 1e-6


def test_tangency_degenerate_coefficient():
    # rho^2 = 1/2 collapses the direction to u* itself
    rho = math.sqrt(0.5)
    u = natural_param(EUCLID, 1.0)
    assert tangency_star(EUCLID, u, rho)
    st = star_map(EUCLID, u, rho)
    assert is_birkhoff_orthogonal(EUCLID, u, st)
