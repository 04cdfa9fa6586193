"""Chord minima, the star map, and chord frames."""

import math

import numpy as np
import pytest

from rho_planes import (DegenerateChordError, DomainError, NormSpec, NumericalError,
                        UnitPoint, chord_frame, chord_min, frame_grid,
                        midpoint_check, natural_param, star_map, wedge)

from rho_planes.chords import _poly_tangent_exit, _poly_tangent_exit_many, star_map_many
from rho_planes.norms import _line_min, unit_points

from conftest import (EUCLID, IPS_SPECS, LP4, LP15, QUAD14, QUAD213, SQUARE,
                      bisection_star_map, euclid_star_angle, golden_min,
                      grid_chord_min, max_poly_tangent_exit, quad_star_oracle, spec_ids)

TWO_PI = 2.0 * math.pi


def test_chord_min_euclid_quarter():
    rep = chord_min(EUCLID, (1, 0), (0, 1))
    assert rep.min_value == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
    assert rep.argmin_lo == pytest.approx(0.5, abs=1e-9)
    assert rep.argmin_hi == pytest.approx(0.5, abs=1e-9)
    assert rep.midpoint_norm == pytest.approx(math.sqrt(2) / 2, abs=1e-12)


def test_chord_min_square_kink():
    # piecewise-linear minimization of max(|1-2t|, 1-t)
    rep = chord_min(SQUARE, (1, 1), (-1, 0))
    assert rep.min_value == pytest.approx(1 / 3, abs=1e-12)
    assert rep.argmin_lo == pytest.approx(2 / 3, abs=1e-12)
    assert rep.argmin_hi == pytest.approx(2 / 3, abs=1e-12)
    assert rep.midpoint_norm == pytest.approx(0.5, abs=1e-12)
    # the dense-grid oracle resolves a kink only to half its spacing
    oracle_min, oracle_t = grid_chord_min(SQUARE, (1, 1), (-1, 0))
    assert rep.min_value == pytest.approx(oracle_min, abs=1e-5)
    assert rep.argmin_lo == pytest.approx(oracle_t, abs=1e-4)


def test_chord_min_antipodal_through_origin():
    rep = chord_min(EUCLID, (1, 0), (-1, 0))
    assert rep.min_value == 0.0
    assert rep.argmin_lo == pytest.approx(0.5, abs=1e-12)


def test_chord_min_flat_edge():
    # both endpoints on the same facet: the whole chord sits on the circle
    rep = chord_min(SQUARE, (1, 1), (1, -1))
    assert rep.min_value == pytest.approx(1.0, abs=1e-12)
    assert rep.argmin_lo == pytest.approx(0.0, abs=1e-9)
    assert rep.argmin_hi == pytest.approx(1.0, abs=1e-9)


def test_chord_min_degenerate_rejected():
    with pytest.raises(DegenerateChordError):
        chord_min(EUCLID, (1, 0), (1, 0))


def test_chord_min_on_a_small_unit_circle():
    # unit radius 1e-100: distinct endpoints lie far closer than 1e-15
    spec = NormSpec.quadratic(1e200, 0, 1e200)
    u, v = natural_param(spec, 0.3), natural_param(spec, 1.7)
    rep = chord_min(spec, u, v)
    assert math.isfinite(rep.min_value)
    assert rep.min_value == pytest.approx(math.cos(0.7), abs=1e-12)
    assert rep.midpoint_norm == pytest.approx(math.cos(0.7), abs=1e-12)


@pytest.mark.parametrize("spec", IPS_SPECS, ids=spec_ids(IPS_SPECS))
def test_chord_argmin_collapses_on_strictly_convex(spec, rng):
    for _ in range(25):
        a, b = rng.uniform(0.0, TWO_PI, 2)
        if abs(a - b) < 1e-3:
            continue
        u = natural_param(spec, a)
        v = natural_param(spec, b)
        rep = chord_min(spec, u, v)
        assert rep.argmin_hi - rep.argmin_lo <= 1e-9
        for t in (rep.argmin_lo, rep.argmin_hi):
            w = ((1 - t) * u.x + t * v.x, (1 - t) * u.y + t * v.y)
            assert spec.value(*w) == pytest.approx(rep.min_value, abs=1e-10)


@pytest.mark.parametrize("spec", [EUCLID, QUAD14, LP4, SQUARE, LP15, QUAD213, NormSpec.lp(1)],
                         ids=["euclid", "quad:1,0,4", "lp:4", "square", "lp:1.5",
                              "quad:2,1,3", "lp:1"])
def test_chord_min_matches_grid_oracle(spec, rng):
    for _ in range(10):
        a, b = rng.uniform(0.0, TWO_PI, 2)
        u = natural_param(spec, a)
        v = natural_param(spec, b)
        if math.hypot(u.x - v.x, u.y - v.y) < 1e-6:
            continue
        rep = chord_min(spec, u, v)
        oracle, _ = grid_chord_min(spec, u.coords, v.coords)
        assert rep.min_value <= oracle + 1e-12
        assert rep.min_value == pytest.approx(oracle, abs=1e-5)


def test_star_map_euclid_examples():
    st = star_map(EUCLID, (1, 0), 0.5)
    assert st.theta == pytest.approx(2 * math.pi / 3, abs=1e-12)
    assert st.x == pytest.approx(-0.5, abs=1e-12)
    assert st.y == pytest.approx(math.sqrt(3) / 2, abs=1e-12)

    st2 = star_map(EUCLID, (1, 0), math.cos(math.pi / 5))
    assert st2.theta == pytest.approx(2 * math.pi / 5, abs=1e-12)


def test_star_map_square_axis():
    st = star_map(SQUARE, (1, 0), 0.5)
    assert st.x == pytest.approx(0.0, abs=1e-10)
    assert st.y == pytest.approx(1.0, abs=1e-12)


def test_star_map_rejects_bad_rho():
    for rho in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(DomainError):
            star_map(EUCLID, (1, 0), rho)


def test_star_map_bracket_failure_is_loud():
    # rho below the antipodal-guard dip scale cannot be bracketed
    from rho_planes import NumericalError
    with pytest.raises(NumericalError):
        star_map(EUCLID, (1, 0), 1e-12)


@pytest.mark.parametrize("spec", IPS_SPECS, ids=spec_ids(IPS_SPECS))
def test_star_chord_supports_rho(spec, rng):
    for rho in (0.3, 0.5, 0.9):
        for theta in rng.uniform(0.0, TWO_PI, 8):
            u = natural_param(spec, theta)
            st = star_map(spec, u, rho)
            assert wedge(u, st) > 0.0
            rep = chord_min(spec, u, st)
            assert rep.min_value == pytest.approx(rho, abs=1e-9)


def test_star_map_quad_matches_substitution_oracle(rng):
    for spec in (QUAD14, QUAD213):
        for rho in (0.5, math.cos(math.pi / 5)):
            for theta in rng.uniform(0.0, TWO_PI, 6):
                u = natural_param(spec, theta)
                got = star_map(spec, u, rho)
                ox, oy = quad_star_oracle(spec, u.coords, rho)
                assert got.x == pytest.approx(ox, abs=1e-9)
                assert got.y == pytest.approx(oy, abs=1e-9)


def _random_symmetric_polygon(seed):
    """A symmetric convex 4- to 12-gon: points of a circle under a shear."""
    rng = np.random.default_rng(seed)
    half = int(rng.integers(2, 7))
    while True:
        angles = np.sort(rng.uniform(0.0, math.pi, half))
        if np.min(np.diff(np.r_[angles, angles[0] + math.pi])) > 0.15:
            break
    sx, sy, shear = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)
    return NormSpec.polygon([(sx * math.cos(a) + shear * math.sin(a), sy * math.sin(a))
                             for a in angles])


HEXAGON = NormSpec.polygon([(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3))
                            for k in range(3)])
ORACLE_SPECS = ([EUCLID, QUAD213, QUAD14, NormSpec.lp(1.1), LP15, LP4, NormSpec.lp(16),
                 NormSpec.lp(1), SQUARE, HEXAGON]
                + [_random_symmetric_polygon(seed) for seed in (11, 1, 2)])
ORACLE_IDS = spec_ids(ORACLE_SPECS[:8]) + ["square", "hexagon", "random-4gon",
                                           "random-8gon", "random-12gon"]


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=ORACLE_IDS)
def test_star_map_matches_bisection_oracle(spec, rng):
    thetas = (list(rng.uniform(0.0, TWO_PI, 8)) + [k * math.pi / 4 for k in range(8)]
              + list(spec.corner_angles))
    for rho in (0.05, 0.5, math.cos(math.pi / 5), 0.98):
        for theta in thetas:
            u = natural_param(spec, theta)
            got = star_map(spec, u, rho)
            want = bisection_star_map(spec, u, rho)
            assert max(abs(got.x - want.x), abs(got.y - want.y)) <= 1e-13, (theta, rho)


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=ORACLE_IDS)
def test_star_map_many_matches_scalar_star_map(spec):
    thetas = sorted(set(np.linspace(0.0, TWO_PI, 64, endpoint=False))
                    | {k * math.pi / 4 for k in range(8)} | set(spec.corner_angles))
    for rho in (0.05, 0.5, math.cos(math.pi / 5), 0.98):
        ux, uy, vx, vy, errors = star_map_many(spec, thetas, rho)
        assert errors == {}
        for i, theta in enumerate(thetas):
            u = natural_param(spec, theta)
            v = star_map(spec, u, rho)
            got = (ux[i], uy[i], vx[i], vy[i])
            want = u.coords + v.coords
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-13, (theta, rho)


POLY_EXIT_SPECS = [NormSpec.lp(1), SQUARE, ORACLE_SPECS[-2]]


@pytest.mark.parametrize("spec", POLY_EXIT_SPECS, ids=["lp:1", "square", "random-8gon"])
def test_bisected_polygon_exit_matches_the_max_facet_oracle(spec, rng):
    """The facet found by bisecting the corner angles gives the max-facet result bit for bit.

    At a corner both facets support u; either start of the visibility walk
    ends at the same facet.
    """
    corners = list(spec.corner_angles)
    thetas = sorted(set(rng.uniform(0.0, TWO_PI, 200)) | set(corners)
                    | {math.nextafter(c, 7.0) for c in corners}
                    | {math.nextafter(c, -1.0) % TWO_PI for c in corners}
                    | {k * math.pi / 4 for k in range(8)})
    for rho in (0.05, 0.3, 0.5, math.cos(math.pi / 5), 0.98, 1.0 - 1e-9):
        ux, uy = unit_points(spec, np.array(thetas))
        many = _poly_tangent_exit_many(spec, np.array(thetas), ux, uy, rho)
        for i, theta in enumerate(thetas):
            u = natural_param(spec, theta)
            want = max_poly_tangent_exit(spec.normals, u.x, u.y, rho)
            assert _poly_tangent_exit(spec, u, rho) == want, (theta, rho)
            # numpy's cos and sin may round the seed differently from math's
            want = max_poly_tangent_exit(spec.normals, float(ux[i]), float(uy[i]), rho)
            assert tuple(float(v[i]) for v in many) == want, (theta, rho)


@pytest.mark.parametrize("spec", [EUCLID, LP4, SQUARE], ids=["euclid", "lp:4", "square"])
def test_star_map_many_fails_a_seed_with_the_scalar_message(spec):
    thetas = [0.0, 1.0, 2.5, 4.0]
    *_, errors = star_map_many(spec, thetas, 1e-12)
    assert sorted(errors) == [0, 1, 2, 3]
    for i, theta in enumerate(thetas):
        with pytest.raises(NumericalError) as info:
            star_map(spec, natural_param(spec, theta), 1e-12)
        assert errors[i] == str(info.value)


# a corner seed two floats below rho = 1: the tangent vertex is u to rounding, no
# facet is ahead along it, the exit parameter is inf and the gap is NaN
NAN_GAP_TEXT = ("poly:1.71114884560502,0.9452815396559903;0.8216928250303454,0.9737345869597073;"
                "-0.08702523077876606,0.6681548609856984")
NAN_GAP_SPEC = NormSpec.parse(NAN_GAP_TEXT)
NAN_GAP_THETA, NAN_GAP_RHO = 0.5047031705523816, 0.9999999999999998


def test_nan_gap_is_a_recorded_seed_failure():
    with pytest.raises(NumericalError, match="could not leave the seed angle") as info:
        star_map(NAN_GAP_SPEC, natural_param(NAN_GAP_SPEC, NAN_GAP_THETA), NAN_GAP_RHO)
    *_, errors = star_map_many(NAN_GAP_SPEC, [NAN_GAP_THETA, 1.0], NAN_GAP_RHO)
    assert errors == {0: str(info.value)}


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=ORACLE_IDS)
def test_midpoint_check_matches_chord_min_midpoint(spec, rng):
    thetas = list(rng.uniform(0.0, TWO_PI, 12)) + list(spec.corner_angles)
    for rho in (0.05, 0.5, math.cos(math.pi / 5), 0.98):
        for theta in thetas:
            u = natural_param(spec, theta)
            got = midpoint_check(spec, u, rho)
            want = chord_min(spec, u, star_map(spec, u, rho))
            assert (got.u, got.v) == (want.u, want.v)
            assert got.midpoint_norm == want.midpoint_norm, (theta, rho)


def _random_segments(spec, rng, count):
    """Segments u + t*d over t in [0, 1] from unit points u: chords to a
    second unit point, and random directions and lengths up to 3."""
    for _ in range(count):
        a, b = rng.uniform(0.0, TWO_PI, 2)
        u = natural_param(spec, a)
        r = rng.uniform(0.1, 3.0)
        yield u.x, u.y, r * math.cos(b), r * math.sin(b)
        v = natural_param(spec, b)
        yield u.x, u.y, v.x - u.x, v.y - u.y


SMOOTH_ORACLE = [(s, i) for s, i in zip(ORACLE_SPECS, ORACLE_IDS) if s.smooth]
POLY_ORACLE = [(s, i) for s, i in zip(ORACLE_SPECS, ORACLE_IDS) if not s.smooth]


@pytest.mark.parametrize("spec", [s for s, _ in SMOOTH_ORACLE], ids=[i for _, i in SMOOTH_ORACLE])
def test_line_min_matches_golden_section_oracle(spec, rng):
    for ux, uy, dx, dy in _random_segments(spec, rng, 20):
        if math.hypot(dx, dy) < 1e-6:
            continue
        value, lo, hi = _line_min(spec, ux, uy, dx, dy)
        _, want = golden_min(lambda t: spec.value(ux + t * dx, uy + t * dy), 0.0, 1.0)
        assert lo == hi
        assert abs(value - want) <= 1e-14, (ux, uy, dx, dy)


@pytest.mark.parametrize("spec", [s for s, _ in POLY_ORACLE], ids=[i for _, i in POLY_ORACLE])
def test_line_min_matches_grid_oracle_on_polygons(spec, rng):
    for ux, uy, dx, dy in _random_segments(spec, rng, 10):
        value, lo, hi = _line_min(spec, ux, uy, dx, dy)
        want, _ = grid_chord_min(spec, (ux, uy), (ux + dx, uy + dy))
        assert value <= want + 1e-12
        assert value == pytest.approx(want, abs=1e-5)
        for t in (lo, hi):
            assert spec.value(ux + t * dx, uy + t * dy) == pytest.approx(value, abs=1e-12)


@pytest.mark.parametrize("spec", [EUCLID, QUAD14, LP4, SQUARE],
                         ids=["euclid", "quad:1,0,4", "lp:4", "square"])
def test_star_map_order_preserving(spec):
    rho = 0.45
    thetas = np.linspace(0.01, 2.0, 25)
    images = [star_map(spec, natural_param(spec, t), rho) for t in thetas]
    for a, b in zip(images, images[1:]):
        assert wedge(a, b) >= -1e-12


@pytest.mark.parametrize("spec", IPS_SPECS, ids=spec_ids(IPS_SPECS))
def test_star_map_continuity_under_refinement(spec):
    rho = 0.7
    base = 1.234
    for dt in (1e-3, 1e-4, 1e-5):
        a = star_map(spec, natural_param(spec, base), rho)
        b = star_map(spec, natural_param(spec, base + dt), rho)
        stretch = ((b.theta - a.theta) % TWO_PI) / dt
        assert 0.05 <= stretch <= 20.0


@pytest.mark.parametrize("spec", [EUCLID, QUAD14, LP4],
                         ids=["euclid", "quad:1,0,4", "lp:4"])
def test_star_map_odd_symmetry(spec, rng):
    rho = 0.6
    for theta in rng.uniform(0.0, TWO_PI, 8):
        u = natural_param(spec, theta)
        a = star_map(spec, u.negated(), rho)
        b = star_map(spec, u, rho).negated()
        assert a.x == pytest.approx(b.x, abs=1e-9)
        assert a.y == pytest.approx(b.y, abs=1e-9)


def test_midpoint_check_examples():
    rep = midpoint_check(EUCLID, natural_param(EUCLID, 1.1), 0.7)
    assert abs(rep.midpoint_norm - 0.7) <= 1e-9

    rep_sq = midpoint_check(SQUARE, natural_param(SQUARE, math.pi / 4), 1 / 3)
    assert abs(rep_sq.midpoint_norm - 1 / 3) == pytest.approx(1 / 6, abs=1e-9)

    rep_q = midpoint_check(QUAD14, natural_param(QUAD14, 0.3), 0.5)
    assert abs(rep_q.midpoint_norm - 0.5) <= 1e-9


def test_chord_frame_euclid_mu():
    # rho^2 (1 + mu^2) = 1 on the round circle
    f = chord_frame(EUCLID, 0.37, 0.5)
    assert f.mu == pytest.approx(math.sqrt(3), abs=1e-10)
    f2 = chord_frame(EUCLID, 2.0, math.cos(math.pi / 5))
    assert f2.mu == pytest.approx(math.tan(math.pi / 5), abs=1e-10)


@pytest.mark.parametrize("spec", IPS_SPECS, ids=spec_ids(IPS_SPECS))
def test_chord_frame_endpoints_on_circle(spec):
    for theta in (0.0, 0.9, 3.3):
        f = chord_frame(spec, theta, 0.5)
        assert spec.value(*f.right) == pytest.approx(1.0, abs=1e-9)
        assert spec.value(*f.left) == pytest.approx(1.0, abs=1e-9)
        assert wedge(f.left, f.right) > 0.0


@pytest.mark.parametrize("spec", IPS_SPECS, ids=spec_ids(IPS_SPECS))
def test_chord_frame_consistent_with_star_map(spec):
    rho = math.cos(math.pi / 5)
    for theta in (0.2, 1.7, 4.0):
        f = chord_frame(spec, theta, rho)
        st = star_map(spec, f.left, rho)
        assert st.x == pytest.approx(f.right[0], abs=1e-8)
        assert st.y == pytest.approx(f.right[1], abs=1e-8)


@pytest.mark.parametrize("spec", IPS_SPECS, ids=spec_ids(IPS_SPECS))
def test_star_parametrization_is_differentiable(spec):
    """theta -> s(theta)* moves along the successor direction at its image."""
    from rho_planes import birkhoff_successor
    rho, h = 0.5, 1e-5
    for theta in (0.3, 1.9, 4.1):
        sp = star_map(spec, natural_param(spec, theta + h), rho)
        sm = star_map(spec, natural_param(spec, theta - h), rho)
        fx, fy = (sp.x - sm.x) / (2 * h), (sp.y - sm.y) / (2 * h)
        at = star_map(spec, natural_param(spec, theta), rho)
        tx, ty = birkhoff_successor(spec, at).coords
        speed = (fx * tx + fy * ty) / (tx * tx + ty * ty)
        assert speed > 0.0  # the q-analogue of the forward tangent factor
        residual = abs(fx * ty - fy * tx) / math.hypot(tx, ty)
        assert residual <= 1e-5 * max(1.0, math.hypot(fx, fy))


def test_frame_grid_matches_scalar_frames():
    thetas = np.linspace(0.0, TWO_PI, 33)
    for spec in (EUCLID, QUAD14, LP4):
        sx, sy, tx, ty, mu = frame_grid(spec, thetas, 0.5)
        for i in (0, 7, 19, 32):
            f = chord_frame(spec, float(thetas[i]), 0.5)
            assert f.base.x == pytest.approx(float(sx[i]), abs=1e-12)
            assert f.perp.x == pytest.approx(float(tx[i]), abs=1e-10)
            assert f.perp.y == pytest.approx(float(ty[i]), abs=1e-10)
            assert f.mu == pytest.approx(float(mu[i]), abs=1e-10)
