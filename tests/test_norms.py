"""Norm gauges, the unit-circle parametrization, and Birkhoff machinery."""

import decimal
import math
import random
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rho_planes import (ConfigurationError, DomainError, NormSpec,
                        UnitPoint, UnsupportedSpecError, as_unit_point, birkhoff_successor,
                        is_birkhoff_orthogonal, natural_param, unit_points, wedge)

from rho_planes.norms import _symmetric_hull

from conftest import (ALL_SPECS, DIAMOND, EUCLID, LP4, QUAD14, QUAD213, SKEWED_HEXAGON,
                      SMOOTH_SPECS, SQUARE, bisection_successor, grid_min_along,
                      line_min_orthogonal, spec_ids, symmetric_hull_testing_every_point)

TWO_PI = 2.0 * math.pi

coords = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def test_eval_norm_examples():
    assert EUCLID.value(3, 4) == pytest.approx(5.0, abs=1e-15)
    # the square gauge is the max norm
    assert SQUARE.value(1, 0.25) == pytest.approx(1.0, abs=1e-15)
    assert SQUARE.value(1, -3.5) == pytest.approx(3.5, abs=1e-15)
    assert LP4.value(0.5, 0.5) == pytest.approx(0.5 ** 0.75, abs=1e-15)
    assert QUAD14.value(1, 0) == pytest.approx(1.0, abs=1e-15)


def test_invalid_specs_rejected():
    with pytest.raises(ConfigurationError):
        NormSpec.quadratic(1, 5, 1)  # indefinite
    with pytest.raises(ConfigurationError):
        NormSpec.quadratic(-1, 0, -1)
    with pytest.raises(ConfigurationError):
        NormSpec.lp(0.5)
    with pytest.raises(ConfigurationError):
        NormSpec.lp(math.inf)
    with pytest.raises(ConfigurationError):
        NormSpec.polygon([(1, 1), (-1, -1)])  # collinear after symmetrization
    with pytest.raises(ConfigurationError):
        NormSpec.polygon([(1, 0), (0, 1), (0.25, 0.25)])  # interior point


@pytest.mark.parametrize("text", ["poly:1,0;0,1;1,nan", "poly:nan,1;1,0;0,1",
                                  "poly:1,0;-nan,0.7;0,1", "poly:1,0;0,1;inf,1"])
def test_polygon_with_a_non_finite_vertex_is_rejected(text):
    """Each vertex is checked: otherwise the hull may drop a NaN, or let it past the
    scale test."""
    with pytest.raises(ConfigurationError, match="must be finite"):
        NormSpec.parse(text)


@pytest.mark.parametrize("abc", [(4e307, 1e307, 1e307), (1e-300, 0, 1e-300),
                                 (1e200, -1e200, 1e200)])
def test_positive_definite_forms_at_extreme_scales_accepted(abc):
    # 4ac - b^2 overflows (NaN) or underflows (0) unless the form is scaled first
    spec = NormSpec.quadratic(*abc)
    u = natural_param(spec, 0.7)
    assert spec.value(*u.coords) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("abc", [(1e16, 0, 1), (1e20, 0, 1), (1, 0, 1e-300),
                                 (1e12, 1.999e6, 1)])
def test_forms_beyond_the_eigenvalue_ratio_bound_rejected(abc):
    # the last is nearly singular: its diagonal alone has ratio 1e12
    with pytest.raises(ConfigurationError, match="eigenvalue ratio"):
        NormSpec.quadratic(*abc)


@pytest.mark.parametrize("abc", [(1e300, 3e300, 1e300), (1e-300, 3e-300, 1e-300),
                                 (1, 2, 1), (1, 0, 0), (0, 0, 1)])
def test_forms_that_are_not_positive_definite_rejected_at_any_scale(abc):
    with pytest.raises(ConfigurationError, match="not positive definite"):
        NormSpec.quadratic(*abc)


def test_polygon_symmetrization_and_order():
    # one half suffices; closure under v -> -v is automatic
    half = NormSpec.polygon([(1, 1), (-1, 1)])
    assert half.spec_id == SQUARE.spec_id
    verts = half.params["vertices"]
    for i in range(len(verts)):
        assert wedge(verts[i], verts[(i + 1) % len(verts)]) > 0  # counterclockwise


def _hull_verdict(hull, points):
    try:
        return hull(points)
    except ConfigurationError as exc:
        return str(exc)


def _random_point_set(rng):
    """Points on a circle, off it by rounding-sized steps, inside it, and near chords."""
    scale = 10.0 ** int(rng.choice([0, 0, 0, -3, 5, -300, 300, 307, -310, -320]))
    k = int(rng.integers(1, 10))
    mode = rng.random()
    if mode < 0.3:
        radii = [1.0] * k
    elif mode < 0.5:
        radii = [1.0 + float(rng.choice([0.0, 1e-13, 1e-10, -1e-10, 1e-8])) for _ in range(k)]
    else:
        radii = [float(rng.random()) for _ in range(k)]
    angles = [float(rng.uniform(0.0, TWO_PI)) for _ in range(k)]
    points = [(scale * r * math.cos(a), scale * r * math.sin(a)) for r, a in zip(radii, angles)]
    if mode > 0.8 and k >= 2:  # a point on, or next to, the chord of the first two
        (x0, y0), (x1, y1) = points[:2]
        nudge = scale * float(rng.choice([0.0, 1e-12, 1e-9, -1e-9, 1e-7]))
        points.append(((x0 + x1) / 2 + nudge, (y0 + y1) / 2 + nudge))
    if rng.random() < 0.1:
        points.append([(0.0, 0.0), (-0.0, scale), (scale, -0.0)][int(rng.integers(3))])
    return points


def test_symmetric_hull_matches_testing_every_point(rng):
    """Skipping the boundary test on hull vertices changes no verdict or message."""
    kinds = set()
    for _ in range(6000):
        points = _random_point_set(rng)
        verdict = _hull_verdict(symmetric_hull_testing_every_point, points)
        assert _hull_verdict(_symmetric_hull, points) == verdict, points
        kinds.add(verdict.split()[-1] if isinstance(verdict, str) else "accepted")
    assert kinds >= {"accepted", "convex", "degenerate"}  # accepted, interior point, collinear


def test_parse_roundtrip():
    for text in ("euclid", "lp:4", "quad:1,0,4", "poly:1,1;-1,1;-1,-1;1,-1"):
        spec = NormSpec.parse(text)
        again = NormSpec.parse(spec.spec_id)
        assert again.spec_id == spec.spec_id
    with pytest.raises(ConfigurationError):
        NormSpec.parse("linf")
    with pytest.raises(ConfigurationError, match="unrecognized norm spec 'circle:1'"):
        NormSpec.parse("circle:1")
    with pytest.raises(ConfigurationError):
        NormSpec.parse("quad:1,0")


@pytest.mark.parametrize("value", [["euclid"], 5, None])
def test_parse_rejects_a_non_string(value):
    with pytest.raises(ConfigurationError, match="is a string"):
        NormSpec.parse(value)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_ids(ALL_SPECS))
@given(x=coords, y=coords, alpha=st.floats(min_value=1e-6, max_value=1e3))
@settings(max_examples=60, deadline=None)
def test_norm_axioms(spec, x, y, alpha):
    n = spec.value(x, y)
    assert n >= 0.0
    assert spec.value(-x, -y) == pytest.approx(n, rel=1e-12, abs=1e-300)
    assert spec.value(alpha * x, alpha * y) == pytest.approx(
        alpha * n, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_ids(ALL_SPECS))
@given(x1=coords, y1=coords, x2=coords, y2=coords)
@settings(max_examples=60, deadline=None)
def test_triangle_inequality(spec, x1, y1, x2, y2):
    lhs = spec.value(x1 + x2, y1 + y2)
    rhs = spec.value(x1, y1) + spec.value(x2, y2)
    assert lhs <= rhs + 1e-12 * max(1.0, rhs)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_ids(ALL_SPECS))
def test_natural_param_on_unit_circle(spec, rng):
    thetas = rng.uniform(0.0, TWO_PI, 10_000)
    x = np.cos(thetas)
    y = np.sin(thetas)
    n = spec.value_many(x, y)
    vals = spec.value_many(x / n, y / n)
    assert np.max(np.abs(vals - 1.0)) <= 1e-10


@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_ids(ALL_SPECS))
def test_value_many_matches_value_at_extreme_scales(spec):
    for scale in (1e200, 1e-200):
        for x, y in ((1.0, 1.0), (1.0, -0.3), (0.2, 0.7)):
            got = float(spec.value_many(np.array([scale * x]), np.array([scale * y]))[0])
            assert got == pytest.approx(spec.value(scale * x, scale * y), rel=1e-12)
            if spec.smooth:
                gx, gy = spec.grad_many(np.array([scale * x]), np.array([scale * y]))
                want = spec.grad(scale * x, scale * y)
                assert (float(gx[0]), float(gy[0])) == pytest.approx(want, rel=1e-12)


def _three_power_lp(p, x, y):
    """The lp gauge as m*((|x|/m)^p + (|y|/m)^p)^(1/p), m = max(|x|, |y|), scalar."""
    ax, ay = abs(x), abs(y)
    m = ax if ax > ay else ay
    if m == 0.0:
        return 0.0
    return m * ((ax / m) ** p + (ay / m) ** p) ** (1.0 / p)


def _three_power_lp_many(p, x, y):
    ax, ay = np.abs(x), np.abs(y)
    m = np.maximum(ax, ay)
    m = np.where(m == 0.0, 1.0, m)
    return m * ((ax / m) ** p + (ay / m) ** p) ** (1.0 / p)


LP_EXPONENTS = [1.0 + 1e-9, 1.0 + 1e-6, 1.01, 1.1, 1.5, 2.0, 2.5, 3.0, 4.0, 7.3, 16.0,
                1e3, 1e6, 1e9]


@pytest.mark.parametrize("p", LP_EXPONENTS)
def test_two_power_lp_gauge_is_the_three_power_gauge_bit_for_bit(p, rng):
    """The larger coordinate's power is exactly 1, so leaving it out changes no bit."""
    extremes = [0.0, 5e-324, 1e-300, 1e300, 1.0, 0.5]
    extremes = sorted({s * v for v in extremes for s in (1.0, -1.0)})
    pairs = [(x, y) for x in extremes for y in extremes]
    pairs += [tuple(v) for v in rng.uniform(-2.0, 2.0, (200, 2))]
    pairs += [tuple(v) for v in 10.0 ** rng.uniform(-300.0, 300.0, (200, 2))]
    xs, ys = np.array([x for x, _ in pairs]), np.array([y for _, y in pairs])
    spec = NormSpec.lp(p)
    for gauge in (spec, spec.dual):
        q = gauge.params["p"]
        assert gauge.value_many(xs, ys).tobytes() == _three_power_lp_many(q, xs, ys).tobytes(), q
        for x, y in pairs:
            assert gauge.value(x, y) == _three_power_lp(q, x, y), (gauge, x, y)


@pytest.mark.parametrize("p", LP_EXPONENTS)
def test_lp_gauge_of_a_point_with_one_infinite_coordinate_is_inf(p):
    """The one point where the two-power gauge differs: the three-power form gave NaN."""
    spec = NormSpec.lp(p)
    points = [(math.inf, 0.0), (0.0, -math.inf), (-math.inf, 1e300), (2.5, math.inf)]
    for x, y in points:
        assert spec.value(x, y) == math.inf, (x, y)
        assert math.isnan(_three_power_lp(p, x, y))
    many = spec.value_many(np.array([x for x, _ in points]), np.array([y for _, y in points]))
    assert np.all(many == math.inf)
    # so such a point is refused as a unit point, as on euclid and quad, not let through
    with pytest.raises(DomainError, match="has gauge inf"):
        as_unit_point(spec, (math.inf, 0.0))


POLY14 = NormSpec.polygon([(1.3 * math.cos(a), math.sin(a))
                           for a in (k * math.pi / 7 + 0.05 * (k % 3) for k in range(7))])
DUAL_SPECS = [EUCLID, NormSpec.lp(1.1), NormSpec.lp(1.5), LP4, NormSpec.lp(16),
              NormSpec.lp(1e300), QUAD14, QUAD213, NormSpec.parse("quad:1,0,1e-12"),
              NormSpec.lp(1), SQUARE, SKEWED_HEXAGON, POLY14]


@pytest.mark.parametrize("spec", DUAL_SPECS, ids=spec_ids(DUAL_SPECS))
def test_dual_gauge_is_the_support_function_of_the_unit_ball(spec, rng):
    """N*(n) = max <n, x> over the unit circle, the dual's dual is the spec, and on
    a smooth gauge grad N*(n) is the x that attains it.

    The samples are an angle grid, the corners, and on a smooth gauge the unit
    point along grad N*(n): on the thin ellipse the grid misses the maximum.
    """
    x, y = unit_points(spec, np.concatenate([np.linspace(0.0, TWO_PI, 200001),
                                             spec.corner_angles]))
    dual = spec.dual
    assert dual.dual is spec and spec.dual is dual
    # lp:1e300 has q = 1.0, yet no facets; a polar polygon's corner angles ascend
    assert dual.smooth == spec.smooth and (dual.normals is None) == spec.smooth
    assert list(dual.corner_angles) == sorted(dual.corner_angles)
    for a in rng.uniform(0.0, TWO_PI, 40):
        nx, ny = math.cos(a), math.sin(a)
        sampled = float(np.max(nx * x + ny * y))
        if dual.smooth:
            gx, gy = dual.grad(nx, ny)
            assert spec.value(gx, gy) == pytest.approx(1.0, abs=1e-12)
            assert nx * gx + ny * gy == pytest.approx(dual.value(nx, ny), rel=1e-12)
            top = natural_param(spec, math.atan2(gy, gx))
            sampled = max(sampled, nx * top.x + ny * top.y)
        assert sampled * (1.0 - 1e-15) <= dual.value(nx, ny) <= sampled * (1.0 + 1e-6)


def _coefficient_quad_gauge(spec, x, y):
    """m*sqrt(a*x^2 + b*x*y + c*y^2) on (x, y)/m, m = max(|x|, |y|): the quadratic
    gauge from its coefficients, the oracle for where the frame's gauge is finite."""
    a, b, c = (spec.params[k] for k in "abc")
    m = max(abs(x), abs(y))
    if m == 0.0:
        return 0.0
    x, y = x / m, y / m
    return m * math.sqrt(a * x * x + b * x * y + c * y * y)


@pytest.mark.parametrize("text,agree", [
    ("quad:2,1,3", True), ("quad:1,0,1e-12", True), ("quad:4e307,1e307,1e307", True),
    ("quad:1e-300,0,1e-300", True), ("quad:5e-324,0,5e-324", False),
    ("quad:1e-310,1e-311,3e-310", False),
    ("quad:5.009715384073066,-10.936170163574989,5.968393896914864", False)])
def test_quad_gauge_is_finite_and_nonzero_where_the_coefficient_gauge_is(text, agree, rng):
    """Through the frame the gauge scales by max(|x|, |y|) first, as the coefficient
    gauge did, so points from 1e-300 to the largest float keep a finite, nonzero
    value, scalar and on arrays.  The two agree to rounding where the form is far
    from singular and its coefficients are normal floats; on subnormal ones the
    coefficient gauge is the less accurate (0.26 relative at 5e-324, against
    2e-16 through the frame, by a 200-bit reference)."""
    spec = NormSpec.parse(text)
    # the inverse form's coefficients overflow on the least forms; its gauge does not
    assert spec.dual.dual is spec and 0.0 < spec.dual.value(0.6, -0.8) < math.inf
    for scale in (5e-324, 1e-300, 1.0, 1e300, 1e305, 1e307, 1e308, 1.7e308):
        thetas = np.concatenate([rng.uniform(0.0, TWO_PI, 100), np.arange(8) * math.pi / 4])
        xs, ys = scale * np.cos(thetas), scale * np.sin(thetas)
        with np.errstate(over="ignore"):
            many = spec.value_many(xs, ys)
        for x, y, got_many in zip(xs.tolist(), ys.tolist(), many.tolist()):
            want, got = _coefficient_quad_gauge(spec, x, y), spec.value(x, y)
            if math.isfinite(want):
                assert math.isfinite(got) and math.isfinite(got_many), (x, y)
            if want > 0.0:
                assert got > 0.0 and got_many > 0.0, (x, y)
            if 1e-290 < want < math.inf and agree:
                assert got == pytest.approx(want, rel=1e-14) and got_many == got, (x, y)


@pytest.mark.parametrize("text", ["quad:1,0,4", "quad:2,1,3", "quad:1,0,1e-12",
                                  "quad:5.009715384073066,-10.936170163574989,5.968393896914864",
                                  "quad:4e307,1e307,1e307", "quad:1e-300,0,1e-300"])
def test_round_frame_is_a_square_root_of_the_form_and_inverts(text, rng):
    """to_round is a multiple of Q^(1/2): its square is a multiple of Q, entry by entry,
    and from_round undoes it up to a positive factor."""
    spec = NormSpec.parse(text)
    to_round, from_round = spec.round_frame
    (ra, rb), (_, rc) = to_round(1.0, 0.0), to_round(0.0, 1.0)
    a, b, c = (spec.params[k] for k in "abc")
    k = (ra * ra + rb * rb) / a
    assert (rb * rb + rc * rc) / c == pytest.approx(k, rel=1e-14)
    if b != 0.0:
        assert 2.0 * rb * (ra + rc) / b == pytest.approx(k, rel=1e-14)
    x, y = rng.normal(size=(2, 1000))
    bx, by = from_round(*to_round(x, y))
    assert np.all(bx * x + by * y > 0.0)
    assert np.max(np.abs(bx * y - by * x) / np.hypot(bx, by) / np.hypot(x, y)) <= 1e-9
    assert NormSpec.euclidean().round_frame is None and LP4.round_frame is None


@pytest.mark.parametrize("spec", [NormSpec.lp(1), SQUARE, POLY14], ids=["lp:1", "square", "14-gon"])
def test_facet_gauge_folds_to_the_max_over_all_facets(spec, rng):
    """`value_many` folds the facets one at a time and equals the facets x points max."""
    assert len(POLY14.normals) == 14
    x = np.concatenate([rng.normal(size=500) * 10.0 ** rng.uniform(-200, 200, 500),
                        [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324]])
    y = np.concatenate([rng.normal(size=500), [0.0, 0.0, 1.0, 1.0, math.inf, 0.0]])
    nx, ny = np.array(spec.normals).T
    with np.errstate(invalid="ignore", over="ignore"):
        want = np.max(np.multiply.outer(nx, x) + np.multiply.outer(ny, y), axis=0)
        got = spec.value_many(x, y)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(spec.value_many(x.reshape(2, -1), y.reshape(2, -1)),
                              want.reshape(2, -1), equal_nan=True)


def test_lp1_is_the_diamond_polygon():
    l1 = NormSpec.lp(1)
    assert l1.corner_angles == DIAMOND.corner_angles
    pts = [(1.0, 0.0), (0.3, -0.7), (-2.5, 1e-3), (1e200, -1e200), (1e-200, 3e-200)]
    for x, y in pts:
        assert l1.value(x, y) == DIAMOND.value(x, y)
    xs, ys = np.array(pts).T
    assert np.array_equal(l1.value_many(xs, ys), DIAMOND.value_many(xs, ys))


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_natural_param_rejects_non_finite_angles(theta):
    with pytest.raises(DomainError):
        natural_param(EUCLID, theta)


def test_natural_param_examples():
    p = natural_param(EUCLID, 0.0)
    assert p.coords == (1.0, 0.0)
    q = natural_param(SQUARE, math.pi / 4)
    assert q.x == pytest.approx(1.0, abs=1e-12) and q.y == pytest.approx(1.0, abs=1e-12)
    r = natural_param(QUAD14, math.pi / 2)
    assert r.coords[1] == pytest.approx(0.5, abs=1e-12)
    assert natural_param(EUCLID, -0.5).theta == pytest.approx(TWO_PI - 0.5)


def test_unit_point_is_a_slotted_value():
    """Equal theta and coords make equal points with equal hashes; the repr, by which
    tools/ab_interleave.py compares library values, keeps its form; x, y and coords
    agree, and there is no __dict__."""
    p, q = UnitPoint(0.5, (0.6, 0.8)), natural_param(EUCLID, 0.5)
    assert UnitPoint(q.theta, q.coords) == q and hash(UnitPoint(q.theta, q.coords)) == hash(q)
    assert p != UnitPoint(0.5, (0.6, -0.8)) and p != (0.5, (0.6, 0.8))
    assert len({p, UnitPoint(0.5, (0.6, 0.8)), q}) == 2
    assert repr(p) == "UnitPoint(theta=0.5, coords=(0.6, 0.8))"
    assert (q.x, q.y) == q.coords == (math.cos(0.5), math.sin(0.5))
    n = q.negated()
    assert n.coords == (-q.x, -q.y) and n.theta == pytest.approx(0.5 + math.pi)
    assert n.negated().coords == q.coords
    assert not hasattr(p, "__dict__")
    with pytest.raises(AttributeError):
        p.z = 1.0


def _decimal_quad_gauges(a, b, c, x, y):
    """The form's gauge sqrt(ax^2 + bxy + cy^2) and its dual, the inverse form
    sqrt((cx^2 - bxy + ay^2)/(ac - b^2/4)), at 60 digits from the very floats given."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        a, b, c, x, y = (Decimal(v) for v in (a, b, c, x, y))
        return ((a * x * x + b * x * y + c * y * y).sqrt(),
                ((c * x * x - b * x * y + a * y * y) / (a * c - b * b / 4)).sqrt())


def test_quad_gauge_matches_a_decimal_reference_on_thin_forms():
    """The frame's d = sqrt(det Q) comes from det4 = (4ac - b^2)/s^2 taken exactly.
    Forms with eigenvalue ratio up to 1e12, in random orientations and scales, at 16
    directions including both axes: the worst relative errors measured here, of the
    gauge and of its dual, are 2.9e-11, and 3.8e-15 where the ratio is below 1e4.
    With det4 in floats, which cancels, they were 4.0e-6 and 8.8e-14."""
    rng = random.Random(12)
    for _ in range(120):
        ratio = 10.0 ** rng.uniform(0.0, 12.0)
        phi, scale = rng.uniform(0.0, math.pi), 10.0 ** rng.uniform(-3.0, 3.0)
        cs, sn = math.cos(phi), math.sin(phi)
        a = scale * (cs * cs + ratio * sn * sn)
        b = 2.0 * scale * (1.0 - ratio) * cs * sn
        c = scale * (sn * sn + ratio * cs * cs)
        spec = NormSpec.quadratic(a, b, c)
        bound = 1e-14 if ratio < 1e4 else 1e-10
        for t in [phi + j * math.pi / 8.0 for j in range(16)]:
            x, y = math.cos(t), math.sin(t)
            for s, want in zip((spec, spec.dual), _decimal_quad_gauges(a, b, c, x, y)):
                assert float(abs(Decimal(s.value(x, y)) - want) / want) <= bound, (a, b, c, t)


@given(ux=coords, uy=coords, vx=coords, vy=coords)
@settings(max_examples=200, deadline=None)
def test_wedge_antisymmetry(ux, uy, vx, vy):
    assert wedge((ux, uy), (vx, vy)) == -wedge((vx, vy), (ux, uy))


def test_wedge_and_precedes_examples():
    assert wedge((1, 0), (0, 1)) == 1.0
    assert wedge((1, 0), (1, 0)) == 0.0
    assert wedge((2, 1), (3, 4)) == 5.0
    assert wedge((0, 1), (1, 0)) < 0.0
    assert wedge((1, 0), (-1, 1e-3)) > 0.0


@pytest.mark.parametrize("spec,u,v,expected", [
    (EUCLID, (1, 0), (0, 1), True),
    (SQUARE, (1, 0), (0, 1), True),
    (EUCLID, (1, 0), (1, 1), False),
    (QUAD14, (1, 0), (0, 1), True),
    (QUAD14, (1, 0), (1, 1), False),
])
def test_birkhoff_predicate(spec, u, v, expected):
    assert is_birkhoff_orthogonal(spec, u, v) is expected
    # cross-check against the dense-grid oracle
    best = grid_min_along(spec, u, v)
    assert (best >= spec.value(*u) - 1e-6) is expected


FUZZ_SPECS = [EUCLID, QUAD213, QUAD14, NormSpec.parse("quad:1,0,1e-12"),
              NormSpec.parse("quad:4e307,1e307,1e307"), NormSpec.parse("quad:1e-300,0,1e-300"),
              NormSpec.lp(1.1), NormSpec.lp(1.5), LP4, NormSpec.lp(16), NormSpec.lp(1),
              SQUARE, SKEWED_HEXAGON, POLY14]


def _near_orthogonal_pairs(spec, rng, count):
    """(u, v) pairs: u on the unit circle, v a support direction at u (each facet's
    at a polygon corner) turned by 1e-14 to 1e-3 either way, with N(v) from 1e-3
    to 1e3, and one random unit direction per u."""
    thetas = list(rng.uniform(0.0, TWO_PI, count)) + list(spec.corner_angles) * 5
    for theta in thetas:
        u = natural_param(spec, theta)
        if spec.smooth:
            gx, gy = spec.grad(u.x, u.y)
            dirs = [(-gy, gx)]
        else:
            levels = [nx * u.x + ny * u.y for nx, ny in spec.normals]
            dirs = [(-ny, nx) for (nx, ny), level in zip(spec.normals, levels)
                    if level >= max(levels) - 1e-12]
        for dx, dy in dirs:
            for _ in range(2):
                turn = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-14.0, -3.0))
                c, s = math.cos(turn), math.sin(turn)
                scale = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0))
                scale /= spec.value(dx, dy)
                yield u.coords, (scale * (c * dx - s * dy), scale * (s * dx + c * dy))
        w = natural_param(spec, rng.uniform(0.0, TWO_PI))
        yield u.coords, w.coords


@pytest.mark.parametrize("spec", FUZZ_SPECS, ids=spec_ids(FUZZ_SPECS))
def test_closed_form_predicate_matches_the_line_minimum(spec, rng):
    """The closed form flips no verdict of the line-minimum predicate, across the
    verdict boundary: 2 in 3 pairs straddle it, at turns from 1e-14 to 1e-3."""
    verdicts = []
    for u, v in _near_orthogonal_pairs(spec, rng, 400):
        got = is_birkhoff_orthogonal(spec, u, v)
        assert got is line_min_orthogonal(spec, u, v), (u, v)
        verdicts.append(got)
    assert 0 < sum(verdicts) < len(verdicts)


def test_birkhoff_zero_vector_rejected():
    with pytest.raises(DomainError):
        is_birkhoff_orthogonal(EUCLID, (0, 0), (1, 0))
    with pytest.raises(DomainError):
        is_birkhoff_orthogonal(EUCLID, (1, 0), (0, 0))


def test_birkhoff_successor_euclid():
    s = birkhoff_successor(EUCLID, (1, 0))
    assert s.coords[0] == pytest.approx(0.0, abs=1e-12)
    assert s.coords[1] == pytest.approx(1.0, abs=1e-12)


def test_birkhoff_successor_quad_and_lp():
    # gradient of x^2 + 4y^2 at (1,0) is horizontal, so the tangent is vertical
    s = birkhoff_successor(QUAD14, (1, 0))
    assert s.x == pytest.approx(0.0, abs=1e-12)
    assert s.y == pytest.approx(0.5, abs=1e-12)
    assert grid_min_along(QUAD14, (1, 0), s.coords) >= 1.0 - 1e-9

    s4 = birkhoff_successor(LP4, (1, 0))
    assert s4.x == pytest.approx(0.0, abs=1e-12)
    assert s4.y == pytest.approx(1.0, abs=1e-12)
    assert grid_min_along(LP4, (1, 0), s4.coords) >= 1.0 - 1e-9


def test_birkhoff_successor_unsupported_specs():
    with pytest.raises(UnsupportedSpecError):
        birkhoff_successor(SQUARE, (1, 0))
    with pytest.raises(UnsupportedSpecError):
        birkhoff_successor(NormSpec.lp(1), (1, 0))


@pytest.mark.parametrize("spec", SMOOTH_SPECS, ids=spec_ids(SMOOTH_SPECS))
def test_successor_is_order_preserving(spec):
    thetas = np.linspace(0.05, 0.05 + math.pi - 0.1, 40)
    succ = [birkhoff_successor(spec, natural_param(spec, t)) for t in thetas]
    for a, b in zip(succ, succ[1:]):
        assert wedge(a, b) > 0.0


@pytest.mark.parametrize("spec", SMOOTH_SPECS, ids=spec_ids(SMOOTH_SPECS))
def test_successor_matches_bisection_oracle(spec, rng):
    thetas = list(rng.uniform(0.0, TWO_PI, 16)) + [k * math.pi / 4 for k in range(8)]
    for theta in thetas:
        u = natural_param(spec, theta)
        got = birkhoff_successor(spec, u)
        want = bisection_successor(spec, u)
        assert max(abs(got.x - want.x), abs(got.y - want.y)) <= 1e-14, theta


@pytest.mark.parametrize("spec", SMOOTH_SPECS, ids=spec_ids(SMOOTH_SPECS))
def test_successor_satisfies_predicate(spec):
    for theta in np.linspace(0.0, TWO_PI, 17):
        u = natural_param(spec, theta)
        assert is_birkhoff_orthogonal(spec, u, birkhoff_successor(spec, u))


def _tangent(spec, theta, h):
    """Centered difference of s at theta against the Birkhoff successor of s(theta).

    On a smooth gauge s'(theta) is parallel to the successor.  Returns the
    difference, the successor, the Euclidean length of the difference's
    component orthogonal to the successor, and p with s'(theta) ~ p * successor.
    """
    sp, sm = natural_param(spec, theta + h), natural_param(spec, theta - h)
    fx, fy = (sp.x - sm.x) / (2.0 * h), (sp.y - sm.y) / (2.0 * h)
    tx, ty = birkhoff_successor(spec, natural_param(spec, theta)).coords
    tlen2 = tx * tx + ty * ty
    return ((fx, fy), (tx, ty), abs(fx * ty - fy * tx) / math.sqrt(tlen2),
            (fx * tx + fy * ty) / tlen2)


def test_tangent_check_euclid():
    _, _, residual, p = _tangent(EUCLID, 0.0, 1e-4)
    assert residual <= 1e-7
    assert p == pytest.approx(1.0, abs=1e-7)


def test_tangent_check_quad_against_analytic_derivative():
    # chain-rule derivative of theta -> (cos,sin)/sqrt(Q(cos,sin))
    a, b, c = 1.0, 0.0, 4.0
    theta = math.pi / 4
    ct, st_ = math.cos(theta), math.sin(theta)
    r = math.sqrt(a * ct * ct + b * ct * st_ + c * st_ * st_)
    dr = (-(2 * a * ct + b * st_) * st_ + (b * ct + 2 * c * st_) * ct) / (2 * r)
    sx = -st_ / r - ct * dr / (r * r)
    sy = ct / r - st_ * dr / (r * r)
    fd, _, residual, _ = _tangent(QUAD14, theta, 1e-4)
    assert fd[0] == pytest.approx(sx, abs=1e-7)
    assert fd[1] == pytest.approx(sy, abs=1e-7)
    assert residual <= 1e-6


def test_tangent_check_lp4_implicit_differentiation():
    # on x^4 + y^4 = 1 the tangent at (x, y) is along (-y^3, x^3)
    theta = math.pi / 6
    u = natural_param(LP4, theta)
    tx, ty = -u.y ** 3, u.x ** 3
    fd, _, residual, _ = _tangent(LP4, theta, 1e-4)
    cross = fd[0] * ty - fd[1] * tx
    assert abs(cross) / math.hypot(tx, ty) <= 1e-6
    assert residual <= 1e-6


def test_tangent_error_decays_second_order():
    """Full tangent-vector error against the exact p = 1 on the round circle.

    The orthogonal component alone is exactly parallel there, so the rate
    is measured on |fd - s_perp|, whose leading term is h^2/6.
    """
    theta = 0.7

    def dev(h):
        fd, perp, _, _ = _tangent(EUCLID, theta, h)
        return math.hypot(fd[0] - perp[0], fd[1] - perp[1])

    ratio = dev(1e-3) / dev(5e-4)
    assert 3.5 <= ratio <= 4.5


@pytest.mark.parametrize("spec", [QUAD14, LP4], ids=["quad:1,0,4", "lp:4"])
def test_collinearity_residual_shrinks_with_h(spec):
    r1 = _tangent(spec, 1.1, 2e-3)[2]
    r2 = _tangent(spec, 1.1, 1e-3)[2]
    assert r2 < r1
    assert 2.5 <= r1 / r2 <= 5.5  # second-order band, loose for fp noise


def test_p_estimate_positive_on_smooth_specs():
    for spec in SMOOTH_SPECS:
        for theta in (0.0, 0.9, 2.3, 4.4):
            assert _tangent(spec, theta, 1e-4)[3] > 0.0
