"""Norm gauges, the unit-circle parametrization, and Birkhoff machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rho_planes import (ConfigurationError, DomainError, NormSpec,
                        UnsupportedSpecError, birkhoff_successor,
                        is_birkhoff_orthogonal, natural_param, wedge)

from conftest import (ALL_SPECS, DIAMOND, EUCLID, IPS_SPECS, LP4, QUAD14,
                      SMOOTH_SPECS, SQUARE, bisection_successor, grid_min_along,
                      spec_ids)

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


def test_parse_roundtrip():
    for text in ("euclid", "lp:4", "quad:1,0,4", "poly:1,1;-1,1;-1,-1;1,-1"):
        spec = NormSpec.parse(text)
        again = NormSpec.parse(spec.spec_id)
        assert again.spec_id == spec.spec_id
    with pytest.raises(ConfigurationError):
        NormSpec.parse("linf")
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


POLY14 = NormSpec.polygon([(1.3 * math.cos(a), math.sin(a))
                           for a in (k * math.pi / 7 + 0.05 * (k % 3) for k in range(7))])


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
