"""SVG scene building and deterministic rendering."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rho_planes import NormSpec
from rho_planes.conics import ConicForm
from rho_planes.errors import DomainError
from rho_planes.svg import (_SCALE, VIEW_HALF, Curve, Markers, Scene, _poly_attr,
                            add_ellipse_layer, add_polygon_layer, circle_points, conic_points,
                            render_svg, sphere_scene)

from conftest import (ALL_SPECS, EUCLID, SQUARE, per_point_conic, per_point_coords,
                      scaled_circle, spec_ids)


def test_single_circle_layer():
    scene = Scene(curves=[Curve(circle_points(EUCLID))])
    text = render_svg(scene)
    assert text.startswith("<svg ")
    assert text.count("<polygon") == 1
    assert text.rstrip().endswith("</svg>")
    # 512 sample points on the closed curve
    pts = text.split('points="')[1].split('"')[0].split()
    assert len(pts) == 512


def test_layer_order_is_fixed():
    scene = sphere_scene(SQUARE, rho=0.5)
    add_ellipse_layer(scene, ConicForm(1.0, -1.0, 1.0, 1.0))
    add_polygon_layer(scene, [(1, 0), (0, 1), (-1, 0), (0, -1)], closed=True)
    text = render_svg(scene)
    order = [text.index(color) for color in
             ('stroke="#000000"', 'stroke="#888888"', 'stroke="#2040c0"',
              'stroke="#c22222"')]
    assert order == sorted(order)  # sphere < homothet < ellipse < polygon


def test_render_is_deterministic():
    scene = sphere_scene(EUCLID, rho=0.7)
    assert render_svg(scene, comment="x") == render_svg(scene, comment="x")


def test_non_finite_geometry_rejected():
    # an infinite coordinate, and a finite vertex whose pixel overflows
    for points in ([(0.0, math.inf), (1.0, 0.0)], [(1e308, 0.0), (0.0, 1.0)]):
        for scene in (Scene(curves=[Curve(points)]), Scene(markers=[Markers(points)])):
            with pytest.raises(DomainError):
                render_svg(scene)


def test_nan_geometry_rejected():
    scene = sphere_scene(EUCLID, rho=0.5)
    scene.curves.append(Curve(np.array([[1.0, 0.0], [math.nan, 0.5]])))
    with pytest.raises(DomainError):
        render_svg(scene)


def test_comment_embedded():
    text = render_svg(sphere_scene(EUCLID), comment='{"spec":"euclid"}')
    assert '<!-- config: {"spec":"euclid"} -->' in text


def _on_pixel(target, w, pixel, sign):
    """A float near w with pixel(w) == target exactly; pixel rises with sign * w."""
    for _ in range(16):
        got = pixel(w)
        if got == target:
            return w
        w = float(np.nextafter(w, sign * math.inf if got < target else -sign * math.inf))
    return None


def test_poly_attr_matches_per_point_formatting_on_edge_values(rng):
    # -0.0, the viewport corners, points far outside it and huge magnitudes
    edges = [0.0, -0.0, VIEW_HALF, -VIEW_HALF, 5.0, -7.25, 1e6, -1e12, 1e300, -1e300,
             5e-324, 0.0005 / _SCALE, -0.0005 / _SCALE]
    points = [(x, y) for x in edges for y in edges]
    points += [tuple(p) for p in rng.normal(scale=3.0, size=(200, 2))]
    # pixels exactly on a .0005 boundary: dyadic ties such as 400.0625 and 17.1875
    ties = [k + j / 16 for k in (0, 1, 17, 255, 400, 799, 1000, -3) for j in range(1, 16, 2)]
    xs = [_on_pixel(p, p / _SCALE - VIEW_HALF, lambda x: (x + VIEW_HALF) * _SCALE, 1)
          for p in ties]
    ys = [_on_pixel(p, VIEW_HALF - p / _SCALE, lambda y: (VIEW_HALF - y) * _SCALE, -1)
          for p in ties]
    xs, ys = [x for x in xs if x is not None], [y for y in ys if y is not None]
    assert len(xs) >= 16 and len(ys) >= 16
    points += list(zip(xs, ys)) + [(x, 0.0) for x in xs] + [(0.0, y) for y in ys]
    for closed in (True, False):
        coords, tag = _poly_attr(np.array(points), closed)
        assert coords == per_point_coords(points)
        assert tag == ("polygon" if closed else "polyline")
    assert _poly_attr(np.empty((0, 2)), True) == ("", "polygon")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)),
                min_size=1, max_size=20))
def test_poly_attr_matches_per_point_formatting(points):
    assert _poly_attr(np.array(points), False)[0] == per_point_coords(points)


def test_conic_points_match_per_point_conic_radius(rng):
    conics = [ConicForm(1.0, -1.0, 1.0, 1.0), ConicForm(1.0, 0.0, 1.0, 1.0),
              ConicForm(4.0, 0.0, 0.25, 1.0), ConicForm(1e-6, 0.0, 1e6, 1.0)]
    for a, c in rng.uniform(0.05, 20.0, size=(20, 2)):
        b = rng.uniform(-1.99, 1.99) * math.sqrt(a * c)
        conics.append(ConicForm(float(a), float(b), float(c), 1.0))
    for conic in conics:
        want = per_point_conic(conic)
        got = conic_points(conic)
        assert got.shape == (len(want), 2)
        # same operation order; numpy's cos and sin may round differently from math's
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert _poly_attr(got, True)[0] == per_point_coords(want), conic


@pytest.mark.parametrize("spec", ALL_SPECS + [NormSpec.parse("quad:1e-6,0,1e6")],
                         ids=spec_ids(ALL_SPECS) + ["thin quad"])
def test_homothet_is_the_circle_scaled_point_by_point(spec):
    for rho in (0.05, 1 / 3, math.cos(math.pi / 7), 0.9999999999999999):
        sphere, homothet = sphere_scene(spec, rho).curves
        assert np.array_equal(sphere.points, scaled_circle(spec, 1.0))
        assert np.array_equal(homothet.points, scaled_circle(spec, rho))
        assert _poly_attr(homothet.points, True)[0] == per_point_coords(scaled_circle(spec, rho))
