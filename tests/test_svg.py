"""Deterministic rendering of the two figures."""

import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rho_planes import NormSpec
from rho_planes.conics import ConicForm
from rho_planes.errors import DomainError
from rho_planes.svg import _SCALE, VIEW_HALF, _poly_attr, conic_points, render_svg

from conftest import (ALL_SPECS, EUCLID, SQUARE, per_point_conic, per_point_coords,
                      scaled_circle, spec_ids)

SVG_NS = "{http://www.w3.org/2000/svg}"


def _curve_attr(text, stroke):
    """The `points` attribute of the one curve drawn with this stroke."""
    (curve,) = [el for el in ET.fromstring(text)
                if el.tag in (SVG_NS + "polygon", SVG_NS + "polyline")
                and el.get("stroke") == stroke]
    return curve.get("points")


def test_single_circle_layer():
    text = render_svg(EUCLID, 0.5, "{}")
    assert text.startswith("<svg ")
    assert text.count("<polygon") == 2  # the unit circle and its homothet
    assert text.rstrip().endswith("</svg>")
    # 512 sample points on the closed curve
    assert len(_curve_attr(text, "#000000").split()) == 512


def test_layer_order_is_fixed():
    text = render_svg(SQUARE, 0.5, "{}", orbit=[(1, 0), (0, 1), (-1, 0), (0, -1)], closed=True,
                      conic=ConicForm(1.0, -1.0, 1.0, 1.0), marks=[(0.5, 0.5, "w")])
    order = [text.index(item) for item in
             ('stroke="#000000"', 'stroke="#888888"', 'stroke="#2040c0"',
              'stroke="#c22222"', 'fill="#c22222"', 'fill="#106010"', "<text")]
    # sphere < homothet < conic < orbit < its markers < marks < labels
    assert order == sorted(order)
    assert text.count('fill="#c22222"') == 4 and text.count("<text") == 1


def test_render_is_deterministic():
    args = (EUCLID, 0.7, "x")
    kwargs = {"orbit": [(1.0, 0.0), (0.0, 1.0)], "marks": [(0.1, 0.2, "u")]}
    assert render_svg(*args, **kwargs) == render_svg(*args, **kwargs)


def test_non_finite_geometry_rejected():
    # an infinite coordinate, and a finite vertex whose pixel overflows
    for points in ([(0.0, math.inf), (1.0, 0.0)], [(1e308, 0.0), (0.0, 1.0)]):
        marks = [(x, y, "p") for x, y in points]
        for kwargs in ({"orbit": points}, {"orbit": points, "closed": True}, {"marks": marks}):
            with pytest.raises(DomainError, match="non-finite curve coordinate"):
                render_svg(EUCLID, 0.5, "{}", **kwargs)


def test_nan_geometry_rejected():
    points = [(1.0, 0.0), (math.nan, 0.5)]
    for kwargs in ({"orbit": points}, {"marks": [(x, y, "p") for x, y in points]}):
        with pytest.raises(DomainError, match="non-finite curve coordinate"):
            render_svg(EUCLID, 0.5, "{}", **kwargs)


def test_comment_embedded():
    text = render_svg(EUCLID, 0.5, '{"spec":"euclid"}')
    assert '<!-- config: {"spec":"euclid"} -->' in text


def test_comment_with_double_hyphen_stays_well_formed_xml():
    """XML forbids `--` in a comment; JSON reads the escaped form back unchanged."""
    for value in ("orbit--a.json", "a---b", "--", "x\\--y"):
        blob = json.dumps({"from_json": value}, separators=(",", ":"))
        text = render_svg(EUCLID, 0.5, blob)
        ET.fromstring(text)
        head = "<!-- config: "
        start = text.index(head) + len(head)
        comment = text[start:text.index(" -->", start)]
        assert "--" not in comment
        assert json.loads(comment) == {"from_json": value}
    # a comment without `--` is written as it is
    assert "<!-- config: {\"a\":-1} -->" in render_svg(EUCLID, 0.5, '{"a":-1}')


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
        text = render_svg(spec, rho, "{}")
        assert _curve_attr(text, "#000000") == per_point_coords(scaled_circle(spec, 1.0))
        assert _curve_attr(text, "#888888") == per_point_coords(scaled_circle(spec, rho))
