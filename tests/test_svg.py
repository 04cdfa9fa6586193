"""SVG scene building and deterministic rendering."""

import math

import pytest

from rho_planes.conics import ConicForm
from rho_planes.errors import DomainError
from rho_planes.svg import (Curve, Scene, add_ellipse_layer, add_polygon_layer,
                            circle_points, render_svg, sphere_scene)

from conftest import EUCLID, SQUARE


def test_single_circle_layer():
    scene = Scene(curves=[Curve("sphere", circle_points(EUCLID))])
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
    scene = Scene(curves=[Curve("sphere", [(0.0, math.inf), (1.0, 0.0)])])
    with pytest.raises(DomainError):
        render_svg(scene)


def test_comment_embedded():
    text = render_svg(sphere_scene(EUCLID), comment='{"spec":"euclid"}')
    assert '<!-- config: {"spec":"euclid"} -->' in text
