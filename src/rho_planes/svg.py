"""Deterministic SVG rendering of unit circles, orbits, and conics.

Fixed 800x800 canvas over the world viewport [-1.3, 1.3]^2; curves are
drawn as 512-point polylines and vertices as circles of world radius
0.012.  Layers stack in the fixed order sphere < homothet < ellipse <
polygon < labels, and identical scenes render to identical bytes.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .conics import ConicForm, conic_radius
from .errors import DomainError
from .norms import NormSpec, unit_points

CANVAS = 800
VIEW_HALF = 1.3
CURVE_POINTS = 512
VERTEX_RADIUS = 0.012
LABEL_SIZE = 18

_LAYER_ORDER = {"sphere": 0, "homothet": 1, "ellipse": 2, "polygon": 3, "labels": 4}

_SCALE = CANVAS / (2.0 * VIEW_HALF)


@dataclass(frozen=True)
class Curve:
    layer: str
    points: list[tuple[float, float]]
    closed: bool = True
    stroke: str = "#000000"
    width: float = 1.5
    dash: str | None = None


@dataclass(frozen=True)
class Markers:
    layer: str
    points: list[tuple[float, float]]
    fill: str = "#000000"


@dataclass(frozen=True)
class Labels:
    items: list[tuple[float, float, str]]
    fill: str = "#000000"


@dataclass
class Scene:
    curves: list[Curve] = field(default_factory=list)
    markers: list[Markers] = field(default_factory=list)
    labels: list[Labels] = field(default_factory=list)


def _px(x: float, y: float) -> tuple[float, float]:
    return (x + VIEW_HALF) * _SCALE, (VIEW_HALF - y) * _SCALE


def circle_points(spec: NormSpec, scale: float = 1.0) -> list[tuple[float, float]]:
    thetas = np.linspace(0.0, 2.0 * math.pi, CURVE_POINTS, endpoint=False)
    x, y = unit_points(spec, thetas)
    return [(scale * float(a), scale * float(b)) for a, b in zip(x, y)]


def conic_points(conic: ConicForm) -> list[tuple[float, float]]:
    pts = []
    for i in range(CURVE_POINTS):
        theta = 2.0 * math.pi * i / CURVE_POINTS
        r = conic_radius(conic, theta)
        pts.append((r * math.cos(theta), r * math.sin(theta)))
    return pts


def _poly_attr(points, closed) -> str:
    coords = " ".join(f"{_px(x, y)[0]:.3f},{_px(x, y)[1]:.3f}" for x, y in points)
    return coords, "polygon" if closed else "polyline"


def render_svg(scene: Scene, comment: str | None = None) -> str:
    """Render a scene to an SVG document string (bytes are config-determined)."""
    for curve in scene.curves:
        for x, y in curve.points:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise DomainError("non-finite curve coordinate")
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS}" height="{CANVAS}" '
        f'viewBox="0 0 {CANVAS} {CANVAS}">',
    ]
    if comment is not None:
        lines.append(f"<!-- config: {comment} -->")
    lines.append(f'<rect width="{CANVAS}" height="{CANVAS}" fill="#ffffff"/>')

    drawables: list[tuple[int, int, str]] = []
    seq = 0
    for curve in scene.curves:
        coords, tag = _poly_attr(curve.points, curve.closed)
        dash = f' stroke-dasharray="{curve.dash}"' if curve.dash else ""
        drawables.append((_LAYER_ORDER[curve.layer], seq,
                          f'<{tag} points="{coords}" fill="none" '
                          f'stroke="{curve.stroke}" stroke-width="{curve.width}"{dash}/>'))
        seq += 1
    r = VERTEX_RADIUS * _SCALE
    for marks in scene.markers:
        for x, y in marks.points:
            px, py = _px(x, y)
            drawables.append((_LAYER_ORDER[marks.layer], seq,
                              f'<circle cx="{px:.3f}" cy="{py:.3f}" r="{r:.3f}" '
                              f'fill="{marks.fill}"/>'))
            seq += 1
    for labels in scene.labels:
        for x, y, text in labels.items:
            px, py = _px(x, y)
            drawables.append((_LAYER_ORDER["labels"], seq,
                              f'<text x="{px:.3f}" y="{py:.3f}" font-family="sans-serif" '
                              f'font-size="{LABEL_SIZE}" fill="{labels.fill}">{text}</text>'))
            seq += 1

    drawables.sort(key=lambda d: (d[0], d[1]))
    lines.extend(d[2] for d in drawables)
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def sphere_scene(spec: NormSpec, rho: float | None = None) -> Scene:
    """Unit circle, optionally with its rho-homothet."""
    scene = Scene()
    scene.curves.append(Curve("sphere", circle_points(spec), stroke="#000000", width=2.0))
    if rho is not None:
        scene.curves.append(Curve("homothet", circle_points(spec, scale=rho),
                                  stroke="#888888", width=1.2, dash="6,4"))
    return scene


def add_polygon_layer(scene: Scene, vertices: list[tuple[float, float]],
                      closed: bool) -> None:
    scene.curves.append(Curve("polygon", list(vertices), closed=closed,
                              stroke="#c22222", width=1.6))
    scene.markers.append(Markers("polygon", list(vertices), fill="#c22222"))


def add_ellipse_layer(scene: Scene, conic: ConicForm) -> None:
    scene.curves.append(Curve("ellipse", conic_points(conic),
                              stroke="#2040c0", width=1.4, dash="2,3"))


def add_marked_points(scene: Scene, points: list[tuple[float, float, str]]) -> None:
    scene.markers.append(Markers("polygon", [(x, y) for x, y, _ in points],
                                 fill="#106010"))
    scene.labels.append(Labels([(x + 0.03, y + 0.03, t) for x, y, t in points],
                               fill="#106010"))
