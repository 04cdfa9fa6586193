"""Deterministic SVG rendering of unit circles, orbits, and conics.

Fixed 800x800 canvas over the world viewport [-1.3, 1.3]^2; curves are
drawn as 512-point polylines and vertices as circles of world radius
0.012.  Layers stack in the fixed order sphere < homothet < ellipse <
polygon < labels, and identical scenes render to identical bytes.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .conics import ConicForm
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
    points: np.ndarray  # (n, 2) world coordinates
    closed: bool = True
    stroke: str = "#000000"
    width: float = 1.5
    dash: str | None = None


@dataclass(frozen=True)
class Markers:
    layer: str
    points: np.ndarray  # (n, 2) world coordinates
    fill: str = "#000000"


@dataclass(frozen=True)
class Labels:
    points: np.ndarray  # (n, 2) world coordinates where each text starts
    texts: list[str]
    fill: str = "#000000"


@dataclass
class Scene:
    curves: list[Curve] = field(default_factory=list)
    markers: list[Markers] = field(default_factory=list)
    labels: list[Labels] = field(default_factory=list)


def _pixels(points) -> np.ndarray:
    """World (n, 2) points to canvas pixels, y pointing down."""
    p = np.asarray(points, dtype=float).reshape(-1, 2)
    with np.errstate(over="ignore"):  # an overflowing pixel is inf, as in Python floats
        return np.column_stack(((p[:, 0] + VIEW_HALF) * _SCALE, (VIEW_HALF - p[:, 1]) * _SCALE))


def circle_points(spec: NormSpec) -> np.ndarray:
    thetas = np.linspace(0.0, 2.0 * math.pi, CURVE_POINTS, endpoint=False)
    return np.column_stack(unit_points(spec, thetas))


def conic_points(conic: ConicForm) -> np.ndarray:
    """The conic's radius along the curve angles, in the operation order of
    the per-point test oracle `per_point_conic` (tests/conftest.py)."""
    theta = 2.0 * math.pi * np.arange(CURVE_POINTS) / CURVE_POINTS
    c, s = np.cos(theta), np.sin(theta)
    r = 1.0 / np.sqrt(conic.a * c * c + conic.b * c * s + conic.c * s * s)
    return np.column_stack((r * c, r * s))


def _poly_attr(points, closed) -> tuple[str, str]:
    px = _pixels(points)
    coords = " ".join(["%.3f,%.3f"] * len(px)) % tuple(px.ravel().tolist())
    return coords, "polygon" if closed else "polyline"


def render_svg(scene: Scene, comment: str | None = None) -> str:
    """Render a scene to an SVG document string (bytes are config-determined)."""
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
        if not np.isfinite(curve.points).all():
            raise DomainError("non-finite curve coordinate")
        coords, tag = _poly_attr(curve.points, curve.closed)
        dash = f' stroke-dasharray="{curve.dash}"' if curve.dash else ""
        drawables.append((_LAYER_ORDER[curve.layer], seq,
                          f'<{tag} points="{coords}" fill="none" '
                          f'stroke="{curve.stroke}" stroke-width="{curve.width}"{dash}/>'))
        seq += 1
    r = VERTEX_RADIUS * _SCALE
    for marks in scene.markers:
        for px, py in _pixels(marks.points).tolist():
            drawables.append((_LAYER_ORDER[marks.layer], seq,
                              f'<circle cx="{px:.3f}" cy="{py:.3f}" r="{r:.3f}" '
                              f'fill="{marks.fill}"/>'))
            seq += 1
    for labels in scene.labels:
        for (px, py), text in zip(_pixels(labels.points).tolist(), labels.texts):
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
    sphere = circle_points(spec)
    scene.curves.append(Curve("sphere", sphere, stroke="#000000", width=2.0))
    if rho is not None:
        scene.curves.append(Curve("homothet", rho * sphere,
                                  stroke="#888888", width=1.2, dash="6,4"))
    return scene


def add_polygon_layer(scene: Scene, vertices: list[tuple[float, float]],
                      closed: bool) -> None:
    points = np.asarray(vertices, dtype=float)
    scene.curves.append(Curve("polygon", points, closed=closed,
                              stroke="#c22222", width=1.6))
    scene.markers.append(Markers("polygon", points, fill="#c22222"))


def add_ellipse_layer(scene: Scene, conic: ConicForm) -> None:
    scene.curves.append(Curve("ellipse", conic_points(conic),
                              stroke="#2040c0", width=1.4, dash="2,3"))


def add_marked_points(scene: Scene, points: list[tuple[float, float, str]]) -> None:
    xy = np.array([(x, y) for x, y, _ in points], dtype=float)
    scene.markers.append(Markers("polygon", xy, fill="#106010"))
    scene.labels.append(Labels(xy + 0.03, [t for _, _, t in points], fill="#106010"))
