"""Deterministic SVG rendering of the paper's two figures.

Fixed 800x800 canvas over the world viewport [-1.3, 1.3]^2; curves are
drawn as 512-point polylines and vertices as circles of world radius
0.012.  `render_svg` draws one figure per call, and identical arguments
render to identical bytes.
"""

import math

import numpy as np

from .conics import ConicForm
from .errors import DomainError
from .norms import NormSpec, unit_points

CANVAS = 800
VIEW_HALF = 1.3
CURVE_POINTS = 512
VERTEX_RADIUS = 0.012
LABEL_SIZE = 18

_SCALE = CANVAS / (2.0 * VIEW_HALF)


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
    """The `points` attribute (pixels to three decimals) and tag of the curve
    through world points."""
    px = _pixels(points)
    coords = " ".join(["%.3f,%.3f"] * len(px)) % tuple(px.ravel().tolist())
    return coords, "polygon" if closed else "polyline"


def render_svg(spec: NormSpec, rho: float, comment: str, orbit=None, closed: bool = False,
               conic: ConicForm | None = None, marks=()) -> str:
    """One figure as an SVG document string.

    Draws the unit circle of spec and its rho-homothet, then, each when
    given, the supporting conic, the orbit through the (x, y) vertices (a
    polygon when closed) with a marker on each, and the (x, y, text) marks
    with their labels.  comment is the JSON config written into the
    document; a `--` in it, which XML forbids in a comment, is written
    `-\\u002d`, which JSON reads back as `--`.
    """
    sphere = circle_points(spec)
    curves = [(sphere, True, 'stroke="#000000" stroke-width="2.0"'),
              (rho * sphere, True, 'stroke="#888888" stroke-width="1.2" stroke-dasharray="6,4"')]
    if conic is not None:
        curves.append((conic_points(conic), True,
                       'stroke="#2040c0" stroke-width="1.4" stroke-dasharray="2,3"'))
    if orbit is not None:
        curves.append((orbit, closed, 'stroke="#c22222" stroke-width="1.6"'))
    xy = np.array([(x, y) for x, y, _ in marks], dtype=float)
    layers = [_poly_attr(points, is_closed) for points, is_closed, _ in curves]
    marked = _poly_attr(xy, False)[0]
    # each layer's pixels are computed and formatted once, and the markers are
    # read back from that text; a pixel that is not finite formats as inf or nan
    if any("n" in coords for coords in [c for c, _ in layers] + [marked]):
        raise DomainError("non-finite curve coordinate")

    comment = comment.replace("--", "-\\u002d")
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS}" height="{CANVAS}" '
             f'viewBox="0 0 {CANVAS} {CANVAS}">',
             f"<!-- config: {comment} -->",
             f'<rect width="{CANVAS}" height="{CANVAS}" fill="#ffffff"/>']
    lines += [f'<{tag} points="{coords}" fill="none" {style}/>'
              for (coords, tag), (_, _, style) in zip(layers, curves)]
    r = VERTEX_RADIUS * _SCALE
    dots = [(layers[-1][0], "#c22222")] if orbit is not None else []
    for coords, fill in dots + [(marked, "#106010")]:
        lines += [f'<circle cx="{x}" cy="{y}" r="{r:.3f}" fill="{fill}"/>'
                  for x, _, y in (pair.partition(",") for pair in coords.split())]
    lines += [f'<text x="{x:.3f}" y="{y:.3f}" font-family="sans-serif" '
              f'font-size="{LABEL_SIZE}" fill="#106010">{text}</text>'
              for (x, y), (_, _, text) in zip(_pixels(xy + 0.03).tolist(), marks)]
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
