"""The benchmark's own geometry, written without the library.

Gauges are evaluated from each norm's defining formula, chord minima by
brute-force grids, and the inner-product cases by their closed forms in
Cholesky coordinates: there the star map is a rotation by 2*arccos(rho) and
sector areas are angles divided by sqrt(det Q).
"""

import functools
import math

import numpy as np

TWO_PI = 2.0 * math.pi


@functools.lru_cache(maxsize=64)
def facet_normals(vertices: tuple) -> np.ndarray:
    """Rows n_i with <n_i, v_i> = <n_i, v_{i+1}> = 1 for CCW vertices."""
    out = []
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:] + vertices[:1]):
        a = np.array([[x0, y0], [x1, y1]])
        out.append(np.linalg.solve(a, np.ones(2)))
    return np.array(out)


def gauge(norm, x, y):
    """Gauge of points (x, y); accepts floats or numpy arrays."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if norm.kind == "euclid":
        return np.hypot(x, y)
    if norm.kind == "quad":
        a, b, c = norm.params
        return np.sqrt(a * x * x + b * x * y + c * y * y)
    if norm.kind == "lp":
        p = norm.params[0]
        ax, ay = np.abs(x), np.abs(y)
        if p == 1.0:
            return ax + ay
        m = np.maximum(ax, ay)
        safe = np.where(m == 0.0, 1.0, m)
        return m * ((ax / safe) ** p + (ay / safe) ** p) ** (1.0 / p)
    normals = facet_normals(norm.params)
    return np.max(np.multiply.outer(normals[:, 0], x) + np.multiply.outer(normals[:, 1], y),
                  axis=0)


def chord_min(norm, u, v, points: int = 257, levels: int = 7) -> float:
    """min over t in [0, 1] of the gauge of (1-t)u + t*v, by zooming grids.

    The function is convex, so its minimizer lies between the neighbours of
    the best grid point; seven levels of 257 points shrink the bracket below
    1e-14.
    """
    lo, hi = 0.0, 1.0
    best = math.inf
    for _ in range(levels):
        t = np.linspace(lo, hi, points)
        vals = gauge(norm, u[0] + t * (v[0] - u[0]), u[1] + t * (v[1] - u[1]))
        i = int(np.argmin(vals))
        best = min(best, float(vals[i]))
        lo, hi = t[max(i - 1, 0)], t[min(i + 1, points - 1)]
    return best


def _cholesky_t(norm, dtype=float) -> tuple:
    """(l11, l21, l22) with gauge(w) = |T w| for T = [[l11, l21], [0, l22]].

    T is the transposed Cholesky factor of [[a, b/2], [b/2, c]].
    """
    a, b, c = (dtype(v) for v in (norm.params if norm.kind == "quad" else (1.0, 0.0, 1.0)))
    l11 = np.sqrt(a)
    l21 = b / (2 * l11)
    return l11, l21, np.sqrt(c - l21 * l21)


def ips_star(norm, u, rho: float) -> tuple[float, float]:
    """Star image of u: rotation by 2*arccos(rho) in Cholesky coordinates."""
    l11, l21, l22 = _cholesky_t(norm)
    t = np.array([[l11, l21], [0.0, l22]])
    ang = 2.0 * math.acos(rho)
    rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    img = np.linalg.solve(t, rot @ (t @ np.asarray(u, dtype=float)))
    return float(img[0]), float(img[1])


def ips_sector_area(norm, alpha: float, beta: float) -> float:
    """Exact sector area between angles alpha < beta < alpha + 2*pi.

    Evaluated in extended precision, so the result is correctly rounded to
    within a float64 ulp and can judge errors at the level of a few ulps.
    """
    ld = np.longdouble
    l11, l21, l22 = _cholesky_t(norm, ld)

    def phase(theta):
        x, y = np.cos(ld(theta)), np.sin(ld(theta))
        return np.arctan2(l22 * y, l11 * x + l21 * y)

    sweep = (phase(beta) - phase(alpha)) % (8 * np.arctan(ld(1)))
    return float(sweep / (2 * l11 * l22))


def ips_ball_area(norm) -> float:
    l11, _, l22 = _cholesky_t(norm)
    return math.pi / float(l11 * l22)


def unit_point(norm, theta: float) -> tuple[float, float]:
    c, s = math.cos(theta), math.sin(theta)
    g = float(gauge(norm, c, s))
    return c / g, s / g


def angle_gap(a: float, b: float) -> float:
    """Distance between two angles on the circle."""
    d = (a - b) % TWO_PI
    return min(d, TWO_PI - d)
