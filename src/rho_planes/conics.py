"""Origin-centered conics through supporting-chord triples.

For a unit point u with star image u*, the supporting conic is the unique
origin-centered ellipse through u, (u + u*)/(2*rho), and u*.  Fitting is a
3x3 linear solve; tangency of the conic against the unit circle is
expressed through Birkhoff orthogonality to the conic's tangent direction.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .chords import star_map
from .norms import (ORTHO_TOL, NormSpec, as_unit_point, birkhoff_orthogonality_defect,
                    is_birkhoff_orthogonal, _xy)


@dataclass(frozen=True)
class ConicForm:
    """Coefficients of a*x^2 + b*xy + c*y^2 = 1, positive definite."""

    a: float
    b: float
    c: float
    cond: float  # infinity-norm condition number of the fitting system


def conic_eval(conic: ConicForm, v) -> float:
    """Quadratic form value; equals 1 exactly on the conic."""
    x, y = _xy(v)
    return conic.a * x * x + conic.b * x * y + conic.c * y * y


def conic_tangent_dir(conic: ConicForm, v) -> tuple[float, float]:
    """Tangent direction of the conic at a point on it (gradient rotated)."""
    x, y = _xy(v)
    gx = 2.0 * conic.a * x + conic.b * y
    gy = conic.b * x + 2.0 * conic.c * y
    return -gy, gx


def _solve3(rows, rhs):
    """Solve the 3x3 fitting system.

    Returns (solution, infinity-norm condition number); raises
    GeometryError on a singular system.
    """
    m = np.array(rows, dtype=float)
    try:
        sol = np.linalg.solve(m, np.array(rhs, dtype=float))
    except np.linalg.LinAlgError:
        raise GeometryError("degenerate configuration: fitting system is singular") from None
    return [float(v) for v in sol], float(np.linalg.cond(m, np.inf))


def fit_rho_ellipse(u, u_star, rho: float) -> ConicForm:
    """Origin-centered conic through u, (u + u*)/(2*rho), and u*.

    Solves a*x_i^2 + b*x_i*y_i + c*y_i^2 = 1 over the three points; the
    result must be an ellipse (positive definite), otherwise the inputs
    are geometrically inconsistent.
    """
    ux, uy = _xy(u)
    vx, vy = _xy(u_star)
    wx, wy = (ux + vx) / (2.0 * rho), (uy + vy) / (2.0 * rho)
    rows = [(x * x, x * y, y * y) for x, y in ((ux, uy), (wx, wy), (vx, vy))]
    (a, b, c), cond = _solve3(rows, (1.0, 1.0, 1.0))
    if not (a > 0.0 and 4.0 * a * c - b * b > 0.0):
        raise GeometryError(
            f"fitted conic ({a}, {b}, {c}) is not an ellipse; inconsistent inputs")
    return ConicForm(a, b, c, cond)


def _star_tangency_defect(spec: NormSpec, u, rho: float) -> float:
    """Birkhoff defect of u against (1 - 2*rho^2)*u + u*."""
    up = as_unit_point(spec, u)
    st = star_map(spec, up, rho)
    coef = 1.0 - 2.0 * rho * rho
    return birkhoff_orthogonality_defect(spec, up, (coef * up.x + st.x, coef * up.y + st.y))


def tangency_star(spec: NormSpec, u, rho: float) -> bool:
    """Whether u is Birkhoff-orthogonal to (1 - 2*rho^2)*u + u*.

    This is the supporting-line condition for the fitted conic and the
    unit circle to be tangent at u.  When rho^2 = 1/2 the direction
    degenerates to u* itself, which stays well defined.
    """
    return _star_tangency_defect(spec, u, rho) <= ORTHO_TOL


def tangency_dstar(spec: NormSpec, u, rho: float) -> bool:
    """Whether u* is Birkhoff-orthogonal to -u - (1 - 2*rho^2)*u*.

    The mirrored supporting-line condition: tangency of the fitted conic
    and the unit circle at u*.
    """
    up = as_unit_point(spec, u)
    st = star_map(spec, up, rho)
    coef = 1.0 - 2.0 * rho * rho
    d = (-up.x - coef * st.x, -up.y - coef * st.y)
    return is_birkhoff_orthogonal(spec, st, d)


def conic_radius(conic: ConicForm, theta: float) -> float:
    """Distance from the origin to the conic along direction theta."""
    c, s = math.cos(theta), math.sin(theta)
    q = conic.a * c * c + conic.b * c * s + conic.c * s * s
    return 1.0 / math.sqrt(q)
