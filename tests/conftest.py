"""Shared specs and independent oracles for the test suite."""

import math

import numpy as np
import pytest

from rho_planes import NormSpec, NumericalError, as_unit_point, natural_param
from rho_planes.chords import ANTIPODAL_GUARD, _poly_chord_min
from rho_planes.solve1d import bisect_predicate

EUCLID = NormSpec.euclidean()
QUAD14 = NormSpec.quadratic(1, 0, 4)
QUAD213 = NormSpec.quadratic(2, 1, 3)
LP4 = NormSpec.lp(4)
LP15 = NormSpec.lp(1.5)
SQUARE = NormSpec.polygon([(1, 1), (-1, 1), (-1, -1), (1, -1)])
DIAMOND = NormSpec.polygon([(1, 0), (0, 1)])

SMOOTH_SPECS = [EUCLID, QUAD14, QUAD213, LP4, LP15]
IPS_SPECS = [EUCLID, QUAD14, QUAD213]
ALL_SPECS = SMOOTH_SPECS + [SQUARE, DIAMOND, NormSpec.lp(1)]


def spec_ids(specs):
    return [s.spec_id for s in specs]


@pytest.fixture
def rng():
    return np.random.default_rng(20240307)


# -- independent oracles -----------------------------------------------------


def grid_min_along(spec, u, d, radius=2.0, n=200001):
    """Brute-force min of ||u + lam*d|| over a dense symmetric lambda grid."""
    lams = np.linspace(-radius, radius, n)
    ux, uy = u
    return float(spec.value_many(ux + lams * d[0], uy + lams * d[1]).min())


def grid_chord_min(spec, u, v, n=200001):
    """Brute-force min of ||(1-t)u + t*v|| over a dense t grid."""
    ts = np.linspace(0.0, 1.0, n)
    x = (1 - ts) * u[0] + ts * v[0]
    y = (1 - ts) * u[1] + ts * v[1]
    vals = spec.value_many(x, y)
    i = int(np.argmin(vals))
    return float(vals[i]), float(ts[i])


def quad_transform(spec):
    """Matrix T with ||w||_quad = |T w|_2, from the Cholesky factor."""
    a, b, c = spec.params["a"], spec.params["b"], spec.params["c"]
    m = np.array([[a, b / 2.0], [b / 2.0, c]])
    return np.linalg.cholesky(m).T


def euclid_star_angle(theta, rho):
    """On the round circle the star map is rotation by 2*arccos(rho)."""
    return theta + 2.0 * math.acos(rho)


def quad_star_oracle(spec, u, rho):
    """Star image of u under a quadratic gauge via the Euclidean substitution."""
    t = quad_transform(spec)
    uh = t @ np.array(u)
    ang = 2.0 * math.acos(rho)
    rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    img = np.linalg.solve(t, rot @ uh)
    return float(img[0]), float(img[1])


def _chord_supports_at_least(spec, ux, uy, vx, vy, rho):
    """Certified test of min_t ||(1-t)u + t*v|| >= rho.

    Regula falsi on the derivative sign that stops as soon as either a gauge
    value below rho is seen (min < rho) or the Lipschitz lower bound over
    the remaining bracket clears rho.
    """
    dx, dy = vx - ux, vy - uy
    value = spec.value
    if spec.normals is not None:
        return _poly_chord_min(spec.normals, ux, uy, dx, dy)[0] >= rho
    dplus = spec.dplus
    d0 = dplus(ux, uy, dx, dy)
    if d0 >= 0.0:
        return value(ux, uy) >= rho
    d1 = spec.dminus(vx, vy, dx, dy)
    if d1 <= 0.0:
        return value(vx, vy) >= rho

    lip = value(dx, dy)
    a, b, fa, fb = 0.0, 1.0, d0, d1
    side = 0
    for _ in range(120):
        denom = fb - fa
        t = 0.5 * (a + b) if denom == 0.0 else b - fb * (b - a) / denom
        if not a < t < b:
            t = 0.5 * (a + b)
        if t <= a or t >= b:
            break
        wx, wy = ux + t * dx, uy + t * dy
        fw = value(wx, wy)
        if fw < rho:
            return False
        if fw - lip * max(t - a, b - t) >= rho:
            return True
        dp = dplus(wx, wy, dx, dy)  # smooth gauge: both one-sided slopes agree
        if dp == 0.0:
            return fw >= rho  # t is itself a minimizer
        if dp < 0.0:
            a, fa = t, dp
            if side == -1:
                fb *= 0.5
            side = -1
        else:
            b, fb = t, dp
            if side == 1:
                fa *= 0.5
            side = 1
        if b - a <= 1e-15:
            return fw >= rho
    tm = 0.5 * (a + b)
    return value(ux + tm * dx, uy + tm * dy) >= rho


def bisection_star_map(spec, u, rho):
    """Star map by bisecting "chord minimum >= rho" over the half-turn after u.

    The truth region is an initial interval of angles because chords from
    u dip monotonically deeper as they open up; its supremum is returned.
    Slow (a chord-minimum search per bisection step), kept as the oracle
    for the tangent-line construction in `rho_planes.chords.star_map`.
    """
    up = as_unit_point(spec, u)
    ux, uy = up.coords

    def supports(phi):
        c, s = math.cos(phi), math.sin(phi)
        n = spec.value(c, s)
        return _chord_supports_at_least(spec, ux, uy, c / n, s / n, rho)

    hi = up.theta + math.pi - ANTIPODAL_GUARD
    if supports(hi):
        raise NumericalError(
            f"star-map bracket failure: chords from theta={up.theta:.6f} "
            f"never dip below rho={rho}")
    lo, _ = bisect_predicate(supports, up.theta, hi)
    if lo == up.theta:
        raise NumericalError("star-map bisection could not leave the seed angle")
    return natural_param(spec, lo)
