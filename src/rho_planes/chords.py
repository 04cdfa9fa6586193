"""Chord minima, the star map, and midpoint diagnostics.

A chord [u, v] of the unit circle carries the convex function
t -> ||(1-t)u + t*v|| on [0, 1].  The star map sends u to the unique
counterclockwise-next unit point u* such that the chord [u, u*] supports
the scaled circle rho*S, i.e. its minimum gauge value equals rho.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateChordError, DomainError, NumericalError
from .norms import (TWO_PI, NormSpec, UnitPoint, as_unit_point,
                    birkhoff_successor, natural_param, perp_points,
                    unit_points, _line_min, _require_smooth)
from .solve1d import illinois_root, illinois_root_many

ANTIPODAL_GUARD = 1e-9


@dataclass(frozen=True)
class ChordReport:
    """A chord with its minimum gauge value and midpoint diagnostics.

    argmin_lo/argmin_hi bound the minimizer set; they coincide for smooth
    (strictly convex) gauges and span the flat piece for polygonal ones.
    """

    u: UnitPoint
    v: UnitPoint
    min_value: float
    argmin_lo: float
    argmin_hi: float
    midpoint_norm: float


@dataclass(frozen=True)
class MidpointReport:
    """A supporting chord [u, v] with v = u* and the gauge of its midpoint.

    |midpoint_norm - rho| is the midpoint-support deviation of this chord.
    """

    u: UnitPoint
    v: UnitPoint
    midpoint_norm: float


@dataclass(frozen=True)
class ChordFrame:
    """The symmetric chord through rho*s(theta) in the tangent direction.

    mu is the positive solution of ||rho*(s + mu*s_perp)|| = 1; for norms
    with the midpoint-support property the mirrored endpoint rho*(s - mu*
    s_perp) lies on the unit circle with the same mu.
    """

    theta: float
    base: UnitPoint
    perp: UnitPoint
    mu: float
    left: tuple[float, float]
    right: tuple[float, float]


def chord_min(spec: NormSpec, u, v) -> ChordReport:
    """Minimum of t -> ||(1-t)u + t*v|| over [0, 1] with its minimizer interval.

    The line minimum of `norms._line_min`: a slope root on smooth gauges,
    the exact facet envelope on polygonal ones.
    """
    up = as_unit_point(spec, u)
    vp = as_unit_point(spec, v)
    if up.coords == vp.coords:  # exact: a fixed tolerance fails on small unit circles
        raise DegenerateChordError("chord endpoints coincide")
    ux, uy = up.coords
    min_value, lo, hi = _line_min(spec, ux, uy, vp.x - ux, vp.y - uy)
    return ChordReport(up, vp, min_value, lo, hi, _midpoint_norm(spec, up, vp))


def _midpoint_norm(spec, up, vp):
    return spec.value(0.5 * (up.x + vp.x), 0.5 * (up.y + vp.y))


def _check_rho(rho: float):
    if not 0.0 < rho < 1.0:
        raise DomainError(f"rho must lie strictly between 0 and 1, got {rho}")


def star_map(spec: NormSpec, u, rho: float) -> UnitPoint:
    """The next unit point whose chord from u supports rho*S.

    The chord [u, u*] supports rho*S exactly when its line is tangent to
    rho*S, so u* is where the counterclockwise tangent line from u to rho*S
    meets S again.  The tangent point p is found from the dual pairing
    <grad N(p), u> = rho, or as a vertex of rho*P for polygonal gauges;
    u* = u + t*(p - u) with t > 1 the exit parameter of that line.
    """
    _check_rho(rho)
    up = as_unit_point(spec, u)
    ux, uy = up.coords
    if spec.normals is not None:
        px, py, t = _poly_tangent_exit(spec.normals, ux, uy, rho)
    else:
        px, py, t = _smooth_tangent_exit(spec, up, rho)
    sx, sy = ux + t * (px - ux), uy + t * (py - uy)
    gap = (math.atan2(sy, sx) - up.theta) % TWO_PI
    if _failed_gap(gap):
        raise NumericalError(_gap_error(up.theta, gap, rho))
    return natural_param(spec, up.theta + gap)


def _failed_gap(gap):
    """Whether u* lies too close to -u, or at u itself, to be resolved."""
    return (gap >= math.pi - ANTIPODAL_GUARD) | (gap == 0.0)


def _gap_error(theta, gap, rho):
    if gap == 0.0:
        return "star map could not leave the seed angle"
    return (f"star-map bracket failure: chords from theta={theta:.6f} "
            f"never dip below rho={rho}")


def star_map_many(spec: NormSpec, thetas, rho: float):
    """`star_map` of the unit points s(thetas), thetas in [0, 2pi), solved as arrays.

    Returns (ux, uy, vx, vy, errors): the seeds u = s(theta), their images
    v = u*, and {index: message} for the seeds on which `star_map` raises
    NumericalError, with its message; their v is not meaningful.  Each seed
    takes the steps `star_map` takes on it, with numpy's elementwise
    functions in place of `math`'s.
    """
    _check_rho(rho)
    thetas = np.asarray(thetas, dtype=float)
    ux, uy = unit_points(spec, thetas)
    if spec.normals is not None:
        px, py, t = _poly_tangent_exit_many(spec.normals, ux, uy, rho)
    else:
        px, py, t = _smooth_tangent_exit_many(spec, thetas, ux, uy, rho)
    sx, sy = ux + t * (px - ux), uy + t * (py - uy)
    gap = np.mod(np.arctan2(sy, sx) - thetas, TWO_PI)
    errors = {int(i): _gap_error(float(thetas[i]), gap[i], rho)
              for i in np.flatnonzero(_failed_gap(gap))}
    vx, vy = unit_points(spec, np.mod(thetas + gap, TWO_PI))
    return ux, uy, vx, vy, errors


def _smooth_tangent_exit(spec, up, rho):
    """Tangent point p = rho*s(phi) and exit parameter t for a smooth gauge.

    The gradient is 0-homogeneous and <grad N(s), s> = 1, so the pairing
    <grad N(s(phi)), u> falls from 1 to -1 over the half-turn after u; the
    tangent point is where it equals rho.  N(u + t*(p - u)) - 1 is convex
    in t, negative at t = 1 and nonnegative at t = 2/N(p - u).
    """
    ux, uy = up.coords
    grad, value = spec.grad, spec.value

    def pairing(phi):
        gx, gy = grad(math.cos(phi), math.sin(phi))
        return rho - (gx * ux + gy * uy)

    phi = illinois_root(pairing, up.theta, up.theta + math.pi, rho - 1.0, rho + 1.0)
    px, py = natural_param(spec, phi).coords
    px, py = rho * px, rho * py
    dx, dy = px - ux, py - uy

    def exit_gap(t):
        return value(ux + t * dx, uy + t * dy) - 1.0

    hi = max(1.0, 2.0 / value(dx, dy))
    return px, py, illinois_root(exit_gap, 1.0, hi, rho - 1.0, exit_gap(hi))


def _poly_tangent_exit(normals, ux, uy, rho):
    """Tangent vertex and exit parameter for a polygonal gauge, in closed form.

    Facets of rho*P visible from u (<n_i, u> >= rho) form a run around the
    facet that supports u; the counterclockwise tangent touches the vertex
    after the last of them.  The strict `<` sends a chord that runs along a
    facet of rho*P to that facet's far vertex.
    """
    m = len(normals)
    k = max(range(m), key=lambda i: normals[i][0] * ux + normals[i][1] * uy)
    for _ in range(m):
        k = (k + 1) % m
        if normals[k][0] * ux + normals[k][1] * uy < rho:
            break
    (ax, ay), (bx, by) = normals[k - 1], normals[k]
    det = ax * by - ay * bx
    px, py = rho * (by - ay) / det, rho * (ax - bx) / det
    dx, dy = px - ux, py - uy
    t = min((1.0 - (nx * ux + ny * uy)) / s
            for nx, ny in normals if (s := nx * dx + ny * dy) > 0.0)
    return px, py, t


def _smooth_tangent_exit_many(spec, thetas, ux, uy, rho):
    """`_smooth_tangent_exit` on arrays of seeds: both roots by `illinois_root_many`."""
    grad_many, value_many = spec.grad_many, spec.value_many

    def pairing(phi, i):
        gx, gy = grad_many(np.cos(phi), np.sin(phi))
        return rho - (gx * ux[i] + gy * uy[i])

    phi = illinois_root_many(pairing, thetas, thetas + math.pi, rho - 1.0, rho + 1.0)
    px, py = unit_points(spec, np.mod(phi, TWO_PI))
    px, py = rho * px, rho * py
    dx, dy = px - ux, py - uy

    def exit_gap(t, i):
        return value_many(ux[i] + t * dx[i], uy[i] + t * dy[i]) - 1.0

    hi = np.maximum(1.0, 2.0 / value_many(dx, dy))
    t = illinois_root_many(exit_gap, 1.0, hi, rho - 1.0, exit_gap(hi, slice(None)))
    return px, py, t


def _poly_tangent_exit_many(normals, ux, uy, rho):
    """`_poly_tangent_exit` on arrays of seeds.

    One pass over the facets per stage, each on seed-length arrays, so
    memory stays O(seeds) whatever the facet count.
    """
    m = len(normals)
    nx = np.array([n[0] for n in normals])
    ny = np.array([n[1] for n in normals])
    k = np.zeros(ux.shape, dtype=int)
    best = nx[0] * ux + ny[0] * uy
    for i in range(1, m):  # the first facet of largest support, as max() picks
        d = nx[i] * ux + ny[i] * uy
        better = d > best
        k, best = np.where(better, i, k), np.where(better, d, best)
    walking = np.ones(ux.shape, dtype=bool)
    for _ in range(m):
        k = np.where(walking, (k + 1) % m, k)
        walking &= nx[k] * ux + ny[k] * uy >= rho
        if not walking.any():
            break
    ax, ay, bx, by = nx[k - 1], ny[k - 1], nx[k], ny[k]
    det = ax * by - ay * bx
    px, py = rho * (by - ay) / det, rho * (ax - bx) / det
    dx, dy = px - ux, py - uy
    t = np.full(ux.shape, math.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for fx, fy in normals:
            s = fx * dx + fy * dy
            t = np.where(s > 0.0, np.minimum(t, (1.0 - (fx * ux + fy * uy)) / s), t)
    return px, py, t


def midpoint_check(spec: NormSpec, u, rho: float) -> MidpointReport:
    """The chord [u, star_map(u)] and the gauge of its midpoint.

    The chord supports rho*S by construction, so only its midpoint gauge
    is needed; no chord minimum is solved.  `star_map` checks rho and never
    returns u itself, so the chord is never degenerate.
    """
    up = as_unit_point(spec, u)
    vp = star_map(spec, up, rho)
    return MidpointReport(up, vp, _midpoint_norm(spec, up, vp))


def chord_frame(spec: NormSpec, theta: float, rho: float) -> ChordFrame:
    """Frame of the supporting chord through rho*s(theta): mu and endpoints.

    mu is the `illinois_root` of mu -> ||rho*(s + mu*s_perp)|| - 1, which
    is convex, negative at 0 and positive at (1 + 1/rho).
    """
    _check_rho(rho)
    _require_smooth(spec)
    base = natural_param(spec, theta)
    perp = birkhoff_successor(spec, base)
    mu = _solve_mu(spec, base.coords, perp.coords, rho)
    left = (rho * (base.x - mu * perp.x), rho * (base.y - mu * perp.y))
    right = (rho * (base.x + mu * perp.x), rho * (base.y + mu * perp.y))
    return ChordFrame(base.theta, base, perp, mu, left, right)


def _solve_mu(spec, s, t, rho):
    sx, sy = s
    tx, ty = t

    def g(mu):
        return spec.value(rho * (sx + mu * tx), rho * (sy + mu * ty)) - 1.0

    hi = 1.0 + 1.0 / rho
    ghi = g(hi)
    if ghi < 0.0:
        raise NumericalError("mu bracket failure: upper bound does not clear the circle")
    return illinois_root(g, 0.0, hi, rho - 1.0, ghi)


def frame_grid(spec: NormSpec, thetas: np.ndarray, rho: float):
    """Vectorized chord frames on a theta grid.

    Returns (sx, sy, tx, ty, mu) arrays: unit points, successor directions
    and half-widths, mu by `illinois_root_many` on the bracket of
    `chord_frame`.  The scalar `chord_frame` is the reference
    implementation; agreement is covered by tests.
    """
    _check_rho(rho)
    sx, sy = unit_points(spec, thetas)
    tx, ty = perp_points(spec, thetas)
    value_many = spec.value_many

    def g(mu, i):
        return value_many(rho * (sx[i] + mu * tx[i]), rho * (sy[i] + mu * ty[i])) - 1.0

    hi = 1.0 + 1.0 / rho
    mu = illinois_root_many(g, 0.0, hi, rho - 1.0, g(hi, slice(None)))
    return sx, sy, tx, ty, mu
