"""The star map, its midpoint diagnostics, and chord frames.

A chord [u, v] of the unit circle carries the convex function
t -> ||(1-t)u + t*v|| on [0, 1].  The star map sends u to the unique
counterclockwise-next unit point u* such that the chord [u, u*] supports
the scaled circle rho*S, i.e. its minimum gauge value equals rho.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .norms import (TWO_PI, NormSpec, UnitPoint, as_unit_point,
                    birkhoff_successor, natural_param, unit_points, _require_smooth)
from .solve1d import illinois_root, illinois_root_many

ANTIPODAL_GUARD = 1e-9
RESIDUAL_FLOOR = 4.0 * 2.0**-52  # the rounding of an O(1) root residual; see _smooth_tangent_exit


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


def _check_rho(rho: float):
    if not 0.0 < rho < 1.0:
        raise DomainError(f"rho must lie strictly between 0 and 1, got {rho}")


_ROUND = NormSpec.euclidean()


def star_map(spec: NormSpec, u, rho: float) -> UnitPoint:
    """The next unit point whose chord from u supports rho*S.

    The chord [u, u*] supports rho*S exactly when its line is tangent to
    rho*S, so u* is where the counterclockwise tangent line from u to rho*S
    meets S again; u* = u + t*(p - u) with p the tangent point and t > 1
    the exit parameter of that line.  A quadratic gauge is mapped to its
    round frame, where the map is the Euclidean one, and back.
    """
    _check_rho(rho)
    up = as_unit_point(spec, u)
    if spec.round_frame is None:
        return _star(spec, up, rho, up.theta)
    to_round, from_round = spec.round_frame
    x, y = to_round(*up.coords)
    z = _star(_ROUND, natural_param(_ROUND, math.atan2(y, x)), rho, up.theta)
    x, y = from_round(*z.coords)
    return natural_param(spec, math.atan2(y, x))


def _star(spec, up, rho, theta) -> UnitPoint:
    """`star_map` of up on spec; a failure names the seed by theta, the caller's angle."""
    ux, uy = up.coords
    if spec.normals is not None:
        px, py, t = _poly_tangent_exit(spec, up, rho)
    else:
        px, py, t = _smooth_tangent_exit(spec, up, rho)
    sx, sy = ux + t * (px - ux), uy + t * (py - uy)
    gap = (math.atan2(sy, sx) - up.theta) % TWO_PI
    if not 0.0 < gap < math.pi - ANTIPODAL_GUARD:  # `_failed_gap` in plain floats
        raise NumericalError(_gap_error(theta, gap, rho))
    return natural_param(spec, up.theta + gap)


def _failed_gap(gap):
    """Whether u* lies too close to -u, at u itself, or nowhere (a NaN gap)."""
    return np.logical_not((0.0 < gap) & (gap < math.pi - ANTIPODAL_GUARD))


def _gap_error(theta, gap, rho):
    if not gap > 0.0:  # zero, or NaN from an exit line that never leaves u
        return "star map could not leave the seed angle"
    return (f"star-map bracket failure: chords from theta={theta:.6f} "
            f"never dip below rho={rho}")


def star_map_many(spec: NormSpec, thetas, rho):
    """`star_map` of the unit points s(thetas), thetas in [0, 2pi), solved as arrays.

    The seeds are solved in the spec's round frame: the Euclidean plane for
    a quadratic gauge, where its midpoint deviations are measured, and the
    spec itself otherwise.  Returns (frame, ux, uy, vx, vy, errors): the
    frame, the seeds u and their images v = u* in frame coordinates, and
    {index: message} for the seeds on which `star_map` raises
    NumericalError, with its message; their v is not meaningful.  rho is
    one value or one per seed.  Each seed takes the steps `star_map` takes
    on it, with numpy's elementwise functions in place of `math`'s, and
    the same steps whatever the other seeds are.
    """
    thetas = np.asarray(thetas, dtype=float)
    rho = np.broadcast_to(np.asarray(rho, dtype=float), thetas.shape)
    bad = np.flatnonzero(~((0.0 < rho) & (rho < 1.0)))
    if bad.size:
        _check_rho(float(rho[bad[0]]))
    frame, psis = spec, thetas
    if spec.round_frame is not None:
        x, y = spec.round_frame[0](np.cos(thetas), np.sin(thetas))
        frame, psis = _ROUND, np.mod(np.arctan2(y, x), TWO_PI)
    ux, uy = unit_points(frame, psis)
    if frame.normals is not None:
        px, py, t = _poly_tangent_exit_many(frame, psis, ux, uy, rho)
    else:
        px, py, t = _smooth_tangent_exit_many(frame, psis, ux, uy, rho)
    with np.errstate(invalid="ignore"):  # t = inf on a null step: a NaN gap, failed below
        sx, sy = ux + t * (px - ux), uy + t * (py - uy)
    gap = np.mod(np.arctan2(sy, sx) - psis, TWO_PI)
    errors = {int(i): _gap_error(float(thetas[i]), gap[i], float(rho[i]))
              for i in np.flatnonzero(_failed_gap(gap))}
    vx, vy = unit_points(frame, np.mod(psis + gap, TWO_PI))
    return frame, ux, uy, vx, vy, errors


def _smooth_tangent_exit(spec, up, rho):
    """Tangent point p and exit parameter t for a smooth gauge.

    The tangent line from u to rho*S has some normal n(psi) = (cos psi,
    sin psi): it is {x : <n, x> = rho*N*(n)}, with N* the dual gauge, and
    touches rho*S at p = rho*grad N*(n).  It passes through u where the
    pairing rho - <n(psi), u>/N*(n(psi)) vanishes; over the half-turn after
    the normal angle psi_u of u it rises from rho - 1 to rho + 1.  N(u +
    t*(p - u)) - 1 is convex in t, negative at t = 1 and nonnegative at
    t = 2/N(p - u).  Both roots first try the inner-product answer, exact
    on the round circle: t = 2, and the normal of m = rho*g +
    sqrt(1 - rho^2)*Ju/N*(Ju), with g = grad N(u) and Ju = u turned a
    quarter turn, which has <m, u> = rho and is N*-unit when N* is
    Euclidean in the frame (g, Ju).  On the round circle psi_u is theta
    and the guess theta + arccos(rho), with no rounding.  Both residuals
    are O(1) terms that cancel at the root, so one within RESIDUAL_FLOOR
    of zero is taken as zero, and both roots end at their first evaluation
    there.  The floor is capped at (1 - rho)/1024: both functions start at
    rho - 1 with slope 0, and near rho = 1 a fixed floor would accept
    points far from the root.  The exit is evaluated at t = 2 first; its
    root brackets [1, 2] when the gap there is positive, and [2, max(2,
    2/N(p - u))] when it is negative.
    """
    ux, uy = up.coords
    dual, value = spec.dual, spec.value
    dual_value = dual.value
    tau = min(RESIDUAL_FLOOR, (1.0 - rho) / 1024.0)

    def pairing(psi):
        nx, ny = math.cos(psi), math.sin(psi)
        r = rho - (nx * ux + ny * uy) / dual_value(nx, ny)
        return 0.0 if -tau <= r <= tau else r

    if dual is spec:
        psi_u, guess = up.theta, up.theta + math.acos(rho)
    else:
        gx, gy = spec.grad(ux, uy)
        psi_u = math.atan2(gy, gx)
        c = math.sqrt(1.0 - rho * rho) / dual_value(-uy, ux)
        guess = psi_u + (math.atan2(rho * gy + c * ux, rho * gx - c * uy) - psi_u) % TWO_PI
    psi = illinois_root(pairing, psi_u, psi_u + math.pi, rho - 1.0, rho + 1.0, guess=guess)
    px, py = dual.grad(math.cos(psi), math.sin(psi))
    px, py = rho * px, rho * py
    dx, dy = px - ux, py - uy

    def exit_gap(t):
        g = value(ux + t * dx, uy + t * dy) - 1.0
        return 0.0 if -tau <= g <= tau else g

    g2 = exit_gap(2.0)
    if g2 == 0.0:
        return px, py, 2.0
    if g2 > 0.0:
        return px, py, illinois_root(exit_gap, 1.0, 2.0, rho - 1.0, g2)
    span = value(dx, dy)  # 0 when p rounds onto u: a null step, failed by the gap
    hi = max(2.0, 2.0 / span) if span > 0.0 else math.inf
    return px, py, illinois_root(exit_gap, 2.0, hi, g2, exit_gap(hi))


def _poly_tangent_exit(spec, up, rho):
    """Tangent vertex and exit parameter for a polygonal gauge, in closed form.

    The facet that supports u lies between the corners around u's angle,
    found by bisecting the corner angles; a u on a corner takes the facet
    before it, whose walk passes the one after.  Facets of rho*P visible
    from u (<n_i, u> >= rho) form a run around it; the counterclockwise
    tangent touches the vertex after the last of them.  The strict `<`
    sends a chord that runs along a facet of rho*P to that facet's far
    vertex.
    """
    normals = spec.normals
    ux, uy = up.coords
    m = len(normals)
    k = bisect_left(spec.corner_angles, up.theta) - 1
    for _ in range(m):
        k = (k + 1) % m
        nx, ny = normals[k]
        if nx * ux + ny * uy < rho:
            break
    (ax, ay), (bx, by) = normals[k - 1], normals[k]
    det = ax * by - ay * bx
    px, py = rho * (by - ay) / det, rho * (ax - bx) / det
    dx, dy = px - ux, py - uy
    t = math.inf
    for nx, ny in normals:  # an explicit loop: min() over a generator is slower
        s = nx * dx + ny * dy
        if s > 0.0:
            exit_t = (1.0 - (nx * ux + ny * uy)) / s
            if exit_t < t:
                t = exit_t
    return px, py, t


def _smooth_tangent_exit_many(spec, thetas, ux, uy, rho):
    """`_smooth_tangent_exit` on arrays of seeds: both roots by `illinois_root_many`."""
    dual, value_many = spec.dual, spec.value_many
    dual_value_many = dual.value_many
    tau = np.minimum(RESIDUAL_FLOOR, (1.0 - rho) / 1024.0)

    def pairing(psi, i):
        nx, ny = np.cos(psi), np.sin(psi)
        r = rho[i] - (nx * ux[i] + ny * uy[i]) / dual_value_many(nx, ny)
        np.copyto(r, 0.0, where=np.abs(r) <= tau[i])
        return r

    if dual is spec:
        psi_u, guess = thetas, thetas + np.arccos(rho)
    else:
        gx, gy = spec.grad_many(ux, uy)
        psi_u = np.arctan2(gy, gx)
        c = np.sqrt(1.0 - rho * rho) / dual_value_many(-uy, ux)
        guess = psi_u + np.mod(np.arctan2(rho * gy + c * ux, rho * gx - c * uy) - psi_u, TWO_PI)
    psi = illinois_root_many(pairing, psi_u, psi_u + math.pi, rho - 1.0, rho + 1.0, guess=guess)
    px, py = dual.grad_many(np.cos(psi), np.sin(psi))
    px, py = rho * px, rho * py
    dx, dy = px - ux, py - uy

    def exit_gap(t, i):
        g = value_many(ux[i] + t * dx[i], uy[i] + t * dy[i]) - 1.0
        np.copyto(g, 0.0, where=np.abs(g) <= tau[i])
        return g

    t = np.full(ux.shape, 2.0)
    with np.errstate(all="ignore"):  # p rounded onto u: an inf bracket and a null step
        g2 = exit_gap(2.0, slice(None))
        run = np.flatnonzero(g2 != 0.0)  # the seeds that enter the exit root
        if run.size:
            a, b, fa, fb = np.ones(run.size), np.full(run.size, 2.0), rho[run] - 1.0, g2[run]
            down = np.flatnonzero(~(fb > 0.0))  # the gap at 2 is negative (or NaN)
            seeds = run[down]
            a[down], fa[down] = 2.0, fb[down]
            b[down] = np.maximum(2.0, 2.0 / value_many(dx[seeds], dy[seeds]))
            fb[down] = exit_gap(b[down], seeds)
            t[run] = illinois_root_many(lambda x, i: exit_gap(x, run[i]), a, b, fa, fb)
    return px, py, t


def _poly_tangent_exit_many(spec, thetas, ux, uy, rho):
    """`_poly_tangent_exit` on arrays of seeds.

    One pass over the facets per stage, each on seed-length arrays, so
    memory stays O(seeds) whatever the facet count.
    """
    normals = spec.normals
    m = len(normals)
    nx = np.array([n[0] for n in normals])
    ny = np.array([n[1] for n in normals])
    k = np.searchsorted(spec.corner_angles, thetas) - 1
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
    return MidpointReport(up, vp, spec.value(0.5 * (up.x + vp.x), 0.5 * (up.y + vp.y)))


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

