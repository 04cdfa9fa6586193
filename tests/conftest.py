"""Shared specs and independent oracles for the test suite."""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from rho_planes import (ConfigurationError, NormSpec, NumericalError, UnitPoint,
                        as_unit_point, natural_param, polygons, star_map)
from rho_planes.chords import ANTIPODAL_GUARD
from rho_planes.lab import _AXIS_ANGLES
from rho_planes.norms import ORTHO_TOL, TWO_PI, _dist_to_boundary, unit_points
from rho_planes.solve1d import illinois_root
from rho_planes.svg import _SCALE, CURVE_POINTS, VIEW_HALF

EUCLID = NormSpec.euclidean()
QUAD14 = NormSpec.quadratic(1, 0, 4)
QUAD213 = NormSpec.quadratic(2, 1, 3)
LP4 = NormSpec.lp(4)
LP15 = NormSpec.lp(1.5)
SQUARE = NormSpec.polygon([(1, 1), (-1, 1), (-1, -1), (1, -1)])
DIAMOND = NormSpec.polygon([(1, 0), (0, 1)])
SKEWED_HEXAGON = NormSpec.parse("poly:1,0;0.5,0.8;-0.4,0.9")

SMOOTH_SPECS = [EUCLID, QUAD14, QUAD213, LP4, LP15]
IPS_SPECS = [EUCLID, QUAD14, QUAD213]
ALL_SPECS = SMOOTH_SPECS + [SQUARE, DIAMOND, NormSpec.lp(1)]


def spec_ids(specs):
    return [s.spec_id for s in specs]


@pytest.fixture
def rng():
    return np.random.default_rng(20240307)


# -- independent oracles -----------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2


def golden_min(f, a, b, width=1e-12):
    """Minimize a convex (unimodal) f on [a, b] by golden-section search.

    Shrinks the bracket to `width`, then applies a guarded three-point
    parabolic refinement.  Returns (argmin, min value).  Derivative-free,
    kept as the oracle for `line_min` and the closed-form line distance of
    `rho_planes.is_birkhoff_orthogonal`.
    """
    if not b > a:
        raise ValueError("empty bracket")
    h = b - a
    steps = max(0, math.ceil(math.log(width / h) / math.log(_INVPHI))) if h > width else 0
    x1 = a + _INVPHI2 * h
    x2 = a + _INVPHI * h
    f1 = f(x1)
    f2 = f(x2)
    for _ in range(steps):
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            h = b - a
            x1 = a + _INVPHI2 * h
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            h = b - a
            x2 = a + _INVPHI * h
            f2 = f(x2)
    if f1 < f2:
        xm, fm, xl, xr = x1, f1, a, x2
    else:
        xm, fm, xl, xr = x2, f2, x1, b
    # parabola through (xl, f(xl)), (xm, fm), (xr, f(xr)); keep only an
    # interior vertex that actually improves
    fl = f(xl)
    fr = f(xr)
    best_x, best_f = xm, fm
    if fl < best_f:
        best_x, best_f = xl, fl
    if fr < best_f:
        best_x, best_f = xr, fr
    denom = (xm - xl) * (fm - fr) - (xm - xr) * (fm - fl)
    if denom != 0.0:
        num = (xm - xl) ** 2 * (fm - fr) - (xm - xr) ** 2 * (fm - fl)
        xv = xm - 0.5 * num / denom
        if xl < xv < xr:
            fv = f(xv)
            if fv < best_f:
                best_x, best_f = xv, fv
    return best_x, best_f


def envelope_min(normals, ux, uy, dx, dy):
    """Exact minimum of t -> max_i <n_i, u + t*d> on [0, 1].

    The restriction of a polygonal gauge to a segment is an upper envelope
    of affine functions, so its minimum sits on a pairwise line
    intersection (or a segment end); no iteration needed.  O(m^2) in the
    facet count.
    """
    lines = [(nx * ux + ny * uy, nx * dx + ny * dy) for nx, ny in normals]

    def envelope(t):
        return max(al + be * t for al, be in lines)

    cands = [0.0, 1.0]
    m = len(lines)
    for i in range(m):
        ai, bi = lines[i]
        for j in range(i + 1, m):
            aj, bj = lines[j]
            if bi != bj:
                t = (aj - ai) / (bi - bj)
                if 0.0 < t < 1.0:
                    cands.append(t)
    return min(envelope(t) for t in cands)


def line_min(spec, ux, uy, dx, dy):
    """Minimum of t -> N(u + t*d) over [0, 1].

    Smooth gauges here are strictly convex, so the minimizer is the one
    root of the slope D+(t).  Polygonal gauges take `envelope_min`.  Kept,
    through `line_min_orthogonal`, as the oracle for the closed-form line
    distance of `rho_planes.is_birkhoff_orthogonal`.
    """
    if spec.normals is not None:
        return envelope_min(spec.normals, ux, uy, dx, dy)
    dplus = spec.dplus

    def slope(t):
        return dplus(ux + t * dx, uy + t * dy, dx, dy)

    s0 = slope(0.0)
    if s0 >= 0.0:
        t = 0.0
    else:
        s1 = slope(1.0)
        t = 1.0 if s1 <= 0.0 else illinois_root(slope, 0.0, 1.0, s0, s1)
    return spec.value(ux + t * dx, uy + t * dy)


def line_min_orthogonal(spec, u, v):
    """Birkhoff orthogonality by one `line_min` over [u - r*v, u + r*v], r = 2||u||/||v||.

    That segment always holds the global minimizer.  Kept as the oracle for
    the closed form in `rho_planes.is_birkhoff_orthogonal`.
    """
    ux, uy = u
    vx, vy = v
    nu = spec.value(ux, uy)
    r = 2.0 * nu / spec.value(vx, vy)
    return nu - line_min(spec, ux - r * vx, uy - r * vy, 2.0 * r * vx, 2.0 * r * vy) <= ORTHO_TOL


def bisect_predicate(pred, lo, hi, max_iters=80):
    """Locate the boundary of a monotone predicate: true on [lo, x*), false after.

    pred(lo) is assumed true and pred(hi) false; neither endpoint is
    evaluated.  Runs until the bracket can no longer shrink in floating
    point and returns the final (true_side, false_side) bracket.
    """
    for _ in range(max_iters):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def bisection_successor(spec, u):
    """Birkhoff successor of u by bisecting the sign of <grad N(u), s(phi)>.

    Bisects over phi in (theta_u, theta_u + pi); the oracle for the closed
    form in `rho_planes.birkhoff_successor`.
    """
    up = as_unit_point(spec, u)
    gx, gy = spec.grad(up.x, up.y)
    lo, hi = bisect_predicate(lambda phi: gx * math.cos(phi) + gy * math.sin(phi) > 0.0,
                              up.theta, up.theta + math.pi)
    return natural_param(spec, 0.5 * (lo + hi))


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
        return envelope_min(spec.normals, ux, uy, dx, dy) >= rho
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


def max_poly_tangent_exit(normals, ux, uy, rho):
    """Tangent vertex and exit parameter of a polygonal gauge, from the max facet.

    Starts the visibility walk at the first facet of largest support, found
    by scanning every facet.  Kept as the oracle for the bisection on corner
    angles in `rho_planes.chords._poly_tangent_exit`.
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


def exact_poly_tangent_exit(normals, ux, uy, rho):
    """`max_poly_tangent_exit` in exact rationals: the float normals, seed and
    rho are read as Fractions and every later step is exact.

    Returns the tangent vertex p, the exit parameter t, the exit point
    u + t*(p - u) on the unit polygon and the gauge max_i <n_i, .> of the
    chord's midpoint.  Kept as the oracle for the rounding of
    `rho_planes.chords._poly_tangent_exit` and `_poly_tangent_exit_many`.
    """
    ns = [(Fraction(a), Fraction(b)) for a, b in normals]
    u, r = (Fraction(ux), Fraction(uy)), Fraction(rho)

    def dot(n, v):
        return n[0] * v[0] + n[1] * v[1]

    m = len(ns)
    k = max(range(m), key=lambda i: dot(ns[i], u))
    for _ in range(m):
        k = (k + 1) % m
        if dot(ns[k], u) < r:
            break
    (ax, ay), (bx, by) = ns[k - 1], ns[k]
    det = ax * by - ay * bx
    p = (r * (by - ay) / det, r * (ax - bx) / det)
    d = (p[0] - u[0], p[1] - u[1])
    t = min((1 - dot(n, u)) / s for n in ns if (s := dot(n, d)) > 0)
    exit_point = (u[0] + t * d[0], u[1] + t * d[1])
    mid = ((u[0] + exit_point[0]) / 2, (u[1] + exit_point[1]) / 2)
    return p, t, exit_point, max(dot(n, mid) for n in ns)


def single_linkage_clusters(spec, points, radius):
    """Fixed-radius single-linkage pass; returns cluster centroids by angle, each
    of more than one point scaled onto the unit circle of spec.

    Cost is points x clusters.  Kept as the oracle for the one-pass run
    grouping of `rho_planes.polygons._cluster`.
    """
    clusters = []
    for p in points:
        hits = [c for c in clusters
                if any(math.hypot(p.x - q.x, p.y - q.y) <= radius for q in c)]
        if not hits:
            clusters.append([p])
        else:
            merged = hits[0]
            for other in hits[1:]:
                merged.extend(other)
                clusters.remove(other)
            merged.append(p)
    centroids = []
    for c in clusters:
        cx = sum(q.x for q in c) / len(c)
        cy = sum(q.y for q in c) / len(c)
        if len(c) > 1:
            n = spec.value(cx, cy)
            cx, cy = cx / n, cy / n
        centroids.append((cx, cy))
    centroids.sort(key=lambda q: math.atan2(q[1], q[0]) % TWO_PI)
    return centroids


def check_seeds(samples):
    """The seed angles of `check_midpoint_property`: a uniform grid plus the axes.

    A set comprehension, kept as the oracle for the checker's sorted and
    deduplicated array grid.
    """
    return sorted({(TWO_PI * j) / samples for j in range(samples)} | set(_AXIS_ANGLES))


@dataclass(frozen=True)
class MidpointReport:
    """A supporting chord [u, v] with v = u* and the gauge of its midpoint.

    |midpoint_norm - rho| is the midpoint-support deviation of this chord.
    """

    u: UnitPoint
    v: UnitPoint
    midpoint_norm: float


def midpoint_check(spec: NormSpec, u, rho: float) -> MidpointReport:
    """The chord [u, star_map(u)] and the gauge of its midpoint.

    The scalar reference for `rho_planes.check_midpoint_property`: one seed
    at a time, with the gauge taken in the spec's own coordinates.  The chord
    supports rho*S by construction, so only its midpoint gauge is needed; no
    chord minimum is solved.  `star_map` checks rho and never returns u
    itself, so the chord is never degenerate.
    """
    up = as_unit_point(spec, u)
    vp = star_map(spec, up, rho)
    return MidpointReport(up, vp, spec.value(0.5 * (up.x + vp.x), 0.5 * (up.y + vp.y)))


def scalar_check(spec, rho, samples):
    """The midpoint checker as a loop of scalar `midpoint_check` calls.

    Returns (max deviation, worst theta, notes) with the first maximum in
    theta order, or raises NumericalError when every seed fails.  Kept as
    the oracle for the array solve in `rho_planes.lab.check_midpoint_property`.
    """
    thetas = check_seeds(samples)
    worst, worst_theta, failures = -1.0, 0.0, []
    for theta in thetas:
        try:
            report = midpoint_check(spec, natural_param(spec, theta), rho)
        except NumericalError as exc:
            failures.append(f"theta={theta:.6f}: {exc}")
            continue
        dev = abs(report.midpoint_norm - rho)
        if dev > worst:
            worst, worst_theta = dev, theta
    if worst < 0.0:
        raise NumericalError(f"{len(failures)} of {len(thetas)} seeds failed; first {failures[0]}")
    return worst, worst_theta, "; ".join(failures)


def per_point_coords(points):
    """The `points` attribute of an SVG curve, one pixel transform and f-string per point.

    Kept as the oracle for the array formatter `rho_planes.svg._poly_attr`.
    """
    def px(x, y):
        return (x + VIEW_HALF) * _SCALE, (VIEW_HALF - y) * _SCALE
    return " ".join(f"{px(x, y)[0]:.3f},{px(x, y)[1]:.3f}" for x, y in points)


def conic_radius(conic, theta):
    """Distance from the origin to the conic along direction theta."""
    c, s = math.cos(theta), math.sin(theta)
    q = conic.a * c * c + conic.b * c * s + conic.c * s * s
    return 1.0 / math.sqrt(q)


def per_point_conic(conic):
    """The SVG conic polyline built from one `conic_radius` call per point.

    Kept as the oracle for the array curve `rho_planes.svg.conic_points`.
    """
    pts = []
    for i in range(CURVE_POINTS):
        theta = 2.0 * math.pi * i / CURVE_POINTS
        r = conic_radius(conic, theta)
        pts.append((r * math.cos(theta), r * math.sin(theta)))
    return pts


def scaled_circle(spec, scale):
    """The SVG unit-circle polyline scaled point by point in Python floats.

    Kept as the oracle for the unit circle and homothet layers of
    `rho_planes.svg.render_svg`.
    """
    thetas = np.linspace(0.0, 2.0 * math.pi, CURVE_POINTS, endpoint=False)
    x, y = unit_points(spec, thetas)
    return [(scale * float(a), scale * float(b)) for a, b in zip(x, y)]


def plain_polygon(spec, u, rho, max_steps, close_tol=polygons.DEFAULT_CLOSE_TOL):
    """`build_polygon` with one `star_map` call on every step.

    The loop before a recurring vertex replayed its cycle; kept as the
    oracle for that replay.
    """
    seed = as_unit_point(spec, u)
    verts, turning, steps, candidate = [seed], 0.0, 0, None
    while steps < max_steps:
        nxt = polygons.star_map(spec, verts[-1], rho)
        steps += 1
        turning += (nxt.theta - verts[-1].theta) % TWO_PI
        err = math.hypot(nxt.x - seed.x, nxt.y - seed.y)
        if err <= close_tol and len(verts) >= 3:
            if candidate is None:
                candidate = (len(verts), turning, err)
            elif len(verts) == 2 * candidate[0]:
                n, lap_turning, lap_err = candidate
                k = round(lap_turning / TWO_PI)
                return polygons.RhoPolygon(rho, verts[:n], polygons.STATUS_CLOSED,
                                           lap_turning, steps, n=n, k=k,
                                           coprime=math.gcd(n, k) == 1,
                                           closure_error=max(lap_err, err))
        elif candidate is not None and len(verts) == 2 * candidate[0]:
            candidate = None
        verts.append(nxt)
    tail = verts[int(0.8 * len(verts)):]
    return polygons.RhoPolygon(rho, verts, polygons.STATUS_NON_CLOSING, turning, steps,
                               accumulation_points=polygons._cluster(
                                   spec, tail, max(10.0 * close_tol, 1e-5)))


def symmetric_hull_testing_every_point(points):
    """`norms._symmetric_hull` with the boundary-distance test on every point.

    O(n^2): hull vertices are tested too, although each lies on the
    boundary.  Kept as the oracle for the parse that tests only the points
    off the hull.
    """
    if not points:
        raise ConfigurationError("polygon gauge needs at least one vertex")
    sym = points + [(-x, -y) for x, y in points]
    scale = max(max(abs(x), abs(y)) for x, y in sym)
    if not (scale > 0.0 and all(math.isfinite(x) and math.isfinite(y) for x, y in points)):
        raise ConfigurationError("polygon vertices must be finite and not all zero")
    tol = 1e-12 * scale
    uniq = []
    for pt in sorted(sym):
        if not uniq or abs(pt[0] - uniq[-1][0]) > tol or abs(pt[1] - uniq[-1][1]) > tol:
            uniq.append(pt)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(pts):
        out = []
        for p in pts:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= tol * scale:
                out.pop()
            out.append(p)
        return out

    hull = half(uniq)[:-1] + half(list(reversed(uniq)))[:-1]
    if len(hull) < 4:
        raise ConfigurationError("symmetrized vertices are collinear or degenerate")
    for pt in uniq:
        if _dist_to_boundary(pt, hull) > 1e-9 * scale:
            raise ConfigurationError(
                f"vertex {pt} lies strictly inside the symmetrized hull; not convex")
    start = min(range(len(hull)), key=lambda i: math.atan2(hull[i][1], hull[i][0]) % TWO_PI)
    return hull[start:] + hull[:start]
