"""Norm families on the plane and their basic geometry.

A `NormSpec` is a symmetric convex gauge: Euclidean, a positive-definite
quadratic form, an lp norm with finite p >= 1, or the Minkowski functional
of a centrally symmetric convex polygon.  The unit circle of the gauge is
parametrized by angle through `natural_param`, and points of the unit
circle are always reconstructed from their angle so that coordinates and
parameters never drift apart.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, UnsupportedSpecError
from .solve1d import illinois_root

TWO_PI = 2.0 * math.pi

UNIT_TOL = 1e-10
ORTHO_TOL = 1e-9
# Beyond an axis ratio of 1e6 most of a quadratic unit circle lies within a
# few ulps of the long axis's angle, and the checker's verdicts go wrong.
MAX_QUAD_EIGEN_RATIO = 1e12


def _fmt_num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _xy(v) -> tuple[float, float]:
    """Accept a plane point as a tuple/list or anything with .coords."""
    c = getattr(v, "coords", v)
    return float(c[0]), float(c[1])


@dataclass(frozen=True)
class UnitPoint:
    """A point of the unit circle with its parameter angle in [0, 2*pi)."""

    theta: float
    coords: tuple[float, float]

    @property
    def x(self) -> float:
        return self.coords[0]

    @property
    def y(self) -> float:
        return self.coords[1]

    def negated(self) -> "UnitPoint":
        return UnitPoint((self.theta + math.pi) % TWO_PI,
                         (-self.coords[0], -self.coords[1]))


class NormSpec:
    """A symmetric convex gauge on the plane.

    A spec is its gauge `value` (scalar, and `value_many` on numpy arrays)
    plus either its gradient, for the smooth and strictly convex families,
    or the facet normals of its polygonal unit ball; the one-sided slopes
    and corner angles are derived from these here.  Construct through the
    factory classmethods or `parse`.  Instances are immutable and safe to
    share across threads; every operation in the library is a pure
    function of its arguments.
    """

    def __init__(self, kind, params, spec_id, value, value_many,
                 grad=None, grad_many=None, normals=None):
        self.kind = kind
        self.params = params
        self.spec_id = spec_id
        self.value = value            # (x, y) -> gauge
        self.value_many = value_many  # the gauge on numpy arrays
        self.grad = grad              # (x, y) -> gradient tuple, smooth only
        self.grad_many = grad_many    # the gradient on numpy arrays, smooth only
        self.normals = normals        # facet normals n_i with N = max_i <n_i, .>, polygonal only
        self.smooth = grad is not None
        # right/left derivative of t -> N(w + t*d) at t=0, smooth only
        self.dplus = _slope(value, grad, 1.0) if self.smooth else None
        self.dminus = _slope(value, grad, -1.0) if self.smooth else None
        # corner i joins facets a = n_(i-1) and b = n_i: <a, v> = <b, v> = 1
        # puts it along (b_y - a_y, a_x - b_x), as det(a, b) > 0
        self.corner_angles = () if normals is None else tuple(
            math.atan2(ax - bx, by - ay) % TWO_PI
            for (ax, ay), (bx, by) in zip(normals[-1:] + normals[:-1], normals))

    def __repr__(self):
        return f"NormSpec({self.spec_id!r})"

    def __eq__(self, other):
        return isinstance(other, NormSpec) and self.spec_id == other.spec_id

    def __hash__(self):
        return hash(self.spec_id)

    @property
    def is_ips_family(self) -> bool:
        """True for norms induced by an inner product (round/elliptic circles)."""
        return self.kind in ("euclid", "quad")

    # -- factories ---------------------------------------------------------

    @classmethod
    def euclidean(cls) -> "NormSpec":
        def grad(x, y):
            n = math.hypot(x, y)
            return x / n, y / n

        def grad_many(x, y):
            n = np.hypot(x, y)
            return x / n, y / n

        return cls("euclid", {}, "euclid", math.hypot, np.hypot, grad, grad_many)

    @classmethod
    def quadratic(cls, a: float, b: float, c: float) -> "NormSpec":
        a, b, c = float(a), float(b), float(c)
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
            raise ConfigurationError("quadratic coefficients must be finite")
        if not math.isfinite(2.0 * (a + abs(b) + c)):
            # the gauge and its gradient on the unit box would overflow
            raise ConfigurationError(
                f"quadratic coefficients {a}, {b}, {c} are too large")
        s = max(a, abs(b), c)  # unscaled, 4ac - b^2 over- or underflows on valid forms
        det4 = 4.0 * (a / s) * (c / s) - (b / s) ** 2 if a > 0.0 else 0.0
        if not det4 > 0.0:
            raise ConfigurationError(
                f"quadratic form {a}x^2+{b}xy+{c}y^2 is not positive definite")
        # eigenvalue ratio lmax/lmin of the scaled form as lmax^2/det: lmin would cancel
        lmax = (a + c + math.hypot(a - c, b)) / (2.0 * s)
        ratio = 4.0 * lmax * lmax / det4
        if ratio > MAX_QUAD_EIGEN_RATIO:
            raise ConfigurationError(
                f"quadratic form {a}x^2+{b}xy+{c}y^2 has eigenvalue ratio {ratio:.6g}, "
                f"above {MAX_QUAD_EIGEN_RATIO:g}: its axes differ by more than a factor "
                "1e6, too thin a unit circle to resolve through angles")

        def value(x, y):
            ax, ay = abs(x), abs(y)
            m = ax if ax > ay else ay
            if m == 0.0:
                return 0.0
            x, y = x / m, y / m  # keeps squares away from under/overflow
            return m * math.sqrt(a * x * x + b * x * y + c * y * y)

        def grad(x, y):
            n = value(x, y)
            return (2.0 * a * x + b * y) / (2.0 * n), (b * x + 2.0 * c * y) / (2.0 * n)

        def value_many(x, y):
            m = np.maximum(np.abs(x), np.abs(y))
            m = np.where(m == 0.0, 1.0, m)
            x, y = x / m, y / m
            return m * np.sqrt(a * x * x + b * x * y + c * y * y)

        def grad_many(x, y):
            n = value_many(x, y)
            return (2.0 * a * x + b * y) / (2.0 * n), (b * x + 2.0 * c * y) / (2.0 * n)

        spec_id = f"quad:{_fmt_num(a)},{_fmt_num(b)},{_fmt_num(c)}"
        return cls("quad", {"a": a, "b": b, "c": c}, spec_id, value, value_many,
                   grad, grad_many)

    @classmethod
    def lp(cls, p: float) -> "NormSpec":
        p = float(p)
        if not (math.isfinite(p) and p >= 1.0):
            raise ConfigurationError(f"lp exponent must be a finite real >= 1, got {p}")
        spec_id = f"lp:{_fmt_num(p)}"
        if p == 1.0:
            # the diamond is a polygonal gauge: max of four facet functionals
            return cls("lp", {"p": p}, spec_id, *_facet_gauge(_DIAMOND_NORMALS),
                       normals=_DIAMOND_NORMALS)
        q = p - 1.0

        def value(x, y):
            ax, ay = abs(x), abs(y)
            m = ax if ax > ay else ay
            if m == 0.0:
                return 0.0
            return m * ((ax / m) ** p + (ay / m) ** p) ** (1.0 / p)

        # sign(x)*(|x|/N)^(p-1): each ratio is at most 1, so no power overflows
        def grad(x, y):
            n = value(x, y)
            return math.copysign((abs(x) / n) ** q, x), math.copysign((abs(y) / n) ** q, y)

        def value_many(x, y):
            ax, ay = np.abs(x), np.abs(y)
            m = np.maximum(ax, ay)
            m = np.where(m == 0.0, 1.0, m)
            return m * ((ax / m) ** p + (ay / m) ** p) ** (1.0 / p)

        def grad_many(x, y):
            n = value_many(x, y)
            return np.sign(x) * (np.abs(x) / n) ** q, np.sign(y) * (np.abs(y) / n) ** q

        return cls("lp", {"p": p}, spec_id, value, value_many, grad, grad_many)

    @classmethod
    def polygon(cls, vertices) -> "NormSpec":
        verts = _symmetric_hull([(float(x), float(y)) for x, y in vertices])
        normals = _edge_normals(verts)
        spec_id = "poly:" + ";".join(f"{_fmt_num(x)},{_fmt_num(y)}" for x, y in verts)
        return cls("poly", {"vertices": verts}, spec_id, *_facet_gauge(normals),
                   normals=normals)

    @classmethod
    def parse(cls, text: str) -> "NormSpec":
        """Parse the norm-spec grammar.

        "euclid" | "lp:<p>" | "quad:<a>,<b>,<c>" | "poly:<x1>,<y1>;<x2>,<y2>;..."
        Polygon vertices are auto-symmetrized under v -> -v.
        """
        if not isinstance(text, str):
            raise ConfigurationError(f"a norm spec is a string, got {text!r}")
        text = text.strip()
        if text == "euclid":
            return cls.euclidean()
        head, sep, rest = text.partition(":")
        if not sep:
            raise ConfigurationError(f"unrecognized norm spec {text!r}")
        try:
            if head == "lp":
                return cls.lp(float(rest))
            if head == "quad":
                a, b, c = (float(t) for t in rest.split(","))
                return cls.quadratic(a, b, c)
            if head == "poly":
                verts = []
                for chunk in rest.split(";"):
                    x, y = (float(t) for t in chunk.split(","))
                    verts.append((x, y))
                return cls.polygon(verts)
        except ConfigurationError:
            raise
        except ValueError as exc:
            raise ConfigurationError(f"malformed norm spec {text!r}: {exc}") from None
        raise ConfigurationError(f"unrecognized norm spec {text!r}")


_DIAMOND_NORMALS = ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0))


def _slope(value, grad, sign):
    """One-sided derivative of t -> N(w + t*d) at t=0 for a smooth gauge.

    Away from the origin both sides are the gradient pairing; at the origin
    the gauge has a cone kink with slopes -N(d) and +N(d), picked by sign.
    """
    def slope(x, y, dx, dy):
        if x == 0.0 and y == 0.0:
            return sign * value(dx, dy)
        gx, gy = grad(x, y)
        return gx * dx + gy * dy

    return slope


def _facet_gauge(normals):
    """The polygonal gauge max_i <n_i, (x, y)>, scalar and on numpy arrays."""
    def value(x, y):  # an explicit loop: max() over a generator is slower here
        best = -math.inf
        for px, py in normals:
            d = px * x + py * y
            if d > best:
                best = d
        return best

    def value_many(x, y):  # one facet at a time: memory stays O(points)
        (px, py), *rest = normals
        best = px * x + py * y
        for px, py in rest:
            best = np.maximum(best, px * x + py * y)
        return best

    return value, value_many


def _symmetric_hull(points):
    """Closure under v -> -v, then the (strictly) convex hull, CCW.

    Raises ConfigurationError when the symmetrized points are not in convex
    position (some point strictly interior) or the hull is degenerate.
    """
    if not points:
        raise ConfigurationError("polygon gauge needs at least one vertex")
    sym = points + [(-x, -y) for x, y in points]
    scale = max(max(abs(x), abs(y)) for x, y in sym)
    if not (scale > 0.0 and math.isfinite(scale)):
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

    lower = half(uniq)
    upper = half(list(reversed(uniq)))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 4:
        raise ConfigurationError("symmetrized vertices are collinear or degenerate")
    for pt in uniq:
        if _dist_to_boundary(pt, hull) > 1e-9 * scale:
            raise ConfigurationError(
                f"vertex {pt} lies strictly inside the symmetrized hull; not convex")
    start = min(range(len(hull)), key=lambda i: math.atan2(hull[i][1], hull[i][0]) % TWO_PI)
    return hull[start:] + hull[:start]


def _dist_to_boundary(pt, hull):
    best = math.inf
    for i in range(len(hull)):
        ax, ay = hull[i]
        bx, by = hull[(i + 1) % len(hull)]
        ex, ey = bx - ax, by - ay
        t = ((pt[0] - ax) * ex + (pt[1] - ay) * ey) / (ex * ex + ey * ey)
        t = min(1.0, max(0.0, t))
        best = min(best, math.hypot(pt[0] - ax - t * ex, pt[1] - ay - t * ey))
    return best


def _edge_normals(verts):
    normals = []
    for i in range(len(verts)):
        (x0, y0), (x1, y1) = verts[i], verts[(i + 1) % len(verts)]
        det = x0 * y1 - y0 * x1
        if det <= 0.0:
            raise ConfigurationError("polygon does not wind counterclockwise around the origin")
        normals.append(((y1 - y0) / det, (x0 - x1) / det))
    return normals


# -- basic operations -------------------------------------------------------


def natural_param(spec: NormSpec, theta: float) -> UnitPoint:
    """The unit-circle point in direction theta: (cos t, sin t) / gauge.

    Raises DomainError for a non-finite theta.
    """
    theta = float(theta)
    if not math.isfinite(theta):
        raise DomainError(f"angle must be finite, got {theta}")
    theta %= TWO_PI
    cx, cy = math.cos(theta), math.sin(theta)
    n = spec.value(cx, cy)
    return UnitPoint(theta, (cx / n, cy / n))


def unit_points(spec: NormSpec, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized natural parametrization; returns coordinate arrays."""
    cx, cy = np.cos(thetas), np.sin(thetas)
    n = spec.value_many(cx, cy)
    return cx / n, cy / n


def wedge(u, v) -> float:
    """2D cross product u1*v2 - u2*v1 (twice the signed triangle area)."""
    ux, uy = _xy(u)
    vx, vy = _xy(v)
    return ux * vy - uy * vx


def as_unit_point(spec: NormSpec, v) -> UnitPoint:
    """Coerce a plane point to a UnitPoint, checking it lies on the unit circle."""
    if isinstance(v, UnitPoint):
        return v
    x, y = _xy(v)
    n = spec.value(x, y)
    if n == 0.0:
        raise DomainError("zero vector is not on the unit circle")
    if abs(n - 1.0) > UNIT_TOL:
        raise DomainError(f"point {(x, y)} has gauge {n}, not on the unit circle")
    return UnitPoint(math.atan2(y, x) % TWO_PI, (x, y))


def is_birkhoff_orthogonal(spec: NormSpec, u, v) -> bool:
    """Birkhoff orthogonality u _|_ v: no multiple of v pulls u closer to 0.

    The defect ||u|| - min ||u + lambda*v|| is compared against ORTHO_TOL.
    The segment |lambda| <= r = 2||u||/||v|| always contains the global
    minimizer, so the defect is one line minimum over [u - r*v, u + r*v].
    """
    ux, uy = _xy(u)
    vx, vy = _xy(v)
    nu = spec.value(ux, uy)
    nv = spec.value(vx, vy)
    if nu == 0.0 or nv == 0.0:
        raise DomainError("Birkhoff orthogonality needs nonzero vectors")
    r = 2.0 * nu / nv
    fmin, _, _ = _line_min(spec, ux - r * vx, uy - r * vy, 2.0 * r * vx, 2.0 * r * vy)
    return nu - fmin <= ORTHO_TOL


def _line_min(spec: NormSpec, ux, uy, dx, dy):
    """Minimum of t -> N(u + t*d) over [0, 1] with its minimizer interval.

    Returns (min value, lo, hi).  Smooth gauges here are strictly convex, so
    the minimizer is the one root of the slope D+(t), run until the bracket
    cannot shrink, and lo == hi.  Polygonal gauges are minimized exactly as
    an upper envelope of facet functionals, so their flat minima are
    resolved rather than smeared by value comparisons.
    """
    if spec.normals is not None:
        return _envelope_min(spec.normals, ux, uy, dx, dy)
    dplus = spec.dplus

    def slope(t):
        return dplus(ux + t * dx, uy + t * dy, dx, dy)

    s0 = slope(0.0)
    if s0 >= 0.0:
        t = 0.0
    else:
        s1 = slope(1.0)
        t = 1.0 if s1 <= 0.0 else illinois_root(slope, 0.0, 1.0, s0, s1, xtol=0.0)
    return spec.value(ux + t * dx, uy + t * dy), t, t


def _envelope_min(normals, ux, uy, dx, dy):
    """Exact minimum of t -> max_i <n_i, u + t*d> on [0, 1].

    The restriction of a polygonal gauge to a segment is an upper envelope
    of affine functions, so its minimum and flat argmin piece sit on
    pairwise line intersections (or the segment ends); no iteration needed.
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
    vals = [envelope(t) for t in cands]
    best = min(vals)
    cut = best + 1e-13 * (1.0 if best < 1.0 else best)
    flat = [t for t, v in zip(cands, vals) if v <= cut]
    return best, min(flat), max(flat)


def _require_smooth(spec: NormSpec):
    if not spec.smooth:
        raise UnsupportedSpecError(
            f"{spec.spec_id} is not smooth and strictly convex; "
            "only the orthogonality predicate is defined for such norms")


def birkhoff_successor(spec: NormSpec, u) -> UnitPoint:
    """The unique unit point after u (within a half-turn) orthogonal to u.

    For a smooth, strictly convex gauge it points along the gradient at u
    turned a quarter turn, (-g_y, g_x), as in `perp_points`.
    """
    _require_smooth(spec)
    up = as_unit_point(spec, u)
    gx, gy = spec.grad(up.x, up.y)
    return natural_param(spec, math.atan2(gx, -gy))


def perp_points(spec: NormSpec, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Birkhoff-orthogonal successors of s(theta) for smooth gauges.

    For a smooth norm the successor direction is the gradient rotated a
    quarter turn; agreement with `birkhoff_successor` is covered by tests.
    """
    _require_smooth(spec)
    sx, sy = unit_points(spec, thetas)
    gx, gy = spec.grad_many(sx, sy)
    n = spec.value_many(-gy, gx)
    return -gy / n, gx / n

