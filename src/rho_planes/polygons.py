"""Star-map orbits: closure detection, winding numbers, accumulation sets.

Iterating the star map from a seed produces the inscribed polygon that is
circumscribed about rho*S.  Orbits either close after n steps with winding
number k, or keep running; a numerical orbit can only ever witness
"did not close within the step budget", never density, and is labeled
accordingly.
"""

import math
from dataclasses import dataclass, field

from .errors import DomainError
from .chords import star_map
from .norms import TWO_PI, NormSpec, UnitPoint, as_unit_point

DEFAULT_MAX_STEPS = 2000
# At most one star map per step, all held in memory: 100000 steps that never
# recur take about 4 s and write about 7 MB of JSON.
MAX_STEPS = 100_000
DEFAULT_CLOSE_TOL = 1e-8

STATUS_CLOSED = "closed"
STATUS_NON_CLOSING = "non_closing"


@dataclass(frozen=True)
class RhoPolygon:
    """Orbit of the star map from a seed vertex.

    For a closed orbit `vertices` holds the n distinct vertices in order;
    for a non-closing one it holds the full walk so the accumulation
    structure of the tail stays inspectable.
    """

    rho: float
    vertices: list[UnitPoint]
    status: str
    total_turning: float
    steps: int
    n: int | None = None
    k: int | None = None
    coprime: bool | None = None
    closure_error: float | None = None
    accumulation_points: list[tuple[float, float]] = field(default_factory=list)


def rho_from_kn(k: int, n: int) -> float:
    """Closure ratio sqrt((1 + cos(2*k*pi/n)) / 2) = cos(k*pi/n)."""
    k, n = int(k), int(n)
    if k < 1 or n < 3 or 2 * k >= n:
        raise DomainError(f"need 1 <= k and 2k < n with n >= 3, got k={k}, n={n}")
    return math.sqrt((1.0 + math.cos(2.0 * math.pi * k / n)) / 2.0)


def build_polygon(spec: NormSpec, u, rho: float, max_steps: int = DEFAULT_MAX_STEPS,
                  close_tol: float = DEFAULT_CLOSE_TOL) -> RhoPolygon:
    """Iterate the star map until the orbit returns to its seed or the budget ends.

    Closure requires the candidate vertex n+1 within close_tol of the seed
    with n >= 3, and is re-verified by walking a second lap: a near-miss of
    an almost-periodic orbit doubles its defect on the second lap, while a
    true closure stays at solver-noise level.

    Once the map returns a theta it returned before, the walk replays the
    cycle since then: each vertex after the seed is natural_param(theta),
    and star_map is a pure function of it, so the replay is exact.  The
    seed, whose coordinates need not be natural_param(theta), is left out.

    For a non-closing orbit the accumulation points are estimated from the
    final 20% of vertices.  These lie on S, a convex closed curve, so sorted
    by angle they come in curve order: one pass cuts them where neighbours
    are more than the radius apart, joins the last run to the first across
    theta = 0, and returns each run's centroid (summed in walk order), scaled
    onto S if the run has more than one point: an arc averages to inside S.
    The radius, max(10*close_tol, 1e-5), must exceed the spacing of consecutive
    returns, which for orbits attracted to a gauge corner shrinks only
    algebraically; 1e-5 covers the slowest tails seen at the default budget.
    """
    if max_steps < 3:
        raise DomainError(f"max_steps must be >= 3, got {max_steps}")
    if max_steps > MAX_STEPS:
        raise DomainError(f"max_steps must be <= {MAX_STEPS}, got {max_steps}")
    if not (math.isfinite(close_tol) and close_tol >= 0.0):
        raise DomainError(f"close_tol must be a finite real >= 0, got {close_tol!r}")
    seed = as_unit_point(spec, u)
    verts = [seed]
    turning = 0.0
    steps = 0
    candidate = None  # (n, turning at first lap, closure error)
    seen = {}  # theta -> index of each vertex the map made
    period = 0  # the cycle length, once a theta recurs

    while steps < max_steps:
        if period:
            nxt = verts[-period]
        else:
            nxt = star_map(spec, verts[-1], rho)
            period = len(verts) - seen.setdefault(nxt.theta, len(verts))
        steps += 1
        turning += (nxt.theta - verts[-1].theta) % TWO_PI
        err = math.hypot(nxt.x - seed.x, nxt.y - seed.y)
        if err <= close_tol and len(verts) >= 3:
            if candidate is None:
                candidate = (len(verts), turning, err)
            elif len(verts) == 2 * candidate[0]:
                n, lap_turning, lap_err = candidate
                k = round(lap_turning / TWO_PI)
                return RhoPolygon(rho, verts[:n], STATUS_CLOSED, lap_turning,
                                  steps, n=n, k=k, coprime=math.gcd(n, k) == 1,
                                  closure_error=max(lap_err, err))
        elif candidate is not None and len(verts) == 2 * candidate[0]:
            candidate = None  # second lap drifted away: not a closure
        verts.append(nxt)

    tail = verts[int(0.8 * len(verts)):]
    clusters = _cluster(spec, tail, max(10.0 * close_tol, 1e-5))
    return RhoPolygon(rho, verts, STATUS_NON_CLOSING, turning, steps,
                      accumulation_points=clusters)


def _cluster(spec: NormSpec, points: list[UnitPoint], radius: float) -> list[tuple[float, float]]:
    """Centroids on S, by angle, of the runs of angle-neighbours within radius."""
    order = sorted(range(len(points)), key=lambda i: points[i].theta)
    label = [0] * len(points)
    for prev, i in zip(order, order[1:]):
        label[i] = label[prev] + (math.dist(points[prev].coords, points[i].coords) > radius)
    count = label[order[-1]] + 1
    if count > 1 and math.dist(points[order[-1]].coords, points[order[0]].coords) <= radius:
        count -= 1  # the last run meets the first across theta = 0
    groups: list[list[UnitPoint]] = [[] for _ in range(count)]
    for p, g in zip(points, label):
        groups[g % count].append(p)
    centroids = []
    for c in groups:
        x, y = sum(q.x for q in c) / len(c), sum(q.y for q in c) / len(c)
        if len(c) > 1:
            n = spec.value(x, y)
            x, y = x / n, y / n
        centroids.append((x, y))
    centroids.sort(key=lambda q: math.atan2(q[1], q[0]) % TWO_PI)
    return centroids


def polygon_to_dict(poly: RhoPolygon) -> dict:
    """JSON-ready record: {rho, status, n, k, vertices:[(theta,x,y)], turning}."""
    return {
        "rho": poly.rho,
        "status": poly.status,
        "n": poly.n,
        "k": poly.k,
        "vertices": [(v.theta, v.x, v.y) for v in poly.vertices],
        "turning": poly.total_turning,
        "steps": poly.steps,
        "closure_error": poly.closure_error,
        "accumulation_points": poly.accumulation_points,
    }

