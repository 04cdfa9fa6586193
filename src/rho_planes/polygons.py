"""Star-map orbits: closure detection, winding numbers, accumulation sets.

Iterating the star map from a seed produces the inscribed polygon that is
circumscribed about rho*S.  Orbits either close after n steps with winding
number k, or keep running; a numerical orbit can only ever witness
"did not close within the step budget", never density, and is labeled
accordingly.
"""

import math
from dataclasses import dataclass, field

from .errors import ClassificationError, DomainError
from .chords import star_map
from .norms import TWO_PI, NormSpec, UnitPoint, as_unit_point, wedge

DEFAULT_MAX_STEPS = 2000
DEFAULT_CLOSE_TOL = 1e-8

STATUS_CLOSED = "closed"
STATUS_NON_CLOSING = "non_closing"


@dataclass(frozen=True)
class ClosureRatio:
    """An odd-gon closure ratio sqrt((1 + cos(2*k*pi/n)) / 2) with n = 2m+1."""

    k: int
    m: int
    n: int
    rho: float


@dataclass(frozen=True)
class PolygonClass:
    kind: str  # "convex" or "star_shaped"
    k: int


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


def closure_ratios(m_max: int) -> list[ClosureRatio]:
    """All odd-gon closure ratios with m <= m_max, sorted by rho descending.

    Distinct (k, m) pairs are kept as separate entries even when their
    ratios coincide numerically.
    """
    if m_max < 1:
        raise DomainError(f"m_max must be >= 1, got {m_max}")
    entries = [ClosureRatio(k, m, 2 * m + 1, rho_from_kn(k, 2 * m + 1))
               for m in range(1, m_max + 1) for k in range(1, m + 1)]
    entries.sort(key=lambda e: (-e.rho, e.m, e.k))
    return entries


def build_polygon(spec: NormSpec, u, rho: float, max_steps: int = DEFAULT_MAX_STEPS,
                  close_tol: float = DEFAULT_CLOSE_TOL) -> RhoPolygon:
    """Iterate the star map until the orbit returns to its seed or the budget ends.

    Closure requires the candidate vertex n+1 within close_tol of the seed
    with n >= 3, and is re-verified by walking a second lap: a near-miss of
    an almost-periodic orbit doubles its defect on the second lap, while a
    true closure stays at solver-noise level.

    For a non-closing orbit the accumulation set is estimated by a fixed-
    radius single-linkage pass over the final 20% of vertices.  The radius,
    max(10*close_tol, 1e-5), must exceed the spacing of consecutive returns,
    which for orbits attracted to a gauge corner shrinks only algebraically;
    1e-5 covers the slowest tails seen at the default step budget.
    """
    if max_steps < 3:
        raise DomainError(f"max_steps must be >= 3, got {max_steps}")
    seed = as_unit_point(spec, u)
    verts = [seed]
    turning = 0.0
    steps = 0
    candidate = None  # (n, turning at first lap, closure error)

    while steps < max_steps:
        nxt = star_map(spec, verts[-1], rho)
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
    clusters = _cluster(tail, max(10.0 * close_tol, 1e-5))
    return RhoPolygon(rho, verts, STATUS_NON_CLOSING, turning, steps,
                      accumulation_points=clusters)


def _cluster(points: list[UnitPoint], radius: float) -> list[tuple[float, float]]:
    """Fixed-radius single-linkage pass; returns cluster centroids by angle."""
    clusters: list[list[UnitPoint]] = []
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
        centroids.append((cx, cy))
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


def classify(poly: RhoPolygon) -> PolygonClass:
    """Convex for winding 1, star-shaped for winding >= 2."""
    if poly.status != STATUS_CLOSED:
        raise ClassificationError("only closed polygons can be classified")
    return PolygonClass("convex" if poly.k == 1 else "star_shaped", poly.k)


def wedge_sum(poly: RhoPolygon) -> float:
    """Cyclic sum of consecutive vertex wedges of a closed polygon."""
    if poly.status != STATUS_CLOSED:
        raise DomainError("wedge sum is defined for closed polygons only")
    vs = poly.vertices
    return sum(wedge(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs)))
