"""Verification lab: midpoint-property checks, partition suites, sweeps.

Aggregates the chord/polygon/area machinery into machine-readable reports:
the midpoint-support checker over sampled seeds, the equal-wedge and
equal-sector suite for closed orbits, the Stieltjes identity residuals of
the chord-frame fields, and the even-gon evidence probe.  Reports carry
deviations rather than bare booleans so near-misses stay visible.
"""

import csv
import functools
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonClosingError, NumericalError
from .norms import TWO_PI, NormSpec, UnitPoint, natural_param, wedge
from .chords import chord_frame, star_map_many
from .polygons import STATUS_CLOSED, RhoPolygon, build_polygon, rho_from_kn
from .areas import DEFAULT_SAMPLES, sector_area, total_ball_area

DEFAULT_CHECK_SAMPLES = 256
MAX_CHECK_SAMPLES = 65536
DEFAULT_CHECK_TOL = 1e-8
MATCH_TOL = 1e-6

_AXIS_ANGLES = tuple(j * math.pi / 4.0 for j in range(8))


@dataclass(frozen=True)
class PropertyReport:
    """Aggregate midpoint-support verdict over sampled supporting chords."""

    spec_id: str
    rho: float
    samples: int
    max_midpoint_deviation: float
    worst_theta: float
    passed: bool
    tol: float
    notes: str

    def to_dict(self) -> dict:
        return {
            "spec": self.spec_id,
            "rho": self.rho,
            "samples": self.samples,
            "max_dev": self.max_midpoint_deviation,
            "worst_theta": self.worst_theta,
            "pass": self.passed,
            "tol": self.tol,
            "notes": self.notes,
        }


@dataclass(frozen=True)
class SectorPartition:
    """Ball partition by the interleaved vertices of two antipodal orbits."""

    rho: float
    boundary: list[UnitPoint]   # sorted by angle
    areas: list[float]
    spread: float


@dataclass(frozen=True)
class PartitionSuiteReport:
    """Verdicts of the equal-wedge / equal-sector suite for one closed orbit."""

    spec_id: str
    rho: float
    seed_theta: float
    n: int
    k: int
    wedge_spread: float
    sector_areas: list[float]
    sector_spread: float
    sector_sum: float           # equals k * ball_area for a winding-k orbit
    partition: SectorPartition
    partition_sum: float
    ball_area: float
    midpoint_vertex_defect: float  # vertices of P_w vs (v_i + v_{i+1})/(2 rho)
    pw_identity: str            # which orbit P_w reproduced: "P_v" or "P_-v"
    pw_match_dist: float
    notes: str


@dataclass(frozen=True)
class EvenProbeRecord:
    """Evidence record for even vertex counts; spread is reported, not judged."""

    spec_id: str
    k: int
    n: int
    rho: float
    seed_theta: float
    pv_status: str
    pv_vertices: int
    antipodal_match_dist: float | None
    pw_status: str
    w_seed_defect: float | None
    pv_pw_min_dist: float | None
    sector_count: int | None
    sector_spread: float | None
    sector_sum: float | None
    ball_area: float
    notes: str


def check_midpoint_property(spec: NormSpec, rho: float,
                            samples: int = DEFAULT_CHECK_SAMPLES,
                            tol: float = DEFAULT_CHECK_TOL) -> PropertyReport:
    """Max deviation |gauge(midpoint) - rho| over sampled supporting chords.

    Seeds form a uniform angle grid plus the eight axis/diagonal angles, so
    corner-adjacent chords of polygonal gauges are never missed; all of
    them are solved at once by `star_map_many`, in the spec's round frame,
    where the deviation is measured.  Solver failures are recorded per-seed
    in the notes instead of aborting; when every seed fails, NumericalError
    is raised rather than a vacuous report.  The worst seed is the first
    maximum in theta order.
    """
    return _check_cells(spec, [rho], samples, tol)[0]


def _check_cells(spec, rhos, samples, tol) -> list[PropertyReport]:
    """`check_midpoint_property` of spec at each rho, in as few `star_map_many` as memory allows.

    Each seed takes the steps it takes alone, so each report is the one
    its cell gives alone; the first cell whose every seed fails raises.
    Cells are batched up to MAX_CHECK_SAMPLES seeds per star map, so a
    sweep's memory stays that of its largest check.
    """
    if not 8 <= samples <= MAX_CHECK_SAMPLES:
        raise DomainError(f"samples must lie in [8, {MAX_CHECK_SAMPLES}], got {samples}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise DomainError(f"tol must be a finite real >= 0, got {tol!r}")
    thetas = _seed_grid(samples)
    n = len(thetas)
    per_map = max(1, MAX_CHECK_SAMPLES // n)  # no star map holds more seeds than one check may
    reports = []
    for k in range(0, len(rhos), per_map):
        batch = rhos[k:k + per_map]
        frame, ux, uy, vx, vy, errors = star_map_many(
            spec, np.tile(thetas, len(batch)), np.repeat(np.asarray(batch, dtype=float), n))
        mids = frame.value_many(0.5 * (ux + vx), 0.5 * (uy + vy))
        for j, rho in enumerate(batch):
            cell = range(j * n, (j + 1) * n)
            failed = [i - cell.start for i in errors if i in cell]
            failures = [f"theta={thetas[i]:.6f}: {errors[cell.start + i]}" for i in failed]
            dev = np.fmax(np.abs(mids[cell.start:cell.stop] - rho), -1.0)
            dev[failed] = -1.0  # a failed seed, like a NaN deviation, is never the worst
            i = int(np.argmax(dev))  # the first maximum in theta order
            worst = float(dev[i])
            if worst < 0.0:  # every seed failed: never report a vacuous pass
                first = failures[0] if failures else "no finite deviation"
                raise NumericalError(f"{len(failures)} of {n} seeds failed; first {first}")
            reports.append(PropertyReport(spec.spec_id, rho, n, worst, float(thetas[i]),
                                          worst <= tol, tol, "; ".join(failures)))
    return reports


@functools.lru_cache(maxsize=8)
def _seed_grid(samples):
    """The sorted seed angles of a check at `samples`, read-only: the uniform grid and the axes."""
    thetas = np.sort(np.concatenate((TWO_PI * np.arange(samples) / samples, _AXIS_ANGLES)))
    thetas = thetas[np.append(True, thetas[1:] != thetas[:-1])]  # np.unique imports numpy.ma
    thetas.flags.writeable = False
    return thetas


def _closed_or_raise(spec, seed, rho, what) -> RhoPolygon:
    poly = build_polygon(spec, seed, rho)
    if poly.status != STATUS_CLOSED:
        raise NonClosingError(
            f"{what} did not close within {poly.steps} steps on {spec.spec_id} "
            f"(rho={rho}); accumulation points: {poly.accumulation_points}")
    return poly


def _consecutive_sectors(spec, vertices) -> list[float]:
    out = []
    for i, a in enumerate(vertices):
        b = vertices[(i + 1) % len(vertices)]
        gap = (b.theta - a.theta) % TWO_PI
        out.append(sector_area(spec, a.theta, a.theta + gap).value)
    return out


def _set_distance(points_a, points_b) -> float:
    """max over a of min over b of Euclidean vertex distance."""
    return max(min(math.hypot(a.x - b.x, a.y - b.y) for b in points_b)
               for a in points_a)


def _partition(spec, vertices, rho) -> SectorPartition:
    boundary = sorted(vertices, key=lambda p: p.theta)
    areas = _consecutive_sectors(spec, boundary)
    return SectorPartition(rho, boundary, areas, max(areas) - min(areas))


def sector_partition_suite(spec: NormSpec, rho: float,
                           seed_theta: float) -> PartitionSuiteReport:
    """Equal-wedge, equal-sector and 2n-partition checks for a closed orbit.

    Builds the orbit of the seed, its antipodal orbit, and the orbit of the
    chord midpoint w = (v1 + v2)/(2 rho); reports the spreads plus which of
    the two seed orbits the midpoint orbit reproduces (alternation by the
    parity of the winding number).
    """
    seed = natural_param(spec, seed_theta)
    pv = _closed_or_raise(spec, seed, rho, "seed orbit")
    vs = pv.vertices
    n = pv.n

    wedges = [wedge(vs[i], vs[(i + 1) % n]) for i in range(n)]
    sectors = _consecutive_sectors(spec, vs)

    neg = _closed_or_raise(spec, vs[0].negated(), rho, "antipodal orbit")
    partition = _partition(spec, vs + neg.vertices, rho)

    wx = (vs[0].x + vs[1].x) / (2.0 * rho)
    wy = (vs[0].y + vs[1].y) / (2.0 * rho)
    w_seed = natural_param(spec, math.atan2(wy, wx))
    pw = _closed_or_raise(spec, w_seed, rho, "midpoint orbit")
    w_formula = [((vs[i].x + vs[(i + 1) % n].x) / (2.0 * rho),
                  (vs[i].y + vs[(i + 1) % n].y) / (2.0 * rho)) for i in range(n)]
    midpoint_defect = max(
        min(math.hypot(px - b.x, py - b.y) for b in pw.vertices)
        for px, py in w_formula)

    dist_v = _set_distance(pw.vertices, vs)
    dist_neg = _set_distance(pw.vertices, neg.vertices)
    if dist_v <= dist_neg:
        identity, match = "P_v", dist_v
    else:
        identity, match = "P_-v", dist_neg
    notes = "" if match <= MATCH_TOL else (
        f"midpoint orbit matches neither seed orbit within {MATCH_TOL}")

    ball = total_ball_area(spec)
    return PartitionSuiteReport(
        spec.spec_id, rho, seed.theta, n, pv.k,
        max(wedges) - min(wedges), sectors, max(sectors) - min(sectors),
        sum(sectors), partition, sum(partition.areas), ball,
        midpoint_defect, identity, match, notes)


def frame_identities(spec: NormSpec, rho: float, alpha: float,
                     beta: float) -> tuple[float, float, float]:
    """Residuals of the three Stieltjes identities over chord-frame fields.

    With f = mu * s_perp the identities are: integral f ^ ds = 0, and the
    integration-by-parts forms of s ^ d(s_perp) and s ^ d(f) against their
    boundary terms.  Sums are trapezoid-tagged Stieltjes (shoelace-style)
    over DEFAULT_SAMPLES equal steps of [alpha, beta]; on norms with the
    midpoint-support property the summands cancel pointwise, so residuals
    measure defects of the frame fields themselves.
    """
    if not alpha < beta <= alpha + TWO_PI + 1e-12:
        raise DomainError(f"need alpha < beta <= alpha + 2*pi, got [{alpha}, {beta}]")
    thetas = np.linspace(alpha, beta, DEFAULT_SAMPLES + 1)
    frames = [chord_frame(spec, theta, rho) for theta in thetas]
    sx, sy, tx, ty, mu = np.array([(*f.base.coords, *f.perp.coords, f.mu) for f in frames]).T
    fx, fy = mu * tx, mu * ty

    def stieltjes(ax, ay, bx, by):
        return float(np.sum(0.5 * ((ax[:-1] + ax[1:]) * (by[1:] - by[:-1])
                                   - (ay[:-1] + ay[1:]) * (bx[1:] - bx[:-1]))))

    def boundary(ax, ay, bx, by):
        return (ax[-1] * by[-1] - ay[-1] * bx[-1]) - (ax[0] * by[0] - ay[0] * bx[0])

    r1 = stieltjes(fx, fy, sx, sy)
    r2 = stieltjes(sx, sy, tx, ty) - boundary(sx, sy, tx, ty)
    r3 = stieltjes(sx, sy, fx, fy) - boundary(sx, sy, fx, fy)
    return abs(r1), abs(r2), abs(r3)


def even_probe(spec: NormSpec, k: int, n: int, seed_theta: float) -> EvenProbeRecord:
    """Evidence for the open even-n case: symmetry facts plus sector spread.

    Verifies the provable parts (the seed orbit equals its antipodal orbit,
    and stays disjoint from the midpoint orbit) and measures whether the 2n
    combined vertices cut the ball into equal sectors, recording the spread
    without asserting a verdict.
    """
    if n % 2 != 0:
        raise DomainError(f"even probe needs an even vertex count, got n={n}")
    rho = rho_from_kn(k, n)
    ball = total_ball_area(spec)
    notes = []

    pv = build_polygon(spec, natural_param(spec, seed_theta), rho)
    if pv.status != STATUS_CLOSED:
        return EvenProbeRecord(spec.spec_id, k, n, rho, seed_theta, pv.status,
                               len(pv.vertices), None, "not_built", None,
                               None, None, None, None, ball,
                               "seed orbit did not close")
    anti = _set_distance(pv.vertices, [v.negated() for v in pv.vertices])

    wx = (pv.vertices[0].x + pv.vertices[1].x) / (2.0 * rho)
    wy = (pv.vertices[0].y + pv.vertices[1].y) / (2.0 * rho)
    w_defect = abs(spec.value(wx, wy) - 1.0)
    pw = build_polygon(spec, natural_param(spec, math.atan2(wy, wx)), rho)
    if pw.status != STATUS_CLOSED:
        return EvenProbeRecord(spec.spec_id, k, n, rho, seed_theta, pv.status,
                               pv.n, anti, pw.status, w_defect, None, None,
                               None, None, ball, "midpoint orbit did not close")
    if w_defect > 1e-9:
        notes.append(f"midpoint seed off the unit circle by {w_defect:.3e}")

    disjoint = min(min(math.hypot(a.x - b.x, a.y - b.y) for b in pw.vertices)
                   for a in pv.vertices)
    part = _partition(spec, pv.vertices + pw.vertices, rho)
    return EvenProbeRecord(spec.spec_id, k, n, rho, seed_theta,
                           pv.status, pv.n, anti, pw.status, w_defect,
                           disjoint, len(part.areas), part.spread,
                           sum(part.areas), ball, "; ".join(notes))


def sweep(specs: list[NormSpec], rhos: list[float],
          samples: int = DEFAULT_CHECK_SAMPLES,
          tol: float = DEFAULT_CHECK_TOL) -> list[PropertyReport]:
    """Midpoint-property reports for every (spec, rho) cell, spec-major; errors are raised."""
    if not specs or not rhos:
        raise DomainError("sweep needs at least one spec and one rho")
    return [report for spec in specs for report in _check_cells(spec, rhos, samples, tol)]


def sweep_to_csv(reports: list[PropertyReport], comment: str | None = None) -> str:
    """Deterministic CSV, one row per cell: spec,rho,samples,max_dev,worst_theta,pass."""
    out = io.StringIO()
    if comment is not None:
        out.write("# " + comment + "\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["spec", "rho", "samples", "max_dev", "worst_theta", "pass"])
    for r in reports:
        writer.writerow([r.spec_id, repr(r.rho), r.samples,
                         repr(r.max_midpoint_deviation), repr(r.worst_theta),
                         "true" if r.passed else "false"])
    return out.getvalue()

