"""Sector and cap areas by discretized Stieltjes integration.

Areas are computed as shoelace sums over a uniform angle grid, the exact
discrete analogue of (1/2) * integral of t ^ dt for the inscribed
polyline.  A uniform grid keeps additivity exact at shared grid points;
summation uses numpy's fixed-order pairwise reduction so results are
bit-stable run to run.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .norms import TWO_PI, NormSpec, as_unit_point, unit_points, wedge

DEFAULT_SAMPLES = 4096
MAX_SAMPLES = 2 ** 20


@dataclass(frozen=True)
class SectorArea:
    """Area of the ball sector between two radii, with a refinement error estimate."""

    alpha: float
    beta: float
    value: float
    samples: int
    error_estimate: float


def _shoelace(x: np.ndarray, y: np.ndarray) -> float:
    return 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))


def sector_area(spec: NormSpec, alpha: float, beta: float,
                samples: int = DEFAULT_SAMPLES) -> SectorArea:
    """Area swept from angle alpha to beta (at most one full turn).

    The inscribed-polyline shoelace sum converges at second order; pairing
    it with its half-resolution subsample and extrapolating removes the
    leading error term (fourth order on smooth arcs) while leaving values
    on shared grid points exactly additive.  The error estimate is the
    change from the half-resolution extrapolation.
    """
    alpha, beta = float(alpha), float(beta)
    if not alpha < beta <= alpha + TWO_PI + 1e-12:
        raise DomainError(f"need alpha < beta <= alpha + 2*pi, got [{alpha}, {beta}]")
    samples = int(samples)
    if not 16 <= samples <= MAX_SAMPLES:
        raise DomainError(f"samples must lie in [16, {MAX_SAMPLES}], got {samples}")
    n = samples - samples % 4  # keep the half and quarter grids aligned
    thetas = np.linspace(alpha, beta, n + 1)
    x, y = unit_points(spec, thetas)
    fine = _shoelace(x, y)
    half = _shoelace(x[::2], y[::2])
    quarter = _shoelace(x[::4], y[::4])
    value = fine + (fine - half) / 3.0
    value_half = half + (half - quarter) / 3.0
    estimate = abs(value - value_half)
    # gauge corners inside the range cut the polyline with a phase-dependent
    # error the refinement difference can miss; bound each cut explicitly
    if spec.corner_angles:
        span = beta - alpha
        inside = sum(1 for c in spec.corner_angles if 0.0 < (c - alpha) % TWO_PI < span)
        if inside:
            seg2 = float(np.max(np.diff(x) ** 2 + np.diff(y) ** 2))
            estimate += inside * 0.5 * seg2
    # never claim better than the value's own fp resolution
    floor = 4.0 * np.finfo(float).eps * max(1.0, abs(value))
    return SectorArea(alpha, beta, value, samples, max(estimate, floor))


def cap_area(spec: NormSpec, u, v, samples: int = DEFAULT_SAMPLES) -> float:
    """Area between the chord [u, v] and the arc from u to v (u before v)."""
    up = as_unit_point(spec, u)
    vp = as_unit_point(spec, v)
    w = wedge(up, vp)
    if w <= 0.0:
        raise DomainError("cap area needs u strictly preceding v")
    gap = (vp.theta - up.theta) % TWO_PI
    sector = sector_area(spec, up.theta, up.theta + gap, samples)
    return sector.value - 0.5 * w


def total_ball_area(spec: NormSpec, samples: int = DEFAULT_SAMPLES) -> float:
    """Area of the whole unit ball."""
    return sector_area(spec, 0.0, TWO_PI, samples).value
