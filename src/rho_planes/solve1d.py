"""The one-dimensional root finder used throughout the library.

It is deterministic: pure IEEE-754 arithmetic, no adaptive stopping based
on timing or iteration noise.  `illinois_root_many` runs the same steps
element by element on arrays.
"""

import math

import numpy as np

MAX_ITERS = 120
XTOL = 1e-15


def illinois_root(f, a: float, b: float, fa: float, fb: float,
                  xtol: float = XTOL) -> float:
    """Root of a (possibly discontinuous) sign-changing f on [a, b].

    Regula falsi with the Illinois weighting.  A secant point that rounds
    onto (or past) an end of the bracket moves one float inside it, so a
    root the secant has found is not bisected down to the far end; when
    the same end was nudged on the step before, or the secant point is NaN
    or its denominator zero, the step bisects instead.  Requires
    fa < 0 < fb.
    """
    side = nudged = 0
    for _ in range(MAX_ITERS):
        denom = fb - fa
        x = 0.5 * (a + b) if denom == 0.0 else b - fb * (b - a) / denom
        if x != x:
            x = 0.5 * (a + b)
        end = -1 if x <= a else 1 if x >= b else 0
        if end != 0 and end == nudged:
            x, end = 0.5 * (a + b), 0
        elif end == -1:
            x = math.nextafter(a, b)
        elif end == 1:
            x = math.nextafter(b, a)
        nudged = end
        if x <= a or x >= b:  # a and b are neighbouring floats
            break
        fx = f(x)
        if fx == 0.0:
            return x
        if fx < 0.0:
            a, fa = x, fx
            if side == -1:
                fb *= 0.5
            side = -1
        else:
            b, fb = x, fx
            if side == 1:
                fa *= 0.5
            side = 1
        if b - a <= xtol:
            break
    return 0.5 * (a + b)


def illinois_root_many(f, a, b, fa, fb) -> np.ndarray:
    """`illinois_root` with `xtol=XTOL` on each element of the bracket arrays.

    Every element takes the steps the scalar root takes on it.  After each
    step only the elements still running are kept, and f(x, idx) is called
    with their points x and their indices idx into the input arrays.
    """
    a, b, fa, fb = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, fa, fb)))
    out = np.empty_like(a)
    idx = np.arange(a.size)
    side = np.zeros(a.size, dtype=int)
    lo_nudged = hi_nudged = np.zeros(a.size, dtype=bool)
    for _ in range(MAX_ITERS):
        mid = 0.5 * (a + b)
        denom = fb - fa
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x = b - fb * (b - a) / denom
        x = np.where((denom == 0.0) | np.isnan(x), mid, x)
        lo, hi = x <= a, x >= b
        x = np.minimum(np.maximum(x, np.nextafter(a, b)), np.nextafter(b, a))
        again = (lo & lo_nudged) | (hi & hi_nudged)  # a second nudge of one end bisects
        if again.any():
            x = np.where(again, mid, x)
            lo, hi = lo & ~again, hi & ~again
        lo_nudged, hi_nudged = lo, hi
        stuck = (x <= a) | (x >= b)  # a and b are neighbouring floats
        if stuck.any():
            out[idx[stuck]] = mid[stuck]
            a, b, fa, fb, side, lo_nudged, hi_nudged, idx, x = (
                v[~stuck] for v in (a, b, fa, fb, side, lo_nudged, hi_nudged, idx, x))
            if idx.size == 0:
                return out
        fx = f(x, idx)
        low = fx < 0.0
        moved = np.where(low, -1, 1)
        repeat = side == moved  # the same end moves twice running: halve the other's value
        a, fa = np.where(low, x, a), np.where(low, fx, np.where(repeat, 0.5 * fa, fa))
        b, fb = np.where(low, b, x), np.where(low, np.where(repeat, 0.5 * fb, fb), fx)
        side = moved
        hit = fx == 0.0
        done = hit | (b - a <= XTOL)
        if done.any():
            out[idx[done]] = np.where(hit, x, 0.5 * (a + b))[done]
            a, b, fa, fb, side, lo_nudged, hi_nudged, idx = (
                v[~done] for v in (a, b, fa, fb, side, lo_nudged, hi_nudged, idx))
            if idx.size == 0:
                return out
    out[idx] = 0.5 * (a + b)
    return out
