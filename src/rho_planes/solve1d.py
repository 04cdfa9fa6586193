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
                  guess: float | None = None) -> float:
    """Root of a (possibly discontinuous) sign-changing f on [a, b].

    Regula falsi with the Illinois weighting.  A secant point that rounds
    onto (or past) an end of the bracket moves one float inside it, so a
    root the secant has found is not bisected down to the far end; when
    the same end was nudged on the step before, or the secant point is NaN
    or its denominator zero, the step bisects instead.  A `guess` strictly
    inside the bracket is evaluated in place of the first secant point;
    every later step is the same.  Requires fa < 0 < fb.
    """
    side = nudged = 0
    for _ in range(MAX_ITERS):
        denom = fb - fa
        x = 0.5 * (a + b) if denom == 0.0 else b - fb * (b - a) / denom
        if guess is not None and a < guess < b:
            x = guess
        guess = None
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
        if b - a <= XTOL:
            break
    return 0.5 * (a + b)


def illinois_root_many(f, a, b, fa, fb, guess=None) -> np.ndarray:
    """`illinois_root` on each element of the bracket arrays.

    Every element takes the steps the scalar root takes on it, with its
    element of `guess`.  After each step only the elements still running
    are kept, and f(x, idx) is called with their points x and their
    indices idx into the input arrays.  The bracket is updated in place,
    and the end nudges are worked out only on steps where a secant point
    lands on an end.  A degenerate bracket's secant point is NaN or
    infinite, and bisected: the loop runs in one numpy error state that
    ignores division by zero, invalid operations and overflow, and f runs
    inside it, so f's own warnings of those kinds are silenced too.
    """
    shape = np.broadcast(a, b, fa, fb).shape
    a, b, fa, fb = (np.full(shape, v, dtype=float) for v in (a, b, fa, fb))
    out = np.empty_like(a)
    if out.size == 0:
        return out
    idx = np.arange(a.size)
    low = np.full(a.size, -1, dtype=np.int8)  # whether a moved last step; neither at first
    nudged = None  # (lo, hi): the ends nudged last step, None when none was
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(MAX_ITERS):
            denom = fb - fa
            x = b - fb * (b - a) / denom
            if guess is not None:
                np.copyto(x, guess, where=(a < guess) & (guess < b))
                guess = None
            inside = (a < x) & (x < b)
            if np.count_nonzero(inside) < x.size:
                mid = 0.5 * (a + b)  # for a NaN secant point or a zero denominator, not a guess
                np.copyto(x, mid, where=(np.isnan(x) | (denom == 0.0)) & ~inside)
                lo, hi = x <= a, x >= b
                if nudged is not None:  # a second nudge of one end bisects
                    again = (lo & nudged[0]) | (hi & nudged[1])
                    np.copyto(x, mid, where=again)
                    lo, hi = lo & ~again, hi & ~again
                np.copyto(x, np.nextafter(a, b), where=lo)
                np.copyto(x, np.nextafter(b, a), where=hi)
                stuck = (x <= a) | (x >= b)  # a and b are neighbouring floats
                if np.count_nonzero(stuck):
                    out[idx[stuck]] = mid[stuck]
                    keep = (~stuck).nonzero()[0]
                    if keep.size == 0:
                        return out
                    a, b, fa, fb, idx = a[keep], b[keep], fa[keep], fb[keep], idx[keep]
                    x, low, lo, hi = x[keep], low[keep], lo[keep], hi[keep]
                nudged = lo, hi
            else:
                nudged = None
            fx = f(x, idx)
            now_low = fx < 0.0
            # the same end moves twice running: halve the other end's value
            # (both are halved; the moving end's value is replaced below)
            repeat = now_low == low
            np.multiply(fa, 0.5, out=fa, where=repeat)
            np.multiply(fb, 0.5, out=fb, where=repeat)
            low, high = now_low, ~now_low
            np.copyto(a, x, where=low)
            np.copyto(fa, fx, where=low)
            np.copyto(b, x, where=high)
            np.copyto(fb, fx, where=high)
            hit = fx == 0.0
            done = hit | (b - a <= XTOL)
            if np.count_nonzero(done):
                r = 0.5 * (a + b)
                np.copyto(r, x, where=hit)
                out[idx[done]] = r[done]
                keep = (~done).nonzero()[0]
                if keep.size == 0:
                    return out
                a, b, fa, fb, idx, low = a[keep], b[keep], fa[keep], fb[keep], idx[keep], low[keep]
                if nudged is not None:
                    nudged = nudged[0][keep], nudged[1][keep]
    out[idx] = 0.5 * (a + b)
    return out
