"""The one-dimensional root finder used throughout the library.

It is deterministic: pure IEEE-754 arithmetic, no adaptive stopping based
on timing or iteration noise.
"""

MAX_ITERS = 120


def illinois_root(f, a: float, b: float, fa: float, fb: float,
                  xtol: float = 1e-15) -> float:
    """Root of a (possibly discontinuous) sign-changing f on [a, b].

    Regula falsi with the Illinois weighting, guarded so each step stays
    inside the bracket; falls back to bisection whenever the secant point
    degenerates.  Requires fa < 0 < fb.
    """
    side = 0
    for _ in range(MAX_ITERS):
        denom = fb - fa
        x = 0.5 * (a + b) if denom == 0.0 else b - fb * (b - a) / denom
        if not a < x < b:
            x = 0.5 * (a + b)
        if x <= a or x >= b:
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
