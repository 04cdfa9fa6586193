"""The root finder: scalar and array forms, and their evaluation counts."""

import math

import numpy as np
import pytest

from rho_planes import NormSpec, natural_param
from rho_planes.solve1d import illinois_root, illinois_root_many

from conftest import check_seeds


def _cubic(x, c):
    return x * x * x - c


def _step(x, c):
    return np.where(x >= c, 1.0, -1.0) if isinstance(x, np.ndarray) else (
        1.0 if x >= c else -1.0)


def _tiny_step(x, c):
    # the secant rounds onto the right end again and again: one-float steps
    # alone would crawl, so a second nudge of the same end bisects
    return np.where(x >= c, 1e-300, -1.0) if isinstance(x, np.ndarray) else (
        1e-300 if x >= c else -1.0)


@pytest.mark.parametrize("g", [_cubic, _step, _tiny_step], ids=["cubic", "step", "tiny-step"])
def test_array_root_takes_the_scalar_steps(g):
    # + - * / are the same IEEE operations in numpy and in Python floats, so
    # each element must give the scalar root bit for bit after as many calls
    cs = np.random.default_rng(5).uniform(-8.0, 8.0, 300)
    fa = np.array([g(-3.0, c) for c in cs])
    fb = np.array([g(3.0, c) for c in cs])
    roots, counts = [], []
    for c, lo, hi in zip(cs, fa, fb):
        calls = [0]

        def f(x, c=c):
            calls[0] += 1
            return g(x, c)

        roots.append(illinois_root(f, -3.0, 3.0, float(lo), float(hi)))
        counts.append(calls[0])
    many_counts = np.zeros(cs.size, dtype=int)

    def f_many(x, idx):
        np.add.at(many_counts, idx, 1)
        return g(x, cs[idx])

    many = illinois_root_many(f_many, -3.0, 3.0, fa, fb)
    assert many.tolist() == roots
    assert many_counts.tolist() == counts
    if g is not _cubic:  # a step inside the bracket is found to within xtol
        inside = np.abs(cs) < 3.0
        assert np.all(np.abs(many - cs)[inside] <= 1e-14)


def test_pairing_root_stops_once_the_secant_has_found_it():
    """The Euclidean pairing root of the star map takes few evaluations.

    A secant point that rounds onto an end of the bracket used to fall back
    to bisection, which took up to 41 evaluations here; one float inside is
    enough.
    """
    spec, rho = NormSpec.euclidean(), 0.3
    for theta in check_seeds(256):
        ux, uy = natural_param(spec, theta).coords
        calls = [0]

        def pairing(phi, ux=ux, uy=uy):
            calls[0] += 1
            gx, gy = spec.grad(math.cos(phi), math.sin(phi))
            return rho - (gx * ux + gy * uy)

        phi = illinois_root(pairing, theta, theta + math.pi, rho - 1.0, rho + 1.0)
        assert calls[0] <= 12, theta
        assert pairing(math.nextafter(phi, -math.inf)) <= 0.0 <= pairing(
            math.nextafter(phi, math.inf)), theta

    thetas = np.array(check_seeds(256))
    ux, uy = np.cos(thetas), np.sin(thetas)
    counts = np.zeros(thetas.size, dtype=int)

    def pairing_many(phi, idx):
        np.add.at(counts, idx, 1)
        gx, gy = spec.grad_many(np.cos(phi), np.sin(phi))
        return rho - (gx * ux[idx] + gy * uy[idx])

    illinois_root_many(pairing_many, thetas, thetas + math.pi, rho - 1.0, rho + 1.0)
    assert counts.max() <= 12

