"""The root finder: scalar and array forms, and their evaluation counts."""

import math

import numpy as np
import pytest

from rho_planes import NormSpec, chords, natural_param, star_map
from rho_planes.chords import star_map_many
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


def _nan_side(x, c):
    # NaN a little right of the root, so the bracket's right value starts NaN
    # and a NaN value later moves the right end with a NaN secant after it
    d = x - c
    if isinstance(x, np.ndarray):
        return np.where(d <= 0.5, d * (1.0 + d * d), np.nan)
    return d * (1.0 + d * d) if d <= 0.5 else math.nan


def _inf_end(x, c):
    # on [-3, inf], NaN at the infinite end, like the exit root's null step:
    # the first secant point is NaN, the bisection point inf, nudged to the
    # largest float
    if isinstance(x, np.ndarray):
        return np.where(x < math.inf, np.tanh(x - c), np.nan)
    return math.tanh(x - c) if x < math.inf else math.nan


_inf_end.right = math.inf


def _scalar_roots(g, cs, guesses):
    """Each element's `illinois_root` on [g.left, g.right] (default [-3, 3]) and its call count."""
    left, right = getattr(g, "left", -3.0), getattr(g, "right", 3.0)
    roots, counts = [], []
    for c, guess in zip(cs, guesses):
        calls = [0]

        def f(x, c=c):
            calls[0] += 1
            return g(x, c)

        roots.append(illinois_root(f, left, right, g(left, c), g(right, c), guess=guess))
        counts.append(calls[0])
    return roots, counts


def _array_roots(g, cs, guesses):
    """`illinois_root_many` on the same brackets, with per-element evaluation counts."""
    counts = np.zeros(cs.size, dtype=int)

    def f_many(x, idx):
        np.add.at(counts, idx, 1)
        return g(x, cs[idx])

    left, right = getattr(g, "left", -3.0), getattr(g, "right", 3.0)
    fa = np.array([g(left, c) for c in cs])
    fb = np.array([g(right, c) for c in cs])
    return illinois_root_many(f_many, left, right, fa, fb, guess=guesses).tolist(), counts.tolist()


_CS = np.random.default_rng(5).uniform(-8.0, 8.0, 300)
# guesses inside the bracket, on its ends, outside it and NaN
_GUESSES = np.concatenate([np.random.default_rng(6).uniform(-3.0, 3.0, 240),
                           [-3.0, 3.0, -5.0, 5.0, math.nan, math.inf] * 10])


_ROOT_FUNCTIONS = [_cubic, _step, _tiny_step, _nan_side, _inf_end]
_ROOT_IDS = ["cubic", "step", "tiny-step", "nan-side", "inf-end"]


@pytest.mark.parametrize("g", _ROOT_FUNCTIONS, ids=_ROOT_IDS)
def test_array_root_takes_the_scalar_steps(g):
    # + - * / are the same IEEE operations in numpy and in Python floats, so
    # each element must give the scalar root bit for bit after as many calls
    many, many_counts = _array_roots(g, _CS, None)
    assert (many, many_counts) == _scalar_roots(g, _CS, [None] * _CS.size)
    if g is not _cubic:  # a step inside the bracket is found to within XTOL
        inside = np.abs(_CS) < 3.0
        assert np.all(np.abs(np.array(many) - _CS)[inside] <= 1e-14)


@pytest.mark.parametrize("g", _ROOT_FUNCTIONS, ids=_ROOT_IDS)
def test_array_root_takes_the_scalar_steps_from_the_same_guesses(g):
    many, many_counts = _array_roots(g, _CS, _GUESSES)
    assert (many, many_counts) == _scalar_roots(g, _CS, _GUESSES.tolist())
    if g is not _cubic:
        inside = np.abs(_CS) < 3.0
        assert np.all(np.abs(np.array(many) - _CS)[inside] <= 1e-14)


def _coarse(g):
    """g moved to [9, 15], where neighbouring floats lie 1.8e-15 apart, more than XTOL."""
    def moved(x, c):
        return g(x - 12.0, c)

    moved.left, moved.right = 9.0, 15.0
    return moved


@pytest.mark.parametrize("g", _ROOT_FUNCTIONS[:4], ids=_ROOT_IDS[:4])
def test_array_root_takes_the_scalar_steps_where_floats_are_coarser_than_xtol(g):
    # a bracket can close on two neighbouring floats before XTOL: those
    # elements stop at their midpoint while the others run on
    g = _coarse(g)
    for guesses in (None, _GUESSES + 12.0):
        scalar_guesses = [None] * _CS.size if guesses is None else guesses.tolist()
        assert _array_roots(g, _CS, guesses) == _scalar_roots(g, _CS, scalar_guesses)


def test_array_root_takes_a_guess_between_equal_end_values():
    # equal end values give a zero denominator: the secant point is replaced
    # by the midpoint, unless a guess inside the bracket replaces it first
    seen = []

    def f(x, idx):
        seen.append(x.tolist())
        return x - 1.0

    illinois_root_many(f, 0.0, 3.0, [2.0, 2.0], [2.0, 2.0], guess=[2.5, math.nan])
    assert seen[0] == [2.5, 1.5]
    for guess, first in ((2.5, 2.5), (math.nan, 1.5)):
        scalar = []
        illinois_root(lambda x: scalar.append(x) or x - 1.0, 0.0, 3.0, 2.0, 2.0, guess=guess)
        assert scalar[0] == first


@pytest.mark.parametrize("g", [_cubic, _step, _tiny_step], ids=["cubic", "step", "tiny-step"])
@pytest.mark.parametrize("guess", [-3.0, 3.0, -3.5, 7.0, -math.inf, math.inf, math.nan])
def test_a_guess_outside_the_open_bracket_changes_nothing(g, guess):
    roots, counts = _scalar_roots(g, _CS, [None] * _CS.size)
    assert _scalar_roots(g, _CS, [guess] * _CS.size) == (roots, counts)
    assert _array_roots(g, _CS, np.full(_CS.size, guess)) == (roots, counts)
    assert _array_roots(g, _CS, guess) == (roots, counts)


def test_a_guess_is_evaluated_first_and_only_first():
    seen = []

    def f(x):
        seen.append(x)
        return x - 1.0

    assert illinois_root(f, 0.0, 3.0, -1.0, 2.0, guess=1.0) == 1.0
    assert seen == [1.0]
    seen.clear()
    illinois_root(f, 0.0, 3.0, -1.0, 2.0, guess=2.5)
    assert seen[0] == 2.5 and 2.5 not in seen[1:]


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


STAR_RHOS = (0.05, 0.3, 0.5, math.cos(math.pi / 5), 0.98)


def _star_map_evals(monkeypatch, spec, guessed, scalar=False):
    """Pairing plus exit root evaluations of the star map per seed and rho.

    The array map `star_map_many` runs on the `check` seeds at 256
    samples, or with `scalar` the scalar `star_map` on each of them.  With
    `guessed` false the roots drop the star map's guesses and start from
    the plain secant.
    """
    thetas = np.array(check_seeds(256))
    counts = np.zeros((len(STAR_RHOS), thetas.size), dtype=int)
    at = [0, slice(None)]  # the (rho, seed) cell being counted

    def counting(f, a, b, fa, fb, guess=None):
        def g(x, idx):
            np.add.at(counts[at[0]], idx, 1)
            return f(x, idx)

        return illinois_root_many(g, a, b, fa, fb, guess=guess if guessed else None)

    def counting_scalar(f, a, b, fa, fb, guess=None):
        def g(x):
            counts[at[0], at[1]] += 1
            return f(x)

        return illinois_root(g, a, b, fa, fb, guess=guess if guessed else None)

    monkeypatch.setattr(chords, "illinois_root_many", counting)
    monkeypatch.setattr(chords, "illinois_root", counting_scalar)
    for at[0], rho in enumerate(STAR_RHOS):
        if not scalar:
            star_map_many(spec, thetas, rho)
            continue
        for at[1], theta in enumerate(thetas):
            star_map(spec, natural_param(spec, theta), rho)
    return counts


@pytest.mark.parametrize("scalar", [False, True], ids=["array", "scalar"])
def test_euclidean_star_map_starts_at_its_answer(monkeypatch, scalar):
    """Both guesses are exact on the round circle: few evaluations remain.

    Without them the two roots took 16.6 evaluations per seed on average
    and up to 24.
    """
    counts = _star_map_evals(monkeypatch, NormSpec.euclidean(), True, scalar)
    assert counts.mean() <= 4.0
    assert counts.max() <= 8


@pytest.mark.parametrize("text", ["euclid", "quad:2,1,3", "quad:1,0,4", "lp:1.5", "lp:3",
                                  "lp:4", "lp:8"])
def test_guesses_cost_no_family_evaluations(monkeypatch, text):
    spec = NormSpec.parse(text)
    guessed = _star_map_evals(monkeypatch, spec, guessed=True).mean()
    assert guessed <= _star_map_evals(monkeypatch, spec, guessed=False).mean()


def test_empty_brackets_return_at_once(monkeypatch):
    """No seeds, no steps: the pairing function is never called."""
    calls = []

    def counting(f, *args, **kwargs):
        def g(x, idx):
            calls.append(x.size)
            return f(x, idx)
        return root(g, *args, **kwargs)

    root = chords.illinois_root_many
    monkeypatch.setattr(chords, "illinois_root_many", counting)
    frame, ux, uy, vx, vy, errors = star_map_many(NormSpec.lp(3), [], 0.5)
    assert calls == [] and errors == {}
    assert [a.shape for a in (ux, uy, vx, vy)] == [(0,)] * 4
    out = illinois_root_many(lambda x, idx: calls.append(x.size), [], [], [], [])
    assert calls == [] and out.shape == (0,)
