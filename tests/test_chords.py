"""Chord minima, the star map, and chord frames."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from rho_planes import (DomainError, NormSpec, NumericalError, chord_frame,
                        check_midpoint_property, natural_param, star_map, wedge)

from rho_planes import chords
from rho_planes.chords import _poly_tangent_exit, _poly_tangent_exit_many, star_map_many
from rho_planes.norms import UnitPoint, _xy, unit_points

from conftest import (EUCLID, IPS_SPECS, LP4, LP15, QUAD14, QUAD213, SKEWED_HEXAGON, SQUARE,
                      bisection_star_map, envelope_min, exact_poly_tangent_exit, golden_min,
                      grid_chord_min, line_min, max_poly_tangent_exit, midpoint_check,
                      quad_star_oracle, spec_ids)

TWO_PI = 2.0 * math.pi


def _chord_min(spec, u, v):
    """The minimum gauge value on the chord [u, v], by the `line_min` oracle."""
    ux, uy = _xy(u)
    vx, vy = _xy(v)
    return line_min(spec, ux, uy, vx - ux, vy - uy)


def test_chord_min_euclid_quarter():
    assert _chord_min(EUCLID, (1, 0), (0, 1)) == pytest.approx(math.sqrt(2) / 2, abs=1e-12)


def test_chord_min_square_kink():
    # piecewise-linear minimization of max(|1-2t|, 1-t)
    value = _chord_min(SQUARE, (1, 1), (-1, 0))
    assert value == pytest.approx(1 / 3, abs=1e-12)
    # the dense-grid oracle resolves a kink only to half its spacing
    oracle_min, _ = grid_chord_min(SQUARE, (1, 1), (-1, 0))
    assert value == pytest.approx(oracle_min, abs=1e-5)


def test_chord_min_antipodal_through_origin():
    assert _chord_min(EUCLID, (1, 0), (-1, 0)) == 0.0


def test_chord_min_flat_edge():
    # both endpoints on the same facet: the whole chord sits on the circle
    assert _chord_min(SQUARE, (1, 1), (1, -1)) == pytest.approx(1.0, abs=1e-12)


def test_chord_min_on_a_small_unit_circle():
    # unit radius 1e-100: distinct endpoints lie far closer than 1e-15
    spec = NormSpec.quadratic(1e200, 0, 1e200)
    u, v = natural_param(spec, 0.3), natural_param(spec, 1.7)
    value = _chord_min(spec, u, v)
    assert math.isfinite(value)
    assert value == pytest.approx(math.cos(0.7), abs=1e-12)
    midpoint = spec.value(0.5 * (u.x + v.x), 0.5 * (u.y + v.y))
    assert midpoint == pytest.approx(math.cos(0.7), abs=1e-12)


@pytest.mark.parametrize("spec", [EUCLID, QUAD14, LP4, SQUARE, LP15, QUAD213, NormSpec.lp(1)],
                         ids=["euclid", "quad:1,0,4", "lp:4", "square", "lp:1.5",
                              "quad:2,1,3", "lp:1"])
def test_chord_min_matches_grid_oracle(spec, rng):
    for _ in range(10):
        a, b = rng.uniform(0.0, TWO_PI, 2)
        u = natural_param(spec, a)
        v = natural_param(spec, b)
        if math.hypot(u.x - v.x, u.y - v.y) < 1e-6:
            continue
        value = _chord_min(spec, u, v)
        oracle, _ = grid_chord_min(spec, u.coords, v.coords)
        assert value <= oracle + 1e-12
        assert value == pytest.approx(oracle, abs=1e-5)


def test_star_map_euclid_examples():
    st = star_map(EUCLID, (1, 0), 0.5)
    assert st.theta == pytest.approx(2 * math.pi / 3, abs=1e-12)
    assert st.x == pytest.approx(-0.5, abs=1e-12)
    assert st.y == pytest.approx(math.sqrt(3) / 2, abs=1e-12)

    st2 = star_map(EUCLID, (1, 0), math.cos(math.pi / 5))
    assert st2.theta == pytest.approx(2 * math.pi / 5, abs=1e-12)


def test_star_map_square_axis():
    st = star_map(SQUARE, (1, 0), 0.5)
    assert st.x == pytest.approx(0.0, abs=1e-10)
    assert st.y == pytest.approx(1.0, abs=1e-12)


def test_star_map_rejects_bad_rho():
    for rho in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(DomainError):
            star_map(EUCLID, (1, 0), rho)
    with pytest.raises(DomainError, match="zero vector"):  # and a seed that is no unit point
        star_map(EUCLID, (0.0, 0.0), 0.5)


def test_star_map_bracket_failure_is_loud():
    # rho below the antipodal-guard dip scale cannot be bracketed
    from rho_planes import NumericalError
    with pytest.raises(NumericalError):
        star_map(EUCLID, (1, 0), 1e-12)


@pytest.mark.parametrize("spec", IPS_SPECS, ids=spec_ids(IPS_SPECS))
def test_star_chord_supports_rho(spec, rng):
    for rho in (0.3, 0.5, 0.9):
        for theta in rng.uniform(0.0, TWO_PI, 8):
            u = natural_param(spec, theta)
            st = star_map(spec, u, rho)
            assert wedge(u, st) > 0.0
            assert _chord_min(spec, u, st) == pytest.approx(rho, abs=1e-9)


def test_star_map_quad_matches_substitution_oracle(rng):
    for spec in (QUAD14, QUAD213):
        for rho in (0.5, math.cos(math.pi / 5)):
            for theta in rng.uniform(0.0, TWO_PI, 6):
                u = natural_param(spec, theta)
                got = star_map(spec, u, rho)
                ox, oy = quad_star_oracle(spec, u.coords, rho)
                assert got.x == pytest.approx(ox, abs=1e-9)
                assert got.y == pytest.approx(oy, abs=1e-9)


def _random_symmetric_polygon(seed):
    """A symmetric convex 4- to 12-gon: points of a circle under a shear."""
    rng = np.random.default_rng(seed)
    half = int(rng.integers(2, 7))
    while True:
        angles = np.sort(rng.uniform(0.0, math.pi, half))
        if np.min(np.diff(np.r_[angles, angles[0] + math.pi])) > 0.15:
            break
    sx, sy, shear = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)
    return NormSpec.polygon([(sx * math.cos(a) + shear * math.sin(a), sy * math.sin(a))
                             for a in angles])


HEXAGON = NormSpec.polygon([(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3))
                            for k in range(3)])
ORACLE_SPECS = ([EUCLID, QUAD213, QUAD14, NormSpec.lp(1.1), LP15, LP4, NormSpec.lp(16),
                 NormSpec.lp(1), SQUARE, HEXAGON]
                + [_random_symmetric_polygon(seed) for seed in (11, 1, 2)])
ORACLE_IDS = spec_ids(ORACLE_SPECS[:8]) + ["square", "hexagon", "random-4gon",
                                           "random-8gon", "random-12gon"]


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=ORACLE_IDS)
def test_star_map_matches_bisection_oracle(spec, rng):
    thetas = (list(rng.uniform(0.0, TWO_PI, 8)) + [k * math.pi / 4 for k in range(8)]
              + list(spec.corner_angles))
    for rho in (0.05, 0.5, math.cos(math.pi / 5), 0.98):
        for theta in thetas:
            u = natural_param(spec, theta)
            got = star_map(spec, u, rho)
            want = bisection_star_map(spec, u, rho)
            assert max(abs(got.x - want.x), abs(got.y - want.y)) <= 1e-13, (theta, rho)


def _in_round_frame(spec, p):
    """Unit point p of a quadratic gauge, sent to the unit circle of its round frame."""
    x, y = spec.round_frame[0](*p.coords)
    r = math.hypot(x, y)
    return x / r, y / r


@pytest.fixture
def exit_branches(monkeypatch):
    """Counts, per path, the seeds whose exit root takes each bracket.

    The gap g at t = 2 decides it: g = 0 ends at t = 2 and enters no exit
    root ("zero"), g > 0 brackets [1, 2] ("above"), g < 0 brackets
    [2, max(2, 2/N(p - u))] ("below"), and a null step, p rounded onto u,
    has N(p - u) = 0 and brackets [2, inf] ("null").  Every seed of a
    smooth star map enters the pairing root, so the seeds that enter no
    exit root are the pairing root's seeds less the exit root's.
    """
    counts = {"scalar": Counter(), "array": Counter()}

    def counted(path, root):
        def wrapped(f, a, b, fa, fb, guess=None):
            lo, hi = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
            tally = counts[path]
            if f.__name__ == "pairing":
                tally["zero"] += lo.size
            else:
                tally["zero"] -= lo.size
                tally["above"] += int(np.count_nonzero(lo == 1.0))
                tally["below"] += int(np.count_nonzero((lo == 2.0) & (hi < math.inf)))
                tally["null"] += int(np.count_nonzero((lo == 2.0) & (hi == math.inf)))
            return root(f, a, b, fa, fb, guess=guess)
        return wrapped

    monkeypatch.setattr(chords, "illinois_root", counted("scalar", chords.illinois_root))
    monkeypatch.setattr(chords, "illinois_root_many",
                        counted("array", chords.illinois_root_many))
    return counts


def _reached(counts):
    return {branch for branch, n in counts.items() if n > 0}


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=ORACLE_IDS)
def test_star_map_many_matches_scalar_star_map(spec, exit_branches):
    thetas = sorted(set(np.linspace(0.0, TWO_PI, 64, endpoint=False))
                    | {k * math.pi / 4 for k in range(8)} | set(spec.corner_angles))
    for rho in (0.05, 0.5, math.cos(math.pi / 5), 0.98):
        frame, ux, uy, vx, vy, errors = star_map_many(spec, thetas, rho)
        assert errors == {}
        for i, theta in enumerate(thetas):
            u = natural_param(spec, theta)
            v = star_map(spec, u, rho)
            got = (ux[i], uy[i], vx[i], vy[i])
            want = u.coords + v.coords
            if spec.round_frame is not None:  # compared in the frame, the Euclidean plane
                assert frame.spec_id == "euclid"
                want = _in_round_frame(spec, u) + _in_round_frame(spec, v)
            else:
                assert frame is spec
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-13, (theta, rho)
    # on both paths an inner-product seed's exit ends at its guess t = 2, lp seeds
    # take the brackets on either side of it, and polygons have no exit root
    for path in ("scalar", "array"):
        reached = _reached(exit_branches[path])
        if not spec.smooth:
            assert reached == set(), path
        elif spec.is_ips_family:
            assert reached == {"zero"}, path
        else:
            assert {"above", "below"} <= reached <= {"zero", "above", "below"}, path


# a null step: on lp:2.5 two floats below rho = 1 the tangent point of this seed
# rounds onto u, the gap at t = 2 is negative and the exit bracket is [2, inf]
NULL_STEP_SPEC = NormSpec.lp(2.5)
NULL_STEP_THETA, NULL_STEP_RHO = 0.20008861901983332, 1.0 - 2.0**-53


def test_a_null_step_fails_on_both_paths_with_one_message(exit_branches):
    with pytest.raises(NumericalError, match="could not leave the seed angle") as info:
        star_map(NULL_STEP_SPEC, natural_param(NULL_STEP_SPEC, NULL_STEP_THETA), NULL_STEP_RHO)
    *_, errors = star_map_many(NULL_STEP_SPEC, [NULL_STEP_THETA, 1.0], NULL_STEP_RHO)
    assert errors == {0: str(info.value)}
    assert exit_branches["scalar"]["null"] == 1
    assert exit_branches["array"]["null"] == 1


FLOOR_SPECS = [EUCLID, QUAD213, NormSpec.parse("quad:1e6,0,1"),
               NormSpec.parse("quad:5.009715384073066,-10.936170163574989,5.968393896914864")]


@pytest.mark.parametrize("spec", FLOOR_SPECS, ids=["euclid", "quad:2,1,3", "quad:1e6,0,1",
                                                   "quad-thin-rotated"])
def test_inner_product_seeds_end_each_root_at_its_first_evaluation(spec, monkeypatch):
    """Both guesses are the inner-product answer, and its residual is under the floor.

    The pairing root evaluates each seed once, at its guess; the gap at
    t = 2, evaluated before the exit root, is zero, so no seed enters it.
    """
    calls = []

    def counted(f, a, b, fa, fb, guess=None):
        evals = np.zeros(np.broadcast(a, b, fa, fb).size, dtype=int)

        def g(x, idx):
            evals[idx] += 1
            return f(x, idx)

        calls.append((f.__name__, evals))
        return root(g, a, b, fa, fb, guess=guess)

    root = chords.illinois_root_many
    monkeypatch.setattr(chords, "illinois_root_many", counted)
    for rho in (0.05, 0.5, math.cos(math.pi / 5), 0.98):
        calls.clear()
        report = check_midpoint_property(spec, rho, 256)
        assert report.passed and report.notes == "", rho
        assert [name for name, _ in calls] == ["pairing"], rho
        assert np.all(calls[0][1] == 1) and calls[0][1].size == report.samples, rho


@pytest.mark.parametrize("p", [1.01, 16.0, 1e9])
def test_lp_checks_pass_next_to_rho_one(p):
    """Near rho = 1 the floor gives way to the root's own end tests.

    The residuals start at rho - 1 with slope 0, so a floor that did not
    shrink with 1 - rho would accept points far from the root; at
    1 - 1e-15 a flat floor of 4 ulps gives max_dev 1.0 on lp:1.01.
    """
    spec = NormSpec.lp(p)
    for rho in (1.0 - 1e-13, 1.0 - 1e-14, 1.0 - 1e-15):
        report = check_midpoint_property(spec, rho)
        assert report.passed and report.notes == "", (rho, report.max_midpoint_deviation)


POLY_EXIT_SPECS = [NormSpec.lp(1), SQUARE, ORACLE_SPECS[-2]]


@pytest.mark.parametrize("spec", POLY_EXIT_SPECS, ids=["lp:1", "square", "random-8gon"])
def test_bisected_polygon_exit_matches_the_max_facet_oracle(spec, rng):
    """The facet found by bisecting the corner angles gives the max-facet result bit for bit.

    At a corner both facets support u; either start of the visibility walk
    ends at the same facet.
    """
    corners = list(spec.corner_angles)
    thetas = sorted(set(rng.uniform(0.0, TWO_PI, 200)) | set(corners)
                    | {math.nextafter(c, 7.0) for c in corners}
                    | {math.nextafter(c, -1.0) % TWO_PI for c in corners}
                    | {k * math.pi / 4 for k in range(8)})
    for rho in (0.05, 0.3, 0.5, math.cos(math.pi / 5), 0.98, 1.0 - 1e-9):
        ux, uy = unit_points(spec, np.array(thetas))
        many = _poly_tangent_exit_many(spec, np.array(thetas), ux, uy, rho)
        for i, theta in enumerate(thetas):
            u = natural_param(spec, theta)
            want = max_poly_tangent_exit(spec.normals, u.x, u.y, rho)
            assert _poly_tangent_exit(spec, u, rho) == want, (theta, rho)
            # numpy's cos and sin may round the seed differently from math's
            want = max_poly_tangent_exit(spec.normals, float(ux[i]), float(uy[i]), rho)
            assert tuple(float(v[i]) for v in many) == want, (theta, rho)


def _tie_seeds(spec, rho):
    """Float points of the unit polygon where the line of a facet of rho*P meets
    it, and their neighbouring floats: the seeds whose visibility tests tie.
    Also the points 1e-7 away along the facet of the polygon, which do not tie."""
    seeds = []
    for a, b in itertools.permutations(spec.normals, 2):
        det = a[0] * b[1] - a[1] * b[0]  # <a, x> = rho and <b, x> = 1
        if det == 0.0:
            continue
        x, y = (rho * b[1] - a[1]) / det, (a[0] - rho * b[0]) / det
        if abs(spec.value(x, y) - 1.0) > 1e-12:
            continue
        points = list(itertools.product(*([v, math.nextafter(v, -2.0), math.nextafter(v, 2.0)]
                                          for v in (x, y))))
        points += [(x - h * b[1], y + h * b[0]) for h in (-1e-7, 1e-7)]
        seeds += [(math.atan2(py, px) % TWO_PI, px, py) for px, py in points]
    return seeds


EXACT_EXIT_SPECS = [SQUARE, NormSpec.lp(1), SKEWED_HEXAGON,
                    _random_symmetric_polygon(1), _random_symmetric_polygon(2)]


@pytest.mark.parametrize("spec", EXACT_EXIT_SPECS,
                         ids=["square", "lp:1", "skewed-hexagon", "random-8gon", "random-12gon"])
def test_polygon_exit_is_within_rounding_of_the_exact_construction(spec, rng):
    """Both polygon exits against the same construction in `Fraction`s.

    Bounds from a 3600-seed measurement (ROADMAP item 5): the relative exit
    parameter and the exit point stay within 8*eps*(1 - rho)^-1.5, the
    midpoint gauge within 32*eps.  Where the float and exact visibility
    tests split at a tie, the float map takes the other end of the same
    tangent facet: its vertex lies on the exact tangent line and only the
    exit point is compared.
    """
    eps, corners = 2.0**-52, list(spec.corner_angles)
    thetas = sorted(set(rng.uniform(0.0, TWO_PI, 60)) | set(corners)
                    | {math.nextafter(c, 7.0) for c in corners}
                    | {math.nextafter(c, -1.0) % TWO_PI for c in corners})
    ux, uy = unit_points(spec, np.array(thetas))
    splits = 0
    for rho in (0.05, 0.5, math.cos(math.pi / 5), 0.98):
        bound = 8.0 * eps * (1.0 - rho) ** -1.5
        seeds = list(zip(thetas, ux.tolist(), uy.tolist())) + _tie_seeds(spec, rho)
        th, xs, ys = (np.array(v) for v in zip(*seeds))
        many = _poly_tangent_exit_many(spec, th, xs, ys, rho)
        for i, (theta, x, y) in enumerate(seeds):
            p, t, exit_point, mid_gauge = exact_poly_tangent_exit(spec.normals, x, y, rho)
            for px, py, ft in (_poly_tangent_exit(spec, UnitPoint(theta, (x, y)), rho),
                               tuple(float(v[i]) for v in many)):
                where = (theta, rho)
                if max(abs(px - p[0]), abs(py - p[1])) > 1e-9:
                    splits += 1
                    line = (p[0] - x) * (Fraction(py) - y) - (p[1] - y) * (Fraction(px) - x)
                    assert abs(line) <= 1e-15, where
                else:
                    assert abs(Fraction(ft) - t) <= bound * t, where
                sx, sy = x + ft * (px - x), y + ft * (py - y)
                assert max(abs(sx - exit_point[0]), abs(sy - exit_point[1])) <= bound, where
                gauge = spec.value((x + sx) / 2.0, (y + sy) / 2.0)
                assert abs(gauge - mid_gauge) <= 32.0 * eps, where
    assert splits > 0 or spec is SQUARE  # the tie seeds reach the split on every other spec


@pytest.mark.parametrize("spec", [EUCLID, LP4, SQUARE], ids=["euclid", "lp:4", "square"])
def test_star_map_many_fails_a_seed_with_the_scalar_message(spec):
    thetas = [0.0, 1.0, 2.5, 4.0]
    *_, errors = star_map_many(spec, thetas, 1e-12)
    assert sorted(errors) == [0, 1, 2, 3]
    for i, theta in enumerate(thetas):
        with pytest.raises(NumericalError) as info:
            star_map(spec, natural_param(spec, theta), 1e-12)
        assert errors[i] == str(info.value)


ROTATED_THIN_QUAD = "quad:5.009715384073066,-10.936170163574989,5.968393896914864"


@pytest.mark.parametrize("text", ["quad:2,1,3", ROTATED_THIN_QUAD], ids=["quad", "thin"])
def test_quadratic_star_map_failures_name_the_seed_angle(text):
    """Solved in the round frame, a failing seed is still named by its own theta."""
    spec = NormSpec.parse(text)
    thetas = [0.0, 1.0, 2.5, 4.0]
    *_, errors = star_map_many(spec, thetas, 1e-12)
    assert sorted(errors) == [0, 1, 2, 3]
    for i, theta in enumerate(thetas):
        name = f"theta={theta:.6f}"
        with pytest.raises(NumericalError) as info:
            star_map(spec, natural_param(spec, theta), 1e-12)
        assert name in str(info.value) and name in errors[i], (theta, errors[i])


# a corner seed two floats below rho = 1: the tangent vertex is u to rounding, no
# facet is ahead along it, the exit parameter is inf and the gap is NaN
NAN_GAP_TEXT = ("poly:1.71114884560502,0.9452815396559903;0.8216928250303454,0.9737345869597073;"
                "-0.08702523077876606,0.6681548609856984")
NAN_GAP_SPEC = NormSpec.parse(NAN_GAP_TEXT)
NAN_GAP_THETA, NAN_GAP_RHO = 0.5047031705523816, 0.9999999999999998


def test_nan_gap_is_a_recorded_seed_failure():
    with pytest.raises(NumericalError, match="could not leave the seed angle") as info:
        star_map(NAN_GAP_SPEC, natural_param(NAN_GAP_SPEC, NAN_GAP_THETA), NAN_GAP_RHO)
    *_, errors = star_map_many(NAN_GAP_SPEC, [NAN_GAP_THETA, 1.0], NAN_GAP_RHO)
    assert errors == {0: str(info.value)}


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=ORACLE_IDS)
def test_midpoint_check_matches_chord_min_midpoint(spec, rng):
    thetas = list(rng.uniform(0.0, TWO_PI, 12)) + list(spec.corner_angles)
    for rho in (0.05, 0.5, math.cos(math.pi / 5), 0.98):
        for theta in thetas:
            u = natural_param(spec, theta)
            got = midpoint_check(spec, u, rho)
            v = star_map(spec, u, rho)
            assert (got.u, got.v) == (u, v)
            want = spec.value(0.5 * (u.x + v.x), 0.5 * (u.y + v.y))
            assert got.midpoint_norm == want, (theta, rho)


def _random_segments(spec, rng, count):
    """Segments u + t*d over t in [0, 1] from unit points u: chords to a
    second unit point, and random directions and lengths up to 3."""
    for _ in range(count):
        a, b = rng.uniform(0.0, TWO_PI, 2)
        u = natural_param(spec, a)
        r = rng.uniform(0.1, 3.0)
        yield u.x, u.y, r * math.cos(b), r * math.sin(b)
        v = natural_param(spec, b)
        yield u.x, u.y, v.x - u.x, v.y - u.y


SMOOTH_ORACLE = [(s, i) for s, i in zip(ORACLE_SPECS, ORACLE_IDS) if s.smooth]
POLY_ORACLE = [(s, i) for s, i in zip(ORACLE_SPECS, ORACLE_IDS) if not s.smooth]


def _line_distance(spec, ux, uy, dx, dy):
    """Distance from 0 to the line u + R*d in closed form, |wedge(d, u)|/N*(Jd), as
    `is_birkhoff_orthogonal` takes it."""
    return abs(dx * uy - dy * ux) / spec.dual.value(-dy, dx)


def _covering_segment(spec, ux, uy, dx, dy):
    """[u - r*d, u + r*d] with r = 2||u||/||d||, which holds the line's nearest point."""
    r = 2.0 * spec.value(ux, uy) / spec.value(dx, dy)
    return ux - r * dx, uy - r * dy, 2.0 * r * dx, 2.0 * r * dy


@pytest.mark.parametrize("spec", [s for s, _ in SMOOTH_ORACLE], ids=[i for _, i in SMOOTH_ORACLE])
def test_line_min_matches_golden_section_oracle(spec, rng):
    for ux, uy, dx, dy in _random_segments(spec, rng, 20):
        if math.hypot(dx, dy) < 1e-6:
            continue
        value = _line_distance(spec, ux, uy, dx, dy)
        ax, ay, ex, ey = _covering_segment(spec, ux, uy, dx, dy)
        # on a covering segment a few units long the default width leaves golden_min
        # about 1e-14 above the minimum of lp:1.1, whose rise there is |t - t*|^1.1
        _, want = golden_min(lambda t: spec.value(ax + t * ex, ay + t * ey), 0.0, 1.0, 1e-15)
        assert abs(value - want) <= 1e-14, (ux, uy, dx, dy)


@pytest.mark.parametrize("spec", [s for s, _ in POLY_ORACLE], ids=[i for _, i in POLY_ORACLE])
def test_line_min_matches_grid_oracle_on_polygons(spec, rng):
    """The closed form against the exact envelope minimum on a covering segment, and
    the chord's dense grid above it (the line can dip below the chord).

    The envelope's crossing parameters round on a segment a few units long,
    so it agrees to a few ulps of the value, not one.
    """
    for ux, uy, dx, dy in _random_segments(spec, rng, 10):
        value = _line_distance(spec, ux, uy, dx, dy)
        segment = _covering_segment(spec, ux, uy, dx, dy)
        assert value == pytest.approx(envelope_min(spec.normals, *segment), rel=1e-14)
        want, _ = grid_chord_min(spec, (ux, uy), (ux + dx, uy + dy))
        assert value <= want + 1e-12


def _polar_orbit(spec, theta, rho, steps):
    """r_k = rho*n_k/h_k along the orbit u_k from s(theta): n_k is the outward normal
    of the chord [u_k, u_(k+1)] and h_k = <n_k, u_k> its level, so r_k is the pole
    of the chord's line, scaled by rho."""
    orbit = [natural_param(spec, theta)]
    for _ in range(steps):
        orbit.append(star_map(spec, orbit[-1], rho))
    poles = []
    for a, b in zip(orbit, orbit[1:]):
        nx, ny = b.y - a.y, a.x - b.x
        h = nx * a.x + ny * a.y
        poles.append((rho * nx / h, rho * ny / h))
    return poles


POLAR_CASES = [(NormSpec.lp(3), 0.7), (LP4, math.cos(math.pi / 5)), (NormSpec.lp(16), 0.95),
               (SKEWED_HEXAGON, 0.6), (NormSpec.lp(1), 0.55), (QUAD213, 0.6), (QUAD14, 0.7)]


@pytest.mark.parametrize("spec,rho", POLAR_CASES, ids=[s.spec_id for s, _ in POLAR_CASES])
def test_dual_star_map_sends_each_chord_pole_to_the_next(spec, rho):
    """Polarity (Thompson 1996): the chord [u_k, u_(k+1)] supports rho*S, so its
    pole r_k lies on the dual circle, and the dual norm's star map at the same rho
    sends r_k to r_(k+1).  Each side runs other code: the flats of lp:p against the
    cusps of lp:q, a polygon against its polar with other facets, lp:1 against the
    square, a form against its inverse; both the scalar and the array map."""
    dual = spec.dual
    for theta in (0.3, 1.1, 2.9, 5.0):
        poles = _polar_orbit(spec, theta, rho, 40)
        for r, nxt in zip(poles, poles[1:]):
            assert abs(dual.value(*r) - 1.0) <= 2e-15, r
            assert math.dist(star_map(dual, r, rho).coords, nxt) <= 8e-15, r
        rx, ry = np.array(poles).T
        _, _, _, vx, vy, errors = star_map_many(
            dual, np.mod(np.arctan2(ry[:-1], rx[:-1]), TWO_PI), rho)
        assert errors == {}
        if dual.round_frame is not None:  # the array map answers in the round frame
            rx, ry = dual.round_frame[0](rx, ry)
            norm = np.hypot(rx, ry)
            rx, ry = rx / norm, ry / norm
        assert np.max(np.hypot(vx - rx[1:], vy - ry[1:])) <= 8e-15


@pytest.mark.parametrize("spec", [EUCLID, QUAD14, LP4, SQUARE],
                         ids=["euclid", "quad:1,0,4", "lp:4", "square"])
def test_star_map_order_preserving(spec):
    rho = 0.45
    thetas = np.linspace(0.01, 2.0, 25)
    images = [star_map(spec, natural_param(spec, t), rho) for t in thetas]
    for a, b in zip(images, images[1:]):
        assert wedge(a, b) >= -1e-12


@pytest.mark.parametrize("spec", IPS_SPECS, ids=spec_ids(IPS_SPECS))
def test_star_map_continuity_under_refinement(spec):
    rho = 0.7
    base = 1.234
    for dt in (1e-3, 1e-4, 1e-5):
        a = star_map(spec, natural_param(spec, base), rho)
        b = star_map(spec, natural_param(spec, base + dt), rho)
        stretch = ((b.theta - a.theta) % TWO_PI) / dt
        assert 0.05 <= stretch <= 20.0


@pytest.mark.parametrize("spec", [EUCLID, QUAD14, LP4],
                         ids=["euclid", "quad:1,0,4", "lp:4"])
def test_star_map_odd_symmetry(spec, rng):
    rho = 0.6
    for theta in rng.uniform(0.0, TWO_PI, 8):
        u = natural_param(spec, theta)
        a = star_map(spec, u.negated(), rho)
        b = star_map(spec, u, rho).negated()
        assert a.x == pytest.approx(b.x, abs=1e-9)
        assert a.y == pytest.approx(b.y, abs=1e-9)


def test_midpoint_check_examples():
    rep = midpoint_check(EUCLID, natural_param(EUCLID, 1.1), 0.7)
    assert abs(rep.midpoint_norm - 0.7) <= 1e-9

    rep_sq = midpoint_check(SQUARE, natural_param(SQUARE, math.pi / 4), 1 / 3)
    assert abs(rep_sq.midpoint_norm - 1 / 3) == pytest.approx(1 / 6, abs=1e-9)

    rep_q = midpoint_check(QUAD14, natural_param(QUAD14, 0.3), 0.5)
    assert abs(rep_q.midpoint_norm - 0.5) <= 1e-9


def test_chord_frame_euclid_mu():
    # rho^2 (1 + mu^2) = 1 on the round circle
    f = chord_frame(EUCLID, 0.37, 0.5)
    assert f.mu == pytest.approx(math.sqrt(3), abs=1e-10)
    f2 = chord_frame(EUCLID, 2.0, math.cos(math.pi / 5))
    assert f2.mu == pytest.approx(math.tan(math.pi / 5), abs=1e-10)


@pytest.mark.parametrize("spec", IPS_SPECS, ids=spec_ids(IPS_SPECS))
def test_chord_frame_endpoints_on_circle(spec):
    for theta in (0.0, 0.9, 3.3):
        f = chord_frame(spec, theta, 0.5)
        assert spec.value(*f.right) == pytest.approx(1.0, abs=1e-9)
        assert spec.value(*f.left) == pytest.approx(1.0, abs=1e-9)
        assert wedge(f.left, f.right) > 0.0


@pytest.mark.parametrize("spec", IPS_SPECS, ids=spec_ids(IPS_SPECS))
def test_chord_frame_consistent_with_star_map(spec):
    rho = math.cos(math.pi / 5)
    for theta in (0.2, 1.7, 4.0):
        f = chord_frame(spec, theta, rho)
        st = star_map(spec, f.left, rho)
        assert st.x == pytest.approx(f.right[0], abs=1e-8)
        assert st.y == pytest.approx(f.right[1], abs=1e-8)


@pytest.mark.parametrize("spec", IPS_SPECS, ids=spec_ids(IPS_SPECS))
def test_star_parametrization_is_differentiable(spec):
    """theta -> s(theta)* moves along the successor direction at its image."""
    from rho_planes import birkhoff_successor
    rho, h = 0.5, 1e-5
    for theta in (0.3, 1.9, 4.1):
        sp = star_map(spec, natural_param(spec, theta + h), rho)
        sm = star_map(spec, natural_param(spec, theta - h), rho)
        fx, fy = (sp.x - sm.x) / (2 * h), (sp.y - sm.y) / (2 * h)
        at = star_map(spec, natural_param(spec, theta), rho)
        tx, ty = birkhoff_successor(spec, at).coords
        speed = (fx * tx + fy * ty) / (tx * tx + ty * ty)
        assert speed > 0.0  # the q-analogue of the forward tangent factor
        residual = abs(fx * ty - fy * tx) / math.hypot(tx, ty)
        assert residual <= 1e-5 * max(1.0, math.hypot(fx, fy))

