"""Orbit closure, winding numbers, and closure ratios."""

import math

import pytest

from rho_planes import (DomainError, NormSpec, build_polygon, natural_param, polygons,
                        polygon_to_dict, rho_from_kn, wedge)
from rho_planes.polygons import DEFAULT_CLOSE_TOL, MAX_STEPS, _cluster

from conftest import (EUCLID, IPS_SPECS, LP4, LP15, QUAD213, SKEWED_HEXAGON, SQUARE,
                      plain_polygon, single_linkage_clusters, spec_ids)
from test_chords import ORACLE_IDS, ORACLE_SPECS, POLAR_CASES

TWO_PI = 2.0 * math.pi


def wedge_sum(poly):
    """Cyclic sum of consecutive vertex wedges of a closed polygon."""
    assert poly.status == "closed"
    vs = poly.vertices
    return sum(wedge(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs)))


def test_rho_from_kn_values():
    assert rho_from_kn(1, 3) == pytest.approx(0.5, abs=1e-15)
    assert rho_from_kn(1, 4) == pytest.approx(math.sqrt(2) / 2, abs=1e-15)
    # half-angle identity: sqrt((1 + cos(2a))/2) = cos(a)
    assert rho_from_kn(2, 7) == pytest.approx(math.cos(2 * math.pi / 7), abs=1e-14)
    assert rho_from_kn(2, 7) == pytest.approx(0.6234898, abs=1e-7)


def test_rho_from_kn_domain():
    for k, n in ((2, 4), (3, 6), (0, 5), (1, 2)):
        with pytest.raises(DomainError):
            rho_from_kn(k, n)


def test_rho_from_kn_decreasing_in_k():
    for n in (5, 7, 9, 11):
        rhos = [rho_from_kn(k, n) for k in range(1, (n - 1) // 2 + 1)]
        assert all(a > b for a, b in zip(rhos, rhos[1:]))


def test_euclid_pentagon_closure():
    poly = build_polygon(EUCLID, (1, 0), math.cos(math.pi / 5), 100)
    assert poly.status == "closed"
    assert (poly.n, poly.k) == (5, 1)
    for j, v in enumerate(poly.vertices):
        assert v.theta == pytest.approx(TWO_PI * j / 5, abs=1e-9)
    # a near-pentagon returns within 0.006 of its seed at step 5, but its second
    # lap drifts past that tolerance: not a closure; within 0.01 it closes
    near = math.cos(math.pi / 5 + 5e-4)
    drift = build_polygon(EUCLID, natural_param(EUCLID, 0.3), near, 40, 0.006)
    assert drift.status == "non_closing" and drift.steps == 40
    loose = build_polygon(EUCLID, natural_param(EUCLID, 0.3), near, 40, 0.01)
    assert loose.status == "closed" and (loose.n, loose.k) == (5, 1)


def test_square_axis_polygon():
    poly = build_polygon(SQUARE, (1, 0), 0.5, 100)
    assert poly.status == "closed"
    assert (poly.n, poly.k) == (4, 1)
    expected = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    for v, (ex, ey) in zip(poly.vertices, expected):
        assert v.x == pytest.approx(ex, abs=1e-8)
        assert v.y == pytest.approx(ey, abs=1e-8)


def test_square_generic_seed_accumulates_at_axes():
    poly = build_polygon(SQUARE, natural_param(SQUARE, 0.35), 0.5, 2000)
    assert poly.status == "non_closing"
    assert poly.steps == 2000
    assert len(poly.accumulation_points) == 4
    axes = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    for pt in poly.accumulation_points:
        assert min(math.hypot(pt[0] - ax, pt[1] - ay) for ax, ay in axes) <= 1e-3


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=ORACLE_IDS)
def test_accumulation_points_match_single_linkage_oracle(spec):
    radius = max(10 * DEFAULT_CLOSE_TOL, 1e-5)
    for rho in (0.45, 0.6, 0.77):
        poly = build_polygon(spec, natural_param(spec, 0.35), rho, 1000)
        assert poly.status == "non_closing"
        tail = poly.vertices[int(0.8 * len(poly.vertices)):]
        assert poly.accumulation_points == single_linkage_clusters(spec, tail, radius)
        if spec.is_ips_family:
            # the orbit is conjugate to a rotation and never accumulates:
            # every tail point is its own entry
            assert len(poly.accumulation_points) == len(tail)


def test_accumulation_runs_join_across_theta_zero():
    points = [natural_param(EUCLID, t) for t in (TWO_PI - 1e-7, 1e-7, math.pi)]
    got = _cluster(EUCLID, points, 1e-5)
    assert len(got) == 2
    assert got == single_linkage_clusters(EUCLID, points, 1e-5)


def test_chained_run_centroids_lie_on_the_unit_circle():
    """A slow walk that crowds in at the four axes chains each crowd into one run
    about 1e-4 long, whose plain centroid lies 1.1e-6 to 1.3e-6 inside S."""
    spec = NormSpec.lp(1.2617)
    poly = build_polygon(spec, natural_param(spec, 4.330627), 0.866088, 1500)
    assert poly.status == "non_closing"
    for x, y in poly.accumulation_points:
        assert abs(spec.value(x, y) - 1.0) <= 4.5e-16, (x, y)


@pytest.mark.parametrize("spec,rho,q", [
    (LP4, 0.6, 4), (NormSpec.lp(1), 0.6, 4), (NormSpec.lp(3), 0.85, 16),
    (LP15, 0.93, 8), (SKEWED_HEXAGON, 0.3, 5), (SKEWED_HEXAGON, 0.55, 10)],
    ids=["lp:4", "lp:1", "lp:3", "lp:1.5", "hexagon-0.3", "hexagon-0.55"])
def test_locked_walk_reports_its_period_many_points(spec, rho, q):
    """A walk whose rotation number is p/q converges to a period-q orbit, so a tail
    of 401 points, long against q, accumulates at exactly q points on S."""
    poly = build_polygon(spec, natural_param(spec, 0.35), rho, 2000)
    assert poly.status == "non_closing"
    tail = poly.vertices[int(0.8 * len(poly.vertices)):]
    turning = sum((b.theta - a.theta) % TWO_PI for a, b in zip(tail, tail[1:]))
    rotation = turning / (TWO_PI * (len(tail) - 1))
    assert abs(rotation * q - round(rotation * q)) <= 1e-6 * q, rotation
    assert len(poly.accumulation_points) == q
    for x, y in poly.accumulation_points:
        assert abs(spec.value(x, y) - 1.0) <= 4.5e-16, (x, y)


@pytest.mark.parametrize("k,n", [(1, 3), (1, 5), (2, 5), (2, 7), (3, 7)])
def test_star_polygon_windings_on_euclid(k, n):
    rho = rho_from_kn(k, n)
    poly = build_polygon(EUCLID, natural_param(EUCLID, 0.123), rho, 200)
    assert poly.status == "closed"
    assert (poly.n, poly.k) == (n, k)
    assert poly.coprime is (math.gcd(n, k) == 1)
    assert poly.total_turning == pytest.approx(TWO_PI * k, abs=1e-8)


def test_antipodal_orbit_is_negated(rng):
    rho = rho_from_kn(2, 7)
    for spec in IPS_SPECS:
        seed = natural_param(spec, float(rng.uniform(0, TWO_PI)))
        a = build_polygon(spec, seed, rho, 100)
        b = build_polygon(spec, seed.negated(), rho, 100)
        assert a.status == b.status == "closed"
        worst = max(
            min(math.hypot(-va.x - vb.x, -va.y - vb.y) for vb in b.vertices)
            for va in a.vertices)
        assert worst <= 1e-9


@pytest.mark.parametrize("spec", IPS_SPECS, ids=spec_ids(IPS_SPECS))
def test_odd_orbit_disjoint_from_antipode(spec):
    rho = rho_from_kn(1, 5)
    a = build_polygon(spec, natural_param(spec, 0.77), rho, 100)
    assert a.status == "closed"
    worst = min(
        min(math.hypot(-va.x - vb.x, -va.y - vb.y) for vb in a.vertices)
        for va in a.vertices)
    assert worst > 0.1


@pytest.mark.parametrize("spec", IPS_SPECS, ids=spec_ids(IPS_SPECS))
def test_vertex_count_stable_across_seeds(spec, rng):
    rho = rho_from_kn(2, 5)
    shapes = set()
    sums = []
    for theta in rng.uniform(0.0, TWO_PI, 32):
        poly = build_polygon(spec, natural_param(spec, float(theta)), rho, 100)
        assert poly.status == "closed"
        shapes.add((poly.n, poly.k))
        sums.append(wedge_sum(poly))
    assert shapes == {(5, 2)}
    assert max(sums) - min(sums) <= 1e-8


DUAL_PAIRS = [spec for spec, _ in POLAR_CASES]


def _rotation_number(poly):
    if poly.status == "closed":
        return poly.k / poly.n
    return poly.total_turning / (TWO_PI * poly.steps)


@pytest.mark.parametrize("spec", DUAL_PAIRS, ids=spec_ids(DUAL_PAIRS))
def test_dual_pairs_have_equal_rotation_numbers(spec):
    """Polarity conjugates the star map of S at rho to that of the dual circle at the
    same rho (Thompson 1996), and conjugate circle maps share their rotation number.
    Each walk's mean turning is within 1/steps of it, so the two differ by less than
    2/steps.  The test holds them to 1/steps, 7 times the worst of these 35 pairs
    (1.4e-4 over 1000 steps)."""
    steps = 1000
    for rho in (0.2, 0.5, math.cos(math.pi / 5), 0.7, 0.9):
        primal, dual = (_rotation_number(build_polygon(s, natural_param(s, 0.3), rho, steps))
                        for s in (spec, spec.dual))
        assert abs(primal - dual) <= 1.0 / steps, rho


def test_wedge_sum_examples():
    pent = build_polygon(EUCLID, (1, 0), math.cos(math.pi / 5), 100)
    assert wedge_sum(pent) == pytest.approx(5 * math.sin(2 * math.pi / 5), abs=1e-9)

    tri = build_polygon(EUCLID, (1, 0), 0.5, 100)
    assert wedge_sum(tri) == pytest.approx(3 * math.sin(2 * math.pi / 3), abs=1e-9)

    sq = build_polygon(SQUARE, (1, 0), 0.5, 100)
    assert wedge_sum(sq) == pytest.approx(4.0, abs=1e-8)


def test_build_polygon_validates_steps():
    with pytest.raises(DomainError):
        build_polygon(EUCLID, (1, 0), 0.5, max_steps=2)
    with pytest.raises(DomainError):
        build_polygon(EUCLID, (1, 0), 0.5, max_steps=MAX_STEPS + 1)
    # with close_tol inf a cos(pi/5) orbit "closed" as a triangle; nan and -1 ran every step
    for close_tol in (math.nan, math.inf, -1.0):
        with pytest.raises(DomainError, match="close_tol"):
            build_polygon(EUCLID, (1, 0), math.cos(math.pi / 5), close_tol=close_tol)


def test_polygon_serialization_shape():
    poly = build_polygon(EUCLID, (1, 0), 0.5, 100)
    doc = polygon_to_dict(poly)
    assert doc["status"] == "closed"
    assert doc["n"] == 3 and doc["k"] == 1
    assert len(doc["vertices"]) == 3
    theta, x, y = doc["vertices"][1]
    assert theta == pytest.approx(2 * math.pi / 3, abs=1e-9)
    assert (x, y) == (pytest.approx(-0.5, abs=1e-9),
                      pytest.approx(math.sqrt(3) / 2, abs=1e-9))


LP1 = NormSpec.lp(1)
LP37 = NormSpec.lp(3.7)
HEXAGON = NormSpec.parse("poly:1,0;0.5,0.8;-0.4,0.9")
PENTAGON_RHO = math.cos(math.pi / 5)

# (spec, seed, rho, steps); a seed given as an angle is natural_param(spec, angle)
RECURRING = [
    (LP1, 0.3, PENTAGON_RHO, 900),
    (LP1, (1.0, -0.0), PENTAGON_RHO, 900),
    (LP1, (0.6, 0.4), PENTAGON_RHO, 900),
    (SQUARE, 0.35, PENTAGON_RHO, 2000),
    (SQUARE, (1.0, -0.0), 0.61, 900),
    (LP37, 0.3, 0.612345, 1500),
    (LP37, 0.3, math.sqrt(3) / 2, 1500),
    (HEXAGON, (1.0, 0.0), PENTAGON_RHO, 900),
]
NON_RECURRING = [
    (EUCLID, (1.0, 0.0), 0.612345, 900),
    (EUCLID, (1.0, -0.0), 0.612345, 900),
    (QUAD213, 0.3, 0.612345, 900),
]
CLOSING = [
    (EUCLID, (1.0, 0.0), PENTAGON_RHO, 900),
    (EUCLID, (1.0, -0.0), PENTAGON_RHO, 900),
    (EUCLID, 0.3, PENTAGON_RHO, 900),
]


def _case_id(case):
    spec, seed, rho, steps = case
    return f"{spec.spec_id}-{seed}-{rho:.6g}-{steps}"


@pytest.fixture
def star_map_calls(monkeypatch):
    """Counts the calls `build_polygon` makes to the star map."""
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return star_map(*args)

    star_map = polygons.star_map
    monkeypatch.setattr(polygons, "star_map", counted)
    return calls


def _seed(spec, seed):
    return natural_param(spec, seed) if isinstance(seed, float) else seed


@pytest.mark.parametrize("case", RECURRING + NON_RECURRING + CLOSING, ids=_case_id)
def test_replayed_orbit_matches_one_star_map_per_step(case, star_map_calls):
    """Replaying a recurring cycle changes no field of the orbit, bit for bit."""
    spec, seed, rho, steps = case
    poly = build_polygon(spec, _seed(spec, seed), rho, steps)
    made = star_map_calls[0]
    oracle = plain_polygon(spec, _seed(spec, seed), rho, steps)
    assert star_map_calls[0] - made == oracle.steps
    assert repr(polygon_to_dict(poly)) == repr(polygon_to_dict(oracle))  # tells -0.0 from 0.0
    if case in RECURRING:
        assert poly.status == "non_closing" and made < poly.steps
    elif case in NON_RECURRING:
        assert poly.status == "non_closing" and made == poly.steps == steps
    else:
        assert poly.status == "closed" and made < poly.steps


def test_recurring_orbit_solves_only_until_its_first_repeat(star_map_calls):
    poly = build_polygon(LP1, natural_param(LP1, 0.3), PENTAGON_RHO, 900)
    assert poly.steps == 900 and star_map_calls[0] < 100
