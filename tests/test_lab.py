"""Verification lab: checker, partition suite, identities, probes, sweeps."""

import math

import numpy as np
import pytest

from rho_planes import (DomainError, NonClosingError, NormSpec, NumericalError,
                        RhoPlanesError, check_midpoint_property, even_probe,
                        frame_identities, natural_param, rho_from_kn,
                        sector_partition_suite, star_map, sweep, sweep_to_csv,
                        tangency_star)

from rho_planes import cli, lab
from rho_planes.chords import star_map_many
from rho_planes.lab import MAX_CHECK_SAMPLES

from conftest import (EUCLID, IPS_SPECS, LP4, QUAD14, SQUARE, check_seeds, grid_min_along,
                      midpoint_check, scalar_check, spec_ids)
from test_chords import ORACLE_IDS, ORACLE_SPECS

TWO_PI = 2.0 * math.pi


def test_check_passes_on_euclid():
    rep = check_midpoint_property(EUCLID, 0.5, 256)
    assert rep.passed
    assert rep.max_midpoint_deviation <= 1e-9
    assert rep.samples >= 256
    assert rep.notes == ""


def test_check_fails_on_square_third():
    rep = check_midpoint_property(SQUARE, 1 / 3, 256)
    assert not rep.passed
    assert rep.max_midpoint_deviation >= 0.16


def test_check_reports_worst_seed():
    rep = check_midpoint_property(SQUARE, 1 / 3, 256)
    # the corner-adjacent chord achieves the recorded deviation
    again = midpoint_check(SQUARE, natural_param(SQUARE, rep.worst_theta), 1 / 3)
    assert abs(again.midpoint_norm - 1 / 3) == pytest.approx(
        rep.max_midpoint_deviation, abs=1e-12)


def test_check_quad_substitution_case():
    rep = check_midpoint_property(QUAD14, math.cos(math.pi / 5), 256)
    assert rep.passed


def test_check_axis_angles_always_sampled():
    rep = check_midpoint_property(SQUARE, 1 / 3, samples=10)
    assert rep.max_midpoint_deviation >= 0.16  # pi/4 seed is forced in


def test_check_seed_grid_matches_the_set_oracle(monkeypatch):
    grids = []

    def recording(spec, thetas, rho):
        grids.append(thetas)
        return star_map_many(spec, thetas, rho)

    monkeypatch.setattr(lab, "star_map_many", recording)
    for samples in [*range(8, 600, 7), 599, 1000, 4096, MAX_CHECK_SAMPLES]:
        check_midpoint_property(EUCLID, 0.5, samples)
        assert grids[-1].tolist() == check_seeds(samples), samples


@pytest.mark.parametrize("samples", [8, 256, 257, MAX_CHECK_SAMPLES])
def test_seed_grid_is_cached_read_only(samples):
    built = np.sort(np.concatenate((TWO_PI * np.arange(samples) / samples, lab._AXIS_ANGLES)))
    built = built[np.append(True, built[1:] != built[:-1])]
    grid = lab._seed_grid(samples)
    assert lab._seed_grid(samples) is grid
    assert not grid.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        grid[0] = 1.0
    assert grid.dtype == built.dtype and grid.tobytes() == built.tobytes()


def test_check_never_passes_vacuously():
    # a rho below the solver's bracket makes every seed fail; that must
    # surface as a raised error, not an empty pass
    with pytest.raises(NumericalError, match="bracket"):
        check_midpoint_property(EUCLID, 1e-12, 16)


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=ORACLE_IDS)
def test_check_matches_the_scalar_loop(spec):
    for rho in (0.05, 0.5, math.cos(math.pi / 5), 0.98):
        rep = check_midpoint_property(spec, rho, 64)
        worst, worst_theta, notes = scalar_check(spec, rho, 64)
        assert rep.passed == (worst <= rep.tol)
        assert abs(rep.max_midpoint_deviation - worst) <= 2e-15
        assert rep.notes == notes
        if rep.worst_theta != worst_theta:  # a tie: the scalar deviation there is as large
            u = natural_param(spec, rep.worst_theta)
            dev = abs(midpoint_check(spec, u, rho).midpoint_norm - rho)
            assert worst - dev <= 2e-15, (rho, rep.worst_theta, worst_theta)


def test_every_seed_failing_gives_the_scalar_loop_message():
    for spec in (EUCLID, LP4, SQUARE):
        with pytest.raises(NumericalError) as scalar:
            scalar_check(spec, 1e-12, 16)
        with pytest.raises(NumericalError) as array:
            check_midpoint_property(spec, 1e-12, 16)
        assert str(array.value) == str(scalar.value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["lp:1e6", "lp:1.000001", "quad:4e307,1e307,1e307",
                                  "quad:1e-300,0,1e-300", "quad:1e200,-1e200,1e200",
                                  "quad:1e10,0,1", "quad:1,0,1e-10"])
def test_check_on_extreme_specs_raises_no_numpy_warning(text):
    spec = NormSpec.parse(text)
    for rho in (1e-8, 0.5, 0.98):
        rep = check_midpoint_property(spec, rho, 64)
        assert math.isfinite(rep.max_midpoint_deviation)
        if spec.is_ips_family:
            assert rep.passed


@pytest.mark.parametrize("spec", IPS_SPECS, ids=spec_ids(IPS_SPECS))
def test_partition_suite_on_ips(spec):
    rho = rho_from_kn(2, 7)
    rep = sector_partition_suite(spec, rho, 0.4)
    assert (rep.n, rep.k) == (7, 2)
    assert rep.wedge_spread <= 1e-8
    assert rep.sector_spread <= 1e-5
    assert rep.sector_sum == pytest.approx(rep.k * rep.ball_area, abs=1e-5)
    assert len(rep.partition.areas) == 14
    assert rep.partition.spread <= 1e-5
    assert rep.partition_sum == pytest.approx(rep.ball_area, abs=1e-5)
    assert rep.midpoint_vertex_defect <= 1e-6
    assert rep.pw_identity == "P_v"  # k = 2 is even
    assert rep.pw_match_dist <= 1e-6
    assert rep.notes == ""


def test_partition_suite_odd_winding_matches_antipode():
    rho = rho_from_kn(1, 5)
    rep = sector_partition_suite(EUCLID, rho, 0.2)
    assert (rep.n, rep.k) == (5, 1)
    assert rep.pw_identity == "P_-v"
    assert rep.pw_match_dist <= 1e-8


def test_partition_suite_triangle_areas():
    rep = sector_partition_suite(EUCLID, 0.5, 0.0)
    assert (rep.n, rep.k) == (3, 1)
    assert rep.wedge_spread <= 1e-10
    for area in rep.partition.areas:
        assert area == pytest.approx(math.pi / 6, abs=1e-6)
    thetas = [p.theta for p in rep.partition.boundary]
    assert thetas == sorted(thetas)


def test_partition_suite_aborts_on_non_closing():
    with pytest.raises(NonClosingError):
        sector_partition_suite(SQUARE, 0.5, 0.35)


@pytest.mark.parametrize("spec", IPS_SPECS, ids=spec_ids(IPS_SPECS))
def test_frame_identities_small_on_ips(spec, rng):
    for _ in range(3):
        a = float(rng.uniform(0.0, 3.0))
        b = a + float(rng.uniform(0.3, 3.0))
        residuals = frame_identities(spec, math.cos(math.pi / 5), a, b)
        assert max(residuals) <= 1e-6


def test_frame_identities_full_turn_boundary_cancels():
    residuals = frame_identities(EUCLID, 0.5, 0.0, TWO_PI)
    assert residuals[1] <= 1e-6


def test_even_probe_euclid_square_case():
    rec = even_probe(EUCLID, 1, 4, 0.0)
    assert rec.pv_status == "closed" and rec.pv_vertices == 4
    assert rec.antipodal_match_dist <= 1e-8
    assert rec.sector_count == 8
    assert rec.sector_spread <= 1e-6
    assert rec.sector_sum == pytest.approx(rec.ball_area, abs=1e-5)
    assert rec.pv_pw_min_dist > 0.1


def test_even_probe_quad_reports_spread():
    rec = even_probe(QUAD14, 1, 6, 0.2)
    assert rec.pv_status == "closed" and rec.pv_vertices == 6
    assert rec.sector_count == 12
    assert rec.sector_spread <= 1e-5


def test_even_probe_lp4_non_closing_is_reported():
    rec = even_probe(LP4, 1, 4, 0.0)
    # the orbit need not close off the inner-product families; either way
    # the record carries a status instead of raising
    assert rec.pv_status in ("closed", "non_closing")
    if rec.pv_status == "closed":
        assert rec.pw_status in ("closed", "non_closing", "not_built")


def test_even_probe_rejects_odd_n():
    with pytest.raises(RhoPlanesError):
        even_probe(EUCLID, 1, 5, 0.0)


@pytest.mark.parametrize("call", [
    lambda: check_midpoint_property(EUCLID, 0.5, 4),
    lambda: check_midpoint_property(EUCLID, 0.5, 65537),
    lambda: sweep([EUCLID], [0.5], samples=4),
    lambda: sweep([], [0.5]),
    lambda: sweep([EUCLID], [2.0]),
    lambda: check_midpoint_property(EUCLID, 0.5, tol=math.nan),
    lambda: check_midpoint_property(EUCLID, 0.5, tol=math.inf),
    lambda: check_midpoint_property(EUCLID, 0.5, tol=-1e-9),
    lambda: sweep([EUCLID], [0.5], tol=math.nan),
    lambda: sweep([EUCLID], [0.5], tol=math.inf),
    lambda: sweep([EUCLID], [0.5], tol=-1e-9),
    lambda: frame_identities(EUCLID, 0.5, 1.0, 0.5),
    lambda: even_probe(EUCLID, 1, 5, 0.0),
], ids=["check-samples-4", "check-samples-cap+1", "sweep-samples-4", "sweep-no-spec",
        "sweep-rho-2", "check-tol-nan", "check-tol-inf", "check-tol-negative",
        "sweep-tol-nan", "sweep-tol-inf", "sweep-tol-negative",
        "identities-empty-range", "even-probe-odd-n"])
def test_out_of_domain_arguments_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_self_tangency_scan():
    """The supporting-line condition holds on the round circle and nowhere on
    a 16-point lp:4 grid, where its Birkhoff defect stays above 1e-6."""
    grid = [TWO_PI * j / 16 for j in range(16)]
    assert all(tangency_star(EUCLID, natural_param(EUCLID, t), 0.5) for t in grid)
    for t in grid:
        u = natural_param(LP4, t)
        assert not tangency_star(LP4, u, 0.5)
        st = star_map(LP4, u, 0.5)
        d = (0.5 * u.x + st.x, 0.5 * u.y + st.y)  # (1 - 2*rho^2) = 0.5
        assert 1.0 - grid_min_along(LP4, u.coords, d) > 1e-6


def test_sweep_shape_and_order():
    reports = sweep([EUCLID, LP4], [0.3, 0.5], samples=32)
    assert [r.spec_id for r in reports] == ["euclid"] * 2 + ["lp:4"] * 2
    assert [r.rho for r in reports] == [0.3, 0.5, 0.3, 0.5]
    assert reports[0].passed and reports[1].passed
    assert not reports[3].passed  # lp:4 at rho = 1/2


# rho = 5e-10 fails some seeds of these specs (their chords reach within the
# antipodal guard of -u) and every seed of euclid and quad
PARTLY_FAILING = [LP4, NormSpec.lp(1.5), NormSpec.lp(16), SQUARE]


@pytest.mark.parametrize("specs, rhos, samples", [
    (PARTLY_FAILING, [5e-10, 0.05, 0.5], 64),
    (IPS_SPECS + [LP4, SQUARE], [0.05, 0.5, math.cos(math.pi / 5), 0.98, 1.0 - 2.0 ** -52], 256),
    ([EUCLID, QUAD14], [0.3, 0.5], MAX_CHECK_SAMPLES),
], ids=["failing-seeds", "generic", "one-cell-per-star-map"])
def test_sweep_cells_equal_their_checks_field_for_field(specs, rhos, samples):
    """A spec's rhos share one star map, and each cell still gets the report it gets alone."""
    reports = sweep(specs, rhos, samples)
    assert reports == [check_midpoint_property(spec, rho, samples)
                       for spec in specs for rho in rhos]
    assert all(r.notes for r in reports if r.rho == 5e-10)


@pytest.mark.parametrize("specs, failing", [([LP4, EUCLID], (LP4, 1e-12)),
                                            ([EUCLID, LP4], (EUCLID, 5e-10))],
                         ids=["lp4-first", "euclid-first"])
def test_sweep_raises_the_first_failing_cell_in_spec_major_order(specs, failing):
    """Every seed of lp:4 fails at 1e-12, and every seed of euclid already at 5e-10."""
    with pytest.raises(NumericalError) as alone:
        check_midpoint_property(*failing, 16)
    with pytest.raises(NumericalError) as swept:
        sweep(specs, [5e-10, 1e-12], samples=16)
    assert str(swept.value) == str(alone.value)


def test_sweep_rejects_empty():
    with pytest.raises(RhoPlanesError):
        sweep([], [0.5])
    with pytest.raises(RhoPlanesError):
        sweep([EUCLID], [])


def test_sweep_serialization_deterministic(monkeypatch, capsys):
    result1 = sweep([EUCLID, SQUARE], [0.5], samples=32)
    result2 = sweep([EUCLID, SQUARE], [0.5], samples=32)
    assert sweep_to_csv(result1) == sweep_to_csv(result2)
    monkeypatch.setenv("RHO_PLANES_SEED", "1")
    argv = ["sweep", "--spec", "euclid", "--spec", SQUARE.spec_id, "--rhos", "0.5",
            "--samples", "32", "--format", "json"]
    outputs = []
    for _ in range(2):
        assert cli.main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    csv_text = sweep_to_csv(result1, comment="config: {}")
    assert csv_text.startswith("# config: {}\n")
    assert csv_text.splitlines()[1] == "spec,rho,samples,max_dev,worst_theta,pass"
    # quoted spec ids keep the CSV parseable despite embedded commas
    result3 = sweep([QUAD14], [0.5], samples=32)
    import csv as csvmod
    import io
    rows = list(csvmod.reader(io.StringIO(sweep_to_csv(result3))))
    assert rows[1][0] == "quad:1,0,4"


def test_completeness_of_checker_on_non_ips():
    for spec in (SQUARE, LP4):
        for rho in (1 / 3, 0.5, 0.5 ** 0.75):
            rep = check_midpoint_property(spec, rho, 256)
            assert rep.max_midpoint_deviation > 1e-4, (spec.spec_id, rho)
