"""Independent checks of every request's output.

Expected values come from theory and from the benchmark's own geometry
(perfbench.geometry), never from the library under test: inner-product
norms have the midpoint-support property at every rho, other norms fail it
at odd-gon closure ratios, orbit vertices lie on the unit circle and their
chords support rho*S, and the inner-product star map, conic and areas have
closed forms.  `verify` returns None for a correct output and a reason
otherwise.
"""

import csv
import hashlib
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo

PROPERTY_TOL = 1e-8    # the CLI default --tol, and the soundness threshold
ON_CIRCLE_TOL = 1e-9
PIXEL_TOL = 1e-4       # world units; SVG coordinates carry 3 decimals of pixels
CHORD_SAMPLES = 6
AREA_TOL = 1e-6        # relative; the area engine's acceptance threshold
# lp norms this close to p = 2 fail the property by less than PROPERTY_TOL
NEAR_EUCLID_P = 1e-3

SVG_NS = "{http://www.w3.org/2000/svg}"
CANVAS = 800.0
VIEW_HALF = 1.3


class OracleError(Exception):
    pass


@dataclass
class Outcome:
    """What one request produced."""

    code: int | None = None          # CLI exit code
    stdout: str = ""
    stderr: str = ""
    value: object = None             # library return value
    error: str | None = None         # raw exception that escaped
    written: bytes | None = None     # contents of the request's --out file


@dataclass
class Memo:
    """Cross-request state: repeat hashes and the orbits written as JSON."""

    hashes: dict = field(default_factory=dict)
    records: dict = field(default_factory=dict)


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


def _reject_constant(token):
    raise OracleError(f"non-finite JSON token {token}")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def finite(x, what: str) -> float:
    expect(isinstance(x, (int, float)) and not isinstance(x, bool), f"{what} is not a number")
    expect(math.isfinite(x), f"{what} is not finite: {x}")
    return float(x)


def _check_repeat(req, data: bytes, memo: Memo) -> None:
    if req.repeat_key is None:
        return
    digest = hashlib.sha256(data).hexdigest()
    first = memo.hashes.setdefault(req.repeat_key, digest)
    expect(first == digest, f"repeat {req.repeat_key} is not byte-identical")


def _expects_failure(norm, closure) -> bool:
    """Non-inner-product norms fail the property at odd-gon closure ratios."""
    if norm.is_ips or closure is None or closure[1] % 2 == 0:
        return False
    return not (norm.kind == "lp" and abs(norm.params[0] - 2.0) < NEAR_EUCLID_P)


def _verdict(norm, closure, max_dev: float, passed: bool) -> None:
    expect(max_dev >= 0.0, f"negative deviation {max_dev}")
    expect(passed == (max_dev <= PROPERTY_TOL), "pass flag disagrees with max_dev")
    if norm.is_ips:
        expect(passed and max_dev <= PROPERTY_TOL,
               f"inner-product norm {norm.text} reports max_dev {max_dev:.3e}")
    elif _expects_failure(norm, closure):
        expect(not passed, f"{norm.text} passes at closure ratio {closure}")


def _cli_ok(out: Outcome) -> None:
    expect(out.error is None, f"raw exception: {out.error}")
    expect(out.code == 0, f"exit code {out.code}: {out.stderr.strip()[:200]}")


def _written(out: Outcome) -> bytes:
    expect(out.written is not None, "no output file was written")
    return out.written


# -- check and sweep ----------------------------------------------------------------


def check_check(req, out: Outcome, memo: Memo) -> None:
    _cli_ok(out)
    rep = strict_json(out.stdout)["report"]
    expect(abs(finite(rep["rho"], "rho") - req.rho) <= 1e-12, f"rho echoed as {rep['rho']}")
    expect(isinstance(rep["samples"], int) and 256 <= rep["samples"] <= 264,
           f"samples {rep['samples']}")
    theta = finite(rep["worst_theta"], "worst_theta")
    expect(0.0 <= theta < geo.TWO_PI, f"worst_theta {theta} outside [0, 2pi)")
    expect(isinstance(rep["pass"], bool), "pass is not a boolean")
    _verdict(req.norm, req.closure[0], finite(rep["max_dev"], "max_dev"), rep["pass"])


def check_sweep(req, out: Outcome, memo: Memo) -> None:
    _cli_ok(out)
    lines = out.stdout.split("\n")
    expect(lines[0].startswith("# config: "), "missing config comment")
    strict_json(lines[0][len("# config: "):])
    expect(lines[1] == "spec,rho,samples,max_dev,worst_theta,pass", f"header {lines[1]!r}")
    expect(lines[-1] == "", "CSV does not end with a newline")
    rows = list(csv.reader(lines[2:-1]))
    cells = [(norm, rho, closure) for norm in req.norms
             for rho, closure in zip(req.rhos, req.closure)]
    expect(len(rows) == len(cells), f"{len(rows)} rows for {len(cells)} cells")
    for row, (norm, rho, closure) in zip(rows, cells):
        expect(len(row) == 6, f"row with {len(row)} fields")
        _, rho_f, samples, max_dev, theta, flag = row
        expect(rho_f == repr(rho), f"row rho {rho_f} != {rho!r}")
        expect(int(samples) >= 256, f"samples {samples}")
        finite(float(theta), "worst_theta")
        expect(flag in ("true", "false"), f"pass flag {flag!r}")
        _verdict(norm, closure, finite(float(max_dev), "max_dev"), flag == "true")
    _check_repeat(req, out.stdout.encode(), memo)


# -- orbits -------------------------------------------------------------------------


def _orbit_points(norm, rho, verts, closed: bool, start_theta=None) -> None:
    """Vertices on the unit circle, turning CCW, with chords supporting rho*S."""
    expect(len(verts) >= 2, "orbit has fewer than two vertices")
    arr = np.array([[finite(c, "vertex coordinate") for c in v] for v in verts])
    g = geo.gauge(norm, arr[:, 1], arr[:, 2])
    worst = float(np.max(np.abs(g - 1.0)))
    expect(worst <= ON_CIRCLE_TOL, f"vertex off the unit circle by {worst:.3e}")
    phases = np.arctan2(arr[:, 2], arr[:, 1])
    gaps = np.abs((phases - arr[:, 0] + np.pi) % geo.TWO_PI - np.pi)
    expect(float(np.max(gaps)) <= 1e-9, "vertex theta disagrees with its coordinates")
    if start_theta is not None:
        expect(geo.angle_gap(arr[0, 0], start_theta) <= 1e-9, "orbit does not start at the seed")
    pairs = list(zip(range(len(verts) - 1), range(1, len(verts))))
    if closed:
        pairs.append((len(verts) - 1, 0))
    steps = (np.array([arr[j, 0] - arr[i, 0] for i, j in pairs])) % geo.TWO_PI
    expect(bool(np.all((steps > 0.0) & (steps < math.pi))),
           "consecutive vertices do not turn counterclockwise within a half-turn")
    picks = sorted({pairs[int(s)] for s in np.linspace(0, len(pairs) - 1, CHORD_SAMPLES)})
    for i, j in picks:
        m = geo.chord_min(norm, arr[i, 1:], arr[j, 1:])
        expect(abs(m - rho) <= ON_CIRCLE_TOL,
               f"chord {i}->{j} has minimum {m!r}, rho is {rho!r}")


def _expected_nk(closure) -> tuple[int, int]:
    k, n = closure
    g = math.gcd(k, n)
    return n // g, k // g


def check_polygon_record(req, rec: dict) -> None:
    rho = req.rho
    expect(abs(finite(rec["rho"], "rho") - rho) <= 1e-12, f"rho recorded as {rec['rho']}")
    verts = rec["vertices"]
    status = rec["status"]
    expect(status in ("closed", "non_closing"), f"status {status!r}")
    closed = status == "closed"
    _orbit_points(req.norm, rho, verts, closed, req.seed_theta)
    if closed:
        n, k = rec["n"], rec["k"]
        expect(n == len(verts) and n >= 3, f"n={n} with {len(verts)} vertices")
        turning = sum((verts[(i + 1) % n][0] - verts[i][0]) % geo.TWO_PI for i in range(n))
        expect(abs(turning - geo.TWO_PI * k) <= 1e-6, f"turning {turning} is not 2*pi*{k}")
        expect(finite(rec["closure_error"], "closure_error") <= 1e-8, "closure error too large")
        if req.norm.is_ips and req.closure[0] is not None:
            expect((n, k) == _expected_nk(req.closure[0]),
                   f"closed with n={n}, k={k}; expected {_expected_nk(req.closure[0])}")
    else:
        expect(not (req.norm.is_ips and req.closure[0] is not None),
               "inner-product orbit at a closure ratio did not close")
        expect(rec["steps"] == req.max_steps, f"steps {rec['steps']} != budget {req.max_steps}")
        expect(len(verts) == req.max_steps + 1, f"{len(verts)} vertices for {req.max_steps} steps")
        for pt in rec["accumulation_points"]:
            x, y = (finite(c, "accumulation point") for c in pt)
            expect(abs(float(geo.gauge(req.norm, x, y)) - 1.0) <= 1e-6,
                   "accumulation point off the unit circle")


def check_polygon(req, out: Outcome, memo: Memo) -> None:
    _cli_ok(out)
    if req.out is None:
        check_polygon_record(req, strict_json(out.stdout)["polygon"])
    elif req.out.endswith(".json"):
        rec = strict_json(_written(out).decode())["polygon"]
        check_polygon_record(req, rec)
        memo.records[req.out] = rec
    else:
        svg = _svg(req, _written(out))
        pts = _curve(svg, "#c22222")
        _on_circle(req.norm, pts, 1.0, "orbit vertex")
        if req.norm.is_ips and req.closure[0] is not None:
            expect(len(pts) == _expected_nk(req.closure[0])[0], f"{len(pts)} orbit vertices drawn")
        _check_repeat(req, out.written, memo)


# -- SVG --------------------------------------------------------------------------


def _svg(req, data: bytes):
    text = data.decode()
    root = ET.fromstring(text)
    expect(root.tag == SVG_NS + "svg", f"root element {root.tag}")
    expect(root.get("width") == "800" and root.get("height") == "800", "canvas is not 800x800")
    head = "<!-- config: "
    start = text.index(head) + len(head)
    conf = strict_json(text[start:text.index(" -->", start)])
    expect(conf.get("command") == req.argv[0], f"config names command {conf.get('command')}")
    _sphere(req, root)
    return root


def _world(px: np.ndarray) -> np.ndarray:
    """Pixel coordinates (n x 2) to world coordinates."""
    expect(bool(np.all(np.isfinite(px))), "non-finite SVG coordinate")
    scale = CANVAS / (2.0 * VIEW_HALF)
    return np.column_stack([px[:, 0] / scale - VIEW_HALF, VIEW_HALF - px[:, 1] / scale])


def _curve(root, stroke: str) -> np.ndarray:
    found = [el for el in root if el.tag in (SVG_NS + "polygon", SVG_NS + "polyline")
             and el.get("stroke") == stroke]
    expect(len(found) == 1, f"{len(found)} curves with stroke {stroke}")
    points = found[0].get("points").split()
    return _world(np.array([[float(v) for v in pair.split(",")] for pair in points]))


def _on_circle(norm, pts: np.ndarray, radius: float, what: str) -> None:
    g = geo.gauge(norm, pts[:, 0], pts[:, 1])
    worst = float(np.max(np.abs(g - radius)))
    expect(worst <= PIXEL_TOL, f"{what} off its curve by {worst:.2e}")


def _sphere(req, root) -> None:
    circle = _curve(root, "#000000")
    expect(len(circle) == 512, f"unit circle drawn with {len(circle)} points")
    _on_circle(req.norm, circle, 1.0, "unit circle point")
    homothet = _curve(root, "#888888")
    _on_circle(req.norm, homothet, req.rho, "homothet point")


def check_render(req, out: Outcome, memo: Memo) -> None:
    _cli_ok(out)
    root = _svg(req, _written(out))
    if req.source is not None:
        rec = memo.records.get(req.source)
        expect(rec is not None, f"no orbit record was written to {req.source}")
        drawn = _curve(root, "#c22222")
        verts = np.array([[x, y] for _, x, y in rec["vertices"]])
        expect(drawn.shape == verts.shape, "re-render draws another vertex count")
        expect(float(np.max(np.abs(drawn - verts))) <= PIXEL_TOL, "re-render moved the vertices")
        return
    ellipse = _curve(root, "#2040c0")
    # for an inner-product norm the supporting conic is the unit circle itself
    _on_circle(req.norm, ellipse, 1.0, "conic point")
    labels = [el.text for el in root if el.tag == SVG_NS + "text"]
    expect(labels == ["u", "w", "u*"], f"labels {labels}")
    marks = [(float(el.get("cx")), float(el.get("cy"))) for el in root
             if el.tag == SVG_NS + "circle" and el.get("fill") == "#106010"]
    expect(len(marks) == 3, f"{len(marks)} marked points")
    world = _world(np.array(marks))
    u = geo.unit_point(req.norm, req.seed_theta)
    star = geo.ips_star(req.norm, u, req.rho)
    w = ((u[0] + star[0]) / (2 * req.rho), (u[1] + star[1]) / (2 * req.rho))
    for got, want, name in zip(world, (u, w, star), ("u", "w", "u*")):
        expect(math.dist(got, want) <= PIXEL_TOL, f"marked {name} at {got}, expected {want}")


# -- conic, area, probe ----------------------------------------------------------------


def check_ellipse(req, out: Outcome, memo: Memo) -> None:
    _cli_ok(out)
    doc = strict_json(out.stdout)
    u = [finite(c, "u") for c in doc["u"]]
    star = [finite(c, "u_star") for c in doc["u_star"]]
    w = [finite(c, "w") for c in doc["w"]]
    want_u = geo.unit_point(req.norm, req.seed_theta)
    expect(math.dist(u, want_u) <= ON_CIRCLE_TOL, f"u {u} is not s(seed) {want_u}")
    want = geo.ips_star(req.norm, u, req.rho)
    expect(math.dist(star, want) <= ON_CIRCLE_TOL, f"u* {star} differs from the rotation {want}")
    conic = doc["conic"]
    a, b, c = (finite(conic[key], key) for key in "abc")
    finite(conic["cond"], "cond")
    for name, (x, y) in (("u", u), ("w", w), ("u*", star)):
        expect(abs(a * x * x + b * x * y + c * y * y - 1.0) <= ON_CIRCLE_TOL,
               f"conic misses {name}")


def check_area(req, out: Outcome, memo: Memo) -> None:
    _cli_ok(out)
    sec = strict_json(out.stdout)["sector"]
    value = finite(sec["value"], "value")
    est = finite(sec["error_estimate"], "error_estimate")
    expect(est > 0.0, "error estimate is not positive")
    exact = geo.ips_sector_area(req.norm, req.alpha, req.beta)
    # the closed form is evaluated in extended precision: one ulp covers its rounding
    slack = np.spacing(exact)
    expect(abs(value - exact) <= est + slack,
           f"area {value!r} vs exact {exact!r} beyond the estimate {est:.2e}")


def check_probe_even(req, out: Outcome, memo: Memo) -> None:
    _cli_ok(out)
    rec = strict_json(out.stdout)["even_probe"]
    n_exp, _ = _expected_nk(req.closure[0])
    expect(rec["pv_status"] == "closed" and rec["pw_status"] == "closed",
           f"orbits {rec['pv_status']}/{rec['pw_status']}")
    expect(rec["pv_vertices"] == n_exp, f"{rec['pv_vertices']} vertices, expected {n_exp}")
    expect(finite(rec["antipodal_match_dist"], "antipodal match") <= 1e-8,
           "orbit is not its own antipodal orbit")
    expect(rec["sector_count"] == 2 * n_exp, f"{rec['sector_count']} sectors")
    expect(finite(rec["sector_spread"], "sector spread") <= 1e-6, "2n sectors are not equal")
    ball = geo.ips_ball_area(req.norm)
    expect(abs(finite(rec["ball_area"], "ball area") - ball) <= AREA_TOL * ball,
           f"ball area {rec['ball_area']} vs {ball}")
    expect(abs(finite(rec["sector_sum"], "sector sum") - ball) <= AREA_TOL * ball,
           "sectors do not tile the ball")


# -- library calls ------------------------------------------------------------------


def check_suite(req, out: Outcome, memo: Memo) -> None:
    expect(out.error is None, f"raw exception: {out.error}")
    rep = out.value
    n, k = _expected_nk(req.closure[0])
    expect((rep.n, rep.k) == (n, k), f"suite orbit n={rep.n}, k={rep.k}; expected {(n, k)}")
    expect(finite(rep.wedge_spread, "wedge spread") <= 1e-8, f"wedge spread {rep.wedge_spread:.2e}")
    expect(finite(rep.sector_spread, "sector spread") <= 1e-5,
           f"sector spread {rep.sector_spread:.2e}")
    expect(len(rep.partition.areas) == 2 * n, "partition does not have 2n sectors")
    expect(finite(rep.partition.spread, "partition spread") <= 1e-5, "partition is not equal")
    ball = geo.ips_ball_area(req.norm)
    expect(abs(rep.ball_area - ball) <= AREA_TOL * ball, f"ball area {rep.ball_area} vs {ball}")
    expect(abs(rep.sector_sum - k * ball) <= AREA_TOL * k * ball, "sectors do not sum to k balls")
    expect(rep.pw_match_dist <= 1e-6, "midpoint orbit matches neither seed orbit")
    verts = rep.partition.boundary
    g = geo.gauge(req.norm, np.array([v.x for v in verts]), np.array([v.y for v in verts]))
    expect(float(np.max(np.abs(g - 1.0))) <= ON_CIRCLE_TOL, "partition vertex off the circle")


def check_tangency(req, out: Outcome, memo: Memo) -> None:
    expect(out.error is None, f"raw exception: {out.error}")
    expect(out.value == (True, True), f"inner-product conic not tangent: {out.value}")


def check_frame(req, out: Outcome, memo: Memo) -> None:
    expect(out.error is None, f"raw exception: {out.error}")
    fr = out.value
    mu = math.sqrt(1.0 / (req.rho * req.rho) - 1.0)
    expect(abs(fr.mu - mu) <= ON_CIRCLE_TOL * max(1.0, mu), f"mu {fr.mu} vs {mu}")
    ends = np.array([fr.left, fr.right, fr.base.coords])
    g = geo.gauge(req.norm, ends[:, 0], ends[:, 1])
    expect(float(np.max(np.abs(g - 1.0))) <= ON_CIRCLE_TOL, "frame endpoint off the circle")
    expect(geo.angle_gap(fr.base.theta, req.seed_theta) <= 1e-12, "frame base angle")


ORACLES = {
    "check": check_check,
    "sweep": check_sweep,
    "polygon": check_polygon,
    "render": check_render,
    "ellipse": check_ellipse,
    "area": check_area,
    "probe-even": check_probe_even,
    "suite": check_suite,
    "tangency": check_tangency,
    "frame": check_frame,
}


def verify(req, out: Outcome, memo: Memo) -> str | None:
    """None when the output is correct, else the first reason it is not."""
    try:
        ORACLES[req.kind](req, out, memo)
    except OracleError as exc:
        return str(exc)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError, UnicodeDecodeError,
            ET.ParseError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None
