"""Seeded property tests of the CLI: verdicts on quadratic forms, and fuzzed numeric flags."""

import contextlib
import io
import json
import math
import random

from hypothesis import assume, given, settings, strategies as st

from rho_planes import ConfigurationError, NormSpec
from rho_planes.cli import main


def _no_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def run(argv):
    """Exit code and the output lines of `main(argv)`, stdout and stderr together.

    Redirects instead of taking `capsys`: a function-scoped fixture is not
    reset between the examples of one hypothesis test.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, (out.getvalue() + err.getvalue()).splitlines()


@st.composite
def accepted_quad_forms(draw):
    """A quad spec with a random axis angle, scale 1e-100..1e100 and eigenvalue ratio 1..1e12.

    Rounding can carry a form just past the eigenvalue-ratio bound; only
    forms that `NormSpec.parse` accepts are drawn.
    """
    alpha = draw(st.floats(0.0, math.pi))
    scale = 10.0 ** draw(st.floats(-100.0, 100.0))
    inverse_ratio = 10.0 ** -draw(st.floats(0.0, 12.0))
    c, s = math.cos(alpha), math.sin(alpha)
    a = scale * (c * c + s * s * inverse_ratio)
    b = 2.0 * scale * c * s * (1.0 - inverse_ratio)
    d = scale * (s * s + c * c * inverse_ratio)
    text = f"quad:{a!r},{b!r},{d!r}"
    try:
        NormSpec.parse(text)
    except ConfigurationError:
        assume(False)
    return text


RHOS = st.one_of(
    st.floats(0.01, 0.99),                                  # generic
    st.floats(2.0, 15.0).map(lambda e: 1.0 - 10.0 ** -e),   # within 1e-15..1e-2 of 1
    st.integers(1, 16).map(lambda k: 1.0 - k * 2.0 ** -53),  # the last 16 floats below 1
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(spec=accepted_quad_forms(), rho=RHOS)
def test_check_never_fails_an_accepted_quadratic_form(spec, rho):
    """An inner-product norm has the midpoint-support property: exit 1 is a wrong verdict."""
    code, lines = run(["check", "--spec", spec, "--rho", repr(rho)])
    assert code != 1, lines


NUMBERS = st.one_of(
    st.floats(),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e308", "1e400", "1e-300", "5e-324",
                     "2.2e-308", "-0.0", "0.9999999999999999", "1e-15"]),
).map(str)
SAMPLES = st.one_of(st.sampled_from(["8", "9", "64", "256"]), NUMBERS)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(p=st.floats(1.0, 1e308), rho=NUMBERS, samples=SAMPLES)
def test_check_on_any_lp_exponent_and_numeric_flags_is_typed_and_one_json_line(p, rho,
                                                                              samples):
    """Exit 0-3 (4 is a defect) and one line of strict JSON, for any lp exponent."""
    code, lines = run(["check", "--spec", f"lp:{p!r}", "--rho", rho, "--samples", samples])
    assert code in (0, 1, 2, 3), lines
    assert len(lines) == 1, lines
    json.loads(lines[0], parse_constant=_no_constant)


def _counts(lo, hi):
    """A small valid count, or any number as text."""
    return st.one_of(st.integers(lo, hi).map(str), NUMBERS)


RHO_LISTS = st.lists(st.one_of(st.floats(0.05, 0.95).map(repr), NUMBERS),
                     min_size=1, max_size=3).map(",".join)
NUMERIC_FLAG_ARGVS = st.one_of(
    st.builds(lambda seed, steps, tol: ["polygon", "--spec", "lp:3", "--rho", "0.5", "--seed",
                                        seed, "--max-steps", steps, "--close-tol", tol],
              NUMBERS, _counts(3, 40), NUMBERS),
    st.builds(lambda alpha, beta, samples: ["area", "--spec", "lp:3", "--alpha", alpha,
                                            "--beta", beta, "--samples", samples],
              NUMBERS, NUMBERS, _counts(16, 64)),
    st.builds(lambda seed: ["ellipse", "--spec", "quad:2,1,3", "--rho", "0.5", "--seed", seed],
              NUMBERS),
    st.builds(lambda spec, seed, extra: ["render", "--spec", spec, "--rho", "0.5",
                                         "--seed", seed] + extra,
              st.sampled_from(["lp:3", "lp:1"]), NUMBERS,
              st.sampled_from([[], ["--show-ellipse"]])),
    st.builds(lambda seed: ["probe-even", "--spec", "euclid", "--kn", "1,4", "--seed", seed],
              NUMBERS),
    st.builds(lambda rhos, samples, tol: ["sweep", "--spec", "lp:3", "--rhos", rhos,
                                          "--samples", samples, "--tol", tol],
              RHO_LISTS, _counts(8, 24), NUMBERS),
    st.builds(lambda tol: ["check", "--spec", "lp:3", "--rho", "0.5", "--samples", "16",
                           "--tol", tol], NUMBERS),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=NUMERIC_FLAG_ARGVS)
def test_numeric_flags_of_every_command_are_typed_and_one_json_line(argv):
    """Exit 0-3 (4 is a defect) and one line of strict JSON, or an SVG with no NaN from render."""
    code, lines = run(argv)
    assert code in (0, 1, 2, 3), (argv, lines)
    if argv[0] == "render" and code == 0:
        assert lines[0].startswith("<") and "nan" not in "\n".join(lines).lower(), argv
        return
    assert len(lines) == 1, (argv, lines)
    json.loads(lines[0], parse_constant=_no_constant)


EDGE_NUMBERS = ["nan", "-nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "-5e-324", "-0.0"]
MALFORMED = ["", " ", "x", "1e", "--1", "0x10", "1,", ",1", "1;2", "1,2,3"]
SPEC_COMMANDS = {
    "check": ["--rho", "0.5", "--samples", "16"],
    "polygon": ["--rho", "0.5", "--max-steps", "60"],
    "area": ["--alpha", "0", "--beta", "1"],
}


def _fuzz_number(rng, x):
    """x, or now and then an edge value or a malformed chunk in its place."""
    r = rng.random()
    if r < 0.88:
        return repr(x)
    return rng.choice(EDGE_NUMBERS if r < 0.96 else MALFORMED)


def _fuzz_spec(rng):
    """A quad triple, or 1-7 poly vertices counterclockwise on a half-turn (so that
    many parse), with some numbers replaced."""
    if rng.random() < 0.3:
        abc = (rng.uniform(0.0, 3.0), rng.uniform(-3.0, 3.0), rng.uniform(0.0, 3.0))
        return "quad:" + ",".join(_fuzz_number(rng, x) for x in abc)
    angles = sorted(rng.uniform(0.0, math.pi) for _ in range(rng.randint(1, 7)))
    radii = [rng.uniform(0.2, 3.0) for _ in angles]
    return "poly:" + ";".join(f"{_fuzz_number(rng, r * math.cos(a))},"
                              f"{_fuzz_number(rng, r * math.sin(a))}"
                              for a, r in zip(angles, radii))


def test_any_poly_or_quad_spec_text_is_typed_and_one_json_line():
    """Exit 0-3 (4 is a defect) and one line of strict JSON, for any poly or quad text."""
    rng = random.Random(1701)
    codes = set()
    for _ in range(600):
        spec, command = _fuzz_spec(rng), rng.choice(sorted(SPEC_COMMANDS))
        code, lines = run([command, "--spec", spec] + SPEC_COMMANDS[command])
        assert code in (0, 1, 2, 3), (spec, command, lines)
        assert len(lines) == 1, (spec, command, lines)
        json.loads(lines[0], parse_constant=_no_constant)
        codes.add(code)
    assert {0, 2} <= codes  # both valid and rejected specs were reached
