"""Seeded request generators for the benchmark workloads.

A workload is an endless sequence of requests built one cycle at a time.
Every cycle has a fixed shape: which commands run, on which norm families,
with which step budgets.  The seed draws only the values inside each slot
(rho, seed angles, quadratic coefficients, lp exponents, polygon shapes), so
every seed asks for the same mix of work while the inputs themselves differ.
Request i is a pure function of (workload, seed, i).

Ranges are the ones a user of the CLI would pass: quadratic forms with axis
ratios up to e^3, lp exponents in [1.1, 16], symmetric polygons with 4 to 12
vertices, odd-gon closure ratios up to n = 13 and generic rho in [0.05, 0.98].
"""

import itertools
import math
import random
from dataclasses import dataclass

WORKDIR = ".perfbench_out/work"

SQUARE_TEXT = "poly:1,1;-1,1;-1,-1;1,-1"


@dataclass(frozen=True)
class Norm:
    """A norm as the benchmark knows it, independently of the library."""

    kind: str      # euclid | quad | lp | poly
    text: str      # the spec string handed to the program
    params: tuple  # () | (a, b, c) | (p,) | CCW vertices ((x, y), ...)

    @property
    def is_ips(self) -> bool:
        return self.kind in ("euclid", "quad")


@dataclass(frozen=True)
class Request:
    """One request: a CLI argv, or a library call when argv is empty.

    `closure` holds, for each rho, the (k, n) of the closure ratio
    cos(k*pi/n) it was built from, or None for a generic rho.  Requests that
    share a `repeat_key` must produce byte-identical output.
    """

    kind: str
    argv: tuple = ()
    norms: tuple = ()
    rhos: tuple = ()
    closure: tuple = ()
    seed_theta: float | None = None
    max_steps: int | None = None
    alpha: float | None = None
    beta: float | None = None
    out: str | None = None
    source: str | None = None
    repeat_key: str | None = None

    @property
    def norm(self) -> Norm:
        return self.norms[0]

    @property
    def rho(self) -> float:
        return self.rhos[0]


# -- norm families ------------------------------------------------------------


def _g6(x: float) -> str:
    return f"{x:.6g}"


def euclid_norm(rng=None) -> Norm:
    return Norm("euclid", "euclid", ())


def quad_norm(rng) -> Norm:
    a = float(_g6(math.exp(rng.uniform(-1.5, 1.5))))
    c = float(_g6(math.exp(rng.uniform(-1.5, 1.5))))
    b = float(_g6(rng.uniform(-0.9, 0.9) * 2.0 * math.sqrt(a * c)))
    return Norm("quad", f"quad:{_g6(a)},{_g6(b)},{_g6(c)}", (a, b, c))


def lp_norm(rng, lo: float = 1.1, hi: float = 16.0) -> Norm:
    text = f"{rng.uniform(lo, hi):.4f}"
    return Norm("lp", "lp:" + text, (float(text),))


def l1_norm(rng=None) -> Norm:
    return Norm("lp", "lp:1", (1.0,))


def square_norm(rng=None) -> Norm:
    return Norm("poly", SQUARE_TEXT, ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)))


def polygon_norm(rng, vertices: int) -> Norm:
    """A random centrally symmetric convex polygon with `vertices` corners.

    Points on the unit circle with angular gaps of at least 0.15 rad are
    mapped by a random linear map of positive determinant, which keeps them
    in strictly convex position and in counterclockwise order.
    """
    half = vertices // 2
    gap = 0.15
    weights = [rng.expovariate(1.0) for _ in range(half)]
    spare = math.pi - half * gap
    theta = rng.uniform(0.0, math.pi)
    angles = []
    for w in weights:
        angles.append(theta)
        theta += gap + spare * w / sum(weights)
    s1, s2, shear = rng.uniform(0.6, 1.6), rng.uniform(0.6, 1.6), rng.uniform(-0.5, 0.5)
    pts = [(float(f"{s1 * math.cos(t) + shear * math.sin(t):.6f}"),
            float(f"{s2 * math.sin(t):.6f}")) for t in angles]
    pts += [(-x, -y) for x, y in pts]
    text = "poly:" + ";".join(f"{x!r},{y!r}" for x, y in pts)
    return Norm("poly", text, tuple(pts))


def _family(name: str, rng, vertices: int = 6) -> Norm:
    if name == "poly":
        return polygon_norm(rng, vertices)
    return {"euclid": euclid_norm, "quad": quad_norm, "lp": lp_norm,
            "lp1": l1_norm, "square": square_norm}[name](rng)


# -- rho values -----------------------------------------------------------------


def closure_rho(k: int, n: int) -> float:
    return math.cos(k * math.pi / n)


def _odd_closure(rng, m_max: int = 6) -> tuple[int, int]:
    m = rng.randint(1, m_max)
    return rng.randint(1, m), 2 * m + 1


def _generic_rho(rng) -> float:
    return float(f"{rng.uniform(0.05, 0.98):.6f}")


def _angle(rng) -> float:
    return float(f"{rng.uniform(0.0, 2.0 * math.pi):.6f}")


def _rho_args(closure, rho) -> list[str]:
    if closure is None:
        return ["--rho", repr(rho)]
    return ["--kn", f"{closure[0]},{closure[1]}"]


# -- check_grid -------------------------------------------------------------------

# lp:p appears twice: its cost spans the gap between the cheap families and
# the large polygons, which keeps the p75 latency away from a jump
CHECK_FAMILIES = ("euclid", "lp", "quad", "lp1", "poly", "square", "lp")
# the four lp:p checks of a cycle take one exponent from each stratum, and the
# closure checks step through m = 1..6, so every cycle spans both full ranges
P_STRATA = ((1.1, 1.6), (1.6, 3.0), (3.0, 7.0), (7.0, 16.0))
SWEEP_PARTNERS = ("lp", "lp1", "square")


def check_request(norm: Norm, closure, rho: float) -> Request:
    argv = ["check", "--spec", norm.text] + _rho_args(closure, rho)
    return Request("check", tuple(argv), (norm,), (rho,), (closure,))


def sweep_request(norms, rhos, closures, key) -> Request:
    argv = ["sweep"]
    for norm in norms:
        argv += ["--spec", norm.text]
    argv += ["--rhos", ",".join(repr(r) for r in rhos), "--format", "csv"]
    return Request("sweep", tuple(argv), tuple(norms), tuple(rhos), tuple(closures),
                   repeat_key=key)


def _check_grid_cycle(seed: int, c: int) -> list[Request]:
    """Each family at odd-gon closure ratios and at generic rho, then a 2x3
    CSV sweep after each half; the second sweep repeats the first."""
    rng = random.Random(f"check_grid:{seed}:{c}")
    # polygon sizes pair up as (4, 12), (6, 10), (8, 8), ... so every cycle
    # costs about the same
    sizes = (4 + 2 * (c % 5), 12 - 2 * (c % 5))
    srng = random.Random(f"check_grid:{seed}:sweep:{c}")
    ips = euclid_norm() if c % 2 == 0 else quad_norm(srng)
    other = _family(SWEEP_PARTNERS[c % 3], srng)
    kn1, kn2 = _odd_closure(srng), _odd_closure(srng)
    sweep = sweep_request((ips, other), (closure_rho(*kn1), _generic_rho(srng), closure_rho(*kn2)),
                          (kn1, None, kn2), f"sweep-{c}")
    out = []
    n_lp = n_closure = 0
    for half in (0, 1):
        for i, name in enumerate(CHECK_FAMILIES):
            if name == "lp":
                norm = lp_norm(rng, *P_STRATA[(n_lp + c) % len(P_STRATA)])
                n_lp += 1
            else:
                norm = _family(name, rng, sizes[half])
            if (i + half + c) % 2 == 0:
                m = 1 + (n_closure + c) % 6
                n_closure += 1
                kn = (rng.randint(1, m), 2 * m + 1)
                out.append(check_request(norm, kn, closure_rho(*kn)))
            else:
                out.append(check_request(norm, None, _generic_rho(rng)))
        out.append(sweep)
    return out


# -- orbit_walk -------------------------------------------------------------------

# (family, step budget); 2000 is the CLI default and is passed by omission.
# Six long orbits are spread among ten short ones, so every stretch of the
# stream has the same mix.  The p75 latency falls among the three 900-step
# lp:1 orbits, whose cost hardly depends on rho; the other three long orbits
# (2000-step euclid, 1500-step lp:p, 2000-step square) cost clearly more.
ORBIT_SLOTS = (("quad", 60), ("square", 100), ("lp1", 900), ("lp1", 150),
               ("euclid", 2000), ("poly", 40), ("lp1", 900), ("lp", 120),
               ("euclid", 200), ("lp", 1500), ("poly", 60), ("lp1", 900),
               ("quad", 150), ("lp", 80), ("square", 2000), ("square", 150))


def polygon_request(norm: Norm, closure, rho: float, seed_theta: float,
                    max_steps: int = 2000, out: str | None = None,
                    repeat_key: str | None = None) -> Request:
    argv = ["polygon", "--spec", norm.text] + _rho_args(closure, rho)
    argv += ["--seed", repr(seed_theta)]
    if max_steps != 2000:
        argv += ["--max-steps", str(max_steps)]
    if out is not None:
        argv += ["--out", out]
    return Request("polygon", tuple(argv), (norm,), (rho,), (closure,),
                   seed_theta=seed_theta, max_steps=max_steps, out=out,
                   repeat_key=repeat_key)


def _orbit_walk_cycle(seed: int, c: int) -> list[Request]:
    """Non-inner-product norms at closure and generic ratios, inner-product
    norms at generic ratios only, so no orbit closes before its budget."""
    rng = random.Random(f"orbit_walk:{seed}:{c}")
    out = []
    polygons = 0
    for j, (name, budget) in enumerate(ORBIT_SLOTS):
        if name == "poly":
            # one hexagon and one octagon per cycle, in alternating slots
            polygons += 1
            norm = polygon_norm(rng, 6 if (polygons + c) % 2 else 8)
        else:
            norm = _family(name, rng)
        if not norm.is_ips and (j + c) % 2 == 0:
            kn = _odd_closure(rng)
            closure, rho = kn, closure_rho(*kn)
        else:
            closure, rho = None, _generic_rho(rng)
        out.append(polygon_request(norm, closure, rho, _angle(rng), budget))
    return out


# -- figures --------------------------------------------------------------------

EVEN_KN = ((1, 4), (1, 6), (1, 8), (3, 8), (1, 10), (3, 10))
_CLOSURE_M = (1, 2, 3, 4)


def _figures_cycle(seed: int, c: int) -> list[Request]:
    """One round of figures on euclid/quad at an odd-gon closure ratio: the
    orbit as JSON and SVG (the SVG twice, to two paths), a re-render of the
    JSON, the conic figure, the conic fit, the even-gon probe, and the library
    partition suite, tangency test and chord frame.  The `area` command is
    left out: its known error-estimate defect fails about 1 request in 100
    (see perfbench/README.md); probe-even and the suite still run the area
    engine."""
    rng = random.Random(f"figures:{seed}:{c}")
    norm = euclid_norm() if c % 2 == 0 else quad_norm(rng)
    m = _CLOSURE_M[(c // 2) % len(_CLOSURE_M)]
    n = 2 * m + 1
    k = rng.randint(1, m)
    kn, rho = (k, n), closure_rho(k, n)
    base = f"{WORKDIR}/c{c % 2}"
    theta, theta2, theta3 = _angle(rng), _angle(rng), _angle(rng)
    spec = ["--spec", norm.text]
    kn_args = ["--kn", f"{k},{n}"]
    even = EVEN_KN[c % len(EVEN_KN)]
    common = dict(norms=(norm,), rhos=(rho,), closure=(kn,))
    svg_key = f"polygon-svg-{c}"
    return [
        polygon_request(norm, kn, rho, theta, out=base + ".json"),
        Request("render", ("render", "--from-json", base + ".json", "--out", base + "_r.svg"),
                source=base + ".json", out=base + "_r.svg", seed_theta=theta, **common),
        polygon_request(norm, kn, rho, theta, out=base + ".svg", repeat_key=svg_key),
        polygon_request(norm, kn, rho, theta, out=base + "_b.svg", repeat_key=svg_key),
        Request("render", tuple(["render"] + spec + kn_args
                                + ["--seed", repr(theta2), "--show-ellipse", "--out", base + "_e.svg"]),
                seed_theta=theta2, out=base + "_e.svg", **common),
        Request("ellipse", tuple(["ellipse"] + spec + kn_args + ["--seed", repr(theta2)]),
                seed_theta=theta2, **common),
        Request("probe-even", tuple(["probe-even"] + spec
                                    + ["--kn", f"{even[0]},{even[1]}", "--seed", repr(theta3)]),
                norms=(norm,), rhos=(closure_rho(*even),), closure=(even,), seed_theta=theta3),
        Request("suite", seed_theta=theta, **common),
        Request("tangency", seed_theta=theta2, **common),
        Request("frame", seed_theta=theta3, **common),
    ]


# -- public entry points ------------------------------------------------------------

WORKLOADS = {
    "check_grid": _check_grid_cycle,
    "orbit_walk": _orbit_walk_cycle,
    "figures": _figures_cycle,
}

# requests a traced run executes: a fixed prefix, so counts repeat exactly
TRACE_REQUESTS = {"check_grid": 32, "orbit_walk": 16, "figures": 160}


def cycles(workload: str, seed: int):
    """Endless, deterministic stream of a workload's request cycles."""
    build = WORKLOADS[workload]
    for c in itertools.count():
        yield build(seed, c)


def requests(workload: str, seed: int):
    return itertools.chain.from_iterable(cycles(workload, seed))


def prefix(workload: str, seed: int, count: int) -> list[Request]:
    return list(itertools.islice(requests(workload, seed), count))


def spec_texts(reqs) -> list[str]:
    """Distinct spec strings of a request list, in first-use order."""
    seen = {}
    for req in reqs:
        for norm in req.norms:
            seen.setdefault(norm.text, None)
    return list(seen)
