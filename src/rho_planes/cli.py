"""Command-line front end.

Commands: check, polygon, ellipse, area, sweep, probe-even, render.
Flags may be combined with a JSON config file (flags win); the effective
config is embedded in every output.  Exit codes: 0 success, 1 property
failure on an inner-product family, 2 usage error, 3 numerical error.
All errors are also emitted as structured JSON on stderr.
"""

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import time

from .errors import (ConfigurationError, DomainError, GeometryError,
                     NonClosingError, NumericalError, RhoPlanesError)
from .norms import NormSpec, natural_param
from .chords import star_map
from .polygons import (DEFAULT_CLOSE_TOL, DEFAULT_MAX_STEPS, build_polygon,
                       polygon_to_dict, rho_from_kn)
from .conics import fit_rho_ellipse
from .areas import DEFAULT_SAMPLES, sector_area
from .lab import (DEFAULT_CHECK_SAMPLES, DEFAULT_CHECK_TOL, check_midpoint_property,
                  even_probe, sweep, sweep_to_csv, sweep_to_json)
from . import svg as svgmod

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


class UsageError(RhoPlanesError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="rho-planes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, specs="one"):
        if specs == "one":
            p.add_argument("--spec", default=None, help="norm spec string")
        else:
            p.add_argument("--spec", action="append", default=None,
                           help="norm spec string (repeatable)")
        p.add_argument("--config", default=None, help="JSON config file; flags win")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", default=None, choices=("json", "csv", "svg"))

    p = sub.add_parser("check", help="midpoint-support property check")
    common(p)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--kn", default=None, help="k,n resolved to a closure ratio")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("polygon", help="build a star-map orbit")
    common(p)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--kn", default=None)
    p.add_argument("--seed", type=float, default=None, help="seed angle")
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--close-tol", type=float, default=None)

    p = sub.add_parser("ellipse", help="fit the supporting conic at a seed")
    common(p)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--kn", default=None)
    p.add_argument("--seed", type=float, default=None)

    p = sub.add_parser("area", help="sector area between two angles")
    common(p)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--samples", type=int, default=None)

    p = sub.add_parser("sweep", help="check a grid of specs and rhos")
    common(p, specs="many")
    p.add_argument("--rhos", default=None, help="comma-separated rho list")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("probe-even", help="evidence probe for even vertex counts")
    common(p)
    p.add_argument("--kn", default=None, required=False)
    p.add_argument("--seed", type=float, default=None)

    p = sub.add_parser("render", help="render circle/orbit/conic layers as SVG")
    common(p)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--kn", default=None)
    p.add_argument("--seed", type=float, default=None)
    p.add_argument("--show-ellipse", action="store_true", default=None)
    p.add_argument("--from-json", default=None,
                   help="re-render a polygon JSON record")
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    """Flags win over config-file entries, which win over built-in defaults."""
    merged = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_conf = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {args.config}: {exc}")
        if not isinstance(file_conf, dict):
            raise UsageError("config file must hold a JSON object")
        merged.update(file_conf)
    for key, value in vars(args).items():
        if key == "config" or value is None:
            continue
        merged[key] = value
    merged.pop("config", None)
    return merged


_DEFAULTS = {
    "samples": DEFAULT_CHECK_SAMPLES,
    "area_samples": DEFAULT_SAMPLES,
    "tol": DEFAULT_CHECK_TOL,
    "seed": 0.0,
    "max_steps": DEFAULT_MAX_STEPS,
    "close_tol": DEFAULT_CLOSE_TOL,
}


def _parse_kn(kn) -> tuple[int, int]:
    try:
        k, n = (int(t) for t in str(kn).split(","))
    except ValueError:
        raise UsageError(f"--kn expects 'k,n' integers, got {kn!r}")
    return k, n


def _resolve_rho(conf: dict) -> float:
    rho = conf.get("rho")
    kn = conf.get("kn")
    if rho is not None and kn is not None:
        raise UsageError("give either --rho or --kn, not both")
    if kn is not None:
        k, n = _parse_kn(kn)
        rho = rho_from_kn(k, n)
        conf["kn"] = f"{k},{n}"
    if rho is None:
        raise UsageError("a rho value is required (--rho or --kn)")
    if not 0.0 < rho < 1.0:
        raise UsageError(f"rho must lie strictly in (0, 1), got {rho}")
    conf["rho"] = rho
    return rho


def _tolerance(conf: dict, key: str) -> float:
    """A tolerance from the flags or config: a finite real >= 0, else a usage error."""
    raw = conf.get(key, _DEFAULTS[key])
    try:
        tol = float(raw)
    except (TypeError, ValueError):
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0.0):
        raise UsageError(f"--{key.replace('_', '-')} must be a finite real >= 0, got {raw!r}")
    return tol


def _parse_spec(conf: dict) -> NormSpec:
    text = conf.get("spec")
    if not text:
        raise UsageError("--spec is required")
    return NormSpec.parse(text if isinstance(text, str) else text[0])


def _config_blob(conf: dict) -> str:
    # the output path is invocation metadata, not computation config;
    # dropping it keeps renders to different paths byte-identical
    slim = {k: v for k, v in conf.items() if k != "out"}
    return json.dumps(slim, sort_keys=True, separators=(",", ":"))


def _json_doc(payload: dict, conf: dict) -> str:
    doc = dict(payload)
    doc["config"] = conf
    if not os.environ.get("RHO_PLANES_SEED"):
        doc["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    tmp = out_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, out_path)


def _cmd_check(conf: dict) -> int:
    spec = _parse_spec(conf)
    rho = _resolve_rho(conf)
    samples = int(conf.get("samples", _DEFAULTS["samples"]))
    tol = _tolerance(conf, "tol")
    report = check_midpoint_property(spec, rho, samples, tol)
    _emit(_json_doc({"report": report.to_dict()}, conf), conf.get("out"))
    if not report.passed and spec.is_ips_family:
        return EXIT_PROPERTY_FAILURE
    return EXIT_OK


def _cmd_sweep(conf: dict) -> int:
    specs_raw = conf.get("spec")
    if not specs_raw:
        raise UsageError("sweep needs at least one --spec")
    if isinstance(specs_raw, str):
        specs_raw = [specs_raw]
    specs = [NormSpec.parse(s) for s in specs_raw]
    rhos_raw = conf.get("rhos")
    if not rhos_raw:
        raise UsageError("sweep needs --rhos")
    try:
        rhos = [float(t) for t in str(rhos_raw).split(",")]
    except ValueError:
        raise UsageError(f"--rhos expects comma-separated reals, got {rhos_raw!r}")
    if not all(0.0 < r < 1.0 for r in rhos):
        raise UsageError(f"--rhos entries must lie strictly in (0, 1), got {rhos_raw!r}")
    samples = int(conf.get("samples", _DEFAULTS["samples"]))
    tol = _tolerance(conf, "tol")
    result = sweep(specs, rhos, samples, tol)
    fmt = conf.get("format") or ("csv" if str(conf.get("out", "")).endswith(".csv") else "json")
    if fmt == "csv":
        text = sweep_to_csv(result, comment="config: " + _config_blob(conf))
    elif fmt == "json":
        text = sweep_to_json(result, config=conf)
    else:
        raise UsageError("sweep emits json or csv")
    _emit(text, conf.get("out"))
    return EXIT_PROPERTY_FAILURE if result.any_ips_failure else EXIT_OK


def _orbit_svg(spec, rho, verts, closed, conf) -> str:
    """The unit circle, its rho-homothet and an orbit, as an SVG document."""
    scene = svgmod.sphere_scene(spec, rho)
    svgmod.add_polygon_layer(scene, verts, closed)
    return svgmod.render_svg(scene, comment=_config_blob(conf))


def _cmd_polygon(conf: dict) -> int:
    spec = _parse_spec(conf)
    rho = _resolve_rho(conf)
    seed = float(conf.get("seed", _DEFAULTS["seed"]))
    max_steps = int(conf.get("max_steps", _DEFAULTS["max_steps"]))
    close_tol = _tolerance(conf, "close_tol")
    poly = build_polygon(spec, natural_param(spec, seed), rho, max_steps, close_tol)
    out = conf.get("out")
    fmt = conf.get("format") or ("svg" if str(out or "").endswith(".svg") else "json")
    if fmt == "svg":
        text = _orbit_svg(spec, rho, [v.coords for v in poly.vertices],
                          poly.status == "closed", conf)
    elif fmt == "json":
        text = _json_doc({"polygon": polygon_to_dict(poly)}, conf)
    else:
        raise UsageError("polygon emits json or svg")
    _emit(text, out)
    return EXIT_OK


def _supporting_conic(spec, rho, conf):
    """u at the seed angle, u*, w = (u + u*)/(2*rho) and the conic through them."""
    u = natural_param(spec, float(conf.get("seed", _DEFAULTS["seed"])))
    u_star = star_map(spec, u, rho)
    w = ((u.x + u_star.x) / (2 * rho), (u.y + u_star.y) / (2 * rho))
    return u, u_star, w, fit_rho_ellipse(u, u_star, rho)


def _cmd_ellipse(conf: dict) -> int:
    spec = _parse_spec(conf)
    rho = _resolve_rho(conf)
    u, u_star, w, conic = _supporting_conic(spec, rho, conf)
    payload = {"conic": dataclasses.asdict(conic),
               "u": u.coords, "u_star": u_star.coords, "w": w}
    _emit(_json_doc(payload, conf), conf.get("out"))
    return EXIT_OK


def _cmd_area(conf: dict) -> int:
    spec = _parse_spec(conf)
    if conf.get("alpha") is None or conf.get("beta") is None:
        raise UsageError("area needs --alpha and --beta")
    alpha = float(conf["alpha"])
    beta = float(conf["beta"])
    samples = int(conf.get("samples", _DEFAULTS["area_samples"]))
    sec = sector_area(spec, alpha, beta, samples)
    _emit(_json_doc({"sector": dataclasses.asdict(sec)}, conf), conf.get("out"))
    return EXIT_OK


def _cmd_probe_even(conf: dict) -> int:
    spec = _parse_spec(conf)
    kn = conf.get("kn")
    if not kn:
        raise UsageError("probe-even needs --kn k,n with even n")
    k, n = _parse_kn(kn)
    if n % 2 != 0:
        raise UsageError(f"probe-even needs even n, got {n}")
    seed = float(conf.get("seed", _DEFAULTS["seed"]))
    record = even_probe(spec, k, n, seed)
    _emit(_json_doc({"even_probe": dataclasses.asdict(record)}, conf), conf.get("out"))
    return EXIT_OK


def _cmd_render(conf: dict) -> int:
    from_json = conf.get("from_json")
    if from_json:
        try:
            with open(from_json, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read polygon JSON {from_json}: {exc}")
        try:
            record = doc["polygon"]
            spec = NormSpec.parse(doc["config"]["spec"])
            rho = float(record["rho"])
            verts = [(x, y) for _, x, y in record["vertices"]]
            closed = record["status"] == "closed"
        except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
            raise UsageError(f"polygon JSON is malformed: {exc}")
        _emit(_orbit_svg(spec, rho, verts, closed, conf), conf.get("out"))
        return EXIT_OK

    spec = _parse_spec(conf)
    rho = _resolve_rho(conf)
    scene = svgmod.sphere_scene(spec, rho)
    if conf.get("show_ellipse"):
        u, u_star, w, conic = _supporting_conic(spec, rho, conf)
        svgmod.add_ellipse_layer(scene, conic)
        svgmod.add_marked_points(scene, [(u.x, u.y, "u"), (w[0], w[1], "w"),
                                         (u_star.x, u_star.y, "u*")])
    text = svgmod.render_svg(scene, comment=_config_blob(conf))
    _emit(text, conf.get("out"))
    return EXIT_OK


_COMMANDS = {
    "check": _cmd_check,
    "sweep": _cmd_sweep,
    "polygon": _cmd_polygon,
    "ellipse": _cmd_ellipse,
    "area": _cmd_area,
    "probe-even": _cmd_probe_even,
    "render": _cmd_render,
}


def _error_json(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message}}) + "\n")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        conf = _merge_config(args)
        conf["command"] = args.command
        return _COMMANDS[args.command](conf)
    except (UsageError, ConfigurationError, DomainError) as exc:
        _error_json("usage", str(exc))
        return EXIT_USAGE
    except (NumericalError, NonClosingError, GeometryError) as exc:
        _error_json("numerical", str(exc))
        return EXIT_NUMERICAL
    except RhoPlanesError as exc:
        _error_json("error", str(exc))
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
