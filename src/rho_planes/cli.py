"""Command-line front end.

Commands: check, polygon, ellipse, area, sweep, probe-even, render.
Flags may be combined with a JSON config file (flags win).  Its keys are
flag names with `_` for `-`, and each entry is parsed as that flag, with
the flag's type and choices; a key that names no flag of the command is a
usage error.  A flag may be given once; only sweep's --spec repeats.
`--format` exists only on polygon (json, svg) and sweep (json, csv).
A flag that is not given takes the default of the library function it
feeds.  The effective config is embedded in every output.  Exit codes: 0
success, 1 property failure on an inner-product family, 2 usage error
(also a value outside an operation's domain, an unreadable input or an
unwritable output), 3 numerical error (also when every seed of a check
fails), 4 internal error (an exception the library does not raise on
purpose).  All errors are also emitted as structured JSON on stderr.
"""

import argparse
import contextlib
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
from .polygons import (STATUS_CLOSED, STATUS_NON_CLOSING, build_polygon, polygon_to_dict,
                       rho_from_kn)
from .conics import fit_rho_ellipse
from .areas import sector_area
from .lab import check_midpoint_property, even_probe, sweep, sweep_to_csv
from . import svg as svgmod

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_INTERNAL = 4

SEED_THETA = 0.0  # the seed angle when --seed is not given


class UsageError(RhoPlanesError):
    pass


class _StoreOnce(argparse.Action):
    """The default action: a flag that does not repeat may be given only once."""

    def __call__(self, parser, namespace, values, option_string):
        if getattr(namespace, self.dest) is not None:
            raise argparse.ArgumentError(self, "may be given only once")
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.register("action", None, _StoreOnce)

    def error(self, message):
        raise UsageError(message)


# argparse keywords of each flag; every flag defaults to None, so an unset one
# stays out of the config and the library call, which then takes its own default
_FLAGS = {
    "--spec": {"help": "norm spec string"},
    "--config": {"help": "JSON config file; flags win"},
    "--out": {"help": "output path (default stdout)"},
    "--rho": {"type": float},
    "--kn": {"help": "k,n resolved to a closure ratio"},
    "--rhos": {"help": "comma-separated rho list"},
    "--seed": {"type": float, "help": "seed angle"},
    "--alpha": {"type": float},
    "--beta": {"type": float},
    "--samples": {"type": int},
    "--tol": {"type": float},
    "--max-steps": {"type": int},
    "--close-tol": {"type": float},
    "--show-ellipse": {"action": "store_true"},
    "--from-json": {"help": "re-render a polygon JSON record"},
}


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="rho-planes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, flags, formats) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if command == "sweep":
            p.add_argument("--spec", action="append", default=None,
                           help="norm spec string (repeatable)")
        else:
            p.add_argument("--spec", default=None, **_FLAGS["--spec"])
        for flag in ("--config", "--out") + flags:
            p.add_argument(flag, default=None, **_FLAGS[flag])
        if formats:
            p.add_argument("--format", default=None, choices=formats)
    return parser


def _config_argv(command: str, path: str) -> list[str]:
    """The config file as flags: `key: value` is `--key-with-dashes=value`.

    A list repeats the flag, `true` gives the bare flag and `false` leaves it off.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            file_conf = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    if not isinstance(file_conf, dict):
        raise UsageError("config file must hold a JSON object")
    argv = [command]
    for key, value in file_conf.items():
        flag = "--" + key.replace("_", "-")
        for item in value if isinstance(value, list) else [value]:
            if item is True:
                argv.append(flag)
            elif item is not False:
                argv.append(f"{flag}={item}")
    return argv


def _merge_config(args: argparse.Namespace) -> dict:
    """Flags win over config-file entries (parsed as flags), which win over defaults."""
    layers = [args]
    if args.config:
        argv = _config_argv(args.command, args.config)
        try:
            layers.insert(0, _build_parser().parse_args(argv))
        except UsageError as exc:
            raise UsageError(f"config file {args.config}: {exc}")
    return {key: value for layer in layers for key, value in vars(layer).items()
            if key != "config" and value is not None}


def _given(conf: dict, *keys: str) -> dict:
    """The entries of conf among keys, as keyword arguments: a flag that was not
    given is left out, so the library function supplies its own default."""
    return {key: conf[key] for key in keys if key in conf}


def _parse_kn(kn) -> tuple[int, int]:
    try:
        k, n = (int(t) for t in kn.split(","))
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


def _parse_spec(conf: dict) -> NormSpec:
    text = conf.get("spec")
    if not text:
        raise UsageError("--spec is required")
    return NormSpec.parse(text)


def _config_blob(conf: dict) -> str:
    # the output path is invocation metadata, not computation config;
    # dropping it keeps renders to different paths byte-identical
    slim = {k: v for k, v in conf.items() if k != "out"}
    return json.dumps(slim, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _json_doc(payload: dict, conf: dict) -> str:
    doc = dict(payload)
    doc["config"] = conf
    if not os.environ.get("RHO_PLANES_SEED"):
        doc["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    # a tree built here, so no cycle to look for: the check adds ~9% to an orbit record
    return json.dumps(doc, sort_keys=True, check_circular=False, allow_nan=False) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    """Write to stdout, or to out_path by way of a temporary file removed if a write fails."""
    if out_path is None:
        sys.stdout.write(text)
        return
    tmp = out_path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except OSError as exc:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise UsageError(f"cannot write output {out_path}: {exc}")


def _cmd_check(conf: dict) -> tuple[str, int]:
    spec = _parse_spec(conf)
    rho = _resolve_rho(conf)
    report = check_midpoint_property(spec, rho, **_given(conf, "samples", "tol"))
    code = EXIT_PROPERTY_FAILURE if not report.passed and spec.is_ips_family else EXIT_OK
    return _json_doc({"report": report.to_dict()}, conf), code


def _cmd_sweep(conf: dict) -> tuple[str, int]:
    specs = [NormSpec.parse(s) for s in conf.get("spec", ())]
    rhos_raw = conf.get("rhos")
    if not rhos_raw:
        raise UsageError("sweep needs --rhos")
    try:
        rhos = [float(t) for t in rhos_raw.split(",")]
    except ValueError:
        raise UsageError(f"--rhos expects comma-separated reals, got {rhos_raw!r}")
    reports = sweep(specs, rhos, **_given(conf, "samples", "tol"))
    fmt = conf.get("format") or ("csv" if str(conf.get("out", "")).endswith(".csv") else "json")
    if fmt == "csv":
        text = sweep_to_csv(reports, comment="config: " + _config_blob(conf))
    else:
        text = _json_doc({"reports": [r.to_dict() for r in reports]}, conf)
    failed = {r.spec_id for r in reports if not r.passed}
    ips_failed = any(spec.is_ips_family and spec.spec_id in failed for spec in specs)
    return text, EXIT_PROPERTY_FAILURE if ips_failed else EXIT_OK


def _cmd_polygon(conf: dict) -> tuple[str, int]:
    spec = _parse_spec(conf)
    rho = _resolve_rho(conf)
    seed = natural_param(spec, conf.get("seed", SEED_THETA))
    poly = build_polygon(spec, seed, rho, **_given(conf, "max_steps", "close_tol"))
    fmt = conf.get("format") or ("svg" if str(conf.get("out", "")).endswith(".svg") else "json")
    if fmt == "svg":
        text = svgmod.render_svg(spec, rho, _config_blob(conf),
                                 orbit=[v.coords for v in poly.vertices],
                                 closed=poly.status == STATUS_CLOSED)
    else:
        text = _json_doc({"polygon": polygon_to_dict(poly)}, conf)
    return text, EXIT_OK


def _supporting_conic(spec, rho, conf):
    """u at the seed angle, u*, w = (u + u*)/(2*rho) and the conic through them."""
    u = natural_param(spec, conf.get("seed", SEED_THETA))
    u_star = star_map(spec, u, rho)
    w = ((u.x + u_star.x) / (2 * rho), (u.y + u_star.y) / (2 * rho))
    return u, u_star, w, fit_rho_ellipse(u, u_star, rho)


def _cmd_ellipse(conf: dict) -> tuple[str, int]:
    spec = _parse_spec(conf)
    rho = _resolve_rho(conf)
    u, u_star, w, conic = _supporting_conic(spec, rho, conf)
    payload = {"conic": dataclasses.asdict(conic),
               "u": u.coords, "u_star": u_star.coords, "w": w}
    return _json_doc(payload, conf), EXIT_OK


def _cmd_area(conf: dict) -> tuple[str, int]:
    spec = _parse_spec(conf)
    if conf.get("alpha") is None or conf.get("beta") is None:
        raise UsageError("area needs --alpha and --beta")
    sec = sector_area(spec, conf["alpha"], conf["beta"], **_given(conf, "samples"))
    return _json_doc({"sector": dataclasses.asdict(sec)}, conf), EXIT_OK


def _cmd_probe_even(conf: dict) -> tuple[str, int]:
    spec = _parse_spec(conf)
    kn = conf.get("kn")
    if not kn:
        raise UsageError("probe-even needs --kn k,n with even n")
    k, n = _parse_kn(kn)
    record = even_probe(spec, k, n, conf.get("seed", SEED_THETA))
    return _json_doc({"even_probe": dataclasses.asdict(record)}, conf), EXIT_OK


def _cmd_render(conf: dict) -> tuple[str, int]:
    seed = conf.get("seed", SEED_THETA)
    if not math.isfinite(seed):  # written to the SVG's config comment even when unused
        raise UsageError(f"--seed must be finite, got {seed!r}")
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
            rho = _resolve_rho({"rho": float(record["rho"])})
            verts = [(float(x), float(y)) for _, x, y in record["vertices"]]
            status = record["status"]
            if status not in (STATUS_CLOSED, STATUS_NON_CLOSING) or len(verts) < 3:
                raise ValueError(f"an orbit is {STATUS_CLOSED!r} or {STATUS_NON_CLOSING!r} with "
                                 f"at least 3 vertices, got {status!r} with {len(verts)}")
        except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
            raise UsageError(f"polygon JSON is malformed: {exc}")
        return svgmod.render_svg(spec, rho, _config_blob(conf), orbit=verts,
                                 closed=status == STATUS_CLOSED), EXIT_OK

    spec = _parse_spec(conf)
    rho = _resolve_rho(conf)
    conic, marks = None, ()
    if conf.get("show_ellipse"):
        u, u_star, w, conic = _supporting_conic(spec, rho, conf)
        marks = [(u.x, u.y, "u"), (w[0], w[1], "w"), (u_star.x, u_star.y, "u*")]
    return svgmod.render_svg(spec, rho, _config_blob(conf), conic=conic, marks=marks), EXIT_OK


# command: (handler, help, flags beyond --spec/--config/--out, --format choices)
_COMMANDS = {
    "check": (_cmd_check, "midpoint-support property check",
              ("--rho", "--kn", "--samples", "--tol"), ()),
    "polygon": (_cmd_polygon, "build a star-map orbit",
                ("--rho", "--kn", "--seed", "--max-steps", "--close-tol"), ("json", "svg")),
    "ellipse": (_cmd_ellipse, "fit the supporting conic at a seed",
                ("--rho", "--kn", "--seed"), ()),
    "area": (_cmd_area, "sector area between two angles",
             ("--alpha", "--beta", "--samples"), ()),
    "sweep": (_cmd_sweep, "check a grid of specs and rhos",
              ("--rhos", "--samples", "--tol"), ("json", "csv")),
    "probe-even": (_cmd_probe_even, "evidence probe for even vertex counts",
                   ("--kn", "--seed"), ()),
    "render": (_cmd_render, "render circle/orbit/conic layers as SVG",
               ("--rho", "--kn", "--seed", "--show-ellipse", "--from-json"), ()),
}


def _error_json(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message}},
                                allow_nan=False) + "\n")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        conf = _merge_config(args)
        conf["command"] = args.command
        text, code = _COMMANDS[args.command][0](conf)
        _emit(text, conf.get("out"))
        return code
    except (UsageError, ConfigurationError, DomainError) as exc:
        _error_json("usage", str(exc))
        return EXIT_USAGE
    except (NumericalError, NonClosingError, GeometryError) as exc:
        _error_json("numerical", str(exc))
        return EXIT_NUMERICAL
    except Exception as exc:  # a defect, not an input error: still one JSON record
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        _error_json("internal", f"{type(exc).__name__}: {exc} (at "
                    f"{os.path.basename(tb.tb_frame.f_code.co_filename)}:{tb.tb_lineno})")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
