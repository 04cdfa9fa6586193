"""Spans and counters around each layer's public functions, for traced runs.

Only a traced run imports this module.  `Tracer.install` replaces every
public function of every layer module at each place it is bound (for
example `star_map` in chords, polygons, lab, conics and cli) with a wrapper
that records a span: name, start, end, parent span and request id.  The
scalar and vectorized gauge callables of every NormSpec built while tracing
(and of the specs passed in) are wrapped too, but they only count and time:
a span per gauge evaluation would cost more than the evaluation.

A span's self time is its duration minus its child spans and the gauge
evaluations made directly inside it; gauge time is charged to `norms`.
"""

import functools
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("norms", "solve1d", "chords", "polygons", "conics", "areas", "lab", "svg", "cli")
COUNTED_GAUGES = ("value", "dplus", "dminus")
TIMED_GAUGES = ("grad",)
ARRAY_GAUGES = ("value_many", "grad_many")
FACTORIES = ("euclidean", "quadratic", "lp", "polygon")
SPAN_FIELDS = ("id", "name", "start_s", "end_s", "parent", "request")


def _polygon_counts(tracer, poly):
    tracer.counts["polygons.steps"] += poly.steps
    tracer.counts["polygons.vertices"] += len(poly.vertices)


def _area_counts(tracer, sector):
    tracer.counts["areas.grid_points"] += sector.samples - sector.samples % 4 + 1


def _svg_counts(tracer, text):
    tracer.counts["svg.bytes"] += len(text.encode())


RESULT_HOOKS = {
    "polygons.build_polygon": _polygon_counts,
    "areas.sector_area": _area_counts,
    "svg.render_svg": _svg_counts,
}


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.request = None
        self.spans = []
        self.calls = defaultdict(int)
        self.raised = defaultdict(int)
        self.self_s = defaultdict(float)
        self.inner_evals = defaultdict(int)   # gauge evaluations inside each span name
        self.counts = defaultdict(int)
        self.gauge_evals = 0
        self.gauge_points = 0
        self.gauge_s = 0.0
        self._stack = []                      # open spans: [id, child seconds, evals at start]
        self._next_id = 0
        self._patches = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn):
        tracer = self
        hook = RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            frame = [tracer._next_id, 0.0, tracer.gauge_evals]
            tracer._next_id += 1
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[name] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
                tracer.inner_evals[name] += tracer.gauge_evals - frame[2]
                tracer.spans.append((frame[0], name, start - tracer.origin,
                                     end - tracer.origin, parent, tracer.request))
            if hook is not None:
                hook(tracer, result)
            return result

        return wrapper

    def _gauge(self, fn, counted: bool, array: bool):
        tracer = self

        def wrapper(*args):
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                duration = time.perf_counter() - start
                tracer.gauge_s += duration
                if counted:
                    tracer.gauge_evals += 1
                if array:
                    tracer.gauge_points += getattr(args[0], "size", 1)
                if tracer._stack:
                    tracer._stack[-1][1] += duration

        return wrapper

    def _instrument(self, spec, restore: bool) -> None:
        for names, counted, array in ((COUNTED_GAUGES, True, False),
                                      (TIMED_GAUGES, False, False),
                                      (ARRAY_GAUGES, False, True)):
            for attr in names:
                fn = getattr(spec, attr)
                if fn is not None:
                    if restore:
                        self._patches.append((spec, attr, fn))
                    setattr(spec, attr, self._gauge(fn, counted, array))

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    # -- install / uninstall ----------------------------------------------------

    def install(self, package, specs=()) -> None:
        """Wrap the package's layer functions, NormSpec factories and `specs`."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        namespaces = [package] + list(modules.values())
        for layer, mod in modules.items():
            public = [(attr, fn) for attr, fn in vars(mod).items()
                      if not attr.startswith("_") and inspect.isfunction(fn)
                      and fn.__module__ == mod.__name__]
            for attr, fn in public:
                wrapped = self._span(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for bound, obj in list(vars(ns).items()):
                        if obj is fn:
                            self._patch(ns, bound, wrapped)

        cls = package.norms.NormSpec
        tracer = self
        for name in FACTORIES:
            func = cls.__dict__[name].__func__

            def factory(klass, *args, _func=func, **kwargs):
                spec = _func(klass, *args, **kwargs)
                tracer._instrument(spec, restore=False)
                return spec

            self._patch(cls, name, classmethod(functools.wraps(func)(factory)))
        for spec in specs:
            self._instrument(spec, restore=True)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------------

    def _layer_s(self, layer: str) -> float:
        return sum((v for k, v in self.self_s.items() if k.startswith(layer + ".")), 0.0)

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        c, s = self.calls, self.self_s
        star = c["chords.star_map"]
        seeds = c["chords.midpoint_check"]
        vertices = self.counts["polygons.vertices"]
        return {
            "chords.star_map.calls": (star, "count"),
            "chords.star_map.self_s": (s["chords.star_map"], "s"),
            "chords.gauge_evals_per_star": (
                self.inner_evals["chords.star_map"] / star if star else 0.0, "evals/call"),
            "chords.chord_min.calls": (c["chords.chord_min"], "count"),
            "chords.chord_min.self_s": (s["chords.chord_min"], "s"),
            "norms.gauge_evals": (self.gauge_evals, "count"),
            "norms.gauge_many_points": (self.gauge_points, "count"),
            "norms.self_s": (self.gauge_s + self._layer_s("norms"), "s"),
            "solve1d.root_calls": (c["solve1d.illinois_root"] + c["solve1d.bisect_predicate"],
                                   "count"),
            "solve1d.golden_calls": (c["solve1d.golden_min"], "count"),
            "lab.check_midpoint_property.calls": (c["lab.check_midpoint_property"], "count"),
            "lab.check_midpoint_property.self_s": (s["lab.check_midpoint_property"], "s"),
            "lab.seed_failure_ratio": (
                self.raised["chords.midpoint_check"] / seeds if seeds else 0.0, "ratio"),
            "lab.partition_probe.self_s": (
                s["lab.sector_partition_suite"] + s["lab.even_probe"], "s"),
            "polygons.build_polygon.calls": (c["polygons.build_polygon"], "count"),
            "polygons.build_polygon.self_s": (s["polygons.build_polygon"], "s"),
            "polygons.steps": (self.counts["polygons.steps"], "count"),
            "polygons.steps_per_vertex": (
                self.counts["polygons.steps"] / vertices if vertices else 0.0, "steps/vertex"),
            "areas.sector_area.calls": (c["areas.sector_area"], "count"),
            "areas.sector_area.self_s": (s["areas.sector_area"], "s"),
            "areas.grid_points": (self.counts["areas.grid_points"], "count"),
            "conics.calls": (sum(v for k, v in c.items() if k.startswith("conics.")), "count"),
            "conics.self_s": (self._layer_s("conics"), "s"),
            "svg.render_svg.calls": (c["svg.render_svg"], "count"),
            "svg.render_svg.self_s": (s["svg.render_svg"], "s"),
            "svg.bytes": (self.counts["svg.bytes"], "bytes"),
            "cli.main.calls": (c["cli.main"], "count"),
            "cli.main.self_s": (s["cli.main"], "s"),
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
