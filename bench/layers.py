"""Layer trace of sobtop taken from outside the program.

``install`` wraps public functions and methods of the modules ``pipeline``,
``fields``, ``detectors``, ``invariants``, ``util``, ``geometry`` and
``hopf``.  A name bound by ``from .x import f`` is replaced in every module
that bound it, so calls between the program's own modules are seen too.
Each wrapped call records a span (name, phase, start, end, parent) and,
where the layer has one, a work count.  ``layer_metrics`` turns the spans of
one phase into the per-layer metrics listed in ``LAYER_METRICS``.

Nothing here changes what the program computes: a wrapper calls the
original with the same arguments and returns its result unchanged.
"""

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Spans and counts kept in memory; written out by ``dump``."""

    def __init__(self):
        self.spans = []  # [name, phase, start, end, parent index or -1]
        self.counts = defaultdict(float)  # (phase, counter) -> value
        self.phase = "setup"
        self.active = False
        self._stack = []

    def count(self, key, n):
        self.counts[(self.phase, key)] += n

    def wrap(self, name, fn, count=None):
        """``name`` is a span name or ``name(args, kwargs)``; ``count(args,
        kwargs, result)`` returns the counters one call adds."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [label, tracer.phase, time.perf_counter(), None, parent]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                for key, n in count(args, kwargs, result).items():
                    tracer.count(key, n)
            return result

        return traced

    def dump(self, path, extra=None):
        data = {
            "spans": [
                {"name": s[0], "phase": s[1], "start": s[2], "end": s[3], "parent": s[4]}
                for s in self.spans
            ],
            "counts": [
                {"phase": phase, "counter": key, "value": v} for (phase, key), v in self.counts.items()
            ],
            **(extra or {}),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(data))


def _points(args):
    pts = np.asarray(args[-1])
    return int(np.prod(pts.shape[:-1]))


def _calls(key):
    return lambda args, kwargs, result: {key: 1}


def _opening_target(args, kwargs):
    """Span name of an ``open_on_skeleton(u, cls, target="U", ...)`` call."""
    target = kwargs.get("target", args[2] if len(args) > 2 else "U")
    return f"pipeline.open_{target.lower()}"


def _opening_pieces(args, kwargs, result):
    return {f"{_opening_target(args, kwargs)}_pieces": len(result[1].pieces)}


def _pipeline_sizes(args, kwargs, result):
    classify = result.stages[0].extra
    return {"pipeline.bad_cubes": classify["n_bad"], "pipeline.u_cubes": classify["n_u"]}


def _oracle_disks(args, kwargs, result):
    return {"invariants.admissible_disks": result.admissible, "invariants.screened_disks": result.screened}


# (module, function, span name, count)
FUNCTIONS = (
    ("pipeline", "run_pipeline", "pipeline.run_pipeline", _pipeline_sizes),
    ("pipeline", "classify_cubes", "pipeline.classify", None),
    ("pipeline", "open_on_skeleton", _opening_target, _opening_pieces),
    ("pipeline", "adaptive_smooth", "pipeline.smooth", _calls("pipeline.smooth_passes")),
    ("pipeline", "apply_thickening", "pipeline.thicken", None),
    ("pipeline", "extend_or_keep", "pipeline.extend", None),
    ("pipeline", "apply_shrinking", "pipeline.shrink", None),
    ("fields", "finite_difference", "fields.finite_difference", _calls("fields.finite_difference_calls")),
    ("fields", "sobolev_norm", "fields.sobolev", None),
    ("fields", "sobolev_distance", "fields.sobolev", None),
    ("fields", "project_to_sphere", "fields.project", None),
    ("fields", "mean_oscillation", "fields.oscillation", None),
    ("fields", "fractional_seminorm", "fields.fractional", None),
    ("detectors", "maximal_function_detector", "detectors.maximal_function", None),
    ("detectors", "fuglede_check", "detectors.fuglede", _calls("detectors.fuglede_calls")),
    ("util", "multilinear", "util.multilinear", lambda a, k, r: {"util.multilinear_points": _points(a)}),
    ("invariants", "cell_degree_sweep", "invariants.sweep", _calls("invariants.sweep_calls")),
    ("invariants", "jacobian_battery", "invariants.battery", None),
    ("invariants", "extendability_oracle", "invariants.oracle", _oracle_disks),
    ("hopf", "hopf_linking", "hopf.linking", None),
)

# (module, class, method, span name, count)
METHODS = (
    ("fields", "GridField", "excluded_nodes", "fields.excluded_nodes", _calls("fields.excluded_nodes_calls")),
    ("fields", "GridField", "interp", "fields.interp", lambda a, k, r: {"fields.interp_points": _points(a)}),
    ("detectors", "DetectorField", "interp", "detectors.interp",
     lambda a, k, r: {"detectors.interp_points": _points(a)}),
    ("geometry", "TriangulatedSphere", "__init__", "geometry.sphere", None),
    ("hopf", "DECSphere3", "__init__", "hopf.dec_build", None),
    ("hopf", "DECSphere3", "area_cochain", "hopf.area_cochain", None),
    ("hopf", "DECSphere3", "solve_potential", "hopf.solve", None),
    ("hopf", "DECSphere3", "wedge_pair", "hopf.wedge", None),
)


def rebind(module, attr, make):
    """Replace the function ``sobtop.<module>.<attr>`` by ``make(function)``
    in every sobtop module that bound it, so that wrappers installed one after
    another nest whatever their order."""
    original = getattr(sys.modules[f"sobtop.{module}"], attr)
    replacement = make(original)
    for name, mod in list(sys.modules.items()):
        if name == "sobtop" or name.startswith("sobtop."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)


class LastResult:
    """Keeps the result of the latest call of ``sobtop.<module>.<attr>``, for
    checks that need more than the program's report carries."""

    def __init__(self, module, attr):
        self.value = None

        def make(fn):
            @functools.wraps(fn)
            def keep(*args, **kwargs):
                self.value = fn(*args, **kwargs)
                return self.value

            return keep

        rebind(module, attr, make)


def install(tracer):
    """Wrap every function in FUNCTIONS and METHODS, and count CG iterations
    through the ``cg`` name that ``sobtop.hopf`` calls."""
    import sobtop.hopf

    for module, attr, span, count in FUNCTIONS:
        rebind(module, attr, lambda fn: tracer.wrap(span, fn, count))
    for module, cls_name, method, span, count in METHODS:
        cls = getattr(sys.modules[f"sobtop.{module}"], cls_name)
        setattr(cls, method, tracer.wrap(span, cls.__dict__[method], count))

    cg = sobtop.hopf.cg

    def counted_cg(A, b, *args, callback=None, **kwargs):
        if not tracer.active:
            return cg(A, b, *args, callback=callback, **kwargs)
        iterations = 0

        def tick(xk):
            nonlocal iterations
            iterations += 1
            if callback is not None:
                callback(xk)

        try:
            return cg(A, b, *args, callback=tick, **kwargs)
        finally:
            tracer.count("hopf.cg_iterations", iterations)

    sobtop.hopf.cg = counted_cg


# Per-layer metrics: (name, unit, how).  ``("time", spans)`` sums the spans
# with those names, not counting a span nested inside another of the same
# set; ``("count", counter)`` reads a counter; ``("setup", spans)`` is a time
# taken during set-up rather than in a round.
LAYER_METRICS = (
    ("pipeline.open_s_s", "s", ("time", {"pipeline.open_s"})),
    ("pipeline.open_s_pieces", "count", ("count", "pipeline.open_s_pieces")),
    ("pipeline.open_u_s", "s", ("time", {"pipeline.open_u"})),
    ("pipeline.open_u_pieces", "count", ("count", "pipeline.open_u_pieces")),
    ("pipeline.classify_s", "s", ("time", {"pipeline.classify"})),
    ("pipeline.smooth_s", "s", ("time", {"pipeline.smooth"})),
    ("pipeline.smooth_passes", "count", ("count", "pipeline.smooth_passes")),
    ("pipeline.thicken_s", "s", ("time", {"pipeline.thicken"})),
    ("pipeline.extend_s", "s", ("time", {"pipeline.extend"})),
    ("pipeline.shrink_s", "s", ("time", {"pipeline.shrink"})),
    ("pipeline.record_s", "s", ("record", None)),
    ("pipeline.self_s", "s", ("self", "pipeline.run_pipeline")),
    ("pipeline.bad_cubes", "count", ("count", "pipeline.bad_cubes")),
    ("pipeline.u_cubes", "count", ("count", "pipeline.u_cubes")),
    ("fields.finite_difference_s", "s", ("time", {"fields.finite_difference"})),
    ("fields.finite_difference_calls", "count", ("count", "fields.finite_difference_calls")),
    ("fields.excluded_nodes_s", "s", ("time", {"fields.excluded_nodes"})),
    ("fields.excluded_nodes_calls", "count", ("count", "fields.excluded_nodes_calls")),
    ("fields.interp_s", "s", ("time", {"fields.interp"})),
    ("fields.interp_points", "count", ("count", "fields.interp_points")),
    ("fields.sobolev_s", "s", ("time", {"fields.sobolev"})),
    ("fields.project_s", "s", ("time", {"fields.project"})),
    ("fields.oscillation_s", "s", ("time", {"fields.oscillation"})),
    ("fields.fractional_s", "s", ("time", {"fields.fractional"})),
    ("detectors.maximal_function_s", "s", ("time", {"detectors.maximal_function"})),
    ("detectors.interp_s", "s", ("time", {"detectors.interp"})),
    ("detectors.interp_points", "count", ("count", "detectors.interp_points")),
    ("detectors.fuglede_s", "s", ("time", {"detectors.fuglede"})),
    ("detectors.fuglede_calls", "count", ("count", "detectors.fuglede_calls")),
    ("util.multilinear_s", "s", ("time", {"util.multilinear"})),
    ("util.multilinear_points", "count", ("count", "util.multilinear_points")),
    ("invariants.sweep_s", "s", ("time", {"invariants.sweep"})),
    ("invariants.sweep_calls", "count", ("count", "invariants.sweep_calls")),
    ("invariants.battery_s", "s", ("time", {"invariants.battery"})),
    ("invariants.oracle_s", "s", ("time", {"invariants.oracle"})),
    ("invariants.admissible_disks", "count", ("count", "invariants.admissible_disks")),
    ("invariants.screened_disks", "count", ("count", "invariants.screened_disks")),
    ("geometry.sphere_s", "s", ("setup", {"geometry.sphere"})),
    ("hopf.dec_build_s", "s", ("setup", {"hopf.dec_build"})),
    ("hopf.area_cochain_s", "s", ("time", {"hopf.area_cochain"})),
    ("hopf.solve_s", "s", ("time", {"hopf.solve"})),
    ("hopf.cg_iterations", "count", ("count", "hopf.cg_iterations")),
    ("hopf.wedge_s", "s", ("time", {"hopf.wedge"})),
    ("hopf.linking_s", "s", ("time", {"hopf.linking"})),
)


def _outer_time(spans, idx, names):
    """Total duration of the spans in ``idx`` named in ``names`` that have no
    ancestor named in ``names``."""
    total = 0.0
    for i in idx:
        name, _, start, end, parent = spans[i]
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][4]
        if parent < 0:
            total += end - start
    return total


def layer_metrics(tracer, phase):
    """Every LAYER_METRICS value for the spans and counts of one phase
    (set-up metrics always read the ``setup`` phase)."""
    spans = tracer.spans
    by_phase = defaultdict(list)
    for i, s in enumerate(spans):
        by_phase[s[1]].append(i)
    idx = by_phase[phase]
    children = defaultdict(float)
    for i in idx:
        parent = spans[i][4]
        if parent >= 0:
            children[parent] += spans[i][3] - spans[i][2]
    out = {}
    for name, unit, (kind, arg) in LAYER_METRICS:
        if kind == "time":
            value = _outer_time(spans, idx, arg)
        elif kind == "setup":
            value = _outer_time(spans, by_phase["setup"], arg)
        elif kind == "count":
            value = tracer.counts.get((phase, arg), 0.0)
        elif kind == "self":
            value = sum(spans[i][3] - spans[i][2] - children[i] for i in idx if spans[i][0] == arg)
        else:  # record: distances and sweeps that run_pipeline calls itself
            value = sum(
                spans[i][3] - spans[i][2]
                for i in idx
                if spans[i][0] in ("fields.sobolev", "invariants.sweep")
                and spans[i][4] >= 0
                and spans[spans[i][4]][0] == "pipeline.run_pipeline"
            )
        out[name] = (value, unit)
    return out
