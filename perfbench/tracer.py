"""Spans and counters recorded around eddymh's public functions.

Nothing in ``src/eddymh`` is edited: ``install`` replaces names in the
modules' namespaces with timing wrappers, at the call sites the benchmark
paths go through (``from x import y`` copies a name, so each importing
module is patched on its own).  Only the traced run installs them.

A span is ``(name, start, end, parent, case)``; ``parent`` indexes the
span list, ``case`` is the case id set by the worker.  Spans stay in
memory until the worker writes them out at the end of the run.
"""

import functools
import importlib
import time
from collections import defaultdict

# (module, attribute, span name).  The span name is the layer metric's
# stem: self time of spans named "x.y" is reported as "x.y_s".
FUNCTION_SPANS = (
    ("eddymh", "build_benchmark", "presets.build_benchmark"),
    ("eddymh", "solve_benchmark", "presets.solve_benchmark"),
    ("eddymh", "benchmark_errors", "presets.errors"),
    ("eddymh.cli", "main", "cli.main"),
    ("eddymh.cli", "build_benchmark", "presets.build_benchmark"),
    ("eddymh.cli", "solve_benchmark", "presets.solve_benchmark"),
    ("eddymh.cli", "benchmark_errors", "presets.errors"),
    ("eddymh.cli", "full_field", "presets.fields"),
    ("eddymh.cli", "mode_evaluators", "presets.fields"),
    ("eddymh.cli", "stability_constants", "estimator.constants"),
    ("eddymh.cli", "minimize_majorant", "estimator.majorant"),
    ("eddymh.cli", "remainder", "harmonics.remainder"),
    ("eddymh.presets", "build_box_mesh", "mesh.build_box_mesh"),
    ("eddymh.presets", "assemble_load", "edge_fem.assemble"),
    ("eddymh.presets", "build_forward", "systems.build"),
    ("eddymh.presets", "build_ocp", "systems.build"),
    ("eddymh.presets", "solve_mode", "systems.solve_mode"),
    ("eddymh.systems", "assemble", "edge_fem.assemble"),
    ("eddymh.estimator", "assemble", "edge_fem.assemble"),
    ("eddymh.estimator", "assemble_cross", "edge_fem.assemble"),
    ("eddymh.estimator", "assemble_curl_load", "edge_fem.curl_load"),
    ("eddymh.estimator", "fe_values", "edge_fem.field_eval"),
    ("eddymh.estimator", "fe_curls", "edge_fem.field_eval"),
    ("eddymh.estimator", "integrate_squared", "edge_fem.field_eval"),
    ("eddymh.estimator", "residuals_forward", "estimator.residuals"),
    ("eddymh.estimator", "residuals_ocp", "estimator.residuals"),
    ("eddymh.estimator", "basis_data", "edge_fem.basis_data"),
    ("eddymh.edge_fem", "basis_data", "edge_fem.basis_data"),
)

# (module, class, method, span name) for classmethods and methods.
METHOD_SPANS = (
    ("eddymh.systems", "SystemMatrices", "from_mesh", "systems.matrices"),
    ("eddymh.estimator", "FluxWorkspace", "from_mesh", "estimator.workspace"),
    ("eddymh.estimator", "FluxWorkspace", "solve", "estimator.flux_solve"),
)


# Counters taken from a wrapped call's result.
def _count_mesh(tracer, result):
    tracer.counters["mesh.tets"] = result.num_tets


def _count_minres(tracer, result):
    tracer.counters["systems.minres_iters"] += result[1].iterations


def _count_majorant(tracer, result):
    tracer.counters["estimator.majorant_iters"] += len(result.trace)


def _count_flux(tracer, result):
    tracer.counters["estimator.flux_solve_calls"] += 1
    tracer.counters["estimator.flux_rhs"] += len(result)


COUNTERS = {
    "mesh.build_box_mesh": _count_mesh,
    "systems.solve_mode": _count_minres,
    "estimator.majorant": _count_majorant,
    "estimator.flux_solve": _count_flux,
}

# splu is counted, not spanned: its time stays in the caller's self time
# (systems.build, estimator.flux_solve).  The two namespaces keep
# separate counters.
SPLU_COUNTERS = (("eddymh.systems", "systems"), ("eddymh.estimator", "estimator"))

ROOT = "case"


class Tracer:
    """In-memory span list and per-case counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.case = None
        self.counters = defaultdict(int)
        self.case_counters = {}

    def begin_case(self, case):
        self.case = case
        self.counters = defaultdict(int)

    def end_case(self):
        self.case_counters[self.case] = dict(self.counters)

    def wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            self.spans.append(None)
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index] = (name, start, end, parent, self.case)
            if count is not None:
                count(self, result)
            return result

        return traced

    def wrap_splu(self, layer, splu):
        @functools.wraps(splu)
        def counted(*args, **kwargs):
            lu = splu(*args, **kwargs)
            self.counters[f"{layer}.factorizations"] += 1
            self.counters[f"{layer}.lu_nnz"] += lu.nnz
            return lu

        return counted

    def self_times(self):
        """{case: {span name: self seconds}} over all finished spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, case in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, case) in enumerate(self.spans):
            out[case][name] += end - start - child_time[i]
        return out

    def inclusive_times(self, name):
        """{case: summed duration of outermost spans called ``name``}."""
        out = defaultdict(float)
        for span_name, start, end, parent, case in self.spans:
            if span_name == name and (
                parent is None or self.spans[parent][0] != name
            ):
                out[case] += end - start
        return out


def install(tracer):
    """Patch eddymh's namespaces so the benchmark paths record spans."""
    for module_name, attr, name in FUNCTION_SPANS:
        module = importlib.import_module(module_name)
        setattr(module, attr, tracer.wrap(name, getattr(module, attr)))
    for module_name, cls_name, attr, name in METHOD_SPANS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__)))
        else:
            setattr(cls, attr, tracer.wrap(name, raw))
    for module_name, layer in SPLU_COUNTERS:
        module = importlib.import_module(module_name)
        module.splu = tracer.wrap_splu(layer, module.splu)
