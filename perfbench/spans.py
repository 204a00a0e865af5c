"""Span tracing of graphforms' layers, installed from outside the package.

A wrapper goes around each public function of the seven layer modules (and
around ``ResolventHandle._solve``, the one boundary every linear solve
crosses).  Each wrapper is bound in every ``graphforms`` module namespace that
holds the original function, so calls through ``from .x import f`` are seen
too.  Spans are kept in memory and written out when the run ends.  A layer's
self time is its spans' durations minus the time their direct child spans
cover.  There are no queues or threads, so no span waits.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("graph", "forms", "reflection", "resolvent", "domination", "scenarios", "cli")

# Public functions per layer module; "Class.method" patches the class.
TARGETS = {
    "graph": (
        "WeightedGraph.distances_from",
        "Exhaustion.masked",
        "validate",
        "graph_from_dict",
        "load_graph",
        "emit_graph",
        "make_path",
        "generator_ball",
        "truncate",
        "build_exhaustion",
        "ball_exhaustion",
    ),
    "forms": (
        "GraphForm.evaluate",
        "GraphForm.bilinear",
        "assemble",
        "apply_contraction",
        "check_parallelogram",
    ),
    "reflection": (
        "truncated_form",
        "truncated_oracle",
        "main_part",
        "killing_part",
        "reflected_form",
        "graph_oracle_main",
        "graph_oracle_killing",
        "effective_killing",
        "recurrence_check",
    ),
    "resolvent": (
        "GeneratorOperator.norm_estimate",
        "ResolventHandle.__init__",
        "ResolventHandle._solve",
        "ResolventHandle.apply",
        "ResolventHandle.resolvent_matrix",
        "ResolventHandle.approximating_bilinear",
        "assemble_stiffness",
        "build_generator",
        "default_alpha_ladder",
        "truncated_coefficients",
        "truncated_form_via_resolvent",
    ),
    "domination": (
        "check_resolvent_domination",
        "check_order_ideal",
        "check_form_inequality_nonneg",
        "check_extension",
        "check_silverstein",
        "verify_maximality",
    ),
    "scenarios": (
        "run_counterexample",
        "classify_recurrence",
        "monotone_equivalence_test",
        "killing_difference_spec",
    ),
    "cli": ("main",),
}

# Solves at alpha below this are the ill-conditioned regime of K + alpha M.
SMALL_ALPHA = 1.0

# Inclusive time per op: (metric, layer, function).
FUNCTION_TIMES = (
    ("graph.build_exhaustion_s", "graph", "build_exhaustion"),
    ("graph.truncate_s", "graph", "truncate"),
    ("graph.load_graph_s", "graph", "load_graph"),
    ("reflection.main_part_s", "reflection", "main_part"),
    ("reflection.killing_part_s", "reflection", "killing_part"),
    ("resolvent.build_generator_s", "resolvent", "build_generator"),
    ("resolvent.solve_small_alpha_s", "resolvent", "_solve.small_alpha"),
    ("resolvent.solve_large_alpha_s", "resolvent", "_solve.large_alpha"),
    ("domination.resolvent_check_s", "domination", "check_resolvent_domination"),
    ("domination.inequality_check_s", "domination", "check_form_inequality_nonneg"),
    ("domination.extension_check_s", "domination", "check_extension"),
    ("scenarios.counterexample_s", "scenarios", "run_counterexample"),
    ("scenarios.classify_s", "scenarios", "classify_recurrence"),
)

# Per-op call counts: (metric, layer, function).
FUNCTION_CALLS = (
    ("graph.distances_from_calls", "graph", "WeightedGraph.distances_from"),
    ("resolvent.build_generator_calls", "resolvent", "build_generator"),
)


class Tracer:
    """In-memory span recorder; records only while an op is running."""

    def __init__(self):
        self.active = False
        self.op_id = -1
        self.spans = []
        self._stack = []
        self._next_span = 0
        self.self_time = defaultdict(float)
        self.fn_time = defaultdict(float)
        self.fn_calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.residual_max = 0.0

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._stack.clear()
        self.active = True

    def end_op(self) -> None:
        self.active = False

    def wrap(self, layer: str, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = [tracer._next_span, tracer._stack[-1][0] if tracer._stack else -1,
                    time.perf_counter(), 0.0]
            tracer._next_span += 1
            tracer._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(layer, name, span, type(exc).__name__)
                if hook is not None:
                    hook(tracer, span, args, None, exc)
                raise
            tracer._close(layer, name, span, None)
            if hook is not None:
                # keep the hook's own work out of the caller's self time
                t_hook = time.perf_counter()
                hook(tracer, span, args, result, None)
                if tracer._stack:
                    tracer._stack[-1][3] += time.perf_counter() - t_hook
            return result

        return traced

    def _close(self, layer, name, span, error):
        end = time.perf_counter()
        self._stack.pop()
        span_id, parent, start, child = span
        duration = end - start
        span.append(duration)
        if self._stack:
            self._stack[-1][3] += duration
        self.self_time[layer] += duration - child
        self.fn_time[(layer, name)] += duration
        self.fn_calls[(layer, name)] += 1
        self.spans.append((self.op_id, span_id, parent, layer, name, start, end, error))

    def write(self, path) -> None:
        keys = ("op", "span", "parent", "layer", "name", "start", "end", "error")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def _energy_hook(tracer, span, args, result, exc):
    form = args[0]
    tracer.counts["forms.energy_calls"] += 1
    if exc is None and result != math.inf:
        g = form.graph
        tracer.counts["forms.terms_summed"] += len(g.edge_b) + g.n + len(form.couplings)


def _solve_hook(tracer, span, args, result, exc):
    handle, alpha, rhs = args[0], float(args[1]), np.asarray(args[2])
    regime = "_solve.small_alpha" if alpha < SMALL_ALPHA else "_solve.large_alpha"
    tracer.fn_time[("resolvent", regime)] += span[4]
    tracer.counts["resolvent.solve_calls"] += 1
    if exc is not None:
        # matched by name: the class is slated for removal with the CG solver
        tracer.counts["resolvent.solver_errors"] += type(exc).__name__ == "SolverError"
        return
    gen = handle.generator
    r = rhs - (gen.stiffness @ result + alpha * gen.mass * result)
    scale = float(np.linalg.norm(rhs))
    if scale > 0.0:
        tracer.residual_max = max(tracer.residual_max, float(np.linalg.norm(r)) / scale)


def _cli_hook(tracer, span, args, result, exc):
    argv = list(args[0]) if args else []
    if "--output" in argv:
        path = argv[argv.index("--output") + 1]
        if os.path.exists(path):
            tracer.counts["cli.report_bytes"] += os.path.getsize(path)


HOOKS = {
    ("forms", "GraphForm.evaluate"): _energy_hook,
    ("forms", "GraphForm.bilinear"): _energy_hook,
    ("resolvent", "ResolventHandle._solve"): _solve_hook,
    ("cli", "main"): _cli_hook,
}


def install(tracer: Tracer) -> None:
    """Bind a traced wrapper for every target in every graphforms namespace."""
    for layer, names in TARGETS.items():
        mod = importlib.import_module(f"graphforms.{layer}")
        for name in names:
            hook = HOOKS.get((layer, name))
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, tracer.wrap(layer, name, getattr(cls, meth), hook))
                continue
            original = getattr(mod, name)
            wrapped = tracer.wrap(layer, name, original, hook)
            for mod_name, other in list(sys.modules.items()):
                if mod_name != "graphforms" and not mod_name.startswith("graphforms."):
                    continue
                for attr, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, attr, wrapped)


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-layer metrics as means per traced op, plus the report-only maxima."""
    per_op = 1.0 / max(ops, 1)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (tracer.self_time[layer] * per_op, "s")
    for metric, layer, fn in FUNCTION_TIMES:
        out[metric] = (tracer.fn_time[(layer, fn)] * per_op, "s")
    for metric, layer, fn in FUNCTION_CALLS:
        out[metric] = (tracer.fn_calls[(layer, fn)] * per_op, "count")
    counts = tracer.counts
    forms_time = tracer.self_time["forms"]
    out["forms.energy_calls"] = (counts["forms.energy_calls"] * per_op, "count")
    out["forms.terms_summed"] = (counts["forms.terms_summed"] * per_op, "count")
    out["forms.terms_per_s"] = (
        counts["forms.terms_summed"] / forms_time if forms_time > 0 else 0.0, "1/s")
    out["resolvent.solve_calls"] = (counts["resolvent.solve_calls"] * per_op, "count")
    out["resolvent.solver_errors"] = (counts["resolvent.solver_errors"] * per_op, "count")
    builds = tracer.fn_calls[("resolvent", "build_generator")]
    out["resolvent.solves_per_build"] = (
        counts["resolvent.solve_calls"] / builds if builds else 0.0, "count")
    out["resolvent.residual_max"] = (tracer.residual_max, "ratio")
    out["cli.report_bytes"] = (counts["cli.report_bytes"] * per_op, "bytes")
    return out
