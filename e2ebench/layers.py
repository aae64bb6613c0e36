"""Per-layer timing for the traced run, from outside the program.

:func:`install` wraps the public entry point of each layer (table
:data:`ENTRY_POINTS`).  A function imported with ``from x import f`` is a
second binding of the same object, so the wrapper replaces the binding in
*every* loaded ``repro`` module; a method is replaced once, on its class.
Each wrapper records its span on a per-thread stack, so a layer's self time
is its span minus the spans of the wrapped layers it called.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Callable

#: ``layer -> [(module, attribute)]``; ``Class.method`` names a method.
#: Each entry point does at least tens of microseconds of work per call (at
#: most ~10^5 calls per run), so the wrappers' own cost stays a small share
#: of the run; the traced run reports it as ``trace.overhead_ratio``.
ENTRY_POINTS: dict[str, list[tuple[str, str]]] = {
    "prepare": [("repro.analysis", "prepare")],
    "inline": [("repro.inline.abstract_inline", "inline_program")],
    "normalize": [("repro.normalize.pipeline", "normalize")],
    "layout": [
        ("repro.layout.memory", "layout_for_refs"),
        ("repro.iteration.walker", "Walker.__init__"),
    ],
    "reuse.build": [("repro.reuse.generator", "build_reuse_table")],
    "stats.z_value": [("repro.stats.confidence", "z_value")],
    "polyhedra.sample": [("repro.polyhedra.space", "BoundedSpace.sample")],
    "polyhedra.count": [("repro.polyhedra.space", "BoundedSpace.count")],
    "iteration.walk_between": [
        ("repro.iteration.walker", "Walker.walk_between")
    ],
    "iteration.trace_build": [
        ("repro.iteration.batch", "TraceIndex.__init__")
    ],
    "iteration.trace_query": [
        ("repro.iteration.batch", "TraceIndex.t_of"),
        ("repro.iteration.batch", "TraceIndex.conflicts_reach"),
    ],
    "cme.find_ref": [("repro.cme.find", "find_ref_misses")],
    "cme.estimate_ref": [("repro.cme.estimate", "estimate_ref_misses")],
    "regions.solve": [("repro.cme.regions", "RegionSolver.solve_ref")],
    "opt.probe": [("repro.cme.regions", "regional_coverage")],
    "sim.run": [("repro.sim.simulator", "simulate")],
    "sim.trace": [("repro.sim.batch", "trace_arrays")],
    "sim.kernel": [("repro.sim.batch", "miss_kernel")],
    "memo.plan": [("repro.memo.memoizer", "MemoSession.plan")],
    "memo.store": [
        ("repro.memo.memoizer", "MemoPlan.add"),
        ("repro.memo.memoizer", "Memoizer.flush"),
    ],
    "frontend.parse": [("repro.frontend.lowering", "parse_program")],
    "serve.engine": [("repro.serve.engine", "AnalysisEngine.run")],
}

#: Outermost layers: their self time is glue, reported as unattributed.
GLUE_LAYERS = ("serve.engine",)


class LayerTracer:
    """Self time, inclusive time and call count per layer, across threads."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], {})  # (stack of child seconds, layer -> [self, total, calls])
            self._local.state = state
            with self._lock:
                self._tables.append(state[1])
        return state

    def wrap(self, layer: str, fn: Callable) -> Callable:
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, table = self._state()
            stack.append(0.0)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                row = table.get(layer)
                if row is None:
                    row = table[layer] = [0.0, 0.0, 0]
                row[0] += elapsed - children
                row[1] += elapsed
                row[2] += 1

        traced.__e2ebench_layer__ = layer
        return traced

    def snapshot(self) -> dict[str, dict]:
        """``layer -> {"self_s", "total_s", "calls"}`` summed over threads."""
        out: dict[str, dict] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for layer, (self_s, total_s, calls) in list(table.items()):
                row = out.setdefault(
                    layer, {"self_s": 0.0, "total_s": 0.0, "calls": 0}
                )
                row["self_s"] += self_s
                row["total_s"] += total_s
                row["calls"] += calls
        return out



def install(tracer: LayerTracer) -> None:
    """Wrap every entry point of :data:`ENTRY_POINTS` at all its bindings.

    Imports the program's modules first, so that every binding exists
    when it is replaced and later ``from x import f`` statements pick up
    the wrapper too.
    """
    import_all_repro()
    for layer, targets in ENTRY_POINTS.items():
        for module_name, attr in targets:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                if isinstance(original, staticmethod):
                    wrapped = staticmethod(tracer.wrap(layer, original.__func__))
                else:
                    wrapped = tracer.wrap(layer, original)
                setattr(cls, meth, wrapped)
                continue
            original = getattr(module, attr)
            if hasattr(original, "__e2ebench_layer__"):
                continue
            wrapped = tracer.wrap(layer, original)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not (
                    loaded_name == "repro" or loaded_name.startswith("repro.")
                ):
                    continue
                for name, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, name, wrapped)


def import_all_repro() -> None:
    """Import every module that defines or binds an entry point."""
    for name in (
        "repro",
        "repro.opt",
        "repro.memo",
        "repro.parallel",
        "repro.frontend",
        "repro.kernels",
        "repro.programs",
        "repro.serve",
        "repro.serve.engine",
        "repro.serve.server",
        "repro.cli",
    ):
        importlib.import_module(name)


#: Per-layer metrics of the traced run: ``name -> (unit, source)``.
#: ``self:L`` / ``total:L`` / ``calls:L`` read layer ``L`` of the tracer;
#: ``count:C`` reads ``repro.obs`` counter ``C``; ``ratio:A/B`` is
#: ``A / (A + B)`` over two counters; ``bench:K`` is filled in by the
#: workload (``0`` where the workload does not exercise the layer).
PER_LAYER: dict[str, tuple[str, str]] = {
    "process.import_s": ("s", "bench:import_s"),
    "stats.z_value_s": ("s", "self:stats.z_value"),
    "inline.self_s": ("s", "self:inline"),
    "normalize.self_s": ("s", "self:normalize"),
    "layout.self_s": ("s", "self:layout"),
    "prepare.calls": ("count", "calls:prepare"),
    "reuse.build_s": ("s", "self:reuse.build"),
    "reuse.build_calls": ("count", "calls:reuse.build"),
    "reuse.vectors": ("count", "count:reuse.vectors.total"),
    "polyhedra.sample_s": ("s", "self:polyhedra.sample"),
    "polyhedra.draws": ("count", "count:cme.sampling.draws"),
    "polyhedra.count_s": ("s", "self:polyhedra.count"),
    "polyhedra.count.cache_hits": ("count", "count:polyhedra.count.cache_hits"),
    "iteration.walk_between_s": ("s", "self:iteration.walk_between"),
    "iteration.walk_between_calls": ("count", "calls:iteration.walk_between"),
    "iteration.trace_build_s": ("s", "self:iteration.trace_build"),
    "iteration.trace_query_s": ("s", "self:iteration.trace_query"),
    "iteration.trace_query_calls": ("count", "calls:iteration.trace_query"),
    "cme.find_ref_s": ("s", "self:cme.find_ref"),
    "cme.estimate_ref_s": ("s", "self:cme.estimate_ref"),
    "cme.points.classified": ("count", "count:cme.points.classified"),
    "cme.solver.vector_trials": ("count", "count:cme.solver.vector_trials"),
    "cme.backend.vectorized_ratio": (
        "ratio",
        "ratio:cme.backend.vectorized_points/cme.backend.fallback_points",
    ),
    "regions.solve_s": ("s", "self:regions.solve"),
    "regions.fallback_points": ("count", "count:cme.regions.fallback_points"),
    "regions.exact_ratio": (
        "ratio",
        "ratio:cme.regions.exact_regions/cme.regions.fallback_regions",
    ),
    "opt.probe_s": ("s", "self:opt.probe"),
    "opt.method.estimate": ("count", "count:opt.method.estimate"),
    "opt.method.regions": ("count", "count:opt.method.regions"),
    "sim.run_s": ("s", "self:sim.run"),
    "sim.trace_s": ("s", "self:sim.trace"),
    "sim.kernel_s": ("s", "self:sim.kernel"),
    "sim.accesses": ("count", "count:sim.accesses"),
    "memo.hits": ("count", "count:memo.hits"),
    "memo.misses": ("count", "count:memo.misses"),
    "memo.hit_ratio": ("ratio", "ratio:memo.hits/memo.misses"),
    "memo.plan_s": ("s", "self:memo.plan"),
    "memo.store_s": ("s", "self:memo.store"),
    "frontend.parse_s": ("s", "self:frontend.parse"),
    "serve.engine_s": ("s", "total:serve.engine"),
    "serve.http_s": ("s", "bench:serve.http_s"),
    "serve.requests": ("count", "count:serve.requests"),
    "serve.rejected": ("count", "count:serve.rejected"),
    "search_regret_pp": ("pp", "bench:search_regret_pp"),
    "bench.ref_s": ("s", "bench:ref_s"),
    "raw.setup_s": ("s", "bench:raw.setup_s"),
    "raw.work_s": ("s", "bench:raw.work_s"),
    "raw.p50_ms": ("ms", "bench:raw.p50_ms"),
    "unattributed_s": ("s", "bench:unattributed_s"),
    "trace.overhead_ratio": ("ratio", "bench:trace.overhead_ratio"),
}


def merge_layers(*snapshots: dict) -> dict:
    """Sum several :meth:`LayerTracer.snapshot` results."""
    out: dict[str, dict] = {}
    for snap in snapshots:
        for layer, row in snap.items():
            acc = out.setdefault(
                layer, {"self_s": 0.0, "total_s": 0.0, "calls": 0}
            )
            for key in acc:
                acc[key] += row[key]
    return out


def merge_counters(*snapshots: dict) -> dict:
    out: dict[str, float] = {}
    for snap in snapshots:
        for name, value in snap.items():
            out[name] = out.get(name, 0) + value
    return out


def attributed_seconds(layers: dict) -> float:
    """Self time covered by named layers (glue layers excluded)."""
    return sum(
        row["self_s"] for name, row in layers.items() if name not in GLUE_LAYERS
    )


def per_layer_metrics(
    layers: dict, counters: dict, bench: dict
) -> dict[str, tuple[float, str]]:
    """Evaluate :data:`PER_LAYER` against one traced run."""
    out = {}
    for name, (unit, source) in PER_LAYER.items():
        kind, _, key = source.partition(":")
        if kind == "bench":
            value = bench.get(key, 0.0)
        elif kind == "count":
            value = counters.get(key, 0)
        elif kind == "ratio":
            a, b = (counters.get(k, 0) for k in key.split("/"))
            value = a / (a + b) if a + b else 0.0
        else:
            row = layers.get(key)
            field = {"self": "self_s", "total": "total_s", "calls": "calls"}[kind]
            value = row[field] if row else 0
        out[name] = (value, unit)
    return out


def start(tracer: LayerTracer) -> None:
    """Switch on ``repro.obs`` counters and install the layer wrappers."""
    from repro import obs

    obs.enable()
    obs.reset()
    install(tracer)


def counters() -> dict:
    """The current ``repro.obs`` counter values."""
    from repro import obs

    return dict(obs.registry().snapshot()["counters"])
