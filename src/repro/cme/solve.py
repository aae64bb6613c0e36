"""The solve runner: one method table and one plan → solve → finish loop.

Fig. 6 solves every reference once, by exhaustive classification
(``FindMisses``), by sampling (``EstimateMisses``) or — this repo's
addition — by regional decomposition (``RegionMisses``).  Every way of
running those solvers goes through :func:`run`:

1. **plan** — with a :class:`~repro.memo.Memoizer`, the targets are split
   into replays and one representative per distinct equation system
   (:meth:`~repro.memo.MemoSession.plan`; ``run`` is its only caller);
2. **solve** — the references left to solve go to an *executor*: the
   in-process :class:`SerialExecutor`, the process pool
   (:class:`repro.parallel.ParallelEngine`) or the daemon's shared thread
   pool (:mod:`repro.serve.engine`);
3. **finish** — results return in caller order, the plan records them and
   fills in the replays, and the report is stamped with its timings.

An executor is any object with a ``jobs`` count (stamped on the report), a
``span`` name (``None`` = ``cme/<method>``) and
``solve(method, refs, params) -> (results, solver_seconds)`` returning one
:class:`~repro.cme.result.RefResult` per reference, in order.  It calls
each reference's unit as ``unit(classifier, nprog, ref, *params)``.

The method table :data:`METHODS` is the only place that knows the methods:
the CLI's ``--method`` choices, the service protocol and both "unknown
method" errors read it.  Units are looked up as module attributes at call
time (:meth:`Method.unit`), never cached, so rebinding
``repro.cme.find.find_ref_misses`` (as the traced benchmark run does)
reaches every path.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, TYPE_CHECKING

from repro import obs
from repro.cme.backend import make_classifier
from repro.cme.result import MissReport, RefResult
from repro.reuse.generator import build_reuse_table

if TYPE_CHECKING:
    from repro.layout.cache import CacheConfig
    from repro.layout.memory import MemoryLayout
    from repro.memo import Memoizer
    from repro.normalize.nprogram import NormalizedProgram, NRef
    from repro.reuse.generator import ReuseOptions, ReuseTable


@dataclass(frozen=True)
class Method:
    """One row of the method table."""

    #: The name a caller selects (``method=`` / ``--method``).
    name: str
    #: ``MissReport.method`` of the solver's reports.
    report_name: str
    #: ``(module, attribute)`` of the per-reference unit.
    unit_path: tuple[str, str]
    #: The unit and the memo key take ``(confidence, width, seed)``.
    sampled: bool = False

    def unit(self) -> Callable[..., RefResult]:
        """The per-reference unit, looked up now (never cached)."""
        module, attr = self.unit_path
        return getattr(importlib.import_module(module), attr)


#: The method table, in the order the CLI and the protocol list it.
METHODS: dict[str, Method] = {
    m.name: m
    for m in (
        Method(
            "estimate",
            "EstimateMisses",
            ("repro.cme.estimate", "estimate_ref_misses"),
            sampled=True,
        ),
        Method("find", "FindMisses", ("repro.cme.find", "find_ref_misses")),
        Method(
            "regions", "RegionMisses", ("repro.cme.regions", "region_ref_misses")
        ),
    )
}


def lookup(name: str) -> Method:
    """The table row of ``name``; :class:`ValueError` for unknown names."""
    method = METHODS.get(name)
    if method is None:
        raise ValueError(
            f"unknown method {name!r}; use one of {', '.join(METHODS)}"
        )
    return method


class SerialExecutor:
    """Solve references one after another in this process."""

    jobs = 1
    span = None

    def __init__(self, classifier, nprog: "NormalizedProgram"):
        self.classifier = classifier
        self.nprog = nprog

    def solve(
        self, method: Method, refs: Sequence["NRef"], params: tuple
    ) -> tuple[list[RefResult], float]:
        started = time.perf_counter()
        unit, classifier, nprog = method.unit(), self.classifier, self.nprog
        results = [unit(classifier, nprog, ref, *params) for ref in refs]
        return results, time.perf_counter() - started


def run(
    method: str,
    nprog: "NormalizedProgram",
    layout: "MemoryLayout",
    cache: "CacheConfig",
    reuse: Optional["ReuseTable"] = None,
    walker=None,
    refs: Optional[Iterable["NRef"]] = None,
    reuse_options: Optional["ReuseOptions"] = None,
    confidence: float = 0.95,
    width: float = 0.05,
    seed: int = 0,
    jobs: int = 1,
    memo: Optional["Memoizer"] = None,
    backend: Optional[str] = None,
    executor=None,
    stats: Optional[dict] = None,
) -> MissReport:
    """Plan, solve and finish one analysis; returns its report.

    Arguments mirror the public solvers (:func:`~repro.cme.find_misses`
    and friends).  Without an ``executor``, ``jobs == 1`` solves in this
    process through the ``backend`` classifier and any other value shards
    across a process pool (:func:`repro.parallel.solve_parallel`).
    ``stats``, when given, receives this call's memo accounting —
    ``hits``, ``misses`` and ``store_hits`` of its own plan (all 0 without
    a memoizer), exact even when other sessions share the memoizer.
    """
    started = time.perf_counter()
    spec = lookup(method)
    if reuse is None:
        reuse = build_reuse_table(nprog, cache.line_bytes, reuse_options)
    if executor is None and jobs != 1:  # 0/negative/None mean "all CPUs"
        from repro.parallel import ParallelEngine

        with ParallelEngine(nprog, layout, cache, reuse, jobs, None, backend) as pool:
            return run(
                method, nprog, layout, cache, reuse, refs=refs,
                confidence=confidence, width=width, seed=seed, memo=memo,
                executor=pool, stats=stats,
            )
    if executor is None:
        executor = SerialExecutor(
            make_classifier(backend, nprog, layout, cache, reuse, walker), nprog
        )
    targets = list(refs) if refs is not None else list(nprog.refs)
    params = (confidence, width, seed) if spec.sampled else ()
    report = MissReport(spec.report_name, cache, jobs=executor.jobs)
    with obs.span(executor.span or f"cme/{method}"):
        if memo is None:
            solved, report.solver_seconds = executor.solve(spec, targets, params)
            report.results = {r.ref_uid: r for r in solved}
            accounting = {"hits": 0, "misses": 0, "store_hits": 0}
        else:
            plan = memo.session(
                method, nprog, layout, cache, reuse, confidence, width, seed
            ).plan(targets)
            solved, report.solver_seconds = executor.solve(
                spec, plan.solve, params
            )
            for ref, result in zip(plan.solve, solved):
                plan.add(ref, result)
            report.results = plan.finish({r.ref_uid: r for r in solved})
            accounting = {
                "hits": plan.replays,
                "misses": len(plan.solve),
                "store_hits": plan.store_hits,
            }
    if stats is not None:
        stats.update(accounting)
    report.elapsed_seconds = time.perf_counter() - started
    if obs.is_enabled():
        report.metrics = obs.snapshot()
    return report
