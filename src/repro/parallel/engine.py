"""Process-pool executor for the solve runner.

Once the reuse table and the walker order are fixed, the per-reference work
of every method is embarrassingly parallel: each reference owns a disjoint
slice of the report and (for ``EstimateMisses``) its own derived RNG seed
``seed ^ ref.uid``.  :class:`ParallelEngine` is the executor of
:func:`repro.cme.solve.run` that shards references across a
:class:`concurrent.futures.ProcessPoolExecutor`.  The runner plans (memo),
reassembles and finishes in the parent; the engine keeps only the pool:

* the immutable analysis state — ``(NormalizedProgram, MemoryLayout,
  CacheConfig, ReuseTable)`` — is pickled **once**, shipped to each worker
  through the pool initializer, and unpickled **once per worker**; every
  task afterwards only carries reference uids;
* workers run the method table's per-reference units
  (:data:`repro.cme.solve.METHODS`), looked up when the task runs, so a
  parallel report is bit-identical to the serial one and
  ``MissReport.__eq__`` holds across ``jobs`` (timing fields are excluded
  from equality);
* references are dealt round-robin into a few chunks per worker, which
  balances the skewed RIS volumes of triangular and guarded spaces;
* when observability (:mod:`repro.obs`) is enabled in the parent, each task
  carries a flag telling the worker to record into its *own* registry and
  tracer; finished chunks ship a ``{"metrics", "spans"}`` snapshot back with
  the results and the parent folds it in under its ``parallel/solve`` span —
  so every merged ``cme.*`` and ``memo.*`` counter equals the serial run's,
  and worker time appears nested in the parent's span tree.  The exception
  is ``polyhedra.count.cache_hits``: it counts hits in the process-wide
  count memo (:mod:`repro.polyhedra.space`), so its value depends on what
  each process counted before and differs across ``jobs``;
* a worker that dies mid-task (``BrokenProcessPool``) costs wall time, not
  results: the references no merged chunk answered are solved in the
  parent, so results and counters still equal the serial run's.

Use :class:`ParallelEngine` to keep the pool (and the per-worker caches)
alive across several solves — e.g. sweeping cache associativities or
benchmarks plotting scaling curves — or the one-shot
:func:`solve_parallel` convenience wrapper.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Iterable, Optional, Sequence, TYPE_CHECKING

from repro import obs
from repro.layout.cache import CacheConfig
from repro.layout.memory import MemoryLayout
from repro.normalize.nprogram import NormalizedProgram, NRef
from repro.reuse.generator import ReuseTable
from repro.cme import solve
from repro.cme.backend import make_classifier, resolve_backend
from repro.cme.result import MissReport, RefResult

if TYPE_CHECKING:  # repro.memo imports repro.cme.result — keep this lazy
    from repro.memo import Memoizer

#: Chunks dealt per worker; >1 smooths out skewed per-reference volumes.
CHUNKS_PER_JOB = 4

#: Per-worker cache: ``(NormalizedProgram, classifier)`` — the classifier is
#: built by :func:`repro.cme.backend.make_classifier` from the backend name
#: shipped in the payload, so every worker uses the caller's backend.
_STATE: Optional[tuple[NormalizedProgram, object]] = None


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a job count: ``None``/``0``/negative mean all CPUs."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def _pool_context():
    """Prefer ``fork`` (cheap, inherits the interpreter) when available."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _load_state(payload: bytes) -> None:
    """Unpickle the shared analysis state into this process's cache."""
    global _STATE
    nprog, layout, cache, reuse, backend = pickle.loads(payload)
    _STATE = (nprog, make_classifier(backend, nprog, layout, cache, reuse))


def _init_worker(payload: bytes) -> None:
    """Pool initializer: load the shared state once per worker.

    Observability starts *disabled* in every worker — with the ``fork``
    start method a worker would otherwise inherit a copy of the parent's
    already-accumulated metrics and double-count them on merge.  Each task
    carries its own flag to switch recording on per chunk.
    """
    _load_state(payload)
    obs.disable()


#: A solve task: ``(method, uids, params, ship_obs, ship_timeline)``.
Task = tuple[str, tuple[int, ...], tuple, bool, bool]


def _solve_chunk(task: Task) -> tuple[list[RefResult], float, Optional[dict]]:
    """Solve one chunk of reference uids inside a worker process.

    Returns ``(results, solver_seconds, obs_snapshot)``.  The snapshot is
    ``None`` unless the task's ``ship_obs`` flag is set, in which case the
    worker-local metrics and spans recorded while solving this chunk are
    serialised and the worker-side instruments reset (so chunks never
    double-count).  ``ship_timeline`` additionally ships the individual
    span events (with this worker's pid, so the parent's Chrome-trace
    export renders each worker as its own lane) and the worker's peak RSS
    (``parallel.worker_peak_rss_bytes``).
    """
    from repro.obs.resource import peak_rss_bytes

    method, uids, params, ship_obs, ship_timeline = task
    assert _STATE is not None, "worker used before initialisation"
    nprog, classifier = _STATE
    if ship_obs and not obs.is_enabled():
        obs.enable()
    if ship_timeline:
        obs.enable_timeline()
    started = time.perf_counter()
    unit = solve.lookup(method).unit()
    results = [unit(classifier, nprog, nprog.refs[uid], *params) for uid in uids]
    solver_seconds = time.perf_counter() - started
    snap: Optional[dict] = None
    if ship_obs:
        obs.histogram("parallel.worker_peak_rss_bytes").observe(
            float(peak_rss_bytes())
        )
        snap = {
            "metrics": obs.registry().snapshot(),
            "spans": obs.tracer().snapshot(),
        }
        if ship_timeline:
            snap["timeline"] = obs.timeline_events()
        obs.reset()
    return results, solver_seconds, snap


def _deal_chunks(uids: Sequence[int], jobs: int) -> list[tuple[int, ...]]:
    """Round-robin the uids into at most ``jobs * CHUNKS_PER_JOB`` chunks."""
    n = max(1, min(len(uids), jobs * CHUNKS_PER_JOB))
    return [tuple(uids[i::n]) for i in range(n)]


class ParallelEngine:
    """A process pool bound to one prepared analysis state.

    The constructor pickles the state once; :meth:`find` and
    :meth:`estimate` then dispatch per-reference chunks.  The pool is
    created lazily (and only when ``jobs > 1``) so an engine with
    ``jobs=1`` is a zero-overhead serial solver — handy for sweeping the
    ``jobs`` axis in benchmarks with one code path.
    """

    #: The span the solve runner opens around plan → solve → finish.
    span = "parallel/solve"

    def __init__(
        self,
        nprog: NormalizedProgram,
        layout: MemoryLayout,
        cache: CacheConfig,
        reuse: ReuseTable,
        jobs: Optional[int] = None,
        memo: Optional["Memoizer"] = None,
        backend: Optional[str] = None,
    ):
        self.nprog = nprog
        self.layout = layout
        self.cache = cache
        self.reuse = reuse
        self.memo = memo
        self.jobs = resolve_jobs(jobs)
        # Resolve the backend in the parent so every worker (and the serial
        # path) builds the same classifier, even if workers could differ in
        # what they can import.
        self.backend = resolve_backend(backend)
        self._payload = pickle.dumps(
            (nprog, layout, cache, reuse, self.backend),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        self._pool: Optional[ProcessPoolExecutor] = None

    # -- lifecycle ---------------------------------------------------------------

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=_pool_context(),
                initializer=_init_worker,
                initargs=(self._payload,),
            )
        return self._pool

    # -- solving -----------------------------------------------------------------

    def find(self, refs: Optional[Iterable[NRef]] = None) -> MissReport:
        """Exhaustive ``FindMisses`` across the pool."""
        return self.run("find", refs)

    def regions(self, refs: Optional[Iterable[NRef]] = None) -> MissReport:
        """Regional ``RegionMisses`` across the pool (equal to :meth:`find`)."""
        return self.run("regions", refs)

    def estimate(
        self,
        refs: Optional[Iterable[NRef]] = None,
        confidence: float = 0.95,
        width: float = 0.05,
        seed: int = 0,
    ) -> MissReport:
        """Sampling ``EstimateMisses`` across the pool."""
        return self.run("estimate", refs, confidence, width, seed)

    def run(
        self,
        method: str,
        refs: Optional[Iterable[NRef]] = None,
        confidence: float = 0.95,
        width: float = 0.05,
        seed: int = 0,
    ) -> MissReport:
        """Any method of :data:`repro.cme.solve.METHODS` across the pool."""
        return solve.run(
            method, self.nprog, self.layout, self.cache, self.reuse,
            refs=refs, confidence=confidence, width=width, seed=seed,
            memo=self.memo, executor=self,
        )

    def solve(
        self, method: "solve.Method", refs: Sequence[NRef], params: tuple
    ) -> tuple[list[RefResult], float]:
        """Executor entry point: solve ``refs`` (in order) across the pool.

        Memo planning has already happened in the parent, against its
        preloaded store snapshot: only one representative per distinct
        equation system reaches the workers, which never touch the store.
        """
        obs.gauge("parallel.jobs").set(self.jobs)
        uids = tuple(ref.uid for ref in refs)
        if not uids:
            return [], 0.0
        if self.jobs <= 1 or len(uids) <= 1:
            # Serial path through the identical chunk code (no pool).
            # ``ship_obs=False``: this process's live instruments record
            # directly, so nothing must be snapshot/reset here.
            return self._solve_here(method.name, uids, params)
        pool = self._ensure_pool()
        ship_obs = obs.is_enabled()
        ship_timeline = obs.timeline_enabled()
        chunks = _deal_chunks(uids, self.jobs)
        shard_hist = obs.histogram("parallel.shard_size")
        for chunk in chunks:
            shard_hist.observe(len(chunk))
        obs.counter("parallel.chunks").inc(len(chunks))
        tasks = [
            (method.name, chunk, params, ship_obs, ship_timeline)
            for chunk in chunks
        ]
        by_uid: dict[int, RefResult] = {}
        solver = 0.0
        worker_hist = obs.histogram("parallel.worker_seconds")
        try:
            for results, chunk_seconds, snap in pool.map(_solve_chunk, tasks):
                solver += chunk_seconds
                worker_hist.observe(chunk_seconds)
                if snap is not None:
                    obs.merge_snapshot(snap)
                for r in results:
                    by_uid[r.ref_uid] = r
        except BrokenProcessPool:
            # A worker died mid-task (OOM-killed, crashed).  The
            # per-reference work is deterministic and the parent holds the
            # full state, so recover by solving the references no merged
            # chunk answered serially — identical results and counters,
            # degraded wall time, and a counter so the ledger records it.
            obs.counter("parallel.pool_broken").inc()
            self.close()
            missing = tuple(uid for uid in uids if uid not in by_uid)
            results, seconds = self._solve_here(method.name, missing, params)
            solver += seconds
            for r in results:
                by_uid[r.ref_uid] = r
        return [by_uid[uid] for uid in uids], solver

    def _solve_here(
        self, method: str, uids: tuple[int, ...], params: tuple
    ) -> tuple[list[RefResult], float]:
        """Solve ``uids`` in this process with a fresh copy of the state."""
        _load_state(self._payload)
        results, seconds, _ = _solve_chunk((method, uids, params, False, False))
        return results, seconds


def solve_parallel(
    method: str,
    nprog: NormalizedProgram,
    layout: MemoryLayout,
    cache: CacheConfig,
    reuse: ReuseTable,
    jobs: Optional[int],
    refs: Optional[Iterable[NRef]] = None,
    confidence: float = 0.95,
    width: float = 0.05,
    seed: int = 0,
    memo: Optional["Memoizer"] = None,
    backend: Optional[str] = None,
) -> MissReport:
    """One-shot parallel solve (ephemeral :class:`ParallelEngine`).

    ``method`` is a name of :data:`repro.cme.solve.METHODS`; everything
    else mirrors the serial solvers in :mod:`repro.cme`.
    """
    solve.lookup(method)  # reject unknown methods before pickling the state
    with ParallelEngine(nprog, layout, cache, reuse, jobs, memo, backend) as engine:
        return engine.run(method, refs, confidence, width, seed)
