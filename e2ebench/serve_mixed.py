"""Workload ``serve-mixed``: the analysis daemon under a closed loop.

Why: in the service the memo, the queue, the wire protocol and the frontend
do the work, and a warm request skips the ``cme`` layer entirely.  Each
session starts a fresh daemon (``repro-cache serve``, one worker, one
dispatcher, a fresh ``--cache-dir``) and one client without think time
sends a fixed set of requests in an order drawn from the seed.  The loop is
closed because the daemon's callers are compiler processes that wait for
each reply.

The request set: hydro, mgrid and mmt at size 16, on three cache
geometries, with FindMisses and EstimateMisses: 18 distinct documents.
Those on the 4KB geometry are sent as mini-FORTRAN ``source`` (the bundled
``.f`` kernels with the sizes rewritten), the rest as builtin kernels.
The documents go out in :data:`SENDS_PER_DOC` passes.  The first pass is
cold and goes out in document order; each later pass repeats every
document, in its own seed order, and the memo answers it.  So a fifth of
the requests are cold: the median falls among warm requests, and the cold
ones are most of the time.

One client, not two: on a two-core machine, two clients, two workers, the
daemon's threads and the benchmark share the cores, and the latencies
measured the scheduler.  Over five seeds, the median latency spread by 23%
(IQR over median) with two clients and two workers, against 7% with one of
each.

Requests go out in batches of :data:`BATCH`; the reference loop runs in the
benchmark process between batches, while the client is idle, and each
batch's latencies are normalised by the readings around it.

An operation is one request: ``p50_ms`` is the median over every request
of the run (a warm one), and ``work_s`` is the time to send the whole
request set once (per-batch median wall times, summed), mostly the cold
requests.  ``err_pp`` is the mean
|EstimateMisses - FindMisses| miss ratio the daemon returned over the nine
(program, geometry) pairs, in percentage points.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

import harness
import layers

PROGRAMS = ("hydro", "mgrid", "mmt")
SIZE = 16
GEOMETRIES = ("1:32:1", "4:32:2", "8:64:4")
SOURCE_GEOMETRY = "4:32:2"
METHODS = ("find", "estimate")
SENDS_PER_DOC = 5
BATCH = 30
#: Nominal seconds of one session; ``--seconds`` buys ``seconds // 7``.
ROUND_SECONDS = 7
TINY_SIZE = 6
#: ``PARAMETER`` values of the bundled sources at problem size ``n``.
SOURCE_PARAMETERS = {
    "hydro": lambda n: f"JN={n}, KN={n}",
    "mgrid": lambda n: f"M={n}, MF={2 * n - 1}",
    "mmt": lambda n: f"N={n}, BJ={n // 2}, BK={n // 4}",
}
WARMUP = (
    {"kernel": "mmt", "size": 4, "cache": "1:32:1", "method": "find"},
    {"kernel": "mmt", "size": 4, "cache": "1:32:1", "method": "estimate"},
)


def import_program() -> None:
    import repro.serve  # noqa: F401


def _source(name: str, size: int) -> str:
    from repro.kernels import fortran_source

    text = fortran_source(name)
    return re.sub(
        r"PARAMETER \([^)]*\)",
        f"PARAMETER ({SOURCE_PARAMETERS[name](size)})",
        text,
        count=1,
    )


def documents(tiny: bool) -> dict[str, dict]:
    """The distinct request documents, by a stable key."""
    size = TINY_SIZE if tiny else SIZE
    docs = {}
    for name in PROGRAMS:
        for cache in GEOMETRIES:
            for method in METHODS:
                doc = {"cache": cache, "method": method, "timeout": 120.0}
                if cache == SOURCE_GEOMETRY:
                    doc["source"] = _source(name, size)
                    form = "source"
                else:
                    doc.update(kernel=name, size=size)
                    form = "kernel"
                docs[f"{method}:{name}:{cache}:{form}"] = doc
    return docs


def warmup_docs() -> list[dict]:
    return [dict(d, timeout=120.0) for d in WARMUP] + [
        {"source": _source("hydro", 4), "cache": "1:32:1", "method": "find"}
    ]


def _offline_digest(doc: dict) -> str:
    from repro.serve.engine import AnalysisEngine
    from repro.serve.protocol import report_doc, validate_request

    report, _ = AnalysisEngine().run(validate_request(doc))
    return harness.digest(report_doc(report))


def compute_pins(tiny: bool) -> dict:
    """Digest of the offline ``analyze`` report of every document."""
    return {key: _offline_digest(doc) for key, doc in documents(tiny).items()}


class Daemon:
    """One launcher process running the daemon; always stopped on exit."""

    def __init__(self, traced: bool):
        self.dir = harness.scratch_dir("serve")
        self.stats_path = self.dir / "stats.json"
        cmd = [
            sys.executable, "-u", str(harness.BENCH_DIR / "serve_launcher.py"),
            str(self.stats_path), "1" if traced else "0", "--",
            "--port", "0", "--workers", "1", "--dispatchers", "1",
            "--cache-dir", str(self.dir / "memo"),
            "--quiet",
        ]
        self.proc = subprocess.Popen(
            cmd, cwd=harness.ROOT, stdout=subprocess.PIPE, text=True
        )
        self.url = None
        for line in self.proc.stdout:
            match = re.search(r"serving on (http://\S+)", line)
            if match:
                self.url = match.group(1)
                break
        if self.url is None:
            self.stop()
            raise RuntimeError("the daemon did not start")

    def stop(self) -> dict:
        """SIGINT the daemon, wait for it, return its stats (if written)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        stats = {}
        if self.stats_path.is_file():
            stats = json.loads(self.stats_path.read_text())
        shutil.rmtree(self.dir, ignore_errors=True)
        return stats


def _send_batch(client, batch, docs, checker, latencies, ratios):
    """The closed-loop client sends ``batch``; returns its wall seconds.

    Each reply's miss ratio goes to ``ratios`` under its document's key.
    """
    from repro.serve import ServeError

    started = time.perf_counter()
    for key in batch:
        sent = time.perf_counter()
        try:
            resp = client.analyze(dict(docs[key], client="client-0"))
        except (ServeError, OSError) as exc:
            latencies.append((key, float("inf")))
            checker.fail(key, f"request failed: {exc}")
            continue
        latencies.append((key, time.perf_counter() - sent))
        ratios[key] = resp["report"]["totals"]["miss_ratio_percent"]
        checker.check(key, harness.digest(resp["report"]))
    return time.perf_counter() - started


def _session(
    meter, samples, order, docs, checker, ratios, traced=False
) -> dict:
    """Start a daemon, time its set-up, send every batch, stop it.

    Adds ``setup_s`` and one ``latency`` and ``wall`` timing per request and
    batch to ``samples``, and each reply's miss ratio to ``ratios``; returns
    the daemon's stats and the summed client latency (set-up requests
    included).
    """
    from repro.serve import ServeClient

    slot = meter.start()
    started = time.perf_counter()
    daemon = Daemon(traced)
    client_s = 0.0
    try:
        client = ServeClient(daemon.url, timeout=150.0)
        client.healthz()
        for doc in warmup_docs():
            t0 = time.perf_counter()
            client.analyze(doc)
            client_s += time.perf_counter() - t0
        samples.add("setup_s", "daemon", time.perf_counter() - started, slot)
        meter.reading()
        for i in range(0, len(order), BATCH):
            latencies: list = []
            slot = meter.start()
            wall = _send_batch(
                client, order[i:i + BATCH], docs, checker, latencies, ratios
            )
            meter.reading()
            samples.add("wall", str(i), wall, slot)
            for key, lat in latencies:
                samples.add("latency", key, lat, slot)
                client_s += lat
    finally:
        stats = daemon.stop()
    if "peak_rss_mb" not in stats:
        checker.fail("daemon", "the daemon did not stop cleanly")
    return {"stats": stats, "client_s": client_s}


def _latency_metrics(samples, raw: bool) -> dict[str, float]:
    """``work_s``, the seconds to send the whole request set once (the sum
    of per-batch median wall times), and the median request latency (ms)."""
    lat = samples.values("latency", raw=raw)
    return {
        "work_s": samples.total("wall", raw=raw),
        "p50_ms": 1e3 * harness.percentile(lat, 0.50),
    }


def _model_error(ratios: dict[str, float]) -> float:
    """Mean |EstimateMisses - FindMisses| miss ratio (percentage points)
    over the served (program, geometry) pairs; ``inf`` if one is missing."""
    errors = []
    for key, find in ratios.items():
        if key.startswith("find:"):
            estimate = ratios.get("estimate:" + key.partition(":")[2])
            errors.append(float("inf") if estimate is None else abs(estimate - find))
    return statistics.fmean(errors) if errors else float("inf")


def run(opts, meter: harness.Meter) -> None:
    import_program()
    docs = documents(opts.tiny)
    expected = compute_pins(True) if opts.tiny else harness.load_pins("serve-mixed")
    checker = harness.Checker(expected)
    samples = harness.Samples(meter)
    rng = random.Random(opts.seed)
    sessions = []
    for _ in range(max(1, opts.seconds // ROUND_SECONDS)):
        order = list(docs)  # the cold pass, in document order
        for _ in range(SENDS_PER_DOC - 1):
            keys = list(docs)
            rng.shuffle(keys)
            order += keys
        sessions.append(order)
    ratios: dict[str, float] = {}
    results = [
        _session(meter, samples, order, docs, checker, ratios)
        for order in sessions
    ]
    rss = statistics.median(
        r["stats"].get("peak_rss_mb", float("inf")) for r in results
    )
    raw = {f"raw.{k}": v for k, v in _latency_metrics(samples, True).items()}
    raw["raw.setup_s"] = samples.total("setup_s", raw=True)
    raw["ref_s"] = meter.ref_s
    if not opts.trace:
        harness.emit(
            checker,
            harness.end_to_end({
                "setup_s": samples.total("setup_s"),
                **_latency_metrics(samples, False),
                "err_pp": _model_error(ratios),
                "peak_rss_mb": rss,
            }),
            raw,
        )
        return
    # Traced run: one more session with the daemon's layers wrapped, on the
    # first session's order; its replies are checked like the others.
    traced = harness.Samples(meter)
    result = _session(
        meter, traced, sessions[0], docs, checker, {}, traced=True
    )
    stats = result["stats"]
    daemon_layers = stats.get("layers", {})
    engine = daemon_layers.get("serve.engine", {}).get("total_s", 0.0)
    bench = dict(raw)
    bench["import_s"] = stats.get("import_s", 0.0)
    bench["serve.http_s"] = result["client_s"] - engine
    bench["unattributed_s"] = engine - layers.attributed_seconds(daemon_layers)
    per_session = sum(samples.values("wall")) / len(sessions)
    bench["trace.overhead_ratio"] = sum(traced.values("wall")) / per_session
    harness.emit(
        checker,
        layers.per_layer_metrics(
            daemon_layers, stats.get("counters", {}), bench
        ),
    )
