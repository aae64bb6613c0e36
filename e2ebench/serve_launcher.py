"""Runs the analysis daemon (``repro-cache serve``) for serve-mixed.

Usage: ``python3 -u e2ebench/serve_launcher.py STATS_OUT TRACE -- SERVE_ARGS``.
The daemon is the CLI's own ``serve`` command; this launcher only wraps it
so that, with ``TRACE`` = ``1``, every layer is wrapped *inside* the daemon
before it starts.  Stop it with SIGINT (the CLI's Ctrl-C path, which closes
the server cleanly).  On exit it writes ``STATS_OUT``: the import seconds,
the peak RSS and, when traced, the per-layer times and ``repro.obs``
counters.
"""

import signal
import sys
import time

_started = time.perf_counter()

import harness  # noqa: E402

harness.use_checkout_sources()

import json  # noqa: E402

from repro import cli  # noqa: E402

_import_s = time.perf_counter() - _started


def main() -> int:
    stats_out, traced = sys.argv[1], sys.argv[2] == "1"
    # A process started in the background by a shell without job control
    # inherits SIGINT ignored; the daemon's clean stop needs Ctrl-C to
    # raise KeyboardInterrupt.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    serve_args = sys.argv[sys.argv.index("--") + 1:]
    tracer = None
    if traced:
        import layers

        tracer = layers.LayerTracer()
        layers.start(tracer)
    rc = cli.main(["serve", *serve_args])
    report = {"import_s": _import_s, "peak_rss_mb": harness.peak_rss_mb()}
    if tracer is not None:
        report["layers"] = tracer.snapshot()
        report["counters"] = layers.counters()
    with open(stats_out, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
