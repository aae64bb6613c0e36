"""One fresh-process set-up of a workload, timed by the parent.

Usage: ``python3 e2ebench/setup_child.py WORKLOAD [--tiny] [--trace]``.
Imports the program, runs the workload's ``setup`` (prepared inputs plus a
warm-up call of every solver the workload uses, so lazy imports such as
SciPy's are paid here) and prints one JSON line: the import seconds and,
with ``--trace``, the per-layer times and ``repro.obs`` counters of the
set-up.  The parent stops its clock when that line arrives.
"""

import sys
import time

_started = time.perf_counter()

import harness  # noqa: E402

harness.use_checkout_sources()

import json  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    name = sys.argv[1]
    tiny = "--tiny" in sys.argv
    traced = "--trace" in sys.argv
    module = workloads.module(name)
    module.import_program()
    report = {"import_s": time.perf_counter() - _started}
    tracer = None
    if traced:
        import layers

        tracer = layers.LayerTracer()
        layers.start(tracer)
    module.setup(tiny)
    if tracer is not None:
        report["layers"] = tracer.snapshot()
        report["counters"] = layers.counters()
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
