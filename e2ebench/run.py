"""End-to-end benchmark of the analytical cache model.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload paper-suite --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --repin            # re-pin every expected output

``--workload`` is ``paper-suite``, ``layout-search`` or ``serve-mixed``
(see README.md in this directory).  ``--seed`` orders a fixed set of units;
it never changes how much work a run does.  ``--seconds`` picks the number
of rounds (passes, sessions) as ``max(1, seconds // ROUND_SECONDS)`` of the
workload, so a given value always means the same work.  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` repeats the run with every
layer wrapped and prints the per-layer metrics instead.  ``--tiny`` shrinks
every input (the benchmark's own quick test uses it).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402

harness.use_checkout_sources()

import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.MODULES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument(
        "--repin",
        action="store_true",
        help="recompute and store the expected outputs of every workload",
    )
    opts = parser.parse_args(argv)
    # A terminated run still stops its helper, set-up and daemon processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if opts.repin:
        for name in workloads.MODULES:
            module = workloads.module(name)
            module.import_program()
            harness.save_pins(name, module.compute_pins(tiny=False))
            print(f"e2ebench: pinned {name}")
        return 0
    if opts.workload is None:
        parser.error("--workload is required")
    module = workloads.module(opts.workload)
    with harness.Meter() as meter:
        module.run(opts, meter)
    return 0


if __name__ == "__main__":
    sys.exit(main())
