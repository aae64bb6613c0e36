"""Shared machinery of the end-to-end benchmark.

* locating the program under test (``src/repro`` of the checkout) and
  refusing to run without it;
* :class:`Meter`, which times each unit between readings of the reference
  loop (``reference.py``) and normalises it by the machine's current speed;
* fresh-process set-up timing (:func:`measure_setups`);
* output digests, the pinned expectations in ``pins.json`` and the final
  one-line JSON result.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable, Optional

import layers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PINS_PATH = BENCH_DIR / "pins.json"
#: Scratch space for the daemon's memo store; listed in ``.gitignore``.
SCRATCH_DIR = ROOT / ".e2ebench_tmp"

#: Nominal duration of one reference-loop reading.  A normalised time is
#: ``raw * REF_SECONDS / local reading``: the seconds the unit would take on
#: a machine that runs the reference loop in exactly this long.  Changing it
#: rescales every normalised metric.
REF_SECONDS = 0.15

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def use_checkout_sources() -> None:
    """Put the checkout's ``src`` first on ``sys.path``, or exit loudly.

    The benchmark measures the program in the checkout it sits in; an
    installed ``repro`` elsewhere must never stand in for missing sources.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"e2ebench: program sources missing: {SRC / 'repro'} not found",
            file=sys.stderr,
        )
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _quiet_state(reset: Optional[Callable[[], None]]) -> None:
    if reset is not None:
        reset()
    gc.collect()


class Meter:
    """Times units between reference-loop readings.

    A reading is taken right before and right after every unit; the reading
    after one unit doubles as the reading before the next.  A unit's time
    is normalised by the median of the four readings nearest to it (two
    before, two after), so one reading that another process happened to
    interrupt does not distort it, while drift over a run is still tracked.
    The readings run in a helper process (``reference.py``) while this one
    waits, so the reference loop's memory never shows in this process's
    peak RSS.  ``reset`` runs (with a ``gc.collect()``) before every unit so
    that each one starts from the same process state.  Use as a context
    manager: leaving it stops the helper.
    """

    def __init__(self, reset: Optional[Callable[[], None]] = None):
        self.reset = reset
        self.readings: list[float] = []
        self._fresh = False
        self._helper = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "reference.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __enter__(self) -> "Meter":
        return self

    def __exit__(self, *exc) -> None:
        self._helper.stdin.close()
        try:
            self._helper.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._helper.kill()
            self._helper.wait()
        self._helper.stdout.close()

    def reading(self) -> None:
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        line = self._helper.stdout.readline()
        if not line:
            raise RuntimeError("the reference-loop helper exited")
        self.readings.append(float(line))
        self._fresh = True

    def invalidate(self) -> None:
        """Other work ran since the last reading: take a new one next."""
        self._fresh = False

    def start(self) -> int:
        """Quiet the process, make sure a reading precedes the next unit and
        return its slot (the index of that reading)."""
        _quiet_state(self.reset)
        if not self._fresh:
            self.reading()
        return len(self.readings) - 1

    def measure_each(
        self, fns: list[Callable[[], object]]
    ) -> list[tuple[object, float, int]]:
        """Time consecutive calls as one unit: ``[(result, raw_s, slot)]``."""
        slot = self.start()
        timed = []
        for fn in fns:
            _quiet_state(self.reset)
            started = time.perf_counter()
            result = fn()
            timed.append((result, time.perf_counter() - started, slot))
        self.reading()
        return timed

    def measure(self, fn: Callable[[], object]) -> tuple[object, float, int]:
        """Time one call as a unit: ``(result, raw_s, slot)``."""
        return self.measure_each([fn])[0]

    def normalise(self, raw: float, slot: int) -> float:
        window = self.readings[max(0, slot - 1): slot + 3]
        return raw * REF_SECONDS / statistics.median(window)

    @property
    def ref_s(self) -> float:
        return statistics.median(self.readings) if self.readings else 0.0


class Samples:
    """Timings keyed by ``(metric, unit)``, each with its reading slot.

    A metric's value is the sum, over its units, of each unit's median.
    """

    def __init__(self, meter: Meter):
        self.meter = meter
        self._times: dict = defaultdict(lambda: defaultdict(list))

    def add(self, metric: str, unit: str, raw: float, slot: int) -> None:
        self._times[metric][unit].append((raw, slot))

    def total(self, metric: str, raw: bool = False) -> float:
        def value(raw_s, slot):
            return raw_s if raw else self.meter.normalise(raw_s, slot)

        return sum(
            statistics.median(value(*t) for t in times)
            for times in self._times[metric].values()
        )

    def values(self, metric: str, raw: bool = False) -> list[float]:
        """Every timing of ``metric``, grouped by unit."""
        return [
            raw_s if raw else self.meter.normalise(raw_s, slot)
            for times in self._times[metric].values()
            for raw_s, slot in times
        ]

    def spent(self, metrics, raw: bool = False) -> float:
        """Every timing of ``metrics`` summed (not medians)."""
        return sum(sum(self.values(m, raw)) for m in metrics)

    def unit_medians(self, metrics, raw: bool = False) -> list[float]:
        """The median timing of every unit of ``metrics``."""
        return [
            statistics.median(
                raw_s if raw else self.meter.normalise(raw_s, slot)
                for raw_s, slot in times
            )
            for m in metrics
            for times in self._times[m].values()
        ]

    def work_metrics(self, metrics, raw: bool = False) -> dict[str, float]:
        """``work_s`` and ``p50_ms`` of a run made of units.

        ``work_s`` sums the per-unit medians of ``metrics``: the seconds the
        workload's fixed work takes once.  ``p50_ms`` is the median of the
        same per-unit medians, one per operation (a solver call on one
        program, one search).
        """
        ops = self.unit_medians(metrics, raw)
        return {"work_s": sum(ops), "p50_ms": 1e3 * percentile(ops, 0.50)}


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile; ``inf`` (a failed request) sorts last."""
    ordered = sorted(values)
    rank = max(1, int(round(q * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]


#: Units of the end-to-end metrics every workload prints.
END_TO_END_UNITS = {
    "setup_s": "s",
    "work_s": "s",
    "p50_ms": "ms",
    "err_pp": "pp",
    "peak_rss_mb": "MB",
}


def end_to_end(values: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Attach units to a workload's end-to-end values; all must be there."""
    missing = set(END_TO_END_UNITS) - set(values)
    if missing:
        raise RuntimeError(f"end-to-end metrics not measured: {sorted(missing)}")
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


# -- set-up in a fresh process ----------------------------------------------------


def measure_setups(
    meter: Meter, samples: Samples, workload: str, tiny: bool,
    traced: bool = False, repeats: Optional[int] = None,
) -> list[dict]:
    """Time ``repeats`` fresh-process set-ups of ``workload`` as ``setup_s``.

    Each one runs ``setup_child.py``, which imports the program, prepares
    the workload's inputs, warms each solver up and then prints one JSON
    line.  The time runs from process creation to that line.  ``repeats``
    defaults to :data:`SETUP_REPEATS` (one with ``tiny``).  Returns the
    children's reports.
    """
    cmd = [sys.executable, str(BENCH_DIR / "setup_child.py"), workload]
    if tiny:
        cmd.append("--tiny")
    if traced:
        cmd.append("--trace")
    reports = []
    for _ in range(repeats or (1 if tiny else SETUP_REPEATS)):
        slot = meter.start()
        started = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True
        )
        try:
            line = proc.stdout.readline()
            raw = time.perf_counter() - started
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if code != 0 or not line.strip():
            raise RuntimeError(f"set-up child for {workload} failed ({code})")
        meter.reading()
        samples.add("setup_s", "fresh process", raw, slot)
        reports.append(json.loads(line))
    return reports


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- digests and pins ---------------------------------------------------------------


def digest(value) -> str:
    """A short stable digest of a JSON-serialisable value."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_pins(workload: str) -> dict:
    if not PINS_PATH.is_file():
        return {}
    return json.loads(PINS_PATH.read_text()).get(workload, {})


def save_pins(workload: str, pins: dict) -> None:
    table = json.loads(PINS_PATH.read_text()) if PINS_PATH.is_file() else {}
    table[workload] = pins
    PINS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


class Checker:
    """Counts operations and the ones whose output missed its expectation."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, key: str, actual) -> None:
        self.attempted += 1
        want = self.expected.get(key)
        if want != actual:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{key}: expected {want}, got {actual}")

    def fail(self, key: str, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(f"{key}: {why}")


# -- output ---------------------------------------------------------------------------


def emit(
    checker: Checker,
    metrics: dict[str, tuple[float, str]],
    raw: Optional[dict[str, float]] = None,
) -> None:
    """Print the human table and the one-line JSON result (stdout).

    ``raw`` holds the un-normalised value of each normalised metric under
    ``raw.<metric>``; the table shows it next to the normalised one.
    """
    raw = raw or {}
    for problem in checker.problems:
        print(f"e2ebench: MISMATCH {problem}")
    if "ref_s" in raw:
        print(f"  reference loop: median {raw['ref_s']:.4f} s "
              f"(nominal {REF_SECONDS} s)")
    for name, (value, unit) in metrics.items():
        line = f"  {name:30s} {value:14.6f} {unit}"
        if f"raw.{name}" in raw:
            line += f"   (raw {raw[f'raw.{name}']:.6f})"
        print(line)
    doc = {
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": max(1, checker.attempted),
        "failed": checker.failed if checker.attempted else 1,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(doc), flush=True)


def emit_traced(
    checker: Checker,
    meter: Meter,
    workload: str,
    tiny: bool,
    untraced: Samples,
    metrics: Iterable[str],
    raw: dict[str, float],
    repeat: Callable[[Samples], None],
    extra: Optional[dict[str, float]] = None,
) -> None:
    """The traced half of a ``--trace 1`` run, and its output.

    Runs one traced fresh-process set-up, then ``repeat`` (the run's units
    again, adding their timings of ``metrics`` to the samples it is given)
    with every layer wrapped, and prints the per-layer metrics.  ``raw``
    and ``extra`` fill the benchmark's own per-layer values.
    """
    metrics = list(metrics)
    (child,) = measure_setups(
        meter, Samples(meter), workload, tiny, traced=True, repeats=1
    )
    tracer = layers.LayerTracer()
    layers.start(tracer)
    meter.invalidate()
    traced = Samples(meter)
    repeat(traced)
    spans = tracer.snapshot()
    bench = {
        **raw,
        **(extra or {}),
        "import_s": child["import_s"],
        "unattributed_s": traced.spent(metrics, raw=True)
        - layers.attributed_seconds(spans),
        "trace.overhead_ratio": traced.spent(metrics) / untraced.spent(metrics),
    }
    emit(
        checker,
        layers.per_layer_metrics(
            layers.merge_layers(child["layers"], spans),
            layers.merge_counters(child["counters"], layers.counters()),
            bench,
        ),
    )


def scratch_dir(name: str) -> Path:
    path = SCRATCH_DIR / f"{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path
