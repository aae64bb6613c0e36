"""Workload ``paper-suite``: the paper's six programs through every solver.

Why: these are the programs of Tables 3, 4 and 6.  Each one is answered by
the LRU simulator (``run_simulation``), FindMisses (``analyze(method=
"find")``) and EstimateMisses (``analyze(method="estimate")``) at the CLI's
default sizes on a 4KB / 32B / 2-way cache.  Preparing the programs and
building their reuse tables is set-up here, so the timed units stress the
``cme``, ``polyhedra``, ``iteration`` and ``sim`` layers; the memo, the
service and ``opt`` are bypassed.  RegionMisses is left out: it takes
8-45 s per program at these sizes.

One run is a fixed set of units in an order drawn from the seed.  A unit is
one solver on one program; short solvers repeat inside their unit
(:data:`REPEATS`) and FindMisses units recur (:data:`UNITS`).  An
operation is one solver call: ``work_s`` sums the
per-unit medians and ``p50_ms`` is the median of them, which falls among
the FindMisses units.
``err_pp`` is the mean |EstimateMisses - simulator| miss ratio over the six
programs, in percentage points.
"""

from __future__ import annotations

import random
import statistics

import harness

PROGRAMS = ("hydro", "mgrid", "mmt", "tomcatv", "swim", "applu")
CACHE = (4, 32, 2)  # KB, line bytes, ways
#: Calls per unit: the simulator is short, so it repeats inside its unit.
REPEATS = {"simulate": 5, "find": 1, "estimate": 1}
#: Units per (solver, program) and round.  FindMisses units recur, scattered
#: through the round, so that the median of each program's FindMisses time
#: rests on calls made at different moments: the host's speed changes over
#: seconds, and calls made back to back all see the same speed.
UNITS = {"simulate": 1, "find": 2, "estimate": 1}
#: Problem size of every program in the benchmark's own quick test.
TINY_SIZE = 8

#: Nominal seconds of one round; ``--seconds`` buys ``seconds // 30`` rounds.
ROUND_SECONDS = 30

#: Timing keys of each solver's units.
METRICS = {"simulate": "simulate_s", "find": "find_s", "estimate": "estimate_s"}


def import_program() -> None:
    import repro  # noqa: F401
    import repro.serve.engine  # noqa: F401  (the CLI's workload table)


def setup(tiny: bool):
    """Prepare the six programs and warm every solver up."""
    from repro import CacheConfig, analyze, prepare, run_simulation
    from repro.kernels import build_hydro
    from repro.serve.engine import load_kernel

    cache = CacheConfig.kb(*CACHE)
    prepared = {}
    for name in PROGRAMS:
        program = load_kernel(name, TINY_SIZE if tiny else None)
        prepared[name] = prepare(program)
        prepared[name].reuse_table(cache.line_bytes)
    warm = prepare(build_hydro(4, 4))
    run_simulation(warm, cache)
    analyze(warm, cache, method="find")
    analyze(warm, cache, method="estimate")
    return cache, prepared


def _call(solver: str, prepared, cache):
    from repro import analyze, run_simulation

    if solver == "simulate":
        return run_simulation(prepared, cache)
    return analyze(prepared, cache, method=solver)


def _output_digest(solver: str, report) -> str:
    if solver == "simulate":
        return harness.digest(
            [sorted(report.accesses.items()), sorted(report.misses.items())]
        )
    from repro.serve.protocol import report_doc

    return harness.digest(report_doc(report))


def compute_pins(tiny: bool) -> dict:
    """Expected digests of every (solver, program) output."""
    cache, prepared = setup(tiny)
    return {
        f"{solver}:{name}": _output_digest(solver, _call(solver, p, cache))
        for name, p in prepared.items()
        for solver in REPEATS
    }


def _units(seed: int, rounds: int) -> list[tuple[str, str]]:
    """Every (solver, program) unit :data:`UNITS` times per round, shuffled
    per round."""
    rng = random.Random(seed)
    units = []
    for _ in range(rounds):
        batch = [
            (solver, name)
            for solver, count in UNITS.items()
            for name in PROGRAMS
            for _ in range(count)
        ]
        rng.shuffle(batch)
        units += batch
    return units


def _clear_counts() -> None:
    from repro.polyhedra.space import clear_count_cache

    clear_count_cache()


def _round(meter, units, cache, prepared, checker, samples, ratios) -> None:
    """Time every unit."""
    for solver, name in units:
        calls = [
            (lambda s=solver, p=prepared[name]: _call(s, p, cache))
        ] * REPEATS[solver]
        for report, raw, slot in meter.measure_each(calls):
            checker.check(f"{solver}:{name}", _output_digest(solver, report))
            samples.add(METRICS[solver], name, raw, slot)
            if solver != "find":
                ratios[solver][name] = report.miss_ratio_percent


def run(opts, meter: harness.Meter) -> None:
    import_program()
    expected = compute_pins(True) if opts.tiny else harness.load_pins("paper-suite")
    checker = harness.Checker(expected)
    meter.reset = _clear_counts
    samples = harness.Samples(meter)
    harness.measure_setups(meter, samples, "paper-suite", opts.tiny)
    cache, prepared = setup(opts.tiny)
    meter.invalidate()
    units = _units(opts.seed, max(1, opts.seconds // ROUND_SECONDS))
    ratios: dict = {"simulate": {}, "estimate": {}}
    _round(meter, units, cache, prepared, checker, samples, ratios)
    work = samples.work_metrics(METRICS.values())
    raw = {
        f"raw.{m}": v
        for m, v in samples.work_metrics(METRICS.values(), raw=True).items()
    }
    raw["raw.setup_s"] = samples.total("setup_s", raw=True)
    raw["ref_s"] = meter.ref_s
    if not opts.trace:
        harness.emit(
            checker,
            harness.end_to_end({
                "setup_s": samples.total("setup_s"),
                **work,
                "err_pp": statistics.fmean(
                    abs(ratios["estimate"][n] - ratios["simulate"][n])
                    for n in PROGRAMS
                ),
                "peak_rss_mb": harness.peak_rss_mb(),
            }),
            raw,
        )
        return
    # Traced run: the same units again with every layer wrapped; outputs
    # are checked against the same expectations.
    harness.emit_traced(
        checker, meter, "paper-suite", opts.tiny, samples, METRICS.values(),
        raw,
        lambda traced: _round(
            meter, units, cache, prepared, checker, traced,
            {"simulate": {}, "estimate": {}},
        ),
    )
