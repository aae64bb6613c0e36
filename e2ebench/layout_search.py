"""Workload ``layout-search``: the compiler use case, padding and tiling.

Why: the paper's purpose is to guide locality optimisations.  Three
searches run with ``method=None`` (``opt.choose_method`` picks the solver
per candidate), each call with a fresh in-memory ``Memoizer``:

* ``search_padding`` on tomcatv (4KB / 32B / 2-way), two pads;
* ``search_tiles`` on MMT N=48 (2KB / 32B / 2-way) over the six tiles of
  ``examples/blocked_matmul_tuning.py``;
* ``search_padding`` on a 1-D stencil whose arrays are whole multiples of
  a 1KB direct-mapped cache apart, so pads decide the conflicts; it is fully
  certifiable, so ``choose_method`` picks ``regions``.

Unlike paper-suite, ``prepare``, the reuse table and the
``regional_coverage`` probe run once per candidate on the timed path, and
this is the only workload that exercises ``cme.regions`` and ``opt``.

One pass runs the searches, the shorter ones twice, in an order drawn from
the seed; a run is
a fixed number of passes.  An operation is one search: ``work_s`` sums the
per-search medians and ``p50_ms`` is the median search's median.
``err_pp`` is the mean |ranked - simulated| miss ratio over every candidate
of every search, in percentage points.  Each search's ranking is checked
against its pinned digest, so a search that picks differently is a failed
operation; ``search_regret_pp`` in the traced run says by how much.
"""

from __future__ import annotations

import random
import statistics

import harness

TOMCATV_PADS = (32, 128)
MMT_N = 48
MMT_TILES = ((48, 48), (48, 24), (24, 24), (24, 12), (12, 12), (8, 8))
STENCIL_N = 4094  # (N + 2) * 8 bytes = 32KB per array: 32 caches apart
STENCIL_PADS = (0, 32, 64, 96, 128, 256, 512, 1024)
SEARCHES = ("tomcatv-pad", "mmt-tiles", "stencil-pad")
#: Calls per pass, shuffled together: the shorter searches recur, so that
#: the median search (``p50_ms``) rests on calls made at different moments
#: of the pass.
REPEATS = {"tomcatv-pad": 1, "mmt-tiles": 2, "stencil-pad": 2}
#: Inputs of the benchmark's own quick test.
TINY = {"tomcatv": 12, "mmt": 16, "mmt_tiles": ((16, 16), (8, 8), (4, 4)),
        "stencil": 126}
#: Nominal seconds of one pass; ``--seconds`` buys ``seconds // 13`` passes.
ROUND_SECONDS = 13


def import_program() -> None:
    import repro  # noqa: F401
    import repro.opt  # noqa: F401
    import repro.serve.engine  # noqa: F401  (the CLI's workload table)


def build_stencil(n: int):
    """1-D 3-point stencil chain over three arrays (fully certifiable)."""
    from repro.ir import ProgramBuilder

    pb = ProgramBuilder("STENCIL3")
    a = pb.array("A", (n + 2,))
    b = pb.array("B", (n + 2,))
    c = pb.array("C", (n + 2,))
    with pb.subroutine("MAIN"):
        with pb.do("I", 2, n) as i:
            pb.assign(a[i], b[i - 1], b[i], b[i + 1], label="S1")
            pb.assign(c[i], c[i], a[i - 1], a[i], label="S2")
    return pb.build()


class Inputs:
    """The three searches' programs, caches and candidates."""

    def __init__(self, tiny: bool):
        from repro import CacheConfig
        from repro.kernels import build_mmt
        from repro.serve.engine import load_kernel

        self.tomcatv = load_kernel("tomcatv", TINY["tomcatv"] if tiny else None)
        n = TINY["mmt"] if tiny else MMT_N
        self.mmt_builder = lambda bj, bk: build_mmt(n, bj, bk)
        self.tiles = TINY["mmt_tiles"] if tiny else MMT_TILES
        self.stencil = build_stencil(TINY["stencil"] if tiny else STENCIL_N)
        self.caches = {
            "tomcatv-pad": CacheConfig.kb(4, 32, 2),
            "mmt-tiles": CacheConfig.kb(2, 32, 2),
            "stencil-pad": CacheConfig.kb(1, 32, 1),
        }

    def search(self, name: str, memo):
        """Run one search; returns its ranking ``[(candidate, miss %)]``."""
        from repro.opt import search_padding, search_tiles

        cache = self.caches[name]
        if name == "mmt-tiles":
            ranked = search_tiles(self.mmt_builder, self.tiles, cache, memo=memo)
            return [(list(c.tile), c.miss_ratio_percent) for c in ranked]
        program, pads = (
            (self.tomcatv, TOMCATV_PADS)
            if name == "tomcatv-pad"
            else (self.stencil, STENCIL_PADS)
        )
        ranked = search_padding(program, cache, candidates=pads, memo=memo)
        return [(c.pad_bytes, c.miss_ratio_percent) for c in ranked]

    def simulated(self, name: str) -> dict[str, float]:
        """Simulated miss ratio of every candidate of one search."""
        from repro import prepare, run_simulation

        cache = self.caches[name]
        if name == "mmt-tiles":
            return {
                str(list(t)): run_simulation(
                    prepare(self.mmt_builder(*t)), cache
                ).miss_ratio_percent
                for t in self.tiles
            }
        program, pads = (
            (self.tomcatv, TOMCATV_PADS)
            if name == "tomcatv-pad"
            else (self.stencil, STENCIL_PADS)
        )
        return {
            str(pad): run_simulation(
                prepare(program, align=cache.line_bytes, pad_bytes=pad), cache
            ).miss_ratio_percent
            for pad in pads
        }


def setup(tiny: bool) -> Inputs:
    """Build the inputs and warm every solver the searches use."""
    from repro import CacheConfig, Memoizer, analyze, prepare, run_simulation
    from repro.kernels import build_hydro
    from repro.opt import search_padding

    inputs = Inputs(tiny)
    warm_cache = CacheConfig.kb(1, 32, 1)
    warm = prepare(build_hydro(4, 4))
    analyze(warm, warm_cache, method="estimate")
    run_simulation(warm, warm_cache)
    search_padding(build_stencil(30), warm_cache, candidates=(0,), memo=Memoizer())
    return inputs


def compute_pins(tiny: bool) -> dict:
    """Expected ranking digests, plus every candidate's simulated ratio."""
    from repro import Memoizer

    inputs = setup(tiny)
    pins = {}
    for name in SEARCHES:
        pins[f"ranking:{name}"] = harness.digest(inputs.search(name, Memoizer()))
        pins[f"simulated:{name}"] = inputs.simulated(name)
    return pins


def _clear_counts() -> None:
    from repro.polyhedra.space import clear_count_cache

    clear_count_cache()


def _passes(meter, inputs, order, checker, samples, rankings) -> None:
    """Run every pass; each search call gets a fresh memo."""
    from repro import Memoizer

    for searches in order:
        for name in searches:
            ranking, raw, slot = meter.measure(
                lambda: inputs.search(name, Memoizer())
            )
            checker.check(f"ranking:{name}", harness.digest(ranking))
            samples.add("search_s", name, raw, slot)
            rankings[name] = ranking


def run(opts, meter: harness.Meter) -> None:
    import_program()
    expected = compute_pins(True) if opts.tiny else harness.load_pins("layout-search")
    checker = harness.Checker(expected)
    meter.reset = _clear_counts
    samples = harness.Samples(meter)
    harness.measure_setups(meter, samples, "layout-search", opts.tiny)
    inputs = setup(opts.tiny)
    meter.invalidate()
    rng = random.Random(opts.seed)
    order = []
    for _ in range(max(1, opts.seconds // ROUND_SECONDS)):
        searches = [n for n in SEARCHES for _ in range(REPEATS[n])]
        rng.shuffle(searches)
        order.append(searches)
    rankings: dict = {}
    _passes(meter, inputs, order, checker, samples, rankings)
    rss = harness.peak_rss_mb()
    errors, regret = [], 0.0
    for name in SEARCHES:
        simulated = expected.get(f"simulated:{name}", {})
        for candidate, reported in rankings[name]:
            if str(candidate) not in simulated:
                checker.fail(f"simulated:{name}", f"no ratio for {candidate}")
                continue
            errors.append(abs(reported - simulated[str(candidate)]))
        pick = str(rankings[name][0][0])
        regret += simulated.get(pick, 0.0) - min(simulated.values(), default=0.0)
    raw = {
        f"raw.{m}": v
        for m, v in samples.work_metrics(["search_s"], raw=True).items()
    }
    raw["raw.setup_s"] = samples.total("setup_s", raw=True)
    raw["ref_s"] = meter.ref_s
    if not opts.trace:
        harness.emit(
            checker,
            harness.end_to_end({
                "setup_s": samples.total("setup_s"),
                **samples.work_metrics(["search_s"]),
                "err_pp": statistics.fmean(errors) if errors else float("inf"),
                "peak_rss_mb": rss,
            }),
            raw,
        )
        return
    harness.emit_traced(
        checker, meter, "layout-search", opts.tiny, samples, ["search_s"], raw,
        lambda traced: _passes(meter, inputs, order, checker, traced, {}),
        {"search_regret_pp": regret},
    )
