"""A worker that dies mid-solve: the engine recovers without double counting.

One reference's unit is rebound to kill its process — only inside a pool
worker, never in the test process — so the pool breaks at a known chunk
after earlier chunks have merged their results and counters.  The engine
must solve only the references no merged chunk answered: the report and
every ``cme.*`` counter then equal the serial run's.  The dying worker
exits at once (no sleeps, no polling), so the test cannot hang.
"""

import multiprocessing
import os

import pytest

import repro.cme.find
from repro import CacheConfig, analyze, obs, prepare
from repro.kernels import build_hydro
from repro.parallel import CHUNKS_PER_JOB

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the rebound unit reaches the workers through fork",
)

JOBS = 2


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    yield
    obs.disable()


def cme_counters(snapshot):
    return {
        name: value
        for name, value in snapshot["counters"].items()
        if name.startswith("cme.")
    }


def test_dead_worker_resolves_only_the_missing_references(monkeypatch):
    prepared = prepare(build_hydro(16, 16))
    cache = CacheConfig.kb(2, 32, 2)
    refs = prepared.nprog.refs
    chunks = JOBS * CHUNKS_PER_JOB
    assert len(refs) > chunks
    obs.enable()
    serial = analyze(prepared, cache, method="find")
    expected = cme_counters(obs.snapshot())
    obs.reset()

    # The first reference of the last chunk: every earlier chunk has been
    # handed to a worker before it starts, so most of them merge first.
    victim = refs[chunks - 1].uid
    parent = os.getpid()
    unit = repro.cme.find.find_ref_misses

    def dies_in_a_worker(classifier, nprog, ref):
        if ref.uid == victim and os.getpid() != parent:
            os._exit(1)
        return unit(classifier, nprog, ref)

    monkeypatch.setattr(repro.cme.find, "find_ref_misses", dies_in_a_worker)
    report = analyze(prepared, cache, method="find", jobs=JOBS)
    snapshot = obs.snapshot()

    assert snapshot["counters"]["parallel.pool_broken"] == 1
    assert report == serial
    assert cme_counters(snapshot) == expected
