"""The solve runner: one method table, one plan → solve → finish loop."""

from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.cme.find
from repro import CacheConfig, analyze, prepare
from repro.cli import main
from repro.cme import make_classifier
from repro.cme.result import RefResult
from repro.cme.solve import METHODS, lookup, run
from repro.kernels import build_hydro
from repro.memo import Memoizer, MemoSession
from repro.parallel import solve_parallel
from repro.serve.engine import AnalysisEngine
from repro.serve.protocol import METHODS as PROTOCOL_METHODS
from repro.serve.protocol import AnalyzeRequest


@pytest.fixture(scope="module")
def prepared():
    return prepare(build_hydro(8, 8))


@pytest.fixture(scope="module")
def cache():
    return CacheConfig.kb(2, 32, 2)


@pytest.mark.parametrize("command", ["analyze", "compare", "submit"])
def test_one_table_feeds_the_protocol_and_the_cli(capsys, command):
    assert PROTOCOL_METHODS == tuple(METHODS) == ("estimate", "find", "regions")
    with pytest.raises(SystemExit):
        main([command, "hydro", "--cache", "4:32:2", "--method", "simulate"])
    err = capsys.readouterr().err
    assert "(choose from 'estimate', 'find', 'regions')" in err


def test_unknown_method_is_one_error_everywhere(prepared, cache):
    nprog, layout = prepared.nprog, prepared.layout
    reuse = prepared.reuse_table(cache.line_bytes)
    with pytest.raises(ValueError, match="unknown method 'simulate'"):
        lookup("simulate")
    with pytest.raises(ValueError, match="unknown method 'simulate'"):
        analyze(prepared, cache, method="simulate")
    with pytest.raises(ValueError, match="unknown method 'simulate'"):
        solve_parallel("simulate", nprog, layout, cache, reuse, 2)


def test_rebound_unit_reaches_serial_and_daemon_paths(
    monkeypatch, prepared, cache
):
    """Units are looked up when a solve starts, never cached at import."""
    unit = repro.cme.find.find_ref_misses
    calls = []

    def counted(classifier, nprog, ref):
        calls.append(ref.uid)
        return unit(classifier, nprog, ref)

    monkeypatch.setattr(repro.cme.find, "find_ref_misses", counted)
    refs = len(prepared.nprog.refs)
    analyze(prepared, cache, method="find")
    assert len(calls) == refs
    request = AnalyzeRequest(cache=cache, program=prepared.program, method="find")
    with ThreadPoolExecutor(max_workers=2) as pool:
        AnalysisEngine().run(request, pool=pool)
    assert len(calls) == 2 * refs


@pytest.mark.parametrize("jobs", [1, 2])
def test_every_path_plans_exactly_once(monkeypatch, prepared, cache, jobs):
    plans = []
    plan = MemoSession.plan

    def counted(self, targets):
        plans.append(self.method)
        return plan(self, targets)

    monkeypatch.setattr(MemoSession, "plan", counted)
    for name, method in METHODS.items():
        report = analyze(prepared, cache, method=name, jobs=jobs, memo=Memoizer())
        assert report.method == method.report_name
    assert plans == list(METHODS)


def test_run_reports_its_own_memo_accounting(prepared, cache):
    memo = Memoizer()
    nprog, layout = prepared.nprog, prepared.layout
    first, second, bare = {}, {}, {}
    run("find", nprog, layout, cache, memo=memo, stats=first)
    run("find", nprog, layout, cache, memo=memo, stats=second)
    run("find", nprog, layout, cache, stats=bare)
    refs = len(nprog.refs)
    assert first["misses"] > 0
    assert first["hits"] + first["misses"] == refs
    assert second == {"hits": refs, "misses": 0, "store_hits": 0}
    assert bare == {"hits": 0, "misses": 0, "store_hits": 0}


@pytest.mark.parametrize("sampled", [False, True])
def test_scalar_tally_ref_equals_batch(prepared, cache, sampled):
    pytest.importorskip("numpy")
    nprog, layout = prepared.nprog, prepared.layout
    reuse = prepared.reuse_table(cache.line_bytes)
    scalar = make_classifier("scalar", nprog, layout, cache, reuse)
    batch = make_classifier("numpy", nprog, layout, cache, reuse)
    for ref in nprog.refs:
        ris = nprog.ris(ref.leaf)
        points = list(ris.enumerate_points())[::3] if sampled else None
        got = RefResult(ref.name(), ref.uid, population=ris.count())
        want = RefResult(ref.name(), ref.uid, population=ris.count())
        scalar.tally_ref(ref, got, points)
        batch.tally_ref(ref, want, points)
        assert got == want
        assert got.analysed == (len(points) if sampled else ris.count())
