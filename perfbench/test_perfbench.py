"""Tests of the benchmark's tracer and of the counts it reports.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, _Span, counts_of  # noqa: E402

from betaquad import catalog, quad, verify  # noqa: E402


def test_self_time_subtracts_union_of_overlapping_children():
    tracer = Tracer()
    tracer.spans = [
        _Span("verify.verify_all", None, 0.0),
        _Span("quad.finite", 0, 1.0),  # pool thread 1
        _Span("quad.finite", 0, 2.0),  # pool thread 2, overlapping
        _Span("specfun.beta", 1, 1.5),
    ]
    for span, end in zip(tracer.spans, (10.0, 4.0, 5.0, 2.0)):
        span.end = end
    assert tracer.self_times() == [6.0, 2.5, 3.0, 0.5]


def test_pv_pieces_count_as_pv_only():
    rec = next(r for r in catalog.all_entries() if r.make_folds is not None)
    params = catalog.sample_params(rec, 7, 0)
    original = quad.integrate_pv
    tracer = Tracer().install()
    try:
        result = quad.integrate(
            rec.make_integrand(params), rec.make_spec(params), 1e-10,
            folds=rec.make_folds(params),
        )
    finally:
        tracer.uninstall()
    layers = tracer.summary()["layers"]
    assert layers["quad.pv.integrals"] == 1
    assert layers["quad.pv.evals"] == result.evaluations
    assert layers["quad.pv.fcalls"] > 0
    assert layers["quad.finite.integrals"] == layers["quad.half_line.integrals"] == 0
    assert quad.integrate_pv is original


def test_pool_threads_parent_to_verify_all():
    cfg = verify.RunConfig(seed=3, samples_per_entry=4, parallelism=2,
                           entry_filter=("3.241.4", "eq-4.11"))
    tracer = Tracer().install()
    try:
        report = verify.verify_all(cfg)
    finally:
        tracer.uninstall()
    root = next(i for i, s in enumerate(tracer.spans) if s.name == "verify.verify_all")
    top = [s for s in tracer.spans if s.name in ("catalog.sample_params", "quad.finite",
                                                 "quad.real_line", "quad.half_line")]
    assert top and all(s.parent == root for s in top)
    layers = tracer.summary()["layers"]
    assert layers["catalog.sample_params.calls"] == len(report.outcomes) == 8
    assert 0.0 < layers["verify.concurrency"] <= cfg.parallelism + 0.05


def test_cli_counts_repeat_exactly():
    state = {"attempted": 0, "failed": 0, "passed": 0, "shas": set(), "errors": []}
    with tempfile.TemporaryDirectory() as tmp:
        summaries, _ = run.cli_traced(run.WORKLOADS["verify-default"], 11, tmp, state)
    assert not state["errors"] and len(state["shas"]) == 1
    counts = [counts_of(s["layers"]) for s in summaries]
    assert len(counts) == run.TRACED_RUNS and counts[0] == counts[1]
    assert counts[0]["catalog.sample_params.calls"] >= 1600


def test_edge_counts_and_nonpass_repeat_exactly():
    class Args:
        seed = 7
        seconds = 0.0
        traced = 2

    result = worker.run_edge(Args)
    first, second = (counts_of(t["layers"]) for t in result["traces"])
    assert first == second
    assert len(set(result["digests"])) == 1
    seed7 = [r for r in result["nonpass"] if r["seed"] == 7]
    assert len(seed7) == 11  # 6 fail + 5 quad_nonconverged at margin 0.01
    assert all(r["engine_status"] is not None for r in seed7)


def test_failing_cli_pass_ends_the_run_incorrect(monkeypatch):
    # argparse rejects the flag, so every CLI pass exits 2; the run must end
    # long before its 60 s and report the pass as failed.
    monkeypatch.setattr(run, "cli_argv", lambda spec, seed, report: ["verify", "--no-such-flag"])
    start = time.perf_counter()
    res = run.run_workload("verify-default", 1, 60.0, 0)
    assert time.perf_counter() - start < 30.0
    assert not res["correct"] and res["errors"]
    assert res["failed"] == res["attempted"] == run.ENTRIES * 20
