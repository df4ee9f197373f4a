"""Span bookkeeping, self-time arithmetic and wrapper installation."""

import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import spans as sp
import skinlink as sk
import worker


def _span(i, start, end, parent=None, name="x", thread=0):
    return sp.Span(id=i, name=name, start=start, end=end, parent=parent, thread=thread)


@pytest.mark.parametrize("intervals,lo,hi,expected", [
    ([], 0.0, 10.0, 0.0),
    ([(1.0, 2.0), (4.0, 6.0)], 0.0, 10.0, 3.0),
    ([(1.0, 4.0), (3.0, 6.0)], 0.0, 10.0, 5.0),          # overlap
    ([(1.0, 8.0), (2.0, 3.0)], 0.0, 10.0, 7.0),          # nested
    ([(4.0, 6.0), (1.0, 4.0)], 0.0, 10.0, 5.0),          # touching, unsorted
    ([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0, 2.0),        # clipped to the parent
])
def test_covered_is_union_length(intervals, lo, hi, expected):
    assert sp.covered(intervals, lo, hi) == pytest.approx(expected)


def test_self_time_subtracts_union_of_overlapping_worker_spans():
    spans = [
        _span(1, 0.0, 10.0, name="analysis.sweep"),
        _span(2, 1.0, 5.0, parent=1, thread=1),           # worker 1
        _span(3, 2.0, 7.0, parent=1, thread=2),           # worker 2, overlaps worker 1
        _span(4, 8.0, 9.0, parent=1, thread=1),
        _span(5, 2.0, 4.0, parent=3, thread=2),           # grandchild: not the sweep's
    ]
    own = sp.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 6.0 - 1.0)
    assert own[3] == pytest.approx(5.0 - 2.0)
    assert own[2] == pytest.approx(4.0)
    stats = sp.summarize(spans)
    assert stats["x"].calls == 4
    assert stats["x"].self_s == pytest.approx(4.0 + 3.0 + 1.0 + 2.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0
        self.lock = threading.Lock()

    def __call__(self):
        with self.lock:
            self.now += 1.0
            return self.now


def test_nested_spans_record_parent_and_order():
    tracer = sp.Tracer(clock=FakeClock())
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    assert [s.name for s in tracer.spans] == ["inner", "outer"]
    assert inner.parent == outer.id and outer.parent is None
    assert (outer.start, inner.start, inner.end, outer.end) == (1.0, 2.0, 3.0, 4.0)
    with pytest.raises(RuntimeError):
        a = tracer.open("a")
        tracer.open("b")
        tracer.close(a)


def test_worker_thread_spans_are_adopted_by_the_sweep_span():
    tracer = sp.Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def work(_):
        s = tracer.open("analysis.evaluate_point")
        barrier.wait()                       # both worker spans are open at once
        inner = tracer.open("scenario.incident_fields")
        tracer.close(inner)
        tracer.close(s)
        return threading.get_ident()

    sweep = tracer.open("analysis.sweep")
    with ThreadPoolExecutor(max_workers=2) as pool:
        threads = set(pool.map(work, range(2)))
    tracer.close(sweep)
    orphan = tracer.open("after")            # no sweep open any more
    tracer.close(orphan)

    points = [s for s in tracer.spans if s.name == "analysis.evaluate_point"]
    assert len(threads) == 2 and {s.thread for s in points} == threads
    assert all(s.parent == sweep.id for s in points)
    fields = [s for s in tracer.spans if s.name == "scenario.incident_fields"]
    assert {s.parent for s in fields} == {s.id for s in points}
    assert orphan.parent is None
    own = sp.self_times(tracer.spans)
    union = sp.covered([(s.start, s.end) for s in points], sweep.start, sweep.end)
    assert own[sweep.id] == pytest.approx(sweep.duration - union)
    assert union < sum(s.duration for s in points)   # the workers did overlap


def test_install_wraps_every_binding_and_uninstall_restores():
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def f(x):
        return x + 1

    a.f = f
    b.f = f                                  # as `from .a import f` binds it
    b.g = lambda x: b.f(x) * 2               # caller looks f up in its own module
    sys.modules.update({"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b})
    try:
        tracer = sp.Tracer()
        tracer.install("fakepkg", [("a.f", "fakepkg.a", "f",
                                    lambda args, kw, r: (args[0], r))])
        assert a.f is not f and b.f is a.f
        assert b.g(3) == 8
        (span,) = tracer.spans
        assert (span.name, span.cells, span.points) == ("a.f", 3, 4)
        tracer.uninstall()
        assert a.f is f and b.f is f
        assert b.g(3) == 8 and len(tracer.spans) == 1
    finally:
        for name in ("fakepkg", "fakepkg.a", "fakepkg.b"):
            sys.modules.pop(name)


def test_traced_sweep_on_the_library():
    g = 10.0 ** 1.54
    scn = sk.LinkScenario(f=27e9, p_tx=0.1, g_tx=g, g_rx=g, r_tx=15.0, r_rx=15.0,
                          theta0=0.5)
    table = sk.synthetic_table()
    original = sk.ems.incident_fields
    tracer = sp.Tracer()
    tracer.install("skinlink", worker.trace_targets())
    try:
        rows = sk.analysis.sweep(scn, "side_l", [0.05, 0.06, 0.07, 0.08], table, workers=2)
    finally:
        tracer.uninstall()
    assert sk.ems.incident_fields is original and sk.scenario.incident_fields is original
    assert all(r.error is None for r in rows)
    stats = sp.summarize(tracer.spans)
    (sweep,) = [s for s in tracer.spans if s.name == "analysis.sweep"]
    points = [s for s in tracer.spans if s.name == "analysis.evaluate_point"]
    assert len(points) == 4 and all(s.parent == sweep.id for s in points)
    assert stats["scenario.incident_fields"].calls == 3 * 4
    assert stats["field_engine.scattered_field"].calls == 2 * 4
    assert stats["aperture.discretize"].calls == 2 * 4
    cells = sum(sk.discretize(v, scn.pitch).cell_count for v in (0.05, 0.06, 0.07, 0.08))
    assert stats["field_engine.scattered_field"].cells == 2 * cells
    assert stats["field_engine.scattered_field"].points == 2 * 4
    assert stats["scenario.incident_fields"].cells == 3 * cells
    assert np.isfinite(stats["analysis.sweep"].self_s)


def test_layer_metrics_match_the_declared_per_layer_metrics():
    import json
    from pathlib import Path

    declared = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json")
                          .read_text(encoding="utf-8"))["per_layer"]
    workload = types.SimpleNamespace(failed_rows=0, passes=1, artifact_bytes=10)
    spans = [_span(1, 0.0, 2.0, name="analysis.sweep"),
             _span(2, 0.0, 1.0, parent=1, name="analysis.evaluate_point", thread=1),
             _span(3, 0.5, 1.5, parent=1, name="analysis.evaluate_point", thread=2)]
    metrics = worker.layer_metrics(spans, 1, workload)
    assert metrics["analysis.sweep.workers"] == 2
    assert metrics["analysis.sweep.self_s"] == pytest.approx(0.5)
    assert metrics["analysis.evaluate_point.p50_ms"] == pytest.approx(1000.0)
    assert sorted([*metrics, "bench.trace_overhead_pct"]) == sorted(m["name"] for m in declared)
