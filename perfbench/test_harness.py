"""Tests of the benchmark harness itself.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import pytest

import harness
from harness import Instrumentation, Span, SpanRecorder, Target, installed_wrappers


# --------------------------------------------------------------------------- #
# The percentile rule
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "samples, expected",
    [
        (19, None),     # 9 beyond p50
        (20, 50.0),     # 10 beyond p50
        (199, 90.0),    # 9 beyond p95, 19 beyond p90
        (499, 95.0),    # 9 beyond p98
        (500, 98.0),    # exactly 10 beyond p98
        (600, 98.0),    # 12 beyond p98, 6 beyond p99
        (1000, 99.0),
        (20000, 99.9),
    ],
)
def test_tail_percentile_is_highest_with_ten_samples_beyond(samples, expected):
    assert harness.tail_percentile(samples) == expected


# --------------------------------------------------------------------------- #
# Self-time arithmetic
# --------------------------------------------------------------------------- #
def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.child", 2.0, 3.0, parent=1),
        Span("b", 5.0, 6.0, parent=0),
    ]
    assert harness.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert sum(harness.self_times(spans)) == spans[0].end - spans[0].start


def test_self_time_never_subtracts_overlap_twice():
    spans = [
        Span("root", 0.0, 10.0),
        Span("x", 1.0, 5.0, parent=0),
        Span("y", 3.0, 7.0, parent=0),     # overlaps x on [3, 5]
        Span("z", 9.0, 12.0, parent=0),    # runs past the parent's end
    ]
    assert harness.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_recorder_totals_sum_self_times_to_root_duration():
    recorder = SpanRecorder()
    root = recorder.open("root")
    inner = recorder.open("inner")
    recorder.close("inner", inner)
    recorder.close("root", root)
    totals = recorder.totals()
    assert totals["root"].calls == totals["inner"].calls == 1
    assert sum(t.self_s for t in totals.values()) == pytest.approx(totals["root"].busy_s)


# --------------------------------------------------------------------------- #
# Wrapper lifetime
# --------------------------------------------------------------------------- #
class _Base:
    def work(self, n):
        return n + 1


class _Derived(_Base):
    def work(self, n):
        return super().work(n) * 2


def _targets():
    return harness.subclass_targets(_Base, "work", "test.work")


def test_wrappers_are_removed_after_the_block():
    originals = {cls: cls.__dict__["work"] for cls in (_Base, _Derived)}
    with Instrumentation(_targets()) as recorder:
        assert sorted(installed_wrappers(_targets())) == ["_Base.work", "_Derived.work"]
        assert _Derived().work(1) == 4
    assert installed_wrappers(_targets()) == []
    assert all(cls.__dict__["work"] is fn for cls, fn in originals.items())
    # The re-entrant base call stays inside the outer span.
    assert recorder.totals()["test.work"].calls == 1


def test_wrappers_are_removed_when_the_block_raises():
    with pytest.raises(ValueError):
        with Instrumentation(_targets()):
            raise ValueError("boom")
    assert installed_wrappers(_targets()) == []


def test_counts_taken_at_the_boundary():
    target = Target(_Base, "work", "test.work", count=lambda result: result, count_name="test.sum")
    with Instrumentation([target]) as recorder:
        _Base().work(1)
        _Base().work(2)
    assert recorder.counters == {"test.sum": 5}


# --------------------------------------------------------------------------- #
# The two modes on a small workload
# --------------------------------------------------------------------------- #
@pytest.fixture
def small_workload(monkeypatch, tmp_path):
    import run
    import workloads
    from repro import api

    def scenario(seed):
        return api.Scenario.tiny().with_workload(horizon=200).with_budget(5000.0).with_seed(seed)

    monkeypatch.setitem(workloads.WORKLOADS, "tiny", workloads.Workload("tiny", "test", (scenario,)))
    expected = dict(run.EXPECTED, success_rate={"tiny": {"range": [0.0, 1.0]}})
    monkeypatch.setattr(run, "EXPECTED", expected)
    monkeypatch.setattr(run, "ROOT", tmp_path)
    return run


def test_untraced_run_never_installs_a_wrapper(small_workload, monkeypatch):
    import workloads

    seen = []

    class Watch(workloads.SlotClock):
        def on_slot(self, event):
            seen.extend(installed_wrappers(workloads.layer_targets()))
            super().on_slot(event)

    def refuse(self):
        raise AssertionError("instrumentation entered during an untraced run")

    monkeypatch.setattr(workloads, "SlotClock", Watch)
    monkeypatch.setattr(Instrumentation, "__enter__", refuse)
    _, metrics, failures, _ = small_workload.measure_end_to_end("tiny", 3, 0.0, 0.5)
    assert seen == []
    assert failures == []
    assert all(entry["value"] > 0 for entry in metrics.values())


def test_traced_run_restores_every_wrapper(small_workload):
    import workloads

    _, metrics, failures, _ = small_workload.measure_layers("tiny", 3)
    assert installed_wrappers(workloads.layer_targets()) == []
    assert failures == []
    assert metrics["core.decide.calls"]["value"] == 600
    assert metrics["serving.run.calls"]["value"] == 0
