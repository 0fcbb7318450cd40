import sys
import types

import pytest

from dqbench.layers import layer_metrics
from dqbench.tracing import Span, Tracer, covered, descendants_of, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_children_not_grandchildren():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("root"):
        clock.now = 1.0
        with tracer.span("a"):
            clock.now = 2.0
            with tracer.span("a.inner"):
                clock.now = 2.5
            clock.now = 4.0
        with tracer.span("b"):
            clock.now = 5.0
        clock.now = 10.0
    own = self_times(tracer.spans)
    root, a, inner, b = tracer.spans
    assert [s.parent for s in tracer.spans] == [None, root.id, a.id, root.id]
    assert own[root.id] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own[a.id] == pytest.approx(3.0 - 0.5)
    assert own[inner.id] == pytest.approx(0.5)
    assert own[b.id] == pytest.approx(1.0)
    # durations of the direct children plus self time add up to the parent
    assert own[root.id] + a.duration + b.duration == pytest.approx(root.duration)


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered([(1, 3), (2, 4)], 0, 10) == 3
    assert covered([(-1, 2), (8, 12)], 0, 10) == 4
    assert covered([(1, 5), (2, 3)], 0, 10) == 4
    assert covered([], 0, 10) == 0


def test_self_time_with_overlapping_children_counts_union_once():
    spans = [
        Span(0, "p", 0.0, 10.0, None),
        Span(1, "c1", 1.0, 4.0, 0),
        Span(2, "c2", 3.0, 6.0, 0),
    ]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_descendants_follow_the_parent_chain():
    spans = [
        Span(0, "r", 0, 9, None),
        Span(1, "x", 1, 5, 0),
        Span(2, "y", 2, 3, 1),
        Span(3, "other", 10, 11, None),
    ]
    assert [s.id for s in descendants_of(spans, [spans[1]])] == [2]
    assert [s.id for s in descendants_of(spans, [spans[0]])] == [1, 2]


def test_sites_are_wrapped_while_installed_then_restored(monkeypatch):
    module = types.ModuleType("fake_layer")

    def work(x):
        return x + 1

    module.work = work
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    tracer = Tracer()
    tracer.site("fake_layer:work", "fake.work", lambda a, k, r: {"result": r})
    tracer.site("fake_layer:gone", "fake.gone")
    with tracer.installed():
        assert module.work(1) == 2
    assert module.work is work
    assert module.work(5) == 6  # untraced call leaves no span
    assert [(s.name, s.counts) for s in tracer.spans] == [("fake.work", {"result": 2})]
    assert tracer.missing == ["fake_layer:gone"]


def test_operation_split_by_layer_adds_up_to_the_traced_operation():
    spans = [
        Span(0, "bench.op", 0.0, 10.0, None),
        Span(1, "cli.main", 1.0, 9.0, 0),
        Span(2, "frames.make_tight_frame", 2.0, 4.0, 1),
        Span(3, "wavio.load_wav", 5.0, 6.0, 1, {"bytes": 100}),
        Span(4, "bench.op", 20.0, 24.0, None),
        Span(5, "frames.make_tight_frame", 21.0, 23.0, 4),
        Span(6, "bench.setup", 30.0, 40.0, None),
    ]
    values, details = layer_metrics(spans)
    split = details["op_split_ms"]
    assert split == pytest.approx({"frames": 2000.0, "bench": 2000.0, "cli": 2500.0, "wavio": 500.0})
    assert sum(split.values()) == pytest.approx(details["op_traced_ms"]) == pytest.approx(7000.0)
    assert values["wavio.bytes"] == 100
