import types

import pytest

from spans import Span, Tracer, aggregate, self_times


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),  # overlaps a: union of children is [1, 6]
        Span("leaf", 2.0, 3.5, 1),  # grandchild: counts against a only
        Span("late", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1.5, 3, 1.5, 3])


def test_recorded_spans_nest_and_aggregate():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1, count=lambda a, k, r: {"items": r})
    outer = tracer.wrap("outer", lambda x: inner(x) * inner(x))
    with tracer.record():
        assert outer(2) == 9
    # outer [0, 5], inner [1, 2] and [3, 4]
    names = [(s.name, s.start, s.end, s.parent) for s in tracer.spans]
    assert names == [("outer", 0, 5, None), ("inner", 1, 2, 0), ("inner", 3, 4, 0)]
    table = aggregate(tracer.spans)
    assert table["outer"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}
    assert table["inner"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0, "items": 6}
    assert table["outer>inner"] == {"calls": 2}


def test_wrappers_record_nothing_outside_record():
    tracer = Tracer()
    assert tracer.wrap("f", lambda: 1)() == 1
    assert tracer.spans == []


def test_patched_restores_every_original_even_on_error():
    module = types.SimpleNamespace(f=lambda: "f", g=lambda: "g")
    originals = dict(vars(module))
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.patched([(module, "f", "f", None), (module, "g", "g", None)]):
            assert module.f is not originals["f"]
            assert module.f.__wrapped__ is originals["f"]
            raise RuntimeError("boom")
    assert vars(module) == originals


def test_a_span_closes_when_the_call_raises():
    tracer = Tracer()

    def fail():
        raise ValueError("no")

    with tracer.record(), pytest.raises(ValueError):
        tracer.wrap("fail", fail)()
    assert [s.name for s in tracer.spans] == ["fail"]
    assert tracer.spans[0].end is not None
