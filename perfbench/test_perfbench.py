"""Tests for the benchmark's own statistics and tracing.

    python3 -m pytest perfbench
"""

import types

import pytest

from hostclock import REFERENCE_SECONDS, HostClock, kernel_seconds
from stats import MIN_BEYOND, P95_SAMPLES, Outcomes, beyond_count, percentile, tail_percentile
from tracer import Span, Tracer, self_times, totals_within, wrapper_seconds


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 95) == 95
    assert percentile(values, 100) == 100
    assert percentile([7.0], 95) == 7.0
    assert percentile([3, 1, 2], 50) == 2


def test_p95_needs_ten_samples_beyond_it():
    assert beyond_count(P95_SAMPLES, 95.0) == MIN_BEYOND
    assert beyond_count(P95_SAMPLES - 1, 95.0) < MIN_BEYOND
    values = [float(v) for v in range(200)]
    assert tail_percentile(values, 95.0) == 189.0
    assert sum(v > 189.0 for v in values) == 10
    with pytest.raises(ValueError):
        tail_percentile(values[:199], 95.0)
    # p50 of 20 samples has 10 beyond it; of 19 only 9.
    assert tail_percentile(list(range(20)), 50.0) == 9
    with pytest.raises(ValueError):
        tail_percentile(list(range(19)), 50.0)


def test_failed_over_attempted():
    out = Outcomes()
    assert out.failure_ratio == 0.0
    out.ok(7)
    assert out.check(True, "fine")
    assert not out.check(False, "broken")
    out.fail("also broken")
    assert (out.attempted, out.failed) == (10, 2)
    assert out.failure_ratio == pytest.approx(0.2)
    assert out.messages == ["broken", "also broken"]

    other = Outcomes()
    other.ok(5)
    other.fail("elsewhere")
    out.merge(other)
    assert (out.attempted, out.failed) == (16, 3)
    assert out.failure_ratio == pytest.approx(3 / 16)
    assert out.messages[-1] == "elsewhere"


def _span(name, start, end, parent, tag=""):
    return Span(name, start, end, parent, "w", tag)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("a", 0.0, 10.0, -1),
        _span("b", 1.0, 4.0, 0),
        _span("c", 5.0, 9.0, 0),
        _span("d", 6.0, 8.0, 2),
        _span("e", 11.0, 12.0, -1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 2.0, 1.0])
    assert sum(self_times(spans)) == pytest.approx(11.0)


def test_totals_within_sums_outermost_inner_spans_per_outer_span():
    spans = [
        _span("step", 0.0, 10.0, -1, "v1"),
        _span("fwd", 1.0, 3.0, 0, "v1"),
        _span("fwd", 1.5, 2.5, 1, "v1"),  # nested in fwd: not counted twice
        _span("mid", 4.0, 9.0, 0, "v1"),
        _span("fwd", 5.0, 6.0, 3, "v1"),
        _span("step", 20.0, 30.0, -1, "v2"),
        _span("fwd", 21.0, 25.0, 5, "v2"),
        _span("fwd", 40.0, 41.0, -1, "v2"),  # outside any step
    ]
    assert totals_within(spans, "step", "fwd") == pytest.approx([3.0, 4.0])
    assert totals_within(spans, "step", "fwd", "v2") == pytest.approx([4.0])
    assert totals_within(spans, "none", "fwd") == []


def test_tracer_records_nesting_and_restores_targets():
    class Model:
        def inner(self, x):
            return [x]

        def outer(self, x):
            return self.inner(x) + self.inner(x + 1)

        @classmethod
        def make(cls):
            return cls()

    module = types.SimpleNamespace(helper=lambda x: {"x": x})
    originals = (Model.__dict__["inner"], Model.__dict__["make"], module.helper)
    tracer = Tracer("w")
    tracer.install([
        (Model, "inner", "m.inner", lambda self, x: x),
        (Model, "outer", "m.outer"),
        (Model, "make", "m.make"),
        (module, "helper", "m.helper"),
    ])
    tracer.tag = "t"
    model = Model.make()
    result = model.outer(1)
    payload = module.helper(5)
    tracer.remove()

    assert result == [1, 2] and payload == {"x": 5}
    assert isinstance(model, Model)
    assert [(s.name, s.parent, s.count, s.tag) for s in tracer.spans] == [
        ("m.make", -1, None, "t"),
        ("m.outer", -1, None, "t"),
        ("m.inner", 1, 1, "t"),
        ("m.inner", 1, 2, "t"),
        ("m.helper", -1, None, "t"),
    ]
    assert all(s.end >= s.start for s in tracer.spans)
    assert (Model.__dict__["inner"], Model.__dict__["make"], module.helper) == originals
    count = len(tracer.spans)
    Model().outer(3)
    assert len(tracer.spans) == count


def test_tracer_closes_span_when_call_raises():
    def boom():
        raise RuntimeError("x")

    module = types.SimpleNamespace(boom=boom)
    tracer = Tracer("w")
    tracer.install([(module, "boom", "m.boom")])
    with pytest.raises(RuntimeError):
        module.boom()
    tracer.remove()
    (span,) = tracer.spans
    assert span.end >= span.start > 0.0
    assert module.boom is boom


def test_wrapper_cost_is_small():
    cost = wrapper_seconds(calls=200, rounds=3)
    assert 0.0 <= cost < 1e-3


def test_exact_values_must_match_the_committed_ones():
    from run import compare_exact

    want = {"training.final_loss.v": 9.780710028405203, "index.posting_count": 159833}
    out = Outcomes()
    compare_exact(out, dict(want), want, "expected.json")
    assert (out.attempted, out.failed) == (2, 0)

    changed = {"training.final_loss.v": 9.780710028405204, "index.posting_count": 159833}
    compare_exact(out, changed, want, "expected.json")
    assert (out.attempted, out.failed) == (4, 1)
    assert out.messages[-1].startswith("training.final_loss.v = 9.780710028405204")

    compare_exact(out, {"index.posting_count": 159833}, want, "expected.json")
    assert (out.attempted, out.failed) == (6, 2)


def test_host_clock_scales_by_the_kernel_times_around_an_item():
    clock = HostClock(warmup=0)
    clock.stamps = [0.0, 1.0, 2.0, 3.0, 4.0, 10.0, 10.1, 10.2, 10.3, 10.4]
    clock.kernel_seconds = [REFERENCE_SECONDS] * 5 + [2 * REFERENCE_SECONDS] * 5
    # Five kernel times lie within the window: the host ran at half speed.
    assert clock.reference_seconds(10.15, 10.25) == pytest.approx(0.05)
    # One lies within it: the five nearest decide.
    assert clock.reference_seconds(1.9, 2.1) == pytest.approx(0.2)
    assert clock.local_kernel_seconds(4.0, 4.0) == pytest.approx(REFERENCE_SECONDS)
    assert clock.local_kernel_seconds(9.0, 9.0) == pytest.approx(2 * REFERENCE_SECONDS)


def test_host_clock_calibrates_on_creation():
    clock = HostClock()
    assert len(clock.kernel_seconds) == len(clock.stamps) == 5
    assert clock.stamps == sorted(clock.stamps)
    assert all(0.0 < s < 0.1 for s in clock.kernel_seconds)
    assert kernel_seconds() > 0.0
