"""Tracing: span nesting, attributes, ring-buffer bounds."""

import pytest

from repro.obs.trace import NULL_SPAN, Tracer


class TestSpans:
    def test_records_duration_and_name(self):
        tracer = Tracer()
        with tracer.span("work"):
            pass
        (record,) = tracer.records()
        assert record.name == "work"
        assert record.duration >= 0.0
        assert record.depth == 0
        assert record.parent_id is None

    def test_nesting_depth_and_parent_linkage(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
        inner, outer_rec = tracer.records()  # inner completes first
        assert inner.name == "inner"
        assert inner.depth == 1
        assert inner.parent_id == outer_rec.span_id
        assert outer_rec.depth == 0
        # The outer span brackets the inner one on the timeline.
        assert outer_rec.start <= inner.start
        assert (
            outer_rec.start + outer_rec.duration
            >= inner.start + inner.duration
        )

    def test_attributes_at_open_and_via_set(self):
        tracer = Tracer()
        with tracer.span("solve", routes=10) as sp:
            sp.set(iterations=7, outcome="converged")
        (record,) = tracer.records()
        assert record.attrs == {
            "routes": 10, "iterations": 7, "outcome": "converged",
        }

    def test_exception_is_annotated_and_stack_unwinds(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        (record,) = tracer.records()
        assert record.attrs["error"] == "RuntimeError"
        # stack is clean: a following span is a root again
        with tracer.span("after"):
            pass
        assert tracer.records()[-1].depth == 0

    def test_find_by_name(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("a"):
                pass
        with tracer.span("b"):
            pass
        assert len([r for r in tracer.records() if r.name == "a"]) == 3
        assert len([r for r in tracer.records() if r.name == "b"]) == 1


class TestRingBuffer:
    def test_capacity_bounds_memory_and_counts_drops(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer) == 4
        assert tracer.dropped == 6
        assert [r.name for r in tracer.records()] == [
            "s6", "s7", "s8", "s9",
        ]

    def test_reset_clears_buffer_and_drop_count(self):
        tracer = Tracer(capacity=2)
        for i in range(5):
            with tracer.span("s"):
                pass
        tracer.reset()
        assert len(tracer) == 0
        assert tracer.dropped == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestNullSpan:
    def test_noop_context_manager(self):
        with NULL_SPAN as sp:
            sp.set(anything="goes")
        assert sp is NULL_SPAN
