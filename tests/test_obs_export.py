"""Exporter round-trips: Prometheus text, JSON lines, Chrome trace."""

import json
import math

import pytest

from repro.obs.export import (
    parse_prometheus_text,
    to_chrome_trace,
    to_json_lines,
    to_prometheus_text,
)
from repro.obs import process
from repro.obs.metrics import MetricsRegistry
from repro.obs.process import (
    process_memory_bytes,
    process_memory_mb,
    process_start_time,
    process_text,
    startup_seconds,
)
from repro.obs.trace import Tracer


def _populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("repro_decisions_total", controller="UBAC",
                result="admitted").inc(5)
    reg.counter("repro_decisions_total", controller="UBAC",
                result="rejected").inc(2)
    reg.gauge("repro_established_flows", controller="UBAC").set(3)
    h = reg.histogram("repro_decision_seconds", buckets=(0.001, 0.01, 0.1))
    for v in (0.0005, 0.002, 0.5):
        h.observe(v)
    return reg


class TestPrometheusText:
    def test_round_trip_values(self):
        text = to_prometheus_text(_populated_registry())
        samples = parse_prometheus_text(text)
        assert samples[
            ("repro_decisions_total",
             (("controller", "UBAC"), ("result", "admitted")))
        ] == 5
        assert samples[
            ("repro_decisions_total",
             (("controller", "UBAC"), ("result", "rejected")))
        ] == 2
        assert samples[
            ("repro_established_flows", (("controller", "UBAC"),))
        ] == 3

    def test_histogram_expansion_is_cumulative(self):
        text = to_prometheus_text(_populated_registry())
        samples = parse_prometheus_text(text)
        assert samples[("repro_decision_seconds_bucket",
                        (("le", "0.001"),))] == 1
        assert samples[("repro_decision_seconds_bucket",
                        (("le", "0.01"),))] == 2
        assert samples[("repro_decision_seconds_bucket",
                        (("le", "0.1"),))] == 2
        assert samples[("repro_decision_seconds_bucket",
                        (("le", "+Inf"),))] == 3
        assert samples[("repro_decision_seconds_count", ())] == 3
        assert samples[("repro_decision_seconds_sum", ())] == (
            0.0005 + 0.002 + 0.5
        )

    def test_type_headers_present_once_per_family(self):
        text = to_prometheus_text(_populated_registry())
        assert text.count("# TYPE repro_decisions_total counter") == 1
        assert text.count("# TYPE repro_established_flows gauge") == 1
        assert text.count("# TYPE repro_decision_seconds histogram") == 1

    def test_empty_registry_renders_empty(self):
        assert to_prometheus_text(MetricsRegistry()) == ""

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c_total", reason='say "no"\nplease').inc()
        text = to_prometheus_text(reg)
        assert r"say \"no\"\nplease" in text


class TestJsonLines:
    def test_one_valid_json_object_per_series(self):
        text = to_json_lines(_populated_registry())
        records = [json.loads(line) for line in text.splitlines()]
        assert len(records) == 4
        kinds = {r["kind"] for r in records}
        assert kinds == {"counter", "gauge", "histogram"}
        hist = next(r for r in records if r["kind"] == "histogram")
        assert hist["counts"] == [1, 1, 0]
        assert hist["overflow"] == 1
        assert hist["count"] == 3


class TestChromeTrace:
    def test_loads_as_json_with_nested_spans(self):
        tracer = Tracer()
        with tracer.span("outer", phase="search"):
            with tracer.span("inner"):
                pass
        payload = json.loads(json.dumps(to_chrome_trace(tracer)))
        events = payload["traceEvents"]
        assert len(events) == 2
        by_name = {e["name"]: e for e in events}
        outer, inner = by_name["outer"], by_name["inner"]
        assert outer["ph"] == inner["ph"] == "X"
        assert inner["args"]["depth"] == 1
        assert inner["args"]["parent_id"] == outer["id"]
        assert outer["args"]["phase"] == "search"
        # inner nests inside outer on the microsecond timeline
        assert outer["ts"] <= inner["ts"]
        assert outer["ts"] + outer["dur"] >= inner["ts"] + inner["dur"]

    def test_non_primitive_attrs_stringified(self):
        tracer = Tracer()
        with tracer.span("s", pair=("a", "b")):
            pass
        payload = to_chrome_trace(tracer)
        assert payload["traceEvents"][0]["args"]["pair"] == "('a', 'b')"

    def test_drop_count_reported(self):
        tracer = Tracer(capacity=1)
        for _ in range(3):
            with tracer.span("s"):
                pass
        payload = to_chrome_trace(tracer)
        assert payload["otherData"]["dropped_spans"] == 2


class TestPrometheusRoundTripProperty:
    """Property: parse(render(registry)) reproduces every series —
    whatever the label values, including the characters the exposition
    format must escape (backslash, double quote, newline)."""

    from hypothesis import given
    from hypothesis import strategies as st

    label_keys = st.sampled_from(
        ["op", "reason", "controller", "route"]
    )
    # Values stress the escaper: benign characters mixed with the
    # three the exposition format must escape (backslash, double
    # quote, newline) and the structural ones (braces, =, comma).
    label_values = st.text(
        alphabet='abc{}=," \\\n',
        min_size=0,
        max_size=12,
    )
    labels = st.dictionaries(label_keys, label_values, max_size=3)

    @given(
        counters=st.lists(
            st.tuples(labels, st.integers(0, 1_000_000)), max_size=4
        ),
        gauges=st.lists(
            st.tuples(
                labels,
                st.floats(
                    allow_nan=False,
                    allow_infinity=False,
                    width=32,
                ),
            ),
            max_size=4,
        ),
        hist_values=st.lists(
            st.floats(0.0, 10.0, allow_nan=False), max_size=8
        ),
    )
    def test_labeled_series_round_trip(
        self, counters, gauges, hist_values
    ):
        reg = MetricsRegistry()
        for labels, value in counters:
            reg.counter("rt_counter_total", **labels).inc(value)
        for labels, value in gauges:
            reg.gauge("rt_gauge", **labels).set(value)
        h = reg.histogram("rt_seconds", buckets=(0.5, 2.0))
        for v in hist_values:
            h.observe(v)

        samples = parse_prometheus_text(to_prometheus_text(reg))

        for labels, _value in counters:
            key = ("rt_counter_total", tuple(sorted(labels.items())))
            assert samples[key] == reg.counter(
                "rt_counter_total", **labels
            ).value
        for labels, _value in gauges:
            key = ("rt_gauge", tuple(sorted(labels.items())))
            assert samples[key] == pytest.approx(
                reg.gauge("rt_gauge", **labels).value
            )
        if hist_values:
            assert samples[("rt_seconds_count", ())] == len(hist_values)
            assert samples[("rt_seconds_sum", ())] == pytest.approx(
                sum(hist_values)
            )
            assert samples[
                ("rt_seconds_bucket", (("le", "+Inf"),))
            ] == len(hist_values)

    @given(value=label_values)
    def test_single_label_value_survives_escaping(self, value):
        reg = MetricsRegistry()
        reg.counter("esc_total", reason=value).inc(3)
        samples = parse_prometheus_text(to_prometheus_text(reg))
        assert samples[("esc_total", (("reason", value),))] == 3


class TestParser:
    def test_inf_and_nan(self):
        samples = parse_prometheus_text("a +Inf\nb NaN\nc -Inf\n")
        assert samples[("a", ())] == math.inf
        assert samples[("c", ())] == -math.inf
        assert math.isnan(samples[("b", ())])

    def test_rejects_garbage(self):
        import pytest

        with pytest.raises(ValueError):
            parse_prometheus_text("!!! not a sample")


class TestProcessMemory:
    def test_resident_never_exceeds_peak(self):
        rss, peak = process_memory_bytes()
        assert 1 << 20 < rss <= peak
        rss_mb, peak_mb = process_memory_mb()
        assert rss_mb == pytest.approx(rss / 2 ** 20, abs=8.0)
        assert peak_mb >= rss_mb

    def test_falls_back_to_getrusage_without_procfs(self, monkeypatch):
        def no_procfs(path, *args, **kwargs):
            raise FileNotFoundError(path)

        # A module-level ``open`` shadows the builtin for that module only.
        monkeypatch.setattr(process, "open", no_procfs, raising=False)
        rss, peak = process_memory_bytes()
        monkeypatch.undo()
        assert rss == peak
        # Same quantity as VmHWM, from another kernel interface.
        assert peak == pytest.approx(process_memory_bytes()[1], rel=0.05)

    def test_exposition_text_parses(self):
        samples = parse_prometheus_text(process_text())
        assert set(samples) == {
            ("process_resident_memory_bytes", ()),
            ("process_peak_resident_memory_bytes", ()),
            ("process_start_time_seconds", ()),
        }
        assert samples[("process_start_time_seconds", ())] == pytest.approx(
            process_start_time(), abs=0.01
        )


class TestProcessStartTime:
    def test_start_precedes_now_and_does_not_move(self):
        import time

        started = process_start_time()
        # pytest has been up for a while, and not since before the epoch.
        assert 0.05 < time.time() - started < 86400.0
        assert process_start_time() == started

    def test_falls_back_to_import_time_without_procfs(self, monkeypatch):
        def no_procfs(path, *args, **kwargs):
            raise FileNotFoundError(path)

        monkeypatch.setattr(process, "open", no_procfs, raising=False)
        assert process_start_time.__wrapped__() == process._IMPORTED_AT

    def test_startup_seconds_is_listening_minus_start(self):
        started = process_start_time()
        assert startup_seconds(started + 0.4321) == pytest.approx(0.432)
        assert startup_seconds(started - 5.0) == 0.0
