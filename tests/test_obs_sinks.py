"""Streaming span sink: JSON-lines persistence beyond the ring buffer."""

import json

import pytest

from obs_readers import read_span_lines
from repro.obs import sinks
from repro.obs.sinks import SPAN_SCHEMA, JsonLinesSpanSink
from repro.obs.trace import Tracer


class TestJsonLinesSpanSink:
    def test_header_written_on_open_even_for_empty_run(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        with JsonLinesSpanSink(path):
            pass
        header, spans = read_span_lines(path)
        assert header == {"schema": SPAN_SCHEMA}
        assert spans == []

    def test_streams_spans_as_they_complete(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        tracer = Tracer()
        sink = JsonLinesSpanSink(path).attach(tracer)
        with tracer.span("outer", phase="search"):
            with tracer.span("inner"):
                pass
        sink.close()
        _header, spans = read_span_lines(path)
        # Sinks see spans in completion order: inner closes first.
        assert [s["name"] for s in spans] == ["inner", "outer"]
        assert sink.written == 2
        outer = spans[1]
        assert outer["attrs"]["phase"] == "search"
        assert spans[0]["parent_id"] == outer["span_id"]
        assert spans[0]["depth"] == 1

    def test_record_span_carries_wire_ids(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        tracer = Tracer()
        sink = JsonLinesSpanSink(path).attach(tracer)
        tracer.record_span(
            "service.request",
            start=0.0,
            duration=0.01,
            parent_id="aabbccddeeff0011",
            trace_id="0" * 31 + "1",
            span_hex="1122334455667788",
        )
        sink.close()
        _header, (span,) = read_span_lines(path)
        assert span["parent_id"] == "aabbccddeeff0011"
        assert span["attrs"]["span_hex"] == "1122334455667788"

    def test_non_primitive_attrs_stringified(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        tracer = Tracer()
        sink = JsonLinesSpanSink(path).attach(tracer)
        tracer.record_span(
            "s", start=0.0, duration=0.0, pair=("a", "b")
        )
        sink.close()
        _header, (span,) = read_span_lines(path)
        assert span["attrs"]["pair"] == "('a', 'b')"

    def test_flush_every_batches_writes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sinks, "FLUSH_EVERY", 8)
        path = str(tmp_path / "spans.jsonl")
        tracer = Tracer()
        sink = JsonLinesSpanSink(path).attach(tracer)
        for _ in range(7):
            with tracer.span("s"):
                pass
        # Buffered: a concurrent reader may not see all 7 yet.  The
        # 8th span forces a flush.
        with tracer.span("s"):
            pass
        _header, spans = read_span_lines(path)
        assert len(spans) == 8
        sink.close()

    def test_close_detaches_and_later_spans_are_dropped(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        tracer = Tracer()
        sink = JsonLinesSpanSink(path).attach(tracer)
        with tracer.span("kept"):
            pass
        sink.close()
        with tracer.span("after-close"):
            pass
        _header, spans = read_span_lines(path)
        assert [s["name"] for s in spans] == ["kept"]
        # Calling the closed sink directly is a no-op, not an error.
        sink(tracer.records()[-1])
        assert sink.written == 1

    def test_append_does_not_duplicate_header(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        tracer = Tracer()
        for _ in range(2):
            sink = JsonLinesSpanSink(path).attach(tracer)
            with tracer.span("s"):
                pass
            sink.close()
        with open(path, encoding="utf-8") as fh:
            headers = [
                line for line in fh if '"schema"' in line
            ]
        assert len(headers) == 1
        _header, spans = read_span_lines(path)
        assert len(spans) == 2

class TestReadSpanLines:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_span_lines(str(path))

    def test_foreign_header_rejected(self, tmp_path):
        path = tmp_path / "foreign.jsonl"
        path.write_text(
            json.dumps({"schema": "other/v1"}) + "\n"
        )
        with pytest.raises(ValueError, match="header"):
            read_span_lines(str(path))

    def test_headerless_json_lines_rejected(self, tmp_path):
        path = tmp_path / "bare.jsonl"
        path.write_text('{"name": "s"}\n')
        with pytest.raises(ValueError, match="header"):
            read_span_lines(str(path))
