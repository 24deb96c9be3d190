"""End-to-end service telemetry: wire-propagated tracing, the audit
log feed, the HTTP scrape endpoint, and SLO surfacing.

All in-process: service and client share one event loop *and one
global tracer*, so a single `records()` sweep sees both halves of every
cross-process-shaped span chain.  HTTP scrapes use a raw asyncio
connection — a blocking urllib call inside the loop would deadlock
against the in-process endpoint.
"""

import asyncio
import json

import pytest

from repro import obs
from repro.obs import OBS
from repro.obs.export import parse_prometheus_text
from repro.obs.process import process_start_time
from repro.service import (
    AdmissionService,
    AsyncServiceClient,
    ServiceConfig,
    iter_audit,
    verify_audit,
)
from repro.obs.slo import SLOConfig
from tests.test_service_server import (
    flow_obj,
    make_controller,
    start_service,
)


async def http_get(port, path):
    """Raw HTTP/1.1 GET against the in-process telemetry endpoint."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode()
    )
    await writer.drain()
    raw = await asyncio.wait_for(reader.read(), 10)
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, body.decode()


def spans_by_name(name):
    return [r for r in OBS.tracer.records() if r.name == name]


class TestTraceProparation:
    def test_span_chain_links_client_server_and_batch(self, tmp_path):
        obs.enable(fresh=True)

        async def scenario():
            service, sock = await start_service(tmp_path)
            async with await AsyncServiceClient.connect_unix(
                sock
            ) as client:
                for i in range(4):
                    resp = await client.request(
                        "admit", flow=flow_obj(i)
                    )
                    assert resp["admitted"] is True
            await service.drain()

        asyncio.run(scenario())
        client_spans = spans_by_name("client.request")
        server_spans = spans_by_name("service.request")
        batch_spans = spans_by_name("service.batch")
        assert len(client_spans) == 4
        assert len(server_spans) == 4
        assert batch_spans
        client_ids = {s.attrs["span_hex"] for s in client_spans}
        batch_ids = {s.attrs["span_hex"] for s in batch_spans}
        linked_requests = set()
        for span in batch_spans:
            linked_requests.update(
                span.attrs["request_spans"].split(",")
            )
        for span in server_spans:
            # Wire link: the server span's parent is the client span.
            assert span.parent_id in client_ids
            assert span.attrs["trace_id"]
            # Kernel link: the batch span lists this request's own id.
            assert span.attrs["batch_span"] in batch_ids
            assert span.attrs["span_hex"] in linked_requests
            # Per-stage timings decompose the total.
            for stage in (
                "parse_seconds",
                "queue_seconds",
                "execute_seconds",
                "write_seconds",
            ):
                assert span.attrs[stage] >= 0.0
            assert span.attrs["ok"] is True

    @pytest.mark.parametrize("frame", ["batch", "bulk"])
    def test_frame_span_carries_subop_count_and_stages(
        self, tmp_path, frame
    ):
        """A v1 ``batch`` and a v2 ``B`` frame ride the same carrier,
        so both request spans report the frame's size, its queue and
        execute stages, and the batch span that decided it."""
        obs.enable(fresh=True)

        async def scenario():
            service, sock = await start_service(tmp_path)
            async with await AsyncServiceClient.connect_unix(
                sock, protocol="v2" if frame == "bulk" else "v1"
            ) as client:
                if frame == "bulk":
                    results = await client.bulk(
                        [
                            [0, "f0", "voice", "r0", "r3", None],
                            [0, "f1", "voice", "r0", "r3", None],
                            [1, "f0"],
                            [7],  # malformed: keeps its slot
                        ]
                    )
                else:
                    results = await client.batch(
                        [
                            {"op": "admit", "flow": flow_obj(0)},
                            {"op": "admit", "flow": flow_obj(1)},
                            {"op": "release", "flow_id": "f0"},
                            {"op": "nope"},
                        ]
                    )
            await service.drain()
            return results

        results = asyncio.run(scenario())
        assert [r["ok"] for r in results] == [True, True, True, False]
        (span,) = [
            s
            for s in spans_by_name("service.request")
            if s.attrs["op"] == frame
        ]
        assert span.attrs["n_subops"] == 4
        assert span.attrs["ok"] is True
        assert span.attrs["queue_seconds"] >= 0.0
        assert span.attrs["execute_seconds"] >= 0.0
        batch_ids = {
            s.attrs["span_hex"] for s in spans_by_name("service.batch")
        }
        assert span.attrs["batch_span"] in batch_ids
        (batch,) = spans_by_name("service.batch")
        # The malformed sub-op never reached the coalescer.
        assert batch.attrs["ops"] == 3

    def test_malformed_trace_is_served_without_a_parent(self, tmp_path):
        obs.enable(fresh=True)

        async def scenario():
            service, sock = await start_service(tmp_path)
            async with await AsyncServiceClient.connect_unix(
                sock, propagate_trace=False
            ) as client:
                resp = await client.request(
                    "admit",
                    flow=flow_obj(1),
                    trace={"trace_id": "zz", "parent_id": 7},
                )
                assert resp["admitted"] is True
            await service.drain()

        asyncio.run(scenario())
        (span,) = spans_by_name("service.request")
        assert span.parent_id is None
        assert "trace_id" not in span.attrs

    def test_client_does_not_send_trace_when_disabled(self, tmp_path):
        obs.enable(fresh=True)

        async def scenario():
            service, sock = await start_service(tmp_path)
            async with await AsyncServiceClient.connect_unix(
                sock, propagate_trace=False
            ) as client:
                await client.request("admit", flow=flow_obj(1))
            await service.drain()

        asyncio.run(scenario())
        (span,) = spans_by_name("service.request")
        assert span.parent_id is None

    def test_request_histogram_counts_match_requests_served(
        self, tmp_path
    ):
        obs.enable(fresh=True)

        async def scenario():
            service, sock = await start_service(tmp_path)
            async with await AsyncServiceClient.connect_unix(
                sock
            ) as client:
                for i in range(5):
                    await client.request("admit", flow=flow_obj(i))
                stats = await client.stats()
            await service.drain()
            return stats

        stats = asyncio.run(scenario())
        text = obs.prometheus_text()
        samples = parse_prometheus_text(text)
        counted = sum(
            v
            for (name, labels), v in samples.items()
            if name == "repro_service_request_seconds_count"
        )
        # _finish_telemetry runs before the response hits the client,
        # so the stats reply (the last request) is already counted.
        assert counted == stats["requests"] == 6


class TestAuditFeed:
    def test_every_decision_lands_in_the_audit_log(self, tmp_path):
        audit_path = str(tmp_path / "audit.jsonl")
        snap_path = str(tmp_path / "snap.json")

        async def scenario():
            service, sock = await start_service(
                tmp_path,
                audit_path=audit_path,
                audit_fsync_every=1,
                snapshot_path=snap_path,
            )
            async with await AsyncServiceClient.connect_unix(
                sock
            ) as client:
                for i in range(6):
                    await client.request("admit", flow=flow_obj(i))
                await client.release("f0")
                await client.snapshot()
            await service.drain()

        asyncio.run(scenario())
        records = list(iter_audit(audit_path))
        kinds = [r["kind"] for r in records]
        assert kinds.count("restore") == 1  # fresh-boot marker
        assert kinds.count("admit") == 6
        assert kinds.count("release") == 1
        # Explicit snapshot op + final drain snapshot both marked.
        assert kinds.count("snapshot") == 2
        report = verify_audit(records, snapshot=snap_path)
        assert report["ok"], report["problems"]

    def test_restart_continues_the_sequence_verifiably(self, tmp_path):
        audit_path = str(tmp_path / "audit.jsonl")
        snap_path = str(tmp_path / "snap.json")

        async def boot(n0, n1):
            service, sock = await start_service(
                tmp_path,
                audit_path=audit_path,
                audit_fsync_every=1,
                snapshot_path=snap_path,
            )
            async with await AsyncServiceClient.connect_unix(
                sock
            ) as client:
                for i in range(n0, n1):
                    await client.request("admit", flow=flow_obj(i))
            await service.drain()

        asyncio.run(boot(0, 3))
        asyncio.run(boot(3, 5))
        records = list(iter_audit(audit_path))
        report = verify_audit(records, snapshot=snap_path)
        assert report["ok"], report["problems"]
        assert report["restores"] == 2
        assert report["admitted"] == 5
        seqs = [r["seq"] for r in records]
        assert seqs == list(range(1, len(seqs) + 1))


class TestMetricsEndpoint:
    def test_scrape_routes(self, tmp_path):
        obs.enable(fresh=True)

        async def scenario():
            service, sock = await start_service(
                tmp_path, metrics_port=0
            )
            port = service.metrics_endpoint.port
            async with await AsyncServiceClient.connect_unix(
                sock
            ) as client:
                for i in range(3):
                    await client.request("admit", flow=flow_obj(i))
            metrics = await http_get(port, "/metrics")
            healthz = await http_get(port, "/healthz")
            stats = await http_get(port, "/stats")
            missing = await http_get(port, "/nope")
            await service.drain()
            return metrics, healthz, stats, missing

        metrics, healthz, stats, missing = asyncio.run(scenario())
        assert metrics[0] == 200
        samples = parse_prometheus_text(metrics[1])
        assert samples[("repro_service_established_flows", ())] == 3
        assert ("repro_service_queue_depth", ()) in samples
        assert any(
            name == "repro_slo_burn_rate" for name, _ in samples
        )
        rss = samples[("process_resident_memory_bytes", ())]
        peak = samples[("process_peak_resident_memory_bytes", ())]
        assert 1 << 20 < rss <= peak < 1 << 32
        started = samples[("process_start_time_seconds", ())]
        assert json.loads(stats[1])["peak_rss_mb"] == pytest.approx(
            peak / 2 ** 20, abs=8.0
        )
        assert healthz[0] == 200
        health = json.loads(healthz[1])
        assert health["status"] == "ok"
        assert health["slo"]["requests"] >= 3
        # Process start -> listening is the same from health and stats;
        # the process start itself is the /metrics gauge.
        assert (
            0.0
            < health["startup_seconds"]
            == json.loads(stats[1])["startup_seconds"]
        )
        assert started == pytest.approx(process_start_time(), abs=0.01)
        assert json.loads(stats[1])["established"] == 3
        assert missing[0] == 404

    def test_healthz_flips_to_503_while_draining(self, tmp_path):
        obs.enable(fresh=True)

        async def scenario():
            service, sock = await start_service(
                tmp_path, metrics_port=0, drain_grace=0.5
            )
            port = service.metrics_endpoint.port
            before = await http_get(port, "/healthz")
            drainer = asyncio.ensure_future(service.drain())
            # Inside the grace window the endpoint still answers, but
            # advertises the drain so load balancers stop routing.
            await asyncio.sleep(0.15)
            during = await http_get(port, "/healthz")
            await drainer
            return before, during

        before, during = asyncio.run(scenario())
        assert before[0] == 200
        assert during[0] == 503
        assert json.loads(during[1])["status"] == "draining"

    def test_method_not_allowed(self, tmp_path):
        obs.enable(fresh=True)

        async def scenario():
            service, sock = await start_service(
                tmp_path, metrics_port=0
            )
            port = service.metrics_endpoint.port
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            writer.write(b"POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), 10)
            writer.close()
            await service.drain()
            return int(raw.split(b" ", 2)[1])

        assert asyncio.run(scenario()) == 405

    def test_scrape_text_reports_disabled_observability(self, tmp_path):
        async def scenario():
            service, sock = await start_service(tmp_path)
            text = service.scrape_text()
            await service.drain()
            return text

        text = asyncio.run(scenario())
        assert "disabled" in text
        # Memory is reported the same with observability off.
        samples = parse_prometheus_text(text)
        assert (
            1 << 20
            < samples[("process_resident_memory_bytes", ())]
            <= samples[("process_peak_resident_memory_bytes", ())]
        )
        assert samples[("process_start_time_seconds", ())] > 1e9


class TestSLOSurface:
    def test_stats_carry_slo_and_introspection_keys(self, tmp_path):
        async def scenario():
            service, sock = await start_service(
                tmp_path,
                slo=SLOConfig(p50_ms=50.0, p99_ms=250.0),
            )
            async with await AsyncServiceClient.connect_unix(
                sock
            ) as client:
                await client.request("admit", flow=flow_obj(1))
                stats = await client.stats()
            await service.drain()
            return stats

        stats = asyncio.run(scenario())
        assert stats["status"] == "ok"
        assert stats["uptime_seconds"] >= 0.0
        assert "snapshot_age_seconds" in stats
        assert stats["slo"]["requests"] >= 1
        assert stats["slo"]["breaching"] is False

    def test_breaching_slo_degrades_health_but_still_serves(
        self, tmp_path
    ):
        async def scenario():
            service, sock = await start_service(
                tmp_path,
                metrics_port=0,
                slo=SLOConfig(shed_rate=0.01),
            )
            # Synthesize a shed storm directly into the tracker: 50%
            # of the window's frames shed against a 1% objective.
            for _ in range(10):
                service.slo.record_request()
            for _ in range(5):
                service.slo.record_shed()
            port = service.metrics_endpoint.port
            healthz = await http_get(port, "/healthz")
            async with await AsyncServiceClient.connect_unix(
                sock
            ) as client:
                resp = await client.request("admit", flow=flow_obj(1))
            await service.drain()
            return healthz, resp

        healthz, resp = asyncio.run(scenario())
        # Degraded is advisory (200, keep serving), not an outage.
        assert healthz[0] == 200
        body = json.loads(healthz[1])
        assert body["status"] == "degraded"
        assert body["slo"]["breaching"] is True
        assert body["slo"]["burn_rates"]["shed_rate"] > 1.0
        assert resp["admitted"] is True

    def test_audit_stats_block_reports_the_log(self, tmp_path):
        audit_path = str(tmp_path / "audit.jsonl")

        async def scenario():
            service, sock = await start_service(
                tmp_path, audit_path=audit_path, audit_fsync_every=1
            )
            async with await AsyncServiceClient.connect_unix(
                sock
            ) as client:
                await client.request("admit", flow=flow_obj(1))
                stats = await client.stats()
            await service.drain()
            return stats

        stats = asyncio.run(scenario())
        assert stats["audit"]["path"] == audit_path
        # restore marker + one admit
        assert stats["audit"]["records"] == 2
