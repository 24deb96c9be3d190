"""End-to-end service telemetry: wire-propagated tracing, the audit
log feed, the HTTP scrape endpoint, and the stats document.

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
from obs_readers import parse_prometheus_text
from repro.admission import UtilizationAdmissionController
from repro.obs import OBS
from repro.obs.process import process_start_time
from repro.service import (
    AdmissionService,
    AsyncServiceClient,
    iter_audit,
    verify_audit,
)
from repro.routing.shortest import shortest_path_routes
from repro.service import protocol
from repro.traffic.flows import FlowSpec
from tests.test_service_server import (
    flow_obj,
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

    @pytest.mark.parametrize("path", ["inline", "queued"])
    @pytest.mark.parametrize("frame", ["batch", "bulk"])
    def test_batch_span_names_its_frame_once(self, tmp_path, frame, path):
        """A v1 ``batch`` and a v2 ``B`` frame of 100 ops are one
        request each: the streamed batch span that decided the frame
        names that request exactly once, and the request span names the
        batch span back.  ``queued``: a single admit is pending ahead of
        the frame, so the frame's ops travel through the queue and one
        drain decides both requests."""
        obs.enable(fresh=True)
        ids = [f"g{i}" for i in range(50)]

        async def scenario():
            service, sock = await start_service(tmp_path)
            async with await AsyncServiceClient.connect_unix(
                sock, protocol="v2" if frame == "bulk" else "v1"
            ) as client:
                if frame == "bulk":
                    request = client.bulk(
                        [[0, fid, "voice", "r0", "r3", None] for fid in ids]
                        + [[1, fid] for fid in ids]
                    )
                else:
                    request = client.batch(
                        [
                            {"op": "admit", "flow": {**flow_obj(0), "id": fid}}
                            for fid in ids
                        ]
                        + [{"op": "release", "flow_id": fid} for fid in ids]
                    )
                ahead = None
                if path == "queued":
                    service.coalescer.pause()
                    ahead = asyncio.ensure_future(
                        client.request("admit", flow=flow_obj(99))
                    )
                    while service.coalescer.pending < 1:
                        await asyncio.sleep(0.001)
                results = asyncio.ensure_future(request)
                if path == "queued":
                    while service.coalescer.pending < 1 + len(ids) * 2:
                        await asyncio.sleep(0.001)
                    service.coalescer.resume()
                    assert (await ahead)["admitted"] is True
                assert all(r["ok"] for r in await results)
            await service.drain()

        asyncio.run(scenario())
        (request,) = [
            s for s in spans_by_name("service.request")
            if s.attrs["op"] == frame
        ]
        mine = request.attrs["span_hex"]
        batches = {
            s.attrs["span_hex"]: s.attrs
            for s in spans_by_name("service.batch")
        }
        named = [
            hex_id
            for attrs in batches.values()
            for hex_id in attrs["request_spans"].split(",")
        ]
        assert named.count(mine) == 1
        assert len(named) == len(set(named))  # no request twice
        (deciding,) = [
            attrs for attrs in batches.values()
            if mine in attrs["request_spans"].split(",")
        ]
        assert request.attrs["batch_span"] == deciding["span_hex"]
        assert deciding["ops"] == 100 + (path == "queued")
        assert "request_spans_truncated" not in deciding

    def test_malformed_trace_is_served_without_a_parent(self, tmp_path):
        obs.enable(fresh=True)

        async def scenario():
            service, sock = await start_service(tmp_path)
            # A raw frame: the client would stamp a trace of its own.
            reader, writer = await asyncio.open_unix_connection(sock)
            writer.write(protocol.encode_frame({
                "id": 1,
                "op": "admit",
                "flow": flow_obj(1),
                "trace": {"trace_id": "zz", "parent_id": 7},
            }))
            resp = json.loads(await reader.readline())
            assert resp["result"]["admitted"] is True
            writer.close()
            await service.drain()

        asyncio.run(scenario())
        (span,) = spans_by_name("service.request")
        assert span.parent_id is None
        assert "trace_id" not in span.attrs

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
        # Process start -> listening is the same from health and stats;
        # the process start itself is the /metrics gauge.
        assert (
            0.0
            < health["startup_seconds"]
            == json.loads(stats[1])["startup_seconds"]
        )
        assert started == pytest.approx(process_start_time(), abs=0.01)
        assert json.loads(stats[1])["established"] == 3
        # What the flow record costs, per row, is readable too.
        served = json.loads(stats[1])
        assert served["flow_rows"] >= 3
        # Per row: three list slots (24 B) and a route tuple of at most
        # 3 servers, the 4-router line's longest route (64 B).
        assert 0 < served["flow_table_bytes"] <= 88 * served["flow_rows"]
        assert missing[0] == 404

    def test_mirrored_series_read_what_stats_reports(self, tmp_path):
        """Series that restate a count or state the service keeps are
        read at scrape: each equals the ``stats`` value beside it."""
        obs.enable(fresh=True)

        async def scenario():
            service, sock = await start_service(
                tmp_path, metrics_port=0, snapshot_path=str(tmp_path / "s")
            )
            port = service.metrics_endpoint.port
            async with await AsyncServiceClient.connect_unix(
                sock
            ) as client:
                for i in range(5):
                    await client.request("admit", flow=flow_obj(i))
                await client.request("release", flow_id="f0")
                await client.request("snapshot")
            metrics = await http_get(port, "/metrics")
            stats = json.loads((await http_get(port, "/stats"))[1])
            used = int(service.controller.ledger.used_view("voice").sum())
            await service.drain()
            return parse_prometheus_text(metrics[1]), stats, used

        samples, stats, used = asyncio.run(scenario())
        for series, key in (
            ("repro_service_requests_total", "requests"),
            ("repro_service_connections_total", "connections"),
            ("repro_service_snapshots_total", "snapshots"),
            ("repro_service_batches_total", "batches"),
            ("repro_service_established_flows", "established"),
        ):
            assert samples[(series, ())] == stats[key], series
        ctrl = ("controller", "UtilizationAdmissionController")
        for labels, key in (
            ((ctrl, ("result", "admitted")), "admitted_total"),
            ((ctrl, ("result", "rejected")), "rejected_total"),
        ):
            assert samples[("repro_admission_decisions_total", labels)] == stats[key], key
        assert samples[("repro_admission_releases_total", (ctrl,))] == stats["released_total"]
        assert (stats["admitted_total"], stats["released_total"]) == (5, 1)
        assert stats["snapshots"] == 1 and stats["established"] == 4
        assert samples[("repro_ledger_slots_in_use", (("cls", "voice"),))] == used > 0

    def test_slot_gauge_is_the_served_ledger_after_a_restore(
        self, mci, mci_graph, mci_pairs, voice_registry
    ):
        """Two ledgers in one process (a snapshot restored into a second
        controller): the exported slot gauge is the served ledger's
        use, not the sum of every ledger's reservations."""
        obs.enable(fresh=True)
        routes = shortest_path_routes(mci, mci_pairs)

        def controller():
            return UtilizationAdmissionController(
                mci_graph, voice_registry, {"voice": 0.3}, routes
            )

        first = controller()
        for i, (src, dst) in enumerate(mci_pairs[:100]):
            assert first.admit(FlowSpec(f"f{i}", "voice", src, dst)).admitted
        restored = controller()
        restored.restore(first.snapshot())
        held = int(restored.ledger.used_view("voice").sum())
        assert held == int(first.ledger.used_view("voice").sum()) > 0
        AdmissionService(restored).refresh_gauges()
        exported = [
            value
            for (name, _labels), value in parse_prometheus_text(
                obs.prometheus_text()
            ).items()
            if name == "repro_ledger_slots_in_use"
        ]
        assert exported == [held]

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


class TestStatsSurface:
    def test_stats_carry_introspection_keys(self, tmp_path):
        obs.enable(fresh=True)

        async def scenario():
            service, sock = await start_service(tmp_path)
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
