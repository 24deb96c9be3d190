"""The served product end to end: real ``serve`` processes driven by real
``loadgen`` runs, and the asserts an operator would make on what comes
back (``stats``, ``/metrics``, ``/healthz``, audit logs, snapshots and
cluster manifests).

One test per phase, each on its own server:

* **v1** — one server with every telemetry flag: 10k requests with
  ``/metrics`` scraped mid-run, nothing left queued, the op-latency
  histogram agreeing with the ``stats`` request counter, ``/healthz``
  flipping to 503 during the SIGTERM drain window, and the audit log
  accounting for every decision against the final snapshot;
* **v2** — 10k requests over binary frames, audited;
* **cluster** — ``--workers 4`` behind one front door with periodic
  snapshots: 10k requests over 4 connections in v1 and again in v2, a
  known population left behind, and the merged manifest after drain;
* **adversarial** — the worst-case (w, b)-bounded trace recorded in
  process and replayed at a 2-worker cluster, then through a fresh
  controller with the slot invariants checked as the bursts land;
* **overload** — a governed, preempting 2-worker cluster under a 2x
  priority ramp: every worker's effective alpha on the certified
  ladder mid-run, no hard-RT rejection, every preemption audited;
* **metrics host** — ``--metrics-host 127.0.0.2`` on a plain serve and
  on a front door: ``/metrics`` answers there and nowhere else.

Every server listens on a socket under ``tmp_path`` with its metrics
endpoint on port 0, and is stopped by a fixture finalizer whether the
test passes or not.
"""

import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from obs_readers import parse_prometheus_text
from repro.service import ServiceClient, iter_audit, verify_audit
from repro.topology import nsfnet_backbone
from repro.traffic.flows import FlowSpec
from repro.traffic.generators import all_ordered_pairs
from tests.serve_processes import ClusterProcess, ServiceProcess
from tests.test_served_without_openssl import assert_no_openssl

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: How long one loadgen run may take before the test fails.
LOADGEN_TIMEOUT = 300


@pytest.fixture
def serve(tmp_path):
    """``serve(name, **options)``: a started ``serve`` on
    ``tmp_path/<name>.sock`` (a cluster when ``workers`` is given)."""
    started = []

    def start(name, **options):
        kind = ClusterProcess if "workers" in options else ServiceProcess
        process = kind(socket_path=str(tmp_path / f"{name}.sock"), **options)
        started.append(process)
        process.start()
        return process

    yield start
    for process in started:
        process.stop()


@pytest.fixture
def loadgen(tmp_path):
    """``loadgen(*args)`` runs ``repro-ubac loadgen`` to a zero exit;
    with ``wait=False`` it returns the running process instead."""
    running = []
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )

    def run(*args, wait=True):
        argv = [sys.executable, "-m", "repro.experiments.cli", "loadgen"]
        with open(tmp_path / f"loadgen{len(running)}.log", "wb") as out:
            process = subprocess.Popen(
                argv + [str(a) for a in args],
                env=env, stdout=out, stderr=subprocess.STDOUT,
            )
        running.append(process)
        if wait:
            finish(process)
        return process

    yield run
    for process in running:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)


def finish(process):
    """Wait for a loadgen run; it must exit 0."""
    assert process.wait(timeout=LOADGEN_TIMEOUT) == 0, process.args


def metrics_port(server):
    """The port 0 the server was given, as it reported it."""
    found = re.search(
        r"telemetry endpoint on http://[^:]+:(\d+)/", server.read_log()
    )
    assert found, server.read_log()
    return int(found.group(1))


def http_get(port, path, host="127.0.0.1"):
    """``(status, body)`` of one GET on the telemetry endpoint."""
    url = f"http://{host}:{port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode()


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def drain(server, timeout):
    """SIGTERM, and the process drains and exits 0 within ``timeout``."""
    assert server.terminate(timeout=timeout) == 0, server.read_log()[-2000:]


def test_v1_phase_full_telemetry(tmp_path, serve, loadgen):
    snap = str(tmp_path / "ubac.snap.json")
    audit = str(tmp_path / "ubac.audit.jsonl")
    trace = str(tmp_path / "ubac.trace.json")
    summary_path = str(tmp_path / "ubac.summary.json")
    server = serve(
        "ubac", snapshot=snap, audit=audit, audit_fsync_every=64,
        metrics_port=0, trace_out=trace, drain_grace=3,
    )
    port = metrics_port(server)
    assert_no_openssl(server.proc.pid)
    # One never-released hard_rt flow, up front: the final snapshot
    # must still say what it is.
    src, dst = all_ordered_pairs(nsfnet_backbone())[0]
    with server.client() as client:
        assert client.admit(FlowSpec(
            "smoke-hard-rt", "voice", src, dst, priority="hard_rt",
        )).admitted

    # 10k requests with a mid-run /metrics scrape.
    running = loadgen(
        "--socket", server.socket_path, "--flows", 10000, "--seed", 7,
        "--summary-out", summary_path, wait=False,
    )
    time.sleep(1)
    status, midrun = http_get(port, "/metrics")
    assert status == 200
    assert "repro_service_requests_total" in midrun
    # The server reports its own memory, and it is a server-sized
    # number (idle is ~35 MB; the controller keeps nothing per decided
    # op, so 10k requests do not move it out of range).
    rss = parse_prometheus_text(midrun)[("process_resident_memory_bytes", ())]
    assert 20 <= rss / 1048576 <= 200, rss
    assert http_get(port, "/healthz")[0] == 200
    finish(running)
    summary = load(summary_path)
    assert summary["schema"] == "repro-loadgen-summary/v1", summary
    assert summary["errors"] == 0, summary
    assert summary["admitted"] + summary["rejected"] == 10000, summary
    assert summary["latency_ms"]["p99_ms"] > 0, summary

    # An empty queue, and the histogram agreeing with stats.  health()
    # first: a request answered after stats() would be in the histogram
    # but not in stats["requests"].
    with server.client() as client:
        health = client.health()
        stats = client.stats()
    assert health["status"] == "ok", health
    assert stats["schema"] == "repro-admission-rpc/v1", stats
    assert stats["queue_depth"] == 0, stats
    # loadgen releases only the flows it saw admitted: no release of a
    # rejected flow reaches the server as an error.
    assert stats["errors"] == 0, stats
    assert stats["requests"] > 0, stats
    assert stats["batches"] > 0, stats
    assert stats["admitted"] > 0, stats
    assert stats["decisions_total"] == (
        stats["admitted_total"] + stats["rejected_total"]
    ), stats
    assert 20 <= stats["rss_mb"] <= stats["peak_rss_mb"] <= 200, stats
    # The request-latency histogram (a series per op name) counts
    # exactly the requests the stats op reported (telemetry is recorded
    # before the reply leaves the server, so the stats request itself is
    # already included).
    counted = sum(
        value
        for (name, _labels), value in
        parse_prometheus_text(http_get(port, "/metrics")[1]).items()
        if name == "repro_service_request_seconds_count"
    )
    assert counted == stats["requests"], (counted, stats["requests"])

    # /healthz flips to 503 during the SIGTERM drain window.
    server.proc.send_signal(signal.SIGTERM)
    time.sleep(1)
    status, body = http_get(port, "/healthz")
    assert status == 503, body
    assert '"draining"' in body
    assert server.proc.wait(timeout=20) == 0
    assert os.path.getsize(snap) > 0
    # A snapshot record carries its priority (it used to be dropped, so
    # a --preempt restart evicted hard_rt flows first).
    with open(snap, encoding="utf-8") as fh:
        assert fh.read().count('"priority":"hard_rt"') == 1

    # The audit log accounts for every decision.
    records = list(iter_audit(audit))
    report = verify_audit(records, snapshot=snap)
    assert report["ok"], report["problems"]
    decided = stats["admitted"] + stats["rejected"]
    assert report["admitted"] + report["rejected"] == decided, (report, stats)
    assert report["released"] == stats["released"], (report, stats)
    # The exit trace holds the served requests and their batches.
    names = {event["name"] for event in load(trace)["traceEvents"]}
    assert "service.request" in names, sorted(names)[:10]
    assert "service.batch" in names, sorted(names)[:10]


def test_v2_phase_binary_frames(tmp_path, serve, loadgen):
    snap = str(tmp_path / "v2.snap.json")
    audit = str(tmp_path / "v2.audit.jsonl")
    summary_path = str(tmp_path / "v2.summary.json")
    server = serve("v2", snapshot=snap, audit=audit, audit_fsync_every=64)
    loadgen(
        "--socket", server.socket_path, "--flows", 10000, "--seed", 23,
        "--protocol", "v2", "--summary-out", summary_path,
    )
    summary = load(summary_path)
    assert summary["protocol"] == "v2", summary
    assert summary["errors"] == 0, summary
    assert summary["admitted"] + summary["rejected"] == 10000, summary
    with ServiceClient(
        socket_path=server.socket_path, protocol="v2"
    ) as client:
        assert client.negotiated_protocol == "v2"
        stats = client.stats()
    assert stats["queue_depth"] == 0, stats
    assert stats["errors"] == 0, stats
    assert stats["admitted"] + stats["rejected"] == 10000, stats
    assert stats["decisions_total"] == 10000, stats
    assert 20 <= stats["rss_mb"] <= stats["peak_rss_mb"] <= 200, stats
    # Bytes per route-table row: three list slots (24 B) and a tuple
    # of at most 3 servers, NSFNET's longest shortest path (64 B).
    assert stats["flow_table_bytes"] / stats["flow_rows"] <= 88, stats

    drain(server, timeout=20)
    report = verify_audit(list(iter_audit(audit)), snapshot=snap)
    assert report["ok"], report["problems"]
    assert report["admitted"] + report["rejected"] == 10000, report


def test_cluster_phase_four_workers(tmp_path, serve, loadgen):
    snap = str(tmp_path / "cluster.snap.json")
    cluster = serve("cluster", workers=4, snapshot=snap, snapshot_interval=0.5)
    sock = cluster.socket_path
    assert_no_openssl(cluster.proc.pid)

    # 10k requests over 4 connections, nothing queued behind the door.
    summary_path = str(tmp_path / "cluster.summary.json")
    loadgen(
        "--socket", sock, "--flows", 10000, "--seed", 11,
        "--connections", 4, "--summary-out", summary_path,
    )
    summary = load(summary_path)
    assert summary["errors"] == 0, summary
    assert summary["connections"] == 4, summary
    assert summary["admitted"] + summary["rejected"] == 10000, summary
    with ServiceClient(socket_path=sock) as client:
        stats = client.stats()
    assert stats["workers"] == stats["workers_up"] == 4, stats
    assert stats["queue_depth"] == 0, stats
    # Summed over the workers by the front door.
    assert stats["errors"] == 0, stats
    # loadgen submits batch frames, so op-level counters (not the
    # per-frame requests counter) must account for all 10k flows.
    assert stats["admitted"] + stats["rejected"] == 10000, stats
    assert stats["coalesced_ops"] >= 10000, stats
    per_worker = stats["per_worker"]
    assert len(per_worker) == 4, stats
    # The ring must actually spread the workload: every shard admitted
    # a real share of the 10k flows.
    for worker in per_worker:
        assert worker["admitted"] > 0, per_worker
    assert stats["last_restart_seconds"] is None, stats

    # Packed frames cross the front door: B frames are split per owner
    # undecoded and the workers' R slots merged by position; every link
    # to a worker is v2 and up.
    summary_path = str(tmp_path / "cluster.v2.summary.json")
    loadgen(
        "--socket", sock, "--flows", 10000, "--seed", 12,
        "--protocol", "v2", "--connections", 4,
        "--summary-out", summary_path,
    )
    summary = load(summary_path)
    assert summary["protocol"] == "v2", summary
    assert summary["errors"] == 0, summary
    assert summary["admitted"] + summary["rejected"] == 10000, summary
    with ServiceClient(socket_path=sock) as client:
        stats = client.stats()
    links = stats["router"]["links"]
    assert len(links) == 4 and all(link["up"] for link in links), links
    assert stats["errors"] == 0, stats

    # loadgen churned every flow out again; leave a known population
    # (one hard_rt) for the drained manifest to carry.
    pairs = all_ordered_pairs(nsfnet_backbone())[:64]
    with ServiceClient(socket_path=sock) as client:
        kept = [
            f"kept-{i}" for i, (src, dst) in enumerate(pairs)
            if client.admit(FlowSpec(
                f"kept-{i}", "voice", src, dst,
                priority="hard_rt" if i == 0 else None,
            )).admitted
        ]
    assert "kept-0" in kept and len(kept) >= 32, kept
    drain(cluster, timeout=30)
    manifest = load(snap)
    assert manifest["schema"] == "repro-admission-snapshot/v1"
    assert manifest["cluster"]["workers"] == 4, manifest["cluster"]
    flows = manifest["flows"]
    assert sorted(f["flow_id"] for f in flows) == sorted(kept), (
        "drained manifest is not the established population"
    )
    for flow in flows:
        assert flow["worker"] in (0, 1, 2, 3), flow
        assert len(flow["route"]) >= 2, flow
        # Only the hard_rt flow says what it is, after the merge.
        assert flow.get("priority") == (
            "hard_rt" if flow["flow_id"] == "kept-0" else None
        ), flow


def test_adversarial_phase_bursts_at_a_cluster(tmp_path, serve, loadgen):
    from repro.admission import UtilizationAdmissionController
    from repro.experiments.cli import _admission_setup
    from repro.workload import read_trace

    # The extremal (w, b)-bounded adversary — synchronized burst
    # packing on the hottest link servers with thundering-herd
    # releases — recorded once in process and replayed over the wire.
    trace = str(tmp_path / "adv.jsonl")
    loadgen(
        "--adversarial", "--flows", 4000, "--burst", 256,
        "--arrival-rate", 4000, "--hot-edges", 2, "--seed", 13,
        "--record", trace,
        "--summary-out", tmp_path / "adv.inproc.json",
    )
    snap = str(tmp_path / "adv.snap.json")
    cluster = serve("adv", workers=2, snapshot=snap)
    summary_path = str(tmp_path / "adv.summary.json")
    loadgen(
        "--replay", trace, "--socket", cluster.socket_path,
        "--connections", 2,
        "--summary-out", summary_path,
    )
    summary = load(summary_path)
    assert summary["errors"] == 0, summary
    # Accounting must be exact under the burst train: no request lost,
    # none double-counted.
    assert summary["admitted"] + summary["rejected"] == 4000, summary
    with ServiceClient(socket_path=cluster.socket_path) as client:
        stats = client.stats()
    assert stats["queue_depth"] == 0, stats
    # Summed over both workers by the front door.
    assert stats["errors"] == 0, stats
    assert stats["admitted"] + stats["rejected"] == 4000, stats

    drain(cluster, timeout=30)
    # The drained manifest is still a well-formed cluster snapshot (the
    # adversary churns every flow out, so it ends empty — that
    # emptiness is itself asserted).
    manifest = load(snap)
    assert manifest["schema"] == "repro-admission-snapshot/v1"
    assert manifest["cluster"]["workers"] == 2, manifest["cluster"]
    assert manifest["flows"] == [], (
        "adversarial flows leaked past their releases"
    )

    # Offline audit: replay the exact recorded trace through a fresh
    # controller, checking the slot-accounting invariants as the bursts
    # land.
    _meta, events = read_trace(trace)
    graph, registry, voice, _pairs, routes = _admission_setup("nsfnet")
    controller = UtilizationAdmissionController(
        graph, registry, {voice.name: 0.3}, routes
    )
    admitted = set()
    for i, event in enumerate(events):
        if event.kind == "arrival":
            decision = controller.admit(FlowSpec(
                flow_id=event.flow_id,
                class_name=event.class_name,
                source=event.source,
                destination=event.destination,
            ))
            if decision.admitted:
                admitted.add(event.flow_id)
        elif event.flow_id in admitted:
            controller.release(event.flow_id)
            admitted.discard(event.flow_id)
        if i % 250 == 0:
            assert controller.verify_invariants() == []
    assert controller.verify_invariants() == []
    assert sum(1 for e in events if e.kind == "arrival") == 4000


def test_overload_phase_governed_cluster_rides_a_ramp(
    tmp_path, serve, loadgen
):
    from repro.control import certify_ladder
    from repro.experiments.cli import _admission_setup

    # A 2-worker cluster with the alpha governor and priority
    # preemption absorbs a linear 2x arrival ramp of 12k flows with a
    # 10/20/70 hard/soft/elastic priority mix (docs/overload.md).
    audit = str(tmp_path / "ovl.audit.jsonl")
    cluster = serve(
        "ovl", workers=2, governor=True, governor_interval=0.02,
        preempt=True, audit=audit, snapshot=str(tmp_path / "ovl.snap.json"),
        metrics_port=0,
    )
    port = metrics_port(cluster)
    summary_path = str(tmp_path / "ovl.summary.json")
    running = loadgen(
        "--socket", cluster.socket_path, "--flows", 12000, "--seed", 17,
        "--arrival-rate", 400, "--mean-holding", 600, "--zipf-skew", 1.6,
        "--ramp", "linear", "--ramp-factor", 2,
        "--priority-mix", "hard_rt=1,soft_rt=2,elastic=7",
        "--connections", 2, "--summary-out", summary_path, wait=False,
    )
    # A mid-run /stats scrape pins every worker's effective alpha to the
    # locally re-certified ladder: the governor may move, but only onto
    # rungs the Figure 2 fixed-point search proved safe.
    graph, registry, voice, _pairs, routes = _admission_setup("nsfnet")
    ladder = certify_ladder(
        graph,
        list(routes.values()),
        registry,
        {voice.name: 0.3},
        [0.3 * f for f in (0.5, 0.625, 0.75, 0.875)],
    )
    rungs = set(ladder.rungs)
    deadline = time.monotonic() + 60
    while True:
        stats = json.loads(http_get(port, "/stats")[1])
        governors = [
            worker.get("governor")
            for worker in stats.get("per_worker") or []
        ]
        if len(governors) == 2 and all(
            gov and gov.get("samples", 0) > 0 for gov in governors
        ):
            break
        assert time.monotonic() < deadline, f"governors never sampled: {stats}"
        time.sleep(0.1)
    for gov in governors:
        assert gov["effective_alpha"] in rungs, (gov, rungs)
    finish(running)

    # Preemption rescued every hard-RT arrival the plain controller
    # would have rejected ...
    summary = load(summary_path)
    assert summary["errors"] == 0, summary
    hard = summary["per_priority"]["hard_rt"]
    assert hard["rejected"] == 0, hard
    assert hard["admitted"] > 0, hard
    with ServiceClient(socket_path=cluster.socket_path) as client:
        stats = client.stats()
    preempted = sum(
        worker["preemption"]["preempted_admits"]
        for worker in stats["per_worker"]
    )
    assert preempted > 0, stats
    # ... and after the drain the per-worker audit logs verify end to
    # end, every preempted sacrifice recorded as a "preempted" release.
    drain(cluster, timeout=30)
    preempted = 0
    for shard in ("w0", "w1"):
        report = verify_audit(iter_audit(f"{audit}.{shard}"))
        assert report["ok"], (shard, report["problems"])
        preempted += report["preempted"]
    assert preempted > 0, "no preempted releases in audit logs"


@pytest.mark.parametrize("workers", [0, 2])
def test_metrics_host_is_the_only_address_the_endpoint_answers(serve, workers):
    """Off its default, ``--metrics-host`` is where ``/metrics`` listens:
    127.0.0.2 answers, and 127.0.0.1 refuses on the same port."""
    options = {"metrics_port": 0, "metrics_host": "127.0.0.2"}
    if workers:
        options["workers"] = workers
    server = serve(f"host{workers}", **options)
    port = metrics_port(server)
    status, body = http_get(port, "/metrics", host="127.0.0.2")
    assert status == 200, body
    assert "process_start_time_seconds" in body, body
    if workers:
        assert f"repro_cluster_workers {workers}" in body, body
    with pytest.raises(urllib.error.URLError) as refused:
        http_get(port, "/metrics")
    assert isinstance(refused.value.reason, ConnectionRefusedError)
