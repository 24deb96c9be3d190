"""CLI surface of the admission service: serve, client, loadgen --socket."""

import json
import os
import re
import threading
import time

import pytest

from repro.experiments.cli import build_parser, main
from repro.faults import ClusterProcess
from repro.service.launch import serve_argv
from repro.service.server import ServiceConfig
from repro.workload.trace import TraceEvent, write_trace


class ServeThread:
    """``repro-ubac serve`` running in a daemon thread (the
    ``--serve-seconds`` test hook drains it after a fixed budget)."""

    def __init__(self, argv):
        self.argv = argv
        self.rc = None
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        self.rc = main(self.argv)

    def wait_for_socket(self, sock, timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if os.path.exists(sock):
                return
            time.sleep(0.02)
        raise AssertionError(f"socket {sock} never appeared")

    def join(self, timeout=60.0):
        self.thread.join(timeout)
        assert not self.thread.is_alive()
        return self.rc


@pytest.fixture()
def served(tmp_path):
    sock = str(tmp_path / "s.sock")
    snap = str(tmp_path / "snap.json")
    server = ServeThread(
        [
            "serve",
            "--socket",
            sock,
            "--snapshot",
            snap,
            "--max-delay-ms",
            "1",
            "--serve-seconds",
            "20",
        ]
    )
    server.wait_for_socket(sock)
    yield sock, snap, server


def last_json(out):
    """Last JSON line in captured output (the serve thread may
    interleave its own status prints)."""
    lines = [l for l in out.strip().splitlines() if l.startswith("{")]
    return json.loads(lines[-1])


def serve_pids(marker):
    """Pids of live processes whose command line mentions ``marker``
    (a tmp_path socket: only this test's servers and workers)."""
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit() and int(entry) != os.getpid():
            try:
                with open(f"/proc/{entry}/cmdline", "rb") as fh:
                    if marker.encode() in fh.read():
                        pids.append(int(entry))
            except OSError:
                pass  # exited between listdir and open
    return pids


def test_serve_client_roundtrip(served, capsys):
    sock, snap, _server = served
    assert (
        main(["client", "health", "--socket", sock]) == 0
    )
    health = last_json(capsys.readouterr().out)
    assert health["status"] == "ok"

    assert (
        main(
            [
                "client",
                "admit",
                "--socket",
                sock,
                "--flow-id",
                "cli-f1",
                "--src",
                "Seattle",
                "--dst",
                "Princeton",
            ]
        )
        == 0
    )
    decision = last_json(capsys.readouterr().out)
    assert decision["admitted"] is True

    assert main(["client", "query", "--socket", sock, "--flow-id", "cli-f1"]) == 0
    assert last_json(capsys.readouterr().out)["established"] is True

    assert main(["client", "snapshot", "--socket", sock]) == 0
    assert last_json(capsys.readouterr().out)["flows"] == 1
    assert os.path.exists(snap)

    assert main(["client", "release", "--socket", sock, "--flow-id", "cli-f1"]) == 0
    assert last_json(capsys.readouterr().out)["released"] is True

    assert main(["client", "stats", "--socket", sock]) == 0
    stats = last_json(capsys.readouterr().out)
    assert stats["established"] == 0
    assert stats["requests"] >= 5


def test_loadgen_drives_the_service(served, capsys):
    sock, _snap, _server = served
    assert (
        main(
            [
                "loadgen",
                "--socket",
                sock,
                "--flows",
                "500",
                "--batch-size",
                "128",
                "--seed",
                "11",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "admission service at" in out
    assert "0 errors" in out
    assert "ops/s over the wire" in out


def test_loadgen_replays_a_trace_at_the_service(
    served, tmp_path, capsys
):
    sock, _snap, _server = served
    trace = str(tmp_path / "trace.jsonl")
    events = [
        TraceEvent(
            float(i), "arrival", f"t{i}", "voice", "Seattle", "Princeton"
        )
        for i in range(5)
    ] + [TraceEvent(9.0, "departure", "t0")]
    write_trace(trace, events, meta={})
    assert (
        main(["loadgen", "--socket", sock, "--replay", trace]) == 0
    )
    out = capsys.readouterr().out
    assert "replaying 6 events" in out
    assert "5 admitted" in out
    assert "1 released" in out


def test_client_argument_validation(tmp_path, capsys):
    # Exactly one of --target/--socket.
    with pytest.raises(SystemExit):
        main(["client", "health"])
    with pytest.raises(SystemExit):
        main(
            [
                "client",
                "health",
                "--socket",
                "x",
                "--target",
                "localhost:1",
            ]
        )
    with pytest.raises(SystemExit):
        main(["loadgen", "--target", "not-a-target", "--flows", "1"])


def test_client_requires_flow_id_for_query(served, capsys):
    sock, _snap, _server = served
    assert main(["client", "query", "--socket", sock]) == 2
    assert "FAILURE" in capsys.readouterr().out
    assert main(["client", "admit", "--socket", sock]) == 2
    assert "FAILURE" in capsys.readouterr().out


def test_client_connect_failure(tmp_path, capsys):
    rc = main(
        ["client", "health", "--socket", str(tmp_path / "nope.sock")]
    )
    assert rc == 1
    assert "FAILURE" in capsys.readouterr().out


def test_serve_requires_a_listener(capsys):
    assert main(["serve"]) == 2
    assert "FAILURE" in capsys.readouterr().out


def test_serve_rejects_bad_watermarks(capsys):
    assert (
        main(
            [
                "serve",
                "--socket",
                "/tmp/unused.sock",
                "--high-water",
                "1",
                "--low-water",
                "2",
            ]
        )
        == 2
    )
    assert "FAILURE" in capsys.readouterr().out


def test_serve_seconds_drains_cleanly(tmp_path, capsys):
    sock = str(tmp_path / "quick.sock")
    rc = main(
        ["serve", "--socket", sock, "--serve-seconds", "0.3"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "listening on" in out
    assert "drained after 0 requests" in out
    # The drain's own flush barrier is not a batch.
    assert "in 0 batches (mean fill 0.0)" in out


def test_serve_failed_final_snapshot_exits_nonzero(tmp_path, capsys):
    # A final snapshot that cannot be written must fail the command,
    # not wedge it: the listeners are closed by then, so a drain that
    # stops half way leaves a process only kill -9 ends.
    server = ServeThread(
        [
            "serve", "--socket", str(tmp_path / "s.sock"),
            "--topology", "mci",
            "--snapshot", str(tmp_path / "no_such_dir" / "snap.json"),
            "--serve-seconds", "0.5",
        ]
    )
    assert server.join(timeout=5.0) == 1
    out = capsys.readouterr().out
    assert "FAILURE:" in out and "no_such_dir" in out


def test_serve_workers_failed_final_manifest_exits_nonzero(
    tmp_path, capsys
):
    # The same contract behind --workers: the drain used to stop at the
    # failed merge with _stopped never set, and ignored SIGTERM after.
    sock = str(tmp_path / "front.sock")
    server = ServeThread(
        [
            "serve", "--workers", "2", "--socket", sock,
            "--topology", "mci",
            "--snapshot", str(tmp_path / "no_such_dir" / "m.json"),
            "--serve-seconds", "0.5",
        ]
    )
    assert server.join(timeout=10.0) == 1
    out = capsys.readouterr().out
    assert "FAILURE:" in out and "no_such_dir" in out
    assert serve_pids(sock) == []


def test_serve_startup_errors_are_failure_lines(tmp_path, capsys):
    # Same handling as the --workers path: a line, not a traceback.
    sock = str(tmp_path / "no_such_dir" / "s.sock")
    assert main(["serve", "--socket", sock]) == 1
    captured = capsys.readouterr()
    assert "FAILURE:" in captured.out
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("governor", [[], ["--governor"]])
@pytest.mark.parametrize("mode", [[], ["--workers", "2"]])
def test_serve_refuses_an_alpha_that_fails_verification(
    tmp_path, capsys, mode, governor
):
    # Figure 2 bounds the worst mci route at 226 ms against the 100 ms
    # deadline at alpha 0.9.  Only --governor used to check; plain serve
    # started and exited 0.  Every mode refuses alike now, and a cluster
    # does so before it spawns a worker.
    sock = str(tmp_path / "s.sock")
    argv = ["serve", "--socket", sock, "--topology", "mci", "--alpha",
            "0.9", "--serve-seconds", "0.3"]
    assert main(argv + mode + governor) == 2
    out = capsys.readouterr().out
    assert out.startswith("FAILURE: base alpha 0.9 fails verification")
    assert "listening" not in out
    assert not os.path.exists(sock) and serve_pids(sock) == []


def test_serve_malformed_snapshot_record_is_a_failure_line(
    tmp_path, capsys
):
    # Used to be a raw KeyError traceback out of restore_into.
    snap = tmp_path / "snap.json"
    snap.write_text(
        json.dumps(
            {
                "schema": "repro-admission-snapshot/v1",
                "alphas": {"voice": 0.3},
                "flows": [{"flow_id": "x"}],
            }
        )
    )
    rc = main(
        ["serve", "--socket", str(tmp_path / "s.sock"), "--snapshot",
         str(snap), "--serve-seconds", "0.3"]
    )
    assert rc == 1
    captured = capsys.readouterr()
    assert "FAILURE: malformed flow record" in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_serve_has_no_controller_option(tmp_path, capsys):
    # One slot ledger: there is nothing to choose between.
    sock = str(tmp_path / "s.sock")
    for command in (["serve", "--socket", sock], ["faults"]):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--controller", "utilization"])
        assert exc.value.code == 2
        assert "--controller" in capsys.readouterr().err


def test_serve_preempt_max_victims(tmp_path, capsys):
    # An invalid cap fails at startup, before the listener exists.
    sock = str(tmp_path / "pre.sock")
    rc = main(
        ["serve", "--socket", sock, "--preempt",
         "--preempt-max-victims", "0"]
    )
    assert rc == 2
    assert "max_victims" in capsys.readouterr().out
    # A valid cap reaches the preemptor and the server comes up.
    rc = main(
        ["serve", "--socket", sock, "--preempt",
         "--preempt-max-victims", "3", "--serve-seconds", "0.3"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "priority preemption on" in out
    assert "drained after" in out


def test_serve_full_telemetry_pipeline(tmp_path, capsys):
    """serve with every telemetry flag + loadgen --summary-out, then
    audit --verify against the drain snapshot and the span stream."""
    sock = str(tmp_path / "s.sock")
    snap = str(tmp_path / "snap.json")
    audit = str(tmp_path / "audit.jsonl")
    spans = str(tmp_path / "spans.jsonl")
    summary = str(tmp_path / "summary.json")
    server = ServeThread(
        [
            "serve",
            "--socket",
            sock,
            "--snapshot",
            snap,
            "--audit",
            audit,
            "--audit-fsync-every",
            "1",
            "--metrics-port",
            "0",
            "--span-out",
            spans,
            "--slo-p99-ms",
            "5000",
            "--max-delay-ms",
            "1",
            "--serve-seconds",
            "8",
        ]
    )
    server.wait_for_socket(sock)
    assert (
        main(
            [
                "loadgen",
                "--socket",
                sock,
                "--flows",
                "80",
                "--batch-size",
                "32",
                "--seed",
                "3",
                "--summary-out",
                summary,
            ]
        )
        == 0
    )
    loadgen_out = capsys.readouterr().out
    assert "frame latency p50" in loadgen_out
    with open(summary, encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["schema"] == "repro-bench-summary/v1"
    assert report["mode"] == "service"
    assert report["ops"] > 0
    assert set(report["latency_ms"]) == {"p50_ms", "p90_ms", "p99_ms"}
    assert (
        report["latency_ms"]["p99_ms"] >= report["latency_ms"]["p50_ms"]
    )

    assert server.join() == 0
    # The serve thread's prints interleave with the captures above, so
    # look across everything captured so far.
    serve_out = loadgen_out + capsys.readouterr().out
    assert "telemetry endpoint on http://" in serve_out
    assert "wrote span stream" in serve_out

    # The span stream is self-describing and non-empty.
    from repro.obs.sinks import read_span_lines

    _header, span_objs = read_span_lines(spans)
    names = {s["name"] for s in span_objs}
    assert "service.request" in names
    assert "service.batch" in names

    # The audit log verifies against the final drain snapshot.
    rc = main(["audit", audit, "--verify", "--snapshot", snap])
    assert rc == 0
    out = capsys.readouterr().out
    assert "audit log is consistent" in out
    assert "restores" in out


def test_audit_cli_filters_and_trace_export(tmp_path, capsys):
    from repro.service.audit import AuditLog
    from repro.traffic.flows import FlowSpec
    from repro.workload.trace import read_trace

    log_path = str(tmp_path / "audit.jsonl")
    with AuditLog(log_path, fsync_every=1) as log:
        log.mark_restore([])
        for i in range(3):
            log.record_admit(
                FlowSpec(f"f{i}", "voice", "r0", "r3"),
                admitted=True,
                route=["r0", "r1", "r2", "r3"],
            )
        log.record_release("f0", ok=True)

    assert (
        main(["audit", log_path, "--kind", "admit", "--json"]) == 0
    )
    lines = [
        json.loads(l)
        for l in capsys.readouterr().out.strip().splitlines()
    ]
    assert [r["flow"]["id"] for r in lines] == ["f0", "f1", "f2"]

    assert (
        main(
            ["audit", log_path, "--flow-id", "f0", "--limit", "1"]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "release" in out
    assert "2 matching, 1 shown" in out

    trace = str(tmp_path / "replay.jsonl")
    assert main(["audit", log_path, "--to-trace", trace]) == 0
    assert "4 replayable events" in capsys.readouterr().out
    _meta, events = read_trace(trace)
    assert [e.kind for e in events] == [
        "arrival",
        "arrival",
        "arrival",
        "departure",
    ]
    assert events[0].route == ("r0", "r1", "r2", "r3")


def test_audit_cli_detects_an_inconsistent_log(tmp_path, capsys):
    log_path = tmp_path / "audit.jsonl"
    log_path.write_text(
        json.dumps({"schema": "repro-admission-audit/v1"})
        + "\n"
        + json.dumps(
            {
                "seq": 1,
                "ts": 0.0,
                "kind": "release",
                "flow_id": "ghost",
                "released": True,
            }
        )
        + "\n"
    )
    assert main(["audit", str(log_path), "--verify"]) == 1
    out = capsys.readouterr().out
    assert "PROBLEM" in out
    assert "ghost" in out


def test_audit_cli_missing_file(tmp_path, capsys):
    rc = main(["audit", str(tmp_path / "nope.jsonl")])
    assert rc == 1
    assert "FAILURE" in capsys.readouterr().out


def test_top_renders_live_stats(served, capsys):
    sock, _snap, _server = served
    assert (
        main(
            [
                "top",
                "--socket",
                sock,
                "--count",
                "2",
                "--interval",
                "0.05",
                "--no-clear",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "repro-ubac top" in out
    assert "requests" in out
    assert "SLO" in out
    assert out.count("uptime") == 2  # one header per refresh
    assert re.search(r"rss \d+\.\d MB \(peak \d+\.\d\)", out)
    assert re.search(r"startup: \d+\.\d\d s", out)
    assert "last restart" not in out  # a single server has no supervisor


def test_top_shows_the_last_worker_restart_gap():
    from repro.experiments.cli import _render_top

    stats = {"controller": "cluster", "startup_seconds": 1.234}
    assert "last restart" not in _render_top(stats, None, 1.0)
    stats["last_restart_seconds"] = 0.481
    header = _render_top(stats, None, 1.0).splitlines()[0]
    assert header.endswith("startup: 1.23 s   last restart: 0.48 s")


def test_top_connect_failure(tmp_path, capsys):
    rc = main(
        ["top", "--socket", str(tmp_path / "nope.sock"), "--count", "1"]
    )
    assert rc == 1
    assert "FAILURE" in capsys.readouterr().out


def test_loadgen_fans_out_over_multiple_connections(served, capsys):
    sock, _snap, _server = served
    assert (
        main(
            [
                "loadgen",
                "--socket",
                sock,
                "--flows",
                "400",
                "--batch-size",
                "64",
                "--connections",
                "3",
                "--seed",
                "13",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "3 connections" in out
    assert "0 errors" in out


def test_loadgen_rejects_bad_connections(served, capsys):
    sock, _snap, _server = served
    with pytest.raises(SystemExit, match="connections"):
        main(
            ["loadgen", "--socket", sock, "--flows", "10",
             "--connections", "0"]
        )


def test_serve_workers_argument_validation(tmp_path, capsys):
    sock = str(tmp_path / "front.sock")
    # Cluster serving is Unix-socket only.
    assert main(["serve", "--workers", "2", "--port", "0"]) == 2
    assert "Unix socket" in capsys.readouterr().out
    # Shard flags belong to workers, not the supervisor.
    assert (
        main(
            ["serve", "--workers", "2", "--socket", sock,
             "--shard-index", "0", "--shard-count", "2"]
        )
        == 2
    )
    assert "per-worker" in capsys.readouterr().out
    assert main(["serve", "--workers", "0", "--socket", sock]) == 2
    assert ">= 1" in capsys.readouterr().out


def test_serve_workers_forwards_per_worker_options(tmp_path):
    # --span-out and --slo-* used to be refused under --workers; every
    # option now reaches the workers, per-worker files as <path>.w<i>.
    spans = str(tmp_path / "spans.jsonl")
    with ClusterProcess(
        workers=2,
        socket_path=str(tmp_path / "front.sock"),
        topology="mci",
        slo_p99_ms=50,
        span_out=spans,
    ) as cluster:
        cluster.start()
        with cluster.client() as client:
            stats = client.stats()
        assert [
            w["slo"]["targets"]["p99_ms"] for w in stats["per_worker"]
        ] == [50, 50]
        assert cluster.terminate() == 0
    assert os.path.exists(spans + ".w0") and os.path.exists(spans + ".w1")
    assert not os.path.exists(spans)


@pytest.mark.parametrize("mode", [[], ["--workers", "2"]])
def test_serve_bad_alpha_ladder_is_one_usage_error(tmp_path, capsys, mode):
    # Parsed once, at parse time: both modes answer alike (the cluster
    # used to spawn its workers and report the first one's exit code).
    argv = ["serve", "--socket", str(tmp_path / "s.sock"), "--governor",
            "--alpha-ladder", "0.1,abc"]
    with pytest.raises(SystemExit) as exc:
        main(argv + mode)
    assert exc.value.code == 2
    assert "comma-separated floats" in capsys.readouterr().err


# One row per way of spelling things; between them every serve dest is
# set to a non-default value (checked below), so a new srv.add_argument
# needs a row here before it can ship.
SERVE_COMMAND_LINES = [
    "--socket /tmp/s.sock --topology mci --alpha 0.25 --max-batch 64 "
    "--max-delay-ms 1.5 --high-water 100 --low-water 50 --snapshot /tmp/s.json "
    "--snapshot-interval 0.5 --protocol v1 --drain-grace 2",
    "--host 0.0.0.0 --port 0 --metrics-port 0 --metrics-host 0.0.0.0 "
    "--metrics-out /tmp/m.prom --trace-out /tmp/t.json --serve-seconds 3",
    "--socket /tmp/s.sock --workers 4 --governor --alpha-ladder 0.1,0.15,0.2 "
    "--governor-interval 0.02 --preempt --preempt-max-victims 3",
    "--socket /tmp/w.sock --shard-index 1 --shard-count 4 --audit /tmp/a.jsonl "
    "--audit-fsync-every 1 --audit-max-bytes 4096 --audit-keep 2",
    "--socket /tmp/s.sock --span-out /tmp/sp.jsonl --slo-p50-ms 5 "
    "--slo-p99-ms 50 --slo-shed-rate 0.01 --slo-window 30",
]


def test_serve_argv_round_trips_every_option():
    parse = build_parser().parse_args
    defaults = vars(parse(["serve"]))
    exercised = set()
    for line in SERVE_COMMAND_LINES:
        parsed = parse(["serve"] + line.split())
        assert parse(serve_argv(vars(parsed))) == parsed, line
        exercised |= {
            dest for dest, value in vars(parsed).items()
            if value != defaults[dest]
        }
    assert exercised == set(defaults) - {"command"}


def test_serve_parser_defaults_are_service_config_defaults():
    # The parser must not import server.py (cold start), so its
    # literals are copies; this is what keeps them honest.
    args = build_parser().parse_args(["serve"])
    config = ServiceConfig()
    assert args.max_delay_ms / 1000.0 == config.max_delay
    for dest in (
        "max_batch", "high_water", "low_water", "audit_fsync_every",
        "audit_keep", "governor_interval", "drain_grace", "metrics_host",
    ):
        assert getattr(args, dest) == getattr(config, dest), dest


def test_serve_shard_flags_must_pair(tmp_path, capsys):
    sock = str(tmp_path / "s.sock")
    assert (
        main(["serve", "--socket", sock, "--shard-index", "0"]) == 2
    )
    assert "go together" in capsys.readouterr().out


def test_serve_single_shard_worker(tmp_path, capsys):
    # A shard worker is just the ordinary server with a quota slice:
    # boot shard 0 of 2 directly and check it reports its identity.
    sock = str(tmp_path / "w0.sock")
    server = ServeThread(
        [
            "serve", "--socket", sock, "--shard-index", "0",
            "--shard-count", "2", "--max-delay-ms", "1",
            "--serve-seconds", "15",
        ]
    )
    server.wait_for_socket(sock)
    assert main(["client", "stats", "--socket", sock]) == 0
    stats = last_json(capsys.readouterr().out)
    assert stats["worker_index"] == 0
    assert stats["controller"] == "SlotShardController"
    assert stats["pid"] == os.getpid() or stats["pid"] > 0
