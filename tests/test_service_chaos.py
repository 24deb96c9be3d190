"""Process-level chaos: kill -9 the real server, restart, verify
survivors.

These tests launch ``repro-ubac serve`` as a genuine subprocess (via
:class:`serve_processes.ServiceProcess`), drive it over its Unix socket,
SIGKILL it mid-run, restart it on the same snapshot path, and assert
the survivor guarantee end to end: every flow whose admission reached a
crash-safe snapshot is established again — on its pinned route — before
the reborn server takes new traffic.
"""

import os

import pytest

from repro.errors import FaultInjectionError
from serve_processes import ServiceProcess, kill_restart_check
from repro.topology import nsfnet_backbone
from repro.traffic.flows import FlowSpec
from repro.traffic.generators import all_ordered_pairs


@pytest.fixture(scope="module")
def pairs():
    return all_ordered_pairs(nsfnet_backbone())


class TestServiceProcess:
    def test_kill9_restart_preserves_established_flows(
        self, tmp_path, pairs
    ):
        sock = str(tmp_path / "s.sock")
        snap = str(tmp_path / "snap.json")
        with ServiceProcess(
            socket_path=sock,
            snapshot=snap,
            snapshot_interval=30.0,  # rely on the explicit snapshot op
        ) as proc:
            proc.start()
            admitted = []
            with proc.client() as client:
                for i, (src, dst) in enumerate(pairs[:25]):
                    decision = client.admit(
                        FlowSpec(f"c{i}", "voice", src, dst)
                    )
                    if decision.admitted:
                        admitted.append(f"c{i}")
                assert admitted
                client.snapshot()  # durable cut before the kill
            report = kill_restart_check(proc, admitted)
            assert report["lost"] == []
            assert report["restored"] == len(admitted)
            assert proc.launches == 2
            # The reborn server serves new traffic on top of the
            # restored ledger.
            with proc.client() as client:
                src, dst = pairs[30]
                decision = client.admit(
                    FlowSpec("post-restart", "voice", src, dst)
                )
                assert decision.admitted
                assert client.stats()["established"] == len(admitted) + 1

    def test_admissions_after_snapshot_are_lost_by_design(
        self, tmp_path, pairs
    ):
        # kill -9 semantics: only snapshotted admissions survive.  A
        # flow admitted after the last durable cut must be gone — and
        # report as lost when claimed as established.
        sock = str(tmp_path / "s.sock")
        snap = str(tmp_path / "snap.json")
        with ServiceProcess(
            socket_path=sock, snapshot=snap, snapshot_interval=60.0
        ) as proc:
            proc.start()
            with proc.client() as client:
                src, dst = pairs[0]
                assert client.admit(
                    FlowSpec("durable", "voice", src, dst)
                ).admitted
                client.snapshot()
                src, dst = pairs[1]
                assert client.admit(
                    FlowSpec("ephemeral", "voice", src, dst)
                ).admitted
            with pytest.raises(FaultInjectionError) as err:
                kill_restart_check(proc, ["durable", "ephemeral"])
            assert "ephemeral" in str(err.value)
            with proc.client() as client:
                assert client.query("durable") is True
                assert client.query("ephemeral") is False

    def test_sigterm_drains_and_snapshots(self, tmp_path, pairs):
        sock = str(tmp_path / "s.sock")
        snap = str(tmp_path / "snap.json")
        with ServiceProcess(
            socket_path=sock, snapshot=snap
        ) as proc:
            proc.start()
            with proc.client() as client:
                src, dst = pairs[0]
                assert client.admit(
                    FlowSpec("f1", "voice", src, dst)
                ).admitted
            # Graceful path: SIGTERM writes the final snapshot even
            # though no explicit snapshot op ever ran.
            assert proc.terminate() == 0
            assert os.path.exists(snap)
            proc.restart()
            with proc.client() as client:
                assert client.query("f1") is True

    def test_restart_keeps_hard_rt_flows_out_of_the_preemptors_reach(
        self, tmp_path, pairs
    ):
        # alpha 0.01 leaves 31 voice slots a link.  Fill one pair with
        # hard_rt flows, restart, offer one more: nothing may be evicted
        # for it.  A restart used to strip the priorities, and the
        # arrival pushed out a restored hard_rt flow.
        src, dst = pairs[0]
        with ServiceProcess(
            socket_path=str(tmp_path / "s.sock"),
            snapshot=str(tmp_path / "snap.json"),
            alpha=0.01,
            preempt=True,
        ) as proc:
            proc.start()
            with proc.client() as client:
                full = 0
                while client.admit(
                    FlowSpec(f"h{full}", "voice", src, dst,
                             priority="hard_rt")
                ).admitted:
                    full += 1
                assert 0 < full < 100
                assert client.stats()["preemption"]["preempted_flows"] == 0
            assert proc.terminate() == 0
            proc.restart()
            with proc.client() as client:
                assert client.stats()["established"] == full
                late = client.admit(
                    FlowSpec("late", "voice", src, dst, priority="hard_rt")
                )
                assert not late.admitted
                stats = client.stats()
                assert stats["preemption"]["preempted_flows"] == 0
                assert stats["established"] == full
                assert all(client.query(f"h{i}") for i in range(full))

    def test_audit_log_accounts_for_every_decision_across_kill9(
        self, tmp_path, pairs
    ):
        # The telemetry acceptance bar: after a kill -9 and restart,
        # the audit log — fsynced per record — replays to a consistent
        # history whose durable snapshot marker matches the snapshot
        # the reborn server actually recovered from.
        from repro.service import iter_audit, verify_audit

        sock = str(tmp_path / "s.sock")
        snap = str(tmp_path / "snap.json")
        audit = str(tmp_path / "audit.jsonl")
        with ServiceProcess(
            socket_path=sock,
            snapshot=snap,
            snapshot_interval=60.0,
            audit=audit,
            audit_fsync_every=1,
        ) as proc:
            proc.start()
            admitted = []
            with proc.client() as client:
                for i, (src, dst) in enumerate(pairs[:12]):
                    if client.admit(
                        FlowSpec(f"a{i}", "voice", src, dst)
                    ).admitted:
                        admitted.append(f"a{i}")
                assert client.release(admitted[0])
                survivors = admitted[1:]
                client.snapshot()  # durable cut + audit marker
            report = kill_restart_check(proc, survivors)
            assert report["lost"] == []
            with proc.client() as client:
                src, dst = pairs[20]
                assert client.admit(
                    FlowSpec("post-kill", "voice", src, dst)
                ).admitted
            proc.terminate()
        records = list(iter_audit(audit))
        # Both launches mark what they resumed from; every decision of
        # both lives is present, in one gap-free sequence.
        kinds = [r["kind"] for r in records]
        assert kinds.count("restore") == 2
        assert kinds.count("admit") == len(admitted) + 1
        assert kinds.count("release") == 1
        seqs = [r["seq"] for r in records]
        assert seqs == list(range(1, len(seqs) + 1))
        audit_report = verify_audit(records, snapshot=snap)
        assert audit_report["ok"], audit_report["problems"]
        assert audit_report["admitted"] == len(admitted) + 1
        assert sorted(audit_report["established"]) == sorted(
            survivors + ["post-kill"]
        )

    def test_served_audit_log_reaches_the_packet_oracle(self, tmp_path):
        # ROADMAP 5(a), first half: what a real, preempting server
        # admitted is replayed into a fresh controller and every
        # admitted lifetime is driven at packet level with greedy
        # sources.  Needs no adapter: the audit log converts to the
        # one workload timeline the oracle takes.
        from repro.admission import UtilizationAdmissionController
        from repro.experiments.cli import main
        from repro.routing import shortest_path_routes
        from repro.service import audit_to_trace_events, iter_audit
        from repro.simulation import co_simulate
        from repro.topology import LinkServerGraph, mci_backbone
        from repro.traffic import ClassRegistry, voice_class

        sock = str(tmp_path / "s.sock")
        audit = str(tmp_path / "audit.jsonl")
        with ServiceProcess(
            socket_path=sock, topology="mci", alpha=0.05,
            preempt=True, audit=audit,
        ) as proc:
            proc.start()
            assert main([
                "loadgen", "--socket", sock, "--topology", "mci",
                "--flows", "2500", "--seed", "17",
                "--arrival-rate", "400", "--mean-holding", "600",
                "--zipf-skew", "1.6",
                "--priority-mix", "hard_rt=1,soft_rt=2,elastic=7",
            ]) == 0
            with proc.client() as client:
                preemption = client.stats()["preemption"]
                assert preemption["preempted_flows"] > 0
            assert proc.terminate() == 0
        records = list(iter_audit(audit))
        admits = sum(
            1 for r in records
            if r["kind"] == "admit" and r.get("admitted")
        )
        assert admits > 500

        net = mci_backbone()
        graph = LinkServerGraph(net)
        registry = ClassRegistry.two_class(voice_class())
        controller = UtilizationAdmissionController(
            graph, registry, {"voice": 0.05},
            shortest_path_routes(net, all_ordered_pairs(net)),
        )
        events = audit_to_trace_events(records)
        result = co_simulate(
            graph, registry, controller, events,
            packet_size=640, pattern_kind="greedy",
        )
        # Every audited admit re-fits (preemption re-admits included)
        # and every interval inside the run sends.
        assert result.admission.rejected == 0
        assert result.admission.admitted == admits
        horizon = events[-1].time
        assert result.flows_simulated == sum(
            1 for life in result.admission.lifetimes
            if life.start < min(
                horizon if life.stop is None else life.stop, horizon
            )
        )
        assert result.flows_simulated >= admits // 2
        assert result.packets.packets_injected > 0
        assert result.guarantees_held

    def test_startup_failure_surfaces_the_captured_log(self, tmp_path):
        # Server output goes to a per-launch log file, not an undrained
        # pipe (which a chatty server could fill and block on); startup
        # failures quote it.
        proc = ServiceProcess(
            socket_path=str(tmp_path / "s.sock"),
            topology="no-such-topology",
        )
        with pytest.raises(FaultInjectionError, match="exited"):
            proc.start()
        assert os.path.exists(proc.log_path)
        assert proc.read_log()
        proc.stop()

    def test_lifecycle_guards(self, tmp_path):
        proc = ServiceProcess(socket_path=str(tmp_path / "s.sock"))
        with pytest.raises(FaultInjectionError):
            proc.kill()
        with pytest.raises(FaultInjectionError):
            proc.terminate()
        proc.stop()  # no-op on a never-started process
