"""Decision audit log: durability bookkeeping, rotation, verification."""

import json
import os
import shutil

import pytest

from repro.errors import ServiceError
from repro.experiments.cli import main
from repro.service.audit import (
    AUDIT_SCHEMA,
    AuditLog,
    admit_entry,
    audit_to_trace_events,
    flow_set_digest,
    iter_audit,
    release_entry,
    verify_audit,
)
from repro.traffic.flows import FlowSpec


def flow(i, src="r0", dst="r3"):
    return FlowSpec(f"f{i}", "voice", src, dst)


def make_log(tmp_path, **kwargs):
    return AuditLog(str(tmp_path / "audit.jsonl"), **kwargs)


class TestAuditLog:
    def test_header_then_sequenced_records(self, tmp_path):
        log = make_log(tmp_path, fsync_every=1)
        log.record_frame([admit_entry(flow(1), True, route=["r0", "r1"])])
        log.record_frame([release_entry("f1", True)])
        log.close()
        with open(log.path, encoding="utf-8") as fh:
            lines = [json.loads(l) for l in fh]
        assert lines[0] == {"schema": AUDIT_SCHEMA}
        # On disk: one frame line per call, holding its decisions.
        assert [(l["kind"], l["seq"], l["n"]) for l in lines[1:]] == [
            ("frame", 1, 1),
            ("frame", 2, 1),
        ]
        admit, release = iter_audit(log.path)
        assert admit["seq"] == 1 and release["seq"] == 2
        assert admit["kind"] == "admit"
        assert admit["flow"]["id"] == "f1"
        assert admit["route"] == ["r0", "r1"]
        assert "headroom" not in admit
        assert release["kind"] == "release"
        assert release["released"] is True

    def test_sequence_continues_across_reopen(self, tmp_path):
        log = make_log(tmp_path, fsync_every=1)
        log.record_frame([admit_entry(flow(1), True)])
        log.close()
        log = make_log(tmp_path, fsync_every=1)
        seq = log.record_frame([admit_entry(flow(2), True)])
        log.close()
        assert seq == 2
        records = list(iter_audit(log.path))
        assert [r["seq"] for r in records] == [1, 2]

    def test_fsync_batching_counts(self, tmp_path):
        log = make_log(tmp_path, fsync_every=3)
        for i in range(5):
            log.record_frame([admit_entry(flow(i), True)])
        # 3 synced at the batch boundary, 2 still buffered.
        assert log.records_written == 5
        assert log._unsynced == 2
        log.sync()
        assert log._unsynced == 0
        log.close()

    def test_markers_force_fsync(self, tmp_path):
        log = make_log(tmp_path, fsync_every=1000)
        log.record_frame([admit_entry(flow(1), True)])
        log.mark_snapshot(["f1"])
        assert log._unsynced == 0
        log.close()

    def test_rotation_keeps_bounded_history(self, tmp_path):
        log = make_log(tmp_path, fsync_every=1, max_bytes=1024, keep=2)
        for i in range(200):
            log.record_frame([admit_entry(flow(i), True)])
        log.close()
        assert os.path.exists(log.path + ".1")
        assert not os.path.exists(log.path + ".3")
        # Reads cross rotated files oldest-first with seqs increasing,
        # and each rotated file restates the schema header.
        records = list(iter_audit(log.path))
        seqs = [r["seq"] for r in records]
        assert seqs == sorted(seqs)
        assert seqs[-1] == 200
        with open(log.path + ".1", encoding="utf-8") as fh:
            assert json.loads(fh.readline()) == {"schema": AUDIT_SCHEMA}

    def test_every_kept_rotation_is_read(self, tmp_path):
        # Whatever ``keep`` is: the reader once stopped at path.16, so
        # path.17 .. path.20 were kept but never read.
        log = make_log(tmp_path, fsync_every=1, max_bytes=1024, keep=20)
        for i in range(400):
            log.record_frame([admit_entry(flow(i), True)])
        log.close()
        assert os.path.exists(log.path + ".20")
        kept = []
        for name in [f"{log.path}.{i}" for i in range(20, 0, -1)] + [log.path]:
            with open(name, encoding="utf-8") as fh:
                kept += [json.loads(line) for line in fh][1:]
        seqs = [r["seq"] for r in iter_audit(log.path)]
        assert seqs == [r["seq"] for r in kept]
        assert seqs == list(range(seqs[0], 401))

    def test_closed_log_rejects_appends(self, tmp_path):
        log = make_log(tmp_path)
        log.close()
        with pytest.raises(ServiceError):
            log.record_frame([release_entry("f1", True)])

    def test_constructor_validation(self, tmp_path):
        with pytest.raises(ServiceError):
            AuditLog("")
        with pytest.raises(ServiceError):
            make_log(tmp_path, fsync_every=0)
        with pytest.raises(ServiceError):
            make_log(tmp_path, max_bytes=10)
        with pytest.raises(ServiceError):
            make_log(tmp_path, keep=0)

    def test_torn_tail_line_is_ignored(self, tmp_path):
        log = make_log(tmp_path, fsync_every=1)
        log.record_frame([admit_entry(flow(1), True)])
        log.close()
        with open(log.path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "admit", "seq": 2, "trunc')
        assert [r["seq"] for r in iter_audit(log.path)] == [1]
        # A reopened log does not reuse the torn record's seq... it
        # scans only parsable lines, so the next seq may collide with
        # the torn one — which was never durable, so that is correct.
        log = make_log(tmp_path, fsync_every=1)
        assert log.record_frame([admit_entry(flow(2), True)]) == 2
        log.close()
        # ... and starts a line of its own, not glued to the torn one.
        assert [r["seq"] for r in iter_audit(log.path)] == [1, 2]


def scanned_last_seq(path, keep=4):
    """The last seq a parse of every line of every file finds: how a
    restart used to continue the sequence, kept as the reference."""
    last = 0
    for name in [path] + [f"{path}.{i}" for i in range(1, keep + 1)]:
        if not os.path.exists(name):
            continue
        with open(name, encoding="utf-8") as fh:
            for line in fh:
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(obj.get("seq"), int):
                    last = max(last, obj["seq"] + obj.get("n", 1) - 1)
    return last


class TestRestartReadsOnlyTheTail:
    """A restart continues the sequence from the newest record, read
    backwards — the same number a scan of the whole history finds."""

    def reopened_seq(self, tmp_path, **kwargs):
        expected = scanned_last_seq(str(tmp_path / "audit.jsonl")) + 1
        log = make_log(tmp_path, fsync_every=1, **kwargs)
        seq = log.record_frame([release_entry("next", True)])
        log.close()
        assert seq == expected
        return seq

    def test_torn_tail_then_a_second_restart(self, tmp_path):
        log = make_log(tmp_path, fsync_every=1)
        log.record_frame([admit_entry(flow(i), True) for i in (1, 2)])
        log.close()
        with open(log.path, "a", encoding="utf-8") as fh:
            fh.write('{"kind":"frame","n":3,"seq":3,"ops":[{"f":')
        # The first restart ends the torn line and writes nothing...
        make_log(tmp_path).close()
        # ... so the next one meets it newline-terminated and skips it.
        assert self.reopened_seq(tmp_path) == 3

    def test_header_only_file_after_rotation(self, tmp_path):
        log = make_log(tmp_path, fsync_every=1, max_bytes=1024, keep=2)
        for i in range(1000):
            log.record_frame([admit_entry(flow(i), True)])
            if os.path.getsize(log.path) == len(
                json.dumps({"schema": AUDIT_SCHEMA}, separators=(",", ":"))
            ) + 1:
                break  # just rotated: the current file is its header
        log.close()
        assert [json.loads(l) for l in open(log.path)] == [
            {"schema": AUDIT_SCHEMA}
        ]
        assert self.reopened_seq(
            tmp_path, max_bytes=1024, keep=2
        ) == i + 2

    def test_a_frame_ending_the_log_holds_n_seqs(self, tmp_path):
        log = make_log(tmp_path, fsync_every=1)
        log.mark_restore([])
        assert log.record_frame(
            [admit_entry(flow(i), True) for i in range(5)]
        ) == 2
        log.close()
        assert self.reopened_seq(tmp_path) == 2 + 5

    def test_a_last_frame_longer_than_a_read_block(self, tmp_path):
        log = make_log(tmp_path, fsync_every=1)
        log.record_frame([admit_entry(flow(0), True)])
        log.record_frame(
            [admit_entry(flow(i), True, route=["r0", "r3"])
             for i in range(3000)]
        )
        log.close()
        assert os.path.getsize(log.path) > 3 * 64 * 1024
        assert self.reopened_seq(tmp_path) == 3002

    def test_a_long_log_costs_a_bounded_number_of_parses(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "audit.jsonl"
        entries = ",".join(
            json.dumps({"f": {"id": f"f{i}", "cls": "voice"}, "ok": True})
            for i in range(10)
        )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"schema": AUDIT_SCHEMA}) + "\n")
            seq = 1
            while fh.tell() < 10 * 2**20:
                fh.write(
                    f'{{"kind":"frame","n":10,"ops":[{entries}],'
                    f'"seq":{seq},"ts":0.0}}\n'
                )
                seq += 10
        parses = []
        loads = json.loads

        def counting(*args, **kwargs):
            parses.append(1)
            return loads(*args, **kwargs)

        monkeypatch.setattr(json, "loads", counting)
        log = AuditLog(str(path))
        log.close()
        assert log._next_seq == seq
        assert len(parses) <= 2


class TestOnlyAnAuditLogVerifies:
    """``audit --verify`` certifies an audit log and nothing else, and
    says how many lines it could not read."""

    def test_a_file_that_is_not_an_audit_log_is_refused(self, tmp_path, capsys):
        path = tmp_path / "garbage.jsonl"
        path.write_text("garbage\n")
        with pytest.raises(ServiceError, match="garbage.jsonl is not an audit log"):
            list(iter_audit(str(path)))
        assert main(["audit", str(path), "--verify"]) == 1
        out = capsys.readouterr().out
        assert "FAILURE:" in out and "None" in out
        assert "audit log is consistent" not in out

    def test_records_without_the_header_are_refused(self, tmp_path):
        log = make_log(tmp_path, fsync_every=1)
        log.record_frame([admit_entry(flow(1), True)])
        log.close()
        with open(log.path, encoding="utf-8") as fh:
            header, *records = fh.readlines()
        assert json.loads(header) == {"schema": AUDIT_SCHEMA}
        with open(log.path, "w", encoding="utf-8") as fh:
            fh.writelines(['{"schema": "repro-admission-audit/v0"}\n'] + records)
        with pytest.raises(ServiceError, match="'repro-admission-audit/v0'"):
            list(iter_audit(log.path))

    def test_verify_counts_the_torn_line_it_skipped(self, tmp_path, capsys):
        log = make_log(tmp_path, fsync_every=1)
        log.record_frame([admit_entry(flow(1), True)])
        log.close()
        with open(log.path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "admit", "seq": 2, "trunc')
        reader = iter_audit(log.path)
        assert [r["seq"] for r in reader] == [1]
        assert reader.undecodable == 1
        assert main(["audit", log.path, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "; 1 undecodable lines skipped" in out
        assert "audit log is consistent" in out


class TestVerifyAudit:
    def run_log(self, tmp_path):
        log = make_log(tmp_path, fsync_every=1)
        log.mark_restore([])
        log.record_frame([admit_entry(flow(1), True)])
        log.record_frame([admit_entry(flow(2), False, reason="utilization")])
        log.record_frame([release_entry("f1", True)])
        log.record_frame([release_entry("zz", False, error="not established")])
        log.record_frame([admit_entry(flow(3), True)])
        log.mark_snapshot(["f3"])
        log.close()
        return log

    def test_consistent_history_verifies(self, tmp_path):
        log = self.run_log(tmp_path)
        report = verify_audit(iter_audit(log.path))
        assert report["ok"], report["problems"]
        assert report["admits"] == 3
        assert report["admitted"] == 2
        assert report["rejected"] == 1
        assert report["released"] == 1
        assert report["release_errors"] == 1
        assert report["established"] == ["f3"]

    def test_restart_resumes_from_snapshot_marker(self, tmp_path):
        log = self.run_log(tmp_path)
        # Second launch: restore the snapshot cut, keep deciding.
        log = make_log(tmp_path, fsync_every=1)
        log.mark_restore(["f3"])
        log.record_frame([release_entry("f3", True)])
        log.close()
        report = verify_audit(iter_audit(log.path))
        assert report["ok"], report["problems"]
        assert report["restores"] == 2
        assert report["established"] == []

    def test_restore_from_unknown_cut_is_flagged(self, tmp_path):
        log = make_log(tmp_path, fsync_every=1)
        log.record_frame([admit_entry(flow(1), True)])
        log.mark_restore(["ghost"])  # no snapshot marker recorded this
        log.close()
        report = verify_audit(iter_audit(log.path))
        assert not report["ok"]
        assert any("unknown snapshot" in p for p in report["problems"])

    def test_seq_gap_detected(self, tmp_path):
        log = self.run_log(tmp_path)
        records = [
            r for r in iter_audit(log.path) if r["seq"] != 3
        ]
        report = verify_audit(records)
        assert not report["ok"]
        assert any("gap" in p for p in report["problems"])

    def test_double_admit_and_phantom_release_detected(self):
        base = {"ts": 0.0}
        records = [
            {**base, "seq": 1, "kind": "admit", "admitted": True,
             "flow": {"id": "a", "cls": "voice", "src": "x", "dst": "y"}},
            {**base, "seq": 2, "kind": "admit", "admitted": True,
             "flow": {"id": "a", "cls": "voice", "src": "x", "dst": "y"}},
            {**base, "seq": 3, "kind": "release", "released": True,
             "flow_id": "nope"},
        ]
        report = verify_audit(records)
        assert any("admitted twice" in p for p in report["problems"])
        assert any("non-established" in p for p in report["problems"])

    def test_snapshot_file_cross_check(self, tmp_path):
        log = self.run_log(tmp_path)
        snap = tmp_path / "snap.json"
        snap.write_text(json.dumps({"flows": [{"flow_id": "f3"}]}))
        report = verify_audit(
            iter_audit(log.path), snapshot=str(snap)
        )
        assert report["ok"], report["problems"]
        # A snapshot no durable marker accounts for must fail.
        snap.write_text(json.dumps({"flows": [{"flow_id": "other"}]}))
        report = verify_audit(
            iter_audit(log.path), snapshot=str(snap)
        )
        assert not report["ok"]
        assert any("no durable snapshot" in p for p in report["problems"])

    def test_snapshot_path_must_hold_an_object(self, tmp_path):
        snap = tmp_path / "bad.json"
        snap.write_text("[1, 2, 3]")
        with pytest.raises(ServiceError):
            verify_audit([], snapshot=str(snap))


#: A log in the one-line-per-decision form (written by the service at
#: commit ba220e4, before frames): rejections, check_admit errors, a
#: preemption rescue whose victim was admitted in the same batch (so its
#: admit carries no route), traced requests, restore and snapshot
#: markers.  Beside it, the trace its reader produced.
PER_OP_LOG = os.path.join(
    os.path.dirname(__file__), "data", "audit_per_op.jsonl"
)
PER_OP_TRACE = PER_OP_LOG.replace(".jsonl", ".trace.jsonl")

#: What ``verify_audit`` reported on it when it was written.
PER_OP_REPORT = {
    "ok": True,
    "problems": [],
    "last_seq": 19,
    "established": ["e0", "e1", "e2", "e3", "e4", "h0", "t0"],
    "records": 19,
    "admits": 13,
    "admitted": 10,
    "rejected": 1,
    "admit_errors": 2,
    "releases": 4,
    "released": 3,
    "release_errors": 1,
    "preempted": 1,
    "snapshots": 1,
    "restores": 1,
}


class TestFrames:
    def test_per_op_log_reads_as_it_always_did(self):
        from repro.workload.trace import trace_lines

        records = list(iter_audit(PER_OP_LOG))
        assert verify_audit(records) == PER_OP_REPORT
        with open(PER_OP_TRACE, encoding="utf-8") as fh:
            expected = fh.read().splitlines()
        assert list(trace_lines(audit_to_trace_events(records))) == expected

    def test_frame_expands_to_the_per_op_records(self, tmp_path):
        log = make_log(tmp_path, fsync_every=1)
        trace = {"trace_id": "t" * 32, "parent_id": "p" * 16}
        first = log.record_frame([
            admit_entry(flow(1), True, route=["r0", "r3"], trace=trace),
            admit_entry(flow(2), False, reason="full", route=["r0", "r3"]),
            admit_entry(flow(3), False, error="unknown class 'x'"),
            release_entry("f9", True, reason="preempted"),
            release_entry("zz", False, error="not established"),
        ])
        log.close()
        assert first == 1 and log.records_written == 5
        records = list(iter_audit(log.path))
        assert [r["seq"] for r in records] == [1, 2, 3, 4, 5]
        assert len({r["ts"] for r in records}) == 1  # one ts per frame
        for record in records:
            del record["seq"], record["ts"]
        assert records == [
            {"kind": "admit", "flow": flow(1).to_obj(), "admitted": True,
             "route": ["r0", "r3"], "trace": trace},
            {"kind": "admit", "flow": flow(2).to_obj(), "admitted": False,
             "reason": "full", "route": ["r0", "r3"]},
            {"kind": "admit", "flow": flow(3).to_obj(), "admitted": False,
             "error": "unknown class 'x'"},
            {"kind": "release", "flow_id": "f9", "released": True,
             "reason": "preempted"},
            {"kind": "release", "flow_id": "zz", "released": False,
             "error": "not established"},
        ]

    def test_log_switching_to_frames_at_a_restart_verifies(self, tmp_path):
        path = str(tmp_path / "audit.jsonl")
        shutil.copyfile(PER_OP_LOG, path)
        # The next launch resumes from the per-op log's snapshot cut and
        # writes frames after it: one gap-free sequence.
        log = AuditLog(path, fsync_every=1)
        log.mark_restore(PER_OP_REPORT["established"])
        log.record_frame([
            release_entry("e1", True),
            admit_entry(flow(7), True, route=["r0", "r1", "r2", "r3"]),
        ])
        log.mark_snapshot(
            sorted(set(PER_OP_REPORT["established"]) - {"e1"} | {"f7"})
        )
        log.close()
        records = list(iter_audit(path))
        assert [r["seq"] for r in records] == list(range(1, 24))
        report = verify_audit(records)
        assert report["ok"], report["problems"]
        assert report["restores"] == 2 and report["snapshots"] == 2
        assert "f7" in report["established"]
        assert "e1" not in report["established"]

    def test_torn_final_frame_is_ignored(self, tmp_path):
        log = make_log(tmp_path, fsync_every=1)
        log.record_frame([admit_entry(flow(i), True) for i in (1, 2)])
        log.close()
        with open(log.path, "a", encoding="utf-8") as fh:
            fh.write('{"kind":"frame","n":3,"ops":[{"f":{"id":"f3"')
        assert [r["seq"] for r in iter_audit(log.path)] == [1, 2]
        # The torn frame was never durable: its seqs are handed out again.
        log = make_log(tmp_path, fsync_every=1)
        assert log.record_frame([release_entry("f1", True)]) == 3
        log.close()
        records = list(iter_audit(log.path))
        assert [r["seq"] for r in records] == [1, 2, 3]
        assert verify_audit(records)["ok"]

    def test_fsync_every_counts_decisions(self, tmp_path):
        log = make_log(tmp_path, fsync_every=4)
        log.record_frame([admit_entry(flow(i), True) for i in range(3)])
        assert log._unsynced == 3
        log.record_frame([admit_entry(flow(i), True) for i in range(3, 5)])
        assert log._unsynced == 0  # 5 decisions >= 4: synced
        assert log.records_written == 5
        log.close()

    def test_malformed_frame_is_reported_not_raised(self, tmp_path):
        log = make_log(tmp_path, fsync_every=1)
        log.record_frame([admit_entry(flow(1), True)])
        log.close()
        with open(log.path, "a", encoding="utf-8") as fh:
            fh.write('{"kind":"frame","n":1,"seq":2,"ts":0.0}\n')
        report = verify_audit(iter_audit(log.path))
        assert not report["ok"]
        assert any("'frame'" in p for p in report["problems"])


class TestFlowSetDigest:
    def test_order_independent(self):
        assert flow_set_digest(["a", "b"]) == flow_set_digest(["b", "a"])

    def test_distinguishes_sets(self):
        assert flow_set_digest(["a"]) != flow_set_digest(["b"])
        assert flow_set_digest([]) != flow_set_digest(["a"])

    def test_empty_set_digest_is_stable(self):
        # Restore markers on fresh boots carry this exact digest.
        assert flow_set_digest([]) == "e3b0c44298fc1c14"


class TestAuditToTraceEvents:
    def test_accepted_load_becomes_replayable_events(self, tmp_path):
        log = make_log(tmp_path, fsync_every=1)
        log.record_frame([admit_entry(
            flow(1), True, route=["r0", "r1", "r2", "r3"]
        )])
        log.record_frame([admit_entry(flow(2), False, reason="full")])
        log.record_frame([release_entry("f1", True)])
        log.record_frame([release_entry("zz", False, error="unknown")])
        log.close()
        events = audit_to_trace_events(iter_audit(log.path))
        assert [e.kind for e in events] == ["arrival", "departure"]
        arrival, departure = events
        assert arrival.flow_id == "f1"
        assert arrival.route == ("r0", "r1", "r2", "r3")
        assert departure.flow_id == "f1"
        assert events[0].time == 0.0  # rebased to start at zero
        assert departure.time >= arrival.time
