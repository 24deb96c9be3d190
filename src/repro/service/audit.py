"""Decision audit log (``repro-admission-audit/v1``).

Every admit/release the coalescer decides is appended as one JSON line:
flow identity, the decided route, the decision and its reason, the
per-route utilization headroom *after* the decision committed, and the
wire trace context when the caller propagated one — so any production
accept/reject is attributable long after the span ring buffer forgot
it.

Durability contract (what makes the log trustworthy across ``kill -9``):

* records are buffered but **fsynced every** ``fsync_every`` records;
* before the server writes a crash-safe snapshot it calls
  :meth:`AuditLog.mark_snapshot`, which fsyncs everything recorded so
  far and appends a ``snapshot`` marker carrying a digest of the
  established-flow set — *then* the snapshot file is written.  Any
  snapshot found on disk therefore corresponds to a marker already
  durable in the audit log, and every decision that led to it precedes
  that marker;
* a restarted server appends a ``restore`` marker (same digest scheme),
  and sequence numbers continue monotonically across restarts, so
  :func:`verify_audit` can replay the whole history — crash boundaries
  included — and prove no decision was lost or duplicated.

The log rotates (``path`` → ``path.1`` → … up to ``keep`` files) at
``max_bytes``; :func:`iter_audit` reads rotated files oldest-first.
:func:`audit_to_trace_events` converts a log back into a
``repro-workload-trace/v1`` event stream, so an audit log is itself
replayable through :func:`repro.service.replay.replay_events`.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import (
    IO,
    TYPE_CHECKING,
    Any,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Union,
)

from ..errors import ServiceError
from ..traffic.flows import FlowSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..workload.trace import TraceEvent

__all__ = [
    "AUDIT_SCHEMA",
    "AuditLog",
    "iter_audit",
    "verify_audit",
    "audit_to_trace_events",
]

AUDIT_SCHEMA = "repro-admission-audit/v1"

#: Record kinds appearing in an audit stream.
KINDS = ("admit", "release", "snapshot", "restore")


def flow_set_digest(flow_ids: Iterable[Hashable]) -> str:
    """Order-independent digest of an established-flow id set.

    Snapshot and restore markers carry this digest instead of the full
    id list, so markers stay O(1) while :func:`verify_audit` can still
    match a restore to the exact snapshot cut it resumed from.
    """
    blob = "\n".join(sorted(json.dumps(fid) for fid in flow_ids))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class AuditLog:
    """Rotating, fsync-batched JSON-lines decision log."""

    def __init__(
        self,
        path: str,
        *,
        fsync_every: int = 256,
        max_bytes: Optional[int] = None,
        keep: int = 4,
    ):
        if not path:
            raise ServiceError("audit path must be non-empty")
        if fsync_every < 1:
            raise ServiceError(
                f"fsync_every must be >= 1, got {fsync_every}"
            )
        if max_bytes is not None and max_bytes < 1024:
            raise ServiceError(
                f"max_bytes must be >= 1024, got {max_bytes}"
            )
        if keep < 1:
            raise ServiceError(f"keep must be >= 1, got {keep}")
        self.path = str(path)
        self.fsync_every = int(fsync_every)
        self.max_bytes = max_bytes
        self.keep = int(keep)
        self.records_written = 0
        self._unsynced = 0
        #: Next sequence number; continues across restarts by scanning
        #: the existing file tail, so the whole multi-launch history is
        #: one gap-free sequence.
        self._next_seq = self._scan_last_seq() + 1
        self._fh: Optional[IO[str]] = open(
            self.path, "a", encoding="utf-8"
        )
        if self._fh.tell() == 0:
            self._write_obj({"schema": AUDIT_SCHEMA})

    # ------------------------------------------------------------ io

    def _scan_last_seq(self) -> int:
        last = 0
        for candidate in (self.path,) + tuple(
            f"{self.path}.{i}" for i in range(1, self.keep + 1)
        ):
            try:
                with open(candidate, "r", encoding="utf-8") as fh:
                    for line in fh:
                        line = line.strip()
                        if not line:
                            continue
                        try:
                            obj = json.loads(line)
                        except json.JSONDecodeError:
                            continue  # torn tail line from a crash
                        seq = obj.get("seq")
                        if isinstance(seq, int) and seq > last:
                            last = seq
            except OSError:
                continue
        return last

    def _write_obj(self, obj: Dict[str, Any]) -> None:
        assert self._fh is not None
        self._fh.write(
            json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
        )

    def _append(self, obj: Dict[str, Any]) -> int:
        if self._fh is None:
            raise ServiceError("audit log is closed")
        seq = self._next_seq
        self._next_seq += 1
        obj["seq"] = seq
        obj["ts"] = time.time()
        self._write_obj(obj)
        self.records_written += 1
        self._unsynced += 1
        if self._unsynced >= self.fsync_every:
            self.sync()
        if (
            self.max_bytes is not None
            and self._fh.tell() >= self.max_bytes
        ):
            self._rotate()
        return seq

    def sync(self) -> None:
        """Flush + fsync everything appended so far."""
        if self._fh is not None and self._unsynced:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._unsynced = 0

    def _rotate(self) -> None:
        assert self._fh is not None
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        self._unsynced = 0
        overflow = f"{self.path}.{self.keep}"
        if os.path.exists(overflow):
            os.unlink(overflow)
        for i in range(self.keep - 1, 0, -1):
            src = f"{self.path}.{i}"
            if os.path.exists(src):
                os.replace(src, f"{self.path}.{i + 1}")
        os.replace(self.path, f"{self.path}.1")
        self._fh = open(self.path, "a", encoding="utf-8")
        self._write_obj({"schema": AUDIT_SCHEMA})

    def close(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None
            self._unsynced = 0

    def __enter__(self) -> "AuditLog":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------ records

    def record_admit(
        self,
        flow: FlowSpec,
        *,
        admitted: bool,
        reason: str = "",
        route: Optional[List[Hashable]] = None,
        headroom: Optional[int] = None,
        trace: Optional[Dict[str, str]] = None,
        error: Optional[str] = None,
    ) -> int:
        flow_obj = flow.to_obj()
        # The record's own ``route`` is the committed one; a requested
        # route is not repeated inside ``flow``.
        flow_obj.pop("route", None)
        obj: Dict[str, Any] = {
            "kind": "admit",
            "flow": flow_obj,
            "admitted": bool(admitted),
        }
        if reason:
            obj["reason"] = reason
        if route is not None:
            obj["route"] = list(route)
        if headroom is not None:
            obj["headroom"] = int(headroom)
        if trace is not None:
            obj["trace"] = trace
        if error is not None:
            obj["error"] = error
        return self._append(obj)

    def record_release(
        self,
        flow_id: Hashable,
        *,
        ok: bool,
        reason: Optional[str] = None,
        trace: Optional[Dict[str, str]] = None,
        error: Optional[str] = None,
    ) -> int:
        """``reason`` tags non-caller-initiated releases (e.g.
        ``"preempted"`` when the overload control plane evicted the
        flow); plain releases omit the key, keeping existing logs
        byte-identical."""
        obj: Dict[str, Any] = {
            "kind": "release",
            "flow_id": flow_id,
            "released": bool(ok),
        }
        if reason is not None:
            obj["reason"] = reason
        if trace is not None:
            obj["trace"] = trace
        if error is not None:
            obj["error"] = error
        return self._append(obj)

    def mark_snapshot(self, flow_ids: Iterable[Hashable]) -> int:
        """Durable pre-snapshot cut: fsync the log, then the marker.

        Call *before* writing the snapshot file — the ordering is what
        guarantees any snapshot found on disk is fully accounted for by
        the audit log.
        """
        ids = list(flow_ids)
        seq = self._append(
            {
                "kind": "snapshot",
                "established": len(ids),
                "digest": flow_set_digest(ids),
            }
        )
        self._unsynced = max(self._unsynced, 1)  # force the fsync
        self.sync()
        return seq

    def mark_restore(self, flow_ids: Iterable[Hashable]) -> int:
        """Record a startup restore of the given established set."""
        ids = list(flow_ids)
        seq = self._append(
            {
                "kind": "restore",
                "restored": len(ids),
                "digest": flow_set_digest(ids),
            }
        )
        self._unsynced = max(self._unsynced, 1)
        self.sync()
        return seq


# ------------------------------------------------------------------ #
# readers
# ------------------------------------------------------------------ #


def iter_audit(path: str, *, keep: int = 16) -> Iterator[Dict[str, Any]]:
    """Yield audit records oldest-first across rotated files.

    Header lines are skipped; a torn final line (crash mid-append) is
    ignored, matching the durability contract — an unsynced record was
    never guaranteed.
    """
    if not os.path.exists(path):
        raise ServiceError(f"audit log {path!r} does not exist")
    files = [
        f"{path}.{i}"
        for i in range(keep, 0, -1)
        if os.path.exists(f"{path}.{i}")
    ] + [path]
    for filename in files:
        with open(filename, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if not isinstance(obj, dict) or "seq" not in obj:
                    if (
                        isinstance(obj, dict)
                        and obj.get("schema") == AUDIT_SCHEMA
                    ):
                        continue  # per-file header
                    continue
                yield obj


def verify_audit(
    records: Iterable[Dict[str, Any]],
    snapshot: Optional[Union[str, Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """Replay an audit stream and check its integrity invariants.

    Checks: sequence numbers strictly increase with no gaps or
    duplicates; admits/releases replay to a consistent established set
    (no double-admit, no release of an absent flow); snapshot markers
    match the replayed set at their cut; restore markers resume from a
    set some earlier snapshot marker recorded.  When ``snapshot`` (a
    loaded ``repro-admission-snapshot/v1`` dict, or a path to one) is
    given, its flow set must match a durable snapshot marker.

    Returns a report dict; ``report["ok"]`` is True when every
    invariant held, with human-readable ``problems`` otherwise.
    """
    if isinstance(snapshot, str):
        with open(snapshot, "r", encoding="utf-8") as fh:
            snapshot = json.load(fh)
        if not isinstance(snapshot, dict):
            raise ServiceError(
                "snapshot file does not hold a snapshot object"
            )
    problems: List[str] = []
    established: set = set()
    marker_sets: Dict[str, frozenset] = {}
    last_seq: Optional[int] = None
    counts = {
        "records": 0,
        "admits": 0,
        "admitted": 0,
        "rejected": 0,
        "admit_errors": 0,
        "releases": 0,
        "released": 0,
        "release_errors": 0,
        "preempted": 0,
        "snapshots": 0,
        "restores": 0,
    }
    for record in records:
        counts["records"] += 1
        seq = record.get("seq")
        if not isinstance(seq, int):
            problems.append(f"record without integer seq: {record!r}")
            continue
        if last_seq is not None:
            if seq <= last_seq:
                problems.append(
                    f"seq {seq} repeats or goes backwards "
                    f"(after {last_seq})"
                )
            elif seq != last_seq + 1:
                problems.append(
                    f"seq gap: {last_seq} -> {seq} "
                    f"({seq - last_seq - 1} records missing)"
                )
        last_seq = seq
        kind = record.get("kind")
        if kind == "admit":
            counts["admits"] += 1
            fid = record.get("flow", {}).get("id")
            if record.get("error") is not None:
                counts["admit_errors"] += 1
            elif record.get("admitted"):
                counts["admitted"] += 1
                if fid in established:
                    problems.append(
                        f"seq {seq}: flow {fid!r} admitted twice"
                    )
                established.add(fid)
            else:
                counts["rejected"] += 1
        elif kind == "release":
            counts["releases"] += 1
            fid = record.get("flow_id")
            if record.get("released"):
                counts["released"] += 1
                if record.get("reason") == "preempted":
                    counts["preempted"] += 1
                if fid not in established:
                    problems.append(
                        f"seq {seq}: release of non-established "
                        f"flow {fid!r}"
                    )
                established.discard(fid)
            else:
                counts["release_errors"] += 1
        elif kind == "snapshot":
            counts["snapshots"] += 1
            digest = record.get("digest", "")
            expected = flow_set_digest(established)
            if digest != expected:
                problems.append(
                    f"seq {seq}: snapshot marker digest {digest!r} "
                    f"does not match the replayed established set"
                )
            if record.get("established") != len(established):
                problems.append(
                    f"seq {seq}: snapshot marker counts "
                    f"{record.get('established')} established, "
                    f"replay has {len(established)}"
                )
            marker_sets[digest] = frozenset(established)
        elif kind == "restore":
            counts["restores"] += 1
            digest = record.get("digest", "")
            if record.get("restored", 0) == 0 and digest == flow_set_digest(()):
                established = set()
            elif digest in marker_sets:
                established = set(marker_sets[digest])
            else:
                problems.append(
                    f"seq {seq}: restore from unknown snapshot "
                    f"digest {digest!r} (decisions lost before the "
                    f"durable cut?)"
                )
                established = set()
        else:
            problems.append(f"seq {seq}: unknown record kind {kind!r}")
    if snapshot is not None:
        snap_ids = frozenset(
            item.get("flow_id") for item in snapshot.get("flows", [])
        )
        digest = flow_set_digest(snap_ids)
        if digest not in marker_sets:
            problems.append(
                "snapshot file matches no durable snapshot marker "
                f"(digest {digest!r}, {len(snap_ids)} flows)"
            )
        elif marker_sets[digest] != snap_ids:  # pragma: no cover - digest
            problems.append("snapshot digest collision")  # collision guard
    return {
        "ok": not problems,
        "problems": problems,
        "last_seq": last_seq,
        "established": sorted(established, key=lambda x: json.dumps(x)),
        **counts,
    }


def audit_to_trace_events(
    records: Iterable[Dict[str, Any]],
) -> List["TraceEvent"]:
    """Convert an audit log into replayable workload trace events.

    Admitted flows become arrivals (with their decided route pinned),
    successful releases become departures; rejected/error records are
    dropped — replaying the result reproduces the accepted load.  Event
    times are the audit timestamps rebased to start at zero.
    """
    from ..workload.trace import TraceEvent

    events: List[TraceEvent] = []
    t0: Optional[float] = None
    for record in records:
        kind = record.get("kind")
        if not (
            kind == "admit" and record.get("admitted")
            or kind == "release" and record.get("released")
        ):
            continue
        ts = float(record.get("ts", 0.0))
        if t0 is None:
            t0 = ts
        if kind == "admit":
            events.append(TraceEvent.arrival(ts - t0, FlowSpec.from_obj(
                {**record["flow"], "route": record.get("route")}
            )))
        else:
            events.append(TraceEvent.departure(ts - t0, record["flow_id"]))
    return events
