"""Decision audit log (``repro-admission-audit/v1``).

Every decision step of the coalescer is appended as **one** JSON line,
a ``frame``: the sequence number of its first decision, the decision
count, one timestamp, and the decisions in ledger order as compact
entries — flow identity, the decision and its reason, the committed
route, the error the sequential API raised, and the wire trace context
when the caller propagated one — so any production accept/reject is
attributable long after the span ring buffer forgot it.  A frame of
``n`` decisions holds sequence numbers ``seq .. seq + n - 1``.

:func:`iter_audit` is the one reader: it expands every frame back into
one record per decision (``kind`` ``admit`` / ``release``, the form
this log used to be written in one line per decision — logs in that
form, or switching to frames at a restart, read the same way), so
:func:`verify_audit` and :func:`audit_to_trace_events` only ever see
per-decision records.

Durability contract (what makes the log trustworthy across ``kill -9``):

* records are buffered but **fsynced every** ``fsync_every`` decisions
  (checked after each frame, so a frame is never split);
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
replayable: by :func:`repro.workload.loadgen.drive` in process, or at a
live server by the :func:`repro.service.replay.replay_events` coroutine.
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
    Sequence,
    Union,
)

from ..errors import ServiceError
from ..traffic.flows import FlowSpec
from .protocol import encode_json

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..workload.trace import TraceEvent

__all__ = [
    "AUDIT_SCHEMA",
    "AuditLog",
    "admit_entry",
    "release_entry",
    "iter_audit",
    "verify_audit",
    "audit_to_trace_events",
]

AUDIT_SCHEMA = "repro-admission-audit/v1"

#: Optional frame entry keys -> per-decision record keys.  Beside them
#: an admit entry carries ``f`` (the flow, short form) and a release
#: entry ``x`` (the flow id), both carry ``ok``.
_ENTRY_KEYS = (
    ("why", "reason"),
    ("r", "route"),
    ("err", "error"),
    ("tr", "trace"),
)


def _encode_entry(entry: Dict[str, Any]) -> bytes:
    # orjson hands back its whole working buffer (1 KiB for an entry of
    # ~100 B); a decision step keeps an entry per op until its frame is
    # written, so it keeps an exact-size copy.
    return memoryview(encode_json(entry)).tobytes()


def admit_entry(
    flow: FlowSpec,
    admitted: bool,
    *,
    reason: str = "",
    route: Optional[Sequence[Hashable]] = None,
    error: Optional[str] = None,
    trace: Optional[Dict[str, str]] = None,
) -> bytes:
    """Frame entry of one admit decision, encoded when it is decided (a
    decision step holds its entries as bytes, not objects).  ``route``
    is the committed one; a route the request pinned is not repeated
    inside the flow."""
    flow_obj = flow.to_obj()
    flow_obj.pop("route", None)
    entry: Dict[str, Any] = {"f": flow_obj, "ok": bool(admitted)}
    if reason:
        entry["why"] = reason
    if route is not None:
        entry["r"] = route
    if error is not None:
        entry["err"] = error
    if trace is not None:
        entry["tr"] = trace
    return _encode_entry(entry)


def release_entry(
    flow_id: Hashable,
    ok: bool,
    *,
    reason: Optional[str] = None,
    error: Optional[str] = None,
    trace: Optional[Dict[str, str]] = None,
) -> bytes:
    """Frame entry of one release, encoded.  ``reason`` tags a release
    the caller did not ask for (``"preempted"``: the overload control
    plane evicted the flow)."""
    entry: Dict[str, Any] = {"x": flow_id, "ok": bool(ok)}
    if reason is not None:
        entry["why"] = reason
    if error is not None:
        entry["err"] = error
    if trace is not None:
        entry["tr"] = trace
    return _encode_entry(entry)


def _expand_frame(frame: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The per-decision records of one frame line, in ledger order
    (``KeyError`` / ``TypeError`` on a malformed frame)."""
    seq, ts = frame["seq"], frame["ts"]
    records = []
    for i, entry in enumerate(frame["ops"]):
        if "f" in entry:
            record = {"kind": "admit", "flow": entry["f"]}
            record["admitted"] = entry["ok"]
        else:
            record = {"kind": "release", "flow_id": entry["x"]}
            record["released"] = entry["ok"]
        for short, long in _ENTRY_KEYS:
            if short in entry:
                record[long] = entry[short]
        record["seq"] = seq + i
        record["ts"] = ts
        records.append(record)
    return records


#: Bytes read per step when a restart looks for the log's last record.
_TAIL_BLOCK = 64 * 1024


def _lines_from_the_end(fh: IO[bytes]) -> Iterator[bytes]:
    """The newline-terminated lines of a binary file, last first; the
    bytes after its last newline end no line and are skipped."""
    pos = fh.seek(0, os.SEEK_END)
    head = b""  # the part of a line whose start is not read yet
    ended = False  # the file's last newline has been seen
    while pos > 0:
        step = min(pos, _TAIL_BLOCK)
        pos -= step
        fh.seek(pos)
        lines = (fh.read(step) + head).split(b"\n")
        head = lines.pop(0)
        if not ended and lines:
            lines.pop()  # after the last newline: a torn tail, or b""
            ended = True
        yield from reversed(lines)
    if ended:
        yield head


def _last_seq_in(path: str) -> Optional[int]:
    """The last sequence number the newest complete record of ``path``
    holds (a frame of ``n`` decisions holds ``seq .. seq + n - 1``), or
    ``None`` when it holds none.  Reads backwards, so a restart costs
    the same whatever the length of the log."""
    try:
        fh = open(path, "rb")
    except OSError:
        return None
    with fh:
        for line in _lines_from_the_end(fh):
            try:
                obj = json.loads(line)
            except ValueError:
                continue  # torn by a crash, then ended by a restart
            if isinstance(obj, dict) and isinstance(obj.get("seq"), int):
                return obj["seq"] + obj.get("n", 1) - 1
    return None


def _ends_a_line(path: str) -> bool:
    with open(path, "rb") as fh:
        fh.seek(-1, os.SEEK_END)
        return fh.read(1) == b"\n"


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

    #: The frame entry encoders, for a writer that holds the log (the
    #: coalescer) rather than importing this module.
    admit_entry = staticmethod(admit_entry)
    release_entry = staticmethod(release_entry)

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
        #: Next sequence number; continues across restarts from the
        #: newest record on disk — the current file's, or the newest
        #: rotated file's when it holds none (it was just rotated) — so
        #: the whole multi-launch history is one gap-free sequence.
        rotated = [f"{self.path}.{i}" for i in range(1, self.keep + 1)]
        lasts = (_last_seq_in(name) for name in [self.path] + rotated)
        self._next_seq = 1 + next((s for s in lasts if s is not None), 0)
        self._fh: Optional[IO[bytes]] = open(self.path, "ab")
        if self._fh.tell() == 0:
            self._write_obj({"schema": AUDIT_SCHEMA})
        elif not _ends_a_line(self.path):
            # A crash tore the last line: end it, so the next record
            # starts a line of its own instead of being glued to it.
            self._fh.write(b"\n")

    # ------------------------------------------------------------ io

    def _write_obj(self, obj: Dict[str, Any]) -> None:
        assert self._fh is not None
        self._fh.write(encode_json(obj) + b"\n")

    def _append(self, obj: Dict[str, Any], ops: Sequence[bytes] = ()) -> int:
        """Write one record line; returns its sequence number.  A
        frame's ``ops`` (encoded entries) become its ``ops`` array, one
        sequence number each."""
        if self._fh is None:
            raise ServiceError("audit log is closed")
        seq = self._next_seq
        obj["seq"] = seq
        obj["ts"] = time.time()
        if not ops:
            self._write_obj(obj)  # a line that cannot be written takes no seq
        else:
            # "ops" sorts between "n" and "seq": splice the entries in
            # there and the line is the canonical encoding of the frame.
            line = encode_json(obj)
            at = line.index(b',"seq":')
            self._fh.writelines((
                line[:at], b',"ops":[', b",".join(ops), b"]",
                line[at:], b"\n",
            ))
        count = len(ops) or 1
        self._next_seq += count
        self.records_written += count
        self._unsynced += count
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
        self._fh = open(self.path, "ab")
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

    def record_frame(self, entries: Sequence[bytes]) -> int:
        """Append one decision step's entries (:func:`admit_entry` /
        :func:`release_entry`, in ledger order) as one ``frame`` line;
        returns the sequence number of the first."""
        if not entries:
            raise ServiceError("an audit frame holds at least one entry")
        return self._append({"kind": "frame", "n": len(entries)}, entries)

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


def iter_audit(path: str) -> "AuditRecords":
    """The audit records of ``path`` and its rotated files, oldest
    first, one per decision or marker: a ``frame`` line is expanded into
    its decisions, each with its own ``seq`` and the frame's ``ts``.

    Every non-empty file must open with the ``AUDIT_SCHEMA`` header; a
    file that does not is refused, naming the file and the schema it
    holds.  A line that does not parse (a torn final line: a crash
    mid-append) is skipped, matching the durability contract — an
    unsynced record was never guaranteed — and counted in
    ``undecodable``.  A frame that parses but cannot be expanded is
    yielded as it is, for :func:`verify_audit` to report.
    """
    return AuditRecords(path)


class AuditRecords:
    """The iterator :func:`iter_audit` returns.  ``undecodable`` counts
    the lines skipped so far because they did not parse."""

    def __init__(self, path: str):
        if not os.path.exists(path):
            raise ServiceError(f"audit log {path!r} does not exist")
        self.undecodable = 0
        self._records = self._read(path)

    def __iter__(self) -> "AuditRecords":
        return self

    def __next__(self) -> Dict[str, Any]:
        return next(self._records)

    def _read(self, path: str) -> Iterator[Dict[str, Any]]:
        # A writer keeps ``path.1`` .. ``path.<keep>`` with no gap, for
        # any ``keep``: read upward to the first missing one.
        files = [path]
        while os.path.exists(f"{path}.{len(files)}"):
            files.append(f"{path}.{len(files)}")
        for filename in reversed(files):
            with open(filename, "r", encoding="utf-8") as fh:
                first = fh.readline()
                if first:
                    _check_header(filename, first)
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        obj = json.loads(line)
                    except json.JSONDecodeError:
                        self.undecodable += 1
                        continue
                    if not isinstance(obj, dict) or "seq" not in obj:
                        continue  # a rotation's header (or not a record)
                    if obj.get("kind") != "frame":
                        yield obj
                        continue
                    try:
                        records = _expand_frame(obj)
                    except (KeyError, TypeError, AttributeError):
                        records = [obj]
                    yield from records


def _check_header(filename: str, line: str) -> None:
    """Refuse a file whose first line is not the audit header."""
    try:
        header = json.loads(line)
    except json.JSONDecodeError:
        header = None
    found = header.get("schema") if isinstance(header, dict) else None
    if found != AUDIT_SCHEMA:
        raise ServiceError(
            f"{filename} is not an audit log: its first line has schema "
            f"{found!r}, expected {AUDIT_SCHEMA!r}"
        )


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
