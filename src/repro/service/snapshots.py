"""Crash-safe snapshots of a serving admission controller.

A snapshot is the controller's established-flow list with every flow's
**committed route pinned**, plus the utilization assignment for sanity
checking — exactly the state a restarted server needs to re-admit its
flows on the same paths before accepting new traffic (the
:mod:`repro.faults` survivor guarantee, extended across process death).

Writes are atomic and durable: serialize to ``<path>.tmp``, ``fsync``,
then ``os.replace`` onto the final name — a ``kill -9`` at any instant
leaves either the previous snapshot or the new one, never a torn file.
"""

from __future__ import annotations

import json
import os
import time
from typing import TYPE_CHECKING, Any, Callable, Dict, Hashable, List, Optional, Sequence

from ..errors import ServiceError

if TYPE_CHECKING:
    from ..admission.utilization import UtilizationAdmissionController

__all__ = [
    "SNAPSHOT_SCHEMA",
    "SnapshotStore",
    "merge_cluster_snapshot",
    "service_snapshot",
    "split_cluster_snapshot",
]

SNAPSHOT_SCHEMA = "repro-admission-snapshot/v1"


def service_snapshot(
    controller: UtilizationAdmissionController,
) -> Dict[str, Any]:
    """``controller.snapshot()`` under the service schema tag: every
    flow on its committed route, with its ``priority`` when it has one
    (:func:`repro.traffic.flows.flow_record` writes the records)."""
    return {"schema": SNAPSHOT_SCHEMA, **controller.snapshot()}


def _flow_key(flow_id: Hashable) -> Hashable:
    """Type-tagged identity so ``1`` and ``"1"`` never collide."""
    return ("s" if isinstance(flow_id, str) else "i", flow_id)


def merge_cluster_snapshot(
    shards: Sequence[Optional[Dict[str, Any]]],
) -> Dict[str, Any]:
    """Combine per-worker shard snapshots into one cluster manifest.

    ``shards[i]`` is worker ``i``'s ``repro-admission-snapshot/v1``
    snapshot (``None`` when that worker has not written one yet).  The
    result is itself schema-``v1`` — a single-server restore accepts it
    unchanged — with two additions: every flow record carries the
    ``worker`` that committed it, and a top-level ``cluster`` object
    records the worker count the cut was taken under, so a restarted
    supervisor can re-partition survivors onto their original owners
    (or re-hash them when the cluster was resized).

    Raises :class:`ServiceError` on mixed utilization assignments or a
    flow id committed by two shards — either means the shards are not
    one consistent cut.
    """
    alphas: Optional[Dict[str, Any]] = None
    flows: List[Dict[str, Any]] = []
    seen: Dict[Hashable, int] = {}
    present: List[int] = []
    for idx, shard in enumerate(shards):
        if shard is None:
            continue
        if (
            not isinstance(shard, dict)
            or shard.get("schema") != SNAPSHOT_SCHEMA
        ):
            raise ServiceError(
                f"worker {idx} snapshot has schema "
                f"{shard.get('schema') if isinstance(shard, dict) else None!r}, "
                f"expected {SNAPSHOT_SCHEMA!r}"
            )
        present.append(idx)
        shard_alphas = dict(shard.get("alphas", {}))
        if alphas is None:
            alphas = shard_alphas
        elif shard_alphas != alphas:
            raise ServiceError(
                f"worker {idx} snapshot was taken under a different "
                "utilization assignment than its peers"
            )
        for item in shard.get("flows", []):
            key = _flow_key(item["flow_id"])
            if key in seen:
                raise ServiceError(
                    f"flow {item['flow_id']!r} appears in worker "
                    f"{seen[key]} and worker {idx} snapshots — "
                    "shards are not disjoint"
                )
            seen[key] = idx
            flows.append({**item, "worker": idx})
    return {
        "schema": SNAPSHOT_SCHEMA,
        "alphas": dict(alphas or {}),
        "flows": flows,
        "cluster": {"workers": len(shards), "present": present},
    }


def split_cluster_snapshot(
    manifest: Dict[str, Any],
    workers: int,
    assign: Callable[[Hashable], int],
) -> List[Dict[str, Any]]:
    """Per-worker shard snapshots from a cluster manifest.

    The inverse of :func:`merge_cluster_snapshot` for restart: when the
    manifest was taken under the same ``workers`` count, every flow goes
    back to the worker that committed it (exact pre-crash partition);
    otherwise — a resized cluster, or a plain single-server snapshot
    being scaled out — flows are assigned by ``assign(flow_id)``
    (typically the cluster's consistent-hash ring).  Committed routes
    are preserved verbatim either way.
    """
    if workers < 1:
        raise ServiceError(f"need at least one worker, got {workers}")
    if (
        not isinstance(manifest, dict)
        or manifest.get("schema") != SNAPSHOT_SCHEMA
    ):
        raise ServiceError(
            f"manifest has schema "
            f"{manifest.get('schema') if isinstance(manifest, dict) else None!r}, "
            f"expected {SNAPSHOT_SCHEMA!r}"
        )
    stored = manifest.get("cluster", {})
    use_stored = (
        isinstance(stored, dict) and stored.get("workers") == workers
    )
    alphas = dict(manifest.get("alphas", {}))
    shards: List[Dict[str, Any]] = [
        {"schema": SNAPSHOT_SCHEMA, "alphas": dict(alphas), "flows": []}
        for _ in range(workers)
    ]
    for item in manifest.get("flows", []):
        owner = item.get("worker")
        if not (
            use_stored
            and isinstance(owner, int)
            and not isinstance(owner, bool)
            and 0 <= owner < workers
        ):
            owner = int(assign(item["flow_id"]))
        shards[owner]["flows"].append(
            {k: v for k, v in item.items() if k != "worker"}
        )
    return shards


class SnapshotStore:
    """Atomic on-disk persistence for service snapshots."""

    def __init__(self, path: str):
        if not path:
            raise ServiceError("snapshot path must be non-empty")
        self.path = str(path)
        self.writes = 0
        # Snapshot age for telemetry: seed from an existing file's mtime
        # so a restarted server reports the age of the snapshot it
        # recovered from, not "never written".
        self.last_write_at: Optional[float] = None
        try:
            self.last_write_at = os.path.getmtime(self.path)
        except OSError:
            pass

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def write(self, snapshot: Dict[str, Any]) -> None:
        """Durably replace the stored snapshot (write-temp, fsync,
        rename)."""
        tmp = self.path + ".tmp"
        data = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(data)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        self.writes += 1
        self.last_write_at = time.time()

    def load(self) -> Optional[Dict[str, Any]]:
        """The stored snapshot, or None when the file does not exist."""
        if not self.exists():
            return None
        with open(self.path, "r", encoding="utf-8") as fh:
            try:
                snapshot = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ServiceError(
                    f"corrupt snapshot {self.path!r}: {exc}"
                ) from None
        if (
            not isinstance(snapshot, dict)
            or snapshot.get("schema") != SNAPSHOT_SCHEMA
        ):
            raise ServiceError(
                f"snapshot {self.path!r} has schema "
                f"{snapshot.get('schema') if isinstance(snapshot, dict) else None!r}, "
                f"expected {SNAPSHOT_SCHEMA!r}"
            )
        return snapshot

    def restore_into(
        self, controller: UtilizationAdmissionController
    ) -> int:
        """Re-admit a stored snapshot into a fresh controller.

        Returns the number of flows re-established (0 when no snapshot
        exists).  Every flow is admitted with its committed route
        pinned; a flow that no longer fits raises — the stored state
        was verified-admissible, so failure means a configuration
        mismatch the operator must see.
        """
        snapshot = self.load()
        if snapshot is None:
            return 0
        controller.restore(snapshot)
        return len(snapshot.get("flows", []))
