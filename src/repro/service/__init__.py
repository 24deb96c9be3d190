"""repro.service — the admission controller as a network service.

An asyncio server (:class:`~repro.service.server.AdmissionService`)
fronts the slot-ledger admission controller (or one shard of it) over
TCP or a Unix socket, speaking the newline-delimited JSON protocol of
:mod:`repro.service.protocol`
(``repro-admission-rpc/v1``).  Its core is the
:class:`~repro.service.coalescer.MicroBatchCoalescer`: each frame's ops
are decided as they are read, one controller call per run of one kind —
with decisions **bit-identical to sequential submission** — so the
service inherits the batch engine's throughput while clients keep the
one-request-one-response API.

Around the core: backpressure through the socket (a connection's next
frame is read once the one before it is decided), graceful drain on
SIGTERM/SIGINT, and crash-safe periodic snapshots
(:mod:`repro.service.snapshots`) so a restarted server re-admits its
established flows on their original routes before accepting new
traffic.

For multi-core scale-out, :class:`~repro.service.cluster.ClusterSupervisor`
runs N worker processes — each a full :class:`AdmissionService` owning
shard ``i``/``N`` of the verified slot capacity
(:class:`~repro.admission.SlotShardController`) — behind one
:class:`~repro.service.router.ClusterRouter` front door that dispatches
flows by consistent hash.  The wire protocol is unchanged and the
per-worker crash-safe snapshots merge into a single cluster manifest
(:func:`~repro.service.snapshots.merge_cluster_snapshot`).

Client side, :class:`~repro.service.client.ServiceClient` (sync) and
:class:`~repro.service.client.AsyncServiceClient` (asyncio) pipeline
requests and retry ``overloaded`` answers (the router's per-link bound)
under a backoff policy;
:func:`~repro.service.replay.replay_events` replays workload traces at
a live server.  CLI entry points: ``repro-ubac serve`` and
``repro-ubac client``.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .audit import (
        AUDIT_SCHEMA,
        AuditLog,
        audit_to_trace_events,
        flow_set_digest,
        iter_audit,
        verify_audit,
    )
    from .client import AsyncServiceClient, ServiceClient, WireDecision
    from .cluster import ClusterConfig, ClusterSupervisor
    from .coalescer import MicroBatchCoalescer
    from .http import MetricsEndpoint
    from .protocol import JSON_BACKEND, MAX_FRAME_BYTES, OPS, PROTOCOL_SCHEMA
    from .replay import replay_events
    from .router import ClusterRouter, HashRing
    from .server import AdmissionService, ServiceConfig
    from .snapshots import (
        SNAPSHOT_SCHEMA,
        SnapshotStore,
        merge_cluster_snapshot,
        service_snapshot,
        split_cluster_snapshot,
    )

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".audit": (
        "AUDIT_SCHEMA", "AuditLog", "audit_to_trace_events", "flow_set_digest",
        "iter_audit", "verify_audit",
    ),
    ".client": ("AsyncServiceClient", "ServiceClient", "WireDecision"),
    ".cluster": ("ClusterConfig", "ClusterSupervisor"),
    ".coalescer": ("MicroBatchCoalescer",),
    ".http": ("MetricsEndpoint",),
    ".protocol": ("JSON_BACKEND", "MAX_FRAME_BYTES", "OPS", "PROTOCOL_SCHEMA"),
    ".replay": ("replay_events",),
    ".router": ("ClusterRouter", "HashRing"),
    ".server": ("AdmissionService", "ServiceConfig"),
    ".snapshots": (
        "SNAPSHOT_SCHEMA", "SnapshotStore", "merge_cluster_snapshot",
        "service_snapshot", "split_cluster_snapshot",
    ),
})
