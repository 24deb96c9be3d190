"""Slot sharding: the one notion of "a shard" in this codebase.

The paper's run-time state is one slot counter per (link server,
class), and its safety argument only needs ``used <= verified slots``
on every server.  A *shard* is therefore just a
:class:`~repro.admission.ledger.UtilizationLedger` whose capacity is
one row of :func:`plan_slot_shards` — an exact integer partition of
every class's verified slot vector among ``n`` owners.  Each owner
(:class:`SlotShardController`, one per ``serve --workers N`` worker)
admits against its private row only, so decisions stay purely local and
the union of all owners' admissions can never over-commit a link no
matter how they interleave.

The price is capacity fragmentation: a flow can be rejected by its
owner while another owner still holds unused slots on the same links.
The Ext-L bench quantifies that against the shared ledger.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

import numpy as np

from ..errors import AdmissionError
from ..topology.servergraph import LinkServerGraph
from ..traffic.classes import ClassRegistry
from .base import Pair
from .utilization import UtilizationAdmissionController

__all__ = [
    "SlotShardController",
    "plan_slot_shards",
]


def plan_slot_shards(total_slots: np.ndarray, n_shards: int) -> np.ndarray:
    """Partition per-server slot capacity among ``n_shards`` owners.

    ``total_slots`` is the verified per-server slot vector of one class;
    the result is an ``(n_shards, n_servers)`` integer matrix whose
    columns sum to **exactly** ``total_slots`` — the partition never
    mints capacity, so any owner admitting against its private row
    preserves the certified utilization bound no matter how the owners
    interleave.

    The split is ``divmod``: every owner gets ``total // n_shards``
    slots of a server and the first ``total % n_shards`` owners one
    more, so the plan is deterministic and a restarted shard recomputes
    the row its snapshot was taken under.
    """
    if n_shards < 1:
        raise AdmissionError(f"need at least one shard, got {n_shards}")
    total = np.asarray(total_slots, dtype=np.int64)
    if total.ndim != 1:
        raise AdmissionError("total_slots must be one-dimensional")
    if np.any(total < 0):
        raise AdmissionError("total_slots must be non-negative")
    base, extra = np.divmod(total, n_shards)
    return base[None, :] + (np.arange(n_shards)[:, None] < extra[None, :])


class SlotShardController(UtilizationAdmissionController):
    """One worker's private shard of the verified slot capacity.

    The multi-process service cluster runs N copies of the admission
    server, each holding shard ``i`` of ``n`` produced by
    :func:`plan_slot_shards` over every class's verified slot vector.
    Decisions stay purely local (the paper's no-per-flow-core-state
    property is what makes the ledger partition cleanly), and because
    the shards sum to exactly the certified slots, the union of all
    workers' admissions can never over-commit a link no matter how their
    event loops interleave.

    The controller behaves exactly like
    :class:`~repro.admission.utilization.UtilizationAdmissionController`
    against the reduced ledger, so snapshots/restore, a limit (this
    worker's row of the limit's slots) and the batch kernel all work
    unchanged.  :meth:`snapshot` keeps the
    *full* verified alphas, which keeps shard snapshots mergeable into
    one cluster-wide `repro-admission-snapshot/v1` cut.
    """

    def __init__(
        self,
        graph: LinkServerGraph,
        registry: ClassRegistry,
        alphas: Mapping[str, float],
        route_map: Mapping[Pair, Sequence[Hashable]],
        *,
        shard_index: int,
        shard_count: int,
    ):
        super().__init__(graph, registry, alphas, route_map)
        if not 0 <= shard_index < shard_count:
            raise AdmissionError(
                f"shard index {shard_index} out of range "
                f"[0, {shard_count})"
            )
        self._shard = (shard_index, shard_count)
        # The ledger starts at the full verified capacity; install this
        # worker's share of it.
        for name in self._slot_classes:
            self.ledger.set_capacity(name, self._share(self.ledger.slots(name)))

    def _share(self, slots: np.ndarray) -> np.ndarray:
        index, count = self._shard
        return plan_slot_shards(slots, count)[index]

    def shard_slots(self, class_name: str) -> np.ndarray:
        """Per-server slot share this worker admits against."""
        return self.ledger.slots(class_name)
