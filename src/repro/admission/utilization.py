"""Utilization-based admission control — the paper's contribution.

At run time the controller performs the paper's entire admission test:
*is a flow slot free on every link server along the configured route?*
The safety argument lives entirely at configuration time — as long as the
utilization assignment passed verification (Figure 2) for the configured
routes, every admitted flow meets its class deadline, no matter which flows
are active.

Decision cost is O(path length) and **independent of the number of
established flows**, which is the scalability claim the benchmarks
measure.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import AdmissionError
from ..topology.servergraph import LinkServerGraph
from ..traffic.classes import ClassRegistry
from ..traffic.flows import (
    PRIORITY_TAGS,
    FlowSpec,
    flow_from_record,
    flow_record,
)
from .base import AdmissionController, Pair
from .batch import (
    PADDING_FREE,
    batch_slot_decisions,
    flat_committed_servers,
)
from .ledger import UtilizationLedger, granted_slots

__all__ = ["UtilizationAdmissionController"]

_ADMITTED = (True, "")


class UtilizationAdmissionController(AdmissionController):
    """O(path) admission control against a verified utilization assignment.

    Parameters
    ----------
    graph:
        Link-server expansion of the topology.
    registry:
        Traffic classes (real-time classes get ledgers).
    alphas:
        The *verified* per-class utilization assignment.  The controller
        trusts it; run :func:`repro.config.verify_safe_assignment` first.
    route_map:
        Configured route per source/destination pair (the same routes the
        verification certified).
    """

    def __init__(
        self,
        graph: LinkServerGraph,
        registry: ClassRegistry,
        alphas: Mapping[str, float],
        route_map: Mapping[Pair, Sequence[Hashable]],
    ):
        super().__init__(graph, registry, route_map)
        self.alphas = dict(alphas)
        self.ledger = UtilizationLedger(graph, registry, alphas)
        # The classes that hold slots (one ledger column each), with
        # their flow-table codes; any other class is best-effort.
        self._slot_classes = {
            c.name: self._class_codes[c.name]
            for c in registry.realtime_classes()
        }
        # What a flow whose path has a full server is told, per slot
        # class: one wording for the sequential and the batch path.
        self._full = {
            name: (False, f"utilization limit reached for class {name!r} on the path")
            for name in self._slot_classes
        }

    def _check_class(self, class_name: str) -> None:
        # A real-time class registered after this controller was built
        # has no verified utilization and no ledger column: admitting
        # it as best-effort would establish a deadline flow that holds
        # no slot.
        if (
            class_name not in self._slot_classes
            and self.registry.get(class_name).is_realtime
        ):
            raise AdmissionError(
                f"no verified utilization for real-time class "
                f"{class_name!r}"
            )

    def _admit_impl(
        self, flow: FlowSpec, route: Sequence[Hashable]
    ) -> Tuple[bool, str]:
        # Any other class is best-effort (check_admit refused unknown
        # names and unverified real-time ones): never blocked, never
        # guaranteed, no slot held.
        servers = self.servers_for(flow, route)
        if flow.class_name in self._slot_classes:
            if not self.ledger.try_reserve(flow.class_name, servers):
                return self._full[flow.class_name]
        self._establish(flow, servers)
        return _ADMITTED

    def _release_impl(self, code: int, servers: np.ndarray) -> None:
        name = self._class_names[code]
        if name in self._slot_classes:
            self.ledger.release(name, servers)

    def _admit_batch_impl(
        self,
        flows: Sequence[FlowSpec],
        routes: Sequence[Sequence[Hashable]],
    ) -> List[Tuple[bool, str]]:
        """Batch decision, sequential-identical by design.

        Classes hold independent ledgers, so the batch splits by class;
        within a class the kernel resolves intra-batch contention in
        original batch order.  Verdicts, reason strings and ledger
        occupancy match the per-flow loop exactly.
        """
        table = self._flows
        slot_classes = self._slot_classes
        pad = self.graph.num_servers
        n = len(flows)
        outcomes: List[Tuple[bool, str]] = [_ADMITTED] * n
        by_class: Dict[str, List[int]] = {}
        for i, flow in enumerate(flows):
            by_class.setdefault(flow.class_name, []).append(i)
        # Unknown names must still raise like the sequential path — and
        # before any state is mutated.
        codes = np.empty(n, dtype=np.int64)
        for name, members in by_class.items():
            codes[members] = self._class_code(name)
        # Every route is resolved before the first commit: one that
        # does not translate raises here, with nothing to undo.
        route_codes = self._route_codes(flows, routes)
        matrix = table.servers_matrix(route_codes)[0]
        admitted = np.ones(n, dtype=bool)
        for name, members in by_class.items():
            if name not in slot_classes:
                continue
            rows = matrix[members]
            free = np.empty(pad + 1, dtype=np.int64)
            np.subtract(
                self.ledger.capacity_view(name),
                self.ledger.used_view(name),
                out=free[:pad],
            )
            free[pad] = PADDING_FREE
            ok = batch_slot_decisions(rows, free)
            n_ok = int(np.count_nonzero(ok))
            if n_ok:
                self.ledger.commit_flat(
                    name, flat_committed_servers(rows, ok, pad), n_ok
                )
            if n_ok < len(members):
                admitted[members] = ok
                rejected = self._full[name]
                for r in np.flatnonzero(~ok).tolist():
                    outcomes[members[r]] = rejected
        # One flow-table write for the whole batch, in batch order:
        # snapshots list flows in the order they were established.  It
        # runs with no winner too: that frees a pinned route interned
        # for a refused flow.
        winners = np.flatnonzero(admitted)
        ids, tags, pins = [], [], []
        for i in winners.tolist():
            flow = flows[i]
            ids.append(flow.flow_id)
            tags.append(PRIORITY_TAGS[flow.priority])
            pins.append(flow.route is not None)
        table.add_routed(ids, codes[winners], route_codes[winners], tags, pins)
        return outcomes

    def _release_batch_impl(
        self, codes: np.ndarray, matrix: np.ndarray
    ) -> None:
        pad = self._flows.pad
        for name, code in self._slot_classes.items():
            mask = codes == code
            count = int(np.count_nonzero(mask))
            if count:
                held = matrix[mask]
                self.ledger.release_flat(name, held[held != pad], count)

    # ------------------------------------------------------------------ #
    # degraded operation (fault tolerance)
    # ------------------------------------------------------------------ #

    def block_servers(self, servers: Sequence[int]) -> None:
        """Stop admitting across dead link servers (capacity -> 0)."""
        self.ledger.block_servers(servers)

    def unblock_servers(self, servers: Sequence[int]) -> None:
        """Re-enable previously blocked link servers."""
        self.ledger.unblock_servers(servers)

    def limit(self, alphas: Optional[Mapping[str, float]]) -> None:
        """Admit against the slots of the per-class ``alphas`` as well
        as the verified ones; ``None`` lifts the limit.

        A governor rung applies the alphas its ladder certified; the
        graceful-degradation fallback, when a failure leaves no
        verified repair, a conservatively scaled copy of the verified
        ones.  Established flows are never evicted.
        """
        caps = self.graph.capacities
        self.ledger.limit(None if alphas is None else {
            name: self._share(granted_slots(alphas[name], caps, self.registry.get(name).rate))
            for name in self._slot_classes
        })

    def _share(self, slots: np.ndarray) -> np.ndarray:
        """What of a slot vector this controller admits against: all."""
        return slots

    # ------------------------------------------------------------------ #

    def slot_holders(
        self, class_name: str, tags: Sequence[int], servers: Sequence[int]
    ) -> Tuple[List[Hashable], np.ndarray, np.ndarray]:
        """Established flows of a class, tagged with one of ``tags``
        (``PRIORITY_TAGS``), that hold a slot on any of
        ``servers``: ``(flow_ids, tags, hits)`` with ``hits[j, i]`` true
        when flow ``i`` holds ``servers[j]`` — one scan of the flow
        table, whatever the number of established flows."""
        return self._flows.holders(
            self._class_codes[class_name], tags, servers
        )

    def headroom(self, class_name: str, pair: Pair) -> int:
        """How many more flows of the class fit on the pair's route."""
        servers = self.graph.route_servers(self._configured_route(pair))
        free = (
            self.ledger.capacity_view(class_name)[servers]
            - self.ledger.used_view(class_name)[servers]
        )
        return int(free.min())

    # ------------------------------------------------------------------ #
    # machine-checked invariants
    # ------------------------------------------------------------------ #

    def verify_invariants(self) -> List[str]:
        """Base bookkeeping checks plus the slot-ledger safety argument.

        Extends :meth:`AdmissionController.verify_invariants` with the
        properties the paper's certificate rests on:

        * **no over-commit** — on every link server, reserved slots
          never exceed the *verified* capacity (usage above the
          degraded/effective ceiling is legal; above the verified one
          is not);
        * **ledger reconstructibility** — summing the flow table's
          committed server rows reproduces the ledger's ``used``
          vectors exactly, so no slot is leaked or double-counted;
        * **every real-time flow holds a slot** — none is established
          in a real-time class that has no verified utilization.
        """
        problems = super().verify_invariants()
        table = self._flows
        for name, code in self._slot_classes.items():
            for s in self.ledger.overcommitted(name):
                used = int(self.ledger.used_view(name)[s])
                cap = int(self.ledger.verified_slots(name)[s])
                problems.append(
                    f"over-commit: class {name!r} server {int(s)} holds "
                    f"{used} slots but only {cap} are verified"
                )
            expected = table.usage(code)
            actual = self.ledger.used_view(name)
            if not np.array_equal(expected, actual):
                diff = np.flatnonzero(expected != actual)
                problems.append(
                    f"ledger mismatch: class {name!r} usage on servers "
                    f"{diff.tolist()} cannot be reconstructed from the "
                    "established flows"
                )
        slot_codes = set(self._slot_classes.values())
        unslotted = {
            code: name
            for name, code in self._class_codes.items()
            if code not in slot_codes and self.registry.get(name).is_realtime
        }
        for fid, code, _tag, _pair, _pinned in table.records():
            if code in unslotted:
                problems.append(
                    f"flow {fid!r} of real-time class {unslotted[code]!r} "
                    "is established without a slot (no verified "
                    "utilization)"
                )
        return problems

    # ------------------------------------------------------------------ #
    # failure recovery
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """Serializable record of the established flows.

        The ledger itself is *derived* state: a restarted controller
        rebuilds it by re-admitting the snapshot, so a snapshot is just
        the flow list (plus the configuration identity for sanity
        checks).  Every flow is written on its **committed** route, so
        a restore lands it on the path it occupies even if the route
        map changed or the restarted process resolves pairs
        differently.
        """
        return {
            "alphas": dict(self.alphas),
            "flows": [
                flow_record(flow, route)
                for flow, route in self.established_records
            ],
        }

    def restore(self, snapshot: dict) -> None:
        """Rebuild ledger state from a :meth:`snapshot`.

        Must be called on a freshly constructed controller with the same
        configuration; every snapshot flow is re-admitted (guaranteed to
        fit — it fit before).  Raises :class:`AdmissionError` on
        configuration mismatch or if a flow unexpectedly fails.
        """
        if self.num_established:
            raise AdmissionError(
                "restore requires a fresh controller (no established flows)"
            )
        if dict(snapshot.get("alphas", {})) != self.alphas:
            raise AdmissionError(
                "snapshot was taken under a different utilization "
                "assignment"
            )
        for record in snapshot.get("flows", []):
            flow = flow_from_record(record)
            decision = self.admit(flow)
            if not decision.admitted:
                raise AdmissionError(
                    f"snapshot flow {flow.flow_id!r} no longer fits: "
                    f"{decision.reason}"
                )
