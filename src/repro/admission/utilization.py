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

from typing import Dict, Hashable, List, Mapping, Sequence, Tuple

import numpy as np

from ..errors import AdmissionError
from ..topology.servergraph import LinkServerGraph
from ..traffic.classes import ClassRegistry
from ..traffic.flows import (
    PRIORITY_CODES,
    FlowSpec,
    flow_from_record,
    flow_record,
)
from .base import AdmissionController, Pair
from .batch import (
    PADDING_FREE,
    batch_slot_decisions,
    flat_committed_servers,
    pad_server_matrix,
)
from .flowtable import NO_CLASS, FlowTable
from .ledger import UtilizationLedger

__all__ = ["UtilizationAdmissionController"]

_EMPTY_SERVERS = np.empty(0, dtype=np.int64)
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
        self._class_names = [c.name for c in registry.realtime_classes()]
        self._class_codes = {n: i for i, n in enumerate(self._class_names)}
        # Committed servers of every established flow, in flat arrays so
        # whole batches commit/free without a Python loop per flow.
        self._flows = FlowTable(pad=graph.num_servers)

    def _admit_impl(
        self, flow: FlowSpec, route: Sequence[Hashable]
    ) -> Tuple[bool, str]:
        # A class without a code is best-effort (check_admit refused
        # unknown names): never blocked, never guaranteed, no slot held.
        code = self._class_codes.get(flow.class_name, NO_CLASS)
        servers = _EMPTY_SERVERS
        if code != NO_CLASS:
            servers = self.servers_for(flow, route)
            if not self.ledger.available(flow.class_name, servers):
                return False, (
                    f"utilization limit reached for class "
                    f"{flow.class_name!r} on the path"
                )
            self.ledger.reserve(flow.class_name, servers)
        tag = PRIORITY_CODES.get(flow.priority, -1)
        self._flows.add(flow.flow_id, code, servers, tag=tag)
        return True, ""

    def _release_impl(
        self, flow: FlowSpec, route: Sequence[Hashable]
    ) -> None:
        code, servers, _tag = self._flows.pop(flow.flow_id)
        if code != NO_CLASS:
            self.ledger.release(flow.class_name, servers)

    def _admit_batch_impl(
        self,
        flows: Sequence[FlowSpec],
        routes: Sequence[Sequence[Hashable]],
    ) -> List[Tuple[bool, str]]:
        """Vectorized batch decision, sequential-identical by design.

        Classes hold independent ledgers, so the batch splits by class;
        within a class the kernel resolves intra-batch contention in
        original batch order.  Verdicts, reason strings and ledger
        occupancy match the per-flow loop exactly.
        """
        table = self._flows
        codes = self._class_codes
        pad = self.graph.num_servers
        outcomes: List[Tuple[bool, str]] = [_ADMITTED] * len(flows)
        by_class: Dict[str, List[int]] = {}
        best_effort: List[FlowSpec] = []
        for i, flow in enumerate(flows):
            if flow.class_name in codes:
                by_class.setdefault(flow.class_name, []).append(i)
            else:
                # Unknown names must still raise like the sequential
                # path — and before any state is mutated.
                self.registry.get(flow.class_name)
                best_effort.append(flow)
        # Every row is resolved before the first commit: a route that
        # does not translate raises here, with nothing to undo.
        rows = {
            name: [self.servers_for(flows[i], routes[i]) for i in members]
            for name, members in by_class.items()
        }
        for flow in best_effort:
            table.add(
                flow.flow_id,
                NO_CLASS,
                _EMPTY_SERVERS,
                tag=PRIORITY_CODES.get(flow.priority, -1),
            )
        for name, members in by_class.items():
            matrix, lengths = pad_server_matrix(rows[name], pad)
            free = np.empty(pad + 1, dtype=np.int64)
            np.subtract(
                self.ledger.capacity_view(name),
                self.ledger.used_view(name),
                out=free[:pad],
            )
            free[pad] = PADDING_FREE
            admitted = batch_slot_decisions(matrix, free)
            ok = np.flatnonzero(admitted)
            if ok.size:
                self.ledger.commit_flat(
                    name,
                    flat_committed_servers(matrix, admitted, pad),
                    int(ok.size),
                )
                winners = [members[r] for r in ok.tolist()]
                table.add_batch(
                    [flows[i].flow_id for i in winners],
                    codes[name],
                    matrix[ok],
                    lengths[ok],
                    tags=np.asarray(
                        [
                            PRIORITY_CODES.get(flows[i].priority, -1)
                            for i in winners
                        ],
                        dtype=np.int64,
                    ),
                )
            if ok.size < len(members):
                rejected = (
                    False,
                    f"utilization limit reached for class {name!r} "
                    "on the path",
                )
                for r in np.flatnonzero(~admitted):
                    outcomes[members[r]] = rejected
        # Flow-table rows and flow records are written together, in
        # batch order (snapshots list flows in the order they were
        # established).
        self._establish(
            (flow, route)
            for flow, route, outcome in zip(flows, routes, outcomes)
            if outcome is _ADMITTED
        )
        return outcomes

    def _release_batch_impl(
        self,
        flows: Sequence[FlowSpec],
        routes: Sequence[Sequence[Hashable]],
    ) -> None:
        codes, matrix, _lengths, _tags = self._flows.pop_batch(
            [f.flow_id for f in flows]
        )
        pad = self._flows.pad
        for code in np.unique(codes):
            if code == NO_CLASS:
                continue
            mask = codes == code
            sel = matrix[mask]
            self.ledger.release_flat(
                self._class_names[int(code)],
                sel[sel != pad],
                int(np.count_nonzero(mask)),
            )

    # ------------------------------------------------------------------ #
    # degraded operation (fault tolerance)
    # ------------------------------------------------------------------ #

    def block_servers(self, servers: Sequence[int]) -> None:
        """Stop admitting across dead link servers (capacity -> 0)."""
        self.ledger.block_servers(servers)

    def unblock_servers(self, servers: Sequence[int]) -> None:
        """Re-enable previously blocked link servers."""
        self.ledger.unblock_servers(servers)

    def enter_degraded_mode(self, factor: float) -> None:
        """Admit against ``factor * alpha`` effective utilization.

        The graceful-degradation fallback when a failure leaves no
        verified repair: uncertified reroutes are only accepted under a
        conservatively reduced load ceiling.  Established flows are
        never evicted.
        """
        self.ledger.set_degradation(factor)

    def exit_degraded_mode(self) -> None:
        """Restore the full verified utilization ceiling."""
        self.ledger.clear_degradation()

    @property
    def degraded_factor(self) -> float:
        """Current effective-alpha scale (1.0 = normal operation)."""
        return self.ledger.degradation

    @property
    def in_degraded_mode(self) -> bool:
        return self.ledger.degradation < 1.0

    # ------------------------------------------------------------------ #

    def class_utilization(self, class_name: str) -> np.ndarray:
        """Current bandwidth fraction used by a class, per server."""
        return self.ledger.utilization(class_name)

    def committed_servers(self, flow_id: Hashable) -> np.ndarray:
        """Link servers an established flow holds a slot on (none for a
        best-effort flow)."""
        return self._flows.servers_of(flow_id)

    def headroom(self, class_name: str, pair: Pair) -> int:
        """How many more flows of the class fit on the pair's route."""
        servers = self._server_cache.get(pair)
        if servers is None:
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
        two properties the paper's certificate rests on:

        * **no over-commit** — on every link server, reserved slots
          never exceed the *verified* capacity (usage above the
          degraded/effective ceiling is legal; above the verified one
          is not);
        * **ledger reconstructibility** — replaying the established
          flows' committed server sets reproduces the ledger's ``used``
          vectors exactly, so no slot is leaked or double-counted;
        * **record ⇔ flow-table row** — every established flow has a
          flow-table row and every row belongs to an established flow.
        """
        problems = super().verify_invariants()
        expected: Dict[str, np.ndarray] = {
            name: np.zeros(self.graph.num_servers, dtype=np.int64)
            for name in self._class_names
        }
        for fid in self._flows:
            if not self.is_established(fid):
                problems.append(
                    f"flow-table row for non-established flow {fid!r}"
                )
        for flow in self.established_flows:
            fid = flow.flow_id
            if fid not in self._flows:
                problems.append(
                    f"established flow {fid!r} missing from the flow "
                    "table"
                )
                continue
            code, servers, tag = self._flows.entry(fid)
            if tag != PRIORITY_CODES.get(flow.priority, -1):
                problems.append(
                    f"flow-table priority tag of {fid!r} is {tag}, "
                    f"expected the code of {flow.priority!r}"
                )
            if code == NO_CLASS:
                continue
            np.add.at(expected[self._class_names[code]], servers, 1)
        for name in self._class_names:
            for s in self.ledger.overcommitted(name):
                used = int(self.ledger.used_view(name)[s])
                cap = int(self.ledger.verified_slots(name)[s])
                problems.append(
                    f"over-commit: class {name!r} server {int(s)} holds "
                    f"{used} slots but only {cap} are verified"
                )
            actual = self.ledger.used_view(name)
            if not np.array_equal(expected[name], actual):
                diff = np.flatnonzero(expected[name] != actual)
                problems.append(
                    f"ledger mismatch: class {name!r} usage on servers "
                    f"{diff.tolist()} cannot be reconstructed from the "
                    "established flows"
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
