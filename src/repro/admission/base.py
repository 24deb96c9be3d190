"""Admission controller interface and decision records."""

from __future__ import annotations

import abc
import logging
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Hashable, List, Mapping, Sequence, Tuple

import numpy as np

from ..errors import AdmissionError, UnknownLinkError
from ..obs import DEFAULT_ITERATION_BUCKETS, NULL_SPAN, OBS
from ..topology.servergraph import LinkServerGraph
from ..traffic.classes import ClassRegistry
from ..traffic.flows import PRIORITY_TAGS, FlowSpec
from .flowtable import NO_SERVERS, FlowTable, Pair, Record

__all__ = ["AdmissionDecision", "AdmissionController"]

logger = logging.getLogger("repro.admission")

#: An established flow and the route it was admitted on.
FlowRecord = Tuple[FlowSpec, List[Hashable]]

#: Flow-table tag -> priority.
_TAG_PRIORITIES = {tag: priority for priority, tag in PRIORITY_TAGS.items()}

#: Stable metric-label keys for the controllers' free-text reject reasons.
_REASON_PREFIXES = (
    ("utilization limit", "utilization_limit"),
    ("analysis rejected", "analysis_error"),
    ("flow-aware analysis diverged", "analysis_diverged"),
)


def _reason_key(reason: str) -> str:
    """Collapse a human-readable rejection reason to a low-cardinality
    label value (metric labels must not carry per-flow text)."""
    if not reason:
        return "none"
    for prefix, key in _REASON_PREFIXES:
        if reason.startswith(prefix):
            return key
    if "deadline" in reason:
        return "deadline_miss"
    return "other"


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission attempt.

    Attributes
    ----------
    admitted:
        Verdict.
    reason:
        Empty on admit; human-readable rejection cause otherwise.
    decision_seconds:
        Wall-clock cost of the *call* that produced the decision (the
        scalability metric of the paper's comparison: utilization tests
        are O(path), flow-aware recomputation grows with the number of
        established flows).  For a decision made inside
        :meth:`AdmissionController.admit_batch` this is the whole
        batch's cost, shared by all its decisions; use
        :attr:`per_request_seconds` for the amortized figure.
    batch_size:
        Number of requests decided by the same call (1 for
        :meth:`AdmissionController.admit`).
    """

    flow_id: Hashable
    admitted: bool
    reason: str
    decision_seconds: float
    batch_size: int = 1

    @property
    def per_request_seconds(self) -> float:
        """Decision cost amortized over the call's batch."""
        return self.decision_seconds / self.batch_size


class AdmissionController(abc.ABC):
    """Common plumbing for run-time admission controllers.

    Subclasses implement :meth:`_admit_impl` / :meth:`_release_impl`; this
    base class resolves routes, tracks established flows, and times and
    counts decisions.
    """

    def __init__(
        self,
        graph: LinkServerGraph,
        registry: ClassRegistry,
        route_map: Mapping[Pair, Sequence[Hashable]],
    ):
        self.graph = graph
        self.registry = registry
        self.route_map = {k: list(v) for k, v in route_map.items()}
        # The one per-flow record.  A row keeps the servers and the
        # route committed at admit time; both are reused verbatim at
        # release, so a later route_map change (or re-resolution) cannot
        # free the wrong servers.
        self._flows = FlowTable(pad=graph.num_servers)
        # Class code of a row: an index over every registry class, so a
        # best-effort flow round-trips (it simply holds no servers).
        self._class_names = registry.names()
        self._class_codes = {n: i for i, n in enumerate(self._class_names)}
        # Pair -> server-index array for configured routes, so repeated
        # admissions (and whole batches) skip per-hop index lookups.
        # Invalidated by update_routes.
        self._server_cache: Dict[Pair, "np.ndarray"] = {}
        # Streaming decision accounting: one update per admit()/batch
        # call, nothing retained — callers keep the decisions they are
        # handed, so memory is O(servers + established flows).
        self._num_decisions = 0
        self._num_admitted = 0
        self._decision_seconds = 0.0

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def check_admit(self, flow: FlowSpec) -> List[Hashable]:
        """The route ``flow`` would be admitted on — or the exception
        :meth:`admit` raises for it.

        The one statement of what the sequential API refuses outright
        (as opposed to deciding): an established id, a pair with no
        configured route, a pinned route over a link the graph does not
        have, an unknown class.  Mutates nothing, so a batch caller runs
        it per request and a request that fails it fails alone.
        """
        if flow.flow_id in self._flows:
            raise AdmissionError(
                f"flow {flow.flow_id!r} is already established"
            )
        route = self.resolve_route(flow)
        self.registry.get(flow.class_name)
        return route

    def admit(self, flow: FlowSpec) -> AdmissionDecision:
        """Attempt to establish a flow; returns the decision record."""
        route = self.check_admit(flow)
        # Span kwargs are only materialized when observability is on.
        obs_span = (
            OBS.span(
                "admission.admit",
                controller=type(self).__name__,
                flow_class=flow.class_name,
            )
            if OBS.enabled
            else NULL_SPAN
        )
        with obs_span as sp:
            start = time.perf_counter()
            ok, reason = self._admit_impl(flow, route)
            elapsed = time.perf_counter() - start
            sp.set(admitted=ok)
        decision = AdmissionDecision(
            flow_id=flow.flow_id,
            admitted=ok,
            reason=reason,
            decision_seconds=elapsed,
        )
        self._num_decisions += 1
        self._decision_seconds += elapsed
        if ok:
            self._num_admitted += 1
        elif logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "flow %r rejected by %s: %s",
                flow.flow_id,
                type(self).__name__,
                reason,
            )
        if OBS.enabled:
            self._record_decision(decision)
        return decision

    def admit_batch(
        self, flows: Sequence[FlowSpec]
    ) -> List[AdmissionDecision]:
        """Decide a whole batch of admission requests in one call.

        Decisions (verdicts, rejection reasons, ledger state and
        decision counters) are **identical** to calling :meth:`admit`
        on each flow in order — including intra-batch contention, where
        an earlier admitted request consumes slots a later one must
        see.  Vectorizing subclasses amortize the per-flow Python cost
        over the batch; the differential property suite pins the
        equivalence.

        Every request must pass :meth:`check_admit` and carry an id not
        repeated inside the batch; all of them are checked before any
        resource is committed, so a call that raises changed nothing.
        """
        flows = list(flows)
        seen = set()
        routes = []
        for flow in flows:
            fid = flow.flow_id
            if fid in seen:
                raise AdmissionError(
                    f"duplicate flow id {fid!r} in batch"
                )
            seen.add(fid)
            routes.append(self.check_admit(flow))
        return self.admit_batch_routed(flows, routes)

    def admit_batch_routed(
        self,
        flows: Sequence[FlowSpec],
        routes: Sequence[Sequence[Hashable]],
    ) -> List[AdmissionDecision]:
        """:meth:`admit_batch` minus the validation pass, for callers
        that already proved it.

        ``routes[i]`` must be ``check_admit(flows[i])`` and the ids must
        not repeat — what the service coalescer establishes per op
        before handing a run over, so no check is paid twice on the hot
        path.  Everything downstream (decision records, ledger commits,
        counters) is byte-identical to :meth:`admit_batch`.
        """
        flows = list(flows)
        if not flows:
            return []
        batch = len(flows)
        obs_span = (
            OBS.span(
                "admission.admit_batch",
                controller=type(self).__name__,
                batch=batch,
            )
            if OBS.enabled
            else NULL_SPAN
        )
        with obs_span as sp:
            start = time.perf_counter()
            outcomes = self._admit_batch_impl(flows, routes)
            elapsed = time.perf_counter() - start
            admitted = sum(1 for ok, _ in outcomes if ok)
            sp.set(admitted=admitted)
        decisions: List[AdmissionDecision] = []
        append = decisions.append
        # Hot loop: __new__ + direct __dict__ stores skip the frozen
        # dataclass __init__ (which pays object.__setattr__ per field,
        # ~2x the whole construction cost at 1M decisions).
        new = AdmissionDecision.__new__
        for flow, (ok, reason) in zip(flows, outcomes):
            decision = new(AdmissionDecision)
            d = decision.__dict__
            d["decision_seconds"] = elapsed
            d["batch_size"] = batch
            d["flow_id"] = flow.flow_id
            d["admitted"] = ok
            d["reason"] = reason
            append(decision)
        # The batch shares one wall-clock measurement, so its amortized
        # per-request costs sum to exactly ``elapsed``.
        self._num_decisions += batch
        self._num_admitted += admitted
        self._decision_seconds += elapsed
        if OBS.enabled:
            ctrl = type(self).__name__
            reg = OBS.registry
            reg.counter(
                "repro_admission_batch_calls_total", controller=ctrl
            ).inc()
            reg.counter(
                "repro_admission_batch_requests_total", controller=ctrl
            ).inc(batch)
            reg.histogram(
                "repro_admission_batch_size",
                buckets=DEFAULT_ITERATION_BUCKETS,
                controller=ctrl,
            ).observe(batch)
            for decision in decisions:
                self._record_decision(decision)
        return decisions

    def release_batch(self, flow_ids: Sequence[Hashable]) -> None:
        """Tear down many established flows in one call.

        Equivalent to calling :meth:`release` per id in order; the ids
        must be distinct and all established (validated before any slot
        is freed).
        """
        ids = list(flow_ids)
        if not ids:
            return
        codes, matrix, _lengths, _tags = self._flows.pop_batch(ids)
        self._release_batch_impl(codes, matrix)
        if OBS.enabled:
            self._record_releases(len(ids))

    def release(self, flow_id: Hashable) -> None:
        """Tear down an established flow.

        Frees exactly the route committed at admit time — never
        re-resolved, so intervening ``route_map`` edits cannot release
        the wrong servers.
        """
        code, servers, _tag = self._flows.pop(flow_id)
        self._release_impl(code, servers)
        if OBS.enabled:
            self._record_releases(1)

    def _record_releases(self, count: int) -> None:
        ctrl = type(self).__name__
        reg = OBS.registry
        reg.counter(
            "repro_admission_releases_total", controller=ctrl
        ).inc(count)
        reg.gauge(
            "repro_admission_established_flows", controller=ctrl
        ).set(len(self._flows))

    def reroute(
        self, flow_id: Hashable, new_route: Sequence[Hashable]
    ) -> AdmissionDecision:
        """Move an established flow onto ``new_route`` (release-on-reroute).

        The flow's committed resources are released first, then the flow
        is re-admitted with the new route pinned.  On rejection the flow
        ends up **not established** — the caller (e.g. the chaos
        harness) owns the retry/shed policy; silently keeping the old
        reservation would hold slots on a path the flow no longer uses.
        A route the flow could never be admitted on (wrong endpoints, an
        unknown link) raises before anything is released.
        """
        flow, _route = self._materialise(self._flows.record(flow_id))
        moved = replace(flow, route=tuple(new_route))
        self.resolve_route(moved)
        self.release(flow_id)
        decision = self.admit(moved)
        if OBS.enabled:
            OBS.registry.counter(
                "repro_admission_reroutes_total",
                controller=type(self).__name__,
                result="ok" if decision.admitted else "rejected",
            ).inc()
        return decision

    def update_routes(
        self, routes: Mapping[Pair, Sequence[Hashable]]
    ) -> None:
        """Replace configured routes for the given pairs.

        Future admissions resolve through the new paths; established
        flows keep the route committed at admit time (released exactly
        as committed).  Entries are replaced, never mutated in place:
        the flow table's rows share the old lists.
        """
        for pair, path in routes.items():
            self.route_map[pair] = list(path)
        self._server_cache.clear()

    def committed_route(self, flow_id: Hashable) -> List[Hashable]:
        """The route an established flow was admitted on."""
        return list(self._flows.route_of(flow_id))

    def _record_decision(self, decision: AdmissionDecision) -> None:
        ctrl = type(self).__name__
        reg = OBS.registry
        result = "admitted" if decision.admitted else "rejected"
        reg.counter(
            "repro_admission_decisions_total", controller=ctrl, result=result
        ).inc()
        if not decision.admitted:
            reg.counter(
                "repro_admission_rejections_total",
                controller=ctrl,
                reason=_reason_key(decision.reason),
            ).inc()
        reg.histogram(
            "repro_admission_decision_seconds", controller=ctrl
        ).observe(decision.per_request_seconds)
        reg.gauge(
            "repro_admission_established_flows", controller=ctrl
        ).set(len(self._flows))

    def resolve_route(self, flow: FlowSpec) -> List[Hashable]:
        """The router-level path a flow will use: its pinned route if it
        has one (every hop must be a link of the graph), else the
        configured route of its pair."""
        if flow.route is None:
            return self._configured_route(flow.pair)
        try:
            self.graph.route_servers(flow.route)
        except UnknownLinkError as exc:
            raise AdmissionError(
                f"flow {flow.flow_id!r} pins a route over an {exc}"
            ) from None
        return list(flow.route)

    def _configured_route(self, pair: Pair) -> List[Hashable]:
        try:
            return self.route_map[pair]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise AdmissionError(
                f"no configured route for pair {pair!r}"
            ) from None

    def servers_for(
        self, flow: FlowSpec, route: Sequence[Hashable]
    ) -> np.ndarray:
        """Server indices of a flow's route, cached per configured pair.

        Flows with a pinned route bypass the cache (the pin may differ
        from the configured path); the cached arrays are treated as
        read-only by every caller.
        """
        if flow.route is None:
            servers = self._server_cache.get(flow.pair)
            if servers is None:
                servers = self.graph.route_servers(route)
                self._server_cache[flow.pair] = servers
            return servers
        return self.graph.route_servers(route)

    # ------------------------------------------------------------------ #
    # machine-checked invariants
    # ------------------------------------------------------------------ #

    def verify_invariants(self) -> List[str]:
        """Audit the controller's bookkeeping; returns violations found.

        The base contract every controller must keep: each committed
        route is a real path between the flow's endpoints.  Subclasses
        extend this with their resource-ledger invariants (no slot
        over-commit past verified capacity, ledger state reconstructible
        from established flows).  An empty list
        means every checked invariant holds; each violation is a
        human-readable string naming the broken property.  Read-only
        and safe to call at any point, including mid-replay.
        """
        problems = self._flows.verify()
        for fid, _code, _tag, pair, route, _pin in self._flows.records():
            if pair is None or route is None:
                problems.append(
                    f"flow {fid!r} is recorded without its endpoints or "
                    "its committed route"
                )
            elif len(route) < 2 or (route[0], route[-1]) != pair:
                problems.append(
                    f"committed route of flow {fid!r} does not join "
                    f"{pair[0]!r} to {pair[1]!r}: {list(route)!r}"
                )
        return problems

    # ------------------------------------------------------------------ #
    # state / statistics
    # ------------------------------------------------------------------ #

    @property
    def established_flows(self) -> List[FlowSpec]:
        return [flow for flow, _ in self.established_records]

    @property
    def established_records(self) -> List[FlowRecord]:
        """Every established flow with the route it was admitted on, in
        establishment order (rebuilt from the flow table per call)."""
        return [self._materialise(r) for r in self._flows.records()]

    @property
    def num_established(self) -> int:
        return len(self._flows)

    def is_established(self, flow_id: Hashable) -> bool:
        return flow_id in self._flows

    @property
    def num_decisions(self) -> int:
        """Admission attempts decided so far (admitted + rejected)."""
        return self._num_decisions

    @property
    def num_admitted(self) -> int:
        return self._num_admitted

    @property
    def num_rejected(self) -> int:
        return self._num_decisions - self._num_admitted

    @property
    def acceptance_ratio(self) -> float:
        if not self._num_decisions:
            return float("nan")
        return self._num_admitted / self._num_decisions

    def mean_decision_seconds(self) -> float:
        """Mean per-request decision cost.

        Decisions produced by :meth:`admit_batch` share one wall-clock
        measurement for the whole call, so each is amortized over its
        ``batch_size`` — a k-request batch contributes its elapsed time
        once, not k times over.
        """
        if not self._num_decisions:
            return float("nan")
        return self._decision_seconds / self._num_decisions

    # ------------------------------------------------------------------ #
    # the flow record
    # ------------------------------------------------------------------ #

    def _class_code(self, class_name: str) -> int:
        """Flow-table code of a class (one registered after this
        controller was built gets the next free code)."""
        code = self._class_codes.get(class_name)
        if code is None:
            self.registry.get(class_name)
            code = self._class_codes[class_name] = len(self._class_names)
            self._class_names.append(class_name)
        return code

    def _establish(
        self,
        flow: FlowSpec,
        route: Sequence[Hashable],
        servers: np.ndarray = NO_SERVERS,
    ) -> None:
        """Record an admitted flow on its committed route, holding a
        slot on ``servers``.  A configured route's list is shared, not
        copied: ``update_routes`` replaces map entries (never mutates)
        and :meth:`committed_route` hands out copies."""
        pinned = flow.route is not None
        self._flows.add(
            flow.flow_id,
            self._class_code(flow.class_name),
            servers,
            PRIORITY_TAGS[flow.priority],
            self._flows.pair_code((flow.source, flow.destination)),
            flow.route if pinned else route,
            pinned,
        )

    def _materialise(self, record: Record) -> FlowRecord:
        """The :class:`FlowSpec` a flow-table record stands for, and a
        copy of its committed route."""
        fid, code, tag, (source, destination), route, pinned = record
        flow = FlowSpec(
            fid,
            self._class_names[code],
            source,
            destination,
            route if pinned else None,
            _TAG_PRIORITIES[tag],
        )
        return flow, list(route)

    # ------------------------------------------------------------------ #
    # subclass hooks
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def _admit_impl(
        self, flow: FlowSpec, route: Sequence[Hashable]
    ) -> Tuple[bool, str]:
        """Decide and, on success, commit resources and
        :meth:`_establish` the flow.  Returns (ok, reason)."""

    @abc.abstractmethod
    def _release_impl(self, code: int, servers: np.ndarray) -> None:
        """Free what a flow of class ``code`` held on ``servers``; its
        flow-table row is already gone."""

    def _admit_batch_impl(
        self,
        flows: Sequence[FlowSpec],
        routes: Sequence[Sequence[Hashable]],
    ) -> List[Tuple[bool, str]]:
        """Decide a batch, commit and establish what it admits; default
        is the sequential loop.

        Each admitted flow is established *immediately* (not after the
        batch) so controllers whose decision reads the established set
        — the flow-aware baseline — see earlier batch members exactly
        as a sequential caller would.  An override touches no state
        until no request of the batch can fail on its input any more,
        then records the flows it admits in batch order.
        """
        return [
            self._admit_impl(flow, route)
            for flow, route in zip(flows, routes)
        ]

    def _release_batch_impl(
        self, codes: np.ndarray, matrix: np.ndarray
    ) -> None:
        """Free what a popped batch held (``FlowTable.pop_batch``'s
        class codes and padded server matrix); default is the
        sequential loop."""
        pad = self._flows.pad
        for code, row in zip(codes.tolist(), matrix):
            self._release_impl(code, row[row != pad])
