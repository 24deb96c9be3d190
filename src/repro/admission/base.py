"""Admission controller interface and decision records."""

from __future__ import annotations

import abc
import logging
import time
from dataclasses import replace
from typing import Dict, Hashable, List, Mapping, Sequence, Tuple

from ..errors import (
    AdmissionError,
    ConfigurationError,
    TopologyError,
    UnknownLinkError,
)
from ..obs import DEFAULT_ITERATION_BUCKETS, NULL_SPAN, OBS
from ..topology.servergraph import LinkServerGraph
from ..traffic.classes import ClassRegistry
from ..traffic.flows import PRIORITY_TAGS, FlowSpec, frozen_record, route_fault
from .flowtable import FlowTable, Pair, Record

__all__ = ["AdmissionDecision", "AdmissionController"]

logger = logging.getLogger("repro.admission")

#: An established flow and the route it was admitted on.
FlowRecord = Tuple[FlowSpec, List[Hashable]]

#: Flow-table tag -> priority.
_TAG_PRIORITIES = {tag: priority for priority, tag in PRIORITY_TAGS.items()}

#: Shortest runs that :meth:`AdmissionController.admit_batch_routed` and
#: :meth:`~AdmissionController.release_batch` hand to a subclass's batch
#: path; shorter ones take the base class's sequential loop.  Each is
#: the measured crossover (2-vCPU Xeon, MCI, 8 000 flows established).
#: The loop costs a flat ~11 us an admit and ~6.5 us a release (the
#: waterfall's ``utilization.admit_us_per_op.seq`` /
#: ``release_us_per_op.seq``); the batch path, measured while it ran on
#: numpy, pays a fixed cost per call (``utilization.admit_batch_us_per_op.*``
#: / ``release_batch_us_per_op.*``): an admit 15 / 11.5 / 9.7 us at runs
#: of 3 / 4 / 5, a release 7.4 / 5.1 us at runs of 2 / 3.  The ``.seq``
#: rows time :meth:`~AdmissionController.admit` / ``release``, which are
#: calls of one to these entries, so they include the call overhead.
ADMIT_BATCH_MIN_RUN = 5
RELEASE_BATCH_MIN_RUN = 3

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


@frozen_record
class AdmissionDecision:
    """Outcome of one admission attempt (slotted: a frame holds one
    per admit until its response is written).

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
        batch's cost, shared by all its decisions; divide by
        ``batch_size`` for the amortized figure.
    batch_size:
        Number of requests decided by the same call (1 for
        :meth:`AdmissionController.admit`).
    """

    flow_id: Hashable
    admitted: bool
    reason: str
    decision_seconds: float
    batch_size: int = 1


# The slot stores of the hot constructor in ``admit_batch_routed``, in
# field order.
_SET_FLOW_ID, _SET_ADMITTED, _SET_REASON, _SET_SECONDS, _SET_BATCH = (
    getattr(AdmissionDecision, name).__set__ for name in AdmissionDecision.__slots__
)


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
        self.route_map = self._checked_routes(route_map)
        # The one per-flow record.  A flow names the route it committed
        # at admit time (every configured one is interned here); it is
        # freed verbatim at release, so a later route_map change (or
        # re-resolution) cannot free the wrong servers.
        self._flows = FlowTable(pad=graph.num_servers)
        self._configure(self.route_map)
        # Class code of a flow: an index over every registry class, so a
        # best-effort flow round-trips (it simply holds no slot).
        self._class_names = registry.names()
        self._class_codes = {n: i for i, n in enumerate(self._class_names)}
        # Streaming decision accounting: one update per admit()/batch
        # call, nothing retained — callers keep the decisions they are
        # handed, so memory is O(servers + established flows).
        self._num_decisions = 0
        self._num_admitted = 0
        self._num_released = 0
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
        have, an unknown class (or one the controller cannot admit, see
        :meth:`_check_class`).  Mutates nothing, so a batch caller runs
        it per request and a request that fails it fails alone.
        """
        if flow.flow_id in self._flows:
            raise AdmissionError(
                f"flow {flow.flow_id!r} is already established"
            )
        route = self.resolve_route(flow)
        self._check_class(flow.class_name)
        return route

    def _check_class(self, class_name: str) -> None:
        """Raise for a class this controller cannot admit flows of: by
        default, one the registry does not know."""
        self.registry.get(class_name)

    def admit(self, flow: FlowSpec) -> AdmissionDecision:
        """Attempt to establish a flow; returns the decision record.

        A batch of one: decided, timed and counted by
        :meth:`admit_batch_routed`, like every other admission.
        """
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
            decision = self.admit_batch_routed([flow], [route])[0]
            sp.set(admitted=decision.admitted)
        if not decision.admitted and logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "flow %r rejected by %s: %s",
                flow.flow_id,
                type(self).__name__,
                decision.reason,
            )
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
        if not (flows and OBS.enabled):
            return self.admit_batch_routed(flows, routes)
        with OBS.span(
            "admission.admit_batch",
            controller=type(self).__name__,
            batch=len(flows),
        ) as sp:
            decisions = self.admit_batch_routed(flows, routes)
            sp.set(admitted=sum(1 for d in decisions if d.admitted))
        return decisions

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

        The one place a decision is timed and counted: :meth:`admit` is
        a call of one.  Opens no span and pushes each series once per
        call (:meth:`_record_decisions`): the service enters here once
        per run of a decision step, and the step records its own span
        (``service.batch``).  A run shorter than
        :data:`ADMIT_BATCH_MIN_RUN` is decided by the sequential loop,
        which is cheaper there than any batch path.
        """
        flows = list(flows)
        if not flows:
            return []
        batch = len(flows)
        start = time.perf_counter()
        if batch < ADMIT_BATCH_MIN_RUN:
            outcomes = AdmissionController._admit_batch_impl(
                self, flows, routes
            )
        else:
            outcomes = self._admit_batch_impl(flows, routes)
        elapsed = time.perf_counter() - start
        admitted = sum(1 for ok, _ in outcomes if ok)
        decisions: List[AdmissionDecision] = []
        append = decisions.append
        # Hot loop: __new__ + direct slot stores skip the frozen
        # dataclass __init__ (a Python call paying object.__setattr__
        # per field, ~2x the whole construction cost).
        new = AdmissionDecision.__new__
        for flow, (ok, reason) in zip(flows, outcomes):
            decision = new(AdmissionDecision)
            _SET_SECONDS(decision, elapsed)
            _SET_BATCH(decision, batch)
            _SET_FLOW_ID(decision, flow.flow_id)
            _SET_ADMITTED(decision, ok)
            _SET_REASON(decision, reason)
            append(decision)
        # The batch shares one wall-clock measurement, so its amortized
        # per-request costs sum to exactly ``elapsed``.
        self._num_decisions += batch
        self._num_admitted += admitted
        self._decision_seconds += elapsed
        if OBS.enabled:
            self._record_decisions(outcomes, admitted, elapsed)
        return decisions

    def _record_decisions(
        self,
        outcomes: Sequence[Tuple[bool, str]],
        admitted: int,
        elapsed: float,
    ) -> None:
        """The series one decision call pushes: the call's size, its
        amortized cost as one ``observe(cost, n)`` (which fills the
        buckets exactly as ``n`` single observations would), and its
        rejections by reason, if any.  The admitted and rejected counts
        are :attr:`num_admitted` / :attr:`num_rejected`, which a served
        scrape reads."""
        ctrl = type(self).__name__
        reg = OBS.registry
        batch = len(outcomes)
        reg.histogram(
            "repro_admission_batch_size",
            buckets=DEFAULT_ITERATION_BUCKETS,
            controller=ctrl,
        ).observe(batch)
        reg.histogram(
            "repro_admission_decision_seconds", controller=ctrl
        ).observe(elapsed / batch, batch)
        if admitted == batch:
            return
        reasons: Dict[str, int] = {}
        for ok, reason in outcomes:
            if not ok:
                key = _reason_key(reason)
                reasons[key] = reasons.get(key, 0) + 1
        for key, count in reasons.items():
            reg.counter(
                "repro_admission_rejections_total",
                controller=ctrl,
                reason=key,
            ).inc(count)

    def release_batch(self, flow_ids: Sequence[Hashable]) -> None:
        """Tear down many established flows in one call.

        The one place a release is freed and counted: :meth:`release`
        is a call of one.  The ids must be distinct and all established
        (validated before any slot is freed).  A run shorter than
        :data:`RELEASE_BATCH_MIN_RUN` is freed id by id.
        """
        ids = list(flow_ids)
        if not ids:
            return
        table = self._flows
        if len(ids) < RELEASE_BATCH_MIN_RUN:
            table.check_poppable(ids)
            for fid in ids:
                code, servers, _tag = table.pop(fid)
                self._release_impl(code, servers)
        else:
            codes, rows, _tags = table.pop_rows(ids)
            self._release_batch_impl(codes, rows)
        self._num_released += len(ids)

    def release(self, flow_id: Hashable) -> None:
        """Tear down an established flow: a :meth:`release_batch` of one.

        Frees exactly the route committed at admit time — never
        re-resolved, so intervening ``route_map`` edits cannot release
        the wrong servers.
        """
        self.release_batch([flow_id])

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
        flows keep the servers committed at admit time (released exactly
        as committed).  Every route is checked first, as at
        construction: one that is malformed raises and nothing is
        replaced.
        """
        checked = self._checked_routes(routes)
        self.route_map.update(checked)
        self._configure(checked)

    def _configure(self, routes: Mapping[Pair, Sequence[Hashable]]) -> None:
        """Intern ``routes`` as their pairs' configured routes."""
        for pair, path in routes.items():
            servers = self.graph.route_servers(path)
            self._flows.configure(self._flows.pair_code(pair), servers)

    def _checked_routes(
        self, routes: Mapping[Pair, Sequence[Hashable]]
    ) -> Dict[Pair, List[Hashable]]:
        """Copies of configured ``routes``, each a simple path over
        links of the graph joining its pair — or the
        :class:`ConfigurationError` naming the first pair that is not."""
        checked = {}
        for pair, path in routes.items():
            path = list(path)
            fault = route_fault(path, *pair)
            if not fault:
                try:
                    self.graph.route_servers(path)
                except UnknownLinkError as exc:
                    fault = f"route runs over an {exc}"
            if fault:
                raise ConfigurationError(
                    f"configured route for pair {pair!r}: {fault}"
                )
            checked[pair] = path
        return checked

    def committed_route(self, flow_id: Hashable) -> List[Hashable]:
        """The route an established flow was admitted on, read back
        from the servers its row holds."""
        return self.graph.servers_to_route(self._flows.servers_of(flow_id))

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
    ) -> Sequence[int]:
        """Server indices of a flow's route: a configured route's are
        read from the flow table, where it is interned, and a pinned
        route is translated per call."""
        if flow.route is None:
            return self._flows.configured_servers((flow.source, flow.destination))
        return self.graph.route_servers(route)

    def _route_codes(
        self, flows: Sequence[FlowSpec], routes: Sequence[Sequence[Hashable]]
    ) -> List[int]:
        """The flow-table route code of each flow's route: a configured
        route's is its pair's, a pinned one is interned."""
        table = self._flows
        get = table.pair_codes.get
        pairs = []
        for f in flows:
            pairs.append(get((f.source, f.destination), -1))
        codes = table.configured_routes(pairs)
        for i, f in enumerate(flows):
            if f.route is not None:
                pair = table.pair_code((f.source, f.destination))
                codes[i] = table.route_code(pair, self.graph.route_servers(routes[i]))
        return codes

    # ------------------------------------------------------------------ #
    # machine-checked invariants
    # ------------------------------------------------------------------ #

    def verify_invariants(self) -> List[str]:
        """Audit the controller's bookkeeping; returns violations found.

        The base contract every controller must keep: the route read
        back from each flow's server row is a loop-free path between
        the flow's endpoints.  Subclasses extend this with their
        resource-ledger invariants (no slot over-commit past verified
        capacity, ledger state reconstructible from established
        flows).  An empty list means every checked invariant holds;
        each violation is a human-readable string naming the broken
        property.  Read-only and safe to call at any point, including
        mid-replay.
        """
        problems = self._flows.verify()
        for fid, _code, _tag, pair, _pin in self._flows.records():
            if pair is None:
                problems.append(
                    f"flow {fid!r} is recorded without its endpoints"
                )
                continue
            try:
                route = self.committed_route(fid)
            except TopologyError as exc:
                problems.append(
                    f"flow {fid!r} holds servers that chain into no "
                    f"route: {exc}"
                )
                continue
            if route_fault(route, *pair):
                problems.append(
                    f"committed route of flow {fid!r} does not join "
                    f"{pair[0]!r} to {pair[1]!r} without a loop: {route!r}"
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

    @property
    def flow_rows(self) -> int:
        """Rows of the flow table, free ones included."""
        return self._flows.rows

    @property
    def flow_table_bytes(self) -> int:
        """Fixed-width bytes of the flow table (``FlowTable.nbytes``):
        with :attr:`flow_rows`, what each row of the record costs."""
        return self._flows.nbytes

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
    def num_released(self) -> int:
        """Established flows torn down so far (preemptions included)."""
        return self._num_released

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
            code = len(self._class_names)
            self._class_codes[class_name] = code
            self._class_names.append(class_name)
        return code

    def _establish(self, flow: FlowSpec, servers: Sequence[int]) -> None:
        """Record an admitted flow on the ``servers`` of its committed
        route, whatever its class: whether it holds a slot on them is
        its class's to say."""
        table = self._flows
        code = self._class_codes.get(flow.class_name)
        if code is None:
            code = self._class_code(flow.class_name)
        pair = table.pair_code((flow.source, flow.destination))
        tag = PRIORITY_TAGS[flow.priority]
        table.add(flow.flow_id, code, servers, tag, pair, flow.route is not None)

    def _materialise(self, record: Record) -> FlowRecord:
        """The :class:`FlowSpec` a flow-table record stands for, and
        its committed route, read back from its servers."""
        fid, code, tag, (source, destination), pinned = record
        route = self.committed_route(fid)
        flow = FlowSpec(
            fid,
            self._class_names[code],
            source,
            destination,
            route if pinned else None,
            _TAG_PRIORITIES[tag],
        )
        return flow, route

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
    def _release_impl(self, code: int, servers: Sequence[int]) -> None:
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
        self, codes: Sequence[int], rows: Sequence[Sequence[int]]
    ) -> None:
        """Free what a popped batch held (``FlowTable.pop_rows``'s class
        codes and server rows); default is the sequential loop."""
        for code, row in zip(codes, rows):
            self._release_impl(code, row)
