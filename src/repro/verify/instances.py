"""Bounded instances of the admission safety argument.

The paper's certificate is interval-based: a verified utilization
assignment gives every link server a per-class slot capacity, and the
run-time test admits a flow iff a slot is free on *every* server of its
route.  To machine-check that argument we shrink it to finite bounded
instances, every one of which the exhaustive checker runs:

* a **chain topology** of ``servers`` forward link servers
  (``r0 -> r1 -> ... -> r{servers}``), so that every contiguous server
  interval ``[lo, hi)`` is realizable as an actual router path — the
  "edge interval" of the safety claim;
* ``flows`` admission requests arriving in order, request ``i`` at
  time ``i + 1``; each carries an interval route and an optional
  release point ``r`` meaning "the flow departs immediately before
  arrival ``r`` is decided" (``None`` = never during the instance);
* integer per-server slot capacities in ``[0, max_capacity]``.

Because releases only ever *decrease* occupancy, checking the
no-over-commit property at each arrival instant covers every point of
every interval — the occupancy between arrivals is dominated by the
occupancy just after one.

:func:`simulate_sequential` is the executable model (with the
``admit_on_full`` mutant switch), :func:`build_chain_controller` maps
an instance onto the *real* :class:`UtilizationAdmissionController`,
:func:`preemption_problem` does the same for one preemption instance,
and :class:`Counterexample` carries a decoded violation as a concrete,
replayable ``repro-workload-trace/v1`` event stream; the ``replay_*``
functions re-run one through the real code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import VerificationError
from ..traffic.flows import FlowSpec, priority_rank
from ..workload.trace import TraceEvent, merge_events

__all__ = [
    "PROTECT_SETS",
    "CheckResult",
    "Counterexample",
    "VerifyBound",
    "build_chain_controller",
    "chain_fixture",
    "kernel_slot_decisions",
    "preemption_problem",
    "replay_batch_equivalence",
    "replay_no_overcommit",
    "replay_preemption_safety",
    "simulate_sequential",
]

#: Class used for every bounded-instance flow.
INSTANCE_CLASS = "voice"

#: Enumeration guard rails — exhaustive instance counts explode fast.
_MAX_FLOWS = 6
_MAX_SERVERS = 4
_MAX_CAPACITY = 4


@dataclass(frozen=True)
class VerifyBound:
    """Size of the bounded universe the checker enumerates.

    ``intervals`` (== ``flows``) is the number of event intervals the
    occupancy is checked on: each arrival opens one.
    """

    flows: int = 3
    servers: int = 2
    max_capacity: int = 2

    def __post_init__(self) -> None:
        if not 1 <= self.flows <= _MAX_FLOWS:
            raise VerificationError(
                f"flows must be in [1, {_MAX_FLOWS}], got {self.flows}"
            )
        if not 1 <= self.servers <= _MAX_SERVERS:
            raise VerificationError(
                f"servers must be in [1, {_MAX_SERVERS}], "
                f"got {self.servers}"
            )
        if not 0 <= self.max_capacity <= _MAX_CAPACITY:
            raise VerificationError(
                f"max_capacity must be in [0, {_MAX_CAPACITY}], "
                f"got {self.max_capacity}"
            )

    @property
    def intervals(self) -> int:
        """Event intervals checked (one per arrival)."""
        return self.flows

    def interval_routes(self) -> List[Tuple[int, int]]:
        """Every contiguous route ``[lo, hi)`` over the chain."""
        return [
            (lo, hi)
            for lo in range(self.servers)
            for hi in range(lo + 1, self.servers + 1)
        ]

    def to_dict(self) -> Dict[str, int]:
        return {
            "flows": self.flows,
            "servers": self.servers,
            "intervals": self.intervals,
            "max_capacity": self.max_capacity,
        }


def simulate_sequential(
    capacities: Sequence[int],
    routes: Sequence[Tuple[int, int]],
    releases: Sequence[Optional[int]],
    *,
    admit_on_full: bool = False,
) -> Tuple[List[bool], List[Tuple[int, int, int, int]]]:
    """Run the paper's admission rule over one bounded instance.

    Returns ``(verdicts, violations)``: the per-arrival admit verdicts
    and every ``(arrival, server, occupancy, capacity)`` over-commit
    observed just after an arrival was decided.  With the strict test
    (``admit_on_full=False``, the paper's rule) the violation list is
    provably empty; the mutant switch flips ``<`` to ``<=`` — the
    admit-on-full bug — so the model can demonstrate falsifiability.
    """
    n_servers = len(capacities)
    load = [0] * n_servers
    verdicts: List[bool] = []
    violations: List[Tuple[int, int, int, int]] = []
    for i, (lo, hi) in enumerate(routes):
        for f in range(len(verdicts)):
            if releases[f] == i and verdicts[f]:
                f_lo, f_hi = routes[f]
                for s in range(f_lo, f_hi):
                    load[s] -= 1
        span = range(lo, hi)
        if admit_on_full:
            ok = all(load[s] <= capacities[s] for s in span)
        else:
            ok = all(load[s] < capacities[s] for s in span)
        verdicts.append(ok)
        if ok:
            for s in span:
                load[s] += 1
        for s in range(n_servers):
            if load[s] > capacities[s]:
                violations.append((i, s, load[s], capacities[s]))
    return verdicts, violations


# --------------------------------------------------------------------- #
# mapping instances onto the real controller
# --------------------------------------------------------------------- #


@lru_cache(maxsize=8)
def chain_fixture(servers: int) -> Any:
    """``(graph, registry, routes)`` for the ``servers``-link chain —
    cached because exhaustive runs build thousands of controllers; also
    what replays a decoded counterexample trace outside the checker
    (``loadgen --replay`` on a ``--cx-dir`` artifact)."""
    from ..routing.shortest import shortest_path_routes
    from ..topology.builders import line_network
    from ..topology.servergraph import LinkServerGraph
    from ..traffic.classes import ClassRegistry
    from ..traffic.generators import all_ordered_pairs, voice_class

    network = line_network(servers + 1)
    graph = LinkServerGraph(network)
    registry = ClassRegistry.two_class(voice_class())
    routes = shortest_path_routes(network, all_ordered_pairs(network))
    return graph, registry, routes


def build_chain_controller(
    servers: int, capacities: Sequence[int]
):
    """The real shared-ledger controller over a chain, with the model's
    exact slot capacities pinned on the forward links.

    Reverse-direction links (unused by bounded instances) get capacity
    ``flows``-safe headroom so they can never be the binding
    constraint.
    """
    from ..admission.utilization import UtilizationAdmissionController

    if len(capacities) != servers:
        raise VerificationError(
            f"expected {servers} capacities, got {len(capacities)}"
        )
    graph, registry, routes = chain_fixture(servers)
    controller = UtilizationAdmissionController(
        graph, registry, {INSTANCE_CLASS: 0.5}, routes
    )
    slots = [_MAX_FLOWS + 1] * graph.num_servers
    for s, cap in enumerate(capacities):
        slots[graph.server_index(f"r{s}", f"r{s + 1}")] = int(cap)
    controller.ledger.set_capacity(INSTANCE_CLASS, slots)
    return controller


def _forward_server_indices(servers: int) -> List[int]:
    graph, _registry, _routes = chain_fixture(servers)
    return [
        graph.server_index(f"r{s}", f"r{s + 1}") for s in range(servers)
    ]


#: Protect sets the preemption check quantifies over: the shipped
#: default, and one that shields a priority an arrival outranks.
PROTECT_SETS = (("hard_rt",), ("hard_rt", "soft_rt"))


def preemption_problem(
    capacities: Sequence[int],
    routes: Sequence[Tuple[int, int]],
    priorities: Sequence[Optional[str]],
    protect: Tuple[str, ...],
    preemptor: Callable[[Any, Any], Any],
) -> Optional[str]:
    """Run one instance: establish all flows but the last on the real
    controller, then send the last through ``admit`` and, if rejected,
    the preemptor.  Returns the first broken property, or ``None``."""
    from ..control.preempt import MAX_VICTIMS, PreemptionPolicy

    controller = build_chain_controller(len(capacities), capacities)
    policy = PreemptionPolicy(protect=protect)
    flows = []
    for i, ((lo, hi), priority) in enumerate(zip(routes, priorities)):
        route = tuple(f"r{s}" for s in range(lo, hi + 1))
        flows.append(FlowSpec(
            f"x{i}", INSTANCE_CLASS, route[0], route[-1], route, priority
        ))
    for flow in flows[:-1]:
        controller.admit(flow)
    arrival = flows[-1]
    if controller.admit(arrival).admitted:
        return None

    def state():
        return (
            controller.snapshot(),
            list(controller.ledger.used_slots(INSTANCE_CLASS)),
        )

    before = state()
    outcome = preemptor(controller, policy).try_admit(arrival)
    for victim in outcome.evicted:
        priority = priorities[int(victim[1:])]
        if priority in protect:
            return (
                f"evicted {victim!r}, whose priority {priority!r} is "
                f"protected by {protect!r}"
            )
        if priority_rank(priority) >= priority_rank(arrival.priority):
            return (
                f"evicted {victim!r} ({priority!r}) for an arrival "
                "that does not outrank it"
            )
        if controller.is_established(victim):
            return f"victim {victim!r} is still established"
    if len(outcome.evicted) > MAX_VICTIMS:
        return f"{len(outcome.evicted)} victims exceed MAX_VICTIMS"
    if outcome.admitted != controller.is_established(arrival.flow_id):
        return "outcome.admitted disagrees with the established set"
    if not outcome.admitted and (outcome.evicted or state() != before):
        return "a failed preemption changed the controller"
    problems = controller.verify_invariants()
    return problems[0] if problems else None


# --------------------------------------------------------------------- #
# counterexamples
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Counterexample:
    """A decoded violation of one bounded check.

    ``check`` is ``"no_overcommit"``, ``"batch_equivalence"`` or
    ``"preemption_safety"`` (whose flows
    carry ``priorities`` and whose last flow is the arrival that went to
    the preemptor);
    ``capacities`` holds per-server slot capacities (the pre-batch
    *free* vector for equivalence instances, where negative values model
    degraded servers); ``routes`` are the chain intervals ``[lo, hi)``;
    ``releases`` gives each flow's release point (empty for equivalence
    instances); ``expected`` are the correct sequential verdicts and
    ``actual`` what the checked rule/kernel decided.
    """

    check: str
    servers: int
    capacities: Tuple[int, ...]
    routes: Tuple[Tuple[int, int], ...]
    releases: Tuple[Optional[int], ...] = ()
    expected: Tuple[bool, ...] = ()
    actual: Tuple[bool, ...] = ()
    detail: str = ""
    priorities: Tuple[Optional[str], ...] = ()

    def to_trace_events(self) -> List[TraceEvent]:
        """The instance as a concrete ``repro-workload-trace/v1`` stream.

        Arrival ``i`` lands at time ``i + 1`` on routers
        ``r{lo}..r{hi}``; a release point ``r < flows`` becomes a
        departure at exactly time ``r + 1`` — the replay tie break
        (departures first) then frees the slot immediately before
        arrival ``r`` is decided, matching the model's semantics.
        Flows without a release point drain after the horizon, so the
        stream is a complete, replayable workload — these traces are
        the regression seeds the adversarial engine replays.
        """
        n = len(self.routes)
        events: List[TraceEvent] = []
        for i, (lo, hi) in enumerate(self.routes):
            route = tuple(f"r{s}" for s in range(lo, hi + 1))
            events.append(TraceEvent.arrival(
                float(i + 1),
                FlowSpec(
                    f"cx_{i}", INSTANCE_CLASS, route[0], route[-1], route,
                    self.priorities[i] if self.priorities else None,
                ),
            ))
            release = (
                self.releases[i] if i < len(self.releases) else None
            )
            t_dep = (
                float(release + 1)
                if release is not None and release < n
                else float(n + 2 + i)
            )
            events.append(TraceEvent.departure(t_dep, f"cx_{i}"))
        return merge_events(events)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one bounded check.

    ``status`` is ``"passed"`` (every instance clean) or ``"violated"``
    (a counterexample was found — the expected outcome under a mutant).
    ``instances`` counts the concrete instances the run covered.
    """

    name: str
    status: str
    elapsed_seconds: float
    instances: int
    counterexample: Optional[Counterexample] = None


# --------------------------------------------------------------------- #
# counterexample replay
# --------------------------------------------------------------------- #


def replay_no_overcommit(
    cx: Counterexample, *, admit_on_full: bool = False
) -> Dict[str, Any]:
    """Replay a no-over-commit counterexample, model and real code.

    Runs the instance twice: through :func:`simulate_sequential` under
    the given rule (``admit_on_full=True`` reproduces the mutant's
    violation) and through the **real**
    :class:`UtilizationAdmissionController` on the chain topology,
    auditing :meth:`verify_invariants` after every event.  A healthy
    kernel replays the trace with zero violations even when the model
    rule over-commits — which is exactly what makes a decoded
    counterexample a usable regression seed.  ``reproduced``: the
    mutant rule over-commits, or (without it) the controller breaks
    from the model.
    """
    if cx.check != "no_overcommit":
        raise VerificationError(
            f"expected a no_overcommit counterexample, got {cx.check!r}"
        )
    releases = tuple(cx.releases) or (None,) * len(cx.routes)
    model_verdicts, model_violations = simulate_sequential(
        cx.capacities, cx.routes, releases, admit_on_full=admit_on_full
    )
    controller = build_chain_controller(cx.servers, cx.capacities)
    forward = _forward_server_indices(cx.servers)
    controller_verdicts: List[bool] = []
    invariant_problems: List[str] = []
    overcommits: List[Tuple[int, int]] = []
    admitted: set = set()
    for event in cx.to_trace_events():
        if event.kind == "arrival":
            decision = controller.admit(event.flow)
            controller_verdicts.append(decision.admitted)
            if decision.admitted:
                admitted.add(event.flow_id)
        elif event.flow_id in admitted:
            controller.release(event.flow_id)
            admitted.discard(event.flow_id)
        invariant_problems.extend(controller.verify_invariants())
        used = controller.ledger.used_slots(INSTANCE_CLASS)
        verified = controller.ledger.verified_list(INSTANCE_CLASS)
        for s_model, s_graph in enumerate(forward):
            if used[s_graph] > verified[s_graph]:
                overcommits.append((s_model, used[s_graph]))
    return {
        "model_verdicts": model_verdicts,
        "model_violations": model_violations,
        "controller_verdicts": controller_verdicts,
        "controller_overcommits": overcommits,
        "controller_invariant_problems": invariant_problems,
        "reproduced": bool(model_violations) if admit_on_full else bool(
            controller_verdicts != model_verdicts
            or overcommits
            or invariant_problems
        ),
    }


def kernel_slot_decisions(
    kernel, routes: Sequence[Tuple[int, int]], free: Sequence[int]
) -> List[bool]:
    """``kernel``'s verdicts on interval ``routes`` over a chain of
    ``len(free)`` servers with pre-batch free counts ``free``, fed as
    the controller feeds the kernel: a list of servers per request and
    a fresh list of free counts (the kernel consumes it)."""
    rows = [list(range(lo, hi)) for lo, hi in routes]
    return [bool(v) for v in kernel(rows, [int(f) for f in free])]


def replay_batch_equivalence(
    cx: Counterexample, kernel=None
) -> Dict[str, Any]:
    """Replay a batch-equivalence counterexample against a kernel.

    ``kernel`` defaults to the kernel the controller calls,
    :func:`~repro.admission.kernels.batch_slot_decisions_lists`; pass a mutant
    (:mod:`repro.verify.mutants`) to confirm the decoded instance
    really splits it from the sequential reference
    (:func:`~repro.admission.kernels.batch_slot_decisions_sequential`):
    ``reproduced``.
    """
    from ..admission.kernels import (
        batch_slot_decisions_lists,
        batch_slot_decisions_sequential,
    )

    if cx.check != "batch_equivalence":
        raise VerificationError(
            f"expected a batch_equivalence counterexample, "
            f"got {cx.check!r}"
        )
    sequential = kernel_slot_decisions(
        batch_slot_decisions_sequential, cx.routes, cx.capacities
    )
    kernel_verdicts = kernel_slot_decisions(
        kernel or batch_slot_decisions_lists, cx.routes, cx.capacities
    )
    return {
        "sequential_verdicts": sequential,
        "kernel_verdicts": kernel_verdicts,
        "reproduced": kernel_verdicts != sequential,
    }


def replay_preemption_safety(
    cx: Counterexample, preemptor=None
) -> Dict[str, Any]:
    """Replay a preemption-safety counterexample through a preemptor.

    Re-runs the decoded instance — its capacities, routes and
    priorities — once per protect set of :data:`PROTECT_SETS` through
    ``preemptor`` (the real :class:`~repro.control.preempt.Preemptor`
    unless the planner mutant is passed) and collects every broken
    property; ``reproduced`` when there is one.
    """
    from ..control.preempt import Preemptor

    if cx.check != "preemption_safety":
        raise VerificationError(
            f"expected a preemption_safety counterexample, "
            f"got {cx.check!r}"
        )
    problems = []
    for protect in PROTECT_SETS:
        detail = preemption_problem(
            cx.capacities, cx.routes, cx.priorities, protect,
            preemptor or Preemptor,
        )
        if detail is not None:
            problems.append(f"protect={protect!r}: {detail}")
    return {"problems": problems, "reproduced": bool(problems)}
