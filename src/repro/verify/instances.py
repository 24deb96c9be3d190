"""Bounded symbolic instances of the admission safety argument.

The paper's certificate is interval-based: a verified utilization
assignment gives every link server a per-class slot capacity, and the
run-time test admits a flow iff a slot is free on *every* server of its
route.  To machine-check that argument we shrink it to finite bounded
instances that both the exhaustive and the z3 backend share:

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
and :class:`Counterexample` carries a decoded violation — from either
backend — as a concrete, replayable
``repro-workload-trace/v1`` event stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..errors import VerificationError
from ..traffic.flows import FlowSpec
from ..workload.trace import TraceEvent, merge_events

__all__ = [
    "CheckResult",
    "Counterexample",
    "VerifyBound",
    "build_chain_controller",
    "chain_fixture",
    "replay_no_overcommit",
    "replay_batch_equivalence",
    "sequential_slot_decisions",
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
    """Size of the bounded universe both backends quantify over.

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


def sequential_slot_decisions(
    routes: Sequence[Tuple[int, int]], free: Sequence[int]
) -> List[bool]:
    """Reference sequential loop the batch kernel must match.

    ``free`` is the pre-batch free-slot vector (may be negative under
    degradation); request ``i`` is admitted iff every server of its
    interval still has a slot after the earlier admitted requests.
    """
    load = [0] * len(free)
    out: List[bool] = []
    for lo, hi in routes:
        ok = all(load[s] < free[s] for s in range(lo, hi))
        out.append(ok)
        if ok:
            for s in range(lo, hi):
                load[s] += 1
    return out


# --------------------------------------------------------------------- #
# mapping instances onto the real controller
# --------------------------------------------------------------------- #


@lru_cache(maxsize=8)
def _chain_fixture(servers: int):
    """(graph, registry, routes) for the ``servers``-link chain —
    cached because exhaustive runs build thousands of controllers."""
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


def chain_fixture(servers: int) -> Any:
    """Public ``(graph, registry, routes)`` chain fixture, for replaying
    decoded counterexample traces outside the checker (e.g. ``loadgen
    --replay`` on a ``--cx-dir`` artifact)."""
    return _chain_fixture(servers)


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
    graph, registry, routes = _chain_fixture(servers)
    controller = UtilizationAdmissionController(
        graph, registry, {INSTANCE_CLASS: 0.5}, routes
    )
    slots = np.full(graph.num_servers, _MAX_FLOWS + 1, dtype=np.int64)
    for s, cap in enumerate(capacities):
        slots[graph.server_index(f"r{s}", f"r{s + 1}")] = int(cap)
    controller.ledger.set_capacity(INSTANCE_CLASS, slots)
    return controller


def _forward_server_indices(servers: int) -> List[int]:
    graph, _registry, _routes = _chain_fixture(servers)
    return [
        graph.server_index(f"r{s}", f"r{s + 1}") for s in range(servers)
    ]


# --------------------------------------------------------------------- #
# counterexamples
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Counterexample:
    """A decoded violation of one bounded check.

    ``check`` is ``"no_overcommit"``, ``"batch_equivalence"`` or
    ``"preemption_safety"`` (whose flows carry ``priorities`` and whose
    last flow is the arrival that went to the preemptor);
    ``capacities`` holds per-server slot capacities (the pre-batch
    *free* vector for equivalence instances, where negative values model
    degraded servers); ``routes`` are the chain intervals ``[lo, hi)``;
    ``releases`` gives each flow's release point (empty for equivalence
    instances); ``expected`` are the correct sequential verdicts and
    ``actual`` what the checked rule/kernel decided.
    """

    check: str
    backend: str
    servers: int
    capacities: Tuple[int, ...]
    routes: Tuple[Tuple[int, int], ...]
    releases: Tuple[Optional[int], ...] = ()
    expected: Tuple[bool, ...] = ()
    actual: Tuple[bool, ...] = ()
    detail: str = ""
    priorities: Tuple[Optional[str], ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        # ``priorities`` only when set: the other checks' documents
        # stay byte-identical.
        extra = (
            {"priorities": list(self.priorities)} if self.priorities else {}
        )
        return {
            **extra,
            "check": self.check,
            "backend": self.backend,
            "servers": self.servers,
            "capacities": list(self.capacities),
            "routes": [list(r) for r in self.routes],
            "releases": list(self.releases),
            "expected": list(self.expected),
            "actual": list(self.actual),
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, obj: Dict[str, Any]) -> "Counterexample":
        try:
            return cls(
                check=str(obj["check"]),
                backend=str(obj["backend"]),
                servers=int(obj["servers"]),
                capacities=tuple(int(c) for c in obj["capacities"]),
                routes=tuple(
                    (int(lo), int(hi)) for lo, hi in obj["routes"]
                ),
                releases=tuple(
                    None if r is None else int(r)
                    for r in obj.get("releases", [])
                ),
                expected=tuple(bool(v) for v in obj.get("expected", [])),
                actual=tuple(bool(v) for v in obj.get("actual", [])),
                detail=str(obj.get("detail", "")),
                priorities=tuple(
                    None if p is None else str(p)
                    for p in obj.get("priorities", [])
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise VerificationError(
                f"malformed counterexample: {exc}"
            ) from None

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
    """Outcome of one bounded check run by either backend.

    ``status`` is ``"proved"`` (z3: violation query UNSAT),
    ``"passed"`` (exhaustive: every instance clean), or ``"violated"``
    (a counterexample was found — the expected outcome under a mutant).
    ``instances`` counts concrete instances an exhaustive run covered
    (``None`` for symbolic proofs).
    """

    name: str
    backend: str
    status: str
    elapsed_seconds: float
    instances: Optional[int] = None
    counterexample: Optional[Counterexample] = None
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "backend": self.backend,
            "status": self.status,
            "elapsed_seconds": self.elapsed_seconds,
            "instances": self.instances,
            "counterexample": (
                None
                if self.counterexample is None
                else self.counterexample.to_dict()
            ),
            "detail": self.detail,
        }


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
    counterexample a usable regression seed.
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
        used = controller.ledger.used_view(INSTANCE_CLASS)
        verified = controller.ledger.verified_slots(INSTANCE_CLASS)
        for s_model, s_graph in enumerate(forward):
            if used[s_graph] > verified[s_graph]:
                overcommits.append((s_model, int(used[s_graph])))
    return {
        "model_verdicts": model_verdicts,
        "model_violations": model_violations,
        "controller_verdicts": controller_verdicts,
        "controller_overcommits": overcommits,
        "controller_invariant_problems": invariant_problems,
        "reproduced": bool(model_violations) if admit_on_full else (
            not model_violations
        ),
    }


def replay_batch_equivalence(
    cx: Counterexample, kernel=None
) -> Dict[str, Any]:
    """Replay a batch-equivalence counterexample against a kernel.

    ``kernel`` defaults to the real
    :func:`~repro.admission.batch.batch_slot_decisions`; pass a mutant
    (:mod:`repro.verify.mutants`) to confirm the decoded instance
    really splits it from the sequential reference.
    """
    from ..admission.batch import (
        PADDING_FREE,
        batch_slot_decisions,
        pad_server_matrix,
    )

    if cx.check != "batch_equivalence":
        raise VerificationError(
            f"expected a batch_equivalence counterexample, "
            f"got {cx.check!r}"
        )
    kernel = kernel or batch_slot_decisions
    pad = cx.servers
    rows = [
        np.arange(lo, hi, dtype=np.int64) for lo, hi in cx.routes
    ]
    matrix, _lengths = pad_server_matrix(rows, pad)
    free = np.empty(pad + 1, dtype=np.int64)
    free[:pad] = np.asarray(cx.capacities, dtype=np.int64)
    free[pad] = PADDING_FREE
    kernel_verdicts = [bool(v) for v in kernel(matrix, free)]
    sequential = sequential_slot_decisions(cx.routes, cx.capacities)
    return {
        "sequential_verdicts": sequential,
        "kernel_verdicts": kernel_verdicts,
        "diverged": kernel_verdicts != sequential,
    }
