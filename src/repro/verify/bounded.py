"""Exhaustive bounded checking — the z3-free backend.

Where :mod:`repro.verify.smt` *proves* the bounded safety properties
symbolically, this module checks the same properties by enumerating
every concrete instance inside a :class:`~repro.verify.instances.\
VerifyBound` and running the **real production code** on each:

* :func:`exhaustive_no_overcommit` drives the real
  :class:`~repro.admission.utilization.UtilizationAdmissionController`
  through every (capacities, routes, releases) instance, auditing
  :meth:`verify_invariants` after every single event and comparing
  verdicts against the executable model;
* :func:`exhaustive_batch_equivalence` runs the real
  :func:`~repro.admission.batch.batch_slot_decisions` kernel (or a
  deliberately broken mutant from :mod:`repro.verify.mutants`) against
  the sequential reference on every (routes, free-vector) instance;
* :func:`exhaustive_preemption_safety` hands every arrival the
  controller rejects to the real
  :class:`~repro.control.preempt.Preemptor` (or the planner mutant)
  over every assignment of priorities to the established flows: never a
  protected victim, all or nothing, invariants intact.

Because the subjects are the shipped kernel and controller — not a
model of them — this backend catches *code* mutants the SMT encoding
alone cannot, and it runs in tier-1 CI with zero optional
dependencies.  At the default bound (3 flows x 2 servers) that is
~1.5k controller instances and ~400 kernel calls, well under a second.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import VerificationError
from ..traffic.flows import PRIORITIES, FlowSpec, priority_rank
from .instances import (
    INSTANCE_CLASS,
    CheckResult,
    Counterexample,
    VerifyBound,
    build_chain_controller,
    sequential_slot_decisions,
    simulate_sequential,
)

__all__ = [
    "exhaustive_batch_equivalence",
    "exhaustive_no_overcommit",
    "exhaustive_preemption_safety",
    "iter_release_patterns",
]


def iter_release_patterns(flows: int):
    """All valid release assignments for ``flows`` ordered arrivals.

    Flow ``f`` may be released immediately before any later arrival
    (points ``f + 1 .. flows - 1``) or never (``None``); releasing
    after the last arrival only lowers occupancy, so ``None`` covers
    it for safety checking.
    """
    options = [
        list(range(f + 1, flows)) + [None] for f in range(flows)
    ]
    return itertools.product(*options)


def _drive_instance(
    capacities: Sequence[int],
    routes: Sequence[Tuple[int, int]],
    releases: Sequence[Optional[int]],
) -> Tuple[List[bool], List[str]]:
    """Run one instance through the real controller.

    Returns ``(verdicts, problems)`` where ``problems`` collects every
    invariant violation observed after any event (empty for a correct
    controller).
    """
    servers = len(capacities)
    controller = build_chain_controller(servers, capacities)
    verdicts: List[bool] = []
    problems: List[str] = []
    admitted: List[Optional[str]] = []
    for i, (lo, hi) in enumerate(routes):
        for f, release in enumerate(releases[:i]):
            if release == i and admitted[f] is not None:
                controller.release(admitted[f])
                admitted[f] = None
                problems.extend(controller.verify_invariants())
        route = tuple(f"r{s}" for s in range(lo, hi + 1))
        fid = f"x{i}"
        decision = controller.admit(
            FlowSpec(
                flow_id=fid,
                class_name=INSTANCE_CLASS,
                source=route[0],
                destination=route[-1],
                route=route,
            )
        )
        verdicts.append(decision.admitted)
        admitted.append(fid if decision.admitted else None)
        problems.extend(controller.verify_invariants())
    return verdicts, problems


def exhaustive_no_overcommit(
    bound: VerifyBound, *, admit_on_full: bool = False
) -> CheckResult:
    """Check "utilization test => no slot over-commit" on every
    instance in the bound, against the real controller.

    With ``admit_on_full=True`` the *model* rule is mutated to admit
    when a server is exactly full; the check then must come back
    ``"violated"`` with a decoded counterexample — the falsifiability
    half of the certificate.
    """
    start = time.perf_counter()
    route_options = bound.interval_routes()
    count = 0
    for capacities in itertools.product(
        range(bound.max_capacity + 1), repeat=bound.servers
    ):
        for routes in itertools.product(
            route_options, repeat=bound.flows
        ):
            for releases in iter_release_patterns(bound.flows):
                count += 1
                verdicts, violations = simulate_sequential(
                    capacities, routes, releases,
                    admit_on_full=admit_on_full,
                )
                if violations:
                    strict, _ = simulate_sequential(
                        capacities, routes, releases
                    )
                    i, s, occ, cap = violations[0]
                    return CheckResult(
                        name="no_overcommit",
                        backend="exhaustive",
                        status="violated",
                        elapsed_seconds=time.perf_counter() - start,
                        instances=count,
                        counterexample=Counterexample(
                            check="no_overcommit",
                            backend="exhaustive",
                            servers=bound.servers,
                            capacities=tuple(capacities),
                            routes=tuple(routes),
                            releases=tuple(releases),
                            expected=tuple(strict),
                            actual=tuple(verdicts),
                            detail=(
                                f"after arrival {i}, server {s} holds "
                                f"{occ} slots over capacity {cap}"
                            ),
                        ),
                    )
                if admit_on_full:
                    continue  # mutant hunt: only violations matter
                real_verdicts, problems = _drive_instance(
                    capacities, routes, releases
                )
                if real_verdicts != verdicts or problems:
                    detail = (
                        problems[0]
                        if problems
                        else "controller verdicts diverge from the "
                        "sequential model"
                    )
                    return CheckResult(
                        name="no_overcommit",
                        backend="exhaustive",
                        status="violated",
                        elapsed_seconds=time.perf_counter() - start,
                        instances=count,
                        counterexample=Counterexample(
                            check="no_overcommit",
                            backend="exhaustive",
                            servers=bound.servers,
                            capacities=tuple(capacities),
                            routes=tuple(routes),
                            releases=tuple(releases),
                            expected=tuple(verdicts),
                            actual=tuple(real_verdicts),
                            detail=detail,
                        ),
                    )
    if admit_on_full:
        # The mutant admitted nothing extra anywhere in the bound —
        # the bound is too small to expose it, which is itself a
        # verification failure (the check lost its teeth).
        raise VerificationError(
            "admit-on-full mutant produced no over-commit anywhere in "
            f"the bound {bound.to_dict()} — bound too small to "
            "falsify, enlarge it"
        )
    return CheckResult(
        name="no_overcommit",
        backend="exhaustive",
        status="passed",
        elapsed_seconds=time.perf_counter() - start,
        instances=count,
    )


def exhaustive_batch_equivalence(
    bound: VerifyBound,
    kernel: Optional[Callable[..., np.ndarray]] = None,
) -> CheckResult:
    """Check batch-kernel <=> sequential-loop equivalence exhaustively.

    Every (interval-route assignment, pre-batch free vector) instance
    in the bound is decided by both the batch kernel (the real
    :func:`~repro.admission.batch.batch_slot_decisions` unless a
    mutant is passed) and the sequential reference; the first
    divergence is decoded into a replayable counterexample.  Free
    vectors range down to ``-1`` so degraded servers (capacity below
    current usage) are covered.
    """
    from ..admission.batch import (
        PADDING_FREE,
        batch_slot_decisions,
        pad_server_matrix,
    )

    kernel_fn = kernel or batch_slot_decisions
    kernel_name = getattr(
        kernel_fn, "__name__", kernel_fn.__class__.__name__
    )
    start = time.perf_counter()
    route_options = bound.interval_routes()
    pad = bound.servers
    count = 0
    free = np.empty(pad + 1, dtype=np.int64)
    free[pad] = PADDING_FREE
    for routes in itertools.product(route_options, repeat=bound.flows):
        rows = [
            np.arange(lo, hi, dtype=np.int64) for lo, hi in routes
        ]
        matrix, _lengths = pad_server_matrix(rows, pad)
        for free_vals in itertools.product(
            range(-1, bound.max_capacity + 1), repeat=bound.servers
        ):
            count += 1
            free[:pad] = free_vals
            kernel_verdicts = [bool(v) for v in kernel_fn(matrix, free)]
            sequential = sequential_slot_decisions(routes, free_vals)
            if kernel_verdicts != sequential:
                return CheckResult(
                    name="batch_equivalence",
                    backend="exhaustive",
                    status="violated",
                    elapsed_seconds=time.perf_counter() - start,
                    instances=count,
                    counterexample=Counterexample(
                        check="batch_equivalence",
                        backend="exhaustive",
                        servers=bound.servers,
                        capacities=tuple(free_vals),
                        routes=tuple(routes),
                        expected=tuple(sequential),
                        actual=tuple(kernel_verdicts),
                        detail=(
                            f"kernel {kernel_name!r} diverges from the "
                            "sequential reference"
                        ),
                    ),
                )
    if kernel is not None:
        raise VerificationError(
            f"mutant kernel {kernel_name!r} matched the sequential "
            f"reference on all {count} instances of bound "
            f"{bound.to_dict()} — bound too small to falsify, "
            "enlarge it"
        )
    return CheckResult(
        name="batch_equivalence",
        backend="exhaustive",
        status="passed",
        elapsed_seconds=time.perf_counter() - start,
        instances=count,
    )


#: Protect sets the preemption check quantifies over: the shipped
#: default, and one that shields a priority an arrival outranks.
_PROTECT_SETS = (("hard_rt",), ("hard_rt", "soft_rt"))


def _preemption_problem(
    capacities: Sequence[int],
    routes: Sequence[Tuple[int, int]],
    priorities: Sequence[Optional[str]],
    protect: Tuple[str, ...],
    preemptor: Callable[[Any, Any], Any],
) -> Optional[str]:
    """Run one instance: establish all flows but the last on the real
    controller, then send the last through ``admit`` and, if rejected,
    the preemptor.  Returns the first broken property, or ``None``."""
    from ..control.preempt import PreemptionPolicy

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
            controller.ledger.used_view(INSTANCE_CLASS).tolist(),
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
    if len(outcome.evicted) > policy.max_victims:
        return f"{len(outcome.evicted)} victims exceed max_victims"
    if outcome.admitted != controller.is_established(arrival.flow_id):
        return "outcome.admitted disagrees with the established set"
    if not outcome.admitted and (outcome.evicted or state() != before):
        return "a failed preemption changed the controller"
    problems = controller.verify_invariants()
    return problems[0] if problems else None


def exhaustive_preemption_safety(
    bound: VerifyBound,
    preemptor: Optional[Callable[[Any, Any], Any]] = None,
) -> CheckResult:
    """Check the preemptor's contract on every instance in the bound.

    The first ``flows - 1`` requests of an instance are established in
    order (those that fit), under every assignment of a priority — or
    none — to each; the last arrives ``hard_rt``, and if plain admission
    rejects it, goes to ``preemptor(controller, policy).try_admit``
    (the real :class:`~repro.control.preempt.Preemptor` unless the
    planner mutant is passed), once per protect set.  Checked: no
    victim is protected or outranks the arrival, at most
    ``max_victims`` are evicted, a failed attempt leaves ``snapshot()``
    and the ledger untouched, and ``verify_invariants()`` (no
    over-commit, ledger reconstructible) holds afterwards.
    """
    from ..control.preempt import Preemptor

    subject = preemptor or Preemptor
    start = time.perf_counter()
    route_options = bound.interval_routes()
    background = bound.flows - 1
    count = 0
    for capacities in itertools.product(
        range(bound.max_capacity + 1), repeat=bound.servers
    ):
        for routes in itertools.product(route_options, repeat=bound.flows):
            for chosen in itertools.product(
                (None,) + PRIORITIES, repeat=background
            ):
                priorities = chosen + ("hard_rt",)
                for protect in _PROTECT_SETS:
                    count += 1
                    detail = _preemption_problem(
                        capacities, routes, priorities, protect, subject
                    )
                    if detail is None:
                        continue
                    return CheckResult(
                        name="preemption_safety",
                        backend="exhaustive",
                        status="violated",
                        elapsed_seconds=time.perf_counter() - start,
                        instances=count,
                        counterexample=Counterexample(
                            check="preemption_safety",
                            backend="exhaustive",
                            servers=bound.servers,
                            capacities=tuple(capacities),
                            routes=tuple(routes),
                            priorities=priorities,
                            detail=f"protect={protect!r}: {detail}",
                        ),
                    )
    if preemptor is not None:
        raise VerificationError(
            "the planner mutant broke no preemption property on any of "
            f"the {count} instances of bound {bound.to_dict()} — bound "
            "too small to falsify, enlarge it"
        )
    return CheckResult(
        name="preemption_safety",
        backend="exhaustive",
        status="passed",
        elapsed_seconds=time.perf_counter() - start,
        instances=count,
    )
