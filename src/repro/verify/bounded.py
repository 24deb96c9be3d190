"""Exhaustive bounded checking.

This module checks the bounded safety properties by enumerating every
concrete instance inside a :class:`~repro.verify.instances.\
VerifyBound` and running the **real production code** on each:

* :func:`exhaustive_no_overcommit` drives the real
  :class:`~repro.admission.utilization.UtilizationAdmissionController`
  through every (capacities, routes, releases) instance, auditing
  :meth:`verify_invariants` after every single event and comparing
  verdicts against the executable model;
* :func:`exhaustive_batch_equivalence` runs the real
  :func:`~repro.admission.batch.batch_slot_decisions` kernel (or a
  deliberately broken mutant from :mod:`repro.verify.mutants`) against
  the sequential reference
  (:func:`~repro.admission.kernels.batch_slot_decisions_sequential`) on
  every (routes, free-vector) instance;
* :func:`exhaustive_preemption_safety` hands every arrival the
  controller rejects to the real
  :class:`~repro.control.preempt.Preemptor` (or the planner mutant)
  over every assignment of priorities to the established flows: never a
  protected victim, all or nothing, invariants intact.

Because the subjects are the shipped kernel and controller — not a
model of them — a *code* mutant is caught where it lives, and the
checker runs in tier-1 with no optional dependencies.  CCAC's
constraint encodings (SNIPPETS.md) stay the modelling reference for
new properties.  At the default bound (3 flows x 2 servers) that is
~1.5k controller instances and ~430 kernel instances, well under a second,
and ~7.8k preemption instances in ~1.5 s.

:data:`CHECKS` is the one list of them: a :class:`Check` row names the
function, the mutants it must catch, and the replay that re-runs a
decoded counterexample through the real code.  ``repro-ubac verify``
runs the rows :func:`select_checks` picks; a new check is a new row.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple,
)

import numpy as np

from ..errors import VerificationError
from ..traffic.flows import PRIORITIES, FlowSpec
from .instances import (
    INSTANCE_CLASS,
    PROTECT_SETS,
    CheckResult,
    Counterexample,
    VerifyBound,
    build_chain_controller,
    kernel_slot_decisions,
    preemption_problem,
    replay_batch_equivalence,
    replay_no_overcommit,
    replay_preemption_safety,
    simulate_sequential,
)
from .mutants import (
    mutant_admit_on_full,
    mutant_bincount_exit_any,
    mutant_ignore_contention,
    mutant_loop_admit_on_full,
    mutant_planner_ignores_protect,
)

__all__ = [
    "CHECKS",
    "Check",
    "exhaustive_batch_equivalence",
    "exhaustive_no_overcommit",
    "exhaustive_preemption_safety",
    "iter_release_patterns",
    "select_checks",
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


def _result(name: str, start: float, instances: int, **found) -> CheckResult:
    """A check's outcome: ``violated`` with ``found`` (the fields of the
    decoded :class:`Counterexample`), or ``passed`` when it is empty."""
    return CheckResult(
        name=name,
        status="violated" if found else "passed",
        elapsed_seconds=time.perf_counter() - start,
        instances=instances,
        counterexample=Counterexample(check=name, **found) if found else None,
    )


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
                    expected, _ = simulate_sequential(
                        capacities, routes, releases
                    )
                    actual = verdicts
                    i, s, occ, cap = violations[0]
                    detail = (
                        f"after arrival {i}, server {s} holds "
                        f"{occ} slots over capacity {cap}"
                    )
                elif admit_on_full:
                    continue  # mutant hunt: only violations matter
                else:
                    actual, problems = _drive_instance(
                        capacities, routes, releases
                    )
                    if actual == verdicts and not problems:
                        continue
                    expected = verdicts
                    detail = (
                        problems[0]
                        if problems
                        else "controller verdicts diverge from the "
                        "sequential model"
                    )
                return _result(
                    "no_overcommit", start, count, servers=bound.servers,
                    capacities=tuple(capacities),
                    routes=tuple(routes),
                    releases=tuple(releases),
                    expected=tuple(expected),
                    actual=tuple(actual),
                    detail=detail,
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
    return _result("no_overcommit", start, count)


def exhaustive_batch_equivalence(
    bound: VerifyBound,
    kernel: Optional[Callable[..., np.ndarray]] = None,
) -> CheckResult:
    """Check batch-kernel <=> sequential-loop equivalence exhaustively:
    every interval-route assignment of the bound against every
    pre-batch free vector, down to ``-1`` so degraded servers (capacity
    below current usage) are covered.

    ``kernel`` is the real
    :func:`~repro.admission.batch.batch_slot_decisions` unless a mutant
    is passed; the first instance on which it and
    :func:`~repro.admission.kernels.batch_slot_decisions_sequential`
    disagree is decoded into a replayable counterexample."""
    from ..admission.batch import batch_slot_decisions
    from ..admission.kernels import batch_slot_decisions_sequential

    kernel_fn = kernel or batch_slot_decisions
    start = time.perf_counter()
    count = 0
    for routes in itertools.product(
        bound.interval_routes(), repeat=bound.flows
    ):
        for free in itertools.product(
            range(-1, bound.max_capacity + 1), repeat=bound.servers
        ):
            count += 1
            expected = kernel_slot_decisions(
                batch_slot_decisions_sequential, routes, free
            )
            actual = kernel_slot_decisions(kernel_fn, routes, free)
            if actual != expected:
                return _result(
                    "batch_equivalence", start, count,
                    servers=bound.servers,
                    capacities=tuple(free),
                    routes=tuple(routes),
                    expected=tuple(expected),
                    actual=tuple(actual),
                    detail=f"kernel {kernel_fn.__name__!r} diverges from "
                    "the sequential reference",
                )
    if kernel is not None:
        raise VerificationError(
            f"mutant kernel {kernel.__name__!r} matched the sequential "
            f"reference on all {count} batch_equivalence instances of "
            f"bound {bound.to_dict()} — bound too small to falsify, "
            "enlarge it"
        )
    return _result("batch_equivalence", start, count)


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
                for protect in PROTECT_SETS:
                    count += 1
                    detail = preemption_problem(
                        capacities, routes, priorities, protect, subject
                    )
                    if detail is None:
                        continue
                    return _result(
                        "preemption_safety", start, count, servers=bound.servers,
                        capacities=tuple(capacities),
                        routes=tuple(routes),
                        priorities=priorities,
                        detail=f"protect={protect!r}: {detail}",
                    )
    if preemptor is not None:
        raise VerificationError(
            "the planner mutant broke no preemption property on any of "
            f"the {count} instances of bound {bound.to_dict()} — bound "
            "too small to falsify, enlarge it"
        )
    return _result("preemption_safety", start, count)


# --------------------------------------------------------------------- #
# the table
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Check:
    """One row of the bounded checker.

    ``run`` checks every instance of a :class:`VerifyBound`; ``replay``
    re-runs one decoded :class:`Counterexample` through the real code
    and says whether it ``reproduced`` the violation.  ``mutants`` maps
    each planted bug the check must catch to the keyword arguments that
    plant it in both; without them, both run the shipped code.
    """

    name: str
    run: Callable[..., CheckResult]
    mutants: Mapping[str, Mapping[str, Any]]
    replay: Callable[..., Dict[str, Any]]

    def check(
        self, bound: VerifyBound, mutant: Optional[str] = None
    ) -> CheckResult:
        """Run the check over ``bound``, with ``mutant`` planted."""
        return self.run(bound, **self._planted(mutant))

    def reproduces(
        self, cx: Counterexample, mutant: Optional[str] = None
    ) -> bool:
        """Whether ``cx`` breaks the code again, ``mutant`` planted."""
        return bool(self.replay(cx, **self._planted(mutant))["reproduced"])

    def _planted(self, mutant: Optional[str]) -> Mapping[str, Any]:
        return {} if mutant is None else self.mutants[mutant]


#: Every bounded check, in the order ``repro-ubac verify`` runs them.
CHECKS = (
    Check(
        "no_overcommit",
        run=exhaustive_no_overcommit,
        mutants={"admit_on_full": {"admit_on_full": True}},
        replay=replay_no_overcommit,
    ),
    Check(
        "batch_equivalence",
        run=exhaustive_batch_equivalence,
        mutants={
            "admit_on_full": {"kernel": mutant_admit_on_full},
            "ignore_contention": {"kernel": mutant_ignore_contention},
            "loop_admit_on_full": {"kernel": mutant_loop_admit_on_full},
            "bincount_exit_any": {"kernel": mutant_bincount_exit_any},
        },
        replay=replay_batch_equivalence,
    ),
    Check(
        "preemption_safety",
        run=exhaustive_preemption_safety,
        mutants={
            "planner_ignores_protect": {
                "preemptor": mutant_planner_ignores_protect,
            },
        },
        replay=replay_preemption_safety,
    ),
)


def select_checks(
    names: Optional[Sequence[str]] = None, mutant: Optional[str] = None
) -> Tuple[Check, ...]:
    """The rows of :data:`CHECKS` a run executes, in table order: the
    ones ``names`` lists (every row when it is empty) that must catch
    ``mutant``, when one is given.  An unknown name, or a selection with
    no row left, is a :class:`VerificationError` naming the choices."""
    checks = [row.name for row in CHECKS]
    mutants = sorted({m for row in CHECKS for m in row.mutants})
    for name in names or ():
        if name not in checks:
            raise VerificationError(
                f"unknown check {name!r}; choose from {', '.join(checks)}"
            )
    if mutant is not None and mutant not in mutants:
        raise VerificationError(
            f"unknown mutant {mutant!r}; choose from {', '.join(mutants)}"
        )
    rows = tuple(
        row for row in CHECKS
        if (not names or row.name in names)
        and (mutant is None or mutant in row.mutants)
    )
    if not rows:
        raise VerificationError(
            f"mutant {mutant!r} is caught by none of the checks "
            f"{', '.join(names or ())}"
        )
    return rows
