"""Priority preemption: sacrifice low-priority flows for hard-RT ones.

When a hard real-time arrival is rejected for lack of slots, the
:class:`Preemptor` plans a minimal eviction set among established
lower-priority flows of the same class whose committed routes cross the
saturated servers, evicts them through the controller's **ordinary
release path**, and re-admits the arrival.  Planning happens before any
eviction: if no lower-priority set can cover the deficit, nothing is
released — a failed preemption has zero side effects.

Safety properties (pinned by the property suite):

* a flow whose priority is in :attr:`PreemptionPolicy.protect`
  (``hard_rt`` by default) is **never** evicted;
* every eviction goes through
  :meth:`~repro.admission.base.AdmissionController.release`, so
  ``verify_invariants()`` holds after every step and survivors keep
  their committed routes untouched;
* the ledger is only ever freed-then-reserved, so effective usage
  never exceeds the certified capacity at any instant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Hashable, List, Optional, Set, Tuple

import numpy as np

from ..errors import AdmissionError, ReproError
from ..traffic.flows import PRIORITY_TAGS, FlowSpec, priority_rank

if TYPE_CHECKING:
    from ..admission.utilization import UtilizationAdmissionController

__all__ = ["PreemptionOutcome", "PreemptionPolicy", "Preemptor"]


@dataclass(frozen=True)
class PreemptionPolicy:
    """Knobs of the sacrifice policy.

    Attributes
    ----------
    admit_priorities:
        Arrival priorities allowed to trigger a preemption.
    protect:
        Priorities that can never be evicted.
    max_victims:
        Upper bound on evictions per admitted arrival.
    """

    admit_priorities: Tuple[str, ...] = ("hard_rt",)
    protect: Tuple[str, ...] = ("hard_rt",)
    max_victims: int = 8

    def __post_init__(self):
        if self.max_victims < 1:
            raise AdmissionError(
                f"max_victims must be >= 1, got {self.max_victims}"
            )


@dataclass(frozen=True)
class PreemptionOutcome:
    """Result of one :meth:`Preemptor.try_admit` attempt."""

    admitted: bool
    evicted: Tuple[Hashable, ...] = ()
    reason: str = ""
    #: The re-admit :class:`~repro.admission.base.AdmissionDecision`
    #: when the preemption went through (None on failure).
    decision: Optional[Any] = None


class Preemptor:
    """Plans and executes evictions against one slot-ledger controller
    (the shared ledger or one shard of it)."""

    def __init__(
        self,
        controller: UtilizationAdmissionController,
        policy: PreemptionPolicy = PreemptionPolicy(),
    ):
        self.controller = controller
        self.policy = policy
        self.preempted_total = 0
        self.preempted_admits = 0

    # ------------------------------------------------------------------ #

    def try_admit(self, flow: FlowSpec) -> PreemptionOutcome:
        """Attempt to admit a just-rejected flow by sacrificing others.

        Call only after a plain admission of ``flow`` was rejected.
        If the rejection is stale (the route has room again — e.g. an
        earlier eviction in the same batched preemption pass freed it)
        the flow is re-admitted with no sacrifice.  Returns
        ``admitted=False`` with ``evicted=()`` when no safe eviction
        plan exists — in that case the controller state is untouched.
        """
        ctrl = self.controller
        policy = self.policy
        if flow.priority not in policy.admit_priorities:
            return PreemptionOutcome(False, (), "priority not eligible")
        try:
            route = ctrl.check_admit(flow)
        except ReproError as exc:
            return PreemptionOutcome(False, (), str(exc))
        ledger = ctrl.ledger
        cls = flow.class_name
        if not ctrl.registry.get(cls).is_realtime:
            return PreemptionOutcome(
                False, (), "best-effort flows hold no slots"
            )
        servers = ctrl.servers_for(flow, route)
        free = (
            ledger.capacity_view(cls)[servers]
            - ledger.used_view(cls)[servers]
        )
        # Per-server slot deficit: each eviction frees exactly one slot
        # on every server of the victim's route, and the arrival needs
        # one free slot everywhere — so server ``s`` needs ``1 - free``
        # evictions.  Under a degraded/governed ledger ``free`` can be
        # negative, making the deficit larger than one.
        deficit: Dict[int, int] = {
            int(s): 1 - int(f) for s, f in zip(servers, free) if f <= 0
        }
        saturated: Set[int] = set(deficit)
        if not saturated:
            # The rejection is stale: in a batched preemption pass
            # every decision is taken before any sacrifice, so an
            # earlier eviction may have freed this route already.
            # Re-admit plainly — nothing needs to be sacrificed.
            decision = ctrl.admit(flow)
            if decision.admitted:
                return PreemptionOutcome(True, (), "", decision)
            return PreemptionOutcome(False, (), "no saturated server")
        blocked = set(int(s) for s in ledger.blocked_servers)
        if saturated & blocked:
            return PreemptionOutcome(
                False, (), "route crosses a blocked server"
            )

        plan = self._plan(flow, deficit)
        if plan is None:
            return PreemptionOutcome(
                False, (), "no lower-priority flows cover the deficit"
            )
        for victim_id in plan:
            ctrl.release(victim_id)
        decision = ctrl.admit(flow)
        self.preempted_total += len(plan)
        if decision.admitted:
            self.preempted_admits += 1
        return PreemptionOutcome(
            decision.admitted, tuple(plan), decision.reason, decision
        )

    # ------------------------------------------------------------------ #

    def _plan(
        self, flow: FlowSpec, deficit: "Dict[int, int]"
    ) -> "List[Hashable] | None":
        """Greedy minimal cover of the per-server slot deficits.

        Candidates are established flows of the same class with
        strictly lower priority (never a protected one) whose committed
        servers intersect the deficit — one scan of the controller's
        flow table, not a walk over flow objects.  Each eviction
        reduces every touched server's deficit by one; the plan is
        complete when all deficits reach zero.  Deterministic: ties
        break by (priority rank, flow id repr).
        """
        policy = self.policy
        arrival_rank = priority_rank(flow.priority)
        evictable = [
            tag
            for priority, tag in PRIORITY_TAGS.items()
            if priority not in policy.protect
            and priority_rank(priority) < arrival_rank
        ]
        servers = list(deficit)
        ids, tags, hits = self.controller.slot_holders(
            flow.class_name, evictable, servers
        )
        # A tag is its priority's rank, but for unset (-1, rank 0).
        ranks = np.maximum(tags, 0).tolist()
        order = sorted(
            range(len(ids)), key=lambda i: (ranks[i], repr(ids[i]))
        )
        hits = hits[:, order]
        remaining = np.array([deficit[s] for s in servers])
        plan: List[Hashable] = []
        while (remaining > 0).any() and len(plan) < policy.max_victims:
            gain = hits[remaining > 0].sum(axis=0)
            if not gain.any():
                return None
            # argmax takes the first of equal gains: the tie-break.
            best = int(gain.argmax())
            plan.append(ids[order[best]])
            remaining -= hits[:, best]
            hits[:, best] = False
        if (remaining > 0).any():
            return None
        return plan
