"""Per-link-server utilization ledger.

The run-time state of utilization-based admission control is tiny: for
every (link server, class) pair, the number of currently reserved flow
slots.  A *slot* is one homogeneous class flow — the paper's model polices
every class-``i`` flow to the class envelope ``(T_i, rho_i)``, so a server
with bandwidth fraction ``alpha_i`` of capacity ``C`` supports at most
``floor(alpha_i * C / rho_i)`` flows of class ``i`` (constraint (8)).
:func:`granted_slots` is the one place that floor is taken, exactly.

The ledger enforces exactly that constraint with atomic multi-server
reserve/release, which is all the admission controller needs:
no per-flow state exists inside the ledger, mirroring the paper's claim
that core routers stay flow-unaware.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from ..errors import AdmissionError
from ..topology.servergraph import LinkServerGraph
from ..traffic.classes import ClassRegistry

__all__ = ["UtilizationLedger", "granted_slots"]


def granted_slots(alpha: float, capacities, rate: float):
    """Exact ``floor(alpha * C / rate)`` per server (a list), or for one
    capacity (an int), in integers over the floats' exact values:
    float64 rounds twice and can land on the next integer, one flow
    more than a certificate at ``alpha`` covers."""
    a_num, a_den = float(alpha).as_integer_ratio()
    r_num, r_den = float(rate).as_integer_ratio()
    num, den = a_num * r_den, a_den * r_num
    if isinstance(capacities, (int, float)):
        c_num, c_den = float(capacities).as_integer_ratio()
        return num * c_num // (den * c_den)
    floors = []
    for capacity in capacities:
        c_num, c_den = float(capacity).as_integer_ratio()
        floors.append(num * c_num // (den * c_den))
    return floors


class UtilizationLedger:
    """Slot accounting for every (link server, real-time class) pair.

    Every vector is a ``list[int]`` indexed by server: the run-time
    test is a compare of two ints per server, which no array library
    makes cheaper at a route's length.

    Degraded operation (fault tolerance)
    ------------------------------------
    Two orthogonal run-time restrictions support graceful degradation
    after failures, both reversible and both leaving ``used`` untouched:

    * :meth:`block_servers` zeroes the effective capacity of dead link
      servers so no new flow can reserve across a failed link;
    * :meth:`limit` caps every class at a second slot vector — the
      :func:`granted_slots` of a lower, certified alpha (a governor
      rung) or of the fault fallback's scaled alpha.  Effective slots
      are ``min(verified, limit)``.

    Either may push effective capacity below current usage; established
    flows are never evicted — admissions simply stay blocked until the
    ledger drains below the reduced ceiling.
    """

    def __init__(
        self,
        graph: LinkServerGraph,
        registry: ClassRegistry,
        alphas: Mapping[str, float],
    ):
        self.graph = graph
        self.registry = registry
        self._class_names = [c.name for c in registry.realtime_classes()]
        if not self._class_names:
            raise AdmissionError("no real-time class to account for")
        n = graph.num_servers
        self._capacity: Dict[str, List[int]] = {}
        self._capacity_full: Dict[str, List[int]] = {}
        self._limit: Optional[Mapping[str, Sequence[int]]] = None
        self._used: Dict[str, List[int]] = {}
        self._blocked: List[bool] = [False] * n
        total = 0.0
        for name in self._class_names:
            if name not in alphas:
                raise AdmissionError(f"missing alpha for class {name!r}")
            alpha = float(alphas[name])
            if not (0.0 < alpha <= 1.0):
                raise AdmissionError(
                    f"alpha for {name!r} must be in (0, 1], got {alpha}"
                )
            total += alpha
            slots = granted_slots(alpha, graph.capacities, registry.get(name).rate)
            self._capacity_full[name] = [int(s) for s in slots]
            self._capacity[name] = list(self._capacity_full[name])
            self._used[name] = [0] * n
        if total > 1.0 + 1e-12:
            raise AdmissionError(
                "sum of class utilizations exceeds link capacity"
            )

    # ------------------------------------------------------------------ #
    # degraded operation
    # ------------------------------------------------------------------ #

    def _recompute_effective(self) -> None:
        blocked = self._blocked
        for name in self._class_names:
            eff = list(self._capacity_full[name])
            if self._limit is not None:
                eff = [min(a, int(b)) for a, b in zip(eff, self._limit[name])]
            self._capacity[name] = [0 if b else c for c, b in zip(eff, blocked)]

    def block_servers(self, servers: Sequence[int]) -> None:
        """Zero the effective capacity of dead link servers."""
        for s in servers:
            self._blocked[s] = True
        self._recompute_effective()

    def unblock_servers(self, servers: Sequence[int]) -> None:
        """Restore capacity of previously blocked servers."""
        for s in servers:
            self._blocked[s] = False
        self._recompute_effective()

    @property
    def blocked_servers(self) -> List[int]:
        """Indices of currently blocked servers."""
        return [s for s, b in enumerate(self._blocked) if b]

    def limit(self, slots: Optional[Mapping[str, Sequence[int]]]) -> None:
        """Cap every class's effective slots at ``slots[class]``, per
        server; ``None`` lifts the cap (degraded mode)."""
        self._limit = slots
        self._recompute_effective()

    @property
    def limited(self) -> bool:
        """Whether a :meth:`limit` is in force."""
        return self._limit is not None

    def set_capacity(
        self, class_name: str, slots: Sequence[int]
    ) -> None:
        """Replace a class's verified slot vector.

        Installs ``slots`` as the new full capacity and recomputes the
        effective view (a limit and blocked servers still apply).
        ``used`` is untouched: shrinking below current usage never
        evicts established flows, it just blocks new admissions until
        the ledger drains.
        """
        self._check_class(class_name)
        full = [int(s) for s in slots]
        if len(full) != self.graph.num_servers:
            raise AdmissionError(
                f"capacity vector of {len(full)} servers != "
                f"{self.graph.num_servers}"
            )
        if any(s < 0 for s in full):
            raise AdmissionError("slot capacity must be non-negative")
        self._capacity_full[class_name] = full
        self._recompute_effective()

    # ------------------------------------------------------------------ #

    def slots(self, class_name: str) -> List[int]:
        """Per-server flow capacity of a class (a copy)."""
        self._check_class(class_name)
        return list(self._capacity[class_name])

    def capacity_view(self, class_name: str) -> List[int]:
        """Per-server slot capacity, **no copy** — callers must not
        mutate.  Kept for the frozen waterfall until ROADMAP 1(b), which
        subtracts :meth:`used_view` from it; served code reads
        :meth:`free`."""
        self._check_class(class_name)
        return self._capacity[class_name]

    def used_slots(self, class_name: str) -> List[int]:
        """Per-server reserved slots, **no copy** — callers must not
        mutate."""
        self._check_class(class_name)
        return self._used[class_name]

    def used_view(self, class_name: str):
        """Per-server reserved slots as an ``int64`` array (a copy).

        Kept for the frozen waterfall until ROADMAP 1(b); served code
        reads :meth:`used_slots`."""
        import numpy as np

        return np.array(self.used_slots(class_name), dtype=np.int64)

    def free(self, class_name: str) -> List[int]:
        """Per-server free slots, ``capacity - used`` (a new list; below
        zero where a limit or a block cut under the usage)."""
        self._check_class(class_name)
        return list(map(int.__sub__, self._capacity[class_name], self._used[class_name]))

    def available(self, class_name: str, servers: Sequence[int]) -> bool:
        """Can one more flow of the class fit on every listed server?

        This is the entire run-time admission test of the paper —
        O(path length) integer comparisons.
        """
        self._check_class(class_name)
        used, cap = self._used[class_name], self._capacity[class_name]
        for s in servers:
            if used[s] >= cap[s]:
                return False
        return True

    def try_reserve(self, class_name: str, servers: Sequence[int]) -> bool:
        """Reserve one slot on every listed server if each has one free.

        The run-time admission test and its commit in one pass: True
        with the slots held, or False with the ledger unchanged (never
        a partial reservation).
        """
        self._check_class(class_name)
        used, cap = self._used[class_name], self._capacity[class_name]
        for s in servers:
            if used[s] >= cap[s]:
                return False
        for s in servers:
            used[s] += 1
        return True

    def reserve(self, class_name: str, servers: Sequence[int]) -> None:
        """Atomically reserve one slot on every listed server.

        Raises :class:`AdmissionError` (leaving the ledger unchanged) if
        any server is full; :meth:`try_reserve` is the same commit
        answering False instead.
        """
        if not self.try_reserve(class_name, servers):
            raise AdmissionError(f"no free {class_name!r} slot on some server of the path")

    def commit_flat(
        self, class_name: str, servers: Sequence[int], n_flows: int
    ) -> None:
        """Commit pre-decided reservations for ``n_flows`` admitted flows.

        ``servers`` is the concatenation of every admitted flow's server
        indices (duplicates across flows expected — each occurrence
        consumes one slot).  The caller (the batch admission kernel) has
        already proven the sequential feasibility of the whole batch, so
        no availability check is repeated here.  The ledger keeps no
        per-flow count, so ``n_flows`` is only the caller's statement of
        how many flows ``servers`` covers.
        """
        self._check_class(class_name)
        used = self._used[class_name]
        for s in servers:
            used[s] += 1

    def release_flat(
        self, class_name: str, servers: Sequence[int], n_flows: int
    ) -> None:
        """Release reservations of ``n_flows`` flows in one operation.

        ``servers`` concatenates the released flows' server indices.
        The whole batch is validated against current usage before it
        counts: a batch that would free an unreserved slot raises with
        the ledger unchanged.  ``n_flows`` is unused, as in
        :meth:`commit_flat`.
        """
        self._check_class(class_name)
        used = self._used[class_name]
        done = 0
        for s in servers:
            if used[s] <= 0:
                for undo in servers[:done]:
                    used[undo] += 1
                raise AdmissionError(
                    f"releasing unreserved {class_name!r} slot"
                )
            used[s] -= 1
            done += 1

    def release(self, class_name: str, servers: Sequence[int]) -> None:
        """Release one slot on every listed server."""
        self._check_class(class_name)
        used = self._used[class_name]
        for s in servers:
            if used[s] <= 0:
                raise AdmissionError(
                    f"releasing unreserved {class_name!r} slot"
                )
        for s in servers:
            used[s] -= 1

    # ------------------------------------------------------------------ #
    # introspection (verification hooks)
    # ------------------------------------------------------------------ #

    def verified_list(self, class_name: str) -> List[int]:
        """Per-server *verified* (full) slot capacity — the certified
        ceiling that a limit shrinks from (a copy)."""
        self._check_class(class_name)
        return list(self._capacity_full[class_name])

    def verified_slots(self, class_name: str):
        """:meth:`verified_list` as an ``int64`` array.

        Kept for the frozen waterfall until ROADMAP 1(b)."""
        import numpy as np

        return np.array(self.verified_list(class_name), dtype=np.int64)

    def overcommitted(self, class_name: str) -> List[int]:
        """Server indices where reserved slots exceed the verified
        capacity.

        The paper's safety argument — every admitted flow keeps its
        deadline — rests on ``used <= verified capacity`` holding on
        every server at every instant.  Usage above the *effective*
        (degraded) capacity is legal and expected after faults; usage
        above the verified ceiling would void the certificate.  A
        correct controller always returns an empty list.
        """
        self._check_class(class_name)
        return [
            s for s, (u, c) in enumerate(
                zip(self._used[class_name], self._capacity_full[class_name])
            ) if u > c
        ]

    def verified_headroom(self) -> float:
        """Free fraction of the **verified** slot capacity, all classes.

        The governor's pressure signal: measured against the certified
        ceiling, not the degraded/effective one, so a DEC move never
        feeds back into its own input.  1.0 when nothing is certified.
        """
        total = used = 0
        for name in self._class_names:
            total += sum(self._capacity_full[name])
            used += sum(self._used[name])
        if total <= 0:
            return 1.0
        return max(0.0, (total - used) / total)

    # ------------------------------------------------------------------ #

    def _check_class(self, class_name: str) -> None:
        if class_name not in self._capacity:
            raise AdmissionError(
                f"class {class_name!r} is not a registered real-time class"
            )
