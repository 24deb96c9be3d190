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

from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from ..errors import AdmissionError
from ..topology.servergraph import LinkServerGraph
from ..traffic.classes import ClassRegistry

__all__ = ["UtilizationLedger", "granted_slots"]


def granted_slots(alpha: float, capacities, rate: float) -> np.ndarray:
    """Exact ``floor(alpha * C / rate)`` per server, in integers over the
    floats' exact values: float64 rounds twice and can land on the next
    integer, one flow more than a certificate at ``alpha`` covers."""
    a_num, a_den = float(alpha).as_integer_ratio()
    r_num, r_den = float(rate).as_integer_ratio()
    caps = np.asarray(capacities, dtype=np.float64)
    ratios = map(float.as_integer_ratio, caps.ravel().tolist())
    floors = [a_num * r_den * c_num // (a_den * r_num * c_den) for c_num, c_den in ratios]
    return np.array(floors, dtype=np.int64).reshape(caps.shape)


class UtilizationLedger:
    """Slot accounting for every (link server, real-time class) pair.

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
        self._capacity: Dict[str, np.ndarray] = {}
        self._capacity_full: Dict[str, np.ndarray] = {}
        self._limit: Optional[Mapping[str, np.ndarray]] = None
        self._used: Dict[str, np.ndarray] = {}
        self._blocked: np.ndarray = np.zeros(graph.num_servers, dtype=bool)
        total = np.zeros(graph.num_servers)
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
            self._capacity[name] = slots
            self._capacity_full[name] = slots.copy()
            self._used[name] = np.zeros(graph.num_servers, dtype=np.int64)
        if (total > 1.0 + 1e-12).any():
            raise AdmissionError(
                "sum of class utilizations exceeds link capacity"
            )

    # ------------------------------------------------------------------ #
    # degraded operation
    # ------------------------------------------------------------------ #

    def _recompute_effective(self) -> None:
        for name in self._class_names:
            eff = self._capacity_full[name].copy()
            if self._limit is not None:
                np.minimum(eff, self._limit[name], out=eff)
            eff[self._blocked] = 0
            self._capacity[name] = eff

    def block_servers(self, servers: Sequence[int]) -> None:
        """Zero the effective capacity of dead link servers."""
        self._blocked[np.asarray(servers, dtype=np.int64)] = True
        self._recompute_effective()

    def unblock_servers(self, servers: Sequence[int]) -> None:
        """Restore capacity of previously blocked servers."""
        self._blocked[np.asarray(servers, dtype=np.int64)] = False
        self._recompute_effective()

    @property
    def blocked_servers(self) -> np.ndarray:
        """Indices of currently blocked servers."""
        return np.flatnonzero(self._blocked)

    def limit(self, slots: Optional[Mapping[str, np.ndarray]]) -> None:
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
        arr = np.asarray(slots, dtype=np.int64)
        if arr.shape != (self.graph.num_servers,):
            raise AdmissionError(
                f"capacity vector shape {arr.shape} != "
                f"({self.graph.num_servers},)"
            )
        if (arr < 0).any():
            raise AdmissionError("slot capacity must be non-negative")
        self._capacity_full[class_name] = arr.copy()
        self._recompute_effective()

    # ------------------------------------------------------------------ #

    def slots(self, class_name: str) -> np.ndarray:
        """Per-server flow capacity of a class (read-only copy)."""
        self._check_class(class_name)
        return self._capacity[class_name].copy()

    def capacity_view(self, class_name: str) -> np.ndarray:
        """Per-server slot capacity, **no copy** — callers must not
        mutate.  Hot-path twin of :meth:`slots` for the batch engine."""
        self._check_class(class_name)
        return self._capacity[class_name]

    def used_view(self, class_name: str) -> np.ndarray:
        """Per-server reserved slots, **no copy** — callers must not
        mutate.  Hot-path twin of :meth:`used` for the batch engine."""
        self._check_class(class_name)
        return self._used[class_name]

    def available(self, class_name: str, servers: Sequence[int]) -> bool:
        """Can one more flow of the class fit on every listed server?

        This is the entire run-time admission test of the paper —
        O(path length) integer comparisons.
        """
        self._check_class(class_name)
        idx = np.asarray(servers, dtype=np.int64)
        fits = self._used[class_name][idx] < self._capacity[class_name][idx]
        return bool(fits.all())

    def try_reserve(self, class_name: str, servers: Sequence[int]) -> bool:
        """Reserve one slot on every listed server if each has one free.

        The run-time admission test and its commit in one pass: True
        with the slots held, or False with the ledger unchanged (never
        a partial reservation).
        """
        self._check_class(class_name)
        idx = np.asarray(servers, dtype=np.int64)
        used = self._used[class_name]
        if not (used[idx] < self._capacity[class_name][idx]).all():
            return False
        used[idx] += 1
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
        self, class_name: str, servers: np.ndarray, n_flows: int
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
        idx = np.asarray(servers, dtype=np.int64)
        np.add.at(self._used[class_name], idx, 1)

    def release_flat(
        self, class_name: str, servers: np.ndarray, n_flows: int
    ) -> None:
        """Release reservations of ``n_flows`` flows in one operation.

        ``servers`` concatenates the released flows' server indices.
        The whole batch is validated against current usage before any
        slot is freed.  ``n_flows`` is unused, as in :meth:`commit_flat`.
        """
        self._check_class(class_name)
        used = self._used[class_name]
        idx = np.asarray(servers, dtype=np.int64)
        counts = np.bincount(idx, minlength=used.size)
        if (used < counts).any():
            raise AdmissionError(
                f"releasing unreserved {class_name!r} slot"
            )
        used -= counts

    def release(self, class_name: str, servers: Sequence[int]) -> None:
        """Release one slot on every listed server."""
        self._check_class(class_name)
        idx = np.asarray(servers, dtype=np.int64)
        if (self._used[class_name][idx] <= 0).any():
            raise AdmissionError(
                f"releasing unreserved {class_name!r} slot"
            )
        self._used[class_name][idx] -= 1

    # ------------------------------------------------------------------ #
    # introspection (verification hooks)
    # ------------------------------------------------------------------ #

    def verified_slots(self, class_name: str) -> np.ndarray:
        """Per-server *verified* (full) slot capacity — the certified
        ceiling that a limit shrinks from (read-only copy)."""
        self._check_class(class_name)
        return self._capacity_full[class_name].copy()

    def overcommitted(self, class_name: str) -> np.ndarray:
        """Server indices where reserved slots exceed the verified
        capacity.

        The paper's safety argument — every admitted flow keeps its
        deadline — rests on ``used <= verified capacity`` holding on
        every server at every instant.  Usage above the *effective*
        (degraded) capacity is legal and expected after faults; usage
        above the verified ceiling would void the certificate.  A
        correct controller always returns an empty array.
        """
        self._check_class(class_name)
        return np.flatnonzero(
            self._used[class_name] > self._capacity_full[class_name]
        )

    def verified_headroom(self) -> float:
        """Free fraction of the **verified** slot capacity, all classes.

        The governor's pressure signal: measured against the certified
        ceiling, not the degraded/effective one, so a DEC move never
        feeds back into its own input.  1.0 when nothing is certified.
        """
        total = used = 0
        for name in self._class_names:
            total += int(self._capacity_full[name].sum())
            used += int(self._used[name].sum())
        if total <= 0:
            return 1.0
        return max(0.0, (total - used) / total)

    # ------------------------------------------------------------------ #

    def _check_class(self, class_name: str) -> None:
        if class_name not in self._capacity:
            raise AdmissionError(
                f"class {class_name!r} is not a registered real-time class"
            )
