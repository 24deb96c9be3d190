"""Per-link-server utilization ledger.

The run-time state of utilization-based admission control is tiny: for
every (link server, class) pair, the number of currently reserved flow
slots.  A *slot* is one homogeneous class flow — the paper's model polices
every class-``i`` flow to the class envelope ``(T_i, rho_i)``, so a server
with bandwidth fraction ``alpha_i`` of capacity ``C`` supports at most
``floor(alpha_i * C / rho_i)`` flows of class ``i`` (constraint (8)).

The ledger enforces exactly that constraint with atomic multi-server
reserve/release, which is all the admission controller needs:
no per-flow state exists inside the ledger, mirroring the paper's claim
that core routers stay flow-unaware.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np

from ..errors import AdmissionError
from ..obs import OBS
from ..topology.servergraph import LinkServerGraph
from ..traffic.classes import ClassRegistry

__all__ = ["UtilizationLedger"]


class UtilizationLedger:
    """Slot accounting for every (link server, real-time class) pair.

    Degraded operation (fault tolerance)
    ------------------------------------
    Two orthogonal run-time restrictions support graceful degradation
    after failures, both reversible and both leaving ``used`` untouched:

    * :meth:`block_servers` zeroes the effective capacity of dead link
      servers so no new flow can reserve across a failed link;
    * :meth:`set_degradation` scales every capacity by a factor in
      (0, 1], the "lower effective alpha" fallback used when no verified
      repair exists.

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
        self._used: Dict[str, np.ndarray] = {}
        self._blocked: np.ndarray = np.zeros(graph.num_servers, dtype=bool)
        self._degradation = 1.0
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
            rate = registry.get(name).rate
            slots = np.floor(alpha * graph.capacities / rate).astype(np.int64)
            self._capacity[name] = slots
            self._capacity_full[name] = slots.copy()
            self._used[name] = np.zeros(graph.num_servers, dtype=np.int64)
        if np.any(total > 1.0 + 1e-12):
            raise AdmissionError(
                "sum of class utilizations exceeds link capacity"
            )

    # ------------------------------------------------------------------ #
    # degraded operation
    # ------------------------------------------------------------------ #

    def _recompute_effective(self) -> None:
        for name in self._class_names:
            eff = np.floor(
                self._capacity_full[name] * self._degradation
            ).astype(np.int64)
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

    def set_degradation(self, factor: float) -> None:
        """Scale all slot capacities by ``factor`` (degraded mode)."""
        if not (0.0 < factor <= 1.0):
            raise AdmissionError(
                f"degradation factor must be in (0, 1], got {factor}"
            )
        self._degradation = float(factor)
        self._recompute_effective()

    def clear_degradation(self) -> None:
        """Return to the full verified capacities."""
        self._degradation = 1.0
        self._recompute_effective()

    @property
    def degradation(self) -> float:
        return self._degradation

    def set_capacity(
        self, class_name: str, slots: Sequence[int]
    ) -> None:
        """Replace a class's verified slot vector (rebalance hook).

        Installs ``slots`` as the new full capacity and recomputes the
        effective view (degradation and blocked servers still apply).
        ``used`` is untouched: shrinking below current usage never
        evicts established flows, it just blocks new admissions until
        the ledger drains — the quota-shard rebalance contract.
        """
        self._check_class(class_name)
        arr = np.asarray(slots, dtype=np.int64)
        if arr.shape != (self.graph.num_servers,):
            raise AdmissionError(
                f"capacity vector shape {arr.shape} != "
                f"({self.graph.num_servers},)"
            )
        if np.any(arr < 0):
            raise AdmissionError("slot capacity must be non-negative")
        self._capacity_full[class_name] = arr.copy()
        self._recompute_effective()

    # ------------------------------------------------------------------ #

    def slots(self, class_name: str) -> np.ndarray:
        """Per-server flow capacity of a class (read-only copy)."""
        self._check_class(class_name)
        return self._capacity[class_name].copy()

    def used(self, class_name: str) -> np.ndarray:
        """Per-server reserved slots of a class (read-only copy)."""
        self._check_class(class_name)
        return self._used[class_name].copy()

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
        return bool(
            np.all(
                self._used[class_name][idx] < self._capacity[class_name][idx]
            )
        )

    def reserve(self, class_name: str, servers: Sequence[int]) -> None:
        """Atomically reserve one slot on every listed server.

        Raises :class:`AdmissionError` (leaving the ledger unchanged) if
        any server is full — callers should test :meth:`available` first;
        the raise protects against races/misuse.
        """
        if not self.available(class_name, servers):
            if OBS.enabled:
                OBS.registry.counter(
                    "repro_ledger_reserve_conflicts_total", cls=class_name
                ).inc()
            raise AdmissionError(
                f"no free {class_name!r} slot on some server of the path"
            )
        idx = np.asarray(servers, dtype=np.int64)
        self._used[class_name][idx] += 1
        if OBS.enabled:
            reg = OBS.registry
            reg.counter(
                "repro_ledger_reserves_total", cls=class_name
            ).inc()
            reg.gauge(
                "repro_ledger_slots_in_use", cls=class_name
            ).inc(idx.size)

    def commit_flat(
        self, class_name: str, servers: np.ndarray, n_flows: int
    ) -> None:
        """Commit pre-decided reservations for ``n_flows`` admitted flows.

        ``servers`` is the concatenation of every admitted flow's server
        indices (duplicates across flows expected — each occurrence
        consumes one slot).  The caller (the batch admission kernel) has
        already proven the sequential feasibility of the whole batch, so
        no availability check is repeated here.  Counter increments
        match ``n_flows`` individual :meth:`reserve` calls.
        """
        self._check_class(class_name)
        idx = np.asarray(servers, dtype=np.int64)
        np.add.at(self._used[class_name], idx, 1)
        if OBS.enabled:
            reg = OBS.registry
            reg.counter(
                "repro_ledger_reserves_total", cls=class_name
            ).inc(n_flows)
            reg.gauge(
                "repro_ledger_slots_in_use", cls=class_name
            ).inc(idx.size)

    def release_flat(
        self, class_name: str, servers: np.ndarray, n_flows: int
    ) -> None:
        """Release reservations of ``n_flows`` flows in one operation.

        ``servers`` concatenates the released flows' server indices.
        The whole batch is validated against current usage before any
        slot is freed; counter increments match ``n_flows`` individual
        :meth:`release` calls.
        """
        self._check_class(class_name)
        used = self._used[class_name]
        idx = np.asarray(servers, dtype=np.int64)
        counts = np.bincount(idx, minlength=used.size)
        if np.any(used < counts):
            raise AdmissionError(
                f"releasing unreserved {class_name!r} slot"
            )
        used -= counts
        if OBS.enabled:
            reg = OBS.registry
            reg.counter(
                "repro_ledger_releases_total", cls=class_name
            ).inc(n_flows)
            reg.gauge(
                "repro_ledger_slots_in_use", cls=class_name
            ).dec(idx.size)

    def release(self, class_name: str, servers: Sequence[int]) -> None:
        """Release one slot on every listed server."""
        self._check_class(class_name)
        idx = np.asarray(servers, dtype=np.int64)
        if np.any(self._used[class_name][idx] <= 0):
            raise AdmissionError(
                f"releasing unreserved {class_name!r} slot"
            )
        self._used[class_name][idx] -= 1
        if OBS.enabled:
            reg = OBS.registry
            reg.counter(
                "repro_ledger_releases_total", cls=class_name
            ).inc()
            reg.gauge(
                "repro_ledger_slots_in_use", cls=class_name
            ).dec(idx.size)

    # ------------------------------------------------------------------ #
    # introspection (verification hooks)
    # ------------------------------------------------------------------ #

    def verified_slots(self, class_name: str) -> np.ndarray:
        """Per-server *verified* (full) slot capacity — the certified
        ceiling that degraded operation shrinks from (read-only copy)."""
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

    def occupancy(self, class_name: str) -> Dict[str, np.ndarray]:
        """Used / effective / verified slot vectors of a class (copies)."""
        self._check_class(class_name)
        return {
            "used": self._used[class_name].copy(),
            "effective": self._capacity[class_name].copy(),
            "verified": self._capacity_full[class_name].copy(),
        }

    # ------------------------------------------------------------------ #

    def utilization(self, class_name: str) -> np.ndarray:
        """Fraction of link bandwidth in use by the class, per server."""
        self._check_class(class_name)
        rate = self.registry.get(class_name).rate
        return self._used[class_name] * rate / self.graph.capacities

    def bottleneck(self, class_name: str) -> Tuple[int, float]:
        """(server index, occupancy ratio) of the fullest server."""
        self._check_class(class_name)
        cap = self._capacity[class_name]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(cap > 0, self._used[class_name] / cap, 0.0)
        k = int(np.argmax(ratio))
        return k, float(ratio[k])

    def total_reserved_rate(self) -> np.ndarray:
        """Aggregate reserved real-time rate per server (bits/second)."""
        out = np.zeros(self.graph.num_servers)
        for name in self._class_names:
            out += self._used[name] * self.registry.get(name).rate
        return out

    def _check_class(self, class_name: str) -> None:
        if class_name not in self._capacity:
            raise AdmissionError(
                f"class {class_name!r} is not a registered real-time class"
            )
