"""Chaos harness: replay fault schedules against a live co-simulation.

The harness drives three coupled machines through a shared timeline:

* a **run-time admission controller** (the shared slot ledger) fed the
  flow arrival/departure schedule;
* the **configuration-time repair machinery** — on a topology fault the
  established flows are partitioned into survivors and casualties, the
  incremental Section 5.2 repair re-routes the casualties online, and
  when no *verified* repair exists the harness falls back to a degraded
  admission mode (reduced effective ``alpha``, uncertified shortest-path
  reroutes, exponential backoff-and-retry for rejected re-admissions);
* the **packet simulator**, replaying every admitted flow's lifetime —
  including mid-run failure events inside the event loop, so packets in
  flight across a dying link are genuinely lost.

Everything observable lands in a deterministic
:class:`~repro.faults.report.TransitionReport`: same configuration +
flow schedule + fault schedule + seed => bit-identical report.
Wall-clock costs (repair compute time) go to :mod:`repro.obs` only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..admission.statistics import Lifetime
from ..admission.utilization import UtilizationAdmissionController
from ..config.configured import ConfiguredNetwork
from ..config.repair import repair_routes
from ..errors import AdmissionError, FaultInjectionError, NoRouteError
from ..obs import OBS
from ..routing.partition import route_uses_link, route_uses_router
from ..routing.shortest import shortest_path_routes
from ..simulation.cosim import simulate_lifetimes
from ..simulation.events import EventQueue
from ..simulation.simulator import Simulator
from ..topology.network import Network
from ..workload.trace import TraceEvent
from . import degraded
from .report import FlowAccount, TransitionRecord, TransitionReport
from .schedule import FaultEvent, FaultSchedule

__all__ = ["ChaosHarness"]

Pair = Tuple[Hashable, Hashable]


@dataclass
class _Retry:
    flow: object
    attempt: int
    record: TransitionRecord


class ChaosHarness:
    """Replays a fault schedule against a running admission system.

    Parameters
    ----------
    cfg:
        The verified configuration under test.  The degraded-mode
        fallback (alpha scale, backoff, repair latency) is
        :mod:`repro.faults.degraded`'s constants.
    ladder:
        Optional pre-certified :class:`~repro.control.AlphaLadder`; a
        fresh :class:`~repro.control.AlphaGovernor` over it is stepped
        on every arrival (headroom-driven — the harness has no service
        queue), and its rung's alphas compose with the fault
        fallback's as their per-class min.
    governor_config:
        Detector knobs for the governor (with ``ladder``).
    preemption:
        Optional :class:`~repro.control.PreemptionPolicy`; rejected
        arrivals whose priority is preemption-eligible then evict
        established lower-priority flows (outcome ``"preempted"``)
        through the ordinary release path.
    """

    def __init__(
        self,
        cfg: ConfiguredNetwork,
        *,
        ladder=None,
        governor_config=None,
        preemption=None,
    ):
        self.cfg = cfg
        self.ladder = ladder
        self.governor_config = governor_config
        self.preemption = preemption
        self.governor = None
        self.preemptor = None

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def run(
        self,
        schedule: Sequence[TraceEvent],
        faults: FaultSchedule,
        *,
        horizon: Optional[float] = None,
        simulate_packets: bool = True,
        packet_size: Optional[float] = None,
        pattern: str = "periodic",
        seed: int = 0,
    ) -> TransitionReport:
        """Drive the full co-simulation and return the transition report.

        ``horizon`` defaults to the later of the last flow event and the
        last fault.  The packet phase replays every admitted interval
        (`pattern` sources of ``packet_size`` bits, default one maximal
        class burst) with the topology faults injected into the running
        event loop.
        """
        if not schedule:
            raise FaultInjectionError("empty flow schedule")
        needs_snapshot = any(
            e.kind in ("controller_crash", "controller_restore")
            for e in faults
        )
        if horizon is None:
            horizon = max(
                max(e.time for e in schedule), faults.horizon
            )

        self._reset(needs_snapshot)
        report = TransitionReport(
            alpha=float(
                next(iter(self.cfg.alphas.values()))
            ),
            controller="utilization",
            horizon=float(horizon),
            seed=int(seed),
        )
        self._report = report

        obs_span = (
            OBS.span(
                "faults.run",
                flow_events=len(schedule),
                fault_events=len(faults),
            )
            if OBS.enabled
            else None
        )
        if obs_span is not None:
            obs_span.__enter__()
        try:
            queue = EventQueue()
            for fault in faults:
                queue.push(fault.time, "fault", fault)
            for event in schedule:
                queue.push(event.time, "flow", event)

            while queue:
                time, _, kind, payload = queue.pop()
                if kind == "flow":
                    self._on_flow(time, payload)
                elif kind == "fault":
                    self._on_fault(time, payload, queue)
                elif kind == "reroute":
                    self._on_reroute(time, payload, queue)
                elif kind == "retry":
                    self._on_retry(time, payload, queue)

            report.flows = self._accounts
            if simulate_packets:
                self._simulate(
                    horizon, faults, packet_size, pattern, seed
                )
                report.simulated = True
        finally:
            if obs_span is not None:
                obs_span.__exit__(None, None, None)
        return report

    # ------------------------------------------------------------------ #
    # state
    # ------------------------------------------------------------------ #

    def _reset(self, needs_snapshot: bool) -> None:
        self.controller = self._make_controller()
        if self.ladder is not None:
            from ..control.governor import AlphaGovernor, GovernorConfig

            self.governor = AlphaGovernor(
                self.ladder,
                self.governor_config or GovernorConfig(),
            )
        if self.preemption is not None:
            from ..control.preempt import Preemptor

            self.preemptor = Preemptor(
                self.controller, self.preemption
            )
        self._routes: Dict[Pair, List[Hashable]] = {
            pair: list(path) for pair, path in self.cfg.routes.items()
        }
        self._failed_links: set = set()
        self._failed_routers: set = set()
        self._degraded = False
        self._controller_up = True
        self._needs_snapshot = needs_snapshot
        self._last_snapshot: Optional[dict] = None
        self._pending_departures: List[Hashable] = []
        self._accounts: Dict[Hashable, FlowAccount] = {}
        self._open: Dict[Hashable, Lifetime] = {}
        self._lifetimes: List[Lifetime] = []
        self._pending_retries: Dict[Hashable, TransitionRecord] = {}
        self._crash_record: Optional[TransitionRecord] = None

    def _make_controller(self) -> UtilizationAdmissionController:
        return UtilizationAdmissionController(
            self.cfg.graph,
            self.cfg.registry,
            self.cfg.alphas,
            self.cfg.routes,
        )

    def _snapshot(self) -> None:
        if self._needs_snapshot and self._controller_up:
            self._last_snapshot = self.controller.snapshot()

    def _apply_routes(self, routes: Dict[Pair, List[Hashable]]) -> None:
        self.controller.update_routes(routes)
        self._routes.update(routes)

    def _count(self, name: str, **labels: str) -> None:
        if OBS.enabled:
            OBS.registry.counter(name, **labels).inc()

    # ------------------------------------------------------------------ #
    # overload control plane (optional governor + preemption)
    # ------------------------------------------------------------------ #

    def _apply_limit(self) -> None:
        """Compose the fault fallback and the governor rung.

        The controller admits against the per-class min of the
        fallback's ``ALPHA_FACTOR * alpha`` and the rung's certified
        alphas: at least as conservative as either alone, and the
        verified ceiling is never touched.
        """
        limits = []
        if self._degraded:
            limits.append({c: degraded.ALPHA_FACTOR * a for c, a in self.cfg.alphas.items()})
        if self.governor is not None and not self.governor.at_top:
            limits.append(self.governor.alphas)
        self.controller.limit(
            {c: min(limit[c] for limit in limits) for c in limits[0]} if limits else None
        )

    def _governor_step(self) -> None:
        """One headroom-driven governor observation per arrival.

        The harness has no service queue, so the queue-delay term of
        the sample is pinned to zero and the detector runs on slot
        headroom alone — deterministic in the flow schedule.
        """
        if self.governor is None or not self._controller_up:
            return
        from ..control.governor import GovernorSample

        moved = self.governor.observe(
            GovernorSample(
                queue_delay=0.0,
                headroom=self.controller.ledger.verified_headroom(),
            )
        )
        if moved is not None:
            self._report.governor_moves += 1
            self._apply_limit()

    def _try_preempt(self, flow, time: float) -> bool:
        """Admit a rejected arrival by evicting lower-priority flows."""
        if self.preemptor is None or not self._controller_up:
            return False
        outcome = self.preemptor.try_admit(flow)
        if not outcome.admitted:
            return False
        for victim_id in outcome.evicted:
            self._close_lifetime(victim_id, time)
            account = self._accounts.get(victim_id)
            if account is not None:
                account.outcome = "preempted"
                account.ended_at = time
                account.casualty = True
            self._count("repro_faults_flows_preempted_total")
        self._report.preempted_admits += 1
        return True

    # ------------------------------------------------------------------ #
    # lifetimes / accounting
    # ------------------------------------------------------------------ #

    def _open_lifetime(
        self, flow, route: Sequence[Hashable], start: float
    ) -> None:
        lifetime = Lifetime(
            flow, list(route), float(start), index=len(self._lifetimes)
        )
        self._open[flow.flow_id] = lifetime
        self._lifetimes.append(lifetime)

    def _close_lifetime(self, flow_id: Hashable, stop: float) -> None:
        lifetime = self._open.pop(flow_id, None)
        if lifetime is not None:
            lifetime.stop = float(stop)

    # ------------------------------------------------------------------ #
    # flow events
    # ------------------------------------------------------------------ #

    def _on_flow(self, time: float, event: TraceEvent) -> None:
        fid = event.flow_id
        if event.kind == "arrival":
            flow = event.flow
            account = FlowAccount(
                flow_id=fid,
                class_name=flow.class_name,
                pair=flow.pair,
            )
            self._accounts[fid] = account
            if not self._controller_up:
                account.outcome = "lost_outage"
                if self._crash_record is not None:
                    self._crash_record.shed.append(str(fid))
                self._count(
                    "repro_faults_flows_lost_total", reason="outage"
                )
                return
            try:
                decision = self.controller.admit(flow)
            except AdmissionError:
                # No configured route for the pair: plain rejection.
                account.outcome = "rejected"
                return
            admitted = decision.admitted
            if not admitted and self._try_preempt(flow, time):
                admitted = True
            if admitted:
                account.outcome = "active"
                account.admitted_at = time
                self._open_lifetime(
                    flow, self.controller.committed_route(fid), time
                )
            else:
                account.outcome = "rejected"
            self._governor_step()
            self._snapshot()
        elif event.kind == "departure":
            account = self._accounts.get(fid)
            if account is None:
                return
            if fid in self._pending_retries:
                # Departed before any retry succeeded: finalize as shed.
                record = self._pending_retries.pop(fid)
                self._resolve_if_done(record, time)
            if self.controller.is_established(fid):
                if self._controller_up:
                    self.controller.release(fid)
                    self._snapshot()
                else:
                    self._pending_departures.append(fid)
                self._close_lifetime(fid, time)
                account.outcome = "completed"
                account.ended_at = time
            elif account.outcome == "active":
                # Established at crash time, departing during the outage.
                self._pending_departures.append(fid)
                self._close_lifetime(fid, time)
                account.outcome = "completed"
                account.ended_at = time

    # ------------------------------------------------------------------ #
    # fault events
    # ------------------------------------------------------------------ #

    def _on_fault(
        self, time: float, fault: FaultEvent, queue: EventQueue
    ) -> None:
        self._count("repro_faults_events_total", kind=fault.kind)
        if fault.kind == "link_down":
            self._on_link_down(time, fault, queue)
        elif fault.kind == "link_up":
            self._on_link_up(time, fault)
        elif fault.kind == "router_down":
            self._on_router_down(time, fault, queue)
        elif fault.kind == "controller_crash":
            self._on_crash(time, fault)
        elif fault.kind == "controller_restore":
            self._on_restore(time, fault)

    def _link_servers(self, u: Hashable, v: Hashable) -> List[int]:
        graph = self.cfg.graph
        return [
            int(graph.route_servers((u, v))[0]),
            int(graph.route_servers((v, u))[0]),
        ]

    def _degraded_network(self) -> Network:
        """The base topology minus every currently failed element."""
        base = self.cfg.network
        out = Network(f"{base.name}-degraded")
        for name in base.routers():
            if name in self._failed_routers:
                continue
            out.add_router(name, is_edge=base.router(name).is_edge)
        for link in base.directed_links():
            u, v = link.key
            if str(u) > str(v):
                continue  # one physical link per direction pair
            if frozenset((u, v)) in self._failed_links:
                continue
            if u in self._failed_routers or v in self._failed_routers:
                continue
            out.add_link(u, v, link.capacity)
        return out

    def _on_link_down(
        self, time: float, fault: FaultEvent, queue: EventQueue
    ) -> None:
        u, v = fault.link
        self._failed_links.add(frozenset((u, v)))
        self.controller.block_servers(self._link_servers(u, v))

        record = TransitionRecord(
            time=time, kind=fault.kind, target=fault.target
        )
        self._report.transitions.append(record)
        casualties = [
            flow
            for flow in self.controller.established_flows
            if route_uses_link(
                self.controller.committed_route(flow.flow_id), (u, v)
            )
        ]
        affected = [
            pair
            for pair, path in self._routes.items()
            if route_uses_link(path, (u, v))
        ]
        self._transition(time, record, casualties, affected, queue)

    def _on_router_down(
        self, time: float, fault: FaultEvent, queue: EventQueue
    ) -> None:
        router = fault.target
        self._failed_routers.add(router)
        dead: List[int] = []
        for neighbor in self.cfg.network.neighbors(router):
            self._failed_links.add(frozenset((router, neighbor)))
            dead.extend(self._link_servers(router, neighbor))
        self.controller.block_servers(sorted(set(dead)))

        record = TransitionRecord(
            time=time, kind=fault.kind, target=router
        )
        self._report.transitions.append(record)

        casualties = []
        for flow in self.controller.established_flows:
            route = self.controller.committed_route(flow.flow_id)
            if route_uses_router(route, router):
                casualties.append(flow)
        # Pairs terminating at the dead router are unrepairable: shed
        # those flows now; the rest go through the normal transition.
        repairable = []
        for flow in casualties:
            if router in flow.pair:
                self._shed(flow, time, record)
            else:
                repairable.append(flow)
        affected = [
            pair
            for pair, path in self._routes.items()
            if route_uses_router(path, router) and router not in pair
        ]
        self._transition(time, record, repairable, affected, queue)

    def _on_link_up(self, time: float, fault: FaultEvent) -> None:
        u, v = fault.link
        self._failed_links.discard(frozenset((u, v)))
        self.controller.unblock_servers(self._link_servers(u, v))
        record = TransitionRecord(
            time=time, kind=fault.kind, target=fault.target
        )
        record.time_to_resolve = 0.0
        self._report.transitions.append(record)
        if not self._failed_links and not self._failed_routers:
            # Fully healed: the original certificate applies again
            # (any governor rung below top stays composed in).
            if self._degraded:
                self._degraded = False
                self._apply_limit()
                if OBS.enabled:
                    OBS.registry.gauge(
                        "repro_faults_degraded_mode"
                    ).set(0)
            self._apply_routes(
                {p: list(r) for p, r in self.cfg.routes.items()}
            )

    def _on_crash(self, time: float, fault: FaultEvent) -> None:
        self._controller_up = False
        record = TransitionRecord(
            time=time, kind=fault.kind, target=None
        )
        self._crash_record = record
        self._report.transitions.append(record)

    def _on_restore(self, time: float, fault: FaultEvent) -> None:
        fresh = self._make_controller()
        # Re-impose the current fault state on the rebuilt controller.
        dead: List[int] = []
        for key in self._failed_links:
            dead.extend(self._link_servers(*tuple(key)))
        if dead:
            fresh.block_servers(sorted(set(dead)))
        fresh.update_routes(self._routes)
        self.controller = fresh
        if self.preemptor is not None:
            self.preemptor.controller = fresh
        self._apply_limit()
        self._controller_up = True
        self._restore_from_snapshot(time)
        for fid in self._pending_departures:
            if self.controller.is_established(fid):
                self.controller.release(fid)
        self._pending_departures.clear()
        self._snapshot()
        if self._crash_record is not None:
            self._crash_record.time_to_resolve = (
                time - self._crash_record.time
            )
            self._crash_record = None
        record = TransitionRecord(
            time=time, kind=fault.kind, target=None
        )
        record.time_to_resolve = 0.0
        self._report.transitions.append(record)

    def _restore_from_snapshot(self, time: float) -> None:
        """Tolerant snapshot replay: flows that no longer fit are shed."""
        snapshot = self._last_snapshot
        if snapshot is None:
            return
        for item in snapshot["flows"]:
            fid = item["flow_id"]
            account = self._accounts.get(fid)
            if account is None or account.outcome != "active":
                continue  # departed (or already shed) during the outage
            lifetime = self._open.get(fid)
            if lifetime is None:
                continue
            pinned = replace(lifetime.flow, route=tuple(lifetime.route))
            decision = self.controller.admit(pinned)
            if not decision.admitted:
                account.casualty = True
                account.outcome = "shed"
                account.ended_at = time
                self._close_lifetime(fid, time)
                self._count(
                    "repro_faults_flows_lost_total", reason="restore"
                )

    # ------------------------------------------------------------------ #
    # the transition: repair, reroute, degrade
    # ------------------------------------------------------------------ #

    def _transition(
        self,
        time: float,
        record: TransitionRecord,
        casualties: List[object],
        affected: List[Pair],
        queue: EventQueue,
    ) -> None:
        for flow in casualties:
            record.casualties.append(str(flow.flow_id))
            self._accounts[flow.flow_id].casualty = True
        if not affected and not casualties:
            record.time_to_resolve = 0.0
            return

        degraded_net = self._degraded_network()
        # Survivors: pairs untouched by this fault whose current route
        # still exists wholesale in the degraded topology (a pair whose
        # endpoint died is unservable and simply drops out of the
        # repaired configuration).
        skip = set(affected)
        survivors = {
            pair: path
            for pair, path in self._routes.items()
            if pair not in skip
            and all(
                degraded_net.has_link(u, v)
                for u, v in zip(path, path[1:])
            )
        }
        new_routes, success, failed_pair, reason = self._repair(
            degraded_net, affected, survivors
        )
        record.repair_attempted = True
        record.repair_success = success
        record.repair_reason = reason
        self._count(
            "repro_faults_repairs_total",
            outcome="success" if success else "fallback",
        )
        if not success:
            # Graceful degradation: uncertified shortest-path reroutes
            # under a conservatively reduced admission ceiling.
            record.degraded_mode_entered = True
            if not self._degraded:
                self._degraded = True
                self._apply_limit()
                if OBS.enabled:
                    OBS.registry.gauge(
                        "repro_faults_degraded_mode"
                    ).set(1)
            new_routes = self._fallback_routes(degraded_net, affected)

        queue.push(
            time + degraded.REPAIR_LATENCY,
            "reroute",
            {
                "record": record,
                "routes": new_routes,
                "casualties": [f.flow_id for f in casualties],
            },
        )

    def _repair(
        self,
        degraded_net: Network,
        affected: List[Pair],
        survivors: Dict[Pair, List[Hashable]],
    ) -> Tuple[Dict[Pair, List[Hashable]], bool, Optional[Pair], str]:
        """Verified online repair; returns (routes, ok, failed_pair, why)."""
        if not degraded_net.is_connected():
            return {}, False, None, "degraded topology is disconnected"
        try:
            repaired, failed_pair, reason = repair_routes(
                self.cfg, degraded_net, affected, survivors
            )
        except Exception as exc:  # repair machinery rejected the input
            return {}, False, None, str(exc)
        if repaired is None:
            return {}, False, failed_pair, reason
        return (
            {pair: list(repaired.routes[pair]) for pair in affected},
            True,
            None,
            "",
        )

    def _fallback_routes(
        self, degraded_net: Network, affected: List[Pair]
    ) -> Dict[Pair, List[Hashable]]:
        """Uncertified hop-shortest reroutes, tied as the serve ties
        them (:func:`~repro.routing.shortest.shortest_path_routes`);
        unreachable pairs dropped."""
        out: Dict[Pair, List[Hashable]] = {}
        for pair in affected:
            try:
                out.update(shortest_path_routes(degraded_net, [pair]))
            except NoRouteError:
                continue
        return out

    def _on_reroute(
        self, time: float, payload: dict, queue: EventQueue
    ) -> None:
        record: TransitionRecord = payload["record"]
        new_routes: Dict[Pair, List[Hashable]] = payload["routes"]
        if new_routes:
            self._apply_routes(new_routes)
        for fid in payload["casualties"]:
            if not self.controller.is_established(fid):
                continue  # departed before the repair landed
            account = self._accounts[fid]
            pair = account.pair
            route = new_routes.get(pair)
            flow = self._open[fid].flow
            if route is None:
                self._shed(flow, time, record)
                continue
            decision = self.controller.reroute(fid, route)
            self._close_lifetime(fid, time)
            if decision.admitted:
                self._open_lifetime(flow, route, time)
                account.reroutes += 1
                record.rerouted.append(str(fid))
            else:
                # Released but not re-admitted: back off and retry.
                account.outcome = "shed"
                account.ended_at = time
                self._pending_retries[fid] = record
                flow = replace(flow, route=tuple(route))
                queue.push(
                    time + degraded.BACKOFF.delay(0),
                    "retry",
                    _Retry(flow=flow, attempt=0, record=record),
                )
        self._snapshot()
        self._resolve_if_done(record, time)

    def _on_retry(
        self, time: float, retry: _Retry, queue: EventQueue
    ) -> None:
        flow = retry.flow
        fid = flow.flow_id
        record = retry.record
        if fid not in self._pending_retries:
            return  # departed (or resolved) meanwhile
        account = self._accounts[fid]
        account.retries += 1
        record.retries += 1
        self._count("repro_faults_retries_total")
        if self._controller_up:
            # Re-resolve in case a later repair moved the pair again.
            route = self._routes.get(account.pair)
            attempt_flow = (
                replace(flow, route=tuple(route)) if route else flow
            )
            decision = self.controller.admit(attempt_flow)
            if decision.admitted:
                del self._pending_retries[fid]
                account.outcome = "active"
                self._open_lifetime(
                    attempt_flow,
                    self.controller.committed_route(fid),
                    time,
                )
                self._snapshot()
                self._resolve_if_done(record, time)
                return
        if retry.attempt + 1 >= degraded.BACKOFF.max_retries:
            del self._pending_retries[fid]
            record.shed.append(str(fid))
            self._count("repro_faults_flows_shed_total")
            self._resolve_if_done(record, time)
            return
        queue.push(
            time + degraded.BACKOFF.delay(retry.attempt + 1),
            "retry",
            _Retry(
                flow=flow, attempt=retry.attempt + 1, record=record
            ),
        )

    def _shed(self, flow, time: float, record: TransitionRecord) -> None:
        fid = flow.flow_id
        if self.controller.is_established(fid):
            self.controller.release(fid)
        self._close_lifetime(fid, time)
        account = self._accounts[fid]
        account.casualty = True
        account.outcome = "shed"
        account.ended_at = time
        record.shed.append(str(fid))
        self._count("repro_faults_flows_shed_total")

    def _resolve_if_done(
        self, record: TransitionRecord, time: float
    ) -> None:
        pending = [
            fid
            for fid, rec in self._pending_retries.items()
            if rec is record
        ]
        if not pending and record.time_to_resolve is None:
            record.time_to_resolve = time - record.time

    # ------------------------------------------------------------------ #
    # packet phase
    # ------------------------------------------------------------------ #

    def _simulate(
        self,
        horizon: float,
        faults: FaultSchedule,
        packet_size: Optional[float],
        pattern: str,
        seed: int,
    ) -> None:
        report = self._report
        sim = Simulator(
            self.cfg.graph,
            self.cfg.registry,
            track_flow_delays=True,
        )
        # Inject the topology faults into the running event loop.
        ups: Dict[frozenset, float] = {}
        for event in faults.topology_kinds():
            if event.kind == "link_up":
                ups[frozenset(event.link)] = event.time
        for event in faults.topology_kinds():
            if event.kind == "link_down":
                u, v = event.link
                sim.add_link_fault(
                    u, v, event.time, ups.get(frozenset((u, v)))
                )
            elif event.kind == "router_down":
                for neighbor in self.cfg.network.neighbors(
                    event.target
                ):
                    sim.add_link_fault(
                        event.target, neighbor, event.time, None
                    )

        run = simulate_lifetimes(
            sim,
            self._lifetimes,
            horizon=horizon,
            pattern_kind=pattern,
            packet_size=packet_size,
            seed=seed,
        )
        if run is None:
            return
        packet_report = run.packets
        report.packets_injected = packet_report.packets_injected
        report.packets_delivered = packet_report.packets_delivered
        report.packets_dropped = packet_report.packets_dropped

        recorder = packet_report.recorder
        for fid, account in self._accounts.items():
            cls = self.cfg.registry.get(account.class_name)
            if cls.is_realtime:
                misses = recorder.flow_deadline_misses(
                    fid, cls.deadline
                )
            else:
                misses = 0
            account.deadline_misses = misses
            account.packets_dropped = (
                packet_report.dropped_per_flow.get(fid, 0)
            )
            if account.casualty:
                report.casualty_deadline_misses += misses
            else:
                report.survivor_deadline_misses += misses
