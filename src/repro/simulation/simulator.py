"""Discrete-event engine wiring topology, routes, flows and sources.

The engine models exactly what the analysis models: packets experience
queueing and transmission at every link server of their route; switching
fabric and propagation delays are zero (the paper folds constant delays
into the deadline).  Scheduling is class-based static priority,
non-preemptive, FIFO within a class.

Typical use::

    sim = Simulator(graph, registry)
    sim.add_flow(flow, route, PacketPattern("greedy", packet_size=640))
    report = sim.run(horizon=2.0)
    assert report.max_e2e("voice") <= analytic_bound
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import SimulationError
from ..obs import OBS
from ..topology.servergraph import LinkServerGraph
from ..traffic.classes import ClassRegistry
from ..traffic.flows import FlowSpec
from .events import EventQueue
from .metrics import DelayRecorder, SimulationReport
from .packets import Packet
from .servers import StaticPriorityServer
from .sources import PacketPattern, emission_times

__all__ = ["Simulator"]


@dataclass
class _FlowBinding:
    flow: FlowSpec
    servers: np.ndarray
    pattern: PacketPattern
    priority: int
    start: float = 0.0
    stop: Optional[float] = None  # None: until the horizon


class Simulator:
    """Packet-level simulator over a link-server graph.

    All flows entering the network at the same router share one access
    wire at that router's first-hop link rate: injection instants are
    serialized so at most ``C`` bits/second enter per router.  This
    matches the analysis' premise that every input — including the host
    side — is a capacity-``C`` link.

    Parameters
    ----------
    track_flow_delays:
        Record the full per-flow delay series (needed for per-flow
        deadline-miss counts, e.g. by the chaos harness); off by default
        to keep long validation runs lean.

    Fault injection
    ---------------
    :meth:`add_link_fault` / :meth:`add_server_fault` schedule link
    servers to die (and optionally recover) *inside* the event loop:
    a dead server drops its queued packets, a packet mid-transmission at
    the cut is dropped at its completion time (it was on the wire), and
    arrivals at a dead server are dropped on contact.  Dropped packets
    are reported per flow and enter the conservation accounting.
    """

    def __init__(
        self,
        graph: LinkServerGraph,
        registry: ClassRegistry,
        *,
        track_flow_delays: bool = False,
    ):
        self.graph = graph
        self.registry = registry
        self.track_flow_delays = bool(track_flow_delays)
        self._flows: List[_FlowBinding] = []
        # (server index, down time, optional up time)
        self._faults: List[Tuple[int, float, Optional[float]]] = []
        self._packet_counter = 0
        self._servers_last_run: Dict[int, StaticPriorityServer] = {}

    # ------------------------------------------------------------------ #
    # setup
    # ------------------------------------------------------------------ #

    def add_flow(
        self,
        flow: FlowSpec,
        route: Sequence[Hashable],
        pattern: PacketPattern,
        *,
        start: float = 0.0,
        stop: Optional[float] = None,
    ) -> None:
        """Attach a source for ``flow`` along ``route`` (router-level path).

        ``start``/``stop`` bound the flow's lifetime (seconds): the source
        emits only within ``[start, min(stop, horizon))``.  Dynamic
        scenarios (admission-control co-simulation) use these to attach
        each admitted flow for exactly its holding time.
        """
        cls = self.registry.get(flow.class_name)
        if not cls.is_realtime and cls.rate <= 0:
            raise SimulationError(
                f"flow {flow.flow_id!r}: class {cls.name!r} has no rate; "
                "give best-effort classes an explicit burst/rate to simulate"
            )
        if start < 0:
            raise SimulationError(
                f"flow {flow.flow_id!r}: start must be >= 0"
            )
        if stop is not None and stop <= start:
            raise SimulationError(
                f"flow {flow.flow_id!r}: stop must exceed start"
            )
        servers = np.array(self.graph.route_servers(route), dtype=np.int64)
        if servers.size == 0:
            raise SimulationError(
                f"flow {flow.flow_id!r}: route has no link servers"
            )
        self._flows.append(
            _FlowBinding(
                flow=flow,
                servers=servers,
                pattern=pattern,
                priority=cls.priority,
                start=float(start),
                stop=None if stop is None else float(stop),
            )
        )

    def add_server_fault(
        self,
        server_index: int,
        down_at: float,
        up_at: Optional[float] = None,
    ) -> None:
        """Schedule one link server to fail at ``down_at`` (seconds).

        With ``up_at`` the server recovers at that time (queues restart
        empty); without it the server stays dead for the whole run.
        """
        if down_at < 0:
            raise SimulationError("fault down_at must be >= 0")
        if up_at is not None and up_at <= down_at:
            raise SimulationError("fault up_at must exceed down_at")
        if not (0 <= int(server_index) < self.graph.num_servers):
            raise SimulationError(
                f"unknown server index {server_index!r}"
            )
        self._faults.append((int(server_index), float(down_at), up_at))

    def add_link_fault(
        self,
        u: Hashable,
        v: Hashable,
        down_at: float,
        up_at: Optional[float] = None,
    ) -> None:
        """Schedule the full-duplex link ``u -- v`` to fail (both
        directed servers) at ``down_at``, optionally recovering at
        ``up_at``."""
        for path in ((u, v), (v, u)):
            server = int(self.graph.route_servers(path)[0])
            self.add_server_fault(server, down_at, up_at)

    # ------------------------------------------------------------------ #
    # run
    # ------------------------------------------------------------------ #

    def run(
        self, horizon: float, *, drain: bool = True
    ) -> SimulationReport:
        """Simulate packet injections in ``[0, horizon)``.

        With ``drain=True`` (default) the engine keeps serving queued
        packets past the horizon until the network is empty, so every
        injected packet is delivered and end-to-end statistics are
        complete; injections stop at the horizon either way.
        """
        if not OBS.enabled:
            return self._run_impl(horizon, drain=drain)
        with OBS.span(
            "simulation.run",
            horizon=horizon,
            flows=len(self._flows),
        ) as sp:
            report = self._run_impl(horizon, drain=drain)
            sp.set(
                events=report.events_processed,
                delivered=report.packets_delivered,
            )
        self._record_run(report)
        return report

    def _record_run(self, report: SimulationReport) -> None:
        reg = OBS.registry
        reg.counter("repro_simulation_runs_total").inc()
        reg.counter("repro_simulation_events_total").inc(
            report.events_processed
        )
        for status, value in (
            ("injected", report.packets_injected),
            ("delivered", report.packets_delivered),
            ("in_flight", report.packets_in_flight),
        ):
            reg.counter(
                "repro_simulation_packets_total", status=status
            ).inc(value)
        # Per-class queue-depth high-water marks (priorities map back to
        # the classes that used them).
        prio_classes: Dict[int, set] = {}
        for binding in self._flows:
            prio_classes.setdefault(binding.priority, set()).add(
                binding.flow.class_name
            )
        for server in self._servers_last_run.values():
            for prio, depth in server.max_backlog_per_priority.items():
                for cls in prio_classes.get(prio, ()):
                    reg.gauge(
                        "repro_simulation_max_queue_depth_packets", cls=cls
                    ).max(depth)

    def _run_impl(
        self, horizon: float, *, drain: bool = True
    ) -> SimulationReport:
        if horizon <= 0:
            raise SimulationError("horizon must be positive")
        if not self._flows:
            raise SimulationError("no flows attached to the simulator")

        servers: Dict[int, StaticPriorityServer] = {}
        for binding in self._flows:
            for s in binding.servers:
                s = int(s)
                if s not in servers:
                    servers[s] = StaticPriorityServer(
                        s, float(self.graph.capacities[s])
                    )
        self._servers_last_run = servers

        queue = EventQueue()
        recorder = DelayRecorder(track_flow_delays=self.track_flow_delays)
        dropped_per_flow: Dict[Hashable, int] = {}
        dropped = 0
        injected = 0

        # Fault events go in first so a failure at time t outranks
        # injections at the same instant (deterministic either way: ties
        # break by push order).
        for server_index, down_at, up_at in self._faults:
            if server_index not in servers:
                continue  # no attached flow ever touches this server
            queue.push(down_at, "server_down", servers[server_index])
            if up_at is not None:
                queue.push(up_at, "server_up", servers[server_index])

        injections: List[Tuple[float, int, _FlowBinding]] = []
        for order, binding in enumerate(self._flows):
            cls = self.registry.get(binding.flow.class_name)
            end = horizon if binding.stop is None else min(
                binding.stop, horizon
            )
            if binding.start >= end:
                continue  # lifetime entirely outside the run
            for t in emission_times(
                binding.pattern, cls, end, start=binding.start
            ):
                injections.append((float(t), order, binding))
        injections = self._serialize_ingress(injections)
        for t, _, binding in injections:
            queue.push(t, "inject", binding)
            injected += 1

        events_processed = 0
        while queue:
            time, _, kind, payload = queue.pop()
            events_processed += 1

            if kind == "inject":
                binding: _FlowBinding = payload
                self._packet_counter += 1
                packet = Packet(
                    packet_id=self._packet_counter,
                    flow_id=binding.flow.flow_id,
                    class_name=binding.flow.class_name,
                    priority=binding.priority,
                    size_bits=binding.pattern.packet_size,
                    servers=binding.servers,
                    created_at=time,
                )
                lost = self._arrive(packet, time, servers, queue)
                if lost is not None:
                    dropped += 1
                    dropped_per_flow[lost.flow_id] = (
                        dropped_per_flow.get(lost.flow_id, 0) + 1
                    )

            elif kind == "depart":
                server: StaticPriorityServer = payload
                packet = server.complete_service()
                if server.dead:
                    # The packet was on the wire when the link cut.
                    server.packets_dropped += 1
                    dropped += 1
                    dropped_per_flow[packet.flow_id] = (
                        dropped_per_flow.get(packet.flow_id, 0) + 1
                    )
                else:
                    hop = packet.hop
                    recorder.record_hop(
                        server.server_index,
                        packet.class_name,
                        packet.hop_delay(hop, time),
                    )
                    packet.hop += 1
                    if packet.hop < packet.servers.size:
                        lost = self._arrive(packet, time, servers, queue)
                        if lost is not None:
                            dropped += 1
                            dropped_per_flow[lost.flow_id] = (
                                dropped_per_flow.get(lost.flow_id, 0) + 1
                            )
                    else:
                        packet.delivered_at = time
                        recorder.record_delivery(
                            packet.class_name,
                            packet.end_to_end_delay,
                            flow_id=packet.flow_id,
                        )
                # The server may have more work.
                if server.has_work:
                    _, done = server.start_service(time)
                    queue.push(done, "depart", server)

            elif kind == "server_down":
                server = payload
                for lost in server.fail():
                    dropped += 1
                    dropped_per_flow[lost.flow_id] = (
                        dropped_per_flow.get(lost.flow_id, 0) + 1
                    )

            elif kind == "server_up":
                payload.recover()

            else:  # pragma: no cover - engine emits four kinds only
                raise SimulationError(f"unknown event kind {kind!r}")

            if not drain and time >= horizon:
                break

        in_flight = injected - recorder.packets_delivered - dropped
        return SimulationReport(
            horizon=horizon,
            packets_injected=injected,
            packets_delivered=recorder.packets_delivered,
            packets_in_flight=in_flight,
            events_processed=events_processed,
            e2e={
                name: recorder.e2e_delays(name)
                for name in recorder.classes()
            },
            recorder=recorder,
            packets_dropped=dropped,
            dropped_per_flow=dropped_per_flow,
        )

    # ------------------------------------------------------------------ #

    def _serialize_ingress(
        self, injections: List[Tuple[float, int, _FlowBinding]]
    ) -> List[Tuple[float, int, _FlowBinding]]:
        """Serialize injections over one access wire per source router.

        Per source router, packets are released in requested order but no
        faster than the first-hop link rate, emulating a host-side link of
        the same capacity (the wire every paper input link has).
        """
        injections.sort(key=lambda e: (e[0], e[1]))
        wire_free: Dict[Hashable, float] = {}
        out: List[Tuple[float, int, _FlowBinding]] = []
        for t, order, binding in injections:
            source = binding.flow.source
            rate = float(self.graph.capacities[int(binding.servers[0])])
            release = max(t, wire_free.get(source, 0.0))
            release += binding.pattern.packet_size / rate
            wire_free[source] = release
            out.append((release, order, binding))
        out.sort(key=lambda e: (e[0], e[1]))
        return out

    @staticmethod
    def _arrive(
        packet: Packet,
        time: float,
        servers: Dict[int, StaticPriorityServer],
        queue: EventQueue,
    ) -> Optional[Packet]:
        """Deliver the packet to its next-hop server.

        Returns the packet if the server is dead (caller records the
        drop), None on a normal arrival.
        """
        server = servers[int(packet.servers[packet.hop])]
        if server.dead:
            server.packets_dropped += 1
            return packet
        packet.hop_arrivals.append(time)
        server.enqueue(packet)
        if not server.busy:
            _, done = server.start_service(time)
            queue.push(done, "depart", server)
        return None
