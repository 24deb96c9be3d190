"""Static-priority link servers.

The paper's packet forwarding model (Section 4): class-based static
priority — packets are served in priority order across classes and FIFO
within a class; service is non-preemptive (a lower-priority packet in
transmission finishes before a newly arrived higher-priority packet
starts).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..errors import SimulationError
from .packets import Packet

__all__ = ["StaticPriorityServer"]


class StaticPriorityServer:
    """Output-queue state of one link server."""

    def __init__(self, server_index: int, capacity: float):
        if capacity <= 0:
            raise SimulationError("server capacity must be positive")
        self.server_index = server_index
        self.capacity = float(capacity)
        self._queues: Dict[int, Deque[Packet]] = {}
        self._priorities: List[int] = []    # sorted, ascending = higher first
        self.busy = False
        self.in_service: Optional[Packet] = None
        #: Dead servers (failed links) accept no packets; see :meth:`fail`.
        self.dead = False
        # statistics
        self.packets_served = 0
        self.bits_served = 0.0
        self.packets_dropped = 0
        self.max_backlog_packets = 0
        self.max_backlog_per_priority: Dict[int, int] = {}

    # ------------------------------------------------------------------ #

    def enqueue(self, packet: Packet) -> None:
        """Add a packet to its class queue."""
        prio = packet.priority
        queue = self._queues.get(prio)
        if queue is None:
            queue = deque()
            self._queues[prio] = queue
            self._priorities = sorted(self._queues)
        queue.append(packet)
        backlog = self.backlog_packets
        if backlog > self.max_backlog_packets:
            self.max_backlog_packets = backlog
        depth = len(queue)
        if depth > self.max_backlog_per_priority.get(prio, 0):
            self.max_backlog_per_priority[prio] = depth

    def start_service(self, now: float) -> Tuple[Packet, float]:
        """Dequeue the next packet and return (packet, completion time).

        Caller must ensure the server is idle and non-empty.
        """
        if self.busy:
            raise SimulationError(
                f"server {self.server_index} is already transmitting"
            )
        packet = self._pop_highest()
        if packet is None:
            raise SimulationError(
                f"server {self.server_index} has nothing to serve"
            )
        self.busy = True
        self.in_service = packet
        return packet, now + packet.size_bits / self.capacity

    def complete_service(self) -> Packet:
        """Mark the in-flight transmission finished; returns the packet."""
        if not self.busy or self.in_service is None:
            raise SimulationError(
                f"server {self.server_index} has no transmission to complete"
            )
        packet = self.in_service
        self.busy = False
        self.in_service = None
        self.packets_served += 1
        self.bits_served += packet.size_bits
        return packet

    def fail(self) -> List[Packet]:
        """Mark the link dead and drop every queued packet.

        Returns the dropped packets (queued only).  A packet already in
        transmission is the caller's problem: its departure event is in
        flight, and the engine drops it at completion time when the
        server is still dead (it was on the wire when the link cut).
        """
        self.dead = True
        dropped: List[Packet] = []
        for queue in self._queues.values():
            dropped.extend(queue)
            queue.clear()
        self.packets_dropped += len(dropped)
        return dropped

    def recover(self) -> None:
        """Bring the link back into service (queues start empty)."""
        self.dead = False

    def _pop_highest(self) -> Optional[Packet]:
        for prio in self._priorities:
            queue = self._queues[prio]
            if queue:
                return queue.popleft()
        return None

    # ------------------------------------------------------------------ #

    @property
    def backlog_packets(self) -> int:
        """Queued packets (excluding the one in transmission)."""
        return sum(len(q) for q in self._queues.values())

    @property
    def has_work(self) -> bool:
        return self.backlog_packets > 0
