"""Static-priority link server mechanics."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.simulation import Packet, StaticPriorityServer


def _packet(pid, priority=1, size=1000.0):
    return Packet(
        packet_id=pid,
        flow_id="f",
        class_name="c",
        priority=priority,
        size_bits=size,
        servers=np.array([0], dtype=np.int64),
        created_at=0.0,
    )


def test_service_time_is_size_over_capacity():
    srv = StaticPriorityServer(0, capacity=1e6)
    srv.enqueue(_packet(1, size=5000))
    pkt, done = srv.start_service(now=2.0)
    assert pkt.packet_id == 1
    assert done == pytest.approx(2.0 + 5000 / 1e6)


def test_fifo_within_class():
    srv = StaticPriorityServer(0, capacity=1e6)
    for i in range(3):
        srv.enqueue(_packet(i, priority=1))
    order = []
    now = 0.0
    for _ in range(3):
        pkt, done = srv.start_service(now)
        order.append(pkt.packet_id)
        srv.complete_service()
        now = done
    assert order == [0, 1, 2]


def test_priority_order_across_classes():
    srv = StaticPriorityServer(0, capacity=1e6)
    srv.enqueue(_packet(1, priority=5))
    srv.enqueue(_packet(2, priority=1))
    srv.enqueue(_packet(3, priority=3))
    pkt, _ = srv.start_service(0.0)
    assert pkt.packet_id == 2  # smallest priority number first
    srv.complete_service()
    pkt, _ = srv.start_service(0.0)
    assert pkt.packet_id == 3


def test_non_preemptive_state():
    srv = StaticPriorityServer(0, capacity=1e6)
    srv.enqueue(_packet(1, priority=5))
    srv.start_service(0.0)
    # A higher-priority arrival waits: server stays busy with packet 1.
    srv.enqueue(_packet(2, priority=1))
    assert srv.busy
    assert srv.in_service.packet_id == 1
    with pytest.raises(SimulationError):
        srv.start_service(0.0)  # cannot double-start
    done = srv.complete_service()
    assert done.packet_id == 1
    pkt, _ = srv.start_service(0.1)
    assert pkt.packet_id == 2


def test_complete_without_start_raises():
    srv = StaticPriorityServer(0, capacity=1e6)
    with pytest.raises(SimulationError):
        srv.complete_service()


def test_start_empty_raises():
    srv = StaticPriorityServer(0, capacity=1e6)
    with pytest.raises(SimulationError):
        srv.start_service(0.0)


def test_counters():
    srv = StaticPriorityServer(0, capacity=1e6)
    for i in range(2):
        srv.enqueue(_packet(i, size=100))
    assert srv.backlog_packets == 2
    assert srv.max_backlog_packets == 2
    srv.start_service(0.0)
    srv.complete_service()
    assert srv.packets_served == 1
    assert srv.bits_served == 100


def test_invalid_capacity():
    with pytest.raises(SimulationError):
        StaticPriorityServer(0, capacity=0.0)
