"""Direct coverage of small public helpers used mostly indirectly."""

import numpy as np
import pytest

from repro.admission import UtilizationAdmissionController
from repro.routing import shortest_path_routes
from repro.simulation import DelayRecorder, Packet, StaticPriorityServer
from repro.topology import DirectedLink, LinkServerGraph
from repro.traffic import ClassRegistry, Envelope, FlowSpec, voice_class


def test_directed_link_reverse_key():
    link = DirectedLink("a", "b", 1e6)
    assert link.key == ("a", "b")
    assert link.reverse_key == ("b", "a")


def test_network_has_router(mci):
    assert mci.has_router("Seattle")
    assert not mci.has_router("Atlantis")


def test_servergraph_server_keys(mci_graph):
    keys = mci_graph._keys
    assert len(keys) == mci_graph.num_servers
    for index, (tail, head) in enumerate(keys):
        assert mci_graph.server_index(tail, head) == index


def test_envelope_affine_constructor():
    env = Envelope.affine(100.0, 5.0)
    assert env(0.0) == 100.0
    assert env(2.0) == pytest.approx(110.0)
    assert env.long_term_rate == 5.0


def test_controller_flow_introspection(mci, mci_graph, voice_registry):
    routes = shortest_path_routes(mci, [("Seattle", "Miami")])
    ctrl = UtilizationAdmissionController(
        mci_graph, voice_registry, {"voice": 0.3}, routes
    )
    flow = FlowSpec("x", "voice", "Seattle", "Miami")
    ctrl.admit(flow)
    assert ctrl.is_established("x")
    assert not ctrl.is_established("y")
    assert [f.flow_id for f in ctrl.established_flows] == ["x"]
    resolved = ctrl.resolve_route(flow)
    assert resolved[0] == "Seattle" and resolved[-1] == "Miami"



def test_recorder_e2e_delays_accessor():
    rec = DelayRecorder()
    rec.record_delivery("voice", 0.02)
    rec.record_delivery("voice", 0.01)
    delays = rec.e2e_delays("voice")
    assert delays.shape == (2,)
    assert rec.e2e_delays("ghost").size == 0


def test_recorder_record_hop_keeps_max():
    rec = DelayRecorder()
    rec.record_hop(3, "voice", 0.01)
    rec.record_hop(3, "voice", 0.005)  # smaller: ignored
    assert rec._hop_max == {(3, "voice"): 0.01}


def test_packet_end_to_end_delay_guard():
    pkt = Packet(
        packet_id=1, flow_id="f", class_name="voice", priority=1,
        size_bits=640, servers=np.array([0]), created_at=1.0,
    )
    with pytest.raises(ValueError):
        _ = pkt.end_to_end_delay
    pkt.delivered_at = 1.5
    assert pkt.end_to_end_delay == pytest.approx(0.5)


def test_server_has_work_flag():
    srv = StaticPriorityServer(0, 1e6)
    assert not srv.has_work
    srv.enqueue(
        Packet(
            packet_id=1, flow_id="f", class_name="c", priority=1,
            size_bits=100, servers=np.array([0]), created_at=0.0,
        )
    )
    assert srv.has_work
    srv.start_service(0.0)
    assert not srv.has_work  # in transmission, queue empty
