"""Run-time admission controllers: utilization-based and flow-aware."""

import numpy as np
import pytest

from repro.admission import (
    FlowAwareAdmissionController,
    UtilizationAdmissionController,
)
from repro.admission.flowtable import _route
from repro.errors import AdmissionError
from repro.routing import shortest_path_routes
from repro.topology import LinkServerGraph, Network, line_network
from repro.traffic import ClassRegistry, FlowSpec, voice_class


@pytest.fixture()
def line_routes(line4):
    pairs = [("r0", "r3"), ("r3", "r0"), ("r0", "r2"), ("r1", "r3")]
    return shortest_path_routes(line4, pairs)


def _controller(graph, registry, routes, alpha=0.3):
    return UtilizationAdmissionController(
        graph, registry, {"voice": alpha}, routes
    )


def _flow(i, src="r0", dst="r3", cls="voice"):
    return FlowSpec(flow_id=i, class_name=cls, source=src, destination=dst)


class TestUtilizationController:
    def test_admit_and_release(self, line4_graph, voice_registry,
                               line_routes):
        ctrl = _controller(line4_graph, voice_registry, line_routes)
        decision = ctrl.admit(_flow(1))
        assert decision.admitted
        assert ctrl.num_established == 1
        ctrl.release(1)
        assert ctrl.num_established == 0

    def test_rejects_when_full(self, line4_graph, voice_registry,
                               line_routes):
        # alpha giving exactly 3 slots per server
        ctrl = _controller(
            line4_graph, voice_registry, line_routes, alpha=0.001008
        )
        for i in range(3):
            assert ctrl.admit(_flow(i)).admitted
        d = ctrl.admit(_flow(99))
        assert not d.admitted
        assert "utilization" in d.reason
        assert ctrl.num_rejected == 1

    def test_release_reopens_capacity(self, line4_graph, voice_registry,
                                      line_routes):
        ctrl = _controller(
            line4_graph, voice_registry, line_routes, alpha=0.001008
        )
        for i in range(3):
            ctrl.admit(_flow(i))
        assert not ctrl.admit(_flow(3)).admitted
        ctrl.release(0)
        assert ctrl.admit(_flow(4)).admitted

    def test_disjoint_paths_independent(self, line4_graph, voice_registry,
                                        line_routes):
        ctrl = _controller(
            line4_graph, voice_registry, line_routes, alpha=0.001008
        )
        for i in range(3):
            ctrl.admit(_flow(i, "r0", "r2"))
        # r0->r2 full on its servers, but the reverse direction is free.
        assert ctrl.admit(_flow("rev", "r3", "r0")).admitted

    def test_double_admit_rejected(self, line4_graph, voice_registry,
                                   line_routes):
        ctrl = _controller(line4_graph, voice_registry, line_routes)
        ctrl.admit(_flow(1))
        with pytest.raises(AdmissionError):
            ctrl.admit(_flow(1))

    def test_release_unknown_rejected(self, line4_graph, voice_registry,
                                      line_routes):
        ctrl = _controller(line4_graph, voice_registry, line_routes)
        with pytest.raises(AdmissionError):
            ctrl.release(42)

    def test_unconfigured_pair_rejected(self, line4_graph, voice_registry,
                                        line_routes):
        ctrl = _controller(line4_graph, voice_registry, line_routes)
        with pytest.raises(AdmissionError):
            ctrl.admit(_flow(1, "r2", "r0"))  # pair not in route map

    def test_explicit_route_overrides_map(self, line4_graph, voice_registry,
                                          line_routes):
        ctrl = _controller(line4_graph, voice_registry, line_routes)
        flow = FlowSpec(
            "x", "voice", "r0", "r3", route=("r0", "r1", "r2", "r3")
        )
        assert ctrl.admit(flow).admitted

    def test_best_effort_never_blocked(self, line4_graph, line_routes):
        registry = ClassRegistry.two_class(voice_class())
        ctrl = UtilizationAdmissionController(
            line4_graph, registry, {"voice": 0.001008}, line_routes
        )
        for i in range(50):
            d = ctrl.admit(_flow(f"be{i}", cls="best-effort"))
            assert d.admitted
        ctrl.release("be0")  # releases cleanly too

    def test_headroom(self, line4_graph, voice_registry, line_routes):
        ctrl = _controller(
            line4_graph, voice_registry, line_routes, alpha=0.001008
        )
        assert ctrl.headroom("voice", ("r0", "r3")) == 3
        ctrl.admit(_flow(1))
        assert ctrl.headroom("voice", ("r0", "r3")) == 2

    def test_statistics(self, line4_graph, voice_registry, line_routes):
        ctrl = _controller(
            line4_graph, voice_registry, line_routes, alpha=0.001008
        )
        for i in range(5):
            ctrl.admit(_flow(i))
        assert ctrl.num_admitted == 3
        assert ctrl.num_rejected == 2
        assert ctrl.mean_decision_seconds() >= 0

    def test_utilization_invariant_under_churn(self, line4_graph,
                                               voice_registry, line_routes):
        """Admitted load never exceeds alpha on any server, ever."""
        rng = np.random.default_rng(0)
        alpha = 0.001008
        ctrl = _controller(
            line4_graph, voice_registry, line_routes, alpha=alpha
        )
        live = []
        for step in range(200):
            if live and rng.random() < 0.4:
                ctrl.release(live.pop(rng.integers(len(live))))
            else:
                fid = f"f{step}"
                pair = [("r0", "r3"), ("r3", "r0"), ("r0", "r2"),
                        ("r1", "r3")][int(rng.integers(4))]
                if ctrl.admit(_flow(fid, *pair)).admitted:
                    live.append(fid)
            used = ctrl.ledger.used_view("voice")
            util = used * voice_class().rate / line4_graph.capacities
            assert np.all(util <= alpha + 1e-12)


    def test_invariants_name_a_row_or_record_without_its_twin(
        self, line4_graph, voice_registry, line_routes
    ):
        """The flow table is the only flow record, so what can still
        disagree is inside it — a flow's value against the route it
        names, a route's live count against the flows that name it, a
        route row against the key it was interned by — and between a
        route's servers and the ledger or the flow's pair."""
        ctrl = _controller(line4_graph, voice_registry, line_routes)
        assert ctrl.admit(_flow("kept")).admitted
        assert ctrl.admit(_flow("other", "r3", "r0")).admitted
        assert ctrl.verify_invariants() == []
        table = ctrl._flows
        (values,) = table._segs
        kept, other = values["kept"], values["other"]
        route, other_route = _route(kept), _route(other)
        # A flow whose value names another pair's route: neither
        # route's count is its flows any more, nor the ledger's usage.
        values["kept"] = other
        problems = ctrl.verify_invariants()
        assert f"route {route} counts 2 holders, but 1 hold it (flows [])" in problems
        assert (
            f"route {other_route} counts 2 holders, but 3 hold it "
            "(flows ['kept', 'other'])"
        ) in problems
        assert any(p.startswith("ledger mismatch") for p in problems)
        values["kept"] = kept
        assert ctrl.verify_invariants() == []
        # A route row whose servers are not what the ledger counted
        # (and chain into no route), nor its key.
        held = table._servers[route].copy()
        table._servers[route, 0] = table._servers[other_route, 0]
        problems = ctrl.verify_invariants()
        assert any(p.startswith("ledger mismatch") for p in problems)
        assert any(p.startswith("flow 'kept' holds servers") for p in problems)
        assert any(p.startswith(f"route row {route} ") for p in problems)
        table._servers[route] = held
        assert ctrl.verify_invariants() == []
        # A route that was given back while a flow still names it.
        table._live[route] = -1
        table._free.append(route)
        assert ctrl.verify_invariants() == [
            f"flow 'kept' names route {route}, which is free",
            "the route keys are not the route rows in use",
            "a canonical value names a free route",
        ]

    def test_headroom_of_an_unconfigured_pair_is_an_admission_error(
        self, line4_graph, voice_registry, line_routes
    ):
        ctrl = _controller(line4_graph, voice_registry, line_routes)
        assert ctrl.headroom("voice", ("r0", "r3")) > 0
        with pytest.raises(AdmissionError, match="no configured route"):
            ctrl.headroom("voice", ("r0", "r9"))


class TestFlowAwareController:
    def test_admits_light_load(self, line4_graph, voice_registry,
                               line_routes):
        ctrl = FlowAwareAdmissionController(
            line4_graph, voice_registry, line_routes
        )
        for i in range(5):
            assert ctrl.admit(_flow(i)).admitted
        assert ctrl.num_established == 5

    def test_rejects_overload(self, voice_registry):
        """Saturating a shared 1 Mbps bottleneck must be refused."""
        net = Network.from_edges(
            [("hub", f"leaf{i}") for i in range(3)], capacity=1e6
        )
        graph = LinkServerGraph(net)
        routes = {
            ("leaf0", "leaf2"): ["leaf0", "hub", "leaf2"],
            ("leaf1", "leaf2"): ["leaf1", "hub", "leaf2"],
        }
        ctrl = FlowAwareAdmissionController(graph, voice_registry, routes)
        admitted = 0
        for i in range(40):  # 40 * 32 kbps = 1.28 Mbps > 1 Mbps
            src = "leaf0" if i % 2 == 0 else "leaf1"
            if ctrl.admit(_flow(i, src, "leaf2")).admitted:
                admitted += 1
        assert admitted < 40
        # Stability: admitted rate below the wire.
        assert admitted * 32_000 <= 1e6

    def test_release_allows_readmission(self, line4_graph, voice_registry,
                                        line_routes):
        ctrl = FlowAwareAdmissionController(
            line4_graph, voice_registry, line_routes
        )
        ctrl.admit(_flow(1))
        ctrl.release(1)
        assert ctrl.admit(_flow(2)).admitted

    def test_decision_cost_grows_with_population(self, line4_graph,
                                                 voice_registry,
                                                 line_routes):
        """The paper's scalability argument, functionally: the flow-aware
        controller's work grows with established flows while the
        utilization controller's does not (checked via analysis calls,
        not wall-clock, to stay robust in CI)."""
        ctrl = FlowAwareAdmissionController(
            line4_graph, voice_registry, line_routes
        )
        for i in range(20):
            ctrl.admit(_flow(i))
        # It keeps per-flow state:
        assert ctrl.num_established == 20
        # whereas the utilization controller's ledger is O(servers):
        u = _controller(line4_graph, voice_registry, line_routes)
        for i in range(20):
            u.admit(_flow(i))
        assert u.ledger.used_view("voice").shape == (line4_graph.num_servers,)
