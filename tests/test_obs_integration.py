"""End-to-end observability: instrumented subsystems, default no-op path."""

import logging
import os
import subprocess
import sys

import pytest

from repro import obs
from repro.admission import UtilizationAdmissionController
from repro.analysis import single_class_delays
from repro.obs.metrics import NullRegistry
from repro.routing import SafeRouteSelector, shortest_path_routes
from repro.simulation import PacketPattern, Simulator
from repro.traffic import FlowSpec


def _named(tracer, name):
    return [r for r in tracer.records() if r.name == name]


@pytest.fixture()
def enabled_obs():
    """Fresh collection for one test; always switched off afterwards."""
    obs.enable(fresh=True)
    yield obs
    obs.disable()
    obs.reset()


def _sp_routes(line4):
    pairs = [("r0", "r3"), ("r3", "r0")]
    return shortest_path_routes(line4, pairs)


def _controller(line4_graph, voice_registry, routes, alpha=0.3):
    return UtilizationAdmissionController(
        line4_graph, voice_registry, {"voice": alpha}, routes
    )


class TestDisabledByDefault:
    def test_pristine_interpreter_has_null_state(self):
        """In a fresh process, observability is off and costs nothing."""
        code = (
            "import repro\n"
            "from repro import obs\n"
            "from repro.obs.metrics import NullRegistry\n"
            "assert not obs.is_enabled()\n"
            "assert isinstance(obs.get_registry(), NullRegistry)\n"
            "assert obs.OBS.tracer is None\n"
            "assert obs.prometheus_text() == ''\n"
            "assert obs.chrome_trace()['traceEvents'] == []\n"
        )
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            __import__("repro").__file__
        )))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run(
            [sys.executable, "-c", code], check=True, env=env
        )

    def test_instrumented_paths_record_nothing_while_disabled(
        self, line4, line4_graph, voice_registry
    ):
        # Earlier tests (e.g. the CLI ones) may leave collected data
        # readable after disable(); assert no *growth*, not emptiness.
        obs.disable()
        registry = obs.get_registry()
        before = len(registry)
        tracer = obs.OBS.tracer
        spans_before = 0 if tracer is None else len(tracer)
        routes = _sp_routes(line4)
        result = single_class_delays(
            line4_graph, list(routes.values()), voice_registry.get("voice"),
            0.2,
        )
        assert result.safe
        ctrl = _controller(line4_graph, voice_registry, routes)
        ctrl.admit(FlowSpec(1, "voice", "r0", "r3"))
        ctrl.release(1)
        assert len(registry) == before
        tracer = obs.OBS.tracer
        assert tracer is None or len(tracer) == spans_before


class TestInstrumentedSubsystems:
    def test_fixedpoint_series(self, enabled_obs, line4, line4_graph,
                               voice_registry):
        routes = _sp_routes(line4)
        single_class_delays(
            line4_graph, list(routes.values()), voice_registry.get("voice"),
            0.2,
        )
        reg = obs.get_registry()
        solves = reg.get(
            "repro_fixedpoint_solves_total", outcome="converged"
        )
        assert solves is not None and solves.value >= 1
        hist = reg.get("repro_fixedpoint_iterations")
        assert hist is not None and hist.count >= 1
        assert _named(obs.OBS.tracer, "fixedpoint.solve")

    def test_admission_series(self, enabled_obs, line4, line4_graph,
                              voice_registry):
        routes = _sp_routes(line4)
        # alpha sized for exactly 3 slots per server
        ctrl = _controller(
            line4_graph, voice_registry, routes, alpha=0.001008
        )
        for i in range(3):
            assert ctrl.admit(FlowSpec(i, "voice", "r0", "r3")).admitted
        assert not ctrl.admit(FlowSpec(99, "voice", "r0", "r3")).admitted
        ctrl.release(0)
        reg = obs.get_registry()
        name = "UtilizationAdmissionController"
        rejected = reg.get(
            "repro_admission_rejections_total",
            controller=name, reason="utilization_limit",
        )
        latency = reg.get(
            "repro_admission_decision_seconds", controller=name
        )
        sizes = reg.get("repro_admission_batch_size", controller=name)
        assert rejected.value == 1
        assert latency.count == 4
        # admit() is a decision call of one.
        assert sizes.count == sizes.sum == 4
        # The decision path pushes nothing else: the admitted, rejected
        # and released counts are the controller's tallies, and the
        # population and slot use are state the controller and ledger
        # hold.  A served scrape reads them all.
        assert {series.name for series in reg.series()} == {
            "repro_admission_rejections_total",
            "repro_admission_decision_seconds",
            "repro_admission_batch_size",
        }
        assert (ctrl.num_admitted, ctrl.num_rejected, ctrl.num_released) == (3, 1, 1)
        assert ctrl.num_established == 2  # 3 admitted - 1 released
        path = line4_graph.route_servers(["r0", "r1", "r2", "r3"])
        assert ctrl.ledger.used_view("voice")[list(path)].tolist() == [2, 2, 2]
        assert _named(obs.OBS.tracer, "admission.admit")

    def test_routing_series_and_nested_spans(self, enabled_obs, line4,
                                             voice_registry):
        selector = SafeRouteSelector(line4, voice_registry.get("voice"))
        outcome = selector.select([("r0", "r3"), ("r1", "r3")], 0.2)
        assert outcome.success
        reg = obs.get_registry()
        assert reg.get(
            "repro_routing_selections_total", outcome="success"
        ).value == 1
        evaluated = reg.get("repro_routing_candidates_evaluated_total")
        assert evaluated.value == outcome.candidates_evaluated
        cache = reg.get(
            "repro_routing_candidate_cache_total", result="miss"
        )
        assert cache.value >= 1
        # fixed-point solves nest under the routing.select span
        tracer = obs.OBS.tracer
        select_spans = _named(tracer, "routing.select")
        solve_spans = _named(tracer, "fixedpoint.solve")
        assert select_spans and solve_spans
        assert any(
            s.parent_id == select_spans[0].span_id for s in solve_spans
        )

    def test_simulation_series(self, enabled_obs, line4, line4_graph,
                               voice_registry):
        sim = Simulator(line4_graph, voice_registry)
        sim.add_flow(
            FlowSpec(1, "voice", "r0", "r3"),
            ["r0", "r1", "r2", "r3"],
            PacketPattern("greedy", packet_size=640),
        )
        report = sim.run(horizon=0.05)
        reg = obs.get_registry()
        assert reg.get("repro_simulation_runs_total").value == 1
        assert (
            reg.get("repro_simulation_events_total").value
            == report.events_processed
        )
        assert (
            reg.get("repro_simulation_packets_total", status="injected").value
            == report.packets_injected
        )
        depth = reg.get(
            "repro_simulation_max_queue_depth_packets", cls="voice"
        )
        assert depth is not None and depth.value >= 0
        assert _named(obs.OBS.tracer, "simulation.run")

    def test_reset_clears_collected_data(self, enabled_obs, line4,
                                         line4_graph, voice_registry):
        routes = _sp_routes(line4)
        ctrl = _controller(line4_graph, voice_registry, routes)
        ctrl.admit(FlowSpec(1, "voice", "r0", "r3"))
        assert len(obs.get_registry()) > 0
        obs.reset()
        assert len(obs.get_registry()) == 0
        assert len(obs.OBS.tracer) == 0


class TestLogging:
    def test_package_logger_has_null_handler(self):
        handlers = logging.getLogger("repro").handlers
        assert any(
            isinstance(h, logging.NullHandler) for h in handlers
        )

    def test_rejections_logged_at_debug(self, line4, line4_graph,
                                        voice_registry, caplog):
        routes = _sp_routes(line4)
        ctrl = _controller(
            line4_graph, voice_registry, routes, alpha=0.001008
        )
        for i in range(3):
            ctrl.admit(FlowSpec(i, "voice", "r0", "r3"))
        with caplog.at_level(logging.DEBUG, logger="repro.admission"):
            ctrl.admit(FlowSpec(99, "voice", "r0", "r3"))
        assert any(
            "rejected" in rec.message for rec in caplog.records
        )


class TestCommittedRouteRelease:
    def test_release_uses_route_committed_at_admit(
        self, line4, line4_graph, voice_registry
    ):
        """A route_map edit between admit and release must not leak slots."""
        routes = _sp_routes(line4)
        ctrl = _controller(line4_graph, voice_registry, routes)
        ctrl.admit(FlowSpec(1, "voice", "r0", "r3"))
        assert ctrl.committed_route(1) == ["r0", "r1", "r2", "r3"]
        # Re-route (even drop) the pair while the flow is established:
        # pre-fix, release re-resolved the route and blew up here.
        del ctrl.route_map[("r0", "r3")]
        ctrl.release(1)
        # Every slot freed on the *original* path; ledger fully drained.
        assert (ctrl.ledger.used_view("voice") == 0).all()

    def test_committed_route_unknown_flow_raises(
        self, line4, line4_graph, voice_registry
    ):
        from repro.errors import AdmissionError

        ctrl = _controller(line4_graph, voice_registry, _sp_routes(line4))
        with pytest.raises(AdmissionError):
            ctrl.committed_route("nope")
