"""Adversarial ``(w, b)``-bounded workload generation."""

import pytest

from repro.admission import UtilizationAdmissionController
from repro.errors import TrafficError
from repro.routing.shortest import shortest_path_routes
from repro.topology import LinkServerGraph, line_network
from repro.traffic import ClassRegistry, voice_class
from repro.traffic.generators import all_ordered_pairs
from repro.workload import (
    AdversaryModel,
    adversarial_events,
    drive,
    hot_servers,
    validate_adversarial_events,
)
from repro.workload import adversarial
from repro.workload.trace import TraceEvent

pytestmark = pytest.mark.adversarial


@pytest.fixture(scope="module")
def chain():
    network = line_network(5)
    graph = LinkServerGraph(network)
    routes = shortest_path_routes(network, all_ordered_pairs(network))
    return graph, routes


class TestAdversaryModel:
    def test_defaults(self):
        model = AdversaryModel()
        assert model.rate == 64.0
        assert model.burst == 16
        assert model.window == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rate": 0.0},
            {"rate": -1.0},
            {"burst": 0},
            {"window": 0.0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(TrafficError):
            AdversaryModel(**kwargs)


class TestHotServers:
    def test_middle_of_a_chain_is_hottest(self, chain):
        graph, routes = chain
        # On a line every all-pairs route set crosses the middle links
        # the most; the extremes are crossed least.
        ranking = hot_servers(graph, routes, top=graph.num_servers)
        crossings = [0] * graph.num_servers
        for path in routes.values():
            for s in graph.route_servers(path):
                crossings[int(s)] += 1
        assert crossings[ranking[0]] == max(crossings)
        assert crossings[ranking[-1]] == min(crossings)

    def test_deterministic_and_distinct(self, chain):
        graph, routes = chain
        first = hot_servers(graph, routes, top=3)
        assert first == hot_servers(graph, routes, top=3)
        assert len(set(first)) == 3

    def test_invalid_arguments_rejected(self, chain):
        graph, routes = chain
        with pytest.raises(TrafficError):
            hot_servers(graph, routes, top=0)
        with pytest.raises(TrafficError):
            hot_servers(graph, {}, top=1)


class TestAdversarialEvents:
    MODEL = AdversaryModel(rate=100.0, burst=8)

    def make(self, chain, churn_fraction=adversarial.CHURN_FRACTION, **kwargs):
        graph, routes = chain
        kwargs.setdefault("num_flows", 40)
        kwargs.setdefault("model", self.MODEL)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(adversarial, "CHURN_FRACTION", churn_fraction)
            return adversarial_events(graph, routes, "voice", **kwargs)

    def test_burst_packing_is_extremal(self, chain):
        events = self.make(chain)
        arrivals = [e for e in events if e.kind == "arrival"]
        by_time = {}
        for e in arrivals:
            by_time.setdefault(e.time, []).append(e)
        sizes = [len(v) for _, v in sorted(by_time.items())]
        # Every burst is flush against the bucket depth: the first
        # burst drains the full bucket and refills are complete.
        assert sizes[0] == self.MODEL.burst
        assert all(s == self.MODEL.burst for s in sizes[:-1])
        assert sum(sizes) == 40

    def test_every_arrival_has_one_departure(self, chain):
        events = self.make(chain)
        arrived = {e.flow_id for e in events if e.kind == "arrival"}
        departed = [e.flow_id for e in events if e.kind == "departure"]
        assert len(arrived) == 40
        assert sorted(arrived) == sorted(departed)

    def test_departures_break_ties_first(self, chain):
        events = self.make(chain, churn_fraction=1.0)
        for earlier, later in zip(events, events[1:]):
            if earlier.time == later.time:
                # departure (0) may precede arrival (1), never the
                # other way around within one timestamp.
                assert not (
                    earlier.kind == "arrival"
                    and later.kind == "departure"
                )

    def test_thundering_herd_lands_on_burst_instants(self, chain):
        events = self.make(chain, churn_fraction=1.0)
        burst_instants = {
            e.time for e in events if e.kind == "arrival"
        }
        last_burst = max(burst_instants)
        for e in events:
            if e.kind == "departure" and e.time <= last_burst:
                assert e.time in burst_instants

    def test_zero_churn_pins_slots_past_the_attack(self, chain):
        events = self.make(chain, churn_fraction=0.0)
        last_arrival = max(
            e.time for e in events if e.kind == "arrival"
        )
        for e in events:
            if e.kind == "departure":
                assert e.time > last_arrival

    def test_deterministic_in_seed(self, chain):
        one = self.make(chain, seed=5)
        two = self.make(chain, seed=5)
        other = self.make(chain, seed=6)
        key = lambda evs: [
            (e.time, e.kind, e.flow_id, e.source, e.destination)
            for e in evs
        ]
        assert key(one) == key(two)
        assert key(one) != key(other)

    def test_flow_ids_carry_prefix_and_seed(self, chain):
        events = self.make(chain, seed=9, id_prefix="atk")
        assert all(e.flow_id.startswith("atk9_") for e in events)

    def test_targets_only_hot_routes(self, chain):
        graph, routes = chain
        events = self.make(chain, hot_edges=1)
        hot = set(hot_servers(graph, routes, top=1))
        for e in events:
            if e.kind == "arrival":
                servers = graph.route_servers(
                    routes[(e.source, e.destination)]
                )
                assert hot.intersection(servers)

    def test_invalid_parameters_rejected(self, chain):
        with pytest.raises(TrafficError):
            self.make(chain, num_flows=0)

    def test_drives_the_batch_pipeline(self, chain):
        graph, routes = chain
        events = self.make(chain)
        controller = UtilizationAdmissionController(
            graph,
            ClassRegistry.two_class(voice_class()),
            {"voice": 0.4},
            routes,
        )
        result = drive(controller, events, batch_size=8)
        assert result.num_arrivals == 40
        assert result.num_admitted + result.num_rejected == 40
        # Every admitted flow is eventually released by the stream.
        assert result.num_released == result.num_admitted


class TestValidateAdversarialEvents:
    def test_release_of_never_arrived_flow_rejected(self):
        events = [
            TraceEvent(0.0, "arrival", "a", "voice", "r0", "r1"),
            TraceEvent(1.0, "departure", "ghost"),
        ]
        with pytest.raises(TrafficError, match="never arrived"):
            validate_adversarial_events(events)

    def test_double_release_rejected(self):
        events = [
            TraceEvent(0.0, "arrival", "a", "voice", "r0", "r1"),
            TraceEvent(1.0, "departure", "a"),
            TraceEvent(2.0, "departure", "a"),
        ]
        with pytest.raises(TrafficError, match="twice"):
            validate_adversarial_events(events)

    def test_re_arrival_rejected(self):
        events = [
            TraceEvent(0.0, "arrival", "a", "voice", "r0", "r1"),
            TraceEvent(1.0, "arrival", "a", "voice", "r0", "r1"),
        ]
        with pytest.raises(TrafficError, match="re-arrives"):
            validate_adversarial_events(events)

    def test_unsorted_stream_rejected(self):
        events = [
            TraceEvent(1.0, "arrival", "a", "voice", "r0", "r1"),
            TraceEvent(0.0, "arrival", "b", "voice", "r0", "r1"),
        ]
        with pytest.raises(TrafficError, match="not time-sorted"):
            validate_adversarial_events(events)

    def test_envelope_violation_rejected(self):
        model = AdversaryModel(rate=1.0, burst=2)
        events = [
            TraceEvent(0.0, "arrival", f"f{i}", "voice", "r0", "r1")
            for i in range(3)
        ]
        with pytest.raises(TrafficError, match="envelope"):
            validate_adversarial_events(events, model)

    def test_compliant_stream_accepted(self):
        model = AdversaryModel(rate=1.0, burst=2)
        events = [
            TraceEvent(0.0, "arrival", "a", "voice", "r0", "r1"),
            TraceEvent(0.0, "arrival", "b", "voice", "r0", "r1"),
            TraceEvent(1.0, "arrival", "c", "voice", "r0", "r1"),
            TraceEvent(2.0, "departure", "a"),
        ]
        validate_adversarial_events(events, model)
