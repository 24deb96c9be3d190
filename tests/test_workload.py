"""Deterministic workload layer: generators, traces, and the driver.

The contract under test: same seed => byte-identical trace, independent
of worker count; record -> replay round-trips exactly; and the loadgen
driver replays a stream against a controller in both modes.
"""

import io
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.admission import UtilizationAdmissionController
from repro.admission.statistics import replay_schedule
from repro.errors import TrafficError
from repro.routing.shortest import shortest_path_routes
from repro.traffic.flows import PRIORITIES, FlowSpec
from repro.traffic.generators import all_ordered_pairs
from repro.workload import (
    TRACE_SCHEMA,
    ArrivalSchedule,
    TraceEvent,
    ZipfPairPopularity,
    assign_priorities,
    drive,
    merge_events,
    open_loop_schedule,
    parse_priority_mix,
    read_trace,
    schedule_events,
    trace_lines,
    write_trace,
)
from repro.workload.loadgen import tally_priorities


class TestZipfPopularity:
    def test_probabilities_normalized_and_skewed(self):
        pop = ZipfPairPopularity(num_pairs=10, skew=1.0)
        probs = pop.probabilities()
        assert probs.shape == (10,)
        assert probs.sum() == pytest.approx(1.0)
        assert probs[0] > probs[-1]  # rank 1 dominates

    def test_zero_skew_is_uniform(self):
        probs = ZipfPairPopularity(num_pairs=8, skew=0.0).probabilities()
        assert np.allclose(probs, 1 / 8)

    def test_shuffle_seed_permutes_deterministically(self):
        a = ZipfPairPopularity(num_pairs=16, skew=1.2, shuffle_seed=3)
        b = ZipfPairPopularity(num_pairs=16, skew=1.2, shuffle_seed=3)
        c = ZipfPairPopularity(num_pairs=16, skew=1.2, shuffle_seed=4)
        assert np.array_equal(a.probabilities(), b.probabilities())
        assert not np.array_equal(a.probabilities(), c.probabilities())
        assert sorted(a.probabilities()) == sorted(c.probabilities())

    def test_sample_respects_distribution_support(self):
        pop = ZipfPairPopularity(num_pairs=5, skew=2.0)
        rng = np.random.default_rng(0)
        draws = pop.sample(rng, 1000)
        assert draws.min() >= 0 and draws.max() < 5


class TestOpenLoopSchedule:
    def test_same_seed_identical_schedule(self):
        pop = ZipfPairPopularity(num_pairs=20, skew=1.0)
        a = open_loop_schedule(
            5000, arrival_rate=100.0, mean_holding=5.0,
            popularity=pop, seed=11,
        )
        b = open_loop_schedule(
            5000, arrival_rate=100.0, mean_holding=5.0,
            popularity=pop, seed=11,
        )
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.holdings, b.holdings)
        assert np.array_equal(a.pair_indices, b.pair_indices)

    def test_times_monotonic_and_holdings_positive(self):
        pop = ZipfPairPopularity(num_pairs=4, skew=1.0)
        schedule = open_loop_schedule(
            2000, arrival_rate=50.0, mean_holding=2.0,
            popularity=pop, seed=0,
        )
        assert (np.diff(schedule.times) >= 0).all()
        assert (schedule.holdings > 0).all()
        assert np.array_equal(
            schedule.departure_times(),
            schedule.times + schedule.holdings,
        )


ROUTERS = ["A", "B", "C", "D", "E"]


def times():
    return st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@st.composite
def flow_specs(draw):
    """Any flow the trace format carries: pinned route and priority
    optional, ids the JSON round trip preserves."""
    hops = draw(st.integers(min_value=2, max_value=len(ROUTERS)))
    route = tuple(draw(st.permutations(ROUTERS))[:hops])
    return FlowSpec(
        flow_id=draw(st.one_of(st.integers(), st.text(max_size=8))),
        class_name=draw(st.sampled_from(["voice", "video"])),
        source=route[0],
        destination=route[-1],
        route=draw(st.sampled_from([None, route])),
        priority=draw(st.sampled_from((None,) + PRIORITIES)),
    )


class TestTraceRoundTrip:
    def _events(self, n=200, seed=5):
        pop = ZipfPairPopularity(num_pairs=12, skew=1.0)
        schedule = open_loop_schedule(
            n, arrival_rate=40.0, mean_holding=3.0,
            popularity=pop, seed=seed,
        )
        pairs = [(f"r{i}", f"r{i + 1}") for i in range(12)]
        return schedule_events(schedule, pairs, "voice")

    def test_same_seed_byte_identical_trace(self):
        lines_a = "\n".join(trace_lines(self._events(seed=5)))
        lines_b = "\n".join(trace_lines(self._events(seed=5)))
        lines_c = "\n".join(trace_lines(self._events(seed=6)))
        assert lines_a == lines_b
        assert lines_a != lines_c

    def test_write_read_round_trip(self, tmp_path):
        events = self._events()
        path = tmp_path / "trace.jsonl"
        write_trace(path, events)
        _meta, again = read_trace(path)
        assert again == events

    def test_file_object_round_trip(self):
        events = self._events(n=50)
        buffer = io.StringIO()
        write_trace(buffer, events)
        buffer.seek(0)
        _meta, again = read_trace(buffer)
        assert again == events

    def test_header_carries_schema(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, self._events(n=10))
        header = json.loads(path.read_text().splitlines()[0])
        assert header["schema"] == TRACE_SCHEMA

    def test_events_sorted_departures_break_ties_first(self):
        events = self._events(n=500)
        times = [e.time for e in events]
        assert times == sorted(times)

    def test_bad_kind_rejected(self):
        with pytest.raises(TrafficError):
            TraceEvent(time=0.0, kind="teleport", flow_id="x")

    @given(st.lists(st.tuples(times(), flow_specs(), times()), max_size=8))
    def test_constructors_round_trip(self, rows):
        """``arrival`` is the inverse of ``.flow``, and what the two
        constructors build survives the file format exactly."""
        events = []
        for t_arr, flow, hold in rows:
            arrival = TraceEvent.arrival(t_arr, flow)
            assert arrival.flow == flow
            events.append(arrival)
            events.append(TraceEvent.departure(t_arr + hold, flow.flow_id))
        buffer = io.StringIO()
        write_trace(buffer, events)
        buffer.seek(0)
        _meta, again = read_trace(buffer)
        assert again == events

    def test_merge_is_departures_first_then_insertion_order(self):
        a, b = (FlowSpec(i, "voice", "x", "y") for i in "ab")
        events = [
            TraceEvent.arrival(1.0, a),
            TraceEvent.departure(2.0, "a"),
            TraceEvent.arrival(1.0, b),
            TraceEvent.departure(1.0, "b"),
            TraceEvent.arrival(0.5, a),
        ]
        assert [
            (e.time, e.kind, e.flow_id) for e in merge_events(events)
        ] == [
            (0.5, "arrival", "a"),
            (1.0, "departure", "b"),
            (1.0, "arrival", "a"),
            (1.0, "arrival", "b"),
            (2.0, "departure", "a"),
        ]


class TestDrive:
    @pytest.fixture()
    def controller(self, mci, mci_graph, mci_pairs, voice_registry):
        routes = shortest_path_routes(mci, mci_pairs)
        return UtilizationAdmissionController(
            mci_graph, voice_registry, {"voice": 0.1}, routes
        )

    def _events(self, mci, mci_pairs, n=2000):
        pop = ZipfPairPopularity(
            num_pairs=len(mci_pairs), skew=1.0, shuffle_seed=1
        )
        schedule = open_loop_schedule(
            n, arrival_rate=200.0, mean_holding=4.0,
            popularity=pop, seed=13,
        )
        return schedule_events(schedule, mci_pairs, "voice")

    def test_batch_and_sequential_agree_on_totals(
        self, mci, mci_pairs, mci_graph, voice_registry
    ):
        routes = shortest_path_routes(mci, mci_pairs)

        def fresh():
            return UtilizationAdmissionController(
                mci_graph, voice_registry, {"voice": 0.1}, routes
            )

        events = self._events(mci, mci_pairs)
        seq = replay_schedule(fresh(), events)
        batch = drive(fresh(), events, batch_size=64)
        assert seq.attempts == batch.num_arrivals == 2000
        # Epoch reordering can shift which flows win contended slots,
        # but the load is identical and every admitted flow departs.
        assert batch.num_admitted == batch.num_released
        assert all(lifetime.stop is not None for lifetime in seq.lifetimes)

    def test_batch_mode_uses_requested_epoch_size(
        self, controller, mci, mci_pairs
    ):
        events = self._events(mci, mci_pairs, n=300)
        # The controller retains no decisions; observe the ones each
        # admit_batch call hands back to the driver.
        returned = []
        admit_batch = controller.admit_batch

        def spy(flows):
            decisions = admit_batch(flows)
            returned.extend(decisions)
            return decisions

        controller.admit_batch = spy
        result = drive(controller, events, batch_size=128)
        assert result.batch_size == 128
        sizes = {d.batch_size for d in returned}
        assert max(sizes) <= 128
        assert 128 in sizes
        assert len(returned) == controller.num_decisions == 300

    #: ``per_priority`` of the trace below at alpha 0.02, recorded from
    #: the commit that still tallied it off the controller's retained
    #: decision list; byte-identical means key order included.
    _PER_PRIORITY = {
        "sequential": (
            '{"soft_rt": {"arrivals": 383, "admitted": 317, "rejected": 66}, '
            '"elastic": {"arrivals": 1422, "admitted": 1189, "rejected": 233}, '
            '"hard_rt": {"arrivals": 195, "admitted": 164, "rejected": 31}}'
        ),
        "batch": (
            '{"soft_rt": {"arrivals": 383, "admitted": 321, "rejected": 62}, '
            '"elastic": {"arrivals": 1422, "admitted": 1211, "rejected": 211}, '
            '"hard_rt": {"arrivals": 195, "admitted": 159, "rejected": 36}}'
        ),
    }

    @staticmethod
    def _replay(mode, controller, events):
        """``(per_priority, admitted)`` of one replay: ``drive``'s batch
        epochs, or ``replay_schedule``'s one call per event with the
        counts taken from its lifetimes."""
        if mode == "batch":
            result = drive(controller, events, batch_size=64)
            return result.per_priority, result.num_admitted
        stats = replay_schedule(controller, events)
        admitted = set(stats.admitted_ids)
        per_priority = tally_priorities([
            (e.priority, e.flow_id in admitted)
            for e in events if e.kind == "arrival"
        ])
        return per_priority, stats.admitted

    @pytest.mark.parametrize("mode", ["sequential", "batch"])
    def test_per_priority_tallied_from_returned_decisions(
        self, mode, mci, mci_pairs, mci_graph, voice_registry
    ):
        routes = shortest_path_routes(mci, mci_pairs)
        controller = UtilizationAdmissionController(
            mci_graph, voice_registry, {"voice": 0.02}, routes
        )
        events = assign_priorities(
            self._events(mci, mci_pairs),
            parse_priority_mix("hard_rt=1,soft_rt=2,elastic=7"),
            seed=5,
        )
        per_priority, admitted = self._replay(mode, controller, events)
        assert json.dumps(per_priority) == self._PER_PRIORITY[mode]
        assert controller.num_admitted == admitted
        assert controller.num_rejected == 2000 - admitted
        # A reused controller: the table covers this call's decisions
        # only, while the controller's counters keep the running total.
        again, _ = self._replay(
            mode,
            controller,
            [
                TraceEvent(
                    time=0.0, kind="arrival", flow_id="late",
                    class_name="voice", source=mci_pairs[0][0],
                    destination=mci_pairs[0][1], priority="hard_rt",
                )
            ],
        )
        assert sum(b["arrivals"] for b in again.values()) == 1
        assert controller.num_decisions == 2000 + 1

    def test_non_positive_batch_size_rejected(self, controller):
        with pytest.raises(TrafficError):
            drive(controller, [], batch_size=0)

    def test_empty_pairs_rejected(self):
        pop = ZipfPairPopularity(num_pairs=3, skew=1.0)
        schedule = open_loop_schedule(
            10, arrival_rate=1.0, mean_holding=1.0, popularity=pop, seed=0,
        )
        with pytest.raises(TrafficError):
            schedule_events(schedule, [], "voice")


class TestScheduleDataclass:
    def test_num_flows(self):
        schedule = ArrivalSchedule(
            times=np.array([0.0, 1.0]),
            holdings=np.array([1.0, 1.0]),
            pair_indices=np.array([0, 1]),
            seed=0,
        )
        assert schedule.num_flows == 2
