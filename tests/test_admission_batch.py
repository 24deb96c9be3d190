"""Unit tests for the vectorized batch-admission machinery.

Covers the :mod:`repro.admission.batch` slot kernel in isolation, the
dict-and-route-table :class:`~repro.admission.flowtable.FlowTable`, and the
batch-aware :class:`~repro.admission.base.AdmissionDecision` records
(amortized per-request timing).  The end-to-end sequential/batch
equivalence lives in ``test_property_batch_admission.py``.
"""

import gc
import math
import struct
import sys
import weakref

import numpy as np
import pytest

from repro.admission import (
    FlowTable,
    PADDING_FREE,
    SlotShardController,
    UtilizationAdmissionController,
    batch_slot_decisions,
    pad_server_matrix,
)
from repro.admission import flowtable
from repro.admission.base import ADMIT_BATCH_MIN_RUN, AdmissionDecision
from repro.errors import AdmissionError
from repro.routing.shortest import shortest_path_routes
from repro.traffic import BEST_EFFORT_PRIORITY, ClassRegistry, TrafficClass
from repro.traffic.flows import FlowSpec
from repro.traffic.generators import all_ordered_pairs, video_class


def _free(values):
    """Free-slot vector with the virtual padding slot appended."""
    out = np.empty(len(values) + 1, dtype=np.int64)
    out[:-1] = values
    out[-1] = PADDING_FREE
    return out


class TestPadServerMatrix:
    def test_pads_ragged_rows_to_sentinel(self):
        rows = [
            np.array([0, 1, 2], dtype=np.int64),
            np.array([3], dtype=np.int64),
        ]
        matrix, lengths = pad_server_matrix(rows, pad=9)
        assert matrix.tolist() == [[0, 1, 2], [3, 9, 9]]
        assert lengths.tolist() == [3, 1]

    def test_empty_rows_allowed(self):
        matrix, lengths = pad_server_matrix(
            [np.empty(0, dtype=np.int64)], pad=4
        )
        assert lengths.tolist() == [0]
        assert (matrix == 4).all() if matrix.size else True


class TestBatchSlotDecisions:
    def test_independent_flows_all_admitted(self):
        matrix, _ = pad_server_matrix(
            [np.array([0]), np.array([1]), np.array([2])], pad=3
        )
        admitted = batch_slot_decisions(matrix, _free([1, 1, 1]))
        assert admitted.tolist() == [True, True, True]

    def test_contention_resolved_in_batch_order(self):
        # One slot on server 0; the first requester wins.
        matrix, _ = pad_server_matrix(
            [np.array([0]), np.array([0]), np.array([0])], pad=1
        )
        admitted = batch_slot_decisions(matrix, _free([1]))
        assert admitted.tolist() == [True, False, False]

    def test_rejection_frees_slots_for_later_flow(self):
        # Server 0 is full, server 1 has one slot.  Flow 0 needs both
        # servers -> rejected; flow 1 (server 1 only) must then be
        # admitted, exactly as a sequential replay would decide.
        matrix, _ = pad_server_matrix(
            [np.array([0, 1]), np.array([1])], pad=2
        )
        admitted = batch_slot_decisions(matrix, _free([0, 1]))
        assert admitted.tolist() == [False, True]

    def test_matches_sequential_greedy_reference(self):
        rng = np.random.default_rng(3)
        num_servers = 6
        for _ in range(25):
            rows = [
                np.unique(
                    rng.integers(0, num_servers, size=rng.integers(1, 4))
                ).astype(np.int64)
                for _ in range(rng.integers(1, 20))
            ]
            free = rng.integers(0, 3, size=num_servers).astype(np.int64)
            matrix, _ = pad_server_matrix(rows, pad=num_servers)
            got = batch_slot_decisions(matrix, _free(free))
            # Greedy per-flow reference.
            remaining = free.copy()
            want = []
            for servers in rows:
                ok = bool((remaining[servers] > 0).all())
                if ok:
                    remaining[servers] -= 1
                want.append(ok)
            assert got.tolist() == want


class _Id:
    """A hashable flow id a weakref can watch."""

    __slots__ = ("name", "__weakref__")

    def __init__(self, name):
        self.name = name

    def __hash__(self):
        return hash(self.name)

    def __eq__(self, other):
        return isinstance(other, _Id) and other.name == self.name


def _best_effort(name, rank):
    return TrafficClass(
        name=name, burst=0.0, rate=0.0, deadline=math.inf,
        priority=BEST_EFFORT_PRIORITY + 1 + rank,
    )


def _routes(table, rows, pair=-1):
    """Route codes of server ``rows``, interned as routes of ``pair``."""
    return [table.route_code(pair, np.asarray(r, dtype=np.int64)) for r in rows]


# Boundary checks: values past one and two signed bytes survive every
# path in and out of the table.


def _servers_round_trip(pad):
    """A server index one below ``pad``, and ``pad`` itself, survive
    every path in and out of the table and ``pop_batch``'s matrix."""
    top = pad - 1
    table = FlowTable(pad=pad)
    table.add("seq", 0, np.array([top, 0, top - 1], dtype=np.int64))
    matrix, lengths = pad_server_matrix(
        [np.array([top]), np.array([1, top])], pad=pad
    )
    table.add_batch(["b0", "b1"], 0, matrix, lengths)
    assert table.servers_of("seq") == (top, 0, top - 1)
    assert table.usage(0)[top] == 3
    ids, tags, hits = table.holders(0, [-1], [top])
    assert sorted(ids) == ["b0", "b1", "seq"] and hits == [(True,)] * 3
    assert tags == [-1] * 3
    codes, popped, popped_lengths, _tags = table.pop_batch(["b1", "b0"])
    assert popped.dtype == np.int64
    assert popped.tolist() == [[1, top], [top, pad]]
    assert popped_lengths.tolist() == [2, 1] and codes.tolist() == [0, 0]
    _code, servers, _tag = table.pop("seq")
    assert list(servers) == [top, 0, top - 1]
    assert table.verify() == []


def _class_codes_round_trip(mci, mci_graph, mci_pairs, voice):
    """Class codes past 127, minted at run time by best-effort classes
    registered after the controller was built, through the sequential
    and the batch path."""
    registry = ClassRegistry.two_class(voice)
    controller = UtilizationAdmissionController(
        mci_graph, registry, {"voice": 0.3},
        shortest_path_routes(mci, mci_pairs),
    )
    names = [f"bulk-{i}" for i in range(250)]
    for rank, name in enumerate(names):
        registry.add(_best_effort(name, rank))
    pair = mci_pairs[0]
    seq = [FlowSpec(f"s-{name}", name, *pair) for name in names[:100]]
    batch = [FlowSpec(f"b-{name}", name, *pair) for name in names[100:200]]
    late = [FlowSpec(f"l-{name}", name, *pair) for name in names[200:]]
    voice_flow = FlowSpec("v", "voice", *pair)
    for flow in seq:
        assert controller.admit(flow).admitted
    # Codes 102 .. 201: the batch path crosses 127.
    assert all(d.admitted for d in controller.admit_batch(batch))
    # Codes 202 .. 251, one at a time.
    for flow in late + [voice_flow]:
        assert controller.admit(flow).admitted
    assert controller.established_flows == seq + batch + late + [voice_flow]
    assert controller.verify_invariants() == []
    controller.release_batch([f.flow_id for f in batch])
    for flow in seq + late + [voice_flow]:
        controller.release(flow.flow_id)
    assert controller.num_established == 0
    assert not controller.ledger.used_view("voice").any()


def _pair_codes_round_trip():
    """Pair codes past 32 767 (the interned endpoints of 40 000
    distinct pairs), through ``add`` and ``add_batch``."""
    table = FlowTable(pad=9)
    pairs = [(f"s{i}", f"d{i}") for i in range(40_000)]
    assert [table.pair_code(p) for p in pairs] == list(range(40_000))
    one = np.array([1], dtype=np.int64)
    for k in (127, 128, 32_768):
        table.add(f"seq-{k}", 0, one, pair=k)
    picks = [32_767, 32_769, 39_999]
    routes = [_routes(table, [one], k)[0] for k in picks]
    table.add_routed([f"batch-{k}" for k in picks], 0, routes)
    for fid, _code, _tag, pair, _pinned in table.records():
        assert pair == pairs[int(fid.split("-")[1])], fid
    assert table.verify() == []


class TestFlowTable:
    def test_add_pop_roundtrip(self):
        table = FlowTable(pad=7)
        table.add("a", 0, np.array([1, 2], dtype=np.int64), tag=5)
        assert "a" in table and len(table) == 1
        code, servers, tag = table.pop("a")
        assert (code, tag) == (0, 5)
        assert servers == (1, 2)
        assert "a" not in table and len(table) == 0

    def test_row_reuse_clears_stale_tail(self):
        table = FlowTable(pad=9)
        table.add("long", 0, np.array([1, 2, 3, 4], dtype=np.int64))
        table.pop("long")
        # The recycled route row previously held a 4-server route; a
        # 1-server batch must not resurrect the stale servers.
        matrix, lengths = pad_server_matrix(
            [np.array([5], dtype=np.int64)], pad=9
        )
        table.add_batch(["short"], 1, matrix, lengths)
        assert table.rows == 1
        assert table._routes == [(5,)]
        _, servers, _ = table.pop("short")
        assert servers == (5,)
        assert table.verify() == []

    def test_pop_batch_returns_all_columns(self):
        table = FlowTable(pad=9)
        matrix, lengths = pad_server_matrix(
            [np.array([1, 2]), np.array([3])], pad=9
        )
        table.add_batch(["a", "b"], 2, matrix, lengths)
        codes, out, out_len, tags = table.pop_batch(["b", "a"])
        assert codes.tolist() == [2, 2]
        assert out_len.tolist() == [1, 2]
        assert out[0, 0] == 3 and out[1].tolist() == [1, 2]
        assert tags.tolist() == [-1, -1]
        assert len(table) == 0

    def test_growth_beyond_initial_capacity(self):
        """100 distinct routes take 100 rows of the route table, which
        then stay, free, for the next routes."""
        table = FlowTable(pad=200)
        for i in range(100):
            table.add(i, 0, np.array([i, i + 1], dtype=np.int64))
        assert len(table) == 100 and table.rows == 100
        assert table.verify() == []
        for i in range(100):
            assert table.pop(i)[1] == (i, i + 1)
        assert len(table) == 0 and table.rows == 100
        assert len(table._free) == 100 and table.verify() == []
        for i in range(100):
            table.add(i, 0, (i + 1, i))
        assert table.rows == 100 and not table._free
        assert table.verify() == []

    def test_duplicate_and_missing_ids_raise(self):
        table = FlowTable(pad=5)
        table.add("a", 0, np.array([1], dtype=np.int64))
        with pytest.raises(AdmissionError):
            table.add("a", 0, np.array([2], dtype=np.int64))
        with pytest.raises(AdmissionError):
            table.pop("missing")
        with pytest.raises(AdmissionError):
            table.pop_batch(["a", "missing"])

    def test_pop_batch_is_all_or_nothing(self):
        """An unknown or repeated id raises what ``release_batch``
        raises, with no id gone, no row handed back and the survivors
        in the order they were established."""
        table = FlowTable(pad=9)
        matrix, lengths = pad_server_matrix(
            [np.array([1, 2]), np.array([3]), np.array([4])], pad=9
        )
        table.add_batch(["f0", "f1", "f2"], 0, matrix, lengths)
        live = list(table._live)
        for ids, message in [
            (["f0", "f1", "nope"], "flow 'nope' is not established"),
            (["f1", "f0", "f1"], "duplicate flow id 'f1' in batch"),
            (["nope", "nope"], "flow 'nope' is not established"),
        ]:
            with pytest.raises(AdmissionError, match=message):
                table.pop_batch(ids)
            assert list(table) == ["f0", "f1", "f2"]
            assert table._live == live
            assert table.verify() == []
        assert table.servers_of("f0") == (1, 2)
        table.pop_batch(["f1", "f0"])
        assert list(table) == ["f2"] and table.verify() == []

    def test_add_batch_is_all_or_nothing(self):
        """A refused batch leaves no flow, and no route it interned."""
        table = FlowTable(pad=9)
        one, one_len = pad_server_matrix([np.array([1])], pad=9)
        table.add_batch(["f0"], 0, one, one_len)
        two, two_len = pad_server_matrix(
            [np.array([2]), np.array([3])], pad=9
        )
        for ids in (["new", "f0"], ["new", "new"]):
            with pytest.raises(AdmissionError, match="already established"):
                table.add_batch(ids, 0, two, two_len)
            assert list(table) == ["f0"] and len(table._keys) == 1
            # The rows it took are free again: one row is in use.
            assert table.rows - len(table._free) == 1
            assert table.verify() == []

    def test_a_recycled_row_keeps_nothing_of_its_last_occupant(self):
        table = FlowTable(pad=9)
        pair = table.pair_code(("a", "d"))
        table.add(
            "pinned", 1, np.array([1, 2, 3, 4], dtype=np.int64), 3,
            pair, True,
        )
        table.pop("pinned")
        other = table.pair_code(("x", "y"))
        table.add_routed(["bare"], 0, _routes(table, [[5]], other))
        assert table.rows == 1
        assert table.record("bare") == ("bare", 0, -1, ("x", "y"), False)
        assert table.servers_of("bare") == (5,)
        assert table.usage(0).tolist() == [0, 0, 0, 0, 0, 1, 0, 0, 0]
        assert table.usage(1).tolist() == [0] * 9

    def test_holders_scans_class_tag_and_servers(self):
        table = FlowTable(pad=9)
        rows = [np.array([1, 2]), np.array([2, 3]), np.array([4]),
                np.array([1, 2]), np.array([2])]
        table.add_routed(
            ["a", "b", "c", "other-class", "protected"],
            [0, 0, 0, 1, 0], _routes(table, rows), [1, -1, 1, 1, 3],
        )
        table.pop("c")  # a freed row is not a candidate
        ids, tags, hits = table.holders(0, [-1, 1], [2, 3])
        assert dict(zip(ids, zip(tags, hits))) == {
            "a": (1, (True, False)), "b": (-1, (True, True)),
        }
        ids, tags, hits = table.holders(0, [1], [7])
        assert ids == tags == hits == []

    def test_servers_of_returns_copy(self):
        """What comes out is the stored tuple, which no caller can
        write through to the table."""
        table = FlowTable(pad=5)
        table.add("a", 0, np.array([1, 2], dtype=np.int64))
        view = table.servers_of("a")
        with pytest.raises(TypeError):
            view[0] = 0
        assert table.servers_of("a") == (1, 2)

    def test_nbytes_counts_each_route_tuple_and_three_slots_a_row(self):
        """Per route in use its server tuple, and per row, free ones
        included, its three list slots: servers, pair code and live
        count."""
        table = FlowTable(pad=70)  # MCI
        slots = 3 * struct.calcsize("P")
        pair = table.pair_code(("a", "b"))
        table.configure(pair, (1, 2, 3))
        table.add("x", 0, (4,), pair=pair)
        assert table.rows == 2
        assert table.nbytes == sys.getsizeof((1, 2, 3)) + sys.getsizeof((4,)) + 2 * slots
        table.pop("x")
        assert table.rows == 2
        assert table.nbytes == sys.getsizeof((1, 2, 3)) + 2 * slots

    def test_a_flow_is_one_entry_holding_a_shared_value(self):
        """Flows alike in route, class, tag and pin hold one int
        object between them; the route is stored once."""
        table = FlowTable(pad=9)
        pair = table.pair_code(("a", "b"))
        route = np.array([1, 2], dtype=np.int64)
        for i in range(3):
            table.add(f"s{i}", 0, route, 1, pair)
        table.add_routed(
            ["b0", "b1", "b2"], 0, _routes(table, [route] * 3, pair), 1,
            [False, False, True],
        )
        value = table._value
        assert len({id(value(f)) for f in ["s0", "s1", "s2", "b0", "b1"]}) == 1
        assert value("b2") is not value("b0") and value("b2") == value("b0") | 1
        assert len(table._keys) == 1 and max(table._live) == 6
        assert table.record("b2") == ("b2", 0, 1, ("a", "b"), True)
        assert table.verify() == []

    def test_segments_seal_and_merge_in_establishment_order(self, monkeypatch):
        """A share of two inserts: the open segment takes its share,
        then what its table has room for (5 in CPython's smallest), and
        a batch it has no room for opens the next segment; each seal
        merges adjacent sealed segments that releases have thinned until
        they fit in one share, and drops the ones they emptied."""
        monkeypatch.setattr(flowtable, "SEGMENT_INSERTS", 2)
        table = FlowTable(pad=9)
        servers = np.array([1, 2])

        def layout():
            assert table.verify() == []
            return [list(seg) for seg in table._segs]

        for fid in "abcdef":
            table.add(fid, 0, servers)
        assert layout() == [list("abcde"), ["f"]] and table._sealed == [5]
        table.add_routed(list("ghij"), 0, _routes(table, [servers] * 4))
        assert layout() == [list("abcde"), list("fghij")]
        for fid in "bcdefghi":
            table.pop(fid)
        assert layout() == [["a"], ["j"]]
        # Refused with the open segment full: nothing seals or merges.
        with pytest.raises(AdmissionError, match="'a' is already established"):
            table.add_routed(["k", "a"], 0, _routes(table, [servers] * 2))
        assert layout() == [["a"], ["j"]] and table._sealed == [5]
        assert table._inserts[0] == 5
        table.add_routed(["k", "l"], 0, _routes(table, [servers] * 2))
        assert layout() == [["a", "j"], ["k", "l"]] and table._sealed == [2]
        table.pop("a")
        table.pop("j")
        table.add_routed(list("mno"), 0, _routes(table, [servers] * 3))
        assert layout() == [[], list("klmno")]
        table.add("p", 0, servers)
        assert layout() == [list("klmno"), ["p"]] and table._sealed == [5]
        assert list(table) == list("klmnop")

    def test_the_share_of_a_segment_grows_with_the_flows(self, monkeypatch):
        """Past ``SEGMENT_INSERTS * SEGMENT_SHARES`` flows a segment
        takes an eighth of them, so the index stays a bounded number of
        dicts however many flows it holds."""
        monkeypatch.setattr(flowtable, "SEGMENT_INSERTS", 2)
        table = FlowTable(pad=9)
        route = _routes(table, [np.array([1, 2])])
        for start in range(0, 400, 4):
            ids = [f"f{i}" for i in range(start, start + 4)]
            table.add_routed(ids, 0, route * 4)
        assert table.verify() == []
        # The share is set at each seal from the flows it found.
        assert table._share == sum(table._sealed) // flowtable.SEGMENT_SHARES > 2
        assert len(table._segs) <= 2 * flowtable.SEGMENT_SHARES + 2

    def test_verify_reports_each_planted_fault(self):
        table = FlowTable(pad=9)
        ab, cd = table.pair_code(("a", "b")), table.pair_code(("c", "d"))
        table.add("x", 0, np.array([1, 2]), -1, ab)
        table.add("y", 0, np.array([3, 4]), -1, cd)
        assert table.verify() == []
        (segment,) = table._segs
        x, y = segment["x"], segment["y"]
        # A flow whose value names another pair's route.
        segment["x"] = y
        problems = table.verify()
        assert any("'x'" in p and p.startswith("route ") for p in problems)
        segment["x"] = x
        # An id held by two segments (here a sealed one and the open
        # one), which pop would release once and leave established.
        table._segs, table._sealed = [{"x": x}, segment], [1]
        assert table.verify()[0] == "flow 'x' is in segments 0 and 1"
        # Two adjacent sealed segments that fit in one, left unmerged.
        table._segs, table._sealed = [{"x": x}, {"y": y}, {}], [1, 1]
        assert table.verify() == [
            "sealed segments 0 and 1 were sealed with 1 and 1 flows: they fit in one"
        ]
        # A sealed segment that gained a flow, and seal sizes that do
        # not match the segments.
        table._segs, table._sealed = [segment, {}], [1]
        assert table.verify() == ["sealed segment 0 holds 2 flows, sealed with 1"]
        table._segs, table._sealed = [segment], [2]
        assert table.verify() == ["1 seal sizes for 0 sealed segments"]
        table._sealed = []
        # A live count that disagrees with the flows.
        table._live[0] += 1
        assert table.verify() == [
            "route 0 counts 2 holders, but 1 hold it (flows ['x'])"
        ]
        table._live[0] -= 1
        # A route row whose servers differ from its key.
        held = table._routes[1]
        table._routes[1] = (5, 4)
        assert table.verify() == [
            "route row 1 holds servers [5, 4] of pair code 1, not its key's"
        ]
        table._routes[1] = held
        # A flow on a route that was freed under it.
        table._live[1] = -1
        table._free.append(1)
        problems = table.verify()
        assert "flow 'y' names route 1, which is free" in problems
        assert "the route keys are not the route rows in use" in problems

    @pytest.mark.parametrize("pad", [127, 128])
    def test_the_server_matrix_holds_pad(self, pad):
        _servers_round_trip(pad)

    def test_routes_longer_than_127_hops_round_trip(self):
        """Through ``add`` and ``add_batch``, and out of
        ``pop_batch``."""
        table = FlowTable(pad=300)
        long = np.arange(200, dtype=np.int64)
        table.add("seq", 0, long)
        matrix, lengths = pad_server_matrix([long[:150], long], pad=300)
        table.add_batch(["b0", "b1"], 0, matrix, lengths)
        assert table.servers_of("seq") == tuple(range(200))
        _codes, popped, popped_lengths, _tags = table.pop_batch(["b0", "b1"])
        assert popped_lengths.tolist() == [150, 200]
        assert popped[0, :150].tolist() == list(range(150))
        assert table.verify() == []

    def test_class_codes_past_127(
        self, mci, mci_graph, mci_pairs, voice
    ):
        _class_codes_round_trip(mci, mci_graph, mci_pairs, voice)

    def test_pair_codes_past_32767(self):
        _pair_codes_round_trip()

    def test_a_freed_row_keeps_nothing_alive(self):
        """``pop``, ``pop_batch`` and a refused ``add_batch`` let go of
        every id: memory is O(established flows), not O(peak flows)."""
        table = FlowTable(pad=9)
        pair = table.pair_code(("a", "b"))
        table.add("stays", 0, np.array([1], dtype=np.int64))
        refs = []

        def watched(n):
            ids = [_Id(f"f{len(refs) + i}") for i in range(n)]
            refs.extend(weakref.ref(x) for x in ids)
            return ids

        def names(ids):
            return [_Id(fid.name) for fid in ids]

        ids = watched(1)
        table.add(ids[0], 0, np.array([1, 2], dtype=np.int64), 1, pair, True)
        popped = names(ids)
        del ids
        table.pop(popped[0])

        ids = watched(3)
        table.add_routed(ids, 0, _routes(table, [[0], [1], [2]], pair), -1, True)
        popped = names(ids)
        del ids
        table.pop_batch(popped)

        ids = watched(2)
        refused = ids + ["stays"]
        with pytest.raises(AdmissionError, match="already established"):
            table.add_routed(refused, 0, _routes(table, [[0], [1], [2]], pair))
        del ids, refused, popped
        gc.collect()
        assert [r for r in refs if r() is not None] == []
        assert list(table) == ["stays"] and table.verify() == []


class TestDecisionRecords:
    def test_single_decision_defaults_to_batch_of_one(self):
        decision = AdmissionDecision(
            flow_id="f", admitted=True, reason="", decision_seconds=0.5,
        )
        assert decision.batch_size == 1

    def test_mean_decision_seconds_amortizes_batches(self, mci, mci_graph,
                                                     mci_pairs,
                                                     voice_registry):
        # Regression: summing raw decision_seconds would count a
        # k-request batch k times over.
        routes = shortest_path_routes(mci, mci_pairs)
        controller = UtilizationAdmissionController(
            mci_graph, voice_registry, {"voice": 0.3}, routes
        )
        flows = [
            FlowSpec(
                flow_id=f"f{i}", class_name="voice",
                source=pair[0], destination=pair[1],
            )
            for i, pair in enumerate(mci_pairs[:20])
        ]
        decisions = controller.admit_batch(flows)
        assert all(d.batch_size == len(flows) for d in decisions)
        batch_cost = decisions[0].decision_seconds
        assert controller.mean_decision_seconds() == pytest.approx(
            batch_cost / len(flows)
        )


class TestAdmitBatchValidation:
    @pytest.fixture()
    def controller(self, mci, mci_graph, mci_pairs, voice_registry):
        routes = shortest_path_routes(mci, mci_pairs)
        return UtilizationAdmissionController(
            mci_graph, voice_registry, {"voice": 0.3}, routes
        )

    def _flow(self, pair, fid):
        return FlowSpec(
            flow_id=fid, class_name="voice",
            source=pair[0], destination=pair[1],
        )

    def test_duplicate_ids_rejected_before_commit(
        self, controller, mci_pairs
    ):
        flows = [
            self._flow(mci_pairs[0], "dup"),
            self._flow(mci_pairs[1], "dup"),
        ]
        with pytest.raises(AdmissionError, match="duplicate"):
            controller.admit_batch(flows)
        assert controller.num_established == 0

    def test_established_id_rejected_before_commit(
        self, controller, mci_pairs
    ):
        controller.admit(self._flow(mci_pairs[0], "a"))
        with pytest.raises(AdmissionError, match="already established"):
            controller.admit_batch(
                [self._flow(mci_pairs[1], "b"),
                 self._flow(mci_pairs[2], "a")]
            )
        assert not controller.is_established("b")

    def test_release_batch_is_all_or_nothing(self, controller, mci_pairs):
        controller.admit_batch(
            [self._flow(mci_pairs[0], "a"), self._flow(mci_pairs[1], "b")]
        )
        with pytest.raises(AdmissionError, match="not established"):
            controller.release_batch(["a", "ghost"])
        assert controller.is_established("a")
        with pytest.raises(AdmissionError, match="duplicate"):
            controller.release_batch(["a", "a"])
        assert controller.is_established("a")
        with pytest.raises(AdmissionError, match="not established"):
            controller.release_batch(["ghost", "ghost"])
        controller.release_batch(["b", "a"])
        assert controller.num_established == 0

    def test_empty_batch_is_a_no_op(self, controller):
        assert controller.admit_batch([]) == []
        controller.release_batch([])
        assert controller.num_decisions == 0
        assert controller.num_admitted == controller.num_rejected == 0
        assert math.isnan(controller.mean_decision_seconds())

    def test_unknown_class_raises_without_mutation(
        self, controller, mci_pairs
    ):
        flows = [
            self._flow(mci_pairs[0], "a"),
            FlowSpec(
                flow_id="x", class_name="no-such-class",
                source=mci_pairs[1][0], destination=mci_pairs[1][1],
            ),
        ]
        with pytest.raises(Exception):
            controller.admit_batch(flows)
        assert controller.num_established == 0
        assert (controller.ledger.used_view("voice") == 0).all()


class TestLateRealtimeClass:
    """A real-time class registered on the controller's registry after
    the controller was built has no verified utilization and no ledger
    column: its flows are refused, never admitted as best-effort."""

    REFUSED = "no verified utilization for real-time class 'video'"

    @pytest.fixture(params=["utilization", "slotshard"])
    def controller(self, request, mci, mci_graph, mci_pairs, voice):
        registry = ClassRegistry.two_class(voice)
        routes = shortest_path_routes(mci, mci_pairs)
        if request.param == "slotshard":
            controller = SlotShardController(
                mci_graph, registry, {"voice": 0.3}, routes,
                shard_index=0, shard_count=2,
            )
        else:
            controller = UtilizationAdmissionController(
                mci_graph, registry, {"voice": 0.3}, routes
            )
        registry.add(video_class())
        registry.add(_best_effort("bulk", 0))
        return controller

    def test_sequential_admit_is_refused(self, controller, mci_pairs):
        flow = FlowSpec("v0", "video", *mci_pairs[0])
        with pytest.raises(AdmissionError, match=self.REFUSED):
            controller.admit(flow)
        with pytest.raises(AdmissionError, match=self.REFUSED):
            controller.check_admit(flow)
        assert controller.num_established == controller.num_decisions == 0

    def test_a_batch_run_is_refused(self, controller, mci_pairs):
        run = [
            FlowSpec(f"v{i}", "video", *mci_pairs[i])
            for i in range(ADMIT_BATCH_MIN_RUN)
        ]
        voice = [
            FlowSpec(f"a{i}", "voice", *mci_pairs[i])
            for i in range(ADMIT_BATCH_MIN_RUN)
        ]
        for batch in (run, voice + run[:1]):
            with pytest.raises(AdmissionError, match=self.REFUSED):
                controller.admit_batch(batch)
        assert controller.num_established == 0
        assert not controller.ledger.used_view("voice").any()

    def test_a_late_best_effort_class_is_admitted(
        self, controller, mci_pairs
    ):
        flows = [
            FlowSpec(f"b{i}", "bulk", *mci_pairs[i])
            for i in range(ADMIT_BATCH_MIN_RUN + 1)
        ]
        assert controller.admit(flows[0]).admitted
        assert all(d.admitted for d in controller.admit_batch(flows[1:]))
        # A best-effort row holds its route's servers, and no slot.
        route = controller.route_map[flows[0].pair]
        assert controller._flows.servers_of("b0") == controller.graph.route_servers(route)
        assert not controller.ledger.used_view("voice").any()
        assert controller.established_flows == flows
        assert controller.verify_invariants() == []

    def test_verify_invariants_reports_a_real_time_flow_without_a_slot(
        self, controller, mci_pairs
    ):
        # What admit() did before it refused the class: decide it as
        # best-effort and establish it holding nothing.
        flow = FlowSpec("v0", "video", *mci_pairs[0])
        controller._admit_impl(flow, controller.resolve_route(flow))
        problems = controller.verify_invariants()
        assert len(problems) == 1
        assert "real-time class 'video'" in problems[0]
        assert "without a slot" in problems[0]


def test_all_pairs_helper_nonempty(mci, mci_pairs):
    # Sanity anchor for the fixtures the suites above lean on.
    assert len(mci_pairs) == len(all_ordered_pairs(mci))
    assert mci_pairs
