"""Unit tests for the vectorized batch-admission machinery.

Covers the :mod:`repro.admission.batch` slot kernel in isolation, the
array-backed :class:`~repro.admission.flowtable.FlowTable`, and the
batch-aware :class:`~repro.admission.base.AdmissionDecision` records
(amortized per-request timing).  The end-to-end sequential/batch
equivalence lives in ``test_property_batch_admission.py``.
"""

import math

import numpy as np
import pytest

from repro.admission import (
    FlowTable,
    PADDING_FREE,
    UtilizationAdmissionController,
    batch_slot_decisions,
    flat_committed_servers,
    pad_server_matrix,
)
from repro.admission.base import AdmissionDecision
from repro.admission.flowtable import NO_CLASS
from repro.errors import AdmissionError
from repro.routing.shortest import shortest_path_routes
from repro.traffic.flows import FlowSpec
from repro.traffic.generators import all_ordered_pairs


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

    def test_flat_committed_servers_excludes_padding(self):
        matrix, _ = pad_server_matrix(
            [np.array([0, 1]), np.array([2])], pad=3
        )
        admitted = np.array([True, True])
        flat = flat_committed_servers(matrix, admitted, pad=3)
        assert sorted(flat.tolist()) == [0, 1, 2]


class TestFlowTable:
    def test_add_pop_roundtrip(self):
        table = FlowTable(pad=7)
        table.add("a", 0, np.array([1, 2], dtype=np.int64), tag=5)
        assert "a" in table and len(table) == 1
        code, servers, tag = table.pop("a")
        assert (code, tag) == (0, 5)
        assert servers.tolist() == [1, 2]
        assert "a" not in table and len(table) == 0

    def test_row_reuse_clears_stale_tail(self):
        table = FlowTable(pad=9, width=2, capacity=1)
        table.add("long", 0, np.array([1, 2, 3, 4], dtype=np.int64))
        table.pop("long")
        # The recycled row previously held a 4-wide route; a 1-wide
        # batch must not resurrect the stale columns.
        matrix, lengths = pad_server_matrix(
            [np.array([5], dtype=np.int64)], pad=9
        )
        table.add_batch(["short"], 1, matrix, lengths)
        _, servers, _ = table.pop("short")
        assert servers.tolist() == [5]

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
        table = FlowTable(pad=5, capacity=2)
        for i in range(100):
            table.add(i, NO_CLASS, np.empty(0, dtype=np.int64))
        assert len(table) == 100
        for i in range(100):
            table.pop(i)
        assert len(table) == 0

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
        free = list(table._free)
        for ids, message in [
            (["f0", "f1", "nope"], "flow 'nope' is not established"),
            (["f1", "f0", "f1"], "duplicate flow id 'f1' in batch"),
            (["nope", "nope"], "flow 'nope' is not established"),
        ]:
            with pytest.raises(AdmissionError, match=message):
                table.pop_batch(ids)
            assert list(table) == ["f0", "f1", "f2"]
            assert table._free == free
            assert table.verify() == []
        assert table.servers_of("f0").tolist() == [1, 2]
        table.pop_batch(["f1", "f0"])
        assert list(table) == ["f2"] and table.verify() == []

    def test_add_batch_is_all_or_nothing(self):
        table = FlowTable(pad=9)
        one, one_len = pad_server_matrix([np.array([1])], pad=9)
        table.add_batch(["f0"], 0, one, one_len)
        free = list(table._free)
        two, two_len = pad_server_matrix(
            [np.array([2]), np.array([3])], pad=9
        )
        for ids in (["new", "f0"], ["new", "new"]):
            with pytest.raises(AdmissionError, match="already established"):
                table.add_batch(ids, 0, two, two_len)
            assert list(table) == ["f0"] and table._free == free
            assert table.verify() == []

    def test_a_recycled_row_keeps_nothing_of_its_last_occupant(self):
        table = FlowTable(pad=9, capacity=1)
        pair = table.pair_code(("a", "d"))
        table.add(
            "pinned", 1, np.array([1, 2, 3, 4], dtype=np.int64), 3,
            pair, ("a", "b", "c", "d"), True,
        )
        table.pop("pinned")
        other = table.pair_code(("x", "y"))
        matrix, lengths = pad_server_matrix([np.array([5])], pad=9)
        shared = ["x", "y"]
        table.add_batch(["bare"], 0, matrix, lengths, None, other, [shared])
        assert table.record("bare") == (
            "bare", 0, -1, ("x", "y"), shared, False
        )
        assert table.route_of("bare") is shared
        assert table.servers_of("bare").tolist() == [5]
        assert table.usage(0).tolist() == [0, 0, 0, 0, 0, 1, 0, 0, 0]
        assert table.usage(1).tolist() == [0] * 9

    def test_holders_scans_class_tag_and_servers(self):
        table = FlowTable(pad=9)
        rows = [np.array([1, 2]), np.array([2, 3]), np.array([4]),
                np.array([1, 2]), np.array([2])]
        matrix, lengths = pad_server_matrix(rows, pad=9)
        table.add_batch(
            ["a", "b", "c", "other-class", "protected"],
            [0, 0, 0, 1, 0], matrix, lengths, [1, -1, 1, 1, 3],
        )
        table.pop("c")  # a freed row is not a candidate
        ids, tags, hits = table.holders(0, [-1, 1], [2, 3])
        assert dict(zip(ids, zip(tags.tolist(), hits.T.tolist()))) == {
            "a": (1, [True, False]), "b": (-1, [True, True]),
        }
        ids, _tags, hits = table.holders(0, [1], [7])
        assert ids == [] and hits.shape == (1, 0)

    def test_servers_of_returns_copy(self):
        table = FlowTable(pad=5)
        table.add("a", 0, np.array([1, 2], dtype=np.int64))
        view = table.servers_of("a")
        view[:] = 0
        assert table.servers_of("a").tolist() == [1, 2]


class TestDecisionRecords:
    def test_per_request_seconds_amortizes_batch(self):
        decision = AdmissionDecision(
            flow_id="f", admitted=True, reason="",
            decision_seconds=1.0, batch_size=10,
        )
        assert decision.per_request_seconds == pytest.approx(0.1)

    def test_single_decision_defaults_to_batch_of_one(self):
        decision = AdmissionDecision(
            flow_id="f", admitted=True, reason="", decision_seconds=0.5,
        )
        assert decision.batch_size == 1
        assert decision.per_request_seconds == pytest.approx(0.5)

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
        assert math.isnan(controller.acceptance_ratio)
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
        assert (controller.ledger.used("voice") == 0).all()


def test_all_pairs_helper_nonempty(mci, mci_pairs):
    # Sanity anchor for the fixtures the suites above lean on.
    assert len(mci_pairs) == len(all_ordered_pairs(mci))
    assert mci_pairs
