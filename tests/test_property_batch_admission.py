"""Differential property suite: ``admit_batch`` == sequential ``admit``.

For every controller the batch engine must be *bit-identical* to the
per-flow loop: same verdicts, same rejection reasons, same ledger
occupancy, same established set, and the same observability counters.
Hypothesis drives randomized interleavings of batches and releases under
tight utilization assignments (so intra-batch contention and mid-batch
rejections actually occur) and compares a batch-driven controller
against a sequentially driven twin after every step, on a slot ledger
whole or degraded to a drawn fraction of its capacity.
"""

import json
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro import obs  # noqa: E402
from repro.obs import Histogram  # noqa: E402
from repro.admission import base as admission_base  # noqa: E402
from repro.admission import (  # noqa: E402
    FlowAwareAdmissionController,
    SlotShardController,
    UtilizationAdmissionController,
)
from repro.admission.ledger import granted_slots  # noqa: E402
from repro.control import Preemptor  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.routing.shortest import shortest_path_routes  # noqa: E402
from repro.topology import LinkServerGraph, line_network  # noqa: E402
from repro.traffic import ClassRegistry, voice_class  # noqa: E402
from repro.traffic.flows import FlowSpec  # noqa: E402
from repro.traffic.generators import all_ordered_pairs  # noqa: E402

#: Small line topology -> few servers -> heavy contention at tiny alpha.
NET = line_network(4)
GRAPH = LinkServerGraph(NET)
PAIRS = all_ordered_pairs(NET)
ROUTES = shortest_path_routes(NET, PAIRS)
REGISTRY = ClassRegistry.two_class(voice_class())

#: Tight assignment: only a handful of slots per server, so batches see
#: mid-batch rejections and rejection-then-admission interleavings.
TIGHT_ALPHA = {"voice": 0.002}
ROOMY_ALPHA = {"voice": 0.05}

#: The series a decision call pushes whose totals do not depend on how
#: decisions fall into calls (``repro_admission_batch_size`` does).
_COUNTER_NAMES = (
    "repro_admission_decision_seconds",
    "repro_admission_rejections_total",
)


def _make(kind, alphas):
    if kind == "utilization":
        return UtilizationAdmissionController(
            GRAPH, REGISTRY, alphas, ROUTES
        )
    if kind == "slotshard":
        # The shard that ships: worker 0 of a 2-worker cluster.
        return SlotShardController(
            GRAPH, REGISTRY, alphas, ROUTES, shard_index=0, shard_count=2
        )
    return FlowAwareAdmissionController(GRAPH, REGISTRY, ROUTES)


#: One step is a batch of (pair_index, class_choice) plus a release plan.
_step = st.tuples(
    st.lists(
        st.tuples(
            st.integers(0, len(PAIRS) - 1),
            st.sampled_from(["voice", "voice", "best-effort"]),
        ),
        min_size=1,
        max_size=12,
    ),
    st.integers(0, 2 ** 16),  # release-selection seed
)
_script = st.lists(_step, min_size=1, max_size=6)
#: A limit's alphas as a share of the verified ones (1.0: no limit).
_limit_share = st.floats(0.05, 1.0)


def _flows_of(step_index, batch):
    return [
        FlowSpec(
            flow_id=f"s{step_index}_{i}",
            class_name=cls,
            source=PAIRS[k][0],
            destination=PAIRS[k][1],
        )
        for i, (k, cls) in enumerate(batch)
    ]


def _decision_key(decision):
    return (decision.flow_id, decision.admitted, decision.reason)


def _ledger_state(controller):
    if isinstance(controller, UtilizationAdmissionController):
        return {
            name: controller.ledger.used_view(name).tolist()
            for name in controller.alphas
        }
    return None


def _spy(controller):
    """Collect every decision the controller hands out.  Every public
    entry point (admit, admit_batch, reroute, restore, a preemptor)
    decides through admit_batch_routed."""
    returned = []
    routed = controller.admit_batch_routed

    def spy_routed(flows, routes):
        decisions = routed(flows, routes)
        returned.extend(decisions)
        return decisions

    controller.admit_batch_routed = spy_routed
    return returned


def _assert_counters_match(controller, returned):
    """The O(1) counters equal a tally of the returned decisions."""
    total = len(returned)
    admitted = sum(1 for d in returned if d.admitted)
    assert controller.num_decisions == total
    assert controller.num_admitted == admitted
    assert controller.num_rejected == total - admitted
    if not total:
        assert math.isnan(controller.mean_decision_seconds())
        return
    assert controller.mean_decision_seconds() == pytest.approx(
        sum(d.decision_seconds / d.batch_size for d in returned) / total
    )


def _run_script(kind, alphas, script, limit_share=1.0):
    """Drive batch and sequential twins; assert equivalence throughout.

    From the second step on, a slot-ledger pair admits under a limit of
    ``limit_share`` of every verified alpha, so kernel-sized runs meet
    servers at or already past their reduced ceiling.
    """
    batch_ctrl = _make(kind, alphas)
    seq_ctrl = _make(kind, alphas)
    batch_returned = _spy(batch_ctrl)
    seq_returned = _spy(seq_ctrl)
    live = []
    for step_index, (batch, release_seed) in enumerate(script):
        if step_index == 1 and limit_share < 1.0:
            limit = {name: limit_share * a for name, a in alphas.items()}
            batch_ctrl.limit(limit)
            seq_ctrl.limit(limit)
        flows = _flows_of(step_index, batch)
        got = batch_ctrl.admit_batch(flows)
        want = [seq_ctrl.admit(flow) for flow in flows]
        assert [_decision_key(d) for d in got] == [
            _decision_key(d) for d in want
        ]
        live.extend(d.flow_id for d in got if d.admitted)

        rng = np.random.default_rng(release_seed)
        rng.shuffle(live)
        cut = len(live) // 2
        to_release, live = live[:cut], live[cut:]
        if to_release:
            batch_ctrl.release_batch(to_release)
            for fid in to_release:
                seq_ctrl.release(fid)

        assert [f.flow_id for f in batch_ctrl.established_flows] == [
            f.flow_id for f in seq_ctrl.established_flows
        ]
        assert _ledger_state(batch_ctrl) == _ledger_state(seq_ctrl)
    assert batch_ctrl.num_established == seq_ctrl.num_established
    _assert_counters_match(batch_ctrl, batch_returned)
    _assert_counters_match(seq_ctrl, seq_returned)
    assert batch_ctrl.num_admitted == seq_ctrl.num_admitted
    assert batch_ctrl.num_rejected == seq_ctrl.num_rejected
    return batch_ctrl, seq_ctrl


class TestUtilizationEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(script=_script, limit_share=_limit_share)
    def test_tight_assignment(self, script, limit_share):
        _run_script("utilization", TIGHT_ALPHA, script, limit_share)

    @settings(max_examples=10, deadline=None)
    @given(script=_script, limit_share=_limit_share)
    def test_roomy_assignment(self, script, limit_share):
        _run_script("utilization", ROOMY_ALPHA, script, limit_share)


class TestShardedEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(script=_script, limit_share=_limit_share)
    def test_tight_assignment(self, script, limit_share):
        _run_script("slotshard", TIGHT_ALPHA, script, limit_share)

    @settings(max_examples=10, deadline=None)
    @given(script=_script, limit_share=_limit_share)
    def test_roomy_assignment(self, script, limit_share):
        _run_script("slotshard", ROOMY_ALPHA, script, limit_share)

    @settings(max_examples=25, deadline=None)
    @given(
        alpha=st.floats(0.001, 0.05),
        share=_limit_share,
        shards=st.sampled_from([1, 2, 3]),
    )
    def test_shards_of_a_limit_sum_to_its_slots(self, alpha, share, shards):
        # Each worker takes its row of the limit's exact slots, so the
        # workers of a rung admit, between them, exactly the rung's.
        limit = {"voice": share * alpha}
        total = np.zeros(GRAPH.num_servers, dtype=np.int64)
        for index in range(shards):
            shard = SlotShardController(
                GRAPH, REGISTRY, {"voice": alpha}, ROUTES,
                shard_index=index, shard_count=shards,
            )
            shard.limit(limit)
            total += shard.ledger.slots("voice")
        rate = REGISTRY.get("voice").rate
        assert total.tolist() == granted_slots(
            limit["voice"], GRAPH.capacities, rate
        ).tolist()


class TestFlowAwareEquivalence:
    # The flow-aware baseline recomputes delay bounds per admission, so
    # scripts stay small; it exercises the base-class sequential
    # fallback for admit_batch/release_batch.
    @settings(max_examples=8, deadline=None)
    @given(script=st.lists(_step, min_size=1, max_size=3))
    def test_equivalence(self, script):
        _run_script("flow-aware", None, script)


#: One request the sequential API refuses with an exception, by what
#: makes it hostile.  ``PAIRS[0]`` is r0 -> r1, one hop.
_HOSTILE = {
    "established id": lambda: FlowSpec("seed0", "voice", *PAIRS[0]),
    "repeated id": lambda: FlowSpec("ok0", "voice", *PAIRS[0]),
    "unknown class": lambda: FlowSpec("h", "video9", *PAIRS[0]),
    "unconfigured pair": lambda: FlowSpec("h", "voice", "r0", "Nowhere"),
    "unknown link": lambda: FlowSpec(
        "h", "voice", "r0", "r3", route=("r0", "Nowhere", "r3")
    ),
}


def _footprint(controller):
    """Everything a failed call must leave exactly as it found it."""
    return (
        controller.snapshot(),
        {
            name: controller.ledger.used_view(name).tolist()
            for name in controller.alphas
        },
        len(controller._flows),
        controller.num_decisions,
    )


_COUNT_FLOWSPECS_BUILT_BY_RELEASE = """
import json
from repro.traffic.flows import FlowSpec
from tests.test_property_batch_admission import PAIRS, ROOMY_ALPHA, _make

built = []
FlowSpec.__new__ = lambda cls, *a, **kw: built.append(cls) or object.__new__(cls)
counts = {}
for kind in ("utilization", "slotshard", "flow-aware"):
    controller = _make(kind, ROOMY_ALPHA)
    controller.admit_batch(
        [FlowSpec(f"f{i}", "voice", *PAIRS[i]) for i in range(4)]
    )
    del built[:]
    controller.release("f0")
    controller.release_batch(["f3", "f1"])
    released = len(built)
    assert [f.flow_id for f in controller.established_flows] == ["f2"]
    counts[kind] = {
        "release": released, "established_flows": len(built) - released
    }
print(json.dumps(counts))
"""


class TestRaisingCallsChangeNothing:
    """A call that raises touched no state: no ledger slot, no flow
    record, no flow-table row — wherever in the batch the bad request
    sits, and whatever valid requests (best-effort ones commit without a
    kernel call) sit before it."""

    @pytest.mark.parametrize("kind", ["utilization", "slotshard"])
    @pytest.mark.parametrize("hostile", sorted(_HOSTILE))
    @settings(max_examples=15, deadline=None)
    @given(
        batch=st.lists(
            st.tuples(
                st.integers(0, len(PAIRS) - 1),
                st.sampled_from(["voice", "best-effort"]),
            ),
            min_size=1,
            max_size=8,
        ),
        position=st.integers(0, 8),
    )
    def test_admit_batch_that_raises(self, kind, hostile, batch, position):
        controller = _make(kind, ROOMY_ALPHA)
        controller.admit_batch(
            [FlowSpec(f"seed{i}", "voice", *PAIRS[i]) for i in range(3)]
        )
        flows = [
            FlowSpec(f"ok{i}", cls, *PAIRS[k])
            for i, (k, cls) in enumerate(batch)
        ]
        flows.insert(min(position, len(flows)), _HOSTILE[hostile]())
        before = _footprint(controller)
        with pytest.raises(ReproError):
            controller.admit_batch(flows)
        assert _footprint(controller) == before
        assert controller.verify_invariants() == []
        # ... and the same ids are still admissible afterwards.
        good = list(
            {f.flow_id: f for f in flows if f.flow_id.startswith("ok")}
            .values()
        )
        assert all(d.admitted for d in controller.admit_batch(good))
        assert len(controller._flows) == controller.num_established

    @pytest.mark.parametrize("kind", ["utilization", "slotshard"])
    @pytest.mark.parametrize(
        "ids, message",
        [
            (["seed0", "be", "nope"], "flow 'nope' is not established"),
            (["seed1", "seed0", "seed1"], "duplicate flow id 'seed1'"),
            ([("unhashable", [])], None),
        ],
    )
    def test_release_batch_that_raises(self, kind, ids, message):
        """All-or-nothing is the flow table's own property now: nothing
        pre-checks the ids before ``FlowTable.pop_batch``."""
        controller = _make(kind, ROOMY_ALPHA)
        controller.admit_batch(
            [FlowSpec(f"seed{i}", "voice", *PAIRS[i]) for i in range(3)]
            + [FlowSpec("be", "best-effort", *PAIRS[3])]
        )
        before = _footprint(controller)
        with pytest.raises(
            TypeError if message is None else ReproError, match=message
        ):
            controller.release_batch(ids)
        assert _footprint(controller) == before
        assert controller.verify_invariants() == []
        controller.release_batch(["seed2", "be", "seed0", "seed1"])
        assert controller.num_established == len(controller._flows) == 0

    def test_release_builds_no_flowspec(self):
        """A release works on ids and rows: the flow it tears down is
        never rebuilt.  Counted at ``FlowSpec.__new__`` in an
        interpreter of its own — a class whose ``__new__`` was ever
        assigned does not get ``object.__new__``'s argument check back."""
        proc = subprocess.run(
            [sys.executable, "-c", _COUNT_FLOWSPECS_BUILT_BY_RELEASE],
            capture_output=True, text=True, timeout=120, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert json.loads(proc.stdout) == {
            kind: {"release": 0, "established_flows": 1}
            for kind in ("utilization", "slotshard", "flow-aware")
        }

    @pytest.mark.parametrize("kind", ["utilization", "slotshard", "flow-aware"])
    @pytest.mark.parametrize(
        "bad_route",
        [
            ("r0", "Nowhere", "r3"),  # unknown link
            ("r0", "r1", "r2"),  # does not reach the destination
            ("r0",),  # no hop at all
        ],
    )
    def test_reroute_onto_a_bad_route(self, kind, bad_route):
        controller = _make(kind, ROOMY_ALPHA)
        flow = FlowSpec("m", "voice", "r0", "r3")
        assert controller.admit(flow).admitted
        decisions = controller.num_decisions
        with pytest.raises(ReproError):
            controller.reroute("m", bad_route)
        assert controller.is_established("m")
        assert controller.committed_route("m") == ["r0", "r1", "r2", "r3"]
        assert controller.num_decisions == decisions
        assert controller.verify_invariants() == []
        controller.release("m")
        assert controller.num_established == 0


class TestDecisionCounters:
    """The paths that decide without the caller calling admit itself."""

    def _full_pair(self, controller, prefix):
        """Admit elastic flows on PAIRS[0] until one is rejected."""
        src, dst = PAIRS[0]
        for i in range(10_000):
            flow = FlowSpec(
                f"{prefix}{i}", "voice", src, dst, priority="elastic"
            )
            if not controller.admit(flow).admitted:
                return
        raise AssertionError("pair never filled")

    def test_empty_batch_leaves_counters_unchanged(self):
        controller = _make("utilization", TIGHT_ALPHA)
        returned = _spy(controller)
        controller.admit_batch(_flows_of(0, [(0, "voice"), (1, "voice")]))
        before = (
            controller.num_decisions,
            controller.num_admitted,
            controller.mean_decision_seconds(),
        )
        assert controller.admit_batch([]) == []
        assert controller.admit_batch_routed([], []) == []
        assert before == (
            controller.num_decisions,
            controller.num_admitted,
            controller.mean_decision_seconds(),
        )
        _assert_counters_match(controller, returned)

    def test_reroute_restore_and_preemption_are_counted(self):
        controller = _make("utilization", TIGHT_ALPHA)
        returned = _spy(controller)
        self._full_pair(controller, "e")
        assert not returned[-1].admitted
        # reroute: release + one more counted admit (same path re-pinned).
        moved = controller.reroute("e0", controller.committed_route("e0"))
        assert moved.admitted and returned[-1] is moved
        # Preemptor.try_admit: evicts an elastic flow, re-admits hard-RT.
        hard = FlowSpec("h0", "voice", *PAIRS[0], priority="hard_rt")
        assert not controller.admit(hard).admitted
        outcome = Preemptor(controller).try_admit(hard)
        assert outcome.admitted and returned[-1] is outcome.decision
        _assert_counters_match(controller, returned)
        assert controller.num_rejected == 2

        # restore: a fresh controller re-admits (and counts) the snapshot.
        twin = _make("utilization", TIGHT_ALPHA)
        twin_returned = _spy(twin)
        twin.restore(controller.snapshot())
        assert len(twin_returned) == controller.num_established
        _assert_counters_match(twin, twin_returned)
        assert twin.num_rejected == 0


class TestObsCounterEquivalence:
    def _drive(self, mode, script):
        """Run one controller under a fresh registry; return its
        tallies and the totals of the series it pushed."""
        obs.enable(fresh=True)
        controller = _make("utilization", TIGHT_ALPHA)
        live = []
        final = 0
        # The decision histogram, observed the per-decision way.
        reference = Histogram("reference")
        for step_index, (batch, release_seed) in enumerate(script):
            flows = _flows_of(step_index, batch)
            if mode == "batch":
                decisions = controller.admit_batch(flows)
            else:
                decisions = [controller.admit(flow) for flow in flows]
            for decision in decisions:
                reference.observe(decision.decision_seconds / decision.batch_size)
            live.extend(d.flow_id for d in decisions if d.admitted)
            rng = np.random.default_rng(release_seed)
            rng.shuffle(live)
            cut = len(live) // 2
            to_release, live = live[:cut], live[cut:]
            if to_release:
                if mode == "batch":
                    controller.release_batch(to_release)
                else:
                    for fid in to_release:
                        controller.release(fid)
        final = controller.num_established
        totals = {
            "tallies": (
                controller.num_decisions,
                controller.num_admitted,
                controller.num_rejected,
                controller.num_released,
            )
        }
        for series in obs.get_registry().series():
            name = getattr(series, "name", None)
            if name not in _COUNTER_NAMES:
                continue
            key = (name, tuple(sorted(dict(series.labels).items())))
            if isinstance(series, Histogram):
                # One observe(cost, n) per batch fills the buckets
                # exactly as n single observations would; the count is
                # what batched and sequential must agree on.
                assert series.bucket_counts == reference.bucket_counts
                assert series.overflow == reference.overflow
                totals[key] = series.count
                continue
            totals[key] = totals.get(key, 0.0) + series.value
        obs.disable()
        obs.reset()
        return totals, final

    @settings(max_examples=10, deadline=None)
    @given(script=_script)
    def test_totals_match_sequential(self, script):
        try:
            batch_totals, batch_final = self._drive("batch", script)
            seq_totals, seq_final = self._drive("sequential", script)
            assert batch_totals == seq_totals
            assert batch_final == seq_final
        finally:
            obs.disable()
            obs.reset()

    def test_batch_metrics_recorded(self):
        try:
            obs.enable(fresh=True)
            controller = _make("utilization", ROOMY_ALPHA)
            flows = _flows_of(0, [(i % len(PAIRS), "voice")
                                  for i in range(5)])
            controller.admit_batch(flows)
            registry = obs.get_registry()
            sizes = registry.get(
                "repro_admission_batch_size",
                controller="UtilizationAdmissionController",
            )
            decisions = registry.get(
                "repro_admission_decision_seconds",
                controller="UtilizationAdmissionController",
            )
            # One call of five: the call count and its requests are the
            # size histogram's count and sum.
            assert sizes is not None and (sizes.count, sizes.sum) == (1, 5)
            assert decisions is not None and decisions.count == 5
            assert controller.num_admitted == 5
        finally:
            obs.disable()
            obs.reset()


# ---------------------------------------------------------------------- #
# runs either side of the sequential/batch crossover
# ---------------------------------------------------------------------- #

#: Admit variants: plain pairs and a pinned route of each class, and the
#: requests ``check_admit`` refuses (the coalescer fails those alone and
#: never hands them over).
_RUN_VARIANTS = (
    "pair",
    "best_effort",
    "pinned",
    "established_id",
    "unknown_class",
    "unconfigured_pair",
    "unknown_link",
    "unhashable_src",
)

_run_admit = st.tuples(
    st.sampled_from(_RUN_VARIANTS),
    st.integers(0, len(PAIRS) - 1),
    st.sampled_from([None, "elastic", "soft_rt", "hard_rt"]),
)


def _crossover_lengths(threshold):
    return st.sampled_from([threshold - 1, threshold, threshold + 1])


def _run_flow(fid, variant, pair, priority, established):
    src, dst = PAIRS[pair]
    if variant == "best_effort":
        return FlowSpec(fid, "best-effort", src, dst, None, priority)
    if variant == "pinned":
        return FlowSpec(fid, "voice", "r0", "r3", ("r0", "r1", "r2", "r3"),
                        priority)
    if variant == "established_id" and established:
        return FlowSpec(established[pair % len(established)], "voice", src,
                        dst, None, priority)
    if variant == "unknown_class":
        return FlowSpec(fid, "video9", src, dst, None, priority)
    if variant == "unconfigured_pair":
        return FlowSpec(fid, "voice", "r0", "Nowhere", None, priority)
    if variant == "unknown_link":
        return FlowSpec(fid, "voice", "r0", "r3", ("r0", "Nowhere", "r3"),
                        priority)
    if variant == "unhashable_src":
        return FlowSpec(fid, "voice", [src], dst, None, priority)
    return FlowSpec(fid, "voice", src, dst, None, priority)


class TestCrossoverRuns:
    """``admit_batch_routed`` / ``release_batch`` decide a run shorter
    than the crossover with the sequential loop and a longer one with
    the subclass's batch path.  Runs one short of, at and one past each
    crossover — what the coalescer hands over once ``check_admit`` has
    failed the hostile requests alone — answer as sequential ``admit()``
    / ``release()`` calls do, and as the batch path alone does: outcomes,
    reasons, ``batch_size``, ledger, flow-table order, committed routes
    (with priorities) and decision counters."""

    @staticmethod
    def _state(controller):
        return (
            [
                (flow.flow_id, flow.class_name, flow.priority, route)
                for flow, route in controller.established_records
            ],
            _ledger_state(controller),
            controller.num_decisions,
            controller.num_admitted,
            controller.verify_invariants(),
        )

    @staticmethod
    def _admit_run(controller, flows):
        """The coalescer's ``_admit_run``: refused requests fail alone,
        the rest is one ``admit_batch_routed`` call."""
        outcomes, valid, routes = {}, [], []
        for i, flow in enumerate(flows):
            try:
                routes.append(controller.check_admit(flow))
            except ReproError as exc:
                outcomes[i] = ("error", str(exc))
                continue
            valid.append(i)
        decisions = controller.admit_batch_routed(
            [flows[i] for i in valid], routes
        )
        for i, d in zip(valid, decisions):
            outcomes[i] = (d.flow_id, d.admitted, d.reason, d.batch_size)
        return [outcomes[i] for i in range(len(flows))]

    @staticmethod
    def _sequential(controller, flows):
        outcomes = []
        for flow in flows:
            try:
                d = controller.admit(flow)
            except ReproError as exc:
                outcomes.append(("error", str(exc)))
                continue
            outcomes.append((d.flow_id, d.admitted, d.reason))
        return outcomes

    def _drive(self, kind, alphas, steps):
        selected = _make(kind, alphas)
        batch_only = _make(kind, alphas)
        sequential = _make(kind, alphas)
        counter = 0
        for admits, n_release, seed in steps:
            established = [
                f.flow_id for f in sequential.established_flows
            ]
            flows = []
            for variant, pair, priority in admits:
                counter += 1
                flows.append(_run_flow(
                    f"c{counter}", variant, pair, priority, established
                ))
            got = self._admit_run(selected, flows)
            with mock.patch.object(admission_base, "ADMIT_BATCH_MIN_RUN", 1):
                forced = self._admit_run(batch_only, flows)
            want = self._sequential(sequential, flows)
            assert got == forced
            assert [o[:3] for o in got] == want
            n_valid = sum(1 for o in got if o[0] != "error")
            assert all(o[3] == n_valid for o in got if o[0] != "error")

            live = [f.flow_id for f in sequential.established_flows]
            rng = np.random.default_rng(seed)
            ids = [
                live[i] for i in rng.permutation(len(live))[:n_release]
            ]
            if ids:
                selected.release_batch(ids)
                with mock.patch.object(
                    admission_base, "RELEASE_BATCH_MIN_RUN", 1
                ):
                    batch_only.release_batch(ids)
                for fid in ids:
                    sequential.release(fid)
            state = self._state(sequential)
            assert state[-1] == []
            assert self._state(selected) == state
            assert self._state(batch_only) == state

    @staticmethod
    def _steps(max_steps):
        return st.lists(
            st.tuples(
                _crossover_lengths(admission_base.ADMIT_BATCH_MIN_RUN)
                .flatmap(lambda n: st.lists(_run_admit, min_size=n,
                                            max_size=n)),
                _crossover_lengths(admission_base.RELEASE_BATCH_MIN_RUN),
                st.integers(0, 2 ** 16),
            ),
            min_size=1,
            max_size=max_steps,
        )

    @pytest.mark.parametrize("kind", ["utilization", "slotshard"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_slot_ledger_controllers(self, kind, data):
        steps = data.draw(self._steps(6))
        self._drive(kind, TIGHT_ALPHA, steps)

    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_flow_aware_controller(self, data):
        steps = data.draw(self._steps(2))
        self._drive("flow-aware", None, steps)

    @pytest.mark.parametrize("kind", ["utilization", "slotshard", "flow-aware"])
    def test_short_release_run_is_all_or_nothing(self, kind):
        """Below the crossover a release run is freed id by id, after
        the whole run is checked: a missing id frees nobody."""
        assert 2 < admission_base.RELEASE_BATCH_MIN_RUN
        controller = _make(kind, ROOMY_ALPHA)
        controller.admit_batch([FlowSpec("a", "voice", *PAIRS[0])])
        before = self._state(controller)
        with pytest.raises(ReproError, match="flow 'nope' is not established"):
            controller.release_batch(["a", "nope"])
        assert controller.is_established("a")
        assert self._state(controller) == before
        with pytest.raises(ReproError, match="duplicate flow id 'a'"):
            controller.release_batch(["a", "a"])
        assert controller.is_established("a")
        controller.release_batch(["a"])
        assert controller.num_established == len(controller._flows) == 0
