"""Unit tests for the micro-batch coalescer.

The load-bearing property — wire decisions bit-identical to sequential
in-process submission — is exercised here on hand-built op sequences
(duplicates, interleavings, pre-validated failures) and in
``test_service_property.py`` under Hypothesis.
"""

import asyncio
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.admission import UtilizationAdmissionController
from repro.control import Preemptor
from repro.errors import AdmissionError, ReproError, ServiceError
from repro.routing.shortest import shortest_path_routes
from repro.service import MicroBatchCoalescer
from repro.service import coalescer as coalescer_module
from repro.service.audit import AuditLog, iter_audit, verify_audit
from repro.topology import LinkServerGraph, line_network
from repro.traffic import ClassRegistry, voice_class
from repro.traffic.flows import FlowSpec
from repro.traffic.generators import all_ordered_pairs


def make_controller(alpha=0.3):
    network = line_network(4)
    graph = LinkServerGraph(network)
    voice = voice_class()
    registry = ClassRegistry.two_class(voice)
    pairs = all_ordered_pairs(network)
    routes = shortest_path_routes(network, pairs)
    controller = UtilizationAdmissionController(
        graph, registry, {voice.name: alpha}, routes
    )
    return controller, voice.name


def flow(i, cls="voice", src="r0", dst="r3"):
    return FlowSpec(f"f{i}", cls, src, dst)


def run_sequential(controller, ops):
    """Reference semantics: one in-process call per op; exceptions are
    part of the outcome."""
    outcomes = []
    for kind, arg in ops:
        try:
            if kind == "admit":
                decision = controller.admit(arg)
                outcomes.append(("decision", decision.admitted, decision.reason))
            else:
                controller.release(arg)
                outcomes.append(("released", True, ""))
        except ReproError as exc:
            outcomes.append(("error", type(exc).__name__, str(exc)))
    return outcomes


async def run_coalesced(controller, ops, paused=False, **kwargs):
    """The same ops through a coalescer, submitted in order up front:
    each a frame of one decided on arrival, or (``paused``) all queued
    behind a paused coalescer and drained together."""
    coalescer = MicroBatchCoalescer(controller, **kwargs)
    coalescer.start()
    if paused:
        coalescer.pause()
    futures = []
    for kind, arg in ops:
        if kind == "admit":
            futures.append(coalescer.submit_admit(arg))
        else:
            futures.append(coalescer.submit_release(arg))
    assert [f.done() for f in futures] == [not paused] * len(futures)
    coalescer.resume()
    outcomes = []
    for future in futures:
        try:
            outcome = await future
        except ReproError as exc:
            outcomes.append(("error", type(exc).__name__, str(exc)))
            continue
        if outcome is True:
            outcomes.append(("released", True, ""))
        else:
            outcomes.append(("decision", outcome.admitted, outcome.reason))
    await coalescer.stop()
    return outcomes, coalescer


# ---------------------------------------------------------------------- #
# differential property: one decision step, five ways to reach it
# ---------------------------------------------------------------------- #

# Small id pool -> duplicate admits, double releases and
# release-then-readmit chains inside one frame; two slots per server
# -> rejections, and with them preemption rescues.
_DIFF_IDS = [f"f{i}" for i in range(8)]
_DIFF_ALPHA = 0.0007

# Overlapping routes of different lengths in both directions, one
# pinned, a best-effort flow (it commits without a kernel call), and the
# four arrivals check_admit refuses.
_DIFF_VARIANTS = {
    "r0>r3": ("voice", "r0", "r3", None),
    "r3>r0": ("voice", "r3", "r0", None),
    "r0>r1": ("voice", "r0", "r1", None),
    "r1>r3": ("voice", "r1", "r3", None),
    "r2>r0": ("voice", "r2", "r0", None),
    "pinned": ("voice", "r0", "r3", ("r0", "r1", "r2", "r3")),
    "unroutable": ("voice", "r0", "r9", None),
    "unknown_class": ("video9", "r0", "r3", None),
    "best_effort": ("best-effort", "r0", "r3", None),
    "unknown_link": ("voice", "r0", "r3", ("r0", "Nowhere", "r3")),
    "unhashable_src": ("voice", ["r0"], "r3", None),
}

differential_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("admit"),
            st.sampled_from(_DIFF_IDS),
            st.sampled_from(sorted(_DIFF_VARIANTS)),
            st.sampled_from([None, "elastic", "soft_rt", "hard_rt"]),
        ),
        st.tuples(st.just("release"), st.sampled_from(_DIFF_IDS)),
    ),
    max_size=40,
)


def make_differential_controller():
    return make_controller(_DIFF_ALPHA)[0]


def differential_flow(op):
    _kind, fid, variant, priority = op
    cls, src, dst, route = _DIFF_VARIANTS[variant]
    return FlowSpec(fid, cls, src, dst, route, priority)


def outcome_shape(outcome):
    if isinstance(outcome, Exception):
        return ("error", type(outcome).__name__, str(outcome))
    if outcome is True:
        return ("released",)
    return ("decision", outcome.admitted, outcome.reason)


def differential_sequential(controller, ops, lone=False):
    """The reference: one in-process ``admit``/``release`` per op, in
    order, and one ``Preemptor.try_admit`` per rejected arrival of an
    eligible priority.

    Preemption is documented as a *batch pass* (docs/overload.md): the
    rescues of an admit run happen after the run's last plain decision,
    in order.  A run is what the coalescer promises it to be — maximal
    consecutive admits, cut where a flow id repeats — so the reference
    holds its rescue attempts back until the run ends.  With ``lone``
    every op is a frame of its own, so every run is one op long.
    """
    preemptor = Preemptor(controller)
    outcomes = []
    run_ids, rescues = set(), []

    def end_run():
        for slot, flow in rescues:
            rescue = preemptor.try_admit(flow)
            if rescue.admitted:
                outcomes[slot] = rescue.decision
        run_ids.clear()
        rescues.clear()

    for op in ops:
        if lone or op[0] == "release" or op[1] in run_ids:
            end_run()
        try:
            if op[0] == "release":
                controller.release(op[1])
                outcomes.append(True)
                continue
            run_ids.add(op[1])
            flow = differential_flow(op)
            decision = controller.admit(flow)
            if (
                not decision.admitted
                and flow.priority in preemptor.policy.admit_priorities
            ):
                rescues.append((len(outcomes), flow))
            outcomes.append(decision)
        except ReproError as exc:
            outcomes.append(exc)
    end_run()
    return [outcome_shape(o) for o in outcomes]


class TestSequentialIdentity:
    def check(self, ops, alpha=0.3, **kwargs):
        """Lone frames decided on arrival and the same ops queued behind
        a paused coalescer both answer as sequential calls do; returns
        the queued run's outcomes and coalescer."""
        seq_controller, _ = make_controller(alpha)
        seq = run_sequential(seq_controller, ops)
        for paused in (False, True):
            wire_controller, _ = make_controller(alpha)
            wire, coalescer = asyncio.run(
                run_coalesced(wire_controller, ops, paused, **kwargs)
            )
            assert wire == seq, paused
            assert wire_controller.snapshot() == seq_controller.snapshot()
        return wire, coalescer

    def test_plain_admits_coalesce_into_one_batch(self):
        ops = [("admit", flow(i)) for i in range(32)]
        wire, coalescer = self.check(ops)
        assert all(kind == "decision" for kind, _, _ in wire)
        # All 32 were queued behind the pause before the drain loop
        # first ran.
        assert coalescer.batches == 1
        assert coalescer.largest_batch == 32
        assert coalescer.coalesced_ops == 32

    def test_admit_release_interleaving(self):
        ops = []
        for i in range(8):
            ops.append(("admit", flow(i)))
        for i in range(0, 8, 2):
            ops.append(("release", f"f{i}"))
        ops.append(("admit", flow(100)))
        ops.append(("release", "f100"))
        self.check(ops)

    def test_duplicate_admit_of_admitted_flow_errors(self):
        ops = [("admit", flow(1)), ("admit", flow(1))]
        wire, _ = self.check(ops)
        assert wire[0][0] == "decision" and wire[0][1] is True
        assert wire[1] == (
            "error",
            "AdmissionError",
            "flow 'f1' is already established",
        )

    def test_duplicate_admit_after_rejection_is_fresh_attempt(self):
        # Tiny alpha: capacity is a handful of flows on r0->r3.  Fill
        # it, then submit the same id twice; both attempts must be
        # *decisions* (rejections), not already-established errors.
        controller, _ = make_controller(0.002)
        fill = 0
        while controller.admit(flow(1000 + fill)).admitted:
            fill += 1
        assert fill > 0
        ops = [("admit", flow(1)), ("admit", flow(1))]
        seq_controller, _ = make_controller(0.002)
        for i in range(fill + 1):
            seq_controller.admit(flow(1000 + i))
        wire, _ = asyncio.run(run_coalesced(controller, ops))
        seq = run_sequential(seq_controller, ops)
        assert wire == seq
        assert wire[0][0] == "decision" and wire[0][1] is False
        assert wire[1][0] == "decision" and wire[1][1] is False

    def test_release_of_unknown_flow_errors(self):
        wire, _ = self.check([("release", "ghost")])
        assert wire[0][0] == "error"
        assert wire[0][1] == "AdmissionError"

    def test_duplicate_release_in_one_batch(self):
        ops = [
            ("admit", flow(1)),
            ("release", "f1"),
            ("release", "f1"),
        ]
        wire, _ = self.check(ops)
        assert wire[1] == ("released", True, "")
        assert wire[2][0] == "error"

    def test_unknown_class_is_rejected_per_request(self):
        ops = [
            ("admit", flow(1)),
            ("admit", FlowSpec("f2", "no-such-class", "r0", "r3")),
            ("admit", flow(3)),
        ]
        wire, _ = self.check(ops)
        assert wire[0][0] == "decision" and wire[0][1] is True
        assert wire[1][0] == "error"
        assert wire[2][0] == "decision" and wire[2][1] is True

    def test_unroutable_pair_is_rejected_per_request(self):
        ops = [
            ("admit", FlowSpec("f1", "voice", "r0", "nowhere")),
            ("admit", flow(2)),
        ]
        wire, _ = self.check(ops)
        assert wire[0][0] == "error"
        assert wire[1][0] == "decision" and wire[1][1] is True


class TestLifecycle:
    def test_validation(self):
        controller, _ = make_controller()
        with pytest.raises(ServiceError):
            MicroBatchCoalescer(controller, max_delay=-1.0)

    def test_submit_after_stop_raises(self):
        controller, _ = make_controller()

        async def scenario():
            coalescer = MicroBatchCoalescer(controller)
            coalescer.start()
            await coalescer.stop()
            with pytest.raises(ServiceError):
                coalescer.submit_admit(flow(1))

        asyncio.run(scenario())

    def test_stop_decides_everything_still_queued(self):
        controller, _ = make_controller()

        async def scenario():
            coalescer = MicroBatchCoalescer(controller)
            coalescer.start()
            futures = [coalescer.submit_admit(flow(i)) for i in range(5)]
            await coalescer.stop()
            return [await f for f in futures]

        decisions = asyncio.run(scenario())
        assert all(d.admitted for d in decisions)

    def test_stop_on_an_idle_coalescer_counts_no_batch(self):
        """The stop sentinel is not a decided op: stopping an idle
        coalescer must not show up as a batch of fill 1 (nor in the
        metrics)."""
        from repro import obs

        controller, _ = make_controller()

        async def scenario():
            coalescer = MicroBatchCoalescer(controller, max_delay=0)
            coalescer.start()
            await coalescer.stop()
            return coalescer

        obs.enable(fresh=True)
        try:
            coalescer = asyncio.run(scenario())
            text = obs.prometheus_text()
        finally:
            obs.disable()
        assert coalescer.batches == 0
        assert coalescer.coalesced_ops == 0
        assert coalescer.largest_batch == 0
        assert "repro_service_batches_total" not in text
        assert "repro_service_batch_fill" not in text

    def test_stop_riding_with_ops_does_not_inflate_the_fill(self):
        controller, _ = make_controller()

        async def scenario():
            coalescer = MicroBatchCoalescer(controller, max_delay=0)
            coalescer.start()
            coalescer.pause()
            futures = [coalescer.submit_admit(flow(i)) for i in range(3)]
            # The sentinel queues behind the three and joins their drain.
            await asyncio.wait_for(coalescer.stop(), 5)
            assert all(f.done() for f in futures)
            return coalescer

        coalescer = asyncio.run(scenario())
        assert coalescer.batches == 1
        assert coalescer.coalesced_ops == 3
        assert coalescer.largest_batch == 3

    def test_pause_holds_the_backlog(self):
        controller, _ = make_controller()

        async def scenario():
            coalescer = MicroBatchCoalescer(
                controller, max_delay=0.0
            )
            coalescer.start()
            coalescer.pause()
            futures = [coalescer.submit_admit(flow(i)) for i in range(7)]
            await asyncio.sleep(0.02)
            assert coalescer.pending == 7
            assert not any(f.done() for f in futures)
            coalescer.resume()
            await asyncio.gather(*futures)
            assert coalescer.pending == 0
            await coalescer.stop()

        asyncio.run(scenario())

    def test_max_batch_splits_large_backlogs(self, monkeypatch):
        controller, _ = make_controller()
        monkeypatch.setattr(coalescer_module, "MAX_BATCH", 8)

        async def scenario():
            coalescer = MicroBatchCoalescer(controller, max_delay=0.0)
            coalescer.start()
            futures = [
                coalescer.submit_admit(flow(i)) for i in range(20)
            ]
            await coalescer.stop()
            for future in futures:
                assert (await future).admitted
            return coalescer

        coalescer = asyncio.run(scenario())
        assert coalescer.largest_batch <= 8
        assert coalescer.coalesced_ops >= 20

    def test_delay_window_collects_trickled_ops(self):
        controller, _ = make_controller()

        async def scenario():
            coalescer = MicroBatchCoalescer(
                controller, max_delay=0.2
            )
            coalescer.start()
            # Queued behind the pause, the first op opens the window
            # once the drain loop resumes.
            coalescer.pause()
            first = coalescer.submit_admit(flow(0))
            coalescer.resume()
            # Trickle more ops in while the window is open (each queues
            # behind the undecided first); they must land in the same
            # batch as the first.
            trickled = [first]
            for i in range(1, 5):
                await asyncio.sleep(0.005)
                trickled.append(coalescer.submit_admit(flow(i)))
            await asyncio.gather(*trickled)
            await coalescer.stop()
            return coalescer

        coalescer = asyncio.run(scenario())
        assert coalescer.largest_batch >= 5


class TestDrainLoopResilience:
    def test_poisoned_batch_fails_callers_not_the_loop(self):
        """An op whose payload blows up inside the batch step (here an
        unhashable flow id, bypassing the wire layer's validation) must
        fail its own future — not kill the drain loop and wedge every
        queued and future request."""
        controller, _ = make_controller()

        async def scenario():
            coalescer = MicroBatchCoalescer(controller, max_delay=0)
            coalescer.start()
            bad = coalescer.submit_release(["not", "hashable"])
            with pytest.raises(TypeError):
                await bad
            # The loop survives: later ops are still decided, and stop
            # does not deadlock.
            decision = await coalescer.submit_admit(flow(1))
            assert decision.admitted
            await coalescer.stop()
            assert coalescer.pending == 0

        asyncio.run(scenario())

    def test_poisoned_batch_does_not_wedge_stop(self):
        controller, _ = make_controller()

        async def scenario():
            coalescer = MicroBatchCoalescer(controller, max_delay=0)
            coalescer.start()
            coalescer.pause()
            bad = coalescer.submit_release({"k": 1})
            stop = asyncio.ensure_future(coalescer.stop())
            with pytest.raises(TypeError):
                await bad
            await asyncio.wait_for(stop, 5)

        asyncio.run(scenario())


class TestObsIntegration:
    def test_counters_recorded_when_enabled(self):
        from repro import obs

        controller, _ = make_controller()

        async def scenario():
            coalescer = MicroBatchCoalescer(controller)
            coalescer.start()
            # The coalesce histogram times queued ops: queue them.
            coalescer.pause()
            futures = [coalescer.submit_admit(flow(i)) for i in range(4)]
            coalescer.resume()
            await asyncio.gather(*futures)
            await coalescer.stop()
            return coalescer

        obs.enable(fresh=True)
        try:
            coalescer = asyncio.run(scenario())
            text = obs.prometheus_text()
        finally:
            obs.disable()
        # The batch count is the coalescer's own; a served scrape reads
        # it (AdmissionService.refresh_gauges), no decision pushes it.
        assert coalescer.batches >= 1
        assert "repro_service_batches_total" not in text
        assert "repro_service_batch_fill" in text
        assert "repro_service_coalesce_seconds" in text


class TestBulkSubmission:
    """The v2 bulk frame path: inline fast path vs the queue fallback."""

    @staticmethod
    def admit_entries(coalescer, n, start_index=0):
        return [
            (start_index + i, "admit", flow(start_index + i))
            for i in range(n)
        ]

    def test_idle_frame_is_decided_inline(self):
        controller, _ = make_controller()

        async def scenario():
            coalescer = MicroBatchCoalescer(controller)
            coalescer.start()
            slots = coalescer.open_bulk(4)
            coalescer.submit_bulk(
                slots, self.admit_entries(coalescer, 4)
            )
            # Inline: everything settled synchronously, no queue round.
            assert slots.remaining == 0
            await slots.wait()  # returns immediately
            assert all(
                outcome.admitted for outcome in slots.outcomes
            )
            assert coalescer.batches == 1
            assert coalescer.pending == 0
            await coalescer.stop()

        asyncio.run(scenario())

    def test_inline_chunks_by_max_batch(self, monkeypatch):
        controller, _ = make_controller()
        monkeypatch.setattr(coalescer_module, "MAX_BATCH", 3)

        async def scenario():
            coalescer = MicroBatchCoalescer(controller)
            coalescer.start()
            slots = coalescer.open_bulk(8)
            coalescer.submit_bulk(
                slots, self.admit_entries(coalescer, 8)
            )
            await slots.wait()
            # 8 ops through MAX_BATCH=3 -> 3 kernel batches.
            assert coalescer.batches == 3
            assert coalescer.largest_batch == 3
            await coalescer.stop()

        asyncio.run(scenario())

    def test_paused_coalescer_falls_back_to_the_queue(self):
        controller, _ = make_controller()

        async def scenario():
            coalescer = MicroBatchCoalescer(controller, max_delay=0)
            coalescer.start()
            coalescer.pause()
            slots = coalescer.open_bulk(2)
            coalescer.submit_bulk(
                slots, self.admit_entries(coalescer, 2)
            )
            # Queued, not decided: the pause holds the backlog.
            assert slots.remaining == 2
            assert coalescer.pending == 2
            coalescer.resume()
            await asyncio.wait_for(slots.wait(), 5)
            assert all(o.admitted for o in slots.outcomes)
            await coalescer.stop()

        asyncio.run(scenario())

    def test_pending_ops_force_the_queue_for_ordering(self):
        controller, _ = make_controller()

        async def scenario():
            coalescer = MicroBatchCoalescer(controller, max_delay=0)
            coalescer.start()
            coalescer.pause()
            first = coalescer.submit_admit(flow(0))
            slots = coalescer.open_bulk(1)
            # An undecided op is in flight: the frame must queue behind
            # it, not jump the order.
            coalescer.submit_bulk(slots, [(0, "release", "f0")])
            assert slots.remaining == 1
            coalescer.resume()
            decision = await first
            await asyncio.wait_for(slots.wait(), 5)
            assert decision.admitted
            assert slots.outcomes[0] is True  # released after admit
            await coalescer.stop()

        asyncio.run(scenario())

    def test_audit_log_keeps_the_inline_path(self, tmp_path, monkeypatch):
        import json

        controller, _ = make_controller()
        path = str(tmp_path / "audit.jsonl")
        monkeypatch.setattr(coalescer_module, "MAX_BATCH", 3)

        async def scenario():
            coalescer = MicroBatchCoalescer(controller)
            coalescer.start()
            coalescer.audit = AuditLog(path)
            slots = coalescer.open_bulk(4)
            coalescer.submit_bulk(
                slots, self.admit_entries(coalescer, 4)
            )
            # Inline: the decision step writes the audit frame wherever
            # it runs, so an audited frame never has to queue.
            assert slots.remaining == 0
            assert all(o.admitted for o in slots.outcomes)
            await coalescer.stop()
            coalescer.audit.close()

        asyncio.run(scenario())
        with open(path, encoding="utf-8") as fh:
            frames = [json.loads(line) for line in fh][1:]
        # One frame per decision step: 4 ops through MAX_BATCH=3.
        assert [(f["kind"], f["seq"], f["n"]) for f in frames] == [
            ("frame", 1, 3),
            ("frame", 4, 1),
        ]
        assert [r["flow"]["id"] for r in iter_audit(path)] == [
            "f0", "f1", "f2", "f3",
        ]

    # The hand-written frame this property test grew out of: a
    # duplicate admit of f0 inside one frame, then two releases.
    @example(
        ops=[
            ("admit", "f0", "r0>r3", None),
            ("admit", "f1", "r0>r3", None),
            ("admit", "f0", "r0>r3", None),
            ("admit", "f2", "r0>r3", None),
            ("release", "f1"),
            ("release", "nope"),
        ]
    )
    @settings(deadline=None, max_examples=60)
    @given(ops=differential_ops)
    def test_inline_and_queued_outcomes_identical(self, ops):
        """Every carrier of the one decision step agrees with the
        sequential API — outcome for outcome and slot for slot."""
        reference = make_differential_controller()
        expected = differential_sequential(reference, ops)
        lone_reference = make_differential_controller()
        expected_lone = differential_sequential(
            lone_reference, ops, lone=True
        )

        async def run(way, audit_path=None):
            controller = make_differential_controller()
            coalescer = MicroBatchCoalescer(controller, max_delay=0)
            coalescer.preemptor = Preemptor(controller)
            if audit_path is not None:
                coalescer.audit = AuditLog(audit_path)
            coalescer.start()
            if way == "queued":
                coalescer.pause()
            if way == "lone":
                futures = [
                    coalescer.submit_admit(differential_flow(op))
                    if op[0] == "admit"
                    else coalescer.submit_release(op[1])
                    for op in ops
                ]
                # Each lone op is a frame of one, decided on arrival.
                assert all(future.done() for future in futures)
                outcomes = await asyncio.gather(
                    *futures, return_exceptions=True
                )
            else:
                slots = coalescer.open_bulk(len(ops))
                coalescer.submit_bulk(
                    slots,
                    [
                        (i, op[0], differential_flow(op))
                        if op[0] == "admit"
                        else (i, op[0], op[1])
                        for i, op in enumerate(ops)
                    ],
                )
                # An idle frame is decided inline, audited or not.
                queued = len(ops) if way == "queued" else 0
                assert slots.remaining == queued
                assert coalescer.pending == queued
                coalescer.resume()
                await asyncio.wait_for(slots.wait(), 5)
                outcomes = slots.outcomes
            await coalescer.stop()
            assert coalescer.pending == 0
            assert coalescer.coalesced_ops == len(ops)
            if coalescer.audit is not None:
                coalescer.audit.close()
            return [outcome_shape(o) for o in outcomes], controller

        with tempfile.TemporaryDirectory() as tmp:
            audit_path = os.path.join(tmp, "audit.jsonl")
            for way in ("lone", "inline", "queued", "audited"):
                shapes, controller = asyncio.run(
                    run(way, audit_path if way == "audited" else None)
                )
                ref, want = (
                    (lone_reference, expected_lone)
                    if way == "lone"
                    else (reference, expected)
                )
                assert shapes == want, way
                assert controller.verify_invariants() == [], way
                assert controller.snapshot() == ref.snapshot(), way
            report = verify_audit(iter_audit(audit_path))
        assert report["ok"], report["problems"]
        assert report["established"] == sorted(
            f.flow_id for f in reference.established_flows
        )

    @settings(deadline=None, max_examples=40)
    @given(
        ops=differential_ops,
        cuts=st.lists(st.integers(1, 39), max_size=4),
        holds=st.lists(st.booleans(), min_size=5, max_size=5),
    )
    def test_telemetry_changes_neither_path_nor_answer(
        self, ops, cuts, holds
    ):
        """An audit log and observability record a decision step; they
        never pick how it runs.  The same frames — some submitted to a
        paused coalescer, some behind undecided ops — are decided with
        nothing, audit, obs, and both on: the path each frame takes, the
        outcomes, the controller's snapshot and its invariants agree,
        and a frame queues only when an op is pending or the coalescer
        is paused."""
        from repro import obs

        bounds = [0, *sorted(c for c in set(cuts) if c < len(ops)), len(ops)]
        frames = [
            [
                (i, op[0], differential_flow(op))
                if op[0] == "admit"
                else (i, op[0], op[1])
                for i, op in enumerate(ops[lo:hi])
            ]
            for lo, hi in zip(bounds, bounds[1:])
            if hi > lo
        ]

        async def run(audit_path):
            controller = make_differential_controller()
            coalescer = MicroBatchCoalescer(controller, max_delay=0)
            coalescer.preemptor = Preemptor(controller)
            if audit_path is not None:
                coalescer.audit = AuditLog(audit_path)
            coalescer.start()
            paths, carriers = [], []
            for entries, hold in zip(frames, holds):
                if hold:
                    coalescer.pause()
                else:
                    coalescer.resume()
                must_queue = hold or coalescer.pending > 0
                slots = coalescer.open_bulk(len(entries))
                coalescer.submit_bulk(slots, entries)
                assert slots.remaining == (
                    len(entries) if must_queue else 0
                )
                paths.append(must_queue)
                carriers.append(slots)
            coalescer.resume()
            for slots in carriers:
                await asyncio.wait_for(slots.wait(), 5)
            await coalescer.stop()
            if coalescer.audit is not None:
                coalescer.audit.close()
            assert controller.verify_invariants() == []
            return (
                paths,
                [[outcome_shape(o) for o in s.outcomes] for s in carriers],
                controller.snapshot(),
            )

        results = {}
        with tempfile.TemporaryDirectory() as tmp:
            for config in ("nothing", "audit", "obs", "audit+obs"):
                if "obs" in config:
                    obs.enable(fresh=True)
                try:
                    results[config] = asyncio.run(run(
                        os.path.join(tmp, f"{config}.jsonl")
                        if "audit" in config else None
                    ))
                finally:
                    obs.disable()
                    obs.reset()
            for config in ("audit", "audit+obs"):
                report = verify_audit(
                    iter_audit(os.path.join(tmp, f"{config}.jsonl"))
                )
                assert report["ok"], report["problems"]
                assert report["established"] == sorted(
                    f["flow_id"] for f in results[config][2]["flows"]
                )
        for config, result in results.items():
            assert result == results["nothing"], config

    @pytest.mark.parametrize("way", ["inline", "queued"])
    def test_hostile_route_fails_alone(self, way, tmp_path):
        """One request the sequential API refuses fails alone: its
        neighbours in the frame are decided, nothing is half-admitted,
        and later frames that name the same ids are decided too."""
        controller, _ = make_controller()
        good = FlowSpec("good", "voice", "r0", "r3")
        be1 = FlowSpec("be1", "best-effort", "r0", "r3")
        bad = FlowSpec(
            "bad", "voice", "r0", "r3", route=("r0", "Nowhere", "r3")
        )

        async def frame(coalescer, flows):
            slots = coalescer.open_bulk(len(flows))
            if way == "queued":  # a paused coalescer queues every op
                coalescer.pause()
            coalescer.submit_bulk(
                slots, [(i, "admit", f) for i, f in enumerate(flows)]
            )
            assert slots.remaining == (0 if way == "inline" else len(flows))
            coalescer.resume()
            await asyncio.wait_for(slots.wait(), 5)
            return slots.outcomes

        async def scenario():
            coalescer = MicroBatchCoalescer(controller)
            coalescer.audit = AuditLog(str(tmp_path / "audit.jsonl"))
            coalescer.start()
            first = await frame(coalescer, [good, be1, bad])
            assert first[0].admitted and first[1].admitted
            assert isinstance(first[2], AdmissionError)
            assert "'r0' -> 'Nowhere'" in str(first[2])
            assert controller.num_established == 2
            assert len(controller._flows) == 2
            assert controller.verify_invariants() == []
            again = await frame(coalescer, [good, be1])
            assert [str(o) for o in again] == [
                "flow 'good' is already established",
                "flow 'be1' is already established",
            ]
            other = await frame(coalescer, [flow(1), flow(2)])
            assert other[0].admitted and other[1].admitted
            await coalescer.stop()
            assert controller.verify_invariants() == []
            assert len(controller._flows) == controller.num_established == 4
            coalescer.audit.close()
            errors = [
                record["flow"]["id"]
                for record in iter_audit(str(tmp_path / "audit.jsonl"))
                if "error" in record
            ]
            assert errors == ["bad", "good", "be1"]

        asyncio.run(scenario())

    def test_submit_bulk_after_stop_raises(self):
        controller, _ = make_controller()

        async def scenario():
            coalescer = MicroBatchCoalescer(controller)
            coalescer.start()
            await coalescer.stop()
            slots = coalescer.open_bulk(1)
            with pytest.raises(ServiceError):
                coalescer.submit_bulk(
                    slots, self.admit_entries(coalescer, 1)
                )

        asyncio.run(scenario())

    def test_poisoned_inline_frame_fails_only_its_callers(self):
        controller, _ = make_controller()

        async def scenario():
            coalescer = MicroBatchCoalescer(controller)
            coalescer.start()
            slots = coalescer.open_bulk(1)
            # An unhashable flow id detonates inside the batch step.
            bad_flow = FlowSpec({"k": 1}, "voice", "r0", "r3")
            coalescer.submit_bulk(slots, [(0, "admit", bad_flow)])
            assert isinstance(slots.outcomes[0], TypeError)
            # The coalescer survives and keeps deciding.
            good = coalescer.open_bulk(1)
            coalescer.submit_bulk(
                good, [(0, "admit", flow(9))]
            )
            await good.wait()
            assert good.outcomes[0].admitted
            await coalescer.stop()

        asyncio.run(scenario())
