"""Ext-L: the admitted-share price of ``serve --workers N``.

A cluster of N workers partitions every link's verified slots N ways
(:func:`~repro.admission.sharded.plan_slot_shards`) and routes each flow
to the worker owning its id on the consistent-hash ring — decisions are
purely local, at the cost of capacity fragmentation: a flow can be
rejected by its owner while another worker still holds free slots on the
same links.  The bench replays one Poisson workload through the shared
ledger and through N in {1, 2, 4} in-process
:class:`~repro.admission.sharded.SlotShardController`\\ s, flows routed by
``HashRing.worker_of(flow_id)`` exactly as ``ClusterRouter`` does, and
reports blocking per N.  Sharding must never admit beyond the shared
certificate, and one shard *is* the shared ledger.
"""

from functools import partial

import numpy as np
import pytest

from repro.admission import (
    SlotShardController,
    UtilizationAdmissionController,
    replay_schedule,
)
from repro.experiments import format_table
from repro.service.router import HashRing
from repro.workload import poisson_flow_schedule

# Tight utilization so blocking actually occurs at this load.
ALPHA = 0.02
SHARD_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def workload(scenario):
    return poisson_flow_schedule(
        scenario.network, "voice", arrival_rate=150.0, mean_holding=8.0,
        horizon=10.0, seed=17,
    )


def _replay_shared(scenario, sp_routes, workload):
    ctrl = UtilizationAdmissionController(
        scenario.graph, scenario.registry, {"voice": ALPHA}, sp_routes
    )
    return ctrl, replay_schedule(ctrl, workload)


def _replay_cluster(scenario, sp_routes, workload, n):
    """N shards behind the router's ring; one stats object per shard."""
    ring = HashRing(n)
    shards = [
        SlotShardController(
            scenario.graph, scenario.registry, {"voice": ALPHA}, sp_routes,
            shard_index=i, shard_count=n,
        )
        for i in range(n)
    ]
    # Shards share no state, so replaying each owner's sub-schedule on
    # its own decides exactly what the interleaved cluster would.
    owned = [[] for _ in range(n)]
    for event in workload:
        owned[ring.worker_of(event.flow_id)].append(event)
    return shards, [
        replay_schedule(shard, events)
        for shard, events in zip(shards, owned)
    ]


def _row(label, stats):
    """One table row over the per-ledger stats of a deployment."""
    attempts = sum(s.attempts for s in stats)
    latencies = np.concatenate([s.decision_seconds for s in stats])
    return [
        label,
        attempts,
        sum(s.admitted for s in stats),
        f"{sum(s.rejected for s in stats) / attempts:.3f}",
        f"{latencies.mean() * 1e6:.1f} us",
    ]


def test_bench_slot_shards_vs_shared(benchmark, scenario, sp_routes,
                                     workload, capsys):
    def run_all():
        shared = _replay_shared(scenario, sp_routes, workload)
        clusters = {
            n: _replay_cluster(scenario, sp_routes, workload, n)
            for n in SHARD_COUNTS
        }
        return shared, clusters

    (shared_ctrl, shared), clusters = benchmark.pedantic(
        run_all, rounds=1, iterations=1
    )
    rows = [_row("shared ledger", [shared])] + [
        _row(f"{n} slot shard{'s' if n > 1 else ''}", stats)
        for n, (_shards, stats) in clusters.items()
    ]
    with capsys.disabled():
        print()
        print(
            format_table(
                ["ledger", "attempts", "admitted", "blocking probability",
                 "mean decision"],
                rows,
                title=(
                    "Ext-L: admitted-share price of serve --workers N "
                    f"at alpha = {ALPHA}"
                ),
            )
        )
    verified = shared_ctrl.ledger.slots("voice")
    for n, (shards, stats) in clusters.items():
        # Every arrival reached exactly one owner.
        assert sum(s.attempts for s in stats) == shared.attempts
        # Fragmentation can only cost capacity, never create it.
        assert sum(s.admitted for s in stats) <= shared.admitted
        # The shards partition the verified certificate exactly.
        np.testing.assert_array_equal(
            sum(shard.shard_slots("voice") for shard in shards), verified
        )
    # One shard is the shared ledger: same flows, decision for decision.
    (_only,), (single,) = clusters[1]
    assert single.admitted_ids == shared.admitted_ids
    assert single.rejected == shared.rejected


@pytest.mark.parametrize(
    "controller_cls",
    [
        UtilizationAdmissionController,
        partial(SlotShardController, shard_index=0, shard_count=2),
    ],
    ids=["shared", "slotshard"],
)
def test_bench_decision_cost(benchmark, scenario, sp_routes,
                             controller_cls):
    from repro.traffic import FlowSpec

    ctrl = controller_cls(
        scenario.graph, scenario.registry, {"voice": 0.35}, sp_routes
    )
    flow = FlowSpec("probe", "voice", "Seattle", "Miami")

    def decide():
        d = ctrl.admit(flow)
        ctrl.release(flow.flow_id)
        return d

    decision = benchmark(decide)
    assert decision.admitted
