"""Multi-core scale-out: shard planning, consistent-hash routing, and
cluster snapshot merge/split — plus the live cluster end to end.

The safety argument, property-tested:

* :func:`plan_slot_shards` partitions the verified slot capacity so
  the shard quotas sum to **exactly** the certified slots per server —
  never more, so no interleaving of independent workers can admit past
  what the analysis verified;
* :class:`HashRing` assignment is a pure function of (flow id, worker
  count, salt): a worker restart cannot remap anything, and growing
  the ring only moves flows *to* the new worker;
* :func:`merge_cluster_snapshot` / :func:`split_cluster_snapshot`
  round-trip the established set exactly, committed routes pinned.

The e2e tests launch a real ``serve --workers 2`` cluster (supervisor
subprocess, shard-worker grandchildren) and exercise the front door,
the kill -9 worker chaos path, and the merged-manifest restart.
"""

import json
import os
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.admission import (
    SlotShardController,
    UtilizationAdmissionController,
    plan_slot_shards,
)
from repro.errors import AdmissionError, FaultInjectionError, ServiceError
from serve_processes import ClusterProcess, kill_worker_restart_check
from repro.routing.shortest import shortest_path_routes
from repro.service import merge_cluster_snapshot, split_cluster_snapshot
from repro.experiments.cli import build_parser
from repro.service import router as router_module
from repro.service.cluster import (
    FRONT_DOOR_ONLY,
    ClusterConfig,
    worker_options,
)
from repro.service.launch import serve_argv
from repro.service.router import HashRing
from repro.service.snapshots import SNAPSHOT_SCHEMA
from repro.topology import LinkServerGraph, mci_backbone
from repro.traffic import ClassRegistry, voice_class
from repro.traffic.flows import FlowSpec
from repro.traffic.generators import all_ordered_pairs

from test_service_cli import serve_pids

# --------------------------------------------------------------------- #
# shard planning: quotas never exceed verified capacity
# --------------------------------------------------------------------- #

slot_totals = st.lists(
    st.integers(min_value=0, max_value=10_000), min_size=1, max_size=40
)


class TestPlanSlotShards:
    @given(totals=slot_totals, shards=st.integers(1, 12))
    @settings(deadline=None, max_examples=120)
    def test_columns_sum_exactly_to_verified_totals(self, totals, shards):
        plan = np.array(plan_slot_shards(np.array(totals, dtype=np.int64), shards))
        assert plan.shape == (shards, len(totals))
        assert np.all(plan >= 0)
        # The safety invariant: per server, shard quotas sum to the
        # certified slot count — equality, not just <=, so no capacity
        # is silently stranded either.
        assert np.array_equal(plan.sum(axis=0), np.array(totals))

    @given(totals=slot_totals, shards=st.integers(1, 12))
    @settings(deadline=None, max_examples=120)
    def test_plan_is_the_exact_divmod_split(self, totals, shards):
        # Pins the plan itself, not just its column sums: a shard
        # restarted from its snapshot must recompute the very row the
        # snapshot was taken under.
        total = np.array(totals, dtype=np.int64)
        plan = plan_slot_shards(total, shards)
        assert all(type(n) is int for row in plan for n in row)
        for r in range(shards):
            assert np.array_equal(
                plan[r], total // shards + (r < total % shards)
            )

    def test_rejects_bad_inputs(self):
        with pytest.raises(AdmissionError):
            plan_slot_shards(np.array([1, 2]), 0)
        with pytest.raises(AdmissionError):
            plan_slot_shards(np.array([-1]), 2)
        with pytest.raises(AdmissionError):
            plan_slot_shards(np.array([[5]]), 2)
        with pytest.raises(TypeError):
            plan_slot_shards(
                np.array([5]), 2, weights=np.array([[1.0], [0.5]])
            )


class TestSlotShardController:
    @pytest.fixture(scope="class")
    def setup(self):
        network = mci_backbone()
        graph = LinkServerGraph(network)
        voice = voice_class()
        registry = ClassRegistry.two_class(voice)
        pairs = all_ordered_pairs(network)
        routes = shortest_path_routes(network, pairs)
        return graph, registry, voice, routes

    def test_shards_sum_to_verified_slots_per_link(self, setup):
        graph, registry, voice, routes = setup
        full = UtilizationAdmissionController(
            graph, registry, {voice.name: 0.3}, routes
        )
        verified = np.array(full.ledger.slots(voice.name))
        shards = [
            SlotShardController(
                graph,
                registry,
                {voice.name: 0.3},
                routes,
                shard_index=i,
                shard_count=4,
            )
            for i in range(4)
        ]
        total = sum(np.array(s.shard_slots(voice.name)) for s in shards)
        assert np.array_equal(total, verified)
        for s in shards:
            assert np.all(np.array(s.shard_slots(voice.name)) <= verified)

    def test_shard_index_out_of_range_is_refused(self, setup):
        graph, registry, voice, routes = setup
        for index, count in ((2, 2), (-1, 2), (0, 0)):
            with pytest.raises(AdmissionError):
                SlotShardController(
                    graph,
                    registry,
                    {voice.name: 0.3},
                    routes,
                    shard_index=index,
                    shard_count=count,
                )


# --------------------------------------------------------------------- #
# consistent-hash routing
# --------------------------------------------------------------------- #

flow_ids = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.text(min_size=0, max_size=24),
)


class TestHashRing:
    @given(fid=flow_ids, workers=st.integers(1, 16))
    @settings(deadline=None, max_examples=200)
    def test_assignment_is_deterministic_across_ring_rebuilds(
        self, fid, workers
    ):
        # A worker restart rebuilds nothing: two rings with the same
        # parameters are the same function, so routing is stable.
        a = HashRing(workers)
        b = HashRing(workers)
        owner = a.worker_of(fid)
        assert 0 <= owner < workers
        assert b.worker_of(fid) == owner

    @given(fid=flow_ids, workers=st.integers(1, 8))
    @settings(deadline=None, max_examples=200)
    def test_growing_the_ring_only_moves_flows_to_the_new_worker(
        self, fid, workers
    ):
        before = HashRing(workers).worker_of(fid)
        after = HashRing(workers + 1).worker_of(fid)
        assert after == before or after == workers

    def test_type_tagged_ids_do_not_collide(self):
        ring = HashRing(2)
        # "1" and 1 are distinct flows; hashing must not conflate them
        # (their owners may or may not differ, but the keys must be
        # computed from distinct material — spot-check via many ids).
        strs = [ring.worker_of(str(i)) for i in range(200)]
        ints = [ring.worker_of(i) for i in range(200)]
        assert strs != ints

    def test_balance_is_reasonable(self):
        ring = HashRing(4)
        counts = [0, 0, 0, 0]
        for i in range(4000):
            counts[ring.worker_of(f"flow-{i}")] += 1
        # 64 virtual nodes per worker keep the spread well inside a
        # factor of two of the mean.
        assert min(counts) > 4000 / 4 / 2
        assert max(counts) < 4000 / 4 * 2

    def test_rejects_bad_parameters(self):
        with pytest.raises(ServiceError):
            HashRing(0)

    def test_different_salts_give_different_rings(self, monkeypatch):
        assignments = []
        for salt in ("a", "b"):
            monkeypatch.setattr(router_module, "DEFAULT_RING_SALT", salt)
            ring = HashRing(4)
            assignments.append([ring.worker_of(f"f{i}") for i in range(300)])
        assert assignments[0] != assignments[1]


# --------------------------------------------------------------------- #
# cluster snapshot merge / split
# --------------------------------------------------------------------- #

def _shard_snapshot(flows):
    return {
        "schema": SNAPSHOT_SCHEMA,
        "alphas": {"voice": 0.3},
        "flows": [
            {
                "flow_id": fid,
                "class_name": "voice",
                "source": "A",
                "destination": "B",
                "route": ["A", "B"],
            }
            for fid in flows
        ],
    }


unique_ids = st.lists(
    st.one_of(st.integers(0, 10_000), st.text(min_size=1, max_size=8)),
    max_size=60,
    unique=True,
)


class TestClusterSnapshots:
    @given(ids=unique_ids, workers=st.integers(1, 6))
    @settings(deadline=None, max_examples=80)
    def test_merge_then_split_restores_exact_shards(self, ids, workers):
        ring = HashRing(workers)
        shards = [[] for _ in range(workers)]
        for fid in ids:
            shards[ring.worker_of(fid)].append(fid)
        manifest = merge_cluster_snapshot(
            [_shard_snapshot(s) for s in shards]
        )
        assert manifest["schema"] == SNAPSHOT_SCHEMA
        assert manifest["cluster"]["workers"] == workers
        assert len(manifest["flows"]) == len(ids)
        # Same worker count: the stored partition is reproduced
        # exactly, whatever assign function is passed.
        out = split_cluster_snapshot(
            manifest, workers, lambda fid: 0
        )
        for i in range(workers):
            assert [f["flow_id"] for f in out[i]["flows"]] == shards[i]
            assert out[i]["alphas"] == {"voice": 0.3}
            for f in out[i]["flows"]:
                assert f["route"] == ["A", "B"]

    @given(
        ids=unique_ids,
        workers=st.integers(1, 5),
        new_workers=st.integers(1, 5),
    )
    @settings(deadline=None, max_examples=60)
    def test_resize_split_covers_every_flow_exactly_once(
        self, ids, workers, new_workers
    ):
        ring = HashRing(workers)
        shards = [[] for _ in range(workers)]
        for fid in ids:
            shards[ring.worker_of(fid)].append(fid)
        manifest = merge_cluster_snapshot(
            [_shard_snapshot(s) for s in shards]
        )
        new_ring = HashRing(new_workers)
        out = split_cluster_snapshot(
            manifest, new_workers, new_ring.worker_of
        )
        flat = [
            ("s" if isinstance(f["flow_id"], str) else "i", f["flow_id"])
            for shard in out
            for f in shard["flows"]
        ]
        expected = [
            ("s" if isinstance(fid, str) else "i", fid) for fid in ids
        ]
        assert sorted(map(repr, flat)) == sorted(map(repr, expected))
        if new_workers != workers:
            # Resize path: flows land where the new ring says.
            for i, shard in enumerate(out):
                for f in shard["flows"]:
                    assert new_ring.worker_of(f["flow_id"]) == i

    @pytest.mark.parametrize("new_workers", [2, 3])
    def test_merge_then_split_keeps_priority_and_route(self, new_workers):
        # The split used to copy five named keys and drop the rest:
        # every worker restart or resize stripped the priorities.
        shards = [_shard_snapshot([f"a{i}", i]) for i in range(2)]
        priorities = [None, "elastic", "soft_rt", "hard_rt"]
        records = [f for shard in shards for f in shard["flows"]]
        for record, priority in zip(records, priorities):
            record["route"] = ["A", str(priority), "B"]
            if priority is not None:
                record["priority"] = priority
        manifest = merge_cluster_snapshot(shards)
        out = split_cluster_snapshot(
            manifest, new_workers, HashRing(new_workers).worker_of
        )
        by_id = {
            repr(f["flow_id"]): f for shard in out for f in shard["flows"]
        }
        assert by_id == {repr(r["flow_id"]): r for r in records}
        if new_workers == 2:
            assert out == shards

    def test_merge_rejects_overlapping_shards(self):
        with pytest.raises(ServiceError, match="not disjoint"):
            merge_cluster_snapshot(
                [_shard_snapshot(["x"]), _shard_snapshot(["x"])]
            )

    def test_merge_rejects_mixed_alphas(self):
        a = _shard_snapshot(["x"])
        b = _shard_snapshot(["y"])
        b["alphas"] = {"voice": 0.4}
        with pytest.raises(ServiceError, match="different"):
            merge_cluster_snapshot([a, b])

    def test_merge_tolerates_missing_shards(self):
        manifest = merge_cluster_snapshot(
            [None, _shard_snapshot(["x"]), None]
        )
        assert manifest["cluster"] == {"workers": 3, "present": [1]}
        assert manifest["flows"][0]["worker"] == 1

    def test_plain_single_server_snapshot_scales_out(self):
        # A v1 snapshot with no cluster section splits by the ring —
        # the scale-up path from one server to a cluster.
        snap = _shard_snapshot(["a", "b", "c", 7])
        ring = HashRing(3)
        out = split_cluster_snapshot(snap, 3, ring.worker_of)
        total = sum(len(s["flows"]) for s in out)
        assert total == 4
        for i, shard in enumerate(out):
            for f in shard["flows"]:
                assert ring.worker_of(f["flow_id"]) == i


# --------------------------------------------------------------------- #
# config plumbing
# --------------------------------------------------------------------- #

class TestClusterConfig:
    def test_derived_paths(self):
        options = {"socket": "/tmp/x.sock", "snapshot": "/tmp/m.json"}
        assert worker_options(options, 1, 3)["socket"] == "/tmp/x.sock.w1"
        assert worker_options(options, 2, 3)["snapshot"] == "/tmp/m.json.w2"
        alone = worker_options({"socket": "/tmp/x.sock", "snapshot": None}, 0, 1)
        assert alone["snapshot"] is None

    def test_validation(self):
        with pytest.raises(ServiceError):
            ClusterConfig(workers=0, socket_path="/tmp/x.sock")
        with pytest.raises(ServiceError):
            ClusterConfig(workers=2, socket_path="")
        with pytest.raises(ServiceError):
            ClusterConfig(
                workers=2, socket_path="/tmp/x.sock", snapshot_interval=5.0
            )

    def test_worker_argv_is_the_operators_own_options(self):
        parse = build_parser().parse_args
        operator = parse(
            "serve --workers 4 --socket /tmp/x.sock --topology mci "
            "--snapshot /tmp/m.json --snapshot-interval 3.0 "
            "--audit /tmp/a.jsonl "
            "--max-delay-ms 1.5 --governor --governor-interval 0.02 "
            "--preempt --metrics-port 9464 "
            "--metrics-host 0.0.0.0 --drain-grace 2 --serve-seconds 9 "
            "--metrics-out /tmp/m.prom --trace-out /tmp/t.json".split()
        )
        argv = serve_argv(worker_options(vars(operator), 2, 4))
        joined = " ".join(argv)
        # Per-worker files and the shard identity...
        assert "--socket /tmp/x.sock.w2" in joined
        assert "--snapshot /tmp/m.json.w2" in joined
        assert "--audit /tmp/a.jsonl.w2" in joined
        assert "--shard-index 2 --shard-count 4" in joined
        # ...nothing that belongs to the front door...
        for dest in FRONT_DOOR_ONLY:
            assert "--" + dest.replace("_", "-") not in argv, dest
        # ...and everything else verbatim.
        assert (
            "--max-delay-ms 1.5" in joined
            and "--governor-interval 0.02" in joined
            and "--snapshot-interval 3.0" in joined
            and "--topology mci" in joined
        )
        worker = parse(argv)
        assert (worker.shard_index, worker.shard_count) == (2, 4)
        assert worker.max_delay_ms == 1.5 and worker.governor and worker.preempt
        # No snapshot/audit path -> no such flags at all.
        bare = serve_argv(
            worker_options(
                vars(parse(["serve", "--socket", "/tmp/x.sock"])), 0, 2
            )
        )
        assert not {"--snapshot", "--audit"} & set(bare)


# --------------------------------------------------------------------- #
# the live cluster, end to end
# --------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def mci_pairs():
    return all_ordered_pairs(mci_backbone())


class TestClusterEndToEnd:
    def test_front_door_spreads_flows_and_routes_ops_home(
        self, tmp_path, mci_pairs
    ):
        sock = str(tmp_path / "front.sock")
        snap = str(tmp_path / "manifest.json")
        with ClusterProcess(
            workers=2,
            socket_path=sock,
            snapshot=snap,
            topology="mci",
        ) as cluster:
            cluster.start()
            with cluster.client() as client:
                admitted = []
                for i, (src, dst) in enumerate(mci_pairs[:30]):
                    decision = client.admit(
                        FlowSpec(f"e{i}", "voice", src, dst)
                    )
                    if decision.admitted:
                        admitted.append(f"e{i}")
                assert admitted
                stats = client.stats()
                assert stats["workers"] == 2
                assert stats["established"] == len(admitted)
                per_worker = [
                    w["established"] for w in stats["per_worker"]
                ]
                assert sum(per_worker) == len(admitted)
                # Both shards took flows — the hash spread them.
                assert all(count > 0 for count in per_worker)
                # Controller tallies sum over shards; memory is the
                # workers' (each reports its own process).
                assert stats["decisions_total"] == 30
                assert stats["admitted_total"] == len(admitted)
                assert stats["rss_mb"] == pytest.approx(
                    sum(w["rss_mb"] for w in stats["per_worker"]), abs=0.2
                )
                assert stats["rss_mb"] <= stats["peak_rss_mb"]
                for key in ("flow_rows", "flow_table_bytes"):
                    assert stats[key] == sum(
                        w[key] for w in stats["per_worker"]
                    ) > 0
                # Start-up is visible: the front door's own (which waited
                # for both workers) and each worker's; nothing restarted.
                assert all(
                    0.0 < w["startup_seconds"] < stats["startup_seconds"]
                    for w in stats["per_worker"]
                )
                assert stats["last_restart_seconds"] is None
                # query and release land on the committing worker.
                assert client.query(admitted[0]) is True
                assert client.release(admitted[0]) is True
                assert client.query(admitted[0]) is False
                snap_result = client.snapshot()
                assert snap_result["flows"] == len(admitted) - 1
            manifest = json.load(open(snap))
            assert manifest["cluster"]["workers"] == 2
            assert len(manifest["flows"]) == len(admitted) - 1

    def test_kill9_of_one_worker_preserves_every_established_flow(
        self, tmp_path, mci_pairs
    ):
        sock = str(tmp_path / "front.sock")
        snap = str(tmp_path / "manifest.json")
        with ClusterProcess(
            workers=2,
            socket_path=sock,
            snapshot=snap,
            topology="mci",
            snapshot_interval=60.0,
        ) as cluster:
            cluster.start()
            # One hard_rt flow on the shard about to die: its priority
            # has to survive the shard snapshot, the restart and the
            # merged manifest.
            ring = HashRing(2)
            hard = next(
                f"k{i}" for i in range(25) if ring.worker_of(f"k{i}") == 0
            )

            def durable_cut(client):
                client.snapshot()
                with open(snap) as fh:
                    return {
                        f["flow_id"]: (f["route"], f.get("priority"))
                        for f in json.load(fh)["flows"]
                    }

            with cluster.client() as client:
                admitted = []
                for i, (src, dst) in enumerate(mci_pairs[:25]):
                    if client.admit(
                        FlowSpec(
                            f"k{i}", "voice", src, dst,
                            priority="hard_rt" if f"k{i}" == hard else None,
                        )
                    ).admitted:
                        admitted.append(f"k{i}")
                assert hard in admitted
                before = durable_cut(client)  # shard cuts before the kill
            assert sorted(before) == sorted(admitted)
            assert before[hard][1] == "hard_rt"
            report = kill_worker_restart_check(cluster, 0, admitted)
            assert report["lost"] == []
            assert report["worker_restarts"] >= 1
            assert report["new_pid"] != report["old_pid"]
            with cluster.client() as client:
                # Same routes, same (one) priority across the restart.
                assert durable_cut(client) == before
                # The reborn shard serves new traffic on the restored
                # ledger.
                src, dst = mci_pairs[40]
                assert client.admit(
                    FlowSpec("post-chaos", "voice", src, dst)
                ).admitted
                assert (
                    client.stats()["established"] == len(admitted) + 1
                )
                # The supervisor timed the gap: death -> healthy again
                # (it may note it a poll after the router reconnected).
                deadline = time.monotonic() + 10.0
                while (
                    client.stats()["last_restart_seconds"] is None
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.05)
                assert 0.0 < client.stats()["last_restart_seconds"] < 30.0

    def test_second_kill_inside_the_restart_gap_is_one_more_restart(
        self, tmp_path, mci_pairs
    ):
        # The replacement dies before it ever answers health.  The
        # monitor used to die with it: shard gone for good, front-door
        # stats hanging, SIGTERM ignored.
        sock = str(tmp_path / "front.sock")
        with ClusterProcess(
            workers=2,
            socket_path=sock,
            snapshot=str(tmp_path / "manifest.json"),
            topology="mci",
        ) as cluster:
            cluster.start()
            with cluster.client() as client:
                admitted = []
                for i, (src, dst) in enumerate(mci_pairs[:25]):
                    if client.admit(
                        FlowSpec(f"d{i}", "voice", src, dst)
                    ).admitted:
                        admitted.append(f"d{i}")
                assert admitted
                client.snapshot()  # durable shard cuts before the kills
            first = cluster.kill_worker(0)
            # The replacement is invisible through the front door until
            # it is healthy, so find it the way an operator would.
            second = None
            deadline = time.monotonic() + 20.0
            while second is None and time.monotonic() < deadline:
                second = next(
                    (p for p in serve_pids(sock + ".w0") if p != first),
                    None,
                )
            assert second is not None, "no replacement was launched"
            os.kill(second, signal.SIGKILL)
            answers = []  # (seconds, stats) per front-door stats call

            def probe():
                with cluster.client() as client:
                    for _ in range(5):
                        t0 = time.monotonic()
                        stats = client.stats()
                        answers.append((time.monotonic() - t0, stats))

            thread = threading.Thread(target=probe, daemon=True)
            thread.start()
            thread.join(30.0)
            assert len(answers) == 5, "front-door stats hung"
            assert max(seconds for seconds, _ in answers) < 5.0
            stats = answers[-1][1]
            with cluster.client() as client:
                lost = [f for f in admitted if not client.query(f)]
            assert stats["worker_pids"][0] not in (first, second)
            assert stats["worker_restarts"] >= 2
            assert stats["workers_up"] == 2
            assert lost == []
            t0 = time.monotonic()
            assert cluster.terminate(timeout=10.0) == 0
            assert time.monotonic() - t0 < 10.0

    def test_drain_merges_manifest_and_resized_restart_readmits(
        self, tmp_path, mci_pairs
    ):
        sock = str(tmp_path / "front.sock")
        snap = str(tmp_path / "manifest.json")
        with ClusterProcess(
            workers=2, socket_path=sock, snapshot=snap, topology="mci"
        ) as cluster:
            cluster.start()
            admitted = []
            with cluster.client() as client:
                for i, (src, dst) in enumerate(mci_pairs[:20]):
                    if client.admit(
                        FlowSpec(f"r{i}", "voice", src, dst)
                    ).admitted:
                        admitted.append(f"r{i}")
            assert cluster.terminate() == 0
            assert os.path.exists(snap)
        # Restart at a different worker count: the manifest re-splits
        # by the ring and every survivor is re-admitted.
        with ClusterProcess(
            workers=3, socket_path=sock, snapshot=snap, topology="mci"
        ) as bigger:
            bigger.start()
            with bigger.client() as client:
                stats = client.stats()
                assert stats["workers"] == 3
                assert stats["established"] == len(admitted)
                lost = [f for f in admitted if not client.query(f)]
                assert lost == []

    def test_worker_kill_guard_rails(self, tmp_path):
        cluster = ClusterProcess(
            workers=2, socket_path=str(tmp_path / "front.sock")
        )
        with pytest.raises(FaultInjectionError):
            cluster.kill_worker(0)  # never started
        cluster.stop()
