"""The metric catalogue: every name the benchmark prints, defined once.

``BENCHMARK.json`` (what the driver enforces), the table in
``README.md`` and the names ``run.py`` emits are all this list; the
smoke test fails when one drifts from another.  Run the module to
print the README table, or with ``json`` to print ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Module whose work the number measures.
    layer: str
    #: What it is, in a line.
    what: str
    #: End-to-end metric and workload it should move (per-layer rows).
    moves: str = ""
    #: Share of the parent's median it may worsen by; set for the
    #: end-to-end metrics only.
    bound: Optional[float] = None


#: Length of a timed region at a workload's nominal rate:
#: ``BENCHMARK.json``'s ``run_seconds``, the driver's ``--seconds`` and
#: ``run.py``'s default are all this number.
RUN_SECONDS = 8

#: Gated.  ISSUE 11 named nine end-to-end metrics; the five that cannot
#: be gated on this runner or under the driver's contract are the
#: ``whole service`` rows of ``PER_LAYER`` (see README, "What is gated").
END_TO_END: List[Metric] = [
    Metric(
        "admitted_share", "share", "higher", "whole service",
        "admits granted over admits attempted, warm-up included; a "
        "ratio of counts that repeats exactly for a seed (the bound is "
        "the driver's, which compares across seeds)",
        bound=0.04,
    ),
    Metric(
        "hard_rt_admitted_share", "share", "higher", "whole service",
        "hard-RT admits granted over hard-RT arrivals (every workload "
        "labels a tenth of its arrivals hard_rt), warm-up included; "
        "exact for a seed like admitted_share",
        bound=0.07,
    ),
    Metric(
        "server_rss_mb", "MB", "lower", "whole service",
        "VmHWM of the server when the timed region (a fixed op count) "
        "ends",
        bound=0.10,
    ),
    Metric(
        "setup_s", "s", "lower", "whole service",
        "spawn `serve` to first successful `health`, median of 7 cold "
        "starts spread over the run",
        bound=0.25,
    ),
]

_BULK = "bulk_churn"
_AUD = "bulk_churn_audited"
_ONE = "single_rpc"
_OVER = "overload_governed"

PER_LAYER: List[Metric] = [
    # admission.kernels
    Metric(
        "kernels.us_per_row.burst", "us", "lower", "admission.kernels",
        "batch_slot_decisions per admit row, 1024-row calls",
        "none today: no workload is kernel-bound",
    ),
    Metric(
        "kernels.us_per_row.churn", "us", "lower", "admission.kernels",
        "the same per row when calls hold one churn run (~2 rows)",
        f"server_cpu_us_per_op on {_BULK}, through call count only",
    ),
    Metric(
        "kernels.calls_per_kop.churn", "1/kop", "lower",
        "admission.kernels",
        "kernel calls per 1000 frame ops on churn frames",
        f"server_cpu_us_per_op on {_BULK}",
    ),
    # admission.ledger / admission.flowtable
    Metric(
        "ledger.commit_us_per_op", "us", "lower", "admission.ledger",
        "UtilizationLedger.commit_flat per flow, calls sized like "
        "churn admit runs",
        f"server_cpu_us_per_op on {_BULK}",
    ),
    Metric(
        "ledger.release_us_per_op", "us", "lower", "admission.ledger",
        "UtilizationLedger.release_flat per flow, same call sizes",
        f"server_cpu_us_per_op on {_BULK}",
    ),
    Metric(
        "flowtable.add_us_per_op", "us", "lower", "admission.flowtable",
        "FlowTable.add_batch per flow, same call sizes",
        f"server_cpu_us_per_op on {_BULK}",
    ),
    Metric(
        "flowtable.pop_us_per_op", "us", "lower", "admission.flowtable",
        "FlowTable.pop_batch per flow, same call sizes",
        f"server_cpu_us_per_op on {_BULK}",
    ),
    # admission.utilization
    Metric(
        "utilization.admit_batch_us_per_op.burst", "us", "lower",
        "admission.utilization",
        "admit_batch_routed per admit, one 1024-flow call per frame",
        "none today (burst is not a served workload)",
    ),
    Metric(
        "utilization.admit_batch_us_per_op.churn", "us", "lower",
        "admission.utilization",
        "admit_batch_routed per admit, one call per churn run",
        f"ops_per_s on {_BULK} and {_AUD}",
    ),
    Metric(
        "utilization.release_batch_us_per_op.churn", "us", "lower",
        "admission.utilization",
        "release_batch per release, one call per churn run",
        f"ops_per_s on {_BULK} and {_AUD}",
    ),
    Metric(
        "utilization.admit_us_per_op.seq", "us", "lower",
        "admission.utilization",
        "sequential admit() per call on churn ops",
        f"server_cpu_us_per_op on {_ONE}",
    ),
    Metric(
        "utilization.release_us_per_op.seq", "us", "lower",
        "admission.utilization",
        "sequential release() per call on churn ops",
        f"server_cpu_us_per_op on {_ONE}",
    ),
    Metric(
        "utilization.epoch_us_per_op", "us", "lower",
        "admission.utilization",
        "workload.drive in epochs of 1024 arrivals over the churn "
        "events: the floor if runs were not fragmented",
        f"ops_per_s on {_BULK} (the distance left to close)",
    ),
    # service.coalescer
    Metric(
        "coalescer.inline_us_per_op.burst", "us", "lower",
        "service.coalescer",
        "open_bulk + submit_bulk per op, inline path, burst frames",
        "none today (burst is not a served workload)",
    ),
    Metric(
        "coalescer.inline_us_per_op.churn", "us", "lower",
        "service.coalescer",
        "open_bulk + submit_bulk per op, inline path, churn frames",
        f"ops_per_s and server_cpu_us_per_op on {_BULK}",
    ),
    Metric(
        "coalescer.queued_us_per_op.churn", "us", "lower",
        "service.coalescer",
        "the same frames through the queue and the drain loop",
        f"ops_per_s and server_cpu_us_per_op on {_AUD}",
    ),
    Metric(
        "coalescer.single_us_per_op", "us", "lower", "service.coalescer",
        "one submit_admit/submit_release awaited alone, no window",
        f"server_cpu_us_per_op on {_ONE}",
    ),
    Metric(
        "coalescer.mean_run_len.churn", "ops", "higher",
        "service.coalescer",
        "frame ops per controller call: the useful work per call",
        f"ops_per_s on {_BULK} and {_AUD}",
    ),
    Metric(
        "coalescer.window_wait_ms", "ms", "lower", "service.coalescer",
        "what the default max_delay adds to a lone request",
        f"latency_p50_ms on {_ONE}",
    ),
    # service.protocol
    Metric(
        "protocol.v2_encode_req_us_per_op", "us", "lower",
        "service.protocol", "encode_bulk_request per op (client)",
        f"none visible: <1 us/op on {_BULK}",
    ),
    Metric(
        "protocol.v2_decode_req_us_per_op", "us", "lower",
        "service.protocol",
        "decode_payload_v2 + parse_bulk_request + bulk_admit_flow per "
        "op (server)",
        f"server_cpu_us_per_op on {_BULK}",
    ),
    Metric(
        "protocol.v2_encode_resp_us_per_op", "us", "lower",
        "service.protocol", "encode_bulk_response per op (server)",
        f"none visible: <1 us/op on {_BULK}",
    ),
    Metric(
        "protocol.v2_decode_resp_us_per_op", "us", "lower",
        "service.protocol", "decode_payload_v2 of the response per op "
        "(client)",
        f"none visible on {_BULK}",
    ),
    Metric(
        "protocol.v2_bytes_per_op", "B", "lower", "service.protocol",
        "request + response bytes per op of churn frames",
        f"none visible on {_BULK}",
    ),
    Metric(
        "protocol.v1_encode_us_per_req", "us", "lower",
        "service.protocol",
        "encode_frame of request and response, single admit/release",
        f"latency_p50_ms and server_cpu_us_per_op on {_ONE}, {_OVER}",
    ),
    Metric(
        "protocol.v1_decode_us_per_req", "us", "lower",
        "service.protocol",
        "parse_request + flow_from_obj, and decode_frame of the answer",
        f"latency_p50_ms and server_cpu_us_per_op on {_ONE}, {_OVER}",
    ),
    Metric(
        "protocol.v1_bytes_per_req", "B", "lower", "service.protocol",
        "request + response bytes of a single admit/release",
        f"none visible on {_ONE}",
    ),
    # service.server
    Metric(
        "server.v2_frame_rtt_us_per_op.burst", "us", "lower",
        "service.server",
        "in-process AdmissionService + AsyncServiceClient over a Unix "
        "socket, per op of burst frames",
        "none today (burst is not a served workload)",
    ),
    Metric(
        "server.v2_frame_rtt_us_per_op.churn", "us", "lower",
        "service.server", "the same per op of churn frames",
        f"ops_per_s on {_BULK}",
    ),
    Metric(
        "server.v2_self_us_per_op.churn", "us", "lower",
        "service.server",
        "derived: rtt - protocol - coalescer on churn frames, the "
        "remainder that makes the levels sum to the round trip",
        f"ops_per_s on {_BULK}",
    ),
    Metric(
        "server.v1_rpc_rtt_us", "us", "lower", "service.server",
        "in-process round trip of one v1 admit/release",
        f"latency_p50_ms on {_ONE}",
    ),
    Metric(
        "server.v1_self_us_per_req", "us", "lower", "service.server",
        "derived: round trip of one v1 request with max_delay=0, minus "
        "protocol and coalescer",
        f"latency_p50_ms and server_cpu_us_per_op on {_ONE}",
    ),
    Metric(
        "server.batches", "count", "lower", "service.server",
        "live server: coalescer batches over the traced region "
        "(a fixed op count, so it repeats exactly)",
        "ops_per_s of the workload traced",
    ),
    Metric(
        "server.mean_batch_ops", "ops", "higher", "service.server",
        "live server: ops decided per batch",
        "ops_per_s of the workload traced",
    ),
    Metric(
        "server.largest_batch", "ops", "higher", "service.server",
        "live server: largest batch since it started (warm-up included)",
        "none (a sanity reading)",
    ),
    Metric(
        "server.shed", "count", "lower", "service.server",
        "live server: requests shed", "failed on every workload",
    ),
    # service.audit, obs
    Metric(
        "audit.record_us_per_op", "us", "lower", "service.audit",
        "queued coalescer with an AuditLog attached minus without",
        f"server_cpu_us_per_op on {_AUD} only",
    ),
    Metric(
        "audit.bytes_per_op", "B", "lower", "service.audit",
        "audit log bytes per record", f"none visible on {_AUD}",
    ),
    Metric(
        "audit.fsyncs_per_kop", "1/kop", "lower", "service.audit",
        "derived: records // fsync_every per 1000 records, at the "
        "default fsync_every (arithmetic, not a count of fsync calls)",
        f"latency_tail_ms on {_AUD}",
    ),
    Metric(
        "obs.enabled_extra_us_per_op", "us", "lower", "obs",
        "queued coalescer with repro.obs enabled minus disabled",
        f"server_cpu_us_per_op on {_AUD} only",
    ),
    # control
    Metric(
        "preempt.try_admit_us", "us", "lower", "control.preempt",
        "one Preemptor.try_admit, in a small preempting replay",
        f"ops_per_s and latency_tail_ms on {_OVER}",
    ),
    Metric(
        "preempt.established_at_call", "flows", "lower",
        "control.preempt",
        "established flows a try_admit call had to scan, mean",
        f"explains preempt.try_admit_us; {_OVER} runs ~1.5x deeper",
    ),
    Metric(
        "preempt.rescued_share", "share", "higher", "control.preempt",
        "try_admit calls that admitted their flow",
        f"hard_rt_admitted_share on {_OVER}",
    ),
    Metric(
        "preempt.victims_per_rescue", "flows", "lower",
        "control.preempt", "flows evicted per preempted admit",
        f"admitted_share on {_OVER}",
    ),
    Metric(
        "preempt.preempted_flows", "count", "lower", "control.preempt",
        "live server: flows evicted over the traced region",
        f"must repeat exactly on {_OVER}; 0 elsewhere",
    ),
    Metric(
        "preempt.preempted_admits", "count", "higher", "control.preempt",
        "live server: admits that needed an eviction",
        f"must repeat exactly on {_OVER}; 0 elsewhere",
    ),
    Metric(
        "governor.observe_us", "us", "lower", "control.governor",
        "one AlphaGovernor.observe", f"none visible on {_OVER}",
    ),
    Metric(
        "governor.inc", "count", "lower", "control.governor",
        "live server: rung increases", f"must stay 0 on {_OVER}",
    ),
    Metric(
        "governor.dec", "count", "lower", "control.governor",
        "live server: rung decreases", f"must stay 0 on {_OVER}",
    ),
    Metric(
        "governor.hold", "count", "higher", "control.governor",
        "live server: samples held", "none (a sanity reading)",
    ),
    Metric(
        "ladder.certify_ms", "ms", "lower", "control.ladder",
        "certify_ladder of the default four candidates",
        f"setup_s on {_OVER}",
    ),
    # analysis, routing
    Metric(
        "fixedpoint.solve_ms", "ms", "lower", "analysis.fixedpoint",
        "verify_assignment (the Figure 2 fixed point) of MCI at 0.3",
        "setup_s (a share of it too small to see)",
    ),
    Metric(
        "fixedpoint.iterations", "count", "lower", "analysis.fixedpoint",
        "iterations of that fixed point", "fixedpoint.solve_ms",
    ),
    Metric(
        "routing.shortest_routes_ms", "ms", "lower", "routing.shortest",
        "shortest_path_routes over all ordered MCI pairs", "setup_s",
    ),
    # measured on every served run, not gated (see README)
    Metric(
        "ops_per_s", "1/s", "higher", "whole service",
        "admit+release decisions answered per wall second: median over "
        "12 equal segments of the timed region",
        "demoted: 20-24 % apart across ten runs on this runner",
    ),
    Metric(
        "server_cpu_us_per_op", "us", "lower", "whole service",
        "server CPU time (its POSIX CPU clock = utime+stime) per op "
        "answered: median over the same 12 segments",
        "demoted: 23 % apart across ten runs on this runner",
    ),
    Metric(
        "latency_p50_ms", "ms", "lower", "whole service",
        "client round trip, median (per op on single_rpc, per frame "
        "elsewhere: the wait of every op in it)",
        "demoted: 24 % apart across ten runs on this runner",
    ),
    Metric(
        "latency_tail_ms", "ms", "lower", "whole service",
        "client round trip at the highest of p99/95/90/80/75 with ten "
        "samples beyond it (printed with the count)",
        "demoted: 28 % apart across ten runs on this runner",
    ),
    Metric(
        "failed_share", "share", "lower", "whole service",
        "errors + sheds + timeouts over ops attempted; expected 0, and "
        "any failure also fails the oracle",
        "demoted: the driver takes no end-to-end metric that is 0; the "
        "result's `failed` count carries it",
    ),
    # the loadgen itself
    Metric(
        "workload.trace_gen_s", "s", "lower", "workload",
        "generating the traced run's trace",
        "none (outside the clock)",
    ),
    Metric(
        "workload.client_cpu_share", "share", "lower", "workload",
        "loadgen CPU over wall time of the timed region; above 0.5 "
        "the run is generator-bound and refused",
        "validity of every end-to-end number",
    ),
    Metric(
        "trace.overhead_share", "share", "lower", "workload",
        "socket replay of churn frames with spans on over spans off, "
        "minus one; about 0 by construction, the spans being one list "
        "append per call in the benchmark's own recorder",
        "none: served runs are always taken with tracing off",
    ),
]

BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}


def benchmark_json(workloads) -> dict:
    """``BENCHMARK.json`` as the catalogue defines it."""
    return {
        "command": ["python3", "benchmarks/waterfall/run.py"],
        "paths": ["benchmarks/waterfall"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [
            {
                "name": m.name,
                "unit": m.unit,
                "better": m.better,
                "bound": m.bound,
            }
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


def readme_table() -> str:
    lines = [
        "| name | unit | layer | what it is | moves (metric, workload) |",
        "|---|---|---|---|---|",
    ]
    for m in END_TO_END:
        lines.append(
            f"| `{m.name}` | {m.unit} | {m.layer} | {m.what} | "
            f"end-to-end, bound {m.bound:.0%} |"
        )
    for m in PER_LAYER:
        lines.append(
            f"| `{m.name}` | {m.unit} | `{m.layer}` | {m.what} | "
            f"{m.moves} |"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    # ``catalogue.py`` prints the README table, ``catalogue.py json``
    # what BENCHMARK.json must hold; the smoke test compares both.
    import json
    import sys

    if sys.argv[1:] == ["json"]:
        from loadgen import WORKLOADS

        print(json.dumps(benchmark_json(WORKLOADS.values()), indent=2))
    else:
        print(readme_table())
