"""Command-line interface: ``repro-ubac <command>``.

Commands
--------
* ``bounds`` — print the Theorem 4 interval for given parameters.
* ``table1`` — regenerate the paper's Table 1 (may take ~10 s).
* ``verify`` — verify a utilization level on the MCI scenario with
  shortest-path routes, or (with ``--bound``/no alpha) run the bounded
  machine-checked admission invariants and emit a
  ``repro-verify-report/v1`` document.
* ``sweep`` — print a deadline or burst sensitivity sweep.
* ``serve`` — run the admission service on a TCP port or Unix socket.
* ``client`` — one-shot RPC against a running admission service.
* ``audit`` — inspect or verify a service decision audit log.
* ``top`` — live terminal view of a serving admission service.

Every command accepts ``--metrics-out FILE`` (Prometheus text; use a
``.jsonl`` suffix for JSON lines) and ``--trace-out FILE`` (Chrome-trace
JSON): either switch enables :mod:`repro.obs` for the run and writes the
collected data on exit.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .. import obs
from .._version import __version__

__all__ = ["main", "build_parser"]


def _alpha_ladder(text: str) -> List[float]:
    """``serve --alpha-ladder``: comma-separated floats."""
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated floats, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ubac",
        description=(
            "Utilization-based admission control for real-time networks "
            "(reproduction of Xuan et al., ICPP 2000)"
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    # Observability switches shared by every subcommand (they must sit on
    # the subparsers for "repro-ubac table1 --metrics-out m.prom" to parse).
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help=(
            "enable observability and write a metrics snapshot here "
            "(Prometheus text, or JSON lines with a .jsonl suffix)"
        ),
    )
    common.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="enable observability and write a Chrome-trace JSON here",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser(
        "bounds", help="Theorem 4 utilization bounds", parents=[common]
    )
    b.add_argument("--fan-in", type=int, default=6, help="router fan-in N")
    b.add_argument("--diameter", type=int, default=4, help="hop diameter L")
    b.add_argument("--burst", type=float, default=640.0, help="T in bits")
    b.add_argument("--rate", type=float, default=32_000.0, help="rho in b/s")
    b.add_argument(
        "--deadline", type=float, default=0.1, help="D in seconds"
    )

    t = sub.add_parser(
        "table1", help="regenerate Table 1 (slow)", parents=[common]
    )
    t.add_argument(
        "--resolution",
        type=float,
        default=0.005,
        help="binary-search resolution on alpha",
    )

    v = sub.add_parser(
        "verify",
        help=(
            "verify alpha on MCI with shortest-path routes, or run "
            "the bounded machine-checked admission invariants"
        ),
        parents=[common],
    )
    v.add_argument(
        "alpha", type=float, nargs="?", default=None,
        help=(
            "utilization to verify on the paper scenario; omit to run "
            "the bounded model checker instead"
        ),
    )
    v.add_argument(
        "--bound", type=int, default=None, metavar="N",
        help=(
            "bounded-checker universe: instances of up to N flows "
            "(default 3 when no alpha is given)"
        ),
    )
    v.add_argument(
        "--servers", type=int, default=2, metavar="S",
        help="chain link servers in the bounded universe",
    )
    v.add_argument(
        "--max-capacity", type=int, default=2, metavar="C",
        help="largest verified slot capacity per server",
    )
    v.add_argument(
        "--backend", choices=["auto", "exhaustive", "z3"],
        default="auto",
        help=(
            "bounded-checker backend (auto = z3 when installed, "
            "exhaustive otherwise)"
        ),
    )
    v.add_argument(
        "--check", dest="checks", action="append",
        choices=["no_overcommit", "batch_equivalence"], default=None,
        help="run only this check (repeatable; default: all)",
    )
    v.add_argument(
        "--mutant",
        choices=["admit_on_full", "ignore_contention"], default=None,
        help=(
            "verify the verifier: run against this deliberately broken "
            "kernel, which must be caught, decoded, and replayed"
        ),
    )
    v.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the repro-verify-report/v1 document here",
    )
    v.add_argument(
        "--cx-dir", default=None, metavar="DIR",
        help=(
            "write decoded counterexamples here as replayable "
            "repro-workload-trace/v1 files"
        ),
    )
    v.add_argument(
        "--validate", default=None, metavar="FILE",
        help="instead, audit an existing verify report and exit",
    )

    s = sub.add_parser(
        "sweep", help="bound sensitivity sweep", parents=[common]
    )
    s.add_argument(
        "parameter", choices=["deadline", "burst"], help="swept parameter"
    )
    s.add_argument(
        "--searches", action="store_true",
        help="also run the SP / heuristic searches per point",
    )
    s.add_argument(
        "--workers", type=int, default=None,
        help="evaluate sweep points in N parallel processes",
    )

    sim = sub.add_parser(
        "simulate",
        help="adversarial packet validation of an alpha on the MCI scenario",
        parents=[common],
    )
    sim.add_argument("alpha", type=float, help="utilization to validate")
    sim.add_argument(
        "--horizon", type=float, default=0.5, help="simulated seconds"
    )
    sim.add_argument(
        "--flows-per-route", type=int, default=1,
        help="greedy sources per configured route",
    )

    f = sub.add_parser(
        "faults",
        help=(
            "chaos run: replay a fault schedule against a live "
            "admission co-simulation on the MCI scenario"
        ),
        parents=[common],
    )
    f.add_argument(
        "--alpha", type=float, default=0.35,
        help="verified utilization for the configuration",
    )
    f.add_argument(
        "--horizon", type=float, default=2.0, help="simulated seconds"
    )
    f.add_argument("--seed", type=int, default=7, help="scenario seed")
    f.add_argument(
        "--arrival-rate", type=float, default=30.0,
        help="flow arrivals per second",
    )
    f.add_argument(
        "--mean-holding", type=float, default=1.0,
        help="mean flow holding time in seconds",
    )
    f.add_argument(
        "--adversarial", action="store_true",
        help=(
            "drive the run with the extremal (w, b)-bounded adversarial "
            "workload (synchronized bursts on the hottest configured "
            "links) instead of Poisson arrivals"
        ),
    )
    f.add_argument(
        "--burst", type=int, default=8, metavar="B",
        help="adversary burst allowance (with --adversarial)",
    )
    f.add_argument(
        "--schedule", default=None, metavar="FILE",
        help=(
            "fault-schedule JSON to replay; default fails the "
            "most-loaded configured link mid-run and restores it later"
        ),
    )
    f.add_argument(
        "--random-links", type=int, default=None, metavar="N",
        help="instead, generate a seeded random schedule of N link failures",
    )
    f.add_argument(
        "--alpha-factor", type=float, default=0.5,
        help="effective-alpha scale while in degraded mode",
    )
    f.add_argument(
        "--repair-latency", type=float, default=0.02,
        help="simulated seconds between a fault and its repair landing",
    )
    f.add_argument(
        "--report-out", default=None, metavar="FILE",
        help="write the deterministic transition report (JSON) here",
    )
    f.add_argument(
        "--no-packets", action="store_true",
        help="skip the packet replay phase (flow-level accounting only)",
    )

    lg = sub.add_parser(
        "loadgen",
        help=(
            "drive an admission controller with a deterministic "
            "open-loop workload (optionally record/replay a trace)"
        ),
        parents=[common],
    )
    lg.add_argument(
        "--topology", choices=["mci", "nsfnet"], default="nsfnet",
        help="backbone to load",
    )
    lg.add_argument(
        "--controller",
        choices=["utilization", "flowaware"],
        default="utilization", help="admission controller under load",
    )
    lg.add_argument(
        "--alpha", type=float, default=0.3,
        help="per-class utilization assignment",
    )
    lg.add_argument(
        "--flows", type=int, default=100_000,
        help="number of flow arrivals to generate",
    )
    lg.add_argument(
        "--batch-size", type=int, default=1024,
        help="admissions per admit_batch call",
    )
    lg.add_argument(
        "--sequential", action="store_true",
        help="replay one admit/release call per event instead",
    )
    lg.add_argument(
        "--arrival-rate", type=float, default=1000.0,
        help="flow arrivals per (modeled) second",
    )
    lg.add_argument(
        "--mean-holding", type=float, default=10.0,
        help="mean flow holding time in (modeled) seconds",
    )
    lg.add_argument(
        "--zipf-skew", type=float, default=1.0,
        help="pair-popularity Zipf exponent (0 = uniform)",
    )
    lg.add_argument(
        "--adversarial", action="store_true",
        help=(
            "generate the extremal (w, b)-bounded adversarial workload "
            "(synchronized burst packing on the hottest link servers, "
            "thundering-herd releases) instead of the Poisson open loop"
        ),
    )
    lg.add_argument(
        "--burst", type=int, default=64, metavar="B",
        help="adversary burst allowance (with --adversarial)",
    )
    lg.add_argument(
        "--window", type=float, default=1.0, metavar="SEC",
        help="adversary envelope window in seconds (with --adversarial)",
    )
    lg.add_argument(
        "--hot-edges", type=int, default=1, metavar="K",
        help=(
            "number of hottest link servers the adversary targets "
            "(with --adversarial)"
        ),
    )
    lg.add_argument(
        "--ramp", choices=["linear", "step"], default=None,
        help=(
            "ramp the open-loop arrival rate from --arrival-rate up to "
            "--ramp-factor times it across the run (overload profile; "
            "same holdings/pairs as the constant-rate schedule)"
        ),
    )
    lg.add_argument(
        "--ramp-factor", type=float, default=2.0, metavar="X",
        help="terminal arrival-rate multiplier for --ramp",
    )
    lg.add_argument(
        "--priority-mix", default=None, metavar="SPEC",
        help=(
            "stamp arrivals with weighted priorities, e.g. "
            "'hard_rt=1,soft_rt=2,elastic=7' (deterministic per "
            "--seed; enables the per-priority outcome summary)"
        ),
    )
    lg.add_argument("--seed", type=int, default=7, help="workload seed")
    lg.add_argument(
        "--workers", type=int, default=None,
        help="generate workload chunks with N threads (same output)",
    )
    lg.add_argument(
        "--record", default=None, metavar="FILE",
        help="write the generated event stream as a JSON-lines trace",
    )
    lg.add_argument(
        "--replay", default=None, metavar="FILE",
        help="replay a previously recorded trace instead of generating",
    )
    lg.add_argument(
        "--target", default=None, metavar="HOST:PORT",
        help=(
            "drive a running admission service over TCP instead of an "
            "in-process controller"
        ),
    )
    lg.add_argument(
        "--socket", default=None, metavar="PATH",
        help="drive a running admission service over this Unix socket",
    )
    lg.add_argument(
        "--summary-out", default=None, metavar="FILE",
        help=(
            "write a repro-bench-summary/v1 JSON summary of the run "
            "(throughput, outcome counts, client-side latency)"
        ),
    )
    lg.add_argument(
        "--connections", type=int, default=1, metavar="N",
        help=(
            "drive the service over N concurrent connections; flows "
            "are partitioned by the cluster's consistent hash so "
            "per-flow ordering is preserved and a --workers N cluster "
            "sees every shard loaded in parallel"
        ),
    )
    lg.add_argument(
        "--protocol", choices=["v1", "v2"], default="v1",
        help=(
            "wire protocol for --target/--socket runs: v1 JSON lines "
            "(default) or the v2 binary framing (negotiated; falls "
            "back to v1 against an older server)"
        ),
    )

    srv = sub.add_parser(
        "serve",
        help=(
            "run the admission service (micro-batch coalescing, "
            "backpressure, crash-safe snapshots)"
        ),
        parents=[common],
    )
    srv.add_argument(
        "--socket", default=None, metavar="PATH",
        help="listen on this Unix socket",
    )
    srv.add_argument(
        "--host", default="127.0.0.1", help="TCP bind address"
    )
    srv.add_argument(
        "--port", type=int, default=None,
        help="TCP port (0 picks a free one; ignored with --socket)",
    )
    srv.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help=(
            "run a cluster of N admission workers (separate "
            "processes, each owning 1/N of the verified slot "
            "capacity) behind a consistent-hash front door on "
            "--socket; the wire protocol is unchanged"
        ),
    )
    srv.add_argument(
        # Internal: this process is worker N of a cluster; swap the
        # controller for a SlotShardController over shard N of
        # --shard-count.  Set by the cluster supervisor, not by hand.
        "--shard-index", type=int, default=None,
        help=argparse.SUPPRESS,
    )
    srv.add_argument(
        "--shard-count", type=int, default=None,
        help=argparse.SUPPRESS,
    )
    srv.add_argument(
        "--topology", choices=["mci", "nsfnet"], default="nsfnet",
        help="backbone to serve admission for",
    )
    srv.add_argument(
        "--alpha", type=float, default=0.3,
        help="per-class utilization assignment",
    )
    srv.add_argument(
        "--governor", action="store_true",
        help=(
            "close the overload loop at runtime: degrade the effective "
            "alpha down a pre-certified ladder under queue pressure "
            "and restore it when drained (every rung re-verified "
            "through the fixed-point procedure at startup)"
        ),
    )
    srv.add_argument(
        "--alpha-ladder", type=_alpha_ladder, default=None,
        metavar="A1,A2,...",
        help=(
            "comma-separated candidate effective alphas below --alpha "
            "for the governor's ladder (default: 0.5, 0.625, 0.75 and "
            "0.875 of --alpha); uncertifiable candidates are rejected "
            "at startup, never applied"
        ),
    )
    srv.add_argument(
        "--governor-interval", type=float, default=0.05, metavar="SEC",
        help="governor sampling period in seconds (with --governor)",
    )
    srv.add_argument(
        "--preempt", action="store_true",
        help=(
            "admit rejected hard-RT arrivals by evicting established "
            "lower-priority flows of the same class (never hard_rt) "
            "through the ordinary release path"
        ),
    )
    srv.add_argument(
        "--preempt-max-victims", type=int, default=8, metavar="N",
        help=(
            "cap on flows evicted for one preempted admit (with "
            "--preempt); shard workers see a slice of each link's "
            "slots, so deficits run deeper there and may need a "
            "higher cap than a whole-network controller"
        ),
    )
    srv.add_argument(
        "--max-batch", type=int, default=1024,
        help="requests coalesced into one batch kernel call",
    )
    srv.add_argument(
        "--max-delay-ms", type=float, default=2.0,
        help="coalescing window in milliseconds",
    )
    srv.add_argument(
        "--high-water", type=int, default=8192,
        help="queue depth that starts load shedding",
    )
    srv.add_argument(
        "--low-water", type=int, default=4096,
        help="queue depth at which shedding stops (hysteresis)",
    )
    srv.add_argument(
        "--snapshot", default=None, metavar="FILE",
        help=(
            "crash-safe snapshot path; restored on startup, written on "
            "drain and every --snapshot-interval seconds"
        ),
    )
    srv.add_argument(
        "--snapshot-interval", type=float, default=None, metavar="SEC",
        help="periodic snapshot period in seconds (needs --snapshot)",
    )
    srv.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help=(
            "serve /metrics, /healthz, /stats over HTTP on this port "
            "(0 picks a free one; enables observability)"
        ),
    )
    srv.add_argument(
        "--metrics-host", default="127.0.0.1",
        help="bind address of the telemetry endpoint",
    )
    srv.add_argument(
        "--audit", default=None, metavar="FILE",
        help=(
            "append every admit/release decision to this JSON-lines "
            "audit log (repro-admission-audit/v1)"
        ),
    )
    srv.add_argument(
        "--audit-fsync-every", type=int, default=256, metavar="N",
        help="fsync the audit log every N records (1 = every decision)",
    )
    srv.add_argument(
        "--audit-max-bytes", type=int, default=None, metavar="BYTES",
        help="rotate the audit log once it grows past this size",
    )
    srv.add_argument(
        "--audit-keep", type=int, default=4, metavar="N",
        help="rotated audit files to keep",
    )
    srv.add_argument(
        "--span-out", default=None, metavar="FILE",
        help=(
            "stream request/batch spans to this JSON-lines file "
            "(repro-span/v1; enables observability)"
        ),
    )
    srv.add_argument(
        "--slo-p50-ms", type=float, default=None, metavar="MS",
        help="rolling-window p50 latency objective (enables SLO tracking)",
    )
    srv.add_argument(
        "--slo-p99-ms", type=float, default=None, metavar="MS",
        help="rolling-window p99 latency objective (enables SLO tracking)",
    )
    srv.add_argument(
        "--slo-shed-rate", type=float, default=None, metavar="FRAC",
        help="shed-rate objective in [0, 1] (enables SLO tracking)",
    )
    srv.add_argument(
        "--slo-window", type=float, default=None, metavar="SEC",
        help="rolling SLO window in seconds (enables SLO tracking)",
    )
    srv.add_argument(
        "--drain-grace", type=float, default=0.0, metavar="SEC",
        help=(
            "keep listeners answering (healthz 503) this long after a "
            "drain starts, so load balancers observe the flip"
        ),
    )
    srv.add_argument(
        "--protocol", choices=["v1", "v2"], default="v2",
        help=(
            "highest wire protocol to negotiate: v2 (default) accepts "
            "hello upgrades to the binary framing; v1 answers hello "
            "with unknown_op exactly like a pre-v2 build (clients fall "
            "back transparently)"
        ),
    )
    srv.add_argument(
        # Test/CI hook: drain automatically after a fixed wall-clock
        # budget instead of waiting for a signal.
        "--serve-seconds", type=float, default=None,
        help=argparse.SUPPRESS,
    )

    cl = sub.add_parser(
        "client",
        help="one-shot RPC against a running admission service",
        parents=[common],
    )
    cl.add_argument(
        "op",
        choices=["health", "stats", "snapshot", "query", "admit", "release"],
        help="operation to perform",
    )
    cl.add_argument(
        "--target", default=None, metavar="HOST:PORT",
        help="TCP address of the service",
    )
    cl.add_argument(
        "--socket", default=None, metavar="PATH",
        help="Unix socket of the service",
    )
    cl.add_argument(
        "--flow-id", default=None,
        help="flow id (admit, release, query)",
    )
    cl.add_argument(
        "--protocol", choices=["v1", "v2"], default="v1",
        help="wire protocol (v2 negotiates the binary framing)",
    )
    cl.add_argument("--cls", default="voice", help="flow class (admit)")
    cl.add_argument("--src", default=None, help="source router (admit)")
    cl.add_argument("--dst", default=None, help="destination router (admit)")

    au = sub.add_parser(
        "audit",
        help=(
            "inspect or verify a service decision audit log "
            "(repro-admission-audit/v1)"
        ),
        parents=[common],
    )
    au.add_argument(
        "log", metavar="FILE",
        help="audit log path (rotated siblings are read automatically)",
    )
    au.add_argument(
        "--verify", action="store_true",
        help="replay the log and check its integrity invariants",
    )
    au.add_argument(
        "--snapshot", default=None, metavar="FILE",
        help=(
            "snapshot file that must match a durable audit marker "
            "(implies --verify)"
        ),
    )
    au.add_argument(
        "--kind",
        choices=["admit", "release", "snapshot", "restore"],
        default=None, help="only list records of this kind",
    )
    au.add_argument(
        "--flow-id", default=None,
        help="only list records touching this flow id",
    )
    au.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="list at most the last N matching records",
    )
    au.add_argument(
        "--json", action="store_true",
        help="print matching records as raw JSON lines",
    )
    au.add_argument(
        "--to-trace", default=None, metavar="FILE",
        help=(
            "write the committed decisions as a replayable "
            "repro-workload-trace/v1 file"
        ),
    )

    tp = sub.add_parser(
        "top",
        help="live terminal view of a serving admission service",
        parents=[common],
    )
    tp.add_argument(
        "--target", default=None, metavar="HOST:PORT",
        help="TCP address of the service",
    )
    tp.add_argument(
        "--socket", default=None, metavar="PATH",
        help="Unix socket of the service",
    )
    tp.add_argument(
        "--interval", type=float, default=2.0, metavar="SEC",
        help="seconds between refreshes",
    )
    tp.add_argument(
        "--count", type=int, default=None, metavar="N",
        help="exit after N refreshes (default: run until interrupted)",
    )
    tp.add_argument(
        "--no-clear", action="store_true",
        help="append refreshes instead of redrawing the screen",
    )

    r = sub.add_parser(
        "report",
        help="regenerate the reproduction report (Table 1 + sweeps)",
        parents=[common],
    )
    r.add_argument(
        "--output", default="reproduction-report.md",
        help="Markdown report path",
    )
    r.add_argument(
        "--records", default=None,
        help="optional JSON records path",
    )
    r.add_argument(
        "--resolution", type=float, default=0.01,
        help="binary-search resolution for the Table 1 columns",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    metrics_out = getattr(args, "metrics_out", None)
    trace_out = getattr(args, "trace_out", None)
    capture = metrics_out is not None or trace_out is not None
    for path in (metrics_out, trace_out):
        # Fail fast: the snapshot is written *after* the (possibly long)
        # command, so reject an unwritable destination up front.
        if path is not None:
            parent = os.path.dirname(path) or "."
            if not os.path.isdir(parent):
                parser.error(f"cannot write to {path!r}: "
                             f"directory {parent!r} does not exist")
    if capture:
        obs.enable(fresh=True)
    try:
        return _dispatch(args)
    finally:
        if capture:
            if metrics_out:
                fmt = (
                    "jsonl" if metrics_out.endswith(".jsonl")
                    else "prometheus"
                )
                obs.write_metrics(metrics_out, fmt=fmt)
                print(f"wrote metrics snapshot to {metrics_out}")
            if trace_out:
                obs.write_trace(trace_out)
                print(f"wrote Chrome trace to {trace_out}")
            obs.disable()


def _measure_admission(result) -> None:
    """Replay a burst of admissions against the Table-1 heuristic routes.

    Exercises the run-time side of the paper's comparison so a
    ``table1 --metrics-out`` run captures admission-decision series
    (latency histogram, admit/reject counters) alongside the
    configuration-time fixed-point series.
    """
    from ..admission.utilization import UtilizationAdmissionController
    from ..traffic.flows import FlowSpec

    sc = result.scenario
    routes = result.heuristic.routes
    if not routes:
        return
    controller = UtilizationAdmissionController(
        sc.graph,
        sc.registry,
        {sc.voice.name: result.heuristic.alpha},
        routes,
    )
    pairs = list(routes)
    admitted = 0
    rejected = 0
    for i in range(200):
        src, dst = pairs[i % len(pairs)]
        decision = controller.admit(
            FlowSpec(f"table1-probe-{i}", sc.voice.name, src, dst)
        )
        if decision.admitted:
            admitted += 1
        else:
            rejected += 1
    print(
        f"admission replay at alpha={result.heuristic.alpha:.3f}: "
        f"{admitted} admitted, {rejected} rejected, "
        f"mean decision {controller.mean_decision_seconds() * 1e6:.1f} us"
    )


#: Demand pairs for the chaos scenario: a small coast-to-coast subset of
#: the MCI pair set that keeps configuration fast while still crossing
#: the backbone's most-loaded links.
_FAULTS_PAIRS = [
    ("Seattle", "Miami"),
    ("Boston", "Phoenix"),
    ("Chicago", "Dallas"),
    ("NewYork", "LosAngeles"),
    ("Denver", "WashingtonDC"),
]


def _run_faults(args: argparse.Namespace) -> int:
    from ..config.configured import configure
    from ..errors import ConfigurationError, FaultInjectionError, TrafficError
    from ..faults.degraded import BackoffPolicy, DegradedModePolicy
    from ..faults.harness import ChaosHarness
    from ..faults.scenario import (
        adversarial_flow_schedule,
        configured_flow_schedule,
        default_link_failure_scenario,
    )
    from ..faults.schedule import FaultSchedule, random_fault_schedule
    from ..workload.adversarial import AdversaryModel
    from .scenarios import paper_scenario

    sc = paper_scenario()
    try:
        cfg = configure(
            sc.network,
            sc.registry,
            {sc.voice.name: args.alpha},
            pairs=_FAULTS_PAIRS,
            routing="shortest-path",
        )
    except ConfigurationError as exc:
        print(f"FAILURE: alpha={args.alpha} does not verify: {exc}")
        return 1

    try:
        if args.schedule is not None:
            faults = FaultSchedule.load(args.schedule, network=sc.network)
        elif args.random_links is not None:
            faults = random_fault_schedule(
                sc.network,
                seed=args.seed,
                horizon=args.horizon,
                link_failures=args.random_links,
            )
        else:
            faults = default_link_failure_scenario(
                cfg,
                horizon=args.horizon,
                down_at=0.3 * args.horizon,
                up_at=0.7 * args.horizon,
            )
        if args.adversarial:
            flows = adversarial_flow_schedule(
                cfg,
                sc.voice.name,
                horizon=args.horizon,
                seed=args.seed,
                model=AdversaryModel(
                    rate=args.arrival_rate, burst=args.burst
                ),
            )
        else:
            flows = configured_flow_schedule(
                cfg,
                sc.voice.name,
                arrival_rate=args.arrival_rate,
                mean_holding=args.mean_holding,
                horizon=args.horizon,
                seed=args.seed,
            )
        harness = ChaosHarness(
            cfg,
            policy=DegradedModePolicy(
                alpha_factor=args.alpha_factor,
                backoff=BackoffPolicy(),
                repair_latency=args.repair_latency,
            ),
        )
        report = harness.run(
            flows,
            faults,
            horizon=args.horizon,
            seed=args.seed,
            simulate_packets=not args.no_packets,
        )
    except (FaultInjectionError, TrafficError) as exc:
        print(f"FAILURE: {exc}")
        return 1
    print(report.render())
    if args.report_out:
        report.save(args.report_out)
        print(f"wrote transition report to {args.report_out}")
    held = report.survivors_held()
    print(
        "survivor guarantees held"
        if held
        else "SURVIVOR GUARANTEE VIOLATION"
    )
    return 0 if held else 1


def _run_verify_bounded(args: argparse.Namespace) -> int:
    """``repro-ubac verify [--bound N ...]`` — the machine checker."""
    from ..errors import VerificationError
    from ..verify.instances import (
        VerifyBound,
        replay_batch_equivalence,
        replay_no_overcommit,
    )
    from ..verify.mutants import MUTANTS
    from ..verify.report import (
        VERIFY_REPORT_SCHEMA,
        load_verify_report,
        validate_verify_report,
        write_verify_report,
    )
    from ..verify.runner import run_verify

    if args.validate is not None:
        try:
            validate_verify_report(load_verify_report(args.validate))
        except VerificationError as exc:
            print(f"FAILURE: {exc}")
            return 1
        print(f"{args.validate}: valid {VERIFY_REPORT_SCHEMA} document")
        return 0

    try:
        bound = VerifyBound(
            flows=3 if args.bound is None else args.bound,
            servers=args.servers,
            max_capacity=args.max_capacity,
        )
        report, results = run_verify(
            bound,
            backend=args.backend,
            checks=(
                tuple(args.checks) if args.checks else ("no_overcommit",
                                                        "batch_equivalence")
            ),
            mutant=args.mutant,
        )
    except VerificationError as exc:
        print(f"FAILURE: {exc}")
        return 1

    print(
        f"bounded universe: up to {bound.flows} flows, "
        f"{bound.servers} chain servers, capacities 0.."
        f"{bound.max_capacity}"
    )
    replayed_ok = True
    for res in results:
        print(
            f"{res.name} [{res.backend}]: {res.status} "
            f"({res.instances} instances, {res.elapsed_seconds:.3f} s)"
        )
        cx = res.counterexample
        if cx is None:
            continue
        print(f"  counterexample: {cx.detail}")
        # Decoded counterexamples must reproduce through the real
        # implementations, or the decoding itself is broken.
        if res.name == "no_overcommit":
            replay = replay_no_overcommit(
                cx, admit_on_full=args.mutant == "admit_on_full"
            )
            reproduced = bool(replay["reproduced"])
        else:
            replay = replay_batch_equivalence(
                cx,
                kernel=None if args.mutant is None else MUTANTS[args.mutant],
            )
            reproduced = bool(replay["diverged"])
        replayed_ok = replayed_ok and reproduced
        print(
            "  replay reproduces the violation"
            if reproduced
            else "  replay DOES NOT reproduce the violation"
        )
        if args.cx_dir is not None:
            from ..workload.trace import write_trace

            os.makedirs(args.cx_dir, exist_ok=True)
            path = os.path.join(args.cx_dir, f"cx_{res.name}.jsonl")
            write_trace(
                path,
                cx.to_trace_events(),
                meta={
                    "check": res.name,
                    "backend": res.backend,
                    "mutant": args.mutant,
                    "bound": bound.to_dict(),
                    "detail": cx.detail,
                },
            )
            print(f"  wrote replayable counterexample to {path}")
    if args.out is not None:
        write_verify_report(args.out, report)
        print(f"wrote verify report to {args.out}")
    if args.mutant is None:
        ok = bool(report["ok"])
        print(
            "all invariants hold within the bound"
            if ok
            else "INVARIANT VIOLATION within the bound"
        )
    else:
        ok = bool(report["ok"]) and replayed_ok
        print(
            f"mutant {args.mutant!r} caught, decoded, and replayed"
            if ok
            else f"MUTANT {args.mutant!r} SURVIVED verification"
        )
    return 0 if ok else 1


def _admission_setup(topology: str):
    """(graph, registry, voice, pairs, routes) for a served topology."""
    from ..routing.shortest import shortest_path_routes
    from ..topology.builders import mci_backbone, nsfnet_backbone
    from ..topology.servergraph import LinkServerGraph
    from ..traffic.classes import ClassRegistry
    from ..traffic.generators import all_ordered_pairs, voice_class

    network = mci_backbone() if topology == "mci" else nsfnet_backbone()
    graph = LinkServerGraph(network)
    voice = voice_class()
    registry = ClassRegistry.two_class(voice)
    pairs = all_ordered_pairs(network)
    routes = shortest_path_routes(network, pairs)
    return graph, registry, voice, pairs, routes


def _connect_service_client(target, socket_path, protocol="v1"):
    """ServiceClient for ``--target HOST:PORT`` / ``--socket PATH``."""
    from ..service.client import ServiceClient

    if (target is None) == (socket_path is None):
        raise SystemExit(
            "specify exactly one of --target HOST:PORT or --socket PATH"
        )
    if socket_path is not None:
        return ServiceClient(socket_path=socket_path, protocol=protocol)
    host, _, port = target.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"--target must be HOST:PORT, got {target!r}")
    return ServiceClient(host=host, port=int(port), protocol=protocol)


def _run_loadgen(args: argparse.Namespace) -> int:
    from ..admission.flowaware import FlowAwareAdmissionController
    from ..admission.utilization import UtilizationAdmissionController
    from ..workload.arrivals import open_loop_schedule
    from ..workload.loadgen import drive, schedule_events
    from ..workload.popularity import ZipfPairPopularity
    from ..workload.trace import read_trace, write_trace

    service_mode = args.target is not None or args.socket is not None
    graph, registry, voice, pairs, routes = _admission_setup(
        args.topology
    )

    if args.replay is not None:
        meta, events = read_trace(args.replay)
        bound = meta.get("bound")
        if isinstance(bound, dict) and "servers" in bound:
            # Decoded bounded-checker counterexample: its routes live on
            # the verification chain, not a backbone.
            from ..verify.instances import chain_fixture

            graph, registry, routes = chain_fixture(int(bound["servers"]))
        print(
            f"replaying {len(events)} events from {args.replay} "
            f"(meta: {meta})"
        )
    elif args.adversarial:
        from ..workload.adversarial import AdversaryModel, adversarial_events

        events = adversarial_events(
            graph,
            routes,
            voice.name,
            num_flows=args.flows,
            model=AdversaryModel(
                rate=args.arrival_rate,
                burst=args.burst,
                window=args.window,
            ),
            seed=args.seed,
            hot_edges=args.hot_edges,
        )
        print(
            f"adversarial workload: {args.flows} flows flushed against "
            f"the ({args.window:g} s, {args.burst}) envelope at "
            f"{args.arrival_rate:g} flows/s, targeting the "
            f"{args.hot_edges} hottest link server"
            f"{'' if args.hot_edges == 1 else 's'}"
        )
    else:
        popularity = ZipfPairPopularity(
            num_pairs=len(pairs),
            skew=args.zipf_skew,
            shuffle_seed=args.seed,
        )
        if args.ramp is not None:
            from ..workload.arrivals import ramp_schedule

            schedule = ramp_schedule(
                args.flows,
                arrival_rate=args.arrival_rate,
                ramp_factor=args.ramp_factor,
                mean_holding=args.mean_holding,
                popularity=popularity,
                shape=args.ramp,
                seed=args.seed,
            )
            print(
                f"{args.ramp} ramp: {args.arrival_rate:g} -> "
                f"{args.arrival_rate * args.ramp_factor:g} flows/s "
                f"across {args.flows} arrivals"
            )
        else:
            schedule = open_loop_schedule(
                args.flows,
                arrival_rate=args.arrival_rate,
                mean_holding=args.mean_holding,
                popularity=popularity,
                seed=args.seed,
                workers=args.workers,
            )
        events = schedule_events(schedule, pairs, voice.name)
    if args.priority_mix is not None:
        from ..errors import TrafficError
        from ..workload.loadgen import assign_priorities, parse_priority_mix

        try:
            mix = parse_priority_mix(args.priority_mix)
        except TrafficError as exc:
            raise SystemExit(f"bad --priority-mix: {exc}")
        events = assign_priorities(events, mix, seed=args.seed)
    if args.record is not None:
        meta = {
            "topology": args.topology,
            "seed": args.seed,
            "flows": args.flows,
            "arrival_rate": args.arrival_rate,
            "mean_holding": args.mean_holding,
            "zipf_skew": args.zipf_skew,
        }
        if args.adversarial:
            meta.update(
                adversarial=True,
                burst=args.burst,
                window=args.window,
                hot_edges=args.hot_edges,
            )
        if args.ramp is not None:
            meta.update(ramp=args.ramp, ramp_factor=args.ramp_factor)
        if args.priority_mix is not None:
            meta.update(priority_mix=args.priority_mix)
        write_trace(args.record, events, meta=meta)
        print(f"wrote {len(events)} events to {args.record}")

    if service_mode:
        from ..service.replay import replay_events_concurrent

        if args.connections < 1:
            raise SystemExit(
                f"--connections must be >= 1, got {args.connections}"
            )
        result = replay_events_concurrent(
            lambda _index: _connect_service_client(
                args.target, args.socket, args.protocol
            ),
            events,
            connections=args.connections,
            frame_size=args.batch_size,
        )
        where = args.socket or args.target
        print(
            f"admission service at {where} "
            f"({args.protocol} frames of {args.batch_size}, "
            f"{args.connections} connection"
            f"{'' if args.connections == 1 else 's'}): "
            f"{result.num_admitted} admitted / {result.num_rejected} "
            f"rejected of {result.num_arrivals} arrivals, "
            f"{result.num_released} released, "
            f"{result.num_skipped} skipped, {result.num_errors} errors"
        )
        print(
            f"{result.total_ops} ops in {result.elapsed_seconds:.3f} s "
            f"= {result.ops_per_second:,.0f} ops/s over the wire"
        )
        latency = result.latency_summary()
        print(
            f"frame latency p50 {latency['p50_ms']:.2f} ms, "
            f"p90 {latency['p90_ms']:.2f} ms, "
            f"p99 {latency['p99_ms']:.2f} ms "
            f"({result.frames} frames of {args.batch_size})"
        )
        _print_per_priority(result.per_priority)
        if args.summary_out is not None:
            _write_bench_summary(
                args.summary_out,
                args,
                mode="service",
                target=where,
                ops=result.total_ops,
                elapsed=result.elapsed_seconds,
                admitted=result.num_admitted,
                rejected=result.num_rejected,
                released=result.num_released,
                errors=result.num_errors,
                latency_ms=latency,
                frames=result.frames,
                connections=args.connections,
                per_priority=result.per_priority,
            )
        return 0 if result.num_errors == 0 else 1

    alphas = {voice.name: args.alpha}
    if args.controller == "utilization":
        controller = UtilizationAdmissionController(
            graph, registry, alphas, routes
        )
    else:
        controller = FlowAwareAdmissionController(graph, registry, routes)
    result = drive(
        controller,
        events,
        batch_size=args.batch_size,
        mode="sequential" if args.sequential else "batch",
    )
    print(
        f"{args.controller} controller, {result.mode} mode "
        f"(batch={result.batch_size}): "
        f"{result.num_admitted} admitted / {result.num_rejected} "
        f"rejected of {result.num_arrivals} arrivals, "
        f"{result.num_released} released"
    )
    print(
        f"{result.total_ops} ops in {result.elapsed_seconds:.3f} s "
        f"= {result.ops_per_second:,.0f} ops/s; mean decision "
        f"{controller.mean_decision_seconds() * 1e6:.2f} us/request"
    )
    _print_per_priority(result.per_priority)
    if args.summary_out is not None:
        _write_bench_summary(
            args.summary_out,
            args,
            mode="sequential" if args.sequential else "batch",
            target=f"in-process:{args.controller}",
            ops=result.total_ops,
            elapsed=result.elapsed_seconds,
            admitted=result.num_admitted,
            rejected=result.num_rejected,
            released=result.num_released,
            errors=0,
            per_priority=result.per_priority,
        )
    return 0


def _print_per_priority(per_priority) -> None:
    """Highest-priority-first outcome line (no-op without priorities)."""
    if not per_priority:
        return
    from ..traffic.flows import priority_rank

    cells = []
    for name in sorted(per_priority, key=priority_rank, reverse=True):
        counts = per_priority[name]
        cells.append(
            f"{name} {counts['admitted']}/{counts['arrivals']} admitted "
            f"({counts['rejected']} rejected)"
        )
    print("per-priority: " + "   ".join(cells))


def _write_bench_summary(
    path: str,
    args: argparse.Namespace,
    *,
    mode: str,
    target: str,
    ops: int,
    elapsed: float,
    admitted: int,
    rejected: int,
    released: int,
    errors: int,
    latency_ms=None,
    frames=None,
    connections=None,
    per_priority=None,
) -> None:
    """Write a machine-readable ``repro-bench-summary/v1`` run summary."""
    import json

    summary = {
        "schema": "repro-bench-summary/v1",
        "mode": mode,
        "target": target,
        "topology": args.topology,
        "batch_size": args.batch_size,
        "seed": args.seed,
        "ops": ops,
        "elapsed_seconds": elapsed,
        "ops_per_second": (ops / elapsed) if elapsed > 0 else 0.0,
        "admitted": admitted,
        "rejected": rejected,
        "released": released,
        "errors": errors,
        "protocol": getattr(args, "protocol", "v1"),
    }
    if latency_ms is not None:
        summary["latency_ms"] = latency_ms
    if frames is not None:
        summary["frames"] = frames
    if connections is not None:
        summary["connections"] = connections
    if per_priority:
        summary["per_priority"] = per_priority
    if getattr(args, "ramp", None) is not None:
        summary["ramp"] = args.ramp
        summary["ramp_factor"] = args.ramp_factor
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"wrote run summary to {path}")


def _serve_slo_config(args: argparse.Namespace):
    """SLOConfig from the --slo-* flags (None when none were given)."""
    from ..obs import SLOConfig

    overrides = {
        "p50_ms": args.slo_p50_ms,
        "p99_ms": args.slo_p99_ms,
        "shed_rate": args.slo_shed_rate,
        "window_seconds": args.slo_window,
    }
    set_values = {k: v for k, v in overrides.items() if v is not None}
    if not set_values:
        return None
    return SLOConfig(**set_values)


def _run_serve_cluster(args: argparse.Namespace):
    """``serve --workers N``: shard workers behind one front door."""
    from ..service.cluster import ClusterConfig, ClusterSupervisor

    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    if args.socket is None or args.port is not None:
        raise ValueError(
            "--workers serves over a Unix socket only "
            "(use --socket PATH, not --port)"
        )
    if args.shard_index is not None or args.shard_count is not None:
        raise ValueError(
            "--workers spawns its own shard workers; "
            "--shard-index/--shard-count are per-worker flags"
        )
    config = ClusterConfig(
        workers=args.workers,
        socket_path=args.socket,
        snapshot_path=args.snapshot,
        snapshot_interval=args.snapshot_interval,
        metrics_host=args.metrics_host,
        metrics_port=args.metrics_port,
        drain_grace=args.drain_grace,
        protocol=args.protocol,
    )

    async def start():
        # Every other option reaches the workers as the operator
        # spelled it (repro.service.cluster.worker_options).
        supervisor = ClusterSupervisor(config, vars(args))
        return supervisor, await supervisor.start()

    def banner(supervisor, restored) -> None:
        print(
            f"admission cluster ({args.workers} workers, "
            f"{args.topology}, alpha={args.alpha:g}) listening on "
            f"{args.socket}; restored {restored} flows",
            flush=True,
        )
        if args.audit is not None:
            print(
                f"per-worker audit logs at {args.audit}.w0.."
                f"w{args.workers - 1}",
                flush=True,
            )

    def summary(supervisor) -> None:
        counts = supervisor.router.counts
        print(
            f"cluster drained after {counts['requests']} front-door "
            f"requests ({counts['forwarded']} forwarded, "
            f"{counts['errors']} errors, "
            f"{supervisor.restarts} worker restarts, "
            f"{supervisor.merges} manifest merges)"
        )

    return start, banner, summary, None


def _run_serve(args: argparse.Namespace) -> int:
    """``repro-ubac serve``: one process, or ``--workers N`` of them.

    Either mode hands back ``(start, banner, summary, span_sink)``;
    ``start()`` builds its server inside the running loop and returns
    it with the restored-flow count.
    """
    import asyncio

    from ..errors import ReproError

    async def _serve() -> None:
        server, restored = await start()
        server.install_signal_handlers()
        banner(server, restored)
        if server.metrics_endpoint is not None:
            print(
                f"telemetry endpoint on http://{args.metrics_host}:"
                f"{server.metrics_endpoint.port}/metrics",
                flush=True,
            )
        if args.serve_seconds is not None:
            asyncio.get_running_loop().call_later(
                args.serve_seconds, server.request_drain
            )
        await server.serve_forever()
        summary(server)

    try:
        if args.alpha_ladder is not None and not args.governor:
            raise ValueError("--alpha-ladder needs --governor")
        # Figure 2 runs before anything listens or spawns, in every
        # mode: an alpha it rejects makes the counter compare no
        # deadline guarantee at all.
        setup = _admission_setup(args.topology)
        ladder = _certified_ladder(args, setup)
        if args.workers is None:
            built = _run_serve_single(args, setup, ladder)
        else:
            built = _run_serve_cluster(args)
        start, banner, summary, span_sink = built
    except (ReproError, ValueError) as exc:
        print(f"FAILURE: {exc}")
        return 2
    try:
        asyncio.run(_serve())
        return 0
    except (ReproError, OSError) as exc:
        # Start-up (bind, restore, spawn) and drain failures alike.
        print(f"FAILURE: {exc}")
        return 1
    finally:
        if span_sink is not None:
            span_sink.close()
            print(f"wrote span stream to {args.span_out}")


def _certified_ladder(args: argparse.Namespace, setup):
    """The verified ``--alpha`` plus, under ``--governor``, its rungs."""
    from ..control.ladder import certify_ladder

    graph, registry, voice, _pairs, routes = setup
    candidates = args.alpha_ladder
    if not args.governor:
        candidates = []
    elif candidates is None:
        candidates = [args.alpha * f for f in (0.5, 0.625, 0.75, 0.875)]
    # Certification always runs against the full backbone: a shard
    # worker's quota is a partition of the certified slots, so a rung
    # safe for the whole network is safe for every shard of it.
    return certify_ladder(
        graph, list(routes.values()), registry,
        {voice.name: args.alpha}, candidates,
    )


def _run_serve_single(args: argparse.Namespace, setup, ladder):
    """Plain ``serve``, and each shard worker of a cluster."""
    from ..service.server import AdmissionService, ServiceConfig

    shard_mode = (
        args.shard_index is not None or args.shard_count is not None
    )
    if shard_mode and (
        args.shard_index is None or args.shard_count is None
    ):
        raise ValueError("--shard-index and --shard-count go together")

    graph, registry, voice, _pairs, routes = setup
    alphas = {voice.name: args.alpha}
    if shard_mode:
        from ..admission.sharded import SlotShardController

        controller = SlotShardController(
            graph,
            registry,
            alphas,
            routes,
            shard_index=args.shard_index,
            shard_count=args.shard_count,
        )
    else:
        from ..admission.utilization import (
            UtilizationAdmissionController,
        )

        controller = UtilizationAdmissionController(
            graph, registry, alphas, routes
        )
    config = ServiceConfig(
        max_batch=args.max_batch,
        max_delay=args.max_delay_ms / 1000.0,
        high_water=args.high_water,
        low_water=args.low_water,
        snapshot_path=args.snapshot,
        snapshot_interval=args.snapshot_interval,
        metrics_host=args.metrics_host,
        metrics_port=args.metrics_port,
        audit_path=args.audit,
        audit_fsync_every=args.audit_fsync_every,
        audit_max_bytes=args.audit_max_bytes,
        audit_keep=args.audit_keep,
        slo=_serve_slo_config(args),
        negotiate_v2=args.protocol != "v1",
        drain_grace=args.drain_grace,
        worker_index=args.shard_index,
        governor_interval=args.governor_interval,
    )
    governor = None
    preemptor = None
    if args.governor:
        from ..control.governor import AlphaGovernor

        governor = AlphaGovernor(ladder)
    if args.preempt:
        from ..control.preempt import PreemptionPolicy, Preemptor

        preemptor = Preemptor(
            controller,
            policy=PreemptionPolicy(
                max_victims=args.preempt_max_victims
            ),
        )
    if args.socket is None and args.port is None:
        raise ValueError("specify --socket PATH or --port N")

    # A live scrape endpoint or span stream is pointless without
    # collection: either flag opts the server process into obs (the
    # --metrics-out/--trace-out switches still control exit snapshots).
    if (
        args.metrics_port is not None or args.span_out is not None
    ) and not obs.is_enabled():
        obs.enable(fresh=True)
    span_sink = None
    if args.span_out is not None:
        from ..obs import JsonLinesSpanSink

        tracer = obs.get_tracer()
        if tracer is not None:
            span_sink = JsonLinesSpanSink(args.span_out)
            span_sink.attach(tracer)

    async def start():
        service = AdmissionService(
            controller, config, governor=governor, preemptor=preemptor
        )
        if args.socket is not None:
            return service, await service.start_unix(args.socket)
        return service, await service.start_tcp(args.host, args.port)

    def banner(service, restored) -> None:
        what = (
            f"shard {args.shard_index}/{args.shard_count}"
            if shard_mode
            else "utilization"
        )
        where = args.socket or f"{args.host}:{service.port}"
        print(
            f"admission service ({what}, "
            f"{args.topology}, alpha={args.alpha:g}) listening on "
            f"{where}; restored {restored} flows",
            flush=True,
        )
        if governor is not None:
            ladder = governor.ladder
            rungs = ", ".join(f"{a:g}" for a in ladder.rungs)
            line = f"alpha governor: {len(ladder)} certified rungs [{rungs}]"
            if ladder.rejected:
                bad = ", ".join(f"{a:g}" for a in ladder.rejected)
                line += f"; rejected [{bad}]"
            print(line, flush=True)
        if preemptor is not None:
            print(
                "priority preemption on: hard-RT arrivals may evict "
                "lower-priority flows",
                flush=True,
            )

    def summary(service) -> None:
        stats = service.stats()
        print(
            f"drained after {stats['requests']} requests "
            f"({stats['admitted']} admitted, {stats['rejected']} "
            f"rejected, {stats['released']} released, "
            f"{stats['shed']} shed) in {stats['batches']} batches "
            f"(mean fill {stats['mean_batch_fill']:.1f})"
        )
        pre = stats.get("preemption")
        if pre is not None and pre.get("preempted_admits"):
            print(
                f"preemption: {pre['preempted_admits']} hard-RT admits "
                f"evicted {pre['preempted_flows']} lower-priority flows"
            )
        gov = stats.get("governor")
        if gov is not None:
            print(
                f"governor: rung {gov['rung'] + 1}/{gov['rungs']} "
                f"(effective alpha {gov['effective_alpha']:g}), "
                f"{gov['dec']} dec / {gov['inc']} inc moves"
            )

    return start, banner, summary, span_sink


def _run_client(args: argparse.Namespace) -> int:
    import json

    from ..errors import ReproError, ServiceError
    from ..traffic.flows import FlowSpec, fresh_flow_id

    try:
        client = _connect_service_client(
            args.target, args.socket, args.protocol
        )
    except ServiceError as exc:
        print(f"FAILURE: {exc}")
        return 1
    try:
        with client:
            if args.op in ("query", "release") and args.flow_id is None:
                print(f"FAILURE: {args.op} needs --flow-id")
                return 2
            if args.op == "health":
                result = client.health()
            elif args.op == "stats":
                result = client.stats()
            elif args.op == "snapshot":
                result = client.snapshot()
            elif args.op == "query":
                result = {"established": client.query(args.flow_id)}
            elif args.op == "release":
                result = {"released": client.release(args.flow_id)}
            else:  # admit
                if args.src is None or args.dst is None:
                    print("FAILURE: admit needs --src and --dst")
                    return 2
                decision = client.admit(
                    FlowSpec(
                        flow_id=(
                            args.flow_id
                            if args.flow_id is not None
                            else f"cli-{fresh_flow_id()}"
                        ),
                        class_name=args.cls,
                        source=args.src,
                        destination=args.dst,
                    )
                )
                result = {
                    "flow_id": decision.flow_id,
                    "admitted": decision.admitted,
                    "reason": decision.reason,
                    "batch_size": decision.batch_size,
                }
            print(json.dumps(result, sort_keys=True))
            return 0
    except ReproError as exc:
        print(f"FAILURE: {exc}")
        return 1


def _audit_record_matches(record, kind, flow_id) -> bool:
    if kind is not None and record.get("kind") != kind:
        return False
    if flow_id is not None:
        fid = record.get("flow_id")
        if fid is None and isinstance(record.get("flow"), dict):
            fid = record["flow"].get("id")
        if fid is None or str(fid) != flow_id:
            return False
    return True


def _audit_record_line(record) -> str:
    seq = record.get("seq", "?")
    kind = record.get("kind", "?")
    if kind == "admit":
        flow = record.get("flow", {})
        verdict = (
            f"error: {record['error']}"
            if record.get("error") is not None
            else ("admitted" if record.get("admitted") else "rejected")
        )
        parts = [
            f"#{seq} admit {flow.get('id')!r} {flow.get('cls')} "
            f"{flow.get('src')}->{flow.get('dst')}: {verdict}"
        ]
        if record.get("route") is not None:
            parts.append(f"route={'-'.join(map(str, record['route']))}")
        if record.get("headroom") is not None:
            parts.append(f"headroom={record['headroom']}")
        if record.get("reason"):
            parts.append(f"reason={record['reason']!r}")
    elif kind == "release":
        verdict = (
            f"error: {record['error']}"
            if record.get("error") is not None
            else ("released" if record.get("released") else "failed")
        )
        parts = [f"#{seq} release {record.get('flow_id')!r}: {verdict}"]
        if record.get("reason"):
            parts.append(f"reason={record['reason']}")
    elif kind in ("snapshot", "restore"):
        count = record.get(
            "established" if kind == "snapshot" else "restored"
        )
        parts = [
            f"#{seq} {kind} marker: {count} flows, "
            f"digest {record.get('digest')}"
        ]
    else:
        parts = [f"#{seq} {kind}?"]
    trace = record.get("trace")
    if isinstance(trace, dict) and trace.get("trace_id"):
        parts.append(f"trace={trace['trace_id']}")
    return "  ".join(parts)


def _run_audit(args: argparse.Namespace) -> int:
    import json

    from ..errors import ReproError
    from ..service.audit import audit_to_trace_events, iter_audit, verify_audit

    try:
        records = list(iter_audit(args.log))
    except (ReproError, OSError) as exc:
        print(f"FAILURE: {exc}")
        return 1
    matching = [
        r
        for r in records
        if _audit_record_matches(r, args.kind, args.flow_id)
    ]
    shown = (
        matching[-args.limit:] if args.limit is not None else matching
    )
    for record in shown:
        if args.json:
            print(json.dumps(record, sort_keys=True))
        else:
            print(_audit_record_line(record))
    if not args.json:
        print(
            f"{len(records)} records in {args.log} "
            f"({len(matching)} matching, {len(shown)} shown)"
        )
    if args.to_trace is not None:
        from ..workload.trace import write_trace

        events = audit_to_trace_events(records)
        write_trace(
            args.to_trace,
            events,
            meta={"source": "audit-log", "log": args.log},
        )
        print(
            f"wrote {len(events)} replayable events to {args.to_trace}"
        )
    if args.verify or args.snapshot is not None:
        try:
            report = verify_audit(records, snapshot=args.snapshot)
        except (ReproError, OSError, json.JSONDecodeError) as exc:
            print(f"FAILURE: {exc}")
            return 1
        print(
            f"verify: {report['admits']} admits "
            f"({report['admitted']} admitted, {report['rejected']} "
            f"rejected, {report['admit_errors']} errors), "
            f"{report['releases']} releases, "
            f"{report['snapshots']} snapshot markers, "
            f"{report['restores']} restores; "
            f"{len(report['established'])} established at end"
        )
        if report["ok"]:
            print("audit log is consistent")
            return 0
        for problem in report["problems"]:
            print(f"PROBLEM: {problem}")
        return 1
    return 0


def _render_top(stats, prev, interval) -> str:
    """One refresh of the ``top`` view from a ``stats`` response."""
    lines = []
    status = stats.get("status", "?")
    uptime = stats.get("uptime_seconds", 0.0)
    startup = stats.get("startup_seconds")  # older servers do not report it
    restart = stats.get("last_restart_seconds")  # cluster, after a worker died
    lines.append(
        f"repro-ubac top — {stats.get('controller', '?')} "
        f"status: {status}   uptime: {uptime:.1f} s"
        + (f"   startup: {startup:.2f} s" if startup is not None else "")
        + (f"   last restart: {restart:.2f} s" if restart is not None else "")
    )
    rate = ""
    if prev is not None and interval > 0:
        delta = stats.get("requests", 0) - prev.get("requests", 0)
        rate = f" ({delta / interval:,.0f}/s)"
    lines.append(
        f"requests {stats.get('requests', 0):,}{rate}   "
        f"admitted {stats.get('admitted', 0):,}   "
        f"rejected {stats.get('rejected', 0):,}   "
        f"released {stats.get('released', 0):,}   "
        f"shed {stats.get('shed', 0):,}   "
        f"errors {stats.get('errors', 0):,}"
    )
    age = stats.get("snapshot_age_seconds")
    lines.append(
        f"queue {stats.get('queue_depth', 0)}   "
        f"established {stats.get('established', 0):,}   "
        f"batches {stats.get('batches', 0):,} "
        f"(fill {stats.get('mean_batch_fill', 0.0):.1f})   "
        f"snapshot age "
        + (f"{age:.1f} s" if age is not None else "n/a")
        + (
            f"   rss {stats['rss_mb']:.1f} MB "
            f"(peak {stats.get('peak_rss_mb', 0.0):.1f})"
            if "rss_mb" in stats  # older servers do not report it
            else ""
        )
    )
    gov = stats.get("governor")
    if isinstance(gov, dict):
        line = (
            f"governor rung {gov.get('rung', 0) + 1}/"
            f"{gov.get('rungs', '?')}   "
            f"effective alpha {gov.get('effective_alpha', 0.0):g} "
            f"(base {gov.get('base_alpha', 0.0):g})   "
            f"signal {gov.get('signal', '?')}   "
            f"moves {gov.get('dec', 0)} dec / {gov.get('inc', 0)} inc"
        )
        pre = stats.get("preemption")
        if isinstance(pre, dict):
            line += (
                f"   preempted {pre.get('preempted_flows', 0):,} "
                f"(for {pre.get('preempted_admits', 0):,} admits)"
            )
        lines.append(line)
    elif isinstance(stats.get("preemption"), dict):
        pre = stats["preemption"]
        lines.append(
            f"preempted {pre.get('preempted_flows', 0):,} flows "
            f"(for {pre.get('preempted_admits', 0):,} hard-RT admits)"
        )
    slo = stats.get("slo")
    if isinstance(slo, dict):
        burn = slo.get("burn_rates", {})
        lines.append(
            f"SLO p50 {slo.get('p50_ms', 0.0):.1f} ms "
            f"(burn {burn.get('p50', 0.0):.2f})   "
            f"p99 {slo.get('p99_ms', 0.0):.1f} ms "
            f"(burn {burn.get('p99', 0.0):.2f})   "
            f"shed {100 * slo.get('shed_rate', 0.0):.2f}% "
            f"(burn {burn.get('shed_rate', 0.0):.2f})   "
            + ("BREACHING" if slo.get("breaching") else "within targets")
        )
    return "\n".join(lines)


def _run_top(args: argparse.Namespace) -> int:
    import time as _time

    from ..errors import ReproError, ServiceError

    try:
        client = _connect_service_client(args.target, args.socket)
    except ServiceError as exc:
        print(f"FAILURE: {exc}")
        return 1
    prev = None
    refreshes = 0
    try:
        with client:
            while True:
                try:
                    stats = client.stats()
                except ReproError as exc:
                    print(f"FAILURE: {exc}")
                    return 1
                if not args.no_clear and refreshes:
                    # Cursor home + clear-to-end redraw (same shape
                    # every refresh, so no full-screen flicker).
                    sys.stdout.write("\x1b[H\x1b[J")
                print(_render_top(stats, prev, args.interval))
                sys.stdout.flush()
                prev = stats
                refreshes += 1
                if args.count is not None and refreshes >= args.count:
                    return 0
                _time.sleep(max(args.interval, 0.0))
    except KeyboardInterrupt:
        return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "bounds":
        from ..config.bounds import utilization_bounds
        from .reporting import format_table

        bounds = utilization_bounds(
            args.fan_in, args.diameter, args.burst, args.rate, args.deadline
        )
        print(
            format_table(
                ["Lower Bound", "Upper Bound"],
                [[f"{bounds.lower:.4f}", f"{bounds.upper:.4f}"]],
                title=(
                    f"Theorem 4 bounds (N={args.fan_in}, L={args.diameter}, "
                    f"T={args.burst:g} b, rho={args.rate:g} b/s, "
                    f"D={args.deadline:g} s)"
                ),
            )
        )
        return 0

    if args.command == "table1":
        from .reporting import format_metrics_snapshot
        from .table1 import run_table1

        result = run_table1(resolution=args.resolution)
        print(result.render())
        print(
            f"\nordering LB <= SP < heuristic <= UB: "
            f"{'holds' if result.ordering_holds else 'VIOLATED'}"
        )
        print(f"heuristic / SP improvement: {result.improvement:.2f}x")
        if obs.is_enabled():
            # Run-time side of the paper's cost comparison, then the
            # snapshot of everything the regeneration recorded.
            _measure_admission(result)
            print()
            print(format_metrics_snapshot())
        return 0

    if args.command == "verify":
        bounded_flags = (
            args.bound is not None
            or args.validate is not None
            or args.mutant is not None
            or args.out is not None
            or args.cx_dir is not None
            or args.checks is not None
        )
        if args.alpha is None:
            return _run_verify_bounded(args)
        if bounded_flags:
            raise SystemExit(
                "give either an alpha (paper-scenario check) or the "
                "bounded-checker flags, not both"
            )
        from ..config.procedures import verify_safe_assignment
        from ..routing.shortest import shortest_path_routes
        from .scenarios import paper_scenario

        sc = paper_scenario()
        routes = shortest_path_routes(sc.network, sc.pairs)
        result = verify_safe_assignment(
            sc.network,
            list(routes.values()),
            sc.registry,
            {sc.voice.name: args.alpha},
        )
        verdict = "SUCCESS" if result.success else "FAILURE"
        print(f"{verdict}: alpha={args.alpha}")
        worst = result.worst_route_delay[sc.voice.name]
        print(
            f"worst route bound {worst * 1e3:.2f} ms "
            f"(deadline {sc.voice.deadline * 1e3:.0f} ms)"
        )
        if not result.success:
            print(result.reason)
        return 0 if result.success else 1

    if args.command == "sweep":
        from .sweeps import sweep_burst, sweep_deadline

        run = sweep_deadline if args.parameter == "deadline" else sweep_burst
        sweep = run(
            include_searches=args.searches, workers=args.workers
        )
        print(sweep.render())
        return 0

    if args.command == "simulate":
        from ..config.configured import configure
        from ..errors import ConfigurationError
        from .scenarios import paper_scenario

        sc = paper_scenario()
        try:
            cfg = configure(
                sc.network,
                sc.registry,
                {sc.voice.name: args.alpha},
                routing="shortest-path",
            )
        except ConfigurationError as exc:
            print(f"FAILURE: alpha={args.alpha} does not verify: {exc}")
            return 1
        misses = cfg.validate_by_simulation(
            flows_per_route=args.flows_per_route, horizon=args.horizon
        )
        print(
            f"alpha={args.alpha} verified; adversarial simulation over "
            f"{args.horizon:g} s: deadline misses = {misses}"
        )
        ok = all(v == 0 for v in misses.values())
        print("guarantees held" if ok else "GUARANTEE VIOLATION")
        return 0 if ok else 1

    if args.command == "faults":
        return _run_faults(args)

    if args.command == "loadgen":
        return _run_loadgen(args)

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "client":
        return _run_client(args)

    if args.command == "audit":
        return _run_audit(args)

    if args.command == "top":
        return _run_top(args)

    if args.command == "report":
        from .persistence import (
            render_markdown_report,
            save_records,
            sweep_record,
            table1_record,
        )
        from .sweeps import sweep_burst, sweep_deadline
        from .table1 import run_table1

        print("regenerating Table 1 (this runs both searches)...")
        table1 = run_table1(resolution=args.resolution)
        records = [
            table1_record(table1),
            sweep_record(sweep_deadline(), "sweep-deadline"),
            sweep_record(sweep_burst(), "sweep-burst"),
        ]
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(render_markdown_report(records))
        print(f"wrote {args.output}")
        if args.records:
            save_records(records, args.records)
            print(f"wrote {args.records}")
        return 0

    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
