"""Command-line interface: ``repro-ubac <command>``.

Commands
--------
* ``bounds`` — print the Theorem 4 interval for given parameters.
* ``table1`` — regenerate the paper's Table 1 (may take ~10 s).
* ``verify`` — verify a utilization level on the MCI scenario with
  shortest-path routes, or (with ``--bound``/no alpha) run the bounded
  machine-checked admission invariants.
* ``sweep`` — print a deadline or burst sensitivity sweep.
* ``simulate`` — packet-simulate a verified alpha on the MCI scenario.
* ``faults`` — replay a fault schedule against a live co-simulation.
* ``loadgen`` — drive a controller or a running service with a workload.
* ``serve`` — run the admission service on a TCP port or Unix socket.
* ``client`` — one-shot RPC against a running admission service.
* ``audit`` — inspect or verify a service decision audit log.

Every command accepts ``--metrics-out FILE`` (Prometheus text; use a
``.jsonl`` suffix for JSON lines) and ``--trace-out FILE`` (Chrome-trace
JSON): either switch enables :mod:`repro.obs` for the run and writes the
collected data on exit.
"""

from __future__ import annotations

import argparse
import gc
import logging
import os
import sys
from typing import List, Optional

from .. import obs
from .._version import __version__

__all__ = ["main", "build_parser"]

#: What a served process never imports: OpenSSL.  ``import asyncio``
#: loads ``ssl`` (libssl and libcrypto, ≈ 4 MB resident) only to offer
#: TLS transports, and nothing served speaks TLS; ``hashlib`` maps
#: libcrypto through ``_hashlib`` where CPython's builtin ``_sha256`` /
#: ``_blake2`` compute the same digests.  A ``None`` entry in
#: ``sys.modules`` is CPython's import blocker, and both stdlib modules
#: fall back cleanly behind it.  A TLS feature must remove this first.
#: Nor numpy (≈ 0.1 s to import, ≈ 11.7 MB resident): the run-time
#: path counts slots in lists and the start-up Figure 2 is plain Python
#: (``analysis.theorem3``), so an import of it in a served process is a
#: bug, and fails loudly instead of costing start-up and memory.
NOT_SERVED_MODULES = ("ssl", "_hashlib", "numpy")


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
        "--check", dest="checks", action="append", default=None,
        metavar="CHECK_NAME",
        help=(
            "run only this row of the bounded checker's table "
            "(repeatable; default: every row)"
        ),
    )
    v.add_argument(
        "--mutant", default=None, metavar="MUTANT_NAME",
        help=(
            "verify the verifier: plant this bug in every row that must "
            "catch it; each must catch, decode and replay it"
        ),
    )
    v.add_argument(
        "--cx-dir", default=None, metavar="DIR",
        help=(
            "write decoded counterexamples here as replayable "
            "repro-workload-trace/v1 files"
        ),
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
            "write a repro-loadgen-summary/v1 JSON summary of the run "
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
            "alpha down a pre-certified ladder (0.5, 0.625, 0.75 and "
            "0.875 of --alpha) under queue pressure and restore it when "
            "drained (every rung certified at startup by the fixed point "
            "that verifies --alpha)"
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
        "--max-delay-ms", type=float, default=2.0,
        help="coalescing window in milliseconds",
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
        "--drain-grace", type=float, default=0.0, metavar="SEC",
        help=(
            "keep listeners answering (healthz 503) this long after a "
            "drain starts, so load balancers observe the flip"
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
    interpreter = (
        gc.isenabled(),
        gc.get_freeze_count(),
        [name for name in NOT_SERVED_MODULES if name not in sys.modules],
    )
    try:
        return _dispatch(args)
    finally:
        _hand_back_interpreter(*interpreter)
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


def _hand_back_interpreter(
    enabled: bool, frozen: int, unloaded: List[str]
) -> None:
    """Undo what ``serve`` did to the interpreter: the collector
    (``gc.disable()`` while it starts, ``gc.freeze()`` once it listens)
    and the import blocks it set on ``unloaded``, the
    :data:`NOT_SERVED_MODULES` not yet imported when :func:`main` was
    entered.  Tests call :func:`main` in-process, and the process goes
    on after it returns."""
    if gc.get_freeze_count() != frozen:
        gc.unfreeze()
    if enabled:
        gc.enable()
    else:
        gc.disable()
    for name in unloaded:
        if name in sys.modules and sys.modules[name] is None:
            del sys.modules[name]


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

    return start, banner, summary


def _run_serve(args: argparse.Namespace) -> int:
    """``repro-ubac serve``: one process, or ``--workers N`` of them.

    Either mode hands back ``(start, banner, summary)``;
    ``start()`` builds its server inside the running loop and returns
    it with the restored-flow count.
    """
    # Start-up (asyncio, the server modules, routes, the ledger)
    # allocates tens of thousands of objects and frees almost none:
    # collecting them before the first request is pure cost.
    gc.disable()
    # Before asyncio or any server module loads.  A name an in-process
    # caller already imported keeps its module.
    for name in NOT_SERVED_MODULES:
        sys.modules.setdefault(name, None)
    import asyncio

    from ..errors import ReproError

    async def _serve() -> None:
        server, restored = await start()
        # Listening.  What start-up built (modules, routes, the ledger)
        # lives as long as the process: freeze it out of every later
        # collection, then let the collector run.  A heap an in-process
        # caller already froze is left as it is, so that main() can
        # hand it back unchanged.
        if not gc.get_freeze_count():
            gc.freeze()
        gc.enable()
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
        # Figure 2 runs before anything listens or spawns, in every
        # mode: an alpha it rejects makes the counter compare no
        # deadline guarantee at all.
        setup = _admission_setup(args.topology)
        ladder = _certified_ladder(args, setup)
        if args.workers is None:
            start, banner, summary = _run_serve_single(args, setup, ladder)
        else:
            start, banner, summary = _run_serve_cluster(args)
    except (ReproError, ValueError) as exc:
        print(f"FAILURE: {exc}")
        return 2
    # While it serves, what the service logs at WARNING and above (a
    # failed periodic step or final cut, a dead worker) reaches stderr;
    # the library's loggers are silent everywhere else.
    stderr = logging.StreamHandler(sys.stderr)
    stderr.setLevel(logging.WARNING)
    stderr.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logging.getLogger("repro").addHandler(stderr)
    try:
        asyncio.run(_serve())
        return 0
    except (ReproError, OSError) as exc:
        # Start-up (bind, restore, spawn) and drain failures alike.
        print(f"FAILURE: {exc}")
        return 1
    finally:
        logging.getLogger("repro").removeHandler(stderr)


def _certified_ladder(args: argparse.Namespace, setup):
    """The verified ``--alpha`` plus, under ``--governor``, its rungs:
    0.5, 0.625, 0.75 and 0.875 of it."""
    from ..control.ladder import certify_ladder

    graph, registry, voice, _pairs, routes = setup
    candidates = []
    if args.governor:
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
        max_delay=args.max_delay_ms / 1000.0,
        snapshot_path=args.snapshot,
        snapshot_interval=args.snapshot_interval,
        metrics_host=args.metrics_host,
        metrics_port=args.metrics_port,
        audit_path=args.audit,
        audit_fsync_every=args.audit_fsync_every,
        audit_max_bytes=args.audit_max_bytes,
        audit_keep=args.audit_keep,
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
        from ..control.preempt import Preemptor

        preemptor = Preemptor(controller)
    if args.socket is None and args.port is None:
        raise ValueError("specify --socket PATH or --port N")

    # A live scrape endpoint is pointless without collection: it opts
    # the server process into obs (the --metrics-out/--trace-out
    # switches still control exit snapshots).
    if args.metrics_port is not None and not obs.is_enabled():
        obs.enable(fresh=True)

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
            f"rejected, {stats['released']} released) "
            f"in {stats['batches']} batches "
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

    return start, banner, summary


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "serve":
        return _run_serve(args)
    from . import commands

    if args.command == "loadgen":
        return commands._run_loadgen(args, _admission_setup(args.topology))
    return getattr(commands, f"_run_{args.command}")(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
