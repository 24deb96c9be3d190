"""Runners of ``repro-ubac``'s one-shot commands.

Every command but ``serve`` — ``bounds``, ``table1``, ``verify``,
``sweep``, ``simulate``, ``faults``, ``loadgen``, ``client`` and
``audit`` — runs once and exits; ``_run_<command>`` runs each.
:func:`repro.experiments.cli._dispatch` imports this module when one of
them runs, so a ``serve`` process never compiles them (where bytecode
is not written, every start compiles every module it loads).
"""

from __future__ import annotations

import argparse
import os


def _measure_admission(result) -> None:
    """Replay a burst of admissions against the Table-1 heuristic routes.

    Exercises the run-time side of the paper's comparison so a
    ``table1 --metrics-out`` run captures admission-decision series
    (latency histogram, call sizes, rejections by reason) alongside the
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
        report = ChaosHarness(cfg).run(
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
    """``repro-ubac verify [--bound N ...]`` — the bounded checker: the
    rows of ``repro.verify.bounded.CHECKS`` that ``--check`` and
    ``--mutant`` select."""
    from ..errors import VerificationError
    from ..verify.bounded import select_checks
    from ..verify.instances import VerifyBound

    try:
        rows = select_checks(args.checks, args.mutant)
    except VerificationError as exc:
        print(f"FAILURE: {exc}")
        return 2
    try:
        bound = VerifyBound(
            flows=3 if args.bound is None else args.bound,
            servers=args.servers,
            max_capacity=args.max_capacity,
        )
        results = [row.check(bound, args.mutant) for row in rows]
    except VerificationError as exc:
        print(f"FAILURE: {exc}")
        return 1

    print(
        f"bounded universe: up to {bound.flows} flows, "
        f"{bound.servers} chain servers, capacities 0.."
        f"{bound.max_capacity}"
    )
    ok = True
    for row, res in zip(rows, results):
        print(
            f"{res.name}: {res.status} "
            f"({res.instances} instances, {res.elapsed_seconds:.3f} s)"
        )
        cx = res.counterexample
        if cx is None:
            ok = ok and args.mutant is None
            continue
        print(f"  counterexample: {cx.detail}")
        # Decoded counterexamples must reproduce through the real
        # implementations, or the decoding itself is broken.
        reproduced = row.reproduces(cx, args.mutant)
        ok = ok and args.mutant is not None and reproduced
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
                    "mutant": args.mutant,
                    "bound": bound.to_dict(),
                    "detail": cx.detail,
                },
            )
            print(f"  wrote replayable counterexample to {path}")
    if args.mutant is None:
        print(
            "all invariants hold within the bound"
            if ok
            else "INVARIANT VIOLATION within the bound"
        )
    else:
        print(
            f"mutant {args.mutant!r} caught, decoded, and replayed"
            if ok
            else f"MUTANT {args.mutant!r} SURVIVED verification"
        )
    return 0 if ok else 1


def _service_address(target, socket_path):
    """``(path, None)`` for ``--socket``, ``(host, port)`` for ``--target``."""
    if (target is None) == (socket_path is None):
        raise SystemExit(
            "specify exactly one of --target HOST:PORT or --socket PATH"
        )
    if socket_path is not None:
        return socket_path, None
    host, _, port = target.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"--target must be HOST:PORT, got {target!r}")
    return host, int(port)


def _run_loadgen(args: argparse.Namespace, setup) -> int:
    """``repro-ubac loadgen``; ``setup`` is the ``(graph, registry,
    voice, pairs, routes)`` of ``--topology``, built as ``serve`` builds
    it."""
    from ..admission.flowaware import FlowAwareAdmissionController
    from ..admission.utilization import UtilizationAdmissionController
    from ..workload.arrivals import open_loop_schedule
    from ..workload.loadgen import drive, schedule_events
    from ..workload.popularity import ZipfPairPopularity
    from ..workload.trace import read_trace, write_trace

    service_mode = args.target is not None or args.socket is not None
    graph, registry, voice, pairs, routes = setup

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
        import asyncio

        if args.connections < 1:
            raise SystemExit(
                f"--connections must be >= 1, got {args.connections}"
            )
        result, protocol = asyncio.run(_replay_at_service(args, events))
        target = args.socket or args.target
        label = (
            f"admission service at {target} "
            f"({protocol} frames of {result.batch_size}, "
            f"{args.connections} connection"
            f"{'' if args.connections == 1 else 's'})"
        )
        rate_note = " over the wire"
    else:
        controller = (
            UtilizationAdmissionController(
                graph, registry, {voice.name: args.alpha}, routes
            )
            if args.controller == "utilization"
            else FlowAwareAdmissionController(graph, registry, routes)
        )
        result = drive(controller, events)
        protocol = None
        target = f"in-process:{args.controller}"
        label = f"{args.controller} controller (batch={result.batch_size})"
        decision_us = controller.mean_decision_seconds() * 1e6
        rate_note = f"; mean decision {decision_us:.2f} us/request"
    print(
        f"{label}: {result.num_admitted} admitted / "
        f"{result.num_rejected} rejected of {result.num_arrivals} "
        f"arrivals, {result.num_released} released, "
        f"{result.num_skipped} skipped, {result.num_errors} errors"
    )
    print(
        f"{result.total_ops} ops in {result.elapsed_seconds:.3f} s "
        f"= {result.ops_per_second:,.0f} ops/s{rate_note}"
    )
    if protocol is not None:
        latency = result.latency_summary()
        print(
            f"frame latency p50 {latency['p50_ms']:.2f} ms, "
            f"p90 {latency['p90_ms']:.2f} ms, "
            f"p99 {latency['p99_ms']:.2f} ms "
            f"({result.frames} frames of {result.batch_size})"
        )
    _print_per_priority(result.per_priority)
    if args.summary_out is not None:
        _write_loadgen_summary(
            args.summary_out, args, result, target, protocol
        )
    return 0 if result.num_errors == 0 else 1


async def _replay_at_service(args, events):
    """``events`` over ``--connections`` clients: the result, and the
    protocol the server agreed to."""
    from ..service.client import AsyncServiceClient as Client
    from ..service.replay import replay_events

    where, port = _service_address(args.target, args.socket)
    clients = []
    try:
        for _ in range(args.connections):
            clients.append(await (
                Client.connect_unix(where, protocol=args.protocol)
                if port is None
                else Client.connect_tcp(where, port, protocol=args.protocol)
            ))
        result = await replay_events(clients, events)
        return result, clients[0].negotiated_protocol
    finally:
        for client in clients:
            await client.close()


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


def _write_loadgen_summary(path, args, result, target, protocol) -> None:
    """Write a machine-readable ``repro-loadgen-summary/v1`` run
    summary; ``protocol`` is the negotiated one, None in process."""
    import json

    summary = {
        "schema": "repro-loadgen-summary/v1",
        "target": target,
        "topology": args.topology,
        "batch_size": result.batch_size,
        "seed": args.seed,
        "ops": result.total_ops,
        "elapsed_seconds": result.elapsed_seconds,
        "ops_per_second": result.ops_per_second,
        "admitted": result.num_admitted,
        "rejected": result.num_rejected,
        "released": result.num_released,
        "errors": result.num_errors,
    }
    if protocol is not None:
        summary["protocol"] = protocol
        summary["latency_ms"] = result.latency_summary()
        summary["frames"] = result.frames
        summary["connections"] = args.connections
    if result.per_priority:
        summary["per_priority"] = result.per_priority
    if getattr(args, "ramp", None) is not None:
        summary["ramp"] = args.ramp
        summary["ramp_factor"] = args.ramp_factor
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"wrote run summary to {path}")


def _run_client(args: argparse.Namespace) -> int:
    import json

    from ..errors import ReproError, ServiceError
    from ..service.client import ServiceClient
    from ..traffic.flows import FlowSpec, fresh_flow_id

    where, port = _service_address(args.target, args.socket)
    try:
        client = (
            ServiceClient(socket_path=where, protocol=args.protocol)
            if port is None
            else ServiceClient(host=where, port=port, protocol=args.protocol)
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
        reader = iter_audit(args.log)
        records = list(reader)
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
            f"{len(report['established'])} established at end; "
            f"{reader.undecodable} undecodable lines skipped"
        )
        if report["ok"]:
            print("audit log is consistent")
            return 0
        for problem in report["problems"]:
            print(f"PROBLEM: {problem}")
        return 1
    return 0


def _run_bounds(args: argparse.Namespace) -> int:
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


def _run_table1(args: argparse.Namespace) -> int:
    from .. import obs
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


def _run_verify(args: argparse.Namespace) -> int:
    bounded_flags = (
        args.bound is not None
        or args.mutant is not None
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


def _run_sweep(args: argparse.Namespace) -> int:
    from .sweeps import sweep_burst, sweep_deadline

    run = sweep_deadline if args.parameter == "deadline" else sweep_burst
    sweep = run(include_searches=args.searches)
    print(sweep.render())
    return 0


def _run_simulate(args: argparse.Namespace) -> int:
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
