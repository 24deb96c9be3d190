#!/usr/bin/env python
"""Batch-admission throughput bench -> ``BENCH_admission.json``.

Drives ≥1M admit/release operations through
:class:`UtilizationAdmissionController` on the NSFNET backbone with the
deterministic :mod:`repro.workload` generator: one strictly sequential
run (the per-call ``admit``/``release`` baseline) and one
``admit_batch``/``release_batch`` run per batch size.  The compact
summary (schema ``repro-admission-bench/v1``) records ops/sec and the
speedup over the sequential baseline::

    python benchmarks/run_admission_bench.py              # -> BENCH_admission.json
    python benchmarks/run_admission_bench.py --output other.json
    python benchmarks/run_admission_bench.py --flows 20000 --seq-flows 5000
    python benchmarks/run_admission_bench.py --validate BENCH_admission.json

A ``kernels`` section times the raw ``batch_slot_decisions`` slot
kernel (the vectorized numpy kernel) and the sequential reference loop
over identical 1024-row inputs.

``--validate`` checks a summary against the schema — including the
acceptance floors that batch size 1024 sustains ≥5x the sequential
throughput over ≥1M total operations and that the numpy kernel
sustains ≥1M rows/s — and exits non-zero on any violation; CI runs it
against the checked-in snapshot.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

BENCH_SCHEMA = "repro-admission-bench/v1"

#: Acceptance floors validated by ``--validate`` (and CI).
MIN_TOTAL_OPS = 1_000_000
MIN_SPEEDUP_AT_1024 = 5.0

BATCH_SIZES = (64, 256, 1024, 4096)

#: Raw slot-kernel cells: rows per timed call, and the floor the
#: kernel must clear (the sequential reference is recorded but exempt —
#: it exists for differential testing, not speed).
KERNEL_BATCH_ROWS = 1024
MIN_KERNEL_ROWS_PER_SECOND = 1_000_000

_RUN_FIELDS = ("batch_size", "ops", "seconds", "ops_per_second", "speedup")

_KERNEL_RUN_FIELDS = ("backend", "rows", "seconds", "rows_per_second")


def _build_events(num_flows: int, seed: int, alpha_args: dict):
    from repro.traffic.generators import all_ordered_pairs
    from repro.workload import (
        ZipfPairPopularity,
        open_loop_schedule,
        schedule_events,
    )

    network = alpha_args["network"]
    pairs = all_ordered_pairs(network)
    popularity = ZipfPairPopularity(
        num_pairs=len(pairs),
        skew=alpha_args["zipf_skew"],
        shuffle_seed=seed,
    )
    schedule = open_loop_schedule(
        num_flows,
        arrival_rate=alpha_args["arrival_rate"],
        mean_holding=alpha_args["mean_holding"],
        popularity=popularity,
        seed=seed,
    )
    return schedule_events(schedule, pairs, "voice")


def _timed_drive(controller, events, **kwargs):
    """Run :func:`repro.workload.drive` with the cyclic GC paused.

    ``drive`` pre-builds the whole run before its clock starts, so ~10^6
    GC-tracked objects (flow specs, events, epoch lists) stay alive
    throughout — the controller itself retains nothing per decision —
    and generation-0 collections fire thousands of times while freeing
    almost nothing: a flat per-op tax that swamps the actual admission
    cost in *both* modes.  Pausing collection during the timed region
    (pyperf does the same) measures the controllers, not the collector.
    """
    from repro.workload import drive

    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        return drive(controller, events, **kwargs)
    finally:
        if enabled:
            gc.enable()


def _kernel_workload(rows: int, *, width: int, num_servers: int, seed: int):
    """Padded slot-kernel inputs with a mixed admit/reject outcome.

    Every row draws ``width`` *distinct* server indices (routes never
    visit a server twice), and the free vector starts at 3/4 of the
    expected per-server demand — an overloaded boundary where roughly
    a quarter of the batch is rejected, so both the commit and the
    reject paths are timed (the all-admit steady state takes a fast
    path that would make the numbers meaninglessly rosy).
    """
    import numpy as np

    from repro.admission import PADDING_FREE, pad_server_matrix

    rng = np.random.default_rng(seed)
    draws = [
        rng.choice(num_servers, size=width, replace=False)
        for _ in range(rows)
    ]
    matrix, _lengths = pad_server_matrix(draws, num_servers)
    free = np.full(num_servers + 1,
                   (3 * rows * width) // (4 * num_servers),
                   dtype=np.int64)
    free[num_servers] = PADDING_FREE
    return matrix, free


def run_kernel_bench(*, seed: int, target_rows: int = 4_000_000) -> dict:
    """Raw ``batch_slot_decisions`` throughput, kernel and reference.

    Times the numpy kernel (and the sequential reference loop, for
    scale) over identical :data:`KERNEL_BATCH_ROWS`-row inputs, free
    vector copied per call.
    """
    from time import perf_counter

    from repro.admission.kernels import (
        batch_slot_decisions_numpy,
        batch_slot_decisions_sequential,
    )

    matrix, free = _kernel_workload(
        KERNEL_BATCH_ROWS, width=4, num_servers=32, seed=seed
    )
    rows = matrix.shape[0]
    runs = []
    for backend, kernel in (
        ("numpy", batch_slot_decisions_numpy),
        ("sequential", batch_slot_decisions_sequential),
    ):
        kernel(matrix, free.copy())  # warm (caches)
        # The sequential reference is ~100x slower; keep its cell
        # honest but short.
        reps = max(
            1,
            (target_rows if backend != "sequential" else rows * 8)
            // rows,
        )
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        begin = perf_counter()
        try:
            for _ in range(reps):
                kernel(matrix, free.copy())
        finally:
            if enabled:
                gc.enable()
        elapsed = perf_counter() - begin
        runs.append(
            {
                "backend": backend,
                "rows": rows * reps,
                "seconds": elapsed,
                "rows_per_second": rows * reps / elapsed,
            }
        )
        print(
            f"kernel {backend:>10}: {rows * reps} rows in "
            f"{elapsed:.3f} s = {rows * reps / elapsed:,.0f} rows/s"
        )
    best = max(runs, key=lambda r: r["rows_per_second"])
    return {
        "batch_rows": KERNEL_BATCH_ROWS,
        "runs": runs,
        "best": {
            "backend": best["backend"],
            "rows_per_second": best["rows_per_second"],
        },
    }


def run_bench(
    output: pathlib.Path,
    *,
    flows: int,
    seq_flows: int,
    alpha: float,
    seed: int,
) -> int:
    from repro.admission import UtilizationAdmissionController
    from repro.routing.shortest import shortest_path_routes
    from repro.topology import LinkServerGraph, nsfnet_backbone
    from repro.traffic import ClassRegistry, voice_class
    from repro.traffic.generators import all_ordered_pairs
    from repro.workload import drive

    network = nsfnet_backbone()
    graph = LinkServerGraph(network)
    registry = ClassRegistry.two_class(voice_class())
    routes = shortest_path_routes(network, all_ordered_pairs(network))
    alphas = {"voice": alpha}
    workload = {
        "network": network,
        "arrival_rate": 1000.0,
        "mean_holding": 10.0,
        "zipf_skew": 1.0,
    }

    def fresh():
        return UtilizationAdmissionController(
            graph, registry, alphas, routes
        )

    print(f"generating workloads ({flows} batch / {seq_flows} seq flows)")
    batch_events = _build_events(flows, seed, workload)
    seq_events = _build_events(seq_flows, seed + 1, workload)

    # Warm-up: JIT nothing, but fault in caches / allocator pools.
    drive(fresh(), seq_events, batch_size=256)

    seq = _timed_drive(fresh(), seq_events, mode="sequential")
    print(
        f"sequential: {seq.total_ops} ops in {seq.elapsed_seconds:.3f} s "
        f"= {seq.ops_per_second:,.0f} ops/s "
        f"({seq.num_admitted}/{seq.num_arrivals} admitted)"
    )

    total_ops = seq.total_ops
    batch_runs = []
    for batch_size in BATCH_SIZES:
        result = _timed_drive(fresh(), batch_events, batch_size=batch_size)
        speedup = result.ops_per_second / seq.ops_per_second
        total_ops += result.total_ops
        batch_runs.append(
            {
                "batch_size": batch_size,
                "ops": result.total_ops,
                "seconds": result.elapsed_seconds,
                "ops_per_second": result.ops_per_second,
                "speedup": speedup,
            }
        )
        print(
            f"batch {batch_size:>5}: {result.total_ops} ops in "
            f"{result.elapsed_seconds:.3f} s = "
            f"{result.ops_per_second:,.0f} ops/s ({speedup:.2f}x)"
        )

    kernels = run_kernel_bench(seed=seed)

    speedup_at_1024 = next(
        r["speedup"] for r in batch_runs if r["batch_size"] == 1024
    )
    summary = {
        "schema": BENCH_SCHEMA,
        "topology": "nsfnet",
        "controller": "utilization",
        "alpha": alpha,
        "seed": seed,
        "flows": flows,
        "seq_flows": seq_flows,
        "total_ops": total_ops,
        "sequential": {
            "ops": seq.total_ops,
            "seconds": seq.elapsed_seconds,
            "ops_per_second": seq.ops_per_second,
        },
        "batch_runs": batch_runs,
        "speedup_at_1024": speedup_at_1024,
        "kernels": kernels,
    }
    output.write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    print(
        f"wrote {output} (total_ops={total_ops}, "
        f"speedup@1024={speedup_at_1024:.2f}x, "
        f"best kernel {kernels['best']['backend']} at "
        f"{kernels['best']['rows_per_second']:,.0f} rows/s)"
    )
    problems = validate_summary(summary)
    for problem in problems:
        print(f"FLOOR MISSED: {problem}")
    return 1 if problems else 0


def validate_summary(data: dict) -> list:
    """Schema/floor violations in a summary dict (empty = valid)."""
    problems = []
    if data.get("schema") != BENCH_SCHEMA:
        problems.append(
            f"schema is {data.get('schema')!r}, expected {BENCH_SCHEMA!r}"
        )
        return problems
    for key in ("topology", "controller"):
        if not isinstance(data.get(key), str) or not data[key]:
            problems.append(f"{key} must be a non-empty string")
    seq = data.get("sequential")
    if not isinstance(seq, dict):
        problems.append("sequential must be an object")
    else:
        for key in ("ops", "seconds", "ops_per_second"):
            value = seq.get(key)
            if not isinstance(value, (int, float)) or value <= 0:
                problems.append(
                    f"sequential.{key} must be a positive number, "
                    f"got {value!r}"
                )
    runs = data.get("batch_runs")
    if not isinstance(runs, list) or not runs:
        problems.append("batch_runs must be a non-empty list")
        runs = []
    sizes = set()
    for i, run in enumerate(runs):
        if not isinstance(run, dict):
            problems.append(f"batch_runs[{i}] is not an object")
            continue
        for key in _RUN_FIELDS:
            value = run.get(key)
            if not isinstance(value, (int, float)) or value <= 0:
                problems.append(
                    f"batch_runs[{i}].{key} must be a positive "
                    f"number, got {value!r}"
                )
        size = run.get("batch_size")
        if size in sizes:
            problems.append(f"duplicate batch_size {size!r}")
        sizes.add(size)
    if 1024 not in sizes:
        problems.append("batch_runs must include batch_size 1024")
    total_ops = data.get("total_ops")
    if not isinstance(total_ops, (int, float)):
        problems.append("total_ops must be a number")
    elif total_ops < MIN_TOTAL_OPS:
        problems.append(
            f"total_ops {total_ops} below the {MIN_TOTAL_OPS} floor"
        )
    speedup = data.get("speedup_at_1024")
    if not isinstance(speedup, (int, float)):
        problems.append("speedup_at_1024 must be a number")
    elif speedup < MIN_SPEEDUP_AT_1024:
        problems.append(
            f"speedup_at_1024 {speedup:.2f} below the "
            f"{MIN_SPEEDUP_AT_1024}x floor"
        )
    problems.extend(_validate_kernels_section(data.get("kernels")))
    return problems


def _validate_kernels_section(kernels) -> list:
    """Violations in the raw slot-kernel section.

    The >=1M rows/s floor applies to every cell except the
    ``sequential`` reference loop (present for scale, exempt by
    design); ``numpy`` must always have a cell.
    """
    problems = []
    if not isinstance(kernels, dict):
        return ["kernels must be an object"]
    runs = kernels.get("runs")
    if not isinstance(runs, list) or not runs:
        return ["kernels.runs must be a non-empty list"]
    measured = set()
    for i, run in enumerate(runs):
        if not isinstance(run, dict):
            problems.append(f"kernels.runs[{i}] is not an object")
            continue
        backend = run.get("backend")
        measured.add(backend)
        for key in _KERNEL_RUN_FIELDS[1:]:
            value = run.get(key)
            if not isinstance(value, (int, float)) or value <= 0:
                problems.append(
                    f"kernels.runs[{i}].{key} must be a positive "
                    f"number, got {value!r}"
                )
                break
        else:
            if (
                backend != "sequential"
                and run["rows_per_second"] < MIN_KERNEL_ROWS_PER_SECOND
            ):
                problems.append(
                    f"kernel backend {backend!r} sustains only "
                    f"{run['rows_per_second']:,.0f} rows/s, floor is "
                    f"{MIN_KERNEL_ROWS_PER_SECOND:,}"
                )
    if "numpy" not in measured:
        problems.append("kernels.runs is missing the 'numpy' backend")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", default=str(REPO / "BENCH_admission.json"),
        help="summary path (default: BENCH_admission.json at repo root)",
    )
    parser.add_argument(
        "--flows", type=int, default=150_000,
        help="flow arrivals per batch run",
    )
    parser.add_argument(
        "--seq-flows", type=int, default=60_000,
        help="flow arrivals in the sequential baseline run",
    )
    parser.add_argument(
        "--alpha", type=float, default=0.3,
        help="voice-class utilization assignment",
    )
    parser.add_argument("--seed", type=int, default=7, help="workload seed")
    parser.add_argument(
        "--validate", metavar="FILE", default=None,
        help="validate a summary file against schema + floors and exit",
    )
    args = parser.parse_args(argv)
    if args.validate:
        problems = validate_summary(
            json.loads(pathlib.Path(args.validate).read_text())
        )
        for problem in problems:
            print(f"INVALID: {problem}")
        if not problems:
            print(f"{args.validate}: valid {BENCH_SCHEMA}")
        return 1 if problems else 0
    return run_bench(
        pathlib.Path(args.output),
        flows=args.flows,
        seq_flows=args.seq_flows,
        alpha=args.alpha,
        seed=args.seed,
    )


if __name__ == "__main__":
    raise SystemExit(main())
