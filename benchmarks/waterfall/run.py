#!/usr/bin/env python3
"""waterfall — the repo's one benchmark.

Four served workloads, the end-to-end metrics a gateway operator would
see, and a per-layer waterfall that says which module spends each
microsecond between the slot kernel and the client::

    python benchmarks/waterfall/run.py                  # whole suite
    python benchmarks/waterfall/run.py --workload bulk_churn
    python benchmarks/waterfall/run.py --workload bulk_churn --trace 1
    python benchmarks/waterfall/run.py --aa             # same code twice
    python benchmarks/waterfall/run.py --quick          # seconds, for CI
    python benchmarks/waterfall/run.py --history BENCH_history.jsonl

Every run starts the real ``repro-ubac serve`` as a subprocess with the
shipped defaults, drives it closed-loop from this one process, prints
every metric by name with its unit, and checks every decision against
an in-process reference (``oracle.py``).  With ``--workload`` the last
line of standard output is one JSON object — ``correct``,
``attempted``, ``failed``, ``metrics`` — for the PR driver
(``BENCHMARK.json``).  See ``README.md`` for the metric catalogue.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    # A directory holding only the benchmark: nothing to measure.
    sys.exit(f"waterfall: no package source at {SRC}")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import numpy  # noqa: E402

import catalogue  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
import oracle  # noqa: E402
from loadgen import WORKLOADS, Served, Workload  # noqa: E402

from repro.admission.kernels import active_slot_kernel  # noqa: E402
from repro.service import JSON_BACKEND  # noqa: E402

#: Above this share of a core the loadgen, not the server, sets the
#: pace; the run measures the generator and is refused.
MAX_CLIENT_CPU_SHARE = 0.5


@dataclass(frozen=True)
class Scale:
    """How much work a run does: the full benchmark, or ``--quick``."""

    #: Length of a timed region at the workload's nominal rate
    #: (``loadgen.region_ops`` turns it into a fixed op count).
    seconds: float
    #: Cold starts behind ``setup_s`` (a traced run makes one).
    setup_starts: int
    #: Overrides every workload's own warm-up length when set.
    warmup_events: Optional[int]
    #: Sizes of the in-process replays (see ``layers.measure``).
    chain_frames: int
    side_frames: int
    single_ops: int
    preempt_warmup_events: int
    preempt_ops: int


FULL = Scale(
    seconds=catalogue.RUN_SECONDS,
    setup_starts=7,
    warmup_events=None,
    chain_frames=32,
    side_frames=8,
    single_ops=2000,
    preempt_warmup_events=6000,
    preempt_ops=2000,
)

QUICK = Scale(
    seconds=0.4,
    setup_starts=1,
    warmup_events=2000,
    chain_frames=2,
    side_frames=1,
    single_ops=100,
    preempt_warmup_events=1500,
    preempt_ops=300,
)


# ---------------------------------------------------------------------- #
# machine fingerprint, history
# ---------------------------------------------------------------------- #


def fingerprint() -> Dict[str, Any]:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", "r") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.exists(os.path.join(REPO, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", REPO, "rev-parse", "--short", "HEAD"],
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    loop = asyncio.new_event_loop()
    try:
        loop_name = type(loop).__name__
    finally:
        loop.close()
    return {
        "cpu_model": model,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "slot_kernel": active_slot_kernel(),
        "json_backend": JSON_BACKEND,
        "event_loop": loop_name,
        "commit": commit,
    }


def append_history(path: str, row: Dict[str, Any]) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------- #
# one served run and the results read off it
# ---------------------------------------------------------------------- #


@dataclass
class Drive:
    """One served run of a workload and everything measured on it."""

    workload: Workload
    seed: int
    run: Served
    counts: loadgen.Tally
    #: The nine whole-service numbers (``loadgen.served_metrics``).
    metrics: Dict[str, float]
    #: Violated oracle checks; empty when the run can be trusted.
    problems: List[str]
    notes: List[str]

    def exact(self) -> Dict[str, int]:
        """What a seed must reproduce to the last unit on the same
        code: the run is a fixed list of ops decided frame by frame."""
        counts = self.counts
        preemption = self.run.stats.get("preemption") or {}
        return {
            "attempted": counts.attempted,
            "failed": counts.failed,
            "admits": counts.admits,
            "admitted": counts.admitted,
            "hard_rt_arrivals": counts.hard_rt,
            "hard_rt_admitted": counts.hard_rt_admitted,
            "preempted_flows": preemption.get("preempted_flows", 0),
            "preempted_admits": preemption.get("preempted_admits", 0),
        }


def serve(
    workload: Workload,
    fx,
    seed: int,
    scale: Scale,
    seconds: float,
    setup_starts: int,
) -> Drive:
    """Serve ``workload``, drive its fixed-size timed region, consult
    the oracle."""
    run = loadgen.serve_and_drive(
        workload,
        fx,
        seed=seed,
        ops=loadgen.region_ops(workload, seconds),
        setup_starts=setup_starts,
        warmup_events=scale.warmup_events,
    )
    counts = loadgen.tally(run)
    problems = oracle.check(run)
    share = run.client_cpu_s / run.elapsed
    if share > MAX_CLIENT_CPU_SHARE:
        problems.append(
            f"generator-bound: the loadgen used {share:.2f} of a core"
        )
    warmup_ops = sum(len(f.ops) for f in run.frames[: run.timed_from])
    lat = loadgen.latency(run)
    rates = sorted(n / wall for n, wall, _cpu in loadgen.segments(run))
    notes = [
        f"{counts.attempted} ops in {run.elapsed:.2f} s over "
        f"{lat['samples']} requests after {warmup_ops} warm-up ops",
        f"{len(rates)} segments: slowest {rates[0]:.1f}, fastest "
        f"{rates[-1]:.1f} ops/s; whole region "
        f"{counts.attempted / run.elapsed:.1f} ops/s",
        f"round trip tail is p{lat['tail_pct']} of {lat['samples']} samples",
        f"planning {run.plan_s:.2f} s, trace {run.trace.gen_seconds:.2f} s, "
        f"loadgen CPU share {share:.3f}",
    ]
    return Drive(
        workload=workload,
        seed=seed,
        run=run,
        counts=counts,
        metrics=loadgen.served_metrics(run, counts),
        problems=problems,
        notes=notes,
    )


@dataclass
class Result:
    """One of the two results a drive gives: the gated end-to-end
    metrics, or (``traced``) the per-layer ones."""

    drive: Drive
    traced: bool
    metrics: Dict[str, float]

    @property
    def correct(self) -> bool:
        return not self.drive.problems

    def driver_line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.drive.counts.attempted,
                "failed": self.drive.counts.failed,
                "metrics": {
                    name: {
                        "value": value,
                        "unit": catalogue.BY_NAME[name].unit,
                    }
                    for name, value in self.metrics.items()
                    if self.correct
                },
            }
        )

    def history_row(self, machine: Dict[str, Any]) -> Dict[str, Any]:
        row = {
            "at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "workload": self.drive.workload.name,
            "seed": self.drive.seed,
            "traced": self.traced,
            "correct": self.correct,
            "attempted": self.drive.counts.attempted,
            "failed": self.drive.counts.failed,
            "metrics": self.metrics,
            "machine": machine,
        }
        if not self.traced:
            # The trajectory keeps the timings the gate cannot.
            row["ungated"] = {
                k: v for k, v in self.drive.metrics.items()
                if k not in self.metrics
            }
        return row


def end_to_end(drive: Drive) -> Result:
    """Tracing off: the gated metrics of one workload."""
    return Result(
        drive,
        traced=False,
        metrics={m.name: drive.metrics[m.name] for m in catalogue.END_TO_END},
    )


def live_layers(run: Served) -> Dict[str, float]:
    """Per-layer numbers only a live server of this workload has: its
    counters over the timed region (``largest_batch`` is the server's
    lifetime maximum, warm-up included), and the loadgen's own."""
    before, after = run.stats_before, run.stats

    def grew(*path: str) -> int:
        a, b = before, after
        for key in path:
            a, b = (a or {}).get(key, 0), (b or {}).get(key, 0)
        return (b or 0) - (a or 0)

    batches = grew("batches")
    return {
        "server.batches": batches,
        "server.mean_batch_ops": grew("coalesced_ops") / max(batches, 1),
        "server.largest_batch": after["largest_batch"],
        "server.shed": grew("shed"),
        "preempt.preempted_flows": grew("preemption", "preempted_flows"),
        "preempt.preempted_admits": grew("preemption", "preempted_admits"),
        "governor.inc": grew("governor", "inc"),
        "governor.dec": grew("governor", "dec"),
        "governor.hold": grew("governor", "hold"),
        "workload.trace_gen_s": run.trace.gen_seconds,
        "workload.client_cpu_share": run.client_cpu_s / run.elapsed,
    }


@dataclass
class Waterfall:
    """The in-process replay: workload-independent per-layer metrics,
    the two self-time chains, and where the spans went."""

    metrics: Dict[str, float]
    chains: Dict[str, List[Tuple[str, float]]]
    trace_path: str
    spans: int


def measure_waterfall(fx, seed: int, scale: Scale) -> Waterfall:
    workdir = loadgen.make_workdir()
    metrics, chains, recorder = layers.measure(
        fx,
        seed,
        workdir,
        warmup_events=scale.warmup_events,
        chain_frames=scale.chain_frames,
        side_frames=scale.side_frames,
        single_ops=scale.single_ops,
        preempt_warmup_events=scale.preempt_warmup_events,
        preempt_ops=scale.preempt_ops,
    )
    path = os.path.join(loadgen.WORK_ROOT, "trace.json")
    recorder.write(path)
    return Waterfall(metrics, chains, path, len(recorder.spans))


def per_layer(drive: Drive, waterfall: Waterfall) -> Result:
    """The per-layer metrics: the in-process waterfall, the live
    server's counters over the timed region (a fixed op count, so they
    repeat exactly), and the whole-service numbers that are not gated."""
    metrics = {**drive.metrics, **waterfall.metrics, **live_layers(drive.run)}
    return Result(
        drive,
        traced=True,
        metrics={m.name: float(metrics[m.name]) for m in catalogue.PER_LAYER},
    )


# ---------------------------------------------------------------------- #
# printing
# ---------------------------------------------------------------------- #


def print_machine(machine: Dict[str, Any]) -> None:
    print(
        "machine: {cpu_model} x{cpu_count} | python {python} | numpy "
        "{numpy} | slot kernel {slot_kernel} | json {json_backend} | "
        "{event_loop} | commit {commit}".format(**machine)
    )


def print_metrics(metrics: Dict[str, float]) -> None:
    for name, value in metrics.items():
        print(f"  {name:44s} {value:14.4f} {catalogue.BY_NAME[name].unit}")


def print_result(result: Result, skip=()) -> None:
    """One result's metrics (minus the names in ``skip``) or, when the
    oracle objected, only its objections: the numbers of a run that
    decided wrongly describe another program."""
    drive = result.drive
    kind = "per-layer" if result.traced else "end-to-end"
    print(f"\n== {drive.workload.name} ({kind}, seed {drive.seed}) ==")
    print(f"   {drive.workload.why}")
    if not result.correct:
        for problem in drive.problems:
            print(f"  ORACLE MISMATCH: {problem}")
        return
    print_metrics({k: v for k, v in result.metrics.items() if k not in skip})
    if not result.traced:
        print("  measured, not gated (see README, What is gated):")
        print_metrics(
            {k: v for k, v in drive.metrics.items() if k not in result.metrics}
        )
    print(f"  {'attempted':44s} {drive.counts.attempted:14d} ops")
    print(f"  {'failed':44s} {drive.counts.failed:14d} ops")
    for note in drive.notes:
        print(f"  . {note}")
    print("  oracle: ok")


def print_waterfall(waterfall: Waterfall, with_metrics: bool) -> None:
    if with_metrics:
        print("\n== layers replayed in-process (any workload) ==")
        print_metrics(waterfall.metrics)
    for tag, rows in waterfall.chains.items():
        (_name, total) = rows[-1]
        print(f"\n-- waterfall .{tag}: self time per frame op --")
        for layer, value in rows[:-1]:
            print(f"  {layer:28s} {value:9.3f} us  {value / total:6.1%}")
        print(f"  {'socket round trip':28s} {total:9.3f} us")
    print(
        f"\n{waterfall.spans} spans written to "
        f"{os.path.relpath(waterfall.trace_path)}"
    )


# ---------------------------------------------------------------------- #
# modes
# ---------------------------------------------------------------------- #


def suite(fx, seed: int, scale: Scale, seconds: float, names) -> List[Drive]:
    return [
        serve(WORKLOADS[name], fx, seed, scale, seconds, scale.setup_starts)
        for name in names
    ]


def relative_worsening(metric: catalogue.Metric, a: float, b: float) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    change = (b - a) / abs(a) if a else 0.0
    return change if metric.better == "lower" else -change


def aa(fx, seed: int, scale: Scale, seconds: float) -> int:
    """The whole suite twice on the same code, workload order reversed
    the second time.  Gated metrics must agree within their bounds —
    the shares, being ratios of a seed's counts, exactly — and so must
    the counts; the ungated timings are printed beside them."""
    names = list(WORKLOADS)
    first = suite(fx, seed, scale, seconds, names)
    second = suite(fx, seed, scale, seconds, names[::-1])[::-1]
    gated = {m.name: m for m in catalogue.END_TO_END}
    failures = 0
    print(
        f"\n{'workload':20s} {'metric':26s} {'first':>12s} "
        f"{'second':>12s} {'diff':>8s} {'bound':>7s}"
    )
    for a, b in zip(first, second):
        name = a.workload.name
        for problem in a.problems + b.problems:
            failures += 1
            print(f"{name}: ORACLE MISMATCH: {problem}")
        for key, x in a.metrics.items():
            y = b.metrics[key]
            metric = catalogue.BY_NAME[key]
            diff = abs(relative_worsening(metric, x, y))
            if key not in gated:
                bound, over = "ungated", False
            elif metric.unit == "share":
                bound, over = "exact", x != y
            else:
                bound, over = f"{metric.bound:.0%}", diff > metric.bound
            failures += over
            print(
                f"{name:20s} {key:26s} {x:12.4f} {y:12.4f} "
                f"{diff:8.1%} {bound:>7s}" + ("  OVER" if over else "")
            )
        for key, x in a.exact().items():
            y = b.exact()[key]
            failures += x != y
            print(
                f"{name:20s} {key:26s} {x:12d} {y:12d} "
                f"{'':8s} {'exact':>7s}" + ("  DIFFERS" if x != y else "")
            )
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="length of each timed region at the workload's nominal "
        "rate; the PR driver passes BENCHMARK.json's run_seconds, which "
        "is also the default",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
        help="1: the traced run (per-layer metrics) instead of the "
        "end-to-end one",
    )
    parser.add_argument(
        "--aa", action="store_true",
        help="run the suite twice on the same code and compare",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="a smoke-sized run: same code paths, numbers mean nothing",
    )
    parser.add_argument(
        "--history", metavar="FILE",
        help="append one compact JSON row per result to this file",
    )
    args = parser.parse_args(argv)
    scale = QUICK if args.quick else FULL
    seconds = args.seconds if args.seconds is not None else scale.seconds
    machine = fingerprint()
    print_machine(machine)
    fx = loadgen.fixture()
    try:
        if args.aa:
            return aa(fx, args.seed, scale, seconds)
        if args.workload is None:
            return whole_suite(fx, args, scale, seconds, machine)
        workload = WORKLOADS[args.workload]
        if args.trace:
            waterfall = measure_waterfall(fx, args.seed, scale)
            result = per_layer(
                serve(workload, fx, args.seed, scale, seconds, 1), waterfall
            )
            print_waterfall(waterfall, with_metrics=False)
        else:
            result = end_to_end(
                serve(
                    workload, fx, args.seed, scale, seconds, scale.setup_starts
                )
            )
        print_result(result)
        if args.history:
            append_history(args.history, result.history_row(machine))
        print(result.driver_line())
        return 0 if result.correct else 1
    finally:
        loadgen.remove_workdir()


def whole_suite(fx, args, scale: Scale, seconds: float, machine) -> int:
    """Every workload served once, the layers replayed once; both
    results of each workload are read off its one served run."""
    drives = suite(fx, args.seed, scale, seconds, list(WORKLOADS))
    waterfall = measure_waterfall(fx, args.seed, scale)
    results = [end_to_end(d) for d in drives]
    results += [per_layer(d, waterfall) for d in drives]
    for result in results:
        # The in-process layers are the same for every workload: print
        # them once, and under each workload only what its server said.
        print_result(result, skip=waterfall.metrics if result.traced else ())
        if args.history:
            append_history(args.history, result.history_row(machine))
    print_waterfall(waterfall, with_metrics=True)
    if not all(result.correct for result in results):
        print("\nFAILED: see ORACLE MISMATCH above")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
