"""Closed-loop load generator of the waterfall benchmark.

One process, one event loop, at most two connections, no threads: the
clients are gateways that hold a connection and wait for each decision
before sending the next request.  The module owns

* the **traces** — Poisson arrivals, exponential holding times and
  Zipf pair popularity from :mod:`repro.workload`, merged into one
  arrival/departure event stream per ``--seed``;
* the **planner** — the event stream cut into wire frames under the
  gateway discipline (a release is only ever sent for a flow the
  reference saw admitted, and never in the frame that carries its own
  admit), with the answer the server must give recorded beside every
  op (see :class:`Reference`);
* the **served run** — a real ``repro-ubac serve`` subprocess, warmed
  up, then driven through a fixed number of ops while the client clocks
  every round trip and reads the server's CPU-time clock.

Everything the server sees is a generated op; the seed never leaves
this process.
"""

from __future__ import annotations

import asyncio
import gc
import os
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.admission import UtilizationAdmissionController
from repro.control import Preemptor
from repro.errors import ReproError
from repro.routing.shortest import shortest_path_routes
from repro.service import AsyncServiceClient
from repro.service import protocol as wire
from repro.topology import LinkServerGraph, mci_backbone
from repro.traffic import ClassRegistry, voice_class
from repro.traffic.flows import FlowSpec
from repro.traffic.generators import all_ordered_pairs
from repro.workload import (
    ZipfPairPopularity,
    open_loop_schedule,
    parse_priority_mix,
)

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")

#: Scratch space of a run (sockets, audit logs, trace files); listed
#: in the root ``.gitignore``.
WORK_ROOT = os.path.join(HERE, ".work")

#: The shipped defaults every workload serves with.
TOPOLOGY = "mci"
ALPHA = 0.3
CLASS_NAME = "voice"

#: Every arrival carries a priority drawn from this mix, on every
#: workload, so ``hard_rt_admitted_share`` is defined everywhere; only
#: a ``--preempt`` server acts on it.
PRIORITY_MIX = "hard_rt=1,soft_rt=2,elastic=7"

#: Poisson arrivals per second of trace time, on every workload.
ARRIVAL_RATE = 1000.0

#: Which pairs are the hot ones is part of the workload, not of the
#: sample: every ``--seed`` draws from the same popularity ranking, so
#: the same links saturate and ``admitted_share`` is comparable across
#: seeds.
POPULARITY_SEED = 0

#: Rates and costs are medians over this many equal segments of the
#: timed region.  A segment is most of a second of consecutive round
#: trips, so every periodic cost (collector pauses, audit fsyncs,
#: governor ticks) lands in each of them, while a disturbance of the
#: runner that covers less than half the region moves nothing.
SEGMENTS = 12

#: Latency tails are read at the highest of these percentiles that
#: still has ten samples beyond it.
TAIL_LADDER = (99, 95, 90, 80, 75)

# Outcome codes, shared with the v2 packed result slots.
ADMITTED = wire.SLOT_ADMITTED
REJECTED = wire.SLOT_REJECTED
RELEASED = wire.SLOT_RELEASED
FAILED = wire.SLOT_ERROR


@dataclass(frozen=True)
class Workload:
    """One served traffic mix (see ``README.md`` for why each exists)."""

    name: str
    why: str
    #: ``single`` = one v1 admit/release line per request, ``bulk`` =
    #: packed v2 frames, ``batch`` = v1 ``batch`` frames.
    framing: str
    frame_ops: int
    serve_args: Tuple[str, ...]
    mean_holding: float
    zipf_skew: float
    #: Ops per second this workload answers on today's code and runner.
    #: A run of ``--seconds S`` times ``S * nominal_ops_per_s`` ops: a
    #: fixed count, so the counts and shares of a seed repeat exactly
    #: and both sides of a comparison decide the same ops, and about
    #: ``S`` seconds long until the server gets faster.
    nominal_ops_per_s: int
    audit: bool = False
    preempt: bool = False
    #: Events replayed before the clock starts, to fill the ledger
    #: (about two holding times of arrivals and departures).
    warmup_events: int = 20_000


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="single_rpc",
            why=(
                "one v1 admit/release in flight: socket, asyncio, v1 "
                "codec and the coalescer window do all the work, "
                "kernels none"
            ),
            framing="single",
            frame_ops=1,
            serve_args=(),
            mean_holding=10.0,
            zipf_skew=1.0,
            nominal_ops_per_s=350,
        ),
        Workload(
            name="bulk_churn",
            why=(
                "packed v2 frames of 1024 interleaved admits and "
                "releases: coalescer run-splitting and per-run "
                "controller calls dominate"
            ),
            framing="bulk",
            frame_ops=1024,
            serve_args=(),
            mean_holding=10.0,
            zipf_skew=1.0,
            nominal_ops_per_s=20_000,
        ),
        Workload(
            name="bulk_churn_audited",
            why=(
                "byte-identical ops to bulk_churn with --audit and "
                "--metrics-port: the inline path is off, every op is "
                "queued, audited and counted"
            ),
            framing="bulk",
            frame_ops=1024,
            serve_args=("--metrics-port", "0"),
            mean_holding=10.0,
            zipf_skew=1.0,
            nominal_ops_per_s=9_000,
            audit=True,
        ),
        Workload(
            name="overload_governed",
            why=(
                "v1 batch frames against --governor --preempt on hot "
                "pairs: the only mix where control.preempt does most "
                "of the work"
            ),
            framing="batch",
            frame_ops=256,
            serve_args=(
                "--governor",
                "--governor-interval",
                "0.02",
                "--preempt",
                "--max-delay-ms",
                "1",
            ),
            mean_holding=5.0,
            zipf_skew=1.6,
            nominal_ops_per_s=3_500,
            preempt=True,
            warmup_events=14_000,
        ),
    )
}


# ---------------------------------------------------------------------- #
# the controller the server fronts, rebuilt in-process
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class Fixture:
    """What ``serve --topology mci --alpha 0.3`` builds at start-up."""

    graph: Any
    registry: Any
    pairs: List[Tuple[Any, Any]]
    routes: Dict[Tuple[Any, Any], List[Any]]

    def controller(self) -> UtilizationAdmissionController:
        return UtilizationAdmissionController(
            self.graph, self.registry, {CLASS_NAME: ALPHA}, self.routes
        )


def fixture() -> Fixture:
    network = mci_backbone()
    pairs = all_ordered_pairs(network)
    return Fixture(
        graph=LinkServerGraph(network),
        registry=ClassRegistry.two_class(voice_class()),
        pairs=pairs,
        routes=shortest_path_routes(network, pairs),
    )


# ---------------------------------------------------------------------- #
# traces
# ---------------------------------------------------------------------- #


@dataclass
class Trace:
    """Merged arrival/departure stream of one seed.

    ``events`` holds ``flow`` for an arrival and ``~flow`` (negative)
    for a departure, in time order with departures first on ties —
    the order :func:`repro.workload.schedule_events` defines.  The
    per-flow columns are indexed by ``flow``.
    """

    seed: int
    events: List[int]
    flow_ids: List[str]
    pair_of: List[int]
    priorities: List[str]
    pairs: List[Tuple[Any, Any]]
    gen_seconds: float

    def spec(self, flow: int) -> FlowSpec:
        source, destination = self.pairs[self.pair_of[flow]]
        return FlowSpec(
            self.flow_ids[flow],
            CLASS_NAME,
            source,
            destination,
            None,
            self.priorities[flow],
        )


def make_trace(
    workload: Workload, seed: int, flows: int, fx: Fixture
) -> Trace:
    """Seeded churn trace of ``flows`` arrivals and their departures."""
    begin = perf_counter()
    schedule = open_loop_schedule(
        flows,
        arrival_rate=ARRIVAL_RATE,
        mean_holding=workload.mean_holding,
        popularity=ZipfPairPopularity(
            num_pairs=len(fx.pairs),
            skew=workload.zipf_skew,
            shuffle_seed=POPULARITY_SEED,
        ),
        seed=seed,
    )
    n = schedule.num_flows
    index = np.arange(n)
    times = np.concatenate([schedule.departure_times(), schedule.times])
    is_arrival = np.concatenate([np.zeros(n, bool), np.ones(n, bool)])
    order = np.lexsort((np.concatenate([index, index]), is_arrival, times))
    events = np.concatenate([~index, index])[order]
    # Nothing after the last arrival: a tail of pure departures would
    # be a different workload.
    events = events[: int(np.flatnonzero(events >= 0)[-1]) + 1]

    mix = parse_priority_mix(PRIORITY_MIX)
    names = sorted(mix)
    weights = np.asarray([mix[name] for name in names])
    drawn = np.random.default_rng([seed, 1]).choice(
        len(names), size=n, p=weights / weights.sum()
    )
    return Trace(
        seed=seed,
        events=events.tolist(),
        flow_ids=[f"w{seed}_{i}" for i in range(n)],
        pair_of=schedule.pair_indices.tolist(),
        priorities=[names[i] for i in drawn.tolist()],
        pairs=fx.pairs,
        gen_seconds=perf_counter() - begin,
    )


# ---------------------------------------------------------------------- #
# reference decisions and the frame plan
# ---------------------------------------------------------------------- #


class Reference:
    """The package's own sequential decisions, computed in-process.

    Every admit is one ``controller.admit()`` and every release one
    ``controller.release()``, in the order the ops are sent — the
    coalescer's contract is that batching never changes a decision.
    With ``--preempt`` the coalescer gives the rejected hard-RT
    arrivals of an admit run one ``Preemptor.try_admit`` each, *after*
    the run's own decisions; :meth:`decide` mirrors exactly that order,
    which is why it takes a whole frame.

    Every frame of every run is planned here before it is sent, so the
    oracle's comparison *is* the sequential replay of the ops sent.
    """

    def __init__(self, fx: Fixture, *, preempt: bool):
        self.controller = fx.controller()
        self.preemptor = Preemptor(self.controller) if preempt else None
        self.preempted_flows = 0
        self.preempted_admits = 0
        #: Smallest free share of the verified slots after any frame:
        #: one of the two signals the server's governor samples.
        self.min_headroom = 1.0
        #: ``Preemptor.try_admit`` calls: how many, how long, how many
        #: rescued their flow, and the established flows each had to
        #: scan (summed) — the per-layer numbers of ``control.preempt``.
        self.try_admit_calls = 0
        self.try_admit_s = 0.0
        self.rescues = 0
        self.established_at_calls = 0

    @property
    def evicting_priorities(self) -> Tuple[str, ...]:
        if self.preemptor is None:
            return ()
        return self.preemptor.policy.admit_priorities

    def is_established(self, trace: "Trace", flow: int) -> bool:
        return self.controller.is_established(trace.flow_ids[flow])

    def decide(self, trace: "Trace", ops: Sequence[int]) -> List[int]:
        """Outcome codes of one frame's ops."""
        controller = self.controller
        out: List[int] = []
        i, n = 0, len(ops)
        while i < n:
            if ops[i] < 0:
                controller.release(trace.flow_ids[~ops[i]])
                out.append(RELEASED)
                i += 1
                continue
            start = i
            flows: List[FlowSpec] = []
            while i < n and ops[i] >= 0:
                flow = trace.spec(ops[i])
                flows.append(flow)
                admitted = controller.admit(flow).admitted
                out.append(ADMITTED if admitted else REJECTED)
                i += 1
            if self.preemptor is not None:
                self._preempt_pass(flows, out, start)
        if self.preemptor is not None:
            ledger = controller.ledger
            free = 1.0 - (
                ledger.used_view(CLASS_NAME).sum()
                / ledger.verified_slots(CLASS_NAME).sum()
            )
            self.min_headroom = min(self.min_headroom, float(free))
        return out

    def _preempt_pass(
        self, flows: List[FlowSpec], out: List[int], start: int
    ) -> None:
        eligible = self.evicting_priorities
        for k, flow in enumerate(flows, start):
            if out[k] != REJECTED or flow.priority not in eligible:
                continue
            self.established_at_calls += self.controller.num_established
            begin = perf_counter()
            outcome = self.preemptor.try_admit(flow)
            self.try_admit_s += perf_counter() - begin
            self.try_admit_calls += 1
            if not outcome.admitted:
                continue
            self.rescues += 1
            if outcome.evicted:
                self.preempted_flows += len(outcome.evicted)
                self.preempted_admits += 1
            out[k] = ADMITTED


@dataclass
class Frame:
    """One request on the wire and the answers it must get."""

    #: ``flow`` for an admit, ``~flow`` for a release.
    ops: List[int]
    expected: List[int]
    #: Flows the reference evicted while deciding this frame.
    evicted: int = 0
    #: The request in its wire shape, built outside the clock.
    payload: Any = None


class Planner:
    """Cuts a trace into frames under the gateway discipline.

    A gateway releases a flow only once it has seen it admitted, so a
    departure is dropped when its flow was rejected (or, on a
    preempting server, evicted), and deferred to the next frame when
    the answer that settles it is still in flight: its own admit rides
    in the frame being built, or an admit that may evict precedes it
    there.  ``replay_events`` sends such releases anyway; the server
    answers them with admission errors, which would bill its exception
    path to every metric and poison ``failed``.
    """

    def __init__(self, trace: Trace, reference):
        self.trace = trace
        self.reference = reference
        self.cursor = 0
        self._deferred: List[int] = []

    def next_frame(self, size: int, event_limit: int) -> Optional[Frame]:
        """The next frame of up to ``size`` ops, consuming events up
        to (not including) index ``event_limit``."""
        trace = self.trace
        events = trace.events
        reference = self.reference
        evicting = reference.evicting_priorities
        limit = min(event_limit, len(events))
        in_frame = set()
        may_evict = False
        deferred, self._deferred = self._deferred, []
        ops = [
            ~flow
            for flow in deferred
            if reference.is_established(trace, flow)
        ]
        cursor = self.cursor
        while len(ops) < size and cursor < limit:
            event = events[cursor]
            cursor += 1
            if event >= 0:
                in_frame.add(event)
                ops.append(event)
                may_evict = may_evict or trace.priorities[event] in evicting
            elif may_evict or ~event in in_frame:
                self._deferred.append(~event)
            elif reference.is_established(trace, ~event):
                ops.append(event)
        self.cursor = cursor
        if not ops:
            return None
        evicted = reference.preempted_flows
        expected = reference.decide(trace, ops)
        return Frame(
            ops=ops,
            expected=expected,
            evicted=reference.preempted_flows - evicted,
        )

    def frames(
        self,
        size: int,
        *,
        event_limit: Optional[int] = None,
        max_ops: Optional[int] = None,
    ) -> List[Frame]:
        """Plan frames until the events or ``max_ops`` run out."""
        if event_limit is None:
            event_limit = len(self.trace.events)
        out: List[Frame] = []
        planned = 0
        while max_ops is None or planned < max_ops:
            frame = self.next_frame(size, event_limit)
            if frame is None:
                break
            out.append(frame)
            planned += len(frame.ops)
        return out


def encode_payloads(
    frames: Sequence[Frame], trace: Trace, framing: str
) -> None:
    """Build each frame's request in the shape its client call takes.

    This is trace decoding, so it happens outside the clock; turning
    the shape into bytes is the client library's work and stays inside.
    """
    ids = trace.flow_ids
    pairs = trace.pairs
    pair_of = trace.pair_of
    priorities = trace.priorities

    def flow_obj(flow: int) -> Dict[str, Any]:
        return wire.flow_to_obj(trace.spec(flow))

    for frame in frames:
        if framing == "bulk":
            frame.payload = [
                [
                    wire.BULK_ADMIT,
                    ids[op],
                    CLASS_NAME,
                    *pairs[pair_of[op]],
                    None,
                    priorities[op],
                ]
                if op >= 0
                else [wire.BULK_RELEASE, ids[~op]]
                for op in frame.ops
            ]
        elif framing == "batch":
            frame.payload = [
                {"op": "admit", "flow": flow_obj(op)}
                if op >= 0
                else {"op": "release", "flow_id": ids[~op]}
                for op in frame.ops
            ]
        else:
            (op,) = frame.ops
            frame.payload = (
                ("admit", {"flow": flow_obj(op)})
                if op >= 0
                else ("release", {"flow_id": ids[~op]})
            )


# ---------------------------------------------------------------------- #
# the served process
# ---------------------------------------------------------------------- #


class Server:
    """A ``repro-ubac serve`` subprocess on a Unix socket."""

    def __init__(self, workdir: str, workload: Workload, tag: str):
        self.workload = workload
        self.proc: Optional[subprocess.Popen] = None
        # Relative to the working directory the loadgen shares with
        # the server: sun_path holds ~100 bytes and checkouts are deep.
        self.socket_path = os.path.relpath(
            os.path.join(workdir, f"{tag}.sock")
        )
        if len(self.socket_path) > 100:
            raise SystemExit(
                f"socket path too long for AF_UNIX: {self.socket_path}"
            )
        self.audit_path = os.path.join(workdir, f"{tag}-audit.jsonl")
        self.log_path = os.path.join(workdir, f"{tag}.log")

    def command(self) -> List[str]:
        argv = [
            sys.executable,
            "-m",
            "repro.experiments.cli",
            "serve",
            "--socket",
            self.socket_path,
            "--topology",
            TOPOLOGY,
            "--alpha",
            str(ALPHA),
            *self.workload.serve_args,
        ]
        if self.workload.audit:
            argv += ["--audit", self.audit_path]
        return argv

    def start(self) -> float:
        """Spawn and wait for the first ``health`` answer; returns the
        seconds that took."""
        for stale in (self.socket_path, self.audit_path):
            if os.path.exists(stale):
                os.unlink(stale)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        begin = perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                self.command(),
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        request = wire.encode_frame({"id": 1, "op": "health"})
        deadline = begin + 60.0
        while True:
            if self.proc.poll() is not None:
                with open(self.log_path, "rb") as fh:
                    tail = fh.read()[-2000:].decode("utf-8", "replace")
                raise SystemExit(
                    f"serve exited with {self.proc.returncode}: {tail}"
                )
            try:
                with socket.socket(socket.AF_UNIX) as sock:
                    sock.connect(self.socket_path)
                    sock.sendall(request)
                    answer = sock.makefile("rb").readline()
                if wire.decode_frame(answer).get("ok"):
                    return perf_counter() - begin
            except (OSError, ReproError):
                pass
            if perf_counter() > deadline:
                self.stop()
                raise SystemExit("serve did not answer health in 60 s")
            time.sleep(0.002)

    def cpu_seconds(self) -> float:
        """CPU time of the server process so far: its POSIX CPU-time
        clock, i.e. the utime + stime of ``/proc/PID/stat`` at
        nanosecond instead of 10 ms tick resolution (a single RPC burns
        a fraction of a tick)."""
        return time.clock_gettime(((~self.proc.pid) << 3) | 2)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", "r") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise SystemExit("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; SIGKILL as a last
        resort.  Idempotent."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=20)


def cold_starts(workdir: str, workload: Workload, count: int) -> List[float]:
    """Spawn-to-health seconds of ``count`` servers started and stopped
    one after another (their files apart from the driven server's)."""
    server = Server(workdir, workload, "cold")
    times: List[float] = []
    for _ in range(count):
        times.append(server.start())
        server.stop()
    return times


def _workdir() -> str:
    return os.path.join(WORK_ROOT, f"run-{os.getpid()}")


def make_workdir() -> str:
    """This process's scratch directory, emptied."""
    remove_workdir()
    os.makedirs(_workdir())
    return _workdir()


def remove_workdir() -> None:
    shutil.rmtree(_workdir(), ignore_errors=True)


# ---------------------------------------------------------------------- #
# driving the server
# ---------------------------------------------------------------------- #


@dataclass
class Sample:
    """One timed round trip."""

    sent: float
    answered: float
    ops: int
    #: Server CPU seconds consumed up to the answer.
    server_cpu: float


@dataclass
class Served:
    """Everything one served run observed."""

    workload: Workload
    trace: Trace
    setup_times: List[float]
    #: Every frame sent, warm-up first, with the per-op outcome codes
    #: the server answered beside it; the oracle checks all of them.
    frames: List[Frame] = field(default_factory=list)
    answers: List[List[int]] = field(default_factory=list)
    #: Index of the first timed frame.
    timed_from: int = 0
    samples: List[Sample] = field(default_factory=list)
    #: Clock and server CPU seconds when the timed region began.
    started: float = 0.0
    server_cpu_started: float = 0.0
    client_cpu_s: float = 0.0
    plan_s: float = 0.0
    #: The server's ``stats`` op when the timed region began and ended.
    stats_before: Dict[str, Any] = field(default_factory=dict)
    stats: Dict[str, Any] = field(default_factory=dict)
    #: VmHWM of the server when the timed region ended.
    peak_rss_mb: float = 0.0
    #: Smallest ledger headroom the reference saw (preempting runs).
    min_headroom: float = 1.0
    audit_path: Optional[str] = None

    @property
    def elapsed(self) -> float:
        return self.samples[-1].answered - self.started

    @property
    def latencies(self) -> List[float]:
        return [s.answered - s.sent for s in self.samples]


def _codes_from_results(results: Sequence[Dict[str, Any]]) -> List[int]:
    out: List[int] = []
    for r in results:
        if not r.get("ok"):
            out.append(FAILED)
            continue
        body = r.get("result", {})
        if body.get("released"):
            out.append(RELEASED)
        else:
            out.append(ADMITTED if body.get("admitted") else REJECTED)
    return out


async def send(
    client: AsyncServiceClient, framing: str, frame: Frame
) -> List[int]:
    """One round trip; returns the per-op outcome codes."""
    try:
        if framing == "bulk":
            slots = await client.bulk(frame.payload, raw=True)
            return [slot[0] for slot in slots]
        if framing == "batch":
            return _codes_from_results(await client.batch(frame.payload))
        op, body = frame.payload
        result = await client.request(op, **body)
        if op == "release":
            return [RELEASED if result.get("released") else FAILED]
        return [ADMITTED if result.get("admitted") else REJECTED]
    except ReproError:
        # Sheds, timeouts and protocol errors fail every op of the
        # frame; a rejected admit is a decision and never lands here.
        return [FAILED] * len(frame.ops)


async def connect(path: str, framing: str) -> AsyncServiceClient:
    name = "v2" if framing == "bulk" else "v1"
    client = await AsyncServiceClient.connect_unix(
        path, protocol=name, retry_overloaded=False
    )
    if client.negotiated_protocol != name:
        raise SystemExit(f"server refused protocol {name}")
    return client


def _self_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


async def _drive(
    run: Served,
    server: Server,
    planner: Planner,
    ops: int,
    warmup_events: int,
) -> None:
    workload, trace = run.workload, run.trace
    framing = workload.framing
    client = await connect(server.socket_path, framing)
    warm_client, warm_framing, warm_size = client, framing, workload.frame_ops
    try:
        if framing == "single":
            # 20k single RPCs would take a minute; the ledger fills
            # through packed frames on a second connection instead.
            warm_framing, warm_size = "bulk", 1024
            warm_client = await connect(server.socket_path, "bulk")

        def plan(size, how, **limits) -> List[Frame]:
            begin = perf_counter()
            frames = planner.frames(size, **limits)
            encode_payloads(frames, trace, how)
            run.plan_s += perf_counter() - begin
            return frames

        # -- warm-up: fill the ledger, outside the clock ---------------- #
        for frame in plan(warm_size, warm_framing, event_limit=warmup_events):
            run.answers.append(await send(warm_client, warm_framing, frame))
            run.frames.append(frame)
        run.timed_from = len(run.frames)

        # -- timed region: a fixed number of ops ------------------------ #
        frames = plan(workload.frame_ops, framing, max_ops=ops)
        if sum(len(frame.ops) for frame in frames) < ops:
            raise SystemExit(
                f"trace too short: {ops} ops asked, the events ran out"
            )
        run.stats_before = await client.stats()
        gc.collect()
        gc.freeze()
        answers, sent, samples = run.answers, run.frames, run.samples
        cpu0 = _self_cpu_seconds()
        run.server_cpu_started = server.cpu_seconds()
        run.started = perf_counter()
        for frame in frames:
            t0 = perf_counter()
            codes = await send(client, framing, frame)
            t1 = perf_counter()
            samples.append(Sample(t0, t1, len(codes), server.cpu_seconds()))
            answers.append(codes)
            sent.append(frame)
        run.client_cpu_s = _self_cpu_seconds() - cpu0
        gc.unfreeze()
        run.stats = await client.stats()
        run.peak_rss_mb = server.peak_rss_mb()
    finally:
        if warm_client is not client:
            await warm_client.close()
        await client.close()


def serve_and_drive(
    workload: Workload,
    fx: Fixture,
    *,
    seed: int,
    ops: int,
    setup_starts: int,
    warmup_events: Optional[int] = None,
) -> Served:
    """Cold-start the server, warm it up, drive ``ops`` timed ops.

    ``setup_starts`` cold starts are timed in all: the driven server's
    own, and the rest split before and after the run, so that a slow
    spell of the runner shorter than the run cannot cover most of them.
    """
    workdir = make_workdir()
    warmup = warmup_events or workload.warmup_events
    # A flow is ~1.7 ops (a rejected one never departs); the margin
    # covers the departures cut off after the last arrival.
    trace = make_trace(workload, seed, int(0.7 * (warmup + ops)) + 1000, fx)
    reference = Reference(fx, preempt=workload.preempt)
    extra = setup_starts - 1
    setup_times = cold_starts(workdir, workload, extra // 2)
    server = Server(workdir, workload, "live")
    setup_times.append(server.start())
    try:
        run = Served(workload=workload, trace=trace, setup_times=setup_times)
        asyncio.run(
            _drive(run, server, Planner(trace, reference), ops, warmup)
        )
    finally:
        server.stop()
    setup_times += cold_starts(workdir, workload, extra - extra // 2)
    run.min_headroom = reference.min_headroom
    if workload.audit:
        # Complete only now: the drain flushed and closed the log.
        run.audit_path = server.audit_path
    return run


def region_ops(workload: Workload, seconds: float) -> int:
    """Ops of a timed region ``seconds`` long at the workload's nominal
    rate: whole frames, and at least one per segment."""
    frames = max(
        SEGMENTS,
        -(-int(workload.nominal_ops_per_s * seconds) // workload.frame_ops),
    )
    return frames * workload.frame_ops


# ---------------------------------------------------------------------- #
# whole-service metrics of a served run
# ---------------------------------------------------------------------- #


def percentile(sorted_values: Sequence[float], pct: int) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    n = len(sorted_values)
    return sorted_values[min(n - 1, (n * pct) // 100)]


@dataclass
class Tally:
    """Op counts of a served run, from the server's answers."""

    #: Ops of the timed region, and those answered with an error.
    attempted: int = 0
    failed: int = 0
    #: Admits of the whole run, warm-up included (both fixed counts):
    #: a timed region of single RPCs alone holds too few hard-RT
    #: arrivals for a share that is alike across seeds.
    admits: int = 0
    admitted: int = 0
    hard_rt: int = 0
    hard_rt_admitted: int = 0


def tally(run: Served) -> Tally:
    t = Tally()
    priorities = run.trace.priorities
    for k, (frame, codes) in enumerate(zip(run.frames, run.answers)):
        if k >= run.timed_from:
            t.attempted += len(codes)
            t.failed += codes.count(FAILED)
        for op, code in zip(frame.ops, codes):
            if op < 0:
                continue
            hard = priorities[op] == "hard_rt"
            t.admits += 1
            t.hard_rt += hard
            if code == ADMITTED:
                t.admitted += 1
                t.hard_rt_admitted += hard
    return t


def segments(run: Served) -> List[Tuple[int, float, float]]:
    """``(ops, wall seconds, server CPU seconds)`` of each of
    ``SEGMENTS`` equal runs of consecutive round trips of the timed
    region, each timed from the end of the one before."""
    samples = run.samples
    n = len(samples)
    count = min(SEGMENTS, n)
    at, cpu = run.started, run.server_cpu_started
    out: List[Tuple[int, float, float]] = []
    for k in range(count):
        part = samples[k * n // count : (k + 1) * n // count]
        last = part[-1]
        out.append(
            (
                sum(sample.ops for sample in part),
                last.answered - at,
                last.server_cpu - cpu,
            )
        )
        at, cpu = last.answered, last.server_cpu
    return out


def tail_percentile(samples: int) -> int:
    """The highest ladder percentile with ten samples beyond it."""
    for pct in TAIL_LADDER:
        if samples * (100 - pct) >= 1000:
            return pct
    return 50


def served_metrics(run: Served, counts: Tally) -> Dict[str, float]:
    """The nine whole-service numbers of one served run, by the names
    ISSUE 11 gave them; the catalogue says which of them are gated."""
    parts = segments(run)
    lat = latency(run)
    return {
        "ops_per_s": statistics.median(
            ops / wall for ops, wall, _cpu in parts
        ),
        "server_cpu_us_per_op": statistics.median(
            1e6 * cpu / ops for ops, _wall, cpu in parts
        ),
        "latency_p50_ms": lat["p50_ms"],
        "latency_tail_ms": lat["tail_ms"],
        "failed_share": counts.failed / counts.attempted,
        "admitted_share": counts.admitted / counts.admits,
        "hard_rt_admitted_share": counts.hard_rt_admitted / counts.hard_rt,
        "server_rss_mb": run.peak_rss_mb,
        "setup_s": statistics.median(run.setup_times),
    }


def latency(run: Served) -> Dict[str, float]:
    """Round-trip percentiles of the timed region (per op on
    ``single_rpc``, per frame elsewhere: the wait of every op in it)."""
    lat = sorted(run.latencies)
    tail = tail_percentile(len(lat))
    return {
        "p50_ms": 1e3 * percentile(lat, 50),
        "tail_ms": 1e3 * percentile(lat, tail),
        "tail_pct": tail,
        "samples": len(lat),
    }
