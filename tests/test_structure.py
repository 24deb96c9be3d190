"""Structure ratchets — "there is one of each", enforced where it runs.

Each row of ``RATCHETS`` names one way a duplicate this repository
deleted would come back (a second framing loop, a second kernel call
site, a package-level import on the serve path …), as a regular
expression over named roots.  They were ``grep`` steps in a CI workflow
that executes nowhere a session can see; tier-1 is the check that runs.

More checks of the same kind ride along: every row is shown to fire on
a planted offender (so a renamed file or a moved root cannot turn a row
into a silent pass), every public function and class of the package —
and every method, module constant and option — has a caller that is not
a test (an option is passed only where its value starts), every module
the tool config names exists, every pytest node id the docs cite
resolves to a test, and the one benchmark's command lines are accepted
by the ``serve`` parser they are passed to.
"""

from __future__ import annotations

import ast
import builtins
import functools
import importlib
import importlib.util
import json
import pathlib
import re
import sys
from dataclasses import dataclass
from typing import List, Optional, Tuple

import pytest

from repro.experiments.cli import build_parser
from test_paper_benches import PAPER_BENCHES

THIS_FILE = pathlib.Path(__file__).resolve()
REPO = THIS_FILE.parent.parent

#: A directory root is walked for these; a root that names a file is
#: read whatever its suffix.
TEXT_SUFFIXES = (".py", ".md", ".toml")

#: The subpackages of ``repro`` (none may be imported as a package from
#: library code).
PACKAGES = (
    "admission|analysis|config|control|experiments|faults|routing|service"
    "|simulation|topology|traffic|verify|workload"
)


@dataclass(frozen=True)
class Ratchet:
    name: str
    #: What coming back looks like, and what it cost last time.
    why: str
    pattern: str
    #: Files and directories, relative to the repository root.
    roots: Tuple[str, ...]
    #: ``(path, line)``: a line that must trip the row when planted.
    offender: Tuple[str, str]
    #: Regular expressions over ``path:lineno:text`` (``grep -n``'s
    #: format) for the matches that are the one legitimate home.  An
    #: allowance nothing uses is reported as stale.
    allowed: Tuple[str, ...] = ()
    #: Matching lines tolerated outside ``allowed``.  The tree must sit
    #: exactly at it: a ratchet only goes down.
    max_count: int = 0


RATCHETS = (
    Ratchet(
        name="No retained decision history",
        why=(
            "AdmissionController keeps O(1) counters, not a list of "
            "every decision it ever made (memory stays O(established)); "
            "a `.decisions` attribute coming back is that leak."
        ),
        pattern=r"\.decisions\b",
        roots=("src/repro",),
        offender=(
            "src/repro/admission/base.py",
            "        self.decisions.append(decision)",
        ),
    ),
    Ratchet(
        name="One connection layer",
        why=(
            "Read loops, hello negotiation and frame-length checks live "
            "in repro.service.conn (grammar: protocol.py) and nowhere "
            "else; http.py is the scrape listener's own HTTP line reader."
        ),
        pattern=(
            r"FRAME_HEADER_BYTES|reader\.readline\(|def _(read_v[12]"
            r"|peek_hello|negotiate|handshake|read_loop_v[12]"
            r"|dispatch_v[12])\b"
        ),
        roots=("src/repro/service",),
        offender=(
            "src/repro/service/router.py",
            "            line = await reader.readline()",
        ),
        allowed=(
            r"^src/repro/service/protocol\.py:",
            r"^src/repro/service/conn\.py:",
            r"^src/repro/service/http\.py:",
        ),
    ),
    Ratchet(
        name="One lifecycle: one signal installer",
        why=(
            "SIGTERM/SIGINT, request_drain, serve_forever and the drain "
            "skeleton are conn.Lifecycle's; a second add_signal_handler "
            "is the copy in server.py and cluster.py coming back, whose "
            "periodic snapshot loop had drifted into dying silently."
        ),
        pattern=r"add_signal_handler",
        roots=("src/repro/service",),
        offender=(
            "src/repro/service/cluster.py",
            "                loop.add_signal_handler(sig, self.request_drain)",
        ),
        allowed=(r"^src/repro/service/conn\.py:",),
    ),
    Ratchet(
        name="One drain state: the listener holds it",
        why=(
            "A served process's drain flag and listening time live on "
            "its ConnectionLayer, which every status surface and the "
            "refusal rule read; a second copy is the router's own flag "
            "coming back, which set only after --drain-grace and left a "
            "cluster answering health `ok` and forwarding admits."
        ),
        pattern=(
            r"(?<![\w\"'])_?(draining|started_at)\b\s*"
            r"(:\s*[\w\[\]., ]+)?=(?!=)"
        ),
        roots=("src/repro",),
        offender=(
            "src/repro/service/router.py",
            "        self._draining = True",
        ),
        allowed=(r"^src/repro/service/conn\.py:",),
    ),
    Ratchet(
        name="One lifecycle: one listener bind",
        why=(
            "ConnectionLayer.listen claims the path and binds with the "
            "layer's frame limit for the server and the router alike; a "
            "second start_unix_server is a listener that skips one."
        ),
        pattern=r"start_unix_server",
        roots=("src/repro/service",),
        offender=(
            "src/repro/service/router.py",
            "        self._server = await asyncio.start_unix_server(",
        ),
        allowed=(r"^src/repro/service/conn\.py:",),
    ),
    Ratchet(
        name="One decision core: one admit kernel call site",
        why=(
            "MicroBatchCoalescer._decide is the only caller of the "
            "batch kernels under service/; a second admit_batch_routed "
            "call site is a mirrored decision path."
        ),
        pattern=r"admit_batch_routed\(",
        roots=("src/repro/service",),
        offender=(
            "src/repro/service/server.py",
            "        decisions = controller.admit_batch_routed(flows)",
        ),
        max_count=1,
    ),
    Ratchet(
        name="One decision core: one release kernel call site",
        why=(
            "MicroBatchCoalescer._decide is the only caller of the "
            "batch kernels under service/; a second release_batch call "
            "site is a mirrored decision path."
        ),
        pattern=r"release_batch\(",
        roots=("src/repro/service",),
        offender=(
            "src/repro/service/server.py",
            "        released = controller.release_batch(flow_ids)",
        ),
        max_count=1,
    ),
    Ratchet(
        name="One decision core: no _*_bulk mirror",
        why=(
            "The drain loop and the inline branch of submit_bulk are "
            "carriers around _decide; a `_*_bulk` decision mirror in "
            "coalescer.py is the fork coming back."
        ),
        pattern=r"def _\w+_bulk\b",
        roots=("src/repro/service/coalescer.py",),
        offender=(
            "src/repro/service/coalescer.py",
            "    def _admit_bulk(self, ops):",
        ),
    ),
    Ratchet(
        name="One decision core: one outcome encoder",
        why=(
            "AdmissionService._bulk_slot is the only outcome -> wire "
            "mapping; a second SLOT_ADMITTED in server.py is a second "
            "encoder."
        ),
        pattern=r"SLOT_ADMITTED",
        roots=("src/repro/service/server.py",),
        offender=(
            "src/repro/service/server.py",
            "            slots.append(wire.SLOT_ADMITTED)",
        ),
        max_count=1,
    ),
    Ratchet(
        name="Audited is the fast path: telemetry picks no path",
        why=(
            "submit_bulk decides an idle frame inline whatever is "
            "recorded: _decide writes the audit frame and the batch "
            "telemetry wherever it runs.  An audit or OBS term in the "
            "inline test is how an audited server came to queue every "
            "op (half the throughput, 4 MB more resident)."
        ),
        pattern=r"and (self\.)?audit is None|and not OBS\.enabled",
        roots=("src/repro/service/coalescer.py",),
        offender=(
            "src/repro/service/coalescer.py",
            "            and not OBS.enabled",
        ),
    ),
    Ratchet(
        name="Audited is the fast path: no span per kernel run",
        why=(
            "admit_batch_routed is entered once per run of a decision "
            "step (~2 ops on churn); a span there filled the 8 192-span "
            "ring within ~40 frames.  The two spans of base.py are "
            "admission.admit and admission.admit_batch (public entries)."
        ),
        pattern=r"OBS\.span\(",
        roots=("src/repro/admission/base.py",),
        offender=(
            "src/repro/admission/base.py",
            '        with OBS.span("admission.admit_batch", batch=batch):',
        ),
        max_count=2,
    ),
    Ratchet(
        name="Audited is the fast path: no per-decision metrics loop",
        why=(
            "A call's decisions are counted with one update per series, "
            "by count (_record_decisions); a per-decision recorder is "
            "the loop that cost a metrics update per op."
        ),
        pattern=r"_record_decision\(",
        roots=("src/repro",),
        offender=(
            "src/repro/admission/base.py",
            "                self._record_decision(decision)",
        ),
    ),
    Ratchet(
        name="No series restates a kept count",
        why=(
            "The ledger's reserve/release counters restated the "
            "controller's admitted and released flows, and admit() "
            "kept its own tally and series beside admit_batch_routed's: "
            "1.7 pushes an op, each a count the controller already "
            "keeps (a served scrape reads num_admitted / num_rejected / "
            "num_released).  The ledger imports nothing from repro.obs, "
            "and admit_batch_routed is the one method that counts a "
            "decision."
        ),
        pattern=r"\bobs\b|\bOBS\b|_num_decisions \+?= ",
        roots=("src/repro/admission/ledger.py", "src/repro/admission/base.py"),
        offender=("src/repro/admission/ledger.py", "from ..obs import OBS"),
        allowed=(
            r"^src/repro/admission/base\.py:\d+:(?!.*_num_decisions)",
            r"^src/repro/admission/base\.py:\d+:        self\._num_decisions = 0$",
        ),
        max_count=1,
    ),
    Ratchet(
        name="Audited is the fast path: one audit writer",
        why=(
            "The coalescer collects a decision step's entries and "
            "writes one frame line (AuditLog.record_frame); a per-op "
            "record_admit / record_release writer is a JSON line per "
            "op coming back (the last ones had no caller outside tests)."
        ),
        pattern=r"record_(admit|release)\(",
        roots=("src/repro",),
        offender=(
            "src/repro/service/audit.py",
            "    def record_admit(self, flow, *, admitted, reason=''):",
        ),
    ),
    Ratchet(
        name="A lone op is a frame of one: one carrier",
        why=(
            "A lone admit/release rides _submit_frame -> submit_bulk like "
            "any frame; the per-op submit pair and its done-callback are "
            "the second carrier, which made a lone request on an idle "
            "server wait out the 2 ms window (2.4 of its 2.6 ms)."
        ),
        pattern=r"submit_admit_op|submit_release_op|_on_done\b",
        roots=("src/repro/service",),
        offender=(
            "src/repro/service/server.py",
            "            return self.coalescer.submit_admit_op(flow)",
        ),
    ),
    Ratchet(
        name="A lone op is a frame of one: no future per op",
        why=(
            "An outcome lands in its frame's BulkSlots; the only real "
            "future in coalescer.py is a frame's one waiter "
            "(BulkSlots.__init__; the drain waits on stop(), not on a "
            "flush barrier).  A second create_future( is a future per op "
            "coming back."
        ),
        pattern=r"create_future\(",
        roots=("src/repro/service/coalescer.py",),
        offender=(
            "src/repro/service/coalescer.py",
            "        future = asyncio.get_running_loop().create_future()",
        ),
        max_count=1,
    ),
    Ratchet(
        name="A lone op is a frame of one: the crossover is no knob",
        why=(
            "Which path decides a run (sequential loop below "
            "ADMIT_BATCH_MIN_RUN / RELEASE_BATCH_MIN_RUN, the batch path "
            "above) is a measured constant in admission/base.py; an "
            "environment variable under admission/ is a second way to "
            "pick it."
        ),
        pattern=r"os\.environ",
        roots=("src/repro/admission",),
        offender=(
            "src/repro/admission/base.py",
            '    ADMIT_BATCH_MIN_RUN = int(os.environ.get("REPRO_MIN_RUN", 5))',
        ),
    ),
    Ratchet(
        name="Backpressure is the socket",
        why=(
            "A served connection's next frame is read once the one "
            "before it is decided, so excess load waits in the socket "
            "and no served op reaches the coalescer's queue "
            "(tests/test_service_server.py::TestBackpressure).  Backlog "
            "shedding (high/low-water knobs, a shed response, a shed "
            "SLO objective or counter) is a refusal path no served "
            "process can reach; the router's per-link bound is the one "
            "load refusal."
        ),
        pattern=(
            r"high_water|low_water|_shed_response|record_shed|shed_rate"
            r"|repro_service_shed"
        ),
        roots=("src/repro",),
        offender=(
            "src/repro/service/server.py",
            "        if self.coalescer.pending >= self.config.high_water:",
        ),
    ),
    Ratchet(
        name="One protocol per hop: no protocol knob",
        why=(
            "Every server accepts a hello upgrade and every router→worker "
            "hop is v2 (a worker is always our own serve); the client's "
            "protocol= is the one choice.  An accepting-side switch, a "
            "link protocol, or a packed -> v1 sub-op converter is the "
            "v1 hop, and the front door's decode/re-encode, coming back."
        ),
        pattern=r"negotiate_v2|link_protocol|unpack_batch_op",
        roots=("src",),
        offender=(
            "src/repro/service/router.py",
            '        link_protocol: str = "v2",',
        ),
    ),
    Ratchet(
        name="One protocol per hop: the front door decodes no sub-op",
        why=(
            "The front door routes a packed sub-op on its id and forwards "
            "it as it is; each worker validates it with the single "
            "server's decoder, so error bytes and counts match by "
            "construction.  Decoding it at the front door is the second "
            "validator, and it was half the front door's CPU per op on a "
            "v2 replay through two workers: work that decides nothing."
        ),
        pattern=r"decode_bulk_subop|flow_to_obj",
        roots=("src/repro/service/router.py",),
        offender=(
            "src/repro/service/router.py",
            "                kind, arg = protocol.decode_bulk_subop(sub)",
        ),
    ),
    Ratchet(
        name="One wire driver",
        why=(
            "loadgen --socket replays on one event loop through "
            "service.replay.replay_events, which returns the in-process "
            "driver's LoadgenResult and releases only what it saw "
            "admitted.  A thread pool of sync clients, each on its own "
            "loop, with a second result type and a merge step, sent "
            "every departure of a rejected flow: 29 % of the ops one "
            "MCI replay made the server decide were errors."
        ),
        pattern=(
            r"ThreadPoolExecutor|replay_events_concurrent"
            r"|ServiceReplayResult|replay_trace"
        ),
        roots=("src/repro",),
        offender=(
            "src/repro/service/replay.py",
            "from concurrent.futures import ThreadPoolExecutor",
        ),
    ),
    Ratchet(
        name="One slot ledger: no per-edge quota controller",
        why=(
            "A shard is a UtilizationLedger whose capacity is a row of "
            "plan_slot_shards; the per-edge quota controller coming "
            "back is the second notion of sharding coming back."
        ),
        pattern=r"ShardedAdmissionController",
        roots=("src", "tests", "benchmarks"),
        offender=(
            "src/repro/admission/sharded.py",
            "class ShardedAdmissionController(AdmissionController):",
        ),
    ),
    Ratchet(
        name="One slot ledger: no getattr probe on the controller",
        why=(
            "Every controller the service, the preemptor, the governor "
            "and the chaos harness are handed holds a UtilizationLedger "
            "(annotate UtilizationAdmissionController); a getattr probe "
            "is a ledger-less arm coming back."
        ),
        pattern=r"getattr\((self\.)?(controller|ctrl),",
        roots=("src/repro",),
        offender=(
            "src/repro/service/snapshots.py",
            '    ledger = getattr(controller, "ledger", None)',
        ),
    ),
    Ratchet(
        name="One slot kernel, one event loop: nothing selects",
        why=(
            "batch_slot_decisions IS the numpy kernel and serve runs on "
            "the stdlib loop: an accelerator comes back with a benchmark "
            "cell that shows what it buys, not with a registry, an "
            "environment variable or a flag."
        ),
        pattern=r"numba|REPRO_SLOT_KERNEL|uvloop|_slot_kernel\(",
        roots=("src", "tests", "pyproject.toml", "docs", "README.md"),
        offender=(
            "src/repro/admission/kernels.py",
            '    name = os.environ.get("REPRO_SLOT_KERNEL", "numpy")',
        ),
        allowed=(
            r"kernels\.py:[0-9]+:def active_slot_kernel\(",
            r"test_admission_kernels\.py:[0-9]+: +assert "
            r"active_slot_kernel\(\) ==",
        ),
    ),
    Ratchet(
        name="One slot kernel, one event loop: one flow-record writer",
        why=(
            "A flow record (long keys: snapshots) is written beside "
            "FlowSpec by repro.traffic.flows.flow_record; a hand-copied "
            "writer under service/ or admission/ is how a restart came "
            "to strip hard_rt protection."
        ),
        pattern=r'"class_name"',
        roots=("src/repro/service", "src/repro/admission"),
        offender=(
            "src/repro/service/snapshots.py",
            '            "class_name": flow.class_name,',
        ),
    ),
    Ratchet(
        name="One flow record: only the controller base touches it",
        why=(
            "The flow table (admission/flowtable.py, owned by the "
            "controller base) is the only per-flow record: id -> row "
            "and columns, no FlowSpec kept per flow.  A dict of records "
            "beside it is ~830 B a flow of resident memory and a "
            "second index that must be cross-checked.  Ask the "
            "controller: check_admit, is_established, established_flows."
        ),
        # The other deleted table's name is spelled in two pieces so a
        # grep for it over src/ and tests/ finds nothing at all.
        pattern=r"\._established\b|\._committed_" r"routes\b",
        roots=("src", "tests"),
        offender=(
            "src/repro/admission/base.py",
            "        self._established: Dict[Hashable, FlowRecord] = {}",
        ),
    ),
    Ratchet(
        name="One flow record: committed servers are read, not re-derived",
        why=(
            "The servers a flow holds are in the controller's flow "
            "table (committed_servers, servers_for); translating a "
            "route again under service/ or control/ is a second source "
            "of truth, paid per established flow per rejected arrival."
        ),
        pattern=r"route_servers\(",
        roots=("src/repro/service", "src/repro/control"),
        offender=(
            "src/repro/control/preempt.py",
            "        servers = ctrl.graph.route_servers(route)",
        ),
    ),
    Ratchet(
        name="One workload timeline: one event record",
        why=(
            "repro.workload.trace.TraceEvent is the only "
            "arrival/departure record; a second event type is how no "
            "served run ever reached the packet oracle."
        ),
        pattern=r"FlowEvent",
        roots=("src", "tests", "benchmarks", "examples", "docs", "README.md"),
        offender=(
            "src/repro/traffic/generators.py",
            "class FlowEvent:",
        ),
    ),
    Ratchet(
        name="One workload timeline: one packet run",
        why=(
            "simulation.cosim.simulate_lifetimes is the one lifetimes "
            "-> Simulator.add_flow loop; a second one is how the oracle "
            "came to simulate a re-admitted flow id over the union of "
            "its lifetimes."
        ),
        pattern=r"\.add_flow\(",
        roots=("src/repro",),
        offender=(
            "src/repro/faults/harness.py",
            "            simulator.add_flow(flow, route)",
        ),
        allowed=(r"^src/repro/simulation/",),
    ),
    Ratchet(
        name="One serve launch path: one child command",
        why=(
            "service/launch.py owns the child recipe (interpreter, "
            "module, PYTHONPATH, log file); the serve child command "
            "spelled in a second place is a second spawn block."
        ),
        pattern=r'"repro\.experiments\.cli"',
        roots=("src",),
        offender=(
            "src/repro/service/cluster.py",
            '        argv = [sys.executable, "-m", "repro.experiments.cli"]',
        ),
        max_count=1,
    ),
    Ratchet(
        name="One serve launch path: one child environment",
        why=(
            "Cluster workers and the tests' serve processes both start "
            "through service/launch.py; the child environment built in a "
            "second file is the copy coming back."
        ),
        pattern=r"PYTHONPATH",
        roots=("src/repro", "tests/serve_processes.py"),
        offender=(
            "tests/serve_processes.py",
            '        env["PYTHONPATH"] = src_dir',
        ),
        allowed=(r"^src/repro/service/launch\.py:",),
    ),
    Ratchet(
        name="One serve launch path: no hand-copied worker argv",
        why=(
            "The parsed serve namespace is the only carrier of serve "
            "options; a second argv builder or a flag refused under "
            "--workers is the copy coming back."
        ),
        pattern=r"worker_serve_command|worker_extra|WorkerCommand|not plumbed",
        roots=("src", "tests", "docs"),
        offender=(
            "src/repro/service/cluster.py",
            "def worker_serve_command(index, count, options):",
        ),
    ),
    Ratchet(
        name="Imports follow calls: no package imports",
        why=(
            "Library code imports modules; a `from ..topology import X` "
            "inside src/repro/ drags every sibling of X into each "
            "process that touches it (tests/test_import_surface.py "
            "counts the result; this names the line)."
        ),
        pattern=rf"^\s*from \.\.?({PACKAGES}) import",
        roots=("src/repro",),
        offender=(
            "src/repro/service/server.py",
            "from ..admission import UtilizationAdmissionController",
        ),
        allowed=(r"/__init__\.py:",),
    ),
    Ratchet(
        name="Imports follow calls: no eager networkx",
        why=(
            "A module-level networkx import on the serve path costs "
            "every server and every restarted worker ~300 modules of "
            "start-up."
        ),
        pattern=r"^import networkx|^from networkx",
        roots=(
            "src/repro/topology/network.py",
            "src/repro/topology/builders.py",
            "src/repro/routing/shortest.py",
        ),
        offender=(
            "src/repro/topology/network.py",
            "import networkx as nx",
        ),
    ),
    Ratchet(
        name="A served process loads only what it serves: one-shot runners",
        why=(
            "Every serve start loads cli.py, and with "
            "PYTHONDONTWRITEBYTECODE=1 (this environment's and the "
            "benchmark's setting) it compiles it every time; `-m` reads "
            "__pycache__ when bytecode is written.  The one-shot "
            "commands' runners live in experiments/commands.py, imported "
            "when one of them runs; a second _run_* beside serve's is "
            "their compiling (half of the 2 077-line cli.py's) on every "
            "cold start coming back."
        ),
        pattern=r"^def _run_(?!serve)",
        roots=("src/repro/experiments/cli.py",),
        offender=(
            "src/repro/experiments/cli.py",
            "def _run_faults(args: argparse.Namespace) -> int:",
        ),
    ),
    Ratchet(
        name="A served process loads only what it serves: bytecode is the environment's",
        why=(
            "Whether a start compiles its sources is the environment's "
            "setting (PYTHONDONTWRITEBYTECODE, an installed wheel's "
            "bytecode).  Code that writes, ships or redirects bytecode "
            "changes what a cold-start measurement measures, not the "
            "program."
        ),
        pattern=r"dont_write_bytecode|pycache_prefix|compileall|py_compile",
        roots=("src",),
        offender=(
            "src/repro/experiments/cli.py",
            "sys.dont_write_bytecode = False",
        ),
    ),
    Ratchet(
        name="Check names are written once: not in the CLI",
        why=(
            "repro.verify.bounded.CHECKS is the one list of bounded "
            "checks and their mutants; `verify` validates --check and "
            "--mutant against it when it runs.  A name under "
            "experiments/ (argparse choices=, a default tuple, a replay "
            "if) is a second list that drifts: four such lists kept "
            "preemption_safety out of the CLI."
        ),
        pattern=(
            r"no_overcommit|batch_equivalence|preemption_safety"
            r"|admit_on_full|ignore_contention|planner_ignores_protect"
        ),
        roots=("src/repro/experiments",),
        offender=(
            "src/repro/experiments/cli.py",
            '        choices=["no_overcommit", "batch_equivalence"], '
            "default=None,",
        ),
    ),
    Ratchet(
        name="Check names are written once: no report format, no backend",
        why=(
            "The repro-verify-report/v1 document, its runner and the "
            "one-valued `backend` field served a CI job that was "
            "deleted with the SMT backend; a check's outcome is its "
            "CheckResult and its --cx-dir trace."
        ),
        pattern=r"repro-verify-report|run_verify|\bbackend\b",
        roots=("src/repro/verify",),
        offender=(
            "src/repro/verify/bounded.py",
            '                        backend="exhaustive",',
        ),
    ),
    Ratchet(
        name="No TLS in src/",
        why=(
            "serve blocks `ssl` before asyncio loads it "
            "(cli.NOT_SERVED_MODULES: ≈ 4 MB of libssl and libcrypto per "
            "served process), which is safe only while nothing served "
            "speaks TLS.  A TLS feature removes that block on purpose, "
            "with this row."
        ),
        pattern=r"import ssl|from ssl|\bssl\.",
        roots=("src/repro",),
        offender=(
            "src/repro/service/server.py",
            "        context = ssl.create_default_context()",
        ),
    ),
    Ratchet(
        name="One delay fixed point",
        why=(
            "One RouteSystem (push/pop on growable buffers) and one "
            "iteration loop, solve_fixed_point's, serve Theorem 3, "
            "Theorem 5, verification and route selection.  A second "
            "route-system class or loop is a fast/reference twin: which "
            "one ran used to depend on whether the caller passed a "
            "workspace, and Theorem 5 kept a third loop of its own.  "
            "netcalc.py's loop is the flow-aware baseline's envelope "
            "iteration (eqs. 2-3), a different fixed point over flows.  "
            "theorem3.py's loop is the one-class solve over lists, "
            "iterating only the cyclic components of the route set's "
            "dependency graph, so a served process certifies its alpha "
            "without numpy; tests/test_theorem3_differential.py pins it "
            "to solve_fixed_point's verdicts and, within 1e-8 s, its "
            "delays."
        ),
        pattern=(
            r"GrowableRouteSystem|_solve_scratch"
            r"|range\(1, \w*(?:iterations|ITERATIONS) \+ 1\)"
        ),
        roots=("src",),
        offender=(
            "src/repro/analysis/multiclass.py",
            "    for iterations in range(1, max_iterations + 1):",
        ),
        allowed=(
            r"^src/repro/analysis/(fixedpoint|netcalc|theorem3)\.py:\d+:"
            r".*range\(1, \w*ITERATIONS \+ 1\)",
        ),
    ),
    Ratchet(
        name="One greedy route selector: no rebuild per candidate",
        why=(
            "Both selectors run one greedy loop that pushes each "
            "candidate on the stacked route system, solves from the last "
            "accepted delays and pops it.  A multi_class_delays call "
            "under routing/ rebuilds every route routed so far for each "
            "candidate: the hand copy of the loop that did so took twice "
            "as long on 120 pairs."
        ),
        pattern=r"multi_class_delays\(",
        roots=("src/repro/routing",),
        offender=(
            "src/repro/routing/heuristic.py",
            "        result = multi_class_delays(",
        ),
    ),
    Ratchet(
        name="One greedy route selector: one pair ordering",
        why=(
            "heuristic.farthest_first is the one heuristic (1) ordering "
            "and owns the distance lookup; each of its three copies "
            "raised a raw KeyError for an unknown router."
        ),
        pattern=r"single_source_shortest_path_length",
        roots=("src/repro/routing",),
        offender=(
            "src/repro/routing/candidates.py",
            "        dist[src] = nx.single_source_shortest_path_length(g, src)",
        ),
        max_count=1,
    ),
    Ratchet(
        name="One greedy route selector: one candidate loop",
        why=(
            "_GreedySelector._greedy walks the acyclic-first candidate "
            "groups of every class; a second walk is a second copy of "
            "the Section 5.2 loop."
        ),
        pattern=r"for group in groups",
        roots=("src/repro/routing",),
        offender=(
            "src/repro/routing/heuristic.py",
            "                for group in groups:",
        ),
        max_count=1,
    ),
    Ratchet(
        name="One α search",
        why=(
            "maximize.bisect_alpha is the one bisection on a verdict in "
            "alpha: the Section 5.3 searches, critical_alpha and "
            "maximize_multiclass_scale call it, and it warm-starts every "
            "probe from the highest feasible one.  Its three copies "
            "probed cold, and two never checked their resolution: a "
            "non-positive one looped forever once lo == hi."
        ),
        pattern=r"0\.5 \* \(lo \+ hi\)",
        roots=("src/repro",),
        offender=(
            "src/repro/config/procedures.py",
            "        mid = 0.5 * (lo + hi)",
        ),
        allowed=(r"^src/repro/config/maximize\.py:\d+:",),
    ),
    Ratchet(
        name="One N, one beta, buffers per solve",
        why=(
            "Theorem 3 takes one N, the largest router degree, so beta is "
            "one number per class and alpha. A per-server N vector "
            "(resolve_fan_in), a beta vector handed in beside it "
            "(beta_full) and a buffer pool shared across solves "
            "(FixedPointWorkspace, workspace=) carried about 160 lines and "
            "three options for answers identical to the bit without them."
        ),
        pattern=r"FixedPointWorkspace|workspace=|resolve_fan_in|beta_full",
        roots=("src/repro",),
        offender=(
            "src/repro/config/maximize.py",
            "            warm_start=warm, workspace=workspace,",
        ),
    ),
    Ratchet(
        name="A route's servers are one tuple",
        why=(
            "The flow table interns each configured or pinned route once, "
            "as the server tuple LinkServerGraph.route_servers returns; the "
            "padded narrowest-typecode server matrix, its widening and its "
            "byte search were sized for per-flow rows, and on the MCI serve "
            "held 306 routes in 512 rows beside a (pair, bytes) key per "
            "route, and a slice allocated per admitted or released op."
        ),
        pattern=r"narrowest|typecode|tobytes",
        roots=("src/repro/admission/flowtable.py",),
        offender=(
            "src/repro/admission/flowtable.py",
            "        key = (pair, array(narrowest(self.pad), servers).tobytes())",
        ),
    ),
    Ratchet(
        name="One slot count: granted_slots",
        why=(
            "ledger.granted_slots is the one exact floor of alpha*C/rho; "
            "the float floor it replaced granted one flow more than the "
            "certified alpha on 54 of 1 000 alphas, and a float factor "
            "over it one more than the rung's own floor on 2 363 ladder "
            "pairs (docs/verification.md)."
        ),
        pattern=r"\b(floor|int)\(.*capacit.*[*/]",
        roots=(
            "src/repro/admission", "src/repro/control", "src/repro/config",
        ),
        offender=(
            "src/repro/config/configured.py",
            "        return int(self.alphas[class_name] * capacity / cls.rate)",
        ),
    ),
    Ratchet(
        name="No served-product asserts in CI YAML",
        why=(
            "A heredoc assert or a served process started from the "
            "workflow runs nowhere tier-1 runs: ≈ 680 lines of them hid "
            "a snapshot-write race that failed two cluster steps.  The "
            "served product is checked in tests/test_service_smoke.py."
        ),
        pattern=r"python - <<|cli serve",
        roots=(".github/workflows/ci.yml",),
        offender=(
            ".github/workflows/ci.yml",
            "          PYTHONPATH=src python - <<'EOF'",
        ),
    ),
)

BY_NAME = pytest.mark.parametrize(
    "row", RATCHETS, ids=[row.name for row in RATCHETS]
)


def violations(row: Ratchet, tree: pathlib.Path) -> List[str]:
    """What ``row`` finds wrong under ``tree``: every match outside its
    allowances when there are more than ``max_count``, and anything that
    says the row itself has gone stale (a missing root, an allowance or
    a count nothing reaches)."""
    pattern = re.compile(row.pattern)
    allowed = {re.compile(a): False for a in row.allowed}
    problems, stray = [], []
    for root in row.roots:
        path = tree / root
        if not path.exists():
            problems.append(f"root {root} does not exist")
            continue
        files = [path] if path.is_file() else sorted(
            p for p in path.rglob("*")
            if p.suffix in TEXT_SUFFIXES and p.is_file()
        )
        for file in files:
            if file == THIS_FILE:  # the table quotes what it forbids
                continue
            rel = file.relative_to(tree).as_posix()
            lines = file.read_text(encoding="utf-8").splitlines()
            for number, text in enumerate(lines, 1):
                if not pattern.search(text):
                    continue
                hit = f"{rel}:{number}:{text}"
                homes = [a for a in allowed if a.search(hit)]
                for home in homes:
                    allowed[home] = True
                if not homes:
                    stray.append(hit)
    if len(stray) > row.max_count:
        problems.extend(stray)
    elif len(stray) < row.max_count:
        problems.append(
            f"{len(stray)} matches where the row allows {row.max_count}: "
            "lower max_count"
        )
    problems.extend(
        f"allowance {a.pattern!r} matches nothing: drop it"
        for a, used in allowed.items() if not used
    )
    return problems


@BY_NAME
def test_tree_is_clean(row):
    found = violations(row, REPO)
    assert not found, f"{row.name} — {row.why}\n" + "\n".join(found)


@BY_NAME
def test_ratchet_fires_on_its_planted_offender(row, tmp_path):
    # A tree holding nothing but the offender, where the real tree has
    # that file: a row whose roots no longer cover it reports nothing.
    where, line = row.offender
    assert (REPO / where).is_file(), f"{where} is gone: move the plant"
    planted = tmp_path / where
    planted.parent.mkdir(parents=True, exist_ok=True)
    planted.write_text((line + "\n") * (row.max_count + 1))
    assert f"{where}:1:{line}" in violations(row, tmp_path)


# ---------------------------------------------------------------------- #
# the package is what runs
# ---------------------------------------------------------------------- #

#: Code whose calls keep a name of ``src/repro`` alive: the package, the
#: benchmark, and the paper benches tier-1 runs.  Tests, examples and a
#: bench tier-1 does not run are not callers: a name only they call is
#: not the system.
CALLER_ROOTS = ("src", "benchmarks/waterfall", *PAPER_BENCHES)

#: Public functions and classes with no caller under CALLER_ROOTS that
#: stay anyway.  Two kinds earn a line: a reference the tests compare
#: the running code against, and a topology builder the property and
#: simulation tests run on.
UNCALLED = {
    "repro.analysis.distribution.aggregate_envelope_delay": (
        "the aggregate-envelope delay lemma2_delay is checked against"
    ),
    "repro.analysis.beta.theorem3_delay": (
        "Theorem 3's closed form, which the Lemma 2 and Theorem 2 bounds "
        "are checked against"
    ),
    "repro.analysis.beta.uniform_worst_delay": (
        "eq. 17, the uniform bound Theorem 4's lower bound is checked against"
    ),
    "repro.analysis.distribution.theorem2_worst_delay": (
        "Theorem 2's even-split worst case, which Lemma 2 delays of any "
        "split are checked against"
    ),
    "repro.analysis.reshaped.reshaped_delay_bound": (
        "the per-hop reshaping bound L*beta*T that reshaped_max_alpha "
        "solves for the deadline"
    ),
    **{
        f"repro.topology.builders.{name}": (
            "a topology the cross-topology property tests run on"
        )
        for name in (
            "dumbbell_network", "fat_tree_network", "full_mesh",
            "grid_network", "ring_network", "tree_network", "waxman_network",
        )
    },
    **{
        f"repro.topology.builders.{name}": (
            "a topology the property and simulation tests run on"
        )
        for name in ("random_network", "star_network")
    },
}

#: The only reasons a method, a module constant, an option or a flag may
#: stay with no caller under CALLER_ROOTS.  How the code does its work
#: (a chunk size, a cap, an objective, a mode) is no reason: it is a
#: module constant.
REFERENCE = "a reference the tests compare against"
SEAM = "a seam that lets a test substitute a fake"
DEPLOYMENT = "a deployment setting: the value depends on the host, not the code"
IN_UNCALLED = "a name already in UNCALLED"
QUEUE_AND_GOVERNOR = (
    "the coalescer's queue half or the governor, which ROADMAP 3(a) "
    "deletes whole once 1(b) stops the benchmark driving them"
)
#: What a command computes on or reads (a scenario or workload
#: parameter, a query, a file); the line names the output it changes.
INPUT = "an input the command computes on or reads"
REASONS = (REFERENCE, SEAM, DEPLOYMENT, IN_UNCALLED, QUEUE_AND_GOVERNOR)


def changes(output: str) -> str:
    """An INPUT reason: the output the input changes."""
    return f"{INPUT}; it changes {output}"

#: Methods and properties (``module.Class.method``) with no caller.
UNCALLED_METHODS = {
    # Pausing is how the tests reach the queue behind the window.
    "repro.service.coalescer.MicroBatchCoalescer.pause": QUEUE_AND_GOVERNOR,
    # The paper's test and its commit as two steps, which the one-pass
    # try_reserve is differenced against.
    "repro.admission.ledger.UtilizationLedger.available": REFERENCE,
    "repro.admission.ledger.UtilizationLedger.reserve": REFERENCE,
}

#: Module-level constants and aliases (``module.NAME``) nothing reads.
UNUSED_CONSTANTS = {}

#: Options no call passes: a defaulted parameter (``module.function.
#: param``; ``module.Class.param`` for a constructor) or a field of a
#: ``*Config`` / ``*Options`` / ``*Policy`` record (``module.Class.field``).
UNPASSED_OPTIONS = {
    # The argv the tests run the CLI with.
    "repro.experiments.cli.main.argv": SEAM,
    # How long a client keeps dialling a server that is (re)starting.
    "repro.service.client.ServiceClient.backoff": DEPLOYMENT,
    # Where a command runs: the socket it dials and the framing that
    # server is driven with, its worker count, and a server's disk
    # budget and cadences.
    **{
        f"repro-ubac {flag}": DEPLOYMENT
        for flag in (
            "loadgen --socket",
            "loadgen --protocol", "client --socket", "client --protocol",
            "serve --snapshot-interval",
            "serve --audit-fsync-every", "serve --audit-max-bytes",
            "serve --audit-keep",
        )
    },
    # What a command computes on or reads.
    "repro-ubac verify --check": changes("which rows of the bounded table run"),
    "repro-ubac verify --mutant": changes("the bug each row must catch"),
    "repro-ubac simulate --horizon": changes("the deadline misses simulate counts"),
    "repro-ubac simulate --flows-per-route": changes(
        "the deadline misses simulate counts"
    ),
    "repro-ubac faults --horizon": changes("the transition report"),
    "repro-ubac faults --seed": changes("the transition report"),
    "repro-ubac faults --random-links": changes("the fault schedule replayed"),
    "repro-ubac loadgen --seed": changes("the generated trace"),
    "repro-ubac loadgen --ramp": changes("the arrival rate over the trace"),
    "repro-ubac loadgen --hot-edges": changes("the servers the adversary targets"),
    "repro-ubac audit --snapshot": changes("what audit --verify certifies"),
    # The governor's detector, and the chaos harness's governed overload
    # arm (a ladder for the governor, preemption beside it).
    **{
        f"repro.control.governor.GovernorConfig.{name}": QUEUE_AND_GOVERNOR
        for name in (
            "delay_threshold", "gradient_threshold", "headroom_low",
            "headroom_high", "overuse_samples", "underuse_samples",
            "hold_samples",
        )
    },
    **{
        f"repro.faults.harness.ChaosHarness.{name}": QUEUE_AND_GOVERNOR
        for name in ("ladder", "governor_config", "preemption")
    },
    # The options of the UNCALLED topology builders.
    **{
        f"repro.topology.builders.{name}": IN_UNCALLED
        for name in (
            "ring_network.capacity", "full_mesh.capacity",
            "grid_network.capacity", "tree_network.capacity",
            "dumbbell_network.capacity",
            "dumbbell_network.bottleneck_capacity",
            "fat_tree_network.capacity", "fat_tree_network.k",
            "waxman_network.alpha", "waxman_network.beta",
            "waxman_network.capacity", "waxman_network.max_tries",
        )
    },
}

ALLOWANCES = {
    "methods": UNCALLED_METHODS,
    "constants": UNUSED_CONSTANTS,
    "options": UNPASSED_OPTIONS,
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITIONS = _FUNCTIONS + (ast.ClassDef,)
#: A ``*Config`` / ``*Options`` / ``*Policy`` record's fields are options.
_RECORD = re.compile(r"\w*(?:Config|Options|Policy)")


def caller_sources(tree: pathlib.Path) -> dict:
    """``{path: text}`` of every Python file CALLER_ROOTS names, a file
    or a directory walked for them."""
    paths = []
    for root in CALLER_ROOTS:
        path = tree / root
        paths += [path] if path.is_file() else sorted(path.rglob("*.py"))
    return {
        path.relative_to(tree).as_posix(): path.read_text(encoding="utf-8")
        for path in paths
    }


def cli_entry_points(pyproject: str) -> List[str]:
    """The attributes ``[project.scripts]`` runs (``module:attr``)."""
    table = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return re.findall(r'=\s*"[\w.]+:(\w+)"', table)


@functools.lru_cache(maxsize=None)
def _parse(text: str) -> ast.Module:
    return ast.parse(text)


@functools.lru_cache(maxsize=None)
def _walk(node: ast.AST) -> tuple:
    """``ast.walk`` once per node: the planted cases re-read one file."""
    return tuple(ast.walk(node))


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _short(node: ast.expr) -> str:
    """``a.b.C[x]`` -> ``C``: how a base or decorator is spelled last."""
    return ast.unparse(node).split("[")[0].split("(")[0].rsplit(".", 1)[-1]


@dataclass
class _Callee:
    """A function, a method or a constructor, and its options."""

    key: str
    #: What a call spells: the function's name, or the class's.
    spelling: str
    #: The definition whose death takes this one's options with it.
    owner: Optional[str]
    path: str
    #: ``(name, position or None, line)``; position counts past ``self``.
    options: List[Tuple[str, Optional[int], int]]


#: Where ``repro-ubac`` spells its options, and the runners that only
#: forward what it parsed: neither is a root that names a flag.
CLI = "src/repro/experiments/cli.py"
CLI_RUNNERS = (CLI, "src/repro/experiments/commands.py")
#: A cluster's workers start from the operator's ``serve`` options by
#: dest, so a dest this function (or a constant it reads) names is one
#: a caller root names.
DEST_NAMERS = {"src/repro/service/cluster.py": "worker_options"}


@dataclass(frozen=True)
class _Flag:
    """One option string of one ``repro-ubac`` subcommand."""

    #: ``repro-ubac <subcommand> <option string>``.
    key: str
    command: str
    option: str
    dest: str
    #: A positional without ``nargs="?"``, or ``required=True``.
    required: bool
    line: int


def cli_flags(text: str) -> List[_Flag]:
    """Every option string ``build_parser`` gives each subcommand,
    counting the options of a ``parents=`` parser once per subcommand."""
    build = next(
        node for node in _parse(text).body
        if isinstance(node, ast.FunctionDef) and node.name == "build_parser"
    )
    added = {}    # parser variable -> [(option strings, {keyword: value}, line)]
    parents = {}  # subcommand -> the variables its parents= names
    commands = {}  # parser variable -> subcommand
    for node in _walk(build):
        call = getattr(node, "value", None) if isinstance(node, ast.Assign) else node
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)):
            continue
        keywords = {
            k.arg: ast.literal_eval(k.value) if k.arg != "parents"
            else [p.id for p in k.value.elts]
            for k in call.keywords if k.arg in ("dest", "nargs", "required", "parents")
        }
        if call.func.attr == "add_argument":
            names = [a.value for a in call.args]
            added.setdefault(ast.unparse(call.func.value), []).append(
                (names, keywords, call.lineno)
            )
        elif call.func.attr == "add_parser" and node is not call:
            commands[node.targets[0].id] = call.args[0].value
            parents[call.args[0].value] = keywords.get("parents", [])
    flags = []
    for variable, command in commands.items():
        for parser in parents[command] + [variable]:
            for names, keywords, line in added.get(parser, []):
                option = max(names, key=len)
                positional = not option.startswith("-")
                flags.append(_Flag(
                    f"repro-ubac {command} {option}",
                    command,
                    option,
                    keywords.get("dest", option.lstrip("-").replace("-", "_")),
                    keywords.get("required", False)
                    or (positional and keywords.get("nargs") not in ("?", "*")),
                    line,
                ))
    return flags


def _strings(node: ast.AST) -> set:
    return {
        n.value for n in _walk(node)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }


def _names_flags(path: str, tree: ast.Module) -> Tuple[set, set]:
    """``(option strings, dests)`` a caller root's file names: every
    ``"--…"`` string in it, and the strings of its DEST_NAMERS function
    and of the module constants that function reads."""
    dests = set()
    if path in DEST_NAMERS:
        function = next(
            s for s in tree.body
            if isinstance(s, _FUNCTIONS) and s.name == DEST_NAMERS[path]
        )
        read = {n.id for n in _walk(function) if isinstance(n, ast.Name)}
        for stmt in tree.body:
            if stmt is function or (
                isinstance(stmt, ast.Assign)
                and any(ast.unparse(t) in read for t in stmt.targets)
            ):
                dests |= _strings(stmt)
    return {s for s in _strings(tree) if s.startswith("--")}, dests


def _enclosing(stmt: ast.AST) -> dict:
    """``id(node)`` -> the functions around it within ``stmt``,
    innermost last."""
    out = {}

    def visit(node, chain):
        out[id(node)] = chain
        if isinstance(node, _FUNCTIONS + (ast.Lambda,)):
            chain = chain + (node,)
        for child in ast.iter_child_nodes(node):
            visit(child, chain)

    visit(stmt, ())
    return out


def _parameters(node) -> set:
    args = node.args
    every = args.posonlyargs + args.args + args.kwonlyargs
    every += [a for a in (args.vararg, args.kwarg) if a]
    return {a.arg for a in every}


class Callers:
    """Who calls what under CALLER_ROOTS, by spelling.

    Four kinds of definition of ``src/repro`` are tracked: public
    top-level functions and classes, methods and properties (public and
    private), module-level constants and aliases, and options.  A use is
    a ``Name`` or an attribute spelled like the definition, owned by the
    innermost tracked definition around it (``None``: code that always
    runs); a method is reached only through an attribute, so a local
    variable spelled like it is no use of it.  ``from … import a as b``
    and a module-level ``b = a`` make a use of ``b`` one of ``a``;
    imports, ``__all__``, the lazy tables (strings) and ``TYPE_CHECKING``
    blocks use nothing.  Dunders, and
    overrides of a method a stdlib base defines, are always called.

    A call passes an option only where the value starts: a forward of
    the caller's own option, of ``self.<attr>`` set from one, or of
    ``args.<dest>`` passes it once what it forwards is passed
    (:meth:`unpassed`).  The ``repro-ubac`` flags ``build_parser``
    defines (:func:`cli_flags`) are the roots of the ``args`` forwards.
    """

    def __init__(self, sources: dict, entry_points=()):
        self.defs = {}      # key -> (kind, spelling, "path:line", parent)
        self.uses = []      # (spelling, owner, through an attribute)
        # (spelling, owner, (source per position), {keyword: source}, all)
        self.calls = []
        self.callees = []   # _Callee
        self.aliases = {}   # spelling -> {spellings it stands for}
        self.bases = {}     # class spelling -> [base expressions]
        self.imports = {}   # path -> {bound name: dotted import}
        self.options = {}   # id(function node) -> (callee key, {options})
        self.flags = cli_flags(sources[CLI]) if CLI in sources else []
        self.named, self.named_dests = set(), set()
        trees = {path: _parse(text) for path, text in sources.items()}
        for path, tree in trees.items():
            if path not in CLI_RUNNERS:
                strings, dests = _names_flags(path, tree)
                self.named |= strings
                self.named_dests |= dests
        for path, tree in trees.items():
            imports = self.imports[path] = {}
            for node in _walk(tree):
                if isinstance(node, ast.ImportFrom):
                    for alias in node.names:
                        if alias.asname:
                            self._alias(alias.asname, alias.name)
                        if node.module and not node.level:
                            imports[alias.asname or alias.name] = (
                                f"{node.module}.{alias.name}"
                            )
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        bound = alias.asname or alias.name.split(".")[0]
                        imports[bound] = alias.name if alias.asname else bound
                elif isinstance(node, ast.ClassDef):
                    self.bases.setdefault(node.name, []).extend(node.bases)
        for path, tree in trees.items():
            module = None
            if path.startswith("src/repro/"):
                module = path[len("src/"):-len(".py")].replace("/", ".")
                module = module.removesuffix(".__init__")
            for stmt in tree.body:
                self._top(path, module, stmt)
        for name in entry_points:
            self.uses.append((name, None, False))

    # -- building ------------------------------------------------------ #

    def _alias(self, alias: str, name: str) -> None:
        self.aliases.setdefault(alias, set()).add(name)

    def _define(self, kind, key, spelling, path, node, parent=None) -> str:
        self.defs[key] = (kind, spelling, f"{path}:{node.lineno}", parent)
        return key

    def _top(self, path, module, stmt) -> None:
        if isinstance(stmt, ast.If) and ast.unparse(stmt.test) == "TYPE_CHECKING":
            return
        owner = None
        if module and isinstance(stmt, _DEFINITIONS) and not stmt.name.startswith("_"):
            owner = self._define("name", f"{module}.{stmt.name}", stmt.name, path, stmt)
        if module and isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name) and not _dunder(node.id) and node.id != "_":
                        key = self._define(
                            "constant", f"{module}.{node.id}", node.id, path, stmt
                        )
                        owner = owner or key
            if (
                isinstance(stmt, ast.Assign)
                and isinstance(stmt.value, ast.Name)
                and all(isinstance(t, ast.Name) for t in stmt.targets)
            ):
                # ``b = a`` is ``from … import a as b``: a call of ``b``
                # is a call of ``a``, not a reference that escapes.
                for target in stmt.targets:
                    self._alias(target.id, stmt.value.id)
                self.uses.append((stmt.value.id, owner, False))
                return
        if isinstance(stmt, ast.ClassDef):
            self._class(path, module, stmt, owner, stmt.name)
            return
        if module and isinstance(stmt, _FUNCTIONS):
            self._callee(path, f"{module}.{stmt.name}", stmt.name, owner, stmt, False)
        self._collect(stmt, owner, None)

    def _class(self, path, module, node, owner, qualname) -> None:
        decorators = {_short(d) for d in node.decorator_list}
        # ``self.<attr>`` -> the options it was set from (None: a value
        # that starts in the class).
        attrs = {}
        if module and _RECORD.fullmatch(node.name) and (
            "dataclass" in decorators
            or any(_short(b) == "NamedTuple" for b in node.bases)
        ):
            fields, position = [], 0
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    if "ClassVar" in ast.unparse(stmt.annotation):
                        continue
                    if stmt.value is not None:
                        if "init=False" in ast.unparse(stmt.value):
                            continue
                        fields.append((stmt.target.id, position, stmt.lineno))
                        attrs[stmt.target.id] = {f"{module}.{qualname}.{stmt.target.id}"}
                    position += 1
            self.callees.append(
                _Callee(f"{module}.{qualname}", node.name, owner, path, fields)
            )
        methods = {}  # id(def) -> the definition that owns its body
        for stmt in node.body:
            if not isinstance(stmt, _FUNCTIONS):
                continue
            called = _dunder(stmt.name) or self._stdlib_defines(path, node.name, stmt.name)
            method = methods[id(stmt)] = owner
            if module and not called:
                method = methods[id(stmt)] = self._define(
                    "method", f"{module}.{qualname}.{stmt.name}", stmt.name,
                    path, stmt, parent=owner,
                )
            if module and not called:
                bound = "staticmethod" not in {_short(d) for d in stmt.decorator_list}
                self._callee(
                    path, f"{module}.{qualname}.{stmt.name}", stmt.name, method,
                    stmt, bound,
                )
            elif module and stmt.name == "__init__":
                self._callee(
                    path, f"{module}.{qualname}", node.name, method, stmt, True
                )
            key, options = self.options.get(id(stmt), (None, set()))
            for sub in _walk(stmt):
                if not isinstance(sub, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                for target in targets:
                    if not (
                        isinstance(target, ast.Attribute)
                        and ast.unparse(target.value) == "self"
                    ):
                        continue
                    value = sub.value
                    if (
                        isinstance(value, ast.Name) and value.id in options
                        and attrs.get(target.attr, set()) is not None
                    ):
                        attrs.setdefault(target.attr, set()).add(f"{key}.{value.id}")
                    else:
                        attrs[target.attr] = None
        for stmt in node.body:
            if isinstance(stmt, ast.ClassDef):
                self._class(path, module, stmt, owner, f"{qualname}.{stmt.name}")
            else:
                self._collect(stmt, methods.get(id(stmt), owner), node.name, attrs)
        # A class decorator is called on the class, and a base class is
        # what its methods run on: uses its owner makes.
        for expr in node.decorator_list + node.bases:
            self._collect(expr, owner, None)

    def _stdlib_defines(self, path, cls, name, seen=()) -> bool:
        """Whether a base of ``cls`` outside ``src/`` defines ``name``."""
        for base in self.bases.get(cls, []):
            dotted = ast.unparse(base).split("[")[0]
            head, *rest = dotted.split(".")
            if head in self.bases:
                if head not in seen and self._stdlib_defines(
                    path, head, name, seen + (cls,)
                ):
                    return True
                continue
            target = self.imports.get(path, {}).get(head)
            try:
                if target is None:
                    obj = getattr(builtins, head)
                else:
                    module, _, attr = target.rpartition(".")
                    try:
                        obj = importlib.import_module(target)
                    except ImportError:
                        obj = getattr(importlib.import_module(module), attr)
                for attr in rest:
                    obj = getattr(obj, attr)
            except (AttributeError, ImportError, ValueError):
                continue
            if hasattr(obj, name):
                return True
        return False

    def _callee(self, path, key, spelling, owner, node, bound) -> None:
        args = node.args
        positional = args.posonlyargs + args.args
        first_default = len(positional) - len(args.defaults)
        skip = 1 if bound else 0
        options = [
            (arg.arg, index - skip, arg.lineno)
            for index, arg in enumerate(positional)
            if index >= max(first_default, skip)
        ] + [
            (arg.arg, None, arg.lineno)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        ]
        self.callees.append(_Callee(key, spelling, owner, path, options))
        self.options[id(node)] = (key, {name for name, _, _ in options})

    def _source(self, value, chain, attrs):
        """Where a passed value starts: ``None`` for a literal, an
        expression or a required parameter of the caller, else the keys
        it forwards: an optional parameter of the caller, ``self.<attr>``
        set from one, or ``args.<dest>`` (``--<dest>``)."""
        if isinstance(value, ast.Name):
            for function in reversed(chain):
                if value.id in _parameters(function):
                    key, options = self.options.get(id(function), (None, ()))
                    return {f"{key}.{value.id}"} if value.id in options else None
            return None
        if isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name):
            if value.value.id == "args":
                return {f"args.{value.attr}"}
            if value.value.id == "self" and attrs:
                return attrs.get(value.attr)
        return None

    def _collect(self, stmt, owner, cls, attrs=None) -> None:
        # Spellings that name a callable without calling it or typing
        # with it pass it on to code that may pass anything.
        typing_only = set()
        chains = _enclosing(stmt)

        def source(value):
            return self._source(value, chains[id(value)], attrs)

        for node in _walk(stmt):
            if isinstance(node, ast.arg) and node.annotation:
                typing_only.update(map(id, ast.walk(node.annotation)))
            elif isinstance(node, _FUNCTIONS) and node.returns:
                typing_only.update(map(id, ast.walk(node.returns)))
            elif isinstance(node, ast.AnnAssign):
                typing_only.update(map(id, ast.walk(node.annotation)))
            elif isinstance(node, ast.ExceptHandler) and node.type:
                typing_only.update(map(id, ast.walk(node.type)))
            elif isinstance(node, ast.Subscript):
                typing_only.update(map(id, ast.walk(node.slice)))
            elif isinstance(node, ast.Attribute):
                typing_only.add(id(node.value))
            elif isinstance(node, ast.Call):
                typing_only.add(id(node.func))
                if ast.unparse(node.func) in ("isinstance", "issubclass"):
                    typing_only.update(map(id, ast.walk(node.args[-1])))
                self._call(node, owner, cls, source)
                # ``g(f, a, b)`` (``partial``, ``benchmark``, an executor)
                # calls ``f(a, b)``: a reference with arguments after it.
                for index, arg in enumerate(node.args[:-1]):
                    if isinstance(arg, (ast.Name, ast.Attribute)):
                        typing_only.add(id(arg))
                        self._pass(
                            arg.id if isinstance(arg, ast.Name) else arg.attr,
                            owner, node.args[index + 1:], node.keywords, source,
                        )
        for node in _walk(stmt):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                spelling = node.id
            elif isinstance(node, ast.Attribute):
                spelling = node.attr
            else:
                continue
            self.uses.append((spelling, owner, isinstance(node, ast.Attribute)))
            if id(node) not in typing_only and not isinstance(node.ctx, ast.Store):
                self.calls.append((spelling, owner, (), {}, True))

    def _pass(self, spelling, owner, args, keywords, source, everything=False) -> None:
        self.calls.append((
            spelling,
            owner,
            tuple(source(a) for a in args if not isinstance(a, ast.Starred)),
            {k.arg: source(k.value) for k in keywords if k.arg},
            everything
            or any(isinstance(a, ast.Starred) for a in args)
            or any(k.arg is None for k in keywords),
        ))

    def _call(self, node, owner, cls, source) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "cls" and cls:
                self._pass(cls, owner, (), (), source, everything=True)
            else:
                self._pass(func.id, owner, node.args, node.keywords, source)
        elif isinstance(func, ast.Attribute):
            value = func.value
            if isinstance(value, ast.Call) and ast.unparse(value.func) == "super":
                # ``super().m(...)`` passes every option of the bases' ``m``.
                for base in self.bases.get(cls, []):
                    spelling = _short(base) if func.attr == "__init__" else func.attr
                    self._pass(spelling, owner, (), (), source, everything=True)
            else:
                self._pass(func.attr, owner, node.args, node.keywords, source)
        elif ast.unparse(func) == "type(self)" and cls:
            self._pass(cls, owner, (), (), source, everything=True)

    # -- querying ------------------------------------------------------ #

    def _spellings(self, name: str) -> set:
        return self.aliases.get(name, set()) | {name}

    def dead(self, allowed) -> set:
        """Keys of the definitions nothing live uses, to a fixed point: a
        use inside the definition itself, or inside a definition that is
        itself dead, is not a use.  A method dies with its class."""
        users = {}  # (spelling, through an attribute) -> owners
        for spelling, owner, attribute in self.uses:
            for name in self._spellings(spelling):
                users.setdefault((name, attribute), set()).add(owner)

        def owners(kind, spelling):
            found = users.get((spelling, True), set())
            if kind != "method":
                found = found | users.get((spelling, False), set())
            return found

        dead = set()
        while True:
            now = {
                key for key, (kind, spelling, _, parent) in self.defs.items()
                if key not in allowed
                and (parent in dead or not owners(kind, spelling) - dead - {key})
            }
            if now == dead:
                return dead
            dead = now

    def unpassed(self, dead, allowed) -> List[str]:
        """``path:line: key`` of each option of a live definition that no
        live call passes, and of each ``serve`` flag no caller root names.

        A call passes an option by keyword or by position; ``**kwargs``,
        ``*args``, ``cls(...)``, ``super()`` and a reference that is not
        a call pass every option.  A pass counts where its value starts
        (``_source``): a forward counts only once what it forwards is
        passed, to a fixed point.  A flag is passed when it is required,
        when a caller root outside CLI_RUNNERS names it (``serve``'s), or
        when it is allowed; an ``args.<dest>`` forward is passed when a
        flag of that dest is.  A flag other than ``serve``'s is reported
        only when an option forwards it."""
        slots = {}  # spelling -> {position or keyword: [sources]}
        every = set()
        for spelling, owner, positional, keywords, everything in self.calls:
            if owner in dead:
                continue
            for name in self._spellings(spelling):
                if everything:
                    every.add(name)
                at = slots.setdefault(name, {})
                for slot, source in [*enumerate(positional), *keywords.items()]:
                    at.setdefault(slot, []).append(source)
        # dataclasses.replace(record, field=...) and NamedTuple._replace
        replaced = {}
        for name in ("replace", "_replace"):
            for slot, sources in slots.get(name, {}).items():
                if isinstance(slot, str):
                    replaced.setdefault(slot, []).extend(sources)
        feeds, where = {}, {}  # key -> {keys it forwards}, "path:line: key"
        for callee in self.callees:
            if callee.owner in dead:
                continue
            at = slots.get(callee.spelling, {})
            for name, position, line in callee.options:
                key = f"{callee.key}.{name}"
                where[key] = f"{callee.path}:{line}: {key}"
                sources = at.get(name, []) + replaced.get(name, [])
                if position is not None:
                    sources += at.get(position, [])
                if key in allowed or callee.spelling in every or None in sources:
                    feeds[key] = None
                elif feeds.get(key, set()) is not None:
                    feeds.setdefault(key, set()).update(*sources)
        passed = {key for key, fed in feeds.items() if fed is None}
        for flag in self.flags:
            if flag.required or flag.key in allowed or (
                flag.command == "serve"
                and (flag.option in self.named or flag.dest in self.named_dests)
            ):
                passed |= {flag.key, f"args.{flag.dest}"}
        while True:
            now = passed | {
                key for key, fed in feeds.items() if fed and fed & passed
            }
            if now == passed:
                break
            passed = now
        forwarded = set().union(*(fed for fed in feeds.values() if fed))
        for flag in self.flags:
            if flag.command == "serve" or f"args.{flag.dest}" in forwarded:
                where[flag.key] = f"{CLI}:{flag.line}: {flag.key}"
        return sorted(line for key, line in where.items() if key not in passed)

    def report(self, allowed) -> dict:
        """``{kind: ["path:line: key", ...]}`` for the four rows."""
        dead = self.dead(allowed)
        out = {"names": [], "methods": [], "constants": []}
        row = {"name": "names", "method": "methods", "constant": "constants"}
        for key in sorted(dead):
            kind, spelling, where, _ = self.defs[key]
            out[row[kind]].append(
                f"{where}: {spelling if kind == 'name' else key}"
            )
        out["options"] = self.unpassed(dead, allowed)
        return out


def _allowed(without: str = "") -> dict:
    """Every allowance but those of one row (``names`` is UNCALLED)."""
    allowed = {} if without == "names" else dict(UNCALLED)
    for kind, allowances in ALLOWANCES.items():
        if kind != without:
            allowed.update(allowances)
    return allowed


def uncalled(sources: dict, entry_points=(), allowed=UNCALLED) -> List[str]:
    """``path:line: name`` for each public top-level function or class of
    ``src/repro`` that no code in ``sources`` calls (see ``Callers``)."""
    report = Callers(sources, entry_points).report({**_allowed("names"), **allowed})
    return report["names"]


@pytest.fixture(scope="module")
def sources():
    yield caller_sources(REPO)
    # The parse caches hold every tree of the package: not past this file.
    _parse.cache_clear()
    _walk.cache_clear()


@pytest.fixture(scope="module")
def entry_points():
    return cli_entry_points((REPO / "pyproject.toml").read_text("utf-8"))


@pytest.fixture(scope="module")
def callers(sources, entry_points):
    return Callers(sources, entry_points)


@pytest.fixture(scope="module")
def report(callers):
    return callers.report(_allowed())


def test_every_public_name_has_a_caller(report, entry_points):
    assert entry_points == ["main"]  # `repro-ubac`
    found = report["names"]
    assert not found, (
        "public names only tests call: delete them with their tests, or "
        "give one an UNCALLED line if it is a reference the tests compare "
        "against or a builder the property tests run on\n" + "\n".join(found)
    )


def test_every_uncalled_allowance_is_needed(callers):
    # An allowance for a name that is gone, or that gained a caller, is
    # stale: it would let the name lose that caller silently.
    without = callers.report(_allowed("names"))["names"]
    for qualified in UNCALLED:
        module, name = qualified.rsplit(".", 1)
        path = "src/" + module.replace(".", "/") + ".py"
        assert any(
            found.startswith(path + ":") and found.endswith(": " + name)
            for found in without
        ), f"{qualified} is gone or has a caller: drop its UNCALLED line"


def test_the_caller_check_fires_on_planted_defs(sources, entry_points):
    planted = dict(sources)
    planted["src/repro/units.py"] += (
        "\n\ndef planted_helper():\n    return kbps(1)\n"
        "\n\ndef planted_caller():\n    return planted_helper()\n"
        "\n\ndef planted_recursion(n):\n    return planted_recursion(n - 1)\n"
    )
    found = {line.rsplit(": ", 1)[1] for line in uncalled(planted, entry_points)}
    # The helper's only caller is uncalled itself: the fixed point.
    assert {"planted_helper", "planted_caller", "planted_recursion"} <= found
    # ... and a caller in src/ (not a test) is what clears a name.
    planted["src/repro/units.py"] += "\n\nplanted_caller()\n"
    found = {line.rsplit(": ", 1)[1] for line in uncalled(planted, entry_points)}
    assert not {"planted_helper", "planted_caller"} & found


def test_a_bench_tier1_does_not_run_keeps_nothing_alive(tmp_path):
    # A bench module outside PAPER_BENCHES runs nowhere, so its calls
    # are no callers; the same call in a listed bench is one.
    (tmp_path / "src/repro").mkdir(parents=True)
    (tmp_path / "src/repro/planted.py").write_text(
        "def planted_table():\n    return 1\n"
    )
    call = (
        "from repro.planted import planted_table\n"
        "def test_bench_it():\n    assert planted_table()\n"
    )
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks/test_bench_unlisted.py").write_text(call)
    found = Callers(caller_sources(tmp_path)).report({})["names"]
    assert [line.rsplit(": ", 1)[1] for line in found] == ["planted_table"]
    (tmp_path / PAPER_BENCHES[-1]).write_text(call)
    assert not Callers(caller_sources(tmp_path)).report({})["names"]


def test_a_base_class_lives_with_its_subclasses(tmp_path):
    # A base is what a live subclass's inherited methods run on; the
    # base of a dead class is dead with it.
    (tmp_path / "src/repro").mkdir(parents=True)
    (tmp_path / "src/repro/planted.py").write_text(
        "class PlantedBase:\n    def run(self):\n        return 1\n"
        "class PlantedLive(PlantedBase):\n    pass\n"
        "class PlantedDeadBase:\n    pass\n"
        "class PlantedDead(PlantedDeadBase):\n    pass\n"
        "def main():\n    return PlantedLive().run()\n"
    )
    found = Callers(caller_sources(tmp_path), ["main"]).report({})["names"]
    assert {line.rsplit(": ", 1)[1] for line in found} == {
        "PlantedDeadBase", "PlantedDead",
    }


ROWS = pytest.mark.parametrize("kind", sorted(ALLOWANCES))


@ROWS
def test_every_method_constant_and_option_has_a_caller(report, kind):
    found = report[kind]
    assert not found, (
        f"{kind} nothing under {CALLER_ROOTS} reaches: delete them with the "
        "tests that only they kept (an option goes by inlining its default "
        "as a module constant), or allow one for one of REASONS\n"
        + "\n".join(found)
    )


@ROWS
def test_every_allowance_is_needed(callers, kind):
    without = {line.rsplit(": ", 1)[1] for line in callers.report(_allowed(kind))[kind]}
    stale = sorted(set(ALLOWANCES[kind]) - without)
    assert not stale, f"gone or reached now: drop their {kind} allowances: {stale}"


def test_every_allowance_gives_one_of_the_reasons():
    for allowances in ALLOWANCES.values():
        for key, reason in allowances.items():
            assert reason in REASONS or (
                reason.startswith(changes("")) and reason != changes("")
            ), f"{key}: {reason!r} is not one of REASONS"


#: A planted module: one dead thing of each kind, reached only by a test
#: or by a dead caller, next to the live code that reaches the rest, and
#: a method whose only "use" is a local variable spelled like it.
PLANTED = {
    "src/repro/planted.py": (
        "class Planted:\n"
        "    def run(self):\n"
        "        shadowed = self.helper()\n"
        "        return shadowed\n"
        "    def helper(self):\n"
        "        return knob(1, size=2)\n"
        "    def dead_method(self):\n"
        "        return knob(1, scale=2)\n"
        "    def shadowed(self):\n"
        "        return 0\n"
        "PLANTED_CONSTANT = 3\n"
        "def knob(x, *, size=1, scale=1):\n"
        "    return x * size * scale\n"
        "def main():\n"
        "    return Planted().run()\n"
    ),
    "tests/test_planted.py": (
        "from repro.planted import PLANTED_CONSTANT, Planted, knob\n"
        "def test_it():\n"
        "    assert Planted().dead_method() == PLANTED_CONSTANT - knob(1, scale=1)\n"
    ),
}

#: What each row must report on PLANTED, and what a caller under src/
#: (PLANTED_CALLER) clears.
PLANTED_FINDINGS = {
    "methods": [
        "repro.planted.Planted.dead_method", "repro.planted.Planted.shadowed",
    ],
    "constants": ["repro.planted.PLANTED_CONSTANT"],
    "options": ["repro.planted.knob.scale"],
}
PLANTED_CALLER = (
    "from .planted import PLANTED_CONSTANT, Planted, knob\n"
    "def main():\n"
    "    planted = Planted()\n"
    "    return (planted.dead_method(), planted.shadowed(), PLANTED_CONSTANT,\n"
    "            knob(2, scale=3))\n"
)


@ROWS
def test_the_row_fires_on_planted_defs(tmp_path, kind):
    for path, text in PLANTED.items():
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / path).write_text(text)
    # The test's uses are not read (tests are no CALLER_ROOT); the dead
    # method's call of knob(scale=) is not a pass: the fixed point.
    found = Callers(caller_sources(tmp_path), ["main"]).report({})[kind]
    assert [line.rsplit(": ", 1)[1] for line in found] == PLANTED_FINDINGS[kind]
    (tmp_path / "src/repro/caller.py").write_text(PLANTED_CALLER)
    assert not Callers(caller_sources(tmp_path), ["main"]).report({})[kind]


#: Options whose every pass forwards a value from elsewhere: a defaulted
#: parameter handed on by keyword, by position and through ``self``, and
#: a ``*Config`` field fed by ``args.<dest>`` of a ``serve`` flag.
FORWARDED = {
    "src/repro/planted.py": (
        "from dataclasses import dataclass\n"
        "def knob(x, *, size=1):\n"
        "    return x * size\n"
        "def middle(x, size=1):\n"
        "    return knob(x, size=size)\n"
        "def top(x, *, size=1):\n"
        "    return middle(x, size)\n"
        "class Holder:\n"
        "    def __init__(self, size=1):\n"
        "        self.size = size\n"
        "    def run(self):\n"
        "        return knob(1, size=self.size)\n"
        "@dataclass\n"
        "class PlantedConfig:\n"
        "    size: int = 1\n"
        "    socket: str = ''\n"
    ),
    CLI: (
        "import argparse\n"
        "from ..planted import Holder, PlantedConfig, top\n"
        "def build_parser():\n"
        "    parser = argparse.ArgumentParser()\n"
        "    sub = parser.add_subparsers(dest='command')\n"
        "    srv = sub.add_parser('serve')\n"
        "    srv.add_argument('--socket', default=None)\n"
        "    srv.add_argument('--planted-size', type=int, default=1)\n"
        "    return parser\n"
        "def main():\n"
        "    args = build_parser().parse_args()\n"
        "    config = PlantedConfig(size=args.planted_size, socket=args.socket)\n"
        "    return top(1), Holder().run(), config\n"
    ),
}


def _forwarded_findings(tree: pathlib.Path) -> List[str]:
    found = Callers(caller_sources(tree), ["main"]).report({})["options"]
    return sorted(line.rsplit(": ", 1)[1] for line in found)


def test_a_pass_counts_only_where_its_value_starts(tmp_path):
    for path, text in FORWARDED.items():
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / path).write_text(text)
    # Every pass is a forward, and no value starts anywhere: the whole
    # chain fires, and so do the serve flags no caller root names.
    assert _forwarded_findings(tmp_path) == [
        "repro-ubac serve --planted-size",
        "repro-ubac serve --socket",
        "repro.planted.Holder.size",
        "repro.planted.PlantedConfig.size",
        "repro.planted.PlantedConfig.socket",
        "repro.planted.knob.size",
        "repro.planted.middle.size",
        "repro.planted.top.size",
    ]
    # One root call that passes a value clears the chain below it ...
    (tmp_path / "src/repro/caller.py").write_text(
        "from .planted import top\ndef main():\n    return top(2, size=3)\n"
    )
    # ... and a caller root that names a serve flag passes it, and the
    # config field it feeds.
    (tmp_path / "benchmarks/waterfall").mkdir(parents=True)
    (tmp_path / "benchmarks/waterfall/run.py").write_text(
        "ARGV = ['serve', '--socket', 's.sock']\n"
    )
    assert _forwarded_findings(tmp_path) == [
        "repro-ubac serve --planted-size",
        "repro.planted.Holder.size",
        "repro.planted.PlantedConfig.size",
    ]


# ---------------------------------------------------------------------- #
# the tool config names modules that exist
# ---------------------------------------------------------------------- #


def mypy_override_modules(pyproject: str) -> List[str]:
    """The ``module`` patterns of every ``[[tool.mypy.overrides]]`` table."""
    found = []
    for table in pyproject.split("[[tool.mypy.overrides]]")[1:]:
        table = table.split("\n[", 1)[0]
        value = re.search(r"^module\s*=\s*(\[[^\]]*\]|\"[^\"]*\")", table, re.M)
        assert value, f"an override table without a module:\n{table}"
        found += re.findall(r'"([^"]+)"', value.group(1))
    return found


def module_exists(tree: pathlib.Path, pattern: str) -> bool:
    """Whether the mypy module pattern (``a.b`` or ``a.b.*``) names at
    least one file under ``src/``."""
    path = tree / "src" / pattern.removesuffix(".*").replace(".", "/")
    return path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()


def test_every_mypy_override_names_a_module():
    modules = mypy_override_modules((REPO / "pyproject.toml").read_text("utf-8"))
    assert "repro.analysis.*" in modules and "repro.obs.*" in modules
    missing = [m for m in modules if not module_exists(REPO, m)]
    assert not missing, f"pyproject.toml overrides name no module: {missing}"
    assert not module_exists(REPO, "repro.nowhere.*")


# ---------------------------------------------------------------------- #
# cited tests exist
# ---------------------------------------------------------------------- #

NODE_ID = re.compile(r"tests/\w+\.py(?:::\w+)+")
#: Files that cite tests by node id.
CITING = ("README.md", "EXPERIMENTS.md", "docs")


def _cited_node_ids():
    cited = {}
    for root in CITING:
        path = REPO / root
        files = [path] if path.is_file() else sorted(path.glob("*.md"))
        for file in files:
            for match in NODE_ID.finditer(file.read_text(encoding="utf-8")):
                cited.setdefault(match.group(), root)
    return cited


def test_every_cited_test_node_id_resolves():
    cited = _cited_node_ids()
    for node_id in cited:
        path, *names = node_id.split("::")
        scope = ast.parse((REPO / path).read_text(encoding="utf-8")).body
        for name in names:
            found = [
                node for node in scope
                if isinstance(
                    node,
                    (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
                )
                and node.name == name
            ]
            assert found, f"{node_id}: no {name!r} (cited in {cited[node_id]})"
            scope = found[0].body


# ---------------------------------------------------------------------- #
# the one benchmark's contract with the program it drives
# ---------------------------------------------------------------------- #

WATERFALL = REPO / "benchmarks" / "waterfall"


def _load(name: str):
    """A waterfall module by path: it is not a package, and importing
    it must not need one made of it."""
    spec = importlib.util.spec_from_file_location(
        f"waterfall_{name}", WATERFALL / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def loadgen():
    return _load("loadgen")


def test_serve_accepts_every_waterfall_command_line(loadgen, tmp_path):
    # Exactly what the pipeline's benchmark spawns: a renamed serve flag
    # must fail here, not in the driver after the PR is submitted.
    parser = build_parser()
    for workload in loadgen.WORKLOADS.values():
        command = loadgen.Server(str(tmp_path), workload, "t").command()
        assert command[1:4] == ["-m", "repro.experiments.cli", "serve"]
        try:
            args = parser.parse_args(command[3:])
        except SystemExit:
            pytest.fail(f"serve refuses {workload.name}: {command[3:]}")
        assert args.topology == loadgen.TOPOLOGY
        assert args.alpha == loadgen.ALPHA
        assert (args.audit is not None) == workload.audit


def test_benchmark_json_is_what_the_catalogue_generates(loadgen):
    catalogue = _load("catalogue")
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as fh:
        assert json.load(fh) == catalogue.benchmark_json(
            loadgen.WORKLOADS.values()
        )


def test_every_history_row_names_its_commit_and_machine(loadgen):
    # BENCH_history.jsonl is appended to by `run.py --history`, never
    # rewritten; a row without a commit or a machine fingerprint is a
    # number nobody can place.
    catalogue = _load("catalogue")
    gated = {metric.name for metric in catalogue.END_TO_END}
    lines = (REPO / "BENCH_history.jsonl").read_text("utf-8").splitlines()
    seen = set()
    for number, line in enumerate(lines, 1):
        row = json.loads(line)
        where = f"BENCH_history.jsonl:{number}"
        assert row["workload"] in loadgen.WORKLOADS, where
        assert isinstance(row["seed"], int) and row["at"], where
        machine = row["machine"]
        assert machine["commit"], f"{where}: no commit"
        for key in ("cpu_model", "cpu_count", "python", "numpy"):
            assert machine[key], f"{where}: no machine {key}"
        if not row["traced"]:
            assert gated <= set(row["metrics"]), where
        seen.add(row["workload"])
    assert seen == set(loadgen.WORKLOADS)
