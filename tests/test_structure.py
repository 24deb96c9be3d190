"""Structure ratchets — "there is one of each", enforced where it runs.

Each row of ``RATCHETS`` names one way a duplicate this repository
deleted would come back (a second framing loop, a second kernel call
site, a package-level import on the serve path …), as a regular
expression over named roots.  They were ``grep`` steps in a CI workflow
that executes nowhere a session can see; tier-1 is the check that runs.

Three more checks of the same kind ride along: every row is shown to
fire on a planted offender (so a renamed file or a moved root cannot
turn a row into a silent pass), every pytest node id the workflow and
the docs cite resolves to a test, and the one benchmark's command
lines are accepted by the ``serve`` parser they are passed to.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import pathlib
import re
import sys
from dataclasses import dataclass
from typing import List, Tuple

import pytest

from repro.experiments.cli import build_parser

THIS_FILE = pathlib.Path(__file__).resolve()
REPO = THIS_FILE.parent.parent

#: A directory root is walked for these; a root that names a file is
#: read whatever its suffix.
TEXT_SUFFIXES = (".py", ".md", ".toml")

#: The subpackages of ``repro`` (none may be imported as a package from
#: library code).
PACKAGES = (
    "admission|analysis|config|control|experiments|faults|routing|service"
    "|simulation|statistical|topology|traffic|verify|workload"
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
        allowed=(
            r"^src/repro/simulation/",
            r"^src/repro/statistical/empirical\.py:",
        ),
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
            "Cluster workers and the chaos harness both start through "
            "service/launch.py; the child environment built in a second "
            "file is the copy coming back."
        ),
        pattern=r"PYTHONPATH",
        roots=("src/repro",),
        offender=(
            "src/repro/faults/process.py",
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
# cited tests exist
# ---------------------------------------------------------------------- #

NODE_ID = re.compile(r"tests/\w+\.py(?:::\w+)+")
WORKFLOW = ".github/workflows/ci.yml"
#: Files that cite tests by node id.  The workflow *runs* the ones it
#: cites, so a renamed test would orphan a CI step.
CITING = (WORKFLOW, "README.md", "EXPERIMENTS.md", "docs")


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
    # The four smoke phases that are a call of their tier-1 twin.
    assert sum(1 for root in cited.values() if root == WORKFLOW) >= 4
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
