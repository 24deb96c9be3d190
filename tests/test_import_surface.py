"""The import graph follows the call graph — a ratchet, and the public
API it must not cost.

Start-up is the one latency every process pays (and every restarted
worker pays again), and most of it used to be importing modules `serve`
never calls.  The first half counts, in a fresh interpreter, what a
served process has loaded: deterministic module counts, not timings.
The second half holds the lazy package surface to the eager one it
replaced: every exported name resolves, and the `TYPE_CHECKING` blocks
type checkers read say exactly what the tables do.
"""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent

#: Packages whose ``__init__`` is a lazy table (``obs`` is code).
LAZY_PACKAGES = ["repro"] + sorted(
    f"repro.{path.parent.name}"
    for path in SRC.glob("*/__init__.py")
    if path.parent.name != "obs"
)

#: What `serve` must not load, by module-name prefix.
NOT_ON_THE_SERVE_PATH = (
    "networkx",
    "repro.simulation",
    "repro.workload",
    "repro.faults.harness",
    "repro.verify",
    "repro.experiments.sweeps",
    "repro.experiments.table1",
    "repro.experiments.scenarios",
    "repro.service.router",
    "repro.service.cluster",
    "repro.service.client",
    "repro.service.replay",
)

#: Modules only a `serve` flag calls: loaded where the flag is acted on,
#: when the server is built, and never by a plain serve.  `hashlib` (via
#: the audit log) comes without `_hashlib`: its digests are the builtin
#: `_sha256` / `_blake2`.
FLAG_MODULES = {
    "--audit": ("repro.service.audit",),
    "--metrics-port": ("repro.service.http",),
    "--snapshot": ("repro.service.snapshots",),
    "--governor": ("repro.control.governor",),
    "--preempt": ("repro.control.preempt",),
}

#: Not loaded by any serve: `/metrics` renders through `obs.export` on
#: its first scrape, and one real-time class needs neither the
#: multi-class fixed point nor the envelope arithmetic.
NOT_SERVED = (
    "repro.obs.export",
    "repro.analysis.multiclass",
    "repro.traffic.envelope",
)

#: Never loaded by any serve, whatever its flags: OpenSSL (libssl and
#: libcrypto, ≈ 4 MB resident), which `import asyncio` and `hashlib`
#: would otherwise map (`cli.NOT_SERVED_MODULES`); and `fractions`,
#: whose `decimal` adds ≈ 0.23 MB resident after the serve imports,
#: against the benchmark's 0.1 MB `server_rss_mb` bound
#: (`ledger.granted_slots` floors exactly on `float.as_integer_ratio`
#: instead); and numpy (≈ 0.1 s of start-up and ≈ 11.7 MB resident),
#: which the run-time path's integer lists and the start-up Figure 2's
#: plain-Python iteration (`analysis.theorem3`) do without, also
#: blocked by `cli.NOT_SERVED_MODULES`.  Names, not prefixes.
NEVER_SERVED = ("ssl", "_ssl", "_hashlib", "fractions", "decimal", "numpy")

#: `repro.*` modules a served process may hold (108 before the package
#: surface went lazy, 52 before imports followed flags, 43 and 49 before
#: the rolling SLO tracker and the span sink went, 42 and 47 before the
#: one-class Figure 2 stopped loading the numpy solver's four modules).
#: Counted over `repro.*` only, so the number does not depend on the
#: Python version; the CLI module counts (`-m` runs it as `__main__`
#: instead).
MAX_REPRO_MODULES = {"plain": 38, "everything": 43}

#: Statement lines (`code_lines`) of the `repro.*` modules a serve loads,
#: plain and with every flag (plain: 7285 before the knobs only tests set
#: became constants, 7034 before the SLO tracker went, 6814 before the
#: flow table became a dict over interned routes, 6783 before the
#: one-shot commands' bodies left `cli` for `commands`, 6737 before a
#: limit became a slot vector instead of a float factor, 6722 before
#: the slot kernel's interval rounds gave way to its sequential loop;
#: everything: 8073 before the tracker and the span sink went, 7777
#: before the routes, 7746 before the commands moved, 7700 before the
#: limit, 7684 before the rounds; 6629 / 7591 before numpy left the
#: served process; 6270 / 7237 before the one-class Figure 2 solved in
#: dependency order, whose Tarjan condensation and per-component stop
#: rules added 83 lines to `analysis.theorem3` while a ladder that
#: certifies its base alone took 7 out of `control.ladder`; 6346 / 7313
#: before the `repro.analysis` export table lost the solver workspace
#: and the per-server fan-in vector; 6337 / 7304 before the flow table
#: stored each route as one server tuple; 6283 / 7250 before the server
#: and the cluster supervisor shared one lifecycle in `service.conn` and
#: the one-class and multi-class verdicts one chain in
#: `analysis.verification`; 6276 / 7240 before the drain state, its
#: refusal rule and the status header moved onto the connection layer,
#: the server lost its own `healthz` and `serve` gained its stderr
#: handler).
#: Under `PYTHONDONTWRITEBYTECODE=1`,
#: the benchmark's setting, every start compiles all of them: the
#: largest start-up cost this package controls (`docs/performance.md`,
#: *Cold start*).
MAX_SERVED_CODE_LINES = {"plain": 6271, "everything": 7230}


def serve_argv(tmp_path, *flags):
    return [
        "serve", "--socket", str(tmp_path / "u.sock"), "--topology", "mci",
        "--alpha", "0.3", "--serve-seconds", "0.05", *flags,
    ]


def flag_argv(tmp_path, flag):
    """`flag` as a serve command line spells it."""
    value = {
        "--audit": [str(tmp_path / "audit.jsonl")],
        "--metrics-port": ["0"],
        "--snapshot": [str(tmp_path / "snap.json")],
    }.get(flag, [])
    return [flag, *value]

_RUN_MAIN = """
import json, sys
from repro.experiments.cli import main
try:
    code = main(json.loads(sys.argv[1]))
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def modules_after(argv):
    """`sys.modules` of a fresh interpreter after `repro-ubac ARGV`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_MAIN, json.dumps(argv)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] in (0, None), proc.stdout
    return result["modules"]


def under(modules, prefix):
    return [m for m in modules if m == prefix or m.startswith(prefix + ".")]


def _docstrings(tree):
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (
            isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
            and body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            yield body[0]


def code_lines(path):
    """Lines of ``path`` that hold a statement, docstrings excluded: all
    of a simple statement's lines, a compound statement's header."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    skip = {id(node) for doc in _docstrings(tree) for node in ast.walk(doc)}
    lines = set()
    for node in ast.walk(tree):
        if id(node) in skip or not hasattr(node, "end_lineno"):
            continue
        if isinstance(node, ast.stmt) and hasattr(node, "body"):
            lines.add(node.lineno)  # its header's expressions add the rest
        else:
            lines.update(range(node.lineno, node.end_lineno + 1))
    return len(lines)


def module_file(name):
    path = SRC.parent.joinpath(*name.split("."))
    return path / "__init__.py" if path.is_dir() else path.with_suffix(".py")


@pytest.mark.parametrize("flags", ["plain", "everything"])
def test_serve_loads_only_what_it_runs(tmp_path, flags):
    argv = serve_argv(tmp_path)
    if flags == "everything":
        for flag in FLAG_MODULES:
            argv += flag_argv(tmp_path, flag)
    modules = modules_after(argv)
    assert "repro.service.server" in modules  # it did serve
    # ... and what the first request needs is loaded before it arrives:
    # laziness is for what a process never runs, not for its hot path.
    assert "repro.admission.kernels" in modules
    for prefix in NOT_ON_THE_SERVE_PATH + NOT_SERVED:
        assert under(modules, prefix) == []
    assert [m for m in NEVER_SERVED if m in modules] == []
    gated = [m for names in FLAG_MODULES.values() for m in names]
    if flags == "plain":
        assert [m for m in gated + ["hashlib"] if m in modules] == []
    else:
        assert [m for m in gated if m not in modules] == []
    assert len(under(modules, "repro")) <= MAX_REPRO_MODULES[flags]
    served = sum(code_lines(module_file(m)) for m in under(modules, "repro"))
    assert served <= MAX_SERVED_CODE_LINES[flags]


@pytest.mark.parametrize("flag", sorted(FLAG_MODULES))
def test_each_serve_flag_adds_exactly_its_own_modules(tmp_path, flag):
    plain = set(modules_after(serve_argv(tmp_path)))
    flagged = set(modules_after(serve_argv(tmp_path, *flag_argv(tmp_path, flag))))
    added = flagged - plain
    assert sorted(under(added, "repro")) == sorted(FLAG_MODULES[flag])
    assert ("hashlib" in added) == (flag == "--audit")
    assert [m for m in NEVER_SERVED if m in flagged] == []
    assert plain <= flagged


_SERVE_ONE_ADMIT_AND_ONE_RELEASE = """
import gc, json, os, signal, sys, threading, time
from repro.experiments import cli
# Imported here, not in drive(): a thread compiling modules while serve
# is entered could start a collection before _run_serve's gc.disable().
from repro.service.client import ServiceClient
from repro.traffic.flows import FlowSpec

sock = sys.argv[1]
served = {}
collector = {"early": 0}

def count_early(phase, info):
    # After _run_serve is entered and before the start-up heap is
    # frozen (which happens once the listener is up).
    if (
        phase == "start" and "entered" in collector
        and "serving" not in collector and not gc.get_freeze_count()
    ):
        collector["early"] += 1

run_serve = cli._run_serve
def entered(args):
    collector["entered"] = True
    return run_serve(args)
cli._run_serve = entered
gc.callbacks.append(count_early)

def drive():
    try:
        deadline = time.monotonic() + 60
        while not os.path.exists(sock) and time.monotonic() < deadline:
            time.sleep(0.01)
        with ServiceClient(socket_path=sock) as client:
            flow = FlowSpec("f", "voice", "Seattle", "Denver")
            served["admitted"] = client.admit(flow).admitted
            collector["serving"] = [gc.isenabled(), gc.get_freeze_count()]
            served["released"] = client.release("f")
    finally:
        os.kill(os.getpid(), signal.SIGTERM)  # drain: main() returns

thread = threading.Thread(target=drive)
thread.start()
code = cli.main(["serve", "--socket", sock, "--topology", "mci",
                 "--serve-seconds", "120"])
thread.join()
print(json.dumps({
    "code": code, "served": served, "collector": collector,
    "modules": sorted(sys.modules),
}))
"""


@pytest.fixture(scope="module")
def served_once(tmp_path_factory):
    """One served admit and release, in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), env.get("PYTHONPATH")])
    )
    sock = tmp_path_factory.mktemp("served") / "u.sock"
    proc = subprocess.run(
        [sys.executable, "-c", _SERVE_ONE_ADMIT_AND_ONE_RELEASE, str(sock)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] in (0, None), proc.stdout
    assert result["served"] == {"admitted": True, "released": True}
    return result


def test_a_served_release_does_not_import_numpy_ma(served_once):
    """`np.unique` imports `numpy.ma` (1.2 MB resident, ~9 ms inside
    the first release frame); the release path loops over the class
    codes it knows instead."""
    assert "repro.admission.kernels" in served_once["modules"]
    assert under(served_once["modules"], "numpy.ma") == []


_SERVE_EVERY_OUTCOME = """
import json, os, signal, sys, threading, time
from repro.experiments import cli
from repro.service.client import ServiceClient

sock = sys.argv[1]
seen = {}

def ops(prefix):
    # 31 slots a link on Seattle <-> Denver at alpha 0.01: 31 admits,
    # one refused, a hard-RT arrival that evicts, a release and an
    # error.
    admits = [(f"{prefix}{i}", "elastic") for i in range(32)]
    return admits + [(f"{prefix}-hard", "hard_rt")], [f"{prefix}1", "nobody"]

def v1_frame():
    admits, releases = ops("a")
    return [
        {"op": "admit", "flow": {"id": fid, "cls": "voice", "src": "Seattle",
                                 "dst": "Denver", "pri": pri}}
        for fid, pri in admits
    ] + [{"op": "release", "flow_id": fid} for fid in releases]

def v2_frame():
    admits, releases = ops("b")
    return [[0, fid, "voice", "Denver", "Seattle", None, pri]
            for fid, pri in admits] + [[1, fid] for fid in releases]

def v1_outcome(result):
    if not result["ok"]:
        return "error"
    if "admitted" in result["result"]:
        return "admitted" if result["result"]["admitted"] else "rejected"
    return "released"

def drive():
    try:
        deadline = time.monotonic() + 60
        while not os.path.exists(sock) and time.monotonic() < deadline:
            time.sleep(0.01)
        with ServiceClient(socket_path=sock) as v1, ServiceClient(
            socket_path=sock, protocol="v2"
        ) as v2:
            before = set(sys.modules)
            v1_results = v1.batch(v1_frame())
            v2_slots = v2.bulk(v2_frame(), raw=True)
            seen["imported"] = sorted(set(sys.modules) - before)
            seen["v1"] = [v1_outcome(r) for r in v1_results]
            seen["v2"] = [slot[0] for slot in v2_slots]
            seen["preemption"] = v1.stats()["preemption"]
    finally:
        os.kill(os.getpid(), signal.SIGTERM)  # drain: main() returns

thread = threading.Thread(target=drive)
thread.start()
code = cli.main(["serve", "--socket", sock, "--topology", "mci", "--alpha",
                 "0.01", "--preempt", "--serve-seconds", "120"])
thread.join()
print(json.dumps({"code": code, **seen}))
"""


def test_serving_every_outcome_imports_nothing(tmp_path):
    """Once `serve` listens, a v1 `batch` frame and a v2 `B` frame that
    each admit, refuse, preempt, release and fail import no module: a
    lazy import inside a decision costs its resident memory in every
    served process (`np.unique` pulled `numpy.ma` in, +1.57 MB) and its
    time in the frame that first takes that path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SERVE_EVERY_OUTCOME, str(tmp_path / "u.sock")],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] in (0, None), proc.stdout
    outcome = ["admitted"] * 31 + ["rejected", "admitted", "released", "error"]
    assert result["v1"] == outcome
    assert result["v2"] == [0] * 31 + [1, 0, 2, 3]
    assert result["preemption"]["preempted_admits"] == 2
    assert result["imported"] == []


def test_no_collection_before_the_listener(served_once):
    """Start-up builds ~31k objects that all live as long as the
    process: the collector stays off until the listener is up (59
    collections before), then the heap it built is frozen out of
    every later collection and the collector runs again."""
    collector = served_once["collector"]
    assert collector["entered"]
    assert collector["early"] == 0
    enabled, frozen = collector["serving"]
    assert enabled and frozen > 0


def test_version_needs_neither_numpy_nor_networkx():
    modules = modules_after(["--version"])
    assert under(modules, "numpy") == [] and under(modules, "networkx") == []


# --------------------------------------------------------------------- #
# the public surface the lazy tables must keep
# --------------------------------------------------------------------- #

#: `repro.__all__` as the eager ``__init__`` wrote it out, less the
#: names deleted since because nothing but their tests called them.
ROOT_ALL = """
AdmissionController AdmissionDecision AdmissionError AnalysisError
ClassRegistry ConfigurationError ConfiguredNetwork Envelope
EnvelopeError FixedPointResult FlowAwareAdmissionController
FlowAwareResult FlowSpec HeuristicOptions InfeasibleUtilization
LinkServerGraph MaximizationResult MultiClassResult
MultiClassRouteSelector MulticlassScaleResult Network NoRouteError
PAPER_TABLE1 PacketPattern PaperScenario RepairResult ReplayStats
ReproError RouteSystem RoutingError SafeRouteSelector SelectionOutcome
SimulationError SimulationReport Simulator SingleClassResult
Table1Result TopologyError TrafficClass TrafficError
UtilizationAdmissionController UtilizationBounds UtilizationLedger
VerificationResult __version__ all_ordered_pairs beta_coefficient
candidate_routes configure critical_alpha flow_aware_delays
leaky_bucket_envelope max_utilization_heuristic
max_utilization_shortest_path maximize_multiclass_scale mci_backbone
multi_class_delays nsfnet_backbone obs paper_scenario
repair_after_link_failure replay_schedule run_table1
shortest_path_routes single_class_delays sweep_burst sweep_deadline
theorem3_delay theorem4_lower_bound theorem4_upper_bound
uniform_worst_delay utilization_bounds verify_assignment
verify_safe_assignment voice_class
""".split()


def test_root_all_is_what_it_was():
    assert sorted(repro.__all__) == sorted(ROOT_ALL)
    assert len(set(repro.__all__)) == len(repro.__all__)


@pytest.mark.parametrize("package", LAZY_PACKAGES + ["repro.obs"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert module.__all__
    listed = dir(module)
    for name in module.__all__:
        assert name in listed
        value = getattr(module, name)
        assert vars(module)[name] is value  # cached: the hook fired once
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name")


def test_submodules_still_resolve_as_attributes():
    # `import repro; repro.topology.network.Network` worked when every
    # package imported its submodules eagerly, and still does.
    assert repro.topology.network.Network is repro.Network
    assert repro.service.protocol.PROTOCOL_SCHEMA


def _type_checking_imports(tree):
    """{relative module: [names]} imported under ``if TYPE_CHECKING:``."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            for stmt in node.body:
                assert isinstance(stmt, ast.ImportFrom), ast.unparse(stmt)
                module = "." * stmt.level + (stmt.module or "")
                found.setdefault(module, []).extend(
                    alias.name for alias in stmt.names
                )
    return found


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_type_checkers_see_exactly_the_table(package):
    path = SRC.joinpath(*package.split(".")[1:], "__init__.py")
    tree = ast.parse(path.read_text())
    tables = [
        ast.literal_eval(node.value.args[2])
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Call)
        and ast.unparse(node.value.func) == "lazy_exports"
    ]
    assert len(tables) == 1
    assert _type_checking_imports(tree) == {
        module: list(names) for module, names in tables[0].items()
    }
    # Nothing is imported eagerly beside the table (the root package
    # also sets up logging, `obs` and the version).
    eager = [
        ast.unparse(node)
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    allowed = {
        "from typing import TYPE_CHECKING",
        "from ._lazy import lazy_exports",
        "from .._lazy import lazy_exports",
    }
    if package == "repro":
        allowed |= {
            "import logging as _logging",
            "from . import obs",
            "from ._version import __version__",
        }
    assert set(eager) <= allowed
