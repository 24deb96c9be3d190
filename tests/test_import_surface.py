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
    "repro.statistical",
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

#: `repro.*` modules a served process may hold (108 before the package
#: surface went lazy, 53-54 after).  Counted over `repro.*` only, so the
#: number does not depend on the Python version.
MAX_REPRO_MODULES = 60

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


@pytest.mark.parametrize("flags", ["plain", "everything"])
def test_serve_loads_only_what_it_runs(tmp_path, flags):
    argv = [
        "serve", "--socket", str(tmp_path / "u.sock"), "--topology", "mci",
        "--alpha", "0.3", "--serve-seconds", "0.05",
    ]
    if flags == "everything":
        argv += [
            "--governor", "--preempt", "--metrics-port", "0",
            "--audit", str(tmp_path / "audit.jsonl"),
        ]
    modules = modules_after(argv)
    assert "repro.service.server" in modules  # it did serve
    # ... and what the first request needs is loaded before it arrives:
    # laziness is for what a process never runs, not for its hot path.
    assert "repro.admission.kernels" in modules
    for prefix in NOT_ON_THE_SERVE_PATH:
        assert under(modules, prefix) == []
    assert len(under(modules, "repro")) <= MAX_REPRO_MODULES


_SERVE_ONE_ADMIT_AND_ONE_RELEASE = """
import json, os, signal, sys, threading, time
from repro.experiments.cli import main

sock = sys.argv[1]
served = {}

def drive():
    from repro.service.client import ServiceClient
    from repro.traffic.flows import FlowSpec
    try:
        deadline = time.monotonic() + 60
        while not os.path.exists(sock) and time.monotonic() < deadline:
            time.sleep(0.01)
        with ServiceClient(socket_path=sock) as client:
            flow = FlowSpec("f", "voice", "Seattle", "Denver")
            served["admitted"] = client.admit(flow).admitted
            served["released"] = client.release("f")
    finally:
        os.kill(os.getpid(), signal.SIGTERM)  # drain: main() returns

thread = threading.Thread(target=drive)
thread.start()
code = main(["serve", "--socket", sock, "--topology", "mci",
             "--serve-seconds", "120"])
thread.join()
print(json.dumps(
    {"code": code, "served": served, "modules": sorted(sys.modules)}
))
"""


def test_a_served_release_does_not_import_numpy_ma(tmp_path):
    """`np.unique` imports `numpy.ma` (1.2 MB resident, ~9 ms inside
    the first release frame); the release path loops over the class
    codes it knows instead."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SERVE_ONE_ADMIT_AND_ONE_RELEASE,
         str(tmp_path / "u.sock")],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] in (0, None), proc.stdout
    assert result["served"] == {"admitted": True, "released": True}
    assert "repro.admission.kernels" in result["modules"]
    assert under(result["modules"], "numpy.ma") == []


def test_version_needs_neither_numpy_nor_networkx():
    modules = modules_after(["--version"])
    assert under(modules, "numpy") == [] and under(modules, "networkx") == []


# --------------------------------------------------------------------- #
# the public surface the lazy tables must keep
# --------------------------------------------------------------------- #

#: `repro.__all__` as the eager ``__init__`` wrote it out.
ROOT_ALL = """
AdmissionController AdmissionDecision AdmissionError AnalysisError
ClassRegistry ConfigurationError ConfiguredNetwork DelayDistribution
Envelope EnvelopeError FixedPointDivergence FixedPointResult
FlowAwareAdmissionController FlowAwareResult FlowSet FlowSpec
HeuristicOptions InfeasibleUtilization LinkServerGraph MaximizationResult
MultiClassResult MultiClassRouteSelector MulticlassScaleResult Network
NoRouteError OverbookedAdmissionController PAPER_TABLE1 PacketPattern
PaperScenario RepairResult ReplayStats ReproError RouteSelectionFailure
RouteSystem RoutingError SafeRouteSelector SelectionOutcome SimulationError
SimulationReport Simulator SingleClassResult Table1Result TopologyError
TrafficClass TrafficError UtilizationAdmissionController UtilizationBounds
UtilizationLedger VerificationResult __version__ all_ordered_pairs
beta_coefficient calibrate_overbooking candidate_routes configure
critical_alpha estimate_delay_distribution flow_aware_delays
leaky_bucket_envelope max_utilization_heuristic
max_utilization_shortest_path maximize_multiclass_scale
maximize_utilization mci_backbone multi_class_delays nsfnet_backbone obs
paper_scenario repair_after_link_failure replay_schedule run_table1
select_safe_routes sensitivity_report shortest_path_routes
single_class_delays sweep_burst sweep_deadline theorem3_delay
theorem4_lower_bound theorem4_upper_bound uniform_worst_delay
utilization_bounds verify_assignment verify_safe_assignment voice_class
""".split()


def test_root_all_is_what_it_was():
    assert sorted(repro.__all__) == sorted(ROOT_ALL)
    assert len(set(repro.__all__)) == len(repro.__all__)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
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
