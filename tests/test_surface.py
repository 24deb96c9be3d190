"""Every entry point names what it serves.

``SURFACE`` has one row per ``repro-ubac`` subcommand and per optional
``serve`` feature.  A row names the paper artefact it reproduces or the
north-star aim it serves (ROADMAP), and the tier-1 tests or kept
benches that run it; each ``serve`` option belongs to exactly one row.
A subcommand or ``serve`` option with no row fails here, and so does a
row with no answer: delete the entry point with its tests and docs, or
say what it is for.  ``tests/test_paper_benches.py`` asks the benches
the same question.
"""

import ast
import argparse
import functools
import pathlib
import re
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.experiments.cli import build_parser
from test_paper_benches import PAPER_BENCHES

REPO = pathlib.Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Row:
    #: A subcommand (``table1``) or a served feature (``serve --audit``).
    name: str
    #: The ``serve`` options the row owns (none for most subcommands).
    flags: Tuple[str, ...]
    #: The paper artefact or the north-star aim it serves.
    serves: str
    #: Tier-1 tests (``path::function`` or ``path::Class::method``) or
    #: kept benches (``path``) that run it; between them they spell the
    #: subcommand and every option of the row.
    exercised_by: Tuple[str, ...]


#: What a row may answer: an artefact of the paper, an extension row of
#: EXPERIMENTS.md, or one of ROADMAP's four aims.
ARTEFACTS = (
    "Table 1", "Figure 2", "Figure 4", "Theorem 3", "Theorem 4",
    "Theorem 5", "Ext-",
)
AIMS = ("aim 1", "aim 2", "aim 3", "aim 4")

SURFACE = (
    # -- the paper's numbers ------------------------------------------ #
    Row(
        "bounds", (),
        "Theorem 4: the closed-form interval of Table 1's LB and UB",
        ("tests/test_experiments_cli.py::test_bounds_command",),
    ),
    Row(
        "table1", (),
        "Table 1 on the Figure 4 backbone",
        (
            "tests/test_experiments_cli.py::test_table1_metrics_and_trace_out",
            "benchmarks/test_bench_table1.py",
        ),
    ),
    Row(
        "verify", (),
        "Figure 2's verification of an alpha; with no alpha, aim 3's "
        "bounded checker over the run-time test",
        (
            "tests/test_experiments_cli.py::test_verify_success",
            "tests/test_verify_cli.py::TestVerifyBounded::"
            "test_default_run_proves_the_default_bound",
        ),
    ),
    Row(
        "sweep", (),
        "Ext-A and Ext-B: Theorem 4 and Table 1's search columns along "
        "the deadline and the burst",
        (
            "tests/test_experiments_cli.py::test_sweep_deadline",
            "benchmarks/test_bench_sweep_deadline.py",
        ),
    ),
    Row(
        "simulate", (),
        "Theorem 3's delay bound against greedy packet sources (Ext-F)",
        ("tests/test_experiments_cli.py::test_simulate_command_success",),
    ),
    # -- the run-time test as a service -------------------------------- #
    Row(
        "serve", ("--socket", "--host", "--port", "--topology", "--alpha"),
        "aim 1: the run-time counter compare of a Figure 2 certified "
        "alpha, served; the benchmark drives it",
        (
            "benchmarks/waterfall/loadgen.py",
            "tests/test_service_cli.py::test_serve_client_roundtrip",
            "tests/test_service_cli.py::test_serve_and_client_over_tcp",
        ),
    ),
    Row(
        "serve --workers", ("--workers", "--shard-index", "--shard-count"),
        "Ext-L: the admitted-share price of a cluster of slot shards; "
        "aim 2: its scale-out ceiling, worker over router calls per op, "
        "held at 2x or more (ROADMAP 3(c))",
        (
            "tests/test_work_counts.py::test_work_counts_match_their_pins",
            "tests/test_service_smoke.py::test_cluster_phase_four_workers",
            "tests/test_service_cli.py::test_serve_single_shard_worker",
            "benchmarks/test_bench_sharded_admission.py",
        ),
    ),
    Row(
        "serve --max-delay-ms", ("--max-delay-ms",),
        "aim 1: the coalescing window the benchmark's overload workload "
        "sets",
        (
            "benchmarks/waterfall/loadgen.py",
            "tests/test_service_cli.py::test_serve_single_shard_worker",
        ),
    ),
    Row(
        "serve --governor", ("--governor", "--governor-interval"),
        "aim 3: under overload, only Figure 2 certified rungs of alpha",
        (
            "benchmarks/waterfall/loadgen.py",
            "tests/test_service_smoke.py::"
            "test_overload_phase_governed_cluster_rides_a_ramp",
        ),
    ),
    Row(
        "serve --preempt", ("--preempt",),
        "aim 3: a rejected hard-RT arrival evicts lower priorities, "
        "never hard_rt",
        (
            "benchmarks/waterfall/loadgen.py",
            "tests/test_service_chaos.py::TestServiceProcess::"
            "test_restart_keeps_hard_rt_flows_out_of_the_preemptors_reach",
        ),
    ),
    Row(
        "serve --snapshot", ("--snapshot", "--snapshot-interval"),
        "aim 3: a restart re-admits every snapshotted flow on its route",
        (
            "tests/test_service_chaos.py::TestServiceProcess::"
            "test_kill9_restart_preserves_established_flows",
        ),
    ),
    Row(
        "serve --drain-grace", ("--drain-grace",),
        "aim 3: /healthz answers 503 before connections close",
        ("tests/test_service_smoke.py::test_v1_phase_full_telemetry",),
    ),
    Row(
        "serve --serve-seconds", ("--serve-seconds",),
        "aim 3: a drain on a clock, how the tests stop an in-process "
        "server",
        ("tests/test_service_cli.py::test_serve_seconds_drains_cleanly",),
    ),
    # -- why a flow was decided as it was (aim 4) ----------------------- #
    Row(
        "serve --audit",
        ("--audit", "--audit-fsync-every", "--audit-max-bytes", "--audit-keep"),
        "aim 4: every decision, its reason and trace context, durable "
        "across kill -9",
        (
            "benchmarks/waterfall/loadgen.py",
            "tests/test_service_cli.py::test_serve_full_telemetry_pipeline",
        ),
    ),
    Row(
        "serve --metrics-port", ("--metrics-port", "--metrics-host"),
        "aim 4: live /metrics, /healthz and /stats",
        (
            "benchmarks/waterfall/loadgen.py",
            "tests/test_service_smoke.py::test_v1_phase_full_telemetry",
            "tests/test_service_smoke.py::"
            "test_metrics_host_is_the_only_address_the_endpoint_answers",
            "tests/test_service_cli.py::"
            "test_serve_parser_defaults_are_service_config_defaults",
        ),
    ),
    Row(
        "serve --metrics-out", ("--metrics-out", "--trace-out"),
        "aim 4: at exit, the series a scrape reads and the span ring as "
        "a Chrome trace",
        ("tests/test_service_cli.py::test_serve_full_telemetry_pipeline",),
    ),
    Row(
        "client", (),
        "aim 4: ask a live server about one flow (admit with its "
        "reason, query, release) or for its stats, without code",
        ("tests/test_service_cli.py::test_serve_client_roundtrip",),
    ),
    Row(
        "audit", (),
        "aim 4: why a flow was admitted or rejected, from the log, and "
        "the log checked against a snapshot",
        (
            "tests/test_service_cli.py::test_audit_cli_filters_and_trace_export",
            "tests/test_service_cli.py::test_serve_full_telemetry_pipeline",
        ),
    ),
    # -- the guarantee under load and failure --------------------------- #
    Row(
        "faults", (),
        "aim 3: survivors keep their deadlines through link failure and "
        "repair (Ext-Q)",
        (
            "tests/test_experiments_cli.py::test_faults_command",
            "benchmarks/test_bench_repair.py",
        ),
    ),
    Row(
        "loadgen", (),
        "aim 1: a reproducible workload against a controller or a live "
        "server",
        (
            "tests/test_service_cli.py::test_loadgen_drives_the_service",
            "tests/test_experiments_cli.py::test_loadgen_batch_mode",
        ),
    ),
)


# --------------------------------------------------------------------- #
# reading the parser and the rows
# --------------------------------------------------------------------- #


def subparsers(parser: argparse.ArgumentParser) -> dict:
    """``{subcommand: its parser}``."""
    (action,) = [
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return dict(action.choices)


def serve_flags(parser: argparse.ArgumentParser) -> List[str]:
    """Every option string of ``serve``, the longest spelling of each."""
    serve = subparsers(parser)["serve"]
    return [
        max(a.option_strings, key=len)
        for a in serve._actions
        if a.option_strings and not isinstance(a, argparse._HelpAction)
    ]


def command_of(row: Row) -> str:
    return row.name.split()[0]


def unlisted(parser: argparse.ArgumentParser, surface=SURFACE) -> List[str]:
    """Subcommands with no row, and ``serve`` options in no row or in
    more than one."""
    listed = {row.name for row in surface}
    missing = sorted(set(subparsers(parser)) - listed)
    owners = [flag for row in surface for flag in row.flags]
    missing += [
        f"serve {flag}" for flag in serve_flags(parser)
        if owners.count(flag) != 1
    ]
    return missing


@functools.lru_cache(maxsize=None)
def _source(path: str) -> str:
    return (REPO / path).read_text(encoding="utf-8")


def _function_source(path: str, qualname: Sequence[str]):
    """Source of ``Class.method`` / ``function`` in ``path``, or None."""
    text = _source(path)
    body = ast.parse(text).body
    node = None
    for name in qualname:
        node = next(
            (
                n for n in body
                if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                and n.name == name
            ),
            None,
        )
        if node is None:
            return None
        body = node.body
    return ast.get_source_segment(text, node)


def resolve(reference: str):
    """The source a reference names, or None if it runs nowhere: a test
    function of ``tests/``, or a bench tier-1 runs."""
    path, *qualname = reference.split("::")
    if not (REPO / path).is_file():
        return None
    if qualname:
        if not path.startswith("tests/"):
            return None
        return _function_source(path, qualname)
    if path in PAPER_BENCHES or path.startswith("benchmarks/waterfall/"):
        return _source(path)
    return None


def _spellings(flag: str) -> Tuple[str, str]:
    """A ``serve`` option as a command line and as a parser dest."""
    return flag, flag.lstrip("-").replace("-", "_")


def unanswered(surface=SURFACE) -> List[str]:
    """Rows that name neither an artefact nor an aim, that cite a test
    that does not run, or whose tests spell neither the subcommand nor
    each of their options."""
    bad = []
    for row in surface:
        sources = [resolve(ref) for ref in row.exercised_by]
        if not any(a in row.serves for a in ARTEFACTS + AIMS):
            bad.append(f"{row.name}: serves neither an artefact nor an aim")
        if not row.exercised_by or None in sources:
            bad.append(f"{row.name}: cites no test or bench that runs")
            continue
        if not any(command_of(row) in text for text in sources):
            bad.append(f"{row.name}: no cited test spells the subcommand")
        for flag in row.flags:
            if not any(
                s in text for s in _spellings(flag) for text in sources
            ):
                bad.append(f"{row.name}: no cited test spells {flag}")
    return bad


# --------------------------------------------------------------------- #
# the checks, and each seen to fail
# --------------------------------------------------------------------- #


def test_every_subcommand_and_serve_option_has_a_row():
    assert unlisted(build_parser()) == []


def test_every_row_names_what_it_serves_and_what_runs_it():
    assert unanswered() == []


def test_a_planted_subcommand_is_unlisted():
    parser = build_parser()
    (action,) = [
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    action.add_parser("planted")
    assert unlisted(parser) == ["planted"]


def test_a_planted_serve_option_is_unlisted():
    parser = build_parser()
    subparsers(parser)["serve"].add_argument("--planted")
    assert unlisted(parser) == ["serve --planted"]
    # An option two rows claim is as unlisted as one none does.
    twice = SURFACE + (Row("serve --alpha", ("--alpha",), "aim 1", ()),)
    assert "serve --alpha" in unlisted(build_parser(), twice)


def test_a_planted_row_without_an_answer_fails():
    planted = (
        Row(
            "planted", (), "a live redraw of stats",
            ("tests/test_service_cli.py::test_serve_client_roundtrip",),
        ),
        Row("simulate", (), "aim 3", ("tests/test_gone.py::test_gone",)),
        Row(
            "serve --planted", ("--planted",), "aim 4",
            ("tests/test_service_cli.py::test_serve_client_roundtrip",),
        ),
        Row("bounds", (), "Theorem 4", ("benchmarks/not_a_bench.py",)),
    )
    assert unanswered(planted) == [
        "planted: serves neither an artefact nor an aim",
        "planted: no cited test spells the subcommand",
        "simulate: cites no test or bench that runs",
        "serve --planted: no cited test spells --planted",
        "bounds: cites no test or bench that runs",
    ]


# --------------------------------------------------------------------- #
# the docs name the same commands
# --------------------------------------------------------------------- #


def readme_commands() -> List[str]:
    """The ``repro-ubac a | b | ...`` list in README.md."""
    (line,) = re.findall(
        r"`repro-ubac ((?:[a-z0-9]+ \| )+[a-z0-9]+)`", _source("README.md")
    )
    return line.split(" | ")


def service_doc_commands() -> List[str]:
    """The rows of docs/service.md's table of ``repro-ubac`` commands."""
    section = _source("docs/service.md").split(
        "## The `repro-ubac` commands\n", 1
    )[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `([a-z0-9]+)` \|", section, re.M)


def test_the_docs_name_exactly_the_subcommands():
    commands = [row.name for row in SURFACE if " " not in row.name]
    assert sorted(commands) == sorted(subparsers(build_parser()))
    assert readme_commands() == commands
    assert service_doc_commands() == commands
