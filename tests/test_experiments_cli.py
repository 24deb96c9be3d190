"""Command-line interface."""

import json
import re

import pytest

from repro.experiments.cli import build_parser, main


def test_bounds_command(capsys):
    assert main(["bounds"]) == 0
    out = capsys.readouterr().out
    assert "0.3000" in out
    assert "0.6092" in out


def test_bounds_custom_parameters(capsys):
    assert main(["bounds", "--diameter", "1"]) == 0
    out = capsys.readouterr().out
    # L = 1: LB == UB
    import re

    nums = re.findall(r"\d\.\d{4}", out)
    assert len(set(nums)) == 1  # LB == UB when L = 1


def test_verify_success(capsys):
    assert main(["verify", "0.25"]) == 0
    out = capsys.readouterr().out
    assert "SUCCESS" in out


def test_verify_failure_exit_code(capsys):
    assert main(["verify", "0.95"]) == 1
    out = capsys.readouterr().out
    assert "FAILURE" in out


def test_sweep_deadline(capsys):
    assert main(["sweep", "deadline"]) == 0
    assert "deadline" in capsys.readouterr().out


def test_sweep_burst(capsys):
    assert main(["sweep", "burst"]) == 0
    assert "burst" in capsys.readouterr().out


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_simulate_command_success(capsys):
    from repro.experiments.cli import main as cli_main

    assert cli_main(["simulate", "0.3", "--horizon", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "guarantees held" in out
    assert "misses = {'voice': 0}" in out


def test_simulate_command_unverifiable_alpha(capsys):
    from repro.experiments.cli import main as cli_main

    assert cli_main(["simulate", "0.95", "--horizon", "0.1"]) == 1
    assert "FAILURE" in capsys.readouterr().out


def test_version_flag(capsys):
    from repro._version import __version__

    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_table1_metrics_and_trace_out(tmp_path, capsys):
    """Acceptance: table1 --metrics-out/--trace-out yields a parsable
    Prometheus file with fixed-point and admission series, and a
    Chrome-trace JSON with nested spans."""
    import json

    from repro import obs
    from obs_readers import parse_prometheus_text

    metrics = tmp_path / "m.prom"
    trace = tmp_path / "t.json"
    assert (
        main(
            [
                "table1",
                "--resolution", "0.05",
                "--metrics-out", str(metrics),
                "--trace-out", str(trace),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "Metrics snapshot" in out
    assert "admission replay" in out
    # observability is switched back off after the run
    assert not obs.is_enabled()

    samples = parse_prometheus_text(metrics.read_text())
    names = {name for name, _ in samples}
    assert "repro_fixedpoint_iterations_bucket" in names
    assert "repro_fixedpoint_solves_total" in names
    assert "repro_admission_decision_seconds_bucket" in names
    # A one-shot snapshot counts decisions in the decision histogram and
    # rejections by reason; the admitted/rejected tallies are read only
    # by a served scrape.
    replay = re.search(r"admission replay .*: (\d+) admitted, (\d+) rejected", out)
    admitted, rejected = int(replay.group(1)), int(replay.group(2))
    ctrl = (("controller", "UtilizationAdmissionController"),)
    assert samples[("repro_admission_decision_seconds_count", ctrl)] == admitted + rejected
    assert rejected == sum(
        value
        for (name, labels), value in samples.items()
        if name == "repro_admission_rejections_total" and labels[0] == ctrl[0]
    )
    assert "repro_admission_decisions_total" not in names

    payload = json.loads(trace.read_text())
    events = payload["traceEvents"]
    assert events
    assert {e["name"] for e in events} >= {
        "fixedpoint.solve", "routing.select", "admission.admit",
    }
    assert any(e["args"]["depth"] > 0 for e in events)


def test_metrics_out_jsonl_format(tmp_path):
    import json

    metrics = tmp_path / "m.jsonl"
    assert main(["bounds", "--metrics-out", str(metrics)]) == 0
    # bounds records nothing (pure closed-form), file is valid (empty) jsonl
    for line in metrics.read_text().splitlines():
        json.loads(line)


def test_verify_with_metrics_out(tmp_path):
    from obs_readers import parse_prometheus_text

    metrics = tmp_path / "m.prom"
    assert main(["verify", "0.25", "--metrics-out", str(metrics)]) == 0
    samples = parse_prometheus_text(metrics.read_text())
    assert any(
        name == "repro_fixedpoint_solves_total" for name, _ in samples
    )


def test_faults_command(tmp_path, capsys):
    report_path = tmp_path / "transitions.json"
    assert (
        main(
            [
                "faults",
                "--horizon", "1.0",
                "--arrival-rate", "20",
                "--report-out", str(report_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "chaos run" in out
    assert "survivor guarantees held" in out

    import json

    data = json.loads(report_path.read_text())
    assert data["schema"] == "repro-transition-report/v1"
    assert data["survivor_deadline_misses"] == 0
    assert data["transitions"]


def test_faults_command_replays_saved_schedule(tmp_path, capsys):
    from repro.faults import FaultEvent, FaultSchedule

    schedule_path = tmp_path / "faults.json"
    FaultSchedule(
        [
            FaultEvent(0.3, "link_down", ["Chicago", "Denver"]),
            FaultEvent(0.8, "link_up", ["Chicago", "Denver"]),
        ]
    ).save(str(schedule_path))
    one = tmp_path / "one.json"
    two = tmp_path / "two.json"
    for out_path in (one, two):
        assert (
            main(
                [
                    "faults",
                    "--horizon", "1.0",
                    "--arrival-rate", "20",
                    "--no-packets",
                    "--schedule", str(schedule_path),
                    "--report-out", str(out_path),
                ]
            )
            == 0
        )
    # Bit-identical replay across two CLI invocations.
    assert one.read_text() == two.read_text()


def test_faults_command_unverifiable_alpha(capsys):
    assert main(["faults", "--alpha", "0.95", "--horizon", "0.5"]) == 1
    assert "does not verify" in capsys.readouterr().out


@pytest.mark.parametrize("extra", [["--adversarial", "--burst", "0"],
                                   ["--arrival-rate", "0"]])
def test_faults_command_bad_workload_parameters(extra, capsys):
    assert main(["faults", "--no-packets", *extra]) == 1
    assert capsys.readouterr().out.startswith("FAILURE: ")


@pytest.mark.parametrize("extra, digest", [
    ([], "7f7afcb32248df0daef27811d858e10f804c5d60"
         "a67471678184cf081d709c92"),
    (["--adversarial"], "75a289e011d5cf4cade76661845d00cc36f6aaac"
                        "f71995fab9a8b31056792832"),
])
def test_faults_command_report_pinned(tmp_path, extra, digest):
    """``TransitionReport.to_json()`` of the default scenarios at seed
    7, packets on, taken at PR 19 (schedules in an event type of the
    harness's own, its own segment list and packet loop): the workload
    vocabulary may change, no chaos report may."""
    import hashlib

    report_path = tmp_path / "transitions.json"
    argv = ["faults", "--seed", "7", "--report-out", str(report_path)]
    assert main(argv + extra) == 0
    assert hashlib.sha256(report_path.read_bytes()).hexdigest() == digest


def test_faults_command_with_metrics_out(tmp_path):
    from obs_readers import parse_prometheus_text

    metrics = tmp_path / "m.prom"
    assert (
        main(
            [
                "faults",
                "--horizon", "1.0",
                "--arrival-rate", "20",
                "--no-packets",
                "--metrics-out", str(metrics),
            ]
        )
        == 0
    )
    samples = parse_prometheus_text(metrics.read_text())
    names = {name for name, _ in samples}
    assert "repro_faults_events_total" in names
    assert "repro_faults_repairs_total" in names


def test_loadgen_batch_mode(capsys):
    assert (
        main(
            [
                "loadgen",
                "--topology", "mci",
                "--flows", "500",
                "--seed", "3",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "utilization controller (batch=1024)" in out
    assert "500 arrivals" in out
    assert "ops/s" in out


def test_loadgen_record_then_replay_matches(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    args = [
        "loadgen",
        "--topology", "mci",
        "--flows", "300",
        "--seed", "9",
    ]
    assert main(args + ["--record", str(trace)]) == 0
    recorded = capsys.readouterr().out
    assert f"wrote 600 events to {trace}" in recorded

    assert main(
        [
            "loadgen",
            "--topology", "mci",
            "--replay", str(trace),
        ]
    ) == 0
    replayed = capsys.readouterr().out
    assert "replaying 600 events" in replayed
    # Same workload either way -> identical admission tallies.
    tally = [l for l in recorded.splitlines() if "admitted" in l]
    assert tally and tally == [
        l for l in replayed.splitlines() if "admitted" in l
    ]


def test_loadgen_sharded_controller(capsys):
    # In-process loadgen offers the paper's two comparators; argparse
    # names them when asked for anything else.
    with pytest.raises(SystemExit) as exc:
        main(["loadgen", "--topology", "mci", "--controller", "sharded"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "'utilization', 'flowaware'" in err
    assert (
        main(
            [
                "loadgen",
                "--topology", "mci",
                "--controller", "flowaware",
                "--flows", "60",
            ]
        )
        == 0
    )
    assert "flowaware controller" in capsys.readouterr().out
