"""Experiment record persistence and report rendering."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments import sweep_deadline
from repro.experiments.persistence import (
    ExperimentRecord,
    render_markdown_report,
    save_records,
    sweep_record,
    table1_record,
)


@pytest.fixture()
def record():
    return ExperimentRecord(
        experiment_id="demo",
        title="Demo experiment",
        measured={"alpha": 0.45, "probes": 7},
        reference={"alpha": 0.45},
        notes="all good",
    )


def test_roundtrip_dict(record):
    back = ExperimentRecord.from_dict(record.to_dict())
    assert back.experiment_id == record.experiment_id
    assert back.measured == record.measured
    assert back.reference == record.reference
    assert back.notes == record.notes


def test_unknown_schema_rejected(record):
    data = record.to_dict()
    data["schema_version"] = 42
    with pytest.raises(ConfigurationError):
        ExperimentRecord.from_dict(data)


def test_save_load_file(record, tmp_path):
    path = tmp_path / "records.json"
    save_records([record, record], str(path))
    # plain JSON on disk: a list of records
    loaded = [ExperimentRecord.from_dict(d) for d in json.loads(path.read_text())]
    assert len(loaded) == 2
    assert loaded[0].measured == record.measured


def test_table1_record_contains_reference():
    from repro.config import UtilizationBounds
    from repro.config.maximize import MaximizationResult
    from repro.experiments.table1 import Table1Result

    bounds = UtilizationBounds(
        lower=0.30, upper=0.61, fan_in=6, diameter=4, burst=640,
        rate=32_000, deadline=0.1,
    )

    def fake(alpha, method):
        return MaximizationResult(
            alpha=alpha, routes={}, bounds=bounds, evaluations=[],
            method=method,
        )

    result = Table1Result(
        bounds=bounds,
        shortest_path=fake(0.40, "shortest-path"),
        heuristic=fake(0.50, "heuristic"),
        scenario=None,
    )
    record = table1_record(result)
    assert record.reference["heuristic"] == 0.45
    assert record.measured["heuristic"] == 0.50
    assert "Ordering holds: True" in record.notes


def test_sweep_record_and_report(mci):
    from repro.experiments import paper_scenario

    sweep = sweep_deadline(deadlines=(0.05, 0.1))
    record = sweep_record(sweep, "sweep-deadline")
    assert record.measured["parameter"] == "deadline"
    assert len(record.measured["points"]) == 2

    report = render_markdown_report([record])
    assert "## Sweep: max utilization vs deadline" in report
    assert "| 0.05 |" in report
    assert "| 0.1 |" in report


def test_report_with_reference_table(record):
    report = render_markdown_report([record])
    assert "| quantity | paper | measured |" in report
    assert "| alpha | 0.45 | 0.45 |" in report
    assert "| probes | — | 7 |" in report
    assert "> all good" in report


def test_report_plain_measured_only():
    record = ExperimentRecord(
        experiment_id="x", title="X", measured={"k": 1}
    )
    report = render_markdown_report([record])
    assert "| quantity | measured |" in report
    assert "| k | 1 |" in report
