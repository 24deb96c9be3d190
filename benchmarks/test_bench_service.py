"""The service bench harness and its checked-in snapshot are valid.

Mirrors ``test_bench_summary_schema.py``: the ``BENCH_service.json``
snapshot must stay a compact ``repro-bench-summary/v1`` document that
clears the micro-batching acceptance floor, and the harness itself must
produce valid entries when run at smoke scale (CI runs these with
``--benchmark-disable``; no timings are asserted).
"""

import json
import pathlib

from run_baseline import SUMMARY_SCHEMA, validate_summary
from run_service_bench import (
    FLOOR_NAME,
    MAX_TELEMETRY_OFF_REGRESSION,
    MIN_SPEEDUP_AT_1024,
    MIN_TELEMETRY_ON_RETENTION,
    SPEEDUP_CELL,
    TELEMETRY_OFF_NAME,
    TELEMETRY_ON_NAME,
    cell_name,
    make_entry,
    measure,
    measure_telemetry,
    validate_service_summary,
)

SNAPSHOT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_service.json"


def test_checked_in_snapshot_is_valid():
    data = json.loads(SNAPSHOT.read_text())
    assert validate_service_summary(data) == []
    assert validate_summary(data) == []
    assert data["schema"] == SUMMARY_SCHEMA
    assert data["service"]["speedup_at_1024"] >= MIN_SPEEDUP_AT_1024


def test_snapshot_has_the_full_matrix():
    data = json.loads(SNAPSHOT.read_text())
    names = {bench["name"] for bench in data["benchmarks"]}
    assert FLOOR_NAME in names
    assert SPEEDUP_CELL in names
    assert TELEMETRY_OFF_NAME in names
    assert TELEMETRY_ON_NAME in names
    # 3 windows x 3 loads, next to the floor and the telemetry pair
    # (the cluster, v2 and overload cells are validated by their own
    # floors in validate_service_summary).
    assert sum(n.startswith("service_rps_delay") for n in names) == 9
    for bench in data["benchmarks"]:
        assert bench["rps"] > 0
        assert bench["p99_ms"] >= bench["p50_ms"]


def test_snapshot_telemetry_overhead_is_within_budget():
    service = json.loads(SNAPSHOT.read_text())["service"]
    assert (
        service["telemetry_off_regression"]
        <= MAX_TELEMETRY_OFF_REGRESSION
    )
    assert (
        service["telemetry_on_retention"] >= MIN_TELEMETRY_ON_RETENTION
    )
    assert service["telemetry_on_rps"] <= service["telemetry_off_rps"]


def test_smoke_run_produces_a_valid_entry():
    run = measure(150, depth=32, delay_ms=1.0, tag="smoke")
    assert len(run["latencies"]) == 150
    assert run["batches"] >= 1
    assert 1 <= run["largest_batch"] <= 32
    entry = make_entry(
        cell_name(1.0, 32), run, depth=32, delay_ms=1.0
    )
    summary = {
        "schema": SUMMARY_SCHEMA,
        "benchmarks": [entry],
    }
    assert validate_summary(summary) == []
    assert entry["rps"] > 0
    assert entry["p99_ms"] >= entry["p50_ms"] > 0


def test_smoke_telemetry_run_measures_both_modes():
    off = measure_telemetry(60, telemetry=False, repeats=1)
    on = measure_telemetry(60, telemetry=True, repeats=1)
    assert len(off["latencies"]) == len(on["latencies"]) == 60
    # Telemetry-on must leave the global switchboard off afterwards.
    from repro.obs import OBS

    assert OBS.enabled is False


def test_validator_rejects_a_missed_floor():
    data = json.loads(SNAPSHOT.read_text())
    data["service"]["speedup_at_1024"] = MIN_SPEEDUP_AT_1024 / 2
    problems = validate_service_summary(data)
    assert any("speedup_at_1024" in p for p in problems)


def test_validator_rejects_a_blown_telemetry_budget():
    data = json.loads(SNAPSHOT.read_text())
    data["service"]["telemetry_off_regression"] = (
        2 * MAX_TELEMETRY_OFF_REGRESSION
    )
    problems = validate_service_summary(data)
    assert any("telemetry-off" in p for p in problems)

    data = json.loads(SNAPSHOT.read_text())
    data["service"]["telemetry_on_retention"] = (
        MIN_TELEMETRY_ON_RETENTION / 2
    )
    problems = validate_service_summary(data)
    assert any("full telemetry" in p for p in problems)


def test_validator_rejects_a_missing_cell():
    data = json.loads(SNAPSHOT.read_text())
    data["benchmarks"] = [
        b for b in data["benchmarks"] if b["name"] != SPEEDUP_CELL
    ]
    problems = validate_service_summary(data)
    assert any(SPEEDUP_CELL in p for p in problems)
