"""Smoke test of the waterfall benchmark (collected by the existing
``pytest benchmarks/ --benchmark-disable`` CI step).

One ``--quick`` suite run: every workload served end to end and traced,
the oracle consulted on each.  The numbers of a run this short mean
nothing; what is asserted is that every metric ``BENCHMARK.json`` names
comes out finite, that nothing failed, and that ``BENCHMARK.json`` and
the README's table are what the catalogue generates.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(REPO, "src")]

import catalogue  # noqa: E402


def _benchmark_json():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_quick_suite_emits_every_metric(tmp_path):
    history = tmp_path / "history.jsonl"
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--quick",
            "--history",
            str(history),
        ],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    rows = [json.loads(line) for line in history.read_text().splitlines()]
    spec = _benchmark_json()
    workloads = [w["name"] for w in spec["workloads"]]
    for traced, key in ((False, "end_to_end"), (True, "per_layer")):
        names = [m["name"] for m in spec[key]]
        mine = [r for r in rows if r["traced"] is traced]
        assert [r["workload"] for r in mine] == workloads
        for row in mine:
            assert row["correct"] and row["failed"] == 0, row
            assert row["attempted"] >= 1
            assert sorted(row["metrics"]) == sorted(names)
            for name, value in row["metrics"].items():
                assert math.isfinite(value), (row["workload"], name)
            assert row["machine"]["cpu_count"] >= 1
    for row in rows:
        if not row["traced"]:
            # Never zero: the driver divides by them.
            assert all(v > 0 for v in row["metrics"].values()), row
    with open(os.path.join(HERE, ".work", "trace.json")) as fh:
        assert json.load(fh)["traceEvents"], "the traced run recorded no span"


def test_catalogue_benchmark_json_and_readme_agree():
    import loadgen

    spec = _benchmark_json()
    assert spec == catalogue.benchmark_json(loadgen.WORKLOADS.values())
    with open(os.path.join(HERE, "README.md"), encoding="utf-8") as fh:
        assert catalogue.readme_table() in fh.read()


def test_oracle_fails_on_a_flipped_answer():
    import loadgen
    import oracle

    fx = loadgen.fixture()
    try:
        run = loadgen.serve_and_drive(
            loadgen.WORKLOADS["bulk_churn"],
            fx,
            seed=1,
            ops=2048,
            setup_starts=1,
            warmup_events=2000,
        )
        assert oracle.check(run) == []
        # Flip one slot in the harness's copy of what the server said.
        slot = run.answers[-1]
        slot[0] = (
            loadgen.REJECTED if slot[0] == loadgen.ADMITTED else loadgen.ADMITTED
        )
        problems = oracle.check(run)
        assert problems and "decision digest" in problems[0], problems
        assert f"frame {len(run.frames) - 1} op 0" in problems[0]
    finally:
        loadgen.remove_workdir()
