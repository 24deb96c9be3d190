"""`repro-ubac verify` bounded mode, `loadgen/faults --adversarial`."""

import json

import pytest

from repro.experiments.cli import main
from repro.verify import validate_verify_report
from repro.verify.smt import HAVE_Z3
from repro.workload import read_trace, validate_adversarial_events

SMALL = ["--bound", "2", "--max-capacity", "1"]


class TestVerifyBounded:
    def test_default_run_proves_the_default_bound(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "no_overcommit" in out
        assert "batch_equivalence" in out
        assert "all invariants hold within the bound" in out

    def test_report_out_and_validate_round_trip(self, tmp_path, capsys):
        report_path = str(tmp_path / "report.json")
        assert main(
            ["verify", *SMALL, "--backend", "exhaustive",
             "--out", report_path]
        ) == 0
        report = json.load(open(report_path))
        validate_verify_report(report)
        assert report["ok"] is True
        assert main(["verify", "--validate", report_path]) == 0
        assert "valid repro-verify-report/v1" in capsys.readouterr().out

    def test_validate_rejects_a_tampered_report(self, tmp_path, capsys):
        report_path = str(tmp_path / "report.json")
        assert main(
            ["verify", *SMALL, "--backend", "exhaustive",
             "--out", report_path]
        ) == 0
        report = json.load(open(report_path))
        report["ok"] = False
        json.dump(report, open(report_path, "w"))
        assert main(["verify", "--validate", report_path]) == 1
        assert "FAILURE" in capsys.readouterr().out

    def test_single_check_selection(self, capsys):
        assert main(
            ["verify", *SMALL, "--check", "batch_equivalence"]
        ) == 0
        out = capsys.readouterr().out
        assert "batch_equivalence" in out
        assert "no_overcommit" not in out

    @pytest.mark.parametrize(
        "mutant", ["admit_on_full", "ignore_contention"]
    )
    def test_mutants_caught_with_replayable_traces(
        self, tmp_path, mutant, capsys
    ):
        cx_dir = tmp_path / "cx"
        assert main(
            ["verify", *SMALL, "--backend", "exhaustive",
             "--mutant", mutant, "--cx-dir", str(cx_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "violated" in out
        assert "replay reproduces the violation" in out
        assert f"mutant {mutant!r} caught, decoded, and replayed" in out
        traces = sorted(p.name for p in cx_dir.iterdir())
        assert "cx_batch_equivalence.jsonl" in traces
        for trace in cx_dir.iterdir():
            meta, events = read_trace(str(trace))
            assert meta["mutant"] == mutant
            validate_adversarial_events(events)
            assert events

    def test_counterexample_trace_replays_through_loadgen(
        self, tmp_path, capsys
    ):
        cx_dir = tmp_path / "cx"
        assert main(
            ["verify", *SMALL, "--backend", "exhaustive",
             "--mutant", "admit_on_full", "--cx-dir", str(cx_dir)]
        ) == 0
        capsys.readouterr()
        # cx routes live on the verification chain, not a backbone —
        # loadgen must pick the chain up from the trace meta.
        trace = str(cx_dir / "cx_no_overcommit.jsonl")
        assert main(["loadgen", "--replay", trace]) == 0
        out = capsys.readouterr().out
        assert "replaying" in out
        assert "utilization controller" in out

    def test_z3_backend_without_solver_fails_cleanly(self, capsys):
        if HAVE_Z3:
            pytest.skip("z3 installed; the guard cannot fire")
        assert main(["verify", *SMALL, "--backend", "z3"]) == 1
        assert "repro[smt]" in capsys.readouterr().out

    def test_alpha_and_bounded_flags_are_exclusive(self):
        with pytest.raises(SystemExit):
            main(["verify", "0.25", "--bound", "2"])

    def test_out_of_range_bound_fails_cleanly(self, capsys):
        assert main(["verify", "--bound", "99"]) == 1
        assert "FAILURE" in capsys.readouterr().out


class TestAdversarialLoadgen:
    def test_end_to_end_with_recorded_trace(self, tmp_path, capsys):
        trace = str(tmp_path / "adv.jsonl")
        assert main(
            ["loadgen", "--adversarial", "--flows", "200",
             "--burst", "16", "--arrival-rate", "400",
             "--seed", "3", "--record", trace]
        ) == 0
        out = capsys.readouterr().out
        assert "adversarial workload" in out
        meta, events = read_trace(trace)
        assert meta["adversarial"] is True
        assert meta["burst"] == 16
        validate_adversarial_events(events)
        arrivals = [e for e in events if e.kind == "arrival"]
        assert len(arrivals) == 200

    def test_replay_of_adversarial_trace(self, tmp_path, capsys):
        trace = str(tmp_path / "adv.jsonl")
        assert main(
            ["loadgen", "--adversarial", "--flows", "100",
             "--record", trace]
        ) == 0
        capsys.readouterr()
        assert main(
            ["loadgen", "--replay", trace, "--controller", "flowaware"]
        ) == 0
        assert "flowaware controller" in capsys.readouterr().out


class TestAdversarialFaults:
    def test_chaos_run_under_adversarial_load(self, capsys):
        assert main(
            ["faults", "--adversarial", "--arrival-rate", "40",
             "--burst", "8", "--horizon", "1.0", "--no-packets"]
        ) == 0
        out = capsys.readouterr().out
        assert "chaos run" in out
        assert "survivor guarantees held" in out
