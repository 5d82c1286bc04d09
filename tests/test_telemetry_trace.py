"""End-to-end scenario tests: determinism, coverage, well-formedness, CLI.

These drive the scenario runner behind ``repro trace`` and ``repro drill``
(quick variants) and assert the acceptance properties literally: same
arguments → byte-identical files, spans from ≥4 subsystems on one
simulated timebase, valid nesting per rank lane, and a zero invariant
gauge.
"""

import json

import pytest

from repro.telemetry.scenarios import SCENARIOS, run_scenario
from repro.telemetry.spans import validate_nesting


@pytest.fixture(scope="module")
def train_artifacts():
    return run_scenario("train", seed=0, quick=True)


@pytest.fixture(scope="module")
def serve_artifacts():
    return run_scenario("serve", seed=0, quick=True)


@pytest.mark.parametrize("name,control", [
    ("train", False), ("serve", False), ("sdc", False), ("sdc", True),
    ("chaos", False), ("chaos", True),
], ids=["train", "serve", "sdc", "sdc-control", "chaos", "chaos-control"])
def test_same_args_byte_identical(name, control):
    first = run_scenario(name, seed=0, quick=True, control=control)
    again = run_scenario(name, seed=0, quick=True, control=control)
    assert first.ok, first.failures
    assert again.ok, again.failures
    assert again.files == first.files
    expected = {"trace.json", "metrics.prom", "summary.txt"}
    if name in ("sdc", "chaos"):
        expected.add("report.txt")
    assert set(first.files) == expected


def test_control_arm_is_drill_only():
    with pytest.raises(ValueError):
        run_scenario("train", quick=True, control=True)


class TestTrainScenario:
    def test_cross_layer_coverage(self, train_artifacts):
        # The acceptance bar: one trace, one timebase, ≥4 subsystems.
        tracks = {s.track for s in train_artifacts.spans}
        assert tracks >= {"scheduler", "mpi", "train", "storage", "faults"}
        assert len(train_artifacts.spans) > 50

    def test_seed_changes_trace(self, train_artifacts):
        other = run_scenario("train", seed=1, quick=True)
        assert other.files["trace.json"] != train_artifacts.files["trace.json"]

    def test_trace_is_valid_chrome_json(self, train_artifacts):
        trace = json.loads(train_artifacts.files["trace.json"])
        events = trace["traceEvents"]
        assert {e["ph"] for e in events} == {"M", "X", "i"}
        for e in events:
            if e["ph"] == "X":
                assert e["dur"] >= 0 and e["ts"] >= 0

    def test_rank_lane_spans_nest(self, train_artifacts):
        # Comm/train spans on a rank's lane must nest or be disjoint —
        # a partial overlap means an instrumentation clock bug.
        rank_spans = [s for s in train_artifacts.spans
                      if s.track in ("mpi", "train")]
        assert rank_spans
        assert validate_nesting(rank_spans) == []

    def test_key_events_present(self, train_artifacts):
        names = {s.name for s in train_artifacts.spans}
        assert {"allreduce", "step", "grad-allreduce", "rank-kill",
                "checkpoint-save", "checkpoint-restore", "submit",
                "place"} <= names

    def test_metrics_cover_subsystems(self, train_artifacts):
        prom = train_artifacts.files["metrics.prom"]
        for needle in ("collective_calls_total", "train_steps_total",
                       "checkpoint_writes_total", "faults_injected_total",
                       "scheduler_jobs_completed", "resilience_recoveries"):
            assert needle in prom

    def test_no_invariant_violations(self, train_artifacts):
        assert train_artifacts.ok


class TestServeScenario:
    def test_serving_and_fault_tracks(self, serve_artifacts):
        assert {"serving", "faults"} <= {s.track
                                         for s in serve_artifacts.spans}

    def test_conservation_gauge_zero(self, serve_artifacts):
        assert serve_artifacts.ok
        assert "serving_invariant_violations 0" in \
            serve_artifacts.files["metrics.prom"]

    def test_failover_visible(self, serve_artifacts):
        names = {s.name for s in serve_artifacts.spans}
        assert "failover" in names
        assert "batch" in names


class TestTraceCLI:
    def test_writes_artifacts_and_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace-out"
        rc = main(["trace", "serve", "--quick", "--out", str(out)])
        assert rc == 0
        for fname in ("trace.json", "metrics.prom", "summary.txt"):
            assert (out / fname).read_text().strip()
        json.loads((out / "trace.json").read_text())
        assert "repro trace serve" in capsys.readouterr().out

    def test_scenarios_registry_matches_cli_choices(self):
        assert set(SCENARIOS) == {"train", "serve", "sdc", "chaos"}
