"""The SDC drill end to end: acceptance criteria, determinism, CLI."""

import dataclasses

import numpy as np
import pytest

from repro.cli import main
from repro.resilience.drill import (
    KEEP_LAST,
    SdcDrillReport,
    drill_fault_plan,
    sdc_drill,
)
from repro.telemetry import scenarios
from repro.telemetry.scenarios import run_scenario


@pytest.fixture(scope="module")
def verified_drill():
    return run_scenario("sdc", seed=0, quick=True)


class TestVerifiedDrill:
    def test_acceptance(self, verified_drill):
        """The headline contract: everything injected was detected, the
        rollback stayed within the retention window, and training ended
        exactly where the fault-free run did."""
        report = verified_drill.report
        assert report.ok, report.to_text()
        assert report.undetected == 0
        assert report.max_rollback_versions <= KEEP_LAST
        assert report.trajectory_matches_reference
        assert np.isfinite(report.max_loss_deviation)

    def test_every_corruption_class_fired(self, verified_drill):
        report = verified_drill.report
        injected = dict(report.injected_by_kind)
        assert injected.get("bitflip-message", 0) >= 1
        assert injected.get("bitflip-gradient", 0) >= 1
        assert injected.get("checkpoint-rot", 0) >= 1
        assert report.detected_by_kind == report.injected_by_kind

    def test_offender_quarantined_and_ring_shrunk(self, verified_drill):
        report = verified_drill.report
        # The plan corrupts world rank 2's gradient; after detection the
        # rank is quarantined through the scheduler and leaves the ring.
        assert 2 in report.quarantined_nodes
        assert report.final_world_size == report.world_size - 1
        assert any(r.reason == "gradient-corruption"
                   for r in report.recoveries)

    def test_scrub_closed_the_books(self, verified_drill):
        report = verified_drill.report
        assert report.scrub.get("checked", 0) > 0

    def test_report_text_verdict(self, verified_drill):
        report = verified_drill.report
        text = report.to_text()
        assert "verdict: PASS" in text
        assert "corruption ledger:" in text

    def test_metrics_exposition_carries_ledger(self, verified_drill):
        prometheus = verified_drill.files["metrics.prom"]
        assert "integrity_corruptions_injected" in prometheus
        assert "integrity_corruptions_detected" in prometheus
        assert "integrity_undetected 0" in prometheus


class TestDeterminism:
    def test_fault_plan_is_pure_function_of_seed(self):
        assert drill_fault_plan(5, 12) == drill_fault_plan(5, 12)
        assert drill_fault_plan(5, 12) != drill_fault_plan(6, 12)


class TestUnverifiedDrill:
    def test_corruption_visibly_lands(self):
        """--no-verify is the control arm: same seed, same faults, but the
        trajectory must now diverge — proving detection does real work."""
        run = run_scenario("sdc", seed=0, quick=True, control=True)
        report = run.report
        assert run.ok, run.failures
        assert not report.trajectory_matches_reference
        assert report.injected_total > 0
        assert report.undetected > 0


class TestReportVerdict:
    def _base(self, **kw):
        defaults = dict(
            seed=0, verify=True, n_steps=12, world_size=4,
            injected_by_kind=(("bitflip-message", 3),),
            detected_by_kind=(("bitflip-message", 3),),
            undetected=0.0, max_rollback_versions=1,
            trajectory_matches_reference=True, final_world_size=4)
        defaults.update(kw)
        return SdcDrillReport(**defaults)

    def test_undetected_fails(self):
        report = self._base(undetected=1.0)
        assert not report.ok
        assert "1 injected corruption(s) went undetected" in \
            report.failures()

    def test_unbounded_rollback_fails(self):
        report = self._base(max_rollback_versions=KEEP_LAST + 1)
        assert not report.ok
        assert any(r.startswith(f"rollback depth {KEEP_LAST + 1} exceeds")
                   for r in report.failures())

    def test_diverged_trajectory_fails(self):
        report = self._base(trajectory_matches_reference=False)
        assert not report.ok
        assert any(r.startswith("loss trajectory diverged")
                   for r in report.failures())

    def test_nothing_injected_fails(self):
        report = self._base(injected_by_kind=(), detected_by_kind=())
        assert not report.ok
        assert "no corruption was injected" in report.failures()

    def test_passing_report_has_no_failures(self):
        assert self._base().failures() == []
        assert self._base().ok

    def test_control_arm_trajectory_must_diverge(self):
        report = self._base(verify=False)
        assert not report.ok
        assert any(r.startswith("control arm:") for r in report.failures())


class TestCli:
    def test_drill_exits_zero_and_writes_artifacts(self, tmp_path):
        out = tmp_path / "drill"
        rc = main(["drill", "sdc", "--quick", "--out", str(out)])
        assert rc == 0
        report = (out / "report.txt").read_text()
        assert "verdict: PASS" in report
        assert "integrity_undetected 0" in (out / "metrics.prom").read_text()

    def test_no_verify_control_arm_passes(self, tmp_path):
        rc = main(["drill", "sdc", "--quick", "--no-verify",
                   "--out", str(tmp_path / "d")])
        assert rc == 0

    def test_cli_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["drill", "sdc", "--quick", "--out", str(a)]) == 0
        assert main(["drill", "sdc", "--quick", "--out", str(b)]) == 0
        for name in ("report.txt", "metrics.prom", "summary.txt",
                     "trace.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_failing_run_prints_reasons_and_exits_one(self, tmp_path,
                                                      monkeypatch, capsys):
        def leaky(**kwargs):
            return dataclasses.replace(sdc_drill(**kwargs), undetected=1.0)

        monkeypatch.setitem(scenarios.SCENARIOS, "sdc", leaky)
        rc = main(["drill", "sdc", "--quick", "--out", str(tmp_path)])
        assert rc == 1
        assert "FAIL: 1 injected corruption(s) went undetected" in \
            capsys.readouterr().err
