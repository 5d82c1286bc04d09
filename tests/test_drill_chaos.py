"""The chaos drill end to end: acceptance criteria, determinism, CLI."""

import dataclasses

import pytest

from repro.cli import main
from repro.resilience.chaosdrill import (
    ChaosDrillReport,
    chaos_drill,
    chaos_drill_plan,
)
from repro.telemetry import scenarios
from repro.telemetry.scenarios import run_scenario


@pytest.fixture(scope="module")
def defended_drill():
    return run_scenario("chaos", seed=0, quick=True)


@pytest.fixture(scope="module")
def control_drill():
    return run_scenario("chaos", seed=0, quick=True, control=True)


class TestAcceptance:
    def test_zero_admitted_request_loss(self, defended_drill):
        report = defended_drill.report
        assert report.lost_requests == 0
        assert report.admitted == report.completed

    def test_every_chaos_class_fired(self, defended_drill):
        report = defended_drill.report
        assert report.partition_windows > 0
        assert report.gray_episodes > 0
        assert report.crashes > 0
        assert report.chaos_delivered

    def test_defenses_visibly_engaged(self, defended_drill):
        report = defended_drill.report
        assert report.breaker_transitions > 0
        assert report.hedges_issued > 0
        assert report.hedges_backup_won >= 0

    def test_storage_sidecar_went_gray_then_recovered(self, defended_drill):
        report = defended_drill.report
        # OST loss is a *gray* state: ok but degraded.
        assert report.storage_degraded_ok
        assert "OSTs failed" in report.storage_degraded_detail
        assert report.storage_recovered

    def test_verdict_pass(self, defended_drill):
        report = defended_drill.report
        assert report.ok
        assert defended_drill.ok, defended_drill.failures
        assert report.to_text().rstrip().endswith("verdict: PASS")
        # The runner reconciles every scenario's corruption ledger.
        assert "integrity_undetected 0" in defended_drill.files["metrics.prom"]


class TestControlArm:
    def test_zero_loss_is_structural_not_a_defense(self, control_drill):
        """Defenses off: the same faults fire, nothing may be lost."""
        report = control_drill.report
        assert report.chaos_delivered
        assert report.lost_requests == 0

    def test_defense_counters_read_zero(self, control_drill):
        report = control_drill.report
        assert report.suspicion_events == 0
        assert report.breaker_transitions == 0
        assert report.hedges_issued == 0
        assert report.brownout_path == ()
        assert report.ok

    def test_leaked_defense_activity_fails_control(self, control_drill):
        report = control_drill.report
        leaked = dataclasses.replace(report, hedges_issued=1)
        assert not leaked.ok
        assert leaked.failures() == [
            "control arm: defense activity (suspicion 0, breakers 0, "
            "hedges 1, brownout [])"]


class TestDeterminism:
    def test_plan_is_pure_function_of_seed(self):
        assert chaos_drill_plan(5, 12.0) == chaos_drill_plan(5, 12.0)
        assert chaos_drill_plan(5, 12.0) != chaos_drill_plan(6, 12.0)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_other_seeds_pass(self, seed):
        run = run_scenario("chaos", seed=seed, quick=True)
        assert run.ok, run.files["report.txt"]


class TestVerdictGates:
    """Each gate in ChaosDrillReport.failures() is real, not decorative,
    and names its reason."""

    def _failures(self, defended_drill, **overrides):
        report = dataclasses.replace(defended_drill.report, **overrides)
        assert not report.ok
        return report.failures()

    def test_lost_request_fails(self, defended_drill):
        n = defended_drill.report.admitted
        assert f"{n} admitted request(s) lost" in \
            self._failures(defended_drill, completed=0)

    def test_missing_chaos_fails(self, defended_drill):
        for field in ("partition_windows", "gray_episodes", "crashes"):
            reasons = self._failures(defended_drill, **{field: 0})
            assert any(r.startswith("armed faults did not all fire")
                       for r in reasons)

    def test_silent_defenses_fail(self, defended_drill):
        assert "defenses on: no circuit breaker tripped" in \
            self._failures(defended_drill, breaker_transitions=0)
        assert "defenses on: no hedge was issued" in \
            self._failures(defended_drill, hedges_issued=0)

    def test_storage_regression_fails(self, defended_drill):
        assert "storage sidecar did not report the OST loss as gray" in \
            self._failures(defended_drill, storage_degraded_ok=False)
        assert "storage sidecar did not recover clean" in \
            self._failures(defended_drill, storage_recovered=False)

    def test_failing_report_renders_fail(self, defended_drill):
        broken = dataclasses.replace(defended_drill.report, completed=0)
        assert broken.to_text().rstrip().endswith("verdict: FAIL")


class TestCli:
    def test_drill_exits_zero_and_writes_artifacts(self, tmp_path):
        out = tmp_path / "drill"
        rc = main(["drill", "chaos", "--quick", "--out", str(out)])
        assert rc == 0
        report = (out / "report.txt").read_text()
        assert "verdict: PASS" in report
        assert "lost: 0" in report
        for name in ("metrics.prom", "trace.json", "summary.txt"):
            assert (out / name).read_text()

    def test_no_defend_control_arm_passes(self, tmp_path):
        rc = main(["drill", "chaos", "--quick", "--no-defend",
                   "--out", str(tmp_path / "d")])
        assert rc == 0
        report = (tmp_path / "d" / "report.txt").read_text()
        assert "defenses off" in report

    def test_cli_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["drill", "chaos", "--quick", "--out", str(a)]) == 0
        assert main(["drill", "chaos", "--quick", "--out", str(b)]) == 0
        assert (a / "report.txt").read_bytes() == \
            (b / "report.txt").read_bytes()
        assert (a / "metrics.prom").read_bytes() == \
            (b / "metrics.prom").read_bytes()

    def test_failing_run_prints_reasons_and_exits_one(self, tmp_path,
                                                      monkeypatch, capsys):
        def lossy(**kwargs):
            return dataclasses.replace(chaos_drill(**kwargs), completed=0)

        monkeypatch.setitem(scenarios.SCENARIOS, "chaos", lossy)
        rc = main(["drill", "chaos", "--quick", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "FAIL: " in err and "admitted request(s) lost" in err
        assert "verdict: FAIL" in (tmp_path / "report.txt").read_text()


def test_report_is_frozen(defended_drill):
    report = defended_drill.report
    assert isinstance(report, ChaosDrillReport)
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.completed = 0
