"""The SDC drill: an end-to-end silent-corruption exercise.

``repro drill sdc`` runs a seeded elastic-training job with at least one
fault of *each* silent-corruption class armed — per-message bitflips on
the fabric, one rank's gradient contribution corrupted before allreduce,
and bit-rot on a stored checkpoint — then reconciles the books:

* with verification **on**, every injected corruption must be detected
  (in transit, at the ABFT allreduce, on restore, or by the at-rest
  scrub): ``integrity_undetected == 0``, the rollback stays within the
  retention window, and the final loss trajectory must match a fault-free
  reference run of the same seed — the drill *fails* otherwise, which is
  what CI asserts;
* with verification **off** (``--no-verify``), the same seed must produce
  a demonstrably *different* (corrupted) trajectory — proving the
  injector is live and the detection layer is doing real work, not
  theatre.

Offending ranks are quarantined through the scheduler's suspect-node
machinery (:meth:`~repro.core.scheduler.MsaScheduler.quarantine`), so a
drill leaves behind exactly the state a production control plane would:
corrupted hardware fenced off, training converged, lineage scrubbed.

Everything is a pure function of the seed: two same-seed drills render
byte-identical reports (asserted by the test suite).  The drill runs
through :func:`repro.telemetry.scenarios.run_scenario`, which captures,
exports and judges it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.resilience.integrity import IntegrityConfig, corruption_totals

#: Drill geometry (quick mode halves the step count).
WORLD_SIZE = 4
BATCH_SIZE = 32
KEEP_LAST = 3                 # retention window == max rollback bound
ANCHOR_EVERY = 8
CHECKPOINT_EVERY = 4
MESSAGE_BITFLIP_P = 0.02


@dataclass(frozen=True)
class SdcDrillReport:
    """Everything the drill measured, reconciled and judged."""

    seed: int
    verify: bool
    n_steps: int
    world_size: int
    injected_by_kind: tuple[tuple[str, int], ...]
    detected_by_kind: tuple[tuple[str, int], ...]
    undetected: float
    recoveries: tuple = ()
    max_rollback_versions: int = 0
    scrub: dict = field(default_factory=dict)
    quarantined_nodes: tuple[int, ...] = ()
    trajectory_matches_reference: bool = False
    max_loss_deviation: float = 0.0
    final_world_size: int = 0

    @property
    def injected_total(self) -> int:
        return sum(n for _, n in self.injected_by_kind)

    @property
    def detected_total(self) -> int:
        return sum(n for _, n in self.detected_by_kind)

    def failures(self) -> list[str]:
        """Why the drill failed; empty when it passed.

        Verification on: nothing slipped through, rollback bounded, and
        the trajectory is indistinguishable from the fault-free run.
        Verification off: the corruption must have *visibly* landed.
        """
        checks = [(self.injected_total > 0, "no corruption was injected")]
        if self.verify:
            checks += [
                (self.undetected == 0,
                 f"{self.undetected:g} injected corruption(s) went "
                 "undetected"),
                (self.max_rollback_versions <= KEEP_LAST,
                 f"rollback depth {self.max_rollback_versions} exceeds the "
                 f"retention window ({KEEP_LAST})"),
                (self.trajectory_matches_reference,
                 "loss trajectory diverged from the fault-free reference "
                 f"(max deviation {self.max_loss_deviation:.3e})"),
            ]
        else:
            checks.append((not self.trajectory_matches_reference,
                           "control arm: the corrupted trajectory still "
                           "matches the fault-free reference"))
        return [reason for passed, reason in checks if not passed]

    @property
    def ok(self) -> bool:
        return not self.failures()

    def to_text(self) -> str:
        """Deterministic human-readable report (the CI artifact)."""
        mode = "on" if self.verify else "off"
        lines = [
            f"SDC drill report (seed {self.seed}, verification {mode})",
            "=" * 54,
            f"steps: {self.n_steps}  world: {self.world_size} -> "
            f"{self.final_world_size}",
            "",
            "corruption ledger:",
        ]
        detected = dict(self.detected_by_kind)
        for kind, n in self.injected_by_kind:
            lines.append(f"  {kind:<18} injected {n:3d}   "
                         f"detected {detected.get(kind, 0):3d}")
        lines += [
            f"  undetected: {self.undetected:g}",
            "",
            f"recoveries: {len(self.recoveries)}",
        ]
        for r in self.recoveries:
            lines.append(
                f"  step {r.failed_step}: {r.reason} by world ranks "
                f"{list(r.dead_world_ranks)} -> restored step "
                f"{r.restored_step} from {r.restored_from} "
                f"(rollback {r.rollback_versions} versions)")
        lines += [
            f"max rollback depth: {self.max_rollback_versions} "
            f"(bound {KEEP_LAST})",
            f"scrub: {self.scrub.get('checked', 0)} checked, "
            f"{self.scrub.get('corrupt', 0)} corrupt at rest",
            f"quarantined nodes: {list(self.quarantined_nodes)}",
            f"loss trajectory matches fault-free reference: "
            f"{self.trajectory_matches_reference} "
            f"(max deviation {self.max_loss_deviation:.3e})",
            "",
            f"verdict: {'PASS' if self.ok else 'FAIL'}",
        ]
        return "\n".join(lines) + "\n"


def _drill_data(seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng([seed, 0xD1])
    X = np.concatenate([rng.normal(-2.0, 1.0, size=(64, 2)),
                        rng.normal(2.0, 1.0, size=(64, 2))])
    Y = np.array([0] * 64 + [1] * 64)
    return X, Y


def _run_training(seed: int, n_steps: int, fault_plan, verify: bool,
                  on_quarantine=None):
    from repro.distributed.horovod import run_elastic_training
    from repro.ml.models import MLP
    from repro.resilience.policy import CheckpointPolicy
    from repro.storage.checkpoint import CheckpointManager, \
        CheckpointRetention
    from repro.storage.nam import NetworkAttachedMemory
    from repro.storage.pfs import ParallelFileSystem

    X, Y = _drill_data(seed)
    manager = CheckpointManager(
        nam=NetworkAttachedMemory(capacity_GB=1),
        pfs=ParallelFileSystem("pfs", n_targets=4),
        retention=CheckpointRetention(keep_last=KEEP_LAST,
                                      anchor_every=ANCHOR_EVERY))
    return run_elastic_training(
        model_factory=lambda: MLP([2, 8, 2], seed=3),
        X=X, Y=Y,
        n_steps=n_steps,
        batch_size=BATCH_SIZE,
        world_size=WORLD_SIZE,
        seed=seed,
        fault_plan=fault_plan,
        checkpoint_manager=manager,
        checkpoint_policy=CheckpointPolicy(every_steps=CHECKPOINT_EVERY,
                                           replicate=True),
        integrity_config=IntegrityConfig(verify=verify),
        max_rollback=KEEP_LAST,
        on_quarantine=on_quarantine,
        name="sdc-drill",
    )


def drill_fault_plan(seed: int, n_steps: int):
    """One fault of each silent-corruption class, deterministically placed."""
    from repro.resilience.faults import FaultPlan

    return FaultPlan.silent_corruption(
        seed,
        message_p=MESSAGE_BITFLIP_P,
        gradient={n_steps // 2: [2]},
        checkpoint_rot=[(n_steps - 2, "nam")],
    )


def sdc_drill(seed: int = 0, quick: bool = False, control: bool = False
              ) -> SdcDrillReport:
    """The drill body; ``control`` turns verification off.

    Runs inside the caller's capture.  The fault-free reference run
    executes first under a nested *disabled* capture, so its traffic does
    not pollute the corruption ledger.
    """
    from repro.core.presets import small_msa_system
    from repro.core.scheduler import MsaScheduler

    verify = not control
    n_steps = 12 if quick else 24
    with telemetry.capture(telemetry.Tracer(enabled=False),
                           telemetry.MetricsRegistry(enabled=False)):
        reference = _run_training(seed, n_steps, fault_plan=None,
                                  verify=False)

    plan = drill_fault_plan(seed, n_steps)
    scheduler = MsaScheduler(small_msa_system())

    def on_quarantine(world_ranks: tuple) -> None:
        # World rank r of the training job runs on booster node r — the
        # mapping a placement would provide; fencing goes through the
        # scheduler's suspect-node machinery.
        for r in world_ranks:
            scheduler.quarantine("esb", r)

    result = _run_training(seed, n_steps, fault_plan=plan, verify=verify,
                           on_quarantine=on_quarantine)
    registry = telemetry.get_registry()
    injected, detected = corruption_totals(registry)

    def _by_kind(name: str) -> tuple[tuple[str, int], ...]:
        return tuple(sorted(
            (labels[0][1], int(inst.value))
            for labels, inst in registry.members(name)))

    deviations = [abs(a - b) for a, b in zip(result.losses,
                                             reference.losses)]
    deviations += [float("inf")] * abs(len(result.losses)
                                       - len(reference.losses))
    # np.max propagates NaN, so one NaN loss can never "match".
    max_dev = float(np.max(deviations)) if deviations else 0.0
    matches = bool(np.isfinite(max_dev) and max_dev <= 1e-9)

    return SdcDrillReport(
        seed=seed,
        verify=verify,
        n_steps=n_steps,
        world_size=WORLD_SIZE,
        injected_by_kind=_by_kind("integrity_corruptions_injected"),
        detected_by_kind=_by_kind("integrity_corruptions_detected"),
        undetected=injected - detected,
        recoveries=tuple(result.recoveries),
        max_rollback_versions=max(
            (r.rollback_versions for r in result.recoveries), default=0),
        scrub=dict(result.scrub),
        quarantined_nodes=tuple(sorted(scheduler.suspect_nodes("esb"))),
        trajectory_matches_reference=matches,
        max_loss_deviation=float(max_dev),
        final_world_size=result.final_world_size,
    )
