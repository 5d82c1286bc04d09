"""The chaos drill: partitions and gray failures against a live gateway.

``repro drill chaos`` runs a seeded serving scenario with one fault of
each *partial-failure* class armed — a network bipartition that delays
(never drops) traffic for a window, a gray-failed replica whose service
time inflates while it keeps answering health probes, and a hard node
crash — plus a storage sidecar losing an OST mid-drill.  It then
reconciles the books:

* **zero loss**: every admitted request completes — partitions hold
  responses until heal (TCP-retransmit semantics), hedges never
  double-complete, crashes requeue; ``admitted == completed`` is the
  drill's inviolable invariant and the serving engine raises if the
  conservation law ``offered = admitted + rate_limited + shed`` breaks;
* with defenses **on** (the default), the control plane must visibly
  engage: the phi-accrual detector raises suspicion, circuit breakers
  trip on the gray replica, hedged requests win races, and the wasted
  duplicate work stays under the 15 % budget;
* with defenses **off** (``--no-defend``), the same faults run through
  the same dispatch path with probes, hedges and fault-avoiding
  placement unarmed — zero loss must *still* hold (it is structural,
  not a defense), proving the invariant does not depend on the defense
  layer being armed;
* the storage sidecar must report the OST loss as a *gray* state
  (``ok`` but ``degraded``) through :meth:`ParallelFileSystem.health`
  and come back clean after recovery.

Everything is a pure function of ``(seed, quick, defend)``: two
same-argument drills render byte-identical reports (asserted by the test
suite and diffed in CI).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import telemetry

#: Drill geometry (quick mode halves the horizon).
RATE_PER_S = 120.0
DURATION_S = 12.0
REPLICAS = 3
BRONZE_FRACTION = 0.25
CACHE_CAPACITY = 64
#: Ceiling on wasted duplicate (hedge) work, as a fraction of busy time.
DUPLICATE_WORK_BUDGET = 0.15


@dataclass(frozen=True)
class ChaosDrillReport:
    """Everything the chaos drill measured, reconciled and judged."""

    seed: int
    defend: bool
    quick: bool
    # -- request ledger ----------------------------------------------------
    offered: int
    admitted: int
    completed: int
    rate_limited: int
    shed: int
    deadline_misses: int
    p99_ms: float
    # -- chaos actually delivered ------------------------------------------
    partition_windows: int
    gray_episodes: int
    crashes: int
    held_responses: int
    # -- defense engagement ------------------------------------------------
    suspicion_events: int
    breaker_transitions: int
    hedges_issued: int
    hedges_backup_won: int
    duplicate_work_ratio: float
    brownout_path: tuple[int, ...]
    retry_budget_spent: float
    retry_budget_refused: int
    retry_budget_overdraft: float
    # -- storage sidecar ---------------------------------------------------
    storage_degraded_detail: str
    storage_degraded_ok: bool
    storage_recovered: bool

    @property
    def lost_requests(self) -> int:
        """Admitted requests that never completed — must be zero."""
        return self.admitted - self.completed

    @property
    def chaos_delivered(self) -> bool:
        """Did the armed faults actually land on the serving plane?"""
        return (self.partition_windows > 0 and self.gray_episodes > 0
                and self.crashes > 0)

    @property
    def ok(self) -> bool:
        """The drill's verdict.

        Either mode: no admitted request may be lost, the faults must
        have demonstrably fired, and the storage sidecar must have
        reported gray (ok-but-degraded) and then recovered.  Defenses
        on: breakers must have tripped and hedges must have raced — a
        gray replica *answers* its probes, so breaker/hedge engagement
        (not heartbeat suspicion) is the proof the defense layer did
        real work.  Defenses off: the defense counters must all read
        zero — the gates are real, not decorative.  The duplicate-work
        budget is enforced by the serving bench case, where a fixed
        scenario makes the ratio a stable regression signal; here it is
        reported for the record.
        """
        base = (self.lost_requests == 0
                and self.chaos_delivered
                and self.storage_degraded_ok
                and self.storage_recovered)
        if not base:
            return False
        if self.defend:
            return self.breaker_transitions > 0 and self.hedges_issued > 0
        return (self.suspicion_events == 0
                and self.breaker_transitions == 0
                and self.hedges_issued == 0
                and not self.brownout_path)

    def to_text(self) -> str:
        """Deterministic human-readable report (the CI artifact)."""
        mode = "on" if self.defend else "off"
        path = "->".join(str(level) for level in (0,) + self.brownout_path)
        lines = [
            f"chaos drill report (seed {self.seed}, defenses {mode})",
            "=" * 54,
            "request ledger:",
            f"  offered {self.offered}  admitted {self.admitted}  "
            f"completed {self.completed}",
            f"  rate-limited {self.rate_limited}  shed {self.shed}",
            f"  lost: {self.lost_requests}",
            f"  deadline misses: {self.deadline_misses}  "
            f"p99 {self.p99_ms:.3f} ms",
            "",
            "chaos delivered:",
            f"  partitions {self.partition_windows}  "
            f"gray {self.gray_episodes}  crashes {self.crashes}  "
            f"responses held {self.held_responses}",
            "",
            "defense engagement:",
            f"  suspicion events: {self.suspicion_events}",
            f"  breaker transitions: {self.breaker_transitions}",
            f"  hedges: {self.hedges_issued} issued, "
            f"{self.hedges_backup_won} backup wins "
            f"(duplicate-work ratio {self.duplicate_work_ratio:.4f}, "
            f"budget {DUPLICATE_WORK_BUDGET:g})",
            f"  brownout path: {path}",
            f"  retry budget: {self.retry_budget_spent:.1f} spent, "
            f"{self.retry_budget_refused} refused, "
            f"overdraft {self.retry_budget_overdraft:.1f}",
            "",
            "storage sidecar:",
            f"  degraded window: {self.storage_degraded_detail or '(none)'} "
            f"(ok={self.storage_degraded_ok})",
            f"  recovered clean: {self.storage_recovered}",
            "",
            f"verdict: {'PASS' if self.ok else 'FAIL'}",
        ]
        return "\n".join(lines) + "\n"


def chaos_drill_plan(seed: int, duration_s: float):
    """One fault of each partial-failure class, deterministically placed.

    The gray failure and the crash target the booster nodes the first
    replicas land on (placement is deterministic), so the faults hit the
    serving plane rather than empty corners of the system.
    """
    from repro.resilience.faults import FaultKind, FaultPlan, FaultSpec

    return FaultPlan(seed=seed, specs=(
        FaultSpec(kind=FaultKind.GRAY_FAILURE,
                  time=duration_s * 0.15, module="esb", node=0,
                  duration=duration_s * 0.35,
                  magnitude=8.0, probability=0.6),
        FaultSpec(kind=FaultKind.NETWORK_PARTITION,
                  time=duration_s * 0.55,
                  duration=duration_s * 0.12,
                  probability=0.4),
        FaultSpec(kind=FaultKind.NODE_CRASH,
                  time=duration_s * 0.75, module="esb", node=1,
                  duration=duration_s * 0.2),
    ))


def run_chaos_drill(seed: int = 0, quick: bool = False, defend: bool = True
                    ) -> tuple[ChaosDrillReport, str]:
    """Run the drill; returns ``(report, prometheus metrics text)``."""
    from repro.core.presets import small_msa_system
    from repro.resilience.faults import FaultInjector
    from repro.serving import (
        AutoscalerConfig,
        DefenseConfig,
        ServingConfig,
        TraceConfig,
        simulate_serving,
    )
    from repro.storage.pfs import ParallelFileSystem

    duration = DURATION_S / 2 if quick else DURATION_S
    plan = chaos_drill_plan(seed, duration)
    config = ServingConfig(
        trace=TraceConfig(rate_per_s=RATE_PER_S, duration_s=duration,
                          seed=seed, bronze_fraction=BRONZE_FRACTION),
        initial_replicas=REPLICAS,
        cache_capacity=CACHE_CAPACITY,
        # Pinned capacity: the drill measures the defenses, not the
        # autoscaler's scale-up lag.
        autoscaler=AutoscalerConfig(enabled=False),
        defense=DefenseConfig(enabled=defend),
    )

    with telemetry.capture() as (tracer, registry):
        pfs = ParallelFileSystem("sssm", n_targets=4)
        pfs.fail_target(seed % pfs.n_targets)
        degraded = pfs.health()
        report = simulate_serving(
            config,
            system=small_msa_system(),
            fault_injector=FaultInjector(plan),
            registry=registry,
        )
        pfs.recover_target(seed % pfs.n_targets)
        restored = pfs.health()
        recovered = restored.ok and not restored.degraded
        prometheus = registry.to_prometheus()

    m = report.metrics
    drill = ChaosDrillReport(
        seed=seed,
        defend=defend,
        quick=quick,
        offered=m.offered,
        admitted=m.admitted,
        completed=m.completed,
        rate_limited=m.rate_limited,
        shed=m.shed,
        deadline_misses=m.deadline_misses,
        p99_ms=m.p99 * 1e3,
        partition_windows=report.partition_windows,
        gray_episodes=report.gray_episodes,
        crashes=len(report.failover_events),
        held_responses=report.held_responses,
        suspicion_events=report.suspicion_events,
        breaker_transitions=report.breaker_transitions,
        hedges_issued=m.hedges_issued,
        hedges_backup_won=m.hedges_backup_won,
        duplicate_work_ratio=report.duplicate_work_ratio,
        brownout_path=report.brownout_path,
        retry_budget_spent=report.retry_budget_spent,
        retry_budget_refused=report.retry_budget_refused,
        retry_budget_overdraft=report.retry_budget_overdraft,
        storage_degraded_detail=degraded.detail,
        storage_degraded_ok=degraded.ok and degraded.degraded,
        storage_recovered=recovered,
    )
    return drill, prometheus
