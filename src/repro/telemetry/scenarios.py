"""The one scenario runner behind ``repro trace`` and ``repro drill``.

:func:`run_scenario` runs one entry of :data:`SCENARIOS` under a single
:func:`repro.telemetry.capture`, so every instrumented layer records into
one tracer/registry pair, then reconciles the corruption ledger, exports
the artifacts and judges the run:

* ``train`` — a faulted batch workload through the MSA scheduler (node
  crashes, requeues) *plus* a faulted elastic training run (rank kills,
  ULFM shrink, NAM/PFS checkpoint-restart): tracks ``scheduler``,
  ``mpi``, ``train``, ``storage`` and ``faults`` on one simulated
  timebase;
* ``serve`` — online serving with admission control, micro-batching, a
  replica crash mid-run and the autoscaler active: tracks ``serving`` and
  ``faults``;
* ``sdc`` — the silent-data-corruption drill
  (:func:`repro.resilience.drill.sdc_drill`);
* ``chaos`` — the partition / gray-failure drill
  (:func:`repro.resilience.chaosdrill.chaos_drill`).

Every run writes ``trace.json``, ``metrics.prom`` and ``summary.txt``; a
drill also writes its ``report.txt``.  Everything is seed-driven: the same
``(name, seed, quick, control)`` produces byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro import telemetry
from repro.resilience.chaosdrill import chaos_drill
from repro.resilience.drill import sdc_drill
from repro.resilience.integrity import publish_undetected
from repro.telemetry.export import chrome_trace_json, run_summary


@dataclass(frozen=True)
class ScenarioRun:
    """The files and the verdict of one scenario run."""

    #: filename -> body, exactly as written to disk.
    files: dict[str, str]
    #: Readable reasons the run failed; empty means it passed.
    failures: tuple[str, ...]
    #: The raw spans (deterministic order) — for nesting validation.
    spans: tuple[telemetry.Span, ...] = ()
    #: The drill's typed report; ``None`` for a trace scenario.
    report: Any = None

    @property
    def ok(self) -> bool:
        return not self.failures


def _train(seed: int, quick: bool, control: bool) -> None:
    """Faulted scheduler workload + faulted elastic training."""
    from repro.core.presets import small_msa_system
    from repro.core.jobs import synthetic_workload_mix
    from repro.core.scheduler import schedule_workload
    from repro.distributed.horovod import run_elastic_training
    from repro.ml.models import MLP
    from repro.resilience.faults import FaultInjector, FaultPlan
    from repro.resilience.policy import CheckpointPolicy
    from repro.storage.checkpoint import CheckpointManager
    from repro.storage.nam import NetworkAttachedMemory
    from repro.storage.pfs import ParallelFileSystem

    n_jobs = 4 if quick else 8
    n_steps = 8 if quick else 16
    world_size = 4
    kill_step = n_steps // 2

    rng = np.random.default_rng(seed)
    X = np.concatenate([rng.normal(-2.0, 1.0, size=(64, 2)),
                        rng.normal(2.0, 1.0, size=(64, 2))])
    Y = np.array([0] * 64 + [1] * 64)

    # 1) The batch side: a workload mix with node crashes mid-run.
    system = small_msa_system()
    targets = {key: module.n_nodes
               for key, module in system.compute_modules().items()}
    plan = FaultPlan.random(seed, targets=targets, horizon_s=40_000.0,
                            n_crashes=2, repair_s=1_200.0)
    schedule_workload(
        system,
        synthetic_workload_mix(n_jobs=n_jobs, seed=seed,
                               mean_interarrival_s=600.0),
        fault_injector=FaultInjector(plan),
    )

    # 2) The training side: rank kills + silent corruption (a gradient
    # bitflip and checkpoint rot) + NAM-first checkpoint-restart, so the
    # trace's metrics expose the integrity counters.
    manager = CheckpointManager(
        nam=NetworkAttachedMemory(capacity_GB=1),
        pfs=ParallelFileSystem("pfs", n_targets=4))
    train_plan = FaultPlan.rank_kills(seed, {kill_step: [1]}).merged(
        FaultPlan.silent_corruption(
            seed,
            gradient={max(1, n_steps // 4): [2]},
            checkpoint_rot=[(n_steps - 2, "nam")]))
    run_elastic_training(
        model_factory=lambda: MLP([2, 8, 2], seed=3),
        X=X, Y=Y,
        n_steps=n_steps,
        batch_size=16,
        world_size=world_size,
        seed=seed,
        fault_plan=train_plan,
        checkpoint_manager=manager,
        checkpoint_policy=CheckpointPolicy(every_steps=4, replicate=True),
        name="trace-train",
    )


def _serve(seed: int, quick: bool, control: bool) -> None:
    """Online serving under load with a replica crash and autoscaling."""
    from repro.core.presets import small_msa_system
    from repro.resilience.faults import (
        FaultInjector,
        FaultKind,
        FaultPlan,
        FaultSpec,
    )
    from repro.serving.engine import ServingConfig, simulate_serving
    from repro.serving.request import ArrivalPattern, TraceConfig
    from repro.serving.batcher import BatchPolicy
    from repro.serving.admission import AdmissionPolicy
    from repro.serving.replicas import AutoscalerConfig

    duration = 10.0 if quick else 25.0
    config = ServingConfig(
        trace=TraceConfig(pattern=ArrivalPattern.POISSON, rate_per_s=120.0,
                          duration_s=duration, samples_per_request=32,
                          seed=seed, key_universe=1 << 20),
        batch=BatchPolicy(),
        admission=AdmissionPolicy(max_queue_depth=256),
        autoscaler=AutoscalerConfig(enabled=True, min_replicas=2,
                                    max_replicas=8),
        initial_replicas=2,
        cache_capacity=128,
    )
    plan = FaultPlan(seed=seed, specs=(
        FaultSpec(kind=FaultKind.NODE_CRASH, time=duration / 5.0,
                  module="esb", node=0, duration=5.0),))
    report = simulate_serving(config, system=small_msa_system(),
                              fault_injector=FaultInjector(plan),
                              registry=telemetry.get_registry())
    report.metrics.check_conservation()


#: name -> body.  A body runs inside the runner's capture and returns the
#: drill's typed report, or ``None`` for a trace scenario.
SCENARIOS = {
    "train": _train,
    "serve": _serve,
    "sdc": sdc_drill,
    "chaos": chaos_drill,
}


def run_scenario(name: str, seed: int = 0, quick: bool = False,
                 control: bool = False) -> ScenarioRun:
    """Run one scenario under one capture and judge it.

    ``control`` runs a drill's control arm (``--no-verify`` /
    ``--no-defend``), where undetected corruption is expected, not a
    failure.  The run fails on any gauge whose name contains "invariant"
    reading above zero, on undetected corruption outside a control arm,
    and on any of the drill report's own :meth:`failures`.
    """
    if control and name not in ("sdc", "chaos"):
        raise ValueError(f"scenario {name!r} has no control arm")
    with telemetry.capture() as (tracer, registry):
        report = SCENARIOS[name](seed=seed, quick=quick, control=control)
    # Reconcile the corruption ledger before exporting, so every run's
    # metrics.prom/summary.txt carries the undetected gauge.
    undetected = publish_undetected(registry)
    spans = tracer.spans
    verb = "trace" if report is None else "drill"
    files = {
        "trace.json": chrome_trace_json(spans) + "\n",
        "metrics.prom": registry.to_prometheus(),
        "summary.txt": run_summary(
            spans, registry, title=f"repro {verb} {name} (seed {seed})"),
    }
    failures = [f"invariant gauge {gauge}{dict(labels)} = {value:g}"
                for gauge, labels, value
                in registry.gauges_over(0.0, name_contains="invariant")]
    if undetected > 0 and not control:
        failures.append(f"integrity_undetected = {undetected:g}")
    if report is not None:
        files["report.txt"] = report.to_text()
        failures += report.failures()
    return ScenarioRun(files=files, failures=tuple(failures),
                       spans=tuple(spans), report=report)
