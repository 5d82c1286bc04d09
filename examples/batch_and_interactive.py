#!/usr/bin/env python
"""Batch scripts, Gantt traces, co-allocation and scale-out inference.

The operator-and-user workflow layer added on top of the MSA core:

* submit ``#SBATCH``/``#PHASE`` job scripts (what the Jupyter kernels
  abstract away from medical experts — Sec. IV),
* export the resulting schedule as a Chrome-trace Gantt chart (the
  scheduler's phase spans, captured by the telemetry layer),
* run a co-allocated in-situ job (solver on the ESB ∥ analytics on the
  DAM — the conclusions' 'matching combinations of MSA module resources'),
* scale inference out across ranks and verify it is exact (the paper's
  CM-train / ESB-infer pattern).

Run:  python examples/batch_and_interactive.py
"""

import numpy as np

from repro import telemetry
from repro.core import (
    CoAllocatedPhase,
    Job,
    JobPhase,
    MsaScheduler,
    WorkloadClass,
    deep_system,
    schedule_workload,
)
from repro.core.batch import parse_job_script
from repro.distributed import distributed_evaluate, inference_scaleout_time
from repro.ml import Adam, Tensor, cross_entropy
from repro.ml.models import MLP
from repro.mpi import run_spmd

SCRIPT = """#!/bin/sh
#SBATCH --job-name=rs-train-pipeline
#SBATCH --begin=0
#PHASE name=stage-bigearthnet workload=simulation-lowscale nodes=4 work=5e14 memory=64 io=120
#PHASE name=train-resnet workload=ml-training nodes=16 work=1e18 gpu tensor-cores parallel=0.998 comm=8
#PHASE name=evaluate workload=ml-inference nodes=8 work=2e16 gpu parallel=0.99
"""


def batch_section() -> None:
    print("=" * 72)
    print("Batch front end: #SBATCH/#PHASE script -> scheduler -> Gantt")
    print("=" * 72)
    job = parse_job_script(SCRIPT)
    print(f"parsed job {job.name!r}: "
          f"{[p.name for p in job.phases]}")
    with telemetry.capture() as (tracer, _):
        report = schedule_workload(deep_system(), [job])
    for alloc in report.allocations:
        print(f"  {alloc.phase_name:<20} -> {alloc.module_key:<4} "
              f"x{len(alloc.nodes):<3} [{alloc.start:>8.0f} s "
              f"… {alloc.end:>8.0f} s]")
    phases = [s for s in tracer.by_track("scheduler") if not s.is_instant]
    trace = telemetry.chrome_trace_json(tracer.spans)
    print(f"Gantt trace: {len(phases)} phase spans "
          f"({len(trace)} bytes of chrome://tracing JSON)")


def coallocation_section() -> None:
    print("\n" + "=" * 72)
    print("Co-allocation: in-situ solver ∥ analytics across modules")
    print("=" * 72)
    solver = JobPhase(name="solver",
                      workload=WorkloadClass.SIMULATION_HIGHSCALE,
                      work_flops=1e17, nodes=6, uses_gpu=True,
                      parallel_fraction=0.99)
    analytics = JobPhase(name="analytics",
                         workload=WorkloadClass.DATA_ANALYTICS,
                         work_flops=2e15, nodes=2,
                         memory_GB_per_node=400.0)
    coupled = Job(name="insitu", phases=[CoAllocatedPhase(
        name="insitu", components=(solver, analytics),
        coupling_bytes=50e9)])
    staged = Job(name="staged", phases=[solver, analytics])

    for job in (coupled, staged):
        sched = MsaScheduler(deep_system())
        sched.submit(job)
        report = sched.run()
        print(f"{job.name:<8}: makespan {report.makespan / 3600:6.2f} h  "
              f"({', '.join(sorted({a.module_key for a in report.allocations}))})")


def inference_section() -> None:
    print("\n" + "=" * 72)
    print("Scale-out inference on the ESB (exact distributed evaluation)")
    print("=" * 72)
    rng = np.random.default_rng(0)
    X = np.concatenate([rng.normal(-2, 1, (80, 2)), rng.normal(2, 1, (80, 2))])
    y = np.array([0] * 80 + [1] * 80)
    model = MLP([2, 8, 2], seed=0)
    opt = Adam(model.parameters(), lr=0.02)
    for _ in range(40):
        loss = cross_entropy(model(Tensor(X)), y)
        model.zero_grad()
        loss.backward()
        opt.step()

    def fn(comm):
        return distributed_evaluate(comm, model.predict, X, y, n_classes=2)

    for workers in (1, 4):
        result = run_spmd(fn, workers)[0]
        print(f"{workers} rank(s): accuracy {result['accuracy']:.3f} over "
              f"{result['n_samples']} samples (bitwise identical)")

    print("\nanalytic scale-out (100k samples, 0.1 ms/sample):")
    for p in (1, 8, 32, 75):
        t = inference_scaleout_time(100_000, per_sample_s=1e-4, n_ranks=p)
        print(f"  {p:>3} ESB ranks: {t:7.2f} s")


if __name__ == "__main__":
    batch_section()
    coallocation_section()
    inference_section()
