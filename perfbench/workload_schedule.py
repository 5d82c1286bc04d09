"""``schedule_backlog``: Fig. 2 job mixes arriving faster than DEEP drains.

Each mix is ``synthetic_workload_mix`` on ``deep_system()`` with a seeded
``FaultPlan.random`` (node crashes, stragglers, link degrades) over its
arrival window.  The queue backs up, so ``MsaScheduler`` rescans a deep
ready queue and scores every queued phase on every module at each event:
``core.scheduler`` and ``core.jobs.phase_runtime`` do the work.

One caller, closed loop: one operation is one ``MsaScheduler.run()`` over
one mix.  A run's input is ``MIXES`` mixes drawn from the seed (a single
mix's cost swings with its share of heavy ML pipelines, so several are
pooled); the timed loop repeats whole cycles over all of them until
``--seconds`` have passed.  ``sim_mean_wait_s`` pools the first cycle and
every later cycle must reproduce the first one's schedule exactly.
"""

from __future__ import annotations

import hashlib
import time

from harness import (MIN_CYCLES, Cycle, Result, layer_calls, layer_ms,
                     median, peak_rss_mb, thread_lines, timed_setup,
                     unattributed_ratio)
from spans import Tracer

MIXES = 12
SCHED = dict(jobs=100, interarrival_s=60.0, crashes=4, stragglers=4,
             degrades=2, repair_s=600.0)


def sub_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


def build_scheduler(seed: int, n_jobs: int = SCHED["jobs"]):
    """A scheduler with one mix submitted and its fault plan armed."""
    from repro.core.jobs import synthetic_workload_mix
    from repro.core.presets import deep_system
    from repro.core.scheduler import MsaScheduler
    from repro.resilience.faults import FaultInjector, FaultPlan

    cfg = SCHED
    jobs = synthetic_workload_mix(n_jobs=n_jobs, seed=seed,
                                  mean_interarrival_s=cfg["interarrival_s"])
    system = deep_system()
    targets = {key: m.n_nodes for key, m in system.compute_modules().items()}
    plan = FaultPlan.random(seed, targets, horizon_s=jobs[-1].arrival_time,
                            n_crashes=cfg["crashes"],
                            n_stragglers=cfg["stragglers"],
                            n_degrades=cfg["degrades"],
                            repair_s=cfg["repair_s"])
    scheduler = MsaScheduler(system, fault_injector=FaultInjector(plan))
    scheduler.submit_all(jobs)
    return scheduler


def _setup(seed: int) -> list:
    schedulers = [build_scheduler(sub_seed(seed, i)) for i in range(MIXES)]
    build_scheduler(sub_seed(seed, 0)).run()  # warm-up
    return schedulers


def overlaps(report) -> int:
    """Allocations that share a node with an earlier, unfinished one."""
    by_node: dict[tuple[str, int], list] = {}
    for alloc in report.allocations:
        for node in alloc.nodes:
            by_node.setdefault((alloc.module_key, node), []).append(
                (alloc.start, alloc.end))
    bad = 0
    for spans in by_node.values():
        spans.sort()
        busy_until = float("-inf")
        for start, end in spans:
            if start < busy_until - 1e-9:
                bad += 1
            busy_until = max(busy_until, end)
    return bad


def _digest(report) -> str:
    h = hashlib.blake2b(digest_size=8)
    for a in report.allocations:
        h.update(repr((a.job_name, a.phase_index, a.module_key, a.nodes,
                       a.start, a.end)).encode())
    h.update(repr(sorted(report.wait_times.items())).encode())
    return h.hexdigest()


def _schedule(cycle: Cycle, i: int, scheduler, op_id=None) -> None:
    """One ``run()`` of ``scheduler`` on mix ``i``, checked."""
    from repro.core.jobs import JobStatus

    n_jobs = SCHED["jobs"]
    label = f"mix {i}"
    report = cycle.run(i, scheduler.run, n_jobs, label, op_id)
    if report is None:
        return
    ended = sum(1 for s in report.job_status.values()
                if s in (JobStatus.COMPLETED, JobStatus.FAILED))
    if ended != n_jobs:
        cycle.res.fail(n_jobs - ended,
                       f"{label}: {n_jobs - ended} jobs never ended")
    bad = overlaps(report)
    if bad:
        cycle.res.fail(n_jobs, f"{label}: {bad} allocations over-allocate "
                               f"a node")
    cycle.keep(i, report, n_jobs, _digest(report), n_jobs, label)


def run(seed: int, seconds: float) -> Result:
    res = Result()
    schedulers, setup_times = timed_setup(lambda: _setup(seed))
    cycle = Cycle(res)
    start = time.perf_counter()
    n = 0
    while n < MIN_CYCLES or time.perf_counter() - start < seconds:
        for i in range(MIXES):
            _schedule(cycle, i, schedulers[i] if n == 0
                      else build_scheduler(sub_seed(seed, i)))
        schedulers = None
        n += 1
    peak_mb = peak_rss_mb()
    setup_times += timed_setup(lambda: _setup(seed))[1]
    rate = (cycle.items_per_s(), "1/s")
    waits = [w for r in cycle.outputs.values()
             for w in r.wait_times.values()]
    res.report.update({
        "jobs_per_s": rate,
        "run_p50_ms": (median(cycle.walls) * 1e3 if cycle.walls else 0.0,
                       "ms"),
        "runs": (float(len(cycle.walls)), "count"),
        "sim_mean_wait_s": (sum(waits) / len(waits) if waits else 0.0, "s"),
    })
    res.metrics.update({
        "setup_s": (min(setup_times), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "items_per_s": rate,
    })
    return res


LAYERS = {
    "core.scheduler": ["core.scheduler.run", "simnet.events.run"],
    "core.jobs": ["core.jobs.phase_runtime"],
    "core.module": ["core.module.allocate"],
    "core.energy": ["core.energy"],
}


def install(tracer: Tracer) -> None:
    from repro.core import scheduler
    from repro.core.energy import EnergyAccountant
    from repro.core.module import ComputeModule
    from repro.simnet.events import Simulator

    tracer.patch(scheduler.MsaScheduler, "run", "core.scheduler.run")
    # The scheduler imported phase_runtime by name; wrap that binding.
    tracer.patch(scheduler, "phase_runtime", "core.jobs.phase_runtime")
    tracer.patch(ComputeModule, "allocate", "core.module.allocate")
    for method in ("charge_phase", "credit_phase", "charge_idle"):
        tracer.patch(EnergyAccountant, method, "core.energy")
    tracer.patch(Simulator, "run", "simnet.events.run")


def _growth(seed: int) -> float:
    """Untraced µs per job at twice the jobs over µs per job at ``jobs``."""
    n = SCHED["jobs"]
    per_job = []
    for jobs in (n, 2 * n):
        walls = []
        for _ in range(3):
            scheduler = build_scheduler(sub_seed(seed, 0), jobs)
            t0 = time.perf_counter()
            scheduler.run()
            walls.append(time.perf_counter() - t0)
        per_job.append(median(walls) / jobs)
    return per_job[1] / per_job[0]


def trace(seed: int, out_dir) -> tuple[Result, dict]:
    res = Result()
    growth = _growth(seed)
    plain = Cycle(Result())
    for i in range(MIXES):
        _schedule(plain, i, build_scheduler(sub_seed(seed, i)))
    tracer = Tracer("bench.op")
    cycle = Cycle(res, tracer)
    schedulers = [build_scheduler(sub_seed(seed, i)) for i in range(MIXES)]
    install(tracer)
    try:
        for i, scheduler in enumerate(schedulers):
            _schedule(cycle, i, scheduler, i)
    finally:
        tracer.restore()
    for i, digest in plain.digests.items():
        if cycle.digests.get(i) != digest:
            res.fail(SCHED["jobs"], f"mix {i}: traced schedule differs")
    problems = tracer.check(range(MIXES))
    if problems:
        res.fail(1, "span nesting: " + "; ".join(problems))
    reports = list(cycle.outputs.values())
    per = max(1, sum(cycle.items.values()))
    allocations = sum(len(r.allocations) for r in reports)
    events = sum(s.sim.events_processed for s in schedulers)
    scored = tracer.totals("core.jobs.phase_runtime")[0]
    m = {
        "core.scheduler.run_ms": layer_ms(tracer, ["core.scheduler.run"],
                                          per, inclusive=True),
        "core.scheduler.self_ms": layer_ms(tracer, LAYERS["core.scheduler"],
                                           per),
        "core.jobs.phase_runtime_calls": scored / per,
        "core.jobs.phase_runtime_ms": layer_ms(
            tracer, ["core.jobs.phase_runtime"], per),
        "core.scheduler.score_calls_per_placement": (
            scored / allocations if allocations else 0.0),
        "core.module.allocate_calls": layer_calls(
            tracer, ["core.module.allocate"], per),
        "core.module.allocate_ms": layer_ms(tracer, ["core.module.allocate"],
                                            per),
        "core.energy.ms": layer_ms(tracer, ["core.energy"], per),
        "core.scheduler.requeues": sum(
            len(r.resilience.requeues) for r in reports) / per,
        "core.scheduler.us_per_job_growth": growth,
        "simnet.events.events": events / per,
        "simnet.events.us_per_event": layer_ms(
            tracer, ["simnet.events.run"], events, inclusive=True) * 1e3,
        "trace.overhead_ratio": sum(cycle.walls) / sum(plain.walls),
        "trace.unattributed_ratio": unattributed_ratio(
            tracer, "bench.op", ["simnet.events.run"]),
    }
    res.threads = thread_lines(tracer, LAYERS)
    tracer.write(out_dir / f"spans_schedule_backlog_{seed}.jsonl")
    return res, m


RUNNERS = {"schedule_backlog": run}
TRACERS = {"schedule_backlog": trace}
