"""``serve_chaos``: the online-serving plane under partial failures.

``ServingEngine`` replays BURSTY Zipf traces (a quarter bronze tier, a
64-entry result cache, defenses on) against the chaos drill's fault plan
stretched to each trace: one gray failure, one partition and one crash.
Arrivals are open-loop on the simulated clock; the benchmark itself is
one caller running one engine at a time.  Serving, failure detection and
the event loop do all the work; no tensor is touched.

A run's input is ``SUBTRACES`` traces drawn from the seed.  One operation
is one ``ServingEngine.run()`` over one of them; the timed loop repeats
whole cycles over all of them until ``--seconds`` have passed.  The
simulated metrics pool the first cycle, so they depend on the seed only;
every later cycle must reproduce the first one's report byte for byte.
"""

from __future__ import annotations

import hashlib
import time

from harness import (MIN_CYCLES, Cycle, Result, layer_calls, layer_ms,
                     median, peak_rss_mb, thread_lines, timed_setup,
                     unattributed_ratio)
from spans import Tracer

SUBTRACES = 5
SERVE = dict(duration=60.0, rate=120.0, bronze=0.25, cache=64, replicas=3,
             burst_len=2.0, gap_len=6.0)


def sub_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


def build_engine(seed: int):
    """One engine over one trace and its fault plan (runs exactly once)."""
    from repro.core.presets import small_msa_system
    from repro.resilience.chaosdrill import chaos_drill_plan
    from repro.resilience.faults import FaultInjector
    from repro.serving import (AutoscalerConfig, DefenseConfig,
                               ServingConfig, TraceConfig)
    from repro.serving.engine import ServingEngine
    from repro.serving.request import ArrivalPattern

    cfg = SERVE
    config = ServingConfig(
        trace=TraceConfig(pattern=ArrivalPattern.BURSTY,
                          rate_per_s=cfg["rate"], duration_s=cfg["duration"],
                          seed=seed, bronze_fraction=cfg["bronze"],
                          burst_len_s=cfg["burst_len"],
                          gap_len_s=cfg["gap_len"]),
        initial_replicas=cfg["replicas"],
        cache_capacity=cfg["cache"],
        autoscaler=AutoscalerConfig(enabled=False),
        defense=DefenseConfig(enabled=True),
    )
    return ServingEngine(config, system=small_msa_system(),
                         fault_injector=FaultInjector(
                             chaos_drill_plan(seed, cfg["duration"])))


def _setup(seed: int) -> list:
    engines = [build_engine(sub_seed(seed, i)) for i in range(SUBTRACES)]
    build_engine(sub_seed(seed, 0)).run()  # warm-up
    return engines


def _digest(report) -> str:
    text = report.to_text().encode()
    return hashlib.blake2b(text, digest_size=8).hexdigest()


def _serve(cycle: Cycle, i: int, engine, op_id=None) -> None:
    """One ``run()`` of ``engine`` on trace ``i``, checked."""
    offered = len(engine.requests)
    label = f"trace {i}"
    report = cycle.run(i, engine.run, offered, label, op_id)
    if report is None:
        return
    m = report.metrics
    lost = abs(m.offered - m.admitted - m.rate_limited - m.shed) + abs(
        m.admitted - m.completed)
    if m.offered != offered or lost:
        cycle.res.fail(max(lost, 1), f"{label}: offered {m.offered} "
                                     f"admitted {m.admitted} rejected "
                                     f"{m.rate_limited + m.shed} completed "
                                     f"{m.completed}")
    cycle.keep(i, report, m.completed, _digest(report), offered, label)


def _sim_metrics(reports: list) -> dict:
    from repro.core.stats import percentile

    latencies = [v for r in reports for v in r.metrics.latencies_s]
    offered = sum(r.metrics.offered for r in reports)
    on_time = sum(r.metrics.on_time for r in reports)
    return {
        "sim_p99_ms": (percentile(latencies, 99.0) * 1e3, "ms"),
        "sim_slo_attainment": (on_time / offered, "ratio"),
    }


def run(seed: int, seconds: float) -> Result:
    res = Result()
    engines, setup_times = timed_setup(lambda: _setup(seed))
    cycle = Cycle(res)
    start = time.perf_counter()
    n = 0
    while n < MIN_CYCLES or time.perf_counter() - start < seconds:
        for i in range(SUBTRACES):
            _serve(cycle, i, engines[i] if n == 0
                   else build_engine(sub_seed(seed, i)))
        engines = None
        n += 1
    peak_mb = peak_rss_mb()
    setup_times += timed_setup(lambda: _setup(seed))[1]
    rate = (cycle.items_per_s(), "1/s")
    res.report.update({
        "sim_requests_per_s": rate,
        "run_p50_ms": (median(cycle.walls) * 1e3 if cycle.walls else 0.0,
                       "ms"),
        "runs": (float(len(cycle.walls)), "count"),
    })
    if cycle.outputs:
        res.report.update(_sim_metrics(list(cycle.outputs.values())))
    res.metrics.update({
        "setup_s": (min(setup_times), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "items_per_s": rate,
    })
    return res


LAYERS = {
    "serving.admission": ["serving.admission"],
    "serving.cache": ["serving.cache"],
    "serving.batcher": ["serving.batcher"],
    "serving.replicas": ["serving.replicas"],
    "serving.defense": ["serving.defense"],
    "resilience.detect": ["resilience.detect.heartbeat",
                          "resilience.detect.phi",
                          "resilience.detect.suspects",
                          "resilience.detect.other"],
    "resilience.retry": ["resilience.retry"],
    "serving.engine": ["simnet.events.run"],
}

#: Public methods wrapped per layer: (module, class, methods, span name).
_WRAPPED = [
    ("repro.serving.admission", "AdmissionController", ["decide"],
     "serving.admission"),
    ("repro.serving.cache", "ResultCache",
     ["lookup", "complete", "contains", "abandon"], "serving.cache"),
    ("repro.serving.batcher", "MicroBatcher",
     ["enqueue", "requeue_front", "ready_model", "next_deadline", "take",
      "set_wait_stretch"], "serving.batcher"),
    ("repro.serving.replicas", "ReplicaPool",
     ["idle_replicas", "find", "place", "batch_time", "retire", "crash",
      "retirement_candidate"], "serving.replicas"),
    ("repro.serving.defense", "CircuitBreaker",
     ["state", "record_failure", "record_success", "allows_dispatch"],
     "serving.defense"),
    ("repro.serving.defense", "HedgePolicy", ["deadline"], "serving.defense"),
    ("repro.serving.defense", "BrownoutController", ["tick"],
     "serving.defense"),
    ("repro.resilience.detect", "PhiAccrualDetector", ["heartbeat"],
     "resilience.detect.heartbeat"),
    ("repro.resilience.detect", "PhiAccrualDetector", ["phi"],
     "resilience.detect.phi"),
    ("repro.resilience.detect", "PhiAccrualDetector", ["suspect", "suspects"],
     "resilience.detect.suspects"),
    ("repro.resilience.detect", "PhiAccrualDetector", ["register", "forget"],
     "resilience.detect.other"),
    ("repro.resilience.retry", "RetryBudget",
     ["note_request", "try_spend", "spend_forced"], "resilience.retry"),
    ("repro.resilience.retry", "RetryPolicy", ["delay", "delay_within"],
     "resilience.retry"),
    ("repro.simnet.events", "Simulator", ["run"], "simnet.events.run"),
]


def install(tracer: Tracer) -> None:
    import importlib

    for module, cls, methods, name in _WRAPPED:
        owner = getattr(importlib.import_module(module), cls)
        for method in methods:
            tracer.patch(owner, method, name)


def trace(seed: int, out_dir) -> tuple[Result, dict]:
    res = Result()
    plain = Cycle(Result())
    for i in range(SUBTRACES):
        _serve(plain, i, build_engine(sub_seed(seed, i)))
    tracer = Tracer("bench.op")
    cycle = Cycle(res, tracer)
    engines = [build_engine(sub_seed(seed, i)) for i in range(SUBTRACES)]
    install(tracer)
    try:
        for i, engine in enumerate(engines):
            _serve(cycle, i, engine, i)
    finally:
        tracer.restore()
    for i, digest in plain.digests.items():
        if cycle.digests.get(i) != digest:
            res.fail(len(engines[i].requests),
                     f"trace {i}: traced report differs from untraced")
    problems = tracer.check(range(SUBTRACES))
    if problems:
        res.fail(1, "span nesting: " + "; ".join(problems))
    reports = list(cycle.outputs.values())
    per = max(1, sum(r.metrics.offered for r in reports))
    events = sum(e.sim.events_processed for e in engines)
    hedges = sum(r.metrics.hedges_issued for r in reports)
    busy = sum(sum(r.metrics.module_busy_s.values()) for r in reports)
    lookups = sum(r.cache_hits + r.cache_misses + r.cache_coalesced
                  for r in reports)
    detect = LAYERS["resilience.detect"][:3]
    m = {
        "serving.admission.calls": layer_calls(tracer, ["serving.admission"],
                                               per),
        "serving.admission.ms": layer_ms(tracer, ["serving.admission"], per),
        "serving.cache.lookups": lookups / per,
        "serving.cache.ms": layer_ms(tracer, ["serving.cache"], per),
        "serving.cache.hit_ratio": (sum(r.cache_hits for r in reports)
                                    / lookups if lookups else 0.0),
        "serving.cache.coalesced": sum(r.cache_coalesced
                                       for r in reports) / per,
        "serving.batcher.batches": sum(r.metrics.batches
                                       for r in reports) / per,
        "serving.batcher.ms": layer_ms(tracer, ["serving.batcher"], per),
        "serving.batcher.requests_per_batch": (
            sum(r.metrics.batched_requests for r in reports)
            / max(1, sum(r.metrics.batches for r in reports))),
        "serving.replicas.ms": layer_ms(tracer, ["serving.replicas"], per),
        "serving.defense.ms": layer_ms(tracer, ["serving.defense"], per),
        "serving.defense.hedges": hedges / per,
        "serving.defense.hedge_win_ratio": (
            sum(r.metrics.hedges_backup_won for r in reports) / hedges
            if hedges else 0.0),
        "serving.defense.duplicate_work_ratio": (
            sum(r.metrics.hedge_wasted_s for r in reports) / busy
            if busy else 0.0),
        "serving.defense.breaker_transitions": sum(
            r.breaker_transitions for r in reports) / per,
        "serving.engine.self_ms": layer_ms(tracer, ["simnet.events.run"],
                                           per),
        "resilience.detect.calls": layer_calls(tracer, detect, per),
        "resilience.detect.ms": layer_ms(tracer, LAYERS["resilience.detect"],
                                         per),
        "resilience.retry.refused": sum(r.retry_budget_refused
                                        for r in reports) / per,
        "simnet.events.events": events / per,
        "simnet.events.us_per_event": layer_ms(
            tracer, ["simnet.events.run"], events, inclusive=True) * 1e3,
        "trace.overhead_ratio": sum(cycle.walls) / sum(plain.walls),
        "trace.unattributed_ratio": unattributed_ratio(
            tracer, "bench.op", ["simnet.events.run"]),
    }
    res.threads = thread_lines(tracer, LAYERS)
    tracer.write(out_dir / f"spans_serve_chaos_{seed}.jsonl")
    return res, m


RUNNERS = {"serve_chaos": run}
TRACERS = {"serve_chaos": trace}
