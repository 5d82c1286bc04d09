"""E15 — unified telemetry: tracing overhead and artifact determinism.

Two claims about the observability layer:

* **overhead** — running the canonical serving scenario with full
  telemetry capture (spans + metrics on every instrumented site) costs
  <15% wall time over the same run with the disabled defaults.  The
  disabled path is one attribute check per site, so most of the budget
  is the enabled path's span recording.
* **determinism** — two same-seed captures export byte-identical
  Chrome-trace / Prometheus / summary artifacts (the property the trace
  tests assert per-scenario; here it's the headline table).

Runs standalone too (CI smoke): ``python
benchmarks/bench_telemetry_overhead.py --quick``.
"""

import gc
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro import telemetry                              # noqa: E402
from repro.serving.engine import ServingConfig, simulate_serving  # noqa: E402
from repro.serving.request import TraceConfig            # noqa: E402
from repro.telemetry.scenarios import run_scenario     # noqa: E402

from conftest import emit_table  # noqa: E402

OVERHEAD_BUDGET = 0.15          # traced may cost at most +15% wall time


def _workload(duration_s: float):
    """One serving run — the repo's busiest instrumentation surface."""
    config = ServingConfig(
        trace=TraceConfig(rate_per_s=150.0, duration_s=duration_s,
                          samples_per_request=16, seed=0,
                          key_universe=1 << 20),
        initial_replicas=2,
    )
    return simulate_serving(config)


def _timed_pair(fn_a, fn_b, repeats: int) -> tuple[float, float]:
    """Best wall seconds of two functions over interleaved rounds.

    Interleaved (a, b, a, b, ...) so slow drift in machine load hits both
    sides equally, and minimum rather than mean/median: scheduler and
    allocator noise is strictly additive, so the fastest observation is
    the least-contaminated estimate of each side's intrinsic cost.
    """
    best_a = best_b = float("inf")
    for _ in range(repeats):
        for fn, which in ((fn_a, "a"), (fn_b, "b")):
            gc.collect()
            t0 = time.perf_counter()
            fn()
            dt = time.perf_counter() - t0
            if which == "a":
                best_a = min(best_a, dt)
            else:
                best_b = min(best_b, dt)
    return best_a, best_b


def measure_overhead(duration_s: float = 20.0, repeats: int = 7):
    def untraced():
        _workload(duration_s)

    def traced():
        with telemetry.capture():
            _workload(duration_s)

    untraced()  # warm-up both paths (imports, allocator, caches)
    traced()
    base, full = _timed_pair(untraced, traced, repeats)
    overhead = full / base - 1.0
    rows = [["telemetry off", f"{base * 1e3:.1f}", "-"],
            ["telemetry on", f"{full * 1e3:.1f}", f"{overhead * 100:+.1f}%"]]
    return base, full, overhead, rows


OVERHEAD_HEADER = ["mode", "best ms", "overhead"]
DETERMINISM_HEADER = ["artifact", "bytes", "byte-identical"]


def measure_determinism(quick: bool):
    a = run_scenario("serve", seed=0, quick=quick).files
    b = run_scenario("serve", seed=0, quick=quick).files
    rows = [[name, len(body), "yes" if body == b[name] else "NO"]
            for name, body in a.items()]
    return a == b, rows


def test_tracing_overhead(benchmark):
    # pedantic: measure_overhead already repeats and takes the best run —
    # wrapping it in calibration rounds would just multiply the wall time.
    base, full, overhead, rows = benchmark.pedantic(
        measure_overhead, rounds=1, iterations=1)
    emit_table("E15 — telemetry capture overhead (serving scenario)",
               OVERHEAD_HEADER, rows)
    benchmark.extra_info["overhead"] = overhead
    assert overhead < OVERHEAD_BUDGET


def test_artifact_determinism(benchmark):
    identical, rows = benchmark.pedantic(
        measure_determinism, args=(True,), rounds=1, iterations=1)
    emit_table("E15 — same-seed capture artifacts", DETERMINISM_HEADER, rows)
    benchmark.extra_info["identical"] = identical
    assert identical


def main(argv=None):
    from _common import export_bench_env, parse_bench_args
    ns = parse_bench_args(argv)
    export_bench_env(ns.quick, ns.seed)
    quick = ns.quick
    duration, repeats = (8.0, 5) if quick else (20.0, 7)
    base, full, overhead, rows = measure_overhead(duration, repeats)
    emit_table("E15 — telemetry capture overhead (serving scenario)",
               OVERHEAD_HEADER, rows)
    identical, det_rows = measure_determinism(quick)
    emit_table("E15 — same-seed capture artifacts", DETERMINISM_HEADER,
               det_rows)
    if overhead >= OVERHEAD_BUDGET:
        print(f"FAIL: tracing overhead {overhead * 100:.1f}% >= "
              f"{OVERHEAD_BUDGET * 100:.0f}% budget", file=sys.stderr)
        return 1
    if not identical:
        print("FAIL: same-seed artifacts differ", file=sys.stderr)
        return 1
    print(f"ok: tracing overhead {overhead * 100:+.1f}% "
          f"(budget {OVERHEAD_BUDGET * 100:.0f}%), artifacts byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
