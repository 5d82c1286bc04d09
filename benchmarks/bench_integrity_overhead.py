"""E16 — data integrity: verification overhead and drill determinism.

Three claims about the silent-corruption layer:

* **training overhead** — running elastic data-parallel training with the
  full integrity machinery on (checksummed message envelopes on every
  hop, ABFT checksum lanes piggybacked on the gradient allreduce,
  word-sum-verified checkpoint writes) costs <10% wall time over the
  identical run with verification off.  The budget holds on
  compute-representative workloads: a training step moves ~2x batch
  FLOPs per gradient byte, so checksum arithmetic (which runs at memory
  bandwidth) amortises against the matmuls.  On pure-collective
  microbenches the simulated wire is itself just memory passes and the
  same envelopes cost 25%+ — which is why this bench times training
  steps, not bare allreduces.
* **restore overhead** — ``restore_latest_verified`` (payload word-sum +
  per-shard digest check + lineage walk) stays within 10% of a
  seed-style restore (whole-payload CRC32 + unpickle).  The word-sum
  runs ~4x faster than CRC32, so the verified path typically comes in
  *under* the baseline despite doing strictly more checking.
* **determinism** — two same-seed SDC drills render byte-identical
  report, metrics, trace and summary files (the property CI relies
  on to diff runs).

Runs standalone too (CI smoke): ``python
benchmarks/bench_integrity_overhead.py --quick``.
"""

import gc
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro import telemetry                              # noqa: E402
from repro.distributed.horovod import run_elastic_training  # noqa: E402
from repro.ml.models import MLP                          # noqa: E402
from repro.resilience.integrity import IntegrityConfig   # noqa: E402
from repro.resilience.policy import CheckpointPolicy     # noqa: E402
from repro.storage.checkpoint import CheckpointManager   # noqa: E402
from repro.storage.nam import NetworkAttachedMemory      # noqa: E402
from repro.storage.pfs import ParallelFileSystem         # noqa: E402
from repro.telemetry.scenarios import run_scenario     # noqa: E402

from conftest import emit_table  # noqa: E402

OVERHEAD_BUDGET = 0.10          # verified may cost at most +10% wall time

WORLD_SIZE = 4
BATCH_SIZE = 4096               # compute-heavy: amortises checksum cost
LAYERS = [64, 256, 256, 2]


def _training_data(seed: int = 0):
    rng = np.random.default_rng(seed)
    n = 2048
    X = np.concatenate([rng.normal(-2.0, 1.0, size=(n, LAYERS[0])),
                        rng.normal(2.0, 1.0, size=(n, LAYERS[0]))])
    Y = np.array([0] * n + [1] * n)
    return X, Y


def _train(X, Y, n_steps: int, verify: bool):
    """One fault-free elastic run; ``verify`` arms the integrity layer."""
    mgr = CheckpointManager(nam=NetworkAttachedMemory(capacity_GB=4),
                            pfs=ParallelFileSystem("pfs", n_targets=4))
    with telemetry.capture():
        return run_elastic_training(
            model_factory=lambda: MLP(LAYERS, seed=3),
            X=X, Y=Y,
            n_steps=n_steps,
            batch_size=BATCH_SIZE,
            world_size=WORLD_SIZE,
            seed=0,
            checkpoint_manager=mgr,
            checkpoint_policy=CheckpointPolicy(every_steps=3,
                                               replicate=True),
            integrity_config=IntegrityConfig() if verify else None,
        )


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


def measure_training_overhead(n_steps: int = 6, repeats: int = 5):
    X, Y = _training_data()

    def baseline():
        _train(X, Y, n_steps, verify=False)

    def verified():
        _train(X, Y, n_steps, verify=True)

    baseline()  # warm-up both paths (imports, allocator, caches)
    verified()
    base, full = _timed_pair(baseline, verified, repeats)
    overhead = full / base - 1.0
    rows = [["verification off", f"{base * 1e3:.1f}", "-"],
            ["verification on", f"{full * 1e3:.1f}",
             f"{overhead * 100:+.1f}%"]]
    return base, full, overhead, rows


def measure_restore_overhead(repeats: int = 30):
    """Verified lineage restore vs a seed-style CRC32-and-unpickle."""
    import pickle
    import zlib

    rng = np.random.default_rng(0)
    state = {f"layer{i}": rng.normal(size=(512, 256)) for i in range(8)}
    mgr = CheckpointManager(nam=NetworkAttachedMemory(capacity_GB=4),
                            pfs=ParallelFileSystem("pfs", n_targets=4))
    with telemetry.capture():
        mgr.save("bench", step=1, state=state)
        rec = mgr.versions("bench", "nam")[-1]
        policy = CheckpointPolicy(fallback=False)

        def seed_style():
            zlib.crc32(rec.payload)
            pickle.loads(rec.payload)

        def verified():
            mgr.restore_latest_verified("bench", policy)

        seed_style()
        verified()
        base, full = _timed_pair(seed_style, verified, repeats)
    overhead = full / base - 1.0
    nbytes = len(rec.payload)
    rows = [[f"crc32 + unpickle ({nbytes >> 20} MiB)", f"{base * 1e3:.2f}",
             "-"],
            ["verified lineage restore", f"{full * 1e3:.2f}",
             f"{overhead * 100:+.1f}%"]]
    return base, full, overhead, rows


OVERHEAD_HEADER = ["mode", "best ms", "overhead"]
DETERMINISM_HEADER = ["artifact", "bytes", "byte-identical"]


def measure_determinism(quick: bool = True):
    run_a = run_scenario("sdc", seed=0, quick=quick)
    b = run_scenario("sdc", seed=0, quick=quick).files
    rows = [[name, len(body), "yes" if body == b[name] else "NO"]
            for name, body in run_a.files.items()]
    return run_a.files == b and run_a.ok, rows


def test_training_overhead(benchmark):
    from conftest import bench_quick

    # pedantic: measure_* already repeats and takes the best run —
    # wrapping it in calibration rounds would just multiply the wall time.
    quick = bench_quick()
    base, full, overhead, rows = benchmark.pedantic(
        measure_training_overhead,
        args=(4, 3) if quick else (6, 5), rounds=1, iterations=1)
    # The quick workload is too small to amortise measurement noise, so
    # its budget is doubled; the calibrated full run keeps the real one.
    budget = 2 * OVERHEAD_BUDGET if quick else OVERHEAD_BUDGET
    emit_table("E16 — integrity overhead (elastic training, "
               f"world {WORLD_SIZE}, batch {BATCH_SIZE})",
               OVERHEAD_HEADER, rows)
    benchmark.extra_info["overhead"] = overhead
    assert overhead < budget


def test_restore_overhead(benchmark):
    base, full, overhead, rows = benchmark.pedantic(
        measure_restore_overhead, rounds=1, iterations=1)
    emit_table("E16 — verified restore vs seed-style restore",
               OVERHEAD_HEADER, rows)
    benchmark.extra_info["overhead"] = overhead
    assert overhead < OVERHEAD_BUDGET


def test_drill_determinism(benchmark):
    ok, rows = benchmark.pedantic(
        measure_determinism, args=(True,), rounds=1, iterations=1)
    emit_table("E16 — same-seed SDC drill artifacts", DETERMINISM_HEADER,
               rows)
    benchmark.extra_info["identical"] = ok
    assert ok


def main(argv=None):
    from _common import export_bench_env, parse_bench_args
    ns = parse_bench_args(argv)
    export_bench_env(ns.quick, ns.seed)
    quick = ns.quick
    steps, repeats = (4, 3) if quick else (6, 5)
    base, full, overhead, rows = measure_training_overhead(steps, repeats)
    emit_table("E16 — integrity overhead (elastic training, "
               f"world {WORLD_SIZE}, batch {BATCH_SIZE})",
               OVERHEAD_HEADER, rows)
    _, _, r_overhead, r_rows = measure_restore_overhead(
        repeats=10 if quick else 30)
    emit_table("E16 — verified restore vs seed-style restore",
               OVERHEAD_HEADER, r_rows)
    identical, det_rows = measure_determinism(quick=True)
    emit_table("E16 — same-seed SDC drill artifacts", DETERMINISM_HEADER,
               det_rows)
    failed = False
    if overhead >= OVERHEAD_BUDGET:
        print(f"FAIL: training integrity overhead {overhead * 100:.1f}% >= "
              f"{OVERHEAD_BUDGET * 100:.0f}% budget", file=sys.stderr)
        failed = True
    if r_overhead >= OVERHEAD_BUDGET:
        print(f"FAIL: verified-restore overhead {r_overhead * 100:.1f}% >= "
              f"{OVERHEAD_BUDGET * 100:.0f}% budget", file=sys.stderr)
        failed = True
    if not identical:
        print("FAIL: same-seed drill artifacts differ or drill not ok",
              file=sys.stderr)
        failed = True
    if failed:
        return 1
    print(f"ok: training overhead {overhead * 100:+.1f}%, restore "
          f"{r_overhead * 100:+.1f}% (budget {OVERHEAD_BUDGET * 100:.0f}%), "
          f"drill artifacts byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
