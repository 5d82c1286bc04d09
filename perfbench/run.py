"""Wall-clock benchmark of the repro stack: four workloads, one command.

Run from the repository root::

    python3 perfbench/run.py --workload train_resnet_dp2 --seed 1 \\
        --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload
    python3 perfbench/run.py --steady 10             # steadiness report

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that wraps each layer's public
functions at runtime and reports the per-layer metrics (spans are written
to ``perfbench/out/``).  A traced run times a fixed amount of work twice,
untraced and traced, so ``--seconds`` does not apply to it.  Inputs come
from ``--seed`` only.  Every run checks the program's outputs; a failed
check, an exception or a run past its wall cap counts failed operations
and makes the exit code 1.  The last line of standard output is the JSON
result; the lines before it are the human-readable report, including
every end-to-end metric of the workload by its own name.  One workload
runs per process, so its peak memory is its own; ``--workload all`` and
``--steady`` start one child process per run.

The host a run shares can slow it by up to half, for seconds to minutes
at a time, so ``setup_s`` is a best-of estimate: the fastest import (this
run's own, and fresh interpreters that only import, one before the run
and the rest after it) plus the fastest of the set-ups made before and
after the timed loop.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# One compute thread per caller: rank threads stay the only parallelism,
# so a run keeps to the two cores it is sized for.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
#: Fresh interpreters that time the imports again: one before the run,
#: the rest after it, so they do not all meet the same slow spell.
IMPORT_PROBES = 3

#: workload -> (module, repro modules it imports before set-up starts)
WORKLOADS = {
    "train_resnet_dp2": ("workload_train", [
        "repro.datasets", "repro.distributed", "repro.ml", "repro.mpi"]),
    "train_gru_lazy": ("workload_train", [
        "repro.datasets", "repro.ml", "repro.ml.engine"]),
    "serve_chaos": ("workload_serve", [
        "repro.serving", "repro.serving.engine", "repro.resilience.chaosdrill",
        "repro.core.presets"]),
    "schedule_backlog": ("workload_schedule", [
        "repro.core.scheduler", "repro.core.jobs", "repro.core.presets",
        "repro.resilience.faults"]),
}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all",
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="timed seconds per run (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, default=0, metavar="N",
                   help="steadiness report over N seeds per workload")
    p.add_argument("--import-probe", action="store_true",
                   help="only import the workload and print the seconds")
    return p.parse_args(argv)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def import_workload(name: str):
    """Import the program and the workload's modules; returns (harness,
    workload module, seconds since this interpreter started run.py)."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    module_name, imports = WORKLOADS[name]
    import numpy  # noqa: F401
    for mod in imports:
        importlib.import_module(mod)
    harness = importlib.import_module("harness")
    workload = importlib.import_module(module_name)
    return harness, workload, time.perf_counter() - _T0


def probe_imports(name: str, n: int) -> list[float]:
    """Import seconds of ``n`` fresh interpreters that import what
    ``name`` imports and stop there."""
    times = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--import-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=60)
        try:
            times.append(float(proc.stdout.strip().splitlines()[-1]))
        except (IndexError, ValueError):
            pass  # the run's own import time still counts
    return times


def run_one(name: str, seed: int, seconds: float, trace: bool,
            spec: dict) -> int:
    """Run one workload in this process; prints the report and result."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    harness, workload, import_s = import_workload(name)
    import_times = [import_s] + ([] if trace else probe_imports(name, 1))

    layer_metrics: dict = {}
    try:
        with harness.wall_cap():
            if trace:
                res, layer_metrics = workload.TRACERS[name](seed, OUT_DIR)
            else:
                res = workload.RUNNERS[name](seed, seconds)
    except Exception as exc:  # noqa: BLE001 - reported as a failed run
        res = harness.Result(attempted=1)
        res.fail(1, harness.describe(exc))

    if not trace and "setup_s" in res.metrics:
        # Like set-up, imports are timed more than once and the fastest
        # counts.
        import_s = min(import_times
                       + probe_imports(name, IMPORT_PROBES - 1))
        setup_s, unit = res.metrics["setup_s"]
        res.metrics["setup_s"] = (import_s + setup_s, unit)
        res.report["import_s"] = (import_s, "s")

    if trace:
        wanted = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        values = {k: (v, None) for k, v in layer_metrics.items()}
    else:
        res.metrics.setdefault("peak_rss_mb", (harness.peak_rss_mb(), "MB"))
        wanted = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        values = res.metrics
    attempted = max(res.attempted, 1)
    failed = min(res.failed, attempted)

    print(f"workload {name}  seed {seed}  "
          + ("traced" if trace else f"seconds {seconds:g}"))
    if not trace:
        report = dict(res.report)
        report.update((k, v) for k, v in res.metrics.items()
                      if k in ("setup_s", "peak_rss_mb"))
        report["failed_ratio"] = (failed / attempted, "ratio")
        for key, (value, unit) in report.items():
            print(f"  {key:<34} {_fmt(value):>14} {unit}")
        print("report: " + json.dumps(
            {k: v for k, (v, _) in report.items()}, sort_keys=True))
    for line in res.threads:
        print(f"  thread {line}")
    for err in res.errors:
        print(f"  FAILED: {err}")
    metrics = {}
    for key, unit in wanted:
        value = float(values.get(key, (0.0, unit))[0])
        metrics[key] = {"value": value, "unit": unit}
        if trace:
            print(f"  {key:<40} {_fmt(value):>14} {unit}")
    print(json.dumps({"correct": res.correct,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if res.correct else 1


def run_child(name: str, seed: int, seconds: float, trace: int):
    """Run one workload in a child process; returns (exit code, stdout)."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    return proc.returncode, proc.stdout + proc.stderr


def last_json(output: str) -> dict:
    for line in reversed(output.strip().splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    return {}


def run_all(seed: int, seconds: float, trace: int) -> int:
    worst, results = 0, {}
    for name in WORKLOADS:
        code, out = run_child(name, seed, seconds, trace)
        print("\n".join(line for line in out.strip().splitlines()
                        if not line.startswith("{")))
        worst = max(worst, code)
        results[name] = last_json(out)
    print(json.dumps({
        "correct": worst == 0 and all(r.get("correct") for r in
                                      results.values()),
        "attempted": sum(r.get("attempted", 0) for r in results.values()),
        "failed": sum(r.get("failed", 0) for r in results.values()),
        "metrics": {f"{name}.{key}": value for name, r in results.items()
                    for key, value in r.get("metrics", {}).items()},
    }))
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None \
        else float(spec["run_seconds"])
    if args.import_probe:
        if args.workload == "all":
            print("error: --import-probe needs one workload", file=sys.stderr)
            return 2
        print(import_workload(args.workload)[2])
        return 0
    if args.steady:
        sys.path.insert(0, str(HERE))
        import steady
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        return steady.report(names, args.steady, args.seed, seconds, spec,
                             run_child)
    if args.workload == "all":
        return run_all(args.seed, seconds, args.trace)
    return run_one(args.workload, args.seed, seconds, bool(args.trace), spec)


if __name__ == "__main__":
    sys.exit(main())
