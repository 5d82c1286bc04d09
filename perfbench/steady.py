"""Steadiness report: is one run of each workload a reliable measurement?

For every workload, runs the benchmark ``n`` times with seeds ``seed``,
``seed + 1``, ... (each in its own process) and prints, for every
end-to-end metric, the median, the quartiles and the spread (the
interquartile distance as a share of the median) next to the metric's
bound from ``BENCHMARK.json``.  A spread beyond its bound is flagged.

The simulated metrics (``sim_*``, ``train_loss_final``) depend on the seed
alone: the first seed is run once more and they must come out exactly
equal.  Every run, on every seed, must pass its output checks.  The exit
code is 0 only when nothing is flagged, no check failed and the simulated
metrics replayed exactly.
"""

from __future__ import annotations

import json
import statistics

SIMULATED = ("sim_p99_ms", "sim_slo_attainment", "sim_mean_wait_s",
             "train_loss_final")


def _parse(output: str) -> tuple[dict, dict]:
    """(result-line metrics, every report metric) of one run's output."""
    result, report = {}, {}
    for line in output.splitlines():
        if line.startswith("report: "):
            report = json.loads(line[len("report: "):])
        elif line.startswith("{"):
            result = json.loads(line)
    return result, report


def _spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def report(names, n: int, seed: int, seconds: float, spec: dict,
           run_child) -> int:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    problems = 0
    for name in names:
        runs = []
        for s in range(seed, seed + n):
            code, out = run_child(name, s, seconds, 0)
            result, rep = _parse(out)
            ok = code == 0 and result.get("correct") is True
            if not ok:
                problems += 1
                print(f"{name} seed {s}: run failed (exit {code})")
                print("\n".join(out.strip().splitlines()[-5:]))
            runs.append((result, rep))
        _, replay = _parse(run_child(name, seed, seconds, 0)[1])
        first = runs[0][1]
        drift = [k for k in SIMULATED
                 if k in first and first[k] != replay.get(k)]
        problems += bool(drift)

        print(f"\n{name}: {n} runs, seeds {seed}..{seed + n - 1}, "
              f"{seconds:g} s each")
        print(f"  {'metric':<24} {'unit':<6} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>8} {'bound':>6}")
        rows = [(k, v["unit"], [r[0]["metrics"][k]["value"] for r in runs
                                if k in r[0].get("metrics", {})])
                for k, v in runs[0][0].get("metrics", {}).items()]
        rows += [(k, "", [r[1][k] for r in runs if k in r[1]])
                 for k in sorted(first) if k not in bounds]
        for key, unit, values in rows:
            if len(values) < 2:
                continue
            med, q1, q3, spread = _spread(values)
            bound = bounds.get(key)
            flag = ""
            if bound is not None and spread > bound:
                flag = "  SPREAD>BOUND"
                problems += 1
            print(f"  {key:<24} {unit:<6} {med:>12.6g} {q1:>12.6g} "
                  f"{q3:>12.6g} {spread:>8.4f} "
                  f"{'-' if bound is None else f'{bound:g}':>6}{flag}")
            if bound is not None:
                print("    runs: " + " ".join(f"{v:.6g}" for v in values))
        print(f"  simulated metrics replay exactly on seed {seed}: "
              f"{'yes' if not drift else 'NO ' + ', '.join(drift)}")
    return 1 if problems else 0
