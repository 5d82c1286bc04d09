"""Execute the bench registry and emit / compare ``BENCH_*.json``.

The runner is the machinery behind ``repro bench``:

* run every registered case (optionally filtered by area) at a given
  (quick, seed) point,
* fold case results into one deterministic artifact per area plus one
  wall-clock timing companion (interleaved min-of-K over the cases' wall
  candidates),
* write both families to an output directory, artifacts canonically
  serialized so same-seed runs are byte-identical,
* ``--compare``: load a committed baseline directory and fail on any
  budgeted metric regressing beyond its tolerance.

Exit-code contract (used by CI): 0 = ok, 1 = regression or budget
violation, 2 = schema/usage error.
"""

from __future__ import annotations

import pathlib
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional

from repro.bench import cases as _cases  # noqa: F401 — registers the registry
from repro.bench.registry import BenchCase, cases_for
from repro.bench.schema import (
    SCHEMA_ID,
    BenchSchemaError,
    dumps_canonical,
    env_fingerprint,
    loads_validated,
    validate_artifact,
)
from repro.bench.timing import (
    FULL_POLICY,
    QUICK_POLICY,
    TimingPolicy,
    measure_interleaved,
)

TIMING_SCHEMA_ID = "repro-bench-timing/1"

#: The committed baseline directory (repo-root relative fallback to cwd).
_REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]
DEFAULT_BASELINE_DIR = _REPO_ROOT / "benchmarks" / "baselines"


@dataclass
class AreaArtifacts:
    """One area's pair of artifacts."""

    area: str
    doc: dict                       #: deterministic BENCH_<area>.json body
    timing_doc: Optional[dict]      #: wall TIMING_<area>.json body (or None)


def run_bench(
    areas: Optional[Iterable[str]] = None,
    quick: bool = True,
    seed: int = 0,
    wall: bool = True,
    policy: Optional[TimingPolicy] = None,
    clock: Callable[[], float] = time.perf_counter,
    progress: Optional[Callable[[str], None]] = None,
) -> dict[str, AreaArtifacts]:
    """Run the registry; returns artifacts keyed by area."""
    selected = cases_for(list(areas) if areas is not None else None)
    if policy is None:
        policy = QUICK_POLICY if quick else FULL_POLICY
    env = env_fingerprint()
    mode = "quick" if quick else "full"
    by_area: dict[str, AreaArtifacts] = {}
    for case in selected:
        if progress is not None:
            progress(f"[{case.area}] {case.name} ...")
        run = case.run(quick, seed)
        arts = by_area.get(case.area)
        if arts is None:
            arts = AreaArtifacts(
                area=case.area,
                doc={"schema": SCHEMA_ID, "area": case.area, "mode": mode,
                     "seed": seed, "env": env, "cases": {}},
                timing_doc={"schema": TIMING_SCHEMA_ID, "area": case.area,
                            "mode": mode, "seed": seed, "cases": {}}
                if wall else None,
            )
            by_area[case.area] = arts
        arts.doc["cases"][case.name] = {
            "description": case.description,
            "metrics": dict(run.metrics),
            "digests": dict(run.digests),
            "budgets": {m: {"direction": b.direction,
                            "tolerance": b.tolerance}
                        for m, b in case.budgets.items()},
        }
        if wall and run.wall_candidates:
            timed = measure_interleaved(run.wall_candidates, policy=policy,
                                        clock=clock)
            arts.timing_doc["cases"][case.name] = {
                name: {
                    "best_s": r.best_s,
                    "median_s": r.median_s,
                    "mean_s": r.mean_s,
                    "per_op_s": r.scaled(run.wall_ops.get(name, 1)),
                    "rounds": len(r.samples),
                    "outliers_dropped": r.outliers_dropped,
                }
                for name, r in timed.items()
            }
    for arts in by_area.values():
        validate_artifact(arts.doc)
    return by_area


def write_artifacts(artifacts: Mapping[str, AreaArtifacts],
                    out_dir: str | pathlib.Path) -> list[pathlib.Path]:
    """Write BENCH/TIMING files; returns the paths written."""
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[pathlib.Path] = []
    for area in sorted(artifacts):
        arts = artifacts[area]
        path = out / f"BENCH_{area}.json"
        path.write_text(dumps_canonical(arts.doc))
        written.append(path)
        if arts.timing_doc is not None:
            tpath = out / f"TIMING_{area}.json"
            tpath.write_text(dumps_canonical(arts.timing_doc))
            written.append(tpath)
    return written


def load_artifact_dir(path: str | pathlib.Path) -> dict[str, dict]:
    """Load every ``BENCH_*.json`` under ``path``, validated."""
    root = pathlib.Path(path)
    if not root.is_dir():
        raise BenchSchemaError(f"baseline directory {root} does not exist")
    docs: dict[str, dict] = {}
    for file in sorted(root.glob("BENCH_*.json")):
        doc = loads_validated(file.read_text())
        docs[doc["area"]] = doc
    if not docs:
        raise BenchSchemaError(f"no BENCH_*.json artifacts under {root}")
    return docs


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Delta:
    """One compared metric."""

    area: str
    case: str
    metric: str
    baseline: float
    current: float
    direction: str
    tolerance: float

    @property
    def rel_change(self) -> float:
        if self.baseline == 0:
            return 0.0 if self.current == 0 else float("inf")
        return (self.current - self.baseline) / abs(self.baseline)

    @property
    def regressed(self) -> bool:
        change = self.rel_change
        if self.direction == "higher":      # higher is better
            return change < -self.tolerance
        return change > self.tolerance      # lower is better

    @property
    def improved(self) -> bool:
        change = self.rel_change
        if self.direction == "higher":
            return change > self.tolerance
        return change < -self.tolerance

    def describe(self) -> str:
        arrow = {"higher": "↑ better", "lower": "↓ better"}[self.direction]
        return (f"{self.area}/{self.case}/{self.metric}: "
                f"{self.baseline:g} -> {self.current:g} "
                f"({self.rel_change:+.1%}, {arrow}, "
                f"budget ±{self.tolerance:.0%})")


@dataclass
class CompareReport:
    regressions: list[Delta] = field(default_factory=list)
    improvements: list[Delta] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_text(self) -> str:
        lines = []
        if self.regressions:
            lines.append(f"REGRESSIONS ({len(self.regressions)}):")
            lines += [f"  {d.describe()}" for d in self.regressions]
        if self.improvements:
            lines.append(f"improvements ({len(self.improvements)}):")
            lines += [f"  {d.describe()}" for d in self.improvements]
        if self.notes:
            lines.append("notes:")
            lines += [f"  {n}" for n in self.notes]
        if not lines:
            lines.append("no budgeted metric moved beyond tolerance")
        return "\n".join(lines)


def compare_docs(current: Mapping[str, dict],
                 baseline: Mapping[str, dict]) -> CompareReport:
    """Diff current deterministic artifacts against a baseline set.

    Budgets attached to the *baseline* govern, so a change cannot widen
    its own tolerance; a current budget that differs is reported as a
    note and takes effect only once ``--update-baseline`` commits it.
    Metrics present on one side only and digest drift are reported as
    notes, never as failures — digests pin bit-exactness across
    same-code runs, not across code changes.
    """
    report = CompareReport()
    for area in sorted(baseline):
        if area not in current:
            report.regressions.append(Delta(
                area=area, case="-", metric="artifact-present",
                baseline=1.0, current=0.0, direction="higher",
                tolerance=0.0))
            continue
        base_cases = baseline[area]["cases"]
        cur_cases = current[area]["cases"]
        if (baseline[area].get("mode") != current[area].get("mode")
                or baseline[area].get("seed") != current[area].get("seed")):
            report.notes.append(
                f"{area}: comparing across mode/seed "
                f"({baseline[area].get('mode')}/{baseline[area].get('seed')}"
                f" vs {current[area].get('mode')}/"
                f"{current[area].get('seed')}) — deltas may be workload-"
                "size effects")
        for cname in sorted(base_cases):
            if cname not in cur_cases:
                report.notes.append(f"{area}/{cname}: case removed")
                continue
            base = base_cases[cname]
            cur = cur_cases[cname]
            budgets = base.get("budgets") or {}
            proposed = cur.get("budgets") or {}
            for metric in sorted(set(budgets) | set(proposed)):
                if budgets.get(metric) != proposed.get(metric):
                    report.notes.append(
                        f"{area}/{cname}/{metric}: budget "
                        f"{budgets.get(metric)} -> {proposed.get(metric)} "
                        "takes effect only through --update-baseline")
            for metric, budget in sorted(budgets.items()):
                if metric not in cur["metrics"]:
                    report.notes.append(
                        f"{area}/{cname}/{metric}: metric dropped")
                    continue
                delta = Delta(
                    area=area, case=cname, metric=metric,
                    baseline=float(base["metrics"][metric]),
                    current=float(cur["metrics"][metric]),
                    direction=budget["direction"],
                    tolerance=float(budget["tolerance"]))
                if delta.regressed:
                    report.regressions.append(delta)
                elif delta.improved:
                    report.improvements.append(delta)
            for dname, dval in sorted((cur.get("digests") or {}).items()):
                if (base.get("digests", {}).get(dname) not in (None, dval)):
                    report.notes.append(
                        f"{area}/{cname}/digest:{dname}: functional output "
                        "changed vs baseline (expected only when the code "
                        "change intends it)")
    return report


def compare_timing(current: Mapping[str, dict],
                   baseline: Mapping[str, dict],
                   tolerance: float = 0.5) -> CompareReport:
    """Diff wall-clock timing artifacts (best_s per candidate).

    Wall time is noisy, so the default tolerance is wide; this path is
    for local use and trend dashboards, not the deterministic CI gate.
    """
    report = CompareReport()
    for area in sorted(baseline):
        if area not in current:
            report.notes.append(f"{area}: no current timing artifact")
            continue
        for cname, base_case in sorted(baseline[area]["cases"].items()):
            cur_case = current[area]["cases"].get(cname, {})
            for cand, base_r in sorted(base_case.items()):
                if cand not in cur_case:
                    report.notes.append(
                        f"{area}/{cname}/{cand}: candidate missing")
                    continue
                delta = Delta(
                    area=area, case=cname, metric=f"{cand}.best_s",
                    baseline=float(base_r["best_s"]),
                    current=float(cur_case[cand]["best_s"]),
                    direction="lower", tolerance=tolerance)
                if delta.regressed:
                    report.regressions.append(delta)
                elif delta.improved:
                    report.improvements.append(delta)
    return report
