"""Command-line front end: ``python -m repro.cli <command>``.

Commands mirror the operator tasks the examples walk through:

* ``systems`` — print the DEEP and JUWELS inventories (Table I / Sec. II-B),
* ``schedule`` — run a synthetic Fig. 2 workload mix through a system and
  print the schedule report,
* ``scaling`` — print the Fig. 3 distributed-training scaling series,
* ``submit`` — compile an ``#SBATCH``/``#PHASE`` job script and schedule it,
* ``serve`` — run an online-serving scenario (arrivals, SLO, autoscaling,
  optional fault plan) and print the serving report,
* ``trace`` — run a canonical traced scenario under the unified telemetry
  layer and write Chrome-trace / Prometheus / summary artifacts,
* ``drill`` — run a resilience drill, writing the same artifacts plus a
  report; ``drill sdc`` injects silent data corruption end-to-end and
  exits non-zero on any undetected corruption, ``drill chaos`` throws
  partitions, gray failures and a crash at the serving plane and exits
  non-zero if any admitted request is lost (both runners are
  :func:`repro.telemetry.scenarios.run_scenario`, which prints one
  ``FAIL:`` line per failure reason),
* ``bench`` — run the perf-regression harness: deterministic
  ``BENCH_<area>.json`` artifacts plus wall-clock timing companions, with
  ``--compare`` failing on budgeted-metric regressions vs the committed
  baseline,
* ``experiments`` — list every experiment and the bench that regenerates it.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

EXPERIMENTS = [
    ("E1", "Table I + Fig. 1 (MSA systems)",
     "benchmarks/bench_table1_msa_systems.py"),
    ("E2", "Fig. 2 (workload placement MSA vs homogeneous)",
     "benchmarks/bench_fig2_workload_placement.py"),
    ("E3", "Fig. 3 (distributed ResNet scaling, 96/128 GPUs)",
     "benchmarks/bench_fig3_resnet_scaling.py"),
    ("E4", "Fig. 3 M (parallel cascade SVM)",
     "benchmarks/bench_fig3_parallel_svm.py"),
    ("E5", "Fig. 3 R (Spark analytics + AE on the DAM)",
     "benchmarks/bench_fig3_spark_dam.py"),
    ("E6", "Sec. III-C (quantum SVM ensembles)",
     "benchmarks/bench_fig3_quantum_svm.py"),
    ("E7", "Sec. IV-A / Fig. 4 B (COVID-Net CXR)",
     "benchmarks/bench_fig4_covidnet.py"),
    ("E8", "Sec. IV-B / Fig. 4 A (ARDS GRU time series)",
     "benchmarks/bench_fig4_ards_gru.py"),
    ("E9", "Fig. 1 GCE (FPGA collective engine)",
     "benchmarks/bench_gce_collectives.py"),
    ("E10", "Sec. II-A NAM (dataset sharing)",
     "benchmarks/bench_nam_sharing.py"),
    ("E11", "Sec. III-B (cloud interop + economics)",
     "benchmarks/bench_cloud_interop.py"),
    ("E12", "Fig. 1 federation (cross-module jobs, co-allocation)",
     "benchmarks/bench_modular_placement.py"),
    ("E13", "Fig. 3 A ((near) real-time disaster processing)",
     "benchmarks/bench_realtime_stream.py"),
    ("E14", "online serving (SLO capacity, autoscaling, failover)",
     "benchmarks/bench_serving_slo.py"),
    ("E15", "unified telemetry traces (chrome://tracing / Perfetto)",
     "benchmarks/bench_telemetry_overhead.py"),
    ("E16", "SDC drill (silent-corruption detection, rollback, overhead)",
     "benchmarks/bench_integrity_overhead.py"),
    ("E17", "perf-regression harness (repro bench -> BENCH_*.json)",
     "src/repro/bench/"),
    ("E18", "lazy tensor engine (fused op graphs, cpu/sim-gpu backends)",
     "src/repro/ml/engine/"),
    ("E19", "chaos drill (partitions, gray failures, hedging, brownout)",
     "src/repro/resilience/chaosdrill.py"),
    ("ABL", "design-choice ablations",
     "benchmarks/bench_ablations.py"),
]


def _build_system(name: str):
    from repro.core import deep_system, juwels_system

    if name == "deep":
        return deep_system()
    if name == "juwels":
        return juwels_system()
    raise SystemExit(f"unknown system {name!r} (choose deep or juwels)")


def cmd_systems(args: argparse.Namespace) -> int:
    for name in ("deep", "juwels"):
        system = _build_system(name)
        print(system.describe())
        print(f"  totals: {system.total_nodes} nodes, "
              f"{system.total_cpu_cores:,} CPU cores, "
              f"{system.total_gpus:,} GPUs, "
              f"{system.peak_flops / 1e15:.1f} PFLOP/s peak")
        print()
    return 0


def cmd_schedule(args: argparse.Namespace) -> int:
    from repro.core import schedule_workload, synthetic_workload_mix

    system = _build_system(args.system)
    jobs = synthetic_workload_mix(n_jobs=args.jobs, seed=args.seed,
                                  mean_interarrival_s=args.interarrival)
    report = schedule_workload(system, jobs)
    print(report.summary())
    if args.placements:
        print("\nplacements:")
        for alloc in report.allocations:
            print(f"  {alloc.job_name:>20}/{alloc.phase_name:<22} -> "
                  f"{alloc.module_key:<12} x{len(alloc.nodes):<4} "
                  f"{alloc.duration:>12,.0f} s")
    return 0


def cmd_scaling(args: argparse.Namespace) -> int:
    from repro.distributed import DistributedTrainingPerfModel

    model = DistributedTrainingPerfModel()
    if args.tuned:
        model = model.with_recipe(model.recipe.tuned())
    print(f"{'GPUs':>6} {'epoch s':>9} {'speedup':>9} {'efficiency':>11}")
    for pt in model.scaling_curve(args.gpus):
        print(f"{pt.n_gpus:>6} {pt.epoch_time_s:>9.1f} {pt.speedup:>9.1f} "
              f"{pt.efficiency:>11.2f}")
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.core import schedule_workload
    from repro.core.batch import parse_job_script

    with open(args.script) as fh:
        job = parse_job_script(fh.read())
    system = _build_system(args.system)
    report = schedule_workload(system, [job])
    print(f"job {job.name!r}: completed at "
          f"{report.completion_times[job.name]:,.0f} s")
    for alloc in report.allocations:
        print(f"  {alloc.phase_name:<22} -> {alloc.module_key:<12} "
              f"x{len(alloc.nodes)} [{alloc.start:,.0f} … {alloc.end:,.0f}] s")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.resilience.faults import FaultInjector, FaultPlan
    from repro.serving import (
        AdmissionPolicy,
        ArrivalPattern,
        AutoscalerConfig,
        DefenseConfig,
        ServingConfig,
        TraceConfig,
        simulate_serving,
    )

    system = _build_system(args.system)
    config = ServingConfig(
        trace=TraceConfig(
            pattern=ArrivalPattern(args.scenario),
            rate_per_s=args.rate,
            duration_s=args.duration,
            slo_deadline_s=args.slo,
            samples_per_request=args.samples,
            seed=args.seed,
        ),
        admission=AdmissionPolicy(rate_limit_per_s=args.rate_limit,
                                  max_queue_depth=args.max_queue),
        autoscaler=AutoscalerConfig(enabled=not args.no_autoscale,
                                    min_replicas=args.replicas,
                                    max_replicas=args.max_replicas),
        initial_replicas=args.replicas,
        cache_capacity=args.cache,
        defense=DefenseConfig(enabled=args.defend),
    )
    injector = None
    if args.faults:
        targets = {key: module.n_nodes
                   for key, module in system.compute_modules().items()}
        plan = FaultPlan.parse(args.faults, targets=targets,
                               horizon_s=args.duration)
        injector = FaultInjector(plan)
    report = simulate_serving(config, system=system, fault_injector=injector)
    print(report.to_text())
    return 0 if report.meets_slo() else 1


def cmd_scenario(args: argparse.Namespace) -> int:
    import os

    from repro.telemetry.scenarios import run_scenario

    run = run_scenario(args.scenario, seed=args.seed, quick=args.quick,
                       control=args.control)
    out_dir = args.out or os.path.join(f"{args.command}s",
                                       f"{args.scenario}-seed{args.seed}")
    os.makedirs(out_dir, exist_ok=True)
    for filename, body in run.files.items():
        with open(os.path.join(out_dir, filename), "w") as fh:
            fh.write(body)
    print(run.files.get("report.txt", run.files["summary.txt"]))
    print(f"artifacts written to {out_dir}/ ({', '.join(run.files)})")
    for reason in run.failures:
        print(f"FAIL: {reason}", file=sys.stderr)
    return 0 if run.ok else 1


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.runner import (
        DEFAULT_BASELINE_DIR,
        compare_docs,
        load_artifact_dir,
        run_bench,
        write_artifacts,
    )
    from repro.bench.schema import BenchSchemaError

    areas = args.areas.split(",") if args.areas else None
    try:
        artifacts = run_bench(
            areas=areas, quick=args.quick, seed=args.seed,
            wall=not args.no_wall,
            progress=lambda msg: print(msg, file=sys.stderr))
    except (ValueError, BenchSchemaError) as exc:
        print(f"bench error: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out or "bench"
    written = write_artifacts(artifacts, out_dir)
    for path in written:
        print(f"wrote {path}")
    if args.update_baseline:
        baseline_paths = write_artifacts(
            {a: type(arts)(area=arts.area, doc=arts.doc, timing_doc=None)
             for a, arts in artifacts.items()},
            DEFAULT_BASELINE_DIR)
        for path in baseline_paths:
            print(f"updated baseline {path}")
    if args.compare is not None:
        baseline_dir = args.compare or str(DEFAULT_BASELINE_DIR)
        try:
            baseline = load_artifact_dir(baseline_dir)
        except BenchSchemaError as exc:
            print(f"bench error: {exc}", file=sys.stderr)
            return 2
        current = {a: arts.doc for a, arts in artifacts.items()}
        report = compare_docs(current, baseline)
        print(f"\ncompare vs {baseline_dir}:")
        print(report.to_text())
        if not report.ok:
            return 1
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    width = max(len(e[1]) for e in EXPERIMENTS)
    for exp_id, title, bench in EXPERIMENTS:
        print(f"{exp_id:<5} {title:<{width}}  {bench}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MSA reproduction command-line front end",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("systems", help="print DEEP and JUWELS inventories"
                   ).set_defaults(fn=cmd_systems)

    p = sub.add_parser("schedule", help="run a synthetic workload mix")
    p.add_argument("--system", default="deep", choices=("deep", "juwels"))
    p.add_argument("--jobs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--interarrival", type=float, default=300.0)
    p.add_argument("--placements", action="store_true")
    p.set_defaults(fn=cmd_schedule)

    p = sub.add_parser("scaling", help="print the Fig. 3 scaling series")
    p.add_argument("--gpus", type=int, nargs="+",
                   default=[1, 2, 4, 8, 16, 32, 64, 96, 128])
    p.add_argument("--tuned", action="store_true",
                   help="use the [20]-style tuned recipe")
    p.set_defaults(fn=cmd_scaling)

    p = sub.add_parser("submit", help="schedule an #SBATCH/#PHASE script")
    p.add_argument("script")
    p.add_argument("--system", default="deep", choices=("deep", "juwels"))
    p.set_defaults(fn=cmd_submit)

    p = sub.add_parser("serve", help="run an online-serving scenario")
    p.add_argument("--system", default="deep", choices=("deep", "juwels"))
    p.add_argument("--scenario", default="poisson",
                   choices=("poisson", "diurnal", "bursty"))
    p.add_argument("--rate", type=float, default=100.0,
                   help="mean arrival rate (req/s)")
    p.add_argument("--duration", type=float, default=60.0,
                   help="trace length (simulated s)")
    p.add_argument("--slo", type=float, default=0.5,
                   help="per-request deadline (s); exit status reports p99")
    p.add_argument("--samples", type=int, default=8,
                   help="samples (patches) per request")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replicas", type=int, default=1,
                   help="initial (and minimum) replica count")
    p.add_argument("--max-replicas", type=int, default=8)
    p.add_argument("--no-autoscale", action="store_true",
                   help="pin the pool at --replicas")
    p.add_argument("--rate-limit", type=float, default=0.0,
                   help="admission token-bucket rate (0 = off)")
    p.add_argument("--max-queue", type=int, default=0,
                   help="shed arrivals beyond this queue depth (0 = off)")
    p.add_argument("--cache", type=int, default=0,
                   help="result-cache capacity in entries (0 = off)")
    p.add_argument("--defend", action="store_true",
                   help="arm the partition/gray-failure defenses (phi "
                        "detector, circuit breakers, hedging, brownout)")
    p.add_argument("--faults", default="",
                   help="fault plan, e.g. seed=7,crash=esb:2,repair=10 or "
                        "seed=7,chaos=partition:1,gray:2,repair=5")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("trace", help="run a traced scenario, export artifacts")
    p.add_argument("scenario", choices=("train", "serve"),
                   help="train: faulted scheduler + elastic training; "
                        "serve: online serving with a crash + autoscaling")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quick", action="store_true",
                   help="smaller workload (CI smoke)")
    p.add_argument("--out", default="",
                   help="output directory (default traces/<scenario>-seed<N>)")
    p.set_defaults(fn=cmd_scenario, control=False)

    p = sub.add_parser("drill", help="run a resilience drill")
    p.add_argument("scenario", choices=("sdc", "chaos"),
                   help="sdc: end-to-end silent-data-corruption drill; "
                        "chaos: partitions + gray failures against the "
                        "serving plane (exits non-zero on any lost request)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quick", action="store_true",
                   help="smaller run (CI smoke)")
    p.add_argument("--no-verify", dest="control", action="store_true",
                   help="sdc: disable detection to demonstrate the injector "
                        "(report shows the corrupted outcome)")
    p.add_argument("--no-defend", dest="control", action="store_true",
                   help="chaos: disable the defense layer — zero loss must "
                        "still hold (it is structural, not a defense)")
    p.add_argument("--out", default="",
                   help="output directory (default drills/<scenario>-seed<N>)")
    p.set_defaults(fn=cmd_scenario)

    p = sub.add_parser("bench", help="run the perf-regression harness")
    p.add_argument("--quick", action="store_true",
                   help="small workloads + fewer timing rounds (CI smoke)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--areas", default="",
                   help="comma-separated areas (default: all registered)")
    p.add_argument("--out", default="",
                   help="output directory (default bench/)")
    p.add_argument("--no-wall", action="store_true",
                   help="skip wall-clock timing (deterministic artifacts "
                        "only; fastest, fully reproducible)")
    p.add_argument("--compare", nargs="?", const="", default=None,
                   metavar="BASELINE_DIR",
                   help="diff against a baseline directory (default "
                        "benchmarks/baselines) and exit non-zero on any "
                        "budgeted-metric regression")
    p.add_argument("--update-baseline", action="store_true",
                   help="rewrite benchmarks/baselines with this run's "
                        "deterministic artifacts")
    p.set_defaults(fn=cmd_bench)

    sub.add_parser("experiments", help="list experiments and benches"
                   ).set_defaults(fn=cmd_experiments)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Output piped into a closed reader (e.g. `| head`) — exit quietly.
        import os

        try:
            sys.stdout.close()
        except Exception:
            pass
        os._exit(0)


if __name__ == "__main__":
    sys.exit(main())
