"""The two training workloads.

``train_resnet_dp2``: ``resnet_small`` on synthetic BigEarthNet patches,
Horovod ``DistributedOptimizer`` + Adam over ``run_spmd`` with two rank
threads, eager engine.  Conv forward/backward, large-array autograd and
the ring allreduce do the work.

``train_gru_lazy``: the paper's ``GruForecaster`` (2xGRU(32), dropout)
trained with MAE + L2 on ICU imputation windows, one rank, lazy engine.
Thousands of tiny ops per step make engine record/fuse/realize and
tensor dispatch the work.

Both are one caller in a closed loop: the next step starts when the last
one ended.  A run times steps until ``--seconds`` have passed and at least
``MIN_STEPS`` ran.  ``train_loss_final`` is the mean training loss of the
ten steps that end at exactly ``WARMUP + FIXED_STEPS`` steps, so it does
not depend on how many steps the time allowed.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from harness import (SETUP_REPS, SPMD_TIMEOUT_S, Result, layer_calls,
                     layer_ms, median, peak_rss_mb, quantile, thread_lines,
                     unattributed_ratio)
from spans import Tracer

WARMUP = 3
FIXED_STEPS = 100
#: At least this many timed steps, so p90 has ten samples beyond it.
MIN_STEPS = 100
#: Timed steps of each phase of a traced run.
TRACE_STEPS = {"train_resnet_dp2": 40, "train_gru_lazy": 100}

RESNET = dict(samples=512, patch=16, classes=10, batch=32, lr=3e-3)
GRU = dict(patients=30, window=8, target=1, batch=64, hidden=32,
           dropout=0.2, l2=1e-5, lr=1e-3)

_NO_SPAN = nullcontext()


@dataclass
class Plan:
    """How one training phase runs."""

    setup_reps: int               # set-ups before and again after the loop
    seconds: Optional[float]      # None: exactly ``min_steps`` steps
    min_steps: int
    tracer: Optional[Tracer] = None


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else _NO_SPAN


def _params_vector(model) -> np.ndarray:
    return np.concatenate([p.data.ravel() for p in model.parameters()])


def _forever(loader):
    epoch = 0
    while True:
        loader.set_epoch(epoch)
        yield from loader
        epoch += 1


def _step(model, opt, batches, loss_fn, tracer, step_id) -> tuple:
    """One closed-loop training step; returns (loss, wall s)."""
    if tracer is not None:
        tracer.set_op(step_id)
    t0 = time.perf_counter()
    with _span(tracer, "bench.step"):
        with _span(tracer, "ml.data.wait"):
            xb, yb = next(batches)
        with _span(tracer, "ml.forward"):
            loss = loss_fn(model, xb, yb)
        opt.zero_grad()
        with _span(tracer, "ml.backward"):
            loss.backward()
        opt.step()
        value = float(loss.item())
    return value, time.perf_counter() - t0


def _timed_steps(model, opt, batches, loss_fn, plan: Plan, control: dict,
                 rank0: bool, world: int) -> dict:
    """The measured loop.  Rank 0 decides when to stop: at the end of step
    ``k`` it publishes ``stop_after``; with two ranks that is ``k + 1``,
    because the other rank may already be inside step ``k + 1`` and can
    only leave it through the allreduce rank 0 has yet to enter."""
    losses, walls = [], []
    start = time.perf_counter()
    k = 0
    while k <= control["stop_after"]:
        loss, wall = _step(model, opt, batches, loss_fn, plan.tracer, k)
        losses.append(loss)
        walls.append(wall)
        if (rank0 and plan.seconds is not None
                and control["stop_after"] == math.inf
                and k + 1 >= plan.min_steps
                and time.perf_counter() - start >= plan.seconds):
            control["stop_after"] = k + 1 if world > 1 else k
        k += 1
    return {"losses": losses, "walls": walls,
            "loop_s": time.perf_counter() - start}


def _control(plan: Plan) -> dict:
    return {"stop_after": (math.inf if plan.seconds is not None
                           else plan.min_steps - 1)}


# ---------------------------------------------------------------------------
# train_resnet_dp2
# ---------------------------------------------------------------------------


def resnet_inputs(seed: int):
    from repro.datasets import BigEarthNetConfig, SyntheticBigEarthNet

    cfg = RESNET
    return SyntheticBigEarthNet(BigEarthNetConfig(
        n_samples=cfg["samples"], patch_size=cfg["patch"],
        n_classes=cfg["classes"], seed=seed)).generate()


def _resnet_loss(model, xb, yb):
    from repro.ml import Tensor, cross_entropy
    return cross_entropy(model(Tensor(xb)), yb)


def _resnet_setup(comm, seed: int) -> tuple:
    """Inputs, model, optimiser, batch stream and warm-up losses of one
    rank, and the set-up's wall seconds (barrier to barrier)."""
    from repro.distributed import DistributedOptimizer, broadcast_parameters
    from repro.ml import Adam, ArrayDataset, DistributedDataLoader
    from repro.ml.models import resnet_small

    cfg = RESNET
    comm.barrier()
    t0 = time.perf_counter()
    Xtr, ytr = resnet_inputs(seed)
    model = resnet_small(in_channels=12, n_classes=cfg["classes"], seed=seed)
    broadcast_parameters(model, comm)
    opt = DistributedOptimizer(Adam(model.parameters(), lr=cfg["lr"]), comm)
    batches = _forever(DistributedDataLoader(
        ArrayDataset(Xtr, ytr), batch_size=cfg["batch"] // comm.size,
        rank=comm.rank, world_size=comm.size, seed=seed))
    warm_losses = [_step(model, opt, batches, _resnet_loss, None, -1)[0]
                   for _ in range(WARMUP)]
    comm.barrier()
    return (model, opt, batches, warm_losses), time.perf_counter() - t0


def _resnet_rank(comm, seed: int, plan: Plan, control: dict) -> dict:
    from repro.ml.engine import STATS

    setup_times, built = [], None
    for _ in range(plan.setup_reps):
        built = None  # let the previous build go before rebuilding
        built, seconds = _resnet_setup(comm, seed)
        setup_times.append(seconds)
    model, opt, batches, warm_losses = built

    # Every rank has left set-up (its last barrier) and none has started
    # timing (the next one), so between the snapshots below only timed
    # steps move the engine counters the ranks share.
    stats0 = STATS.snapshot()
    tracing = plan.tracer is not None and comm.rank == 0
    if tracing:
        _install(plan.tracer)
    try:
        comm.barrier()
        sent0 = (comm.state.messages_sent, comm.state.bytes_sent)
        opt0 = (opt.bytes_communicated, opt.allreduce_calls,
                opt.fusion_allocs)
        out = _timed_steps(model, opt, batches, _resnet_loss, plan, control,
                           comm.rank == 0, comm.size)
        msgs, nbytes = comm.state.messages_sent, comm.state.bytes_sent
        comm.barrier()
    finally:
        if tracing:
            plan.tracer.restore()
    stats1 = STATS.snapshot()
    out.update(
        peak_mb=peak_rss_mb(),
        warm_losses=warm_losses,
        params=_params_vector(model),
        stats={k: stats1[k] - stats0[k] for k in stats1},
        msgs=msgs - sent0[0],
        bytes=nbytes - sent0[1],
        opt_bytes=opt.bytes_communicated - opt0[0],
        opt_calls=opt.allreduce_calls - opt0[1],
        fusion_allocs=opt.fusion_allocs - opt0[2],
    )
    model = opt = batches = built = None
    for _ in range(plan.setup_reps):
        setup_times.append(_resnet_setup(comm, seed)[1])
    out["setup_s"] = min(setup_times)
    return out


def _resnet_run(seed: int, world: int, plan: Plan) -> list[dict]:
    from repro.mpi import run_spmd

    return run_spmd(_resnet_rank, world, args=(seed, plan, _control(plan)),
                    timeout=SPMD_TIMEOUT_S)


# ---------------------------------------------------------------------------
# train_gru_lazy
# ---------------------------------------------------------------------------


def gru_inputs(seed: int):
    from repro.datasets import IcuCohort, IcuConfig, make_imputation_windows

    cfg = GRU
    records = IcuCohort(IcuConfig(n_patients=cfg["patients"], seed=seed,
                                  min_hours=30, max_hours=60)).generate()
    X, y, _ = make_imputation_windows(records, window=cfg["window"],
                                      target_channel=cfg["target"])
    return X, y


def _gru_loss(model, xb, yb):
    from repro.ml import Tensor, l2_regularisation, mae
    return (mae(model(Tensor(xb)), yb)
            + l2_regularisation(model.regularised_parameters(), GRU["l2"]))


def _gru_build(seed: int, mode: str):
    """Inputs, model, optimiser, batch stream and warm-up losses."""
    from repro.ml import Adam, ArrayDataset, DataLoader
    from repro.ml import engine as eng
    from repro.ml.models import GruForecaster

    cfg = GRU
    with eng.engine(mode):
        Xtr, ytr = gru_inputs(seed)
        model = GruForecaster(Xtr.shape[2], hidden=cfg["hidden"],
                              dropout=cfg["dropout"], seed=seed)
        opt = Adam(model.parameters(), lr=cfg["lr"])
        batches = _forever(DataLoader(ArrayDataset(Xtr, ytr),
                                      batch_size=cfg["batch"], seed=seed,
                                      drop_last=True))
        warm = [_step(model, opt, batches, _gru_loss, None, -1)[0]
                for _ in range(WARMUP)]
    return model, opt, batches, warm


def _gru_timed_build(seed: int, mode: str) -> tuple:
    t0 = time.perf_counter()
    built = _gru_build(seed, mode)
    return built, time.perf_counter() - t0


def _gru_run(seed: int, mode: str, plan: Plan) -> dict:
    from repro.ml import engine as eng

    setup_times, built = [], None
    for _ in range(plan.setup_reps):
        built = None  # let the previous build go before rebuilding
        built, seconds = _gru_timed_build(seed, mode)
        setup_times.append(seconds)
    model, opt, batches, warm = built
    if plan.tracer is not None:
        _install(plan.tracer)
    try:
        with eng.engine(mode):
            before = eng.STATS.snapshot()
            out = _timed_steps(model, opt, batches, _gru_loss, plan,
                               _control(plan), True, 1)
            after = eng.STATS.snapshot()
    finally:
        if plan.tracer is not None:
            plan.tracer.restore()
    out.update(peak_mb=peak_rss_mb(), warm_losses=warm,
               stats={k: after[k] - before[k] for k in after})
    model = opt = batches = built = None
    for _ in range(plan.setup_reps):
        setup_times.append(_gru_timed_build(seed, mode)[1])
    out["setup_s"] = min(setup_times)
    return out


def _gru_eager_replay(seed: int, steps: int) -> list[float]:
    """The same warm-up and timed steps under the eager engine."""
    from repro.ml import engine as eng

    model, opt, batches, warm = _gru_build(seed, "eager")
    with eng.engine("eager"):
        return warm + [_step(model, opt, batches, _gru_loss, None, k)[0]
                       for k in range(steps)]


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


def _report_steps(res: Result, main: dict, batch: int,
                  setup_s: float) -> None:
    walls = main["walls"]
    steps = len(walls)
    fixed = main["losses"][FIXED_STEPS - 10:FIXED_STEPS]
    res.report.update({
        "samples_per_s": (batch * steps / main["loop_s"], "1/s"),
        "step_p50_ms": (median(walls) * 1e3, "ms"),
        "step_p90_ms": (quantile(walls, 0.9) * 1e3, "ms"),
        "step_samples": (float(steps), "count"),
        "train_loss_final": (sum(fixed) / len(fixed), "loss"),
    })
    res.metrics.update({
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (main["peak_mb"], "MB"),
        "items_per_s": res.report["samples_per_s"],
    })


def _check_losses(res: Result, per_rank_losses: list[list[float]],
                  first: float) -> None:
    """Every loss finite, and the final one below the first warm-up's."""
    bad = sum(1 for step in zip(*per_rank_losses)
              if not all(math.isfinite(v) for v in step))
    if bad:
        res.fail(bad, f"{bad} steps produced a non-finite loss")
    final = per_rank_losses[0][-1]
    if not final < first:
        res.fail(1, f"training loss did not fall: {first} -> {final}")


def run_resnet(seed: int, seconds: float) -> Result:
    res = Result()
    plan = Plan(setup_reps=SETUP_REPS, seconds=seconds, min_steps=MIN_STEPS)
    ranks = _resnet_run(seed, 2, plan)
    main = ranks[0]
    steps = len(main["walls"])
    res.attempted = steps
    _check_losses(res, [r["losses"] for r in ranks], main["warm_losses"][0])
    if any(len(r["walls"]) != steps for r in ranks):
        res.fail(steps, "ranks ran different step counts")
    if not np.array_equal(ranks[0]["params"].view(np.uint64),
                          ranks[1]["params"].view(np.uint64)):
        res.fail(steps, "ranks ended with different weights")
    _report_steps(res, main, RESNET["batch"],
                  max(r["setup_s"] for r in ranks))
    return res


def run_gru(seed: int, seconds: float) -> Result:
    res = Result()
    plan = Plan(setup_reps=SETUP_REPS, seconds=seconds, min_steps=MIN_STEPS)
    main = _gru_run(seed, "lazy", plan)
    steps = len(main["walls"])
    res.attempted = steps
    _check_losses(res, [main["losses"]], main["warm_losses"][0])
    eager = _gru_eager_replay(seed, steps)
    lazy = main["warm_losses"] + main["losses"]
    mismatched = sum(1 for a, b in zip(lazy, eager)
                     if np.float64(a).view(np.uint64)
                     != np.float64(b).view(np.uint64))
    if mismatched or len(lazy) != len(eager):
        res.fail(max(mismatched, 1),
                 f"{mismatched} steps differ bitwise from the eager replay")
    _report_steps(res, main, GRU["batch"], main["setup_s"])
    return res


# ---------------------------------------------------------------------------
# traced runs
# ---------------------------------------------------------------------------

LAYERS = {
    "ml": ["ml.forward", "ml.backward"],
    "ml.functional": ["ml.functional.conv2d",
                      "ml.functional.conv2d.backward"],
    "ml.optim": ["ml.optim.step"],
    "ml.data": ["ml.data.wait"],
    "ml.engine": ["ml.engine.realize", "ml.engine.schedule",
                  "ml.engine.execute"],
    "distributed": ["distributed.sync"],
    "mpi": ["mpi.allreduce"],
}


def _install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer a training step uses."""
    from repro.distributed.horovod import DistributedOptimizer
    from repro.ml import functional
    from repro.ml.engine import cpu
    from repro.ml.optim import Adam
    from repro.mpi import collectives

    def conv2d(original):
        forward = tracer.wrap(original, "ml.functional.conv2d")

        def traced(*args, **kwargs):
            out = forward(*args, **kwargs)
            out._backward = tracer.wrap(out._backward,
                                        "ml.functional.conv2d.backward")
            return out

        return traced

    tracer.patch(functional, "conv2d", "ml.functional.conv2d", conv2d)
    tracer.patch(Adam, "step", "ml.optim.step")
    tracer.patch(DistributedOptimizer, "synchronize", "distributed.sync")
    tracer.patch(collectives, "ring_allreduce_inplace", "mpi.allreduce")
    tracer.patch(cpu.Device, "realize", "ml.engine.realize")
    tracer.patch(cpu, "schedule", "ml.engine.schedule")
    tracer.patch(cpu, "execute_kernel", "ml.engine.execute")


def _sync_wait_ms(tracer: Tracer) -> float:
    """Mean over steps and ranks of (last rank's entry into synchronize
    minus this rank's entry)."""
    entries: dict = {}
    for _, name, start, _, _, thread, op in tracer.spans:
        if name == "distributed.sync":
            entries.setdefault(op, []).append(start)
    waits = [max(v) - s for v in entries.values() if len(v) > 1 for s in v]
    return 1e3 * sum(waits) / len(waits) if waits else 0.0


def _common_layer_metrics(tracer: Tracer, per: float,
                          overhead: float) -> dict:
    return {
        "ml.forward_ms": layer_ms(tracer, ["ml.forward"], per,
                                  inclusive=True),
        "ml.backward_ms": layer_ms(tracer, ["ml.backward"], per,
                                   inclusive=True),
        "ml.optim.step_ms": layer_ms(tracer, ["ml.optim.step"], per,
                                     inclusive=True),
        "ml.data.wait_ms": layer_ms(tracer, ["ml.data.wait"], per,
                                    inclusive=True),
        "trace.overhead_ratio": overhead,
        "trace.unattributed_ratio": unattributed_ratio(tracer, "bench.step"),
    }


def trace_resnet(seed: int, out_dir) -> tuple[Result, dict]:
    from repro.ml import engine as eng

    res = Result()
    n = TRACE_STEPS["train_resnet_dp2"]
    batch = RESNET["batch"]
    plain = _resnet_run(seed, 2, Plan(1, None, n))
    single = _resnet_run(seed, 1, Plan(1, None, n))
    tracer = Tracer("bench.step")
    with eng.collect():
        ranks = _resnet_run(seed, 2, Plan(1, None, n, tracer))
    res.attempted = n
    _check_losses(res, [r["losses"] for r in ranks],
                  ranks[0]["warm_losses"][0])
    problems = tracer.check(range(n), threads=2)
    if problems:
        res.fail(n, "span nesting: " + "; ".join(problems))
    per = n * len(ranks)
    overhead = median(ranks[0]["walls"]) / median(plain[0]["walls"])
    sps = [batch * n / r[0]["loop_s"] for r in (plain, single)]
    conv = ["ml.functional.conv2d", "ml.functional.conv2d.backward"]
    m = _common_layer_metrics(tracer, per, overhead)
    sync = layer_ms(tracer, ["distributed.sync"], per, inclusive=True)
    ring = layer_ms(tracer, ["mpi.allreduce"], per, inclusive=True)
    r0 = ranks[0]
    stats = r0["stats"]
    m.update({
        "ml.eager_ops": stats["eager_ops"] / per,
        "ml.eager_alloc_mb": stats["eager_alloc_bytes"] / 2**20 / per,
        "ml.functional.conv2d_ms": layer_ms(tracer, conv, per,
                                            inclusive=True),
        "ml.functional.conv2d_calls": layer_calls(
            tracer, ["ml.functional.conv2d"], per),
        "distributed.sync_ms": sync,
        "distributed.fuse_scatter_ms": sync - ring,
        "distributed.bytes_per_step": r0["opt_bytes"] / n,
        "distributed.allreduce_calls": r0["opt_calls"] / n,
        "distributed.fusion_allocs": r0["fusion_allocs"] / n,
        "mpi.allreduce_ms": ring,
        "mpi.wait_ms": _sync_wait_ms(tracer),
        "mpi.msgs_per_step": sum(r["msgs"] for r in ranks) / per,
        "mpi.bytes_per_step": sum(r["bytes"] for r in ranks) / per,
        "mpi.scaling_eff_2v1": sps[0] / sps[1],
    })
    res.threads = thread_lines(tracer, LAYERS)
    tracer.write(out_dir / f"spans_train_resnet_dp2_{seed}.jsonl")
    return res, m


def trace_gru(seed: int, out_dir) -> tuple[Result, dict]:
    from repro.ml import engine as eng

    res = Result()
    n = TRACE_STEPS["train_gru_lazy"]
    plain = _gru_run(seed, "lazy", Plan(1, None, n))
    tracer = Tracer("bench.step")
    with eng.collect():
        main = _gru_run(seed, "lazy", Plan(1, None, n, tracer))
    res.attempted = n
    _check_losses(res, [main["losses"]], main["warm_losses"][0])
    if main["losses"] != plain["losses"]:
        res.fail(n, "traced losses differ from the untraced run")
    problems = tracer.check(range(n))
    if problems:
        res.fail(n, "span nesting: " + "; ".join(problems))
    st = main["stats"]
    overhead = median(main["walls"]) / median(plain["walls"])
    m = _common_layer_metrics(tracer, n, overhead)
    realize = layer_ms(tracer, ["ml.engine.realize"], n, inclusive=True)
    m.update({
        "ml.eager_ops": st["eager_ops"] / n,
        "ml.eager_alloc_mb": st["eager_alloc_bytes"] / 2**20 / n,
        "ml.engine.record_ms": m["ml.forward_ms"] + m["ml.backward_ms"]
        - realize,
        "ml.engine.realize_ms": realize,
        "ml.engine.schedule_ms": layer_ms(tracer, ["ml.engine.schedule"], n,
                                          inclusive=True),
        "ml.engine.execute_ms": layer_ms(tracer, ["ml.engine.execute"], n,
                                         inclusive=True),
        "ml.engine.realizes": st["realizes"] / n,
        "ml.engine.recomputes": st["recomputes"] / n,
        "ml.engine.recompute_ratio": (st["recomputes"] / st["realizes"]
                                      if st["realizes"] else 0.0),
        "ml.engine.kernels": st["kernels"] / n,
        "ml.engine.ops_per_kernel": (st["fused_ops"] / st["kernels"]
                                     if st["kernels"] else 0.0),
        "ml.engine.kernel_alloc_mb": st["kernel_alloc_bytes"] / 2**20 / n,
    })
    res.threads = thread_lines(tracer, LAYERS)
    tracer.write(out_dir / f"spans_train_gru_lazy_{seed}.jsonl")
    return res, m


RUNNERS: dict[str, Callable] = {
    "train_resnet_dp2": run_resnet,
    "train_gru_lazy": run_gru,
}
TRACERS: dict[str, Callable] = {
    "train_resnet_dp2": trace_resnet,
    "train_gru_lazy": trace_gru,
}
