"""Bit-identity pins for the hot-path optimizations.

Each optimization in this PR family (inlined DES run loop, trusted
envelope fast path, pooled gradient-fusion buffers) is required to be
*behavior-preserving to the bit*.  These tests pin that property by
running the optimized path against an unoptimized reference built from
the still-exported primitives (``Simulator.step``, ``checksum_payload``,
``_flatten_grads``), so any future "optimization" that changes numerics
fails here rather than drifting a digest silently.

The scheduler's memoised placement scores have no unmemoised path left to
replay, so they are pinned against schedule digests recorded before the
memo existed.
"""

import hashlib

import numpy as np
import pytest

from repro import telemetry
from repro.core import (
    CoAllocatedPhase,
    Job,
    JobPhase,
    MsaScheduler,
    PlacementPolicy,
    SchedulerPolicy,
    WorkloadClass,
    deep_system,
    small_msa_system,
    synthetic_workload_mix,
)
from repro.core import scheduler as scheduler_module
from repro.core.jobs import phase_runtime
from repro.distributed.horovod import (
    DistributedOptimizer,
    _flatten_grads,
    _unflatten_into_grads,
    broadcast_parameters,
)
from repro.ml.models import MLP
from repro.ml.optim import SGD
from repro.ml.tensor import Tensor
from repro.ml.losses import cross_entropy
from repro.mpi.comm import Communicator
from repro.mpi.runtime import run_spmd
from repro.mpi.transport import Transport
from repro.resilience.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.resilience.integrity import (
    TRUSTED_CRC,
    CorruptionInjector,
    Envelope,
    IntegrityConfig,
    IntegrityContext,
    checksum_payload,
)
from repro.simnet.events import Simulator


# ---------------------------------------------------------------------------
# DES kernel: inlined run() vs the step() reference
# ---------------------------------------------------------------------------

def _des_workload(sim: Simulator, trace: list) -> None:
    """A mix of processes, timeouts, resources and cancellations."""
    res = sim.resource(2, name="res")

    def worker(i):
        for hop in range(4):
            yield sim.timeout(0.1 * ((i * 7 + hop) % 5) + 0.01)
            grant = res.acquire()
            yield grant
            yield sim.timeout(0.05)
            res.release()
            trace.append((round(sim.now, 9), i, hop))
        return i

    procs = [sim.process(worker(i), name=f"w{i}") for i in range(8)]
    doomed = sim.timeout(0.5, name="doomed")
    doomed.cancel()
    sim.all_of([p.done for p in procs], name="all-done") \
        .add_callback(lambda evt: trace.append(("done", round(sim.now, 9))))


class TestRunLoopPinsStepSemantics:
    def test_run_matches_step_by_step_reference(self):
        fast_trace, ref_trace = [], []

        sim_fast = Simulator()
        _des_workload(sim_fast, fast_trace)
        end_fast = sim_fast.run()

        sim_ref = Simulator()
        _des_workload(sim_ref, ref_trace)
        while sim_ref.step():
            pass

        assert fast_trace == ref_trace
        assert end_fast == sim_ref.now
        assert sim_fast.events_processed == sim_ref.events_processed

    def test_run_until_matches_reference(self):
        fast_trace, ref_trace = [], []
        sim_fast = Simulator()
        _des_workload(sim_fast, fast_trace)
        sim_fast.run(until=0.3)

        sim_ref = Simulator()
        _des_workload(sim_ref, ref_trace)
        while len(sim_ref._queue) and sim_ref._queue.peek_time() <= 0.3:
            sim_ref.step()
        assert fast_trace == ref_trace
        assert sim_fast.now == 0.3


# ---------------------------------------------------------------------------
# Envelope fast path: payloads bit-identical, detection still armed
# ---------------------------------------------------------------------------

class TestTrustedEnvelopeFastPath:
    def test_fast_path_skips_checksum_but_keeps_envelope(self):
        ctx = IntegrityContext(config=IntegrityConfig())
        payload = np.arange(64.0)
        wire = ctx.outbound(payload, 0, 1)
        assert isinstance(wire, Envelope)
        assert wire.crc == TRUSTED_CRC
        assert wire.payload is payload          # zero-copy
        out, penalty = ctx.inbound(wire)
        assert out is payload and penalty == 0.0

    def test_trusted_crc_cannot_collide_with_real_checksums(self):
        assert TRUSTED_CRC < 0 <= checksum_payload(np.arange(8.0))

    def test_slow_path_still_taken_when_injector_armed(self):
        plan = FaultPlan.silent_corruption(0, message_p=1e-9)
        with telemetry.capture():
            ctx = IntegrityContext(CorruptionInjector(plan))
            wire = ctx.outbound(np.arange(8.0), 0, 1)
        assert wire.crc == checksum_payload(np.arange(8.0)) != TRUSTED_CRC

    def test_legacy_checksummed_envelope_still_verifies(self):
        ctx = IntegrityContext(config=IntegrityConfig())
        payload = np.arange(16.0)
        wire = Envelope(payload=payload, crc=checksum_payload(payload))
        out, penalty = ctx.inbound(wire)
        assert np.array_equal(out, payload) and penalty == 0.0

    def test_received_payloads_identical_with_and_without_verify(self):
        def pingpong(integrity):
            def fn(comm):
                data = np.linspace(0.0, 1.0, 257) * (comm.rank + 1)
                comm.send(data, dest=1 - comm.rank, tag=3)
                return comm.recv(source=1 - comm.rank, tag=3)

            return run_spmd(fn, 2, integrity=integrity)

        base = pingpong(None)
        trusted = pingpong(IntegrityContext(config=IntegrityConfig()))
        for b, t in zip(base, trusted):
            assert np.array_equal(b, t)
            assert b.dtype == t.dtype

    def test_fastpath_counter_moves_checksum_counter_stays(self):
        transport = Transport(2)
        ctx = IntegrityContext(config=IntegrityConfig())

        def fn(rank):
            comm = Communicator(transport, rank, integrity=ctx)
            for i in range(5):
                comm.send(np.arange(32.0), dest=1 - rank, tag=1)
                comm.recv(source=1 - rank, tag=1)

        import threading
        threads = [threading.Thread(target=fn, args=(r,)) for r in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for state in transport.states:
            assert state.envelope_fastpath == 10    # 5 sends + 5 recvs
            assert state.envelope_checksums == 0

    def test_armed_injector_corruption_still_detected(self):
        """The fast path must never swallow a real corruption."""
        plan = FaultPlan.silent_corruption(3, message_p=0.35)
        with telemetry.capture() as (_, registry):
            ctx = IntegrityContext(CorruptionInjector(plan))
            hits = 0
            for i in range(40):
                payload = np.arange(16.0) + i
                wire = ctx.outbound(payload, 0, 1)
                out, penalty = ctx.inbound(wire)
                assert np.array_equal(out, payload)   # repaired if hit
                hits += penalty > 0.0
        assert hits > 0
        from repro.resilience.integrity import corruption_totals
        injected, detected = corruption_totals(registry)
        assert injected == detected == hits


# ---------------------------------------------------------------------------
# Pooled gradient fusion: bitwise-identical to the concatenate reference
# ---------------------------------------------------------------------------

def _grads_model(seed):
    model = MLP([6, 13, 3], seed=seed)
    rng = np.random.default_rng(seed + 1)
    for p in model.parameters():
        p.grad = rng.normal(size=p.data.shape)
    return model


class TestPooledFusionBuffers:
    def test_fused_buffer_matches_concatenate_reference(self):
        model = _grads_model(0)
        opt = DistributedOptimizer(
            SGD(model.parameters(), lr=0.1),
            Communicator(Transport(1), 0))
        reference = _flatten_grads(opt.params)
        fused_1 = opt._fuse_grads()
        assert fused_1.dtype == reference.dtype
        assert np.array_equal(
            fused_1.view(np.uint64), reference.view(np.uint64))
        # Refill with new grads: same buffer object, still exact.
        rng = np.random.default_rng(9)
        for p in opt.params:
            p.grad = rng.normal(size=p.data.shape)
        fused_2 = opt._fuse_grads()
        assert fused_2 is fused_1
        assert np.array_equal(
            fused_2.view(np.uint64),
            _flatten_grads(opt.params).view(np.uint64))
        assert (opt.fusion_allocs, opt.fusion_reuses) == (1, 1)

    def test_missing_grads_fuse_as_zeros(self):
        model = _grads_model(0)
        opt = DistributedOptimizer(
            SGD(model.parameters(), lr=0.1),
            Communicator(Transport(1), 0))
        opt.params[1].grad = None
        assert np.array_equal(opt._fuse_grads(), _flatten_grads(opt.params))

    def test_scatter_matches_unflatten_reference(self):
        model = _grads_model(2)
        opt = DistributedOptimizer(
            SGD(model.parameters(), lr=0.1),
            Communicator(Transport(1), 0))
        buf = np.arange(float(sum(p.size for p in opt.params)))
        opt._scatter_grads(buf)
        pooled = [p.grad.copy() for p in opt.params]
        _unflatten_into_grads(opt.params, buf)
        for got, ref in zip(pooled, (p.grad for p in opt.params)):
            assert got.dtype == ref.dtype
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    def test_training_bitwise_identical_to_unpooled_reference(self):
        """Full data-parallel runs: optimized synchronize vs a reference
        replicating the pre-pooling implementation, compared to the bit."""
        rng = np.random.default_rng(5)
        X = rng.normal(size=(64, 10))
        Y = rng.integers(0, 3, size=64)

        def train(comm, reference: bool):
            model = MLP([10, 17, 3], seed=7)
            broadcast_parameters(model, comm)
            opt = DistributedOptimizer(SGD(model.parameters(), lr=0.05),
                                       comm)
            losses = []
            for step in range(6):
                shard = np.arange(step % 2, len(X), comm.size * 2)
                shard = (shard + comm.rank * 2) % len(X)
                loss = cross_entropy(model(Tensor(X[shard])), Y[shard])
                opt.zero_grad()
                loss.backward()
                if reference:
                    # The pre-pooling synchronize, reproduced verbatim.
                    from repro.mpi import collectives
                    fused = _flatten_grads(opt.params)
                    wire = fused.copy()
                    collectives.ring_allreduce_inplace(
                        comm, wire, comm._next_coll_tag())
                    reduced = wire / comm.size
                    _unflatten_into_grads(opt.params, reduced)
                    opt.optimizer.step()
                else:
                    opt.step()
                losses.append(loss.item())
            return losses, {k: v.copy()
                            for k, v in model.state_dict().items()}

        pooled = run_spmd(lambda c: train(c, reference=False), 2)
        ref = run_spmd(lambda c: train(c, reference=True), 2)
        for (pl, pw), (rl, rw) in zip(pooled, ref):
            assert pl == rl                     # loss trajectory, exact
            assert set(pw) == set(rw)
            for key in pw:
                assert np.array_equal(pw[key].view(np.uint64),
                                      rw[key].view(np.uint64)), key

    def test_average_divide_in_place_matches_fresh_divide(self):
        arr = np.linspace(-3.0, 3.0, 97)
        expect = arr / 4
        got = arr.copy()
        np.divide(got, 4, out=got)
        assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))


# ---------------------------------------------------------------------------
# Lazy tensor engine: ENGINE=lazy replays ENGINE=eager to the bit
# ---------------------------------------------------------------------------

def _bits(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr).view(np.uint64)


def _assert_state_bitwise_equal(a: dict, b: dict) -> None:
    assert set(a) == set(b)
    for key in a:
        assert np.array_equal(_bits(a[key]), _bits(b[key])), key


class TestLazyEngineReplayPins:
    """Fusion elides buffers, never reassociates math: every workload
    below must produce bitwise-identical outputs under both engines."""

    def _run_both(self, workload):
        from repro.ml import engine
        with engine.engine("eager"):
            eager = workload()
        with engine.engine("lazy"):
            lazy = workload()
        return eager, lazy

    def test_mlp_training_loop_bitwise_identical(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(48, 12))
        Y = rng.integers(0, 3, size=48)

        def train():
            model = MLP([12, 19, 3], seed=4)
            opt = SGD(model.parameters(), lr=0.05)
            losses = []
            for step in range(6):
                lo = (step * 16) % 48
                loss = cross_entropy(model(Tensor(X[lo:lo + 16])),
                                     Y[lo:lo + 16])
                opt.zero_grad()
                loss.backward()
                opt.step()
                losses.append(loss.item())
            return losses, {k: v.copy()
                            for k, v in model.state_dict().items()}

        (el, ew), (ll, lw) = self._run_both(train)
        assert el == ll
        _assert_state_bitwise_equal(ew, lw)

    def test_gru_forward_bitwise_identical(self):
        from repro.ml.models import GruForecaster

        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 10, 6))

        def forward():
            model = GruForecaster(n_features=6, hidden=8, seed=2)
            model.eval()
            return model(Tensor(x)).numpy().copy()

        eager, lazy = self._run_both(forward)
        assert np.array_equal(_bits(eager), _bits(lazy))

    def test_conv_model_forward_bitwise_identical(self):
        from repro.ml.models import resnet_small

        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 3, 8, 8))

        def forward():
            model = resnet_small(in_channels=3, n_classes=4, seed=5)
            model.eval()
            return model(Tensor(x)).numpy().copy()

        eager, lazy = self._run_both(forward)
        assert np.array_equal(_bits(eager), _bits(lazy))

    def test_devices_agree_to_the_bit(self):
        from repro.ml import engine

        rng = np.random.default_rng(17)
        xs = rng.normal(size=(32, 32))

        def chain():
            x = Tensor(xs)
            return ((x * 3.0 + 0.5).tanh().sigmoid()
                    + (x @ x).relu()).sum(axis=0).numpy().copy()

        with engine.engine("lazy"):
            with engine.use_device("cpu"):
                on_cpu = chain()
            with engine.use_device("sim-gpu"):
                on_a100 = chain()
            with engine.use_device("sim-gpu:v100"):
                on_v100 = chain()
        assert np.array_equal(_bits(on_cpu), _bits(on_a100))
        assert np.array_equal(_bits(on_cpu), _bits(on_v100))

    def test_out_buffer_reuse_matches_fresh_allocation(self):
        """ufunc(..., out=dying_temp) is the only trick the fused
        executor plays; pin that it cannot perturb values."""
        rng = np.random.default_rng(23)
        x = rng.normal(size=(257,))
        fresh = np.exp(np.tanh(x * 2.0 + 1.0))
        reused = np.multiply(x, 2.0)
        np.add(reused, 1.0, out=reused)
        np.tanh(reused, out=reused)
        np.exp(reused, out=reused)
        assert np.array_equal(_bits(fresh), _bits(reused))


# ---------------------------------------------------------------------------
# Scheduler: memoised placement scores vs golden schedules
# ---------------------------------------------------------------------------

def _coalloc_job(name: str, arrival: float) -> Job:
    return Job(name=name, arrival_time=arrival, user="insitu", phases=[
        JobPhase(name="prep", workload=WorkloadClass.SIMULATION_LOWSCALE,
                 work_flops=2e14, nodes=4, io_bytes=50e9),
        CoAllocatedPhase(name="solve+analyse", coupling_bytes=50e9,
                         components=(
            JobPhase(name="solver",
                     workload=WorkloadClass.SIMULATION_HIGHSCALE,
                     work_flops=1e17, nodes=24, uses_gpu=True,
                     parallel_fraction=0.99),
            JobPhase(name="analytics",
                     workload=WorkloadClass.DATA_ANALYTICS,
                     work_flops=1e14, nodes=4,
                     memory_GB_per_node=400.0),
        )),
    ])


def _golden_schedule(queue, placement, seed: int, coalloc: bool = False,
                     n_jobs: int = 60):
    """One faulted backlog on ``deep_system()``: its report and digest.

    The digest covers every allocation, wait time, terminal job status and
    the busy/idle energy split — everything a placement decision moves.
    """
    jobs = synthetic_workload_mix(n_jobs=n_jobs, seed=seed,
                                  mean_interarrival_s=60.0)
    for job in jobs:  # one community per Fig. 2 class, for fair-share
        job.user = job.name.rsplit("-", 1)[0]
    if coalloc:
        jobs += [_coalloc_job(f"insitu-{i}", jobs[i].arrival_time)
                 for i in range(0, n_jobs, 10)]
        jobs.sort(key=lambda j: j.arrival_time)
    system = deep_system()
    targets = {key: m.n_nodes for key, m in system.compute_modules().items()}
    plan = FaultPlan.random(seed, targets, horizon_s=jobs[-1].arrival_time,
                            n_crashes=4, n_stragglers=4, n_degrades=3,
                            repair_s=600.0)
    sched = MsaScheduler(system, queue_policy=queue, placement=placement,
                         fault_injector=FaultInjector(plan))
    sched.submit_all(jobs)
    report = sched.run()
    h = hashlib.blake2b(digest_size=8)
    for a in report.allocations:
        h.update(repr((a.job_name, a.phase_index, a.phase_name, a.module_key,
                       a.nodes, a.start, a.end)).encode())
    h.update(repr(sorted(report.wait_times.items())).encode())
    h.update(repr(sorted((k, v.value)
                         for k, v in report.job_status.items())).encode())
    h.update(repr((report.energy_busy_joules,
                   report.energy_idle_joules)).encode())
    return report, h.hexdigest()


class TestSchedulerScoreMemo:
    """Placement scores are memoised per queued phase; these pins hold the
    schedules the unmemoised scorer produced, byte for byte."""

    #: blake2b digests of ``_golden_schedule``, recorded with the scheduler
    #: that re-scored every queued phase on every event.
    GOLDEN = {
        ("FCFS", "MATCHMAKING", 1): "65e90e51b3f21413",
        ("FCFS", "MATCHMAKING", 2): "c72382ea68859a9e",
        ("FCFS", "FIRST_FIT", 1): "0889aea248ae50b6",
        ("FCFS", "FIRST_FIT", 2): "885e8bf964f8e521",
        ("FCFS_BACKFILL", "MATCHMAKING", 1): "462f4397ff9ae64d",
        ("FCFS_BACKFILL", "MATCHMAKING", 2): "bc35df637fd5af2c",
        ("FCFS_BACKFILL", "FIRST_FIT", 1): "df3d86eb8f7b28f1",
        ("FCFS_BACKFILL", "FIRST_FIT", 2): "aece20eed21a51d3",
        ("FAIR_SHARE", "MATCHMAKING", 1): "3511b97600867811",
        ("FAIR_SHARE", "MATCHMAKING", 2): "7352e4af17078230",
        ("FAIR_SHARE", "FIRST_FIT", 1): "7195ab7a17503f32",
        ("FAIR_SHARE", "FIRST_FIT", 2): "a9cc11dce2c4700b",
    }
    GOLDEN_COALLOC = {
        "FCFS": "a3b0e9cb8d511451",
        "FCFS_BACKFILL": "ca7dcc79bf89b683",
        "FAIR_SHARE": "eaf28f142ccccf6f",
    }

    @pytest.mark.parametrize("queue,placement,seed", sorted(GOLDEN))
    def test_golden_schedule(self, queue, placement, seed):
        report, digest = _golden_schedule(SchedulerPolicy[queue],
                                          PlacementPolicy[placement], seed)
        assert report.resilience.failures  # faults really hit running phases
        assert digest == self.GOLDEN[queue, placement, seed]

    @pytest.mark.parametrize("queue", sorted(GOLDEN_COALLOC))
    def test_golden_coallocated_schedule(self, queue):
        report, digest = _golden_schedule(SchedulerPolicy[queue],
                                          PlacementPolicy.MATCHMAKING, 3,
                                          coalloc=True)
        assert any("/" in a.phase_name for a in report.allocations)
        assert digest == self.GOLDEN_COALLOC[queue]

    @pytest.mark.parametrize("degrade_at,duration,factor", [
        (5000.0, 1e5, 10.0),    # degrade lands while the phase waits
        (1000.0, 3000.0, 1.0),  # phase queued under a degrade that heals
    ])
    def test_link_degrade_rescores_a_queued_phase(self, degrade_at,
                                                  duration, factor):
        """A waiting phase's transfer term follows the live degrade state:
        the placement made after the link changed uses the new factor."""
        def gpu_phase(name, flops, io_bytes=0.0):
            return JobPhase(name=name, workload=WorkloadClass.ML_TRAINING,
                            work_flops=flops, nodes=8, parallel_fraction=0.99,
                            uses_gpu=True, uses_tensor_cores=True,
                            io_bytes=io_bytes)

        system = small_msa_system(dam_nodes=0)
        train = gpu_phase("train", 1e17, io_bytes=2e12)
        prep = JobPhase(name="prep", workload=WorkloadClass.SIMULATION_LOWSCALE,
                        work_flops=1e14, nodes=2)
        plan = FaultPlan(seed=0, specs=(FaultSpec(
            kind=FaultKind.LINK_DEGRADE, time=degrade_at, module="cm",
            duration=duration, magnitude=10.0),))
        sched = MsaScheduler(system, fault_injector=FaultInjector(plan))
        # "hog" holds the whole booster until t=10700 s; "pipe" preps on the
        # CM (done at 1562.5 s) and its training phase queues for the ESB.
        sched.submit_all([Job("hog", [gpu_phase("hog", 1e18)]),
                          Job("pipe", [prep, train])])
        report = sched.run()
        placed = report.allocations[-1]
        assert (placed.job_name, placed.phase_name, placed.module_key) == (
            "pipe", "train", "esb")
        assert placed.start == 10700.0
        xfer = system.inter_module_transfer_time("cm", "esb", train.io_bytes)
        if factor != 1.0:
            xfer *= factor
        runtime = phase_runtime(train, system.module("esb"), 8,
                                io_GBps=sched._io_GBps) + xfer
        assert placed.end == placed.start + runtime

    def test_scores_each_queued_phase_once(self, monkeypatch):
        """A deep faulted backlog costs a handful of ``phase_runtime``
        evaluations per placement, not a rescan of the queue per event."""
        calls = [0]
        real = scheduler_module.phase_runtime

        def counted(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(scheduler_module, "phase_runtime", counted)
        report, _ = _golden_schedule(SchedulerPolicy.FCFS_BACKFILL,
                                     PlacementPolicy.MATCHMAKING, 1,
                                     n_jobs=100)
        assert len(report.allocations) > 100
        assert calls[0] <= 10 * len(report.allocations)
