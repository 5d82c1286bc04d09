"""Tests for the extension features beyond the paper's headline systems:

* GRU-D (Che et al., the paper's ref [39]) — decay-based missingness,
* NAM checkpoint/restart (the NAM's origin, ref [12]),
* PFS failure injection (degraded OSTs),
* ZeRO stage 2 (gradient sharding),
* non-blocking receives and ring reduce-scatter in the MPI layer,
* annealer chain-break noise,
* scheduler patience-factor ablation knob.
"""

import numpy as np
import pytest

from repro.datasets import IcuCohort, IcuConfig
from repro.datasets.icu import make_masked_imputation_windows
from repro.distributed import ZeroStage1Optimizer, ZeroStage2Optimizer, broadcast_parameters
from repro.ml import Adam, ArrayDataset, DistributedDataLoader, Tensor, cross_entropy, mae, train_test_split
from repro.ml.metrics import mae_score
from repro.ml.models import GruD, GruDCell, MLP, make_grud_inputs
from repro.mpi import run_spmd
from repro.storage import NetworkAttachedMemory, ParallelFileSystem
from repro.storage.checkpoint import CheckpointError, CheckpointManager, state_nbytes

GiB = 1024 ** 3


# ---------------------------------------------------------------------------
# GRU-D
# ---------------------------------------------------------------------------

class TestGruD:
    def test_grud_inputs_delta_semantics(self):
        values = np.zeros((1, 5, 1))
        mask = np.array([[[1], [0], [0], [1], [0]]], dtype=float)
        _, _, delta = make_grud_inputs(values, mask)
        # delta: time since last observation (0 at t=0, grows while missing).
        np.testing.assert_array_equal(delta[0, :, 0], [0, 1, 2, 3, 1])

    def test_grud_inputs_validation(self):
        with pytest.raises(ValueError):
            make_grud_inputs(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            make_grud_inputs(np.zeros((2, 3, 1)), np.zeros((2, 3, 2)))

    def test_cell_shapes_and_carry(self):
        cell = GruDCell(3, 4, channel_means=np.zeros(3))
        x = Tensor(np.ones((2, 3)))
        m = Tensor(np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]]))
        d = Tensor(np.ones((2, 3)))
        h0 = Tensor(np.zeros((2, 4)))
        x_last = Tensor(np.full((2, 3), 5.0))
        h, x_last_new = cell(x, m, d, h0, x_last)
        assert h.shape == (2, 4)
        # Observed channels update the carry; unobserved keep the old value.
        assert x_last_new.data[0, 0] == 1.0
        assert x_last_new.data[0, 1] == 5.0

    def test_cell_validates_means(self):
        with pytest.raises(ValueError):
            GruDCell(3, 4, channel_means=np.zeros(2))

    def test_decay_pulls_missing_inputs_toward_mean(self):
        """The homeostasis prior: with everything missing and large δ, the
        imputed input approaches the channel mean."""
        means = np.array([7.0])
        cell = GruDCell(1, 2, channel_means=means)
        # Make the decay fast: w_gamma_x large.
        cell.w_gamma_x.data[:] = 5.0
        x = Tensor(np.zeros((1, 1)))
        m = Tensor(np.zeros((1, 1)))            # unobserved
        x_last = Tensor(np.array([[100.0]]))
        gamma = np.exp(-max(0.0, 5.0 * 10.0))   # δ = 10
        x_hat_expected = gamma * 100.0 + (1 - gamma) * 7.0
        # Recompute through the cell's arithmetic by probing forward parts:
        d = Tensor(np.full((1, 1), 10.0))
        h, _ = cell(x, m, d, Tensor(np.zeros((1, 2))), x_last)
        assert np.isfinite(h.data).all()
        assert x_hat_expected == pytest.approx(7.0, abs=1e-6)

    def test_grud_trains_and_beats_baselines(self):
        records = IcuCohort(IcuConfig(n_patients=20, seed=0, min_hours=30,
                                      max_hours=50,
                                      missing_rate=0.3)).generate()
        X, M, y, _ = make_masked_imputation_windows(records, window=8,
                                                    target_channel=1)
        Xtr, Xte, Mtr, Mte, ytr, yte = train_test_split(
            X, M, y, test_fraction=0.25, seed=0)
        xg, mg, dg = make_grud_inputs(Xtr, Mtr)
        xt, mt, dt = make_grud_inputs(Xte, Mte)
        model = GruD(X.shape[2], hidden=12, seed=0)
        opt = Adam(model.parameters(), lr=5e-3)
        idx = np.arange(len(xg))
        rng = np.random.default_rng(0)
        for _ in range(6):
            rng.shuffle(idx)
            for s in range(0, len(idx), 64):
                b = idx[s:s + 64]
                loss = mae(model(Tensor(xg[b]), Tensor(mg[b]),
                                 Tensor(dg[b])), ytr[b])
                model.zero_grad()
                loss.backward()
                opt.step()
        model.eval()
        grud_mae = mae_score(model.predict(xt, mt, dt), yte)
        from repro.ml.models.gru_forecaster import mean_baseline

        baseline = mae_score(mean_baseline(Xte, 1), yte)
        assert grud_mae < baseline

    def test_grud_gradients_flow(self):
        model = GruD(2, hidden=4, seed=1)
        x = np.random.default_rng(0).normal(size=(3, 5, 2))
        m = np.ones((3, 5, 2))
        xg, mg, dg = make_grud_inputs(x, m)
        loss = mae(model(Tensor(xg), Tensor(mg), Tensor(dg)),
                   np.zeros((3, 1)))
        model.zero_grad()
        loss.backward()
        for name, p in model.named_parameters():
            assert p.grad is not None, name


# ---------------------------------------------------------------------------
# checkpoint/restart (ref [12])
# ---------------------------------------------------------------------------

class TestCheckpointing:
    def _state(self, n=1000):
        rng = np.random.default_rng(0)
        return {"w": rng.normal(size=n), "b": rng.normal(size=10)}

    def test_save_restore_roundtrip_nam(self):
        mgr = CheckpointManager(nam=NetworkAttachedMemory(capacity_GB=1))
        state = self._state()
        t_write = mgr.save("model", step=42, state=state)
        restored, step, t_read = mgr.restore("model")
        assert step == 42
        assert t_write > 0 and t_read > 0
        np.testing.assert_array_equal(restored["w"], state["w"])

    def test_save_restore_roundtrip_pfs(self):
        mgr = CheckpointManager(pfs=ParallelFileSystem("fs", n_targets=4),
                                prefer="pfs")
        state = self._state()
        mgr.save("model", step=7, state=state)
        restored, step, _ = mgr.restore("model")
        assert step == 7
        np.testing.assert_array_equal(restored["b"], state["b"])

    def test_overwrite_semantics(self):
        mgr = CheckpointManager(nam=NetworkAttachedMemory(capacity_GB=1))
        mgr.save("m", step=1, state=self._state())
        mgr.save("m", step=2, state=self._state())
        _, step, _ = mgr.restore("m")
        assert step == 2

    def test_nam_write_faster_than_pfs(self):
        """The ref [12] claim: NAM accelerates checkpointing."""
        mgr = CheckpointManager(
            nam=NetworkAttachedMemory(capacity_GB=64, write_GBps=8.0),
            pfs=ParallelFileSystem("fs", n_targets=4, target_GBps=5.0))
        comparison = mgr.path_comparison(10 * GiB, concurrent_writers=16)
        assert comparison["nam"] < comparison["pfs"]

    def test_missing_checkpoint(self):
        mgr = CheckpointManager(nam=NetworkAttachedMemory(capacity_GB=1))
        with pytest.raises(CheckpointError):
            mgr.restore("ghost")
        with pytest.raises(CheckpointError):
            mgr.drop("ghost")

    def test_drop_releases_nam_space(self):
        nam = NetworkAttachedMemory(capacity_GB=1)
        mgr = CheckpointManager(nam=nam)
        mgr.save("m", step=1, state=self._state(20000))
        used = nam.used_bytes
        assert used > 0
        mgr.drop("m")
        assert nam.used_bytes == 0
        assert not mgr.exists("m")

    def test_requires_target(self):
        with pytest.raises(ValueError):
            CheckpointManager()
        mgr = CheckpointManager(nam=NetworkAttachedMemory(capacity_GB=1))
        with pytest.raises(CheckpointError):
            mgr.save("m", step=1, state=self._state(), target="pfs")

    def test_state_nbytes(self):
        assert state_nbytes({"a": np.zeros(10)}) == 80

    def test_training_resume_equivalence(self):
        """Checkpoint mid-training, restore into a fresh model, finish:
        identical weights to the uninterrupted run."""
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 2))
        y = (X[:, 0] > 0).astype(int)

        def run_epochs(model, opt, n):
            for _ in range(n):
                loss = cross_entropy(model(Tensor(X)), y)
                model.zero_grad()
                loss.backward()
                opt.step()

        straight = MLP([2, 4, 2], seed=0)
        run_epochs(straight, Adam(straight.parameters(), lr=0.01), 6)

        half = MLP([2, 4, 2], seed=0)
        opt_half = Adam(half.parameters(), lr=0.01)
        run_epochs(half, opt_half, 3)
        mgr = CheckpointManager(nam=NetworkAttachedMemory(capacity_GB=1))
        mgr.save("mlp", step=3, state=half.state_dict())

        resumed = MLP([2, 4, 2], seed=99)
        state, step, _ = mgr.restore("mlp")
        resumed.load_state_dict(state)
        # NOTE: Adam moments are part of real checkpoints; restarting the
        # optimiser resets them, so allow a small tolerance.
        run_epochs(resumed, Adam(resumed.parameters(), lr=0.01), 3)
        for (k, a), (_, b) in zip(sorted(straight.state_dict().items()),
                                  sorted(resumed.state_dict().items())):
            np.testing.assert_allclose(a, b, atol=0.05)


# ---------------------------------------------------------------------------
# PFS failure injection
# ---------------------------------------------------------------------------

class TestPfsFailureInjection:
    def test_degraded_reads_slower(self):
        pfs = ParallelFileSystem("fs", n_targets=8)
        f = pfs.create("/data", 10 * GiB, stripe_count=8)
        healthy = pfs.read_time(f)
        pfs.fail_target(f.layout.first_target)
        degraded = pfs.read_time(f)
        assert degraded == pytest.approx(healthy * pfs.degraded_factor)

    def test_unaffected_files_keep_speed(self):
        pfs = ParallelFileSystem("fs", n_targets=8)
        narrow = pfs.create("/narrow", GiB, stripe_count=1)
        t_before = pfs.read_time(narrow)
        # Fail an OST the narrow file does not touch.
        victim = (narrow.layout.first_target + 4) % 8
        pfs.fail_target(victim)
        assert pfs.read_time(narrow) == pytest.approx(t_before)

    def test_recovery_restores_speed(self):
        pfs = ParallelFileSystem("fs", n_targets=4)
        f = pfs.create("/x", GiB, stripe_count=4)
        base = pfs.read_time(f)
        pfs.fail_target(0)
        impaired = pfs.health()
        assert not (impaired.ok and not impaired.degraded)
        pfs.recover_target(0)
        restored = pfs.health()
        assert restored.ok and not restored.degraded
        assert pfs.read_time(f) == pytest.approx(base)

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            ParallelFileSystem("fs", n_targets=4).fail_target(9)


# ---------------------------------------------------------------------------
# ZeRO stage 2
# ---------------------------------------------------------------------------

class TestZeroStage2:
    def _train(self, comm, cls):
        rng = np.random.default_rng(0)
        X = np.concatenate([rng.normal(-2, 1, (48, 2)),
                            rng.normal(2, 1, (48, 2))])
        Y = np.array([0] * 48 + [1] * 48)
        model = MLP([2, 8, 2], seed=3)
        broadcast_parameters(model, comm)
        opt = cls(model.parameters(), comm, lr=0.01)
        loader = DistributedDataLoader(ArrayDataset(X, Y), 12, comm.rank,
                                       comm.size, seed=1)
        for epoch in range(2):
            loader.set_epoch(epoch)
            for xb, yb in loader:
                loss = cross_entropy(model(Tensor(xb)), yb)
                opt.zero_grad()
                loss.backward()
                opt.step()
        return model.state_dict(), opt

    @pytest.mark.parametrize("ws", [1, 2, 4])
    def test_stage2_matches_stage1(self, ws):
        s1 = run_spmd(lambda c: self._train(c, ZeroStage1Optimizer)[0], ws)[0]
        s2 = run_spmd(lambda c: self._train(c, ZeroStage2Optimizer)[0], ws)[0]
        for key in s1:
            np.testing.assert_allclose(s1[key], s2[key], atol=1e-9)

    def test_stage2_shards_gradient_memory(self):
        def fn(comm):
            _, opt = self._train(comm, ZeroStage2Optimizer)
            return opt.grad_memory_saving_factor

        factors = run_spmd(fn, 4)
        assert min(factors) > 3.0   # ~1/4 of the fused gradient per rank

    def test_stage2_replicas_identical(self):
        states = run_spmd(lambda c: self._train(c, ZeroStage2Optimizer)[0], 4)
        for state in states[1:]:
            for key in states[0]:
                np.testing.assert_allclose(states[0][key], state[key],
                                           atol=1e-12)


# ---------------------------------------------------------------------------
# MPI additions: irecv + reduce_scatter
# ---------------------------------------------------------------------------

class TestMpiAdditions:
    def test_irecv_wait(self):
        def fn(comm):
            if comm.rank == 0:
                req = comm.irecv(source=1, tag=9)
                return req.wait()
            comm.send("payload", dest=0, tag=9)

        assert run_spmd(fn, 2)[0] == "payload"

    def test_irecv_test_polls(self):
        def fn(comm):
            if comm.rank == 0:
                req = comm.irecv(source=1, tag=2)
                done, value = req.test()
                attempts = 0
                while not done:
                    attempts += 1
                    done, value = req.test()
                return value

            comm.compute(0.0)
            comm.send(123, dest=0, tag=2)

        assert run_spmd(fn, 2)[0] == 123

    @pytest.mark.parametrize("ws", [1, 2, 4, 5])
    def test_reduce_scatter_chunks_reassemble_to_sum(self, ws):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(ws, 64))
        expected = data.sum(axis=0)

        def fn(comm):
            chunk, bounds = comm.reduce_scatter(data[comm.rank].copy())
            return bounds, chunk

        out = run_spmd(fn, ws)
        rebuilt = np.empty(64)
        covered = 0
        for (lo, hi), chunk in out:
            rebuilt[lo:hi] = chunk
            covered += hi - lo
        assert covered == 64
        np.testing.assert_allclose(rebuilt, expected, rtol=1e-12)


# ---------------------------------------------------------------------------
# annealer chain-break noise
# ---------------------------------------------------------------------------

class TestChainBreakNoise:
    def test_noise_degrades_best_energy(self):
        from repro.quantum import Qubo, SimulatedQuantumAnnealer, DWAVE_2000Q

        rng = np.random.default_rng(2)
        Q = rng.normal(size=(24, 24))   # dense: chains required
        clean = SimulatedQuantumAnnealer.for_device(DWAVE_2000Q, sweeps=60)
        noisy = SimulatedQuantumAnnealer.for_device(DWAVE_2000Q, sweeps=60)
        noisy.chain_break_prob_per_qubit = 0.08
        e_clean = clean.sample(Qubo(Q), num_reads=12, seed=0).best_energy
        e_noisy = noisy.sample(Qubo(Q), num_reads=12, seed=0).best_energy
        assert e_noisy >= e_clean

    def test_zero_noise_is_default_and_deterministic(self):
        from repro.quantum import Qubo, SimulatedQuantumAnnealer, DWAVE_2000Q

        ann = SimulatedQuantumAnnealer.for_device(DWAVE_2000Q, sweeps=40)
        assert ann.chain_break_prob_per_qubit == 0.0
        Q = np.diag([-1.0, -1.0, 2.0])
        a = ann.sample(Qubo(Q), num_reads=5, seed=1)
        b = ann.sample(Qubo(Q), num_reads=5, seed=1)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_invalid_probability(self):
        from repro.quantum import SimulatedQuantumAnnealer

        with pytest.raises(ValueError):
            SimulatedQuantumAnnealer(chain_break_prob_per_qubit=1.5)


# ---------------------------------------------------------------------------
# scheduler patience ablation knob
# ---------------------------------------------------------------------------

class TestPatienceKnob:
    def test_patience_configurable(self):
        from repro.core import MsaScheduler, deep_system

        sched = MsaScheduler(deep_system(), patience_factor=10.0)
        assert sched.PATIENCE_FACTOR == 10.0

    def test_invalid_patience(self):
        from repro.core import MsaScheduler, deep_system

        with pytest.raises(ValueError):
            MsaScheduler(deep_system(), patience_factor=0.5)

    def test_patience_tolerance_changes_placements(self):
        """The factor is a tolerance: 1.0 = refuse anything worse than the
        best module (wait for it), huge = take whatever is free now —
        measurably different schedules under contention."""
        from repro.core import (
            BoosterModule, ClusterModule, Job, JobPhase, MSASystem,
            MsaScheduler, WorkloadClass, DEEP_CM_NODE, DEEP_ESB_NODE,
        )

        def system():
            sys = MSASystem("tiny")
            sys.add_module("cm", ClusterModule("CM", DEEP_CM_NODE, 4))
            sys.add_module("esb", BoosterModule("ESB", DEEP_ESB_NODE, 2))
            return sys

        def jobs():
            return [Job(name=f"g{i}", phases=[JobPhase(
                name="train", workload=WorkloadClass.ML_TRAINING,
                work_flops=1e16, nodes=2, uses_gpu=True,
                parallel_fraction=0.99)]) for i in range(4)]

        strict = MsaScheduler(system(), patience_factor=1.0)
        strict.submit_all(jobs())
        strict_mods = {a.module_key for a in strict.run().allocations}

        eager = MsaScheduler(system(), patience_factor=1e9)
        eager.submit_all(jobs())
        eager_mods = {a.module_key for a in eager.run().allocations}

        assert strict_mods == {"esb"}
        assert "cm" in eager_mods


# ---------------------------------------------------------------------------
# scale-out inference (CM-train / ESB-infer)
# ---------------------------------------------------------------------------

class TestDistributedInference:
    def _model_and_data(self):
        rng = np.random.default_rng(0)
        X = np.concatenate([rng.normal(-2, 1, (60, 2)),
                            rng.normal(2, 1, (60, 2))])
        y = np.array([0] * 60 + [1] * 60)
        model = MLP([2, 8, 2], seed=0)
        opt = Adam(model.parameters(), lr=0.02)
        for _ in range(40):
            loss = cross_entropy(model(Tensor(X)), y)
            model.zero_grad()
            loss.backward()
            opt.step()
        return model, X, y

    def test_shard_bounds_partition(self):
        from repro.distributed import shard_bounds

        for n in (0, 1, 7, 100):
            for world in (1, 3, 8):
                spans = [shard_bounds(n, r, world) for r in range(world)]
                assert spans[0][0] == 0 and spans[-1][1] == n
                for (a_lo, a_hi), (b_lo, _) in zip(spans, spans[1:]):
                    assert a_hi == b_lo
        with pytest.raises(ValueError):
            shard_bounds(5, 3, 3)

    @pytest.mark.parametrize("ws", [1, 2, 3, 4])
    def test_distributed_predictions_match_serial(self, ws):
        from repro.distributed import distributed_predict

        model, X, y = self._model_and_data()
        serial = model.predict(X)

        def fn(comm):
            return distributed_predict(comm, model.predict, X, batch_size=16)

        for out in run_spmd(fn, ws):
            np.testing.assert_array_equal(out, serial)

    @pytest.mark.parametrize("ws", [1, 2, 4])
    def test_distributed_evaluation_exact(self, ws):
        from repro.distributed import distributed_evaluate
        from repro.ml.metrics import accuracy, confusion_matrix

        model, X, y = self._model_and_data()
        serial_acc = accuracy(model.predict(X), y)
        serial_cm = confusion_matrix(model.predict(X), y, 2)

        def fn(comm):
            return distributed_evaluate(comm, model.predict, X, y,
                                        n_classes=2, batch_size=16)

        for result in run_spmd(fn, ws):
            assert result["accuracy"] == pytest.approx(serial_acc)
            np.testing.assert_array_equal(result["confusion_matrix"],
                                          serial_cm)
            assert result["n_samples"] == len(y)

    def test_scaleout_time_model_keeps_scaling(self):
        from repro.distributed import inference_scaleout_time

        times = [inference_scaleout_time(100_000, per_sample_s=1e-4,
                                         n_ranks=p)
                 for p in (1, 8, 64)]
        assert times[0] > times[1] > times[2]
        with pytest.raises(ValueError):
            inference_scaleout_time(10, 1e-4, 0)
