"""The Dask-like delayed engine and the per-rank telemetry timeline."""

import time

import numpy as np
import pytest

from repro import telemetry
from repro.analytics import Delayed, compute, delayed
from repro.mpi import run_spmd
from repro.mpi.runtime import spmd_sim_times


# ---------------------------------------------------------------------------
# delayed task graphs
# ---------------------------------------------------------------------------

class TestDelayed:
    def test_laziness(self):
        calls = []

        @_spy_list(calls)
        def work(x):
            return x + 1

        node = delayed(work)(1)
        assert calls == []                 # nothing ran
        assert node.compute() == 2
        assert calls == [1]

    def test_chained_graph(self):
        inc = delayed(lambda x: x + 1, name="inc")
        double = delayed(lambda x: x * 2, name="double")
        out = double(inc(inc(3)))
        assert out.compute() == 10

    def test_diamond_computes_shared_node_once(self):
        calls = []

        def expensive(x):
            calls.append(x)
            return x * 10

        shared = delayed(expensive)(2)
        left = delayed(lambda v: v + 1)(shared)
        right = delayed(lambda v: v + 2)(shared)
        total = delayed(lambda a, b: a + b)(left, right)
        assert total.compute() == 43
        assert calls == [2]                 # the diamond property

    def test_kwargs_dependencies(self):
        node = delayed(lambda a, b=0: a - b)(10, b=delayed(lambda: 3)())
        assert node.compute() == 7

    def test_operator_sugar(self):
        a = delayed(lambda: 2)()
        b = delayed(lambda: 3)()
        assert (a + b).compute() == 5
        assert (a * b).compute() == 6
        assert (1 + a).compute() == 3
        assert (4 * b).compute() == 12

    def test_compute_many_shares_cache(self):
        calls = []

        def base():
            calls.append(1)
            return 5

        shared = delayed(base)()
        x = delayed(lambda v: v + 1)(shared)
        y = delayed(lambda v: v * 2)(shared)
        out = compute(x, y)
        assert out == (6, 10)
        assert len(calls) == 1

    def test_compute_passes_plain_values_through(self):
        assert compute(delayed(lambda: 1)(), 42) == (1, 42)

    def test_parallel_matches_serial(self):
        rng = np.random.default_rng(0)
        mats = [rng.normal(size=(40, 40)) for _ in range(6)]
        prods = [delayed(np.matmul)(m, m) for m in mats]
        total = delayed(lambda *xs: float(sum(x.sum() for x in xs)))(*prods)
        serial = total.compute(n_workers=1)
        parallel = total.compute(n_workers=4)
        assert serial == pytest.approx(parallel)

    def test_parallel_runs_independent_branches_concurrently(self):
        started = []

        def slow(tag):
            started.append(tag)
            time.sleep(0.05)
            return tag

        branches = [delayed(slow)(i) for i in range(4)]
        gather = delayed(lambda *xs: sum(xs))(*branches)
        t0 = time.perf_counter()
        assert gather.compute(n_workers=4) == 6
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.05 * 4          # overlap happened

    def test_parallel_error_propagates(self):
        bad = delayed(lambda: 1 / 0)()
        out = delayed(lambda v: v)(bad)
        with pytest.raises(ZeroDivisionError):
            out.compute(n_workers=2)

    def test_repr(self):
        assert "inc" in repr(delayed(lambda x: x, name="inc")(1))


def _spy_list(calls):
    def decorator(fn):
        def wrapper(*args):
            calls.append(*args)
            return fn(*args)
        return wrapper
    return decorator


# ---------------------------------------------------------------------------
# timeline
# ---------------------------------------------------------------------------

def _rank_spans(tracer, rank: int = 0, tracks=("mpi",)):
    """One rank's lane on the given tracks, in time order."""
    return [s for s in tracer.spans
            if s.track in tracks and s.lane == f"rank{rank:03d}"]


def _total(spans, category: str) -> float:
    return sum(s.duration_s for s in spans if s.category == category)


def _comm_fraction(spans) -> float:
    comm = _total(spans, "comm")
    busy = comm + _total(spans, "compute")
    return comm / busy if busy > 0 else 0.0


class TestTimeline:
    """Comm and compute spans per rank lane on the telemetry ``mpi`` track —
    the Horovod-timeline view of a distributed run."""

    def test_records_comm_and_compute(self):
        def fn(comm):
            comm.compute(0.010)
            comm.allreduce(np.ones(10_000))
            comm.compute(0.002)

        with telemetry.capture() as (tracer, _):
            run_spmd(fn, 4)
        for rank in range(4):
            spans = _rank_spans(tracer, rank)
            assert [s.category for s in spans] == \
                ["compute", "comm", "compute"]
            assert spans[1].name == "allreduce"
            assert _total(spans, "compute") == pytest.approx(0.012)
            assert _total(spans, "comm") > 0
            assert 0.0 < _comm_fraction(spans) < 1.0

    def test_events_carry_simulated_times(self):
        def fn(comm):
            comm.compute(0.5)
            comm.compute(0.25)

        with telemetry.capture() as (tracer, _):
            run_spmd(fn, 1)
        assert [(s.start_s, s.duration_s) for s in _rank_spans(tracer)] == \
            [(0.0, 0.5), (0.5, 0.25)]

    def test_chrome_trace_structure(self):
        with telemetry.capture() as (tracer, _):
            run_spmd(lambda comm: comm.compute(0.001), 2)
        events = telemetry.to_chrome_trace(tracer.spans)["traceEvents"]
        lanes = {e["tid"]: e["args"]["name"] for e in events
                 if e["name"] == "thread_name"}
        spans = [e for e in events if e["ph"] == "X"]
        assert sorted(lanes[e["tid"]] for e in spans) == \
            ["rank000", "rank001"]
        assert all(e["dur"] == pytest.approx(1000.0) for e in spans)  # µs

    def test_json_serialisable(self):
        import json

        with telemetry.capture() as (tracer, _):
            run_spmd(lambda comm: comm.compute(0.001), 1)
        payload = telemetry.chrome_trace_json(tracer.spans)
        assert json.loads(payload)["displayTimeUnit"] == "ms"

    def test_merge_orders_by_time(self):
        def fn(comm):
            comm.compute(0.001 * (comm.rank + 1))
            comm.barrier()

        with telemetry.capture() as (tracer, _):
            run_spmd(fn, 3)
        events = [e for e in telemetry.to_chrome_trace(tracer.spans)
                  ["traceEvents"] if e["ph"] == "X"]
        stamps = [e["ts"] for e in events]
        assert stamps == sorted(stamps)
        assert len(events) == 6

    def test_training_loop_timeline_shows_comm_growth(self):
        """The instrument the paper's [20]-style tuning relies on: comm
        fraction visibly grows with the worker count."""
        from repro.distributed import DistributedOptimizer, broadcast_parameters
        from repro.ml import SGD, Tensor, cross_entropy
        from repro.ml.models import MLP

        rng = np.random.default_rng(0)
        X = rng.normal(size=(32, 2))
        y = (X[:, 0] > 0).astype(int)

        def fn(comm):
            model = MLP([2, 16, 2], seed=0)
            broadcast_parameters(model, comm)
            opt = DistributedOptimizer(SGD(model.parameters(), lr=0.1), comm)
            for _ in range(3):
                comm.compute(0.005)
                loss = cross_entropy(model(Tensor(X)), y)
                opt.zero_grad()
                loss.backward()
                opt.step()

        def comm_fraction(world_size: int) -> float:
            with telemetry.capture() as (tracer, _):
                run_spmd(fn, world_size)
            # The fused gradient allreduce is one "grad-allreduce" comm
            # span on the rank's ``train`` lane (its ring steps are raw
            # point-to-point, so nothing on ``mpi`` nests inside it).
            spans = _rank_spans(tracer, tracks=("mpi", "train"))
            assert any(s.name == "grad-allreduce" for s in spans)
            return _comm_fraction(spans)

        assert comm_fraction(8) > comm_fraction(2)
