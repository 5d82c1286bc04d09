"""What every workload shares: the result record, statistics, the wall
cap and the per-layer arithmetic on a :class:`~spans.Tracer`."""

from __future__ import annotations

import math
import resource
import signal
import statistics
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

#: Set-up runs this many times before the timed loop and as many times
#: again after it; ``setup_s`` takes the fastest.  The shared host slows a
#: run by up to half for seconds at a time, and reps on both sides of the
#: loop keep a slow spell at one end from setting the figure.
SETUP_REPS = 3
#: Repeated-input workloads run every input at least this many times, so
#: every run also checks that a replay reproduces the first output.
MIN_CYCLES = 2
#: A workload that has not finished after this many wall seconds is cut
#: and reported as failed, well inside the 180 s a run may take.
WALL_CAP_S = 150.0
#: Join timeout handed to ``run_spmd`` (its default is 300 s).
SPMD_TIMEOUT_S = 60.0



class WallCapExceeded(RuntimeError):
    """Raised in the main thread when a workload runs past its cap."""


@dataclass
class Result:
    """One workload run: operations, failures and every reported number."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: BENCHMARK.json's end_to_end metrics: name -> (value, unit).
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Every end-to-end metric the workload defines, for the report.
    report: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Per-thread attribution lines of a traced run.
    threads: list[str] = field(default_factory=list)

    def fail(self, n: int, why: str) -> None:
        """Count ``n`` failed operations, keeping the reason."""
        self.failed += n
        self.errors.append(why)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors


def median(values) -> float:
    return float(statistics.median(values))


def quantile(values, q: float) -> float:
    """Nearest-rank ``q`` quantile (0 < q < 1) of a non-empty sample."""
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1,
                             max(0, math.ceil(q * len(ordered)) - 1))])


def peak_rss_mb() -> float:
    """Peak resident set of this process; one workload runs per process,
    so no other workload's peak is included."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(build: Callable[[], object]):
    """Run ``build`` ``SETUP_REPS`` times; returns (last product, each
    rep's seconds)."""
    times, product = [], None
    for _ in range(SETUP_REPS):
        product = None  # let the previous product go before rebuilding
        t0 = time.perf_counter()
        product = build()
        times.append(time.perf_counter() - t0)
    return product, times


@contextmanager
def wall_cap():
    """Interrupt the main thread with :class:`WallCapExceeded` once
    ``WALL_CAP_S`` seconds have passed."""
    def _expired(signum, frame):
        raise WallCapExceeded(
            f"workload exceeded its {WALL_CAP_S:g} s wall cap")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, WALL_CAP_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def describe(exc: BaseException) -> str:
    """One-paragraph exception text for the report."""
    lines = traceback.format_exception_only(type(exc), exc)
    return "".join(lines).strip()[:2000]


class Cycle:
    """Repeated operations over a fixed set of inputs.

    Keeps each operation's wall time and items, each input's first output
    and that output's digest; a later run of the same input whose digest
    differs is a failed replay.
    """

    def __init__(self, res: Result, tracer=None) -> None:
        self.res = res
        self.tracer = tracer
        self.walls: list[float] = []
        self.op_items: list[int] = []
        self.items: dict[int, int] = {}
        self.outputs: dict[int, object] = {}
        self.digests: dict[int, str] = {}

    def run(self, i: int, call: Callable[[], object], attempted: int,
            label: str, op_id=None):
        """Time ``call()`` as one operation on input ``i``; returns its
        output, or None when it raised (counted as ``attempted`` failed)."""
        self.res.attempted += attempted
        tracer = self.tracer
        try:
            if tracer is not None:
                tracer.set_op(op_id)
                with tracer.span("bench.op"):
                    t0 = time.perf_counter()
                    out = call()
            else:
                t0 = time.perf_counter()
                out = call()
            wall = time.perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 - reported, not hidden
            self.res.fail(attempted, f"{label}: {describe(exc)}")
            return None
        self.walls.append(wall)
        return out

    def keep(self, i: int, out, items: int, digest: str, attempted: int,
             label: str) -> None:
        """Record input ``i``'s output; fail a replay that differs."""
        self.op_items.append(items)
        self.outputs.setdefault(i, out)
        self.items.setdefault(i, items)
        if digest != self.digests.setdefault(i, digest):
            self.res.fail(attempted, f"{label}: output differs on replay")

    def items_per_s(self) -> float:
        """Items per second over every timed operation."""
        wall = sum(self.walls)
        return sum(self.op_items) / wall if wall else 0.0


def layer_ms(tracer, names, per: float, thread=None, inclusive=False) -> float:
    """Summed self (or inclusive) ms of spans ``names`` divided by ``per``."""
    total = 0.0
    for name in names:
        calls, incl, self_s = tracer.totals(name, thread)
        total += incl if inclusive else self_s
    return total * 1e3 / per if per else 0.0


def layer_calls(tracer, names, per: float, thread=None) -> float:
    return (sum(tracer.totals(n, thread)[0] for n in names) / per
            if per else 0.0)


def unattributed_ratio(tracer, top: str, loop_names=()) -> float:
    """Share of the ``top`` spans' wall time that no layer span covers:
    their own self time plus the self time of event-loop spans
    ``loop_names`` (whose unwrapped handlers no layer claims)."""
    _, wall, self_s = tracer.totals(top)
    gap = self_s + sum(tracer.totals(n)[2] for n in loop_names)
    return gap / wall if wall else 0.0


def thread_lines(tracer, names_by_layer: dict[str, list[str]]) -> list[str]:
    """Per-thread self-time attribution, one line per thread."""
    lines = []
    for thread in tracer.threads():
        parts = []
        for layer, names in names_by_layer.items():
            ms = layer_ms(tracer, names, 1.0, thread=thread)
            if ms > 0:
                parts.append(f"{layer}={ms:.1f}ms")
        lines.append(f"{thread}: " + " ".join(parts))
    return lines
