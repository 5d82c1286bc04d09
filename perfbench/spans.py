"""Outside-in span tracing for the traced benchmark run.

The traced run never edits the program: :class:`Tracer.patch` swaps a
public function or method for a wrapper at runtime and
:meth:`Tracer.restore` puts the original back.  Every wrapped call pushes
a frame on a per-thread stack, so SPMD rank threads each keep their own
nesting, and on exit

* adds its wall time to the per-thread aggregate of its name (calls,
  inclusive time, self time = inclusive minus wrapped children),
* records a span ``(id, name, start, end, parent id, thread, op id)`` while
  fewer than ``MAX_SPANS`` are held; beyond that only the aggregates grow,
  so a hot leaf called a million times cannot exhaust memory.

The op id is the step, serving run or scheduling run the benchmark set
with :meth:`Tracer.set_op` when the span opened; spans of one op share it.
Every operation runs inside one ``top`` span (``bench.step`` or
``bench.op``); spans that open with an empty stack are counted per thread
whatever ``MAX_SPANS`` drops, so :meth:`check` can prove that every layer
span lies inside an operation and that each thread ran the operations it
should.  Spans stay in memory and :meth:`write` puts them on disk once, at
the end.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Optional

_clock = time.perf_counter

#: Spans kept for :meth:`Tracer.write`; later ones only feed the totals.
MAX_SPANS = 250_000


class Tracer:
    """Span recorder plus the runtime patches that feed it."""

    def __init__(self, top: str) -> None:
        self.top = top
        self.spans: list[tuple] = []
        #: (thread name, span name) -> [calls, inclusive s, self s]
        self.agg: dict[tuple[str, str], list] = {}
        #: thread name -> op ids of its outermost ``top`` spans, in order
        self.top_ops: dict[str, list] = {}
        #: (thread name, span name) -> spans opened outside any span
        self.orphans: dict[tuple[str, str], int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        self._lock = threading.Lock()

    # -- per-thread state --------------------------------------------------
    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = []
            st.op = None
            st.thread = threading.current_thread().name
        return st

    def set_op(self, op_id: Any) -> None:
        """Tag spans opened from now on, on this thread, with ``op_id``."""
        self._state().op = op_id

    # -- spans ---------------------------------------------------------------
    def _enter(self):
        st = self._state()
        frame = [next(self._ids), _clock(), 0.0]
        st.stack.append(frame)
        return st, frame

    def _exit(self, st, frame, name: str) -> None:
        end = _clock()
        st.stack.pop()
        span_id, start, child_s = frame
        dur = end - start
        parent = st.stack[-1] if st.stack else None
        key = (st.thread, name)
        if parent is not None:
            parent[2] += dur
        elif name == self.top:
            with self._lock:
                self.top_ops.setdefault(st.thread, []).append(st.op)
        else:
            with self._lock:
                self.orphans[key] = self.orphans.get(key, 0) + 1
        agg = self.agg.get(key)
        if agg is None:
            with self._lock:
                agg = self.agg.setdefault(key, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child_s
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, name, start, end,
                               parent[0] if parent is not None else 0,
                               st.thread, st.op))

    @contextmanager
    def span(self, name: str):
        """A benchmark-side span around a call into a layer."""
        st, frame = self._enter()
        try:
            yield
        finally:
            self._exit(st, frame, name)

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st, frame = enter()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(st, frame, name)

        return traced

    # -- runtime patching ----------------------------------------------------
    def patch(self, owner: Any, attr: str, name: str,
              wrapper: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (a module function or a class method)
        with a traced version; ``wrapper(original)`` overrides the default
        span wrapper."""
        original = vars(owner)[attr]
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot trace descriptor {owner!r}.{attr}")
        replacement = wrapper(original) if wrapper else self.wrap(original,
                                                                  name)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------
    def totals(self, name: str, thread: Optional[str] = None) -> tuple:
        """(calls, inclusive s, self s) of ``name``, on one thread or all."""
        calls, incl, self_s = 0, 0.0, 0.0
        for (th, nm), (c, i, s) in self.agg.items():
            if nm == name and (thread is None or th == thread):
                calls += c
                incl += i
                self_s += s
        return calls, incl, self_s

    def threads(self) -> list[str]:
        return sorted({th for th, _ in self.agg})

    def check(self, ops: list, threads: int = 1) -> list[str]:
        """Problems with the recorded spans, empty when they are sound.

        Every wrapped call ran inside a ``top`` span, no ``top`` span ran
        inside another, exactly ``threads`` threads ran ``top`` spans, and
        each of them ran one per op id in ``ops``, in that order.
        """
        problems = [f"{n} {name} spans outside any {self.top} on {thread}"
                    for (thread, name), n in sorted(self.orphans.items())]
        if len(self.top_ops) != threads:
            problems.append(f"{len(self.top_ops)} threads ran {self.top} "
                            f"spans, expected {threads}")
        for thread, seen in sorted(self.top_ops.items()):
            if self.totals(self.top, thread)[0] != len(seen):
                problems.append(f"{self.top} nested in {self.top} on "
                                f"{thread}")
            if seen != list(ops):
                problems.append(f"{thread} ran {self.top} ops {seen[:5]}... "
                                f"({len(seen)}), expected {list(ops)[:5]}... "
                                f"({len(ops)})")
        return problems

    def write(self, path: Path) -> None:
        """Spans as JSON lines ``[id, name, start, end, parent, thread,
        op]`` (times in seconds of ``time.perf_counter``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
