"""Span recording for the traced run.

The traced run wraps the public entry points of each layer *from
outside the program* (nothing under ``src/`` is instrumented for this):
:meth:`Recorder.wrap` replaces one entry point with a wrapper that
records a span — layer, name, start, end, parent, job id — and
:meth:`Recorder.uninstall` restores the originals.  Spans stay in memory and
are folded into per-layer inclusive ("busy") and self time when the run
ends.

* A span's parent is the innermost open span of the same thread; a span
  opened on a worker thread with nothing open there (a campaign worker,
  a parallel deadlock composer) is linked to the main thread's innermost
  span, which is what started the work.
* Self time is a span's duration minus the durations of its direct
  children *on the same thread*.  A main-thread span waiting on worker
  threads keeps that waiting as self time.
* A layer's busy time sums the spans with no same-layer ancestor on
  their thread, so re-entry into a layer is not counted twice while two
  threads working in one layer at once are both counted.

SQL work is counted, not spanned: a per-thread tally of the outermost
``ProtocolDatabase`` call keeps the statement count and time without a
span per statement.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

__all__ = ["Recorder", "LAYERS"]

#: Layer order of every per-layer report (the program's module names).
LAYERS = ("generator", "invariants", "deadlock", "repair", "mapping",
          "sim", "explore", "faults", "database")

_SQL_METHODS = ("execute", "executemany", "query", "query_tuples", "scalar")


class _Span:
    __slots__ = ("job", "layer", "name", "parent", "same_thread", "outer",
                 "start", "end", "child_s")

    def __init__(self, job, layer, name, parent, same_thread, outer):
        self.job = job
        self.layer = layer
        self.name = name
        self.parent = parent
        self.same_thread = same_thread
        self.outer = outer
        self.start = self.end = 0.0
        self.child_s = 0.0


class Recorder:
    """In-memory span and counter store for one traced run."""

    def __init__(self) -> None:
        self.job = None
        self.spans: list[_Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._main_stack: list[_Span] = []
        self._local = threading.local()
        self._sql_tallies: list[list] = []
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer: str, name: str) -> _Span:
        stack = self._stack()
        if stack:
            parent, same_thread = stack[-1], True
        else:
            main = self._main_stack
            parent, same_thread = (main[-1] if main else None), False
        outer = not any(s.layer == layer for s in stack)
        sp = _Span(self.job, layer, name, parent, same_thread, outer)
        stack.append(sp)
        sp.start = time.perf_counter()
        return sp

    def _close(self, sp: _Span) -> None:
        sp.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if sp.same_thread and sp.parent is not None:
            sp.parent.child_s += sp.end - sp.start
        with self._lock:
            self.spans.append(sp)

    def add(self, counts: dict) -> None:
        """Add counter increments (thread-safe); a list value extends
        the sample list of that name instead."""
        with self._lock:
            for key, value in counts.items():
                if isinstance(value, list):
                    self.samples[key].extend(value)
                else:
                    self.counts[key] += value

    def reset(self) -> None:
        """Forget everything recorded so far (after the warm-up job)."""
        with self._lock:
            self.spans = []
            self.counts = defaultdict(float)
            self.samples = defaultdict(list)
            for tally in self._sql_tallies:
                tally[1] = tally[2] = 0

    # -- wrapping ----------------------------------------------------------
    def wrap(self, owner, attr: str, layer: str, count=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``count(result) -> dict`` turns the call's result into counter
        increments, taken only from the outermost span of ``layer`` on
        its thread so nested entry points are not counted twice."""
        original = owner.__dict__[attr]
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        recorder = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            sp = recorder._open(layer, name)
            try:
                result = func(*args, **kwargs)
            finally:
                recorder._close(sp)
            if count is not None and sp.outer:
                recorder.add(count(result))
            return result

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._patches.append((owner, attr, original))

    def wrap_sql(self, db_class) -> None:
        """Count statements and their time at the outermost
        ``ProtocolDatabase`` call of each thread."""
        recorder = self

        def tally():
            t = getattr(recorder._local, "sql", None)
            if t is None:
                t = recorder._local.sql = [0, 0, 0.0]  # depth, count, seconds
                with recorder._lock:
                    recorder._sql_tallies.append(t)
            return t

        for attr in _SQL_METHODS:
            func = db_class.__dict__[attr]

            def traced(*args, _func=func, **kwargs):
                t = tally()
                if t[0]:
                    return _func(*args, **kwargs)
                t[0] = 1
                t0 = time.perf_counter()
                try:
                    return _func(*args, **kwargs)
                finally:
                    t[2] += time.perf_counter() - t0
                    t[1] += 1
                    t[0] = 0

            setattr(db_class, attr, functools.wraps(func)(traced))
            self._patches.append((db_class, attr, func))

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- folding -------------------------------------------------------------
    def sql_totals(self) -> tuple[int, float]:
        with self._lock:
            return (sum(t[1] for t in self._sql_tallies),
                    sum(t[2] for t in self._sql_tallies))

    def layers(self) -> dict[str, dict]:
        """layer -> {busy_s, self_s, spans} summed over the recorded jobs."""
        out = {layer: {"busy_s": 0.0, "self_s": 0.0, "spans": 0}
               for layer in LAYERS}
        for sp in self.spans:
            entry = out.setdefault(sp.layer,
                                   {"busy_s": 0.0, "self_s": 0.0, "spans": 0})
            duration = sp.end - sp.start
            entry["spans"] += 1
            entry["self_s"] += duration - sp.child_s
            if sp.outer:
                entry["busy_s"] += duration
        return out
