"""Span tracing for the traced benchmark runs, installed from outside the program.

The program under test carries no tracing of its own.  ``layers.install``
wraps the public entry points of each layer (class methods and module
functions) with a :class:`Tracer` that records one span per call: id, name,
start, end, parent span id, op id and thread.  Self time (span time minus
child-span time) and inclusive time are accumulated online per
``(op, layer)``; the raw spans stay in memory and are written out when the
run ends.

Every wrapper calls the original with the original arguments and returns its
value untouched, so tracing never changes results.  Wrapping is undone by
:func:`undo_all`.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: Spans kept in memory per process; beyond it only the per-op aggregates
#: grow (the count of dropped spans is reported).
MAX_STORED_SPANS = 200_000

#: Op id of spans recorded outside any timed op (setup, warm-up, teardown).
NO_OP = "-"


class Tracer:
    """Span recorder with per-thread stacks and per-(op, layer) aggregates.

    Aggregates per thread (no lock on the hot path):

    * ``self[(op, layer)]`` — seconds of self time,
    * ``counts[(op, name)]`` — ``<layer>.calls``, ``<layer>.total_s``
      (inclusive seconds) and whatever the wrappers' counters add.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.enabled = True
        self.spans: List[tuple] = []
        self.dropped = 0
        #: Job hash -> times executed (the wasted-work ratio of the runner).
        self.executed: Dict[str, int] = {}
        #: Ticket id -> (submit time, op) of jobs queued for the drain thread.
        self.submitted: Dict[str, tuple] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[Dict[str, Any]] = []
        self._main_thread = threading.main_thread().ident

    # ------------------------------------------------------------------
    def _state(self) -> threading.local:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.op = NO_OP
            local.self_time = defaultdict(float)
            local.counts = defaultdict(float)
            local.thread = (
                "main" if threading.get_ident() == self._main_thread
                else threading.current_thread().name
            )
            with self._lock:
                self._threads.append(
                    {"thread": local.thread, "self": local.self_time, "counts": local.counts}
                )
        return local

    def set_op(self, op: str) -> None:
        """Attribute this thread's following spans and counts to ``op``."""
        self._state().op = op

    def current_op(self) -> str:
        return self._state().op

    def count(self, name: str, value: float = 1.0, op: Optional[str] = None) -> None:
        """Add ``value`` to counter ``name`` of ``op`` (default: the thread's op)."""
        if self.enabled:
            state = self._state()
            state.counts[(state.op if op is None else op, name)] += value

    # ------------------------------------------------------------------
    def _open(self, state, label: str) -> list:
        stack = state.stack
        frame = [label, 0.0, next(self._ids), stack[-1][2] if stack else -1]
        stack.append(frame)
        return frame

    def _close(self, state, frame: list, start: float, end: float) -> None:
        stack = state.stack
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][1] += duration
        label, op = frame[0], state.op
        state.self_time[(op, label)] += duration - frame[1]
        counts = state.counts
        counts[(op, label + ".calls")] += 1
        counts[(op, label + ".total_s")] += duration
        if len(self.spans) < MAX_STORED_SPANS:
            self.spans.append((frame[2], label, start, end, frame[3], op, state.thread))
        else:
            self.dropped += 1

    def wrap(self, fn: Callable, name: Any, counter: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call.

        ``name`` is a layer name or a callable ``(args, kwargs) -> name``;
        ``counter`` is an optional callable ``(tracer, args, kwargs, result)``
        adding counts.  A call nested directly inside a span of the same name
        (a subclass delegating to its base) is not split into a second span.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = tracer._state()
            label = name(args, kwargs) if callable(name) else name
            if state.stack and state.stack[-1][0] == label:
                return fn(*args, **kwargs)
            frame = tracer._open(state, label)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(state, frame, start, tracer.clock())
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        return wrapper

    def span(self, name: str) -> "_SpanContext":
        """Context manager recording one span (the op roots)."""
        return _SpanContext(self, name)

    # ------------------------------------------------------------------
    def aggregates(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """Per-op sums: ``self``, ``main_self`` (main thread only) and ``counts``."""
        merged: Dict[str, Dict[str, Dict[str, float]]] = {
            "self": {}, "main_self": {}, "counts": {}
        }
        with self._lock:
            threads = list(self._threads)
        for entry in threads:
            targets = [("self", entry["self"]), ("counts", entry["counts"])]
            if entry["thread"] == "main":
                targets.append(("main_self", entry["self"]))
            for kind, table in targets:
                for (op, name), value in list(table.items()):
                    bucket = merged[kind].setdefault(op, {})
                    bucket[name] = bucket.get(name, 0.0) + value
        return merged

    def dump(self, path: Path, extra: Optional[Dict[str, Any]] = None) -> None:
        """Write aggregates, extras and the stored spans as one JSON document.

        A span is ``[id, name, start, end, parent_id, op, thread]``.
        """
        payload = {
            "aggregates": self.aggregates(),
            "dropped_spans": self.dropped,
            "extra": extra or {},
            "spans": self.spans,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload), encoding="utf-8")


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_SpanContext":
        state = self._tracer._state()
        self._frame = self._tracer._open(state, self._name)
        self._start = self._tracer.clock()
        return self

    def __exit__(self, *exc_info) -> None:
        end = self._tracer.clock()
        self._tracer._close(self._tracer._state(), self._frame, self._start, end)


# ----------------------------------------------------------------------
# Patching helpers
# ----------------------------------------------------------------------
def patch_method(tracer: Tracer, cls: type, attr: str, name: Any, undo: List[Callable],
                 counter: Optional[Callable] = None) -> None:
    """Wrap ``cls.attr`` (looked up through the MRO, set on ``cls`` itself)."""
    original = getattr(cls, attr)
    own = attr in cls.__dict__
    setattr(cls, attr, tracer.wrap(original, name, counter))
    if own:
        undo.append(lambda: setattr(cls, attr, original))
    else:
        undo.append(lambda: delattr(cls, attr))


def patch_function(tracer: Tracer, module: Any, attr: str, name: Any, undo: List[Callable],
                   counter: Optional[Callable] = None) -> None:
    """Wrap a module function everywhere a loaded ``repro`` module holds it.

    Modules that imported the function by name keep their own reference, so
    each of them is patched too.
    """
    original = getattr(module, attr)
    wrapped = tracer.wrap(original, name, counter)
    for loaded in list(sys.modules.values()):
        if not getattr(loaded, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, wrapped)
                undo.append(functools.partial(setattr, loaded, key, original))


def undo_all(undo: List[Callable]) -> None:
    """Restore every patched attribute, most recent first."""
    while undo:
        undo.pop()()
