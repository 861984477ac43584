"""Span tracing from outside the program.

The benchmark never edits the program's source.  A traced run instead
replaces a chosen set of attributes -- methods of the layers' classes,
functions in a module's namespace -- with thin wrappers that time each
call, and restores the originals afterwards.  Every wrapped call becomes
one span ``(id, name, start_ns, end_ns, parent_id, op)``; spans are kept
in memory and written out once the run has ended.

A span name is ``<layer>:<entry point>``.  A layer's *self time* is the
time of its spans minus the part their child spans cover, accumulated
online as each span closes, so the written span list is a by-product and
not needed to compute the metrics.
"""

from __future__ import annotations

import gc
import gzip
from array import array
from collections import defaultdict
from time import perf_counter_ns
from typing import Any, Callable, Optional


class SpanRecorder:
    """Holds the open-span stack, the closed spans and per-name totals."""

    def __init__(self) -> None:
        # Closed spans, one column each, so that millions of them fit.
        self._ids = array("q")
        self._codes = array("H")
        self._starts = array("q")
        self._ends = array("q")
        self._parents = array("q")
        self._ops: list = []
        self._names: list[str] = []
        #: Open spans, innermost last: ``[span_id, child_ns, op]``.
        self._stack: list[list] = []
        self._next_id = 0
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        #: Extra per-name tallies (e.g. bytes a codec call produced).
        self.amounts: dict[str, int] = defaultdict(int)

    def wrap(
        self,
        name: str,
        fn: Callable,
        op_of: Optional[Callable[[tuple, Any], Any]] = None,
        amount_of: Optional[Callable[[Any], int]] = None,
    ) -> Callable:
        """Return ``fn`` timed as span ``name``.

        ``op_of(args, result)`` names the operation a call belongs to;
        without it (or when it returns ``None``) a span inherits the op
        of its parent.  ``amount_of(result)`` adds to ``amounts[name]``.
        """
        stack = self._stack
        close = self._close
        self_ns = self.self_ns
        calls = self.calls
        amounts = self.amounts
        recorder = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = recorder._next_id
            recorder._next_id = span_id + 1
            frame = [span_id, 0, parent[2] if parent is not None else None]
            stack.append(frame)
            start = perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                self_ns[name] += duration - frame[1]
                calls[name] += 1
                op = frame[2]
                if op_of is not None:
                    op = op_of(args, result) or op
                if amount_of is not None and result is not None:
                    amounts[name] += amount_of(result)
                close(span_id, code, start, end, parent, op)

        code = self._code(name)
        return traced

    def _code(self, name: str) -> int:
        if name not in self._names:
            self._names.append(name)
        return self._names.index(name)

    def _close(self, span_id: int, code: int, start: int, end: int, parent, op) -> None:
        self._ids.append(span_id)
        self._codes.append(code)
        self._starts.append(start)
        self._ends.append(end)
        self._parents.append(parent[0] if parent is not None else -1)
        self._ops.append(op)

    def gc_callback(self, phase: str, _info: dict) -> None:
        """``gc.callbacks`` hook: a collection inside a traced call
        becomes a ``python.gc`` span, so its pause is not charged to
        whichever layer allocated.  Collections outside any traced call
        stay outside the measured work, like the rest of that time."""
        if phase == "start":
            if not self._stack:
                return
            parent = self._stack[-1]
            self._stack.append([self._next_id, 0, parent[2], perf_counter_ns()])
            self._next_id += 1
            return
        if not self._stack or len(self._stack[-1]) != 4:
            return  # no span was opened for this collection
        end = perf_counter_ns()
        span_id, child, op, start = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        duration = end - start
        if parent is not None:
            parent[1] += duration
        self.self_ns["python.gc:collect"] += duration - child
        self.calls["python.gc:collect"] += 1
        self._close(span_id, self._code("python.gc:collect"), start, end, parent, op)

    def layer_self_ns(self, prefix: str) -> int:
        """Self time of every span whose layer starts with ``prefix``."""
        return sum(ns for name, ns in self.self_ns.items() if name.startswith(prefix))

    def total_self_ns(self) -> int:
        return sum(self.self_ns.values())

    def write(self, path: str) -> int:
        """Write every span as gzip'd tab-separated text; returns the
        number written.  Called after the measured window."""
        names = self._names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("id\tname\tstart_ns\tend_ns\tparent\top\n")
            for row in zip(self._ids, self._codes, self._starts, self._ends,
                           self._parents, self._ops):
                span_id, code, start, end, parent, op = row
                out.write(f"{span_id}\t{names[code]}\t{start}\t{end}\t{parent}\t{op}\n")
        return len(self._ids)


class Patches:
    """A set of attribute replacements that can be applied and undone
    any number of times (the wire workload alternates traced and
    untraced phases on one running cluster)."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self._items: list[tuple[Any, str, Any, Any]] = []
        self._gc_callback = recorder.gc_callback
        self.active = False

    def add(self, owner: Any, attr: str, replacement: Any) -> None:
        # ``__dict__`` lookup tells an inherited attribute (restored by
        # deletion) from one defined on ``owner`` itself.
        original = vars(owner).get(attr, _MISSING)
        self._items.append((owner, attr, original, replacement))

    def apply(self) -> None:
        for owner, attr, _original, replacement in self._items:
            setattr(owner, attr, replacement)
        gc.callbacks.append(self._gc_callback)
        self.active = True

    def undo(self) -> None:
        self.active = False
        gc.callbacks.remove(self._gc_callback)
        for owner, attr, original, _replacement in reversed(self._items):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


_MISSING = object()


def wrap_method(
    patches: Patches,
    recorder: SpanRecorder,
    cls: type,
    method: str,
    name: str,
    **kwargs,
) -> None:
    """Time ``cls.method`` (looked up through the MRO) as span ``name``."""
    patches.add(cls, method, recorder.wrap(name, getattr(cls, method), **kwargs))


def wrap_function(
    patches: Patches,
    recorder: SpanRecorder,
    module: Any,
    function: str,
    name: str,
    **kwargs,
) -> None:
    """Time the function bound to ``module.function`` as span ``name``.

    Only callers that look the name up in ``module`` at call time see the
    wrapper, which is how the asyncio runtime reaches its codec."""
    patches.add(module, function, recorder.wrap(name, getattr(module, function), **kwargs))


def layer_of_callable(action: Callable) -> str:
    """The layer a scheduled callback belongs to: its defining module
    without the ``repro.`` prefix (``repro.sim.nic`` -> ``sim.nic``)."""
    function = getattr(action, "__func__", action)
    module = getattr(function, "__module__", None) or "unknown"
    return module[len("repro."):] if module.startswith("repro.") else module
