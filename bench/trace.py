"""Spans recorded from outside the program, around its layers' entry points.

:func:`install` replaces each listed function or method with a wrapper
that opens a span, and every module of the program that imported the
function by name sees the wrapper too.  Nothing under ``src/`` changes.

A span's *self time* is its duration minus the durations of the spans
opened inside it on the same thread.  Spans are aggregated per layer as
they close (calls, total, self, and an optional size such as bytes
written), in one table per thread, so recording takes no lock.

Worker processes forked after :func:`install` inherit the wrappers.  An
``os.register_at_fork`` hook gives each child empty tables, and a
``multiprocessing.util.Finalize`` armed in the child writes its tables to
``out_dir`` when its request loop returns on a clean shutdown.  Only spans
that *start* inside the measurement window count; the window lives in an
anonymous shared mapping, so the parent opens and closes it for every
process at once.
"""

from __future__ import annotations

import functools
import importlib
import json
import mmap
import multiprocessing.util
import os
import struct
import sys
import threading
import time
import weakref
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: per-layer aggregate: [calls, total ns, self ns, size units]
Row = List[int]

_WINDOW = struct.Struct("qq")
_NEVER = 2**63 - 1


class Tracer:
    """Span aggregates for this process and the workers it forks.

    ``ordinal`` names layers whose spans are also counted by position
    under their parent (``parent>layer#k``): the k-th evaluator run inside
    one document generation is that generation's phase k.
    """

    def __init__(
        self,
        out_dir: Path,
        ordinal: Iterable[str] = (),
        clock: Callable[[], int] = time.perf_counter_ns,
    ):
        self.out_dir = Path(out_dir)
        self.ordinal = frozenset(ordinal)
        self._clock = clock
        self._window = mmap.mmap(-1, _WINDOW.size)
        _WINDOW.pack_into(self._window, 0, _NEVER, _NEVER)
        self._reset()
        me = weakref.ref(self)
        os.register_at_fork(after_in_child=lambda: _call(me, "_reset"))
        multiprocessing.util.register_after_fork(self, Tracer._arm_flush)

    # -- window -------------------------------------------------------------

    def open_window(self) -> None:
        _WINDOW.pack_into(self._window, 0, self._clock(), _NEVER)

    def close_window(self) -> None:
        start, _ = _WINDOW.unpack_from(self._window)
        _WINDOW.pack_into(self._window, 0, start, self._clock())

    # -- recording ------------------------------------------------------------

    def _reset(self) -> None:
        self._local = threading.local()
        self._tables: List[Dict[str, Row]] = []
        self._tables_lock = threading.Lock()

    def _state(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.table = {}
            with self._tables_lock:
                self._tables.append(local.table)
        return stack, local.table

    def wrap(
        self, layer: str, fn: Callable, size: Optional[Callable[[object], int]] = None
    ) -> Callable:
        """``fn`` inside a span named ``layer``; ``size(result)`` is summed."""
        clock = self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, table = self._state()
            # frame: [layer, child ns, start ns, per-layer child counts]
            frame = [layer, 0, clock(), None]
            stack.append(frame)
            units = 0
            try:
                result = fn(*args, **kwargs)
                if size is not None:
                    units = size(result)
                return result
            finally:
                stack.pop()
                self._close(frame, stack, table, units)

        return traced

    def _close(self, frame, stack, table, units: int) -> None:
        layer, child_ns, start, _ = frame
        duration = self._clock() - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += duration
        low, high = _WINDOW.unpack_from(self._window)
        if not low <= start < high:
            return
        _add(table, layer, duration, duration - child_ns, units)
        if parent is not None and layer in self.ordinal:
            counts = parent[3]
            if counts is None:
                counts = parent[3] = {}
            position = counts[layer] = counts.get(layer, 0) + 1
            _add(table, f"{parent[0]}>{layer}#{position}", duration, duration, 0)

    # -- collection -------------------------------------------------------------

    def snapshot(self) -> Dict[str, Row]:
        """This process's aggregates, summed over its threads."""
        merged: Dict[str, Row] = {}
        with self._tables_lock:
            tables = list(self._tables)
        for table in tables:
            for layer, row in list(table.items()):
                _add(merged, layer, *row[1:], calls=row[0])
        return merged

    def _arm_flush(self) -> None:
        multiprocessing.util.Finalize(None, self._flush, exitpriority=100)

    def _flush(self) -> None:
        path = self.out_dir / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps(self.snapshot()), encoding="utf-8")

    def worker_snapshot(self) -> Dict[str, Row]:
        """Aggregates written by every worker that has shut down cleanly."""
        merged: Dict[str, Row] = {}
        for path in sorted(self.out_dir.glob("spans-*.json")):
            for layer, row in json.loads(path.read_text(encoding="utf-8")).items():
                _add(merged, layer, *row[1:], calls=row[0])
        return merged


def _call(ref, method: str) -> None:
    tracer = ref()
    if tracer is not None:
        getattr(tracer, method)()


def _add(table, layer, total, self_ns, units, calls=1) -> None:
    row = table.get(layer)
    if row is None:
        table[layer] = [calls, total, self_ns, units]
    else:
        row[0] += calls
        row[1] += total
        row[2] += self_ns
        row[3] += units


def install(
    tracer: Tracer, targets: Iterable[Tuple[str, str, Optional[Callable]]]
) -> Callable[[], None]:
    """Wrap each ``(layer, "module:Qual.name", size)`` target; returns undo.

    A method is replaced on its class.  A module-level function is
    replaced in every loaded ``repro`` module that holds it, whatever the
    name it was imported under, so ``from .x import f`` callers are traced
    too (modules importing it later get the wrapper from its home module).
    """
    undo: List[Tuple[object, str, object]] = []
    for layer, target, size in targets:
        module_name, _, qualname = target.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            undo.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(layer, original, size))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(layer, original, size)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(loaded).items()):
                if value is original:
                    undo.append((loaded, name, original))
                    setattr(loaded, name, wrapped)

    def uninstall() -> None:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return uninstall
