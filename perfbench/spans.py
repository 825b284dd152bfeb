"""Span recording for the traced benchmark run.

The traced run wraps public entry points of each layer of ``repro``
from here, so nothing inside ``src/repro`` changes. A span is one call
through a wrapped entry point: its name, start, end, the span that was
open when it began (its parent), and the id of the benchmark op it
belongs to. Spans stay in memory (parallel typed arrays: 28 bytes a
span, about 30 MiB for a traced spec-mutator run) and are written out
once, when the benchmark ends.

A layer's *self* time is the time its spans were open minus the part of
that interval covered by their child spans, so the self times of all
layers add up to the time of the outermost spans.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

import numpy as np

#: Entry points the traced run wraps: (module, class or None, attribute,
#: span name). The span name is ``<layer>/<call>``; the layer is what the
#: per-layer metrics aggregate over.
TARGETS: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.core.simulation", "Simulation", "run", "core.sim/run"),
    ("repro.core.simulation", "Simulation", "resume", "core.sim/resume"),
    ("repro.machine.cpu", "Core", "load_cap", "machine.cpu/load_cap"),
    ("repro.machine.cpu", "Core", "store_cap", "machine.cpu/store_cap"),
    ("repro.machine.cpu", "Core", "load_data", "machine.cpu/load_data"),
    ("repro.machine.cpu", "Core", "store_data", "machine.cpu/store_data"),
    ("repro.machine.cache", "Cache", "access_range", "machine.cache/access_range"),
    ("repro.machine.cache", "Cache", "access_page", "machine.cache/access_page"),
    ("repro.alloc.snmalloc", "SnMalloc", "malloc", "alloc/malloc"),
    ("repro.alloc.snmalloc", "SnMalloc", "free", "alloc/free"),
    ("repro.alloc.snmalloc", "SnMalloc", "release", "alloc/release"),
    ("repro.kernel.revoker.base", "Revoker", "sweep_page", "kernel.revoker.sweep/sweep_page"),
    ("repro.kernel.kernel", "Kernel", "handle_lg_fault", "kernel.revoker.fault/handle_lg_fault"),
    ("repro.runner.pool", None, "execute_job", "runner.job/execute_job"),
    ("repro.runner.cache", "ResultCache", "get", "runner.cache.get/get"),
    ("repro.runner.cache", "ResultCache", "put", "runner.cache.put/put"),
    ("repro.snapshot.capture", None, "capture_simulation", "snapshot.capture/capture_simulation"),
    ("repro.snapshot.prefix", None, "fork_simulation", "snapshot.restore/fork_simulation"),
)

#: Entry points called from several client threads at once.
THREADED_TARGETS: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.serve.client", "ServeClient", "request", "serve.client/request"),
)


class SpanRecorder:
    """Spans in memory, plus the counters read off finished simulations."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Op id stamped on spans opened from the main thread.
        self.op_id = -1
        #: Simulated-machine counters summed over every finished run.
        self.counters: dict[str, int] = defaultdict(int)
        self._installed: list[tuple[Any, str, Any]] = []

    # --- Installing wrappers ------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _patch(self, module: str, owner: str | None, attr: str, make: Callable) -> None:
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
        original = getattr(target, attr)
        self._installed.append((target, attr, original))
        setattr(target, attr, make(original))

    def install(self) -> None:
        """Wrap every entry point in :data:`TARGETS` and
        :data:`THREADED_TARGETS`."""
        for module, owner, attr, name in TARGETS:
            after = self._count_machine if module == "repro.core.simulation" else None
            self._patch(module, owner, attr, self._wrapper(self._name_id(name), after))
        for module, owner, attr, name in THREADED_TARGETS:
            self._patch(module, owner, attr, self._threaded_wrapper(self._name_id(name)))

    def uninstall(self) -> None:
        while self._installed:
            target, attr, original = self._installed.pop()
            setattr(target, attr, original)

    def _wrapper(self, nid: int, after: Callable | None) -> Callable:
        rec = self
        stack = self._stack
        names, parents, ops = self.name, self.parent, self.op
        starts, ends = self.start, self.end
        clock = time.perf_counter

        def make(original: Callable) -> Callable:
            def span(*args: Any, **kwargs: Any) -> Any:
                idx = len(starts)
                names.append(nid)
                parents.append(stack[-1])
                ops.append(rec.op_id)
                ends.append(0.0)
                stack.append(idx)
                starts.append(clock())
                try:
                    result = original(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()
                if after is not None:
                    after(args[0])
                return result

            span.__wrapped__ = original  # type: ignore[attr-defined]
            return span

        return make

    def _threaded_wrapper(self, nid: int) -> Callable:
        rec = self
        clock = time.perf_counter

        def make(original: Callable) -> Callable:
            def span(*args: Any, **kwargs: Any) -> Any:
                local = rec._local
                stack = getattr(local, "stack", None)
                if stack is None:
                    stack = local.stack = [-1]
                with rec._lock:
                    idx = len(rec.start)
                    rec.name.append(nid)
                    rec.parent.append(stack[-1])
                    rec.op.append(getattr(local, "op_id", -1))
                    rec.end.append(0.0)
                    rec.start.append(clock())
                stack.append(idx)
                try:
                    return original(*args, **kwargs)
                finally:
                    stack.pop()
                    rec.end[idx] = clock()

            span.__wrapped__ = original  # type: ignore[attr-defined]
            return span

        return make

    def set_thread_op(self, op_id: int) -> None:
        """Stamp spans opened from the calling (client) thread."""
        self._local.op_id = op_id

    def _count_machine(self, sim: Any) -> None:
        """Read the modelled caches' line counts off a finished run."""
        for core in sim.machine.cores:
            self.counters["cache.hits"] += core.cache.hits
            self.counters["cache.misses"] += core.cache.misses

    # --- Reading spans back ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def _arrays(self) -> tuple[np.ndarray, ...]:
        # Copies, so no buffer export pins the arrays against growth.
        return (
            np.frombuffer(self.name, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )

    def by_layer(self) -> dict[str, dict[str, float]]:
        """``{layer: {"calls", "total_s", "self_s"}}`` over every span."""
        name, parent, start, end = self._arrays()
        duration = end - start
        covered = np.zeros(len(duration))
        nested = parent >= 0
        np.add.at(covered, parent[nested], duration[nested])
        self_time = duration - covered
        out: dict[str, dict[str, float]] = {}
        for nid, full in enumerate(self.names):
            layer = full.split("/", 1)[0]
            mask = name == nid
            entry = out.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += int(mask.sum())
            entry["total_s"] += float(duration[mask].sum())
            entry["self_s"] += float(self_time[mask].sum())
        return out

    def write(self, path: Path) -> None:
        """Write every span (and the name table) to ``path`` (``.npz``)."""
        name, parent, start, end = self._arrays()
        op = np.frombuffer(self.op, dtype=np.int32).copy()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name=name,
            parent=parent,
            op=op,
            start=start,
            end=end,
        )
