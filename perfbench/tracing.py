"""Span recording around the program's public functions.

The benchmark measures layers from outside: :func:`install` replaces
named functions and methods of the ``repro`` package with wrappers that
time every call on a per-thread stack, so each span knows its parent
and its self time (its duration minus the time of the wrapped calls
made inside it).  Nothing in the program is edited; the wrappers are
installed in the benchmark's own process or, for the daemon, by
:mod:`launcher` before it hands over to ``pml-mpi serve``.

Hot leaf calls (one simulator round) would cost more to keep than to
make, so they are *folded*: their time and call counts are added to
the nearest kept ancestor's span instead of being stored as spans of
their own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable

#: (module, attribute path, span name, folded).  The span name's prefix
#: before the first dot is the layer; the benchmark's README maps each
#: layer to the end-to-end metric it should move.
TARGETS: tuple[tuple[str, str, str, bool], ...] = (
    # serve.protocol
    ("repro.serve.daemon", "parse_request", "protocol.parse", False),
    ("repro.serve.daemon", "encode", "protocol.encode", False),
    # serve.daemon: one request line from parse to response (event
    # loop, admission, worker-pool hop and the deadline wait)
    ("repro.serve.daemon", "SelectionDaemon._dispatch", "daemon.dispatch",
     False),
    ("repro.serve.service", "DecisionBlock.to_dicts",
     "protocol.to_dicts", False),
    # serve.columnar / serve.service / serve.cache
    ("repro.serve.columnar", "QueryBlock.from_records",
     "columnar.from_records", False),
    ("repro.serve.service", "SelectionService.select_block",
     "service.select_block", False),
    ("repro.serve.cache", "LRUCache.get_many", "cache.get_many", False),
    ("repro.serve.cache", "LRUCache.put_many", "cache.put_many", False),
    # smpi.guard; on the serve path the cost model (algo.estimate) is
    # only reached through the guard's remap and floor rungs
    ("repro.smpi.guard", "GuardedSelector.explain_block",
     "guard.explain_block", False),
    ("repro.smpi.collectives.base", "CollectiveAlgorithm.estimate",
     "algo.estimate", False),
    # core.inference / core.training / ml.tree
    ("repro.core.inference", "PretrainedSelector.select_block",
     "inference.select_block", False),
    ("repro.core.training", "TrainedModel.predict_batch",
     "model.predict", False),
    # serve.reload / core.bundle
    ("repro.serve.reload", "load_selector", "bundle.load", False),
    ("repro.core.bundle", "load_selector", "bundle.load", False),
    ("repro.serve.reload", "SnapshotStore.reload", "reload.build", False),
    # core.dataset / simcluster
    ("repro.core.dataset", "benchmark_config", "dataset.config", False),
    ("repro.simcluster.machine", "Machine.evaluate", "sim.evaluate", True),
    ("repro.simcluster.machine", "Machine.round_time", "sim.round_time",
     True),
    # core.training / ml.forest / ml.tree / ml.parallel
    ("repro.core.training", "rank_features", "train.rank_features", False),
    ("repro.ml.forest", "RandomForestClassifier.fit", "ml.forest_fit",
     False),
    ("repro.ml.tree", "DecisionTreeClassifier.fit", "ml.tree_fit", False),
    ("repro.ml.forest", "parallel_map", "ml.parallel_map", False),
    # core.inference (compile-time tables)
    ("repro.core.inference", "generate_tuning_table", "tune.table", False),
)


class SpanLog:
    """Spans of one process, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        #: Kept spans: [name, thread, start, end, self_s, folded_s,
        #: folded_calls, attrs]; ``self_s`` excludes folded calls.
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, folded: bool, fn: Callable, args: tuple,
             kwargs: dict, attrs: Callable | None) -> Any:
        stack = self._stack()
        # frame: [child_s, folded_child_s, {folded name: calls}]
        frame: list = [0.0, 0.0, {}]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
        dur = t1 - t0
        if stack:
            parent = stack[-1]
            parent[0] += dur
            if folded:
                parent[1] += dur
                counts = parent[2]
                counts[name] = counts.get(name, 0) + 1
                for key, n in frame[2].items():
                    counts[key] = counts.get(key, 0) + n
        if not folded:
            extra = attrs(args, result) if attrs is not None else {}
            with self._lock:
                self.spans.append([name, threading.get_ident(), t0, t1,
                                   dur - frame[0], frame[1], frame[2],
                                   extra])
        return result

    async def acall(self, name: str, fn: Callable, args: tuple,
                    kwargs: dict) -> Any:
        """:meth:`call` for a coroutine function.  Spans entered while it
        is suspended on this thread's event loop nest under it; the
        daemon's single-client closed loop leaves nothing else there."""
        stack = self._stack()
        frame: list = [0.0, 0.0, {}]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = await fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            del stack[next(i for i in range(len(stack) - 1, -1, -1)
                           if stack[i] is frame)]
        with self._lock:
            self.spans.append([name, threading.get_ident(), t0, t1,
                               t1 - t0 - frame[0], frame[1], frame[2],
                               {}])
        return result

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.spans))


def _resolve(module: str, dotted: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _attrs_for(name: str) -> Callable | None:
    """Extra per-span fields (payload sizes, row counts)."""
    if name == "protocol.parse":
        return lambda args, result: {"bytes": len(args[0]),
                                     "op": result.op}
    if name == "protocol.encode":
        return lambda args, result: {"bytes": len(result)}
    if name == "model.predict":
        return lambda args, result: {"rows": int(len(result))}
    if name == "dataset.config":
        return lambda args, result: {"collective": args[1]}
    if name == "tune.table":
        return lambda args, result: {"cluster": args[1].name}
    if name == "ml.parallel_map":
        return lambda args, result: {
            "pool": bool(args[2] and args[2] > 1 and len(args[1]) > 1)}
    return None


def _wrap(log: SpanLog, fn: Callable, name: str, folded: bool) -> Callable:
    attrs = _attrs_for(name)
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def awrapper(*args: Any, **kwargs: Any) -> Any:
            return await log.acall(name, fn, args, kwargs)

        awrapper.__perfbench__ = True  # type: ignore[attr-defined]
        return awrapper

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return log.call(name, folded, fn, args, kwargs, attrs)

    wrapper.__perfbench__ = True  # type: ignore[attr-defined]
    return wrapper


def install(log: SpanLog) -> None:
    """Wrap every :data:`TARGETS` entry (idempotent per process)."""
    for module, dotted, name, folded in TARGETS:
        owner, attr = _resolve(module, dotted)
        if getattr(getattr(owner, attr), "__perfbench__", False):
            continue
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
        if isinstance(raw, classmethod):
            # Wrapped already bound to its class.
            wrapped: Any = staticmethod(
                _wrap(log, getattr(owner, attr), name, folded))
        else:
            wrapped = _wrap(log, getattr(owner, attr), name, folded)
        setattr(owner, attr, wrapped)


class JsonProxy:
    """Stand-in for the ``json`` module inside ``repro.serve.client``
    that times the client's own request encoding and response decoding
    (the client layer of the request round trip)."""

    def __init__(self, log: SpanLog) -> None:
        import json as real

        self._real = real
        self._log = log

    def dumps(self, *args: Any, **kwargs: Any) -> str:
        return self._log.call("client.codec", False, self._real.dumps,
                              args, kwargs, None)

    def loads(self, *args: Any, **kwargs: Any) -> Any:
        return self._log.call("client.codec", False, self._real.loads,
                              args, kwargs, None)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._real, name)


def install_client(log: SpanLog) -> None:
    """Time the daemon client's JSON codec in this process."""
    import repro.serve.client as client

    client.json = JsonProxy(log)  # type: ignore[assignment]


def load_spans(path: str | Path) -> list[list]:
    return json.loads(Path(path).read_text())
