"""Spans around the public calls into each layer, recorded from outside.

:func:`install` replaces the public entry points of ``core.engine``,
``runtime``, ``runtime.codec``, ``harness.sweep``, ``serve`` and
``serve.transport`` with thin timing wrappers, in this process and in
every process forked from it afterwards.  Each span records its name,
start, end, parent span and a chunk or request id; spans stay in memory
and each process writes its own file when it exits.  Nothing in the
program itself changes, and a run without ``--trace 1`` installs
nothing.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import multiprocessing.util
import os
import time
from collections import defaultdict, deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# (span id, span name) of the innermost open span in this context.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)


@dataclass(frozen=True)
class Span:
    pid: int
    sid: int
    parent: int          # 0 = root
    name: str
    t0: float            # time.perf_counter(), shared by processes of a host
    t1: float
    ident: object = None
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class SpanLog:
    """In-memory span store of one process, written out at exit."""

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        self.pid = os.getpid()
        self.records: list[tuple] = []
        self._ids = itertools.count(1)

    def begin(self, name: str) -> tuple:
        parent = _CURRENT.get()
        sid = next(self._ids)
        token = _CURRENT.set((sid, name))
        return (sid, parent[0] if parent else 0, name, token,
                time.perf_counter())

    def end(self, state: tuple, ident=None, attrs=None) -> None:
        finished = time.perf_counter()
        sid, parent, name, token, started = state
        _CURRENT.reset(token)
        self.records.append((sid, parent, name, started, finished, ident,
                             attrs))

    def spans(self) -> list[Span]:
        return [Span(self.pid, *record) for record in self.records]

    def after_fork(self) -> None:
        """A forked multiprocessing child starts an empty log of its own
        and writes it when the child exits."""
        self.pid = os.getpid()
        self.records = []
        self._ids = itertools.count(1)
        _CURRENT.set(None)
        multiprocessing.util.Finalize(self, self.flush, exitpriority=100)

    def flush(self) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / f"spans-{self.pid}.json"
        partial = path.with_suffix(".part")
        partial.write_text(json.dumps({"pid": self.pid,
                                       "spans": self.records}))
        partial.replace(path)


def load_spans(directory) -> list[Span]:
    """Every span the child processes wrote into ``directory``."""
    found: list[Span] = []
    for path in sorted(Path(directory).glob("spans-*.json")):
        payload = json.loads(path.read_text())
        found.extend(Span(payload["pid"], *record)
                     for record in payload["spans"])
    return found


def self_times(spans) -> dict[tuple[int, int], float]:
    """Self time of each span: its duration minus the part of that
    interval its child spans cover (overlapping children count once)."""
    children: dict[tuple[int, int], list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[(span.pid, span.parent)].append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.t0
        for child in sorted(children.get((span.pid, span.sid), []),
                            key=lambda s: s.t0):
            start, stop = max(child.t0, cursor), min(child.t1, span.t1)
            if stop > start:
                covered += stop - start
                cursor = stop
        result[(span.pid, span.sid)] = span.duration - covered
    return result


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _wrap(log: SpanLog, owner, attr: str, name: str, describe=None):
    original = (owner.__dict__[attr] if isinstance(owner, type)
                else getattr(owner, attr))

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        state = log.begin(name)
        result = None
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            ident, attrs = (describe(args, result, state) if describe
                            else (None, None))
            log.end(state, ident, attrs)

    setattr(owner, attr, wrapper)
    return wrapper


def _wrap_async(log: SpanLog, owner, attr: str, name: str, describe=None):
    original = owner.__dict__[attr]

    @functools.wraps(original)
    async def wrapper(*args, **kwargs):
        state = log.begin(name)
        result = None
        try:
            result = await original(*args, **kwargs)
            return result
        finally:
            ident, attrs = (describe(args, result, state) if describe
                            else (None, None))
            log.end(state, ident, attrs)

    setattr(owner, attr, wrapper)


def _rebind(modules, attr: str, wrapper) -> None:
    """Point every module that imported ``attr`` by name at ``wrapper``."""
    for module in modules:
        if hasattr(module, attr):
            setattr(module, attr, wrapper)


def _images_attrs(args, result, state):
    images = np.asarray(args[1])
    return None, {"images": int(images.shape[0]),
                  "density": float(np.count_nonzero(images) / images.size)}


def _outcome_attrs(outcomes) -> dict:
    from repro.runtime import WorkResult

    done = [o for o in outcomes or () if isinstance(o, WorkResult)]
    return {"images": sum(int(o.logits.shape[0]) for o in done),
            "elapsed": sum(float(o.elapsed_s) for o in done),
            "failed": len(outcomes or ()) - len(done)}


def install(log: SpanLog) -> None:
    """Wrap the public calls into every layer with spans into ``log``."""
    import repro.core
    import repro.core.engine
    import repro.core.engine.auto
    import repro.core.engine.cache
    import repro.runtime
    import repro.runtime.codec
    import repro.runtime.remote
    import repro.runtime.work
    import repro.harness.sweep.driver
    import repro.serve.transport
    from repro.core.engine.base import ExecutionEngine
    from repro.core.engine.vectorized import VectorizedEngine
    from repro.harness.sweep import SweepDriver
    from repro.runtime import (ProcessWorker, RemoteWorker, ThreadWorker,
                               Worker, WorkerGroup)
    from repro.serve.cache import ResultCache
    from repro.serve.pool import EnginePool
    from repro.serve.server import InferenceServer
    from repro.serve.transport import TcpClient

    # core.engine
    _wrap(log, ExecutionEngine, "run_merged", "engine.run_merged",
          _images_attrs)
    _wrap(log, VectorizedEngine, "run_batch", "engine.run_batch",
          _images_attrs)
    warm = _wrap(log, repro.core.engine.cache, "warm_engine",
                 "engine.warm_engine")
    _rebind((repro.core, repro.core.engine, repro.core.engine.auto,
             repro.runtime.work, repro.harness.sweep.driver),
            "warm_engine", warm)

    # runtime: group runs and dispatch chunks.  A pipelined chunk is a
    # send_chunk/collect_chunk pair (collected FIFO per lane); a
    # stop-and-wait chunk is the innermost execute or execute_many.
    sent_at: dict[int, deque] = defaultdict(deque)

    def group_attrs(args, result, state):
        return None, {"items": len(result) if result else 0}

    def execute_attrs(args, result, state):
        worker, item = args[0], args[1]
        return item.item_id, dict(_outcome_attrs([result]),
                                  worker=worker.name)

    def execute_many_attrs(args, result, state):
        worker, items = args[0], args[1]
        return (items[0].item_id if items else None,
                dict(_outcome_attrs(result), worker=worker.name))

    def send_attrs(args, result, state):
        worker, items = args[0], args[1]
        sent_at[id(worker)].append(state[4])   # the span's start time
        return items[0].item_id if items else None, {"worker": worker.name}

    def collect_attrs(args, result, state):
        worker = args[0]
        queue = sent_at[id(worker)]
        started = queue.popleft() if queue else state[4]
        return None, dict(_outcome_attrs(result), worker=worker.name,
                          sent_at=started)

    _wrap(log, WorkerGroup, "run", "runtime.group_run", group_attrs)
    for cls in (ThreadWorker, ProcessWorker, RemoteWorker):
        _wrap(log, cls, "execute", "runtime.execute", execute_attrs)
    for cls in (Worker, ProcessWorker, RemoteWorker):
        _wrap(log, cls, "execute_many", "runtime.execute_many",
              execute_many_attrs)
    for cls in (ProcessWorker, RemoteWorker):
        _wrap(log, cls, "send_chunk", "runtime.send_chunk", send_attrs)
        _wrap(log, cls, "collect_chunk", "runtime.collect_chunk",
              collect_attrs)

    # runtime.codec
    encode = _wrap(log, repro.runtime.codec, "encode_frame",
                   "codec.encode_frame",
                   lambda args, result, state: (
                       None, {"bytes": len(result) if result else 0}))
    decode = _wrap(log, repro.runtime.codec, "decode_frame",
                   "codec.decode_frame",
                   lambda args, result, state: (
                       None, {"bytes": len(args[0]) + len(args[1])}))
    _rebind((repro.runtime, repro.runtime.remote, repro.serve.transport),
            "encode_frame", encode)
    _rebind((repro.runtime, repro.serve.transport), "decode_frame", decode)

    # harness.sweep
    def sweep_attrs(args, result, state):
        summary = args[0].last_summary
        return None, ({"units": summary.num_units,
                       "images": summary.num_images} if summary else None)

    _wrap(log, SweepDriver, "run", "sweep.run", sweep_attrs)

    # serve
    _wrap_async(log, InferenceServer, "submit", "serve.submit")
    _wrap_async(log, EnginePool, "run_batch", "serve.pool_run_batch",
                lambda args, result, state: (
                    None, {"images": int(len(args[1]))}))
    _wrap(log, ResultCache, "get", "serve.cache_get",
          lambda args, result, state: (None, {"hit": result is not None}))
    _wrap(log, ResultCache, "put", "serve.cache_put")

    # serve.transport
    _wrap_async(log, TcpClient, "infer", "transport.infer",
                lambda args, result, state: (
                    (result["request_id"],
                     {"server_ms": float(result["latency_ms"])})
                    if result else (None, None)))

    multiprocessing.util.register_after_fork(log, SpanLog.after_fork)
