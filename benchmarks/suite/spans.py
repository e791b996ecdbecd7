"""Outside-in tracing: spans recorded by the benchmark's own proxies.

Nothing under ``src/`` knows it is being traced.  The proxies here are
handed to the program through its public arguments — a ``ChunkStore``
for every store, a ``Backend`` instance for ``backend=`` — and record
one span per call at that boundary.  What no public argument reaches
(chunk decode and encode, the sort merge, queue hand-offs: all inside
node threads) is attributed by a stack sampler that notes, every few
milliseconds, which ``repro`` package each thread is executing.  Spans
stay in memory and are written out when the repetition ends.

Span schema (one JSON object per line of ``trace_<workload>.jsonl``):
``id``, ``name``, ``layer``, ``start``, ``end`` (seconds since the
tracer's epoch), ``parent`` (span id or null), ``thread``, ``workload``,
``rep``.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from repro.dataflow.backends import Backend

#: Which ``core`` stage a backend task function belongs to.
TASK_STAGE = {
    "align_subchunk_task": "align",
    "sort_rows_task": "sort",
    "sort_run_task": "sort",
    "results_signature_arrays_task": "dupmark",
    "results_signatures_task": "dupmark",
    "pileup_chunk_arrays_task": "varcall",
    "pileup_chunk_task": "varcall",
}


class Tracer:
    """In-memory span list for one repetition."""

    def __init__(self, workload: str, rep: int):
        self.workload = workload
        self.rep = rep
        self.epoch = time.perf_counter()
        self.spans: "list[dict]" = []
        self._ids = itertools.count()
        #: Proxies parent their spans here: the span of the call under
        #: measurement while it runs, the replay span afterwards.
        self.current_root: "int | None" = None

    def open(self, name: str, layer: str) -> dict:
        span = {
            "id": next(self._ids), "name": name, "layer": layer,
            "start": time.perf_counter() - self.epoch, "end": None,
            "parent": self.current_root,
            "thread": threading.get_ident(),
            "workload": self.workload, "rep": self.rep,
        }
        self.spans.append(span)  # list.append is atomic under the GIL
        return span

    def close(self, span: dict) -> float:
        span["end"] = time.perf_counter() - self.epoch
        return span["end"] - span["start"]

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[dict]:
        span = self.open(name, layer)
        try:
            yield span
        finally:
            self.close(span)

    @contextmanager
    def root(self, name: str) -> Iterator[dict]:
        """A top-level span; spans opened inside it become its children."""
        span = self.open(name, "workload")
        span["parent"] = None
        previous, self.current_root = self.current_root, span["id"]
        try:
            yield span
        finally:
            self.close(span)
            self.current_root = previous

    def write(self, path: "str | Path") -> None:
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def covered_seconds(spans: "list[dict]", root: dict) -> float:
    """Length of the union of ``root``'s child spans, clipped to it.

    Children overlap (several node threads work at once), so their
    durations cannot simply be summed; ``root``'s *self time* is its
    duration minus this.  ``wait.*`` spans do not count: a thread parked
    on a queue explains nothing about where the time went.
    """
    intervals = sorted(
        (max(s["start"], root["start"]), min(s["end"], root["end"]))
        for s in spans
        if s["parent"] == root["id"] and s["end"] is not None
        and not s["name"].startswith("wait.")
    )
    covered = 0.0
    cursor = root["start"]
    for start, end in intervals:
        if end > cursor:
            covered += end - max(start, cursor)
            cursor = end
    return covered


def layer_seconds(spans: "list[dict]", root: dict) -> "dict[str, float]":
    """Summed child-span durations under ``root``, by span name."""
    totals: "dict[str, float]" = {}
    for span in spans:
        if span["parent"] == root["id"] and span["end"] is not None:
            totals[span["name"]] = totals.get(span["name"], 0.0) \
                + span["end"] - span["start"]
    return totals


#: Standard-library files a thread blocks in (lock, socket, pipe waits).
_BLOCKING_FILES = frozenset((
    "threading.py", "socket.py", "selectors.py", "connection.py",
    "queue.py", "popen_fork.py", "subprocess.py",
))
_REPRO_MARKER = os.sep + "repro" + os.sep


class StackSampler(threading.Thread):
    """Attribute every thread's time to the ``repro`` package it is in.

    Each tick reads ``sys._current_frames()`` and, per thread, finds the
    innermost frame that belongs to ``repro/<layer>/``.  Consecutive
    ticks in the same layer merge into one span named ``run.<layer>``,
    or ``wait.<layer>`` while the thread is blocked in a lock, queue or
    socket wait.  Durations are thread-seconds at tick resolution and
    include time a runnable thread spent queued for the interpreter
    lock.  The tick is 20 ms: waking every 5 ms cost ``wgs_serial``, whose
    threads already fight over that lock, 8 % of its wall-clock (traced
    lost 10 of 10 alternating pairs); at 20 ms the cost is not
    measurable (5 of 8).  Worker *processes* are not sampled; the coordinator thread
    waiting on them shows as ``wait.dataflow``.
    """

    def __init__(self, tracer: Tracer, interval_s: float = 0.02):
        super().__init__(name="stack-sampler", daemon=True)
        self.tracer = tracer
        self.interval_s = interval_s
        self._halt = threading.Event()
        self._layer_of: "dict[object, str | None]" = {}
        self._open: "dict[int, dict]" = {}

    def _classify(self, frame) -> "str | None":
        blocked = os.path.basename(frame.f_code.co_filename) \
            in _BLOCKING_FILES
        while frame is not None:
            code = frame.f_code
            layer = self._layer_of.get(code, "")
            if layer == "":
                _, marker, rest = code.co_filename.rpartition(_REPRO_MARKER)
                layer = rest.split(os.sep)[0].removesuffix(".py") \
                    if marker else None
                self._layer_of[code] = layer
            if layer is not None:
                return f"{'wait' if blocked else 'run'}.{layer}"
            frame = frame.f_back
        return None

    def run(self) -> None:
        tracer, own = self.tracer, threading.get_ident()
        while not self._halt.wait(self.interval_s):
            now = time.perf_counter() - tracer.epoch
            for thread_id, frame in sys._current_frames().items():
                if thread_id == own:
                    continue
                name = self._classify(frame)
                span = self._open.get(thread_id)
                if span is not None and span["name"] == name:
                    span["end"] = now + self.interval_s
                    continue
                if name is None:
                    self._open.pop(thread_id, None)
                    continue
                span = tracer.open(name, name.split(".")[1])
                span["start"] = now
                span["end"] = now + self.interval_s
                span["thread"] = thread_id
                self._open[thread_id] = span

    def stop(self) -> None:
        self._halt.set()
        self.join()


class TimedStore:
    """A ``ChunkStore`` proxy that counts and times every get and put.

    Exposes ``backing`` like ``CountingStore`` does, so the sort's
    raw-scratch negotiation sees through it to a directory exactly as it
    would in an untraced run.
    """

    def __init__(self, backing, tracer: Tracer):
        self.backing = backing
        self.tracer = tracer
        self.bytes_read = 0
        self.bytes_written = 0
        self.get_ops = 0
        self.put_ops = 0
        self.get_seconds = 0.0
        self.put_seconds = 0.0
        self._lock = threading.Lock()

    def get(self, key: str) -> bytes:
        span = self.tracer.open("storage.get", "storage")
        try:
            data = self.backing.get(key)
        finally:
            elapsed = self.tracer.close(span)
        with self._lock:
            self.get_ops += 1
            self.get_seconds += elapsed
            self.bytes_read += len(data)
        return data

    def put(self, key: str, data: bytes) -> None:
        span = self.tracer.open("storage.put", "storage")
        try:
            self.backing.put(key, data)
        finally:
            elapsed = self.tracer.close(span)
        with self._lock:
            self.put_ops += 1
            self.put_seconds += elapsed
            self.bytes_written += len(data)

    def exists(self, key: str) -> bool:
        return self.backing.exists(key)

    def delete(self, key: str) -> None:
        self.backing.delete(key)

    def keys(self):
        return self.backing.keys()


class TimedBackend(Backend):
    """A ``Backend`` proxy: one span per ``run_chunk`` dispatch.

    ``run_pipeline(backend=<instance>)`` is public API, so every
    kernel's compute call — on the serial backend and across the
    process pool alike — crosses this object.  The span is named after
    the task function's stage (``core.align`` ...), which is how busy
    time is attributed per stage on workloads whose outcome carries no
    stage report.  The caller owns the wrapped backend's lifetime.
    """

    def __init__(self, inner: Backend, tracer: Tracer):
        super().__init__()
        self.inner = inner
        self.tracer = tracer
        self.name = inner.name
        self.workers = inner.workers
        self.shares_caller_memory = inner.shares_caller_memory

    def __getattr__(self, attribute: str):
        # Anything not overridden (result_stats, shm, ...) is the inner
        # backend's; only reached when normal lookup fails.
        return getattr(self.inner, attribute)

    def register_shared(self, key: str, resource) -> str:
        return self.inner.register_shared(key, resource)

    def start(self) -> None:
        with self.tracer.span("dataflow.pool_start", "dataflow"):
            self.inner.start()

    def payload_pool(self):
        return self.inner.payload_pool()

    def run_chunk(self, fn, payloads, shared=None, timeout=300.0) -> list:
        stage = TASK_STAGE.get(getattr(fn, "__name__", ""), "other")
        with self.tracer.span(f"core.{stage}", "core"):
            return self.inner.run_chunk(fn, payloads, shared=shared,
                                        timeout=timeout)

    def shutdown(self, wait: bool = True) -> None:
        with self.tracer.span("dataflow.pool_shutdown", "dataflow"):
            self.inner.shutdown(wait)
