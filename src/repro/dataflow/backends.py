"""Pluggable execution backends for compute kernels (§4.3, Figure 4).

Persona's fine-grain executor keeps "all cores in the system ... running
continuously doing meaningful work".  A pure-Python thread pool cannot
deliver that for compute kernels (the GIL serializes them), so the
execution substrate is swappable: every compute kernel describes its work
as *picklable task payloads* handed to a :class:`Backend`, and the
backend decides where they run.

Two backends ship here, one in-process and one multi-core:

``SerialBackend``
    Runs payloads inline on the calling thread.  The baseline for
    correctness tests and the denominator for speedup measurements.
    Overlap of I/O with compute comes from the session's node threads,
    not from a second pool.

``ProcessBackend``
    Forked worker processes, one pipe each; up to
    :data:`DEFAULT_BATCH_SIZE` payloads cross the process boundary as
    one message, amortizing IPC cost on large chunks.  Shared read-only
    resources (e.g. a multi-gigabyte aligner index) are inherited at
    ``fork`` (pickled once per worker under ``spawn``), never shipped
    per task.  The one backend that can put pure-Python compute on a
    second core.

The task contract is deliberately data-oriented so every backend can run
the same work: ``fn(shared, payload) -> result`` where ``fn`` is a
module-level (importable, hence picklable) function, ``payload`` is a
picklable value, and ``shared`` is a mapping of pre-registered resources.
Results come back in payload order; the first task error re-raises in the
caller — across process boundaries too, where a worker that *dies* is an
error as well (see :class:`ProcessBackend`).

A run names its backend once, by ``backend=`` and ``workers=`` on its
entry point; :func:`make_backend` turns that recipe into an instance.
"""

from __future__ import annotations

import abc
import multiprocessing
import os
import queue
import threading
import time
from typing import Any, Callable, Mapping, Sequence

BACKEND_CHOICES = ("serial", "process")

#: Payloads per IPC message for the process backend (amortizes pickling
#: and pipe round-trips; one subchunk payload is typically a few KB).
DEFAULT_BATCH_SIZE = 4

TaskFn = Callable[[Mapping[str, Any], Any], Any]


class BusyCounter:
    """Counts concurrently-busy workers; sampled for CPU-utilization traces."""

    def __init__(self) -> None:
        self._count = 0
        self._lock = threading.Lock()

    def enter(self) -> None:
        with self._lock:
            self._count += 1

    def exit(self) -> None:
        with self._lock:
            self._count -= 1

    @property
    def busy(self) -> int:
        with self._lock:
            return self._count


class Backend(abc.ABC):
    """Execution substrate for compute kernels.

    Kernels call :meth:`run_chunk` with one chunk's worth of subchunk
    payloads; the backend returns the per-payload results in order.
    """

    name: str = "backend"
    workers: int = 1
    #: Whether task functions can reach objects in the caller's address
    #: space (through the ``shared`` fallback mapping).  False for
    #: backends whose workers live in other processes: they see only
    #: resources shipped via :meth:`register_shared`.
    shares_caller_memory: bool = True

    def __init__(self) -> None:
        self._shared: dict[str, Any] = {}

    # ------------------------------------------------------------ resources

    def register_shared(self, key: str, resource: Any) -> str:
        """Make ``resource`` visible to task functions under ``key``.

        For in-process backends this is a plain dict entry; the process
        backend's workers take the registry as it is when they start.
        Must therefore be called before the first :meth:`run_chunk`.
        """
        self._shared[key] = resource
        return key

    def shared_view(self, fallback: "Mapping[str, Any] | None") -> Mapping:
        """The mapping task functions see (registry + optional fallback)."""
        if fallback is None:
            return self._shared
        if not self._shared:
            return fallback
        return _ChainLookup(self._shared, fallback)

    # ------------------------------------------------------------------ API

    @abc.abstractmethod
    def run_chunk(
        self,
        fn: TaskFn,
        payloads: Sequence[Any],
        shared: "Mapping[str, Any] | None" = None,
        timeout: "float | None" = 300.0,
    ) -> list:
        """Run ``fn(shared, payload)`` for every payload; ordered results.

        ``shared`` is a fallback resource mapping consulted after this
        backend's own registry — in-process backends typically receive
        the session's :class:`~repro.dataflow.resources.ResourceManager`
        here.  The process backend cannot see caller memory, so it uses
        only resources registered via :meth:`register_shared`.
        """

    def start(self) -> None:
        """Bring workers up now instead of on the first chunk (no-op for
        in-process backends).  Call from a single-threaded context:
        workers forked lazily from inside a running multithreaded
        graph can inherit locks held mid-operation by other threads."""

    def shutdown(self, wait: bool = True) -> None:
        """Release worker processes (idempotent)."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} workers={self.workers}>"


class _ChainLookup:
    """Two-level mapping lookup without copying either mapping."""

    __slots__ = ("_first", "_second")

    def __init__(self, first: Mapping, second: Mapping):
        self._first = first
        self._second = second

    def __getitem__(self, key: str) -> Any:
        try:
            return self._first[key]
        except KeyError:
            return self._second[key]

    def __contains__(self, key: str) -> bool:
        return key in self._first or key in self._second


class SerialBackend(Backend):
    """Run every payload inline on the calling thread.

    No parallelism, no IPC, no scheduling: the reference semantics the
    other backends must match, and the baseline wall-clock for speedup
    claims (Table 1 smoke benchmark).
    """

    name = "serial"
    workers = 1

    def __init__(self, busy_counter: "BusyCounter | None" = None):
        super().__init__()
        self._busy_counter = busy_counter

    def run_chunk(
        self,
        fn: TaskFn,
        payloads: Sequence[Any],
        shared: "Mapping[str, Any] | None" = None,
        timeout: "float | None" = 300.0,
    ) -> list:
        view = self.shared_view(shared)
        results = []
        for payload in payloads:
            if self._busy_counter is not None:
                self._busy_counter.enter()
            try:
                results.append(fn(view, payload))
            finally:
                if self._busy_counter is not None:
                    self._busy_counter.exit()
        return results


# --------------------------------------------------------------------------
# Process backend: module-level worker machinery (must be picklable /
# importable from the child process under both fork and spawn).

#: How long ``shutdown`` waits for a worker to leave by itself before it
#: is terminated.
_SHUTDOWN_GRACE_S = 5.0


class RemoteTraceback(Exception):
    """``__cause__`` of a task error re-raised in the caller: the
    traceback text as the worker formatted it."""


def _worker_main(conn, inherited, shared: Mapping[str, Any]) -> None:
    """A worker: one ``(fn, batch)`` in, one ``(ok, value, traceback)`` out.

    ``inherited`` are the parent-side pipe ends a forked worker holds
    copies of (its own included): while one is open the parent's death
    never reads as EOF here, and the worker would outlive it.
    """
    for parent_end in inherited:
        parent_end.close()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # the parent is gone
            return
        if message is None:
            return
        fn, batch = message
        try:
            reply = (True, [fn(shared, p) for p in batch], "")
        except Exception as error:
            import traceback  # only a failing task pays for it

            reply = (False, error, traceback.format_exc())
        try:
            conn.send(reply)
        except OSError:  # the parent is gone
            return
        except Exception as error:  # pickling failed: nothing was written
            conn.send((False, RuntimeError(
                f"{reply[1]!r} could not cross the process boundary: "
                f"{error!r}"), reply[2]))


def noop_task(shared, payload):
    """Identity task: used to warm the workers before timed regions."""
    return payload


def resolve_start_method(preferred: "str | None" = None) -> str:
    """Pick a supported multiprocessing start method.

    ``fork`` is preferred where available (cheap, inherits page cache);
    macOS/Windows runners only offer ``spawn``/``forkserver``, so CI on
    those platforms must not crash requesting ``fork``.
    """
    available = multiprocessing.get_all_start_methods()
    if preferred is not None:
        if preferred not in available:
            raise ValueError(
                f"start method {preferred!r} unavailable "
                f"(platform offers: {available})"
            )
        return preferred
    for method in ("fork", "spawn"):
        if method in available:
            return method
    return available[0]


class ProcessBackend(Backend):
    """Compute on forked worker processes, one duplex pipe each.

    Payloads are grouped into batches of ``batch_size`` (a constant,
    :data:`DEFAULT_BATCH_SIZE`, everywhere but the backend's own tests);
    a batch is one ``send`` down an idle worker's pipe and one reply
    back.  Idle workers sit in one LIFO shared by every caller, and the
    thread that sends is the thread that waits (``connection.wait`` on
    the pipes it holds): no dispatcher, no helper threads.

    Workers start on :meth:`start` (or lazily on the first
    :meth:`run_chunk`) so that :meth:`register_shared` can be called
    first.  Under ``fork`` the registry and the task functions reach a
    worker by inheritance — nothing pickled, nothing unpickled; under
    ``spawn`` ``multiprocessing`` pickles the same arguments once.

    A task error re-raises in the caller as itself, the worker's
    traceback as its ``__cause__``, once the call's other in-flight
    batches have answered; one that will not pickle (or such a result)
    comes back as a ``RuntimeError`` carrying its ``repr``.  The worker
    lives on.  A worker that *dies* mid-batch reads as EOF: ``run_chunk``
    raises a ``RuntimeError`` naming its pid and exit code, and — as
    after any call that leaves with a reply still due (``timeout``) —
    the backend is broken: later calls raise the same, ``shutdown``
    terminates instead of waiting.  Workers leave on EOF themselves, so
    none outlives a killed parent.

    Workers hold *copies* of shared resources: only task return values
    travel back.  Caller-side mutable state on a shared object (e.g. an
    aligner's stats counters) is NOT updated by process-backend runs —
    use the serial backend when per-aligner instrumentation
    (the Fig. 8 op-mix profiling) must observe the run.

    Payloads and results both travel pickled down the pipe; nothing else
    carries them.  The only dispatching kernel, the aligner, sends at
    most ``subchunk_size`` reads of packed bases (about 20 KB at 101 bp)
    and gets one small results block back: no bulk worth moving by
    reference, and without a shared-memory segment a run starts no
    resource-tracker process.
    """

    name = "process"
    shares_caller_memory = False

    def __init__(
        self,
        workers: "int | None" = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        name: str = "process-backend",
        start_method: "str | None" = None,
        busy_counter: "BusyCounter | None" = None,
    ):
        super().__init__()
        if workers is None:
            workers = max(1, os.cpu_count() or 1)
        if workers <= 0:
            raise ValueError("process backend needs at least one worker")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.workers = workers
        self.batch_size = batch_size
        self.start_method = resolve_start_method(start_method)
        #: ``(process, parent-side connection)`` per worker; the idle
        #: ones are also in ``_idle``.
        self._workers: list = []
        self._idle: queue.LifoQueue = queue.LifoQueue()
        self._broken: "str | None" = None
        self._lock = threading.Lock()
        self._busy_counter = busy_counter

    def _make_batches(self, payloads: Sequence[Any]) -> "list[Sequence]":
        """Consecutive slices of ``batch_size`` payloads, one per IPC
        message."""
        return [payloads[lo:lo + self.batch_size]
                for lo in range(0, len(payloads), self.batch_size)]

    # --------------------------------------------------------- worker mgmt

    def start(self) -> None:
        # Multiple kernel replicas share one backend; without the lock
        # two first-chunk calls would each fork a set of workers.
        with self._lock:
            if self._workers:
                return
            ctx = multiprocessing.get_context(self.start_method)
            for _ in range(self.workers):
                conn, child_end = ctx.Pipe()
                process = ctx.Process(
                    target=_worker_main,
                    args=(child_end, [c for _, c in self._workers] + [conn],
                          self._shared),
                    daemon=True,
                )
                process.start()
                # Only the worker may hold its end, or its death would
                # not read as EOF here.
                child_end.close()
                self._workers.append((process, conn))
                self._idle.put((process, conn))

    def register_shared(self, key: str, resource: Any) -> str:
        # Under the lock: a concurrent first run_chunk could fork the
        # workers mid-registration and silently strand the resource on
        # the caller side (workers take _shared as it is at start).
        with self._lock:
            if self._workers:
                if self._shared.get(key) is resource:
                    return key  # same object, already with the workers
                raise RuntimeError(
                    f"backend {self.name!r}: register_shared({key!r}) "
                    f"after the workers started; register all "
                    f"resources first"
                )
            return super().register_shared(key, resource)

    # ------------------------------------------------------------------ run

    def run_chunk(
        self,
        fn: TaskFn,
        payloads: Sequence[Any],
        shared: "Mapping[str, Any] | None" = None,
        timeout: "float | None" = 300.0,
    ) -> list:
        # ``shared`` (caller-side fallback resources) is unreachable from
        # worker processes by construction; only register_shared state is.
        if not payloads:
            return []
        from multiprocessing import connection  # not the serial path's cost

        self.start()
        deadline = None if timeout is None else time.monotonic() + timeout

        def time_left() -> "float | None":
            if deadline is None:
                return None
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError(f"backend {self.name!r}: chunk timed out")
            return left

        batches = self._make_batches(payloads)
        batch_results: list = [None] * len(batches)
        first_error: "BaseException | None" = None
        flying: dict = {}  # connection -> (its process, batch index)
        sent = 0
        if self._busy_counter is not None:
            self._busy_counter.enter()
        try:
            while flying or sent < len(batches):
                if sent < len(batches):
                    # Block for a worker only while holding none.
                    try:
                        process, conn = self._idle.get(not flying, time_left())
                    except queue.Empty:
                        pass
                    else:
                        try:
                            if self._broken is not None:
                                raise RuntimeError(self._broken)
                            conn.send((fn, batches[sent]))
                        except BaseException:  # nothing written: still idle
                            self._idle.put((process, conn))
                            raise
                        flying[conn] = (process, sent)
                        sent += 1
                        continue
                for conn in connection.wait(list(flying), time_left()):
                    process, index = flying[conn]
                    try:
                        ok, value, remote = conn.recv()
                    except (EOFError, OSError):
                        process.join(1.0)
                        raise RuntimeError(
                            f"worker pid {process.pid} died mid-batch "
                            f"(exit code {process.exitcode})") from None
                    del flying[conn]
                    self._idle.put((process, conn))
                    if ok:
                        batch_results[index] = value
                    elif first_error is None:
                        value.__cause__ = RemoteTraceback(remote)
                        first_error = value
                        sent = len(batches)  # send no more; drain the rest
        except BaseException as error:
            if flying and self._broken is None:
                # A reply is still due: that pipe is out of step for good.
                self._broken = f"backend {self.name!r} is broken: {error!r}"
            raise
        finally:
            if self._busy_counter is not None:
                self._busy_counter.exit()
            for conn, (process, _) in flying.items():
                self._idle.put((process, conn))  # wakes a blocked caller
        if first_error is not None:
            raise first_error
        return [result for batch in batch_results for result in batch]

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            workers, self._workers = self._workers, []
            self._idle = queue.LifoQueue()
            wait = wait and self._broken is None
            self._broken = None
        for process, conn in workers:
            try:
                conn.send(None)
            except OSError:  # that worker is already gone
                pass
        for process, conn in workers:
            if wait:
                process.join(_SHUTDOWN_GRACE_S)
            if process.is_alive():
                process.terminate()
                process.join()
            conn.close()


# --------------------------------------------------------------------------
# Construction helpers


def make_backend(
    kind: "str | Backend",
    workers: int = 4,
    busy_counter: "BusyCounter | None" = None,
    name: str = "backend",
) -> Backend:
    """Build a backend from a CLI-style name (or pass one through)."""
    if isinstance(kind, Backend):
        return kind
    if kind == "serial":
        return SerialBackend(busy_counter=busy_counter)
    if kind == "process":
        return ProcessBackend(
            workers=workers, name=name, busy_counter=busy_counter
        )
    raise ValueError(
        f"unknown backend {kind!r} (choices: {', '.join(BACKEND_CHOICES)})"
    )

