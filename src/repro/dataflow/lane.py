"""A write-behind lane: one thread for bytes that need no interpreter.

Deflating a chunk and writing it to a store release the GIL for nearly
their whole duration, so they are the one kind of work worth a second
thread beside a chain of GIL-holding kernels (see
:mod:`repro.dataflow.session`).  Jobs run in submission order, a bounded
number in flight.
"""

from __future__ import annotations

import queue
import threading

from repro.dataflow.errors import PipelineAborted
from repro.dataflow.node import bind_thread, executing_node


class Ticket:
    """One submitted job; :meth:`wait` returns once it has run."""

    __slots__ = ("_done", "failed")

    def __init__(self) -> None:
        self._done = threading.Event()
        self.failed = False

    def wait(self) -> None:
        """Block until the job ran; raises :class:`PipelineAborted` if
        it (or a job before it) failed — the failure itself surfaces
        through the lane's owner, not through whoever waited."""
        self._done.wait()
        if self.failed:
            raise PipelineAborted("write-behind lane")


#: Jobs queued behind the running one before :meth:`submit` blocks.
_DEPTH = 2


class WriteBehindLane:
    """Runs submitted jobs on one thread, in order, :data:`_DEPTH`
    queued at most (:meth:`submit` blocks beyond that).

    After the first job that raises, later jobs are skipped;
    :meth:`submit` and :meth:`drain` re-raise that exception on the
    submitting thread, and ``on_error(node, exc)`` — the session's
    failure hook — hears of it at once, with the node that submitted the
    job.  The thread starts with the first job and ends in
    :meth:`close`.
    """

    def __init__(self, name: str = "lane", on_error=None):
        self.name = name
        self._jobs: queue.Queue = queue.Queue(maxsize=_DEPTH)
        self._on_error = on_error
        self._thread: "threading.Thread | None" = None
        self._error: "BaseException | None" = None
        self._last: "Ticket | None" = None
        self._closed = False
        #: The node the running job was submitted by (what
        #: ``executing_node()`` answers on the lane thread).
        self.executing = None

    def submit(self, fn, *args) -> Ticket:
        if self._error is not None:
            raise self._error
        if self._closed:
            raise PipelineAborted(f"{self.name} is closed")
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name=self.name, daemon=True)
            self._thread.start()
        ticket = self._last = Ticket()
        self._jobs.put((ticket, executing_node(), fn, args))
        return ticket

    def _run(self) -> None:
        bind_thread(self)
        while (job := self._jobs.get()) is not None:
            ticket, self.executing, fn, args = job
            try:
                if self._error is None:
                    fn(*args)
            except BaseException as exc:
                # Reported here; submit()/drain() re-raise it on the
                # owner's thread.
                self._error = exc
                if self._on_error is not None:
                    self._on_error(self.executing, exc)
            finally:
                ticket.failed = self._error is not None
                ticket._done.set()

    def drain(self) -> None:
        """Wait for every submitted job; re-raise the first failure."""
        if self._last is not None:
            self._last._done.wait()
        if self._error is not None:
            raise self._error

    def close(self, timeout: "float | None" = None) -> None:
        """Let queued jobs run, then stop and join the thread (for at
        most ``timeout`` seconds when given: a job stuck in a store call
        cannot be interrupted).  Later submits are refused."""
        thread, self._thread = self._thread, None
        self._closed = True
        if thread is None:
            return
        try:
            self._jobs.put(None, timeout=timeout)
        except queue.Full:
            return
        thread.join(timeout)
