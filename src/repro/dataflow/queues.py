"""Bounded queues between dataflow kernels (§4, §4.5).

Queues are the explicit flow-control and load-balancing mechanism of
Persona: "Persona controls memory pressure by limiting the queue length
and therefore the number of objects passed around" and keeps capacity "at
a level that ensures there is always data to feed the process subgraph,
but the individual servers do not have too many AGD chunks in their
pipelines, which can lead to stragglers."

Queues support multi-producer close semantics: each producer registers,
and the queue closes for consumers only when every producer is done.
"""

from __future__ import annotations

import collections
import threading
import time
from typing import Any, Generic, Iterator, Protocol, TypeVar

from repro.dataflow.errors import PipelineAborted, QueueClosed, WorkerFenced

T = TypeVar("T")


class QueueEndpoint(Protocol):
    """The queue surface dataflow kernels program against.

    Both the local :class:`Queue` and the network-transparent
    :class:`RemoteQueue` implement it, so a kernel wired to "a queue"
    neither knows nor cares whether the other end is a thread in the
    same session or a server across a socket (§5.2's manifest-server
    queues, generalized to every stage boundary).
    """

    def register_producer(self) -> None: ...

    def producer_done(self) -> None: ...

    def put(self, item: Any, timeout: "float | None" = None) -> None: ...

    def get(self, timeout: "float | None" = None) -> Any: ...

    def abort(self) -> None: ...

    def __iter__(self) -> Iterator[Any]: ...


class Queue(Generic[T]):
    """A bounded, closable, thread-safe FIFO queue with depth metrics."""

    def __init__(self, name: str, capacity: int):
        if capacity <= 0:
            raise ValueError(f"queue {name!r} capacity must be positive")
        self.name = name
        self.capacity = capacity
        self._items: collections.deque = collections.deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._producers = 0
        self._closed = False
        self._aborted = False
        # Metrics (§4.6: TF exposes "current queue states"; so do we).
        self.total_enqueued = 0
        self.max_depth = 0
        #: True once a session elided this queue: its consumer runs on
        #: its producer's thread and items never rest here (they are
        #: still counted in ``total_enqueued``).
        self.inline = False

    # ------------------------------------------------------------ lifecycle

    def register_producer(self) -> None:
        """Declare one more producer; the queue closes when all finish."""
        with self._lock:
            if self._closed:
                raise RuntimeError(f"queue {self.name!r} already closed")
            self._producers += 1

    def producer_done(self) -> None:
        """Signal one producer's completion; last one closes the queue."""
        with self._lock:
            if self._producers <= 0:
                raise RuntimeError(
                    f"queue {self.name!r}: producer_done without producer"
                )
            self._producers -= 1
            if self._producers == 0:
                self._closed = True
                self._not_empty.notify_all()
                self._not_full.notify_all()

    def close(self) -> None:
        """Force-close regardless of outstanding producers."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    def abort(self) -> None:
        """Error path: wake all waiters with PipelineAborted."""
        with self._lock:
            self._aborted = True
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    # ------------------------------------------------------------------ I/O

    def put(self, item: T, timeout: "float | None" = None) -> None:
        with self._not_full:
            while len(self._items) >= self.capacity:
                if self._aborted:
                    raise PipelineAborted(self.name)
                if self._closed:
                    raise QueueClosed(self.name)
                if not self._not_full.wait(timeout):
                    raise TimeoutError(
                        f"put on full queue {self.name!r} timed out"
                    )
            if self._aborted:
                raise PipelineAborted(self.name)
            if self._closed:
                raise QueueClosed(self.name)
            self._items.append(item)
            self.total_enqueued += 1
            if len(self._items) > self.max_depth:
                self.max_depth = len(self._items)
            self._not_empty.notify()

    def get(self, timeout: "float | None" = None) -> T:
        with self._not_empty:
            while not self._items:
                if self._aborted:
                    raise PipelineAborted(self.name)
                if self._closed:
                    raise QueueClosed(self.name)
                if not self._not_empty.wait(timeout):
                    raise TimeoutError(
                        f"get on empty queue {self.name!r} timed out"
                    )
            item = self._items.popleft()
            self._not_full.notify()
            return item

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def __iter__(self) -> Iterator[T]:
        """Drain the queue until closed (the standard consumer loop)."""
        while True:
            try:
                yield self.get()
            except QueueClosed:
                return

    def drain(self) -> list:
        """Non-blocking removal of everything currently queued."""
        with self._lock:
            items = list(self._items)
            self._items.clear()
            self._not_full.notify_all()
            return items


# ---------------------------------------------------------------------------
# Network-transparent queues: the same endpoint surface, backed by a broker
# edge reached through a transport client (in-process or TCP).


#: Statuses a transport may return from ``pull``/``publish`` attempts.
PULL_OK = "ok"
PULL_EMPTY = "empty"
PUBLISH_OK = "ok"
PUBLISH_FULL = "full"
EDGE_CLOSED = "closed"
EDGE_ABORTED = "aborted"
#: The broker fenced this consumer (missed delivery deadline): all of
#: its further operations are rejected with this status.
DELIVERY_FENCED = "fenced"

#: Seconds each short-blocking pull/publish attempt of a
#: :class:`RemoteQueue` may wait at the broker before polling again.
POLL_INTERVAL = 0.05


class QueueTransport(Protocol):
    """What :class:`RemoteQueue` needs from a broker client.

    Every call is *short-blocking* (bounded by its ``timeout``): pulls
    on an empty edge and publishes to a full edge return
    ``PULL_EMPTY``/``PUBLISH_FULL`` instead of blocking indefinitely, so
    one lock-serialized client connection per server suffices and local
    aborts stay responsive.  Implementations live in
    :mod:`repro.cluster.broker`.
    """

    #: True when payloads stay in memory both ends can reach (in-process,
    #: verified same-host shm): such edges frame columns uncompressed.
    shares_memory: bool

    def attach_producer(self, edge: str) -> None: ...

    def producer_done(self, edge: str) -> None: ...

    def publish(self, edge: str, key: str, payload, timeout: float,
                ack: "tuple[str, int] | None" = None) -> str: ...

    def pull(self, edge: str, timeout: float) -> "tuple[str, int, str, bytes]": ...

    def ack(self, edge: str, tag: int) -> None: ...

    def abort(self, edge: str) -> None: ...


class RemoteQueue:
    """A :class:`QueueEndpoint` backed by a named broker edge.

    ``serializer`` (an encode/decode/key triple, see
    :class:`repro.cluster.wire.PayloadSerializer`) converts items to the
    payloads that cross the transport — a segment list for work items,
    one blob for chunk names — and the transport hands the same shape
    back from ``pull``.

    ``ack_mode`` selects the delivery contract:

    ``"auto"``
        :meth:`get` acknowledges each delivery immediately.  Lost-worker
        redelivery does not cover items already pulled — appropriate for
        single-consumer, order-insensitive inlets (a sort or varcall
        stage, whose death kills the run anyway).

    ``"manual"``
        :meth:`get` keeps the delivery tag, filed under the item's key;
        the server acks via :meth:`ack_key` (or atomically via another
        queue's ``put(item, ack_source=...)``) only once the chunk has
        been fully processed.  A worker that dies in between leaves
        unacked deliveries for the broker to hand to a surviving
        replica — at-least-once, made exactly-once-effective by
        idempotent chunk writes.
    """

    def __init__(
        self,
        client: QueueTransport,
        edge: str,
        serializer,
        ack_mode: str = "auto",
    ):
        if ack_mode not in ("auto", "manual"):
            raise ValueError(f"unknown ack_mode {ack_mode!r}")
        self.client = client
        self.edge = edge
        self.serializer = serializer
        self.ack_mode = ack_mode
        self._aborted = False
        self._lock = threading.Lock()
        self._inflight: dict[str, int] = {}
        # Mirror of the local Queue metrics surface.
        self.total_enqueued = 0
        #: Frames / bytes this endpoint encoded for its transport.
        self.total_frames = 0
        self.total_bytes = 0

    # ------------------------------------------------------------ lifecycle

    def register_producer(self) -> None:
        """Bind one of the edge's pre-declared producer slots to this
        client (the broker releases it if the client dies)."""
        self.client.attach_producer(self.edge)

    def producer_done(self) -> None:
        self.client.producer_done(self.edge)

    def abort(self) -> None:
        """Local abort: wake this endpoint's pollers without touching
        the shared edge (a coordinator aborts the edge itself when the
        whole run must die)."""
        self._aborted = True

    def close(self) -> None:
        """Endpoint-local no-op: edges close when all producers finish."""

    # ------------------------------------------------------------------ I/O

    def _check_status(self, status: str) -> None:
        if status == DELIVERY_FENCED:
            raise WorkerFenced(self.edge)
        if status == EDGE_ABORTED:
            raise PipelineAborted(self.edge)
        if status == EDGE_CLOSED:
            raise QueueClosed(self.edge)

    def put(self, item: Any, timeout: "float | None" = None,
            ack_source: "RemoteQueue | None" = None) -> None:
        """Publish ``item``.

        With ``ack_source`` (a manual-ack queue), the delivery it filed
        under the item's key is acknowledged in the same broker
        operation.  This closes the duplicate-delivery window: a worker
        that dies before the call leaves the upstream delivery unacked
        (clean redelivery); one that dies after leaves the item safely
        published and the delivery acked.  There is no interleaving in
        which the item is published twice.  An item that did not come
        from a tracked delivery (auto-ack ingress, a locally generated
        chunk) is published alone.
        """
        key, payload = self.serializer.key(item), self.serializer.encode(item)
        frames = payload if isinstance(payload, list) else [payload]
        self.total_frames += len(frames)
        self.total_bytes += sum(map(len, frames))
        tag = None if ack_source is None else ack_source._take_tag(key)
        ack = None if tag is None else (ack_source.edge, tag)
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self._aborted:
                raise PipelineAborted(self.edge)
            status = self.client.publish(
                self.edge, key, payload, timeout=POLL_INTERVAL, ack=ack
            )
            self._check_status(status)
            if status == PUBLISH_OK:
                self.total_enqueued += 1
                return
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"publish to full edge {self.edge!r} timed out"
                )

    def get(self, timeout: "float | None" = None) -> Any:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self._aborted:
                raise PipelineAborted(self.edge)
            status, tag, key, payload = self.client.pull(
                self.edge, timeout=POLL_INTERVAL
            )
            self._check_status(status)
            if status == PULL_OK:
                break
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"get on empty edge {self.edge!r} timed out"
                )
        if self.ack_mode == "manual":
            with self._lock:
                self._inflight[key] = tag
            return self.serializer.decode(payload)
        # Auto-ack: decode BEFORE acknowledging, so a payload that fails
        # to decode stays unacked.  Every transport hands back owned
        # bytes, so nothing the decoded item holds dies with the ack.
        item = self.serializer.decode(payload)
        self.client.ack(self.edge, tag)
        return item

    def _take_tag(self, key: str) -> "int | None":
        with self._lock:
            return self._inflight.pop(key, None)

    def ack_key(self, key: str) -> bool:
        """Acknowledge the tracked delivery filed under ``key``; returns
        False when no delivery with that key is in flight here."""
        tag = self._take_tag(key)
        if tag is None:
            return False
        self.client.ack(self.edge, tag)
        return True

    def __iter__(self) -> Iterator[Any]:
        while True:
            try:
                yield self.get()
            except QueueClosed:
                return
