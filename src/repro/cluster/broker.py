"""The edge broker: per-edge chunk queues for placed pipelines (§5.2).

The paper's manifest server is "a simple message queue" feeding chunk
names to per-server alignment graphs.  The broker generalizes it: one
named *edge* per pipeline cut — the chunk-name work edge plus one
items edge per stage boundary — with at-least-once delivery semantics:

* producer slots are pre-declared per edge (from the placement plan),
  so a consumer can never observe a false close before a slow producer
  attaches;
* every delivery carries a tag and stays *unacked* until the consumer
  acknowledges it; an edge is exhausted only when all producers are
  done, nothing is pending, and nothing is unacked;
* a dropped consumer's unacked deliveries are requeued at the front of
  the edge, and any producer slots it held are released — so a killed
  worker's in-flight chunks are redelivered to a surviving replica and
  the run still terminates.

The self-healing layer hardens that contract against failure modes TCP
cannot detect:

* every delivery pulled off a manual-ack edge carries a *deadline*
  derived from a per-edge moving estimate of service time; a consumer
  that holds a delivery past it is **fenced** — its deliveries are
  requeued (with exponential backoff) and every further operation from
  it is rejected, so a SIGSTOPped or live-locked worker can no longer
  stall the run or duplicate redone work with a late ack;
* redeliveries per key are capped: a chunk that keeps killing its
  consumers moves to a per-edge **dead-letter queue** after
  ``max_redeliveries`` strikes (journaled through
  ``quarantine_listener``) and the run completes degraded — or aborts
  immediately under the ``on_poison="fail"`` policy;
* a *running* plan accepts **late workers**: :meth:`Broker.admit_worker`
  grows a replicable stage group by one server, and the pull-based work
  edge rebalances outstanding deliveries onto the newcomer for free.

Two transports expose the broker to workers: :class:`LocalBrokerClient`
(the in-process reference — direct calls under the broker lock) and a
TCP pair (:class:`BrokerServer`/:class:`TcpBrokerClient`) speaking a
scatter/gather frame format; payloads are opaque bytes (one blob or a
segment list) the edge's serializer already encoded, and every byte of
a TCP edge crosses its socket.  There is one publish operation: it may
carry an ``ack`` of an upstream delivery, which then lands in the same
step.  All client operations are short-blocking: pulls/publishes poll
with a bounded timeout, which is what lets one lock-serialized
connection per worker carry every op and lets local graph aborts
interrupt waiting kernels.
"""

from __future__ import annotations

import collections
import itertools
import json
import socket
import struct
import threading
import time
from dataclasses import dataclass, field

from repro.cluster.wire import WireError
from repro.dataflow.queues import (
    DELIVERY_FENCED,
    EDGE_ABORTED,
    EDGE_CLOSED,
    PUBLISH_FULL,
    PUBLISH_OK,
    PULL_EMPTY,
    PULL_OK,
)


class BrokerError(RuntimeError):
    """Raised for protocol violations (unknown edge, publish after done)."""


@dataclass
class _Delivery:
    #: Current delivery tag.  Reassigned on EVERY requeue: a fenced-but-
    #: alive worker may still hold the old tag, and a stale ack against a
    #: reissued delivery must never credit another consumer's work.
    tag: int
    key: str
    #: Opaque payload: one blob, or a scatter/gather segment list from a
    #: frames-aware serializer.  The broker preserves the shape.
    payload: "bytes | list"
    #: Original enqueue order (the first tag), so requeues land back at
    #: the front of the edge in their original relative order.
    seq: int = 0
    #: Times this delivery has been requeued after a failed attempt.
    strikes: int = 0
    #: Earliest monotonic time the delivery may be handed out again
    #: (exponential backoff between redeliveries).
    not_before: float = 0.0
    #: One line per failed attempt, journaled if the key is quarantined.
    history: "list[str]" = field(default_factory=list)


def _payload_nbytes(payload) -> int:
    if isinstance(payload, list):
        return sum(s.nbytes if isinstance(s, memoryview) else len(s)
                   for s in payload)
    if isinstance(payload, memoryview):
        # len() of a multi-dimensional view counts first-axis items.
        return payload.nbytes
    return len(payload)


@dataclass
class _Edge:
    name: str
    capacity: int
    producers_remaining: int
    pending: "collections.deque[_Delivery]" = field(
        default_factory=collections.deque
    )
    #: tag -> (consumer, delivery, pulled_at, deadline).  ``deadline`` is
    #: None when no service estimate existed at pull time; the expiry
    #: scan then derives one on the fly once the estimate warms up.
    unacked: "dict[int, tuple[int, _Delivery, float, float | None]]" = field(
        default_factory=dict
    )
    #: Requeued deliveries parked until their backoff ``not_before``
    #: passes; promoted to the front of ``pending`` during servicing.
    delayed: "list[_Delivery]" = field(default_factory=list)
    #: Dead-letter queue: key -> quarantine record (strikes, history).
    dead: "dict[str, dict]" = field(default_factory=dict)
    #: consumer id -> number of producer slots it holds (not yet done).
    producer_owners: "collections.Counter" = field(
        default_factory=collections.Counter
    )
    #: consumer id -> deliveries pulled (who is actually consuming).
    pulled_by: "collections.Counter" = field(
        default_factory=collections.Counter
    )
    #: EWMA of pull-to-ack service time, the deadline basis (seconds).
    service_ewma: "float | None" = None
    aborted: bool = False
    total_published: int = 0
    total_redelivered: int = 0
    total_expired: int = 0
    total_quarantined: int = 0
    max_depth: int = 0
    #: Keys completed in a previous attempt (durable-run resume): a
    #: publish of one of these succeeds without enqueuing anything.
    preacked: "set[str]" = field(default_factory=set)
    total_preacked: int = 0
    # --- wire accounting (per-edge cost model inputs) ---------------
    #: Logical payload bytes enqueued (what the pipeline moved).
    payload_bytes: int = 0
    #: Bytes that actually crossed a TCP socket for this edge (zero
    #: for in-process transports).
    wire_bytes: int = 0
    #: Payload segments copied through the socket, with their bytes.
    copied_segments: int = 0
    copied_bytes: int = 0

    @property
    def exhausted(self) -> bool:
        return (self.producers_remaining <= 0 and not self.pending
                and not self.delayed and not self.unacked)


#: EWMA smoothing for the per-edge service-time estimate.
_EWMA_ALPHA = 0.3
#: Minimum seconds between opportunistic servicing passes (deadline
#: expiry, backoff promotion) — ops arrive at poll frequency, one pass
#: per poll would be pure overhead.
_SERVICE_MIN_PERIOD = 0.02
#: A producer silent for this many deadline intervals with nothing
#: unacked is fenced (catches a worker frozen *between* deliveries,
#: which holds no deadline-bearing chunk but still blocks edge close).
_IDLE_FENCE_FACTOR = 4.0
#: ``delivery_deadline="auto"``: a delivery's deadline is this many
#: times the edge's service-time EWMA, clamped to [``_DEADLINE_MIN``,
#: ``_DEADLINE_MAX``] seconds; until the estimate warms up, only
#: ``_DEADLINE_MAX`` applies.
_DEADLINE_FACTOR = 8.0
_DEADLINE_MIN = 30.0
_DEADLINE_MAX = 600.0
#: Exponential redelivery backoff: strike *n* parks the delivery for
#: ``min(_BACKOFF_CAP, _BACKOFF_BASE * 2**(n-1))`` seconds before it
#: returns to the front of the edge.
_BACKOFF_BASE = 0.05
_BACKOFF_CAP = 2.0


class Broker:
    """Thread-safe edge registry with at-least-once delivery.

    Self-healing policy knobs:

    ``delivery_deadline``
        ``"auto"`` (default) derives each delivery's deadline from the
        edge's service-time EWMA (``_DEADLINE_FACTOR`` times the
        estimate, clamped to [``_DEADLINE_MIN``, ``_DEADLINE_MAX``]).
        A float fixes the deadline in seconds; ``"off"``/None disables
        fencing.
    ``max_redeliveries``
        Strikes a key may accumulate (expiry or consumer death) before
        it is quarantined to the edge's dead-letter queue.
    ``on_poison``
        ``"quarantine"`` completes the run degraded (the dead key is
        excluded and reported); ``"fail"`` aborts every edge the moment
        a key is quarantined (``poison_failure`` records which).

    Redeliveries back off exponentially (``_BACKOFF_BASE``,
    ``_BACKOFF_CAP``).
    """

    def __init__(self, name: str = "broker", *,
                 delivery_deadline="auto",
                 max_redeliveries: int = 4,
                 on_poison: str = "quarantine"):
        if delivery_deadline is None:
            delivery_deadline = "off"
        if delivery_deadline not in ("auto", "off"):
            delivery_deadline = float(delivery_deadline)
            if delivery_deadline <= 0:
                raise ValueError("delivery_deadline must be positive")
        if on_poison not in ("quarantine", "fail"):
            raise ValueError(
                f"on_poison must be 'quarantine' or 'fail', "
                f"not {on_poison!r}"
            )
        if max_redeliveries < 0:
            raise ValueError("max_redeliveries cannot be negative")
        self.name = name
        self.delivery_deadline = delivery_deadline
        self.max_redeliveries = int(max_redeliveries)
        self.on_poison = on_poison
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._edges: dict[str, _Edge] = {}
        self._tags = itertools.count(1)
        self._consumers = itertools.count(1)
        #: Consumers rejected for missing a deadline: every further op
        #: from them fails with ``DELIVERY_FENCED``.
        self._fenced: "set[int]" = set()
        #: consumer -> monotonic time of its last broker op (any op,
        #: including empty polls) — the idle-fence signal.
        self._last_op: "dict[int, float]" = {}
        #: consumer -> lifetime pulls across all edges.  Consumers that
        #: never pull (the coordinator) are exempt from idle fencing.
        self._pull_counts: "collections.Counter" = collections.Counter()
        #: consumer -> (server, stage group) for workers admitted into
        #: the running plan via :meth:`admit_worker`.
        self._admitted_by: "dict[int, tuple[str, tuple[str, ...]]]" = {}
        #: (edge, key) of the quarantine that aborted the run under the
        #: ``on_poison="fail"`` policy; None otherwise.
        self.poison_failure: "tuple[str, str] | None" = None
        self._last_service = 0.0
        #: Opaque document served to workers asking for the plan
        #: (placement doc plus whatever the coordinator adds).
        self.plan_doc: "dict | None" = None
        #: Optional ``callback(edge, key)`` fired (outside the broker
        #: lock) whenever a delivery is actually acknowledged — the
        #: durable-run ledger journals completed work through this.
        self.ack_listener = None
        #: Optional ``callback(edge, record)`` fired (outside the lock)
        #: when a key is quarantined — the run ledger journals the
        #: failure history through this.
        self.quarantine_listener = None

    def _fire(self, events) -> None:
        """Run the quarantine callbacks collected under the lock now
        that it is released."""
        for edge, record in events:
            if self.quarantine_listener is not None:
                self.quarantine_listener(edge, record)

    # ------------------------------------------------------ self-healing

    def _deadline_interval(self, e: _Edge) -> "float | None":
        """Current delivery deadline for edge ``e`` in seconds (None:
        deadlines are off)."""
        mode = self.delivery_deadline
        if mode == "off":
            return None
        if mode != "auto":
            return mode
        if e.service_ewma is None:
            # No estimate yet: only the conservative ceiling applies,
            # so a slow first chunk is never fenced spuriously.
            return _DEADLINE_MAX
        return min(_DEADLINE_MAX,
                   max(_DEADLINE_MIN, _DEADLINE_FACTOR * e.service_ewma))

    def _requeue_locked(self, e: _Edge, entries, reason: str, now: float,
                        events: list) -> None:
        """Strike and requeue unacked deliveries (``entries`` is a list
        of ``(tag, delivery)``), quarantining any that exhausted their
        redelivery budget.  Requeues are parked in ``delayed`` under
        exponential backoff; the servicing pass promotes them back to
        the *front* of the edge in original order."""
        requeued = 0
        for tag, d in entries:
            e.unacked.pop(tag, None)
            d.strikes += 1
            d.history.append(f"attempt {d.strikes}: {reason}")
            if d.strikes > self.max_redeliveries:
                self._quarantine_locked(e, d, events)
                continue
            # Fresh tag on every reissue: a fenced-but-alive worker may
            # still ack the old tag, and that must never credit work a
            # surviving replica is redoing.
            d.tag = next(self._tags)
            d.not_before = now + min(
                _BACKOFF_CAP, _BACKOFF_BASE * (2 ** (d.strikes - 1))
            )
            e.delayed.append(d)
            requeued += 1
        e.total_redelivered += requeued

    def _quarantine_locked(self, e: _Edge, d: _Delivery,
                           events: list) -> None:
        record = {"key": d.key, "strikes": d.strikes,
                  "history": list(d.history)}
        e.dead[d.key] = record
        e.total_quarantined += 1
        events.append((e.name, record))
        if self.on_poison == "fail" and self.poison_failure is None:
            self.poison_failure = (e.name, d.key)
            for other in self._edges.values():
                other.aborted = True

    def _release_locked(self, consumer: int, reason: str, now: float,
                        events: list) -> None:
        """Reassign ``consumer``'s work: its unacked deliveries are
        struck and requeued in original order, its producer slots
        released.  Death and fencing both end here."""
        for e in self._edges.values():
            owned = sorted(
                ((tag, d) for tag, (owner, d, _p, _dl) in e.unacked.items()
                 if owner == consumer),
                key=lambda td: td[1].seq,
            )
            self._requeue_locked(e, owned, reason, now, events)
            e.producers_remaining -= e.producer_owners.pop(consumer, 0)
        self._admitted_by.pop(consumer, None)
        self._cond.notify_all()

    def _fence_locked(self, consumer: int, reason: str, now: float,
                      events: list) -> None:
        """Reject every further op from ``consumer`` and reassign its
        work exactly as if its connection had died."""
        if consumer in self._fenced:
            return
        self._fenced.add(consumer)
        self._release_locked(consumer, reason, now, events)

    def _service_locked(self, now: float, events: list) -> None:
        """Opportunistic housekeeping, piggybacked on every broker op
        (workers poll constantly, so this runs at poll frequency even
        with no dedicated timer thread): promote requeued deliveries
        whose backoff elapsed, fence consumers holding overdue
        deliveries, and fence producers that went silent between
        deliveries."""
        if now - self._last_service < _SERVICE_MIN_PERIOD:
            return
        self._last_service = now
        for e in self._edges.values():
            if not e.delayed:
                continue
            due = [d for d in e.delayed if d.not_before <= now]
            if not due:
                continue
            e.delayed = [d for d in e.delayed if d.not_before > now]
            for d in sorted(due, key=lambda d: d.seq, reverse=True):
                e.pending.appendleft(d)
            e.max_depth = max(e.max_depth, len(e.pending))
            self._cond.notify_all()
        # Expiry scan: collect overdue owners first, fence after — the
        # fence mutates ``unacked`` mid-iteration otherwise.
        overdue: "dict[int, str]" = {}
        for e in self._edges.values():
            if e.aborted:
                continue
            interval = self._deadline_interval(e)
            for owner, d, pulled_at, deadline in e.unacked.values():
                eff = deadline
                if eff is None and interval is not None:
                    # Auto mode stores no deadline at pull time so a
                    # warming estimate applies retroactively.
                    eff = pulled_at + interval
                if eff is not None and now > eff:
                    e.total_expired += 1
                    overdue.setdefault(owner, (
                        f"delivery {d.key!r} on edge {e.name!r} overdue "
                        f"by {now - eff:.2f}s"
                    ))
        for owner, reason in overdue.items():
            self._fence_locked(owner, reason, now, events)
        # Idle-producer scan: a consumer that HAS pulled before, holds
        # producer slots on a still-open edge, has nothing unacked
        # anywhere, and has gone completely silent is frozen between
        # deliveries — no deadline covers it, but it blocks edge close.
        busy = {owner for ee in self._edges.values()
                for owner, _d, _p, _dl in ee.unacked.values()}
        for e in self._edges.values():
            if e.aborted or e.producers_remaining <= 0:
                continue
            interval = self._deadline_interval(e)
            if interval is None:
                continue
            threshold = _IDLE_FENCE_FACTOR * interval
            for owner, held in list(e.producer_owners.items()):
                if held <= 0 or owner in self._fenced or owner in busy:
                    continue
                if self._pull_counts.get(owner, 0) <= 0:
                    continue
                last = self._last_op.get(owner)
                if last is None or now - last <= threshold:
                    continue
                self._fence_locked(owner, (
                    f"producer on edge {e.name!r} silent for "
                    f"{now - last:.1f}s"
                ), now, events)

    def fence_consumer(self, consumer: int,
                       reason: str = "fenced by operator") -> None:
        """Manually fence a consumer (tests, admin tooling)."""
        events: list = []
        with self._cond:
            self._fence_locked(consumer, reason, time.monotonic(), events)
        self._fire(events)

    def is_fenced(self, consumer: int) -> bool:
        with self._lock:
            return consumer in self._fenced

    # ------------------------------------------------------------- edges

    def create_edge(self, name: str, capacity: int, producers: int) -> None:
        if capacity <= 0:
            raise ValueError(f"edge {name!r} capacity must be positive")
        if producers < 0:
            raise ValueError(f"edge {name!r} cannot expect {producers} producers")
        with self._lock:
            if name in self._edges:
                raise BrokerError(f"edge {name!r} already exists")
            self._edges[name] = _Edge(
                name=name, capacity=capacity, producers_remaining=producers
            )

    def _edge(self, name: str) -> _Edge:
        try:
            return self._edges[name]
        except KeyError:
            raise BrokerError(f"no edge {name!r} on broker {self.name!r}") \
                from None

    # ---------------------------------------------------------- consumers

    def register_consumer(self) -> int:
        with self._lock:
            return next(self._consumers)

    def attach_producer(self, edge: str, consumer: int) -> None:
        with self._cond:
            if consumer in self._fenced:
                # Its slots were already released at fence time; a late
                # attach must not resurrect them (or mask the real
                # failure behind a slot-accounting error).
                return
            self._last_op[consumer] = time.monotonic()
            e = self._edge(edge)
            if e.producers_remaining <= e.producer_owners.total():
                raise BrokerError(
                    f"edge {edge!r}: more producers attached than the "
                    f"{e.producers_remaining} slots declared"
                )
            e.producer_owners[consumer] += 1

    def producer_done(self, edge: str, consumer: "int | None" = None) -> None:
        with self._cond:
            if consumer is not None and consumer in self._fenced:
                return  # slots already released at fence time
            e = self._edge(edge)
            if e.producers_remaining <= 0:
                raise BrokerError(
                    f"edge {edge!r}: producer_done without outstanding "
                    f"producers"
                )
            e.producers_remaining -= 1
            if consumer is not None:
                self._last_op[consumer] = time.monotonic()
                if e.producer_owners[consumer] > 0:
                    e.producer_owners[consumer] -= 1
            self._cond.notify_all()

    def drop_consumer(self, consumer: int) -> None:
        """A worker died or disconnected: requeue its unacked deliveries
        (front of the edge, original order, after a strike + backoff)
        and release any producer slots it still held.  Harmless after a
        clean completion."""
        events: list = []
        with self._cond:
            self._release_locked(consumer, "consumer died or disconnected",
                                 time.monotonic(), events)
            self._last_op.pop(consumer, None)
        self._fire(events)

    def pre_ack(self, edge: str, keys) -> None:
        """Mark keys as already completed (durable-run resume).

        A later publish of a pre-acked key reports success without
        enqueuing a delivery, so consumers never see work a previous
        attempt finished end-to-end.
        """
        with self._cond:
            e = self._edge(edge)
            e.preacked.update(keys)
            self._cond.notify_all()

    # ----------------------------------------------------------- delivery

    def publish(self, edge: str, key: str, payload,
                timeout: float = 0.05, consumer: "int | None" = None,
                ack: "tuple[str, int] | None" = None) -> str:
        """Enqueue ``payload`` under ``key`` (waiting up to ``timeout``
        for room) and ack ``ack``, an ``(edge, tag)`` delivery, in the
        same step: the exactly-once-effective handoff between cuts.
        The ack lands only when the publish lands or the key needs no
        delivery (pre-acked or quarantined); a fenced, closed, full or
        aborted edge leaves it untouched."""
        acked = None
        events: list = []
        try:
            with self._cond:
                now = time.monotonic()
                if consumer is not None:
                    if consumer in self._fenced:
                        # The ack is deliberately NOT processed: a
                        # fenced worker's delivery was already requeued
                        # under a fresh tag, and its reissued outputs
                        # must not double-enqueue downstream.
                        return DELIVERY_FENCED
                    self._last_op[consumer] = now
                self._service_locked(now, events)
                e = self._edge(edge)
                a = None if ack is None else self._edge(ack[0])
                if e.aborted:
                    return EDGE_ABORTED
                if key in e.dead:
                    # The key was quarantined: swallow the publish so a
                    # resumed producer doesn't loop on it forever.
                    pass
                elif key in e.preacked:
                    e.preacked.discard(key)
                    e.total_preacked += 1
                else:
                    if e.producers_remaining <= 0:
                        return EDGE_CLOSED
                    if len(e.pending) >= e.capacity:
                        self._cond.wait(timeout)
                        if e.aborted:
                            return EDGE_ABORTED
                        if len(e.pending) >= e.capacity:
                            return PUBLISH_FULL
                    tag = next(self._tags)
                    e.pending.append(_Delivery(tag, key, payload, seq=tag))
                    e.total_published += 1
                    e.payload_bytes += _payload_nbytes(payload)
                    e.max_depth = max(e.max_depth, len(e.pending))
                if a is not None:
                    acked = self._ack_locked(a, ack[1], now)
                self._cond.notify_all()
        finally:
            self._fire(events)
        self._credit(a, acked)
        return PUBLISH_OK

    def pull(self, edge: str, consumer: int,
             timeout: float = 0.05) -> "tuple[str, int, str, bytes]":
        events: list = []
        try:
            with self._cond:
                now = time.monotonic()
                if consumer in self._fenced:
                    return (DELIVERY_FENCED, 0, "", b"")
                self._last_op[consumer] = now
                self._service_locked(now, events)
                e = self._edge(edge)
                if not e.pending and not e.exhausted and not e.aborted:
                    self._cond.wait(timeout)
                    now = time.monotonic()
                if e.aborted:
                    return (EDGE_ABORTED, 0, "", b"")
                if e.pending:
                    d = e.pending.popleft()
                    deadline = None
                    if self.delivery_deadline not in ("auto", "off"):
                        deadline = now + self.delivery_deadline
                    e.unacked[d.tag] = (consumer, d, now, deadline)
                    e.pulled_by[consumer] += 1
                    self._pull_counts[consumer] += 1
                    self._last_op[consumer] = now
                    self._cond.notify_all()
                    return (PULL_OK, d.tag, d.key, d.payload)
                if e.exhausted:
                    return (EDGE_CLOSED, 0, "", b"")
                return (PULL_EMPTY, 0, "", b"")
        finally:
            self._fire(events)

    def ack(self, edge: str, tag: int,
            consumer: "int | None" = None) -> None:
        events: list = []
        with self._cond:
            now = time.monotonic()
            if consumer is not None:
                if consumer in self._fenced:
                    # Stale ack from a fenced worker: the delivery was
                    # reissued under a fresh tag, nothing to credit.
                    return
                self._last_op[consumer] = now
            self._service_locked(now, events)
            e = self._edge(edge)
            acked = self._ack_locked(e, tag, now)
            self._cond.notify_all()
        self._fire(events)
        self._credit(e, acked)

    def _ack_locked(self, e: _Edge, tag: int, now: float):
        """Retire delivery ``tag``; its pull-to-ack time feeds the EWMA."""
        acked = e.unacked.pop(tag, None)
        if acked is not None:
            sample = max(0.0, now - acked[2])
            e.service_ewma = sample if e.service_ewma is None else \
                e.service_ewma + _EWMA_ALPHA * (sample - e.service_ewma)
        return acked

    def _credit(self, e: "_Edge | None", acked) -> None:
        """Outside the lock: journal an acked delivery's key."""
        if acked is not None and self.ack_listener is not None:
            self.ack_listener(e.name, acked[1].key)

    def record_wire(self, edge: str, wire_bytes: int, segments: list) -> None:
        """Credit one frame's traffic to an edge: its bytes on the
        wire and the payload ``segments`` it copied (the TCP server
        calls this; in-process transports never touch a wire)."""
        with self._lock:
            e = self._edges.get(edge)
            if e is None:
                return
            e.wire_bytes += wire_bytes
            e.copied_segments += len(segments)
            e.copied_bytes += sum(len(s) for s in segments)

    # -------------------------------------------------------------- admin

    def abort(self, edge: "str | None" = None) -> None:
        """Wake every waiter with an aborted status (error propagation
        across servers).  Without an edge name, aborts all edges."""
        with self._cond:
            targets = [self._edge(edge)] if edge is not None \
                else list(self._edges.values())
            for e in targets:
                e.aborted = True
            self._cond.notify_all()

    def wait_complete(self, timeout: "float | None" = None) -> bool:
        """Block until every edge is exhausted (or aborted).

        Polls rather than waiting passively: if every worker is stalled
        at once there is no broker op left to piggyback deadline expiry
        on, and this loop is what still fences them and promotes their
        requeued deliveries.
        """
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        while True:
            events: list = []
            with self._cond:
                now = time.monotonic()
                self._service_locked(now, events)
                done = all(e.exhausted or e.aborted
                           for e in self._edges.values())
                if not done and not events:
                    wait = 0.05
                    if deadline is not None:
                        wait = min(wait, deadline - now)
                    if wait > 0:
                        self._cond.wait(wait)
            self._fire(events)
            if done:
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False

    # ---------------------------------------------------- live admission

    def admit_worker(self, server: str, like: str,
                     consumer: "int | None" = None) -> dict:
        """Admit a late worker into the *running* plan.

        ``server`` joins the replicable stage group that ``like`` (an
        original plan member) belongs to: the group's egress edge gains
        a producer slot — it must still be open, otherwise the group
        already finished and admission is refused — and the plan
        document served to future workers gains the replica.  The
        work edge is pull-based, so rebalancing onto the newcomer is
        automatic.  Returns the updated plan document.
        """
        from repro.cluster.placement import PlacementError, PlacementPlan

        with self._cond:
            if self.plan_doc is None:
                raise BrokerError("no placement plan to admit into")
            plan = PlacementPlan.from_doc(self.plan_doc)
            try:
                new_plan = plan.with_replica(server, like=like)
            except PlacementError as exc:
                # Surface as a protocol error so a TCP admit gets a clean
                # error reply instead of a dropped connection.
                raise BrokerError(str(exc)) from exc
            placement = plan.placement_for(like)
            egress = plan.egress_edge(like)
            if egress is not None:
                e = self._edge(egress)
                if e.aborted:
                    raise BrokerError(
                        f"cannot admit {server!r}: the run has aborted"
                    )
                if e.producers_remaining <= 0:
                    raise BrokerError(
                        f"cannot admit {server!r}: edge {egress!r} is "
                        f"already closed (the stage group finished)"
                    )
                e.producers_remaining += 1
            if consumer is not None:
                self._admitted_by[consumer] = (
                    server, tuple(placement.stages)
                )
                self._last_op[consumer] = time.monotonic()
            self.plan_doc = new_plan.to_doc()
            self._cond.notify_all()
            return self.plan_doc

    def live_replicas(self, stages) -> "list[str]":
        """Servers admitted mid-run (and not since fenced or dropped)
        whose stage group matches ``stages``."""
        wanted = tuple(stages)
        with self._lock:
            return [server for server, s in self._admitted_by.values()
                    if s == wanted]

    def quarantined(self) -> "dict[str, list]":
        """Dead-letter contents: edge -> quarantine records (key,
        strikes, failure history), for edges with any."""
        with self._lock:
            return {
                name: [dict(r) for r in e.dead.values()]
                for name, e in self._edges.items() if e.dead
            }

    def stats(self) -> "dict[str, dict]":
        with self._lock:
            return {
                name: {
                    "capacity": e.capacity,
                    "pending": len(e.pending),
                    "unacked": len(e.unacked),
                    "delayed": len(e.delayed),
                    "producers_remaining": e.producers_remaining,
                    "total_published": e.total_published,
                    "total_redelivered": e.total_redelivered,
                    "total_expired": e.total_expired,
                    "total_quarantined": e.total_quarantined,
                    "quarantined": sorted(e.dead),
                    "total_preacked": e.total_preacked,
                    "max_depth": e.max_depth,
                    "aborted": e.aborted,
                    "service_ewma": e.service_ewma,
                    "pulls_by_consumer": {
                        str(c): n for c, n in sorted(e.pulled_by.items())
                    },
                    "payload_bytes": e.payload_bytes,
                    "wire_bytes": e.wire_bytes,
                    "copied_segments": e.copied_segments,
                    "copied_bytes": e.copied_bytes,
                }
                for name, e in self._edges.items()
            }


class LocalBrokerClient:
    """The in-process reference transport: direct calls into the broker.

    Implements :class:`repro.dataflow.queues.QueueTransport`.
    """

    def __init__(self, broker: Broker):
        self.broker = broker
        self.consumer = broker.register_consumer()
        self._closed = False

    def attach_producer(self, edge: str) -> None:
        self.broker.attach_producer(edge, self.consumer)

    def producer_done(self, edge: str) -> None:
        self.broker.producer_done(edge, self.consumer)

    def publish(self, edge: str, key: str, payload,
                timeout: float = 0.05,
                ack: "tuple[str, int] | None" = None) -> str:
        return self.broker.publish(
            edge, key, payload, timeout=timeout, consumer=self.consumer,
            ack=ack,
        )

    def pull(self, edge: str, timeout: float = 0.05):
        return self.broker.pull(edge, self.consumer, timeout=timeout)

    def ack(self, edge: str, tag: int) -> None:
        self.broker.ack(edge, tag, consumer=self.consumer)

    def abort(self, edge: str) -> None:
        self.broker.abort(edge)

    def admit(self, server: str, like: str) -> dict:
        return self.broker.admit_worker(
            server, like, consumer=self.consumer
        )

    def quarantined_keys(self) -> "set[str]":
        """Keys dead-lettered on any edge — consumers use this to
        distinguish an authorized hole (poison chunk) from data loss."""
        return {
            record["key"]
            for records in self.broker.quarantined().values()
            for record in records
        }

    def plan(self) -> "dict | None":
        return self.broker.plan_doc

    def close(self) -> None:
        """Disconnect: requeues unacked deliveries, releases producer
        slots.  A no-op burden after clean completion (nothing unacked,
        all slots released by producer_done)."""
        if not self._closed:
            self._closed = True
            self.broker.drop_consumer(self.consumer)


# ---------------------------------------------------------------------------
# TCP transport: a scatter/gather request/response protocol.
#
# Frame layout (both directions):
#
#     !II        header_length, segment_count
#     header     UTF-8 JSON ({"op": ..., "edge": ..., ...})
#     !I × n     per-segment byte lengths
#     segments   opaque bytes, written with ``sendmsg`` straight from the
#                caller's buffer list and read as one immutable ``bytes``
#                each (``_recv_segment``) — large AGD columns never pay a
#                pack/concat copy on either end.
#
# The header's "multi" flag records whether the logical payload was a
# segment list or one blob.

_FRAME = struct.Struct("!II")
_SEGLEN = struct.Struct("!I")

#: Sanity caps: anything beyond these is a corrupt or hostile frame, and
#: the connection surfaces a clean WireError instead of struct garbage.
_MAX_HEAD_BYTES = 1 << 20
_MAX_SEGMENTS = 4096
_MAX_SEGMENT_BYTES = 1 << 30
#: Longest a request may ask the server to block, in seconds (the
#: client's socket gives up then too).
_MAX_OP_TIMEOUT = 60.0

_HAS_SENDMSG = hasattr(socket.socket, "sendmsg")


def _sendmsg_all(sock: socket.socket, buffers) -> None:
    """Write a buffer list fully, handling partial ``sendmsg`` returns."""
    views = [memoryview(b) for b in buffers if len(b)]
    if not views:
        return
    if not _HAS_SENDMSG:  # pragma: no cover - exotic platforms
        sock.sendall(b"".join(views))
        return
    while views:
        sent = sock.sendmsg(views)
        while sent > 0 and views:
            if sent >= len(views[0]):
                sent -= len(views[0])
                views.pop(0)
            else:
                views[0] = views[0][sent:]
                sent = 0


def _send_frame(sock: socket.socket, header: dict, segments=()) -> int:
    """Send one frame from a segment list; returns bytes put on the wire."""
    head = json.dumps(header).encode()
    prefix = b"".join(
        (_FRAME.pack(len(head), len(segments)), head,
         *(_SEGLEN.pack(len(s)) for s in segments))
    )
    _sendmsg_all(sock, [prefix, *segments])
    return len(prefix) + sum(len(s) for s in segments)


def _recv_exact(sock: socket.socket, n: int,
                at_frame_start: bool = False) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            if at_frame_start and not buf:
                # Peer closed cleanly between frames.
                raise ConnectionError("broker connection closed")
            raise WireError("broker connection truncated mid-frame")
        buf.extend(chunk)
    return bytes(buf)


def _recv_frame(sock: socket.socket) -> "tuple[dict, list, int]":
    """Read one frame; returns (header, segments, wire_bytes)."""
    head_len, seg_count = _FRAME.unpack(
        _recv_exact(sock, _FRAME.size, at_frame_start=True)
    )
    if head_len > _MAX_HEAD_BYTES:
        raise WireError(
            f"frame header of {head_len} bytes exceeds the "
            f"{_MAX_HEAD_BYTES}-byte sanity cap"
        )
    if seg_count > _MAX_SEGMENTS:
        raise WireError(
            f"frame with {seg_count} segments exceeds the "
            f"{_MAX_SEGMENTS}-segment sanity cap"
        )
    try:
        header = json.loads(_recv_exact(sock, head_len).decode())
    except (UnicodeDecodeError, ValueError) as exc:
        raise WireError(f"undecodable frame header: {exc}") from None
    if not isinstance(header, dict):
        raise WireError("frame header is not a JSON object")
    wire = _FRAME.size + head_len
    lengths = []
    if seg_count:
        raw = _recv_exact(sock, _SEGLEN.size * seg_count)
        wire += len(raw)
        for i in range(seg_count):
            (n,) = _SEGLEN.unpack_from(raw, i * _SEGLEN.size)
            if n > _MAX_SEGMENT_BYTES:
                raise WireError(
                    f"{n}-byte segment exceeds the "
                    f"{_MAX_SEGMENT_BYTES}-byte sanity cap"
                )
            lengths.append(n)
    segments = [_recv_segment(sock, n) for n in lengths]
    return header, segments, wire + sum(lengths)


def _recv_segment(sock: socket.socket, n: int) -> bytes:
    """One payload segment as immutable ``bytes``: normally one
    ``MSG_WAITALL`` read, the segment's only copy, which a decoded
    column may then keep as its storage.  A short read (a socket with a
    timeout returns what has arrived) reads the rest and joins it."""
    data = sock.recv(n, socket.MSG_WAITALL) if n else b""
    if len(data) < n:
        data += _recv_exact(sock, n - len(data))
    return data


_REQUIRED = object()


def _field(header: dict, name: str, kind, default=_REQUIRED):
    """One request field, type-checked (null counts as absent).  A
    missing or ill-typed field is a :class:`BrokerError`, so the peer
    gets an error reply on a connection that goes on serving."""
    value = header.get(name)
    if value is None:
        if default is _REQUIRED:
            raise BrokerError(f"request field {name!r} is missing")
        return default
    if isinstance(value, bool) or not isinstance(value, kind):
        raise BrokerError(f"request field {name!r} is ill-typed: {value!r}")
    return value


def _as_segments(payload) -> "tuple[bool, list]":
    """Normalize a delivery payload to (multi, segment list)."""
    if isinstance(payload, list):
        return True, payload
    return False, ([payload] if payload else [])


def _from_segments(multi: bool, segments: list):
    if multi:
        return segments
    return segments[0] if segments else b""


class BrokerServer:
    """Serves a :class:`Broker` over TCP (thread per connection).

    A connection is one worker-side client: the server assigns it a
    consumer id at accept time and calls :meth:`Broker.drop_consumer`
    when the socket dies — so over TCP, worker death detection is the
    transport itself, no heartbeats needed.  Every payload segment is
    copied through the socket, in both directions.
    """

    def __init__(self, broker: Broker, host: str = "127.0.0.1",
                 port: int = 0):
        self.broker = broker
        self._sock = socket.create_server((host, port))
        self.host, self.port = self._sock.getsockname()[:2]
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="broker-accept", daemon=True
        )
        self._conn_lock = threading.Lock()
        self._conn_cond = threading.Condition(self._conn_lock)
        self._active_connections = 0

    @property
    def address(self) -> "tuple[str, int]":
        return (self.host, self.port)

    def start(self) -> "BrokerServer":
        self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return  # listener closed
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="broker-conn", daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _serve_connection(self, conn: socket.socket) -> None:
        consumer = self.broker.register_consumer()
        with self._conn_cond:
            self._active_connections += 1
        try:
            with conn:
                while True:
                    try:
                        header, segments, recv_wire = _recv_frame(conn)
                    except (ConnectionError, WireError, OSError):
                        return
                    try:
                        reply, body = self._dispatch(
                            consumer, header, segments, recv_wire
                        )
                    except BrokerError as exc:
                        reply, body = {"status": "error",
                                       "error": str(exc)}, []
                    try:
                        sent = _send_frame(conn, reply, body)
                    except OSError:
                        return
                    if header.get("op") == "pull" \
                            and reply["status"] == PULL_OK:
                        self.broker.record_wire(header["edge"], sent, body)
        finally:
            self.broker.drop_consumer(consumer)
            with self._conn_cond:
                self._active_connections -= 1
                self._conn_cond.notify_all()

    def _dispatch(self, consumer: int, header: dict, segments: list,
                  recv_wire: int) -> "tuple[dict, list]":
        op = header.get("op")
        edge = _field(header, "edge", str, "")
        timeout = _field(header, "timeout", (int, float), 0.05)
        if not 0 <= timeout <= _MAX_OP_TIMEOUT:
            raise BrokerError(f"timeout {timeout!r} outside "
                              f"[0, {_MAX_OP_TIMEOUT:g}] s")
        if op == "hello":
            return {"status": PULL_OK, "consumer": consumer,
                    "plan": self.broker.plan_doc}, []
        if op == "publish":
            key = _field(header, "key", str, "")
            ack = _field(header, "ack", list, None)
            if ack is not None:
                if (len(ack) != 2 or not isinstance(ack[0], str)
                        or type(ack[1]) is not int):
                    raise BrokerError(f"request field 'ack' is not "
                                      f"[edge, tag]: {ack!r}")
                ack = tuple(ack)
            status = self.broker.publish(
                edge, key, _from_segments(bool(header.get("multi")),
                                          segments),
                timeout=timeout, consumer=consumer, ack=ack,
            )
            self.broker.record_wire(edge, recv_wire, segments)
            return {"status": status}, []
        if op == "pull":
            status, tag, key, payload = self.broker.pull(
                edge, consumer, timeout=timeout
            )
            reply = {"status": status, "tag": tag, "key": key}
            if status != PULL_OK:
                return reply, []
            multi, body = _as_segments(payload)
            reply["multi"] = multi
            return reply, body
        if op == "ack":
            tag = _field(header, "tag", int)
            self.broker.ack(edge, tag, consumer=consumer)
            return {"status": PULL_OK}, []
        if op == "attach":
            self.broker.attach_producer(edge, consumer)
            return {"status": PULL_OK}, []
        if op == "done":
            self.broker.producer_done(edge, consumer)
            return {"status": PULL_OK}, []
        if op == "abort":
            self.broker.abort(edge or None)
            return {"status": PULL_OK}, []
        if op == "admit":
            plan = self.broker.admit_worker(
                _field(header, "server", str), _field(header, "like", str),
                consumer=consumer,
            )
            return {"status": PULL_OK, "plan": plan}, []
        if op == "stats":
            return {"status": PULL_OK, "stats": self.broker.stats()}, []
        raise BrokerError(f"unknown op {op!r}")

    def wait_connections_closed(self, timeout: "float | None" = None) -> bool:
        """Block until every worker connection has disconnected.

        A broker must outlive its workers' *sessions*, not just the
        data: a worker only learns an edge is exhausted by polling, so
        stopping the server the instant the last chunk drains would
        reset sockets mid-close.  Workers close their client connection
        when their session ends; wait for that before :meth:`stop`.
        """
        with self._conn_cond:
            return self._conn_cond.wait_for(
                lambda: self._active_connections == 0, timeout
            )

    def stop(self) -> None:
        self._stop.set()
        try:
            self._sock.close()
        except OSError:
            pass


class TcpBrokerClient:
    """Worker-side TCP transport (one lock-serialized connection).

    Payload segments cross the socket as the edge's serializer encoded
    them; the transport adds no codec of its own.
    """

    def __init__(self, host: str, port: int):
        self._sock = socket.create_connection((host, port), timeout=10.0)
        # Per-op deadline guard: every broker op is short-blocking, so a
        # response always arrives promptly unless the broker is gone.
        self._sock.settimeout(_MAX_OP_TIMEOUT)
        self._lock = threading.Lock()
        #: Held while queueing for ``_lock``.  A plain lock is not fair:
        #: a source looping on 50 ms long-polls re-takes it microseconds
        #: after each release, and a publish or ack from another thread
        #: starves for seconds.  Whoever waits for ``_lock`` holds
        #: ``_queue``, so the thread that just released cannot re-enter
        #: ahead of it.
        self._queue = threading.Lock()
        self._closed = False
        hello = self._request({"op": "hello"})[0]
        self.consumer = hello.get("consumer")
        self.plan_doc = hello.get("plan")

    def _request(self, header: dict,
                 segments=()) -> "tuple[dict, list]":
        with self._queue:
            self._lock.acquire()
        try:
            if self._closed:
                raise ConnectionError("broker client closed")
            _send_frame(self._sock, header, segments)
            reply, body, _wire = _recv_frame(self._sock)
        finally:
            self._lock.release()
        if reply.get("status") == "error":
            raise BrokerError(reply.get("error", "broker error"))
        return reply, body

    # ------------------------------------------------- QueueTransport API

    def attach_producer(self, edge: str) -> None:
        self._request({"op": "attach", "edge": edge})

    def producer_done(self, edge: str) -> None:
        self._request({"op": "done", "edge": edge})

    def publish(self, edge: str, key: str, payload,
                timeout: float = 0.05,
                ack: "tuple[str, int] | None" = None) -> str:
        """See :meth:`Broker.publish`."""
        multi, segments = _as_segments(payload)
        header = {"op": "publish", "edge": edge, "key": key,
                  "multi": multi, "timeout": timeout}
        if ack is not None:
            header["ack"] = list(ack)
        reply, _ = self._request(header, segments)
        return reply["status"]

    def pull(self, edge: str, timeout: float = 0.05):
        reply, body = self._request(
            {"op": "pull", "edge": edge, "timeout": timeout}
        )
        status = reply["status"]
        if status != PULL_OK:
            return (status, 0, "", b"")
        payload = _from_segments(bool(reply.get("multi")), body)
        return (status, reply["tag"], reply["key"], payload)

    def ack(self, edge: str, tag: int) -> None:
        self._request({"op": "ack", "edge": edge, "tag": tag})

    def abort(self, edge: str) -> None:
        self._request({"op": "abort", "edge": edge})

    def admit(self, server: str, like: str) -> dict:
        """Join the running plan as a replica of ``like``'s stage group
        (see :meth:`Broker.admit_worker`); returns — and adopts — the
        updated plan document."""
        reply, _ = self._request(
            {"op": "admit", "server": server, "like": like}
        )
        self.plan_doc = reply.get("plan")
        return self.plan_doc

    def quarantined_keys(self) -> "set[str]":
        """Keys dead-lettered on any edge (from the broker's stats)."""
        return {
            key
            for stat in self.stats().values()
            for key in stat.get("quarantined", ())
        }

    def plan(self) -> "dict | None":
        return self.plan_doc

    def stats(self) -> dict:
        return self._request({"op": "stats"})[0]["stats"]

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._sock.close()
            except OSError:
                pass
