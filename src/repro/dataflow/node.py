"""Dataflow kernels (§4).

"The major functions of the system — I/O, computation, and system
management — are separated into dataflow kernels.  Each kernel can be
mapped to available hardware resources."  A :class:`Node` is one kernel;
the session runs ``parallelism`` replicas of it, each pulling items from
the node's input queue and pushing results downstream.  "Dataflow
semantics mean that independent tasks always execute in parallel" — but
kernels that hold the GIL cannot, so a node whose output queue the
session elided (:attr:`Node.inline_next`) hands each item straight to
its consumer's ``process`` on its own thread: the stage boundary stays,
the thread boundary goes.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from repro.dataflow.errors import QueueClosed
from repro.dataflow.queues import Queue

if TYPE_CHECKING:  # pragma: no cover
    from repro.dataflow.session import NodeContext


_thread = threading.local()


def bind_thread(ctx) -> None:
    """Declare that the calling thread runs kernels under ``ctx`` (a
    :class:`~repro.dataflow.session.NodeContext`, or anything else with
    an ``executing`` attribute)."""
    _thread.ctx = ctx


def executing_node() -> "Node | None":
    """The node whose ``process`` / ``finalize`` (or write-behind job)
    the calling thread is running; None outside a session."""
    return getattr(getattr(_thread, "ctx", None), "executing", None)


@dataclass
class NodeStats:
    """Per-node runtime statistics (TF-style node-level profiling, §4.6).

    ``busy_seconds`` is time inside the node's own ``process`` /
    ``finalize`` calls — self time, also for a node chained onto its
    producer's thread.  ``wait_seconds`` is time blocked on the node's
    queues; a chained node has no input queue to wait on.
    """

    items_in: int = 0
    items_out: int = 0
    busy_seconds: float = 0.0
    wait_seconds: float = 0.0
    replicas: int = 1
    errors: list[str] = field(default_factory=list)
    #: Free-form node counters (memory-plane accounting: spill/result
    #: view bytes, decode copies, ...).  Surfaced per node and summed
    #: per stage by ``Graph.stats_report`` when non-empty.
    counters: dict = field(default_factory=dict)

    def add_counters(self, extra: "dict | None") -> None:
        """Accumulate counter deltas (int/float values sum; other value
        types overwrite)."""
        for key, value in (extra or {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                self.counters[key] = self.counters.get(key, 0) + value
            else:
                self.counters[key] = value

    @property
    def total_seconds(self) -> float:
        return self.busy_seconds + self.wait_seconds


class Node:
    """Base dataflow kernel.

    Subclasses implement :meth:`generate` (sources) or :meth:`process`
    (transforms); :meth:`finalize` runs once per replica after the input
    is exhausted (for flush/merge stages); :meth:`setup` runs before any
    items flow and may acquire resources by handle.
    """

    def __init__(self, name: str, parallelism: int = 1):
        if parallelism <= 0:
            raise ValueError(f"node {name!r} parallelism must be positive")
        self.name = name
        self.parallelism = parallelism
        self.input: "Queue | None" = None
        self.output: "Queue | None" = None
        #: The consumer of ``output`` when the session elided that queue
        #: (``Session.run``): its ``process`` runs on this node's thread.
        self.inline_next: "Node | None" = None
        self.stats = NodeStats(replicas=parallelism)

    # --------------------------------------------------------- subclass API

    def setup(self, ctx: "NodeContext") -> None:
        """Per-replica initialization (resource lookup, file opening)."""

    def generate(self, ctx: "NodeContext") -> Iterator[Any]:
        """Source kernels yield items here."""
        raise NotImplementedError(
            f"node {self.name!r} has no input queue and no generate()"
        )

    def process(self, item: Any, ctx: "NodeContext") -> "Iterable[Any] | None":
        """Transform one item into zero or more output items."""
        raise NotImplementedError(
            f"node {self.name!r} has an input queue but no process()"
        )

    def finalize(self, ctx: "NodeContext") -> "Iterable[Any] | None":
        """Flush stage run once per replica after input exhaustion."""
        return None

    # ----------------------------------------------------------- run loops

    def chain(self) -> "Iterator[Node]":
        """This node and the nodes chained behind it, head first."""
        node: "Node | None" = self
        while node is not None:
            yield node
            node = node.inline_next

    def run_replica(self, ctx: "NodeContext") -> None:
        """One replica's main loop (invoked on a session thread); a
        chain head runs its whole chain."""
        for node in self.chain():
            ctx.executing = node
            node.setup(ctx)
        ctx.executing = self
        if self.input is None:
            self._run_source(ctx)
        else:
            self._run_transform(ctx)

    def _emit(self, ctx: "NodeContext", items: "Iterable[Any] | None") -> None:
        if items is None:
            return
        for item in items:
            if self.output is None:
                raise RuntimeError(
                    f"node {self.name!r} emitted an item but has no output"
                )
            if self.inline_next is not None:
                self.output.total_enqueued += 1
                self.inline_next._accept(item, ctx)
                # Back in this node (``items`` may be its generator).
                ctx.executing = self
            else:
                wait_start = time.monotonic()
                self.output.put(item)
                self._add_wait(time.monotonic() - wait_start)
            with ctx.stats_lock:
                self.stats.items_out += 1

    def _add_busy(self, seconds: float) -> None:
        self.stats.busy_seconds += seconds

    def _add_wait(self, seconds: float) -> None:
        self.stats.wait_seconds += seconds

    def _run_source(self, ctx: "NodeContext") -> None:
        for item in self.generate(ctx):
            self._emit(ctx, [item])
            with ctx.stats_lock:
                self.stats.items_in += 1

    def _accept(self, item: Any, ctx: "NodeContext") -> None:
        """One item through ``process`` and on downstream: the body of a
        replica's loop, and what a chained producer calls where it would
        have queued the item.  ``ctx.executing`` is left on the node
        that raised, which is how a failure inside a chain is
        attributed."""
        with ctx.stats_lock:
            self.stats.items_in += 1
        ctx.executing = self
        busy_start = time.monotonic()
        try:
            out = self.process(item, ctx)
        finally:
            self._add_busy(time.monotonic() - busy_start)
        self._emit(ctx, out)

    def _finish(self, ctx: "NodeContext") -> None:
        """``finalize`` this node, then the chain behind it: each node
        flushes only after everything upstream of it has."""
        ctx.executing = self
        busy_start = time.monotonic()
        try:
            tail = self.finalize(ctx)
        finally:
            self._add_busy(time.monotonic() - busy_start)
        self._emit(ctx, tail)
        if self.inline_next is not None:
            self.inline_next._finish(ctx)

    def _run_transform(self, ctx: "NodeContext") -> None:
        assert self.input is not None
        while True:
            wait_start = time.monotonic()
            try:
                item = self.input.get()
            except QueueClosed:
                self._add_wait(time.monotonic() - wait_start)
                break
            self._add_wait(time.monotonic() - wait_start)
            self._accept(item, ctx)
        self._finish(ctx)


class LambdaNode(Node):
    """A transform kernel from a plain function (testing / glue)."""

    def __init__(self, name: str, fn, parallelism: int = 1):
        super().__init__(name, parallelism)
        self._fn = fn

    def process(self, item: Any, ctx: "NodeContext") -> "Iterable[Any] | None":
        result = self._fn(item)
        return None if result is None else [result]


class IterableSource(Node):
    """A source kernel yielding the items of a Python iterable."""

    def __init__(self, name: str, items: Iterable[Any]):
        super().__init__(name, parallelism=1)
        self._items = items

    def generate(self, ctx: "NodeContext") -> Iterator[Any]:
        yield from self._items


class CollectSink(Node):
    """A sink kernel that gathers all inputs into ``self.collected``."""

    def __init__(self, name: str = "sink"):
        super().__init__(name, parallelism=1)
        self.collected: list[Any] = []

    def process(self, item: Any, ctx: "NodeContext") -> None:
        self.collected.append(item)
        return None
