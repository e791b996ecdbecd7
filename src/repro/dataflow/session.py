"""Session: executes a dataflow graph on worker threads (§4, §5.2).

"All execution uses the TensorFlow direct session, unmodified."  Our
direct-session analog propagates queue closure from sources to sinks,
aborts the whole graph on the first kernel error, and returns per-node
statistics.

Threads go to what can run in parallel.  Kernels hold the GIL, so two of
them on two threads take turns and pay for every hand-off; a queue with
one producer and one consumer, both single-replica, is therefore elided
at :meth:`Session.run` and the consumer runs on the producer's thread
(:attr:`Node.inline_next`): a *chain*, one thread, named after its head.
Sources keep their thread and their queue — they block on the outside
world, and the queue is their prefetch buffer — and so does every
replicated kernel.  The one stretch of a run that needs no interpreter,
deflating and writing the merge's output chunks, goes to the session's
:class:`~repro.dataflow.lane.WriteBehindLane`.  The graph alone decides
all of this.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.dataflow.backends import Backend
from repro.dataflow.errors import (
    PipelineAborted,
    PipelineError,
    QueueClosed,
    WorkerFenced,
)
from repro.dataflow.graph import Graph
from repro.dataflow.lane import WriteBehindLane
from repro.dataflow.node import Node, bind_thread
from repro.dataflow.resources import ResourceManager


@dataclass
class NodeContext:
    """What a kernel replica sees while running."""

    resources: ResourceManager
    stats_lock: threading.Lock
    replica: int = 0
    #: The session's write-behind lane (None outside a session).
    lane: "WriteBehindLane | None" = None
    #: The node running on this replica's thread right now; after a
    #: failure, the node that raised.
    executing: "Node | None" = None

    def backend(self, handle: str = "executor") -> Backend:
        """Resolve an execution backend from the session resource registry.

        Compute kernels are backend-agnostic: the registry holds a
        :class:`~repro.dataflow.backends.Backend` (serial or process),
        returned as is; anything else is a ``TypeError``.
        In-process backends additionally see the whole resource registry
        as their shared mapping, so task functions can look up resources
        by handle.
        """
        resource = self.resources.get(handle)
        if not isinstance(resource, Backend):
            raise TypeError(f"cannot use {type(resource).__name__} as an "
                            f"execution backend")
        return resource


@dataclass
class SessionResult:
    """Outcome of one graph execution."""

    wall_seconds: float
    report: dict

    @property
    def stage_report(self) -> "dict[str, dict]":
        """Per-stage aggregate node stats (composed pipelines only).

        Stages of a composed graph run concurrently — chunks stream
        through all of them at once — so a stage's cost is its summed
        node busy time, not a wall-clock slice.  When the session
        sampled queue depths, each stage entry also carries a
        ``queue_trace`` of its queues' depth-over-time series.
        """
        return self.report.get("stages", {})


class _QueueDepthSampler:
    """Samples every queue's depth over time (§4.6: TF exposes "current
    queue states"; this records them as a trace).

    A daemon thread polls ``len(queue)`` on a fixed period.  The sample
    buffer is bounded: when it fills, every other sample is dropped and
    the effective period doubles, so an arbitrarily long run keeps a
    fixed-size, evenly-spaced trace.
    """

    def __init__(self, queues, interval: float, max_samples: int = 512):
        if interval <= 0:
            raise ValueError("queue sample interval must be positive")
        self._queues = list(queues)
        self.interval = float(interval)
        self.max_samples = max_samples
        self._times: list[float] = []
        self._depths: dict[str, list[int]] = {q.name: [] for q in self._queues}
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="queue-depth-sampler", daemon=True
        )
        self._start_time = 0.0

    def start(self) -> None:
        self._start_time = time.monotonic()
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(5.0)

    def _run(self) -> None:
        period = self.interval
        while not self._stop.wait(period):
            now = time.monotonic() - self._start_time
            self._times.append(round(now, 6))
            for q in self._queues:
                self._depths[q.name].append(len(q))
            if len(self._times) >= self.max_samples:
                self._times = self._times[::2]
                for name in self._depths:
                    self._depths[name] = self._depths[name][::2]
                period *= 2.0
        self._effective_interval = period

    def trace(self) -> dict:
        return {
            "interval_seconds": getattr(
                self, "_effective_interval", self.interval
            ),
            "times": list(self._times),
            "depths": {name: list(d) for name, d in self._depths.items()},
        }


class Session:
    """Runs a graph to completion.

    ``queue_sample_interval`` enables per-queue depth sampling for the
    duration of the run; the trace lands in ``report["queue_trace"]``
    and is sliced per stage into ``report["stages"]`` (composed
    pipelines), for backpressure analysis.  None (the default) starts
    no sampler thread.
    """

    def __init__(
        self,
        graph: Graph,
        queue_sample_interval: "float | None" = None,
    ):
        self.graph = graph
        self.queue_sample_interval = queue_sample_interval
        self._failure: "tuple[str, BaseException] | None" = None
        self._failure_lock = threading.Lock()

    def _fail(self, node: Node, exc: BaseException) -> None:
        """Record the run's first failure, against ``node``, and abort."""
        with self._failure_lock:
            if self._failure is None:
                self._failure = (node.name, exc)
        node.stats.errors.append(repr(exc))
        self.graph.abort()

    def _chain(self) -> "list[Node]":
        """Elide every queue that cannot buy parallelism — one producer
        and one consumer, single-replica both, the producer not a source
        — by chaining its consumer onto its producer.  Returns the nodes
        that still get threads: sources, replicated kernels, chain
        heads."""
        nodes = self.graph.nodes
        inlined: "set[int]" = set()
        for q in self.graph.queues:
            producers = [n for n in nodes if n.output is q]
            consumers = [n for n in nodes if n.input is q]
            if len(producers) != 1 or len(consumers) != 1:
                continue
            producer, consumer = producers[0], consumers[0]
            if producer.parallelism == consumer.parallelism == 1 \
                    and producer.input is not None \
                    and producer is not consumer:
                producer.inline_next = consumer
                q.inline = True
                inlined.add(id(consumer))
        return [n for n in nodes if id(n) not in inlined]

    def _replica_main(self, node: Node, ctx: NodeContext) -> None:
        bind_thread(ctx)
        try:
            node.run_replica(ctx)
        except WorkerFenced as exc:
            # The broker revoked this worker's deliveries.  Although it
            # subclasses PipelineAborted (so transports unwind the same
            # way), a fence is a *failure* of this session: record it
            # and abort, or kernels upstream of the fenced endpoint
            # would block forever on queues nobody drains.
            self._fail(ctx.executing or node, exc)
        except QueueClosed:
            # Normal shutdown (downstream closed first); producer_done
            # below still runs.
            pass
        except PipelineAborted:
            # Possibly another server's abort arriving over a broker
            # edge: spread it, or kernels upstream of that endpoint
            # block forever on queues nobody drains.
            self.graph.abort()
        except BaseException as exc:
            self._fail(ctx.executing or node, exc)
        finally:
            for member in node.chain():
                if member.output is not None:
                    try:
                        member.output.producer_done()
                    except RuntimeError:
                        pass  # queue force-closed during abort

    def run(self, timeout: "float | None" = None) -> SessionResult:
        """Execute until all kernels finish; raises PipelineError on failure."""
        self.graph.validate()
        heads = self._chain()
        sampler: "_QueueDepthSampler | None" = None
        if self.queue_sample_interval is not None:
            # An elided queue holds nothing to sample.
            sampler = _QueueDepthSampler(
                [q for q in self.graph.queues if not q.inline],
                self.queue_sample_interval,
            )
        stats_lock = threading.Lock()
        lane = WriteBehindLane(f"{self.graph.name}.lane",
                               on_error=self._fail)
        threads: "list[tuple[threading.Thread, NodeContext]]" = []
        started_at = time.time()  # wall clock, for provenance records
        start = time.monotonic()
        for node in heads:
            for replica in range(node.parallelism):
                ctx = NodeContext(
                    resources=self.graph.resources,
                    stats_lock=stats_lock,
                    replica=replica,
                    lane=lane,
                )
                thread = threading.Thread(
                    target=self._replica_main,
                    args=(node, ctx),
                    name=f"{self.graph.name}.{node.name}.{replica}",
                    daemon=True,
                )
                threads.append((thread, ctx))
        if sampler is not None:
            sampler.start()
        try:
            for thread, _ctx in threads:
                thread.start()
            deadline = None if timeout is None else start + timeout
            for thread, ctx in threads:
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    self.graph.abort()
                    raise TimeoutError(
                        f"session {self.graph.name!r} exceeded {timeout}s"
                    )
                thread.join(remaining)
                if thread.is_alive():
                    stuck = ctx.executing
                    self.graph.abort()
                    thread.join(5.0)
                    raise TimeoutError(
                        f"session {self.graph.name!r} exceeded {timeout}s "
                        f"(stuck in {thread.name}"
                        + (f", node {stuck.name!r})" if stuck else ")")
                    )
        finally:
            # Every chain is done or aborted; nothing submits any more.
            lane.close(timeout=5.0)
            if sampler is not None:
                sampler.stop()
        wall = time.monotonic() - start
        if self._failure is not None:
            node_name, cause = self._failure
            raise PipelineError(node_name, cause) from cause
        report = self.graph.stats_report()
        # Wall-clock bounds so provenance ledgers can place this session
        # in time (monotonic wall_seconds covers only the duration).
        report["started_at"] = started_at
        report["finished_at"] = started_at + wall
        if sampler is not None:
            trace = sampler.trace()
            report["queue_trace"] = trace
            # Slice the trace per stage (queue names are stage-prefixed
            # by Graph.merge) so stage_report carries its own series.
            for stage, agg in report.get("stages", {}).items():
                agg["queue_trace"] = {
                    name: depths
                    for name, depths in trace["depths"].items()
                    if name.startswith(f"{stage}.")
                }
        return SessionResult(wall_seconds=wall, report=report)
