"""Dataflow graph assembly (§4.1).

"Individual dataflow nodes and queues can be stitched together using the
Python API however the user desires."  A :class:`Graph` owns nodes, the
queues between them, and shared resources; :class:`repro.dataflow.session.
Session` executes it.
"""

from __future__ import annotations

from typing import Any

from repro.dataflow.node import Node
from repro.dataflow.queues import Queue
from repro.dataflow.resources import Handle, ResourceManager


class GraphError(ValueError):
    """Raised for malformed graph wiring."""


class Graph:
    """A set of kernels wired by bounded queues."""

    def __init__(self, name: str = "graph"):
        self.name = name
        self.nodes: list[Node] = []
        self.queues: list[Queue] = []
        self.resources = ResourceManager()
        self._node_names: set[str] = set()
        self._queue_names: set[str] = set()
        #: Node name -> pipeline stage label; populated by :meth:`merge`
        #: (and directly by composition layers) so :meth:`stats_report`
        #: can aggregate per stage.
        self.node_stages: dict[str, str] = {}
        #: Queue endpoints owned by other systems (remote broker edges)
        #: that kernels of this graph block on; :meth:`abort` wakes them
        #: too, but they are not validated or closed like local queues.
        self.external_endpoints: list[Any] = []

    # --------------------------------------------------------------- build

    def queue(self, name: str, capacity: int) -> Queue:
        """Create a bounded queue.

        §4.5 guidance on capacity: "default queue lengths are set to the
        number of parallel downstream nodes they feed" — callers pass that
        number here.
        """
        if name in self._queue_names:
            raise GraphError(f"duplicate queue name {name!r}")
        q: Queue = Queue(name, capacity)
        self._queue_names.add(name)
        self.queues.append(q)
        return q

    def add(
        self,
        node: Node,
        input: "Queue | None" = None,
        output: "Queue | None" = None,
    ) -> Node:
        """Add a kernel, wiring its input/output queues."""
        if node.name in self._node_names:
            raise GraphError(f"duplicate node name {node.name!r}")
        for q, label in ((input, "input"), (output, "output")):
            if q is not None and q not in self.queues:
                raise GraphError(
                    f"node {node.name!r} {label} queue {q.name!r} "
                    f"does not belong to this graph"
                )
        node.input = input
        node.output = output
        if output is not None:
            # Every replica is a producer; the queue closes when all done.
            for _ in range(node.parallelism):
                output.register_producer()
        self._node_names.add(node.name)
        self.nodes.append(node)
        return node

    def register_resource(self, name: str, resource: Any) -> Handle:
        return self.resources.register(name, resource)

    def attach_endpoint(self, endpoint: Any) -> Any:
        """Track an external queue endpoint (e.g. a RemoteQueue over a
        broker edge) so :meth:`abort` wakes kernels blocked on it."""
        self.external_endpoints.append(endpoint)
        return endpoint

    # ---------------------------------------------------------- composition

    def merge(
        self,
        other: "Graph",
        prefix: "str | None" = None,
        stage: "str | None" = None,
    ) -> None:
        """Absorb another graph's nodes, queues, and resources.

        Node and queue names are rewritten to ``{prefix}.{name}`` when a
        prefix is given, so independently-built subgraphs with clashing
        local names (every alignment stage calls its reader "reader") can
        coexist in one namespace.  Resource names are *not* rewritten —
        kernels hold resource handles by value, so renaming would orphan
        them; instead identical objects registered under the same name
        (e.g. one execution backend shared by all stages) deduplicate,
        and a true name collision is an error.

        ``stage`` (default: the prefix) labels the merged nodes for the
        per-stage section of :meth:`stats_report`.

        Merging consumes the donor: its nodes and queues are renamed in
        place and now belong to this graph, so a donor cannot be merged
        twice (no double-prefixed names, no objects shared between two
        graphs).  All names are validated before anything is mutated, so
        a failed merge leaves both graphs untouched.
        """
        if getattr(other, "_merged_into", None) is not None:
            raise GraphError(
                f"graph {other.name!r} was already merged into "
                f"{other._merged_into!r}; build a fresh stage graph"
            )
        stage = stage if stage is not None else prefix
        renamed_queues = [
            (q, f"{prefix}.{q.name}" if prefix else q.name)
            for q in other.queues
        ]
        renamed_nodes = [
            (n, f"{prefix}.{n.name}" if prefix else n.name)
            for n in other.nodes
        ]
        # Validate every name (and resource) before mutating anything.
        new_queue_names = [name for _, name in renamed_queues]
        new_node_names = [name for _, name in renamed_nodes]
        for name in new_queue_names:
            if name in self._queue_names:
                raise GraphError(f"merge: duplicate queue name {name!r}")
        for name in new_node_names:
            if name in self._node_names:
                raise GraphError(f"merge: duplicate node name {name!r}")
        if len(set(new_queue_names)) != len(new_queue_names) or \
                len(set(new_node_names)) != len(new_node_names):
            raise GraphError("merge: donor graph has colliding names")
        self.resources.absorb(other.resources)
        self.external_endpoints.extend(other.external_endpoints)
        for q, new_name in renamed_queues:
            q.name = new_name
            self._queue_names.add(new_name)
            self.queues.append(q)
        for node, new_name in renamed_nodes:
            node.name = new_name
            self._node_names.add(new_name)
            self.nodes.append(node)
            if stage is not None:
                self.node_stages[new_name] = stage
        other._merged_into = self.name

    def fuse(self, upstream: Queue, downstream: Queue) -> Queue:
        """Splice a stage boundary: consumers of ``downstream`` now read
        from ``upstream``, and ``downstream`` is removed.

        This is how composed pipelines chain subgraphs — the upstream
        stage's sink queue becomes the downstream stage's source queue,
        so chunks stream across the boundary under the upstream queue's
        flow-control capacity.  ``downstream`` must be an open inlet: no
        producers and nothing buffered.
        """
        for q, label in ((upstream, "upstream"), (downstream, "downstream")):
            if q not in self.queues:
                raise GraphError(
                    f"fuse: {label} queue {q.name!r} is not in this graph"
                )
        if upstream is downstream:
            raise GraphError(f"fuse: cannot fuse queue {upstream.name!r} "
                             f"with itself")
        if len(downstream):
            raise GraphError(
                f"fuse: downstream queue {downstream.name!r} is not empty"
            )
        for node in self.nodes:
            if node.output is downstream:
                raise GraphError(
                    f"fuse: queue {downstream.name!r} already has producer "
                    f"{node.name!r}; fuse expects an open inlet"
                )
        for node in self.nodes:
            if node.input is downstream:
                node.input = upstream
        self.queues.remove(downstream)
        self._queue_names.discard(downstream.name)
        return upstream

    # ---------------------------------------------------------- validation

    def validate(self) -> None:
        """Check wiring invariants before execution."""
        if not self.nodes:
            raise GraphError("graph has no nodes")
        produced = {
            q.name for node in self.nodes if node.output is not None
            for q in [node.output]
        }
        consumed = {
            q.name for node in self.nodes if node.input is not None
            for q in [node.input]
        }
        for q in self.queues:
            if q.name not in produced:
                raise GraphError(f"queue {q.name!r} has no producer")
            if q.name not in consumed:
                raise GraphError(f"queue {q.name!r} has no consumer")
        sources = [n for n in self.nodes if n.input is None]
        if not sources:
            raise GraphError("graph has no source node")

    # ------------------------------------------------------------- control

    def abort(self) -> None:
        """Error path: wake every blocked kernel."""
        for q in self.queues:
            q.abort()
        for endpoint in self.external_endpoints:
            endpoint.abort()

    def stats_report(self) -> "dict[str, dict]":
        """Per-node and per-queue metrics (§4.6 runtime statistics)."""
        report: dict[str, dict] = {"nodes": {}, "queues": {}}
        for node in self.nodes:
            report["nodes"][node.name] = {
                "items_in": node.stats.items_in,
                "items_out": node.stats.items_out,
                "busy_seconds": round(node.stats.busy_seconds, 6),
                "wait_seconds": round(node.stats.wait_seconds, 6),
                "replicas": node.parallelism,
            }
            if getattr(node.input, "inline", False):
                # Runs on its producer's thread: no input wait to report.
                report["nodes"][node.name]["inline"] = True
            # Node counters ride along only when a node recorded any, so
            # reports (and tests comparing them) are unchanged for nodes
            # that keep none.
            if node.stats.counters:
                report["nodes"][node.name]["counters"] = dict(
                    node.stats.counters
                )
        for q in self.queues:
            report["queues"][q.name] = {
                "capacity": q.capacity,
                "total_enqueued": q.total_enqueued,
                "max_depth": q.max_depth,
            }
            if q.inline:
                report["queues"][q.name]["inline"] = True
        if self.node_stages:
            stages: dict[str, dict] = {}
            for node in self.nodes:
                stage = self.node_stages.get(node.name)
                if stage is None:
                    continue
                agg = stages.setdefault(stage, {
                    "nodes": [],
                    "items_in": 0,
                    "items_out": 0,
                    "busy_seconds": 0.0,
                    "wait_seconds": 0.0,
                })
                agg["nodes"].append(node.name)
                agg["items_in"] += node.stats.items_in
                agg["items_out"] += node.stats.items_out
                agg["busy_seconds"] = round(
                    agg["busy_seconds"] + node.stats.busy_seconds, 6
                )
                agg["wait_seconds"] = round(
                    agg["wait_seconds"] + node.stats.wait_seconds, 6
                )
                for key, value in node.stats.counters.items():
                    if isinstance(value, (int, float)) \
                            and not isinstance(value, bool):
                        counters = agg.setdefault("counters", {})
                        counters[key] = counters.get(key, 0) + value
            report["stages"] = stages
        return report
