"""Coarse-grain dataflow engine (§4): the TensorFlow substrate analog."""

from repro.dataflow.backends import (
    BACKEND_CHOICES,
    Backend,
    BusyCounter,
    ProcessBackend,
    SerialBackend,
    make_backend,
)
from repro.dataflow.errors import (
    PipelineAborted,
    PipelineError,
    QueueClosed,
)
from repro.dataflow.graph import Graph, GraphError
from repro.dataflow.node import (
    CollectSink,
    IterableSource,
    LambdaNode,
    Node,
    NodeStats,
)
from repro.dataflow.pools import Buffer, BufferPool, ObjectPool
from repro.dataflow.queues import Queue
from repro.dataflow.resources import Handle, ResourceManager
from repro.dataflow.session import NodeContext, Session, SessionResult

__all__ = [
    "BACKEND_CHOICES",
    "Backend",
    "ProcessBackend",
    "SerialBackend",
    "make_backend",
    "Buffer",
    "BufferPool",
    "BusyCounter",
    "CollectSink",
    "Graph",
    "GraphError",
    "Handle",
    "IterableSource",
    "LambdaNode",
    "Node",
    "NodeContext",
    "NodeStats",
    "ObjectPool",
    "PipelineAborted",
    "PipelineError",
    "Queue",
    "QueueClosed",
    "ResourceManager",
    "Session",
    "SessionResult",
]
