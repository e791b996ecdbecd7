"""Cluster substrate: broker, placement plans and placed multi-server
runs."""

from repro.cluster.broker import (
    Broker,
    BrokerServer,
    LocalBrokerClient,
    TcpBrokerClient,
)
from repro.cluster.multiserver import (
    PlacedPipelineOutcome,
    PlacedServerOutcome,
    WorkerKilled,
    run_placed_pipeline,
)
from repro.cluster.placement import (
    WORK_EDGE,
    EdgeSpec,
    PlacementError,
    PlacementPlan,
    StagePlacement,
)

__all__ = [
    "Broker",
    "BrokerServer",
    "EdgeSpec",
    "LocalBrokerClient",
    "PlacedPipelineOutcome",
    "PlacedServerOutcome",
    "PlacementError",
    "PlacementPlan",
    "StagePlacement",
    "TcpBrokerClient",
    "WORK_EDGE",
    "WorkerKilled",
    "run_placed_pipeline",
]
