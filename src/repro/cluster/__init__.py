"""Cluster substrate: broker, placement plans, placed multi-server runs,
simulation, and the TCO model."""

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
from repro.cluster.simulation import (
    ClusterSimParams,
    ClusterSimResult,
    ThreadScalingParams,
    bwa_standalone_rate,
    persona_bwa_rate,
    persona_snap_rate,
    saturation_point,
    scaling_series,
    simulate_cluster,
    snap_standalone_rate,
    thread_scaling_table,
)
from repro.cluster.tco import (
    CostInputs,
    TCOReport,
    cluster_tco,
    glacier_cost_per_genome,
    national_scale_tco,
    single_server_tco,
    table3_rows,
)

__all__ = [
    "Broker",
    "BrokerServer",
    "ClusterSimParams",
    "ClusterSimResult",
    "CostInputs",
    "EdgeSpec",
    "LocalBrokerClient",
    "PlacedPipelineOutcome",
    "PlacedServerOutcome",
    "PlacementError",
    "PlacementPlan",
    "StagePlacement",
    "TCOReport",
    "TcpBrokerClient",
    "ThreadScalingParams",
    "WORK_EDGE",
    "WorkerKilled",
    "bwa_standalone_rate",
    "cluster_tco",
    "glacier_cost_per_genome",
    "national_scale_tco",
    "persona_bwa_rate",
    "persona_snap_rate",
    "run_placed_pipeline",
    "saturation_point",
    "scaling_series",
    "simulate_cluster",
    "single_server_tco",
    "snap_standalone_rate",
    "table3_rows",
    "thread_scaling_table",
]
