"""Cluster-scale alignment: the work edge, Ceph, and the Fig. 7 curve.

Part 1 runs the *real* placed pipeline in-process: four Persona servers
(``run_placed_pipeline`` over ``PlacementPlan.replicated_align(4)``) pull
chunk names from the broker's shared work edge (§5.2's manifest-server
message queue) and align against a simulated Ceph object store,
demonstrating dynamic work distribution with no chunk lost or
duplicated.

Part 2 runs the discrete-event cluster simulator at the paper's
calibration (45.45 Mbases/s/node, 6 GB/s Ceph) and prints the Figure 7
scaling curve: linear to 32 nodes, the whole genome in ~16.7 s, and the
storage-saturation knee near 60 nodes.

The Ceph-like store and the simulator are paper models, not part of
``repro``: they are imported from ``benchmarks/models/`` (``ceph`` and
``simulation``), which the Fig. 7 benchmark runs too.

Run:  python examples/cluster_alignment.py
"""

import sys
from pathlib import Path

from repro.cluster import PlacementPlan, run_placed_pipeline
from repro.core import build_snap_aligner
from repro.formats import import_reads
from repro.genome import synthetic_dataset

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from models.ceph import CephConfig, CephStore, SimulatedCephCluster  # noqa: E402
from models.simulation import (  # noqa: E402
    ClusterSimParams,
    saturation_point,
    scaling_series,
)


def main() -> None:
    # ------------------------------------------------- part 1: real run
    reference, reads, _ = synthetic_dataset(
        genome_length=80_000, coverage=3.0, seed=99
    )
    ceph = SimulatedCephCluster(CephConfig(
        num_nodes=7, disks_per_node=10,
        disk_bandwidth=1e9, network_bandwidth=6e9,
    ))
    bench = ceph.rados_bench(object_size=1_000_000, objects=12, concurrency=6)
    print(f"rados bench (paper measured 6 GB/s): {bench / 1e9:.2f} GB/s")

    dataset = import_reads(
        reads, "cluster-demo", CephStore(ceph, prefix="in/"),
        chunk_size=100, reference=reference.manifest_entry(),
    )
    aligner = build_snap_aligner(reference)
    print(f"dataset: {dataset.num_chunks} chunks on the object store; "
          f"running 4 Persona servers...")
    outcome = run_placed_pipeline(
        dataset,
        PlacementPlan.replicated_align(4),
        aligner_factory=lambda server: aligner,
        align_results_store_factory=lambda server: CephStore(
            ceph, prefix="out/"),
    )
    for server in outcome.servers:
        print(f"  {server.server}: {server.chunks} chunks, "
              f"{server.records} reads, {server.wall_seconds:.2f}s")
    total_chunks = sum(s.chunks for s in outcome.servers)
    print(f"  all chunks processed exactly once: "
          f"{total_chunks == dataset.num_chunks}; "
          f"completion imbalance {outcome.completion_imbalance:.2f}")

    # ----------------------------------------------- part 2: simulation
    params = ClusterSimParams()
    print("\nFigure 7 simulation (paper calibration):")
    print(f"{'nodes':>6} {'Gbases/s':>10} {'genome time':>12} {'eff':>7}")
    for result in scaling_series([1, 4, 8, 16, 32, 48, 60, 80, 100], params):
        efficiency = result.bases_per_second / (
            result.nodes * params.node_align_rate
        )
        print(f"{result.nodes:>6} {result.bases_per_second / 1e9:>10.3f} "
              f"{result.makespan_seconds:>11.1f}s {efficiency:>6.0%}")
    knee = saturation_point(params, max_nodes=100)
    print(f"\nstorage saturation knee: ~{knee} nodes "
          f"(paper: ~60; beyond it, result-write bandwidth limits)")


if __name__ == "__main__":
    main()
