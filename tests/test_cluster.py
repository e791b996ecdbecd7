"""Tests for the cluster substrate: manifest partitioning, replicated
align runs, discrete-event simulation, thread scaling, and the TCO
model."""

import pytest

from repro.agd.manifest import ChunkEntry, Manifest
from repro.cluster.multiserver import run_placed_pipeline
from repro.cluster.placement import PlacementError, PlacementPlan
from repro.core.subgraphs import AlignGraphConfig
from repro.storage.base import MemoryStore

from models.simulation import (
    ClusterSimParams,
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
from models.tco import (
    CostInputs,
    cluster_tco,
    glacier_cost_per_genome,
    national_scale_tco,
    single_server_tco,
    table3_rows,
)


def partition_manifest(manifest: Manifest,
                       servers: int) -> "list[list[ChunkEntry]]":
    """Static round-robin partition: the non-queue alternative the
    broker's work edge (one chunk-name queue every server pulls from,
    §5.2) is measured against on skew."""
    if servers <= 0:
        raise ValueError("servers must be positive")
    parts: "list[list[ChunkEntry]]" = [[] for _ in range(servers)]
    for i, entry in enumerate(manifest.chunks):
        parts[i % servers].append(entry)
    return parts


class TestManifestServer:
    def test_partition_static(self, dataset):
        parts = partition_manifest(dataset.manifest, 3)
        assert sum(len(p) for p in parts) == dataset.num_chunks
        flat = [e for p in parts for e in p]
        assert {e.path for e in flat} == {
            e.path for e in dataset.manifest.chunks
        }

    def test_partition_invalid(self, dataset):
        with pytest.raises(ValueError):
            partition_manifest(dataset.manifest, 0)


class TestMultiServer:
    """§5.2's cluster mode: N align servers on one work edge."""

    def test_distribution_correctness(self, dataset, reference):
        """Every chunk aligned exactly once across servers (§5.5)."""
        from repro.core.pipelines import build_snap_aligner

        shared_aligner = build_snap_aligner(reference)
        output = MemoryStore()
        outcome = run_placed_pipeline(
            dataset,
            PlacementPlan.replicated_align(3),
            aligner_factory=lambda server: shared_aligner,
            align_results_store_factory=lambda server: output,
            align_config=AlignGraphConfig(aligner_nodes=1, reader_nodes=1,
                                          parser_nodes=1),
        )
        assert sum(s.chunks for s in outcome.servers) == dataset.num_chunks
        assert sum(s.records for s in outcome.servers) \
            == dataset.total_records
        assert len(outcome.servers) == 3
        written = {k for k in output.keys() if k.endswith(".results")}
        assert written == {
            e.chunk_file("results") for e in dataset.manifest.chunks
        }

    def test_results_match_single_server(self, dataset, reference, snap_aligner):
        from repro.agd.chunk import read_chunk
        from repro.core.pipelines import align_dataset

        output = MemoryStore()
        run_placed_pipeline(
            dataset,
            PlacementPlan.replicated_align(2),
            aligner_factory=lambda server: snap_aligner,
            align_results_store_factory=lambda server: output,
        )
        single = MemoryStore()
        align_dataset(dataset, snap_aligner, output_store=single)
        for entry in dataset.manifest.chunks:
            key = entry.chunk_file("results")
            multi_records = read_chunk(output.get(key)).records
            single_records = read_chunk(single.get(key)).records
            assert multi_records == single_records

    def test_invalid_server_count(self):
        with pytest.raises(PlacementError):
            PlacementPlan.replicated_align(0)
        assert issubclass(PlacementError, ValueError)


class TestClusterSimulation:
    def test_linear_region(self):
        params = ClusterSimParams()
        r1 = simulate_cluster(1, params)
        r32 = simulate_cluster(32, params)
        speedup = r32.bases_per_second / r1.bases_per_second
        assert 30 < speedup <= 32.5  # linear to 32 nodes (§5.5)

    def test_paper_headline_numbers(self):
        """32 nodes: ~1.35 Gbases/s, genome in ~16.7 s (§5.5)."""
        result = simulate_cluster(32, ClusterSimParams())
        assert 1.2e9 < result.bases_per_second < 1.6e9
        assert 13 < result.makespan_seconds < 19

    def test_saturation_knee_near_60(self):
        knee = saturation_point(ClusterSimParams(), max_nodes=100)
        assert 50 <= knee <= 70

    def test_plateau_beyond_knee(self):
        params = ClusterSimParams()
        r60 = simulate_cluster(60, params)
        r100 = simulate_cluster(100, params)
        assert r100.bases_per_second < 1.1 * r60.bases_per_second

    def test_no_imbalance_in_linear_region(self):
        result = simulate_cluster(16, ClusterSimParams())
        assert result.imbalance < 1.1

    def test_all_chunks_processed(self):
        params = ClusterSimParams(num_chunks=500)
        result = simulate_cluster(7, params)
        assert sum(result.chunks_per_node) == 500

    def test_series(self):
        series = scaling_series([1, 2, 4], ClusterSimParams(num_chunks=100))
        assert [r.nodes for r in series] == [1, 2, 4]
        rates = [r.bases_per_second for r in series]
        assert rates == sorted(rates)

    def test_invalid_nodes(self):
        with pytest.raises(ValueError):
            simulate_cluster(0)


class TestThreadScaling:
    def test_linear_to_physical_cores(self):
        params = ThreadScalingParams()
        r12 = snap_standalone_rate(12, params)
        r24 = snap_standalone_rate(24, params)
        assert r24 / r12 == pytest.approx(2.0, rel=0.01)

    def test_hyperthread_yield(self):
        """§5.4: 'the 2nd hyperthread increases the alignment rate of a
        core by 32%'."""
        params = ThreadScalingParams()
        full_ht = persona_snap_rate(48, params)
        physical = persona_snap_rate(24, params)
        assert full_ht / physical == pytest.approx(1.32, rel=0.01)

    def test_snap_drop_at_full_subscription(self):
        params = ThreadScalingParams()
        assert snap_standalone_rate(48, params) < snap_standalone_rate(47, params)

    def test_persona_no_drop(self):
        params = ThreadScalingParams()
        assert persona_snap_rate(48, params) >= persona_snap_rate(47, params)

    def test_persona_overhead_small(self):
        """§1: 'negligible framework overheads' (~1%)."""
        params = ThreadScalingParams()
        ratio = persona_snap_rate(24, params) / snap_standalone_rate(24, params)
        assert 0.98 < ratio < 1.0

    def test_bwa_flattens_beyond_physical(self):
        params = ThreadScalingParams()
        r24 = bwa_standalone_rate(24, params)
        r48 = bwa_standalone_rate(48, params)
        assert r48 < 1.15 * r24  # memory ceiling

    def test_persona_bwa_scales_better_with_ht(self):
        """§5.4: Persona's BWA 'scales slightly better with more threads
        than the standalone program'."""
        params = ThreadScalingParams()
        assert persona_bwa_rate(48, params) > bwa_standalone_rate(48, params)

    def test_table_shape(self):
        rows = thread_scaling_table([1, 24, 48])
        assert len(rows) == 3
        assert rows[0]["snap_perfect"] == pytest.approx(
            ThreadScalingParams().single_thread_rate
        )


class TestTCO:
    def test_table3_capex(self):
        """Table 3: $507K + $53K + $53K = $613K."""
        report = cluster_tco()
        assert report.compute_capex == pytest.approx(507_000, rel=0.01)
        assert report.storage_capex == pytest.approx(53_025, rel=0.01)
        assert report.fabric_capex == pytest.approx(53_064, rel=0.01)
        assert report.total_capex == pytest.approx(613_089, rel=0.001)

    def test_table3_tco_and_cost(self):
        report = cluster_tco()
        assert report.tco == pytest.approx(943_000, rel=0.01)
        # 6.07 cents in the paper; our 144/day-per-server model gives ~5.98.
        assert 0.055 < report.cost_per_alignment < 0.065

    def test_storage_cost_per_genome(self):
        """§6.1: 'the cost per genome for storage is $8.83'."""
        report = cluster_tco()
        assert report.storage_cost_per_genome == pytest.approx(8.83, rel=0.01)

    def test_genomes_capacity(self):
        """Table 3: '126 TB of usable capacity, corresponding to
        approximately 6,000 sequenced genomes'."""
        report = cluster_tco()
        assert report.genomes_capacity == pytest.approx(6000, rel=0.01)

    def test_single_server(self):
        """§6.1: single server ~144 alignments/day at ~4.1 cents."""
        report = single_server_tco()
        assert report.alignments_per_day == pytest.approx(144)
        assert report.cost_per_alignment == pytest.approx(0.041, rel=0.03)

    def test_glacier(self):
        """§6.1: '$6.72' for 5 years of one genome on Glacier."""
        assert glacier_cost_per_genome() == pytest.approx(6.72, rel=0.001)

    def test_storage_cheaper_than_compute_total_but_dominant_per_genome(self):
        """§6.1: storage cost per genome is 'two orders of magnitude
        higher than the alignment cost'."""
        report = cluster_tco()
        ratio = report.storage_cost_per_genome / report.cost_per_alignment
        assert 100 < ratio < 200

    def test_national_scale_ratio(self):
        report = national_scale_tco(genomes_per_day=50_000)
        compute = report.compute_capex / CostInputs().compute_server_cost
        storage = report.storage_capex / CostInputs().storage_server_cost
        assert compute / storage <= 60 / 7 + 1

    def test_national_scale_invalid(self):
        with pytest.raises(ValueError):
            national_scale_tco(0)

    def test_table3_rows_printable(self):
        rows = table3_rows()
        assert rows[0]["item"] == "Compute Server"
        assert rows[-1]["total"] < 1.0  # cents row
