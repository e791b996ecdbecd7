"""Cross-module integration tests: the full Persona workflow."""

import io

import pytest

from repro.agd.dataset import AGDDataset
from repro.cluster.multiserver import run_placed_pipeline
from repro.cluster.placement import PlacementPlan
from repro.core.dupmark import mark_duplicates
from repro.core.filters import by_min_mapq, filter_dataset
from repro.core.pipelines import align_dataset, build_snap_aligner
from repro.core.sort import SortConfig, sort_dataset, verify_sorted
from repro.core.varcall import call_variants
from repro.formats.converters import export_sam, import_fastq_stream
from repro.formats.fastq import fastq_bytes
from repro.formats.sam import read_sam
from repro.genome.synthetic import synthetic_dataset
from repro.storage.base import MemoryStore

from models.ceph import CephConfig, CephStore, SimulatedCephCluster


class TestFullWorkflow:
    """FASTQ -> AGD -> align -> sort -> dupmark -> filter -> SAM/VCF."""

    @pytest.fixture(scope="class")
    def world(self):
        reference, reads, origins = synthetic_dataset(
            genome_length=25_000, coverage=4.0, seed=2024,
            duplicate_fraction=0.15,
        )
        return reference, reads, origins

    def test_end_to_end(self, world):
        reference, reads, origins = world
        store = MemoryStore()
        # 1. Import from FASTQ (sequencer output).
        dataset = import_fastq_stream(
            io.BytesIO(fastq_bytes(reads)), "e2e", store, chunk_size=128
        )
        dataset.manifest.reference = reference.manifest_entry()
        assert dataset.total_records == len(reads)
        # 2. Align.
        aligner = build_snap_aligner(reference)
        outcome = align_dataset(dataset, aligner)
        assert outcome.total_reads == len(reads)
        # 3. Sort by location.
        sorted_ds = sort_dataset(
            dataset, MemoryStore(), SortConfig(chunks_per_superchunk=3)
        )
        assert verify_sorted(sorted_ds)
        # 4. Mark duplicates.
        stats = mark_duplicates(sorted_ds)
        true_dups = sum(1 for o in origins if o.is_duplicate)
        assert stats.duplicates_marked >= true_dups > 0
        # 5. Filter low-quality.
        filtered = filter_dataset(sorted_ds, by_min_mapq(20), MemoryStore())
        assert 0 < filtered.total_records <= sorted_ds.total_records
        # 6. Export SAM, spot-check.
        buf = io.BytesIO()
        count = export_sam(sorted_ds, buf)
        assert count == len(reads)
        buf.seek(0)
        header, records = read_sam(buf)
        assert header.sort_order == "coordinate"
        keys = [r.location_key() for r in records]
        assert keys == sorted(keys)
        # 7. Variant call — clean reads against own reference: few calls.
        variants = call_variants(sorted_ds, reference)
        assert len(variants) < 10

    def test_alignment_accuracy_vs_ground_truth(self, world):
        reference, reads, origins = world
        store = MemoryStore()
        dataset = import_fastq_stream(
            io.BytesIO(fastq_bytes(reads)), "acc", store, chunk_size=128
        )
        dataset.manifest.reference = reference.manifest_entry()
        aligner = build_snap_aligner(reference)
        align_dataset(dataset, aligner)
        results = dataset.read_column("results")
        exact = 0
        for result, origin in zip(results, origins):
            if not result.is_aligned:
                continue
            contig, local = reference.to_local(origin.global_pos)
            if result.position == local and result.is_reverse == origin.reverse:
                exact += 1
        assert exact / len(origins) > 0.97


class TestCephIntegration:
    def test_dataset_on_ceph(self, reads, reference):
        """AGD over the simulated object store: write, read back, align."""
        cluster = SimulatedCephCluster(CephConfig(
            disk_bandwidth=1e9, network_bandwidth=4e9))
        store = CephStore(cluster, prefix="genomes/e2e/")
        from repro.formats.converters import import_reads

        dataset = import_reads(reads, "ceph-ds", store, chunk_size=150,
                               reference=reference.manifest_entry())
        assert dataset.read_column("bases") == [r.bases for r in reads]
        aligner = build_snap_aligner(reference)
        outcome = align_dataset(dataset, aligner)
        assert outcome.total_reads == len(reads)
        assert cluster.bytes_read > 0
        assert cluster.bytes_written > 0

    def test_multi_server_over_ceph(self, reads, reference):
        """The §5.5 topology: N servers, shared Ceph, manifest server."""
        from repro.formats.converters import import_reads

        cluster = SimulatedCephCluster(CephConfig(
            disk_bandwidth=2e9, network_bandwidth=8e9))
        input_store = CephStore(cluster, prefix="in/")
        dataset = import_reads(reads, "dist", input_store, chunk_size=100,
                               reference=reference.manifest_entry())
        aligner = build_snap_aligner(reference)
        outcome = run_placed_pipeline(
            dataset,
            PlacementPlan.replicated_align(2),
            aligner_factory=lambda server: aligner,
            align_results_store_factory=lambda server: CephStore(
                cluster, prefix="out/"),
        )
        assert sum(s.chunks for s in outcome.servers) == dataset.num_chunks
        assert outcome.completion_imbalance < 50  # both servers participated


class TestManifestRebuild:
    def test_reconstruct_after_loss(self, dataset, tmp_path):
        """§3: the manifest is reconstructible from chunk files."""
        from repro.agd.manifest import reconstruct_manifest
        from repro.storage.base import DirectoryStore

        disk = DirectoryStore(tmp_path)
        for column in dataset.columns:
            for entry in dataset.manifest.chunks:
                key = entry.chunk_file(column)
                disk.put(key, dataset.store.get(key))
        rebuilt = reconstruct_manifest(tmp_path)
        assert rebuilt.total_records == dataset.total_records
        assert rebuilt.columns == sorted(dataset.columns)
        rebuilt_ds = AGDDataset(rebuilt, disk)
        assert rebuilt_ds.read_column("bases") == dataset.read_column("bases")
