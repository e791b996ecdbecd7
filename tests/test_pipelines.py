"""Tests for the high-level pipelines API."""

from repro.core.pipelines import (
    align_dataset,
    align_standalone,
    build_bwa_aligner,
    build_snap_aligner,
    stage_fastq_shards,
)
from repro.core.subgraphs import AlignGraphConfig
from repro.storage.base import MemoryStore
from repro.storage.local import CountingStore


class TestAlignDataset:
    def test_appends_results_column(self, dataset, snap_aligner):
        outcome = align_dataset(
            dataset, snap_aligner,
            workers=2,
        )
        assert "results" in dataset.columns
        assert outcome.total_reads == dataset.total_records
        assert outcome.chunks == dataset.num_chunks
        assert outcome.total_bases == sum(
            len(b) for b in dataset.read_column("bases")
        )
        assert outcome.bases_per_second > 0
        results = dataset.read_column("results")
        assert len(results) == dataset.total_records
        assert sum(r.is_aligned for r in results) >= 0.95 * len(results)

    def test_output_store_separation(self, dataset, snap_aligner):
        out = MemoryStore()
        align_dataset(
            dataset, snap_aligner, output_store=out,
            workers=2,
        )
        # Results live in the other store; manifest not extended.
        assert "results" not in dataset.columns
        assert any(k.endswith(".results") for k in out.keys())

    def test_report_includes_queue_stats(self, dataset, snap_aligner):
        outcome = align_dataset(
            dataset, snap_aligner,
            workers=2,
        )
        assert "queues" in outcome.report
        assert outcome.report["nodes"]["aligner"]["items_in"] == dataset.num_chunks

    def test_bwa_pipeline(self, dataset, bwa_aligner):
        outcome = align_dataset(
            dataset, bwa_aligner,
            config=AlignGraphConfig(subchunk_size=64), workers=2,
        )
        assert outcome.total_reads == dataset.total_records
        results = dataset.read_column("results")
        assert sum(r.is_aligned for r in results) >= 0.95 * len(results)


class TestBuilders:
    def test_snap_builder(self, reference):
        aligner = build_snap_aligner(reference, seed_length=16)
        assert aligner.index.seed_length == 16

    def test_bwa_builder(self, reference):
        aligner = build_bwa_aligner(reference)
        assert aligner.reference is reference


class TestStandalone:
    def test_standalone_baseline(self, dataset, snap_aligner, reference):
        shard_store = CountingStore()
        staged = stage_fastq_shards(dataset, shard_store)
        assert staged > 0
        out_store = CountingStore()
        outcome = align_standalone(
            dataset.manifest, shard_store, out_store, snap_aligner,
            reference.manifest_entry(),
            workers=2,
        )
        assert outcome.total_reads == dataset.total_records
        # The baseline arm must report a real base volume (its FASTQ
        # parser tallies it), so bases/s comparisons have a denominator.
        assert outcome.total_bases == sum(
            len(b) for b in dataset.read_column("bases")
        )
        assert outcome.bases_per_second > 0
        sam_keys = [k for k in out_store.backing.keys() if k.endswith(".sam")]
        assert len(sam_keys) == dataset.num_chunks

    def test_table1_byte_shape(self, dataset, snap_aligner, reference):
        """Table 1's I/O accounting: AGD reads slightly less (bases+qual
        columns vs gzip FASTQ) and writes an order of magnitude less
        (results column vs SAM rows)."""
        shard_store = CountingStore()
        fastq_bytes = stage_fastq_shards(dataset, shard_store)
        sam_store = CountingStore()
        align_standalone(
            dataset.manifest, shard_store, sam_store, snap_aligner,
            reference.manifest_entry(),
            workers=2,
        )
        align_dataset(dataset, snap_aligner,
                      workers=2)
        agd_read = dataset.column_bytes("bases") + dataset.column_bytes("qual")
        agd_written = dataset.column_bytes("results")
        assert fastq_bytes >= 0.9 * agd_read  # read volumes comparable
        assert sam_store.bytes_written > 8 * agd_written  # >>8x write gap


class TestPairedGraph:
    def test_paired_align_dataset_with_snap(self, reference):
        """AlignGraphConfig(paired=True) drives the PairedAlignerNode."""
        from repro.align.paired import InsertWindow, PairedAligner
        from repro.align.snap import SeedIndex, SnapAligner
        from repro.formats.converters import import_reads
        from repro.genome.synthetic import ReadSimulator

        sim = ReadSimulator(reference, paired=True, insert_size_mean=320,
                            insert_size_sd=20, seed=4242)
        reads, origins = sim.simulate(200)
        ds = import_reads(reads, "pgraph", MemoryStore(), chunk_size=50,
                          reference=reference.manifest_entry())
        snap = SnapAligner(SeedIndex(reference))
        paired = PairedAligner(snap, InsertWindow(220, 430))
        outcome = align_dataset(
            ds, paired,
            config=AlignGraphConfig(paired=True, subchunk_size=20),
            workers=2,
        )
        assert outcome.total_reads == 200
        results = ds.read_column("results")
        proper = sum(1 for r in results if r.flag & 0x2)
        assert proper >= 0.85 * len(results)
        # Mates reference each other.
        for i in range(0, 20, 2):
            r1, r2 = results[i], results[i + 1]
            if r1.is_aligned and r2.is_aligned:
                assert r1.next_position == r2.position

    def test_bwa_pairs_after_inference_match_across_backends(
        self, reference, fm_index
    ):
        """BWA-MEM pairs run through ``PairedAlignerNode`` on either
        backend: the serial inference step runs once before the graph,
        and both backends store byte-identical results."""
        from repro.align.bwa import BwaMemAligner
        from repro.formats.converters import import_reads
        from repro.genome.synthetic import ReadSimulator

        sim = ReadSimulator(reference, paired=True, insert_size_mean=310,
                            insert_size_sd=20, seed=612)
        reads, origins = sim.simulate(200)
        aligner = BwaMemAligner(fm_index)
        model = aligner.infer_insert_size(
            [(reads[i].bases, reads[i + 1].bases) for i in range(0, 64, 2)])
        assert model.samples > 0 and aligner.insert_model is model

        blobs = {}
        for backend in ("serial", "process"):
            ds = import_reads(reads, "pbwa", MemoryStore(), chunk_size=50,
                              reference=reference.manifest_entry())
            outcome = align_dataset(
                ds, aligner,
                config=AlignGraphConfig(paired=True, subchunk_size=16),
                backend=backend, workers=2,
            )
            assert outcome.total_reads == 200
            blobs[backend] = [ds.store.get(entry.chunk_file("results"))
                              for entry in ds.manifest.chunks]
        assert blobs["process"] == blobs["serial"]

        results = ds.read_column("results")
        proper = sum(1 for r in results if r.flag & 0x2)
        assert proper >= 0.85 * len(results)
        exact = 0
        for r, o in zip(results, origins):
            _, local = reference.to_local(o.global_pos)
            if r.is_aligned and r.position == local:
                exact += 1
        assert exact >= 0.95 * len(results)


def test_serial_pipeline_never_imports_numpy_ma():
    """A plain ``np.unique(x)`` imports ``numpy.ma`` on first use — 10 ms
    inside the first chunk that hits it.  No kernel on the align → sort
    → dupmark → varcall path may."""
    import json

    from run_wgs_pipeline import launch

    proc = launch("serial")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["duplicates"] > 0
    assert not doc["numpy_ma_imported"]


def test_directory_scratch_pipeline_never_imports_numpy_ma(tmp_path):
    """The same four stages over a dataset on disk with a directory
    scratch, so the sort spills raw frames and merges them back through
    its cursors: ``numpy.ma`` costs ~1.3 MB of a run's peak RSS, and no
    kernel on that path may import it either."""
    import json

    from run_wgs_pipeline import launch

    proc = launch("serial", tmp_path)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["duplicates"] > 0
    assert doc["spill_restores"] > 0
    assert not doc["numpy_ma_imported"]
