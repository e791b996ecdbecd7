"""Tests for Persona dataflow operators (§4.2-§4.4)."""

import pytest

from repro.agd.manifest import ChunkEntry
from repro.core.ops import (
    AGDParserNode,
    AlignerNode,
    ChunkNameSource,
    ChunkReaderNode,
    ChunkWorkItem,
    ColumnWriterNode,
    PairedAlignerNode,
    QueueNameSource,
    SamWriterNode,
)
from repro.core.pipelines import align_dataset
from repro.core.subgraphs import AlignGraphConfig
from repro.dataflow.backends import SerialBackend
from repro.dataflow.queues import Queue
from repro.dataflow.resources import ResourceManager
from repro.dataflow.session import NodeContext
import threading

from repro.storage.base import MemoryStore


def make_ctx(resources=None):
    return NodeContext(
        resources=resources or ResourceManager(),
        stats_lock=threading.Lock(),
    )


class TestReaderParser:
    def test_reader_fetches_columns(self, dataset):
        reader = ChunkReaderNode(dataset.store, columns=("bases", "qual"))
        entry = dataset.manifest.chunks[0]
        [item] = reader.process(entry, make_ctx())
        assert set(item.raw) == {"bases", "qual"}

    def test_parser_decodes(self, dataset, reads):
        reader = ChunkReaderNode(dataset.store, columns=("bases", "qual"))
        parser = AGDParserNode()
        entry = dataset.manifest.chunks[0]
        [item] = reader.process(entry, make_ctx())
        [parsed] = parser.process(item, make_ctx())
        assert parsed.columns["bases"] == [r.bases for r in reads[:100]]
        assert parsed.raw == {}

    def test_parser_count_mismatch_detected(self, dataset):
        parser = AGDParserNode()
        entry = ChunkEntry(dataset.manifest.chunks[0].path, 0, 99)  # wrong
        from repro.core.ops import ChunkWorkItem

        blob = dataset.store.get(entry.chunk_file("bases"))
        item = ChunkWorkItem(entry=entry, raw={"bases": blob})
        with pytest.raises(ValueError, match="manifest says"):
            parser.process(item, make_ctx())


class TestAlignerNode:
    def test_aligns_chunk(self, dataset, snap_aligner, reads):
        resources = ResourceManager()
        resources.register("aligner", snap_aligner)
        backend = SerialBackend()
        resources.register("executor", backend)
        node = AlignerNode("aligner", "executor", subchunk_size=16)
        entry = dataset.manifest.chunks[0]
        item = ChunkWorkItem(
            entry=entry,
            columns={"bases": [r.bases for r in reads[:100]]},
        )
        [out] = node.process(item, make_ctx(resources))
        results = out.columns["results"]
        assert len(results) == 100
        assert all(r is not None for r in results)
        aligned = sum(1 for r in results if r.is_aligned)
        assert aligned >= 98
        backend.shutdown()

    def test_subchunk_boundaries(self, dataset, snap_aligner, reads):
        """Results identical regardless of subchunk size (Figure 4)."""
        resources = ResourceManager()
        resources.register("aligner", snap_aligner)
        backend = SerialBackend()
        resources.register("executor", backend)
        entry = dataset.manifest.chunks[0]
        outputs = []
        for size in (7, 100):
            node = AlignerNode("aligner", "executor", subchunk_size=size,
                               name=f"al{size}")
            item = ChunkWorkItem(
                entry=entry,
                columns={"bases": [r.bases for r in reads[:50]]},
            )
            [out] = node.process(item, make_ctx(resources))
            outputs.append(out.columns["results"])
        assert outputs[0] == outputs[1]
        backend.shutdown()

    def test_invalid_subchunk_size(self):
        with pytest.raises(ValueError):
            AlignerNode("a", "e", subchunk_size=0)


class TestPairedAlignerNode:
    def test_invalid_subchunk_size(self):
        with pytest.raises(ValueError, match="subchunk_size"):
            PairedAlignerNode("p", "e", subchunk_size=0)
        with pytest.raises(ValueError, match="subchunk_size"):
            PairedAlignerNode("p", "e", subchunk_size=-1)

    def test_odd_chunk_rejected(self, bwa_aligner, reads):
        resources = ResourceManager()
        resources.register("paired", bwa_aligner)
        backend = SerialBackend()
        resources.register("executor", backend)
        node = PairedAlignerNode("paired", "executor")
        item = ChunkWorkItem(
            entry=ChunkEntry("p-0", 0, 3),
            columns={"bases": [reads[0].bases] * 3},
        )
        with pytest.raises(ValueError, match="odd"):
            node.process(item, make_ctx(resources))
        backend.shutdown()


class TestWriters:
    def test_column_writer(self, aligned_dataset):
        out_store = MemoryStore()
        writer = ColumnWriterNode(out_store, column="results",
                                  record_type="results")
        entry = aligned_dataset.manifest.chunks[0]
        results = aligned_dataset.read_chunk("results", 0).records
        item = ChunkWorkItem(entry=entry, columns={"results": results})
        writer.process(item, make_ctx())
        from repro.agd.chunk import read_chunk

        chunk = read_chunk(out_store.get(entry.chunk_file("results")))
        assert chunk.records == results

    def test_column_writer_missing_results(self, dataset):
        writer = ColumnWriterNode(MemoryStore(), column="results",
                                  record_type="results")
        item = ChunkWorkItem(entry=dataset.manifest.chunks[0])
        with pytest.raises(ValueError, match="no alignment results"):
            writer.process(item, make_ctx())

    def test_sam_writer(self, aligned_dataset, reference):
        out_store = MemoryStore()
        writer = SamWriterNode(out_store, reference.names)
        entry = aligned_dataset.manifest.chunks[0]
        item = ChunkWorkItem(
            entry=entry,
            columns={
                "bases": aligned_dataset.read_chunk("bases", 0).records,
                "qual": aligned_dataset.read_chunk("qual", 0).records,
                "metadata": aligned_dataset.read_chunk("metadata", 0).records,
                "results": aligned_dataset.read_chunk("results", 0).records,
            },
        )
        writer.process(item, make_ctx())
        blob = out_store.get(f"{entry.path}.sam")
        assert blob.count(b"\n") == 100


class TestSources:
    def test_manifest_source(self, dataset):
        source = ChunkNameSource(dataset.manifest)
        entries = list(source.generate(make_ctx()))
        assert entries == dataset.manifest.chunks

    def test_queue_source_drains_until_closed(self):
        q = Queue("names", 8)
        q.register_producer()
        for i in range(3):
            q.put(ChunkEntry(f"c-{i}", i * 10, 10))
        q.producer_done()
        source = QueueNameSource(q)
        entries = list(source.generate(make_ctx()))
        assert len(entries) == 3


class TestFullGraph:
    def test_align_graph_end_to_end(self, dataset, snap_aligner):
        out_store = MemoryStore()
        outcome = align_dataset(
            dataset, snap_aligner, output_store=out_store,
            config=AlignGraphConfig(aligner_nodes=2), workers=2,
        )
        assert outcome.chunks == dataset.num_chunks
        assert outcome.total_reads == dataset.total_records
        for entry in dataset.manifest.chunks:
            assert out_store.exists(entry.chunk_file("results"))

    def test_results_row_aligned_with_input(self, dataset, snap_aligner, reads):
        """Results chunk i row j corresponds to input read i*chunk+j."""
        out_store = MemoryStore()
        align_dataset(dataset, snap_aligner, output_store=out_store,
                      workers=2)
        from repro.agd.chunk import read_chunk

        entry = dataset.manifest.chunks[1]
        chunk = read_chunk(out_store.get(entry.chunk_file("results")))
        direct = [
            snap_aligner.align_read(reads[entry.first_ordinal + j].bases)
            for j in range(3)
        ]
        assert chunk.records[:3] == direct
