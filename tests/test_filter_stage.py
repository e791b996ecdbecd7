"""Filter as a streaming dataflow stage.

The filter stage must reproduce :func:`repro.core.filters.filter_dataset`
byte for byte when fused into the one-graph pipeline.
"""

from __future__ import annotations

import io

import pytest

from repro.core.dupmark import mark_duplicates
from repro.core.filters import by_min_mapq, drop_duplicates, filter_dataset
from repro.core.pipelines import align_dataset, run_pipeline
from repro.core.sort import SortConfig, sort_dataset
from repro.core.varcall import call_variants
from repro.formats.converters import import_reads
from repro.formats.vcf import write_vcf
from repro.storage.base import MemoryStore

SORT_CONFIG = SortConfig(chunks_per_superchunk=2)
PREDICATE_MAPQ = 30


@pytest.fixture()
def fresh_dataset(reads, reference):
    def factory():
        return import_reads(
            reads, "pg", MemoryStore(), chunk_size=100,
            reference=reference.manifest_entry(),
        )
    return factory


@pytest.fixture(scope="module")
def eager_filtered_chain(reads, reference, snap_aligner):
    """Eager five-pass reference: align, sort, dupmark, filter, varcall."""
    dataset = import_reads(
        reads, "pg", MemoryStore(), chunk_size=100,
        reference=reference.manifest_entry(),
    )
    align_dataset(dataset, snap_aligner,
                  workers=2)
    sorted_ds = sort_dataset(dataset, MemoryStore(), SORT_CONFIG)
    mark_duplicates(sorted_ds)
    filtered = filter_dataset(sorted_ds, by_min_mapq(PREDICATE_MAPQ),
                              MemoryStore())
    variants = call_variants(filtered, reference)
    return sorted_ds, filtered, variants


def vcf_bytes(variants, reference) -> bytes:
    buf = io.BytesIO()
    write_vcf(variants, buf, contigs=reference.manifest_entry())
    return buf.getvalue()


class TestFilterStage:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_full_pipeline_matches_eager_filter(
        self, backend, fresh_dataset, snap_aligner, reference,
        eager_filtered_chain,
    ):
        _sorted_ds, eager_filtered, eager_variants = eager_filtered_chain
        outcome = run_pipeline(
            fresh_dataset(),
            ("align", "sort", "dupmark", "filter", "varcall"),
            aligner=snap_aligner,
            reference=reference,
            sort_config=SORT_CONFIG,
            filter_predicate=by_min_mapq(PREDICATE_MAPQ),
            backend=backend,
            workers=2,
        )
        graph_filtered = outcome.filtered_dataset
        assert graph_filtered is not None
        # Manifest identical: name, chunk layout, columns, sort order.
        assert graph_filtered.manifest.name == eager_filtered.manifest.name
        assert graph_filtered.manifest.sort_order == \
            eager_filtered.manifest.sort_order
        assert graph_filtered.manifest.columns == \
            eager_filtered.manifest.columns
        assert [
            (e.path, e.first_ordinal, e.record_count)
            for e in graph_filtered.manifest.chunks
        ] == [
            (e.path, e.first_ordinal, e.record_count)
            for e in eager_filtered.manifest.chunks
        ]
        # Chunk files byte-identical.
        for entry in eager_filtered.manifest.chunks:
            for column in eager_filtered.columns:
                key = entry.chunk_file(column)
                assert graph_filtered.store.get(key) == \
                    eager_filtered.store.get(key), key
        assert outcome.filter_stats.examined == 600
        assert outcome.filter_stats.kept == \
            eager_filtered.manifest.total_records
        assert vcf_bytes(outcome.variants, reference) == \
            vcf_bytes(eager_variants, reference)

    def test_head_mode_filter_only(self, aligned_dataset):
        expected = filter_dataset(aligned_dataset,
                                  by_min_mapq(PREDICATE_MAPQ),
                                  MemoryStore())
        outcome = run_pipeline(
            aligned_dataset, ("filter",),
            filter_predicate=by_min_mapq(PREDICATE_MAPQ),
            backend="serial",
        )
        assert outcome.filtered_dataset.manifest.name == \
            expected.manifest.name
        for column in expected.columns:
            assert (outcome.filtered_dataset.read_column(column)
                    == expected.read_column(column)), column
        assert outcome.sorted_dataset is None

    def test_filter_then_varcall(self, aligned_dataset, reference):
        expected_filtered = filter_dataset(
            aligned_dataset, drop_duplicates(), MemoryStore()
        )
        expected_variants = call_variants(expected_filtered, reference)
        outcome = run_pipeline(
            aligned_dataset, ("filter", "varcall"),
            reference=reference,
            filter_predicate=drop_duplicates(),
            backend="serial",
        )
        assert outcome.variants == expected_variants
        assert outcome.filter_stats.kept == \
            expected_filtered.manifest.total_records

    def test_filter_requires_predicate(self, aligned_dataset):
        with pytest.raises(ValueError, match="filter_predicate"):
            run_pipeline(aligned_dataset, ("filter",))

    def test_filter_keeps_order_within_pipeline_stages(self, aligned_dataset):
        with pytest.raises(ValueError, match="order"):
            run_pipeline(aligned_dataset, ("varcall", "filter"),
                         filter_predicate=drop_duplicates())

