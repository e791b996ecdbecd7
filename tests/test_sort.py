"""Tests for external merge sort with superchunks (§4.3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agd.dataset import AGDDataset
from repro.align.result import AlignmentResult
from repro.core.sort import SortConfig, key_column, sort_dataset, verify_sorted
from repro.storage.base import MemoryStore
from row_sort_oracle import sort_key_for


def make_aligned_dataset(positions, chunk_size=4):
    """A tiny aligned dataset with given (contig, position) results."""
    n = len(positions)
    results = [
        AlignmentResult(flag=0, contig_index=c, position=p, cigar=b"4M")
        if p >= 0 else AlignmentResult()
        for c, p in positions
    ]
    return AGDDataset.create(
        "mini",
        {
            "bases": [b"ACGT"] * n,
            "qual": [b"IIII"] * n,
            "metadata": [f"r{i:05d}".encode() for i in range(n)],
            "results": results,
        },
        MemoryStore(),
        chunk_size=chunk_size,
    )


class TestSortKey:
    def test_location_key(self):
        key = sort_key_for("location")
        row_a = (AlignmentResult(flag=0, contig_index=0, position=5), b"r1")
        row_b = (AlignmentResult(flag=0, contig_index=1, position=0), b"r0")
        assert key(row_a) < key(row_b)

    def test_unmapped_sorts_last(self):
        key = sort_key_for("location")
        mapped = (AlignmentResult(flag=0, contig_index=5, position=10**9),)
        unmapped = (AlignmentResult(),)
        assert key(mapped) < key(unmapped)

    def test_metadata_key(self):
        key = sort_key_for("metadata")
        assert key((None, b"a")) < key((None, b"b"))

    def test_unknown_order(self):
        with pytest.raises(ValueError):
            key_column("banana")
        with pytest.raises(ValueError):
            sort_dataset(make_aligned_dataset([(0, 1)]), MemoryStore(),
                         SortConfig(order="banana"))


class TestSortDataset:
    def test_sorts_by_location(self):
        positions = [(0, 50), (0, 3), (1, 2), (0, 99), (1, 0), (0, 0),
                     (0, 75), (1, 44), (0, 12), (0, 61)]
        ds = make_aligned_dataset(positions, chunk_size=3)
        out = sort_dataset(ds, MemoryStore(),
                           SortConfig(chunks_per_superchunk=2))
        assert verify_sorted(out)
        assert out.total_records == 10
        assert out.manifest.sort_order == "location"

    def test_rows_stay_consistent(self):
        """Sorting must move whole rows: metadata follows its result."""
        positions = [(0, p) for p in (9, 1, 5, 3, 7, 0, 8, 2, 6, 4)]
        ds = make_aligned_dataset(positions, chunk_size=3)
        out = sort_dataset(ds, MemoryStore(),
                           SortConfig(chunks_per_superchunk=2))
        results = out.read_column("results")
        metas = out.read_column("metadata")
        original_pairing = {
            f"r{i:05d}".encode(): p for i, (_c, p) in enumerate(positions)
        }
        for result, meta in zip(results, metas):
            assert original_pairing[meta] == result.position

    def test_unmapped_at_end(self):
        positions = [(0, 5), (-1, -1), (0, 1), (-1, -1), (0, 3)]
        ds = make_aligned_dataset(positions, chunk_size=2)
        out = sort_dataset(ds, MemoryStore(),
                           SortConfig(chunks_per_superchunk=2))
        results = out.read_column("results")
        assert [r.is_aligned for r in results] == [True] * 3 + [False] * 2

    def test_sort_by_metadata(self):
        positions = [(0, i) for i in range(8)]
        ds = make_aligned_dataset(positions, chunk_size=3)
        # Shuffle metadata by re-creating with reversed names.
        out = sort_dataset(ds, MemoryStore(),
                           SortConfig(order="metadata",
                                      chunks_per_superchunk=2))
        metas = out.read_column("metadata")
        assert metas == sorted(metas)
        assert verify_sorted(out, "metadata")

    def test_location_sort_requires_results(self, dataset):
        with pytest.raises(ValueError):
            sort_dataset(dataset, MemoryStore(), SortConfig())

    def test_metadata_sort_works_without_results(self, dataset):
        out = sort_dataset(dataset, MemoryStore(),
                           SortConfig(order="metadata"))
        assert verify_sorted(out, "metadata")

    def test_output_chunk_size(self):
        positions = [(0, i) for i in range(10)]
        ds = make_aligned_dataset(positions, chunk_size=4)
        out = sort_dataset(
            ds, MemoryStore(),
            SortConfig(chunks_per_superchunk=2, output_chunk_size=3),
        )
        counts = [e.record_count for e in out.manifest.chunks]
        assert counts == [3, 3, 3, 1]

    def test_single_superchunk(self):
        positions = [(0, i) for i in (3, 1, 2)]
        ds = make_aligned_dataset(positions, chunk_size=10)
        out = sort_dataset(ds, MemoryStore(),
                           SortConfig(chunks_per_superchunk=100))
        assert verify_sorted(out)

    def test_invalid_config(self):
        positions = [(0, 1)]
        ds = make_aligned_dataset(positions)
        with pytest.raises(ValueError):
            sort_dataset(ds, MemoryStore(),
                         SortConfig(chunks_per_superchunk=0))

    def test_against_sorted_oracle(self, aligned_dataset):
        out = sort_dataset(aligned_dataset, MemoryStore(),
                           SortConfig(chunks_per_superchunk=3))
        got = [r.location_key() for r in out.read_column("results")]
        expected = sorted(
            r.location_key() for r in aligned_dataset.read_column("results")
        )
        assert got == expected

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=3),
                      st.integers(min_value=0, max_value=1000)),
            min_size=1, max_size=40,
        ),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_sort_property(self, positions, chunk_size, per_super):
        ds = make_aligned_dataset(positions, chunk_size=chunk_size)
        out = sort_dataset(
            ds, MemoryStore(),
            SortConfig(chunks_per_superchunk=per_super),
        )
        assert out.total_records == len(positions)
        got = [
            (r.contig_index, r.position) for r in out.read_column("results")
        ]
        assert got == sorted(got)
