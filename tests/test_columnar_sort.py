"""The columnar record plane against the row oracle.

``repro.core.sort`` moves column buffers (one key array, one stable
permutation, one gather per column); ``row_sort_oracle`` is the sort as
it was before — decoded objects, row tuples, ``list.sort``,
``heapq.merge``.  Every scratch blob and every output chunk must agree
byte for byte, across key shapes, run boundaries and scratch framings;
spills the oracle wrote (the previous on-scratch formats, whole-run and
by key range) must merge identically (resume compatibility); and whole
pipelines — single-session on every backend, and placed — must produce
the oracle chain's digest while leaking nothing.
"""

from __future__ import annotations

import gc
import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agd.chunk import read_chunk, read_column, write_chunk
from repro.agd.columns import (
    BasesColumn,
    PackedBasesColumn,
    RaggedColumn,
    TextColumn,
)
from repro.agd.dataset import AGDDataset
from repro.agd.manifest import Manifest
from repro.align.result import FLAG_DUPLICATE, AlignmentResult
from repro.agd.result_column import ResultsColumn
from repro.cluster.multiserver import run_placed_pipeline
from repro.cluster.placement import PlacementPlan
from repro.core.dupmark import mark_duplicates
from repro.core.pipelines import run_pipeline
from repro.core.sort import (
    SortConfig,
    _key_first_columns,
    iter_merged_chunks,
    sort_dataset,
    verify_sorted,
)
from repro.core.varcall import VarCallConfig, call_from_pileup, pileup_dataset
from repro.dataflow import shm as shm_plane
from repro.formats.converters import import_reads
from repro.storage.base import DirectoryStore, MemoryStore
from dupmark_oracle import oracle_mark_duplicates
from row_sort_oracle import (
    oracle_merge,
    oracle_sort_dataset,
    oracle_spill_runs,
    remote_scratch,
)

BACKENDS = ("serial", "thread", "process")


def store_blobs(store) -> "dict[str, bytes]":
    return {key: bytes(store.get(key)) for key in store.keys()}


def assert_no_leaks(segments_before, *directories) -> None:
    """No new ``/dev/shm`` segment, no torn ``.tmp`` file, and every
    spill mapping released (the files unlink cleanly)."""
    gc.collect()
    assert set(shm_plane.list_segments("psna-")) == segments_before
    for directory in directories:
        directory = Path(directory)
        assert not list(directory.rglob("*.tmp"))
        for path in sorted(directory.rglob("*"), reverse=True):
            path.rmdir() if path.is_dir() else path.unlink()


# ---------------------------------------------------------------------------
# Strategies.

cigars = st.sampled_from([b"", b"4M", b"2S6M", b"3M1I2M", b"5M2D3M1S", b"12M"])
reads = st.text(alphabet="ACGTN", min_size=0, max_size=30).map(str.encode)


@st.composite
def records(draw, huge: bool, nul: bool):
    """One row: (result, metadata, bases, qual) with a small key space,
    so equal keys are common and straddle run boundaries."""
    kind = draw(st.sampled_from(["mapped"] * 5 + ["unmapped", "no_cigar"]))
    if kind == "unmapped":
        result = AlignmentResult()
    else:
        position = draw(st.integers(0, 12))
        if huge and draw(st.booleans()):
            position += 1 << 32
        result = AlignmentResult(
            flag=draw(st.sampled_from([0, 16])),
            mapq=draw(st.integers(0, 60)),
            contig_index=draw(st.integers(0, 2)),
            position=position,
            cigar=b"" if kind == "no_cigar" else draw(cigars),
        )
    alphabet = b"\0ab" if nul else b"abc"
    meta = bytes(draw(st.lists(st.sampled_from(alphabet), max_size=4)))
    bases = draw(reads)
    return result, meta, bases, b"I" * len(bases)


@st.composite
def sort_cases(draw):
    huge = draw(st.integers(0, 5)) == 0
    nul = draw(st.integers(0, 5)) == 0
    rows = draw(st.lists(records(huge, nul), min_size=1, max_size=60))
    dataset = AGDDataset.create(
        "case",
        {
            "results": [r[0] for r in rows],
            "metadata": [r[1] for r in rows],
            "bases": [r[2] for r in rows],
            "qual": [r[3] for r in rows],
        },
        MemoryStore(),
        chunk_size=draw(st.integers(1, 9)),
    )
    config = SortConfig(
        order=draw(st.sampled_from(["location", "metadata"])),
        chunks_per_superchunk=draw(st.integers(1, 4)),
        output_chunk_size=draw(st.sampled_from([None, 1, 5, 64])),
    )
    return dataset, config


# ---------------------------------------------------------------------------
# The differential.

class TestSortEqualsOracle:
    @settings(max_examples=60, deadline=None)
    @given(case=sort_cases(), raw=st.booleans())
    def test_every_scratch_blob_and_output_chunk(self, case, raw):
        dataset, config = case
        with tempfile.TemporaryDirectory() as tmp:
            def scratch(name):
                return DirectoryStore(Path(tmp) / name) if raw \
                    else remote_scratch()

            expect_scratch, got_scratch = scratch("oracle"), scratch("got")
            expect_out, got_out = MemoryStore(), MemoryStore()
            oracle_sort_dataset(dataset, expect_out, config, expect_scratch)
            got = sort_dataset(dataset, got_out, config, got_scratch)
            assert store_blobs(got_scratch) == store_blobs(expect_scratch)
            assert store_blobs(got_out) == store_blobs(expect_out)
            assert verify_sorted(got, config.order)
            assert got.total_records == dataset.total_records
            assert got.manifest.sort_order == config.order

    def test_all_keys_equal_straddle_every_boundary(self):
        """One key everywhere: every run boundary cuts a tie, and input
        order must survive (stability = merge order)."""
        n = 47
        dataset = AGDDataset.create(
            "ties",
            {"results": [AlignmentResult(flag=0, contig_index=1, position=7,
                                         cigar=b"4M")] * n,
             "metadata": [f"r{i:03d}".encode() for i in range(n)],
             "bases": [b"ACGT"] * n, "qual": [b"IIII"] * n},
            MemoryStore(), chunk_size=5,
        )
        config = SortConfig(chunks_per_superchunk=2)
        expect, got = MemoryStore(), MemoryStore()
        oracle_sort_dataset(dataset, expect, config)
        out = sort_dataset(dataset, got, config)
        assert store_blobs(got) == store_blobs(expect)
        assert out.read_column("metadata") == \
            dataset.read_column("metadata")

    @pytest.mark.parametrize("order", ["location", "metadata"])
    def test_unpackable_keys_keep_ties_in_input_order(self, order):
        """Positions >= 2**32 and NUL bytes in metadata change how the
        permutation is computed (lexsort / Python-keyed index sort) —
        never the order: ties stay in input order within and across
        runs."""
        n = 60
        dataset = AGDDataset.create(
            "unpackable",
            {"results": [AlignmentResult(
                flag=0, contig_index=i % 2,
                position=(1 << 32) + (i * 7) % 3, cigar=b"4M")
                for i in range(n)],
             "metadata": [b"k\0" + bytes([97 + (i * 5) % 3])
                          for i in range(n)],
             "bases": [b"ACGTN"[: i % 5] for i in range(n)],
             "qual": [b"IIIII"[: i % 5] for i in range(n)]},
            MemoryStore(), chunk_size=7,
        )
        config = SortConfig(order=order, chunks_per_superchunk=2)
        expect, got = MemoryStore(), MemoryStore()
        expect_scratch, got_scratch = remote_scratch(), remote_scratch()
        oracle_sort_dataset(dataset, expect, config, expect_scratch)
        out = sort_dataset(dataset, got, config, got_scratch)
        assert store_blobs(got_scratch) == store_blobs(expect_scratch)
        assert store_blobs(got) == store_blobs(expect)
        assert verify_sorted(out, order)

    def test_sort_without_backend_matches(self):
        dataset = AGDDataset.create(
            "plain",
            {"results": [AlignmentResult(flag=0, contig_index=i % 2,
                                         position=(7 * i) % 31, cigar=b"3M")
                         for i in range(40)],
             "metadata": [f"m{i}".encode() for i in range(40)]},
            MemoryStore(), chunk_size=6,
        )
        config = SortConfig(chunks_per_superchunk=3)
        expect, got = MemoryStore(), MemoryStore()
        expect_scratch, got_scratch = remote_scratch(), remote_scratch()
        oracle_sort_dataset(dataset, expect, config, expect_scratch)
        sort_dataset(dataset, got, config, got_scratch)
        assert store_blobs(got_scratch) == store_blobs(expect_scratch)
        assert store_blobs(got) == store_blobs(expect)


class TestSortConfigValidation:
    @pytest.mark.parametrize("kwargs,message", [
        ({"order": "bogus"}, "unknown sort order"),
        ({"chunks_per_superchunk": 0}, "chunks_per_superchunk"),
    ])
    def test_bad_config_fails_before_any_work(self, kwargs, message):
        """Construction is where a bad config dies — the same
        ``ValueError`` for ``sort_dataset`` and ``run_pipeline``, before
        either has read a chunk (a pipeline used to fail mid-run as a
        ``PipelineError`` from the sort-run node)."""
        with pytest.raises(ValueError, match=message):
            SortConfig(**kwargs)


class TestVerifySorted:
    @settings(max_examples=40, deadline=None)
    @given(case=sort_cases(), swap=st.booleans())
    def test_matches_row_comparison(self, case, swap):
        """True on every sorted dataset, and exactly as strict as
        comparing adjacent row keys on an unsorted one."""
        dataset, config = case
        out = sort_dataset(dataset, MemoryStore(), config)
        assert verify_sorted(out, config.order)
        column = "results" if config.order == "location" else "metadata"
        keys = [r.location_key() if config.order == "location" else r
                for r in dataset.read_column(column)]
        assert verify_sorted(dataset, config.order) == \
            all(a <= b for a, b in zip(keys, keys[1:]))


# ---------------------------------------------------------------------------
# Resume compatibility: phase 2 over spills in the previous format.

class TestOracleSpillsMerge:
    @settings(max_examples=40, deadline=None)
    @given(case=sort_cases(), raw=st.booleans(),
           partitions=st.sampled_from([1, 2, 4]))
    def test_new_phase_two_merges_old_spills(self, case, raw, partitions):
        dataset, config = case
        with tempfile.TemporaryDirectory() as tmp:
            scratch = DirectoryStore(tmp) if raw else MemoryStore()
            runs = oracle_spill_runs(dataset, scratch, config,
                                     partitions=partitions)
            expect = MemoryStore()
            oracle_merge(dataset, scratch, runs, expect, config)
            got = MemoryStore()
            list(iter_merged_chunks(
                scratch, runs,
                _key_first_columns(list(dataset.manifest.columns)),
                config.order,
                config.output_chunk_size
                or dataset.manifest.chunks[0].record_count,
                dataset.manifest.name, got,
            ))
            assert store_blobs(got) == store_blobs(expect)

    def test_mixed_whole_and_partitioned_runs(self):
        """A resumed run whose scratch an older version half filled:
        some runs spilled whole, some by key range — one merge."""
        results = [AlignmentResult(flag=0, contig_index=0,
                                   position=(13 * i) % 50, cigar=b"4M")
                   for i in range(48)]
        dataset = AGDDataset.create(
            "mixed", {"results": results,
                      "metadata": [f"r{i}".encode() for i in range(48)]},
            MemoryStore(), chunk_size=6,
        )
        config = SortConfig(chunks_per_superchunk=2)
        scratch = MemoryStore()
        whole = oracle_spill_runs(dataset, scratch, config, partitions=1)
        # Respill the odd runs partitioned, under the same run numbers.
        split_scratch = MemoryStore()
        split = oracle_spill_runs(dataset, split_scratch, config,
                                  partitions=3)
        runs = list(whole)
        for index in range(1, len(runs), 2):
            runs[index] = split[index]
            for key in split_scratch.keys():
                if key.startswith(f"superchunk-{index}-"):
                    scratch.put(key, split_scratch.get(key))
        expect, got = MemoryStore(), MemoryStore()
        oracle_merge(dataset, scratch, whole, expect, config)
        list(iter_merged_chunks(
            scratch, runs, ["results", "metadata"], "location", 6,
            dataset.manifest.name, got,
        ))
        assert store_blobs(got) == store_blobs(expect)


# ---------------------------------------------------------------------------
# Column types: take / concat / slice / round-trip.

results_records = st.builds(
    AlignmentResult,
    flag=st.sampled_from([0, 4, 16, 1024]),
    mapq=st.integers(0, 255),
    contig_index=st.integers(-1, 3),
    position=st.integers(-1, 1 << 40),
    next_contig_index=st.integers(-1, 3),
    next_position=st.integers(-1, 1 << 33),
    template_length=st.integers(-500, 500),
    edit_distance=st.integers(0, 50),
    cigar=cigars,
)

COLUMN_CASES = {
    "text": ("text", TextColumn, st.binary(max_size=9)),
    "bases": ("bases", PackedBasesColumn, reads),
    "results": ("results", ResultsColumn, results_records),
}


@pytest.mark.parametrize("case", sorted(COLUMN_CASES))
class TestColumnTypes:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_round_trip_take_concat_slice(self, case, data):
        record_type, column_class, strategy = COLUMN_CASES[case]
        items = data.draw(st.lists(strategy, max_size=25))
        blob = write_chunk(items, record_type)
        column = read_column(blob)
        assert isinstance(column, column_class)
        # Round trip: same records, same chunk bytes, no per-record work.
        assert len(column) == len(items)
        assert column == items and list(column) == items
        assert column == read_chunk(blob).records
        assert write_chunk(column, record_type) == blob
        # take: any index list (repeats, empty, reversed).
        index = data.draw(st.lists(
            st.integers(0, max(0, len(items) - 1)), max_size=30,
        )) if items else []
        taken = column.take(index)
        assert type(taken) is column_class
        assert taken == [items[i] for i in index]
        assert write_chunk(taken, record_type) == \
            write_chunk([items[i] for i in index], record_type)
        # slice + concat: cut anywhere, glue back.
        cuts = sorted(data.draw(st.lists(
            st.integers(0, len(items)), max_size=4)))
        edges = [0, *cuts, len(items)]
        pieces = [column[lo:hi] for lo, hi in zip(edges[:-1], edges[1:])]
        for piece, lo, hi in zip(pieces, edges[:-1], edges[1:]):
            assert piece == items[lo:hi]
        glued = column_class.concat(pieces)
        assert type(glued) is column_class
        assert write_chunk(glued, record_type) == blob
        # A plain record list joins in too (wrapped once).
        assert column_class.concat([column, items]) == items + items
        for i in range(len(items)):
            assert column[i] == items[i]
            assert bytes(column.view(i)) == (
                items[i].to_bytes() if case == "results" else items[i])

    def test_empty_column(self, case):
        record_type, column_class, _ = COLUMN_CASES[case]
        column = read_column(write_chunk([], record_type))
        assert len(column) == 0 and column == []
        assert len(column.take([])) == 0
        assert len(column_class.concat([])) == 0
        assert len(column_class.concat([column, column[0:0]])) == 0


class TestBasesRepresentations:
    @settings(max_examples=40, deadline=None)
    @given(items=st.lists(reads, max_size=20))
    def test_packed_and_ascii_agree(self, items):
        packed = read_column(write_chunk(items, "bases"))
        ascii_column = packed.decoded()
        assert isinstance(ascii_column, BasesColumn)
        assert packed.decoded() is ascii_column  # unpacked once
        assert ascii_column == items and packed == ascii_column
        assert ascii_column == packed
        blob = write_chunk(items, "bases")
        assert write_chunk(ascii_column, "bases") == blob
        # Mixed representations concatenate as ASCII.
        mixed = RaggedColumn.concat([packed, ascii_column])
        assert isinstance(mixed, BasesColumn) and mixed == items + items
        assert np.array_equal(packed.counts,
                              [len(read) for read in items])


class TestResultsColumn:
    @settings(max_examples=40, deadline=None)
    @given(items=st.lists(results_records, min_size=1, max_size=20),
           data=st.data())
    def test_with_flag_equals_object_update(self, items, data):
        column = ResultsColumn.from_records(items)
        marks = data.draw(st.lists(st.integers(0, len(items) - 1),
                                   max_size=8))
        marked = column.with_flag(marks, FLAG_DUPLICATE)
        expected = [
            r.with_flag(FLAG_DUPLICATE) if i in set(marks) else r
            for i, r in enumerate(items)
        ]
        assert marked == expected
        assert write_chunk(marked, "results") == \
            write_chunk(expected, "results")
        assert column == items  # the original block is untouched
        arrays = column.arrays
        assert arrays.flag.tolist() == [r.flag for r in items]
        assert arrays.position.tolist() == [r.position for r in items]
        assert [arrays.cigar(i) for i in range(len(items))] == \
            [r.cigar for r in items]

    def test_from_fields_assembles_the_block(self):
        from repro.agd.result_column import RESULT_FIXED_DTYPE

        items = [AlignmentResult(flag=16, mapq=3, contig_index=1,
                                 position=9, edit_distance=2, cigar=b"7M"),
                 AlignmentResult(),
                 AlignmentResult(flag=0, mapq=60, contig_index=0,
                                 position=1 << 35, cigar=b"3M1I3M")]
        fixed = np.zeros(len(items), dtype=RESULT_FIXED_DTYPE)
        for i, r in enumerate(items):
            fixed[i] = (r.flag, r.mapq, 0, r.contig_index, r.position,
                        r.next_contig_index, r.next_position,
                        r.template_length, r.edit_distance, 0)
        cigar_buf = np.frombuffer(b"".join(r.cigar for r in items),
                                  dtype=np.uint8)
        column = ResultsColumn.from_fields(
            fixed, cigar_buf, np.array([len(r.cigar) for r in items]))
        assert column == items
        assert write_chunk(column, "results") == write_chunk(items, "results")

    def test_malformed_block_fails_at_decode(self):
        with pytest.raises(ValueError):  # shorter than the fixed prefix
            ResultsColumn.from_block(b"short", [5])
        record = AlignmentResult(cigar=b"4M").to_bytes()
        with pytest.raises(ValueError):  # CIGAR runs past the record
            ResultsColumn.from_block(record[:-2], [len(record) - 2])
        with pytest.raises(ValueError):  # index and block disagree
            TextColumn.from_block(b"short", [3])
        with pytest.raises(ValueError):
            TextColumn.from_block(b"short", [9])


# ---------------------------------------------------------------------------
# Whole pipelines: the oracle chain's digest on every backend, and placed.

SORT_CONFIG = SortConfig(chunks_per_superchunk=2)
VARCALL = VarCallConfig(min_depth=2)


def output_digest(sorted_dataset, variants) -> str:
    digest = hashlib.sha256()
    for column in sorted(sorted_dataset.columns):
        for entry in sorted_dataset.manifest.chunks:
            digest.update(sorted_dataset.store.get(entry.chunk_file(column)))
    for variant in variants:
        digest.update(variant.to_line())
    return digest.hexdigest()


def copy_dataset(dataset: AGDDataset) -> AGDDataset:
    store = MemoryStore()
    for key in dataset.store.keys():
        store.put(key, dataset.store.get(key))
    return AGDDataset(Manifest.from_json(dataset.manifest.to_json()), store)


@pytest.fixture(scope="module")
def oracle_digest(reads, reference, aligned_results):
    """Row sort, scalar dupmark, scalar varcall: the parent's output."""
    dataset = import_reads(reads, "aligned", MemoryStore(), chunk_size=100,
                           reference=reference.manifest_entry())
    dataset.append_column("results", list(aligned_results))
    sorted_dataset = oracle_sort_dataset(dataset, MemoryStore(), SORT_CONFIG)
    stats = oracle_mark_duplicates(sorted_dataset)
    assert stats.duplicates_marked > 0
    variants = call_from_pileup(pileup_dataset(sorted_dataset, VARCALL),
                                reference, VARCALL)
    return output_digest(sorted_dataset, variants)


class TestPipelineDigest:
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_downstream_stages(self, aligned_dataset, reference,
                               oracle_digest, kind, tmp_path):
        before = set(shm_plane.list_segments("psna-"))
        outcome = run_pipeline(
            aligned_dataset, ("sort", "dupmark", "varcall"),
            reference=reference, sort_config=SORT_CONFIG,
            varcall_config=VARCALL,
            output_store=DirectoryStore(tmp_path / "out"),
            scratch_store=DirectoryStore(tmp_path / "scratch"),
            backend=kind, workers=2,
        )
        assert output_digest(outcome.sorted_dataset, outcome.variants) == \
            oracle_digest
        assert_no_leaks(before, tmp_path)

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_all_four_stages(self, dataset, reference, snap_aligner,
                             oracle_digest, kind, tmp_path):
        before = set(shm_plane.list_segments("psna-"))
        outcome = run_pipeline(
            dataset, ("align", "sort", "dupmark", "varcall"),
            aligner=snap_aligner, reference=reference,
            sort_config=SORT_CONFIG, varcall_config=VARCALL,
            output_store=DirectoryStore(tmp_path / "out"),
            scratch_store=DirectoryStore(tmp_path / "scratch"),
            backend=kind, workers=2,
        )
        # import_reads names this fixture's dataset "fixture"; the digest
        # covers chunk bytes and VCF lines, not names.
        assert output_digest(outcome.sorted_dataset, outcome.variants) == \
            oracle_digest
        assert_no_leaks(before, tmp_path)

    def test_placed_sort_then_dupmark_varcall(self, aligned_dataset,
                                              reference, oracle_digest,
                                              tmp_path):
        before = set(shm_plane.list_segments("psna-"))
        outcome = run_placed_pipeline(
            aligned_dataset, PlacementPlan.parse("A=sort;B=dupmark,varcall"),
            reference=reference, sort_config=SORT_CONFIG,
            varcall_config=VARCALL,
            output_store=DirectoryStore(tmp_path / "out"),
            scratch_store_factory=lambda _server: DirectoryStore(
                tmp_path / "scratch"),
            backend="serial", workers=2,
        )
        assert output_digest(outcome.sorted_dataset, outcome.variants) == \
            oracle_digest
        assert_no_leaks(before, tmp_path)
