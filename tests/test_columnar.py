"""Scalar-reference vs columnar-vectorized kernel equivalence.

The contract under test: every vectorized kernel in
``repro.core.columnar`` must produce output *identical* to its scalar
reference — same pileup columns and VCF records, same sort permutation
and sorted-dataset bytes, same duplicate marks and stats — including on
adversarial inputs (soft clips, indels, reverse strands, unmapped and
pre-marked-duplicate records) and across all three execution backends.
"""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agd.dataset import AGDDataset
from repro.agd.manifest import ChunkEntry, Manifest
from repro.align.result import AlignmentResult, cigar_operations, make_cigar
from repro.core import columnar
from repro.core.dupmark import (
    DupmarkStats,
    fragment_signature,
    mark_duplicates,
    mark_duplicates_results,
)
from repro.agd.result_column import ResultsColumn, decode_results_arrays
from repro.core.ops import ChunkWorkItem, VarCallNode
from repro.core.sort import SortConfig, sort_dataset
from repro.core.varcall import (
    VarCallConfig,
    call_from_pileup,
    call_variants,
    pileup_dataset,
    pileup_records,
)
from repro.formats.vcf import write_vcf
from repro.genome.reference import Contig, ReferenceGenome
from repro.genome.synthetic import synthetic_reference
from repro.storage.base import MemoryStore
from dupmark_oracle import oracle_mark_duplicates
from row_sort_oracle import oracle_sort_dataset, sort_key_for

# ---------------------------------------------------------------------------
# Strategies: adversarial alignment records with consistent read data.

BASES = b"ACGTN"


@st.composite
def cigar_ops(draw):
    """CIGAR op lists with soft clips, indels, and skips."""
    ops = []
    if draw(st.booleans()):
        ops.append((draw(st.integers(1, 6)), "S"))
    ops.append((draw(st.integers(1, 20)), "M"))
    for _ in range(draw(st.integers(0, 2))):
        ops.append((draw(st.integers(1, 4)),
                    draw(st.sampled_from(["I", "D", "N", "X", "="]))))
        ops.append((draw(st.integers(1, 10)), "M"))
    if draw(st.booleans()):
        ops.append((draw(st.integers(1, 6)), "S"))
    return ops


@st.composite
def aligned_triples(draw, alphabet=BASES):
    """(AlignmentResult, bases, quals) with read length matching CIGAR."""
    unmapped = draw(st.integers(0, 9)) == 0
    if unmapped:
        n = draw(st.integers(1, 20))
        result = AlignmentResult()
        bases = bytes(draw(st.sampled_from(BASES)) for _ in range(n))
        return result, bases, b"I" * n
    ops = draw(cigar_ops())
    cigar = make_cigar(ops)
    read_len = sum(n for n, op in ops if op in "MIS=X")
    flag = 0
    if draw(st.booleans()):
        flag |= 0x10  # reverse
    if draw(st.integers(0, 4)) == 0:
        flag |= 0x400  # pre-marked duplicate
    kwargs = {}
    if draw(st.booleans()):
        flag |= 0x1  # paired
        kwargs = dict(
            next_contig_index=draw(st.integers(-1, 2)),
            next_position=draw(st.integers(0, 60)),
        )
    result = AlignmentResult(
        flag=flag,
        mapq=draw(st.integers(0, 60)),
        contig_index=draw(st.integers(0, 2)),
        position=draw(st.integers(0, 150)),
        cigar=cigar,
        **kwargs,
    )
    bases = bytes(draw(st.sampled_from(alphabet)) for _ in range(read_len))
    quals = bytes(draw(st.integers(33, 74)) for _ in range(read_len))
    return result, bases, quals


triple_lists = st.lists(aligned_triples(), min_size=1, max_size=40)


# ---------------------------------------------------------------------------
# CIGAR parsing and results-array decode.

class TestResultsArrays:
    @given(triple_lists)
    @settings(max_examples=40, deadline=None)
    def test_cigar_parse_matches_scalar(self, triples):
        results = [t[0] for t in triples]
        arrays = ResultsColumn.from_records(results).arrays
        ops = columnar.parse_cigars(
            arrays.cigar_buf, arrays.cigar_starts, arrays.cigar_ends
        )
        for i, result in enumerate(results):
            expected = cigar_operations(result.cigar)
            mask = ops.record == i
            got = [
                (int(length), chr(int(op)))
                for length, op in zip(ops.length[mask], ops.op[mask])
            ]
            assert got == expected

    @given(triple_lists)
    @settings(max_examples=25, deadline=None)
    def test_blob_decode_matches_objects(self, triples):
        from repro.agd.chunk import write_chunk

        results = [t[0] for t in triples]
        blob = write_chunk(results, "results")
        arrays = columnar.read_results_column(blob).arrays
        assert len(arrays) == len(results)
        for i, r in enumerate(results):
            assert int(arrays.flag[i]) == r.flag
            assert int(arrays.contig_index[i]) == r.contig_index
            assert int(arrays.position[i]) == r.position
            assert arrays.cigar(i) == r.cigar

    @given(triple_lists, st.data())
    @settings(max_examples=40, deadline=None)
    def test_slices_and_copies_decode_the_block_they_hold(self, triples,
                                                          data):
        column = ResultsColumn.from_records([t[0] for t in triples])
        column.arrays
        lo = data.draw(st.integers(0, len(column) - 1))
        hi = data.draw(st.integers(lo + 1, len(column)))
        window = column[lo:hi]
        for sub in (window, window[1:]):  # a slice, a slice of a slice
            got = sub.arrays
            assert got.position.tolist() == [r.position for r in sub]
            assert got.flag.tolist() == [r.flag for r in sub]
            assert [got.cigar(i) for i in range(len(sub))] == \
                [r.cigar for r in sub]
        frozen = window.flat.view()
        frozen.flags.writeable = False
        borrowed = ResultsColumn(frozen, window.bounds)
        borrowed.arrays
        owned = borrowed.materialize()
        assert owned is not borrowed
        assert not np.shares_memory(owned.arrays.cigar_buf, column.flat)
        assert not np.shares_memory(owned.arrays.fixed, column.flat)

    def test_malformed_cigar_raises(self):
        buf = np.frombuffer(b"5M3", dtype=np.uint8)
        with pytest.raises(ValueError):
            columnar.parse_cigars(
                buf, np.array([0], np.int64), np.array([3], np.int64)
            )
        buf = np.frombuffer(b"0M", dtype=np.uint8)
        with pytest.raises(ValueError):
            columnar.parse_cigars(
                buf, np.array([0], np.int64), np.array([2], np.int64)
            )


# ---------------------------------------------------------------------------
# Pileup equivalence.

class TestPileupEquivalence:
    @given(triple_lists)
    @settings(max_examples=40, deadline=None)
    def test_partial_matches_scalar_columns(self, triples):
        results = [t[0] for t in triples]
        bases = [t[1] for t in triples]
        quals = [t[2] for t in triples]
        config = VarCallConfig(min_mapq=20, min_base_quality=15)
        scalar = dict(pileup_records(results, bases, quals, config))
        vector = columnar.pileup_to_columns(
            columnar.pileup_partial(results, bases, quals, config)
        )
        assert set(scalar) == set(vector)
        for key in scalar:
            assert scalar[key].depth == vector[key].depth
            assert scalar[key].counts == vector[key].counts

    @given(st.lists(aligned_triples(alphabet=b"ACGTTGCANacgtRY"),
                    min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_falls_back_exactly_when_a_counted_byte_is_not_acgtn(
        self, triples
    ):
        """Soft-masked and IUPAC bytes, on either strand: the fast path
        gives up iff the scalar pileup *counts* one (a kept record, an
        aligned base, good quality) — and agrees with it otherwise."""
        results = [t[0] for t in triples]
        bases = [t[1] for t in triples]
        quals = [t[2] for t in triples]
        config = VarCallConfig(min_mapq=20, min_base_quality=15)
        scalar = dict(pileup_records(results, bases, quals, config))
        if any(byte not in BASES
               for column in scalar.values() for byte in column.counts):
            with pytest.raises(columnar.ColumnarFallback):
                columnar.pileup_partial(results, bases, quals, config)
        else:
            assert columnar.pileup_to_columns(
                columnar.pileup_partial(results, bases, quals, config)
            ) == scalar

    @given(triple_lists)
    @settings(max_examples=20, deadline=None)
    def test_chunked_merge_is_exact(self, triples):
        """Partials accumulated per chunk merge to the full pileup."""
        results = [t[0] for t in triples]
        bases = [t[1] for t in triples]
        quals = [t[2] for t in triples]
        config = VarCallConfig(min_mapq=0, min_base_quality=0,
                               skip_duplicates=False)
        whole = columnar.pileup_partial(results, bases, quals, config)
        window = columnar.PileupWindow(None, config)
        for lo in range(0, len(triples), 7):
            window.add(
                columnar.pileup_partial(
                    results[lo:lo + 7], bases[lo:lo + 7], quals[lo:lo + 7],
                    config,
                ),
            )
        assert columnar.pileup_to_columns(window.drain()) == \
            columnar.pileup_to_columns(whole)

    def test_windowed_calls_identical(self, aligned_dataset, reference):
        config = VarCallConfig(min_depth=2)
        scalar = call_from_pileup(
            pileup_dataset(aligned_dataset, config), reference, config
        )
        assert call_variants(aligned_dataset, reference, config) == scalar


# ---------------------------------------------------------------------------
# The sliding pileup window vs the scalar pileup + caller.

#: Three 200-base contigs: the drawn reads (positions <= 150, up to ~70
#: reference bases each) also overhang a contig's end.
WINDOW_REFERENCE = synthetic_reference(600, num_contigs=3, seed=5)


def reference_span(result) -> int:
    return sum(n for n, op in cigar_operations(result.cigar) if op in "MDN=X")


def cut_chunks(triples, cuts):
    """``(index, first ordinal, chunk)`` for chunks of the given sizes
    (the last size repeats)."""
    lo = index = 0
    while lo < len(triples):
        size = cuts[min(index, len(cuts) - 1)]
        yield index, lo, triples[lo:lo + size]
        lo += size
        index += 1


def process_chunk(node, index, lo, chunk):
    node.process(ChunkWorkItem(
        entry=ChunkEntry(f"world-{index}", lo, len(chunk)),
        columns={"results": [t[0] for t in chunk],
                 "bases": [t[1] for t in chunk],
                 "qual": [t[2] for t in chunk]},
    ), None)


def windowed_node(triples, cuts, config, reference=WINDOW_REFERENCE,
                  **node_kwargs):
    """Feed ``triples`` to a VarCallNode chunk by chunk; returns the
    finalized node."""
    node = VarCallNode(reference, config=config, **node_kwargs)
    for index, lo, chunk in cut_chunks(triples, cuts):
        process_chunk(node, index, lo, chunk)
    node.finalize(None)
    return node


def scalar_calls(triples, config, reference=WINDOW_REFERENCE):
    return call_from_pileup(
        pileup_records([t[0] for t in triples], [t[1] for t in triples],
                       [t[2] for t in triples], config),
        reference, config,
    )


def vcf_lines(variants, reference=WINDOW_REFERENCE) -> bytes:
    buf = io.BytesIO()
    write_vcf(variants, buf, contigs=reference.manifest_entry())
    return buf.getvalue()


def stacked_reads(n, step=3, lowercase_at=(), start=0):
    """``n`` forward 8M reads, ``step`` apart on contig 0 from ``start``,
    whose bases are the reference's shifted by one (nearly every column
    calls)."""
    seq = WINDOW_REFERENCE.contigs[0].sequence
    triples = []
    for i in range(n):
        position = start + i * step
        bases = seq[position + 1:position + 9]
        if i in lowercase_at:
            bases = bases.lower()
        triples.append((
            AlignmentResult(flag=0, mapq=60, contig_index=0,
                            position=position, cigar=b"8M"),
            bases, b"I" * 8,
        ))
    return triples


LOOSE = VarCallConfig(min_depth=1, min_alt_fraction=0.3, min_mapq=0,
                      min_base_quality=0)


class TestPileupWindow:
    @given(triple_lists, st.lists(st.integers(1, 9), min_size=1, max_size=6),
           st.integers(1, 3))
    @settings(max_examples=120, deadline=None)
    def test_sorted_stream_matches_scalar_and_stays_a_window(
        self, triples, cuts, min_depth
    ):
        """A drawn location-sorted world (1-3 contigs, both strands,
        indels and soft clips, duplicates, low-MAPQ and unmapped reads)
        cut into arbitrary chunks — reads straddle every cut: the calls
        are the scalar oracle's, and the window never holds more than a
        chunk's reference span plus one read's."""
        triples = sorted(triples, key=lambda t: t[0].location_key())
        config = VarCallConfig(min_depth=min_depth, min_alt_fraction=0.5)
        node = windowed_node(triples, cuts, config, sorted_input=True)
        assert node.vectorized, "no fallback on ACGTN input"
        assert vcf_lines(node.variants) == \
            vcf_lines(scalar_calls(triples, config))
        assert all(v.pos >= 1 for v in node.variants)

        chunk_span = longest_read = 0
        for _, _, chunk in cut_chunks(triples, cuts):
            ends: dict = {}
            for result, _, _ in chunk:
                if not result.is_aligned:
                    continue
                span = reference_span(result)
                longest_read = max(longest_read, span)
                first, last = ends.get(result.contig_index,
                                       (result.position, 0))
                ends[result.contig_index] = (
                    min(first, result.position),
                    max(last, result.position + span),
                )
            chunk_span = max(chunk_span,
                             sum(last - first for first, last in ends.values()))
        assert node.window.high_water_rows <= chunk_span + longest_read

    @given(triple_lists, st.lists(st.integers(1, 9), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_unsorted_stream_matches_scalar(self, triples, cuts):
        """Any chunk order through the same class: it never flushes
        early, and the calls are still the oracle's."""
        config = VarCallConfig(min_depth=1, min_alt_fraction=0.5)
        node = windowed_node(triples, cuts, config)
        assert vcf_lines(node.variants) == \
            vcf_lines(scalar_calls(triples, config))

    def test_out_of_order_chunk_raises_and_names_the_chunk(self):
        triples = stacked_reads(12)
        swapped = triples[8:] + triples[4:8] + triples[:4]
        with pytest.raises(ValueError, match=r"world-1.*not location-sorted"):
            windowed_node(swapped, [4], LOOSE, sorted_input=True)
        # The same chunks in any order are fine when nothing says sorted.
        assert windowed_node(swapped, [4], LOOSE).variants == \
            scalar_calls(triples, LOOSE)

    def test_chunk_internally_out_of_order_raises(self):
        triples = stacked_reads(8)
        triples[4], triples[6] = triples[6], triples[4]
        with pytest.raises(ValueError, match=r"world-1.*low-water"):
            windowed_node(triples, [4], LOOSE, sorted_input=True)

    @pytest.mark.parametrize("sorted_input", [True, False])
    def test_mid_stream_fallback_keeps_flushed_calls(self, sorted_input):
        """A lowercase base in chunk 2 demotes the node to the scalar
        reference from there on: what chunks 0-1 let it call stays as it
        was, and the total is the scalar run's."""
        triples = stacked_reads(20, lowercase_at={9})
        node = VarCallNode(WINDOW_REFERENCE, config=LOOSE,
                           sorted_input=sorted_input)
        before = None
        for index, lo, chunk in cut_chunks(triples, [4]):
            if index == 2:
                before = list(node.window.variants)
                assert bool(before) == sorted_input
            process_chunk(node, index, lo, chunk)
            assert node.vectorized == (index < 2)
        node.finalize(None)
        assert node.variants[:len(before)] == before
        scalar = scalar_calls(triples, LOOSE)
        assert any(v.alt.islower() for v in scalar)
        assert vcf_lines(node.variants) == vcf_lines(scalar)

    def test_negative_reference_position_never_calls(self):
        """A malformed record at ``position < 0`` must not read the
        contig from its end: no row at POS <= 0, on either path, and the
        in-range part of the read still counts."""
        seq = WINDOW_REFERENCE.contigs[0].sequence
        # Mismatches the contig's last 3 bases *and* its first 5.
        bases = bytes(
            BASES[(BASES.index(b) + 1) % 4] for b in seq[-3:] + seq[:5]
        )
        triples = [(
            AlignmentResult(flag=0, mapq=60, contig_index=0, position=-3,
                            cigar=b"8M"),
            bases, b"I" * 8,
        )] + stacked_reads(4, start=40)
        scalar = scalar_calls(triples, LOOSE)
        assert [v.pos for v in scalar][:5] == [1, 2, 3, 4, 5]
        assert all(v.pos >= 1 for v in scalar)
        for sorted_input in (True, False):
            node = windowed_node(triples, [2], LOOSE,
                                 sorted_input=sorted_input)
            assert node.vectorized
            assert vcf_lines(node.variants) == vcf_lines(scalar)
        dataset = AGDDataset.create(
            "negative",
            {"results": [t[0] for t in triples],
             "bases": [t[1] for t in triples],
             "qual": [t[2] for t in triples]},
            MemoryStore(), chunk_size=2,
        )
        assert call_variants(dataset, WINDOW_REFERENCE, LOOSE) == scalar
        assert call_from_pileup(pileup_dataset(dataset, LOOSE),
                                WINDOW_REFERENCE, LOOSE) == scalar

    def test_rows_with_only_the_reference_base_are_not_ranked(
        self, monkeypatch
    ):
        """Only rows with a non-reference base reach the ranking code —
        a reference byte outside ACGTN counts as matching nothing."""
        seq = WINDOW_REFERENCE.contigs[0].sequence
        reference = ReferenceGenome([
            Contig("soft", seq[:20].lower() + seq[20:]),
        ])
        matching = [(
            AlignmentResult(flag=0, mapq=60, contig_index=0, position=i * 8,
                            cigar=b"8M"),
            seq[i * 8:i * 8 + 8], b"I" * 8,
        ) for i in range(6)]
        ranked_rows = []
        argmax = np.argmax

        def spy(a, *args, **kwargs):
            ranked_rows.append(a.shape[0])
            return argmax(a, *args, **kwargs)

        monkeypatch.setattr(columnar.np, "argmax", spy)
        node = windowed_node(matching, [6], LOOSE, reference=reference)
        monkeypatch.undo()
        assert ranked_rows == [20]
        assert [v.pos for v in node.variants] == list(range(1, 21))
        assert node.variants == scalar_calls(matching, LOOSE, reference)


# ---------------------------------------------------------------------------
# Sort-key equivalence.

class TestSortEquivalence:
    @given(triple_lists)
    @settings(max_examples=40, deadline=None)
    def test_location_permutation_matches_list_sort(self, triples):
        rows = [
            (t[0], f"meta{i:04d}".encode()) for i, t in enumerate(triples)
        ]
        column = ResultsColumn.from_records([row[0] for row in rows])
        assert columnar.sort_keys("location", column) is not None
        perm, _keys = columnar.sort_permutation("location", column)
        assert [rows[i] for i in perm] == \
            sorted(rows, key=sort_key_for("location"))

    @given(st.lists(st.binary(min_size=0, max_size=12), min_size=1,
                    max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_metadata_permutation_matches_list_sort(self, metas):
        rows = [(AlignmentResult(), m) for m in metas]
        # NUL bytes: packed keys would diverge, so the permutation comes
        # from a Python-keyed index sort instead — same order.
        assert (columnar.sort_keys("metadata", metas) is None) == \
            any(b"\0" in m for m in metas)
        perm, _keys = columnar.sort_permutation("metadata", metas)
        assert [int(i) for i in perm] == \
            sorted(range(len(rows)), key=lambda i: rows[i][1])

    def test_unpackable_positions_change_only_the_permutation(self):
        results = [
            AlignmentResult(flag=0, contig_index=c, position=p, cigar=b"4M")
            for c, p in [(1, 5), (0, 1 << 40), (0, 7), (0, 1 << 40), (1, 0)]
        ] + [AlignmentResult()]
        column = ResultsColumn.from_records(results)
        assert columnar.sort_keys("location", column) is None
        perm, _keys = columnar.sort_permutation("location", column)
        assert [int(i) for i in perm] == sorted(
            range(len(results)), key=lambda i: results[i].location_key())


# ---------------------------------------------------------------------------
# Duplicate-signature equivalence.

@st.composite
def fragment_records(draw):
    """Results drawn from small pools, so signatures collide often:
    single and paired fragments, both strands, soft clips that push the
    unclipped position below zero, positions past 2**32, unmapped."""
    if draw(st.integers(0, 7)) == 0:
        return AlignmentResult()
    clip = draw(st.sampled_from([0, 0, 2, 5]))
    span = draw(st.sampled_from([4, 9]))
    ops = [(span, "M")]
    if clip:
        ops.insert(0, (clip, "S"))
        if draw(st.booleans()):
            ops.append((clip, "S"))
    flag = draw(st.sampled_from([0, 0x10]))
    kwargs = {}
    if draw(st.integers(0, 2)) == 0:
        flag |= 0x1
        kwargs = dict(
            next_contig_index=draw(st.sampled_from([-1, 0, 1])),
            next_position=draw(st.sampled_from([1, 4, (1 << 32) + 2])),
        )
    return AlignmentResult(
        flag=flag,
        mapq=60,
        contig_index=draw(st.integers(0, 1)),
        # 1..4 minus a 5-base leading clip is negative; the rest sit on
        # either side of 2**32.
        position=draw(st.sampled_from(
            [1, 2, 4, (1 << 32) - 1, (1 << 32) + 2, 1 << 40]
        )),
        cigar=make_cigar(ops),
        **kwargs,
    )


class TestDupmarkEquivalence:
    @given(st.lists(fragment_records(), min_size=1, max_size=60),
           st.lists(st.integers(1, 12), min_size=1, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_tracker_matches_the_object_specification(self, results, cuts):
        """Whatever the chunk cuts — a duplicate's first occurrence may
        sit chunks earlier — the tracker marks exactly the records, and
        counts exactly the stats, of ``mark_duplicates_results`` over
        the whole column."""
        scalar_stats, vector_stats = DupmarkStats(), DupmarkStats()
        marked = mark_duplicates_results(results, scalar_stats)
        expected = [i for i, (new, old) in enumerate(zip(marked, results))
                    if new is not old]
        tracker = columnar.DuplicateTracker()
        got, lo = [], 0
        for size in cuts + [len(results)]:
            chunk = results[lo:lo + size]
            if not chunk:
                break
            sigs, valid = columnar.fragment_signature_arrays(
                ResultsColumn.from_records(chunk).arrays
            )
            got += [lo + at for at in tracker.scan(sigs, valid, vector_stats)]
            lo += size
        assert got == expected
        assert vector_stats == scalar_stats

    @given(triple_lists)
    @settings(max_examples=30, deadline=None)
    def test_signature_grouping_matches(self, triples):
        """Two records collide vectorized iff they collide scalar."""
        results = [t[0] for t in triples]
        sigs, valid = columnar.fragment_signature_arrays(
            ResultsColumn.from_records(results).arrays
        )
        groups_scalar: dict = {}
        groups_vector: dict = {}
        for i, r in enumerate(results):
            sig = fragment_signature(r)
            if sig is not None:
                groups_scalar.setdefault(sig, []).append(i)
            if valid[i]:
                groups_vector.setdefault(sigs[i].tobytes(), []).append(i)
        assert sorted(map(tuple, groups_scalar.values())) == \
            sorted(map(tuple, groups_vector.values()))


# ---------------------------------------------------------------------------
# End-to-end: byte-identical datasets/VCF across kernels and backends.

def _copy_dataset(dataset: AGDDataset) -> AGDDataset:
    store = MemoryStore()
    for key in dataset.store.keys():
        store.put(key, dataset.store.get(key))
    return AGDDataset(Manifest.from_json(dataset.manifest.to_json()), store)


def _store_blobs(store: MemoryStore) -> dict:
    return {key: store.get(key) for key in store.keys()}


def test_dupmark_dataset_bytes_match_the_object_specification(
    aligned_dataset,
):
    scalar_ds = _copy_dataset(aligned_dataset)
    scalar_stats = oracle_mark_duplicates(scalar_ds)
    assert scalar_stats.duplicates_marked > 0
    vector_ds = _copy_dataset(aligned_dataset)
    vector_stats = mark_duplicates(vector_ds)
    assert _store_blobs(vector_ds.store) == _store_blobs(scalar_ds.store)
    assert vector_stats == scalar_stats


@pytest.mark.parametrize("backend_kind", ["serial", "thread", "process"])
class TestBackendEquivalence:
    """Sort and varcall run on their node threads whatever backend the
    run names: a one-stage pipeline on each kind matches the oracle."""

    def test_sort_bytes_identical(self, aligned_dataset, backend_kind):
        from repro.core.pipelines import run_pipeline

        scalar_store = MemoryStore()
        oracle_sort_dataset(aligned_dataset, scalar_store,
                            SortConfig(chunks_per_superchunk=3))
        vector_store = MemoryStore()
        outcome = run_pipeline(
            aligned_dataset, ("sort",),
            sort_config=SortConfig(chunks_per_superchunk=3),
            output_store=vector_store, backend=backend_kind, workers=2,
        )
        assert _store_blobs(vector_store) == _store_blobs(scalar_store)
        assert outcome.sorted_dataset.manifest.sort_order == "location"

    def test_varcall_vcf_identical(self, aligned_dataset, reference,
                                   backend_kind, tmp_path):
        from repro.core.pipelines import run_pipeline
        from repro.formats.vcf import write_vcf

        config = VarCallConfig(min_depth=2)
        scalar = call_from_pileup(pileup_dataset(aligned_dataset, config),
                                  reference, config)
        assert call_variants(aligned_dataset, reference, config) == scalar
        vector = run_pipeline(
            aligned_dataset, ("varcall",), reference=reference,
            varcall_config=config, backend=backend_kind, workers=2,
        ).variants
        assert vector == scalar
        scalar_path = tmp_path / "scalar.vcf"
        vector_path = tmp_path / "vector.vcf"
        write_vcf(scalar, scalar_path, contigs=reference.manifest_entry())
        write_vcf(vector, vector_path, contigs=reference.manifest_entry())
        assert vector_path.read_bytes() == scalar_path.read_bytes()


class TestPartitionedMerge:
    def test_single_contig_still_partitions(self):
        """Key-range sub-chunks inside one contig — the layout an older
        version spilled, which a resumed run still adopts — merge to the
        whole-run spills' bytes."""
        from repro.core.sort import iter_merged_chunks
        from row_sort_oracle import oracle_spill_runs

        n = 60
        results = [
            AlignmentResult(flag=0, contig_index=0, position=(n - i) * 3,
                            cigar=b"4M")
            for i in range(n)
        ]
        dataset = AGDDataset.create(
            "one-contig",
            {"results": results,
             "metadata": [f"r{i}".encode() for i in range(n)]},
            MemoryStore(), chunk_size=10,
        )
        config = SortConfig(chunks_per_superchunk=2)
        single = MemoryStore()
        oracle_sort_dataset(dataset, single, config)
        scratch = MemoryStore()
        runs = oracle_spill_runs(dataset, scratch, config, partitions=3)
        assert any(len(run.entries) > 1 for run in runs)
        part = MemoryStore()
        list(iter_merged_chunks(scratch, runs, ["results", "metadata"],
                                "location", 10, dataset.manifest.name, part))
        assert _store_blobs(part) == _store_blobs(single)


# ---------------------------------------------------------------------------
# Satellites: codec levels, payload batching, duplicate blob patching.

class TestCodecLevels:
    def test_leveled_codec_roundtrip(self):
        from repro.agd.chunk import read_chunk, write_chunk
        from repro.agd.compression import leveled_codec

        records = [b"ACGTACGTAC" * 30] * 10
        fast = write_chunk(records, "text", codec=leveled_codec("gzip", 1))
        default = write_chunk(records, "text")
        assert read_chunk(fast).records == records
        assert read_chunk(default).records == records

    def test_scratch_spills_use_level(self, aligned_dataset):
        """A remote scratch gets superchunk spills gzipped at
        ``SCRATCH_CODEC_LEVEL`` (cheaper and larger than level 9), and
        they decode."""
        from repro.agd.chunk import read_chunk, read_column, write_chunk
        from repro.agd.compression import SCRATCH_CODEC_LEVEL, leveled_codec
        from row_sort_oracle import remote_scratch

        scratch = remote_scratch()
        sort_dataset(aligned_dataset, MemoryStore(),
                     SortConfig(chunks_per_superchunk=3),
                     scratch_store=scratch)
        key = next(k for k in scratch.keys() if "results" in k)
        column = read_column(scratch.get(key))
        assert scratch.get(key) == write_chunk(
            column, "results",
            codec=leveled_codec("gzip", SCRATCH_CODEC_LEVEL))
        heavy = write_chunk(column, "results",
                            codec=leveled_codec("gzip", 9))
        assert len(scratch.get(key)) >= len(heavy)
        # Both decode fine: the chunk header still names plain gzip.
        assert len(read_chunk(scratch.get(key))) == len(read_chunk(heavy))

    def test_output_codec_level(self, aligned_dataset):
        light = MemoryStore()
        sort_dataset(aligned_dataset, light,
                     SortConfig(output_codec_level=1))
        default = MemoryStore()
        default_ds = sort_dataset(aligned_dataset, default, SortConfig())
        key = next(iter(sorted(default.keys())))
        assert light.get(key) != default.get(key)  # different level
        from repro.agd.chunk import read_chunk

        assert read_chunk(light.get(key)).records == \
            read_chunk(default.get(key)).records
        assert default_ds.manifest.sort_order == "location"


class TestPayloadBatching:
    def test_small_payloads_batch_by_count(self):
        from repro.dataflow.backends import ProcessBackend

        backend = ProcessBackend(workers=1, batch_size=4)
        batches = backend._make_batches([b"x"] * 10)
        assert [len(b) for b in batches] == [4, 4, 2]

    def test_large_array_payloads_split(self):
        from repro.dataflow.backends import ProcessBackend

        backend = ProcessBackend(workers=1, batch_size=4,
                                 batch_bytes=1 << 16)
        big = np.zeros(1 << 15, dtype=np.int64)  # 256 KiB each
        batches = backend._make_batches([big, big, big])
        assert [len(b) for b in batches] == [1, 1, 1]

    def test_payload_nbytes_walks_containers(self):
        from repro.dataflow.backends import payload_nbytes

        arr = np.zeros(100, dtype=np.int64)
        assert payload_nbytes(arr) == 800
        assert payload_nbytes((b"abc", [arr, arr])) >= 1600 + 3


class TestDuplicateBlobPatch:
    @given(triple_lists, st.sets(st.integers(0, 39)))
    @settings(max_examples=25, deadline=None)
    def test_blob_patch_equals_object_rewrite(self, triples, raw_positions):
        from repro.agd.chunk import write_chunk
        from repro.align.result import FLAG_DUPLICATE

        results = [t[0] for t in triples]
        positions = sorted(p for p in raw_positions if p < len(results))
        blob = write_chunk(results, "results", first_ordinal=7)
        column = columnar.read_results_column(blob)
        flagged = column.with_flag(positions, FLAG_DUPLICATE)
        patched = write_chunk(flagged, "results", first_ordinal=7)
        # The decoded arrays carry over, patched alike: field for field
        # what decoding the patched block afresh gives.
        assert "arrays" in flagged.__dict__
        carried = flagged.arrays
        fresh = decode_results_arrays(flagged.flat, flagged.lengths)
        for name in fresh.fixed.dtype.names:
            assert np.array_equal(carried.fixed[name], fresh.fixed[name]), name
        assert np.array_equal(carried.cigar_starts, fresh.cigar_starts)
        assert np.array_equal(carried.cigar_ends, fresh.cigar_ends)
        assert carried.cigar_buf.tobytes() == fresh.cigar_buf.tobytes()
        assert np.shares_memory(carried.cigar_buf, flagged.flat)
        assert not np.shares_memory(carried.fixed, column.flat)
        updated = [
            r.with_flag(FLAG_DUPLICATE) if i in positions else r
            for i, r in enumerate(results)
        ]
        assert patched == write_chunk(updated, "results", first_ordinal=7)


class TestColumnarFallback:
    def test_lowercase_bases_fall_back_not_crash(self):
        """Soft-masked (lowercase) bases: the scalar Counter keys raw
        bytes, the 5-column matrix cannot — call_variants must fall back
        to the reference path, not raise."""
        from repro.core.columnar import ColumnarFallback

        n = 30
        results = [
            AlignmentResult(flag=0, mapq=60, contig_index=0, position=i,
                            cigar=b"8M")
            for i in range(n)
        ]
        bases = [b"acgtacgt"] * n
        quals = [b"I" * 8] * n
        config = VarCallConfig(min_mapq=0, min_base_quality=0)
        with pytest.raises(ColumnarFallback):
            columnar.pileup_partial(results, bases, quals, config)
        scalar = dict(pileup_records(results, bases, quals, config))
        assert scalar  # the scalar reference handles the same input

    def test_call_variants_falls_back_end_to_end(self, reference,
                                                 monkeypatch):
        """If the arrays path raises ColumnarFallback mid-run,
        call_variants reruns the scalar path and still returns."""
        import repro.core.varcall as varcall_mod
        from repro.core.columnar import ColumnarFallback

        n = 20
        results = [
            AlignmentResult(flag=0, mapq=60, contig_index=0, position=i,
                            cigar=b"6M")
            for i in range(n)
        ]
        dataset = AGDDataset.create(
            "fallback",
            {"results": results, "bases": [b"ACGTAC"] * n,
             "qual": [b"IIIIII"] * n},
            MemoryStore(), chunk_size=5,
        )
        expected = call_from_pileup(pileup_dataset(dataset, VarCallConfig()),
                                    reference, VarCallConfig())

        def boom(*args, **kwargs):
            raise ColumnarFallback("forced")

        monkeypatch.setattr(varcall_mod, "iter_pileup_partials", boom)
        assert call_variants(dataset, reference) == expected

    @pytest.mark.parametrize("flag", [0, 0x10])
    def test_cigar_read_overrun_raises(self, flag):
        """A non-last record whose CIGAR overruns its read must raise,
        not silently pile a neighbor's bases (the next record's walking
        forward, the previous one's walking a reverse read backward)."""
        results = [
            AlignmentResult(flag=flag, mapq=60, contig_index=0, position=0,
                            cigar=b"6M"),
            AlignmentResult(flag=0, mapq=60, contig_index=0, position=100,
                            cigar=b"4M"),
        ]
        bases = [b"ACGT", b"ACGT"]  # first read shorter than its 6M
        quals = [b"IIII", b"IIII"]
        config = VarCallConfig(min_mapq=0, min_base_quality=0)
        with pytest.raises(ValueError):
            columnar.pileup_partial(results, bases, quals, config)

    def test_sparse_wide_coverage_falls_back(self):
        """Reads at both ends of a huge contig: dense accumulation
        would allocate O(span); the guard falls back instead."""
        from repro.core.columnar import ColumnarFallback

        results = [
            AlignmentResult(flag=0, mapq=60, contig_index=0, position=0,
                            cigar=b"4M"),
            AlignmentResult(flag=0, mapq=60, contig_index=0,
                            position=200_000_000, cigar=b"4M"),
        ]
        bases = [b"ACGT", b"ACGT"]
        quals = [b"IIII", b"IIII"]
        config = VarCallConfig(min_mapq=0, min_base_quality=0)
        with pytest.raises(ColumnarFallback):
            columnar.pileup_partial(results, bases, quals, config)

    def test_metadata_sort_without_results_column(self):
        """Metadata-order sort of an unaligned dataset must key on the
        metadata column (historically row[1] keyed on bases), and the
        row oracle and the columnar sort must agree byte for byte."""
        from repro.core.sort import verify_sorted

        n = 30
        metas = [f"read-{(7 * i) % n:03d}".encode() for i in range(n)]
        dataset = AGDDataset.create(
            "unaligned",
            {
                "metadata": metas,
                "bases": [b"TTTT"] * n,  # constant: cannot order rows
                "qual": [b"IIII"] * n,
            },
            MemoryStore(), chunk_size=8,
        )
        scalar_store = MemoryStore()
        oracle_sort_dataset(dataset, scalar_store,
                            SortConfig(order="metadata"))
        vector_store = MemoryStore()
        sorted_ds = sort_dataset(dataset, vector_store,
                                 SortConfig(order="metadata"))
        assert _store_blobs(vector_store) == _store_blobs(scalar_store)
        assert sorted_ds.read_column("metadata") == sorted(metas)
        assert verify_sorted(sorted_ds, order="metadata")

    def test_sort_has_no_scalar_twin(self, aligned_dataset):
        """The columnar sort is the only sort: no ``vectorized`` field to
        select a second implementation, and no pipeline-wide selector
        either (an unknown keyword is a ``TypeError``)."""
        from repro.core.pipelines import run_pipeline

        assert "vectorized" not in SortConfig.__dataclass_fields__
        with pytest.raises(TypeError, match="vectorized"):
            run_pipeline(aligned_dataset, stages=("sort",),
                         backend="serial", vectorized=False)


class TestQueueTelemetry:
    def test_run_pipeline_records_queue_trace(self, aligned_dataset,
                                              reference):
        from repro.core.pipelines import run_pipeline

        outcome = run_pipeline(
            aligned_dataset,
            stages=("sort", "dupmark", "varcall"),
            reference=reference,
            backend="serial",
            queue_sample_interval=0.001,
        )
        trace = outcome.report.get("queue_trace")
        assert trace is not None
        assert trace["depths"], "no queues sampled"
        assert len(trace["times"]) >= 1
        for series in trace["depths"].values():
            assert len(series) == len(trace["times"])
        stages = outcome.report.get("stages", {})
        assert any(
            agg.get("queue_trace") for agg in stages.values()
        ), "per-stage queue traces missing from stage_report"
