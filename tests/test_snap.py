"""Tests for the SNAP-like aligner: index and seed-and-extend."""

import numpy as np
import pytest

from repro.align.snap import SeedIndex, SnapAligner, compute_mapq
from repro.genome.sequence import reverse_complement
from repro.genome.synthetic import synthetic_reference


class TestSeedIndex:
    def test_build_stats(self, seed_index, reference):
        assert seed_index.num_seeds == len(reference) - 16 + 1
        assert 0 < seed_index.num_distinct <= seed_index.num_seeds
        assert seed_index.memory_bytes() > 0

    def test_lookup_finds_genome_substring(self, seed_index, reference):
        genome = reference.concatenated()
        seed = genome[500:516]
        hit = seed_index.lookup(seed)
        assert 500 in hit.positions.tolist()

    def test_lookup_positions_sorted_within_seed(self, seed_index, reference):
        genome = reference.concatenated()
        seed = genome[100:116]
        positions = seed_index.lookup(seed).positions
        assert list(positions) == sorted(positions)
        for pos in positions:
            assert genome[pos : pos + 16] == seed

    def test_lookup_absent(self, seed_index):
        # A seed with N never indexes.
        hit = seed_index.lookup(b"N" * 16)
        assert len(hit) == 0

    def test_wrong_length_rejected(self, seed_index):
        with pytest.raises(ValueError):
            seed_index.lookup(b"ACGT")

    def test_popular_seed_filtered(self):
        ref = synthetic_reference(2000, seed=3)
        # Splice a highly-repetitive region in.
        from repro.genome.reference import reference_from_sequences

        repetitive = reference_from_sequences(
            [("rep", b"ACGTACGTACGTACGT" * 100 + ref.concatenated())]
        )
        index = SeedIndex(repetitive, seed_length=16, max_hits=8)
        hit = index.lookup(b"ACGTACGTACGTACGT")
        assert len(hit) == 0  # too popular

    def test_memory_bytes_is_the_arrays(self, seed_index):
        arrays = [getattr(seed_index, name) for name in
                  ("_values", "_starts", "_ends", "_positions", "_bucket")]
        assert seed_index.memory_bytes() == sum(a.nbytes for a in arrays)
        assert len(arrays[0]) == len(arrays[1]) == len(arrays[2]) \
            == seed_index.num_distinct
        # The directory over the top 16 bits, kept as int32.
        assert arrays[4].dtype == np.int32 and arrays[4].size == 2 ** 16 + 1

    def test_pickle_round_trip_identical_lookups(self, seed_index, reference):
        import pickle

        clone = pickle.loads(pickle.dumps(seed_index))
        genome = reference.concatenated()
        for pos in range(0, len(genome) - 16, 97):
            seed = genome[pos:pos + 16]
            assert np.array_equal(
                clone.lookup(seed).positions, seed_index.lookup(seed).positions
            )
        assert clone.memory_bytes() == seed_index.memory_bytes()
        # The batch lookup goes through the directory the clone carries.
        values = _queries(seed_index, np.random.default_rng(3))
        valid = (values >= 0) & (values < 4 ** 16)
        for got, want in zip(clone.lookup_values(values, valid),
                             seed_index.lookup_values(values, valid)):
            assert np.array_equal(got, want)

    def test_invalid_params(self, reference):
        with pytest.raises(ValueError):
            SeedIndex(reference, seed_length=2)
        with pytest.raises(ValueError):
            SeedIndex(reference, seed_length=40)
        with pytest.raises(ValueError):
            SeedIndex(reference, max_hits=0)

    def test_encode_read_seeds_matches_single(self, seed_index, reference):
        genome = reference.concatenated()
        read = genome[1000:1101]
        offsets = [0, 8, 85]
        values = seed_index.encode_read_seeds(read, offsets)
        for offset, value in zip(offsets, values):
            assert value == seed_index.encode_seed(read[offset : offset + 16])


def _directory_reference():
    """Random sequence, a popular 16-base unit repeated past ``max_hits``
    and an N run, so an index holds unique, popular and no seeds."""
    from repro.genome.reference import reference_from_sequences

    genome = synthetic_reference(3000, seed=11).concatenated()
    return reference_from_sequences([
        ("mixed", genome[:1500] + b"ACGTTGCAAGCTTCGA" * 20 + b"N" * 40
         + genome[1500:]),
    ])


def _queries(index, rng):
    """Packed seeds a lookup can meet: every indexed value and its
    neighbours, random values, the extremes of int64, and the garbage
    ``pack_seeds`` leaves for seeds with an N."""
    s = index.seed_length
    reads = np.frombuffer(
        bytes(b"ACGTN"[x] for x in rng.integers(0, 5, size=40 * 64)),
        dtype=np.uint8,
    ).reshape(40, 64)
    garbage, valid = index.pack_seeds(reads, np.arange(0, 64 - s + 1, 3))
    assert not valid.all()
    extremes = np.iinfo(np.int64)
    return np.concatenate([
        index._values, index._values - 1, index._values + 1,
        rng.integers(0, 4 ** s, size=2000, dtype=np.int64),
        np.array([0, -1, 4 ** s - 1, 4 ** s, extremes.min, extremes.max]),
        garbage.ravel(),
    ])


class TestBucketDirectory:
    @pytest.mark.parametrize("seed_length", [4, 8, 16, 31])
    def test_slots_equal_searchsorted(self, seed_length):
        index = SeedIndex(_directory_reference(), seed_length=seed_length,
                          max_hits=8)
        queries = _queries(index, np.random.default_rng(seed_length))
        assert np.array_equal(index._slots(queries),
                              np.searchsorted(index._values, queries))

    @pytest.mark.parametrize("seed_length", [4, 16, 31])
    def test_lookup_values_equals_scalar_lookups(self, seed_length):
        index = SeedIndex(_directory_reference(), seed_length=seed_length,
                          max_hits=8)
        values = _queries(index, np.random.default_rng(seed_length))
        valid = (values >= 0) & (values < 4 ** seed_length)
        query, positions = index.lookup_values(values, valid)
        expected = [
            (q, int(p)) for q in np.flatnonzero(valid).tolist()
            for p in index.lookup_value(int(values[q]))
        ]
        assert list(zip(query.tolist(), positions.tolist())) == expected
        # Popular seeds are in the directory but return nothing.
        assert any(index._ends - index._starts > index.max_hits)

    def test_all_n_reference(self):
        from repro.genome.reference import reference_from_sequences

        index = SeedIndex(reference_from_sequences([("n", b"N" * 100)]))
        assert index.num_distinct == 0 and not index._bucket.any()
        queries = np.array([0, 5, -3, 4 ** 16], dtype=np.int64)
        assert np.array_equal(index._slots(queries), np.zeros(4, np.int64))
        query, positions = index.lookup_values(queries, np.ones(4, bool))
        assert query.size == positions.size == 0


class TestSnapAligner:
    def test_planted_reads_recovered(self, snap_aligner, reference, reads, origins):
        exact = 0
        for read, origin in zip(reads[:200], origins[:200]):
            result = snap_aligner.align_read(read.bases)
            assert result.is_aligned
            contig, local = reference.to_local(origin.global_pos)
            if result.position == local and result.is_reverse == origin.reverse:
                exact += 1
        assert exact >= 196  # >=98% exact on synthetic data

    def test_contig_index_correct(self, snap_aligner, reference, reads, origins):
        names = reference.names
        for read, origin in zip(reads[:50], origins[:50]):
            result = snap_aligner.align_read(read.bases)
            contig, _ = reference.to_local(origin.global_pos)
            if result.is_aligned:
                assert names[result.contig_index] == contig

    def test_reverse_strand(self, snap_aligner, reference):
        genome = reference.concatenated()
        window = genome[2000:2101]
        result = snap_aligner.align_read(reverse_complement(window))
        assert result.is_aligned and result.is_reverse
        assert reference.to_local(2000)[1] == result.position

    def test_garbage_unmapped(self, snap_aligner):
        rng = np.random.default_rng(0)
        # Random read: overwhelmingly unlikely to share 16-mers.
        read = bytes(b"ACGT"[x] for x in rng.integers(0, 4, size=101))
        result = snap_aligner.align_read(read)
        # Either unmapped or genuinely poor mapq.
        assert not result.is_aligned or result.mapq <= 10

    def test_short_read_unmapped(self, snap_aligner):
        assert not snap_aligner.align_read(b"ACGT").is_aligned

    def test_align_global_short_read_is_none(self, snap_aligner):
        # Used to raise "window shape cannot be larger than input array".
        assert snap_aligner.align_global(b"ACGT") is None
        assert snap_aligner.align_global(b"") is None

    def test_read_with_errors_still_aligns(self, reference, seed_index):
        aligner = SnapAligner(seed_index)
        genome = reference.concatenated()
        read = bytearray(genome[5000:5101])
        read[10] ^= 6  # mutate a base
        read[60] ^= 2
        result = aligner.align_read(bytes(read))
        assert result.is_aligned
        assert reference.to_local(5000)[1] == result.position
        assert result.edit_distance == 2

    def test_indel_read_gets_indel_cigar(self, reference, seed_index):
        aligner = SnapAligner(seed_index)
        genome = reference.concatenated()
        window = bytearray(genome[7000:7102])
        del window[50]  # deletion in read relative to reference
        read = bytes(window[:101])
        result = aligner.align_read(read)
        assert result.is_aligned
        assert b"D" in result.cigar

    def test_cigar_consumes_read(self, snap_aligner, reads):
        from repro.align.result import cigar_read_span

        for read in reads[:100]:
            result = snap_aligner.align_read(read.bases)
            if result.is_aligned:
                assert cigar_read_span(result.cigar) == len(read.bases)

    def test_stats_accumulate(self, seed_index):
        aligner = SnapAligner(seed_index)
        aligner.align_read(b"A" * 101)
        assert aligner.stats.reads == 1

    def test_unique_alignment_high_mapq(self, snap_aligner, reference):
        genome = reference.concatenated()
        result = snap_aligner.align_read(genome[9000:9101])
        assert result.mapq >= 40


class TestMapq:
    def test_unique_high(self):
        assert compute_mapq(0, None, 8) == 60

    def test_decreases_with_distance(self):
        assert compute_mapq(4, None, 8) < compute_mapq(0, None, 8)

    def test_tie_low(self):
        assert compute_mapq(2, 2, 8) <= 3

    def test_gap_increases(self):
        assert compute_mapq(0, 4, 8) > compute_mapq(0, 1, 8)

    def test_bounds(self):
        for best in range(8):
            for second in (None, best, best + 1, best + 5):
                q = compute_mapq(best, second, 8)
                assert 0 <= q <= 60
