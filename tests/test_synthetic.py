"""Tests for the synthetic genome/read generator."""

import numpy as np
import pytest
from read_sim_oracle import OracleReadSimulator

from repro.formats.converters import import_reads
from repro.genome import synthetic
from repro.genome.reads import ReadBatch, ReadRecord
from repro.genome.sequence import gc_content, is_valid_sequence, reverse_complement
from repro.genome.synthetic import (
    ErrorModel,
    ReadSimulator,
    synthetic_dataset,
    synthetic_reference,
)
from repro.storage.base import MemoryStore


class TestSyntheticReference:
    def test_length(self):
        ref = synthetic_reference(10_000, seed=1)
        assert len(ref) == 10_000

    def test_contig_split(self):
        ref = synthetic_reference(10_001, num_contigs=3, seed=1)
        assert len(ref.contigs) == 3
        assert sum(len(c) for c in ref.contigs) == 10_001

    def test_deterministic(self):
        a = synthetic_reference(5000, seed=7)
        b = synthetic_reference(5000, seed=7)
        assert a.concatenated() == b.concatenated()

    def test_seed_changes_content(self):
        a = synthetic_reference(5000, seed=7)
        b = synthetic_reference(5000, seed=8)
        assert a.concatenated() != b.concatenated()

    def test_gc_bias(self):
        ref = synthetic_reference(200_000, seed=3, gc_bias=0.41)
        assert 0.38 < gc_content(ref.concatenated()) < 0.44

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            synthetic_reference(0)
        with pytest.raises(ValueError):
            synthetic_reference(10, num_contigs=0)
        with pytest.raises(ValueError):
            synthetic_reference(2, num_contigs=3)


class TestErrorModel:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            ErrorModel(substitution_rate=1.5)
        with pytest.raises(ValueError):
            ErrorModel(indel_rate=-0.1)


class TestReadSimulator:
    @pytest.fixture()
    def sim(self):
        ref = synthetic_reference(20_000, seed=11)
        return ReadSimulator(ref, read_length=101, seed=12)

    def test_read_geometry(self, sim):
        reads, origins = sim.simulate(50)
        assert len(reads) == len(origins) == 50
        for read in reads:
            assert isinstance(read, ReadRecord)
            assert len(read.bases) == 101
            assert len(read.qualities) == 101
            assert is_valid_sequence(read.bases)

    def test_unique_metadata(self, sim):
        reads, _ = sim.simulate(100)
        names = {r.metadata for r in reads}
        assert len(names) == 100

    def test_origins_in_bounds(self, sim):
        _, origins = sim.simulate(100)
        for origin in origins:
            assert 0 <= origin.global_pos <= 20_000 - 101

    def test_forward_reads_match_reference_mostly(self):
        ref = synthetic_reference(20_000, seed=21)
        sim = ReadSimulator(
            ref, read_length=101,
            error_model=ErrorModel(substitution_rate=0.0, indel_rate=0.0,
                                   n_rate=0.0),
            seed=22,
        )
        reads, origins = sim.simulate(40)
        for read, origin in zip(reads, origins):
            window = ref.fetch(origin.global_pos, 101)
            expected = reverse_complement(window) if origin.reverse else window
            assert read.bases == expected

    def test_error_counting(self):
        ref = synthetic_reference(20_000, seed=31)
        sim = ReadSimulator(
            ref, read_length=101,
            error_model=ErrorModel(substitution_rate=0.02, indel_rate=0.0,
                                   n_rate=0.0),
            seed=32,
        )
        reads, origins = sim.simulate(100)
        total_errors = sum(o.errors for o in origins)
        # ~2% of 10100 bases, wide tolerance.
        assert 80 < total_errors < 350

    def test_coverage_formula(self, sim):
        n = sim.reads_for_coverage(10.0)
        assert n == pytest.approx(10.0 * 20_000 / 101, rel=0.01)

    def test_duplicates_fraction(self):
        ref = synthetic_reference(20_000, seed=41)
        sim = ReadSimulator(ref, duplicate_fraction=0.3, seed=42)
        _, origins = sim.simulate(400)
        dups = sum(1 for o in origins if o.is_duplicate)
        assert 0.2 < dups / 400 < 0.4

    def test_duplicates_share_origin(self):
        ref = synthetic_reference(20_000, seed=51)
        sim = ReadSimulator(ref, duplicate_fraction=0.5, seed=52)
        _, origins = sim.simulate(100)
        positions = [o.global_pos for o in origins]
        for i, origin in enumerate(origins):
            if origin.is_duplicate:
                assert origin.global_pos in positions[:i]

    def test_paired_geometry(self):
        ref = synthetic_reference(20_000, seed=61)
        sim = ReadSimulator(ref, paired=True, insert_size_mean=300,
                            insert_size_sd=10, seed=62)
        reads, origins = sim.simulate(100)
        assert len(reads) == 100
        for i in range(0, 100, 2):
            r1o, r2o = origins[i], origins[i + 1]
            assert r1o.reverse != r2o.reverse
            assert r1o.mate_pos == r2o.global_pos
            assert r2o.mate_pos == r1o.global_pos

    def test_paired_odd_count_rejected(self):
        ref = synthetic_reference(20_000, seed=71)
        sim = ReadSimulator(ref, paired=True, seed=72)
        with pytest.raises(ValueError):
            sim.simulate(3)

    def test_insert_too_small_rejected(self):
        ref = synthetic_reference(20_000, seed=81)
        with pytest.raises(ValueError):
            ReadSimulator(ref, read_length=101, paired=True,
                          insert_size_mean=100)

    def test_determinism(self):
        ref = synthetic_reference(20_000, seed=91)
        a, _ = ReadSimulator(ref, seed=92).simulate(20)
        b, _ = ReadSimulator(ref, seed=92).simulate(20)
        assert a == b


def _forward_matrix(reads, origins) -> np.ndarray:
    """The reads as an ``(n, L)`` matrix in reference orientation."""
    return np.array([
        np.frombuffer(reverse_complement(r.bases) if o.reverse else r.bases,
                      dtype=np.uint8)
        for r, o in zip(reads, origins)
    ])


def _windows(reference, origins, length) -> np.ndarray:
    genome = np.frombuffer(reference.concatenated(), dtype=np.uint8)
    return np.array([genome[o.global_pos:o.global_pos + length]
                     for o in origins])


def _chi_square_uniform(positions, upper, bins=20) -> float:
    counts, _ = np.histogram(positions, bins=bins, range=(0, upper))
    expected = len(positions) / bins
    return float(((counts - expected) ** 2 / expected).sum())


def _indel_kind(read, genome, pos, n) -> "str | None":
    """Which single ``n``-base edit somewhere inside it turns the window
    at ``pos`` into ``read`` (reference orientation), if one does."""
    size = len(read)
    window = genome[pos:pos + size]
    shifted = genome[pos + n:pos + n + size]
    shifted = shifted + b"A" * (size - len(shifted))
    for at in range(1, size):
        if read[:at] != window[:at]:
            return None
        if read[at + n:] == window[at:size - n]:
            return "insertion"
        if read[at:] == shifted[at:]:
            return "deletion"
    return None


#: Reads per side of the distribution comparisons.
N = 20_000
#: 19 degrees of freedom, p = 0.001.
CHI2_20_BINS = 43.8


@pytest.fixture(scope="module", params=[ReadSimulator, OracleReadSimulator],
                ids=["array", "oracle"])
def simulator_class(request):
    """The array program or the per-read oracle: every law below is
    asserted of both."""
    return request.param


class TestGeneratorLaw:
    """The generator's distributions, held by the array program and by
    the per-read specification alike (same bounds, several standard
    errors wide: the two cannot share an RNG stream)."""

    @pytest.fixture(scope="class")
    def ref(self):
        return synthetic_reference(60_000, num_contigs=2, seed=301)

    @pytest.fixture(scope="class")
    def mismatch_world(self, ref, simulator_class):
        model = ErrorModel(substitution_rate=0.01, n_rate=0.002,
                           indel_rate=0.0)
        sim = simulator_class(ref, error_model=model,
                              duplicate_fraction=0.15, seed=302)
        reads, origins = sim.simulate(N)
        return reads, origins, _forward_matrix(reads, origins), \
            _windows(ref, origins, 101)

    def test_errors_are_the_mismatches_against_the_reference(
        self, mismatch_world
    ):
        _, origins, forward, windows = mismatch_world
        mismatches = (forward != windows).sum(axis=1)
        assert mismatches.tolist() == [o.errors for o in origins]

    def test_substitution_and_n_rates(self, mismatch_world):
        _, _, forward, windows = mismatch_world
        is_n = forward == ord("N")
        substituted = (forward != windows) & ~is_n
        # 2.02M bases: one standard error is 0.7 % / 1.6 % of the rate.
        assert substituted.mean() == pytest.approx(0.01 * 0.998, rel=0.04)
        assert is_n.mean() == pytest.approx(0.002, rel=0.08)
        # A substituted base is uniform over the three other bases.
        shift = (np.searchsorted(np.frombuffer(b"ACGT", np.uint8),
                                 forward[substituted])
                 - np.searchsorted(np.frombuffer(b"ACGT", np.uint8),
                                   windows[substituted])) % 4
        assert set(shift.tolist()) == {1, 2, 3}
        assert np.bincount(shift)[1:] / shift.size == \
            pytest.approx([1 / 3] * 3, abs=0.015)

    def test_duplicate_rate_strand_balance_and_chains(self, mismatch_world):
        _, origins, _, _ = mismatch_world
        duplicate = np.array([o.is_duplicate for o in origins])
        reverse = np.array([o.reverse for o in origins])
        assert not duplicate[0]
        assert duplicate.mean() == pytest.approx(0.15, abs=0.0125)
        assert reverse.mean() == pytest.approx(0.5, abs=0.0175)
        for i in np.flatnonzero(duplicate).tolist():
            assert (origins[i].global_pos, origins[i].reverse) == \
                (origins[i - 1].global_pos, origins[i - 1].reverse)

    def test_quality_distribution(self, mismatch_world):
        reads, _, _, _ = mismatch_world
        scores = np.frombuffer(b"".join(r.qualities for r in reads),
                               dtype=np.uint8).astype(np.int64) - 33
        assert scores.min() >= 2 and scores.max() == 41
        # N(35, 4) rounded and clipped at 41 from above.
        assert scores.mean() == pytest.approx(34.88, abs=0.02)
        assert scores.std() == pytest.approx(3.78, abs=0.02)

    def test_start_positions_are_uniform(self, mismatch_world, ref):
        _, origins, _, _ = mismatch_world
        starts = [o.global_pos for o in origins if not o.is_duplicate]
        assert min(starts) >= 0 and max(starts) <= len(ref) - 101
        assert _chi_square_uniform(starts, len(ref) - 101 + 1) < CHI2_20_BINS

    def test_indels(self, ref, simulator_class):
        model = ErrorModel(substitution_rate=0.0, n_rate=0.0,
                           indel_rate=0.05, max_indel_length=3)
        sim = simulator_class(ref, error_model=model, seed=303)
        reads, origins = sim.simulate(N)
        genome = ref.concatenated()
        lengths = np.array([o.errors for o in origins])
        assert (lengths > 0).mean() == pytest.approx(0.05, abs=0.0075)
        assert np.bincount(lengths[lengths > 0])[1:] / (lengths > 0).sum() \
            == pytest.approx([1 / 3] * 3, abs=0.075)
        kinds = {"insertion": 0, "deletion": 0}
        for read, origin in zip(reads, origins):
            forward = reverse_complement(read.bases) if origin.reverse \
                else read.bases
            if origin.errors:
                kinds[_indel_kind(forward, genome, origin.global_pos,
                                  origin.errors)] += 1
            else:
                assert forward == genome[origin.global_pos:
                                         origin.global_pos + 101]
        # A fair coin (an edit in a repeat can read as the other kind).
        assert kinds["insertion"] / (lengths > 0).sum() == \
            pytest.approx(0.5, abs=0.08)

    def test_paired_geometry_and_duplicate_chains(self, ref,
                                                  simulator_class):
        sim = simulator_class(ref, paired=True, insert_size_mean=350,
                              insert_size_sd=30, duplicate_fraction=0.15,
                              seed=304)
        reads, origins = sim.simulate(N)
        assert [r.metadata for r in reads[:4]] == [
            b"sample.0/1", b"sample.0/2", b"sample.1/1", b"sample.1/2"]
        r1, r2 = origins[0::2], origins[1::2]
        inserts, lefts = [], []
        for first, second in zip(r1, r2):
            assert first.reverse != second.reverse
            assert first.mate_pos == second.global_pos
            assert second.mate_pos == first.global_pos
            assert first.is_duplicate == second.is_duplicate
            left, right = (first, second) if second.reverse \
                else (second, first)
            # FR: the forward mate is the leftmost one.
            assert left.global_pos <= right.global_pos
            assert right.global_pos + 101 <= len(ref)
            inserts.append(right.global_pos + 101 - left.global_pos)
            lefts.append(left.global_pos)
        inserts = np.array(inserts)
        assert inserts.min() >= 202
        assert inserts.mean() == pytest.approx(349.5, abs=1.5)
        assert inserts.std() == pytest.approx(30, abs=1.5)
        duplicate = np.array([o.is_duplicate for o in r1])
        assert duplicate.mean() == pytest.approx(0.15, abs=0.018)
        assert np.mean([o.reverse for o in r1]) == pytest.approx(0.5, abs=0.025)
        fresh = np.array(lefts)[~duplicate]
        assert _chi_square_uniform(fresh, len(ref) - 202 + 1) < CHI2_20_BINS
        # A duplicate is the same physical fragment: same coordinates
        # for both mates, so the same insert length too.
        for i in np.flatnonzero(duplicate).tolist():
            for mate in (r1, r2):
                assert (mate[i].global_pos, mate[i].mate_pos,
                        mate[i].reverse) == \
                    (mate[i - 1].global_pos, mate[i - 1].mate_pos,
                     mate[i - 1].reverse)


class TestArrayProgram:
    """What only the array generator has: blocks and a batch."""

    @pytest.fixture(scope="class")
    def ref(self):
        return synthetic_reference(20_000, seed=401)

    def test_seed_determinism(self, ref):
        def run(seed):
            return ReadSimulator(ref, duplicate_fraction=0.2,
                                 seed=seed).simulate(500)

        (reads_a, origins_a), (reads_b, origins_b) = run(402), run(402)
        assert reads_a == reads_b and origins_a == origins_b
        reads_c, origins_c = run(403)
        assert reads_a != reads_c and origins_a != origins_c

    @pytest.mark.parametrize("paired", [False, True])
    @pytest.mark.parametrize("count", [150, 192, 50])
    def test_blocks(self, ref, monkeypatch, paired, count):
        """150 reads in blocks of 64 span three blocks and fill the last
        one partly; 192 fill three exactly; 50 fill none.  A duplicate
        that opens a block copies the fragment that closed the one
        before."""
        monkeypatch.setattr(synthetic, "_BLOCK_READS", 64)
        # Seed 419: every block after the first opens with a duplicate.
        sim = ReadSimulator(ref, paired=paired, insert_size_mean=300,
                            duplicate_fraction=0.5, seed=419)
        reads, origins = sim.simulate(count)
        assert len(reads) == len(origins) == count
        assert len(set(reads.names)) == count
        assert reads.bases.shape == reads.qualities.shape == (count, 101)
        step = 2 if paired else 1
        duplicates = [i for i in range(count) if origins[i].is_duplicate]
        assert set(range(64, count, 64)) <= set(duplicates)
        for i in duplicates:
            assert i >= step
            assert (origins[i].global_pos, origins[i].mate_pos) == \
                (origins[i - step].global_pos, origins[i - step].mate_pos)
        clean = [i for i in range(count) if not origins[i].errors]
        assert len(clean) > count // 3
        assert np.array_equal(
            _forward_matrix(reads, origins)[clean],
            _windows(ref, origins, 101)[clean])

    def test_more_reads_than_one_real_block(self, ref):
        count = synthetic._BLOCK_READS + 1_001
        reads, origins = ReadSimulator(ref, seed=405).simulate(count)
        assert len(reads) == len(origins) == count
        tail = reads[synthetic._BLOCK_READS:]
        assert is_valid_sequence(tail.bases.tobytes())
        assert tail.qualities.min() >= 33 + 2

    def test_simulate_continues_the_stream(self, ref):
        sim = ReadSimulator(ref, seed=406)
        first, _ = sim.simulate(50)
        second, _ = sim.simulate(50)
        assert not np.array_equal(first.bases, second.bases)


class TestReadBatch:
    @pytest.fixture(scope="class")
    def batch(self):
        ref = synthetic_reference(20_000, seed=501)
        reads, _ = ReadSimulator(ref, seed=502).simulate(60)
        return reads

    def test_is_a_sequence_of_read_records(self, batch):
        assert isinstance(batch, ReadBatch) and len(batch) == 60
        records = list(batch)
        assert all(isinstance(r, ReadRecord) for r in records)
        assert records == [batch[i] for i in range(len(batch))]
        assert batch[-1] == records[-1] and batch[-60] == records[0]
        assert batch[7].metadata == b"sample.7"
        assert records[3] in batch and batch.index(records[3]) == 3
        for bad in (60, -61):
            with pytest.raises(IndexError):
                batch[bad]

    def test_slices_are_batches(self, batch):
        part = batch[10:20]
        assert isinstance(part, ReadBatch) and len(part) == 10
        assert list(part) == list(batch)[10:20]
        assert np.shares_memory(part.bases, batch.bases)
        assert list(batch[::-7]) == list(batch)[::-7]
        assert len(batch[40:10]) == 0 and list(batch[40:10]) == []

    def test_equality(self, batch):
        again = ReadBatch(batch.bases.copy(), batch.qualities.copy(),
                          list(batch.names))
        assert batch == again and not batch != again
        assert batch == list(batch) and list(batch) == batch
        assert batch != batch[:-1] and batch != list(batch)[:-1]
        changed = batch.bases.copy()
        changed[5, 5] ^= 1
        assert batch != ReadBatch(changed, batch.qualities, batch.names)
        assert batch != 7

    def test_immutable(self, batch):
        with pytest.raises(ValueError):
            batch.bases[0, 0] = 65
        with pytest.raises(ValueError):
            batch[3:9].qualities[0, 0] = 65
        with pytest.raises(TypeError):
            batch[0] = batch[1]
        with pytest.raises(TypeError):
            hash(batch)

    def test_columns_must_agree(self, batch):
        with pytest.raises(ValueError):
            ReadBatch(batch.bases, batch.qualities[:, :-1], batch.names)
        with pytest.raises(ValueError):
            ReadBatch(batch.bases, batch.qualities, batch.names[:-1])
        with pytest.raises(ValueError):
            ReadBatch(batch.bases.astype(np.int64), batch.qualities,
                      batch.names)

    @pytest.mark.parametrize("chunk_size", [25, 60, 1000])
    def test_import_stores_the_same_bytes_as_a_list(self, batch, chunk_size):
        stores = []
        for reads in (batch, list(batch)):
            store = MemoryStore()
            dataset = import_reads(reads, "same", store,
                                   chunk_size=chunk_size)
            assert dataset.total_records == 60
            stores.append({key: store.get(key) for key in store.keys()})
        assert stores[0] == stores[1] and len(stores[0]) >= 3
        assert dataset.read_column("bases") == [r.bases for r in batch]

    def test_import_of_a_slice_and_of_nothing(self, batch):
        stores = []
        for reads in (batch[5:50:3], list(batch)[5:50:3]):
            store = MemoryStore()
            import_reads(reads, "same", store, chunk_size=4)
            stores.append({key: store.get(key) for key in store.keys()})
        assert stores[0] == stores[1]
        with pytest.raises(ValueError, match="empty read set"):
            import_reads(batch[:0], "none", MemoryStore())


class TestSyntheticDataset:
    def test_one_call(self):
        ref, reads, origins = synthetic_dataset(
            genome_length=10_000, coverage=2.0, seed=5
        )
        assert len(ref) == 10_000
        assert len(reads) == len(origins)
        assert len(reads) == pytest.approx(2.0 * 10_000 / 101, rel=0.02)

    def test_paired_even(self):
        _, reads, _ = synthetic_dataset(
            genome_length=10_000, coverage=1.0, paired=True, seed=6
        )
        assert len(reads) % 2 == 0
