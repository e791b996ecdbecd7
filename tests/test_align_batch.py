"""The batch aligner against its oracle.

``SnapAligner.align_reads`` (one array program per batch) must equal
``SnapAligner.align_read`` per read in every field of every result and
in every ``SnapStats`` counter — the per-read path is the reference.
"""

import hashlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.agd.columns import BasesColumn
from repro.align.result import AlignmentResult
from repro.agd.result_column import ResultsColumn
from repro.align.base import ReadAligner
from repro.align.snap import SeedIndex, SnapAligner, SnapConfig
from repro.align.snap import aligner as snap_aligner_module
from repro.core.pipelines import run_pipeline
from repro.core.subgraphs import AlignGraphConfig
from repro.formats.converters import import_reads
from repro.genome.reads import ReadRecord
from repro.genome.reference import reference_from_sequences
from repro.genome.sequence import reverse_complement
from repro.storage.base import MemoryStore

SEED_LENGTH = 16


def _random_bases(rng, n: int) -> bytes:
    return bytes(b"ACGT"[x] for x in rng.integers(0, 4, size=n))


def _repetitive_reference():
    """Three contigs built to reach every branch of candidate ranking.

    ``unique`` is plain random sequence.  ``tandem`` repeats a 150-base
    unit 7 times, so a read from it has 7 equal-vote candidates (tie
    order; ``max_candidates`` truncation on the tight config).
    ``popular`` repeats a 16-base unit 60 times — seeds there exceed
    ``max_hits`` and must return nothing — then an N run and a tail.
    """
    rng = np.random.default_rng(4242)
    unit = _random_bases(rng, 150)
    return reference_from_sequences([
        ("unique", _random_bases(rng, 3000)),
        ("tandem", _random_bases(rng, 200) + unit * 7 + _random_bases(rng, 200)),
        ("popular", _random_bases(rng, 300) + b"ACGTTGCAAGCTTCGA" * 60
         + b"N" * 40 + _random_bases(rng, 300)),
    ])


REFERENCE = _repetitive_reference()
GENOME = REFERENCE.concatenated()
INDEX = SeedIndex(REFERENCE, seed_length=SEED_LENGTH, max_hits=8)
CONFIGS = {
    "default": SnapConfig(),
    "tight": SnapConfig(seed_stride=5, max_edit_distance=4, max_candidates=3,
                        confidence_gap=1),
}


@st.composite
def read_strategy(draw):
    """One read: a genome window (anywhere, including across a contig
    boundary and flush with the genome end) with edits, or pure noise."""
    length = draw(st.one_of(
        st.sampled_from([101, 101, 101, 64, 150]),
        st.integers(min_value=0, max_value=140),
    ))
    if draw(st.integers(0, 9)) == 0:
        noise = draw(st.binary(min_size=length, max_size=length))
        return bytes(b"ACGTN"[x % 5] for x in noise)
    anchors = [0, len(GENOME) - length,
               REFERENCE.contig_start("tandem") - length // 2,
               REFERENCE.contig_start("tandem") + 200,
               REFERENCE.contig_start("popular") + 300]
    start = draw(st.one_of(
        st.integers(0, len(GENOME) - length),
        st.sampled_from(anchors).map(lambda a: max(0, a)),
    ))
    read = bytearray(GENOME[start:start + length])
    for _ in range(draw(st.integers(0, 4))):
        if not read:
            break
        at = draw(st.integers(0, len(read) - 1))
        kind = draw(st.sampled_from(["sub", "sub", "ins", "del", "N", "lower"]))
        if kind == "sub":
            read[at] = draw(st.sampled_from(b"ACGT"))
        elif kind == "ins":
            read.insert(at, draw(st.sampled_from(b"ACGT")))
        elif kind == "del":
            del read[at]
        elif kind == "N":
            read[at] = ord("N")
        else:
            read[at] = ord(chr(read[at]).lower())
    bases = bytes(read)
    return reverse_complement(bases) if draw(st.booleans()) else bases


def assert_batch_equals_oracle(config: SnapConfig, batch, as_column=False):
    oracle, batched = SnapAligner(INDEX, config), SnapAligner(INDEX, config)
    expected = [oracle.align_read(read) for read in batch]
    if as_column:
        lengths = [len(read) for read in batch]
        column = BasesColumn(
            flat=np.frombuffer(b"".join(batch), dtype=np.uint8),
            bounds=np.concatenate(([0], np.cumsum(lengths))).astype(np.int64),
        )
        # A zero-copy slice has bounds rebased onto a view of ``flat``.
        cut = len(batch) // 2
        got = ResultsColumn.concat([batched.align_reads(column[:cut]),
                                    batched.align_reads(column[cut:])])
    else:
        got = batched.align_reads(batch)
    assert got == expected
    assert batched.stats == oracle.stats
    return expected


class TestBatchEqualsOracle:
    @pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
    @settings(max_examples=60, deadline=None)
    @given(batch=st.lists(read_strategy(), max_size=12),
           as_column=st.booleans())
    def test_differential(self, config, batch, as_column):
        assert_batch_equals_oracle(config, batch, as_column)

    def test_empty_batch(self):
        aligner = SnapAligner(INDEX)
        assert aligner.align_reads([]) == []
        empty = BasesColumn(flat=np.zeros(0, np.uint8),
                            bounds=np.zeros(1, np.int64))
        assert aligner.align_reads(empty) == []
        assert aligner.stats.reads == 0

    def test_tandem_reads_tie_order_and_truncation(self):
        """7 equal-vote candidates: the oracle's first-seen order decides
        which survive ``max_candidates`` and which one wins."""
        base = REFERENCE.contig_start("tandem") + 200
        batch = [GENOME[base + 150 * k + 7:base + 150 * k + 108]
                 for k in range(6)]
        batch += [reverse_complement(read) for read in batch]
        for config in CONFIGS.values():
            results = assert_batch_equals_oracle(config, batch)
            assert all(r.is_aligned and r.mapq == 1 for r in results)

    def test_popular_seeds_are_filtered(self):
        start = REFERENCE.contig_start("popular") + 300
        batch = [GENOME[start + 16 * k:start + 16 * k + 101]
                 for k in range(4)]
        results = assert_batch_equals_oracle(CONFIGS["default"], batch)
        assert not any(r.is_aligned for r in results)

    def test_short_n_lowercase_and_ends(self):
        end = len(GENOME)
        boundary = REFERENCE.contig_start("tandem")
        batch = [
            b"", b"ACGT", GENOME[10:10 + SEED_LENGTH - 1],
            GENOME[10:10 + SEED_LENGTH], GENOME[:101], GENOME[end - 101:],
            GENOME[boundary - 50:boundary + 51], b"N" * 101,
            GENOME[500:601].lower(), GENOME[700:750] + b"N" + GENOME[751:801],
            GENOME[900:950] + GENOME[951:1002],       # deletion
            GENOME[1100:1150] + b"T" + GENOME[1150:1200],  # insertion
        ]
        results = assert_batch_equals_oracle(CONFIGS["default"], batch, True)
        assert [r.is_aligned for r in results[:3]] == [False] * 3
        assert any(b"D" in r.cigar or b"I" in r.cigar for r in results)

    def test_aligner_without_array_program_uses_per_read_loop(self):
        class Counting(ReadAligner):
            def __init__(self):
                self.seen = []

            def align_read(self, bases):
                self.seen.append(bases)
                return AlignmentResult(mapq=len(bases))

        aligner = Counting()
        results = aligner.align_reads([b"AC", b"ACG"])
        assert isinstance(results, ResultsColumn)
        assert results == [AlignmentResult(mapq=2), AlignmentResult(mapq=3)]
        assert results[1].mapq == 3
        assert aligner.seen == [b"AC", b"ACG"]


class TestOneTracebackPerRead:
    def test_only_the_winner_is_traced(self, monkeypatch):
        """Candidates are ranked on Landau–Vishkin distances; the banded
        traceback runs once per read whose CIGAR is not ``<m>M``, for
        its winning placement, on a band as wide as its distance."""
        unique = REFERENCE.contig_start("unique")
        tandem = REFERENCE.contig_start("tandem") + 200
        batch = []
        for k in range(8):
            at = unique + 300 * k
            batch.append(GENOME[at:at + 50] + GENOME[at + 51 + k % 2:at + 103])
            batch.append(GENOME[at + 120:at + 170] + b"GA"[:1 + k % 2]
                         + GENOME[at + 170:at + 220])
        # Seven equal-vote placements, each needing Landau–Vishkin: six
        # verified candidates lose to the first.
        for k in range(3):
            at = tandem + 150 * k + 7
            batch.append(GENOME[at:at + 60] + GENOME[at + 61:at + 102])
        batch += [reverse_complement(read) for read in batch[::3]]
        batch.append(GENOME[2000:2101])  # no indel: never traced
        config = CONFIGS["default"]
        oracle = SnapAligner(INDEX, config)
        expected = [oracle.align_read(read) for read in batch]

        calls = []
        banded = snap_aligner_module.banded_alignment

        def spy(read, ref, k):
            calls.append((read, ref, k))
            return banded(read, ref, k)

        monkeypatch.setattr(snap_aligner_module, "banded_alignment", spy)
        batched = SnapAligner(INDEX, config)
        got = batched.align_reads(batch)
        assert got == expected
        assert batched.stats == oracle.stats
        winners = []
        for read, result in zip(batch, expected):
            if result.cigar == b"%dM" % len(read):
                continue
            start = REFERENCE.contig_start(
                REFERENCE.names[result.contig_index]) + result.position
            strand = reverse_complement(read) if result.is_reverse else read
            winners.append((strand, GENOME[
                start:start + len(read) + result.edit_distance
            ], result.edit_distance))
        assert len(winners) >= 20
        assert sorted(calls) == sorted(winners)
        # Losing candidates ran Landau–Vishkin but no traceback.
        assert batched.stats.lv_calls > len(calls)


class TestStatsUnderThreads:
    def test_concurrent_batches_lose_no_update(self, reads, seed_index):
        """More threads than cores, switching every few bytecodes: the
        per-batch merge must count every read exactly once."""
        batch = [r.bases for r in reads[:60]]
        serial = SnapAligner(seed_index)
        for _ in range(8):
            serial.align_reads(batch)
        shared = SnapAligner(seed_index)
        threads = [threading.Thread(target=shared.align_reads, args=(batch,))
                   for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert shared.stats == serial.stats

    def test_two_replica_run_reports_direct_stats(
        self, reads, reference, seed_index
    ):
        """Two aligner replicas merge into one aligner's stats: the
        pipeline's counts equal one direct ``align_reads`` call's."""
        # A read with two bases dropped: a verification Hamming cannot
        # settle, whatever the session fixture happened to draw.
        gapped = ReadRecord(b"gapped", reads[0].bases[:50]
                            + reads[0].bases[52:] + b"AC", reads[0].qualities)
        reads = list(reads) + [gapped]
        direct = SnapAligner(seed_index)
        direct.align_reads([r.bases for r in reads])
        aligner = SnapAligner(seed_index)
        run_pipeline(
            _dataset(reads, reference), stages=("align",), aligner=aligner,
            align_config=AlignGraphConfig(aligner_nodes=2, subchunk_size=32),
        )
        assert aligner.stats == direct.stats
        assert direct.stats.reads == len(reads)
        assert direct.stats.lv_calls > 0 and direct.stats.seed_lookups > 0


class ScalarOracleAligner(SnapAligner):
    """A SNAP aligner forced through the per-read path."""

    align_reads = ReadAligner.align_reads


def _dataset(reads, reference):
    return import_reads(reads, "batch", MemoryStore(), chunk_size=100,
                        reference=reference.manifest_entry())


def _pipeline_digest(aligner, reads, reference, backend) -> str:
    outcome = run_pipeline(
        _dataset(reads, reference), aligner=aligner, reference=reference,
        backend=backend, workers=2,
    )
    digest = hashlib.sha256()
    store = outcome.dataset.store
    for key in sorted(store.keys()):
        digest.update(key.encode())
        digest.update(store.get(key))
    digest.update(repr(outcome.variants).encode())
    return digest.hexdigest()


def test_pipeline_outputs_unchanged_versus_scalar_oracle(
    reads, reference, seed_index
):
    expected = _pipeline_digest(
        ScalarOracleAligner(seed_index), reads, reference, "serial"
    )
    for backend in ("serial", "process"):
        assert _pipeline_digest(
            SnapAligner(seed_index), reads, reference, backend
        ) == expected, backend
