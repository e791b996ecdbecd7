"""Synthetic genome and read-set generation.

The paper evaluates on half of Illumina dataset ERR174324 (223 million
101-bp reads) aligned against hg19.  Neither is available offline, so this
module generates seeded synthetic equivalents: a random reference genome
with hg19-like base composition, and a shotgun read simulator with a
configurable error model, coverage, paired-end geometry, and a PCR
duplicate fraction.  Ground-truth origins are retained so tests can verify
aligner correctness — something the real dataset cannot offer.

All generation is deterministic given a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.genome.reads import ReadBatch, ReadOrigin
from repro.genome.reference import Contig, ReferenceGenome
from repro.genome.sequence import COMPLEMENT_LUT

_ACGT = np.frombuffer(b"ACGT", dtype=np.uint8)
#: Rank of every byte among ``ACGT`` (what ``searchsorted`` would say).
_ACGT_RANK = np.searchsorted(_ACGT, np.arange(256)).astype(np.uint8)

#: Reads drawn per array block: a run of any size holds one block's
#: ``(reads, read_length)`` float draws at a time, not the whole set's.
_BLOCK_READS = 65_536


def synthetic_reference(
    total_length: int,
    num_contigs: int = 1,
    seed: int = 0,
    gc_bias: float = 0.41,
    name_prefix: str = "chr",
) -> ReferenceGenome:
    """Generate a random reference genome.

    ``gc_bias`` defaults to the human genome's ~41% GC content.  Contig
    lengths are equal except the last, which absorbs the remainder.
    """
    if total_length <= 0:
        raise ValueError("total_length must be positive")
    if num_contigs <= 0:
        raise ValueError("num_contigs must be positive")
    if num_contigs > total_length:
        raise ValueError("more contigs than bases")
    rng = np.random.default_rng(seed)
    at = (1.0 - gc_bias) / 2.0
    gc = gc_bias / 2.0
    probs = np.array([at, gc, gc, at])  # A, C, G, T
    contigs = []
    base_len = total_length // num_contigs
    produced = 0
    for i in range(num_contigs):
        length = base_len if i < num_contigs - 1 else total_length - produced
        seq = _ACGT[rng.choice(4, size=length, p=probs)].tobytes()
        contigs.append(Contig(f"{name_prefix}{i + 1}", seq))
        produced += length
    return ReferenceGenome(contigs)


@dataclass
class ErrorModel:
    """Sequencing error model applied to simulated reads.

    ``substitution_rate`` is the per-base probability of reading the wrong
    base (Illumina machines regularly misread bases, §2.1), ``indel_rate``
    the per-read probability of one short insertion or deletion, and
    ``n_rate`` the per-base probability of an ambiguous ``N`` call.
    """

    substitution_rate: float = 0.005
    indel_rate: float = 0.001
    max_indel_length: int = 3
    n_rate: float = 0.0005
    quality_mean: int = 35
    quality_sd: int = 4

    def __post_init__(self) -> None:
        for name in ("substitution_rate", "indel_rate", "n_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass
class ReadSimulator:
    """Shotgun read simulator over a reference genome (§2: NGS machines
    chop long DNA strands into short snippets read in arbitrary order)."""

    reference: ReferenceGenome
    read_length: int = 101
    error_model: ErrorModel = field(default_factory=ErrorModel)
    duplicate_fraction: float = 0.0
    paired: bool = False
    insert_size_mean: int = 350
    insert_size_sd: int = 30
    seed: int = 0

    def __post_init__(self) -> None:
        if self.read_length <= 0:
            raise ValueError("read_length must be positive")
        if len(self.reference) < self.read_length:
            raise ValueError("reference shorter than read length")
        if not 0.0 <= self.duplicate_fraction < 1.0:
            raise ValueError("duplicate_fraction must be in [0, 1)")
        if self.paired:
            min_insert = 2 * self.read_length
            if self.insert_size_mean < min_insert:
                raise ValueError(
                    f"insert_size_mean {self.insert_size_mean} below "
                    f"2 x read_length ({min_insert})"
                )
        self._rng = np.random.default_rng(self.seed)
        self._genome = np.frombuffer(self.reference.concatenated(),
                                     dtype=np.uint8)

    # ------------------------------------------------------------------ API

    def reads_for_coverage(self, coverage: float) -> int:
        """Number of reads giving the requested coverage (30-50x typical)."""
        return max(1, int(round(coverage * len(self.reference) / self.read_length)))

    def simulate(
        self, num_reads: int, sample_name: str = "sample"
    ) -> tuple[ReadBatch, list[ReadOrigin]]:
        """Generate ``num_reads`` reads with ground-truth origins.

        For paired mode ``num_reads`` must be even; mates are adjacent in
        the output (R1 then R2), mirroring interleaved FASTQ.

        An array program: every decision is drawn for a block of reads
        at once and the reads are born as rows of the returned batch's
        matrices (``tests/read_sim_oracle.py`` is the same law one read
        at a time).
        """
        if num_reads <= 0:
            raise ValueError("num_reads must be positive")
        if self.paired and num_reads % 2:
            raise ValueError("paired simulation needs an even read count")
        shape = (num_reads, self.read_length)
        bases = np.empty(shape, dtype=np.uint8)
        qualities = np.empty(shape, dtype=np.uint8)
        position = np.empty(num_reads, dtype=np.int64)
        reverse = np.empty(num_reads, dtype=bool)
        duplicate = np.empty(num_reads, dtype=bool)
        mate = np.empty(num_reads, dtype=np.int64)
        errors = np.empty(num_reads, dtype=np.int64)
        per_fragment = 2 if self.paired else 1
        last_fragment: "tuple[int, bool, int] | None" = None
        for lo in range(0, num_reads, _BLOCK_READS):
            count = min(_BLOCK_READS, num_reads - lo)
            block = slice(lo, lo + count)
            start, strand, insert, copied = self._draw_fragments(
                count // per_fragment, last_fragment)
            last_fragment = (start[-1], strand[-1], insert[-1])
            duplicate[block] = np.repeat(copied, per_fragment)
            position[block], reverse[block], mate[block] = \
                self._lay_out_reads(start, strand, insert)
            bases[block], errors[block] = self._sequence_reads(
                position[block], reverse[block])
            qualities[block] = self._draw_qualities(count)
        fragments = range(num_reads // per_fragment)
        if self.paired:
            names = [f"{sample_name}.{i}/{m}".encode()
                     for i in fragments for m in (1, 2)]
        else:
            names = [f"{sample_name}.{i}".encode() for i in fragments]
        origins = list(map(
            ReadOrigin, position.tolist(), reverse.tolist(),
            duplicate.tolist(), mate.tolist(), errors.tolist(),
        ))
        return ReadBatch(bases, qualities, names), origins

    # ------------------------------------------------------------- internals

    def _draw_fragments(self, count: int, last_fragment):
        """``count`` fragments as ``(start, reverse, insert, duplicate)``
        arrays, continuing after ``last_fragment`` (None at the start).

        A PCR duplicate re-reads the *same physical fragment*: identical
        coordinates (including insert length), independent sequencing
        errors — so it copies the fragment before it, which may itself
        be a duplicate.
        """
        genome = len(self.reference)
        start = self._rng.integers(0, genome - self._draw_spans(count) + 1)
        reverse = self._rng.integers(0, 2, size=count).astype(bool)
        insert = np.minimum(self._draw_spans(count), genome - start)
        duplicate = self._rng.random(count) < self.duplicate_fraction
        if last_fragment is None:
            duplicate[0] = False
        elif duplicate[0]:
            start[0], reverse[0], insert[0] = last_fragment
        # Forward-fill: each fragment reads from the last non-duplicate
        # at or before it (slot 0 now stands for the carried-in one).
        source = np.maximum.accumulate(
            np.where(duplicate, 0, np.arange(count)))
        return start[source], reverse[source], insert[source], duplicate

    def _draw_spans(self, count: int) -> np.ndarray:
        """Fragment lengths: the read itself, or a pair's insert size."""
        if not self.paired:
            return np.full(count, self.read_length, dtype=np.int64)
        spans = self._rng.normal(
            self.insert_size_mean, self.insert_size_sd, size=count)
        return np.maximum(2 * self.read_length, spans.astype(np.int64))

    def _lay_out_reads(self, start, reverse, insert):
        """Per-read ``(position, reverse, mate position)`` of fragments."""
        if not self.paired:
            return start, reverse, np.full(start.size, -1, dtype=np.int64)
        # Illumina FR geometry: the leftmost read is always forward, the
        # rightmost reverse (mates face inward).  ``reverse`` selects which
        # fragment strand R1 was sequenced from, i.e. whether R1 is the
        # left/forward or right/reverse read.
        right = start + insert - self.read_length
        r1 = np.where(reverse, right, start)
        r2 = np.where(reverse, start, right)
        return (np.stack([r1, r2], axis=1).reshape(-1),
                np.stack([reverse, ~reverse], axis=1).reshape(-1),
                np.stack([r2, r1], axis=1).reshape(-1))

    def _sequence_reads(self, position: np.ndarray, reverse: np.ndarray):
        """The ``(n, L)`` base matrix read at ``position`` off strand
        ``reverse``, with sequencing errors, and the per-read error count."""
        model = self.error_model
        shape = (position.size, self.read_length)
        rows = sliding_window_view(self._genome, self.read_length)[position]
        errors = np.zeros(position.size, dtype=np.int64)
        # One optional short indel per read.
        if model.indel_rate:
            hit = np.flatnonzero(self._rng.random(position.size)
                                 < model.indel_rate)
            errors[hit] = self._apply_indels(rows, hit, position[hit])
        sub_mask = self._rng.random(shape) < model.substitution_rate
        # Rotate within ACGT so the substituted base always differs.
        shifts = self._rng.integers(
            1, 4, size=np.count_nonzero(sub_mask), dtype=np.uint8)
        rows[sub_mask] = _ACGT[(_ACGT_RANK[rows[sub_mask]] + shifts) % 4]
        n_mask = self._rng.random(shape) < model.n_rate
        rows[n_mask] = ord("N")
        # A base hit by both masks is one mismatch.
        errors += (sub_mask | n_mask).sum(axis=1)
        rows[reverse] = COMPLEMENT_LUT[rows[reverse, ::-1]]
        return rows, errors

    def _apply_indels(self, rows, hit, position) -> np.ndarray:
        """Give each of ``rows[hit]`` one short indel; returns the indel
        lengths.  The few reads that have one are edited row by row."""
        read_length = self.read_length
        length = self._rng.integers(
            1, self.error_model.max_indel_length + 1, size=hit.size)
        at = self._rng.integers(1, np.maximum(2, read_length - length))
        insertion = self._rng.integers(0, 2, size=hit.size).astype(bool)
        inserted = _ACGT[self._rng.integers(
            0, 4, size=(hit.size, self.error_model.max_indel_length))]
        for index, pos, n, a, ins, new in zip(
            hit.tolist(), position.tolist(), length.tolist(), at.tolist(),
            insertion.tolist(), inserted,
        ):
            row = rows[index]
            if ins:  # random bases pushed in; the read's end falls off
                edited = np.concatenate([row[:a], new[:n], row[a:]])
            else:  # bases dropped; re-filled from downstream reference
                tail = self._genome[pos + read_length:pos + read_length + n]
                # Near the genome end the refill comes up short: pad with A.
                edited = np.concatenate([
                    row[:a], row[a + n:], tail,
                    np.full(n - tail.size, ord("A"), dtype=np.uint8)])
            rows[index] = edited[:read_length]
        return length

    def _draw_qualities(self, count: int) -> np.ndarray:
        model = self.error_model
        scores = self._rng.normal(model.quality_mean, model.quality_sd,
                                  size=(count, self.read_length))
        np.clip(np.rint(scores, out=scores), 2, 41, out=scores)
        scores += 33  # Phred+33
        return scores.astype(np.uint8)


def synthetic_dataset(
    genome_length: int = 100_000,
    coverage: float = 5.0,
    read_length: int = 101,
    seed: int = 0,
    num_contigs: int = 1,
    duplicate_fraction: float = 0.0,
    paired: bool = False,
) -> tuple[ReferenceGenome, ReadBatch, list[ReadOrigin]]:
    """One-call convenience: reference + reads + ground truth."""
    reference = synthetic_reference(genome_length, num_contigs, seed=seed)
    simulator = ReadSimulator(
        reference,
        read_length=read_length,
        duplicate_fraction=duplicate_fraction,
        paired=paired,
        seed=seed + 1,
    )
    count = simulator.reads_for_coverage(coverage)
    if paired and count % 2:
        count += 1
    reads, origins = simulator.simulate(count)
    return reference, reads, origins
