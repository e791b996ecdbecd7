"""SNAP-style seed-and-extend aligner (§2.1, §4.3).

The algorithm, following Zaharia et al. [47]:

1. sample seeds across the read and look each up in the hash index;
2. each hit votes for a candidate alignment start (hit position minus
   seed offset); both strands are considered via the reverse complement;
3. candidates are verified best-vote-first with a *bounded* edit distance
   (Hamming fast path, then Landau–Vishkin); the bound shrinks as better
   alignments are found, so most candidates are rejected cheaply;
4. only the winner gets a CIGAR: if Landau–Vishkin verified it, one
   banded traceback on a band as wide as its distance;
5. MAPQ is derived from the gap between the best and second-best
   verified alignment.

The aligner is stateless per read and shared read-only across the compute
backend's workers, to which Persona's aligner kernels delegate subchunks
(§4.3's executor resource, Figure 4).

Backends call :meth:`SnapAligner.align_reads`, which runs seeding (one
probe of the index's bucket directory per seed), voting, ranking and the
Hamming pass of verification as whole-array operations over a batch and
assembles the results column from the same arrays; only reads with
several candidates, or one that needs Landau–Vishkin, go through the
per-candidate loop.
:meth:`SnapAligner.align_read` is the per-read form of the same algorithm
— the oracle the batch path is tested against, and what the paired-end
layer calls through :meth:`SnapAligner.align_global`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.agd.columns import RaggedColumn
from repro.align.base import ReadAligner
from repro.align.distance import banded_alignment, hamming, landau_vishkin
from repro.align.result import (
    FLAG_REVERSE,
    FLAG_UNMAPPED,
    AlignmentResult,
)
from repro.agd.result_column import RESULT_FIXED_DTYPE, ResultsColumn
from repro.align.snap.index import SeedIndex
from repro.genome.sequence import COMPLEMENT_LUT, reverse_complement

#: Guards :meth:`SnapStats.merge`.  Module-level because aligners are
#: pickled to process-backend workers, which a lock attribute would break.
_STATS_LOCK = threading.Lock()


@dataclass
class SnapConfig:
    """Tuning knobs (defaults follow SNAP's spirit at our genome scale)."""

    seed_stride: int = 8
    max_edit_distance: int = 8
    max_candidates: int = 24
    confidence_gap: int = 2  # SNAP's confDiff analog


@dataclass
class SnapStats:
    """Aligner-level counters (also feed the Fig. 8 op-mix profiler)."""

    reads: int = 0
    aligned: int = 0
    seed_lookups: int = 0
    #: Candidate placements verified (each costs one Hamming compare).
    candidates_checked: int = 0
    #: Verifications that Hamming could not settle and that ran
    #: ``landau_vishkin`` (a handful per ten thousand clean reads).  Only
    #: the read's winner among them is then traced for its CIGAR.
    lv_calls: int = 0

    def merge(self, other: "SnapStats") -> None:
        """Add ``other``'s counts.  Calls accumulate privately and merge
        once, so concurrent node threads lose no update."""
        with _STATS_LOCK:
            self.reads += other.reads
            self.aligned += other.aligned
            self.seed_lookups += other.seed_lookups
            self.candidates_checked += other.candidates_checked
            self.lv_calls += other.lv_calls


class SnapAligner(ReadAligner):
    """Seed-and-extend aligner over a shared :class:`SeedIndex`."""

    def __init__(self, index: SeedIndex, config: "SnapConfig | None" = None):
        self.index = index
        self.config = config or SnapConfig()
        self.reference = index.reference
        self.stats = SnapStats()
        self._contig_index = {
            name: i for i, name in enumerate(self.reference.names)
        }

    # ----------------------------------------------------------------- API

    def align_read(self, bases: bytes) -> AlignmentResult:
        """Align one read; returns an unmapped result when nothing passes."""
        stats = SnapStats(reads=1)
        best = self._align_global(bases, stats)
        stats.aligned = int(best is not None)
        self.stats.merge(stats)
        return self._result(best)

    def align_global(self, bases: bytes) -> "tuple[int, bool, int, bytes, int] | None":
        """Align returning (global pos, reverse, distance, cigar, mapq).

        Used by the paired-end layer, which reasons in global coordinates.
        """
        stats = SnapStats()
        best = self._align_global(bases, stats)
        self.stats.merge(stats)
        return best

    def align_reads(self, bases) -> ResultsColumn:
        """Align a batch (``list[bytes]`` or a bases column) as one
        array program per read length; record ``i`` of the returned
        results column equals ``align_read(bases[i])``."""
        if isinstance(bases, RaggedColumn):
            bases = bases.decoded()
            flat, bounds = bases.flat, bases.bounds
        else:
            flat = np.frombuffer(b"".join(bases), dtype=np.uint8)
            bounds = np.zeros(len(bases) + 1, dtype=np.int64)
            np.cumsum([len(read) for read in bases], out=bounds[1:])
        lengths = np.diff(bounds)
        stats = SnapStats(reads=lengths.size)
        fixed = np.zeros(lengths.size, dtype=RESULT_FIXED_DTYPE)
        position = np.full(lengths.size, -1, dtype=np.int64)
        cigars = [b""] * lengths.size
        # (Distinct lengths by histogram: a plain ``np.unique`` imports
        # ``numpy.ma`` on first use, ~10 ms inside the first chunk.)
        seedable = lengths[lengths >= self.index.seed_length]
        for m in np.flatnonzero(np.bincount(seedable)):
            members = np.flatnonzero(lengths == m)
            reads = flat[bounds[members, None] + np.arange(m)]
            starts, reverse, distance, mapq, traced = \
                self._align_group(reads, stats)
            position[members] = starts
            fixed["flag"][members] = np.where(reverse, FLAG_REVERSE, 0)
            fixed["mapq"][members] = mapq
            fixed["edit_distance"][members] = distance
            cigar = b"%dM" % m
            for i in members[starts >= 0].tolist():
                cigars[i] = cigar
            for row, indel_cigar in traced.items():
                cigars[members[row]] = indel_cigar
        # The unmapped record is AlignmentResult()'s: every field at
        # its default.
        aligned = position >= 0
        stats.aligned = int(aligned.sum())
        self.stats.merge(stats)
        fixed["flag"][~aligned] = FLAG_UNMAPPED
        fixed["next_contig"] = fixed["next_position"] = -1
        fixed["contig"] = fixed["position"] = -1
        fixed["contig"][aligned], fixed["position"][aligned] = \
            self.reference.to_local_arrays(position[aligned])
        return ResultsColumn.from_fields(
            fixed,
            np.frombuffer(b"".join(cigars), dtype=np.uint8),
            np.fromiter(map(len, cigars), np.int64, len(cigars)),
        )

    # ------------------------------------------------------------ internals

    def _result(self, best) -> AlignmentResult:
        """A global alignment outcome (or None) as a results-column record."""
        if best is None:
            return AlignmentResult(flag=FLAG_UNMAPPED)
        position, reverse, distance, cigar, mapq = best
        contig, local = self.reference.to_local(position)
        return AlignmentResult(
            flag=FLAG_REVERSE if reverse else 0,
            mapq=mapq,
            contig_index=self._contig_index[contig],
            position=local,
            edit_distance=distance,
            cigar=cigar,
        )

    def _align_global(self, bases: bytes, stats: SnapStats):
        if len(bases) < self.index.seed_length:
            return None
        # One reverse complement per read, shared by seeding and
        # verification.
        rc = reverse_complement(bases)
        votes = self._collect_candidates(bases, rc, stats)
        ordered = sorted(votes, key=lambda key: -votes[key])
        return self._verify_candidates(
            bases, rc, ordered[: self.config.max_candidates], stats
        )

    def _seed_offsets(self, m: int) -> "list[int]":
        s = self.index.seed_length
        offsets = list(range(0, m - s + 1, self.config.seed_stride))
        if offsets[-1] != m - s:
            offsets.append(m - s)  # always seed the read tail
        return offsets

    def _collect_candidates(
        self, bases: bytes, rc: bytes, stats: SnapStats
    ) -> "dict[tuple[int, bool], int]":
        """Seed both strands and tally votes per candidate start."""
        votes: dict[tuple[int, bool], int] = {}
        genome_len = len(self.reference)
        m = len(bases)
        offsets = self._seed_offsets(m)
        for strand_bases, reverse in ((bases, False), (rc, True)):
            values = self.index.encode_read_seeds(strand_bases, offsets)
            stats.seed_lookups += len(offsets)
            for offset, value in zip(offsets, values):
                if value is None:
                    continue
                for pos in self.index.lookup_value(value):
                    start = int(pos) - offset
                    if start < 0 or start + m > genome_len:
                        continue
                    key = (start, reverse)
                    votes[key] = votes.get(key, 0) + 1
        return votes

    def _verify_candidates(
        self, bases: bytes, rc: bytes,
        ordered: "list[tuple[int, bool]]", stats: SnapStats,
        hammings: "list[int] | None" = None,
    ) -> "tuple[int, bool, int, bytes, int] | None":
        """Verify ranked candidates under a shrinking edit bound.

        ``hammings`` are the batch path's precomputed mismatch counts,
        one per candidate (the per-read path computes each here).  A
        candidate within the current bound is settled by its mismatch
        count (``<m>M``); the others run ``landau_vishkin`` — and count
        as ``lv_calls``.  Candidates are ranked on distances alone: only
        the winner, if Landau–Vishkin verified it, is traced, once, on a
        band as wide as its distance.  That is the CIGAR
        ``verify_candidate`` gives under the bound the candidate was
        verified at: an alignment with ``d`` edits never leaves the band
        ``|i - j| <= d``.
        """
        m = len(bases)
        max_k = self.config.max_edit_distance
        best: "tuple[int, bool, int, bool] | None" = None
        second_distance: "int | None" = None
        bound = max_k
        for i, (start, reverse) in enumerate(ordered):
            stats.candidates_checked += 1
            strand = rc if reverse else bases
            # Candidates lie inside the genome, so this is the Hamming
            # check verify_candidate would start with.
            distance = hammings[i] if hammings is not None else \
                hamming(strand, self.reference.fetch(start, m))
            traced = distance > bound
            if traced:
                stats.lv_calls += 1
                distance = landau_vishkin(
                    strand, self.reference.fetch(start, m + bound), bound
                )
                if distance is None:
                    continue
            if best is None or distance < best[2]:
                if best is not None:
                    second_distance = best[2]
                best = (start, reverse, distance, traced)
                # Tighten the bound: later candidates must strictly win.
                bound = min(bound, distance + self.config.confidence_gap)
            elif second_distance is None or distance < second_distance:
                second_distance = distance
        if best is None:
            return None
        start, reverse, distance, traced = best
        cigar = b"%dM" % m
        if traced:
            _, cigar, _ = banded_alignment(
                rc if reverse else bases,
                self.reference.fetch(start, m + distance), distance,
            )
        mapq = compute_mapq(distance, second_distance, max_k)
        return start, reverse, distance, cigar, mapq

    def _align_group(self, reads: np.ndarray, stats: SnapStats) -> list:
        """The array program over ``reads``, an ``(n, m)`` ASCII array:
        each row's ``align_global`` outcome as ``(position, reverse,
        distance, mapq)`` arrays (position -1: unaligned) plus the
        CIGARs of the rows that are not a plain ``<m>M``, by row."""
        n, m = reads.shape
        config, genome_len = self.config, len(self.reference)
        offsets = np.array(self._seed_offsets(m))
        # (1) Both strands as rows 2r (forward) and 2r + 1 (reverse).
        strands = np.empty((n, 2, m), dtype=np.uint8)
        strands[:, 0] = reads
        strands[:, 1] = COMPLEMENT_LUT[reads][:, ::-1]
        strands = strands.reshape(2 * n, m)
        values, valid = self.index.pack_seeds(strands, offsets)
        stats.seed_lookups += values.size
        # (2) Every hit, in the scalar path's insertion order: (read,
        # forward-then-reverse, offset, position).
        query, hits = self.index.lookup_values(values.ravel(), valid.ravel())
        starts = hits - offsets[query % offsets.size]
        inside = (starts >= 0) & (starts + m <= genome_len)
        keys = (query[inside] // offsets.size) * genome_len + starts[inside]
        # (3) Vote, then rank per read by (-votes, first seen) — the
        # order the scalar path's stable sort over its dict gives.
        keys, first_seen, votes = np.unique(
            keys, return_index=True, return_counts=True
        )
        order = np.lexsort((first_seen, -votes, keys // (2 * genome_len)))
        rows, starts = np.divmod(keys[order], genome_len)
        per_read = np.bincount(rows >> 1, minlength=n)
        first = np.cumsum(per_read) - per_read  # each read's top candidate
        kept = np.arange(rows.size) - np.repeat(first, per_read) \
            < config.max_candidates
        rows, starts = rows[kept], starts[kept]
        per_read = np.minimum(per_read, config.max_candidates)
        first = np.cumsum(per_read) - per_read
        # (4) One Hamming over every kept candidate.
        genome = np.frombuffer(self.reference.concatenated(), dtype=np.uint8)
        hammings = (
            strands[rows] != genome[starts[:, None] + np.arange(m)]
        ).sum(axis=1)
        # (5) A read whose only candidate passes Hamming is done: no
        # second-best, no bound to shrink, no indel to trace.
        position = np.full(n, -1, dtype=np.int64)
        reverse = np.zeros(n, dtype=bool)
        distance = np.zeros(n, dtype=np.int64)
        mapq = np.zeros(n, dtype=np.int64)
        traced: "dict[int, bytes]" = {}
        lone = np.flatnonzero(per_read == 1)
        lone = lone[hammings[first[lone]] <= config.max_edit_distance]
        top = first[lone]
        position[lone] = starts[top]
        reverse[lone] = (rows[top] & 1).astype(bool)
        distance[lone] = hammings[top]
        # compute_mapq with no second-best alignment.
        mapq[lone] = np.maximum(10, 60 - 4 * hammings[top])
        stats.candidates_checked += lone.size
        # Every other read with candidates replays the scalar loop.
        per_read[lone] = 0
        for read in np.flatnonzero(per_read).tolist():
            span = slice(first[read], first[read] + per_read[read])
            best = self._verify_candidates(
                strands[2 * read].tobytes(), strands[2 * read + 1].tobytes(),
                list(zip(starts[span].tolist(),
                         (rows[span] & 1).astype(bool).tolist())),
                stats, hammings[span].tolist(),
            )
            if best is not None:
                (position[read], reverse[read], distance[read], cigar,
                 mapq[read]) = best
                if cigar != b"%dM" % m:
                    traced[read] = cigar
        return position, reverse, distance, mapq, traced


def compute_mapq(
    best_distance: int,
    second_distance: "int | None",
    max_k: int,
) -> int:
    """Heuristic mapping quality from the best/second-best distance gap.

    Mirrors the shape of SNAP's MAPQ: unique, low-edit alignments score
    near 60; ties score near 0.  The exact probabilistic calibration of
    SNAP is not reproduced (we only need relative ordering downstream).
    """
    if second_distance is None:
        return max(10, 60 - 4 * best_distance)
    gap = second_distance - best_distance
    if gap <= 0:
        return 1
    return max(1, min(60, 12 * gap - 2 * best_distance))
