"""BWA-MEM-style aligner: FM-index seeding plus bounded extension (§4.3).

The structure follows BWA-MEM [30]:

1. **Seeding** — super-maximal-exact-match style: backward-search from the
   read's end yields the longest exact match ending there; the search
   restarts before the mismatch, producing a set of (offset, length, SA
   interval) seeds.  These FM-index walks are the memory-bound inner loop
   the paper profiles in Fig. 8.
2. **Chaining** — seed hits are grouped by diagonal (position − offset);
   chains are ranked by total seeded bases.
3. **Extension** — top chains are verified with the bounded edit-distance
   kernel against the true reference (scoring simplified from BWA's
   affine-gap Smith–Waterman; see DESIGN.md substitutions).

Paired-end alignment reproduces BWA-MEM's split-phase structure: "BWA-MEM
incorporates a single-threaded step over sets of reads to infer
information about the data" (§4.3).  :meth:`BwaMemAligner.infer_insert_size`
is that serial step: it runs once, before the graph, over a sample of
pairs (as ``examples/wgs_pipeline.py`` does).  :meth:`align_pair` is the
parallel step, dispatched per subchunk by ``PairedAlignerNode`` through
the run's compute backend.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from repro.align.base import ReadAligner
from repro.align.distance import verify_candidate
from repro.align.result import (
    FLAG_REVERSE,
    FLAG_UNMAPPED,
    AlignmentResult,
)
from repro.align.bwa.fm_index import FMIndex
from repro.align.snap.aligner import compute_mapq
from repro.genome.reference import ReferenceGenome
from repro.genome.sequence import reverse_complement


@dataclass
class BwaConfig:
    """Tuning knobs, scaled-down analogs of BWA-MEM's defaults."""

    min_seed_length: int = 17
    max_occurrences: int = 32
    max_edit_distance: int = 8
    max_chains: int = 16
    reseed_step: int = 5


@dataclass(frozen=True)
class Seed:
    """One exact-match seed: read offset, length, genome positions."""

    read_offset: int
    length: int
    positions: tuple


@dataclass
class InsertSizeModel:
    """Paired-end insert statistics from the serial inference step."""

    mean: float
    std: float
    samples: int

    def window(self, sigmas: float = 4.0) -> tuple[int, int]:
        slack = max(20.0, sigmas * self.std)
        return (max(0, int(self.mean - slack)), int(self.mean + slack))


@dataclass
class BwaStats:
    reads: int = 0
    aligned: int = 0
    seeds_found: int = 0
    fm_extensions: int = 0
    chains_verified: int = 0


class BwaMemAligner(ReadAligner):
    """Single- and paired-read aligner over a shared :class:`FMIndex`."""

    def __init__(self, index: FMIndex, config: "BwaConfig | None" = None):
        self.index = index
        self.config = config or BwaConfig()
        self.reference: ReferenceGenome = index.reference
        self.stats = BwaStats()
        self._contig_index = {
            name: i for i, name in enumerate(self.reference.names)
        }
        self.insert_model: "InsertSizeModel | None" = None

    # ------------------------------------------------------------- seeding

    def find_seeds(self, bases: bytes) -> list[Seed]:
        """Greedy SMEM-style seeding by repeated backward search."""
        from repro.align.bwa.fm_index import encode_symbols

        config = self.config
        symbols = encode_symbols(bases)
        seeds: list[Seed] = []
        end = len(bases)
        while end >= config.min_seed_length:
            lo, hi = self.index.full_interval()
            start = end
            last_good: "tuple[int, int, int] | None" = None
            while start > 0:
                nlo, nhi = self.index.backward_extend(
                    (lo, hi), int(symbols[start - 1])
                )
                self.stats.fm_extensions += 1
                if nlo >= nhi:
                    break
                lo, hi = nlo, nhi
                start -= 1
                if end - start >= config.min_seed_length:
                    last_good = (start, lo, hi)
            if last_good is not None:
                start, lo, hi = last_good
                length = end - start
                occurrences = hi - lo
                if occurrences <= config.max_occurrences:
                    positions = tuple(
                        self.index.locate((lo, hi), limit=config.max_occurrences)
                    )
                    seeds.append(Seed(start, length, positions))
                    self.stats.seeds_found += 1
                # Restart behind this seed (with a small overlap so nearby
                # seeds on the other diagonal are still found).
                end = start + min(config.reseed_step, length - 1)
            else:
                end -= config.reseed_step
        return seeds

    # ------------------------------------------------------------ chaining

    def _chain_candidates(
        self, seeds: list[Seed], read_len: int
    ) -> "dict[int, int]":
        """Group seed hits by diagonal; weight = seeded bases."""
        genome_len = len(self.reference)
        chains: dict[int, int] = {}
        for seed in seeds:
            for pos in seed.positions:
                start = pos - seed.read_offset
                if start < 0 or start + read_len > genome_len:
                    continue
                # Merge nearby diagonals (small indels shift the start).
                bucket = None
                for shift in (0, -1, 1, -2, 2):
                    if start + shift in chains:
                        bucket = start + shift
                        break
                key = bucket if bucket is not None else start
                chains[key] = chains.get(key, 0) + seed.length
        return chains

    # ----------------------------------------------------------- alignment

    def align_global(
        self, bases: bytes
    ) -> "tuple[int, bool, int, bytes, int] | None":
        """Best alignment in global coordinates, or None."""
        m = len(bases)
        config = self.config
        best: "tuple[int, bool, int, bytes] | None" = None
        second: "int | None" = None
        for read, reverse in (
            (bases, False),
            (reverse_complement(bases), True),
        ):
            seeds = self.find_seeds(read)
            if not seeds:
                continue
            chains = self._chain_candidates(seeds, m)
            ordered = sorted(chains.items(), key=lambda kv: -kv[1])
            for start, _weight in ordered[: config.max_chains]:
                self.stats.chains_verified += 1
                window = self.reference.fetch(
                    start, m + config.max_edit_distance
                )
                verdict = verify_candidate(read, window, config.max_edit_distance)
                if verdict is None:
                    continue
                distance, cigar = verdict
                if best is None or distance < best[2]:
                    if best is not None:
                        second = best[2]
                    best = (start, reverse, distance, cigar)
                elif (start, reverse) != best[:2] and (
                    second is None or distance < second
                ):
                    second = distance
        if best is None:
            return None
        start, reverse, distance, cigar = best
        mapq = compute_mapq(distance, second, config.max_edit_distance)
        return start, reverse, distance, cigar, mapq

    def align_read(self, bases: bytes) -> AlignmentResult:
        """Align one single-end read."""
        self.stats.reads += 1
        outcome = self.align_global(bases)
        if outcome is None:
            return AlignmentResult(flag=FLAG_UNMAPPED)
        start, reverse, distance, cigar, mapq = outcome
        contig, local = self.reference.to_local(start)
        self.stats.aligned += 1
        return AlignmentResult(
            flag=FLAG_REVERSE if reverse else 0,
            mapq=mapq,
            contig_index=self._contig_index[contig],
            position=local,
            edit_distance=distance,
            cigar=cigar,
        )

    # ------------------------------------------------------- paired reads

    def infer_insert_size(
        self, pairs: "list[tuple[bytes, bytes]]"
    ) -> InsertSizeModel:
        """The single-threaded inference step over a batch of read pairs.

        Aligns a sample of pairs independently and fits the insert-size
        distribution from confidently, properly oriented pairs.  It runs
        serially, once, before the graph starts (as
        ``examples/wgs_pipeline.py`` does); every :meth:`align_pair` in
        the graph then reads the fitted model.
        """
        inserts: list[int] = []
        for r1, r2 in pairs:
            a1 = self.align_global(r1)
            a2 = self.align_global(r2)
            if a1 is None or a2 is None:
                continue
            p1, rev1, d1, _c1, q1 = a1
            p2, rev2, d2, _c2, q2 = a2
            if rev1 == rev2 or q1 < 20 or q2 < 20:
                continue
            left, right = (p1, p2) if p1 <= p2 else (p2, p1)
            insert = right + len(r2) - left
            if 0 < insert < 10_000:
                inserts.append(insert)
        if len(inserts) >= 2:
            model = InsertSizeModel(
                mean=statistics.fmean(inserts),
                std=max(1.0, statistics.stdev(inserts)),
                samples=len(inserts),
            )
        else:
            model = InsertSizeModel(mean=350.0, std=50.0, samples=0)
        self.insert_model = model
        return model

    def align_pair(
        self, r1: bytes, r2: bytes
    ) -> tuple[AlignmentResult, AlignmentResult]:
        """Align a read pair with mate rescue inside the insert window.

        Requires :meth:`infer_insert_size` (the serial step) to have run;
        falls back to a default insert model otherwise.
        """
        from repro.align.paired import InsertWindow, PairedAligner

        self.stats.reads += 2
        model = self.insert_model or InsertSizeModel(350.0, 50.0, 0)
        lo, hi = model.window()
        paired = PairedAligner(
            self,
            insert_window=InsertWindow(lo, hi),
            rescue_max_k=self.config.max_edit_distance // 2,
        )
        result1, result2 = paired.align_pair(r1, r2)
        self.stats.aligned += int(result1.is_aligned) + int(result2.is_aligned)
        return result1, result2
