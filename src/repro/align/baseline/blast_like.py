"""BLAST-like seed-and-extend baseline (§2 background).

"BLAST ... uses seed-and-extend heuristics to locate short common words
between sequences and extend them to reach a threshold."  This is a
deliberately simple word-table + ungapped-extension aligner: a historical
baseline showing why hashed seeding (SNAP) and FM-index seeding (BWA)
superseded it for short-read volumes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.align.base import ReadAligner
from repro.align.result import FLAG_REVERSE, FLAG_UNMAPPED, AlignmentResult
from repro.genome.reference import ReferenceGenome
from repro.genome.sequence import reverse_complement


@dataclass
class BlastConfig:
    word_length: int = 11
    extension_drop: int = 8  # X-drop threshold
    match: int = 1
    mismatch: int = -2
    min_score: int = 40


class BlastLikeAligner(ReadAligner):
    """Word-table seeding with ungapped X-drop extension."""

    def __init__(self, reference: ReferenceGenome, config: "BlastConfig | None" = None):
        self.reference = reference
        self.config = config or BlastConfig()
        self._words: dict[bytes, list[int]] = {}
        genome = reference.concatenated()
        w = self.config.word_length
        for i in range(len(genome) - w + 1):
            self._words.setdefault(genome[i : i + w], []).append(i)
        self._contig_index = {
            name: i for i, name in enumerate(reference.names)
        }

    def _extend(self, read: bytes, start: int) -> "tuple[int, int] | None":
        """Ungapped X-drop extension over the whole read at ``start``."""
        config = self.config
        genome = self.reference.concatenated()
        m = len(read)
        if start < 0 or start + m > len(genome):
            return None
        score = best = 0
        mismatches = 0
        for i in range(m):
            if read[i] == genome[start + i]:
                score += config.match
            else:
                score += config.mismatch
                mismatches += 1
            if score > best:
                best = score
            if best - score > config.extension_drop:
                return None
        if best < config.min_score:
            return None
        return best, mismatches

    def align_global(self, bases: bytes):
        """(pos, reverse, distance, cigar, mapq) or None."""
        w = self.config.word_length
        best_hit = None
        for read, reverse in ((bases, False), (reverse_complement(bases), True)):
            seen: set[int] = set()
            for offset in range(0, len(read) - w + 1, w):
                for pos in self._words.get(read[offset : offset + w], ()):
                    start = pos - offset
                    if start in seen:
                        continue
                    seen.add(start)
                    outcome = self._extend(read, start)
                    if outcome is None:
                        continue
                    score, mismatches = outcome
                    if best_hit is None or score > best_hit[0]:
                        best_hit = (score, start, reverse, mismatches)
        if best_hit is None:
            return None
        score, start, reverse, mismatches = best_hit
        cigar = f"{len(bases)}M".encode()
        mapq = max(1, min(60, score // 2))
        return start, reverse, mismatches, cigar, mapq

    def align_read(self, bases: bytes) -> AlignmentResult:
        outcome = self.align_global(bases)
        if outcome is None:
            return AlignmentResult(flag=FLAG_UNMAPPED)
        start, reverse, distance, cigar, mapq = outcome
        contig, local = self.reference.to_local(start)
        return AlignmentResult(
            flag=FLAG_REVERSE if reverse else 0,
            mapq=mapq,
            contig_index=self._contig_index[contig],
            position=local,
            edit_distance=distance,
            cigar=cigar,
        )
