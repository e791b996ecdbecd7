"""The per-read simulator, kept as the test oracle for the array one.

This is ``repro.genome.synthetic.ReadSimulator.simulate`` as it was
before it became an array program: one fragment at a time, one scalar
RNG call per decision, one ``ReadRecord`` per read.  It is the readable
specification of the generator's law — where a read starts, which strand
it is read from, how duplicates, indels, substitutions and ``N`` calls
are drawn, the FR geometry of a pair — so that agreeing with it *in
distribution* (the RNG stream cannot be shared: scalar and
variable-consumption draws do not batch bit for bit) means the array
generator changed nothing but speed.
"""

from __future__ import annotations

import numpy as np

from repro.genome.reads import ReadOrigin, ReadRecord
from repro.genome.sequence import reverse_complement
from repro.genome.synthetic import ReadSimulator

_ACGT = np.frombuffer(b"ACGT", dtype=np.uint8)


class OracleReadSimulator(ReadSimulator):
    """A :class:`ReadSimulator` (same parameters, same validation, same
    seeded generator) whose ``simulate`` is the per-read loop."""

    def simulate(
        self, num_reads: int, sample_name: str = "sample"
    ) -> "tuple[list[ReadRecord], list[ReadOrigin]]":
        if num_reads <= 0:
            raise ValueError("num_reads must be positive")
        if self.paired and num_reads % 2:
            raise ValueError("paired simulation needs an even read count")
        reads: "list[ReadRecord]" = []
        origins: "list[ReadOrigin]" = []
        num_fragments = num_reads // 2 if self.paired else num_reads
        fragment_index = 0
        last_fragment: "tuple[int, bool, int] | None" = None
        while fragment_index < num_fragments:
            duplicate = bool(
                last_fragment is not None
                and self._rng.random() < self.duplicate_fraction
            )
            if duplicate:
                # A PCR duplicate re-reads the *same physical fragment*:
                # identical coordinates (including insert length),
                # independent sequencing errors.
                pos, reverse, insert = last_fragment
            else:
                pos, reverse = self._random_origin()
                insert = min(self._fragment_span(),
                             len(self.reference) - pos)
            self._emit_fragment(
                fragment_index, pos, reverse, duplicate, insert,
                reads, origins, sample_name,
            )
            last_fragment = (pos, reverse, insert)
            fragment_index += 1
        return reads, origins

    def _random_origin(self) -> "tuple[int, bool]":
        span = self._fragment_span()
        limit = len(self.reference) - span
        pos = int(self._rng.integers(0, limit + 1))
        reverse = bool(self._rng.integers(0, 2))
        return pos, reverse

    def _fragment_span(self) -> int:
        if not self.paired:
            return self.read_length
        return max(
            2 * self.read_length,
            int(self._rng.normal(self.insert_size_mean, self.insert_size_sd)),
        )

    def _emit_fragment(self, fragment_index, pos, reverse, duplicate, insert,
                       reads, origins, sample_name) -> None:
        if not self.paired:
            record, errors = self._sequence_read(
                pos, reverse, f"{sample_name}.{fragment_index}")
            reads.append(record)
            origins.append(ReadOrigin(pos, reverse, duplicate, -1, errors))
            return
        # Illumina FR geometry: the leftmost read is always forward, the
        # rightmost reverse (mates face inward).  ``reverse`` selects which
        # fragment strand R1 was sequenced from, i.e. whether R1 is the
        # left/forward or right/reverse read.
        left_pos = pos
        right_pos = pos + insert - self.read_length
        name = f"{sample_name}.{fragment_index}"
        if not reverse:
            r1_pos, r1_rev = left_pos, False
            r2_pos, r2_rev = right_pos, True
        else:
            r1_pos, r1_rev = right_pos, True
            r2_pos, r2_rev = left_pos, False
        r1, e1 = self._sequence_read(r1_pos, r1_rev, f"{name}/1")
        r2, e2 = self._sequence_read(r2_pos, r2_rev, f"{name}/2")
        reads.extend((r1, r2))
        origins.append(ReadOrigin(r1_pos, r1_rev, duplicate, r2_pos, e1))
        origins.append(ReadOrigin(r2_pos, r2_rev, duplicate, r1_pos, e2))

    def _sequence_read(self, pos: int, reverse: bool, name: str):
        fragment = bytearray(self.reference.fetch(pos, self.read_length))
        model = self.error_model
        errors = 0
        # One optional short indel per read.
        if model.indel_rate and self._rng.random() < model.indel_rate:
            errors += self._apply_indel(fragment, pos)
        arr = np.frombuffer(bytes(fragment), dtype=np.uint8).copy()
        sub_mask = self._rng.random(arr.size) < model.substitution_rate
        if sub_mask.any():
            shifts = self._rng.integers(1, 4, size=int(sub_mask.sum()))
            originals = arr[sub_mask]
            # Rotate within ACGT so the substituted base always differs.
            idx = np.searchsorted(_ACGT, originals)
            arr[sub_mask] = _ACGT[(idx + shifts) % 4]
        n_mask = self._rng.random(arr.size) < model.n_rate
        arr[n_mask] = ord("N")
        # A base hit by both masks is one mismatch.
        errors += int((sub_mask | n_mask).sum())
        bases = arr.tobytes()
        if reverse:
            bases = reverse_complement(bases)
        quals = self._qualities(arr.size)
        return ReadRecord(name.encode(), bases, quals), errors

    def _apply_indel(self, fragment: bytearray, pos: int) -> int:
        length = int(self._rng.integers(1, self.error_model.max_indel_length + 1))
        at = int(self._rng.integers(1, max(2, len(fragment) - length)))
        if self._rng.integers(0, 2):  # insertion of random bases
            insert = _ACGT[self._rng.integers(0, 4, size=length)].tobytes()
            fragment[at:at] = insert
            del fragment[self.read_length:]
        else:  # deletion; re-fill from downstream reference
            del fragment[at : at + length]
            tail = self.reference.fetch(pos + self.read_length, length)
            fragment.extend(tail)
            # Near the genome end the refill may come up short; pad with A.
            fragment.extend(b"A" * (self.read_length - len(fragment)))
        return length

    def _qualities(self, n: int) -> bytes:
        model = self.error_model
        scores = self._rng.normal(model.quality_mean, model.quality_sd, size=n)
        scores = np.clip(np.round(scores), 2, 41).astype(np.uint8)
        return (scores + 33).tobytes()
