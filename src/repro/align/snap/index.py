"""SNAP-style hash-based seed index (§2.1, Figure 3).

SNAP uses "hash-based indexing of the reference" — a table mapping every
length-``s`` substring (seed) of the genome to the sorted list of
locations where it occurs.  Figure 3 depicts exactly this shared resource:
``ACTGA -> 2349523, ...`` over the "3 Bn BasePair" reference.  The index
is built once per server and shared read-only by all aligner threads
(Persona registers it as a session resource).

Construction is vectorized: seeds are 2-bit-encoded into integers with a
sliding dot product, then grouped with one argsort — O(n log n) for an
n-base genome.  The hash part is a bucket directory over the top 16 bits
of the packed seed: a batch lookup probes its seed's bucket and bisects
only the handful of distinct seeds inside it, instead of binary-searching
all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.genome.reference import ReferenceGenome

#: Seeds longer than 31 bases would overflow the 2-bit packing into int64.
MAX_SEED_LENGTH = 31

_CODE_LUT = np.full(256, 255, dtype=np.uint8)
for _i, _b in enumerate(b"ACGT"):
    _CODE_LUT[_b] = _i

_EMPTY_POSITIONS = np.empty(0, dtype=np.int64)

#: The bucket directory keys on at most this many top bits of a packed
#: seed (2**16 + 1 int32 entries: 256 KB).
_BUCKET_BITS = 16


@dataclass(frozen=True)
class SeedHit:
    """Candidate genome locations for one seed lookup."""

    positions: np.ndarray  # sorted global positions

    def __len__(self) -> int:
        return int(self.positions.size)


class SeedIndex:
    """Hash table from 2-bit-packed seeds to genome locations.

    Three parallel sorted arrays (seed value, run start, run end) over
    the position array, plus ``_bucket``, the directory over the values'
    top 16 bits that :meth:`lookup_values` probes.  The scalar
    :meth:`lookup_value` binary-searches the values instead: the
    per-read oracle's lookup stays independent of the directory."""

    def __init__(
        self,
        reference: ReferenceGenome,
        seed_length: int = 16,
        max_hits: int = 64,
    ):
        """Build the index.

        ``max_hits`` mirrors SNAP's popular-seed filtering: seeds occurring
        more often than this are treated as uninformative and return no
        hits (repetitive regions would otherwise flood the candidate set).
        """
        if not 4 <= seed_length <= MAX_SEED_LENGTH:
            raise ValueError(
                f"seed_length must be in [4, {MAX_SEED_LENGTH}], "
                f"got {seed_length}"
            )
        if max_hits <= 0:
            raise ValueError("max_hits must be positive")
        if len(reference) < seed_length:
            raise ValueError("reference shorter than one seed")
        self.reference = reference
        self.seed_length = seed_length
        self.max_hits = max_hits
        self._build()

    def _build(self) -> None:
        genome = np.frombuffer(self.reference.concatenated(), dtype=np.uint8)
        codes = _CODE_LUT[genome]
        s = self.seed_length
        n = codes.size - s + 1
        windows = np.lib.stride_tricks.sliding_window_view(codes, s)
        valid = (windows != 255).all(axis=1)
        self._weights = 4 ** np.arange(s, dtype=np.int64)
        values = windows.astype(np.int64) @ self._weights
        positions = np.flatnonzero(valid)
        values = values[positions]
        order = np.argsort(values, kind="stable")
        sorted_values = values[order]
        sorted_positions = positions[order].astype(np.int64)
        unique_values, starts, counts = np.unique(
            sorted_values, return_index=True, return_counts=True
        )
        # One layout for every reader: three parallel sorted arrays —
        # seed value, and its [start, end) run in ``_positions``.
        self._positions = sorted_positions
        self._values = unique_values
        self._starts = starts
        self._ends = self._starts + counts
        # The directory: ``_bucket[b]`` is the first slot whose value's
        # top bits are >= b, so bucket b's seeds are the slots
        # [_bucket[b], _bucket[b + 1]) — a running count of the sorted
        # values per top-bits prefix.
        bits = min(_BUCKET_BITS, 2 * s)
        self._shift = 2 * s - bits
        self._bucket = np.zeros(2 ** bits + 1, dtype=np.int32)
        np.cumsum(
            np.bincount(unique_values >> self._shift, minlength=2 ** bits),
            out=self._bucket[1:],
        )
        # Bisection rounds that settle a query in the widest bucket.
        self._rounds = int(np.diff(self._bucket).max()).bit_length()
        self.num_seeds = int(n)
        self.num_distinct = int(unique_values.size)

    # ------------------------------------------------------------- lookups

    def encode_seed(self, seed: bytes) -> "int | None":
        """2-bit-pack a seed; None if it contains a non-ACGT base."""
        if len(seed) != self.seed_length:
            raise ValueError(
                f"seed is {len(seed)} bases, index uses {self.seed_length}"
            )
        codes = _CODE_LUT[np.frombuffer(seed, dtype=np.uint8)]
        if (codes == 255).any():
            return None
        return int(codes.astype(np.int64) @ self._weights)

    def lookup(self, seed: bytes) -> SeedHit:
        """Genome locations of a seed; empty for unknown/popular/N seeds."""
        value = self.encode_seed(seed)
        if value is None:
            return SeedHit(np.empty(0, dtype=np.int64))
        return SeedHit(self.lookup_value(value))

    def lookup_value(self, value: int) -> np.ndarray:
        """Locations for a pre-encoded seed value (the scalar hot path)."""
        slot = self._values.searchsorted(value)
        if slot == self._values.size or self._values[slot] != value:
            return _EMPTY_POSITIONS
        start, end = self._starts[slot], self._ends[slot]
        if end - start > self.max_hits:
            return _EMPTY_POSITIONS
        return self._positions[start:end]

    def lookup_values(self, values: np.ndarray, valid: np.ndarray):
        """Batch :meth:`lookup_value` over a flat array of packed seeds:
        ``(query, position)`` for every hit, ordered by query index then
        position.  A query that is not ``valid``, absent or popular
        contributes no hit."""
        if not self._values.size:  # an all-N reference indexes nothing
            return _EMPTY_POSITIONS, _EMPTY_POSITIONS
        slots = np.minimum(self._slots(values), self._values.size - 1)
        starts = self._starts[slots]
        counts = self._ends[slots] - starts
        counts[~valid | (self._values[slots] != values)
               | (counts > self.max_hits)] = 0
        query = np.repeat(np.arange(values.size), counts)
        skipped = np.cumsum(counts) - counts  # hits before each query
        hits = np.repeat(starts - skipped, counts) + np.arange(query.size)
        return query, self._positions[hits]

    def _slots(self, values: np.ndarray) -> np.ndarray:
        """``np.searchsorted(self._values, values)``, by bisecting each
        value's bucket only.  Any int64 is a valid query: an invalid
        seed's garbage (negative, or past the top bucket) is clipped to
        the first or last bucket, where the bisection still ends on its
        insertion slot."""
        bucket = np.clip(values >> self._shift, 0,
                         self._bucket.size - 2).astype(np.intp)
        lo = self._bucket[bucket]
        hi = self._bucket[bucket + 1]
        for _ in range(self._rounds):
            mid = (lo + hi) >> 1
            # Only a query past every value probes past the end (lo ==
            # hi == size): the clip reads the last value, and the final
            # minimum undoes the step it takes.
            right = self._values.take(mid, mode="clip") < values
            lo = np.where(right, mid + 1, lo)
            hi = np.where(right, hi, mid)
        return np.minimum(lo, hi)

    def pack_seeds(self, reads: np.ndarray, offsets: np.ndarray):
        """2-bit-pack the seeds at ``offsets`` of every row of ``reads``
        (an ``(n, m)`` ASCII array): ``(values, valid)``, each ``(n,
        len(offsets))``.  Only the sampled windows are gathered; a seed
        with a non-ACGT base is not ``valid`` and its value is garbage."""
        codes = _CODE_LUT[reads]
        picked = codes[:, offsets[:, None] + np.arange(self.seed_length)]
        valid = (picked != 255).all(axis=2)
        return picked.astype(np.int64) @ self._weights, valid

    def encode_read_seeds(self, bases: bytes, offsets: "list[int]") -> list:
        """Packed seed value per offset of one read, or None where the
        seed contains a non-ACGT base."""
        values, valid = self.pack_seeds(
            np.frombuffer(bases, dtype=np.uint8)[None, :], np.asarray(offsets)
        )
        return [
            v if ok else None
            for v, ok in zip(values[0].tolist(), valid[0].tolist())
        ]

    def memory_bytes(self) -> int:
        """Index footprint (the "multi-gigabyte reference indexes" of
        §4.1, at our scale)."""
        return int(
            self._positions.nbytes + self._values.nbytes
            + self._starts.nbytes + self._ends.nbytes + self._bucket.nbytes
        )
