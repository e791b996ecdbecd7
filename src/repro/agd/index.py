"""Relative and absolute record indices for AGD chunks (§3).

A chunk's index is *relative*: one entry per record holding the record's
logical length.  Byte offsets into the data block are "generated by
summing preceding index values" (paper, §3); for efficient random access
an *absolute* index can be generated on the fly.

The mapping from logical length to byte length depends on the column's
record type — e.g. a bases record of ``n`` bases occupies
``packed_size(n)`` bytes — so the absolute index takes a size function.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class RelativeIndex:
    """Per-record logical lengths for one chunk."""

    def __init__(self, lengths: Sequence[int]):
        if isinstance(lengths, np.ndarray) and lengths.dtype == np.uint32 \
                and lengths.ndim == 1:
            self._lengths = lengths  # already the stored form: no checks
            return
        arr = np.asarray(lengths, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("index must be one-dimensional")
        if arr.size and arr.min() < 0:
            raise ValueError("negative record length in index")
        if arr.size and arr.max() > np.iinfo(np.uint32).max:
            raise ValueError("record length exceeds uint32 range")
        self._lengths = arr.astype(np.uint32)

    def __len__(self) -> int:
        return int(self._lengths.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelativeIndex):
            return NotImplemented
        return np.array_equal(self._lengths, other._lengths)

    def __getitem__(self, i: int) -> int:
        return int(self._lengths[i])

    @property
    def lengths(self) -> np.ndarray:
        """Read-only view of the per-record lengths."""
        view = self._lengths.view()
        view.flags.writeable = False
        return view

    def to_bytes(self) -> bytes:
        """Serialize as little-endian uint32 entries."""
        return self._lengths.astype("<u4").tobytes()

    @classmethod
    def from_bytes(cls, raw: bytes, record_count: int) -> "RelativeIndex":
        expected = record_count * 4
        if len(raw) != expected:
            raise ValueError(
                f"index block is {len(raw)} bytes, expected {expected}"
            )
        return cls(np.frombuffer(raw, dtype="<u4"))

    def absolute(
        self, size_of: Callable[[int], int] | None = None
    ) -> "AbsoluteIndex":
        """Generate an absolute (offset, size) index.

        ``size_of`` maps a logical length to the record's byte size in the
        data block; identity when omitted (raw byte-length columns).
        """
        if size_of is None:
            sizes = self._lengths.astype(np.int64)
        else:
            sizes = np.fromiter(
                (size_of(int(n)) for n in self._lengths),
                dtype=np.int64,
                count=self._lengths.size,
            )
        offsets = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        return AbsoluteIndex(offsets, self._lengths)


class AbsoluteIndex:
    """Materialized byte offsets enabling O(1) random record access."""

    def __init__(self, offsets: np.ndarray, lengths: np.ndarray):
        if offsets.size != lengths.size + 1:
            raise ValueError("offsets must have one more entry than lengths")
        self._offsets = offsets
        self._lengths = lengths

    def __len__(self) -> int:
        return int(self._lengths.size)

    @property
    def total_bytes(self) -> int:
        """Size of the data block covered by this index."""
        return int(self._offsets[-1])

    def record_span(self, i: int) -> tuple[int, int]:
        """(byte offset, byte size) of record ``i`` in the data block."""
        if not 0 <= i < len(self):
            raise IndexError(f"record {i} out of range ({len(self)} records)")
        return int(self._offsets[i]), int(self._offsets[i + 1] - self._offsets[i])

    def logical_length(self, i: int) -> int:
        """Logical length (index entry) of record ``i``."""
        if not 0 <= i < len(self):
            raise IndexError(f"record {i} out of range ({len(self)} records)")
        return int(self._lengths[i])

    def slice_record(self, data: bytes, i: int) -> bytes:
        """Extract record ``i``'s raw bytes from ``data`` (any bytes-like
        buffer) as owned ``bytes``."""
        offset, size = self.record_span(i)
        if offset + size > len(data):
            raise ValueError("data block shorter than index implies")
        return bytes(data[offset : offset + size])
