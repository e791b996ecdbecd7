"""The columnar record plane: a decoded column is one flat byte buffer
plus record bounds (§3, §4.3).

An AGD chunk's data block is already the records laid end to end, with
the relative index giving their lengths.  The column types here keep
that layout in memory — ``flat`` (uint8) and ``bounds`` (int64 exclusive
prefix sums) — so sorting, merging, duplicate marking and pileup move
records with array gathers (:meth:`RaggedColumn.take`,
:meth:`RaggedColumn.concat`) and never build one Python object per
record.  Every column is sequence-compatible (len / index / slice /
iterate), so code written against ``list[record]`` keeps working: bases
and text columns yield ``bytes``, a results column
(:class:`repro.agd.result_column.ResultsColumn`) yields
:class:`~repro.align.result.AlignmentResult`.  Slices are zero-copy views
over the same flat array, and each record codec's ``encode`` takes a
column without per-record work.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np


def cumsum0(values: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum with a leading zero (size + 1 entries)."""
    out = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(values, out=out[1:])
    return out


def ragged_index(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Flat indices of ``lens[i]`` consecutive items from ``starts[i]``,
    record after record (the gather/scatter map of a ragged copy)."""
    out_starts = cumsum0(lens)
    return np.repeat(starts - out_starts[:-1], lens) + np.arange(
        int(out_starts[-1]), dtype=np.int64
    )


@dataclass(eq=False)
class RaggedColumn:
    """One decoded column: ``flat[bounds[i]:bounds[i + 1]]`` per record.

    ``bounds[0]`` is 0 and ``bounds[-1]`` is ``flat.size``.  Subclasses
    say what a record *is* (:meth:`_record`); everything that moves
    records is here and never looks inside one.
    """

    flat: np.ndarray
    bounds: np.ndarray  # int64, len(column) + 1 exclusive prefix bounds

    @staticmethod
    def _record(raw: bytes):
        return raw

    def _like(self, flat: np.ndarray, bounds: np.ndarray, rows):
        """A column of this type over ``flat``/``bounds`` holding this
        column's records ``rows`` (a slice or an index array) — the hook
        a subclass with per-record side arrays carries them through."""
        return type(self)(flat, bounds)

    # ----------------------------------------------------------- building

    @classmethod
    def from_block(cls, data, lengths) -> "RaggedColumn":
        """Wrap a chunk data block and its record byte lengths.

        ``data`` may be any bytes-like buffer.  ``bytes``, or a
        ``memoryview`` of ``bytes``, is immutable and kept alive by the
        column, so the column is a view of it.  Any other ``memoryview``
        (of an ``mmap``, a ``bytearray``) is copied once, whole: its
        exporter may be closed or rewritten while the column lives.
        """
        bounds = cumsum0(np.asarray(lengths, dtype=np.int64))
        flat = np.frombuffer(data, dtype=np.uint8)
        if flat.size != int(bounds[-1]):
            if flat.size < int(bounds[-1]):
                raise ValueError("column data truncated")
            raise ValueError(
                f"column has {flat.size - int(bounds[-1])} trailing bytes"
            )
        if isinstance(data, memoryview) and not isinstance(data.obj, bytes):
            flat = flat.copy()
        return cls(flat, bounds)

    @classmethod
    def from_records(cls, records) -> "RaggedColumn":
        """Wrap a sequence of bytes-like records (one join, no views kept)."""
        if isinstance(records, RaggedColumn):
            return records
        lengths = np.fromiter((len(r) for r in records), np.int64,
                              len(records))
        return cls(np.frombuffer(b"".join(records), dtype=np.uint8),
                   cumsum0(lengths))

    @classmethod
    def concat(cls, columns) -> "RaggedColumn":
        """The records of ``columns``, in order, as one column (of the
        columns' type; non-column sequences are wrapped as ``cls``)."""
        columns = [cls.from_records(c) for c in columns]
        if len(columns) == 1:
            return columns[0]
        if len({type(c) for c in columns}) > 1:
            columns = [c.decoded() for c in columns]
        return (type(columns[0]) if columns else cls)._join(columns)

    @classmethod
    def _join(cls, columns: "list[RaggedColumn]") -> "RaggedColumn":
        flats = [c.flat[c.bounds[0]:c.bounds[-1]] for c in columns]
        offsets = cumsum0(np.array([f.size for f in flats], dtype=np.int64))
        return cls(
            np.concatenate(flats) if flats else np.zeros(0, np.uint8),
            np.concatenate(
                [np.zeros(1, np.int64)]
                + [c.bounds[1:] - c.bounds[0] + off
                   for c, off in zip(columns, offsets)]
            ),
        )

    def decoded(self) -> "RaggedColumn":
        """The column whose ``flat`` holds the records' own bytes: this
        one, unless it is still in a storage encoding
        (:class:`PackedBasesColumn`)."""
        return self

    # ------------------------------------------------------------ sequence

    def __len__(self) -> int:
        return int(self.bounds.size) - 1

    @property
    def lengths(self) -> np.ndarray:
        """Byte length of each record in ``flat``."""
        return self.bounds[1:] - self.bounds[:-1]

    def __getitem__(self, index):
        if isinstance(index, slice):
            lo, hi, step = index.indices(len(self))
            if step != 1:
                raise ValueError("column slices must be contiguous")
            hi = max(lo, hi)
            base = self.bounds[lo]
            return self._like(
                self.flat[base:self.bounds[hi]],
                self.bounds[lo:hi + 1] - base,
                slice(lo, hi),
            )
        return self._record(self.view(index).tobytes())

    def __iter__(self) -> Iterator:
        data = self.flat.tobytes()
        offsets = self.bounds.tolist()
        record = self._record
        for i in range(len(offsets) - 1):
            yield record(data[offsets[i]:offsets[i + 1]])

    def view(self, index: int) -> memoryview:
        """Zero-copy window onto record ``index``'s bytes.

        The per-record analog of slicing: no bytes object is built, the
        view aliases :attr:`flat`.  ``bytes.join`` and ``np.frombuffer``
        accept it directly; call ``bytes()`` on it (or
        :meth:`materialize` the column) before retaining it past the
        column's backing buffer.
        """
        i = int(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"record {index} of {len(self)}")
        return memoryview(self.flat[self.bounds[i]:self.bounds[i + 1]])

    def to_list(self) -> list:
        return list(self)

    def __eq__(self, other) -> bool:
        """Record-wise equality against any sequence of records."""
        if isinstance(other, RaggedColumn):
            if type(other) is not type(self):
                mine, other = self.decoded(), other.decoded()
                return type(mine) is type(other) and mine == other
            return np.array_equal(self.bounds, other.bounds) and \
                np.array_equal(self.flat, other.flat)
        try:
            if len(other) != len(self):
                return False
        except TypeError:
            return NotImplemented
        return all(mine == theirs for mine, theirs in zip(self, other))

    # -------------------------------------------------------------- moving

    def take(self, index) -> "RaggedColumn":
        """Records ``index[0], index[1], ...`` as a new column (one
        gather; equal-length records take the strided fast path)."""
        index = np.asarray(index, dtype=np.int64)
        lens = self.lengths
        if lens.size and (lens == lens[0]).all():
            width = int(lens[0])
            rows = self.flat[self.bounds[0]:self.bounds[-1]].reshape(
                lens.size, width)
            return self._like(
                rows[index].reshape(-1),
                np.arange(index.size + 1, dtype=np.int64) * width,
                index,
            )
        lens = lens[index]
        return self._like(
            self.flat[ragged_index(self.bounds[:-1][index], lens)],
            cumsum0(lens),
            index,
        )

    def materialize(self) -> "RaggedColumn":
        """A column whose arrays own their storage (and are writable),
        safe to retain after the buffer backing a view-decoded column is
        released.  Returns ``self`` when the arrays already own it."""
        if self.flat.flags.owndata and self.flat.flags.writeable and \
                self.bounds.flags.owndata:
            return self
        return self._like(
            np.array(self.flat, copy=True), np.array(self.bounds, copy=True),
            slice(None),
        )

    def __reduce__(self):
        # Pickle the arrays only, never a cached derived view.
        return type(self), (self.flat, self.bounds)


class BasesColumn(RaggedColumn):
    """A bases column as flat ASCII — the columnar aligner feed: the
    aligner's array program reads ``flat`` without per-read bytes
    objects."""


class TextColumn(RaggedColumn):
    """A raw byte-string column (qualities, metadata, generic text): the
    chunk data block, as stored."""


@dataclass(eq=False)
class PackedBasesColumn(RaggedColumn):
    """A bases column still in its 3-bit chunk encoding (§3): ``flat`` is
    the chunk's packed data block (whole little-endian words per read,
    ``bounds`` their byte bounds) and ``counts`` the bases per read — the
    chunk's relative index.

    What a chunk decodes to.  Sorting, merging, filtering and the wire
    move the packed words and re-frame them as they are, so a read's
    bases are unpacked at most once, by the kernel that reads them (the
    aligner through :meth:`decoded`; the pileup reads the kept reads'
    codes straight from the words) — and never re-packed.
    Records index and iterate as ASCII ``bytes`` like a
    :class:`BasesColumn`'s.
    """

    counts: "np.ndarray | None" = None  # int64 bases per record

    @classmethod
    def from_block(cls, data, counts) -> "PackedBasesColumn":
        counts = np.asarray(counts, dtype=np.int64)
        column = super().from_block(data, (counts + 20) // 21 * 8)
        column.counts = counts
        return column

    @classmethod
    def from_records(cls, records) -> RaggedColumn:
        """Reads given as ``bytes`` are already decoded: ASCII."""
        return BasesColumn.from_records(records)

    def _like(self, flat, bounds, rows):
        return type(self)(flat, bounds, self.counts[rows])

    @classmethod
    def _join(cls, columns):
        joined = super()._join(columns)
        joined.counts = np.concatenate(
            [np.zeros(0, np.int64)] + [c.counts for c in columns]
        )
        return joined

    @cached_property
    def _ascii(self) -> BasesColumn:
        from repro.agd.compaction import unpack_column_flat

        return unpack_column_flat(
            self.flat[self.bounds[0]:self.bounds[-1]], self.counts
        )

    def decoded(self) -> BasesColumn:
        """The reads as flat ASCII (unpacked once, then cached)."""
        return self._ascii

    def __getitem__(self, index):
        if isinstance(index, slice):
            return super().__getitem__(index)
        return self._ascii[index]

    def __iter__(self) -> Iterator[bytes]:
        return iter(self._ascii)

    def view(self, index: int) -> memoryview:
        return self._ascii.view(index)

    def __eq__(self, other) -> bool:
        if isinstance(other, RaggedColumn):
            other = other.decoded()
        return self._ascii == other

    def __reduce__(self):
        return type(self), (self.flat, self.bounds, self.counts)
