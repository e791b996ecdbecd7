"""Record-type codecs for AGD columns (§3).

"AGD specifies the record type in the chunk header, which informs
applications how the data is stored (e.g., what type of parsing to apply
to each record)."  Each codec maps a list of in-memory records to a data
block plus per-record *logical lengths* (the relative index entries), and
back.  New record types can be registered — the paper's extensibility
story: "Any required parsing functions for a new column may be added to
Persona."
"""

from __future__ import annotations

from typing import Protocol, Sequence

from repro.agd.columns import (
    BasesColumn,
    PackedBasesColumn,
    RaggedColumn,
    TextColumn,
)
from repro.agd.compaction import pack_column, packed_size, unpack_column
from repro.agd.index import AbsoluteIndex, RelativeIndex
from repro.align.result import AlignmentResult


class RecordCodec(Protocol):
    """Encodes/decodes one column's records for chunk storage."""

    name: str

    def encode(self, records: Sequence) -> tuple[bytes, list[int]]:
        """Return (data block, logical lengths)."""

    def decode(self, data: bytes, index: RelativeIndex) -> list:
        """Inverse of :meth:`encode`."""

    def decode_column(self, data: bytes, index: RelativeIndex) -> RaggedColumn:
        """:meth:`decode` without per-record objects: the records as one
        :class:`~repro.agd.columns.RaggedColumn` of ``column_class``
        (optional; a codec without it decodes to a list everywhere)."""

    def byte_size(self, logical_length: int) -> int:
        """Bytes occupied in the data block by a record of this length."""

    def decode_one(self, data: bytes, absolute: AbsoluteIndex, i: int):
        """Random access: decode record ``i`` only."""


def _column_block(column: RaggedColumn):
    """A text/results column's (data block, record lengths): the flat
    buffer as stored, no per-record work."""
    return (column.flat[column.bounds[0]:column.bounds[-1]].tobytes(),
            column.lengths)


class BasesCodec:
    """Bases column: 3-bit compacted records; index stores base counts."""

    name = "bases"
    column_class = BasesColumn

    def encode(self, records: Sequence[bytes]) -> tuple[bytes, list[int]]:
        # pack_column dispatches on columns itself (re-packing from the
        # flat array) and accepts any sequence of bytes directly.
        return pack_column(records)

    def decode(self, data: bytes, index: RelativeIndex) -> list[bytes]:
        return unpack_column(data, index.lengths)

    def decode_column(self, data, index: RelativeIndex) -> RaggedColumn:
        # Still packed: whoever reads the bases unpacks them, once.
        return PackedBasesColumn.from_block(data, index.lengths)

    def byte_size(self, logical_length: int) -> int:
        return packed_size(logical_length)

    def decode_one(self, data: bytes, absolute: AbsoluteIndex, i: int) -> bytes:
        from repro.agd.compaction import unpack_bases

        raw = absolute.slice_record(data, i)
        return unpack_bases(raw, absolute.logical_length(i))


class RawBytesCodec:
    """Raw byte-string records (qualities, metadata, generic text)."""

    name = "text"
    column_class = TextColumn

    def encode(self, records: Sequence[bytes]) -> tuple[bytes, list[int]]:
        if isinstance(records, RaggedColumn):
            return _column_block(records)
        for r in records:
            if not isinstance(r, (bytes, bytearray, memoryview)):
                raise TypeError(f"text column records must be bytes, got {type(r)}")
        return b"".join(records), [len(r) for r in records]

    def decode(self, data: bytes, index: RelativeIndex) -> list[bytes]:
        # Accepts any bytes-like buffer (every identity-framed block is a
        # memoryview) and yields owned bytes records: text records are
        # used as dict keys downstream, which memoryviews cannot serve
        # (decode_column / RaggedColumn.view are the zero-copy forms).
        out: list[bytes] = []
        offset = 0
        for n in index.lengths.tolist():
            if offset + n > len(data):
                raise ValueError("text column data truncated")
            out.append(bytes(data[offset : offset + n]))
            offset += n
        if offset != len(data):
            raise ValueError(
                f"text column has {len(data) - offset} trailing bytes"
            )
        return out

    def decode_column(self, data, index: RelativeIndex) -> RaggedColumn:
        return TextColumn.from_block(data, index.lengths)

    def byte_size(self, logical_length: int) -> int:
        return logical_length

    def decode_one(self, data: bytes, absolute: AbsoluteIndex, i: int) -> bytes:
        return absolute.slice_record(data, i)


class ResultsCodec:
    """Alignment results column: serialized :class:`AlignmentResult`."""

    name = "results"

    @property
    def column_class(self):
        # Imported on use: result_column imports repro.align.result,
        # and the align package's own imports reach back to this module.
        from repro.agd.result_column import ResultsColumn

        return ResultsColumn

    def encode(
        self, records: Sequence[AlignmentResult]
    ) -> tuple[bytes, list[int]]:
        if isinstance(records, RaggedColumn):
            return _column_block(records)
        blobs = [r.to_bytes() for r in records]
        return b"".join(blobs), [len(b) for b in blobs]

    def decode(self, data: bytes, index: RelativeIndex) -> list[AlignmentResult]:
        # Trusted fast path: the chunk layer has already CRC-verified the
        # data block, and records were validated when encoded.  Each
        # record is materialized exactly once (an identity-framed block
        # is a memoryview) — AlignmentResult fields (cigar bytes) must
        # own their storage, since results are re-serialized, compared,
        # and shipped across process backends.
        out: list[AlignmentResult] = []
        offset = 0
        for n in index.lengths.tolist():
            record = bytes(data[offset : offset + n])
            out.append(AlignmentResult.from_bytes_trusted(record))
            offset += n
        if offset != len(data):
            raise ValueError(
                f"results column has {len(data) - offset} trailing bytes"
            )
        return out

    def decode_column(self, data, index: RelativeIndex) -> RaggedColumn:
        return self.column_class.from_block(data, index.lengths)

    def byte_size(self, logical_length: int) -> int:
        return logical_length

    def decode_one(
        self, data: bytes, absolute: AbsoluteIndex, i: int
    ) -> AlignmentResult:
        return AlignmentResult.from_bytes(absolute.slice_record(data, i))


_CODECS: dict[str, RecordCodec] = {
    "bases": BasesCodec(),
    "text": RawBytesCodec(),
    "results": ResultsCodec(),
}

#: Default record type for Persona's standard columns.
COLUMN_RECORD_TYPES = {
    "bases": "bases",
    "qual": "text",
    "metadata": "text",
    "results": "results",
}


class UnknownRecordTypeError(KeyError):
    """Raised when a chunk header names an unregistered record type."""


def get_record_codec(type_name: str) -> RecordCodec:
    try:
        return _CODECS[type_name]
    except KeyError:
        raise UnknownRecordTypeError(
            f"unknown record type {type_name!r}; available: {sorted(_CODECS)}"
        ) from None


def register_record_codec(type_name: str, codec: RecordCodec) -> None:
    """Register a codec for a new record type (extensibility hook)."""
    if type_name in _CODECS:
        raise ValueError(f"record type {type_name!r} already registered")
    _CODECS[type_name] = codec


def as_column(record_type: str, records) -> RaggedColumn:
    """``records`` as ``record_type``'s column class: a column passes
    through, any other sequence of records is wrapped once."""
    if isinstance(records, RaggedColumn):
        return records
    return get_record_codec(record_type).column_class.from_records(records)


def record_type_for_column(column: str) -> str:
    """Default record type for a column name (unknown columns are text)."""
    return COLUMN_RECORD_TYPES.get(column, "text")
