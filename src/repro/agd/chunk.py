"""AGD chunk file codec: header, relative index, compressed data (§3).

A chunk file holds a contiguous run of records from one column:

    +----------------+  64-byte fixed header (magic, version, record type,
    |  File Header   |  codec, record count, stored index size, first
    +----------------+  ordinal, data sizes, CRCs)
    | Relative Index |  one uint32 logical length per record, zlib-deflated
    +----------------+
    |  Data  Block   |  block-compressed record payload (the column's codec)
    +----------------+

This is format version 2, the only one written.  Version 1 stored the
index raw (``record_count * 4`` bytes, no stored-size field) and is still
read.  The index is deflated whatever the data codec: it is copied into
an array on decode anyway, whereas a ``none``-framed data block stays a
view of the input buffer (see :func:`read_chunk_data`).

The header carries CRC32 checksums of the *uncompressed* index and data
so truncation and corruption are detected at parse time rather than
producing garbage records downstream.  This module is the only place
that knows the layout; everything else reads through
:func:`read_chunk_header` / :func:`read_chunk_index` /
:func:`read_chunk_data`.
"""

from __future__ import annotations

import functools
import struct
import zlib
from dataclasses import dataclass
from typing import Sequence

from repro.agd.compression import DEFAULT_CODEC, Codec, get_codec
from repro.agd.index import RelativeIndex
from repro.agd.records import get_record_codec

MAGIC = b"AGDC"
VERSION = 2

HEADER_SIZE = 64
# Both versions open with magic and version, which the reader dispatches on.
_PREFIX = struct.Struct("<4sH")
# v1 after the prefix: record type, codec, record count, first ordinal,
# compressed size, uncompressed size, data crc, index crc (+ 2 pad bytes).
_BODY_V1 = struct.Struct("<12s8sIQQQII")
# v2 adds the stored (deflated) index size after the record count and
# fills the 64 bytes exactly: the codec name gives up two bytes and the
# padding goes.
_BODY = struct.Struct("<12s6sIIQQQII")

#: zlib level of the relative-index block (fixed: it is part of what
#: makes a chunk's bytes a pure function of its records and codec).
INDEX_LEVEL = 6


class ChunkFormatError(ValueError):
    """Raised when a chunk file is malformed, truncated, or corrupt."""


def _fixed_name(name: str, width: int) -> bytes:
    raw = name.encode()
    if len(raw) > width:
        raise ValueError(f"name {name!r} longer than {width} bytes")
    return raw.ljust(width, b"\0")


@dataclass(frozen=True)
class ChunkHeader:
    """Decoded chunk header fields.

    ``index_size`` is the stored size of the relative-index block — its
    deflated size in a version-2 chunk, ``record_count * 4`` in a
    version-1 chunk — so the data block starts at :attr:`data_offset`
    in either.
    """

    record_type: str
    codec_name: str
    record_count: int
    first_ordinal: int
    compressed_size: int
    uncompressed_size: int
    data_crc: int
    index_crc: int
    index_size: int = 0
    version: int = VERSION

    @property
    def data_offset(self) -> int:
        """Byte offset of the data block in the chunk file image."""
        return HEADER_SIZE + self.index_size

    def to_bytes(self) -> bytes:
        if self.version != VERSION:
            raise ValueError(
                f"chunk version {self.version} is read-only; "
                f"only version {VERSION} is written"
            )
        return _PREFIX.pack(MAGIC, VERSION) + _BODY.pack(
            _fixed_name(self.record_type, 12),
            _fixed_name(self.codec_name, 6),
            self.record_count,
            self.index_size,
            self.first_ordinal,
            self.compressed_size,
            self.uncompressed_size,
            self.data_crc,
            self.index_crc,
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "ChunkHeader":
        if len(raw) < HEADER_SIZE:
            raise ChunkFormatError(
                f"chunk header truncated: {len(raw)} < {HEADER_SIZE} bytes"
            )
        magic, version = _PREFIX.unpack_from(raw)
        if magic != MAGIC:
            raise ChunkFormatError(f"bad magic {magic!r} (not an AGD chunk)")
        if version == VERSION:
            (rtype, codec, count, index_size, first_ordinal, csize, usize,
             data_crc, index_crc) = _BODY.unpack_from(raw, _PREFIX.size)
        elif version == 1:
            (rtype, codec, count, first_ordinal, csize, usize,
             data_crc, index_crc) = _BODY_V1.unpack_from(raw, _PREFIX.size)
            index_size = count * 4
        else:
            raise ChunkFormatError(f"unsupported chunk version {version}")
        return cls(
            record_type=rtype.rstrip(b"\0").decode(),
            codec_name=codec.rstrip(b"\0").decode(),
            record_count=count,
            first_ordinal=first_ordinal,
            compressed_size=csize,
            uncompressed_size=usize,
            data_crc=data_crc,
            index_crc=index_crc,
            index_size=index_size,
            version=version,
        )


@dataclass(frozen=True)
class Chunk:
    """A decoded AGD chunk: typed records plus their position in the dataset."""

    record_type: str
    records: list
    first_ordinal: int = 0

    def __len__(self) -> int:
        return len(self.records)


@functools.lru_cache(maxsize=8)
def _deflate_index(index_bytes: bytes) -> bytes:
    """The stored form of a relative index.  Memoised by its bytes:
    fixed-length reads give every chunk's ``bases`` and ``qual`` columns
    the same index, and each deflate costs zlib's whole set-up.  A few
    entries are enough — the other columns' indexes pass through between
    two uses of the shared one."""
    return zlib.compress(index_bytes, INDEX_LEVEL)


def write_chunk(
    records: Sequence,
    record_type: str,
    first_ordinal: int = 0,
    codec: "Codec | str" = DEFAULT_CODEC,
) -> bytes:
    """Serialize records into a complete chunk file image."""
    if isinstance(codec, str):
        codec = get_codec(codec)
    record_codec = get_record_codec(record_type)
    data, lengths = record_codec.encode(records)
    index_bytes = RelativeIndex(lengths).to_bytes()
    stored_index = _deflate_index(index_bytes)
    compressed = codec.compress(data)
    header = ChunkHeader(
        record_type=record_type,
        codec_name=codec.name,
        record_count=len(records),
        first_ordinal=first_ordinal,
        compressed_size=len(compressed),
        uncompressed_size=len(data),
        data_crc=zlib.crc32(data),
        index_crc=zlib.crc32(index_bytes),
        index_size=len(stored_index),
    )
    return header.to_bytes() + stored_index + compressed


def read_chunk_header(blob: bytes) -> ChunkHeader:
    """Decode only the header of a chunk file image.

    Works on any 64-byte-or-larger buffer (``bytes`` or ``memoryview``),
    so a spilled sort run's restore can sniff its framing codec — restore
    paths dispatch on this header rather than on any negotiated
    write-side setting, which is what lets raw and gzip scratch coexist
    in one run (mixed after a crash-resume, say).
    """
    return ChunkHeader.from_bytes(blob)


def _inflate_index(stored, size: int) -> bytes:
    """Inflate a stored index block that must hold exactly ``size`` bytes
    (output is capped, so a corrupt stream cannot balloon)."""
    inflater = zlib.decompressobj()
    try:
        index_bytes = inflater.decompress(stored, size + 1)
    except zlib.error as exc:
        raise ChunkFormatError(
            f"chunk index decompression failed: {exc}"
        ) from exc
    if len(index_bytes) != size or not inflater.eof or inflater.unused_data:
        raise ChunkFormatError(
            f"chunk index does not inflate to the {size} bytes "
            f"its record count needs"
        )
    return index_bytes


def read_chunk_index(blob: bytes) -> tuple[ChunkHeader, RelativeIndex]:
    """Decode the header and relative index without touching the data block."""
    header = ChunkHeader.from_bytes(blob)
    index_bytes = blob[HEADER_SIZE : header.data_offset]
    if len(index_bytes) != header.index_size:
        raise ChunkFormatError("chunk index truncated")
    if header.version > 1:
        index_bytes = _inflate_index(index_bytes, header.record_count * 4)
    if zlib.crc32(index_bytes) != header.index_crc:
        raise ChunkFormatError("chunk index CRC mismatch")
    return header, RelativeIndex.from_bytes(index_bytes, header.record_count)


def read_chunk_data(blob) -> tuple[ChunkHeader, RelativeIndex, bytes]:
    """Header, relative index, and decompressed CRC-verified data block.

    The shared validation core of every chunk decode: the object path
    (:func:`read_chunk`), the columnar array paths
    (:mod:`repro.core.columnar`) and random record access
    (:meth:`AGDDataset.read_record`) all read through here, so format
    and corruption handling cannot drift between them.

    ``blob`` may be any bytes-like buffer.  The data block is sliced
    through a ``memoryview``, so a chunk framed with the identity
    ``none`` codec returns a view of ``blob`` itself, never a copy of
    it: the read that produced ``blob`` stays the block's one copy
    (:meth:`~repro.agd.columns.RaggedColumn.from_block` says when a
    column still copies).  A compressed block inflates into its own
    buffer.  CRC and length validation run identically either way.
    """
    header, index = read_chunk_index(blob)
    compressed = memoryview(blob)[
        header.data_offset : header.data_offset + header.compressed_size
    ]
    if len(compressed) != header.compressed_size:
        raise ChunkFormatError("chunk data block truncated")
    codec = get_codec(header.codec_name)
    try:
        data = codec.decompress(compressed)
    except Exception as exc:  # zlib/lzma raise library-specific errors
        raise ChunkFormatError(f"chunk decompression failed: {exc}") from exc
    if len(data) != header.uncompressed_size:
        raise ChunkFormatError(
            f"chunk data decompressed to {len(data)} bytes, "
            f"header says {header.uncompressed_size}"
        )
    if zlib.crc32(data) != header.data_crc:
        raise ChunkFormatError("chunk data CRC mismatch")
    return header, index, data


def read_chunk(blob) -> Chunk:
    """Decode a full chunk file image into typed records (one object per
    record; :func:`read_column` is the columnar form)."""
    header, index, data = read_chunk_data(blob)
    records = get_record_codec(header.record_type).decode(data, index)
    return Chunk(header.record_type, records, header.first_ordinal)


def read_column(blob):
    """Decode a chunk file image into a column: one flat buffer plus
    record bounds (:mod:`repro.agd.columns`), no per-record objects.

    Same header/index/CRC validation as :func:`read_chunk` (both read
    through :func:`read_chunk_data`); the column indexes and iterates to
    the records :func:`read_chunk` would list.  A registered record type
    whose codec has no ``decode_column`` decodes to its record list.
    """
    header, index, data = read_chunk_data(blob)
    record_codec = get_record_codec(header.record_type)
    decode_column = getattr(record_codec, "decode_column", None)
    if decode_column is None:
        return record_codec.decode(data, index)
    return decode_column(data, index)


def chunk_record_count(blob: bytes) -> int:
    """Record count from the header only (no decompression)."""
    return ChunkHeader.from_bytes(blob).record_count
