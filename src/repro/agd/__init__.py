"""Aggregate Genomic Data (AGD) format (§3 of the paper).

Column-oriented, chunked, indexed storage for genomic records with
per-column block compression and 3-bit base compaction.
"""

from repro.agd.chunk import (
    Chunk,
    ChunkFormatError,
    ChunkHeader,
    chunk_record_count,
    read_chunk,
    read_chunk_header,
    read_chunk_index,
    write_chunk,
)
from repro.agd.compaction import (
    BASES_PER_WORD,
    pack_bases,
    pack_column,
    packed_size,
    unpack_bases,
    unpack_column,
)
from repro.agd.compression import (
    DEFAULT_CODEC,
    GZIP,
    LZMA,
    NONE,
    Codec,
    UnknownCodecError,
    available_codecs,
    get_codec,
    register_codec,
)
from repro.agd.dataset import DEFAULT_CHUNK_SIZE, AGDDataset
from repro.agd.index import AbsoluteIndex, RelativeIndex
from repro.agd.manifest import (
    MANIFEST_FILENAME,
    ChunkEntry,
    Manifest,
    ManifestError,
    reconstruct_manifest,
)
from repro.agd.records import (
    COLUMN_RECORD_TYPES,
    BasesCodec,
    RawBytesCodec,
    ResultsCodec,
    UnknownRecordTypeError,
    get_record_codec,
    record_type_for_column,
    register_record_codec,
)

__all__ = [
    "AGDDataset",
    "AbsoluteIndex",
    "BASES_PER_WORD",
    "BasesCodec",
    "COLUMN_RECORD_TYPES",
    "Chunk",
    "ChunkEntry",
    "ChunkFormatError",
    "ChunkHeader",
    "Codec",
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_CODEC",
    "GZIP",
    "LZMA",
    "MANIFEST_FILENAME",
    "Manifest",
    "ManifestError",
    "NONE",
    "RawBytesCodec",
    "RelativeIndex",
    "ResultsCodec",
    "UnknownCodecError",
    "UnknownRecordTypeError",
    "available_codecs",
    "chunk_record_count",
    "get_codec",
    "get_record_codec",
    "pack_bases",
    "pack_column",
    "packed_size",
    "read_chunk",
    "read_chunk_header",
    "read_chunk_index",
    "reconstruct_manifest",
    "record_type_for_column",
    "register_codec",
    "register_record_codec",
    "unpack_bases",
    "unpack_column",
    "write_chunk",
]
