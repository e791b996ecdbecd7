"""Wire encoding for chunk traffic between placed servers.

Two payload kinds cross broker edges: chunk *names* (manifest entries,
tiny JSON) and whole *work items* (a chunk's parsed columns mid-
pipeline).  Work items reuse the AGD chunk serialization — every column
is one ``write_chunk`` blob.  Where both ends reach the same memory (the
in-process broker, a shm-verified same-host TCP client) the data block
is framed raw; only a remote TCP edge compresses it, through the codec
layer (§3's per-column compression) at a light level, since edge
payloads are written once and read once like sort scratch.  Either way
the payload is immutable, CRC-checked bytes — never an object reference:
redelivery, poison quarantine and ``payload_bytes`` accounting need a
frozen copy the broker can check.

Frames are length-prefixed (``!I`` big-endian) so any transport that
moves bytes (the TCP broker, a file, a pipe) can carry them.
"""

from __future__ import annotations

import json
import struct
from typing import Callable, NamedTuple

from repro.agd.chunk import read_chunk_header, read_column, write_chunk
from repro.agd.compression import get_codec, leveled_codec
from repro.agd.manifest import ChunkEntry
from repro.agd.records import record_type_for_column

_LEN = struct.Struct("!I")

#: Edge payloads are transient (written once, read once), so compress
#: like sort scratch: cheap level, not the archival default.
EDGE_CODEC_LEVEL = 1

#: Codec level for edges whose transport ``shares_memory``: no
#: compression at all.  It buys nothing there (the bytes never cross a
#: wire) and costs a deflate on the sender plus an inflate on the
#: receiver — a chunk framed at level 0 decodes as views of the frame
#: bytes the receiver already holds.
RAW_EDGE_CODEC_LEVEL = 0


def _codec_for_level(codec_level: int):
    """Level 0 is the identity codec (shared-memory edges); positive
    levels are light gzip for remote TCP edges."""
    if codec_level <= 0:
        return get_codec("none")
    return leveled_codec("gzip", codec_level)


class WireError(ValueError):
    """Raised for malformed wire frames."""


class PayloadSerializer(NamedTuple):
    """An encode/decode pair a :class:`~repro.dataflow.queues.RemoteQueue`
    applies to items crossing its edge.

    ``encode_frames``/``decode_frames`` are the scatter/gather variants:
    they trade in a *list* of segment blobs instead of one packed byte
    string, so a transport that can move segments individually (the TCP
    broker's ``sendmsg`` path, the same-host shm handoff) never pays the
    pack/concat copy.  Serializers without them fall back to the packed
    single-blob pair.
    """

    encode: Callable[[object], bytes]
    decode: Callable[[bytes], object]
    key: Callable[[object], str]
    encode_frames: "Callable[[object], list[bytes]] | None" = None
    decode_frames: "Callable[[list[bytes]], object] | None" = None


def pack_frames(blobs: "list[bytes]") -> bytes:
    """Concatenate blobs as length-prefixed frames."""
    parts = [_LEN.pack(len(blobs))]
    for blob in blobs:
        parts.append(_LEN.pack(len(blob)))
        parts.append(blob)
    return b"".join(parts)


def unpack_frames(data: bytes) -> "list[bytes]":
    """Inverse of :func:`pack_frames`."""
    if len(data) < _LEN.size:
        raise WireError("truncated frame header")
    (count,) = _LEN.unpack_from(data, 0)
    offset = _LEN.size
    blobs: list[bytes] = []
    for _ in range(count):
        if offset + _LEN.size > len(data):
            raise WireError("truncated frame length")
        (n,) = _LEN.unpack_from(data, offset)
        offset += _LEN.size
        if offset + n > len(data):
            raise WireError("truncated frame body")
        blobs.append(data[offset:offset + n])
        offset += n
    if offset != len(data):
        raise WireError(f"{len(data) - offset} trailing bytes after frames")
    return blobs


# ---------------------------------------------------------------- entries


def encode_entry(entry: ChunkEntry) -> bytes:
    return json.dumps(
        {"path": entry.path, "first": entry.first_ordinal,
         "count": entry.record_count}
    ).encode()


def decode_entry(blob: bytes) -> ChunkEntry:
    doc = json.loads(blob.decode())
    return ChunkEntry(doc["path"], doc["first"], doc["count"])


def entry_serializer() -> PayloadSerializer:
    return PayloadSerializer(
        encode=encode_entry,
        decode=decode_entry,
        key=lambda entry: entry.path,
    )


# ------------------------------------------------------------- work items


def encode_work_item_frames(
    item, codec_level: int = EDGE_CODEC_LEVEL
) -> "list[bytes]":
    """Serialize a :class:`~repro.core.ops.ChunkWorkItem` as a frames
    *list*: a JSON header frame followed by one AGD chunk blob per column
    (results attached as their own frame when they live on
    ``item.results``).  Scatter/gather transports ship the list as-is;
    :func:`encode_work_item` packs it for single-blob carriers."""
    codec = _codec_for_level(codec_level)
    columns = sorted(item.columns)
    results_attached = item.results is not None and "results" not in columns
    header = {
        "path": item.entry.path,
        "first": item.entry.first_ordinal,
        "count": item.entry.record_count,
        "columns": columns,
        "results": results_attached,
    }
    blobs = [json.dumps(header).encode()]
    for column in columns:
        blobs.append(
            write_chunk(
                item.columns[column],
                record_type_for_column(column),
                first_ordinal=item.entry.first_ordinal,
                codec=codec,
            )
        )
    if results_attached:
        blobs.append(
            write_chunk(
                item.results,
                "results",
                first_ordinal=item.entry.first_ordinal,
                codec=codec,
            )
        )
    return blobs


def encode_work_item(item, codec_level: int = EDGE_CODEC_LEVEL) -> bytes:
    """Packed single-blob form of :func:`encode_work_item_frames`."""
    return pack_frames(encode_work_item_frames(item, codec_level))


def decode_work_item_frames(frames: "list[bytes]"):
    """Rebuild a work item from its frames.

    Every column decodes to one flat buffer plus record bounds
    (:func:`repro.agd.chunk.read_column`), which every kernel consumes
    natively — no per-record objects.  Frames may be any bytes-like
    buffers: a raw column decoded from a ``bytes`` frame is a view of
    it, one from a mutable buffer copies its block out once, whole
    (:meth:`~repro.agd.columns.RaggedColumn.from_block`).
    """
    from repro.core.ops import ChunkWorkItem

    if not frames:
        raise WireError("work item frame missing header")
    header = json.loads(bytes(frames[0]).decode())
    columns = list(header["columns"])
    expected = len(columns) + (1 if header["results"] else 0)
    if len(frames) != expected + 1:
        raise WireError(
            f"work item {header['path']!r} has {len(frames) - 1} column "
            f"frames, expected {expected}"
        )
    entry = ChunkEntry(header["path"], header["first"], header["count"])
    item = ChunkWorkItem(entry=entry)
    for i, column in enumerate(columns):
        item.columns[column] = _read_column_frame(frames[1 + i], column, entry)
    if header["results"]:
        item.results = _read_column_frame(frames[-1], "results", entry)
    return item


def _read_column_frame(frame, column: str, entry: ChunkEntry):
    """Decode one column frame, checked against the item header (a frame
    of another chunk or column passes its own CRCs)."""
    header = read_chunk_header(frame)
    got = (header.record_type, header.record_count, header.first_ordinal)
    want = (record_type_for_column(column), entry.record_count,
            entry.first_ordinal)
    if got != want:
        raise WireError(
            f"work item {entry.path!r}: column {column!r} frame holds "
            f"(record type, count, first ordinal) {got}, the item header "
            f"says {want}")
    return read_column(frame)


def decode_work_item(blob: bytes):
    """Inverse of :func:`encode_work_item`."""
    return decode_work_item_frames(unpack_frames(blob))


def item_serializer(codec_level: int = EDGE_CODEC_LEVEL) -> PayloadSerializer:
    return PayloadSerializer(
        encode=lambda item: encode_work_item(item, codec_level),
        decode=decode_work_item,
        key=lambda item: item.entry.path,
        encode_frames=lambda item: encode_work_item_frames(item, codec_level),
        decode_frames=decode_work_item_frames,
    )


def edge_item_serializer(client) -> PayloadSerializer:
    """The edge's codec, read off its transport.

    A client whose payloads stay in memory both ends can reach
    (``QueueTransport.shares_memory``: the in-process client, a TCP
    client whose shm handshake verified the same host) carries columns
    as *raw* level-0 frames — no deflate on either end; over shm, large
    frames cross as segment descriptors, read out once by the
    receiver.  A remote TCP edge keeps the light level-1 gzip of
    :data:`EDGE_CODEC_LEVEL`.
    """
    if client.shares_memory:
        return item_serializer(RAW_EDGE_CODEC_LEVEL)
    return item_serializer()
