"""Wire encoding for chunk traffic between placed servers.

Two payload kinds cross broker edges: chunk *names* (manifest entries,
tiny JSON) and whole *work items* (a chunk's parsed columns mid-
pipeline).  Work items reuse the AGD chunk serialization — every column,
alignment results included, is one ``write_chunk`` blob with its data
block framed raw: an edge payload is written once and read once, so a
deflate on the sender and an inflate on the receiver buy nothing, and a
raw frame decodes straight from the bytes the receiver holds.  The
payload is immutable, CRC-checked bytes — never an object reference:
redelivery, poison quarantine and ``payload_bytes`` accounting need a
frozen copy the broker can check.  A work item crosses as a list of
frames (a JSON header plus one blob per column) that the TCP broker
sends segment by segment; a chunk name crosses as one blob.
"""

from __future__ import annotations

import json
from typing import Callable, NamedTuple

from repro.agd.chunk import read_chunk_header, read_column, write_chunk
from repro.agd.manifest import ChunkEntry
from repro.agd.records import record_type_for_column


class WireError(ValueError):
    """Raised for malformed wire frames."""


class PayloadSerializer(NamedTuple):
    """An encode/decode pair a :class:`~repro.dataflow.queues.RemoteQueue`
    applies to items crossing its edge, plus the key the broker files
    each item under.  Work items encode to a list of frames, which the
    transports move segment by segment without a pack/concat copy;
    chunk names encode to one blob."""

    encode: Callable[[object], "bytes | list[bytes]"]
    decode: Callable[["bytes | list[bytes]"], object]
    key: Callable[[object], str]


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


def encode_work_item_frames(item) -> "list[bytes]":
    """Serialize a :class:`~repro.core.ops.ChunkWorkItem` as a frames
    *list*: a JSON header frame followed by one raw AGD chunk blob per
    column.  Transports ship the list as-is."""
    columns = sorted(item.columns)
    header = {
        "path": item.entry.path,
        "first": item.entry.first_ordinal,
        "count": item.entry.record_count,
        "columns": columns,
    }
    blobs = [json.dumps(header).encode()]
    for column in columns:
        blobs.append(
            write_chunk(
                item.columns[column],
                record_type_for_column(column),
                first_ordinal=item.entry.first_ordinal,
                codec="none",
            )
        )
    return blobs


def decode_work_item_frames(frames: "list[bytes]"):
    """Rebuild a work item from its frames.

    Every column decodes to one flat buffer plus record bounds
    (:func:`repro.agd.chunk.read_column`), which every kernel consumes
    natively — no per-record objects.  Each frame's codec is read off
    its own header, so a frame of any codec decodes.  Frames may be any
    bytes-like buffers: a raw column decoded from a ``bytes`` frame is
    a view of it, one from a mutable buffer copies its block out once,
    whole (:meth:`~repro.agd.columns.RaggedColumn.from_block`).
    """
    from repro.core.ops import ChunkWorkItem

    if not frames:
        raise WireError("work item frame missing header")
    header = json.loads(bytes(frames[0]).decode())
    columns = list(header["columns"])
    if len(frames) != len(columns) + 1:
        raise WireError(
            f"work item {header['path']!r} has {len(frames) - 1} column "
            f"frames, expected {len(columns)}"
        )
    entry = ChunkEntry(header["path"], header["first"], header["count"])
    item = ChunkWorkItem(entry=entry)
    for i, column in enumerate(columns):
        item.columns[column] = _read_column_frame(frames[1 + i], column, entry)
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


def item_serializer() -> PayloadSerializer:
    return PayloadSerializer(
        encode=encode_work_item_frames,
        decode=decode_work_item_frames,
        key=lambda item: item.entry.path,
    )
