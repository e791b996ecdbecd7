"""Dataset sorting: external merge sort with superchunks (§4.3).

"Persona also integrates full dataset sorting by various parameters,
including mapped read location and read ID.  The sort implementation is a
simple external merge sort, where several chunks at a time are sorted and
merged into temporary file 'superchunks'.  A final merge stage merges
superchunks into the final sorted dataset."

Sorting reorders *rows*, so all row-grouped columns move together; but —
unlike row-oriented SAM/BAM sorting — the sort never builds a row.  A
decoded column is one flat buffer plus record bounds
(:mod:`repro.agd.columns`); the sort extracts one key array from the key
column, computes one stable permutation, and gathers every column's
buffer through it (Table 2's advantage: records never leave their
columnar encoding).

* Phase 1 (:func:`sort_run`, once per run, on the caller's thread):
  concatenate the group's columns, ``argsort`` the packed keys (stable),
  ``take`` each column, then keep the run as the scratch store's kind
  asks (:func:`scratch_kind`).
* Phase 2 (:func:`iter_merged_chunks`): a k-way merge over run cursors
  that read a window of records at a time (``MERGE_WINDOW_BYTES`` in
  all, whatever the dataset's size), gathering one output chunk at a
  time, so chunks stream downstream while later ones are written.

Neither phase dispatches to a compute backend: a run sort is one
``argsort`` + ``take`` + a deflate that releases the GIL, and no backend
ever beat running it inline (measurements in ``CHANGES.md``, PR 19).

Keys that do not pack (positions >= 2**32, NUL bytes in metadata) change
only how records compare (:func:`repro.core.columnar.fallback_sort_keys`,
in both phases), never the data path.

A run is serialized only when it leaves the process
(:func:`scratch_kind`): a memory scratch holds each sorted run as its
columns, never encoded or put; a local directory gets the *raw*
(identity-codec) chunk frame layout, read back in windows decoded over
the bytes read (no inflate, no second copy); any other store gets gzip
at ``SCRATCH_CODEC_LEVEL``, restored whole.  The chunk header is
self-describing, so a resumed run whose scratch holds both framings
restores byte-identically.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.agd.chunk import (HEADER_SIZE, ChunkFormatError, read_chunk_header,
                             read_chunk_index, read_column, write_chunk)
from repro.agd.columns import RaggedColumn
from repro.agd.index import RelativeIndex
from repro.agd.compression import (
    DEFAULT_CODEC,
    SCRATCH_CODEC_LEVEL,
    Codec,
    leveled_codec,
)
from repro.agd.dataset import AGDDataset
from repro.agd.manifest import ChunkEntry, Manifest
from repro.agd.records import get_record_codec, record_type_for_column
from repro.align.result import AlignmentResult
from repro.core.columnar import fallback_sort_keys, sort_keys, \
    sort_permutation
from repro.dataflow.lane import WriteBehindLane
from repro.storage.base import ChunkStore, DirectoryStore, MemoryStore
from repro.storage.local import ModeledDiskStore

#: Bytes of run records phase 2 keeps decoded at once, split evenly
#: between the runs' cursors (each window holds at least one record).
MERGE_WINDOW_BYTES = 2 << 20

@dataclass
class SortConfig:
    """External sort parameters (how a run is kept is not one: the
    scratch store's kind decides, :func:`scratch_kind`)."""

    chunks_per_superchunk: int = 4
    output_chunk_size: "int | None" = None  # default: input chunk size
    order: str = "location"  # or "metadata"
    #: Compression level for the sorted output chunks (None = default
    #: codec, gzip level 6).
    output_codec_level: "int | None" = None

    def __post_init__(self) -> None:
        # Fail before any work, the same way on every path.
        key_column(self.order)
        if self.chunks_per_superchunk <= 0:
            raise ValueError("chunks_per_superchunk must be positive")

    def output_codec(self) -> "Codec":
        if self.output_codec_level is None:
            return DEFAULT_CODEC
        return leveled_codec("gzip", self.output_codec_level)


def key_column(order: str) -> str:
    """The column a sort order reads its keys from."""
    if order == "location":
        return "results"
    if order == "metadata":
        return "metadata"
    raise ValueError(f"unknown sort order {order!r} (location|metadata)")


def _key_first_columns(columns: list[str]) -> list[str]:
    """Column order of spills and output chunks: results, metadata,
    then the rest by name."""
    rest = [c for c in columns if c not in ("results", "metadata")]
    ordered = []
    if "results" in columns:
        ordered.append("results")
    if "metadata" in columns:
        ordered.append("metadata")
    return ordered + sorted(rest)


def _concat_column(column: str, parts) -> RaggedColumn:
    """The records of every part in order, as one column of
    ``column``'s class (parts: decoded columns, or record lists that
    ``concat`` wraps once)."""
    return get_record_codec(
        record_type_for_column(column)
    ).column_class.concat(parts)


def _concat_columns(ordered_columns: "list[str]",
                    chunks: "list[dict]") -> "dict[str, RaggedColumn]":
    """Per column, the records of every chunk in order, as one column.

    A chunk's value is a decoded column (or record list) or a chunk
    blob, decoded here.
    """
    blob_types = (bytes, bytearray, memoryview)
    return {
        column: _concat_column(column, (
            read_column(chunk[column])
            if isinstance(chunk[column], blob_types) else chunk[column]
            for chunk in chunks
        ))
        for column in ordered_columns
    }


def _take_columns(columns: "dict[str, RaggedColumn]",
                  index) -> "dict[str, RaggedColumn]":
    return {name: column.take(index) for name, column in columns.items()}


def sort_run(scratch: ChunkStore, run_index: int, order: str,
             ordered_columns: "list[str]",
             chunks: "list[dict]") -> "SpilledRun":
    """Sort one superchunk run and keep it for the merge: held as its
    columns when the scratch is memory (framing runs for a dict in this
    process only makes the merge undo it), spilled otherwise.  Both sort
    paths build their runs here.

    ``chunks`` holds, per input chunk, ``{column: chunk blob}`` (the
    eager sort reads blobs) or ``{column: decoded column}`` (chunks that
    arrived through a pipeline queue).  One key array, one stable
    permutation, one gather per column.
    """
    columns = _concat_columns(ordered_columns, chunks)
    perm, _keys = sort_permutation(order, columns[key_column(order)])
    columns = _take_columns(columns, perm)
    if scratch_kind(scratch) == "memory":
        return SpilledRun(entries=[], index=run_index, columns=columns)
    return store_run_spill(scratch, run_index,
                           encode_run_spill(columns, scratch_codec(scratch)))


# ---------------------------------------------------------------------------
# Scratch kinds; spills verified, then read back a window at a time.


def _scratch_base(store):
    """``store`` under its pass-through wrappers (whatever exposes the
    store it wraps as ``backing`` — ``CountingStore`` — or ``store`` —
    ``JournaledStore``), but never under a ``ModeledDiskStore``: its
    traffic is what it models."""
    while not isinstance(store, ModeledDiskStore):
        inner = getattr(store, "backing", None) or getattr(store, "store",
                                                          None)
        if inner is None:
            break
        store = inner
    return store


def scratch_kind(store) -> str:
    """Where a scratch store keeps sort runs, which decides how a run is
    kept (:func:`sort_run`) and restored (:func:`iter_merged_chunks`):

    * ``"memory"`` — a ``MemoryStore``: runs never leave the process, so
      each is held as its sorted columns, never encoded or put;
    * ``"local"`` — a ``DirectoryStore``: raw frames, read back a
      window of records at a time from the file;
    * ``"remote"`` — anything else (a modeled disk, an object store):
      gzip frames at ``SCRATCH_CODEC_LEVEL``, restored through ``get``.

    Pass-through wrappers (:func:`_scratch_base`) do not change a kind.
    """
    base = _scratch_base(store)
    if isinstance(base, MemoryStore):
        return "memory"
    return "local" if isinstance(base, DirectoryStore) else "remote"


def local_scratch_root(store) -> "Path | None":
    """The directory a *local* scratch (:func:`scratch_kind`) keeps its
    spill files in, which phase 2 reads directly instead of going
    through the store; None for any other kind."""
    return _scratch_base(store).root if scratch_kind(store) == "local" \
        else None


def scratch_codec(scratch) -> Codec:
    """The codec a run stored in ``scratch`` is framed with: the raw
    (identity) layout phase 2 decodes without inflating for a local
    scratch, gzip at ``SCRATCH_CODEC_LEVEL`` otherwise (a memory scratch
    stores no run).

    Write-side only: restore reads whatever codec each spill's header
    declares, so mixed scratch (a resumed run whose scratch store
    changed) still merges byte-identically.
    """
    name = "none" if scratch_kind(scratch) == "local" else "gzip"
    return leveled_codec(name, SCRATCH_CODEC_LEVEL)


def _credit_spill(counters: "dict | None", header) -> None:
    """Account one restored spill blob by what its header says happened.

    ``spill_view_bytes`` — data-block bytes decoded as views of the
    blob read back (identity codec: the frame *is* the uncompressed
    block, so the read is the restore's one copy); ``decode_copies`` —
    blobs whose restore had to inflate a second copy (gzip).  A local
    scratch restores with ``decode_copies == 0``.
    """
    if counters is None:
        return
    counters["spill_restores"] = counters.get("spill_restores", 0) + 1
    if header.codec_name == "none":
        counters["spill_view_bytes"] = (
            counters.get("spill_view_bytes", 0) + header.uncompressed_size
        )
    else:
        counters["decode_copies"] = counters.get("decode_copies", 0) + 1
        counters["spill_decoded_bytes"] = (
            counters.get("spill_decoded_bytes", 0) + header.uncompressed_size
        )


@dataclass
class SpilledRun:
    """One sorted run (phase 1's product), stored or held.

    A stored run's ``entries`` list its chunk entries in the scratch
    store, in row order: one jumbo superchunk — or, for a run adopted
    from a ledger an older version wrote, its key-range sub-chunks;
    read in order, they are the sorted run either way.  A held run
    (memory scratch) has no entries: ``columns`` holds its sorted
    columns until the merge takes them over (so a run merges once).
    ``nbytes`` is the total stored frame size (0 when held or unknown,
    e.g. a ledger-adopted run).  ``index`` is the run's position in
    spill order.
    """

    entries: "list[ChunkEntry]"
    nbytes: int = 0
    index: int = 0
    columns: "dict[str, RaggedColumn] | None" = None


def _encode_columns(columns: "dict[str, RaggedColumn]", codec: Codec,
                    first_ordinal: int = 0) -> "dict[str, bytes]":
    """One chunk file image per column (a column encodes as its flat
    buffer — no per-record work)."""
    return {
        name: write_chunk(column, record_type_for_column(name),
                          first_ordinal=first_ordinal, codec=codec)
        for name, column in columns.items()
    }


def _slice_columns(columns: "dict[str, RaggedColumn]", lo: int,
                   hi: int) -> "dict[str, RaggedColumn]":
    return {name: column[lo:hi] for name, column in columns.items()}


def encode_run_spill(columns: "dict[str, RaggedColumn]",
                     codec: Codec) -> dict:
    """Encode one *sorted* run (its columns, in spill column order) for
    the scratch store: one jumbo chunk per column, framed with ``codec``
    (see :func:`scratch_codec`)."""
    return {
        "record_count": len(next(iter(columns.values()))),
        "columns": _encode_columns(columns, codec),
    }


def store_run_spill(scratch: ChunkStore, run_index: int,
                    spill: dict) -> SpilledRun:
    """Write one encoded run spill to the scratch store."""
    entry = ChunkEntry(f"superchunk-{run_index}", 0, spill["record_count"])
    nbytes = 0
    for column, blob in spill["columns"].items():
        scratch.put(entry.chunk_file(column), blob)
        nbytes += len(blob)
    return SpilledRun(entries=[entry], nbytes=nbytes, index=run_index)


def _decode_spill(blob, counters: "dict | None" = None) -> RaggedColumn:
    """Decode one spilled column blob whole (a ``bytes`` blob becomes
    the column's storage; see :meth:`RaggedColumn.from_block`)."""
    _credit_spill(counters, read_chunk_header(blob))
    return read_column(blob)


class _HeldColumn:
    """A resident column (held, or restored whole): windows are slices."""

    def __init__(self, column: RaggedColumn):
        self.column = column
        self.max_bytes = int(column.lengths.max(initial=0))

    def read(self, lo: int, hi: int) -> RaggedColumn:
        return self.column[lo:hi]


class _SpillFile:
    """A raw-framed spilled column read in windows from its file: one
    ``pread`` per window, decoded over the bytes read.  Of the relative
    index it keeps the distinct lengths and, if there are several, one
    code per record into them (a byte for up to 256) — no bounds."""

    def __init__(self, path: Path, header, lengths: np.ndarray):
        self.path = path
        self.codec = get_record_codec(header.record_type)
        self._values, codes, counts = np.unique(
            lengths, return_inverse=True, return_counts=True)
        self._codes = None if self._values.size < 2 else codes.astype(
            np.min_scalar_type(self._values.size - 1))
        self._sizes = np.array(  # byte_size once per distinct length
            [self.codec.byte_size(int(v)) for v in self._values], np.int64)
        if int(self._sizes @ counts) != header.uncompressed_size:
            raise ChunkFormatError(
                f"spill {path.name}: index and data block disagree")
        self.max_bytes = int(self._sizes.max(initial=0))
        # The last window's first record, file offset and byte bounds.
        self._start, self._bounds = (0, header.data_offset), np.zeros(1)

    def _lookup(self, table: np.ndarray, lo: int, hi: int) -> np.ndarray:
        if self._codes is None:
            return np.full(hi - lo, table[0], table.dtype)
        return table[self._codes[lo:hi]]

    def read(self, lo: int, hi: int) -> RaggedColumn:
        offset = self._start[1] + int(self._bounds[lo - self._start[0]])
        nbytes = int(self._lookup(self._sizes, lo, hi).sum())
        fd = os.open(self.path, os.O_RDONLY)
        try:
            blob = os.pread(fd, nbytes, offset)
        finally:
            os.close(fd)
        if len(blob) != nbytes:
            raise ChunkFormatError(f"spill {self.path.name} truncated")
        column = self.codec.decode_column(
            blob, RelativeIndex(self._lookup(self._values, lo, hi)))
        self._start, self._bounds = (lo, offset), column.bounds
        return column


def _open_spill(scratch: ChunkStore, root: "Path | None", chunk_file: str,
                counters: "dict | None"):
    """One spilled column, verified whole and ready to read in windows.

    A raw frame under a local scratch's ``root`` is read from its file,
    past the store's wrappers: header and relative index now, the data
    block streamed through its CRC (1 MiB at a time), then read again
    window by window.  Any other spill (gzip, or not a file under the
    root) is restored whole by one read and the chunk codec's checks.
    """
    if root is None:
        return _HeldColumn(_decode_spill(scratch.get(chunk_file), counters))
    try:
        with open(root / chunk_file, "rb", buffering=0) as f:
            head = f.read(HEADER_SIZE)
            header = read_chunk_header(head)
            if header.codec_name != "none":
                return _HeldColumn(_decode_spill(head + f.read(), counters))
            _header, index = read_chunk_index(head + f.read(header.index_size))
            crc, left = 0, header.compressed_size
            view = memoryview(bytearray(min(left, 1 << 20)))
            while left:
                got = f.readinto(view[:min(left, len(view))])
                if not got:
                    raise ChunkFormatError("chunk data block truncated")
                crc, left = zlib.crc32(view[:got], crc), left - got
    except OSError:
        return _open_spill(scratch, None, chunk_file, counters)
    if crc != header.data_crc or \
            header.compressed_size != header.uncompressed_size:
        raise ChunkFormatError("chunk data CRC mismatch")
    _credit_spill(counters, header)
    return _SpillFile(root / chunk_file, header, index.lengths)


class _RunCursor:
    """One sorted sequence of records (a spill entry, or a held run)
    read a window at a time.  ``window`` holds records ``[start, start +
    count)``, the first ``offset`` of them merged; ``keys`` are their
    packed sort keys (None if they do not pack).  ``final``: the window
    ends the sequence; ``spent``: the next :meth:`fill` replaces it —
    once half merged, or a final one once merged to the end."""

    def __init__(self, sources: "dict", total: int, order: str):
        self.sources, self.total, self.order = sources, total, order
        self.row_bytes = max(1, sum(s.max_bytes for s in sources.values()))
        self.start = self.count = self.offset = self.nbytes = 0
        self.window = self.keys = None

    done = property(lambda self: self.start + self.offset == self.total)
    final = property(lambda self: self.start + self.count == self.total)
    spent = property(lambda self: self.count == self.offset if self.final
                     else 2 * (self.count - self.offset) < self.count)

    def fill(self, share: int, counters: "dict | None") -> None:
        """Read a new window if this one is spent: from the first unmerged
        record, as many as ``share`` bytes hold at the largest row size
        (at least one)."""
        if self.window is not None and not self.spent:
            return
        start = self.start + self.offset
        stop = min(self.total, start + max(1, share // self.row_bytes))
        self.window = {name: source.read(start, stop)
                       for name, source in self.sources.items()}
        self.nbytes = sum(int(column.bounds[-1] - column.bounds[0])
                          for column in self.window.values())
        self.keys = sort_keys(self.order, self.window[key_column(self.order)])
        self.start, self.count, self.offset = start, stop - start, 0
        if counters is not None:
            counters["window_reads"] = counters.get("window_reads", 0) + 1


def _open_runs(scratch: ChunkStore, runs: "list[SpilledRun]",
               ordered_columns: "list[str]", order: str,
               counters: "dict | None") -> "list[_RunCursor]":
    """A cursor per held run (taking its columns over: it merges once) and
    per spill entry, in run order, every spill verified first.  A run's
    entries are consecutive pieces of it: merging them is merging it."""
    root = local_scratch_root(scratch)
    cursors = []
    for run in runs:
        if run.columns is not None:
            held = {c: _HeldColumn(run.columns.pop(c)) for c in ordered_columns}
            cursors.append(_RunCursor(
                held, len(held[ordered_columns[0]].column), order))
        for entry in run.entries:
            cursors.append(_RunCursor({
                c: _open_spill(scratch, root, entry.chunk_file(c), counters)
                for c in ordered_columns}, entry.record_count, order))
    return [cursor for cursor in cursors if not cursor.done]


def sort_dataset(
    dataset: AGDDataset,
    output_store: ChunkStore,
    config: "SortConfig | None" = None,
    scratch_store: "ChunkStore | None" = None,
    counters: "dict | None" = None,
) -> AGDDataset:
    """Sort a dataset into ``output_store``; returns the sorted dataset.

    Phase 1 reads ``chunks_per_superchunk`` chunks at a time and sorts
    them into a run (:func:`sort_run`): held in memory, or a
    *superchunk* in the scratch store.  Phase 2 merges the runs and
    emits final chunks (:func:`iter_merged_chunks`).

    ``counters`` (optional dict) accumulates the spill-restore
    accounting: ``spill_view_bytes``/``decode_copies`` (see
    :func:`_credit_spill`) and the merge's ``window_reads`` /
    ``window_peak_bytes`` (see :func:`_merged_batches`).
    """
    config = config or SortConfig()
    manifest = dataset.manifest
    columns = list(manifest.columns)
    if config.order == "location" and "results" not in columns:
        raise ValueError("location sort needs a results column; align first")
    scratch = scratch_store if scratch_store is not None else MemoryStore()
    ordered_columns = _key_first_columns(columns)

    # ---------------------------------------------------- phase 1: runs
    step = config.chunks_per_superchunk
    runs = [
        sort_run(scratch, index, config.order, ordered_columns,
                 [{column: dataset.store.get(entry.chunk_file(column))
                   for column in ordered_columns}
                  for entry in manifest.chunks[start:start + step]])
        for index, start in enumerate(range(0, manifest.num_chunks, step))
    ]

    # --------------------------------------------------- phase 2: merge
    out_chunk_size = config.output_chunk_size or (
        manifest.chunks[0].record_count if manifest.chunks else 1
    )
    entries = [
        entry
        for entry, _columns, _stored in iter_merged_chunks(
            scratch, runs, ordered_columns, config.order,
            out_chunk_size, manifest.name, output_store,
            out_codec=config.output_codec(),
            counters=counters,
        )
    ]
    sorted_manifest = build_sorted_manifest(
        manifest.name, columns, entries, manifest.reference, config.order
    )
    return AGDDataset(sorted_manifest, output_store)


def _merged_batches(
    scratch: ChunkStore,
    runs: "list[SpilledRun]",
    ordered_columns: "list[str]",
    order: str,
    batch_size: int,
    counters: "dict | None" = None,
):
    """The runs' records in sorted order, as ``{column: RaggedColumn}``
    batches of ``batch_size`` records (the last may be shorter), built
    when the consumer asks: a k-way merge over :func:`_open_runs`'
    cursors.  A step merges every buffered record up to the smallest
    last buffered key of the cursors with more to read (ties to the
    earlier cursor) — no unread record sorts before it — by one stable
    ``argsort`` in cursor order: the order one stable ``argsort`` over
    the runs' concatenation gives.  ``counters`` also gets
    ``window_reads`` and ``window_peak_bytes``."""
    live = _open_runs(scratch, runs, ordered_columns, order, counters)
    share = max(1, MERGE_WINDOW_BYTES // max(1, len(live)))
    held, pending = 0, None
    while live:
        for cursor in live:
            cursor.fill(share, counters)
        if counters is not None:
            counters["window_peak_bytes"] = max(counters.get(
                "window_peak_bytes", 0), sum(c.nbytes for c in live))
        if all(cursor.keys is not None for cursor in live):
            keys = [cursor.keys[cursor.offset:] for cursor in live]
        else:
            keys = [fallback_sort_keys(order, cursor.window[key_column(
                order)][cursor.offset:]) for cursor in live]
        bound = min((i for i, cursor in enumerate(live) if not cursor.final),
                    key=lambda i: keys[i][-1], default=None)
        takes = [
            len(mine) if bound is None else int(mine.searchsorted(
                keys[bound][-1:], "right" if index <= bound else "left")[0])
            for index, mine in enumerate(keys)
        ]
        perm = None if sum(map(bool, takes)) == 1 else np.argsort(
            np.concatenate([mine[:taken] for mine, taken in zip(keys, takes)]),
            kind="stable")
        parts = [(cursor, cursor.offset, taken)
                 for cursor, taken in zip(live, takes) if taken]
        for cursor, taken in zip(live, takes):
            cursor.offset += taken
        # Join each column's slices (a lone slice as it is); then a spent
        # window drops the column, and a finished run its source too.
        spent = [cursor for cursor, _lo, _taken in parts if cursor.spent]
        columns = {}
        for name in ordered_columns:
            columns[name] = _concat_column(name, [
                cursor.window[name][lo:lo + taken]
                for cursor, lo, taken in parts])
            for cursor in spent:
                cursor.window[name] = None
                if cursor.done:
                    cursor.sources[name] = None
        live = [cursor for cursor in live if not cursor.done]
        step, cut = sum(takes), 0
        while cut < step:
            end = min(step, cut + batch_size - held)
            batch = (_slice_columns(columns, cut, end) if perm is None
                     else _take_columns(columns, perm[cut:end]))
            if pending is not None:  # a batch the last step began
                batch = {name: RaggedColumn.concat([pending[name], column])
                         for name, column in batch.items()}
            held, cut, pending = held + end - cut, end, batch
            if held == batch_size:
                yield batch
                held, pending = 0, None
        del columns
    if pending is not None:
        yield pending


def _store_chunk(store: ChunkStore, entry: ChunkEntry,
                 columns: "dict[str, RaggedColumn]", codec) -> None:
    """Encode and put one output chunk's columns (a lane job: deflate
    and file writes, nothing that needs the interpreter for long)."""
    for column, blob in _encode_columns(
        columns, codec, first_ordinal=entry.first_ordinal
    ).items():
        store.put(entry.chunk_file(column), blob)


def iter_merged_chunks(
    scratch: ChunkStore,
    runs: "list[SpilledRun]",
    ordered_columns: "list[str]",
    order: str,
    out_chunk_size: int,
    dataset_name: str,
    output_store: ChunkStore,
    out_codec: "Codec | str" = DEFAULT_CODEC,
    counters: "dict | None" = None,
    deferred_columns: "tuple[str, ...]" = (),
    lane: "WriteBehindLane | None" = None,
):
    """Phase 2 of the external sort: merge sorted runs and write final
    chunks; yields ``(entry, columns, stored)`` per chunk.
    ``deferred_columns`` are merged and yielded but neither encoded nor
    put: the stage that consumes the stream writes them (a dupmark stage
    directly downstream flags the results column before its only write).

    Shared by the eager :func:`sort_dataset` and the streaming
    :class:`~repro.core.ops.SuperchunkMergeNode` so the two paths'
    chunk naming, ordinals, and bytes cannot drift apart (and
    :func:`sort_run` builds both paths' runs).  A generator,
    one chunk ahead of its consumer: chunk *k*'s encode and puts are
    handed to ``lane`` (the session's; None: one of this call's own),
    chunk *k+1* is gathered while they run, and only then is *k*
    yielded — ``stored`` is its :class:`~repro.dataflow.lane.Ticket`,
    which whatever must not precede the write (another column's put, an
    acknowledgment) waits on, by then rarely for long.  The lane is
    drained, and a failed write re-raised here, before the generator
    returns.  A held run is merged from its columns, which the merge
    takes over (so ``runs`` merge once); a stored run is read back from
    ``scratch``, and ``counters`` accumulates that restore-side
    accounting (see :func:`_credit_spill`, :func:`_merged_batches`).
    """
    if out_chunk_size <= 0:
        raise ValueError("out_chunk_size must be positive")
    sorted_name = f"{dataset_name}-sorted"
    total = 0
    batches = _merged_batches(scratch, runs, ordered_columns, order,
                              out_chunk_size, counters=counters)
    own_lane = lane is None
    if own_lane:
        lane = WriteBehindLane("sort.lane")
    try:
        behind = None
        for index, columns in enumerate(batches):
            entry = ChunkEntry(
                f"{sorted_name}-{index}", total,
                len(columns[ordered_columns[0]]),
            )
            written = {name: column for name, column in columns.items()
                       if name not in deferred_columns}
            stored = lane.submit(_store_chunk, output_store, entry, written,
                                 out_codec)
            total += entry.record_count
            if behind is not None:
                yield behind
            behind = entry, columns, stored
        if behind is not None:
            yield behind
        lane.drain()
    finally:
        if own_lane:
            lane.close()


def build_sorted_manifest(
    dataset_name: str,
    columns: "list[str]",
    entries: "list[ChunkEntry]",
    reference: "list[dict] | None",
    order: str,
) -> Manifest:
    """The manifest both sort paths emit for their sorted output."""
    return Manifest(
        name=f"{dataset_name}-sorted",
        columns=sorted(columns),
        chunks=entries,
        reference=reference or [],
        sort_order=order,
    )


def verify_sorted(dataset: AGDDataset, order: str = "location") -> bool:
    """Check a dataset's rows are in the claimed order (test helper).

    Reads only the key column; adjacent keys compare as one array op per
    chunk (record by record only for keys that do not pack).
    """
    name = key_column(order)
    record_key = AlignmentResult.location_key if order == "location" \
        else bytes
    previous = None
    for entry in dataset.manifest.chunks:
        column = read_column(dataset.store.get(entry.chunk_file(name)))
        if not len(column):
            continue
        keys = sort_keys(order, column)
        if keys is None:
            keys = [record_key(record) for record in column]
            ordered = all(a <= b for a, b in zip(keys, keys[1:]))
        else:
            ordered = bool((keys[:-1] <= keys[1:]).all())
        if not ordered or (
            previous is not None and record_key(column[0]) < previous
        ):
            return False
        previous = record_key(column[-1])
    return True
