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
* Phase 2 (:func:`iter_merged_chunks`): concatenate the runs' columns and
  apply one stable ``argsort`` over the concatenated keys — ties keep run
  order, which is exactly a k-way merge's tie-break — gathering one
  output chunk at a time, so chunks stream downstream while later ones
  are still being written.

Neither phase dispatches to a compute backend: a run sort is one
``argsort`` + ``take`` + a deflate that releases the GIL, and no backend
ever beat running it inline (measurements in ``CHANGES.md``, PR 19).

Keys that do not pack (positions >= 2**32, NUL bytes in metadata) change
only how the permutation is computed
(:func:`repro.core.columnar.sort_permutation`), never the data path.

A run is serialized only when it leaves the process
(:func:`scratch_kind`): a memory scratch holds each sorted run as its
columns, never encoded or put; a local directory gets the *raw*
(identity-codec) chunk frame layout, restored by ``mmap`` under a
:class:`SpillLease` guard and decoded straight from the mapped pages (no
``scratch.get`` copy, no inflate); any other store gets gzip at
``SCRATCH_CODEC_LEVEL``.  The chunk header is self-describing, so a
resumed run whose scratch holds both framings restores byte-identically.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from pathlib import Path

from repro.agd.chunk import read_chunk_header, read_column, write_chunk
from repro.agd.columns import RaggedColumn
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
from repro.core.columnar import sort_keys, sort_permutation
from repro.dataflow.lane import WriteBehindLane
from repro.storage.base import ChunkStore, DirectoryStore, MemoryStore
from repro.storage.local import ModeledDiskStore


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
# Scratch kinds; local raw-framed spills restored through mmap leases.


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
    * ``"local"`` — a ``DirectoryStore``: raw frames, restored by mmap;
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
    spill files in, which phase 2 maps instead of copying blobs out of
    the store; None for any other kind."""
    return _scratch_base(store).root if scratch_kind(store) == "local" \
        else None


def scratch_codec(scratch) -> Codec:
    """The codec a run stored in ``scratch`` is framed with: the raw
    (identity) layout phase 2 can mmap and decode in place for a local
    scratch, gzip at ``SCRATCH_CODEC_LEVEL`` otherwise (a memory scratch
    stores no run).

    Write-side only: restore reads whatever codec each spill's header
    declares, so mixed scratch (a resumed run whose scratch store
    changed) still merges byte-identically.
    """
    name = "none" if scratch_kind(scratch) == "local" else "gzip"
    return leveled_codec(name, SCRATCH_CODEC_LEVEL)


class SpillLease:
    """:class:`~repro.dataflow.shm.SegmentLease`-style guard over one
    mmap'ed spill file.

    ``buf`` is a read-only view of the mapped frame; records decoded
    from it alias page-cache memory, so the lease must outlive every
    view derived from it.  The merge decodes (materializing records in
    the same pass) and releases immediately; :meth:`release` returns
    False while derived buffers still pin the mapping, exactly like the
    segment lease it mirrors.
    """

    __slots__ = ("path", "_mm", "_mv")

    def __init__(self, path: "str | Path"):
        self.path = str(path)
        with open(self.path, "rb") as fh:
            self._mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        self._mv = memoryview(self._mm).toreadonly()

    @property
    def buf(self) -> memoryview:
        return self._mv

    @property
    def nbytes(self) -> int:
        return self._mv.nbytes

    def view(self, offset: int = 0, length: "int | None" = None) -> memoryview:
        end = self._mv.nbytes if length is None else offset + length
        return self._mv[offset:end]

    def release(self) -> bool:
        """Unmap; False when views derived from ``buf`` still pin the
        mapping (the lease stays held — retry after dropping them)."""
        if self._mv is None:
            return True
        try:
            self._mv.release()
            self._mm.close()
        except BufferError:
            return False
        self._mv = None
        return True

    def __enter__(self) -> "SpillLease":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __del__(self):  # pragma: no cover - GC ordering dependent
        try:
            self.release()
        except Exception:
            pass


def _credit_spill(counters: "dict | None", header) -> None:
    """Account one restored spill blob by what its header says happened.

    ``spill_view_bytes`` — data-block bytes decoded in place (identity
    codec: the frame *is* the uncompressed block); ``decode_copies`` —
    blobs whose restore had to materialize a decompressed copy (the
    gzip fallback).  The acceptance bar for the view path is
    ``decode_copies == 0``.
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
    concatenating them reproduces the sorted run either way.  A held run
    (memory scratch) has no entries: ``columns`` holds its sorted
    columns until the merge concatenates, and drops, each one.
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
    """Decode one spilled column blob (a decoded column owns its
    storage)."""
    _credit_spill(counters, read_chunk_header(blob))
    return read_column(blob)


def _restore_spill(scratch: ChunkStore, root: "Path | None",
                   chunk_file: str,
                   counters: "dict | None") -> RaggedColumn:
    """One spilled column, decoded: mapped under a :class:`SpillLease`
    for just as long as the decode takes when the scratch store is a
    local directory (``root``), read through ``scratch.get``
    otherwise."""
    if root is not None:
        try:
            lease = SpillLease(root / chunk_file)
        except OSError:
            pass  # not a file under the root after all: ask the store
        else:
            with lease:
                return _decode_spill(lease.buf, counters)
    return _decode_spill(scratch.get(chunk_file), counters)


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
    :func:`_credit_spill`).
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
    """The runs' records in globally sorted order, as a stream of column
    batches (``{column: RaggedColumn}``): restore every stored run (a
    held run already is its columns), one stable permutation over the
    concatenated keys — ties keep run order, a merge heap's tie-break —
    and one gather per ``batch_size`` records; a batch is only built
    when the consumer asks for it.
    """
    root = local_scratch_root(scratch)

    def parts(column):
        for run in runs:
            if run.columns is not None:
                yield run.columns.pop(column)
            for entry in run.entries:
                yield _restore_spill(scratch, root, entry.chunk_file(column),
                                     counters)

    # Column by column: a run's column (restored or held) is dropped as
    # soon as it is concatenated, so one column's runs are resident at
    # a time beside the columns still held.
    columns = {column: _concat_column(column, parts(column))
               for column in ordered_columns}
    perm, _keys = sort_permutation(order, columns[key_column(order)])
    for lo in range(0, perm.size, batch_size):
        yield _take_columns(columns, perm[lo:lo + batch_size])


def _rechunk(batches, size: int, first_column: str):
    """Re-cut a stream of column batches into batches of exactly
    ``size`` records (the last may be shorter).  Slices are zero-copy;
    batches are only concatenated where a chunk straddles two of them."""
    pending: "list[dict]" = []
    held = 0
    for batch in batches:
        count = len(batch[first_column])
        if not count:
            continue
        pending.append(batch)
        held += count
        if held < size:
            continue
        merged = pending[0] if len(pending) == 1 else {
            name: RaggedColumn.concat([b[name] for b in pending])
            for name in pending[0]
        }
        cut = held - held % size
        for lo in range(0, cut, size):
            yield _slice_columns(merged, lo, lo + size)
        held -= cut
        pending = [_slice_columns(merged, cut, cut + held)] if held else []
    if held:
        yield {
            name: RaggedColumn.concat([b[name] for b in pending])
            for name in pending[0]
        }


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
    returns.  A held run is merged from its columns, each dropped once
    concatenated (so ``runs`` merge once); a stored run is restored from
    ``scratch``, and ``counters`` accumulates that restore-side
    accounting (see :func:`_credit_spill`).
    """
    sorted_name = f"{dataset_name}-sorted"
    total = 0
    batches = _merged_batches(
        scratch, runs, ordered_columns, order, out_chunk_size,
        counters=counters,
    )
    own_lane = lane is None
    if own_lane:
        lane = WriteBehindLane("sort.lane")
    try:
        behind = None
        for index, columns in enumerate(
            _rechunk(batches, out_chunk_size, ordered_columns[0])
        ):
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
