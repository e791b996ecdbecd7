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

* Phase 1 (:func:`sort_run_task`, one backend task per run): concatenate
  the group's columns, ``argsort`` the packed keys (stable), ``take`` each
  column, frame the spill.
* Phase 2 (:func:`iter_merged_chunks`): concatenate the runs' columns and
  apply one stable ``argsort`` over the concatenated keys — ties keep run
  order, which is exactly a k-way merge's tie-break — gathering one
  output chunk at a time, so chunks stream downstream while later ones
  are still being written.  With ``merge_partitions >= 2`` the packed
  key space is split into contiguous ranges (per-contig ranges for
  location order), each range merged by an independent backend task
  (:func:`merge_partition_blobs_task`), and the ranges chained in key
  order; output bytes are identical.

Keys that do not pack (positions >= 2**32, NUL bytes in metadata) change
only how the permutation is computed
(:func:`repro.core.columnar.sort_permutation`), never the data path; they
cannot define shared key ranges, so such runs spill whole.

Spill locality: when the merge will be partitioned, phase 1 spills every
run as *per-partition sub-chunks* at shared key-range boundaries (fixed
from the first run's key quantiles).  Each phase-2 merge kernel then
decodes only its own key range of every run — compressed sub-chunk blobs
it can receive by shared-memory reference — instead of whole decoded
runs round-tripping through the caller.  Because boundaries are applied
with the same left-closed searchsorted rule everywhere, equal keys never
straddle a partition and the concatenated partitions reproduce the
single-kernel merge byte for byte.

Spill-as-views: when the scratch store is a local directory, spills are
written in the *raw* (identity-codec) chunk frame layout and restored by
``mmap`` — a merge kernel receives a tiny :class:`SpillFileRef` instead
of the blob bytes, maps the file under a :class:`SpillLease` guard, and
decodes columns straight from the mapped pages (no ``scratch.get`` copy,
no gzip inflate, no blob shipping).  The chunk header is
self-describing, so gzip scratch (remote / in-memory stores, or
``raw_scratch=False``) and resumed runs with mixed spills restore
through the same path byte-identically.
"""

from __future__ import annotations

import base64
import mmap
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.agd.chunk import (
    HEADER_SIZE,
    read_chunk_header,
    read_column,
    write_chunk,
)
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
from repro.storage.base import ChunkStore, MemoryStore


@dataclass
class SortConfig:
    """External sort parameters."""

    chunks_per_superchunk: int = 4
    output_chunk_size: "int | None" = None  # default: input chunk size
    order: str = "location"  # or "metadata"
    #: Compression level for superchunk spills (gzip).  Scratch blobs are
    #: read back exactly once, so the default is the cheap level 1.
    scratch_codec_level: int = SCRATCH_CODEC_LEVEL
    #: Compression level for the sorted output chunks (None = default
    #: codec, gzip level 6).
    output_codec_level: "int | None" = None
    #: Partitioned phase-2 merge kernels.  None = auto: one kernel per
    #: backend worker when a *multi-worker* backend is supplied, else
    #: the single-kernel merge (partitioning trades streamed emission
    #: for parallel decode + merge compute, so it only pays when
    #: workers can actually overlap).
    merge_partitions: "int | None" = None
    #: Raw-scratch negotiation.  None = auto: spill in the raw
    #: (identity-codec) frame layout when the scratch store resolves to
    #: a local directory (see :func:`local_scratch_root`) so phase 2 can
    #: ``mmap`` spills and decode them in place; gzip otherwise.  True
    #: forces raw frames even for non-mappable stores (no inflate cost,
    #: but restore copies through ``scratch.get``); False forces the
    #: gzip fallback everywhere.
    raw_scratch: "bool | None" = None

    def resolve_scratch_codec(self, scratch) -> str:
        """Scratch codec name after raw-scratch negotiation.

        Write-side only: restore reads whatever codec each spill's
        header declares, so mixed scratch (a resumed run that changed
        the setting) still merges byte-identically.
        """
        if self.raw_scratch is None:
            return "none" if local_scratch_root(scratch) is not None \
                else "gzip"
        return "none" if self.raw_scratch else "gzip"

    def output_codec(self) -> "Codec":
        if self.output_codec_level is None:
            return DEFAULT_CODEC
        return leveled_codec("gzip", self.output_codec_level)

    def resolve_merge_partitions(self, backend) -> int:
        """Number of phase-2 merge kernels for a given backend.

        Auto partitions only on multi-worker backends that share the
        caller's memory (the thread backend).  For a process pool the
        *payload* direction is now cheap — spill locality hands each
        kernel only its own compressed sub-chunk blobs, shm-shippable —
        but the merged columns still return through IPC (the whole
        dataset), so auto stays conservative and process pools opt in
        explicitly via ``merge_partitions``.
        """
        if backend is None:
            return 1
        if self.merge_partitions is not None:
            return max(1, self.merge_partitions)
        workers = getattr(backend, "workers", 1)
        if workers > 1 and getattr(backend, "shares_caller_memory", True):
            return workers
        return 1


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


def _concat_columns(ordered_columns: "list[str]", chunks: "list[dict]",
                    decode=read_column) -> "dict[str, RaggedColumn]":
    """Per column, the records of every chunk in order, as one column.

    A chunk's value is a decoded column (or record list, wrapped once by
    ``concat``) or a chunk blob, which ``decode`` turns into a column.
    """
    blob_types = (bytes, bytearray, memoryview, SpillFileRef)
    return {
        column: get_record_codec(
            record_type_for_column(column)
        ).column_class.concat([
            decode(chunk[column]) if isinstance(chunk[column], blob_types)
            else chunk[column]
            for chunk in chunks
        ])
        for column in ordered_columns
    }


def _take_columns(columns: "dict[str, RaggedColumn]",
                  index) -> "dict[str, RaggedColumn]":
    return {name: column.take(index) for name, column in columns.items()}


def sort_run_task(shared, payload) -> dict:
    """Backend task: sort one superchunk run and encode its spill.

    ``chunks`` holds, per input chunk, ``{column: chunk blob}`` (the
    eager sort fans blobs out) or ``{column: decoded column}`` (chunks
    that arrived through a pipeline queue).  One key array, one stable
    permutation, one gather per column; the encoded result is partition-
    aware (see :func:`encode_run_spill`).  Picklable both ways; the
    caller writes the returned blobs via :func:`store_run_spill` (worker
    processes must not touch caller-side stores).
    """
    (order, ordered_columns, chunks, scratch_level, boundaries,
     partitions, scratch_codec) = payload
    columns = _concat_columns(ordered_columns, chunks)
    perm, keys = sort_permutation(order, columns[key_column(order)])
    return encode_run_spill(
        _take_columns(columns, perm),
        None if keys is None else keys[perm],
        scratch_level, boundaries, partitions, scratch_codec,
    )


# ---------------------------------------------------------------------------
# Spill-as-views: local raw-framed spills restored through mmap leases.


def local_scratch_root(store) -> "Path | None":
    """Directory behind a scratch store, if it has one.

    Unwraps the repo's store wrappers (``JournaledStore.store``,
    ``LocalCacheStore``/``CountingStore`` ``.backing``) down to a
    :class:`~repro.storage.base.DirectoryStore` ``root``; None for
    in-memory or otherwise non-mappable stores.  This is the whole
    raw-scratch negotiation: a local directory means phase 2 can
    ``mmap`` spill files instead of copying blobs out of the store.
    """
    seen: set[int] = set()
    while store is not None and id(store) not in seen:
        seen.add(id(store))
        root = getattr(store, "root", None)
        if root is not None:
            return Path(root)
        store = getattr(store, "backing", None) or getattr(store, "store",
                                                          None)
    return None


@dataclass(frozen=True)
class SpillFileRef:
    """A spill sub-chunk by file path instead of blob bytes.

    What crosses the backend boundary on the spill-view path: ~100
    bytes regardless of run size.  ``nbytes`` is the on-disk frame size
    so :func:`~repro.dataflow.backends.payload_nbytes` batches by the
    mapped payload, not the pickled ref.
    """

    path: str
    nbytes: int


class SpillLease:
    """:class:`~repro.dataflow.shm.SegmentLease`-style guard over one
    mmap'ed spill file.

    ``buf`` is a read-only view of the mapped frame; records decoded
    from it alias page-cache memory, so the lease must outlive every
    view derived from it.  Merge kernels decode (materializing records
    in the same pass) and release immediately; :meth:`release` returns
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


def open_spill_ref(ref: SpillFileRef) -> "tuple[memoryview, SpillLease]":
    """Map one spilled sub-chunk; returns ``(frame_view, lease)``.

    The worker-side half of the spill-view path: kernels decode the
    returned view in place and release the lease before returning."""
    lease = SpillLease(ref.path)
    return lease.buf, lease


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


def _spill_header(blob):
    """Header of one spill blob without pulling its bytes: just the
    header read from the file when ``blob`` is a :class:`SpillFileRef`."""
    if isinstance(blob, SpillFileRef):
        with open(blob.path, "rb") as fh:
            return read_chunk_header(fh.read(HEADER_SIZE))
    return read_chunk_header(blob)


def _result_stats_snapshot(backend) -> "dict | None":
    """Snapshot a backend's result-path counters (None when the backend
    does not account results — serial/thread, or shm off)."""
    stats = getattr(backend, "result_stats", None)
    return dict(stats) if stats else None


def _credit_result_stats(counters: "dict | None", backend,
                         snapshot: "dict | None") -> None:
    """Fold the backend's result-path counter deltas since ``snapshot``
    into ``counters``.  Copied result segments also count as
    ``decode_copies`` so one counter covers the whole sort memory plane
    (spill restore *and* worker→coordinator results)."""
    if counters is None or snapshot is None:
        return
    stats = getattr(backend, "result_stats", None) or {}
    for key, value in stats.items():
        delta = value - snapshot.get(key, 0)
        if delta:
            counters[key] = counters.get(key, 0) + delta
    copies = stats.get("result_copies", 0) - snapshot.get("result_copies", 0)
    if copies:
        counters["decode_copies"] = counters.get("decode_copies", 0) + copies


# ---------------------------------------------------------------------------
# Spill locality: runs spilled as per-partition sub-chunks at shared key
# boundaries, so each phase-2 merge kernel touches only its key range.


@dataclass
class SpilledRun:
    """One sorted run in the scratch store (phase 1's product).

    ``entries`` lists the run's chunk entries in row order (one jumbo
    superchunk, or the non-empty partition sub-chunks — concatenating
    them reproduces the sorted run either way).  ``partitions`` is the
    per-key-range sub-chunk list (None entries for ranges the run has no
    rows in), present only for partition-spilled runs.  ``nbytes`` is
    the total stored frame size (what a restore will map or read; 0 when
    unknown, e.g. a ledger-adopted run), so byte-batching over run
    payloads sees the real weight, not the pickled entry list.
    ``index`` is the run's position in spill order.
    """

    entries: "list[ChunkEntry]"
    partitions: "list[ChunkEntry | None] | None" = None
    nbytes: int = 0
    index: int = 0


def _widen_keys(keys: np.ndarray, other: np.ndarray):
    """Give bytes-keyed arrays a common S-width so searchsorted compares
    content, not truncations (packed uint64 keys pass through)."""
    if keys.dtype.kind != "S" or keys.dtype == other.dtype:
        return keys, other
    width = max(keys.dtype.itemsize, other.dtype.itemsize)
    return keys.astype(f"S{width}"), other.astype(f"S{width}")


def spill_boundaries(keys: np.ndarray, partitions: int) -> np.ndarray:
    """Boundary keys splitting one sorted run into ``<= partitions``
    key ranges of roughly equal row counts (deduplicated, so equal keys
    never produce an empty self-partition)."""
    picks = []
    for k in range(1, partitions):
        if keys.size == 0:
            break
        b = keys[(keys.size * k) // partitions]
        if not picks or b != picks[-1]:
            picks.append(b)
    return np.array(picks, dtype=keys.dtype)


def encode_boundaries(boundaries: "np.ndarray | None") -> "dict | None":
    """JSON-encode shared spill boundaries for the run ledger.

    Boundaries are packed-uint64 or fixed-width-bytes key arrays; the
    dtype string plus raw bytes round-trips either exactly.
    """
    if boundaries is None:
        return None
    return {
        "dtype": boundaries.dtype.str,
        "data": base64.b64encode(boundaries.tobytes()).decode("ascii"),
    }


def decode_boundaries(doc: "dict | None") -> "np.ndarray | None":
    """Inverse of :func:`encode_boundaries`."""
    if not doc:
        return None
    raw = base64.b64decode(doc["data"])
    return np.frombuffer(raw, dtype=np.dtype(doc["dtype"])).copy()


def partition_row_ranges(
    keys: np.ndarray, boundaries: np.ndarray
) -> "list[tuple[int, int]]":
    """Split one sorted run's rows at the shared boundary keys.

    ``searchsorted(side="left")`` everywhere: rows whose key equals a
    boundary always fall in the range *starting* at that boundary, in
    every run, so equal keys never straddle partitions.
    """
    keys, boundaries = _widen_keys(keys, boundaries)
    cuts = np.searchsorted(keys, boundaries, side="left")
    edges = [0, *(int(c) for c in cuts), int(keys.size)]
    return list(zip(edges[:-1], edges[1:]))


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


def encode_run_spill(
    columns: "dict[str, RaggedColumn]",
    keys: "np.ndarray | None",
    scratch_level: int,
    boundaries: "np.ndarray | None",
    partitions: int,
    scratch_codec: str = "gzip",
) -> dict:
    """Encode one *sorted* run (its columns, in spill column order) for
    the scratch store.

    With ``partitions >= 2`` and packed ``keys`` (the run's sorted key
    array), the run is encoded as per-key-range sub-chunks (``parts``:
    one ``(count, {column: blob})`` per range, blobs None when empty).
    ``boundaries=None`` derives the shared boundary keys from this run's
    quantiles and returns them — the first run of a sort fixes the key
    ranges every later run spills against.  Unpackable keys
    (``keys=None``) or ``partitions <= 1`` fall back to one jumbo chunk
    per column under ``columns``.

    ``scratch_codec`` is the negotiated spill codec name (``"none"``
    writes the raw frame layout phase 2 can mmap and decode in place;
    see :meth:`SortConfig.resolve_scratch_codec`).
    """
    codec = leveled_codec(scratch_codec, scratch_level)
    record_count = len(next(iter(columns.values())))
    if partitions < 2 or keys is None:
        return {
            "record_count": record_count,
            "columns": _encode_columns(columns, codec),
            "parts": None,
            "boundaries": None,
        }
    if boundaries is None:
        boundaries = spill_boundaries(keys, partitions)
    parts = [
        (hi - lo,
         _encode_columns(_slice_columns(columns, lo, hi), codec)
         if hi > lo else None)
        for lo, hi in partition_row_ranges(keys, boundaries)
    ]
    return {
        "record_count": record_count,
        "columns": None,
        "parts": parts,
        "boundaries": boundaries,
    }


def store_run_spill(scratch: ChunkStore, run_index: int,
                    spill: dict) -> SpilledRun:
    """Write one encoded run spill to the scratch store (caller side —
    worker processes never touch stores).

    Blob values may be ``memoryview``s (raw-framed process-backend
    results delivered as segment views) — stores accept any buffer, and
    the views are consumed here, inside the caller's result lease
    window."""
    nbytes = 0
    if spill["parts"] is None:
        entry = ChunkEntry(
            f"superchunk-{run_index}", 0, spill["record_count"]
        )
        for column, blob in spill["columns"].items():
            scratch.put(entry.chunk_file(column), blob)
            nbytes += len(blob)
        return SpilledRun(entries=[entry], nbytes=nbytes, index=run_index)
    partition_entries: "list[ChunkEntry | None]" = []
    for p, (count, blobs) in enumerate(spill["parts"]):
        if blobs is None:
            partition_entries.append(None)
            continue
        entry = ChunkEntry(f"superchunk-{run_index}-part{p}", 0, count)
        for column, blob in blobs.items():
            scratch.put(entry.chunk_file(column), blob)
            nbytes += len(blob)
        partition_entries.append(entry)
    return SpilledRun(
        entries=[e for e in partition_entries if e is not None],
        partitions=partition_entries,
        nbytes=nbytes,
        index=run_index,
    )


def _decode_spill(blob, counters: "dict | None" = None) -> RaggedColumn:
    """Decode one spilled column blob — bytes, or a :class:`SpillFileRef`
    mapped under a :class:`SpillLease` for just as long as the decode
    takes (a decoded column owns its storage)."""
    if not isinstance(blob, SpillFileRef):
        _credit_spill(counters, read_chunk_header(blob))
        return read_column(blob)
    view, lease = open_spill_ref(blob)
    try:
        _credit_spill(counters, read_chunk_header(view))
        return read_column(view)
    finally:
        del view
        lease.release()


def _merge_permutation(order: str,
                       columns: "dict[str, RaggedColumn]") -> np.ndarray:
    """The k-way merge of sorted runs laid end to end in ``columns``, as
    a permutation: one stable sort over the concatenated keys — ties
    keep run order, a merge heap's tie-break."""
    return sort_permutation(order, columns[key_column(order)])[0]


def merge_partition_blobs_task(shared, payload) -> "dict[str, RaggedColumn]":
    """Backend task: merge one key-range partition straight from spilled
    sub-chunk blobs (the spill-locality path).

    ``payload`` carries, per run, *this partition's* sub-chunk of each
    run only (None for runs empty in the range), so a worker decodes
    exactly its own key range of each run — never a whole run.  A value
    is either the blob bytes (gzip/remote scratch) or a
    :class:`SpillFileRef` (the spill-view path, mapped and decoded in
    place).  Returns the partition's merged columns; partitions chained
    in key order equal the full merge.
    """
    order, ordered_columns, blob_maps = payload
    columns = _concat_columns(
        ordered_columns, [b for b in blob_maps if b is not None],
        decode=_decode_spill,
    )
    return _take_columns(columns, _merge_permutation(order, columns))


def sort_dataset(
    dataset: AGDDataset,
    output_store: ChunkStore,
    config: "SortConfig | None" = None,
    scratch_store: "ChunkStore | None" = None,
    backend=None,
    counters: "dict | None" = None,
) -> AGDDataset:
    """Sort a dataset into ``output_store``; returns the sorted dataset.

    Phase 1 reads ``chunks_per_superchunk`` chunks at a time, sorts
    their columns (:func:`sort_run_task`), and writes each sorted run as
    a *superchunk* into the scratch store.  Phase 2 merges the runs and
    emits final chunks (:func:`iter_merged_chunks`).

    ``backend`` (a :class:`~repro.dataflow.backends.Backend`) fans the
    independent phase-1 run sorts out across workers and splits phase 2
    into partitioned merge kernels (see
    :data:`SortConfig.merge_partitions`); ``None`` keeps the sequential
    single-kernel path.  Output bytes are identical either way.

    ``counters`` (optional dict) accumulates the memory-plane
    accounting: ``spill_view_bytes``/``decode_copies`` from spill
    restore (see :func:`_credit_spill`) plus the backend's result-path
    deltas (``result_view_bytes``/``result_copies``).
    """
    config = config or SortConfig()
    if config.chunks_per_superchunk <= 0:
        raise ValueError("chunks_per_superchunk must be positive")
    manifest = dataset.manifest
    columns = list(manifest.columns)
    if config.order == "location" and "results" not in columns:
        raise ValueError("location sort needs a results column; align first")
    key_column(config.order)  # unknown orders fail before any work
    scratch = scratch_store if scratch_store is not None else MemoryStore()
    ordered_columns = _key_first_columns(columns)

    # ---------------------------------------------------- phase 1: runs
    groups: list[list[int]] = [
        list(range(start, min(start + config.chunks_per_superchunk,
                              manifest.num_chunks)))
        for start in range(0, manifest.num_chunks,
                           config.chunks_per_superchunk)
    ]
    merge_partitions = config.resolve_merge_partitions(backend)
    scratch_codec = config.resolve_scratch_codec(scratch)

    def group_payload(boundaries, partitions):
        def payload(group: "list[int]"):
            return (
                config.order,
                ordered_columns,
                [
                    {column: dataset.store.get(
                        manifest.chunks[i].chunk_file(column))
                     for column in ordered_columns}
                    for i in group
                ],
                config.scratch_codec_level,
                boundaries,
                partitions,
                scratch_codec,
            )
        return payload

    runs: "list[SpilledRun]" = []
    if backend is None:
        for group in groups:
            spill = sort_run_task(None, group_payload(None, 1)(group))
            runs.append(store_run_spill(scratch, len(runs), spill))
    else:
        from repro.dataflow.backends import run_in_waves

        rest = groups
        rest_partitions = merge_partitions
        boundaries = None
        result_snapshot = _result_stats_snapshot(backend)
        if merge_partitions >= 2 and groups:
            # The first run alone fixes the shared key-range boundaries
            # every run spills against (spill locality: each phase-2
            # merge kernel will read only its own range of every run).
            [spill] = backend.run_chunk(
                sort_run_task,
                [group_payload(None, merge_partitions)(groups[0])],
            )
            boundaries = spill["boundaries"]
            runs.append(store_run_spill(scratch, 0, spill))
            rest = groups[1:]
            if boundaries is None:
                # Unpackable keys: no shared ranges exist; later runs
                # must not invent their own.
                rest_partitions = 1
        # Waved dispatch keeps the external sort's bounded memory: only
        # a couple of chunk groups per worker are resident at a time.
        for _group, _payload, spill in run_in_waves(
            backend, sort_run_task, rest,
            group_payload(boundaries, rest_partitions),
        ):
            runs.append(store_run_spill(scratch, len(runs), spill))
        _credit_result_stats(counters, backend, result_snapshot)

    # --------------------------------------------------- phase 2: merge
    out_chunk_size = config.output_chunk_size or (
        manifest.chunks[0].record_count if manifest.chunks else 1
    )
    entries = [
        entry
        for entry, _columns in iter_merged_chunks(
            scratch, runs, ordered_columns, config.order,
            out_chunk_size, manifest.name, output_store,
            backend=backend,
            merge_partitions=merge_partitions,
            out_codec=config.output_codec(),
            counters=counters,
        )
    ]
    sorted_manifest = build_sorted_manifest(
        manifest.name, columns, entries, manifest.reference, config.order
    )
    return AGDDataset(sorted_manifest, output_store)


def _spill_partition_count(runs: "list[SpilledRun]") -> "int | None":
    """Shared partition count when EVERY run was spilled partitioned at
    the same boundaries (partition lists are index-aligned); None when
    any run is a whole-run spill (mixed spills merge in one kernel over
    the whole runs instead)."""
    counts = {len(run.partitions) for run in runs
              if run.partitions is not None}
    if len(counts) != 1 or any(run.partitions is None for run in runs):
        return None
    return counts.pop()


def _merged_batches(
    scratch: ChunkStore,
    runs: "list",
    ordered_columns: "list[str]",
    order: str,
    batch_size: int,
    backend,
    merge_partitions: int,
    counters: "dict | None" = None,
):
    """The runs' records in globally sorted order, as a stream of column
    batches (``{column: RaggedColumn}``).

    Spill-locality path (every run partition-spilled + a backend): one
    :func:`merge_partition_blobs_task` per key range, each decoding only
    its own sub-chunks of every run — a :class:`SpillFileRef` per
    sub-chunk on a local scratch directory (the kernel mmaps the raw
    frame and decodes it in place), the blob bytes otherwise; every
    range's merged columns are one batch.  Otherwise (no backend, one
    partition, whole-run or mixed spills): decode every run in the
    caller, one stable permutation over the concatenated keys, and one
    gather per ``batch_size`` records — a batch is only built when the
    consumer asks for it.
    """
    root = local_scratch_root(scratch)

    def spilled(entry: ChunkEntry, column: str):
        """A spilled column: a file ref to mmap when the scratch store
        is a local directory, the blob bytes otherwise."""
        chunk_file = entry.chunk_file(column)
        if root is not None:
            path = root / chunk_file
            try:
                return SpillFileRef(str(path), os.path.getsize(path))
            except OSError:
                pass
        return scratch.get(chunk_file)

    partitions = None
    if backend is not None and merge_partitions >= 2:
        partitions = _spill_partition_count(runs)
    if partitions is None:
        columns = _concat_columns(
            ordered_columns,
            [{column: spilled(entry, column) for column in ordered_columns}
             for run in runs for entry in run.entries],
            decode=lambda blob: _decode_spill(blob, counters),
        )
        perm = _merge_permutation(order, columns)
        for lo in range(0, perm.size, batch_size):
            yield _take_columns(columns, perm[lo:lo + batch_size])
        return
    payloads = []
    for p in range(partitions):
        blob_maps = []
        for run in runs:
            entry = run.partitions[p]
            if entry is None:
                blob_maps.append(None)
                continue
            blobs = {column: spilled(entry, column)
                     for column in ordered_columns}
            for blob in blobs.values():
                _credit_spill(counters, _spill_header(blob))
            blob_maps.append(blobs)
        payloads.append((order, ordered_columns, blob_maps))
    result_snapshot = _result_stats_snapshot(backend)
    yield from backend.run_chunk(merge_partition_blobs_task, payloads)
    _credit_result_stats(counters, backend, result_snapshot)


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


def iter_merged_chunks(
    scratch: ChunkStore,
    runs: "list[SpilledRun]",
    ordered_columns: "list[str]",
    order: str,
    out_chunk_size: int,
    dataset_name: str,
    output_store: ChunkStore,
    backend=None,
    merge_partitions: int = 1,
    out_codec: "Codec | str" = DEFAULT_CODEC,
    counters: "dict | None" = None,
    deferred_columns: "tuple[str, ...]" = (),
):
    """Phase 2 of the external sort: merge sorted runs and write final
    chunks; yields ``(entry, columns)`` per chunk written.
    ``deferred_columns`` are merged and yielded but neither encoded nor
    put: the stage that consumes the stream writes them (a dupmark stage
    directly downstream flags the results column before its only write).

    Shared by the eager :func:`sort_dataset` and the streaming
    :class:`~repro.core.ops.SuperchunkMergeNode` so the two paths'
    chunk naming, ordinals, and bytes cannot drift apart.  A generator:
    each output chunk is gathered, written and yielded before the next
    is touched.  With a ``backend`` and ``merge_partitions >= 2`` the
    merge itself runs as partitioned kernels (see
    :func:`_merged_batches`); chunk emission is unchanged either way.
    ``counters`` accumulates the restore-side memory-plane accounting
    (see :func:`_credit_spill`).
    """
    sorted_name = f"{dataset_name}-sorted"
    total = 0
    batches = _merged_batches(
        scratch, runs, ordered_columns, order, out_chunk_size, backend,
        merge_partitions, counters=counters,
    )
    for index, columns in enumerate(
        _rechunk(batches, out_chunk_size, ordered_columns[0])
    ):
        entry = ChunkEntry(
            f"{sorted_name}-{index}", total, len(columns[ordered_columns[0]])
        )
        written = {name: column for name, column in columns.items()
                   if name not in deferred_columns}
        for column, blob in _encode_columns(
            written, out_codec, first_ordinal=total
        ).items():
            output_store.put(entry.chunk_file(column), blob)
        total += entry.record_count
        yield entry, columns


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
