"""The scalar row sort, kept as the test oracle for the columnar sort.

This is the external merge sort as ``repro.core.sort`` implemented it
before the columnar record plane: every record of every column decoded
into a Python object, zipped into row tuples, ``list.sort``-ed per run by
a tuple key, spilled, and merged one row at a time through
``heapq.merge``.  It is deliberately plain Python — no numpy keys, no
permutations — so that agreeing with it byte for byte (scratch spills
and output chunks) means the columnar sort changed nothing but speed.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left

from repro.agd.chunk import read_chunk, write_chunk
from repro.agd.dataset import AGDDataset
from repro.agd.manifest import ChunkEntry
from repro.agd.records import record_type_for_column
from repro.core.sort import (
    SortConfig,
    SpilledRun,
    build_sorted_manifest,
    scratch_codec,
)
from repro.storage.base import MemoryStore
from repro.storage.diskmodel import DiskModel
from repro.storage.local import ModeledDiskStore

UNMAPPED_PACKED_KEY = (1 << 64) - 1


def remote_scratch() -> ModeledDiskStore:
    """A scratch store of the *remote* kind (``scratch_kind``): an
    unthrottled modeled disk over memory.  The sort spills to it gzip at
    ``SCRATCH_CODEC_LEVEL`` and restores through ``get``, so its blobs
    can be compared with the oracle's."""
    return ModeledDiskStore(DiskModel(read_bandwidth=float("inf")),
                            MemoryStore())


def sort_key_for(order: str, meta_index: int = 1):
    """Key extractor over a row tuple laid out key-first."""
    if order == "location":
        return lambda row: row[0].location_key()
    if order == "metadata":
        return lambda row: row[meta_index]
    raise ValueError(f"unknown sort order {order!r} (location|metadata)")


def key_first_columns(columns):
    """Order columns so rows are (results, metadata, rest...)."""
    rest = [c for c in columns if c not in ("results", "metadata")]
    ordered = [c for c in ("results", "metadata") if c in columns]
    return ordered + sorted(rest)


def metadata_row_index(ordered_columns) -> int:
    try:
        return ordered_columns.index("metadata")
    except ValueError:
        return 1


def packed_keys(order: str, rows, meta_index: int):
    """Partitioning keys as plain Python values, or None when the rows
    cannot define shared key ranges (position outside 32 bits, NUL in
    metadata) — the cases the packed numpy keys cannot represent."""
    if order == "metadata":
        keys = [row[meta_index] for row in rows]
        return None if any(b"\0" in key for key in keys) else keys
    keys = []
    for row in rows:
        result = row[0]
        if not result.is_aligned:
            keys.append(UNMAPPED_PACKED_KEY)
        elif result.contig_index < 0 or not 0 <= result.position < 1 << 32:
            return None
        else:
            keys.append((result.contig_index << 32) | result.position)
    return keys


def read_rows(blobs_by_column: "dict[str, bytes]", ordered_columns):
    return list(zip(*(read_chunk(blobs_by_column[c]).records
                      for c in ordered_columns)))


def write_rows(rows, ordered_columns, codec, first_ordinal=0):
    return {
        column: write_chunk(
            [row[i] for row in rows], record_type_for_column(column),
            first_ordinal=first_ordinal, codec=codec,
        )
        for i, column in enumerate(ordered_columns)
    }


def oracle_spill_runs(dataset: AGDDataset, scratch, config: SortConfig,
                      partitions: int = 1) -> "list[SpilledRun]":
    """Phase 1: sorted runs written to ``scratch`` in the on-scratch
    layout: ``superchunk-<run>`` files, or — ``partitions >= 2``, the
    per-key-range layout ``repro.core.sort`` wrote before it kept one
    merge, which a resumed run may still find in its scratch —
    ``superchunk-<run>-part<p>`` files."""
    manifest = dataset.manifest
    ordered = key_first_columns(list(manifest.columns))
    meta_index = metadata_row_index(ordered)
    key_fn = sort_key_for(config.order, meta_index)
    codec = scratch_codec(scratch)
    runs: "list[SpilledRun]" = []
    boundaries = None
    step = config.chunks_per_superchunk
    for run_index, start in enumerate(range(0, manifest.num_chunks, step)):
        rows = []
        for entry in manifest.chunks[start:start + step]:
            rows.extend(read_rows(
                {c: dataset.store.get(entry.chunk_file(c)) for c in ordered},
                ordered,
            ))
        rows.sort(key=key_fn)
        keys = packed_keys(config.order, rows, meta_index) \
            if partitions >= 2 else None
        if run_index == 0 and keys is None:
            partitions = 1  # no shared ranges: no later run may invent any
        if keys is None:
            entry = ChunkEntry(f"superchunk-{run_index}", 0, len(rows))
            for column, blob in write_rows(rows, ordered, codec).items():
                scratch.put(entry.chunk_file(column), blob)
            runs.append(SpilledRun(entries=[entry]))
            continue
        if boundaries is None:
            boundaries = []
            for k in range(1, partitions):
                pick = keys[(len(keys) * k) // partitions] if keys else None
                if keys and (not boundaries or pick != boundaries[-1]):
                    boundaries.append(pick)
        edges = [0, *(bisect_left(keys, b) for b in boundaries), len(keys)]
        parts = []
        for p, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            if hi == lo:
                parts.append(None)
                continue
            entry = ChunkEntry(f"superchunk-{run_index}-part{p}", 0, hi - lo)
            for column, blob in write_rows(rows[lo:hi], ordered,
                                           codec).items():
                scratch.put(entry.chunk_file(column), blob)
            parts.append(entry)
        runs.append(SpilledRun(entries=[e for e in parts if e is not None]))
    return runs


def oracle_merge(dataset: AGDDataset, scratch, runs, output_store,
                 config: SortConfig) -> AGDDataset:
    """Phase 2: ``heapq.merge`` over the runs' rows, re-chunked."""
    manifest = dataset.manifest
    ordered = key_first_columns(list(manifest.columns))
    key_fn = sort_key_for(config.order, metadata_row_index(ordered))
    streams = [
        [row for entry in run.entries for row in read_rows(
            {c: scratch.get(entry.chunk_file(c)) for c in ordered}, ordered)]
        for run in runs
    ]
    merged = list(heapq.merge(*streams, key=key_fn))
    size = config.output_chunk_size or (
        manifest.chunks[0].record_count if manifest.chunks else 1)
    entries = []
    for index, lo in enumerate(range(0, len(merged), size)):
        rows = merged[lo:lo + size]
        entry = ChunkEntry(f"{manifest.name}-sorted-{index}", lo, len(rows))
        for column, blob in write_rows(rows, ordered, config.output_codec(),
                                       first_ordinal=lo).items():
            output_store.put(entry.chunk_file(column), blob)
        entries.append(entry)
    return AGDDataset(
        build_sorted_manifest(manifest.name, list(manifest.columns), entries,
                              manifest.reference, config.order),
        output_store,
    )


def oracle_sort_dataset(dataset: AGDDataset, output_store,
                        config: "SortConfig | None" = None,
                        scratch_store=None,
                        partitions: int = 1) -> AGDDataset:
    """The whole scalar sort; same outputs as ``sort_dataset``."""
    config = config or SortConfig()
    scratch = scratch_store if scratch_store is not None else MemoryStore()
    runs = oracle_spill_runs(dataset, scratch, config, partitions)
    return oracle_merge(dataset, scratch, runs, output_store, config)
