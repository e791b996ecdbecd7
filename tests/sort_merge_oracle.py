"""Phase 2 of the external sort as it was before the cursor merge, kept
as the test oracle for ``repro.core.sort``'s k-way merge.

It restores every run whole, concatenates every column of the whole
dataset, sorts all of it with one stable Python sort over each record's
key (``location_key()`` or the metadata bytes), and gathers one output
chunk at a time.  Memory grows with the dataset, which is why the merge
replaced it; agreeing with it byte for byte (output chunks and
manifests) means the merge changed nothing but memory.
"""

from __future__ import annotations

from repro.agd.chunk import read_column, write_chunk
from repro.agd.compression import DEFAULT_CODEC
from repro.agd.dataset import AGDDataset
from repro.agd.manifest import ChunkEntry
from repro.agd.records import get_record_codec, record_type_for_column
from repro.core.sort import (
    SortConfig,
    _key_first_columns,
    build_sorted_manifest,
    sort_run,
)
from repro.storage.base import MemoryStore


def restore_runs(scratch, runs, ordered_columns) -> dict:
    """Every run's records, in run order, as one column per name: a held
    run's columns as they are, a stored run's entries read whole."""
    columns = {}
    for name in ordered_columns:
        parts = []
        for run in runs:
            if run.columns is not None:
                parts.append(run.columns[name])
            parts.extend(read_column(scratch.get(entry.chunk_file(name)))
                         for entry in run.entries)
        columns[name] = get_record_codec(
            record_type_for_column(name)).column_class.concat(parts)
    return columns


def oracle_merged_chunks(scratch, runs, ordered_columns, order: str,
                         out_chunk_size: int, dataset_name: str,
                         output_store,
                         out_codec=DEFAULT_CODEC) -> "list[ChunkEntry]":
    """Merge ``runs`` by re-sorting their concatenation; writes the
    sorted chunks to ``output_store`` and returns their entries."""
    columns = restore_runs(scratch, runs, ordered_columns)
    if order == "location":
        keys = [result.location_key() for result in columns["results"]]
    else:
        keys = list(columns["metadata"])
    perm = sorted(range(len(keys)), key=keys.__getitem__)
    entries = []
    for index, lo in enumerate(range(0, len(perm), out_chunk_size)):
        rows = perm[lo:lo + out_chunk_size]
        entry = ChunkEntry(f"{dataset_name}-sorted-{index}", lo, len(rows))
        for name, column in columns.items():
            output_store.put(entry.chunk_file(name), write_chunk(
                column.take(rows), record_type_for_column(name),
                first_ordinal=lo, codec=out_codec))
        entries.append(entry)
    return entries


def oracle_sort_dataset(dataset: AGDDataset, output_store,
                        config: "SortConfig | None" = None,
                        scratch_store=None) -> AGDDataset:
    """``sort_dataset`` with this merge as phase 2 (phase 1 is
    ``sort_run``, as in the sort itself)."""
    config = config or SortConfig()
    scratch = scratch_store if scratch_store is not None else MemoryStore()
    manifest = dataset.manifest
    ordered = _key_first_columns(list(manifest.columns))
    step = config.chunks_per_superchunk
    runs = [
        sort_run(scratch, index, config.order, ordered,
                 [{c: dataset.store.get(entry.chunk_file(c)) for c in ordered}
                  for entry in manifest.chunks[start:start + step]])
        for index, start in enumerate(range(0, manifest.num_chunks, step))
    ]
    size = config.output_chunk_size or (
        manifest.chunks[0].record_count if manifest.chunks else 1)
    entries = oracle_merged_chunks(scratch, runs, ordered, config.order, size,
                                   manifest.name, output_store,
                                   config.output_codec())
    return AGDDataset(
        build_sorted_manifest(manifest.name, list(manifest.columns), entries,
                              manifest.reference, config.order),
        output_store,
    )
