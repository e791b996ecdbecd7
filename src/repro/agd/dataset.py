"""High-level AGD dataset reader/writer.

An AGD dataset is "a table of records, each of which contains one or more
fields (i.e., a relational table)" stored column-wise in chunk files plus
a manifest (§3).  This module provides the whole-dataset view: writing a
dataset from per-column record lists, selective column reads, appending
new columns (e.g. alignment results), and random record access via
on-the-fly absolute indices.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Sequence

from repro.agd.chunk import (
    Chunk,
    read_chunk,
    read_chunk_data,
    write_chunk,
)
from repro.agd.compression import DEFAULT_CODEC, Codec
from repro.agd.manifest import ChunkEntry, Manifest, ManifestError
from repro.agd.records import get_record_codec, record_type_for_column
from repro.storage.base import ChunkStore, DirectoryStore, MemoryStore

#: Paper configuration: "Unless noted, the AGD chunk size is 100,000".
DEFAULT_CHUNK_SIZE = 100_000


class AGDDataset:
    """One AGD dataset bound to a chunk store."""

    def __init__(self, manifest: Manifest, store: ChunkStore):
        self.manifest = manifest
        self.store = store

    # ------------------------------------------------------------- creation

    @classmethod
    def create(
        cls,
        name: str,
        columns: dict[str, Sequence],
        store: ChunkStore,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        codecs: "dict[str, Codec | str] | None" = None,
        reference: "list[dict] | None" = None,
        sort_order: str = "unsorted",
    ) -> "AGDDataset":
        """Write a new dataset from per-column record sequences.

        All columns must be row-grouped (equal record counts); chunk
        boundaries are shared across columns so record indices align (§3).
        """
        if not columns:
            raise ManifestError("dataset needs at least one column")
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        counts = {col: len(records) for col, records in columns.items()}
        if len(set(counts.values())) != 1:
            raise ManifestError(
                f"columns are not row-grouped (record counts {counts})"
            )
        total = next(iter(counts.values()))
        if total == 0:
            raise ManifestError("dataset must contain at least one record")
        codecs = codecs or {}
        entries: list[ChunkEntry] = []
        for first in range(0, total, chunk_size):
            count = min(chunk_size, total - first)
            index = len(entries)
            entries.append(ChunkEntry(f"{name}-{index}", first, count))
        manifest = Manifest(
            name=name,
            columns=sorted(columns),
            chunks=entries,
            reference=reference or [],
            sort_order=sort_order,
        )
        dataset = cls(manifest, store)
        for column, records in columns.items():
            codec = codecs.get(column, DEFAULT_CODEC)
            dataset._write_column_chunks(column, records, codec)
        return dataset

    def _write_column_chunks(
        self, column: str, records: Sequence, codec: "Codec | str"
    ) -> None:
        record_type = record_type_for_column(column)
        for entry in self.manifest.chunks:
            blob = write_chunk(
                records[entry.first_ordinal : entry.first_ordinal + entry.record_count],
                record_type,
                first_ordinal=entry.first_ordinal,
                codec=codec,
            )
            self.store.put(entry.chunk_file(column), blob)

    # -------------------------------------------------------------- opening

    @classmethod
    def open(cls, directory: "str | Path") -> "AGDDataset":
        """Open a dataset stored as plain files in a directory."""
        manifest = Manifest.load(directory)
        return cls(manifest, DirectoryStore(directory))

    def save_manifest(self, directory: "str | Path") -> Path:
        return self.manifest.save(directory)

    # -------------------------------------------------------------- reading

    @property
    def columns(self) -> list[str]:
        return list(self.manifest.columns)

    @property
    def total_records(self) -> int:
        return self.manifest.total_records

    @property
    def num_chunks(self) -> int:
        return self.manifest.num_chunks

    def read_chunk(self, column: str, chunk_index: int) -> Chunk:
        """Read and decode one chunk of one column."""
        entry = self.manifest.chunks[chunk_index]
        if not self.manifest.has_column(column):
            raise ManifestError(f"no column {column!r}")
        return read_chunk(self.store.get(entry.chunk_file(column)))

    def iter_chunks(self, column: str) -> Iterator[Chunk]:
        """Stream a column chunk by chunk — the selective-field access that
        row-oriented FASTQ/SAM cannot offer (§3)."""
        for i in range(self.num_chunks):
            yield self.read_chunk(column, i)

    def read_column(self, column: str) -> list:
        """Materialize an entire column (small datasets / tests)."""
        records: list = []
        for chunk in self.iter_chunks(column):
            records.extend(chunk.records)
        return records

    def read_record(self, column: str, ordinal: int):
        """Random access to one record via the on-the-fly absolute index."""
        entry, local = self.manifest.chunk_for_record(ordinal)
        blob = self.store.get(entry.chunk_file(column))
        header, rel_index, data = read_chunk_data(blob)
        codec = get_record_codec(header.record_type)
        absolute = rel_index.absolute(codec.byte_size)
        return codec.decode_one(data, absolute, local)

    # ------------------------------------------------------------ extending

    def append_column(
        self,
        column: str,
        records: Sequence,
        codec: "Codec | str" = DEFAULT_CODEC,
        record_type: "str | None" = None,
    ) -> None:
        """Add a new column to an existing dataset (§3 extensibility:
        "Persona appends alignment results to a new AGD column")."""
        if len(records) != self.total_records:
            raise ManifestError(
                f"column {column!r} has {len(records)} records, "
                f"dataset has {self.total_records}"
            )
        self.manifest.add_column(column)
        rtype = record_type or record_type_for_column(column)
        for entry in self.manifest.chunks:
            blob = write_chunk(
                records[entry.first_ordinal : entry.first_ordinal + entry.record_count],
                rtype,
                first_ordinal=entry.first_ordinal,
                codec=codec,
            )
            self.store.put(entry.chunk_file(column), blob)

    def replace_column_chunk(
        self, column: str, chunk_index: int, records: Sequence,
        codec: "Codec | str" = DEFAULT_CODEC,
    ) -> None:
        """Overwrite one chunk of one column (used by in-place updates such
        as duplicate marking, which touches only the results column)."""
        entry = self.manifest.chunks[chunk_index]
        if len(records) != entry.record_count:
            raise ManifestError(
                f"chunk {chunk_index} holds {entry.record_count} records, "
                f"got {len(records)}"
            )
        blob = write_chunk(
            records,
            record_type_for_column(column),
            first_ordinal=entry.first_ordinal,
            codec=codec,
        )
        self.store.put(entry.chunk_file(column), blob)

    def rechunk(
        self,
        chunk_size: int,
        store: "ChunkStore | None" = None,
        name: "str | None" = None,
        codecs: "dict[str, Codec | str] | None" = None,
    ) -> "AGDDataset":
        """Rewrite the dataset with a different chunk size (§3: "AGD
        columns are split into chunks ... enabling optimization for
        different storage subsystems").

        Returns a new dataset; the original is untouched.  Useful when a
        dataset tuned for archival (large chunks, better compression)
        needs low-latency chunks for compute, or vice versa.
        """
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        target = store if store is not None else MemoryStore()
        columns = {c: self.read_column(c) for c in self.columns}
        return AGDDataset.create(
            name or f"{self.manifest.name}-rechunked",
            columns,
            target,
            chunk_size=chunk_size,
            codecs=codecs,
            reference=self.manifest.reference,
            sort_order=self.manifest.sort_order,
        )

    # ------------------------------------------------------------- metrics

    def column_bytes(self, column: str) -> int:
        """Total stored (compressed) size of one column."""
        return sum(
            len(self.store.get(entry.chunk_file(column)))
            for entry in self.manifest.chunks
        )

    def total_bytes(self) -> int:
        """Total stored size across all columns."""
        return sum(self.column_bytes(c) for c in self.columns)
