"""Format converters: AGD <-> FASTQ / SAM / BAM (§3, §4.4, §5.7).

"Persona provides efficient utilities to export/import AGD to/from
existing formats (SAM/BAM/FASTQ)."  Import consumes sequencer output;
export produces row-oriented files "for compatibility with tools that have
not been integrated or do not yet support AGD".  §5.7 measures these at
360 MB/s (FASTQ import) and 82 MB/s (BAM export) on the paper's hardware;
``benchmarks/bench_sec57_conversion.py`` measures ours.
"""

from __future__ import annotations

from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from repro.agd.columns import BasesColumn, TextColumn
from repro.agd.dataset import DEFAULT_CHUNK_SIZE, AGDDataset
from repro.align.result import AlignmentResult
from repro.formats.bam import BamWriter, iter_bam
from repro.formats.fastq import format_fastq_record, parse_fastq, read_fastq
from repro.formats.sam import (
    SamHeader,
    SamRecord,
    alignment_from_record,
    iter_sam,
    record_from_alignment,
)
from repro.genome.reads import ReadBatch, ReadRecord
from repro.storage.base import ChunkStore

#: The three raw-read columns produced by import (§3: "Persona uses three
#: columns to store bases, quality scores, and metadata, and a fourth to
#: store alignment results").
READ_COLUMNS = ("bases", "qual", "metadata")


def import_reads(
    reads: Iterable[ReadRecord],
    name: str,
    store: ChunkStore,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    reference: "list[dict] | None" = None,
    codec=None,
) -> AGDDataset:
    """Materialize an iterable of reads as an AGD dataset.

    ``codec`` (a :class:`~repro.agd.compression.Codec` or name) applies
    to every column; None keeps the per-column defaults.  A
    :class:`~repro.genome.reads.ReadBatch` is stored from its matrices:
    the chunk writer slices and packs column buffers, and no read becomes
    an object on the way.
    """
    if isinstance(reads, ReadBatch):
        bounds = np.arange(len(reads) + 1, dtype=np.int64) \
            * reads.bases.shape[1]
        columns = {
            "bases": BasesColumn(reads.bases.reshape(-1), bounds),
            "qual": TextColumn(reads.qualities.reshape(-1), bounds),
            "metadata": TextColumn.from_records(reads.names),
        }
    else:
        all_reads = list(reads)
        columns = {
            "bases": [r.bases for r in all_reads],
            "qual": [r.qualities for r in all_reads],
            "metadata": [r.metadata for r in all_reads],
        }
    if not len(columns["metadata"]):
        raise ValueError("cannot import an empty read set")
    return AGDDataset.create(
        name,
        columns,
        store,
        chunk_size=chunk_size,
        reference=reference,
        codecs=({c: codec for c in columns} if codec is not None else None),
    )


def import_fastq(
    path: "str | Path",
    name: str,
    store: ChunkStore,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    codec=None,
) -> AGDDataset:
    """Import a (possibly gzipped) FASTQ file into AGD."""
    return import_reads(read_fastq(path), name, store, chunk_size=chunk_size,
                        codec=codec)


def import_fastq_stream(
    stream: BinaryIO,
    name: str,
    store: ChunkStore,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> AGDDataset:
    """Import FASTQ from an uncompressed binary stream."""
    return import_reads(parse_fastq(stream), name, store, chunk_size=chunk_size)


def export_fastq(dataset: AGDDataset, path_or_stream: "str | Path | BinaryIO") -> int:
    """Export an AGD dataset's read columns back to FASTQ."""
    own = isinstance(path_or_stream, (str, Path))
    stream: BinaryIO = (
        open(path_or_stream, "wb") if own else path_or_stream  # type: ignore[arg-type]
    )
    try:
        count = 0
        for read in iter_read_records(dataset):
            stream.write(format_fastq_record(read))
            count += 1
        return count
    finally:
        if own:
            stream.close()


def iter_read_records(dataset: AGDDataset) -> Iterator[ReadRecord]:
    """Stream (bases, qual, metadata) rows from a dataset, chunk-aligned."""
    for i in range(dataset.num_chunks):
        bases = dataset.read_chunk("bases", i).records
        quals = dataset.read_chunk("qual", i).records
        metas = dataset.read_chunk("metadata", i).records
        for meta, base, qual in zip(metas, bases, quals):
            yield ReadRecord(meta, base, qual)


def iter_sam_records(
    dataset: AGDDataset, contig_names: "list[str]"
) -> Iterator[SamRecord]:
    """Stream SAM records from a dataset with a results column."""
    for i in range(dataset.num_chunks):
        bases = dataset.read_chunk("bases", i).records
        quals = dataset.read_chunk("qual", i).records
        metas = dataset.read_chunk("metadata", i).records
        results = dataset.read_chunk("results", i).records
        for meta, base, qual, result in zip(metas, bases, quals, results):
            yield record_from_alignment(
                ReadRecord(meta, base, qual), result, contig_names
            )


def _dataset_header(dataset: AGDDataset) -> tuple[SamHeader, list[str]]:
    contigs = dataset.manifest.reference
    if not contigs:
        raise ValueError(
            "dataset has no reference info in its manifest; "
            "align it before exporting SAM/BAM"
        )
    header = SamHeader(
        contigs=list(contigs),
        sort_order=(
            "coordinate"
            if dataset.manifest.sort_order == "location"
            else "unsorted"
        ),
    )
    return header, [c["name"] for c in contigs]


def export_sam(dataset: AGDDataset, path_or_stream: "str | Path | BinaryIO") -> int:
    """Export an aligned AGD dataset as SAM text; returns record count."""
    header, names = _dataset_header(dataset)
    own = isinstance(path_or_stream, (str, Path))
    stream: BinaryIO = (
        open(path_or_stream, "wb") if own else path_or_stream  # type: ignore[arg-type]
    )
    try:
        stream.write(header.to_bytes())
        count = 0
        for record in iter_sam_records(dataset, names):
            stream.write(record.to_line())
            count += 1
        return count
    finally:
        if own:
            stream.close()


def export_bam(dataset: AGDDataset, path_or_stream: "str | Path | BinaryIO") -> int:
    """Export an aligned AGD dataset as a BAM-like file; returns bytes written."""
    header, names = _dataset_header(dataset)
    own = isinstance(path_or_stream, (str, Path))
    stream: BinaryIO = (
        open(path_or_stream, "wb") if own else path_or_stream  # type: ignore[arg-type]
    )
    try:
        writer = BamWriter(stream, header)
        for record in iter_sam_records(dataset, names):
            writer.write(record)
        writer.close()
        return writer.bytes_written
    finally:
        if own:
            stream.close()


def import_aligned(
    records: Iterable[SamRecord],
    contigs: "list[dict]",
    name: str,
    store: ChunkStore,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    sort_order: str = "unsorted",
    codec=None,
) -> AGDDataset:
    """Import aligned rows (SAM/BAM records) into a four-column dataset."""
    names = [c["name"] for c in contigs]
    reads: list[ReadRecord] = []
    results: list[AlignmentResult] = []
    for record in records:
        read, result = alignment_from_record(record, names)
        reads.append(read)
        results.append(result)
    if not reads:
        raise ValueError("cannot import an empty alignment set")
    columns = {
        "bases": [r.bases for r in reads],
        "qual": [r.qualities for r in reads],
        "metadata": [r.metadata for r in reads],
        "results": results,
    }
    return AGDDataset.create(
        name,
        columns,
        store,
        chunk_size=chunk_size,
        reference=contigs,
        sort_order=sort_order,
        codecs=({c: codec for c in columns} if codec is not None else None),
    )


def import_sam(
    path_or_stream: "str | Path | BinaryIO",
    name: str,
    store: ChunkStore,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    codec=None,
) -> AGDDataset:
    """Import a SAM file into AGD."""
    own = isinstance(path_or_stream, (str, Path))
    stream: BinaryIO = (
        open(path_or_stream, "rb") if own else path_or_stream  # type: ignore[arg-type]
    )
    try:
        header_lines: list[bytes] = []
        position = stream.tell()
        for line in stream:
            if line.startswith(b"@"):
                header_lines.append(line)
                position = stream.tell()
            else:
                break
        stream.seek(position)
        header = SamHeader.from_lines(header_lines)
        return import_aligned(
            iter_sam(stream), header.contigs, name, store,
            chunk_size=chunk_size, codec=codec,
        )
    finally:
        if own:
            stream.close()


def import_bam(
    path_or_stream: "str | Path | BinaryIO",
    name: str,
    store: ChunkStore,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    codec=None,
) -> AGDDataset:
    """Import a BAM-like file into AGD."""
    own = isinstance(path_or_stream, (str, Path))
    stream: BinaryIO = (
        open(path_or_stream, "rb") if own else path_or_stream  # type: ignore[arg-type]
    )
    try:
        from repro.formats.bam import _read_header_block

        header, _names = _read_header_block(stream)
        stream.seek(0)
        return import_aligned(
            iter_bam(stream), header.contigs, name, store,
            chunk_size=chunk_size, codec=codec,
        )
    finally:
        if own:
            stream.close()
