"""A tour of the AGD format (§3): columns, chunks, compression,
random access, and extensibility.

Walks through everything Figure 2 shows: the manifest, per-column chunk
files with header/index/data sections, 3-bit base compaction, per-column
codec choice, on-the-fly absolute indices for random access, selective
column reads, manifest reconstruction from chunk files, and adding a
custom column with its own record type.

Run:  python examples/agd_format_tour.py
"""

import tempfile
from pathlib import Path

from repro.agd import (
    AGDDataset,
    LZMA,
    packed_size,
    read_chunk_header,
    reconstruct_manifest,
    register_record_codec,
)
from repro.formats import import_reads
from repro.genome import synthetic_dataset
from repro.storage import DirectoryStore


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="agd-tour-") as tmp:
        tour(Path(tmp))


def tour(workdir: Path) -> None:
    reference, reads, _ = synthetic_dataset(
        genome_length=20_000, coverage=4.0, seed=123
    )
    store = DirectoryStore(workdir)

    # -------------------------------------------------- columns & chunks
    dataset = import_reads(
        reads, "tour", store, chunk_size=200,
        reference=reference.manifest_entry(),
    )
    dataset.save_manifest(workdir)
    print(f"dataset in {workdir}")
    print(f"columns: {dataset.columns}; chunks: {dataset.num_chunks}; "
          f"records: {dataset.total_records}")

    # Each (chunk, column) pair is one file: test-0.bases, test-0.qual, ...
    files = sorted(p.name for p in workdir.iterdir())[:6]
    print(f"first files: {files}")

    # ------------------------------------------------- base compaction
    raw_bases = sum(len(r.bases) for r in reads)
    packed = sum(packed_size(len(r.bases)) for r in reads)
    stored = dataset.column_bytes("bases")
    print(f"\nbase compaction: {raw_bases:,} ASCII bases -> {packed:,} B "
          f"packed (3 bits/base, 21 per u64) -> {stored:,} B gzipped")

    # ------------------------------------------------- chunk anatomy
    blob = store.get("tour-0.bases")
    header = read_chunk_header(blob)
    print(f"\nchunk header: type={header.record_type!r} "
          f"codec={header.codec_name!r} records={header.record_count} "
          f"first_ordinal={header.first_ordinal} "
          f"data {header.uncompressed_size}->{header.compressed_size} B "
          f"index {header.record_count * 4}->{header.index_size} B "
          f"(format v{header.version})")

    # ------------------------------------------------ selective access
    # Reading one column touches only that column's files (§3's argument
    # against row-oriented FASTQ/SAM).
    quals = dataset.read_column("qual")
    print(f"\nselective read: qual column only -> {len(quals)} records, "
          f"{dataset.column_bytes('qual'):,} B read")

    # Random access via the on-the-fly absolute index.
    record_1234 = dataset.read_record("bases", 123)
    print(f"random access to record 123: {record_1234[:30]!r}...")

    # --------------------------------------------- per-column codecs
    store2 = DirectoryStore(workdir / "lzma")
    AGDDataset.create(
        "tour-lzma",
        {"metadata": [r.metadata for r in reads]},
        store2,
        chunk_size=200,
        codecs={"metadata": LZMA},
    )
    gzip_size = dataset.column_bytes("metadata")
    lzma_size = sum(
        len(store2.get(k)) for k in store2.keys()
    )
    print(f"\ncodec tradeoff (§3): metadata gzip {gzip_size:,} B "
          f"vs lzma {lzma_size:,} B")

    # ------------------------------------------ manifest reconstruction
    (workdir / "manifest.json").unlink()
    rebuilt = reconstruct_manifest(workdir)
    print(f"\nmanifest.json deleted and reconstructed from chunk files: "
          f"{rebuilt.num_chunks} chunks, {rebuilt.total_records} records")

    # ------------------------------------------------- extensibility
    # Add a new column with a custom record type: per-read GC fraction
    # stored as one byte (0..100).  "Any required parsing functions for a
    # new column may be added to Persona" (§3).
    class GcCodec:
        name = "gc"

        def encode(self, records):
            return bytes(records), [1] * len(records)

        def decode(self, data, index):
            return list(data)

        def byte_size(self, logical_length):
            return logical_length

        def decode_one(self, data, absolute, i):
            offset, size = absolute.record_span(i)
            return data[offset]

    register_record_codec("gc", GcCodec())
    from repro.genome import gc_content

    gc_column = [int(round(gc_content(r.bases) * 100)) for r in reads]
    dataset.append_column("gc", gc_column, record_type="gc")
    print(f"appended custom 'gc' column (record type 'gc'): "
          f"record 0 = {dataset.read_column('gc')[0]}% GC")
    print(f"columns now: {dataset.columns}")


if __name__ == "__main__":
    main()
