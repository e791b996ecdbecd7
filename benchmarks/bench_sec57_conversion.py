"""§5.7 — Conversion and compatibility throughput.

Paper result: "FASTQ is imported to AGD at 360 MB/s, while BAM format
files are produced from AGD at 82 MB/s" — import is ~4.4x faster than
BAM export, because export must reassemble and re-encode full
row-oriented records.

Shape to reproduce: import MB/s exceeds BAM export MB/s by severalfold;
both round-trip losslessly.
"""

from __future__ import annotations

import io
import time

import pytest

from repro.core.pipelines import align_dataset
from repro.formats.converters import (
    export_bam,
    export_fastq,
    export_sam,
    import_fastq_stream,
)
from repro.formats.fastq import fastq_bytes
from repro.storage.base import MemoryStore


@pytest.fixture(scope="module")
def conversion_world(bench_reads, bench_reference, bench_aligner):
    fastq_blob = fastq_bytes(bench_reads)
    from repro.formats.converters import import_reads

    aligned = import_reads(
        bench_reads, "conv", MemoryStore(), chunk_size=400,
        reference=bench_reference.manifest_entry(),
    )
    align_dataset(aligned, bench_aligner,
                  workers=1)
    return fastq_blob, aligned


def test_sec57_conversion_throughput(benchmark, conversion_world, report):
    fastq_blob, aligned = conversion_world

    # FASTQ -> AGD import.
    start = time.monotonic()
    imported = import_fastq_stream(
        io.BytesIO(fastq_blob), "imp", MemoryStore(), chunk_size=400
    )
    import_seconds = time.monotonic() - start
    import_rate = len(fastq_blob) / import_seconds

    # AGD -> BAM export.
    bam_buf = io.BytesIO()
    start = time.monotonic()
    bam_bytes = export_bam(aligned, bam_buf)
    bam_seconds = time.monotonic() - start
    bam_rate = bam_bytes / bam_seconds

    # AGD -> SAM export (for context; the paper reports BAM).
    sam_buf = io.BytesIO()
    start = time.monotonic()
    export_sam(aligned, sam_buf)
    sam_seconds = time.monotonic() - start
    sam_rate = len(sam_buf.getvalue()) / sam_seconds

    # Round trips.
    fastq_back = io.BytesIO()
    export_fastq(imported, fastq_back)
    lossless = fastq_back.getvalue() == fastq_blob

    rep = report("sec57_conversion",
                 "Sec 5.7 — Conversion and compatibility throughput")
    rep.row("FASTQ import", "360 MB/s", f"{import_rate / 1e6:.1f} MB/s")
    rep.row("BAM export", "82 MB/s", f"{bam_rate / 1e6:.1f} MB/s")
    rep.row("import/export ratio", "4.4x",
            f"{import_rate / bam_rate:.2f}x")
    rep.add(f"SAM export (context): {sam_rate / 1e6:.1f} MB/s")
    rep.add()
    rep.add("shape checks:")
    rep.check("import faster than BAM export (>2x)",
              import_rate / bam_rate > 2.0)
    rep.check("FASTQ -> AGD -> FASTQ is lossless", lossless)
    rep.check("import preserved all records",
              imported.total_records == aligned.total_records)
    rep.finish()

    benchmark.pedantic(
        lambda: import_fastq_stream(
            io.BytesIO(fastq_blob), "b", MemoryStore(), chunk_size=400
        ),
        rounds=1, iterations=1,
    )
