"""Table 2 — Dataset Sort Time, Single Server (§5.6).

Paper result (coordinate-sorting an aligned whole-genome dataset):

    Persona                  556 s   1.00x
    Samtools                 856 s   1.54x slower
    Samtools w/ conversion  1289 s   2.32x slower
    Picard                  2866 s   5.15x slower

Shape to reproduce: columnar AGD sort beats the row-oriented sorters;
paying the SAM->BAM conversion makes samtools worse; the single-threaded
object-heavy Picard-like sorter is slowest.
"""

from __future__ import annotations

import io
import time

import pytest

from repro.core.baselines import PicardLikeSorter, SamtoolsLikeSorter
from repro.core.pipelines import align_dataset
from repro.core.sort import SortConfig, sort_dataset, verify_sorted
from repro.formats.bam import read_bam
from repro.formats.converters import export_sam
from repro.storage.base import MemoryStore


@pytest.fixture(scope="module")
def aligned_world(bench_reads, bench_reference, bench_aligner):
    from repro.formats.converters import import_reads

    dataset = import_reads(
        bench_reads, "sortbench", MemoryStore(), chunk_size=400,
        reference=bench_reference.manifest_entry(),
    )
    align_dataset(dataset, bench_aligner,
                  workers=1)
    sam_buf = io.BytesIO()
    export_sam(dataset, sam_buf)
    return dataset, sam_buf.getvalue()


def test_table2_sort_comparison(benchmark, aligned_world, report):
    dataset, sam_blob = aligned_world
    timings = {}

    start = time.monotonic()
    sorted_ds = sort_dataset(dataset, MemoryStore(),
                             SortConfig(chunks_per_superchunk=4))
    timings["persona"] = time.monotonic() - start
    assert verify_sorted(sorted_ds)

    # "plenty of memory": samtools sorts in one pass, as on the testbed.
    samtools = SamtoolsLikeSorter(run_size=100_000)
    bam_blob = samtools.convert_sam_to_bam(sam_blob)
    start = time.monotonic()
    sorted_bam = samtools.sort_bam(bam_blob)
    timings["samtools"] = time.monotonic() - start

    start = time.monotonic()
    samtools.sort_sam(sam_blob)
    timings["samtools_conv"] = time.monotonic() - start

    start = time.monotonic()
    PicardLikeSorter().sort_bam(bam_blob)
    timings["picard"] = time.monotonic() - start

    # Correctness: both sorters emit coordinate order.
    _, samtools_records = read_bam(io.BytesIO(sorted_bam))
    samtools_keys = [
        r.location_key() for r in samtools_records if not r.is_unmapped
    ]
    agd_keys = [
        (r.contig_index, r.position)
        for r in sorted_ds.read_column("results") if r.is_aligned
    ]
    assert agd_keys == sorted(agd_keys)
    assert samtools_keys == sorted(samtools_keys)

    rep = report("table2_sort", "Table 2 — Dataset Sort Time, Single Server")
    p = timings["persona"]
    rep.row("Persona (AGD columnar sort)", "556 s (1.0x)",
            f"{p:.2f} s (1.0x)")
    rep.row("Samtools-like (BAM rows)", "856 s (1.54x)",
            f"{timings['samtools']:.2f} s ({timings['samtools'] / p:.2f}x)")
    rep.row("Samtools-like w/ conversion", "1289 s (2.32x)",
            f"{timings['samtools_conv']:.2f} s "
            f"({timings['samtools_conv'] / p:.2f}x)")
    rep.row("Picard-like (single-threaded)", "2866 s (5.15x)",
            f"{timings['picard']:.2f} s ({timings['picard'] / p:.2f}x)")
    rep.add()
    rep.add("shape checks:")
    rep.check("Persona fastest", p < min(timings["samtools"],
                                         timings["samtools_conv"],
                                         timings["picard"]))
    rep.check("conversion makes samtools worse",
              timings["samtools_conv"] > timings["samtools"])
    rep.check("Picard-like at the slow end (>=0.9x the slowest baseline)",
              timings["picard"] >= 0.9 * max(timings["samtools"],
                                             timings["samtools_conv"]))
    rep.check("samtools-like at least 1.2x slower than Persona",
              timings["samtools"] / p > 1.2)
    rep.check("Picard-like at least 2x slower than Persona",
              timings["picard"] / p > 2.0)
    rep.add()
    rep.add("note: the paper's 5.15x Picard gap includes samtools using 48")
    rep.add("cores while Picard is single-threaded; under the GIL every")
    rep.add("sorter here is single-threaded, so only the per-record object/")
    rep.add("validation overhead component of the gap is reproducible.")
    rep.finish()

    benchmark.pedantic(
        lambda: sort_dataset(dataset, MemoryStore(),
                             SortConfig(chunks_per_superchunk=4)),
        rounds=1, iterations=1,
    )
