"""§5.6 — Duplicate marking throughput.

Paper result: "Samblaster can mark duplicates at 364,963 reads per
second, while Persona ... can mark duplicates at 1.36 million reads per
second" (~3.7x), and "Persona also uses less I/O since only the results
column needs to be read/written from the AGD dataset."

Shape to reproduce: Persona (results column only) is severalfold faster
than the samblaster-like baseline (full SAM rows); both mark exactly the
same duplicate set; Persona touches only the results column.

dupmark memory at scale (gated, always armed)
    the eager ``mark_duplicates``' ΔRSS (``VmHWM`` after the marking
    minus before it, a fresh process per size, the dataset built in
    another) over a directory store, at 120 000 and 360 000 reads of
    the benchmark suite's ``downstream`` law (``scale_law.py``).  The
    seen set holds ~8 B per distinct single-end signature, so the gate
    is ΔRSS <= 10 MB at 360 000 reads (a set of struct bytes took
    31–32 MB).

Run:  pytest benchmarks/bench_sec56_dupmark.py
"""

from __future__ import annotations

import io
import json
import sys
import time
from pathlib import Path

import pytest

from repro.align.result import FLAG_DUPLICATE
from repro.core.baselines import SamblasterLike, SamblasterReport
from repro.core.dupmark import DupmarkStats, mark_duplicates
from repro.core.pipelines import align_dataset
from repro.formats.converters import export_sam
from repro.formats.sam import read_sam
from repro.storage.base import MemoryStore
from repro.storage.local import CountingStore
from scale_law import SCALE_READS, at_scale, measure

#: The dupmark scale row's ΔRSS gate, MB at the largest size.
SCALE_RSS_MB = 10.0


@pytest.fixture(scope="module")
def marked_world(bench_reads, bench_reference, bench_aligner):
    from repro.formats.converters import import_reads

    dataset = import_reads(
        bench_reads, "dup", MemoryStore(), chunk_size=400,
        reference=bench_reference.manifest_entry(),
    )
    align_dataset(dataset, bench_aligner,
                  workers=1)
    sam_buf = io.BytesIO()
    export_sam(dataset, sam_buf)
    return dataset, sam_buf.getvalue()


def test_sec56_duplicate_marking(benchmark, marked_world, report):
    dataset, sam_blob = marked_world

    # Persona: only the results column, through a counting store.
    counting = CountingStore(dataset.store)
    from repro.agd.dataset import AGDDataset

    counted_ds = AGDDataset(dataset.manifest, counting)
    stats = DupmarkStats()
    start = time.monotonic()
    mark_duplicates(counted_ds, stats)
    persona_seconds = time.monotonic() - start
    persona_rate = stats.records / persona_seconds

    # Baseline: samblaster-like over SAM text.
    baseline_report = SamblasterReport()
    start = time.monotonic()
    marked_sam = SamblasterLike().mark(
        sam_blob, dataset.manifest.reference, baseline_report
    )
    baseline_seconds = time.monotonic() - start
    baseline_rate = baseline_report.records / baseline_seconds

    # Agreement on the duplicate set.
    _, sam_records = read_sam(io.BytesIO(marked_sam))
    baseline_marked = {
        r.qname for r in sam_records if r.flag & FLAG_DUPLICATE
    }
    persona_marked = {
        m.split()[0].decode()
        for m, r in zip(dataset.read_column("metadata"),
                        dataset.read_column("results"))
        if r.is_duplicate
    }

    rep = report("sec56_dupmark", "Sec 5.6 — Duplicate marking throughput")
    rep.row("Persona rate", "1.36 M reads/s", f"{persona_rate:,.0f} reads/s")
    rep.row("Samblaster-like rate", "365 K reads/s",
            f"{baseline_rate:,.0f} reads/s")
    rep.row("speedup", "3.7x", f"{persona_rate / baseline_rate:.2f}x")
    rep.add(f"duplicates marked: {stats.duplicates_marked} "
            f"(baseline {baseline_report.duplicates_marked})")
    io_note = (
        f"Persona I/O: read {counting.bytes_read} B, "
        f"wrote {counting.bytes_written} B (results column only); "
        f"baseline parsed {len(sam_blob)} B of SAM"
    )
    rep.add(io_note)
    rep.add()
    rep.add("shape checks:")
    rep.check("both tools mark the identical duplicate set",
              baseline_marked == persona_marked)
    rep.check("Persona at least 1.8x faster",
              persona_rate / baseline_rate > 1.8)
    rep.check("Persona read less than the baseline (results column only)",
              counting.bytes_read < len(sam_blob))
    rep.check("some duplicates exist in the workload",
              stats.duplicates_marked > 50)
    rep.finish()

    benchmark.pedantic(
        lambda: mark_duplicates(AGDDataset(dataset.manifest, dataset.store)),
        rounds=1, iterations=1,
    )


def _dupmark_child(directory: Path) -> dict:
    """Mark duplicates in the dataset in ``directory``, in place; the
    marking's ΔRSS, wall and CPU seconds, and its counts."""
    from repro.agd.dataset import AGDDataset

    dataset = AGDDataset.open(directory)
    run, stats = measure(lambda: mark_duplicates(dataset))
    return {**run, "records": stats.records,
            "duplicates_marked": stats.duplicates_marked}


def test_sec56_dupmark_memory_at_scale(report, tmp_path):
    scale = at_scale(__file__, tmp_path)
    large = scale[SCALE_READS[-1]]

    rep = report("sec56_dupmark_scale",
                 "Sec 5.6 — Duplicate marking memory at scale")
    for reads, run in scale.items():
        rep.row(f"dupmark dRSS, {reads:,} reads",
                f"<= {SCALE_RSS_MB:g} MB" if reads == SCALE_READS[-1]
                else "(informational)",
                f"{run['delta_rss_mb']:.1f} MB",
                f"{run['wall_s']:.2f} s wall, {run['cpu_s']:.2f} s CPU, "
                f"{run['duplicates_marked']} duplicates")
        rep.metric(f"dupmark_rss_megabytes_{reads}", run["delta_rss_mb"])
        rep.metric(f"dupmark_cpu_seconds_{reads}", run["cpu_s"])
        rep.metric(f"dupmark_duplicates_{reads}", run["duplicates_marked"])
    rep.add()
    rep.add("shape checks:")
    rep.check("every scale run scanned every record and marked duplicates",
              all(run["records"] == reads and run["duplicates_marked"] > 0
                  for reads, run in scale.items()))
    # A memory gate, always armed, as bound / measured (>= 1 holds).
    rep.gate(f"{SCALE_RSS_MB:g} MB over dupmark's dRSS at "
             f"{SCALE_READS[-1]:,} reads", 1.0,
             SCALE_RSS_MB / large["delta_rss_mb"], True)
    rep.finish()


if __name__ == "__main__":
    print(json.dumps(_dupmark_child(Path(sys.argv[1]))))
