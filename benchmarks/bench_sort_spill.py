"""Sort-spill benchmark — gzip scratch vs raw scratch, and the sort's
memory at scale.

The spill plane's claim: when sort scratch is a local directory,
spilling runs in the raw (identity-codec) frame layout and reading
them back in windows of records beats the gzip fallback, because the
spill cycle stops paying deflate on the way out and inflate-plus-copy
on the way back.  Three measurements:

spill cycle (gated)
    encode + store every run, then verify and read back every spilled
    run a window at a time — the exact byte path phase 2's merge pays,
    with the scratch codec as the *only* differing compute.  Gate:
    ``spill_cycle_speedup >= 1.5x`` (armed on >= 2 CPUs, recorded in
    the JSON either way).

sort memory at scale (gated, always armed)
    ``sort_dataset``'s ΔRSS (``ru_maxrss`` after the sort minus before
    it, a fresh process per size, the dataset built in another) with
    directory input, output and scratch, at 120 000 and 360 000 reads
    of the benchmark suite's ``downstream`` law: 10x coverage of a
    two-contig genome, seed 3, 1 000-read chunks,
    ``chunks_per_superchunk=4`` (30 and 90 runs).  The merge holds
    ``MERGE_WINDOW_BYTES`` of run windows, not the runs, so the gates
    are ΔRSS <= 50 MB at 360 000 reads and a 360k / 120k ratio <= 1.5
    (re-sorting the runs' concatenation took 216.8 MB and 3.0).

end-to-end external sort (informational)
    ``sort_dataset`` wall time on a directory scratch (raw frames), on
    a remote scratch (gzip: an unthrottled modeled disk over memory),
    and on a memory scratch, which holds its runs as columns and spills
    nothing.  Run sorting and merging dominate and are identical in
    all three, so these rows show the deployed effect, not the gated
    ratio.

Always-on shape checks: sorted output byte-identical raw vs gzip,
``decode_copies == 0`` on the raw row (no restore inflated a second
copy), zero ``/dev/shm`` leaks, and every scratch directory fully
removable afterwards (no stray spill files).

Run:  pytest benchmarks/bench_sort_spill.py --benchmark-json=BENCH_sort_spill.json
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from repro.agd.compression import SCRATCH_CODEC_LEVEL, leveled_codec
from repro.agd.dataset import AGDDataset
from repro.agd.records import as_column, record_type_for_column
from repro.align.result import AlignmentResult
from repro.core.sort import (
    MERGE_WINDOW_BYTES,
    SortConfig,
    _open_spill,
    _RunCursor,
    encode_run_spill,
    local_scratch_root,
    sort_dataset,
    store_run_spill,
    verify_sorted,
)
from repro.storage.base import DirectoryStore, MemoryStore
from repro.storage.diskmodel import DiskModel
from repro.storage.local import ModeledDiskStore

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from dev_shm import dev_shm_entries  # noqa: E402
from scale_law import SCALE_READS, at_scale, measure  # noqa: E402

RECORDS = 6_000
READ_LEN = 600
CHUNK = 300
PER_SUPER = 5
ROUNDS = 3
#: Row layout the sort uses: key columns first.
COLUMNS = ["results", "metadata", "bases", "qual"]


def _make_rows(rng) -> "list[tuple]":
    bases = rng.choice(np.frombuffer(b"ACGT", dtype=np.uint8),
                       size=(RECORDS, READ_LEN))
    quals = rng.integers(33, 74, size=(RECORDS, READ_LEN), dtype=np.uint8)
    contigs = rng.integers(0, 4, size=RECORDS)
    positions = rng.integers(0, 1_000_000, size=RECORDS)
    return [
        (
            AlignmentResult(flag=0, contig_index=int(contigs[i]),
                            position=int(positions[i]), cigar=b"600M"),
            f"read-{i:07d}".encode(),
            bases[i].tobytes(),
            quals[i].tobytes(),
        )
        for i in range(RECORDS)
    ]


def _run_columns(rows) -> dict:
    """One run's rows as the column dict the sort spills."""
    return {
        column: as_column(record_type_for_column(column),
                          [row[i] for row in rows])
        for i, column in enumerate(COLUMNS)
    }


def _make_dataset(rows) -> AGDDataset:
    return AGDDataset.create(
        "spillbench",
        {
            "results": [r[0] for r in rows],
            "metadata": [r[1] for r in rows],
            "bases": [r[2] for r in rows],
            "qual": [r[3] for r in rows],
        },
        MemoryStore(),
        chunk_size=CHUNK,
    )


def _spill_cycle(codec_name: str, scratch_dir) -> "tuple[float, dict]":
    """One full spill cycle: encode + store every run, then read every
    run back a window at a time.  Returns (best wall seconds, restore
    counters).

    Read-back is the merge's own byte path (one cursor per run at its
    share of ``MERGE_WINDOW_BYTES``): a raw frame is verified by one
    streaming pass and read in windows decoded over the bytes read, a
    gzip one restored whole and inflated into a second copy.
    """
    rng = np.random.default_rng(4242)
    rows = _make_rows(rng)
    run_rows = [rows[i:i + PER_SUPER * CHUNK]
                for i in range(0, len(rows), PER_SUPER * CHUNK)]
    codec = leveled_codec(codec_name, SCRATCH_CODEC_LEVEL)
    best = None
    counters: dict = {}
    for round_index in range(ROUNDS):
        root_dir = scratch_dir / f"{codec_name}-{round_index}"
        scratch = DirectoryStore(root_dir)
        root = local_scratch_root(scratch)
        counters = {"decode_copies": 0, "spill_view_bytes": 0}
        start = time.monotonic()
        spilled = [
            store_run_spill(
                scratch, index,
                encode_run_spill(_run_columns(run), codec),
            )
            for index, run in enumerate(run_rows)
        ]
        decoded_records = 0
        share = MERGE_WINDOW_BYTES // len(spilled)
        for run in spilled:
            for entry in run.entries:
                cursor = _RunCursor({
                    column: _open_spill(scratch, root,
                                        entry.chunk_file(column), counters)
                    for column in COLUMNS
                }, entry.record_count, "location")
                while not cursor.done:
                    cursor.fill(share, counters)
                    cursor.offset = cursor.count
                    decoded_records += cursor.count * len(COLUMNS)
        wall = time.monotonic() - start
        assert decoded_records == len(COLUMNS) * RECORDS
        shutil.rmtree(root_dir)
        if best is None or wall < best:
            best = wall
    return best, counters


def _sorted_bytes(out_store, dataset) -> "dict[str, bytes]":
    return {
        entry.chunk_file(column):
            bytes(out_store.get(entry.chunk_file(column)))
        for entry in dataset.manifest.chunks
        for column in dataset.manifest.columns
    }


def _end_to_end(scratch) -> "tuple[float, dict, dict]":
    """One ``sort_dataset`` through ``scratch``; a directory scratch is
    removed afterwards."""
    rng = np.random.default_rng(4242)
    dataset = _make_dataset(_make_rows(rng))
    out_store = MemoryStore()
    counters: dict = {}
    start = time.monotonic()
    out = sort_dataset(
        dataset, out_store, SortConfig(chunks_per_superchunk=PER_SUPER),
        scratch_store=scratch, counters=counters,
    )
    wall = time.monotonic() - start
    assert verify_sorted(out)
    blobs = _sorted_bytes(out_store, out)
    root = local_scratch_root(scratch)
    if root is not None:
        shutil.rmtree(root)
    return wall, blobs, counters


#: The scale rows' ΔRSS gates (MB at the largest size, and largest /
#: smallest).
SCALE_RSS_MB = 50.0
SCALE_RSS_RATIO = 1.5


def _sort_child(directory: Path) -> dict:
    """Sort the dataset in ``directory`` into directory stores beside it;
    the sort's ΔRSS, wall and CPU seconds, and its counters."""
    dataset = AGDDataset.open(directory)
    counters: dict = {}
    run, out = measure(lambda: sort_dataset(
        dataset, DirectoryStore(directory.parent / "sorted"),
        SortConfig(chunks_per_superchunk=4),
        scratch_store=DirectoryStore(directory.parent / "spill"),
        counters=counters))
    return {**run, "records": out.total_records, "counters": counters}


def test_sort_spill_raw_vs_gzip(report, tmp_path):
    cpus = os.cpu_count() or 1
    volume = RECORDS * (READ_LEN * 2 + 30)  # bases + qual + key columns

    before = dev_shm_entries()
    gzip_wall, gzip_counters = _spill_cycle("gzip", tmp_path)
    raw_wall, raw_counters = _spill_cycle("none", tmp_path)
    gz_e2e, gz_blobs, gz_sort_counters = _end_to_end(
        ModeledDiskStore(DiskModel(float("inf")), MemoryStore()))
    raw_e2e, raw_blobs, raw_sort_counters = _end_to_end(
        DirectoryStore(tmp_path / "e2e-raw"))
    held_e2e, _held_blobs, _held_counters = _end_to_end(MemoryStore())
    leaked = sorted(dev_shm_entries() - before)
    scale = at_scale(__file__, tmp_path)
    small, large = (scale[reads] for reads in SCALE_READS)
    rss_ratio = large["delta_rss_mb"] / small["delta_rss_mb"]

    speedup = gzip_wall / raw_wall if raw_wall else 0.0
    e2e_speedup = gz_e2e / raw_e2e if raw_e2e else 0.0
    rep = report("sort_spill",
                 "Spill plane — raw scratch (file read) vs gzip "
                 "scratch for the external sort")
    rep.add(f"host CPUs: {cpus}; {RECORDS} records x {READ_LEN} bp "
            f"(~{volume / 1e6:.0f} MB of row payload, "
            f"{PER_SUPER * CHUNK} records per run)")
    rep.row("gzip spill cycle", "deflate + inflate-copy",
            f"{gzip_wall:.3f} s")
    rep.row("raw spill cycle (window reads)", ">= 1.5x",
            f"{raw_wall:.3f} s ({speedup:.2f}x)")
    rep.row("end-to-end sort, gzip scratch", "(informational)",
            f"{gz_e2e:.3f} s")
    rep.row("end-to-end sort, raw scratch", "(informational)",
            f"{raw_e2e:.3f} s ({e2e_speedup:.2f}x)")
    rep.row("end-to-end sort, memory scratch (held, no spill)",
            "(informational)", f"{held_e2e:.3f} s")
    for reads, run in scale.items():
        rep.row(f"sort dRSS, {reads:,} reads (directory scratch)",
                f"<= {SCALE_RSS_MB:g} MB" if reads == SCALE_READS[-1]
                else "(informational)",
                f"{run['delta_rss_mb']:.1f} MB",
                f"{run['wall_s']:.2f} s wall, {run['cpu_s']:.2f} s CPU, "
                f"{run['counters']['window_reads']} window reads")
        rep.metric(f"sort_rss_megabytes_{reads}", run["delta_rss_mb"])
        rep.metric(f"sort_cpu_seconds_{reads}", run["cpu_s"])
        rep.metric(f"sort_window_peak_bytes_{reads}",
                   run["counters"]["window_peak_bytes"])
    rep.row(f"sort dRSS ratio, {SCALE_READS[-1]:,} / {SCALE_READS[0]:,}",
            f"<= {SCALE_RSS_RATIO:g}", f"{rss_ratio:.2f}")
    rep.metric("sort_rss_ratio", rss_ratio)
    rep.metric("cpu_count", cpus)
    rep.metric("gzip_cycle_seconds", gzip_wall)
    rep.metric("raw_cycle_seconds", raw_wall)
    rep.metric("spill_cycle_speedup", speedup)
    rep.metric("gzip_e2e_seconds", gz_e2e)
    rep.metric("raw_e2e_seconds", raw_e2e)
    rep.metric("e2e_speedup", e2e_speedup)
    rep.metric("held_e2e_seconds", held_e2e)
    rep.metric("raw_spill_view_bytes", raw_counters["spill_view_bytes"])
    rep.metric("raw_decode_copies", raw_counters["decode_copies"])
    rep.metric("gzip_decode_copies", gzip_counters["decode_copies"])
    rep.metric("raw_sort_spill_view_bytes",
               raw_sort_counters.get("spill_view_bytes", 0))
    rep.metric("raw_sort_decode_copies",
               raw_sort_counters.get("decode_copies", 0))
    rep.add()
    rep.add("shape checks:")
    rep.check("sorted output byte-identical, raw vs gzip scratch",
              raw_blobs == gz_blobs and len(raw_blobs) > 0)
    rep.check("raw cycle restored every chunk with no inflate copy "
              "(decode_copies == 0)",
              raw_counters["decode_copies"] == 0
              and raw_counters["spill_view_bytes"] > 0)
    rep.check("gzip cycle materialized every restore",
              gzip_counters["decode_copies"] ==
              gzip_counters["spill_restores"])
    rep.check("raw end-to-end sort reported zero decode copies",
              raw_sort_counters.get("decode_copies", 0) == 0
              and raw_sort_counters.get("spill_view_bytes", 0) > 0)
    rep.check("gzip end-to-end sort stayed on the fallback",
              gz_sort_counters.get("decode_copies", 0) > 0)
    rep.check("no /dev/shm entries leaked", not leaked)
    rep.check("every scale sort merged every record with no inflate copy",
              all(run["records"] == reads
                  and run["counters"].get("decode_copies", 0) == 0
                  and run["counters"]["window_peak_bytes"]
                  <= MERGE_WINDOW_BYTES for reads, run in scale.items()))
    armed = cpus >= 2
    note = f"needs >= 2 CPUs, host has {cpus}" if not armed else ""
    rep.gate("spill_cycle_speedup", 1.5, speedup, armed, note=note)
    # Memory gates, always armed, as bound / measured (>= 1 holds).
    rep.gate(f"{SCALE_RSS_MB:g} MB over the sort's dRSS at "
             f"{SCALE_READS[-1]:,} reads", 1.0,
             SCALE_RSS_MB / large["delta_rss_mb"], True)
    rep.gate(f"{SCALE_RSS_RATIO:g} over the sort's dRSS ratio", 1.0,
             SCALE_RSS_RATIO / rss_ratio, True)
    rep.finish()


if __name__ == "__main__":
    print(json.dumps(_sort_child(Path(sys.argv[1]))))
