"""Sort-spill benchmark — gzip scratch vs raw-view scratch.

The zero-copy spill plane's claim: when sort scratch is a local
directory, spilling runs in the raw (identity-codec) frame layout and
restoring them as ``mmap`` views beats the gzip fallback, because the
spill cycle stops paying deflate on the way out and inflate-plus-copy
on the way back.  Two measurements:

spill cycle (gated)
    encode + store every run, then restore + decode every spilled
    chunk — the exact byte path phase 2's merge pays, with the scratch
    codec as the *only* differing compute.  Gate:
    ``spill_cycle_speedup >= 1.5x`` (armed on >= 2 CPUs, recorded in
    the JSON either way).

end-to-end external sort (informational)
    ``sort_dataset`` wall time on a directory scratch (raw frames), on
    a remote scratch (gzip: an unthrottled modeled disk over memory),
    and on a memory scratch, which holds its runs as columns and spills
    nothing.  Run sorting and merging dominate and are identical in
    all three, so these rows show the deployed effect, not the gated
    ratio.

Always-on shape checks: sorted output byte-identical raw vs gzip,
``decode_copies == 0`` on the view row (every restore was an in-place
view), zero ``/dev/shm`` leaks, and every scratch directory fully
removable afterwards (no pinned mappings, no stray spill files).

Run:  pytest benchmarks/bench_sort_spill.py --benchmark-json=BENCH_sort_spill.json
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
import pytest

from repro.agd.chunk import read_chunk_header, read_column
from repro.agd.compression import SCRATCH_CODEC_LEVEL, leveled_codec
from repro.agd.dataset import AGDDataset
from repro.agd.records import as_column, record_type_for_column
from repro.align.result import AlignmentResult
from repro.core.sort import (
    SortConfig,
    SpillLease,
    encode_run_spill,
    local_scratch_root,
    sort_dataset,
    store_run_spill,
    verify_sorted,
)
from repro.dataflow import shm
from repro.storage.base import DirectoryStore, MemoryStore
from repro.storage.diskmodel import DiskModel
from repro.storage.local import ModeledDiskStore

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
    """One full spill cycle: encode + store every run, restore + decode
    every spilled chunk.  Returns (best wall seconds, restore counters).

    Restore follows the merge's byte path for each mode: raw frames
    are mapped under a :class:`SpillLease` and decoded in place;
    gzip frames come back through ``scratch.get`` and inflate into an
    owned copy.
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
        counters = {"decode_copies": 0, "spill_view_bytes": 0,
                    "spill_restores": 0}
        start = time.monotonic()
        spilled = [
            store_run_spill(
                scratch, index,
                encode_run_spill(_run_columns(run), codec),
            )
            for index, run in enumerate(run_rows)
        ]
        decoded_records = 0
        for run in spilled:
            for entry in run.entries:
                for column in COLUMNS:
                    chunk_file = entry.chunk_file(column)
                    path = root / chunk_file
                    lease = None
                    if codec_name == "none":
                        lease = SpillLease(path)
                        buf = lease.buf
                    else:
                        buf = scratch.get(chunk_file)
                    header = read_chunk_header(buf)
                    decoded_records += len(read_column(buf))
                    counters["spill_restores"] += 1
                    if header.codec_name == "none":
                        counters["spill_view_bytes"] += \
                            header.uncompressed_size
                    else:
                        counters["decode_copies"] += 1
                    if lease is not None:
                        del buf
                        assert lease.release()
        wall = time.monotonic() - start
        assert decoded_records == len(COLUMNS) * RECORDS
        shutil.rmtree(root_dir)  # releases cleanly or the bench fails
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
        shutil.rmtree(root)  # removable only if every lease released
    return wall, blobs, counters


def test_sort_spill_raw_vs_gzip(report, tmp_path):
    cpus = os.cpu_count() or 1
    volume = RECORDS * (READ_LEN * 2 + 30)  # bases + qual + key columns

    before = set(shm.list_segments("psna-"))
    gzip_wall, gzip_counters = _spill_cycle("gzip", tmp_path)
    raw_wall, raw_counters = _spill_cycle("none", tmp_path)
    gz_e2e, gz_blobs, gz_sort_counters = _end_to_end(
        ModeledDiskStore(DiskModel(float("inf")), MemoryStore()))
    raw_e2e, raw_blobs, raw_sort_counters = _end_to_end(
        DirectoryStore(tmp_path / "e2e-raw"))
    held_e2e, _held_blobs, _held_counters = _end_to_end(MemoryStore())
    leaked = sorted(set(shm.list_segments("psna-")) - before)

    speedup = gzip_wall / raw_wall if raw_wall else 0.0
    e2e_speedup = gz_e2e / raw_e2e if raw_e2e else 0.0
    rep = report("sort_spill",
                 "Zero-copy spill plane — raw-view scratch vs gzip "
                 "scratch for the external sort")
    rep.add(f"host CPUs: {cpus}; {RECORDS} records x {READ_LEN} bp "
            f"(~{volume / 1e6:.0f} MB of row payload, "
            f"{PER_SUPER * CHUNK} records per run)")
    rep.row("gzip spill cycle", "deflate + inflate-copy",
            f"{gzip_wall:.3f} s")
    rep.row("raw-view spill cycle", ">= 1.5x",
            f"{raw_wall:.3f} s ({speedup:.2f}x)")
    rep.row("end-to-end sort, gzip scratch", "(informational)",
            f"{gz_e2e:.3f} s")
    rep.row("end-to-end sort, raw scratch", "(informational)",
            f"{raw_e2e:.3f} s ({e2e_speedup:.2f}x)")
    rep.row("end-to-end sort, memory scratch (held, no spill)",
            "(informational)", f"{held_e2e:.3f} s")
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
    rep.check("raw cycle restored every chunk as an in-place view "
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
    rep.check("no /dev/shm segments leaked", not leaked)
    armed = cpus >= 2
    note = f"needs >= 2 CPUs, host has {cpus}" if not armed else ""
    rep.gate("spill_cycle_speedup", 1.5, speedup, armed, note=note)
    rep.finish()
