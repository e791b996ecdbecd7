"""Broker wire benchmark — the edge codec every edge uses.

One 1000-record work item through the edge serializer, which frames
every column raw on every transport.  Its checks are counts (always
armed): zero data-block ``zlib`` calls, one frame per shipped column
plus the header.  Beside them it times the same item framed at gzip
level 1 (built here, not by the library): the raw-vs-gzip encode +
decode ratio is why edges frame raw (a timing: armed on >= 2 CPUs).

Every TCP edge copies its payload through the socket; there is no
second wire mode to time against it.

Run:  pytest benchmarks/bench_broker_wire.py --benchmark-json=BENCH_broker_wire.json
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import repro.agd.compression as compression
from repro.agd.chunk import write_chunk
from repro.agd.compression import leveled_codec
from repro.agd.records import record_type_for_column
from repro.cluster.wire import decode_work_item_frames, item_serializer
from repro.core.ops import ChunkWorkItem
from repro.core.pipelines import align_dataset
from repro.core.subgraphs import columns_read
from repro.formats.converters import import_reads
from repro.storage.base import MemoryStore

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from zlib_spy import ZlibSpy  # noqa: E402

#: The edge-codec cell's work item: one merged chunk of the benchmark
#: suite's downstream workloads (1000 records, all four columns).
ITEM_RECORDS = 1000
#: Raw framing must beat level-1 gzip framing on encode + decode of the
#: same item by at least this much (unarmed below 2 CPUs).
RAW_CODEC_GATE = 1.5
#: The cross-host codec edges used before every edge framed raw.
GZIP_EDGE_LEVEL = 1


def _gzip_frames(item, header: bytes) -> "list[bytes]":
    """``item`` framed as the edge serializer frames it (``header`` is
    its header frame), but with every column at gzip level 1."""
    codec = leveled_codec("gzip", GZIP_EDGE_LEVEL)
    return [header] + [
        write_chunk(item.columns[column], record_type_for_column(column),
                    first_ordinal=item.entry.first_ordinal, codec=codec)
        for column in sorted(item.columns)
    ]


def _best_of(fn, repeats: int = 7) -> float:
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        wall = time.perf_counter() - start
        best = wall if best is None else min(best, wall)
    return best


def test_in_process_edge_codec(report, monkeypatch, bench_reads,
                               bench_reference, bench_aligner):
    cpus = os.cpu_count() or 1
    dataset = import_reads(
        bench_reads[:ITEM_RECORDS], "edgebench", MemoryStore(),
        chunk_size=ITEM_RECORDS, reference=bench_reference.manifest_entry(),
    )
    align_dataset(dataset, bench_aligner,
                  workers=1)
    keep = columns_read(("dupmark", "varcall"))
    item = ChunkWorkItem(
        entry=dataset.manifest.chunks[0],
        columns={column: dataset.read_chunk(column, 0).records
                 for column in dataset.manifest.columns if column in keep},
    )

    serializer = item_serializer()
    # The zlib the codec layer sees (chunk *indexes* are deflated by
    # ``agd/chunk.py`` through its own import, and are not counted).
    spy = ZlibSpy()
    monkeypatch.setattr(compression, "zlib", spy)
    frames = serializer.encode(item)
    decoded = serializer.decode(frames)
    zlib_calls = len(spy.calls)
    monkeypatch.undo()

    raw_wall = _best_of(
        lambda: serializer.decode(serializer.encode(item)))
    gzip_wall = _best_of(
        lambda: decode_work_item_frames(_gzip_frames(item, frames[0])))
    ratio = gzip_wall / raw_wall if raw_wall else 0.0
    raw_bytes = sum(len(f) for f in frames)
    gzip_frames = _gzip_frames(item, frames[0])
    gzip_bytes = sum(len(f) for f in gzip_frames)

    rep = report("broker_wire_codec",
                 "Edge codec — every edge carries raw column frames")
    rep.add(f"host CPUs: {cpus}; one {ITEM_RECORDS}-record work item, "
            f"columns {sorted(item.columns)}")
    rep.row("raw frames (edge serializer)", "0 zlib data-block calls",
            f"{raw_wall * 1e3:.2f} ms, {raw_bytes / 1e3:.0f} kB")
    rep.row("gzip level-1 frames (bench-local)", f">= {RAW_CODEC_GATE:g}x",
            f"{gzip_wall * 1e3:.2f} ms, {gzip_bytes / 1e3:.0f} kB "
            f"({ratio:.2f}x the raw time)")
    rep.metric("cpu_count", cpus)
    rep.metric("data_block_zlib_calls", zlib_calls)
    rep.metric("frames", len(frames))
    rep.metric("raw_payload_bytes", raw_bytes)
    rep.metric("gzip_payload_bytes", gzip_bytes)
    rep.metric("raw_codec_wall_seconds", raw_wall)
    rep.metric("gzip_codec_wall_seconds", gzip_wall)
    rep.add()
    rep.add("shape checks:")
    rep.check("edge encode + decode made zero data-block zlib calls",
              zlib_calls == 0)
    rep.check("frames == columns declared by dupmark+varcall + header",
              len(frames) == len(keep) + 1 == 4)
    rep.check("raw and gzip frames decode to the same item",
              decoded == decode_work_item_frames(gzip_frames))
    armed = cpus >= 2
    note = f"needs >= 2 CPUs, host has {cpus}" if not armed else ""
    rep.gate("raw_vs_gzip_codec", RAW_CODEC_GATE, ratio, armed, note=note)
    rep.finish()
