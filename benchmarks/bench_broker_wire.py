"""Broker wire benchmark — same-host shm handoff vs TCP copy path.

The tentpole claim of the zero-copy broker plane: when a worker shares
the broker's host (the common placed-run topology — one broker, several
worker processes, one machine per placement group), payload segments at
or above the shm threshold cross as ~100-byte pool descriptors instead
of socket bytes.  Two rows:

``TCP copy``
    every payload byte crosses the loopback socket twice (publish in,
    pull out).
``shm handoff``
    descriptors cross the socket; the consumer still materializes each
    segment with one ``/dev/shm`` read per pull.

Same payloads, byte-identical deliveries.  Gate (armed on >= 2 CPUs,
recorded in the JSON either way): shm handoff >= 1.5x over TCP copy.
The equivalence and /dev/shm leak checks always arm.

A second cell covers the edge *codec*: one 1000-record work item
through the serializer an in-process client negotiates.  Its checks are
counts (always armed): zero data-block ``zlib`` calls, one frame per
shipped column plus the header.  The raw-vs-gzip encode+decode ratio is
recorded beside them (a timing: armed on >= 2 CPUs).

Run:  pytest benchmarks/bench_broker_wire.py --benchmark-json=BENCH_broker_wire.json
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro.agd.compression as compression
from repro.cluster.broker import (
    Broker,
    BrokerServer,
    LocalBrokerClient,
    TcpBrokerClient,
)
from repro.cluster.wire import edge_item_serializer, item_serializer
from repro.core.ops import ChunkWorkItem
from repro.core.pipelines import align_dataset
from repro.core.subgraphs import columns_read
from repro.dataflow import shm
from repro.dataflow.queues import PUBLISH_OK, PULL_OK
from repro.formats.converters import import_reads
from repro.storage.base import MemoryStore

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from zlib_spy import ZlibSpy  # noqa: E402

#: Payload shape: one 4 MiB column blob per chunk — the size class a
#: stage-boundary work item ships once bases/qual/results frames are
#: packed (scaled-up test chunks; real AGD chunks are the same order).
PAYLOAD_BYTES = 4 << 20
CHUNKS = 24
ROUNDS = 3
EDGE = "xfer"


def _transfer(server: BrokerServer, payloads) -> "tuple[float, list]":
    """One full edge pass: publish every payload, pull + ack every
    delivery.  Returns (wall seconds, pulled payloads in order)."""
    producer = TcpBrokerClient(*server.address)
    consumer = TcpBrokerClient(*server.address)
    producer.attach_producer(EDGE)
    try:
        start = time.monotonic()
        for index, payload in enumerate(payloads):
            status = producer.publish(EDGE, f"c-{index}", payload,
                                      timeout=30.0)
            assert status == PUBLISH_OK, status
        pulled = []
        while len(pulled) < len(payloads):
            status, tag, _key, payload = consumer.pull(EDGE, timeout=5.0)
            assert status == PULL_OK, status
            consumer.ack(EDGE, tag)
            pulled.append(bytes(payload))
        wall = time.monotonic() - start
    finally:
        producer.close()
        consumer.close()
    return wall, pulled


def _run_mode(shm_mode: bool, payloads) -> "tuple[float, list, dict]":
    best = None
    pulled = None
    stat = None
    for _ in range(ROUNDS):
        broker = Broker()
        broker.create_edge(EDGE, capacity=len(payloads), producers=1)
        server = BrokerServer(broker, shm=shm_mode).start()
        try:
            wall, out = _transfer(server, payloads)
            stat = broker.stats()[EDGE]
        finally:
            server.stop()
        if best is None or wall < best:
            best, pulled = wall, out
    return best, pulled, stat


@pytest.mark.skipif(not shm.shm_available(),
                    reason="POSIX shared memory unavailable")
def test_broker_wire_shm_throughput(report):
    cpus = os.cpu_count() or 1
    rng = np.random.default_rng(1717)
    payloads = [
        rng.integers(0, 256, size=PAYLOAD_BYTES, dtype=np.uint8).tobytes()
        for _ in range(CHUNKS)
    ]
    volume = sum(len(p) for p in payloads)

    before = set(shm.list_segments("psna-"))
    copy_wall, copy_out, copy_stat = _run_mode(False, payloads)
    shm_wall, shm_out, shm_stat = _run_mode(True, payloads)
    leaked = sorted(set(shm.list_segments("psna-")) - before)

    speedup = copy_wall / shm_wall if shm_wall else 0.0
    rep = report("broker_wire",
                 "Zero-copy broker plane — same-host shm handoff vs "
                 "TCP copy path")
    rep.add(f"host CPUs: {cpus}; payloads: {CHUNKS} x "
            f"{PAYLOAD_BYTES / 1e6:.0f} MB ({volume / 1e6:.0f} MB/round, "
            f"publish + pull across a loopback broker)")
    rep.row("TCP copy path", "2 socket crossings",
            f"{copy_wall:.3f} s ({volume / copy_wall / 1e6:.0f} MB/s)")
    rep.row("same-host shm handoff", ">= 1.5x",
            f"{shm_wall:.3f} s ({volume / shm_wall / 1e6:.0f} MB/s, "
            f"{speedup:.2f}x)")
    rep.metric("cpu_count", cpus)
    rep.metric("copy_wall_seconds", copy_wall)
    rep.metric("shm_wall_seconds", shm_wall)
    rep.metric("speedup", speedup)
    rep.metric("payload_bytes_per_round", volume)
    rep.metric("shm_handoff_bytes", shm_stat["shm_bytes"])
    rep.metric("shm_wire_bytes", shm_stat["wire_bytes"])
    rep.metric("copy_wire_bytes", copy_stat["wire_bytes"])
    rep.add()
    rep.add("shape checks:")
    rep.check("shm and copy deliveries byte-identical to the inputs",
              shm_out == payloads and copy_out == payloads)
    rep.check("copy path handed off nothing",
              copy_stat["shm_handoffs"] == 0)
    rep.check("shm path handed off every payload in both directions",
              shm_stat["shm_handoffs"] == 2 * CHUNKS)
    rep.check("shm path kept payload bytes off the socket",
              shm_stat["wire_bytes"] < copy_stat["wire_bytes"] / 100)
    rep.check("no /dev/shm segments leaked", not leaked)
    armed = cpus >= 2
    note = f"needs >= 2 CPUs, host has {cpus}" if not armed else ""
    rep.gate("shm_handoff_speedup", 1.5, speedup, armed, note=note)
    rep.finish()


#: The edge-codec cell's work item: one merged chunk of the benchmark
#: suite's downstream workloads (1000 records, all four columns).
ITEM_RECORDS = 1000
#: Raw framing must beat level-1 gzip framing on encode + decode of the
#: same item by at least this much (unarmed below 2 CPUs).
RAW_CODEC_GATE = 1.5


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

    broker = Broker()
    serializer = edge_item_serializer(LocalBrokerClient(broker))
    # The zlib the codec layer sees (chunk *indexes* are deflated by
    # ``agd/chunk.py`` through its own import, and are not counted).
    spy = ZlibSpy()
    monkeypatch.setattr(compression, "zlib", spy)
    frames = serializer.encode(item)
    decoded = serializer.decode(frames)
    zlib_calls = len(spy.calls)
    monkeypatch.undo()

    gzip = item_serializer()
    raw_wall = _best_of(
        lambda: serializer.decode(serializer.encode(item)))
    gzip_wall = _best_of(
        lambda: gzip.decode(gzip.encode(item)))
    ratio = gzip_wall / raw_wall if raw_wall else 0.0
    raw_bytes = sum(len(f) for f in frames)
    gzip_frames = gzip.encode(item)
    gzip_bytes = sum(len(f) for f in gzip_frames)

    rep = report("broker_wire_codec",
                 "Edge codec — in-process edges carry raw column frames")
    rep.add(f"host CPUs: {cpus}; one {ITEM_RECORDS}-record work item, "
            f"columns {sorted(item.columns)}")
    rep.row("raw frames (in-process client)", "0 zlib data-block calls",
            f"{raw_wall * 1e3:.2f} ms, {raw_bytes / 1e3:.0f} kB")
    rep.row("gzip level-1 frames (remote TCP)", f">= {RAW_CODEC_GATE:g}x",
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
    rep.check("in-process encode + decode made zero data-block zlib calls",
              zlib_calls == 0)
    rep.check("frames == columns declared by dupmark+varcall + header",
              len(frames) == len(keep) + 1 == 4)
    rep.check("raw and gzip frames decode to the same item",
              decoded == gzip.decode(gzip_frames))
    armed = cpus >= 2
    note = f"needs >= 2 CPUs, host has {cpus}" if not armed else ""
    rep.gate("raw_vs_gzip_codec", RAW_CODEC_GATE, ratio, armed, note=note)
    rep.finish()
