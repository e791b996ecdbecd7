"""Ablation — queue depth and memory bounding (§4.5).

The paper: "Persona controls memory pressure by limiting the queue length
and therefore the number of objects passed around ... Queue capacity is
kept at a level that ensures there is always data to feed the process
subgraph, but the individual servers do not have too many AGD chunks in
their pipelines, which can lead to stragglers."

This ablation sweeps the queue capacity of the alignment graph and
measures (a) peak chunks in flight — the memory bound — and (b) wall
time.  Deep queues buy nothing once the process subgraph is saturated;
the in-flight count is capped by capacity, which is the whole §4.5
argument for shallow queues.
"""

from __future__ import annotations

from repro.core.pipelines import align_dataset
from repro.core.subgraphs import AlignGraphConfig
from repro.formats.converters import import_reads
from repro.storage.base import MemoryStore


def test_ablation_queue_depth(benchmark, bench_reads, bench_reference,
                              bench_aligner, report):
    rows = []
    for depth in (1, 2, 8, 32):
        dataset = import_reads(
            bench_reads, f"qd{depth}", MemoryStore(), chunk_size=200,
            reference=bench_reference.manifest_entry(),
        )
        config = AlignGraphConfig(
            aligner_nodes=1, reader_nodes=1, parser_nodes=1,
            queue_depth=depth,
        )
        outcome = align_dataset(dataset, bench_aligner, config=config,
                                output_store=MemoryStore(), workers=1)
        queues = outcome.report["queues"]
        peak_in_flight = sum(q["max_depth"] for q in queues.values())
        rows.append({
            "depth": depth,
            "wall": outcome.wall_seconds,
            "peak": peak_in_flight,
        })

    rep = report("ablation_queue_depth",
                 "Ablation — queue depth vs memory and wall time (§4.5)")
    rep.add(f"{'capacity':>9} {'wall':>8} {'peak chunks in flight':>22}")
    for row in rows:
        rep.add(f"{row['depth']:>9} {row['wall']:>7.2f}s {row['peak']:>22}")
    shallow = rows[1]  # capacity 2 (the paper's default regime)
    deepest = rows[-1]
    rep.add()
    rep.add("shape checks:")
    rep.check(
        "peak in-flight chunks grow with queue capacity",
        deepest["peak"] > rows[0]["peak"],
    )
    rep.check(
        "peak in-flight chunks are bounded by total capacity",
        all(
            row["peak"] <= row["depth"] * 5 + 5  # 5 queues in the graph
            for row in rows
        ),
    )
    rep.check(
        "deep queues buy no speedup once the pipeline is fed (<15%)",
        deepest["wall"] > 0.85 * shallow["wall"],
    )
    rep.finish()

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
