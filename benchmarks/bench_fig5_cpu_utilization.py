"""Figure 5 — CPU utilization: single disk vs RAID0 (§5.3).

Paper result: on a single disk, standalone SNAP "shows a cyclical pattern
... where the operating system's buffer cache writeback policy competes
with the application-driven data reads; during periods of writeback, the
application is unable to read input data fast enough and threads go
idle", while Persona stays CPU-bound.  On RAID0 both stay CPU-bound.

Shape to reproduce: the standalone/single-disk trace dips repeatedly; the
Persona traces and the RAID0 traces are flat and high.
"""

from __future__ import annotations

import pytest

from repro.agd.dataset import AGDDataset
from repro.core.ops import NullSinkNode
from repro.core.pipelines import (
    PipelineSpec,
    align_standalone,
    stage_fastq_shards,
)
from repro.core.subgraphs import STAGES, AlignGraphConfig, ServerSite
from repro.dataflow.session import Session
from repro.storage.base import MemoryStore
from repro.storage.diskmodel import WritebackDiskModel, raid0
from repro.storage.local import CountingStore, ModeledDiskStore

from models.cputrace import BusyCounter, UtilizationSampler, counting_backend

CONFIG = AlignGraphConfig(aligner_nodes=1, reader_nodes=1, parser_nodes=1)
WORKERS = 1


@pytest.fixture(scope="module")
def bench_aligner(bench_per_read_aligner):
    # The figure is about an aligner that keeps its core busy: align
    # through the per-read loop (~0.1 ms of compute per read).  SNAP's
    # batch program leaves ~20 us, and the run lasts too few 10 ms
    # samples for the absolute utilization checks below.
    return bench_per_read_aligner


def _run_with_trace(run, kind):
    """Trace ``run(backend)`` on a backend of ``kind`` that reports to a
    busy counter the sampler reads."""
    busy = BusyCounter()
    backend = counting_backend(kind, busy, workers=WORKERS)
    try:
        with UtilizationSampler([busy], capacity=1, interval=0.01) as sampler:
            run(backend)
    finally:
        backend.shutdown(wait=False)
    return sampler.trace


def _standalone(manifest, store, aligner, contigs):
    return lambda backend: align_standalone(
        manifest, store, store, aligner, contigs, config=CONFIG,
        backend=backend, session_timeout=300,
    )


def _persona(manifest, store, aligner):
    """The align stage over ``store`` closed by a counting sink — the
    graph ``align_dataset`` runs, without its base-count pre-pass, which
    would read the modeled disk inside the trace."""
    def run(backend):
        stage = STAGES["align"].build(
            PipelineSpec(AGDDataset(manifest, store), ("align",),
                         align_config=CONFIG),
            ServerSite(aligner=aligner, backend=backend),
        )
        stage.graph.add(NullSinkNode(), input=stage.sink)
        Session(stage.graph).run(timeout=300)
    return run


@pytest.fixture(scope="module")
def world(bench_reads, bench_reference, bench_aligner, bench_backend_kind):
    from repro.formats.converters import import_reads

    dataset = import_reads(
        bench_reads, "fig5", MemoryStore(), chunk_size=400,
        reference=bench_reference.manifest_entry(),
    )
    # Calibrate the single disk from an unmetered standalone run.
    staging = MemoryStore()
    stage_fastq_shards(dataset, staging)
    counting = CountingStore(staging)
    pure = align_standalone(
        dataset.manifest, counting, counting, bench_aligner,
        bench_reference.manifest_entry(), config=CONFIG,
        backend=bench_backend_kind, workers=WORKERS,
    )
    io_bytes = counting.bytes_read + counting.bytes_written
    single_bw = io_bytes / (1.8 * pure.wall_seconds)
    return dataset, staging, single_bw, counting.bytes_written


def test_fig5_cpu_utilization(
    benchmark, world, bench_aligner, bench_reference, report,
    bench_backend_kind,
):
    dataset, fastq_staging, single_bw, sam_bytes = world
    contigs = bench_reference.manifest_entry()

    def single_disk():
        # Small dirty limit -> several writeback storms per run.
        return WritebackDiskModel(
            read_bandwidth=single_bw, write_bandwidth=single_bw,
            dirty_limit=max(32 * 1024, sam_bytes // 8),
        )

    manifest = dataset.manifest
    traces = {}
    # Standalone, single disk: the Fig. 5a cyclical pattern.
    store = ModeledDiskStore(single_disk(), backing=fastq_staging)
    traces["standalone/single"] = _run_with_trace(_standalone(
        manifest, store, bench_aligner, contigs), bench_backend_kind)
    # Persona, single disk.
    pstore = ModeledDiskStore(single_disk(), backing=dataset.store)
    traces["persona/single"] = _run_with_trace(_persona(
        manifest, pstore, bench_aligner), bench_backend_kind)
    # Standalone, RAID0.
    rstore = ModeledDiskStore(raid0(6, single_bw), backing=fastq_staging)
    traces["standalone/raid0"] = _run_with_trace(_standalone(
        manifest, rstore, bench_aligner, contigs), bench_backend_kind)
    # Persona, RAID0.
    prstore = ModeledDiskStore(raid0(6, single_bw), backing=dataset.store)
    traces["persona/raid0"] = _run_with_trace(_persona(
        manifest, prstore, bench_aligner), bench_backend_kind)

    rep = report("fig5_cpu_utilization",
                 "Figure 5 — CPU utilization, single disk vs RAID0")
    for name, trace in traces.items():
        rep.add(f"\n{name}: mean utilization "
                f"{trace.mean_utilization:.2f}, dips "
                f"{trace.dip_count(0.5)}")
        rep.add(trace.ascii_plot(width=60, height=5))
    sa_single = traces["standalone/single"]
    pe_single = traces["persona/single"]
    sa_raid = traces["standalone/raid0"]
    rep.add()
    rep.add("shape checks:")
    rep.check("standalone/single shows cyclical starvation (>=2 dips)",
              sa_single.dip_count(0.5) >= 2)
    rep.check("standalone/single has the lowest mean utilization",
              sa_single.mean_utilization
              == min(t.mean_utilization for t in traces.values()))
    rep.check("persona/single stays CPU-bound (mean >= 0.7)",
              pe_single.mean_utilization >= 0.7)
    rep.check("RAID0 restores standalone utilization (mean >= 0.7)",
              sa_raid.mean_utilization >= 0.7)
    rep.check(
        "persona/single clearly above standalone/single (>=1.2x mean)",
        pe_single.mean_utilization >= 1.2 * sa_single.mean_utilization,
    )
    rep.finish()

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
