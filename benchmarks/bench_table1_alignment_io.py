"""Table 1 — Dataset Alignment Time, Single Server (§5.3).

Paper result (SNAP standalone on gzip'd FASTQ vs Persona on AGD):

    Disk(Single)   817 s vs 501 s    -> 1.63x
    Disk(RAID)     494 s vs 499 s    -> 0.99x (parity)
    Network        760 s vs 493.5 s  -> 1.54x
    Data Read      18 GB vs 15 GB    -> 1.2x
    Data Written   67 GB vs 4 GB     -> 16.75x

Shape to reproduce: Persona wins on bandwidth-starved storage (single
disk, network) because AGD reads only the needed columns and writes only
the compact results column; on RAID0 both systems are CPU-bound and tie.

Methodology: storage devices are bandwidth-modeled.  The single-disk
bandwidth is auto-calibrated so the *standalone* pipeline's byte demand
exceeds it by the paper's ~1.6x (its measured Table 1 regime) while
Persona's much smaller demand stays below it; RAID0 provides 6x stripes
(ample for both); the network store sits between.  This reproduces the
compute-to-I/O ratios of the paper's testbed on any host speed — the
byte *volumes* (the last two rows) are real measurements of our formats,
not calibrated.
"""

from __future__ import annotations

import pytest

from repro.agd.dataset import AGDDataset
from repro.core.pipelines import (
    align_dataset,
    align_standalone,
    stage_fastq_shards,
)
from repro.core.subgraphs import AlignGraphConfig
from repro.storage.base import MemoryStore
from repro.storage.diskmodel import WritebackDiskModel, raid0
from repro.storage.local import CountingStore, ModeledDiskStore

from models.ceph import CephConfig, CephStore, SimulatedCephCluster

# Single-threaded kernels: pure-Python compute gains nothing from more
# threads (GIL), and fewer runnable threads keeps timing noise low.  The
# I/O-overlap machinery (separate reader/aligner/writer threads, bounded
# queues) still operates exactly as in the paper.  ``--backend`` swaps
# the compute substrate (see conftest) without touching this shape.
CONFIG = AlignGraphConfig(
    aligner_nodes=1, reader_nodes=1, parser_nodes=1, writer_nodes=1,
)
WORKERS = 1


@pytest.fixture(scope="module")
def bench_aligner(bench_per_read_aligner):
    # "On RAID0 both systems are CPU-bound and tie" needs alignment to
    # be the CPU cost, as in the paper: align through the per-read loop
    # (~0.1 ms per read).  With SNAP's batch program (~20 us) FASTQ
    # parsing and SAM formatting decide the RAID0 row, not the aligner.
    return bench_per_read_aligner


def _agd_input_keys(dataset):
    return [
        entry.chunk_file(column)
        for entry in dataset.manifest.chunks
        for column in ("bases", "qual")
    ]


def _persona_run(dataset, aligner, store, backend):
    modeled = AGDDataset(dataset.manifest, store)
    outcome = align_dataset(modeled, aligner, config=CONFIG,
                            output_store=store, backend=backend,
                            workers=WORKERS)
    return outcome


def _standalone_run(dataset, aligner, reference, store, backend):
    return align_standalone(
        dataset.manifest, store, store, aligner,
        reference.manifest_entry(), config=CONFIG, backend=backend,
        workers=WORKERS,
    )


@pytest.fixture(scope="module")
def calibration(bench_reads, bench_reference, bench_aligner,
                bench_backend_kind):
    """Unmetered reference runs: compute walls and true byte volumes."""
    from repro.formats.converters import import_reads

    dataset = import_reads(
        bench_reads, "bench", MemoryStore(), chunk_size=400,
        reference=bench_reference.manifest_entry(),
    )
    # Persona pure-compute run (counting I/O volumes as a side effect).
    persona_store = CountingStore(dataset.store)
    persona_pure = _persona_run(dataset, bench_aligner, persona_store,
                                bench_backend_kind)
    # Standalone pure-compute run.
    staging = MemoryStore()
    staged_bytes = stage_fastq_shards(dataset, staging)
    standalone_store = CountingStore(staging)
    standalone_pure = _standalone_run(
        dataset, bench_aligner, bench_reference, standalone_store,
        bench_backend_kind,
    )
    return {
        "dataset": dataset,
        "persona_wall": persona_pure.wall_seconds,
        "standalone_wall": standalone_pure.wall_seconds,
        "persona_read": persona_store.bytes_read,
        "persona_written": persona_store.bytes_written,
        "standalone_read": standalone_store.bytes_read,
        "standalone_written": standalone_store.bytes_written,
        "staged_bytes": staged_bytes,
    }


def test_table1_single_server_alignment(
    benchmark, bench_aligner, bench_reference, calibration, report,
    bench_backend_kind,
):
    cal = calibration
    dataset = cal["dataset"]
    standalone_io = cal["standalone_read"] + cal["standalone_written"]
    # Size the single disk so the standalone pipeline is ~1.6x I/O-bound
    # (the paper's measured regime); Persona's demand is ~3x smaller.
    single_bw = standalone_io / (1.63 * cal["standalone_wall"])
    network_bw = standalone_io / (1.54 * cal["standalone_wall"])

    def single_disk():
        return WritebackDiskModel(
            read_bandwidth=single_bw, write_bandwidth=single_bw,
            dirty_limit=max(64 * 1024, cal["standalone_written"] // 5),
        )

    results = {}

    # --- Disk (single) -----------------------------------------------------
    staging = MemoryStore()
    stage_fastq_shards(dataset, staging)
    sa_store = ModeledDiskStore(single_disk(), backing=staging)
    sa = _standalone_run(dataset, bench_aligner, bench_reference, sa_store,
                         bench_backend_kind)
    sa_store.flush()
    pe_store = ModeledDiskStore(single_disk(), backing=dataset.store)
    pe = _persona_run(dataset, bench_aligner, pe_store, bench_backend_kind)
    pe_store.flush()
    results["single"] = (sa.wall_seconds, pe.wall_seconds)

    # --- Disk (RAID0 x6) ---------------------------------------------------
    staging = MemoryStore()
    stage_fastq_shards(dataset, staging)
    sa_store = ModeledDiskStore(raid0(6, single_bw), backing=staging)
    sa = _standalone_run(dataset, bench_aligner, bench_reference, sa_store,
                         bench_backend_kind)
    pe_store = ModeledDiskStore(raid0(6, single_bw), backing=dataset.store)
    pe = _persona_run(dataset, bench_aligner, pe_store, bench_backend_kind)
    results["raid"] = (sa.wall_seconds, pe.wall_seconds)

    # --- Network (Ceph-like object store) -----------------------------------
    def cluster():
        return SimulatedCephCluster(CephConfig(
            num_nodes=7, disks_per_node=10,
            disk_bandwidth=network_bw,  # per-OSD-node: ample
            network_bandwidth=network_bw,
        ))

    c1 = cluster()
    staging = MemoryStore()
    stage_fastq_shards(dataset, staging)
    for key in staging.keys():
        c1._objects.put("sa/" + key, staging.get(key))
    sa = _standalone_run(dataset, bench_aligner, bench_reference,
                         CephStore(c1, prefix="sa/"), bench_backend_kind)
    c2 = cluster()
    for key in _agd_input_keys(dataset):
        c2._objects.put("pe/" + key, dataset.store.get(key))
    pe = _persona_run(dataset, bench_aligner, CephStore(c2, prefix="pe/"),
                      bench_backend_kind)
    results["network"] = (sa.wall_seconds, pe.wall_seconds)

    # ---------------------------------------------------------------- report
    rep = report("table1_alignment_io",
                 "Table 1 — Dataset Alignment Time, Single Server")
    s, r, n = results["single"], results["raid"], results["network"]
    read_ratio = cal["standalone_read"] / cal["persona_read"]
    write_ratio = cal["standalone_written"] / cal["persona_written"]
    rep.row("Disk(Single) speedup (standalone/Persona)", "1.63x",
            f"{s[0] / s[1]:.2f}x", f"({s[0]:.2f}s vs {s[1]:.2f}s)")
    rep.row("Disk(RAID) speedup", "0.99x", f"{r[0] / r[1]:.2f}x",
            f"({r[0]:.2f}s vs {r[1]:.2f}s)")
    rep.row("Network speedup", "1.54x", f"{n[0] / n[1]:.2f}x",
            f"({n[0]:.2f}s vs {n[1]:.2f}s)")
    rep.row("Data read ratio (standalone/Persona)", "1.2x",
            f"{read_ratio:.2f}x",
            f"({cal['standalone_read']} B vs {cal['persona_read']} B)")
    rep.row("Data written ratio", "16.75x", f"{write_ratio:.2f}x",
            f"({cal['standalone_written']} B vs {cal['persona_written']} B)")
    rep.add()
    rep.add("shape checks:")
    rep.check("Persona faster on bandwidth-starved single disk (>1.2x)",
              s[0] / s[1] > 1.2)
    rep.check("parity on RAID0 (within 20%)", 0.80 < r[0] / r[1] < 1.25)
    rep.check("Persona faster on network storage (>1.15x)",
              n[0] / n[1] > 1.15)
    rep.check("write-volume advantage about an order of magnitude (>8x)",
              write_ratio > 8)
    rep.check("read volumes comparable (<1.6x apart)", read_ratio < 1.6)
    rep.finish()

    # pytest-benchmark timer: the CPU-bound Persona RAID0 configuration.
    benchmark.pedantic(
        lambda: _persona_run(
            dataset, bench_aligner,
            ModeledDiskStore(raid0(6, single_bw), backing=dataset.store),
            bench_backend_kind,
        ),
        rounds=1, iterations=1,
    )
