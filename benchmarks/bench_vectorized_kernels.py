"""Scalar-reference vs columnar-vectorized kernel microbenchmark.

The columnar fast path (repro.core.columnar) rewrites the three hottest
per-record loops — pileup accumulation, sort-key extraction + ordering,
and duplicate-signature extraction + scanning — as numpy array programs
over AGD columns, and the read generator (repro.genome.synthetic) draws
reads a block at a time.  This benchmark times each kernel pair on the
same aligned workload and asserts:

* **byte-identical outputs**: same VCF records, same sorted dataset
  bytes, same duplicate marks and stats;
* **the speedup shape**: the windowed pileup + calling (what the
  varcall stage runs behind a location sort) must be at least 5x faster
  than the scalar dict-of-Counter reference and hold at most a third of
  the contig span at once (a count gate), the columnar sort
  at least 2x faster than the row sort it replaced (the test oracle in
  ``tests/row_sort_oracle.py``), and the array dupmark at least 2x
  faster than the object-level specification driven over the dataset
  (``tests/dupmark_oracle.py``), and the array read generator at least
  5x faster than the per-read one (``tests/read_sim_oracle.py``; equal
  in law, not in bytes — ``tests/test_synthetic.py`` holds both to the
  same distributions), and the SNAP aligner's array program at least
  8x faster than its per-read loop (``conftest.PerReadSnapAligner``)
  with equal results, and the pileup chunk kernel on packed chunks at
  least 1.5x faster than the ASCII-and-segments kernel it replaced
  (``tests/pileup_oracle.py``), and no slower on chunks of trimmed
  reads, with identical partials — single-thread
  ratios on one box, so the gates are armed on any CPU count (CI's
  perf-smoke job runs this file, so a silent fallback to per-record
  work fails the build).

Related work anchors the expectation: BioWorkbench attributes its wins
to eliminating interpreter-bound inner loops, and Argyropoulos 2024
reports order-of-magnitude gains from array-language vectorization of
exactly these per-base genomics loops.
"""

from __future__ import annotations

import dataclasses
import gc
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro.agd.chunk import read_column, write_chunk
from repro.agd.records import record_type_for_column
from repro.align.snap import SnapAligner
from repro.core.columnar import pileup_partial
from repro.core.dupmark import DupmarkStats, mark_duplicates
from repro.core.ops import ChunkWorkItem, VarCallNode
from repro.core.pipelines import align_dataset
from repro.core.sort import SortConfig, sort_dataset
from repro.core.varcall import (
    VarCallConfig,
    call_from_pileup,
    pileup_dataset,
)
from repro.formats.converters import import_reads
from repro.genome.synthetic import ReadSimulator
from repro.storage.base import DirectoryStore, MemoryStore

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from dupmark_oracle import oracle_mark_duplicates  # noqa: E402
from pileup_oracle import oracle_pileup_partial  # noqa: E402
from read_sim_oracle import OracleReadSimulator  # noqa: E402
from row_sort_oracle import oracle_sort_dataset  # noqa: E402

#: The pileup chunk kernel must beat the ASCII-and-segments oracle by
#: this on the sorted world's packed chunks, where every read piles in
#: a block (1.64-2.02x in 18 full-file runs on 2 vCPUs; with the block
#: path off, the segment walk alone reads 1.23-1.43x) ...
PILEUP_KERNEL_SPEEDUP_GATE = 1.5
#: ... and must not be slower than it on those chunks half trimmed to
#: scattered lengths, where one length blocks and the rest walk
#: (1.25-1.39x; one block per distinct length reads ~0.4x).
PILEUP_TRIMMED_SPEEDUP_GATE = 1.0
#: The columnar sort must beat the row oracle by at least this factor.
SORT_SPEEDUP_GATE = 2.0
#: The array dupmark must beat the object-level specification by this.
DUPMARK_SPEEDUP_GATE = 2.0
#: The array read generator must beat the per-read one by this.
GENERATOR_SPEEDUP_GATE = 5.0
#: The sorted-input pileup window must hold at least this many times
#: fewer rows than the contigs span (an accumulate-then-call pileup
#: holds all of them: 1x).  The sorted world is four 1000-record chunks,
#: so one chunk's span plus one read — what the window holds — is a
#: little over a quarter of it.
WINDOW_SPAN_RATIO_GATE = 3.0
#: ``SnapAligner.align_reads`` must beat the per-read loop by this.
ALIGNER_SPEEDUP_GATE = 8.0
#: Chunks of the session read set the aligner gate aligns.
ALIGNER_CHUNKS = 6


@pytest.fixture(scope="module")
def aligned_world(bench_reads, bench_reference, bench_aligner):
    dataset = import_reads(
        bench_reads, "vecbench", MemoryStore(), chunk_size=400,
        reference=bench_reference.manifest_entry(),
    )
    align_dataset(dataset, bench_aligner,
                  workers=1)
    return dataset


@pytest.fixture(scope="module")
def sorted_world(aligned_world):
    """What phase 2 sees in a pipeline: the location-sorted dataset, in
    1000-record chunks (the benchmark suite's downstream fixture's
    size)."""
    return sort_dataset(aligned_world, MemoryStore(),
                        SortConfig(output_chunk_size=1000))


def _timed(fn, repeats: int = 1):
    best = None
    result = None
    for _ in range(repeats):
        start = time.monotonic()
        result = fn()
        elapsed = time.monotonic() - start
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def _alternating_best(oracle, kernel, repeats: int = 15):
    """``(oracle_s, kernel_s)``: each whole-workload call's best of
    ``repeats``.  Each is warmed by one untimed call, then the two take
    turns in alternating order, so neither always runs on the heap the
    other left, and every timed call starts from a collected heap, so
    neither pays for the garbage of whatever ran before it in the
    process (the whole-call form of :func:`_interleaved_best`)."""
    calls = (oracle, kernel)
    for call in calls:
        call()
    best = [float("inf")] * 2
    for rep in range(repeats):
        for k in ((0, 1) if rep % 2 == 0 else (1, 0)):
            gc.collect()
            start = time.perf_counter()
            calls[k]()
            best[k] = min(best[k], time.perf_counter() - start)
    return tuple(best)


def _windowed_calls(dataset, reference, config):
    """What the varcall stage does behind a location sort: each chunk's
    decoded columns through a sorted-input :class:`VarCallNode`, on the
    caller's thread."""
    node = VarCallNode(reference, config=config, sorted_input=True)
    for entry in dataset.manifest.chunks:
        node.process(ChunkWorkItem(entry=entry, columns={
            column: read_column(dataset.store.get(entry.chunk_file(column)))
            for column in ("results", "bases", "qual")
        }), None)
    node.finalize(None)
    return node


def test_vectorized_pileup_speedup(benchmark, sorted_world, bench_reference,
                                   report):
    dataset = sorted_world
    config = VarCallConfig()

    scalar_variants, scalar_s = _timed(
        lambda: call_from_pileup(pileup_dataset(dataset, config),
                                 bench_reference, config), repeats=3)
    node, vector_s = _timed(
        lambda: _windowed_calls(dataset, bench_reference, config), repeats=3)
    vector_variants = node.variants
    assert vector_variants == scalar_variants, \
        "windowed pileup changed the called variants"

    speedup = scalar_s / vector_s if vector_s else float("inf")
    contig_span = sum(len(c) for c in bench_reference.contigs)
    high_water = node.window.high_water_rows
    rep = report("vectorized_kernels_pileup",
                 "Windowed pileup + calling vs scalar reference")
    rep.row("scalar pileup + call (dict-of-Counter)", "baseline",
            f"{scalar_s * 1e3:.1f} ms")
    rep.row("sliding window (bincount partial, slice-add)", ">= 5x faster",
            f"{vector_s * 1e3:.1f} ms ({speedup:.1f}x)")
    rep.row("window high-water rows", "<= 1/3 of the contig span",
            f"{high_water} of {contig_span} "
            f"({100 * high_water / contig_span:.1f} %)")
    rep.metric("scalar_seconds", scalar_s)
    rep.metric("vectorized_seconds", vector_s)
    rep.metric("speedup", speedup)
    rep.metric("variants_called", len(vector_variants))
    rep.metric("window_high_water_rows", high_water)
    rep.metric("contig_span", contig_span)
    rep.add()
    rep.add("shape checks:")
    rep.check("identical VCF records from both paths",
              vector_variants == scalar_variants)
    rep.check("windowed pileup at least 5x faster than scalar",
              speedup >= 5.0)
    # A count, not a timing: armed everywhere, cannot flap.
    rep.gate("contig span over the window's high-water rows",
             WINDOW_SPAN_RATIO_GATE, contig_span / high_water, armed=True)
    rep.finish()

    benchmark.pedantic(
        lambda: _windowed_calls(dataset, bench_reference, config),
        rounds=1, iterations=1)


def _chunk_blobs(dataset):
    """Each stored chunk's results, bases and qual files."""
    return [
        tuple(dataset.store.get(entry.chunk_file(column))
              for column in ("results", "bases", "qual"))
        for entry in dataset.manifest.chunks
    ]


def _trimmed_blobs(blobs, seed: int = 0):
    """The same chunks with half their ``<L>M`` reads trimmed, as
    adapter trimming leaves them: each to a length drawn from ``[40,
    L)``, its CIGAR ``<l>M``.  A chunk then holds one common length (a
    block) and ~60 scattered ones (the segment walk)."""
    rng = np.random.default_rng(seed)
    trimmed = []
    for chunk in blobs:
        results, bases, quals = (list(read_column(blob)) for blob in chunk)
        for i, (result, read) in enumerate(zip(results, bases)):
            if result.cigar != b"%dM" % len(read) or rng.random() < 0.5:
                continue
            keep = int(rng.integers(40, len(read)))
            results[i] = dataclasses.replace(result, cigar=b"%dM" % keep)
            bases[i], quals[i] = read[:keep], quals[i][:keep]
        trimmed.append(tuple(
            write_chunk(records, record_type_for_column(column))
            for records, column in ((results, "results"), (bases, "bases"),
                                    (quals, "qual"))))
    return trimmed


def _interleaved_best(kernels, blobs, config, repeats: int = 15):
    """Seconds of each kernel over every chunk — each chunk's best of
    ``repeats`` calls, summed — and its partials.  Every call gets a
    freshly decoded chunk (decoding stays untimed; the oracle fills the
    bases column's ASCII cache), each kernel is warmed by one untimed
    pass, and the kernels take turns within each repeat, in alternating
    order, so neither always runs on the heap the other left."""
    def run(kernel):
        partials, seconds = [], []
        for chunk in blobs:
            columns = [read_column(blob) for blob in chunk]
            start = time.perf_counter()
            partials.append(kernel(*columns, config))
            seconds.append(time.perf_counter() - start)
        return partials, np.array(seconds)

    partials = [run(kernel)[0] for kernel in kernels]
    best = [np.full(len(blobs), np.inf) for _ in kernels]
    for rep in range(repeats):
        order = range(len(kernels))
        for k in (order if rep % 2 == 0 else reversed(order)):
            np.minimum(best[k], run(kernels[k])[1], out=best[k])
    return partials, [float(b.sum()) for b in best]


def _same_partials(left, right) -> bool:
    return len(left) == len(right) and all(
        a.keys() == b.keys() and all(
            a[c][0] == b[c][0] and a[c][1].dtype == b[c][1].dtype
            and np.array_equal(a[c][1], b[c][1]) for c in a)
        for a, b in zip(left, right))


def test_pileup_kernel_speedup(benchmark, sorted_world, report):
    """The chunk kernel alone, on packed chunks: base codes read from
    the words and ``<L>M`` reads piled as one block, against the
    ASCII-and-segments oracle (``tests/pileup_oracle.py``) — on the
    sorted world's chunks (one read length: all blocks) and on the same
    chunks half trimmed (one block beside a segment walk over lengths
    too rare to block)."""
    config = VarCallConfig()
    blobs = _chunk_blobs(sorted_world)
    inputs = {"sorted": blobs, "trimmed": _trimmed_blobs(blobs)}
    gates = {"sorted": PILEUP_KERNEL_SPEEDUP_GATE,
             "trimmed": PILEUP_TRIMMED_SPEEDUP_GATE}
    measured = {}
    for name, chunks in inputs.items():
        (oracle, partials), (oracle_s, kernel_s) = _interleaved_best(
            (oracle_pileup_partial, pileup_partial), chunks, config)
        measured[name] = (_same_partials(partials, oracle), oracle_s,
                          kernel_s, oracle_s / kernel_s)
    assert all(m[0] for m in measured.values()), \
        "the pileup kernel changed a partial"

    rep = report("vectorized_kernels_pileup_kernel",
                 "Packed-code block pileup vs the ASCII-and-segments oracle")
    for name, (_, oracle_s, kernel_s, speedup) in measured.items():
        rep.row(f"{name}: oracle (decoded ASCII, per-base segment indices)",
                "baseline", f"{oracle_s * 1e3:.1f} ms")
        rep.row(f"{name}: kernel (3-bit codes, <L>M reads as blocks)",
                f">= {gates[name]:g}x",
                f"{kernel_s * 1e3:.1f} ms ({speedup:.2f}x)")
        rep.metric(f"{name}_oracle_seconds", oracle_s)
        rep.metric(f"{name}_kernel_seconds", kernel_s)
        rep.metric(f"{name}_speedup", speedup)
    rep.metric("chunks", len(blobs))
    rep.add()
    rep.add("shape checks:")
    rep.check("identical partials from both kernels",
              all(m[0] for m in measured.values()))
    # Single-threaded on both sides, same chunks: armed on any CPU count.
    for name, (_, _, _, speedup) in measured.items():
        rep.gate(f"{name} chunks: pileup kernel speedup over the oracle",
                 gates[name], speedup, armed=True)
    rep.finish()

    benchmark.pedantic(
        lambda: [pileup_partial(*(read_column(blob) for blob in chunk),
                                config) for chunk in blobs],
        rounds=1, iterations=1)


@pytest.fixture()
def scratch_root(tmp_path):
    """A directory for sort scratch — on tmpfs where there is one, so the
    spill files cost both sorts a memcpy, not the disk's mood."""
    if not Path("/dev/shm").is_dir():
        yield tmp_path
        return
    with tempfile.TemporaryDirectory(dir="/dev/shm",
                                     prefix="bench-sort-") as root:
        yield Path(root)


def test_columnar_sort_speedup(benchmark, aligned_world, report,
                               scratch_root):
    dataset = aligned_world
    # Raw scratch frames (a directory scratch) and level-1 output on both
    # sides: compression is zlib's time, the same for either sort, and
    # only dilutes a ratio meant to catch per-record work creeping back
    # into the sort.
    config = SortConfig(chunks_per_superchunk=4, output_codec_level=1)
    oracle_scratch = DirectoryStore(scratch_root / "oracle")
    columnar_scratch = DirectoryStore(scratch_root / "columnar")

    oracle_store = MemoryStore()
    columnar_store = MemoryStore()
    oracle_s, columnar_s = _alternating_best(
        lambda: oracle_sort_dataset(dataset, oracle_store, config,
                                    oracle_scratch),
        lambda: sort_dataset(dataset, columnar_store, config,
                             columnar_scratch))

    oracle_blobs = {k: oracle_store.get(k) for k in oracle_store.keys()}
    columnar_blobs = {k: columnar_store.get(k)
                      for k in columnar_store.keys()}
    assert columnar_blobs == oracle_blobs, \
        "columnar sort changed the output bytes"

    speedup = oracle_s / columnar_s if columnar_s else float("inf")
    rep = report("vectorized_kernels_sort",
                 "Columnar sort (key argsort + column gathers) vs row oracle")
    rep.row("row oracle (tuple rows, list.sort, heapq)", "baseline",
            f"{oracle_s * 1e3:.1f} ms")
    rep.row("columnar sort (argsort + take per column)",
            f">= {SORT_SPEEDUP_GATE:g}x",
            f"{columnar_s * 1e3:.1f} ms ({speedup:.2f}x)")
    rep.metric("oracle_seconds", oracle_s)
    rep.metric("columnar_seconds", columnar_s)
    rep.metric("speedup", speedup)
    rep.add()
    rep.add("shape checks:")
    rep.check("columnar sort output byte-identical to the row oracle",
              columnar_blobs == oracle_blobs)
    # Both sides run single-threaded in this process on the same data,
    # so the ratio means the same on one CPU as on sixteen: always armed.
    rep.gate("columnar sort speedup over the row oracle",
             SORT_SPEEDUP_GATE, speedup, armed=True)
    rep.finish()

    benchmark.pedantic(
        lambda: sort_dataset(dataset, MemoryStore(), config,
                             columnar_scratch),
        rounds=1, iterations=1,
    )


def test_vectorized_dupmark_speedup(benchmark, sorted_world, report):
    # On ``sorted_world`` both sides spend about half of the array
    # path's time in the same zlib calls; on the unsorted 400-record
    # chunks of ``aligned_world`` that share, plus per-chunk fixed cost,
    # is larger and the ratio reads ~1.9x.

    def fresh_copy():
        dataset = sorted_world
        store = MemoryStore()
        for key in dataset.store.keys():
            store.put(key, dataset.store.get(key))
        from repro.agd.dataset import AGDDataset
        from repro.agd.manifest import Manifest

        manifest = Manifest.from_json(dataset.manifest.to_json())
        return AGDDataset(manifest, store)

    # Marking is idempotent byte-wise (re-marking an already-marked
    # dataset flips no flags), so best-of-N on the same copy is sound.
    scalar_ds = fresh_copy()
    vector_ds = fresh_copy()
    scalar_s, vector_s = _alternating_best(
        lambda: oracle_mark_duplicates(scalar_ds, DupmarkStats()),
        lambda: mark_duplicates(vector_ds, DupmarkStats()))
    scalar_stats = oracle_mark_duplicates(scalar_ds, DupmarkStats())
    vector_stats = mark_duplicates(vector_ds, DupmarkStats())

    scalar_blobs = {k: scalar_ds.store.get(k) for k in scalar_ds.store.keys()}
    vector_blobs = {k: vector_ds.store.get(k) for k in vector_ds.store.keys()}
    assert vector_blobs == scalar_blobs, \
        "array dupmark changed the marked dataset bytes"
    assert vector_stats == scalar_stats

    speedup = scalar_s / vector_s if vector_s else float("inf")
    rep = report("vectorized_kernels_dupmark",
                 "Array duplicate marking vs the object-level specification")
    rep.row("specification (objects, tuple signatures, re-encode)",
            "baseline", f"{scalar_s * 1e3:.1f} ms")
    rep.row("array dupmark (packed-key scan, flag-byte patch)",
            f">= {DUPMARK_SPEEDUP_GATE:g}x",
            f"{vector_s * 1e3:.1f} ms ({speedup:.2f}x)")
    rep.metric("scalar_seconds", scalar_s)
    rep.metric("vectorized_seconds", vector_s)
    rep.metric("speedup", speedup)
    rep.metric("duplicates_marked", vector_stats.duplicates_marked)
    rep.add()
    rep.add("shape checks:")
    rep.check("identical duplicate marks and stats",
              vector_blobs == scalar_blobs)
    # Single-threaded on both sides, same data: armed on any CPU count.
    rep.gate("array dupmark speedup over the object specification",
             DUPMARK_SPEEDUP_GATE, speedup, armed=True)
    rep.finish()

    benchmark.pedantic(
        lambda: mark_duplicates(fresh_copy(), DupmarkStats()),
        rounds=1, iterations=1,
    )


def test_array_generator_speedup(benchmark, bench_reference, bench_reads,
                                 report):
    # The session read set's own size and parameters (BENCH_READS).
    count, read_length = bench_reads.bases.shape

    def simulate(simulator_class):
        return simulator_class(
            bench_reference, read_length=read_length,
            duplicate_fraction=0.12, seed=7002,
        ).simulate(count)

    (_, oracle_origins), oracle_s = _timed(
        lambda: simulate(OracleReadSimulator), repeats=3)
    (reads, origins), array_s = _timed(
        lambda: simulate(ReadSimulator), repeats=3)
    assert len(reads) == len(origins) == len(oracle_origins) == count

    speedup = oracle_s / array_s if array_s else float("inf")
    rep = report("vectorized_kernels_generator",
                 "Array-at-a-time read generator vs the per-read oracle")
    rep.row("per-read oracle (scalar draws, one ReadRecord per read)",
            "baseline", f"{oracle_s * 1e3:.1f} ms")
    rep.row("array generator (block draws into a ReadBatch)",
            f">= {GENERATOR_SPEEDUP_GATE:g}x",
            f"{array_s * 1e3:.1f} ms ({speedup:.1f}x)")
    rep.metric("oracle_seconds", oracle_s)
    rep.metric("array_seconds", array_s)
    rep.metric("speedup", speedup)
    rep.metric("reads", count)
    rep.metric("reads_per_second", count / array_s)
    rep.add()
    rep.add("shape checks:")
    # Single-threaded on both sides, same parameters: armed on any CPU
    # count.
    rep.gate("array generator speedup over the per-read oracle",
             GENERATOR_SPEEDUP_GATE, speedup, armed=True)
    rep.finish()

    benchmark.pedantic(lambda: simulate(ReadSimulator),
                       rounds=1, iterations=1)


def test_array_aligner_speedup(benchmark, bench_dataset, bench_index,
                               bench_per_read_aligner, report):
    # What the align stage hands the aligner: a chunk's bases column.
    store = bench_dataset.store
    chunks = [read_column(store.get(entry.chunk_file("bases")))
              for entry in bench_dataset.manifest.chunks[:ALIGNER_CHUNKS]]
    reads = sum(len(chunk) for chunk in chunks)

    def align(aligner):
        return [aligner.align_reads(chunk) for chunk in chunks]

    expected, oracle_s = _timed(lambda: align(bench_per_read_aligner),
                                repeats=3)
    array = SnapAligner(bench_index)
    got, array_s = _timed(lambda: align(array), repeats=3)
    assert got == expected, "the array aligner changed the results"

    speedup = oracle_s / array_s if array_s else float("inf")
    rep = report("vectorized_kernels_aligner",
                 "SNAP array program vs the per-read loop")
    rep.row("per-read loop (align_read per read)", "baseline",
            f"{oracle_s * 1e3:.1f} ms")
    rep.row("array program (align_reads per chunk)",
            f">= {ALIGNER_SPEEDUP_GATE:g}x",
            f"{array_s * 1e3:.1f} ms ({speedup:.1f}x)")
    rep.metric("oracle_seconds", oracle_s)
    rep.metric("array_seconds", array_s)
    rep.metric("speedup", speedup)
    rep.metric("reads", reads)
    rep.add()
    rep.add("shape checks:")
    rep.check("identical results from both paths", got == expected)
    # Single-threaded on both sides, same reads: armed on any CPU count.
    rep.gate("array aligner speedup over the per-read loop",
             ALIGNER_SPEEDUP_GATE, speedup, armed=True)
    rep.finish()

    benchmark.pedantic(lambda: align(SnapAligner(bench_index)),
                       rounds=1, iterations=1)
