"""The four workloads, and the child process that runs one repetition.

Run as a script, this file executes ONE repetition of one workload in
this (fresh) process and prints one JSON line: the end-to-end numbers of
the timed call, the correctness checks, the output digest, and the
per-layer counters the call's public return value carries.  With
``--trace 1`` the stores and the backend are replaced by the timing
proxies of :mod:`spans`, and a *layer replay* follows the run: each
layer's public function is called alone on the same data inside a span.

Every workload is a batch job driven closed-loop by one client — the
parent starts the next repetition only when this one has exited.
"""

from __future__ import annotations

import argparse
import faulthandler
import gc
import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import fixtures
from spans import (
    StackSampler,
    TimedBackend,
    TimedStore,
    Tracer,
    covered_seconds,
    layer_seconds,
)

from repro.agd.chunk import read_chunk, read_chunk_header, write_chunk
from repro.agd.dataset import AGDDataset
from repro.cluster.multiserver import run_placed_pipeline
from repro.cluster.placement import PlacementPlan
from repro.core.dupmark import mark_duplicates
from repro.core.pipelines import run_pipeline
from repro.core.sort import SortConfig, sort_dataset, verify_sorted
from repro.core.varcall import call_variants
from repro.dataflow.backends import make_backend
from repro.storage.base import DirectoryStore, MemoryStore
from repro.storage.local import CountingStore

ALL_STAGES = ("align", "sort", "dupmark", "varcall")
DOWNSTREAM_STAGES = ("sort", "dupmark", "varcall")
PLACEMENT = "A=sort;B=dupmark,varcall"
#: Packages under ``repro/`` whose in-run thread time is reported.
SAMPLED_LAYERS = ("agd", "align", "core", "storage", "dataflow", "cluster")
#: Reads the aligner replay times; fixed so the number is comparable
#: across seeds and scales.
ALIGN_REPLAY_READS = 1500
#: Chunks per column the AGD codec replay decodes and re-encodes.
AGD_REPLAY_CHUNKS = 6
#: An aligned read counts as correct within this many bases of its
#: origin (an indel near the read start shifts the reported position).
POSITION_TOLERANCE = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fixture: str
    stages: "tuple[str, ...]"
    backend: str
    placed: bool = False
    #: A workload on the same fixture whose output digest must match.
    sibling: "str | None" = None


WORKLOADS = {w.name: w for w in (
    Workload(
        "wgs_serial",
        "align+sort+dupmark+varcall, serial backend, memory stores: the "
        "aligner is ~90% of it and storage and IPC are out of the picture",
        "wgs", ALL_STAGES, "serial",
    ),
    Workload(
        "wgs_process",
        "same input on the process backend x2: puts dataflow (pool, IPC, "
        "shm views) on the path, so an aligner win shows here and on "
        "wgs_serial, a dataflow win only here",
        "wgs", ALL_STAGES, "process", sibling="wgs_serial",
    ),
    Workload(
        "downstream_single",
        "sort+dupmark+varcall on a pre-aligned on-disk dataset with sort "
        "spills: no aligner, so core kernels, agd codecs and storage do "
        "all the work",
        "downstream", DOWNSTREAM_STAGES, "serial",
    ),
    Workload(
        "downstream_placed",
        "same input placed over two servers and the in-process broker: "
        "same kernels as downstream_single, so the difference is the "
        "cluster layer",
        "downstream", DOWNSTREAM_STAGES, "serial", placed=True,
        sibling="downstream_single",
    ),
)}


def worker_count() -> int:
    return min(os.cpu_count() or 1, 2)


def _cpu_seconds() -> float:
    """User+system CPU of this process and its waited-for children
    (``os.times()`` rounds to the clock tick; this has all the digits)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + children.ru_utime + children.ru_stime)


def _peak_rss_mb() -> float:
    """Runner plus its largest child, MB (``ru_maxrss`` is KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


class Repetition:
    """One workload call with everything it needs already built."""

    def __init__(self, workload: Workload, fixture: fixtures.Fixture,
                 rep_dir: Path, tracer: "Tracer | None",
                 transport: str = "local"):
        self.workload = workload
        self.fixture = fixture
        self.tracer = tracer
        self.transport = transport
        self.workers = worker_count()
        source = DirectoryStore(fixture.dataset_dir)
        if workload.fixture == "wgs":
            # Memory stores: this fixture measures compute, not disk.
            self.raw_input = MemoryStore()
            for key in source.keys():
                self.raw_input.put(key, source.get(key))
            raw_output, raw_scratch = MemoryStore(), MemoryStore()
        else:
            self.raw_input = source
            raw_output = DirectoryStore(rep_dir / "out")
            raw_scratch = DirectoryStore(rep_dir / "scratch")
        self.input_store = self._wrap(self.raw_input)
        self.output_store = self._wrap(raw_output)
        self.scratch_store = self._wrap(raw_scratch)
        self.dataset = AGDDataset(fixture.manifest(), self.input_store)
        self.aligner = fixture.aligner() if "align" in workload.stages \
            else None
        self.sort_config = SortConfig(
            chunks_per_superchunk=fixture.spec.chunks_per_superchunk
        )

    def _wrap(self, store):
        if self.tracer is not None:
            return TimedStore(store, self.tracer)
        return CountingStore(store)

    @property
    def stores(self) -> list:
        return [self.input_store, self.output_store, self.scratch_store]

    def call(self, backend):
        """The one public entry point this workload measures."""
        if self.workload.placed:
            return run_placed_pipeline(
                self.dataset, PlacementPlan.parse(PLACEMENT),
                reference=self.fixture.reference,
                sort_config=self.sort_config,
                output_store=self.output_store,
                scratch_store_factory=lambda _server: self.scratch_store,
                backend=backend, workers=self.workers,
                transport=self.transport,
            )
        return run_pipeline(
            self.dataset, self.workload.stages,
            aligner=self.aligner, reference=self.fixture.reference,
            sort_config=self.sort_config,
            output_store=self.output_store,
            scratch_store=self.scratch_store,
            backend=backend, workers=self.workers,
            # The program's own queue sampler is tracing; keep it off.
            queue_sample_interval=None,
        )

    def run(self):
        """The timed region: input dataset -> complete outputs."""
        if self.tracer is None:
            return self.call(self.workload.backend)
        # Same work as passing the backend by name — run_pipeline would
        # build and shut down its own — but through the span proxy.
        with self.tracer.root(self.workload.name) as root:
            sampler = StackSampler(self.tracer)
            sampler.start()
            backend = TimedBackend(
                make_backend(self.workload.backend, workers=self.workers),
                self.tracer,
            )
            try:
                outcome = self.call(backend)
            finally:
                backend.shutdown()
                sampler.stop()
        self.root_span = root
        return outcome


def raw_sorted(rep: Repetition, outcome) -> AGDDataset:
    """The run's sorted dataset, read past the counting/timing proxy so
    verification adds neither traffic nor spans."""
    return AGDDataset(outcome.sorted_dataset.manifest,
                      rep.output_store.backing)


def output_digest(sorted_dataset: AGDDataset, variants: list) -> str:
    """SHA-256 over the sorted dataset's stored chunks and the VCF rows."""
    digest = hashlib.sha256()
    for column in sorted(sorted_dataset.columns):
        for entry in sorted_dataset.manifest.chunks:
            digest.update(sorted_dataset.store.get(entry.chunk_file(column)))
    for variant in variants:
        digest.update(variant.to_line())
    return digest.hexdigest()


def check_outputs(rep: Repetition, outcome, rep_dir: Path) -> "dict[str, bool]":
    """Every correctness check on one repetition's outputs."""
    fixture = rep.fixture
    doc = fixture.doc
    sorted_dataset = raw_sorted(rep, outcome)
    stats = outcome.dupmark_stats
    called = {(v.chrom, v.pos, v.alt) for v in outcome.variants}
    true_calls = len(called & fixture.snvs)
    checks = {
        "sorted": verify_sorted(sorted_dataset),
        "records_preserved": (
            sorted_dataset.total_records == doc["reads"]
            and stats.records == doc["reads"]
        ),
        "varcall_recall": true_calls >= 0.9 * len(fixture.snvs),
        "varcall_precision": true_calls >= 0.95 * max(1, len(called)),
        "duplicates_marked":
            stats.duplicates_marked >= doc["simulated_duplicates"],
        "no_torn_files": not list(rep_dir.rglob("*.tmp")),
    }
    if "align" in rep.workload.stages:
        results = sorted_dataset.read_column("results")
        names = sorted_dataset.read_column("metadata")
        reference = fixture.reference
        contigs = reference.names
        correct = 0
        for result, name in zip(results, names):
            origin = fixture.origins[int(name.rsplit(b".", 1)[1])]
            if not result.is_aligned or result.is_reverse != origin.reverse:
                continue
            position = reference.to_global(contigs[result.contig_index],
                                           result.position)
            correct += abs(position - origin.global_pos) <= POSITION_TOLERANCE
        checks["align_accuracy"] = correct >= 0.95 * doc["reads"]
    return checks


def outcome_layers(rep: Repetition, outcome) -> "dict[str, float]":
    """Per-layer numbers read off the call's public return value."""
    layers: "dict[str, float]" = {}
    stage_counters: "dict[str, float]" = {}
    for stage in getattr(outcome, "stages", []):
        # PlacedPipelineOutcome carries no stage report, so on the
        # placed workload these stay absent (reported as 0).
        layers[f"core.{stage.name}.busy_s"] = stage.busy_seconds
        layers[f"core.{stage.name}.wait_s"] = stage.wait_seconds
    for entry in getattr(outcome, "report", {}).get("stages", {}).values():
        for counter, value in entry.get("counters", {}).items():
            stage_counters[counter] = stage_counters.get(counter, 0) + value
    layers["dataflow.queue_wait_s"] = sum(
        s.wait_seconds for s in getattr(outcome, "stages", [])
    )
    layers["dataflow.result_view_mb"] = \
        stage_counters.get("result_view_bytes", 0) / 1e6
    layers["dataflow.decode_copies"] = stage_counters.get("decode_copies", 0)
    # Spill volume as the scratch store saw it: available on every
    # workload, placed or not.
    layers["core.sort.spill_mb"] = rep.scratch_store.bytes_written / 1e6
    layers["core.sort.spill_files"] = len(list(rep.scratch_store.keys()))
    edges = getattr(outcome, "broker_stats", {})
    layers["cluster.edge_msgs"] = sum(
        e["total_published"] for e in edges.values())
    layers["cluster.edge_payload_mb"] = sum(
        e["payload_bytes"] for e in edges.values()) / 1e6
    layers["cluster.max_depth"] = max(
        (e["max_depth"] for e in edges.values()), default=0)
    layers["cluster.redelivered"] = sum(
        e["total_redelivered"] for e in edges.values())
    layers["cluster.completion_imbalance"] = \
        outcome.completion_imbalance if edges else 0.0
    return layers


def trace_layers(rep: Repetition) -> "dict[str, float]":
    """Per-layer numbers from the proxies' spans and counters."""
    tracer, root = rep.tracer, rep.root_span
    wall = root["end"] - root["start"]
    by_name = layer_seconds(tracer.spans, root)
    layers = {
        f"core.{stage}.task_s": by_name.get(f"core.{stage}", 0.0)
        for stage in ALL_STAGES
    }
    for layer in SAMPLED_LAYERS:
        layers[f"{layer}.run_s"] = by_name.get(f"run.{layer}", 0.0)
    layers["trace.coverage_frac"] = \
        covered_seconds(tracer.spans, root) / wall
    stores = rep.stores
    layers["storage.get_ops"] = sum(s.get_ops for s in stores)
    layers["storage.put_ops"] = sum(s.put_ops for s in stores)
    layers["storage.get_mb"] = sum(s.bytes_read for s in stores) / 1e6
    layers["storage.put_mb"] = sum(s.bytes_written for s in stores) / 1e6
    layers["storage.get_s"] = sum(s.get_seconds for s in stores)
    layers["storage.put_s"] = sum(s.put_seconds for s in stores)
    return layers


def _spread(count: int, limit: int) -> "list[int]":
    """Up to ``limit`` indices spread evenly over ``range(count)``."""
    step = max(1, count // limit)
    return list(range(0, count, step))[:limit]


def layer_replay(rep: Repetition) -> "dict[str, float]":
    """Call each layer's public function alone, inside a span.

    Runs after the measured call, on the dataset it left behind (which,
    on the wgs fixture, now carries the results column the run aligned).
    Eager, serial, memory stores: a layer's cost with no pipeline, no
    queues and nothing contending.
    """
    tracer = rep.tracer
    aligned = AGDDataset(rep.dataset.manifest, rep.raw_input)
    layers: "dict[str, float]" = {}
    with tracer.root("replay") as root:
        raw_bytes = stored_bytes = 0
        for column in aligned.columns:
            for index in _spread(aligned.num_chunks, AGD_REPLAY_CHUNKS):
                entry = aligned.manifest.chunks[index]
                blob = rep.raw_input.get(entry.chunk_file(column))
                header = read_chunk_header(blob)
                with tracer.span("agd.decode", "agd"):
                    chunk = read_chunk(blob)
                with tracer.span("agd.encode", "agd"):
                    write_chunk(chunk.records, chunk.record_type,
                                chunk.first_ordinal)
                raw_bytes += header.uncompressed_size
                stored_bytes += header.compressed_size
        if rep.aligner is not None:
            reads = aligned.read_chunk("bases", 0).records
            chunk_index = 1
            while len(reads) < ALIGN_REPLAY_READS \
                    and chunk_index < aligned.num_chunks:
                reads += aligned.read_chunk("bases", chunk_index).records
                chunk_index += 1
            reads = reads[:ALIGN_REPLAY_READS]
            with tracer.span("align.align_read", "align"):
                for bases in reads:
                    rep.aligner.align_read(bases)
        with tracer.span("core.sort.kernel", "core"):
            sorted_dataset = sort_dataset(aligned, MemoryStore(),
                                          rep.sort_config)
        with tracer.span("core.dupmark.kernel", "core"):
            mark_duplicates(sorted_dataset)
        with tracer.span("core.varcall.kernel", "core"):
            call_variants(sorted_dataset, rep.fixture.reference)
    seconds = layer_seconds(tracer.spans, root)
    layers["agd.decode_mb_per_s"] = raw_bytes / 1e6 / seconds["agd.decode"]
    layers["agd.encode_mb_per_s"] = raw_bytes / 1e6 / seconds["agd.encode"]
    layers["agd.compress_ratio"] = raw_bytes / stored_bytes
    if rep.aligner is not None:
        layers["align.us_per_read"] = \
            seconds["align.align_read"] / len(reads) * 1e6
    for stage in DOWNSTREAM_STAGES:
        layers[f"core.{stage}.kernel_s"] = seconds[f"core.{stage}.kernel"]
    return layers


def run_repetition(args: argparse.Namespace) -> dict:
    workload = WORKLOADS[args.workload]
    rep_dir = Path(args.rep_dir)
    fixture = fixtures.load(args.fixture)
    tracer = Tracer(workload.name, args.rep) if args.trace else None
    rep = Repetition(workload, fixture, rep_dir, tracer, args.transport)

    if args.hard_timeout:
        # A stalled run must end with evidence: dump every thread's
        # stack to stderr, then exit non-zero.
        faulthandler.dump_traceback_later(args.hard_timeout, exit=True)
    gc.collect()
    cpu_before = _cpu_seconds()
    started = time.perf_counter()
    outcome = rep.run()
    wall = time.perf_counter() - started
    cpu = _cpu_seconds() - cpu_before
    peak_rss = _peak_rss_mb()
    faulthandler.cancel_dump_traceback_later()
    store_bytes = sum(s.bytes_read + s.bytes_written for s in rep.stores)

    result = {
        "workers": rep.workers,
        "reads": fixture.doc["reads"],
        "bases": fixture.doc["bases"],
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss,
        "store_mb": store_bytes / 1e6,
        "layers": outcome_layers(rep, outcome),
        "checks": check_outputs(rep, outcome, rep_dir),
        "digest": output_digest(raw_sorted(rep, outcome), outcome.variants),
    }
    if tracer is not None:
        result["layers"].update(trace_layers(rep))
        result["layers"].update(layer_replay(rep))
        tracer.write(args.trace_file)
    return result


def main(argv: "list[str] | None" = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--fixture", required=True)
    parser.add_argument("--rep-dir", required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--transport", default="local",
                        choices=("local", "tcp"))
    parser.add_argument("--hard-timeout", type=float, default=0.0)
    args = parser.parse_args(argv)
    result = run_repetition(args)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
