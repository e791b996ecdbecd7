"""High-level Persona pipelines: the public API most users touch.

Wraps graph construction (``repro.core.subgraphs``) and the session
runtime into one-call operations: align a dataset, sort it, mark
duplicates, call variants — returning throughput statistics in the
paper's units ("alignment throughput is measured in bases aligned per
second, a read-length agnostic measure", §2.1).
"""

from __future__ import annotations

import gzip
import time
from dataclasses import dataclass, field, replace
from typing import Any

from repro.agd.chunk import read_chunk_index
from repro.agd.dataset import AGDDataset
from repro.agd.manifest import Manifest
from repro.align.bwa import BwaConfig, BwaMemAligner, FMIndex
from repro.align.snap import SeedIndex, SnapAligner, SnapConfig
from repro.core.dupmark import DupmarkStats, mark_duplicates
from repro.core.filters import FilterStats
from repro.core.ledger import RunLedger, bind_run_config
from repro.core.ops import (
    AckSinkNode,
    ChunkNameSource,
    EdgeSinkNode,
    FastqParserNode,
    GzipFastqReaderNode,
    NullSinkNode,
    QueueNameSource,
    SamWriterNode,
)
from repro.core.sort import SortConfig, key_column, sort_dataset
from repro.core.subgraphs import (
    STAGES,
    AlignGraphConfig,
    ComposedPipeline,
    ServerEndpoints,
    ServerSite,
    StageGraph,
    aligner_node,
    check_stages,
    columns_read,
    compose,
    figure3,
)
from repro.core.varcall import VarCallConfig, call_variants
from repro.dataflow.backends import Backend, make_backend
from repro.dataflow.graph import Graph
from repro.dataflow.session import Session
from repro.formats.fastq import format_fastq_record
from repro.formats.sam import SamHeader
from repro.genome.reads import ReadRecord
from repro.genome.reference import ReferenceGenome
from repro.storage.base import ChunkStore, MemoryStore

__all__ = [
    "AlignOutcome",
    "PipelineOutcome",
    "PipelineSpec",
    "PlacedServerGraph",
    "RunLedger",
    "ServerEndpoints",
    "ServerSite",
    "StageBreakdown",
    "StageOutputs",
    "align_dataset",
    "align_standalone",
    "build_snap_aligner",
    "build_bwa_aligner",
    "build_placed_server_graph",
    "harvest_outputs",
    "mark_duplicates",
    "placed_server_endpoints",
    "run_pipeline",
    "sort_dataset",
    "split_pipeline",
    "SortConfig",
    "DupmarkStats",
    "call_variants",
    "VarCallConfig",
    "stage_fastq_shards",
]


@dataclass
class AlignOutcome:
    """Result of one alignment run."""

    wall_seconds: float
    total_reads: int
    total_bases: int
    chunks: int
    report: dict = field(default_factory=dict)

    @property
    def bases_per_second(self) -> float:
        return self.total_bases / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def reads_per_second(self) -> float:
        return self.total_reads / self.wall_seconds if self.wall_seconds else 0.0


def build_snap_aligner(
    reference: ReferenceGenome,
    seed_length: int = 16,
    config: "SnapConfig | None" = None,
) -> SnapAligner:
    """Construct the shared SNAP aligner resource (index built once)."""
    return SnapAligner(SeedIndex(reference, seed_length=seed_length), config)


def build_bwa_aligner(
    reference: ReferenceGenome,
    config: "BwaConfig | None" = None,
) -> BwaMemAligner:
    """Construct the shared BWA-MEM aligner resource (FM-index built once)."""
    return BwaMemAligner(FMIndex(reference), config)


def _count_dataset_bases(dataset: AGDDataset) -> int:
    """Total base count from chunk indices alone (no data decompression —
    the relative index stores per-record base counts, §3)."""
    total = 0
    for chunk_index in range(dataset.num_chunks):
        entry = dataset.manifest.chunks[chunk_index]
        blob = dataset.store.get(entry.chunk_file("bases"))
        _header, index = read_chunk_index(blob)
        total += int(index.lengths.sum())
    return total


def align_dataset(
    dataset: AGDDataset,
    aligner,
    config: "AlignGraphConfig | None" = None,
    output_store: "ChunkStore | None" = None,
    session_timeout: "float | None" = 600.0,
    backend: "str | Backend" = "serial",
    workers: int = 4,
) -> AlignOutcome:
    """Align a dataset, appending a results column (Figure 3 end to end):
    the align stage closed by a counting sink.

    When ``output_store`` is omitted, results land next to the input
    columns and the manifest gains a ``results`` column — the paper's
    "unified storage of all genomic data for a given patient" (§1).

    ``backend`` selects the compute substrate (``"serial"`` or
    ``"process"``, made with ``workers`` workers and shut down here)
    or is a pre-built :class:`Backend` instance, which
    stays the caller's and must not have started its workers yet (the
    align stage registers the aligner on it).  For utilization traces
    (Fig. 5), pass one made with ``make_backend(..., busy_counter=...)``.
    """
    spec = PipelineSpec(dataset, ("align",), align_config=config,
                        backend=backend, workers=workers)
    site = ServerSite(aligner=aligner,
                      backend=spec.make_backend("align", spec.stages),
                      align_results_store=output_store)
    try:
        stage = STAGES["align"].build(spec, site)
        sink = NullSinkNode()
        stage.graph.add(sink, input=stage.sink)
        # Outside the timed region: this pre-pass reads the bases-column
        # index only and is not part of the measured alignment run.
        total_bases = _count_dataset_bases(dataset)
        start = time.monotonic()
        result = Session(stage.graph).run(timeout=session_timeout)
    finally:
        # Errors must not leak worker processes (each holds its own copy
        # of the aligner index).
        spec.shutdown_backend(site.backend)
    wall = time.monotonic() - start
    if (output_store is None or output_store is dataset.store) \
            and not dataset.manifest.has_column("results"):
        dataset.manifest.add_column("results")
    return AlignOutcome(
        wall_seconds=wall,
        total_reads=sink.records,
        total_bases=total_bases,
        chunks=sink.chunks,
        report=result.report,
    )


def stage_fastq_shards(
    dataset: AGDDataset, shard_store: ChunkStore
) -> int:
    """Write the dataset's reads as per-chunk gzip'd FASTQ shards.

    This is the input the standalone-tool baseline consumes (Fig. 5 runs
    SNAP on "GZIP'd FASTQ"); returns total staged bytes.
    """
    total = 0
    for chunk_index in range(dataset.num_chunks):
        entry = dataset.manifest.chunks[chunk_index]
        bases = dataset.read_chunk("bases", chunk_index).records
        quals = dataset.read_chunk("qual", chunk_index).records
        metas = dataset.read_chunk("metadata", chunk_index).records
        lines = b"".join(
            format_fastq_record(ReadRecord(m, b, q))
            for m, b, q in zip(metas, bases, quals)
        )
        blob = gzip.compress(lines, compresslevel=6)
        shard_store.put(f"{entry.path}.fastq.gz", blob)
        total += len(blob)
    return total


def align_standalone(
    manifest: Manifest,
    shard_store: ChunkStore,
    output_store: ChunkStore,
    aligner,
    contigs: "list[dict]",
    config: "AlignGraphConfig | None" = None,
    session_timeout: "float | None" = 600.0,
    backend: "str | Backend" = "serial",
    workers: int = 4,
) -> AlignOutcome:
    """Run the standalone-tool baseline (Table 1): gzip'd FASTQ in, SAM
    text out.  The Figure 3 wiring of the align stage with its reader,
    parser and writer swapped for row-oriented ones — the extra read and
    (especially) write volume Table 1 quantifies.  ``backend`` and
    ``workers`` as for :func:`align_dataset`."""
    config = config or AlignGraphConfig()
    made = make_backend(backend, workers=workers,
                        name="standalone.backend")
    try:
        g = Graph("standalone")
        # Row-oriented FASTQ has no per-record index to pre-count bases
        # from (AGD does, see _count_dataset_bases); the parse is the
        # first point the baseline knows its base volume, so the parser
        # tallies it.
        parser = FastqParserNode(parallelism=config.parser_nodes)
        outlet = figure3(g, [
            ChunkNameSource(manifest),
            GzipFastqReaderNode(shard_store, parallelism=config.reader_nodes),
            parser,
            aligner_node(g, config, aligner, made),
            SamWriterNode(output_store, [c["name"] for c in contigs],
                          header=SamHeader(contigs=contigs),
                          parallelism=config.writer_nodes),
        ], config.queue_depth, "written_chunks")
        sink = NullSinkNode()
        g.add(sink, input=outlet)
        start = time.monotonic()
        result = Session(g).run(timeout=session_timeout)
    finally:
        if made is not backend:  # an instance stays the caller's
            made.shutdown()
    wall = time.monotonic() - start
    return AlignOutcome(
        wall_seconds=wall,
        total_reads=sink.records,
        total_bases=parser.total_bases,
        chunks=sink.chunks,
        report=result.report,
    )


# ---------------------------------------------------------------------------
# One-graph pipelines: several stages, one Session.run (§4.1, §4.5).


@dataclass(frozen=True)
class PipelineSpec:
    """What a run *is*: everything equal on every server executing it.

    ``run_pipeline`` and ``run_placed_pipeline`` build one from their
    keywords; the stage builders (``STAGES[stage].build``, see
    :data:`~repro.core.subgraphs.STAGES`), the placed cut and every
    worker of a placed run
    interpret it, each adding only its own :class:`~repro.core.subgraphs.
    ServerSite`.  ``stages`` is the FULL stage tuple, not one server's
    group: the cross-stage facts below depend on the whole workload even
    when the stages they concern run on different servers.

    Frozen: a variant is ``dataclasses.replace(spec, ...)``, never a
    mutation.  Omitted configs and stores are filled in once,
    here, so every reader sees the same ones.
    """

    dataset: AGDDataset
    stages: "tuple[str, ...]"
    reference: "ReferenceGenome | None" = None
    align_config: "AlignGraphConfig | None" = None
    sort_config: "SortConfig | None" = None
    varcall_config: "VarCallConfig | None" = None
    filter_predicate: Any = None
    #: Receives the sorted dataset / the filtered dataset (default: a
    #: fresh in-memory store each).
    output_store: "ChunkStore | None" = None
    filter_store: "ChunkStore | None" = None
    ledger: "RunLedger | None" = None
    #: The compute-backend recipe: a name (each server makes its own) or
    #: a pre-built instance (shared, caller-owned).
    backend: "str | Backend" = "serial"
    workers: int = 4

    def __post_init__(self) -> None:
        fill = object.__setattr__
        fill(self, "stages", tuple(self.stages))
        check_stages(self.stages)
        for name, default in (("align_config", AlignGraphConfig),
                              ("sort_config", SortConfig),
                              ("output_store", MemoryStore),
                              ("filter_store", MemoryStore)):
            if getattr(self, name) is None:
                fill(self, name, default())

    @property
    def manifest(self) -> Manifest:
        return self.dataset.manifest

    @property
    def backend_name(self) -> str:
        return self.backend if isinstance(self.backend, str) \
            else getattr(self.backend, "name", type(self.backend).__name__)

    @property
    def owns_backends(self) -> bool:
        """False when the caller handed in a backend instance (and so
        keeps its lifecycle)."""
        return not isinstance(self.backend, Backend)

    def make_backend(self, server: str,
                     hosted: "tuple[str, ...]") -> "Backend | None":
        """The compute backend of the server hosting the stages
        ``hosted`` (the instance itself when the recipe is one).  Only
        the aligner dispatches, so a server without an align stage gets
        None; the align stage's builder hands the backend its aligner
        and starts it."""
        if "align" not in hosted:
            return None
        return make_backend(self.backend, workers=self.workers,
                            name=f"{server}.backend")

    def shutdown_backend(self, backend: "Backend | None",
                         wait: bool = True) -> None:
        """Release what :meth:`make_backend` made (an instance the
        caller handed in stays the caller's)."""
        if backend is not None and self.owns_backends:
            backend.shutdown(wait=wait)

    @property
    def marks_first_write(self) -> bool:
        """Dupmark directly after sort marks before the first write: the
        merge leaves the results column to the dupmark node, which
        encodes it once, flagged."""
        return "sort" in self.stages and \
            self.stages[self.stages.index("sort") + 1:][:1] == ("dupmark",)

    @property
    def sorted_input(self) -> bool:
        """Whether the varcall stage's input arrives in location order.
        Dupmark and filter keep the order they are given (head-mode ones
        restore manifest order), so it does iff a location sort runs
        upstream or, with no sort and no align stage rewriting
        locations, the dataset already is."""
        if "sort" in self.stages:
            return self.sort_config.order == "location"
        return "align" not in self.stages and \
            self.manifest.sort_order == "location"

    @property
    def filter_output(self) -> "tuple[str, int, str]":
        """The (dataset name, chunk size, sort order) the filter stage
        must emit to match the eager ``filter_dataset`` run over the
        pipeline's output (the sorted dataset when a sort stage runs,
        else the input)."""
        manifest = self.manifest
        base_chunk = manifest.chunks[0].record_count if manifest.chunks else 1
        if "sort" in self.stages:
            return (
                f"{manifest.name}-sorted-filtered",
                self.sort_config.output_chunk_size or base_chunk,
                self.sort_config.order,
            )
        return (f"{manifest.name}-filtered", base_chunk, manifest.sort_order)


def _check_stage_requirements(
    spec: PipelineSpec, aligner, hosted: "tuple[str, ...] | None" = None
) -> None:
    """``hosted``: the stages this process itself builds (default: all
    of them; one worker of a placed run brings only what its own need)."""
    hosted = spec.stages if hosted is None else hosted
    if "align" in hosted and aligner is None:
        raise ValueError("an align stage needs aligner=")
    if "varcall" in hosted and spec.reference is None:
        raise ValueError("a varcall stage needs reference=")
    if "filter" in hosted and spec.filter_predicate is None:
        raise ValueError("a filter stage needs filter_predicate=")
    # A metadata sort reads no results column; every other stage does.
    readers = {"dupmark", "filter", "varcall"}
    if key_column(spec.sort_config.order) == "results":
        readers.add("sort")
    if "align" not in spec.stages and readers & set(spec.stages) \
            and not spec.manifest.has_column("results"):
        raise ValueError(
            f"stages {list(spec.stages)} need alignment results; include "
            f"an align stage or align the dataset first"
        )


@dataclass
class StageBreakdown:
    """One stage's share of a pipeline run.

    Stages of a composed graph execute concurrently — chunks stream
    through all of them at once — so ``busy_seconds`` is the stage's
    summed kernel compute time, not a wall-clock slice; the per-stage
    throughput divides records by it.
    """

    name: str
    busy_seconds: float
    wait_seconds: float
    items_in: int
    items_out: int
    records: int

    @property
    def records_per_second(self) -> float:
        return self.records / self.busy_seconds if self.busy_seconds else 0.0


@dataclass(kw_only=True)
class StageOutputs:
    """What a run's stages leave behind (None: that stage did not run)."""

    sorted_dataset: "AGDDataset | None" = None
    dupmark_stats: "DupmarkStats | None" = None
    variants: "list | None" = None
    filtered_dataset: "AGDDataset | None" = None
    filter_stats: "FilterStats | None" = None


def harvest_outputs(spec: PipelineSpec, stage_graphs) -> StageOutputs:
    """Read a finished run's outputs off its stage collectors —
    ``stage_graphs`` from one session or from every server of a placed
    run (or one worker's own: stages it did not host stay None)."""
    collectors = {st.name: st.collector for st in stage_graphs}
    sort, dupmark, filt, varcall = (
        collectors.get(s) for s in ("sort", "dupmark", "filter", "varcall"))
    return StageOutputs(
        sorted_dataset=(AGDDataset(sort.manifest, spec.output_store)
                        if sort is not None else None),
        dupmark_stats=dupmark.dup_stats if dupmark is not None else None,
        variants=varcall.variants if varcall is not None else None,
        filtered_dataset=(AGDDataset(filt.manifest, spec.filter_store)
                          if filt is not None else None),
        filter_stats=filt.filter_stats if filt is not None else None,
    )


@dataclass
class PipelineOutcome(StageOutputs):
    """Result of one ``run_pipeline`` call."""

    wall_seconds: float
    total_reads: int
    chunks: int
    stages: "list[StageBreakdown]"
    #: The run's primary output dataset: the sorted dataset when a sort
    #: stage ran, otherwise the (possibly newly aligned) input dataset.
    dataset: AGDDataset
    report: dict = field(default_factory=dict)

    def stage(self, name: str) -> StageBreakdown:
        for breakdown in self.stages:
            if breakdown.name == name:
                return breakdown
        raise KeyError(f"no stage {name!r} in this pipeline run")

    @property
    def records_per_second(self) -> float:
        return self.total_reads / self.wall_seconds if self.wall_seconds \
            else 0.0


def run_pipeline(
    dataset: AGDDataset,
    stages: "tuple[str, ...] | list[str]" = ("align", "sort", "dupmark",
                                             "varcall"),
    aligner=None,
    reference: "ReferenceGenome | None" = None,
    align_config: "AlignGraphConfig | None" = None,
    sort_config: "SortConfig | None" = None,
    varcall_config: "VarCallConfig | None" = None,
    filter_predicate=None,
    output_store: "ChunkStore | None" = None,
    filter_store: "ChunkStore | None" = None,
    scratch_store: "ChunkStore | None" = None,
    backend: "str | Backend" = "serial",
    workers: int = 4,
    session_timeout: "float | None" = None,
    name: str = "pipeline",
    queue_sample_interval: "float | None" = None,
    ledger: "RunLedger | None" = None,
) -> PipelineOutcome:
    """Run several workload stages as ONE streaming dataflow graph.

    ``stages`` is any ordered subset of ``("align", "sort", "dupmark",
    "filter", "varcall")``.  Each stage becomes a subgraph; the stages
    are fused sink-queue-to-source-queue and executed by a single
    ``Session.run``, so chunks stream between stages through bounded
    queues (§4.5) instead of the dataset materializing in storage
    between passes.  Outputs are identical to running the eager
    single-stage functions (``align_dataset``, ``sort_dataset``,
    ``mark_duplicates``, ``filter_dataset``, ``call_variants``) one
    after another.

    The align stage dispatches its subchunks to a compute backend:
    ``backend`` (a name or a pre-built instance; a pre-built process
    backend must not have started its workers) and ``workers`` name it;
    nothing else does.  Every other stage computes on its own
    node threads, and a run without an align stage makes no backend at
    all.  ``output_store`` receives the sorted
    dataset (default: a fresh in-memory store); ``scratch_store`` holds
    the external sort's superchunk runs; ``filter_store`` receives the
    filtered dataset a ``filter`` stage materializes (its row predicate
    comes from ``filter_predicate``, e.g. ``filters.by_min_mapq(30)``).

    Requirements per stage: align needs ``aligner`` (a
    ``repro.align.base.ReadAligner``); varcall needs ``reference``;
    filter needs ``filter_predicate``; stages without a preceding align
    stage need the dataset to already have a results column.

    ``session_timeout`` defaults to None (no deadline): unlike the
    single-stage calls, one budget here covers every fused stage, so a
    fixed cap would abort workloads whose individual stages are fine.

    Every queue keeps the capacity its stage builder gives it (§4.5).
    ``queue_sample_interval`` opts into a depth trace: every queue's
    depth is sampled on that period, and the per-stage traces land in
    ``report["queue_trace"]`` and each stage's ``stage_report`` entry
    (§4.6's "current queue states").  The default, None, starts no
    sampler.

    ``ledger`` makes the run durable (:class:`repro.core.ledger.
    RunLedger`): output writes journal their digests, and a ledger
    opened with ``RunLedger.resume`` skips digest-verified work from the
    interrupted attempt — the resumed run's outputs are byte-identical
    to an uninterrupted one.  Per-stage skip counts land in
    ``report["resume"]``.
    """
    spec = PipelineSpec(
        dataset, stages, reference=reference, align_config=align_config,
        sort_config=sort_config, varcall_config=varcall_config,
        filter_predicate=filter_predicate, output_store=output_store,
        filter_store=filter_store, ledger=ledger, backend=backend,
        workers=workers,
    )
    _check_stage_requirements(spec, aligner)
    if ledger is not None:
        bind_run_config(ledger, spec.manifest, spec.stages,
                        backend=spec.backend_name, workers=workers)
    return _run_pipeline_once(
        spec, aligner, scratch_store, name=name,
        session_timeout=session_timeout,
        queue_sample_interval=queue_sample_interval)


def _run_pipeline_once(
    spec: PipelineSpec,
    aligner,
    scratch_store: "ChunkStore | None",
    *,
    name: str,
    session_timeout: "float | None",
    queue_sample_interval: "float | None",
) -> PipelineOutcome:
    dataset, manifest, ledger = spec.dataset, spec.manifest, spec.ledger
    site = ServerSite(aligner=aligner,
                      backend=spec.make_backend(name, spec.stages),
                      scratch_store=scratch_store)
    built: list[StageGraph] = []
    try:
        for stage in spec.stages:
            built.append(STAGES[stage].build(spec, site))
        # The align builder started the backend's workers; the clock
        # does not cover that.
        start = time.monotonic()
        composed = compose(*built, name=name)
        result = composed.run(timeout=session_timeout,
                              queue_sample_interval=queue_sample_interval)
    finally:
        spec.shutdown_backend(site.backend)
    wall = time.monotonic() - start

    if "align" in spec.stages and not manifest.has_column("results"):
        manifest.add_column("results")
    idle = {"busy_seconds": 0.0, "wait_seconds": 0.0,
            "items_in": 0, "items_out": 0}
    stage_reports = result.report.get("stages", {})
    breakdowns = [
        StageBreakdown(
            name=stage,
            records=dataset.total_records,
            **{key: stage_reports.get(stage, idle)[key] for key in idle},
        )
        for stage in spec.stages
    ]
    if ledger is not None:
        result.report["resume"] = dict(ledger.skips)
        ledger.complete(
            wall_seconds=wall,
            chunks=dataset.num_chunks,
            records=dataset.total_records,
            skipped=dict(ledger.skips),
            stages={
                b.name: {
                    "busy_seconds": b.busy_seconds,
                    "wait_seconds": b.wait_seconds,
                }
                for b in breakdowns
            },
        )
    outputs = harvest_outputs(spec, built)
    return PipelineOutcome(
        wall_seconds=wall,
        total_reads=dataset.total_records,
        chunks=dataset.num_chunks,
        stages=breakdowns,
        dataset=outputs.sorted_dataset or dataset,
        report=result.report,
        **vars(outputs),
    )


# ---------------------------------------------------------------------------
# Distributed stage placement (§5.2 for the whole workload): cut the
# composed pipeline at stage-group boundaries into per-server subgraphs
# wired to network-transparent broker edges.


@dataclass
class PlacedServerGraph:
    """One server's cut of a placed pipeline, ready for its own Session."""

    server: str
    stages: "tuple[str, ...]"
    pipeline: ComposedPipeline
    #: The server's terminal node (EdgeSinkNode or AckSinkNode): its
    #: ``chunks``/``records`` counters are the server's completion tally.
    sink: "EdgeSinkNode | AckSinkNode"

    def stage(self, name: str) -> StageGraph:
        return self.pipeline.stage(name)


def build_placed_server_graph(
    spec: PipelineSpec,
    server: str,
    server_stages: "tuple[str, ...]",
    site: ServerSite,
) -> PlacedServerGraph:
    """Assemble ONE server's subgraph of a placed pipeline.

    The server's stage group composes exactly like a single-session
    pipeline, then the cut points are wired to ``site.endpoints``
    instead of fused: a head group pulls chunk *names* from
    ``work_queue`` (the generalized manifest server), a later group
    pulls whole work items from ``ingress``, and a non-terminal group
    publishes its outlet to ``egress``.  With ``manual_ack``, ingress
    deliveries are acknowledged only at this server's terminal point
    (atomically with the egress publish when there is one), so chunks in
    flight on a dying server get redelivered to a surviving replica.
    """
    server_stages = tuple(server_stages)
    ends = site.endpoints
    head_group = server_stages[0] == spec.stages[0]
    built = [STAGES[stage].build(spec, site) for stage in server_stages]
    composed = compose(*built, name=server, open_inlet=not head_group,
                       terminal=False)
    graph = composed.graph
    ack_source = None
    if ends.manual_ack:
        ack_source = ends.work_queue if head_group else ends.ingress
    if not head_group:
        if ends.ingress is None:
            raise ValueError(
                f"server {server!r} heads no group and needs an ingress "
                f"endpoint"
            )
        source_node = QueueNameSource(ends.ingress, name="edge_source")
        graph.add(source_node, output=built[0].source)
        graph.node_stages[source_node.name] = server_stages[0]
    sink: "EdgeSinkNode | AckSinkNode"
    if ends.egress is not None:
        ends.egress.register_producer()
        # The cut ships only what the stages placed after it read.
        downstream = spec.stages[spec.stages.index(server_stages[-1]) + 1:]
        sink = EdgeSinkNode(ends.egress, ack_source=ack_source,
                            columns=columns_read(downstream))
    else:
        sink = AckSinkNode(ack_source=ack_source)
    graph.add(sink, input=built[-1].sink)
    graph.node_stages[sink.name] = server_stages[-1]
    for endpoint in (ends.work_queue, ends.ingress, ends.egress):
        if endpoint is not None:
            graph.attach_endpoint(endpoint)
    return PlacedServerGraph(server=server, stages=server_stages,
                             pipeline=composed, sink=sink)


def placed_server_endpoints(plan, server: str, make_queue) -> ServerEndpoints:
    """One server's queue endpoints under a placement plan.

    The single point deciding a server's delivery wiring — which edge it
    pulls from, which it pushes to, and whether deliveries are acked on
    completion (``manual``, one-to-one stage groups) or on receipt
    (``auto``, re-chunking groups).  ``make_queue(server, edge_name,
    kind, ack_mode)`` supplies the transport-specific endpoint.
    """
    from repro.cluster.placement import WORK_EDGE

    placement = plan.placement_for(server)
    manual_ack = placement.one_to_one
    ack_mode = "manual" if manual_ack else "auto"
    head_group = placement.stages == plan.groups[0]
    ingress_name = plan.ingress_edge(server)
    egress_name = plan.egress_edge(server)
    return ServerEndpoints(
        work_queue=(make_queue(server, WORK_EDGE, "names", ack_mode)
                    if head_group else None),
        ingress=(make_queue(server, ingress_name, "items", ack_mode)
                 if ingress_name is not None else None),
        egress=(make_queue(server, egress_name, "items", "auto")
                if egress_name is not None else None),
        manual_ack=manual_ack,
    )


def split_pipeline(
    spec: PipelineSpec,
    plan,
    make_queue,
    site_for,
    servers: "tuple[str, ...] | None" = None,
) -> "list[PlacedServerGraph]":
    """Cut the composed pipeline into per-server subgraphs per ``plan``.

    The inverse of :func:`~repro.core.subgraphs.compose` at cluster
    scale: instead of fusing every stage boundary into one graph, the
    boundaries *between stage groups* become broker edges and each
    server gets its own composed subgraph over just its placed stages.

    ``plan`` is a :class:`repro.cluster.placement.PlacementPlan` over
    ``spec.stages``; ``make_queue(server, edge_name, kind, ack_mode)``
    returns the server's queue endpoint for a named edge (the transport
    decision — in-process or TCP — lives entirely in that factory);
    ``site_for(server)`` supplies that server's :class:`ServerSite`
    (called once per server; its endpoints are filled in here).
    ``servers`` restricts the cut to the named ones — a worker process
    building only its own — and the stage requirements to what they
    host.
    """
    if spec.stages != plan.stages:
        raise ValueError(
            f"plan places {list(plan.stages)} but the spec runs "
            f"{list(spec.stages)}"
        )
    placements = [p for p in plan.placements
                  if servers is None or p.server in servers]
    sites = {p.server: site_for(p.server) for p in placements}
    _check_stage_requirements(
        spec,
        next((sites[p.server].aligner for p in placements
              if "align" in p.stages), None),
        hosted=tuple(s for p in placements for s in p.stages),
    )
    return [
        build_placed_server_graph(
            spec, p.server, p.stages,
            replace(sites[p.server], endpoints=placed_server_endpoints(
                plan, p.server, make_queue)),
        )
        for p in placements
    ]
