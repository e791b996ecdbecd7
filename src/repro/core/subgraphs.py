"""Prebuilt Persona subgraphs (§4.1): "a thin Python library that stitches
these nodes together into optimized subgraphs for common I/O patterns and
bioinformatics functions."

The standard alignment graph (Figure 3):

    chunk names -> reader -> AGD parser -> [central queue] -> aligner
    -> writer -> sink

Queue capacities follow §4.5: "default queue lengths are set to the
number of parallel downstream nodes they feed" — shallow queues bound
memory and avoid stragglers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

from repro.agd.manifest import Manifest
from repro.core.ledger import JournaledStore, SpillJournal, StageJournal
from repro.core.ops import (
    AGDParserNode,
    AlignerNode,
    ChunkNameSource,
    ChunkReaderNode,
    ColumnWriterNode,
    DupmarkNode,
    FastqParserNode,
    FilterStageNode,
    GzipFastqReaderNode,
    NullSinkNode,
    PairedAlignerNode,
    QueueNameSource,
    ResequencerNode,
    SamWriterNode,
    SortRunNode,
    SuperchunkMergeNode,
    VarCallNode,
)
from repro.dataflow.backends import Backend, make_backend
from repro.dataflow.executor import BusyCounter
from repro.dataflow.graph import Graph, GraphError
from repro.dataflow.queues import Queue
from repro.dataflow.session import Session, SessionResult
from repro.formats.sam import SamHeader
from repro.storage.base import ChunkStore, MemoryStore

if TYPE_CHECKING:
    from repro.core.pipelines import PipelineSpec

#: Canonical pipeline stage order (§2.1's workload sequence).  The
#: single-session composer (:func:`repro.core.pipelines.run_pipeline`)
#: and the cluster placement layer (:mod:`repro.cluster.placement`)
#: both validate against this tuple.
STAGE_ORDER = ("align", "sort", "dupmark", "filter", "varcall")

#: Columns each stage reads from an incoming work item (None: every
#: column — the stage moves or re-chunks whole records).  A head-mode
#: stage fetches, and a placed cut ships, the union over what follows.
STAGE_READS: "dict[str, tuple[str, ...] | None]" = {
    "align": None,
    "sort": None,
    "dupmark": ("results",),
    "filter": None,
    "varcall": ("results", "bases", "qual"),
}


#: Stages that map each input chunk to one output chunk (no
#: re-chunking): only groups of these can carry manual
#: (ack-on-completion) delivery.
ONE_TO_ONE_STAGES = frozenset({"align", "dupmark", "varcall"})


def columns_read(stages) -> "frozenset[str] | None":
    """Union of the columns ``stages`` read off a work item; None if
    any of them reads all."""
    reads = [STAGE_READS[stage] for stage in stages]
    return None if None in reads else frozenset().union(*reads)


@dataclass
class AlignGraphConfig:
    """Knobs for the standard alignment graph."""

    executor_threads: int = 4
    aligner_nodes: int = 2
    reader_nodes: int = 2
    parser_nodes: int = 2
    writer_nodes: int = 1
    subchunk_size: int = 512
    queue_depth: "int | None" = None  # default: downstream parallelism
    paired: bool = False
    #: Execution substrate for the compute kernels: "serial", "thread",
    #: "process", or a pre-built Backend instance (owned by the caller).
    #: Instance caveats: a pre-built ProcessBackend must not have started
    #: its pool yet (the graph ships the aligner to workers at pool
    #: start), and instance backends bypass the graph's BusyCounter, so
    #: utilization traces (Fig. 5 machinery) read zero for their work —
    #: construct them with your own busy_counter if you need traces.
    backend: "str | Backend" = "thread"
    #: Payloads per IPC message (process backend only; None = default).
    batch_size: "int | None" = None
    #: Zero-copy payload plane for the process backend: ship large
    #: payloads/results as shared-memory references (None = auto where
    #: POSIX shared memory works; False forces the pickled path).
    shm: "bool | None" = None


@dataclass
class AlignGraph:
    """A wired alignment graph plus the handles its caller may inspect."""

    graph: Graph
    sink: NullSinkNode
    executor: Backend
    busy_counter: BusyCounter
    #: False when the caller supplied a pre-built Backend instance; the
    #: pipeline then leaves its lifecycle to the caller.
    owns_executor: bool = True
    #: The parser node, when the graph has one worth inspecting (the
    #: standalone baseline reads row-oriented FASTQ, so parsed-base
    #: counts exist only on its parser).
    parser: "FastqParserNode | None" = None

    @property
    def backend(self) -> Backend:
        """The compute backend (``executor`` predates pluggable backends)."""
        return self.executor

    def close(self, wait: bool = True) -> None:
        """Release the compute backend, unless the caller owns it."""
        if self.owns_executor:
            self.executor.shutdown(wait=wait)


def _build_compute_backend(
    config: AlignGraphConfig,
    graph_name: str,
    busy: BusyCounter,
    aligner,
) -> "tuple[Backend, bool]":
    """Make (or adopt) the graph's compute backend.  Returns
    ``(backend, owned)``: pre-built instances stay caller-owned.

    In-process backends resolve the aligner through the graph's own
    resource registry at run time (so a backend shared between graphs
    never leaks one graph's aligner into another); only backends whose
    workers cannot see caller memory (the process pool) get the aligner
    shipped via ``register_shared`` — once, at pool start."""
    owned = not isinstance(config.backend, Backend)
    backend = make_backend(
        config.backend,
        workers=config.executor_threads,
        batch_size=config.batch_size,
        busy_counter=busy,
        name=f"{graph_name}.backend",
        shm=config.shm,
    )
    if not backend.shares_caller_memory:
        try:
            backend.register_shared("aligner", aligner)
        except RuntimeError as exc:
            raise RuntimeError(
                f"graph {graph_name!r}: a pre-built {backend.name!r} "
                f"backend must be passed before its worker pool starts "
                f"(workers receive the aligner at pool start) — build "
                f"the graph first, or register the aligner yourself "
                f"before warming the pool"
            ) from exc
    # Start workers here, while graph construction is single-threaded:
    # forking a pool lazily from a node thread of a running session risks
    # inheriting locks held mid-operation by sibling threads.
    backend.start()
    return backend, owned


def build_align_graph(
    manifest: Manifest,
    input_store: ChunkStore,
    output_store: ChunkStore,
    aligner,
    config: "AlignGraphConfig | None" = None,
    name_queue: "Queue | None" = None,
    graph_name: str = "align",
) -> AlignGraph:
    """Assemble the Figure 3 alignment pipeline over AGD input: the
    align stage (:func:`build_align_stage`) closed by a counting sink.

    ``aligner`` is a shared read-only aligner object (SNAP- or BWA-style);
    ``name_queue`` switches the source from the local manifest to a shared
    manifest-server queue (cluster mode, §5.2).
    """
    stage = build_align_stage(
        manifest, input_store, output_store, aligner, config=config,
        stage_name=graph_name, name_queue=name_queue,
    )
    sink = NullSinkNode()
    stage.graph.add(sink, input=stage.sink)
    return AlignGraph(graph=stage.graph, sink=sink, executor=stage.backend,
                      busy_counter=stage.busy_counter,
                      owns_executor=stage.owns_backend)


def build_standalone_graph(
    manifest: Manifest,
    input_store: ChunkStore,
    output_store: ChunkStore,
    aligner,
    contigs: "list[dict]",
    config: "AlignGraphConfig | None" = None,
    graph_name: str = "standalone",
) -> AlignGraph:
    """The Table 1 baseline: gzip'd FASTQ in, SAM text out.

    Structurally the same pipeline, but the reader pulls whole row-
    oriented FASTQ shards and the writer re-emits every field as SAM —
    the extra read and (especially) write volume Table 1 quantifies.
    """
    config = config or AlignGraphConfig()
    g = Graph(graph_name)
    busy = BusyCounter()
    backend, owns_backend = _build_compute_backend(
        config, graph_name, busy, aligner
    )
    aligner_handle = g.register_resource("aligner", aligner)
    backend_handle = g.register_resource("executor", backend)

    q_names = g.queue("chunk_names", max(2, config.reader_nodes))
    q_raw = g.queue("raw_chunks", max(2, config.parser_nodes))
    q_parsed = g.queue("parsed_chunks", max(2, config.aligner_nodes))
    q_aligned = g.queue("aligned_chunks", max(2, config.writer_nodes))
    q_written = g.queue("written_chunks", 2)

    g.add(ChunkNameSource(manifest), output=q_names)
    g.add(
        GzipFastqReaderNode(input_store, parallelism=config.reader_nodes),
        input=q_names,
        output=q_raw,
    )
    fastq_parser = FastqParserNode(parallelism=config.parser_nodes)
    g.add(fastq_parser, input=q_raw, output=q_parsed)
    g.add(
        AlignerNode(
            aligner_handle,
            backend_handle,
            subchunk_size=config.subchunk_size,
            parallelism=config.aligner_nodes,
        ),
        input=q_parsed,
        output=q_aligned,
    )
    contig_names = [c["name"] for c in contigs]
    g.add(
        SamWriterNode(
            output_store,
            contig_names,
            header=SamHeader(contigs=contigs),
            parallelism=config.writer_nodes,
        ),
        input=q_aligned,
        output=q_written,
    )
    sink = NullSinkNode()
    g.add(sink, input=q_written)
    return AlignGraph(graph=g, sink=sink, executor=backend,
                      busy_counter=busy, owns_executor=owns_backend,
                      parser=fastq_parser)


# ---------------------------------------------------------------------------
# One-graph pipelines (§4.1): sort, dupmark, and varcall as composable
# stage subgraphs.  Each builder returns a StageGraph — a Graph plus its
# open "ports" — and compose() stitches consecutive stages together by
# fusing each stage's sink queue into the next stage's source queue, so
# a whole workload (align -> sort -> dupmark -> varcall) executes in ONE
# Session.run with chunks streaming through bounded queues end to end
# (§4.5 flow control), instead of five sequential passes over the store.


@dataclass
class StageGraph:
    """One pipeline stage: a subgraph plus its open inlet/outlet queues.

    ``source`` is the open inlet (a queue no stage-internal node feeds;
    None when the stage generates its own input from a manifest) and
    ``sink`` the open outlet (None when the stage is terminal).
    ``collector`` is the stage's result holder — the merge node for
    sort (its ``manifest``/``entries``), the dupmark node (``stats``),
    the varcall node (``variants``).
    """

    name: str
    graph: Graph
    source: "Queue | None"
    sink: "Queue | None"
    collector: Any = None
    backend: "Backend | None" = None
    #: True when the builder created the backend (shut down via close);
    #: False for a shared instance whose lifecycle the caller owns.
    owns_backend: bool = False
    #: The utilization counter a stage-made backend reports to (Fig. 5).
    busy_counter: "BusyCounter | None" = None

    def close(self, wait: bool = True) -> None:
        if self.owns_backend and self.backend is not None:
            self.backend.shutdown(wait=wait)


def attach_stage_journal(stage: StageGraph, journal) -> None:
    """Attach a durable-run journal hook to a built stage's kernels.

    Dispatches on the journal's interface: a results journal
    (``cached_results``, :class:`repro.core.ledger.StageJournal`) lands
    on aligner nodes, a spill journal (``adopt``,
    :class:`repro.core.ledger.SpillJournal`) on sort-run nodes.  Stages
    without a matching kernel are left untouched.
    """
    for node in stage.graph.nodes:
        if isinstance(node, (AlignerNode, PairedAlignerNode)):
            if hasattr(journal, "cached_results"):
                node.journal = journal
        elif isinstance(node, SortRunNode):
            if hasattr(journal, "adopt"):
                node.journal = journal


def build_align_stage(
    manifest: Manifest,
    input_store: ChunkStore,
    results_store: ChunkStore,
    aligner,
    config: "AlignGraphConfig | None" = None,
    extra_columns: "tuple[str, ...]" = (),
    stage_name: str = "align",
    name_queue: "Queue | None" = None,
) -> StageGraph:
    """The Figure 3 alignment pipeline as a composable stage.

    Like :func:`build_align_graph` but ending in an open outlet: aligned
    chunks (results written to ``results_store``, parsed columns still
    attached) flow on to whatever stage is fused downstream.
    ``extra_columns`` widens the read set beyond ``bases``/``qual`` when
    a downstream stage needs more (a sort stage needs ``metadata``).
    ``name_queue`` switches the source from the local manifest to a
    shared chunk-name queue (the cluster work edge, §5.2), so replicas
    of this stage on several servers self-balance at chunk granularity.
    """
    config = config or AlignGraphConfig()
    g = Graph(stage_name)
    busy = BusyCounter()
    backend, owns_backend = _build_compute_backend(
        config, stage_name, busy, aligner
    )
    aligner_handle = g.register_resource("aligner", aligner)
    # Stage-qualified handle: per-stage backends must not collide when
    # stages merge into one namespace (a shared instance simply gets
    # registered once per stage under distinct names).
    backend_handle = g.register_resource(f"{stage_name}.executor", backend)

    depth = config.queue_depth
    q_names = g.queue("chunk_names", depth or max(2, config.reader_nodes))
    q_raw = g.queue("raw_chunks", depth or max(2, config.parser_nodes))
    q_parsed = g.queue("parsed_chunks", depth or max(2, config.aligner_nodes))
    q_aligned = g.queue("aligned_chunks", depth or max(2, config.writer_nodes))
    q_out = g.queue("stage_out", depth or 2)

    if name_queue is not None:
        g.add(QueueNameSource(name_queue), output=q_names)
    else:
        g.add(ChunkNameSource(manifest), output=q_names)
    g.add(
        ChunkReaderNode(
            input_store,
            columns=("bases", "qual") + tuple(extra_columns),
            parallelism=config.reader_nodes,
        ),
        input=q_names,
        output=q_raw,
    )
    g.add(
        AGDParserNode(parallelism=config.parser_nodes),
        input=q_raw,
        output=q_parsed,
    )
    if config.paired:
        g.add(
            PairedAlignerNode(
                aligner_handle,
                backend_handle,
                subchunk_size=max(1, config.subchunk_size // 2),
                parallelism=config.aligner_nodes,
            ),
            input=q_parsed,
            output=q_aligned,
        )
    else:
        g.add(
            AlignerNode(
                aligner_handle,
                backend_handle,
                subchunk_size=config.subchunk_size,
                parallelism=config.aligner_nodes,
            ),
            input=q_parsed,
            output=q_aligned,
        )
    g.add(
        ColumnWriterNode(
            results_store,
            column="results",
            record_type="results",
            parallelism=config.writer_nodes,
        ),
        input=q_aligned,
        output=q_out,
    )
    return StageGraph(
        name=stage_name, graph=g, source=None, sink=q_out,
        backend=backend, owns_backend=owns_backend, busy_counter=busy,
    )


def _add_head_reader(
    g: Graph, manifest: Manifest, store: ChunkStore, columns,
    reader_nodes: int, parser_nodes: int, name_queue: "Queue | None",
) -> Queue:
    """The front of a stage that reads the dataset itself: chunk names
    (the manifest's, or a placed run's ``name_queue``) -> parallel
    readers of ``columns`` -> parsers.  Returns the parsed-chunk queue."""
    q_names = g.queue("chunk_names", max(2, reader_nodes))
    q_raw = g.queue("raw_chunks", max(2, parser_nodes))
    q_parsed = g.queue("parsed_chunks", 2)
    if name_queue is not None:
        g.add(QueueNameSource(name_queue), output=q_names)
    else:
        g.add(ChunkNameSource(manifest), output=q_names)
    g.add(
        ChunkReaderNode(store, columns=tuple(columns),
                        parallelism=reader_nodes),
        input=q_names,
        output=q_raw,
    )
    g.add(AGDParserNode(parallelism=parser_nodes),
          input=q_raw, output=q_parsed)
    return q_parsed


def _add_resequencer(g: Graph, inlet: Queue, expected, missing_ok) -> Queue:
    """Restore the ``expected`` chunk-path order behind ``inlet``."""
    q_ordered = g.queue("ordered_chunks", 2)
    g.add(ResequencerNode(list(expected), missing_ok=missing_ok),
          input=inlet, output=q_ordered)
    return q_ordered


def build_sort_graph(
    manifest: Manifest,
    output_store: ChunkStore,
    input_store: "ChunkStore | None" = None,
    config: "SortConfig | None" = None,
    columns: "list[str] | None" = None,
    scratch_store: "ChunkStore | None" = None,
    reader_nodes: int = 2,
    parser_nodes: int = 2,
    stage_name: str = "sort",
    name_queue: "Queue | None" = None,
    missing_ok=None,
    deferred_columns: "tuple[str, ...]" = (),
) -> StageGraph:
    """The external merge sort (§4.3) as a dataflow stage.

    With ``input_store`` the stage reads the dataset itself (head of a
    pipeline); without it the stage exposes an open inlet and sorts the
    parsed chunks that stream in.  Either way a resequencer restores
    manifest order first, so run grouping — and therefore every output
    byte — matches the eager :func:`repro.core.sort.sort_dataset`.

    Both sort kernels run on their own node threads, so the stage has no
    compute backend.  The collector is the :class:`SuperchunkMergeNode`;
    after the run its ``manifest`` describes the sorted dataset in
    ``output_store``.
    ``deferred_columns`` are streamed downstream but not written: the
    next stage must put them (see :func:`build_dupmark_graph`).
    """
    from repro.core.sort import SortConfig, _key_first_columns

    config = config or SortConfig()
    columns = sorted(set(columns if columns is not None
                         else manifest.columns))
    if config.order == "location" and "results" not in columns:
        raise ValueError("location sort needs a results column; align first")
    ordered_columns = _key_first_columns(columns)
    out_chunk_size = config.output_chunk_size or (
        manifest.chunks[0].record_count if manifest.chunks else 1
    )
    scratch = scratch_store if scratch_store is not None else MemoryStore()

    g = Graph(stage_name)
    source: "Queue | None" = None
    if input_store is not None:
        inlet = _add_head_reader(g, manifest, input_store, ordered_columns,
                                 reader_nodes, parser_nodes, name_queue)
    else:
        inlet = g.queue("stage_in", 4)
        source = inlet
    q_ordered = _add_resequencer(
        g, inlet, [entry.path for entry in manifest.chunks], missing_ok)
    q_runs = g.queue("runs", 2)
    g.add(
        SortRunNode(
            ordered_columns,
            config.order,
            scratch,
            chunks_per_superchunk=config.chunks_per_superchunk,
            scratch_codec_level=config.scratch_codec_level,
        ),
        input=q_ordered,
        output=q_runs,
    )
    q_sorted = g.queue("sorted_chunks", 2)
    merge = SuperchunkMergeNode(
        scratch,
        output_store,
        ordered_columns,
        columns,
        config.order,
        manifest.name,
        out_chunk_size,
        reference=manifest.reference,
        output_codec=config.output_codec(),
        deferred_columns=deferred_columns,
    )
    g.add(merge, input=q_runs, output=q_sorted)
    return StageGraph(
        name=stage_name, graph=g, source=source, sink=q_sorted,
        collector=merge,
    )


def build_dupmark_graph(
    manifest: "Manifest | None",
    store: ChunkStore,
    reorder: "list[str] | None" = None,
    from_queue: bool = False,
    columns: "tuple[str, ...]" = STAGE_READS["dupmark"],
    reader_nodes: int = 2,
    parser_nodes: int = 2,
    stage_name: str = "dupmark",
    name_queue: "Queue | None" = None,
    missing_ok=None,
    write_codec=None,
) -> StageGraph:
    """Samblaster-style duplicate marking (§5.6) as a dataflow stage.

    Head of a pipeline (``from_queue=False``): reads *only* the results
    column of ``manifest`` from ``store`` — the selective-column I/O
    advantage §5.6 measures — and rewrites dirty chunks in place.
    ``columns`` widens that read set when a downstream stage needs more
    (a fused varcall stage needs ``bases``/``qual`` too).
    Fused mode (``from_queue=True``): marks the chunks streaming in;
    ``reorder`` (a list of expected chunk paths) inserts a resequencer
    when the upstream emits out of order (e.g. a parallel align stage) —
    leave it None after a sort stage, whose merge already emits in
    order.  ``write_codec`` is the sort's output codec when that merge
    defers the results column to this stage (``deferred_columns`` of
    :func:`build_sort_graph`): every chunk's results are then written
    here, once, instead of dirty chunks being rewritten.  The collector
    is the :class:`DupmarkNode` (its ``dup_stats``); the marking runs on
    the node's own thread, so the stage has no compute backend.
    """
    g = Graph(stage_name)

    source: "Queue | None" = None
    if not from_queue:
        if manifest is None:
            raise ValueError("head-mode dupmark stage needs a manifest")
        if "results" not in columns:
            raise ValueError("dupmark stage must read the results column")
        inlet = _add_head_reader(g, manifest, store, columns,
                                 reader_nodes, parser_nodes, name_queue)
        if reorder is None:
            reorder = [entry.path for entry in manifest.chunks]
    else:
        inlet = g.queue("stage_in", 4)
        source = inlet
    if reorder is not None:
        inlet = _add_resequencer(g, inlet, reorder, missing_ok)

    q_out = g.queue("stage_out", 2)
    node = DupmarkNode(store, write_codec=write_codec)
    g.add(node, input=inlet, output=q_out)
    return StageGraph(
        name=stage_name, graph=g, source=source, sink=q_out,
        collector=node,
    )


def build_varcall_graph(
    reference,
    manifest: "Manifest | None" = None,
    input_store: "ChunkStore | None" = None,
    config=None,
    reader_nodes: int = 2,
    parser_nodes: int = 2,
    stage_name: str = "varcall",
    name_queue: "Queue | None" = None,
    passthrough: bool = False,
    sorted_input: bool = False,
    missing_ok=None,
) -> StageGraph:
    """Pileup SNP calling (§2.1) as a terminal dataflow stage.

    Head of a pipeline when ``manifest``/``input_store`` are given;
    otherwise an open inlet consuming the chunks streaming in.
    ``sorted_input`` declares that those arrive in location order (a
    location sort upstream), so calls stream out behind a sliding pileup
    window; a head-mode stage reads it off the manifest's ``sort_order``
    and then resequences its parallel readers' chunks.  Unsorted input
    piles up whole (commutative: no resequencer).  The collector is the
    :class:`VarCallNode` (its ``variants``); the pileup runs on the
    node's own thread, so the stage has no compute backend.
    ``passthrough=True`` leaves an open outlet that re-emits every
    processed chunk (placed pipelines append an acknowledging sink
    there); the default stays terminal.
    """
    g = Graph(stage_name)

    source: "Queue | None" = None
    if input_store is not None:
        if manifest is None:
            raise ValueError("head-mode varcall stage needs a manifest")
        inlet = _add_head_reader(
            g, manifest, input_store, STAGE_READS["varcall"],
            reader_nodes, parser_nodes, name_queue)
        sorted_input = manifest.sort_order == "location"
        if sorted_input:
            inlet = _add_resequencer(
                g, inlet, [entry.path for entry in manifest.chunks],
                missing_ok)
    else:
        inlet = g.queue("stage_in", 4)
        source = inlet

    node = VarCallNode(reference, config=config, sorted_input=sorted_input)
    sink: "Queue | None" = None
    if passthrough:
        sink = g.queue("stage_out", 2)
        g.add(node, input=inlet, output=sink)
    else:
        g.add(node, input=inlet)
    return StageGraph(
        name=stage_name, graph=g, source=source, sink=sink, collector=node,
    )


def build_filter_stage(
    predicate,
    output_store: ChunkStore,
    dataset_name: str,
    out_chunk_size: int,
    columns: "list[str]",
    manifest: "Manifest | None" = None,
    input_store: "ChunkStore | None" = None,
    reorder: "list[str] | None" = None,
    reference: "list[dict] | None" = None,
    sort_order: str = "unsorted",
    stats: "object | None" = None,
    reader_nodes: int = 2,
    parser_nodes: int = 2,
    stage_name: str = "filter",
    name_queue: "Queue | None" = None,
    missing_ok=None,
) -> StageGraph:
    """Dataset filtering (§2.1) as a streaming dataflow stage.

    Wraps :mod:`repro.core.filters` row predicates (``by_min_mapq`` and
    friends) as a :class:`~repro.core.ops.FilterStageNode`, so
    ``filter_dataset`` joins the one-graph path and is placeable like
    any other stage.  Head of a pipeline when ``manifest``/
    ``input_store`` are given (reads every listed column from the
    store); otherwise filters the chunks streaming in.  ``reorder``
    inserts a resequencer when the upstream emits out of order (heads
    and parallel align stages); leave it None after a sort stage.
    The collector is the node: after the run, its ``manifest`` describes
    the filtered dataset in ``output_store`` — byte-identical to the
    eager :func:`~repro.core.filters.filter_dataset`.
    """
    g = Graph(stage_name)
    source: "Queue | None" = None
    if input_store is not None:
        if manifest is None:
            raise ValueError("head-mode filter stage needs a manifest")
        inlet = _add_head_reader(g, manifest, input_store, sorted(columns),
                                 reader_nodes, parser_nodes, name_queue)
        if reorder is None:
            reorder = [entry.path for entry in manifest.chunks]
    else:
        inlet = g.queue("stage_in", 4)
        source = inlet
    if reorder is not None:
        inlet = _add_resequencer(g, inlet, reorder, missing_ok)

    q_out = g.queue("stage_out", 2)
    node = FilterStageNode(
        predicate,
        output_store,
        dataset_name,
        out_chunk_size,
        columns,
        reference=reference,
        sort_order=sort_order,
        stats=stats,
    )
    g.add(node, input=inlet, output=q_out)
    return StageGraph(
        name=stage_name, graph=g, source=source, sink=q_out,
        collector=node, backend=None, owns_backend=False,
    )

# ---------------------------------------------------------------------------
# A stage of a run: the builders above, read off a PipelineSpec.  What
# is equal on every server comes from the spec; what one server brings
# comes from its ServerSite.


@dataclass
class ServerEndpoints:
    """One placed server's broker wiring: the chunk-name work edge a
    head group pulls from, the item edges it consumes and feeds, and
    whether deliveries are acked at the server's terminal point."""

    work_queue: "Queue | None" = None
    ingress: "Queue | None" = None
    egress: "Queue | None" = None
    manual_ack: bool = False


@dataclass
class ServerSite:
    """What one server brings to a :class:`PipelineSpec`: its aligner
    (usually its own copy of the reference index) and the compute backend
    instance its align stage dispatches to (both None on a server that
    hosts no align stage), its sort scratch store, where its align
    results land (None: the dataset store) and — on a placed run only —
    its endpoints."""

    aligner: Any = None
    backend: "Backend | None" = None
    scratch_store: "ChunkStore | None" = None
    align_results_store: "ChunkStore | None" = None
    endpoints: "ServerEndpoints | None" = None

    @property
    def name_queue(self) -> "Queue | None":
        """Where the run's head stage pulls chunk names from (None: the
        manifest itself)."""
        return self.endpoints.work_queue if self.endpoints else None

    @property
    def missing_ok(self):
        """Chunks the broker dead-lettered never arrive; resequencers
        release around those holes so the run completes degraded instead
        of wedging on a poison chunk."""
        ends = self.endpoints
        if ends is None:
            return None
        feed = ends.ingress if ends.ingress is not None else ends.work_queue
        return getattr(getattr(feed, "client", None), "quarantined_keys",
                       None)


def _arrival_order(spec: "PipelineSpec", stage: str) -> "list[str] | None":
    """Directly after a parallel align stage chunk order is
    nondeterministic: the manifest order a resequencer must restore so
    first-fragment-wins scans and re-chunking match the eager path."""
    position = spec.stages.index(stage)
    if position == 0 or spec.stages[position - 1] != "align":
        return None
    return [entry.path for entry in spec.manifest.chunks]


def _journaled(spec: "PipelineSpec", store: ChunkStore, stage: str,
               label: str) -> ChunkStore:
    """``store`` as ``stage`` writes to it: on a durable run, wrapped
    for idempotent journaled writes."""
    if spec.ledger is None:
        return store
    return JournaledStore(store, spec.ledger, stage, label=label)


def _align_stage(spec: "PipelineSpec", site: ServerSite) -> StageGraph:
    manifest = spec.manifest
    # A following sort or filter stage moves every column, so the align
    # reader must fetch the ones it skips by default.
    extra = tuple(
        c for c in manifest.columns if c not in ("bases", "qual", "results")
    ) if ("sort" in spec.stages or "filter" in spec.stages) else ()
    results_store = _journaled(
        spec,
        site.align_results_store if site.align_results_store is not None
        else spec.dataset.store,
        "align", "dataset")
    built = build_align_stage(
        manifest, spec.dataset.store, results_store, site.aligner,
        config=replace(spec.align_config, backend=site.backend),
        extra_columns=extra, name_queue=site.name_queue,
    )
    if spec.ledger is not None:
        attach_stage_journal(
            built, StageJournal(spec.ledger, "align", results_store)
        )
    return built


def _sort_stage(spec: "PipelineSpec", site: ServerSite) -> StageGraph:
    manifest = spec.manifest
    head = spec.stages[0] == "sort"
    built = build_sort_graph(
        manifest,
        _journaled(spec, spec.output_store, "sort", "output"),
        input_store=spec.dataset.store if head else None,
        config=spec.sort_config,
        columns=(sorted(set(manifest.columns) | {"results"})
                 if "align" in spec.stages else None),
        scratch_store=site.scratch_store,
        name_queue=site.name_queue,
        missing_ok=site.missing_ok,
        deferred_columns=("results",) if spec.marks_first_write else (),
    )
    if spec.ledger is not None and site.scratch_store is not None:
        # Spills only survive a restart in a durable scratch store; a
        # per-run MemoryStore scratch simply recomputes its runs.
        attach_stage_journal(
            built, SpillJournal(spec.ledger, site.scratch_store))
    return built


def _dupmark_stage(spec: "PipelineSpec", site: ServerSite) -> StageGraph:
    manifest = spec.manifest
    head = spec.stages[0] == "dupmark"
    store = _journaled(spec, spec.output_store, "dupmark", "output") \
        if "sort" in spec.stages \
        else _journaled(spec, spec.dataset.store, "dupmark", "dataset")
    # A head-mode dupmark reads what it and every stage after it declare
    # (a filter re-chunks every column).
    reads = columns_read(spec.stages[spec.stages.index("dupmark"):])
    return build_dupmark_graph(
        manifest if head else None,
        store,
        reorder=_arrival_order(spec, "dupmark"),
        from_queue=not head,
        columns=tuple(sorted(
            reads if reads is not None
            else set(manifest.columns) | {"results"})),
        name_queue=site.name_queue,
        missing_ok=site.missing_ok,
        write_codec=(spec.sort_config.output_codec()
                     if spec.marks_first_write else None),
    )


def _filter_stage(spec: "PipelineSpec", site: ServerSite) -> StageGraph:
    manifest = spec.manifest
    head = spec.stages[0] == "filter"
    dataset_name, out_chunk_size, sort_order = spec.filter_output
    return build_filter_stage(
        spec.filter_predicate,
        _journaled(spec, spec.filter_store, "filter", "filter"),
        dataset_name,
        out_chunk_size,
        sorted(set(manifest.columns) | {"results"}),
        manifest=manifest if head else None,
        input_store=spec.dataset.store if head else None,
        reorder=_arrival_order(spec, "filter"),
        reference=manifest.reference,
        sort_order=sort_order,
        name_queue=site.name_queue,
        missing_ok=site.missing_ok,
    )


def _varcall_stage(spec: "PipelineSpec", site: ServerSite) -> StageGraph:
    head = spec.stages[0] == "varcall"
    return build_varcall_graph(
        spec.reference,
        manifest=spec.manifest if head else None,
        input_store=spec.dataset.store if head else None,
        config=spec.varcall_config,
        name_queue=site.name_queue,
        # A placed server appends an acknowledging sink to the outlet.
        passthrough=site.endpoints is not None,
        sorted_input=spec.sorted_input,
        missing_ok=site.missing_ok,
    )


#: stage -> ``builder(spec, site)``: one stage of ``spec`` as a
#: :class:`StageGraph` on the server ``site`` describes.  The stage that
#: heads the whole run (``spec.stages[0]``) reads the dataset itself;
#: every other one consumes the chunks streaming in.
STAGE_BUILDERS = {
    "align": _align_stage,
    "sort": _sort_stage,
    "dupmark": _dupmark_stage,
    "filter": _filter_stage,
    "varcall": _varcall_stage,
}


@dataclass
class ComposedPipeline:
    """Several stages fused into one graph, run by one Session."""

    name: str
    graph: Graph
    stages: "list[StageGraph]" = field(default_factory=list)
    sink: "NullSinkNode | None" = None

    def stage(self, name: str) -> StageGraph:
        for st in self.stages:
            if st.name == name:
                return st
        raise KeyError(f"no stage {name!r} in pipeline {self.name!r}")

    def run(
        self,
        timeout: "float | None" = None,
        queue_sample_interval: "float | None" = None,
    ) -> SessionResult:
        return Session(
            self.graph, queue_sample_interval=queue_sample_interval
        ).run(timeout=timeout)

    def close(self, wait: bool = True) -> None:
        for st in self.stages:
            st.close(wait=wait)


def compose(
    *stages: StageGraph,
    name: str = "pipeline",
    open_inlet: bool = False,
    terminal: bool = True,
) -> ComposedPipeline:
    """Fuse stage subgraphs into one executable pipeline graph.

    Each stage's graph is merged into a shared namespace (node and queue
    names prefixed by the stage name; resources deduplicated — stages
    typically share one execution backend), then every boundary is fused:
    the upstream stage's sink queue *becomes* the downstream stage's
    source queue.  A terminal counting sink is appended when the last
    stage leaves its outlet open.

    Placed (multi-server) pipelines compose one *cut* of the workload:
    ``open_inlet=True`` accepts a first stage whose source queue is an
    open inlet (an edge-source node is wired to it afterwards), and
    ``terminal=False`` leaves the last stage's outlet open for an
    edge-sink node instead of appending the counting sink.
    """
    if not stages:
        raise GraphError("compose needs at least one stage")
    if stages[0].source is not None and not open_inlet:
        raise GraphError(
            f"first stage {stages[0].name!r} expects an upstream; it "
            f"cannot head a pipeline"
        )
    g = Graph(name)
    for st in stages:
        g.merge(st.graph, prefix=st.name, stage=st.name)
    for prev, nxt in zip(stages, stages[1:]):
        if prev.sink is None:
            raise GraphError(
                f"stage {prev.name!r} is terminal; {nxt.name!r} cannot "
                f"follow it"
            )
        if nxt.source is None:
            raise GraphError(
                f"stage {nxt.name!r} has its own source; it can only "
                f"head a pipeline"
            )
        g.fuse(prev.sink, nxt.source)
    sink: "NullSinkNode | None" = None
    last = stages[-1]
    if last.sink is not None and terminal:
        sink = NullSinkNode(name="pipeline_sink")
        g.add(sink, input=last.sink)
        g.node_stages[sink.name] = last.name
    return ComposedPipeline(name=name, graph=g, stages=list(stages),
                            sink=sink)


class PipelineBuilder:
    """Fluent assembly of stage subgraphs into one composed pipeline.

    The Python-API embodiment of §4.1's "stitched together ... however
    the user desires"::

        pipeline = (PipelineBuilder("wgs")
                    .add(build_align_stage(...))
                    .add(build_sort_graph(...))
                    .add(build_dupmark_graph(..., from_queue=True))
                    .build())
        result = pipeline.run()
    """

    def __init__(self, name: str = "pipeline"):
        self.name = name
        self._stages: list[StageGraph] = []

    def add(self, stage: StageGraph) -> "PipelineBuilder":
        self._stages.append(stage)
        return self

    def build(self) -> ComposedPipeline:
        return compose(*self._stages, name=self.name)
