"""Prebuilt Persona subgraphs (§4.1): "a thin Python library that stitches
these nodes together into optimized subgraphs for common I/O patterns and
bioinformatics functions."

Every pipeline stage is declared once, in :data:`STAGES`: the columns it
reads off a work item, whether it maps each chunk to one chunk, whether
its group may be replicated, and its one builder ``build(spec, site)``.
The spec's validation (:func:`check_stages`), placement, a placed cut's
column pruning (:func:`columns_read`) and resume pre-ack read that
table; :func:`compose` fuses built stages into one graph.

The align stage is the standard alignment graph (Figure 3):

    chunk names -> reader -> AGD parser -> [central queue] -> aligner
    -> writer -> sink

and the Table 1 standalone baseline is the same wiring
(:func:`figure3`) with gzip'd FASTQ read in and SAM written out.  Queue
capacities follow §4.5: "default queue lengths are set to the number of
parallel downstream nodes they feed" — shallow queues bound memory and
avoid stragglers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.agd.manifest import Manifest
from repro.core.ledger import JournaledStore, SpillJournal, StageJournal
from repro.core.ops import (
    AGDParserNode,
    AlignerNode,
    ChunkNameSource,
    ChunkReaderNode,
    ColumnWriterNode,
    DupmarkNode,
    FilterStageNode,
    NullSinkNode,
    PairedAlignerNode,
    QueueNameSource,
    ResequencerNode,
    SortRunNode,
    SuperchunkMergeNode,
    VarCallNode,
)
from repro.core.sort import _key_first_columns
from repro.dataflow.backends import Backend
from repro.dataflow.graph import Graph, GraphError
from repro.dataflow.node import Node
from repro.dataflow.queues import Queue
from repro.dataflow.session import Session, SessionResult
from repro.storage.base import ChunkStore, MemoryStore

if TYPE_CHECKING:
    from repro.core.pipelines import PipelineSpec


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
    #: Whoever runs the graph makes the backend (``make_backend``) and
    #: shuts it down; the align stage registers its aligner on it and
    #: starts it, so a pre-built process backend must not have started
    #: its workers yet.  For utilization traces (Fig. 5), pass an
    #: instance made with ``make_backend(..., busy_counter=...)``.
    backend: "str | Backend" = "thread"
    #: Payloads per IPC message (process backend only; None = default).
    batch_size: "int | None" = None
    #: Zero-copy payload plane for the process backend: ship large
    #: payloads/results as shared-memory references (None = auto where
    #: POSIX shared memory works; False forces the pickled path).
    shm: "bool | None" = None


@dataclass
class StageGraph:
    """One pipeline stage: a subgraph plus its open inlet/outlet queues.

    ``source`` is the open inlet (a queue no stage-internal node feeds;
    None when the stage generates its own input from a manifest) and
    ``sink`` the open outlet (None when the stage is terminal).
    ``collector`` is the stage's result holder — the merge node for
    sort (its ``manifest``/``entries``), the dupmark node (``stats``),
    the filter node (``manifest``), the varcall node (``variants``).
    """

    name: str
    graph: Graph
    source: "Queue | None"
    sink: "Queue | None"
    collector: Any = None


# ---------------------------------------------------------------------------
# Figure 3: the alignment wiring, shared by the align stage and the
# standalone baseline.

#: The queues between Figure 3's five kernels, in order.
FIGURE3_QUEUES = ("chunk_names", "raw_chunks", "parsed_chunks",
                  "aligned_chunks")


def aligner_node(g: Graph, config: AlignGraphConfig, aligner,
                 backend: Backend, journal=None) -> Node:
    """Figure 3's aligner kernel, dispatching subchunks to ``backend``.

    The caller made ``backend`` and shuts it down; this hands it the
    aligner and starts it, here, while graph construction is still
    single-threaded (forking workers from a node thread of a running
    session risks inheriting locks held mid-operation by sibling
    threads).  Backends whose workers cannot see caller memory get the
    aligner via ``register_shared``, at worker start; in-process ones
    resolve it through the graph's own registry at run time, so a
    backend shared between graphs never leaks one graph's aligner into
    another.  ``journal`` is a durable run's
    :class:`~repro.core.ledger.StageJournal`."""
    if not backend.shares_caller_memory:
        backend.register_shared("aligner", aligner)
    backend.start()
    handles = (g.register_resource("aligner", aligner),
               # Graph-qualified: per-stage backends must not collide
               # when stages merge into one namespace.
               g.register_resource(f"{g.name}.executor", backend))
    if config.paired:
        return PairedAlignerNode(
            *handles, subchunk_size=max(1, config.subchunk_size // 2),
            parallelism=config.aligner_nodes, journal=journal)
    return AlignerNode(*handles, subchunk_size=config.subchunk_size,
                       parallelism=config.aligner_nodes, journal=journal)


def figure3(g: Graph, nodes: "list[Node]", depth: "int | None",
            outlet: str) -> Queue:
    """Wire Figure 3's source, reader, parser, aligner and writer
    ``nodes`` into ``g`` in a line; returns the writer's queue, named
    ``outlet``.  Each queue is as deep as the parallelism it feeds
    (§4.5), or ``depth`` when that is set."""
    queues = [g.queue(name, depth or max(2, consumer.parallelism))
              for name, consumer in zip(FIGURE3_QUEUES, nodes[1:])]
    queues.append(g.queue(outlet, depth or 2))
    inlet = None
    for node, out in zip(nodes, queues):
        g.add(node, input=inlet, output=out)
        inlet = out
    return inlet


# ---------------------------------------------------------------------------
# One stage of a run, read off a PipelineSpec.  What is equal on every
# server comes from the spec; what one server brings comes from its
# ServerSite.


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


#: Readers and parsers of a stage that reads the dataset itself.
HEAD_PARALLELISM = 2


def _name_source(manifest: Manifest, site: ServerSite) -> Node:
    """Chunk names from the manifest, or — the cluster work edge (§5.2)
    — from the shared queue replicas on several servers pull from, so
    they self-balance at chunk granularity."""
    if site.name_queue is not None:
        return QueueNameSource(site.name_queue)
    return ChunkNameSource(manifest)


def _inlet(g: Graph, spec: "PipelineSpec", site: ServerSite, stage: str,
           columns) -> "tuple[Queue, Queue | None]":
    """Where ``stage``'s chunks come from: off the dataset — chunk
    names, parallel readers of ``columns``, parsers — when it heads the
    run, else an open inlet the upstream stage is fused onto.  Returns
    ``(inlet, source)``, ``source`` being the open inlet or None."""
    if spec.stages[0] != stage:
        inlet = g.queue("stage_in", 4)
        return inlet, inlet
    q_names = g.queue("chunk_names", HEAD_PARALLELISM)
    q_raw = g.queue("raw_chunks", HEAD_PARALLELISM)
    q_parsed = g.queue("parsed_chunks", 2)
    g.add(_name_source(spec.manifest, site), output=q_names)
    g.add(ChunkReaderNode(spec.dataset.store, columns=tuple(columns),
                          parallelism=HEAD_PARALLELISM),
          input=q_names, output=q_raw)
    g.add(AGDParserNode(parallelism=HEAD_PARALLELISM),
          input=q_raw, output=q_parsed)
    return q_parsed, None


def _add_resequencer(g: Graph, inlet: Queue, expected, missing_ok) -> Queue:
    """Restore the ``expected`` chunk-path order behind ``inlet``."""
    q_ordered = g.queue("ordered_chunks", 2)
    g.add(ResequencerNode(list(expected), missing_ok=missing_ok),
          input=inlet, output=q_ordered)
    return q_ordered


def _arrival_order(spec: "PipelineSpec", stage: str) -> "list[str] | None":
    """The manifest order a resequencer must restore ahead of an
    order-sensitive ``stage`` (first-fragment-wins scans, re-chunking)
    whose chunks arrive out of it — from its own parallel readers when
    it heads the run, or directly after a parallel align stage; None
    when they arrive in order."""
    position = spec.stages.index(stage)
    if position and spec.stages[position - 1] != "align":
        return None
    return [entry.path for entry in spec.manifest.chunks]


def _journaled(spec: "PipelineSpec", store: ChunkStore, stage: str,
               label: str) -> ChunkStore:
    """``store`` as ``stage`` writes to it: on a durable run, wrapped
    for idempotent journaled writes."""
    if spec.ledger is None:
        return store
    return JournaledStore(store, spec.ledger, stage, label=label)


def _build_align(spec: "PipelineSpec", site: ServerSite) -> StageGraph:
    """The Figure 3 alignment pipeline, ending in an open outlet: aligned
    chunks (results written, parsed columns still attached) flow on to
    whatever stage is fused downstream."""
    manifest, config = spec.manifest, spec.align_config
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
    g = Graph("align")
    outlet = figure3(g, [
        _name_source(manifest, site),
        ChunkReaderNode(spec.dataset.store, columns=("bases", "qual") + extra,
                        parallelism=config.reader_nodes),
        AGDParserNode(parallelism=config.parser_nodes),
        aligner_node(
            g, config, site.aligner, site.backend,
            journal=(StageJournal(spec.ledger, "align", results_store)
                     if spec.ledger is not None else None)),
        ColumnWriterNode(results_store, column="results",
                         record_type="results",
                         parallelism=config.writer_nodes),
    ], config.queue_depth, "stage_out")
    return StageGraph(name="align", graph=g, source=None, sink=outlet)


def _build_sort(spec: "PipelineSpec", site: ServerSite) -> StageGraph:
    """The external merge sort (§4.3).  A resequencer restores manifest
    order first, so run grouping — and therefore every output byte —
    matches the eager :func:`repro.core.sort.sort_dataset`.  The
    collector is the :class:`SuperchunkMergeNode`; after the run its
    ``manifest`` describes the sorted dataset in ``spec.output_store``.
    When dupmark follows, the merge streams the results column on
    without writing it: the dupmark node puts it, once."""
    manifest, config = spec.manifest, spec.sort_config
    columns = sorted(set(manifest.columns)
                     | ({"results"} if "align" in spec.stages else set()))
    if config.order == "location" and "results" not in columns:
        raise ValueError("location sort needs a results column; align first")
    ordered_columns = _key_first_columns(columns)
    scratch = site.scratch_store if site.scratch_store is not None \
        else MemoryStore()
    g = Graph("sort")
    inlet, source = _inlet(g, spec, site, "sort", ordered_columns)
    q_ordered = _add_resequencer(
        g, inlet, [entry.path for entry in manifest.chunks], site.missing_ok)
    q_runs = g.queue("runs", 2)
    g.add(
        SortRunNode(
            ordered_columns, config.order, scratch,
            chunks_per_superchunk=config.chunks_per_superchunk,
            # Spills only survive a restart in a durable scratch store;
            # a per-run MemoryStore scratch simply recomputes its runs.
            journal=(SpillJournal(spec.ledger, site.scratch_store)
                     if spec.ledger is not None
                     and site.scratch_store is not None else None),
        ),
        input=q_ordered,
        output=q_runs,
    )
    q_sorted = g.queue("sorted_chunks", 2)
    merge = SuperchunkMergeNode(
        scratch,
        _journaled(spec, spec.output_store, "sort", "output"),
        ordered_columns,
        columns,
        config.order,
        manifest.name,
        config.output_chunk_size or (
            manifest.chunks[0].record_count if manifest.chunks else 1),
        reference=manifest.reference,
        output_codec=config.output_codec(),
        deferred_columns=("results",) if spec.marks_first_write else (),
    )
    g.add(merge, input=q_runs, output=q_sorted)
    return StageGraph(name="sort", graph=g, source=source, sink=q_sorted,
                      collector=merge)


def _build_dupmark(spec: "PipelineSpec", site: ServerSite) -> StageGraph:
    """Samblaster-style duplicate marking (§5.6).  A head stage reads
    only the columns it and every stage after it declare — the
    selective-column I/O §5.6 measures — and rewrites dirty chunks in
    place; directly after a sort it writes every chunk's results, once.
    The collector is the :class:`DupmarkNode` (its ``dup_stats``)."""
    manifest = spec.manifest
    store = _journaled(spec, spec.output_store, "dupmark", "output") \
        if "sort" in spec.stages \
        else _journaled(spec, spec.dataset.store, "dupmark", "dataset")
    # A filter after it re-chunks every column.
    reads = columns_read(spec.stages[spec.stages.index("dupmark"):])
    g = Graph("dupmark")
    inlet, source = _inlet(g, spec, site, "dupmark", sorted(
        reads if reads is not None else set(manifest.columns) | {"results"}))
    reorder = _arrival_order(spec, "dupmark")
    if reorder is not None:
        inlet = _add_resequencer(g, inlet, reorder, site.missing_ok)
    q_out = g.queue("stage_out", 2)
    node = DupmarkNode(store, write_codec=(spec.sort_config.output_codec()
                                           if spec.marks_first_write
                                           else None))
    g.add(node, input=inlet, output=q_out)
    return StageGraph(name="dupmark", graph=g, source=source, sink=q_out,
                      collector=node)


def _build_filter(spec: "PipelineSpec", site: ServerSite) -> StageGraph:
    """Dataset filtering (§2.1): ``spec.filter_predicate`` over each
    chunk's results, survivors re-chunked into ``spec.filter_store``.
    The collector is the :class:`FilterStageNode`: after the run, its
    ``manifest`` describes the filtered dataset — byte-identical to the
    eager :func:`~repro.core.filters.filter_dataset` over the run's
    output."""
    manifest = spec.manifest
    dataset_name, out_chunk_size, sort_order = spec.filter_output
    columns = sorted(set(manifest.columns) | {"results"})
    g = Graph("filter")
    inlet, source = _inlet(g, spec, site, "filter", columns)
    reorder = _arrival_order(spec, "filter")
    if reorder is not None:
        inlet = _add_resequencer(g, inlet, reorder, site.missing_ok)
    q_out = g.queue("stage_out", 2)
    node = FilterStageNode(
        spec.filter_predicate,
        _journaled(spec, spec.filter_store, "filter", "filter"),
        dataset_name,
        out_chunk_size,
        columns,
        reference=manifest.reference,
        sort_order=sort_order,
    )
    g.add(node, input=inlet, output=q_out)
    return StageGraph(name="filter", graph=g, source=source, sink=q_out,
                      collector=node)


def _build_varcall(spec: "PipelineSpec", site: ServerSite) -> StageGraph:
    """Pileup SNP calling (§2.1), terminal.  Over location-sorted input
    (``spec.sorted_input``) calls stream out behind a sliding pileup
    window — a head stage then resequences its parallel readers' chunks;
    unsorted input piles up whole (commutative: no resequencer).  The
    collector is the :class:`VarCallNode` (its ``variants``)."""
    g = Graph("varcall")
    inlet, source = _inlet(g, spec, site, "varcall", STAGES["varcall"].reads)
    if source is None and spec.sorted_input:
        inlet = _add_resequencer(
            g, inlet, [entry.path for entry in spec.manifest.chunks],
            site.missing_ok)
    node = VarCallNode(spec.reference, config=spec.varcall_config,
                       sorted_input=spec.sorted_input)
    outlet: "Queue | None" = None
    if site.endpoints is not None:
        # A placed server appends an acknowledging sink to the outlet.
        outlet = g.queue("stage_out", 2)
    g.add(node, input=inlet, output=outlet)
    return StageGraph(name="varcall", graph=g, source=source, sink=outlet,
                      collector=node)


@dataclass(frozen=True)
class Stage:
    """One pipeline stage, declared once."""

    #: Columns it reads off an incoming work item (None: every column —
    #: it moves or re-chunks whole records).  A head stage fetches, and
    #: a placed cut ships, the union over what follows
    #: (:func:`columns_read`).
    reads: "tuple[str, ...] | None"
    #: Maps each input chunk to one output chunk (no re-chunking): only
    #: groups of these can carry manual (ack-on-completion) delivery.
    one_to_one: bool
    #: Keeps no state across chunks, so a group of only such stages may
    #: run on several servers at once — self-balancing at chunk
    #: granularity, the paper's §5.2 cluster mode — and a resumed run
    #: may pre-ack its journaled chunks.  The others are order-sensitive
    #: single consumers.
    replicable: bool
    #: ``build(spec, site)``: this stage of ``spec`` as a
    #: :class:`StageGraph` on the server ``site`` describes.  The stage
    #: heading the run reads the dataset itself; every other one
    #: consumes the chunks streaming in.
    build: "Callable[[PipelineSpec, ServerSite], StageGraph]"


#: Every stage, in pipeline order (§2.1's workload sequence); a run is
#: any ordered subset (:func:`check_stages`).
STAGES: "dict[str, Stage]" = {
    "align": Stage(reads=None, one_to_one=True, replicable=True,
                   build=_build_align),
    "sort": Stage(reads=None, one_to_one=False, replicable=False,
                  build=_build_sort),
    "dupmark": Stage(reads=("results",), one_to_one=True, replicable=False,
                     build=_build_dupmark),
    "filter": Stage(reads=None, one_to_one=False, replicable=False,
                    build=_build_filter),
    "varcall": Stage(reads=("results", "bases", "qual"), one_to_one=True,
                     replicable=False, build=_build_varcall),
}


def check_stages(stages) -> None:
    """Reject a stage tuple that is not an ordered subset of
    :data:`STAGES`: empty, unknown, repeated or out of order."""
    order = list(STAGES)
    if not stages:
        raise ValueError("at least one stage is required")
    unknown = [s for s in stages if s not in STAGES]
    if unknown:
        raise ValueError(
            f"unknown stages {unknown} (choices: {', '.join(order)})")
    if len(set(stages)) != len(stages):
        raise ValueError(f"duplicate stages in {list(stages)}")
    positions = [order.index(s) for s in stages]
    if positions != sorted(positions):
        raise ValueError(f"stages {list(stages)} must follow the pipeline "
                         f"order {order}")


def replicable(stages) -> bool:
    """Whether a group of ``stages`` may run on several servers at once."""
    return all(STAGES[stage].replicable for stage in stages)


def columns_read(stages) -> "frozenset[str] | None":
    """Union of the columns ``stages`` read off a work item; None if
    any of them reads all."""
    reads = [STAGES[stage].reads for stage in stages]
    return None if None in reads else frozenset().union(*reads)


# ---------------------------------------------------------------------------
# One-graph pipelines (§4.1): compose() stitches consecutive stages
# together by fusing each stage's sink queue into the next stage's source
# queue, so a whole workload (align -> sort -> dupmark -> varcall)
# executes in ONE Session.run with chunks streaming through bounded
# queues end to end (§4.5 flow control), instead of five sequential
# passes over the store.


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
