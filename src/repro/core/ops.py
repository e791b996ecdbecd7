"""Persona dataflow operators (§4.1–§4.4, Figure 3).

"Persona consists of two layers: a set of TensorFlow dataflow operators
that read, parse, write, and operate on AGD chunks, and a thin Python
library that stitches these nodes together" — this module is the first
layer.  Each class is one kernel from Figure 3: chunk-name sources,
disk/Ceph readers, AGD parsers, aligner nodes backed by the fine-grain
executor, and writers.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from repro.agd.chunk import read_chunk_header, read_column, write_chunk
from repro.agd.columns import RaggedColumn
from repro.agd.compression import DEFAULT_CODEC, Codec
from repro.agd.manifest import ChunkEntry, Manifest
from repro.agd.records import as_column, record_type_for_column
from repro.align.result import FLAG_DUPLICATE
from repro.agd.result_column import ResultsColumn
from repro.dataflow.lane import Ticket
from repro.dataflow.node import Node
from repro.dataflow.queues import Queue
from repro.dataflow.errors import QueueClosed
from repro.dataflow.session import NodeContext
from repro.formats.sam import SamHeader, record_from_alignment
from repro.genome.reads import ReadRecord
from repro.storage.base import ChunkStore


@dataclass
class ChunkWorkItem:
    """One AGD chunk moving through a Persona pipeline.

    ``columns`` holds decoded columns — one flat buffer plus record
    bounds each (:mod:`repro.agd.columns`), never a list of per-record
    objects; index or iterate a column to get records (``bytes``, or
    ``AlignmentResult`` from a results column).  Kernels also accept
    plain record lists there and wrap them once.  ``codecs`` names the
    codec each column parsed from ``raw`` was stored with, for a kernel
    that rewrites the chunk in place.  ``stored`` is the write-behind
    ticket of a chunk whose columns may still be on their way to the
    store (a sort merge's output): acknowledge only after waiting on it.
    """

    entry: ChunkEntry
    raw: dict[str, bytes] = field(default_factory=dict)
    columns: dict = field(default_factory=dict)
    results: "ResultsColumn | None" = None
    codecs: "dict[str, str]" = field(default_factory=dict)
    stored: "Ticket | None" = None

    def wait_stored(self) -> None:
        if self.stored is not None:
            self.stored.wait()

    @property
    def record_count(self) -> int:
        return self.entry.record_count


class ChunkNameSource(Node):
    """Emits chunk entries from a manifest (Figure 3's filename queue)."""

    def __init__(self, manifest: Manifest, name: str = "chunk_names"):
        super().__init__(name, parallelism=1)
        self.manifest = manifest

    def generate(self, ctx: NodeContext) -> Iterator[ChunkEntry]:
        yield from self.manifest.chunks


class QueueNameSource(Node):
    """Emits chunk entries pulled from a shared queue.

    This is the cluster mode of §5.2: "the first stage in the TensorFlow
    graph fetches a chunk name from the manifest server; the latter is
    implemented as a simple message queue."  Many servers pulling from one
    queue self-balance at chunk granularity.
    """

    def __init__(self, source_queue: Queue, name: str = "manifest_client"):
        super().__init__(name, parallelism=1)
        self.source_queue = source_queue

    def generate(self, ctx: NodeContext) -> Iterator[ChunkEntry]:
        while True:
            try:
                yield self.source_queue.get()
            except QueueClosed:
                return


class ChunkReaderNode(Node):
    """Reads one or more column files per chunk from a store (§4.2).

    "Reader nodes are implementations that read AGD chunks from storage.
    Currently, Persona supports a local disk or the Ceph object store —
    other storage systems can be supported simply by writing the interface
    into a new Reader dataflow node."  Here any :class:`ChunkStore` works.
    """

    def __init__(
        self,
        store: ChunkStore,
        columns: "tuple[str, ...]",
        name: str = "reader",
        parallelism: int = 2,
    ):
        super().__init__(name, parallelism)
        self.store = store
        self.columns = columns

    def process(self, entry: ChunkEntry, ctx: NodeContext):
        raw = {
            column: self.store.get(entry.chunk_file(column))
            for column in self.columns
        }
        return [ChunkWorkItem(entry=entry, raw=raw)]


class AGDParserNode(Node):
    """Decompresses and parses raw chunk blobs into columns (§4.2).

    Every column decodes to one flat buffer plus record bounds
    (:func:`repro.agd.chunk.read_column`) instead of one object per
    record, so it flows to the kernels — and across a shared-memory
    process backend — without per-record materialization.
    """

    def __init__(self, name: str = "parser", parallelism: int = 2):
        super().__init__(name, parallelism)

    def process(self, item: ChunkWorkItem, ctx: NodeContext):
        for column, blob in item.raw.items():
            records = read_column(blob)
            if len(records) != item.record_count:
                raise ValueError(
                    f"chunk {item.entry.path!r} column {column!r} has "
                    f"{len(records)} records, manifest says "
                    f"{item.record_count}"
                )
            item.columns[column] = records
            item.codecs[column] = read_chunk_header(blob).codec_name
        item.raw = {}
        return [item]


def align_subchunk_task(shared, payload) -> ResultsColumn:
    """Backend task: align one subchunk of single-end reads.

    Module-level (hence picklable) so the process backend can ship it to
    workers; ``shared`` resolves the aligner by handle on whichever side
    of the process boundary the task runs.  The aligner must be a
    ``repro.align.base.ReadAligner``: ``align_reads`` is all that is
    called, and the base class supplies it from ``align_read``.
    """
    aligner_handle, bases = payload
    return ResultsColumn.from_records(
        shared[aligner_handle].align_reads(bases)
    )


def align_pairs_task(shared, payload) -> ResultsColumn:
    """Backend task: align one subchunk of mate pairs (R1, R2, R1, ...)."""
    aligner_handle, bases = payload
    paired = shared[aligner_handle]
    output: list = [None] * len(bases)
    for i in range(0, len(bases), 2):
        r1, r2 = paired.align_pair(bases[i], bases[i + 1])
        output[i] = r1
        output[i + 1] = r2
    return ResultsColumn.from_records(output)


class AlignerNode(Node):
    """Aligns a chunk by delegating subchunks to an execution backend (§4.3).

    "The chunk object and output buffer are logically divided into
    subchunks and placed in the executor task queue as (subchunk, buffer)
    pairs.  Once a full chunk is completed, the originating aligner node
    is notified, and the result buffer is placed in the subgraph output
    queue."

    The backend (serial or process) comes from the session resource
    registry.
    """

    def __init__(
        self,
        aligner_handle: str,
        backend_handle: str,
        subchunk_size: int = 512,
        name: str = "aligner",
        parallelism: int = 2,
        journal=None,
    ):
        super().__init__(name, parallelism)
        if subchunk_size <= 0:
            raise ValueError("subchunk_size must be positive")
        self.aligner_handle = aligner_handle
        self.backend_handle = backend_handle
        self.subchunk_size = subchunk_size
        # Durable-run hook (ledger.StageJournal): lets a resumed run adopt
        # journaled, digest-verified results instead of re-aligning.
        self.journal = journal

    def process(self, item: ChunkWorkItem, ctx: NodeContext):
        if self.journal is not None:
            cached = self.journal.cached_results(item.entry)
            if cached is not None:
                item.results = cached
                return [item]
        backend = ctx.backend(self.backend_handle)
        bases = item.columns["bases"]
        payloads = [
            (self.aligner_handle, bases[start:start + self.subchunk_size])
            for start in range(0, len(bases), self.subchunk_size)
        ]
        subchunk_results = backend.run_chunk(
            align_subchunk_task, payloads, shared=ctx.resources
        )
        # Owned, writable storage whichever backend returned the blocks.
        item.results = ResultsColumn.concat(subchunk_results).materialize()
        return [item]


class PairedAlignerNode(Node):
    """Paired-end variant: consecutive records are mates (R1, R2)."""

    def __init__(
        self,
        paired_handle: str,
        backend_handle: str,
        subchunk_size: int = 256,
        name: str = "paired_aligner",
        parallelism: int = 2,
        journal=None,
    ):
        super().__init__(name, parallelism)
        self.paired_handle = paired_handle
        self.backend_handle = backend_handle
        self.subchunk_size = subchunk_size
        self.journal = journal  # durable-run hook, see AlignerNode

    def process(self, item: ChunkWorkItem, ctx: NodeContext):
        if self.journal is not None:
            cached = self.journal.cached_results(item.entry)
            if cached is not None:
                item.results = cached
                return [item]
        backend = ctx.backend(self.backend_handle)
        bases = item.columns["bases"]
        if len(bases) % 2:
            raise ValueError(
                f"paired chunk {item.entry.path!r} has odd record count"
            )
        step = self.subchunk_size * 2
        payloads = [
            (self.paired_handle, bases[start:start + step])
            for start in range(0, len(bases), step)
        ]
        subchunk_results = backend.run_chunk(
            align_pairs_task, payloads, shared=ctx.resources
        )
        # Owned, writable storage whichever backend returned the blocks.
        item.results = ResultsColumn.concat(subchunk_results).materialize()
        return [item]


class ColumnWriterNode(Node):
    """Writes one column of each chunk back to a store (§4.4).

    "The output subgraph mirrors the input subgraph, with Writer nodes
    writing AGD chunks to disk or a Ceph object store, with an optional
    compression stage."
    """

    def __init__(
        self,
        store: ChunkStore,
        column: str,
        record_type: str,
        codec: str = "gzip",
        name: str = "writer",
        parallelism: int = 1,
    ):
        super().__init__(name, parallelism)
        self.store = store
        self.column = column
        self.record_type = record_type
        self.codec = codec

    def process(self, item: ChunkWorkItem, ctx: NodeContext):
        if self.column == "results":
            records = item.results
            if records is None:
                raise ValueError(
                    f"chunk {item.entry.path!r} reached the results writer "
                    f"without results"
                )
        else:
            records = item.columns[self.column]
        blob = write_chunk(
            records,
            self.record_type,
            first_ordinal=item.entry.first_ordinal,
            codec=self.codec,
        )
        self.store.put(item.entry.chunk_file(self.column), blob)
        return [item]


class SamWriterNode(Node):
    """Writes chunks as SAM text (the standalone-tool output path, §4.4).

    Persona uses this "for compatibility with tools that have not been
    integrated"; the Table 1 baseline uses it as its only output path,
    which is where the 16.75x write amplification comes from.
    """

    def __init__(
        self,
        store: ChunkStore,
        contig_names: "list[str]",
        header: "SamHeader | None" = None,
        name: str = "sam_writer",
        parallelism: int = 1,
    ):
        super().__init__(name, parallelism)
        self.store = store
        self.contig_names = contig_names
        self.header = header
        self._header_lock = threading.Lock()
        self._wrote_header = False

    def process(self, item: ChunkWorkItem, ctx: NodeContext):
        if item.results is None:
            raise ValueError("SAM writer needs aligned chunks")
        lines = []
        if self.header is not None:
            with self._header_lock:
                if not self._wrote_header:
                    lines.append(self.header.to_bytes())
                    self._wrote_header = True
        metas = item.columns["metadata"]
        bases = item.columns["bases"]
        quals = item.columns["qual"]
        for meta, base, qual, result in zip(metas, bases, quals, item.results):
            record = record_from_alignment(
                ReadRecord(meta, base, qual), result, self.contig_names
            )
            lines.append(record.to_line())
        blob = b"".join(lines)
        self.store.put(f"{item.entry.path}.sam", blob)
        return [item]


class GzipFastqReaderNode(Node):
    """Reads gzip-compressed FASTQ shards (the standalone baseline input).

    SNAP standalone consumes "GZIP'd FASTQ" (Fig. 5): a row-oriented read
    of all three fields at once, with decompression on the critical path.
    """

    def __init__(
        self,
        store: ChunkStore,
        name: str = "fastq_reader",
        parallelism: int = 2,
    ):
        super().__init__(name, parallelism)
        self.store = store

    def process(self, entry: ChunkEntry, ctx: NodeContext):
        blob = self.store.get(f"{entry.path}.fastq.gz")
        return [ChunkWorkItem(entry=entry, raw={"fastq.gz": blob})]


class FastqParserNode(Node):
    """Parses gzip'd FASTQ shards into the three read fields.

    Also tallies parsed bases: row-oriented FASTQ has no per-record index
    to count from (unlike AGD's relative index), so the parse is the
    first point the baseline pipeline knows its base volume.
    """

    def __init__(self, name: str = "fastq_parser", parallelism: int = 2):
        super().__init__(name, parallelism)
        self.total_bases = 0
        self._bases_lock = threading.Lock()

    def process(self, item: ChunkWorkItem, ctx: NodeContext):
        import gzip
        import io

        from repro.formats.fastq import parse_fastq

        blob = gzip.decompress(item.raw["fastq.gz"])
        reads = list(parse_fastq(io.BytesIO(blob)))
        if len(reads) != item.record_count:
            raise ValueError(
                f"FASTQ shard {item.entry.path!r} has {len(reads)} reads, "
                f"expected {item.record_count}"
            )
        item.columns = {
            "bases": [r.bases for r in reads],
            "qual": [r.qualities for r in reads],
            "metadata": [r.metadata for r in reads],
        }
        item.raw = {}
        parsed = sum(len(r.bases) for r in reads)
        with self._bases_lock:
            self.total_bases += parsed
        return [item]


class NullSinkNode(Node):
    """Terminal sink counting completed chunks (Figure 3's sink node)."""

    def __init__(self, name: str = "sink"):
        super().__init__(name, parallelism=1)
        self.chunks = 0
        self.records = 0

    def process(self, item: ChunkWorkItem, ctx: NodeContext):
        self.chunks += 1
        self.records += item.record_count
        return None


class EdgeSinkNode(Node):
    """Publishes a placed server's completed work items to a broker edge.

    The egress half of a pipeline cut (§5.2 generalized): items leaving
    this server travel to whichever server hosts the next stage group.
    With an ``ack_source`` (the server's manual-ack ingress queue), the
    publish and the upstream acknowledgment happen as ONE broker
    operation — a worker that dies mid-chunk leaves the delivery unacked
    for redelivery, and one that dies after leaves it published exactly
    once.  The item crosses restricted to ``columns``, the set the
    stages placed after this cut read (``subgraphs.columns_read``; None:
    all).  ``finalize`` releases this server's producer slot, which is
    what lets the downstream edge close once every upstream replica is
    done.
    """

    def __init__(self, remote, ack_source=None, name: str = "edge_sink",
                 columns: "frozenset[str] | None" = None):
        super().__init__(name, parallelism=1)
        self.remote = remote
        self.ack_source = ack_source
        self.columns = columns
        self.chunks = 0
        self.records = 0

    def process(self, item: ChunkWorkItem, ctx: NodeContext):
        shipped = item.columns if self.columns is None else {
            c: v for c, v in item.columns.items() if c in self.columns}
        self.stats.add_counters(
            {"columns_pruned": len(item.columns) - len(shipped)})
        item = replace(item, columns=shipped)
        if self.ack_source is not None:
            item.wait_stored()
        self.remote.put(item, ack_source=self.ack_source)
        self.chunks += 1
        self.records += item.record_count
        return None

    def finalize(self, ctx: NodeContext):
        self.stats.add_counters({"edge_frames": self.remote.total_frames,
                                 "edge_raw_bytes": self.remote.total_bytes})
        self.remote.producer_done()
        return None


class AckSinkNode(Node):
    """Terminal sink for a placed server's last stage group.

    Counts completed chunks like :class:`NullSinkNode` and, when the
    group consumes a manual-ack edge, acknowledges each chunk's ingress
    delivery — the point where a chunk is finally *done* and stops being
    eligible for redelivery.
    """

    def __init__(self, ack_source=None, name: str = "ack_sink"):
        super().__init__(name, parallelism=1)
        self.ack_source = ack_source
        self.chunks = 0
        self.records = 0

    def process(self, item: ChunkWorkItem, ctx: NodeContext):
        if self.ack_source is not None:
            item.wait_stored()
            self.ack_source.ack_key(item.entry.path)
        self.chunks += 1
        self.records += item.record_count
        return None


class FilterStageNode(Node):
    """Streaming dataset filter (§2.1's post-alignment filtering).

    The dataflow form of :func:`repro.core.filters.filter_dataset`:
    evaluates a row predicate against each chunk's results, buffers the
    surviving rows of every column, and re-chunks them into a new
    dataset in ``output_store`` — emitting each output chunk downstream
    as it fills, so a following varcall stage overlaps with filtering.
    Output bytes and manifest are identical to the eager function's.

    Parallelism is 1: output re-chunking concatenates survivors in
    input order, so chunks must arrive in dataset order (callers insert
    a resequencer after out-of-order upstreams).
    """

    def __init__(
        self,
        predicate,
        output_store: ChunkStore,
        dataset_name: str,
        out_chunk_size: int,
        columns: "list[str]",
        reference: "list[dict] | None" = None,
        sort_order: str = "unsorted",
        stats: "object | None" = None,
        name: str = "filter",
    ):
        from repro.core.filters import FilterStats

        super().__init__(name, parallelism=1)
        if out_chunk_size <= 0:
            raise ValueError("out_chunk_size must be positive")
        self.predicate = predicate
        self.output_store = output_store
        self.dataset_name = dataset_name
        self.out_chunk_size = out_chunk_size
        self.columns = sorted(columns)
        self.reference = reference or []
        self.sort_order = sort_order
        self.filter_stats = stats if stats is not None else FilterStats()
        #: Surviving records awaiting a full output chunk: column pieces.
        self._buffers: dict[str, list] = {c: [] for c in self.columns}
        self._held = 0
        self.entries: list[ChunkEntry] = []
        self.manifest: "Manifest | None" = None
        self._emitted = 0

    def _flush_chunk(self) -> ChunkWorkItem:
        count = min(self.out_chunk_size, self._held)
        entry = ChunkEntry(
            f"{self.dataset_name}-{len(self.entries)}",
            self._emitted,
            count,
        )
        out_columns: dict = {}
        for column in self.columns:
            held = RaggedColumn.concat(self._buffers[column])
            records = held[:count]
            self._buffers[column] = [held[count:]]
            self.output_store.put(
                entry.chunk_file(column),
                write_chunk(
                    records,
                    record_type_for_column(column),
                    first_ordinal=entry.first_ordinal,
                ),
            )
            out_columns[column] = records
        self.entries.append(entry)
        self._emitted += count
        self._held -= count
        return ChunkWorkItem(entry=entry, columns=out_columns)

    def process(self, item: ChunkWorkItem, ctx: NodeContext):
        results = _item_column(item, "results", "filter")
        kept = np.flatnonzero(np.fromiter(
            (bool(self.predicate(r)) for r in results), bool, len(results)
        ))
        self.filter_stats.examined += len(results)
        self.filter_stats.kept += kept.size
        if kept.size:
            for column in self.columns:
                self._buffers[column].append(
                    _item_column(item, column, "filter").take(kept)
                )
            self._held += kept.size
        released: list[ChunkWorkItem] = []
        while self._held >= self.out_chunk_size:
            released.append(self._flush_chunk())
        return released

    def finalize(self, ctx: NodeContext):
        from repro.agd.manifest import ManifestError

        tail: list[ChunkWorkItem] = []
        if self._held:
            tail.append(self._flush_chunk())
        if self.filter_stats.kept == 0:
            raise ManifestError("filter kept no records")
        self.manifest = Manifest(
            name=self.dataset_name,
            columns=list(self.columns),
            chunks=list(self.entries),
            reference=self.reference,
            sort_order=self.sort_order,
        )
        return tail


# --------------------------------------------------------------------------
# Streaming pipeline kernels: sort, dupmark, and varcall as dataflow stages.
# These promote the eager functions in repro.core.{sort,dupmark,varcall}
# into nodes so a whole workload runs as ONE composed graph (§4.1): chunks
# stream between stages through bounded queues instead of the dataset
# materializing in storage between five sequential passes.


def _item_results(item: ChunkWorkItem):
    """A work item's alignment results, wherever the pipeline put them."""
    if "results" in item.columns:
        return item.columns["results"]
    if item.results is not None:
        return item.results
    raise ValueError(
        f"chunk {item.entry.path!r} carries no alignment results; "
        f"run an align stage first or start from an aligned dataset"
    )


def _item_column(item: ChunkWorkItem, column: str, stage: str):
    """One of a work item's columns, as a column (a record list — a test
    fake's, a FASTQ parser's — is wrapped once)."""
    if column in item.columns:
        records = item.columns[column]
    elif column == "results":
        records = _item_results(item)
    else:
        raise ValueError(
            f"chunk {item.entry.path!r} lacks column {column!r} "
            f"needed by the {stage} stage (a cut upstream ships what "
            f"STAGES[{stage!r}].reads declares)"
        )
    return as_column(record_type_for_column(column), records)


class ResequencerNode(Node):
    """Restores a known chunk order after parallel upstream kernels.

    Parallel readers/aligners emit chunks in completion order; kernels
    with order-dependent semantics (external-sort run grouping, the
    first-fragment-wins duplicate scan) need manifest order back.  The
    buffer holds only chunks that arrived early, which bounded upstream
    queues keep to a handful.
    """

    def __init__(self, expected: "list[str]", name: str = "resequencer",
                 missing_ok=None):
        super().__init__(name, parallelism=1)
        self.expected = list(expected)
        self._positions = {path: i for i, path in enumerate(self.expected)}
        self._pending: dict[str, ChunkWorkItem] = {}
        self._next = 0
        #: Zero-arg callable returning chunk paths *authorized* to be
        #: missing when the input closes (broker-quarantined poison
        #: chunks): those are skipped and the run completes degraded;
        #: any other hole still fails loudly.
        self._missing_ok = missing_ok

    def process(self, item: ChunkWorkItem, ctx: NodeContext):
        path = item.entry.path
        position = self._positions.get(path)
        if position is None or position < self._next or path in self._pending:
            raise ValueError(
                f"resequencer {self.name!r}: unexpected chunk {path!r}"
            )
        self._pending[path] = item
        released: list[ChunkWorkItem] = []
        while self._next < len(self.expected):
            upcoming = self.expected[self._next]
            if upcoming not in self._pending:
                break
            released.append(self._pending.pop(upcoming))
            self._next += 1
        return released

    def finalize(self, ctx: NodeContext):
        if self._next == len(self.expected):
            return None
        remaining = self.expected[self._next:]
        missing = [p for p in remaining if p not in self._pending]
        if missing:
            allowed = (set(self._missing_ok())
                       if self._missing_ok is not None else set())
            blocked = [p for p in missing if p not in allowed]
            if blocked:
                raise ValueError(
                    f"resequencer {self.name!r}: input closed with "
                    f"{len(blocked)} chunks missing "
                    f"(first: {blocked[:3]})"
                )
        # Every hole was quarantined: release what did arrive, still in
        # expected order, and let the run complete degraded.
        released = [self._pending.pop(p) for p in remaining
                    if p in self._pending]
        self._next = len(self.expected)
        return released


class SortRunNode(Node):
    """Sort-run producer: groups incoming chunks into superchunk runs.

    The streaming analog of the eager sort's phase 1: every
    ``chunks_per_superchunk`` chunks, the buffered columns are sorted
    into a run (:func:`repro.core.sort.sort_run`, on this node's own
    thread) — held as columns for a memory scratch, spilled to any
    other — so only a single group of input chunks is ever resident.
    Parallelism is 1: run grouping must follow arrival order to
    reproduce the eager path's runs exactly.
    """

    def __init__(
        self,
        ordered_columns: "list[str]",
        order: str,
        scratch,
        chunks_per_superchunk: int = 4,
        name: str = "sort_runs",
        journal=None,
    ):
        super().__init__(name, parallelism=1)
        self.ordered_columns = list(ordered_columns)
        self.order = order
        self.scratch = scratch
        self.chunks_per_superchunk = chunks_per_superchunk
        #: The current group's chunks, ``{column: decoded column}`` each.
        self._chunks: "list[dict]" = []
        self._runs_emitted = 0
        # Durable-run hook (ledger.SpillJournal): lets a resumed run
        # re-adopt journaled spills whose scratch files survive.
        self.journal = journal
        self._group_paths: "list[str]" = []

    def _adopt_run(self, record: dict):
        """Rebuild a SpilledRun from a journaled spill without re-sorting.

        From every journaled entry, in row order: a run an older version
        spilled by key range lists its sub-chunks there, and the merge
        concatenates a run's entries."""
        from repro.core.sort import SpilledRun

        return SpilledRun(
            entries=[ChunkEntry(*doc) for doc in record["entries"]],
            index=self._runs_emitted,
        )

    def _flush_run(self):
        from repro.core.sort import sort_run

        group_paths, self._group_paths = self._group_paths, []
        chunks, self._chunks = self._chunks, []
        if self.journal is not None:
            record = self.journal.adopt(
                self._runs_emitted, group_paths, self.ordered_columns
            )
            if record is not None:
                run = self._adopt_run(record)
                self._runs_emitted += 1
                return run
        # One stable sort over the whole group (splitting it would
        # change the algorithm); cross-run parallelism comes from the
        # stages up- and downstream of this kernel running concurrently.
        run = sort_run(self.scratch, self._runs_emitted, self.order,
                       self.ordered_columns, chunks)
        # A held run (columns, no entries) survives no restart.
        if self.journal is not None and run.entries:
            self.journal.record(self._runs_emitted, group_paths, run)
        self.stats.add_counters({"spill_bytes": run.nbytes})
        self._runs_emitted += 1
        return run

    def process(self, item: ChunkWorkItem, ctx: NodeContext):
        self._chunks.append({
            column: _item_column(item, column, "sort")
            for column in self.ordered_columns
        })
        self._group_paths.append(item.entry.path)
        if len(self._chunks) >= self.chunks_per_superchunk:
            return [self._flush_run()]
        return None

    def finalize(self, ctx: NodeContext):
        if self._chunks:
            return [self._flush_run()]
        return None


class SuperchunkMergeNode(Node):
    """Superchunk merger: phase 2 of the external sort as a kernel.

    Collects run entries, then merges the spilled runs, writes the
    final sorted chunks to the output store, and — unlike the eager path
    — emits each sorted chunk downstream as a work item of decoded
    columns, so a following dupmark/varcall stage starts while later
    chunks are still being gathered and written.  After the run,
    :attr:`manifest` describes the sorted dataset (identical to
    ``sort_dataset``'s).  The merge runs on this node's thread; each
    chunk's encode and puts run behind it on the session's lane.
    """

    def __init__(
        self,
        scratch,
        output_store: ChunkStore,
        ordered_columns: "list[str]",
        columns: "list[str]",
        order: str,
        dataset_name: str,
        out_chunk_size: int,
        reference: "list[dict] | None" = None,
        name: str = "sort_merge",
        output_codec: "Codec | str" = DEFAULT_CODEC,
        deferred_columns: "tuple[str, ...]" = (),
    ):
        super().__init__(name, parallelism=1)
        if out_chunk_size <= 0:
            raise ValueError("out_chunk_size must be positive")
        self.scratch = scratch
        self.output_store = output_store
        self.ordered_columns = list(ordered_columns)
        self.columns = sorted(columns)
        self.order = order
        self.dataset_name = dataset_name
        self.out_chunk_size = out_chunk_size
        self.reference = reference or []
        self.output_codec = output_codec
        self.deferred_columns = tuple(deferred_columns)
        self._runs: list = []
        self.entries: list[ChunkEntry] = []
        self.manifest: "Manifest | None" = None

    def process(self, run, ctx: NodeContext):
        self._runs.append(run)
        return None

    def finalize(self, ctx: NodeContext):
        # A generator: chunks are written and emitted one at a time, so
        # downstream stages consume under queue flow control while the
        # merge is still running.
        from repro.core.sort import build_sorted_manifest, iter_merged_chunks

        runs = sorted(self._runs, key=lambda r: r.index)
        # Restore-side accounting lands directly in this node's counters
        # (spill_view_bytes / decode_copies) and surfaces through
        # stage_report.
        for entry, columns, stored in iter_merged_chunks(
            self.scratch, runs, self.ordered_columns, self.order,
            self.out_chunk_size, self.dataset_name, self.output_store,
            out_codec=self.output_codec, counters=self.stats.counters,
            deferred_columns=self.deferred_columns, lane=ctx.lane,
        ):
            self.entries.append(entry)
            yield ChunkWorkItem(entry=entry, columns=columns, stored=stored)
        self.manifest = build_sorted_manifest(
            self.dataset_name, self.columns, self.entries,
            self.reference, self.order,
        )


class DupmarkNode(Node):
    """Streaming Samblaster-style duplicate marker (§4.3, §5.6).

    Signatures come straight from the chunk's results arrays, on this
    node's thread: ~0.5 ms a chunk, a tenth of what dispatching them to
    a backend costs.  The seen-set pass is inherently sequential (first
    fragment with a signature wins), hence parallelism 1 and the
    requirement that chunks arrive in a deterministic order.  Only the
    results column is ever written — the I/O-efficiency property §5.6
    measures.  Without ``write_codec`` the chunks are already in
    ``store`` and only dirty ones are rewritten, with the codec they
    were stored with; with it (the stage directly after a sort, whose
    merge then leaves the results column to this node) every chunk's
    results are encoded and put here, once, flagged or clean.
    """

    def __init__(
        self,
        store: ChunkStore,
        name: str = "dupmark",
        stats: "object | None" = None,
        write_codec=None,
    ):
        from repro.core.columnar import DuplicateTracker
        from repro.core.dupmark import DupmarkStats

        super().__init__(name, parallelism=1)
        self.store = store
        self.write_codec = write_codec
        # Not ``stats`` — that's the base Node's runtime NodeStats.
        self.dup_stats = stats if stats is not None else DupmarkStats()
        self._tracker = DuplicateTracker()

    def process(self, item: ChunkWorkItem, ctx: NodeContext):
        from repro.core.columnar import fragment_signature_arrays

        records = _item_column(item, "results", "dupmark")
        dup_positions = self._tracker.scan(
            *fragment_signature_arrays(records.arrays), self.dup_stats
        )
        if dup_positions:
            # Marking patches the flag bytes in the serialized block —
            # no AlignmentResult on either side of the rewrite.
            records = records.with_flag(dup_positions, FLAG_DUPLICATE)
            item.columns["results"] = records
            if item.results is not None:
                item.results = records
        if dup_positions or self.write_codec is not None:
            codec = self.write_codec or item.codecs.get("results",
                                                        DEFAULT_CODEC)
            blob = write_chunk(records, "results", codec=codec,
                               first_ordinal=item.entry.first_ordinal)
            # A merge's other columns first, as when it wrote them
            # itself: a chunk's puts keep their order in a ledger.
            item.wait_stored()
            self.store.put(item.entry.chunk_file("results"), blob)
        return [item]


class VarCallNode(Node):
    """Streaming pileup + SNP calling (§2.1; §8's integration target).

    Each chunk is piled up on this node's thread, straight from its
    decoded columns (~2 ms: less than a dispatch), into one
    :class:`~repro.core.columnar.PileupWindow`.  With ``sorted_input``
    (chunks arrive in location order) everything below a chunk's first
    aligned start is called and dropped before the chunk is added, so
    :meth:`finalize` only flushes one window, and a chunk out of that
    order raises.  Otherwise chunk order is irrelevant and
    :meth:`finalize` calls the lot in one sorted sweep.
    Variants land in :attr:`variants`.  Terminal when unwired; passes
    items through when something is downstream.
    """

    def __init__(
        self,
        reference,
        config=None,
        name: str = "varcall",
        sorted_input: bool = False,
    ):
        from collections import defaultdict

        from repro.core.columnar import PileupWindow
        from repro.core.varcall import PileupColumn

        super().__init__(name, parallelism=1)
        self.reference = reference
        #: False once a chunk demoted the stream to the scalar reference.
        self.vectorized = True
        self.sorted_input = sorted_input
        self.window = PileupWindow(reference, config)
        self.config = self.window.config
        # The scalar reference's accumulators (after a demotion).
        self._columns: dict = defaultdict(PileupColumn)
        self.variants: "list | None" = None

    def process(self, item: ChunkWorkItem, ctx: NodeContext):
        from repro.core.columnar import (
            ColumnarFallback,
            first_aligned_start,
            pileup_partial,
            pileup_to_columns,
        )
        from repro.core.varcall import merge_pileups, pileup_records

        results = _item_column(item, "results", "varcall")
        bases = _item_column(item, "bases", "varcall")
        quals = _item_column(item, "qual", "varcall")
        try:
            if self.sorted_input:
                mark = first_aligned_start(results)
                if mark is not None:
                    self.window.flush_below(mark)
            if self.vectorized:
                try:
                    self.window.add(
                        pileup_partial(results, bases, quals, self.config)
                    )
                except ColumnarFallback:
                    # Input the columnar encoding cannot represent: the
                    # window's live rows convert over (nothing piled is
                    # lost or double-counted, calls already flushed are
                    # final) and the scalar reference takes this chunk
                    # and the rest.
                    self.vectorized = False
                    merge_pileups(self._columns,
                                  pileup_to_columns(self.window.drain()))
            if not self.vectorized:
                pileup_records(results, bases, quals, self.config,
                               self._columns)
        except ValueError as exc:
            raise ValueError(
                f"varcall: chunk {item.entry.path!r}: {exc}"
            ) from exc
        return [item] if self.output is not None else None

    def finalize(self, ctx: NodeContext):
        from repro.core.varcall import call_from_pileup

        self.variants = self.window.finish()
        if not self.vectorized:
            self.variants += call_from_pileup(
                self._columns, self.reference, self.config
            )
        return None
