"""One-graph pipeline tests: composed stages vs the eager per-stage path.

The acceptance property of the streaming refactor: a single
``Session.run`` executing align -> sort -> dupmark -> varcall produces
results byte-identical to running the eager single-stage functions one
after another — records, duplicate flags, and VCF rows — on every
execution backend.
"""

from __future__ import annotations

import io

import pytest

from repro.agd.dataset import AGDDataset
from repro.core.dupmark import mark_duplicates
from repro.core.pipelines import PipelineSpec, align_dataset, run_pipeline
from repro.core.sort import SortConfig, sort_dataset, verify_sorted
from repro.core.subgraphs import STAGES, ServerSite, compose
from repro.core.varcall import (
    VarCallConfig,
    call_from_pileup,
    call_variants,
    pileup_dataset,
)
from repro.dataflow.graph import Graph, GraphError
from repro.dataflow.node import CollectSink, IterableSource, LambdaNode
from repro.dataflow.session import Session
from repro.formats.converters import import_reads
from repro.formats.vcf import write_vcf
from repro.storage.base import MemoryStore

SORT_CONFIG = SortConfig(chunks_per_superchunk=2)
#: The session read set carries no planted variants: at these
#: thresholds its sequencing errors call a few dozen rows, so comparing
#: calls compares something.
VARCALL_CONFIG = VarCallConfig(min_depth=2, min_alt_fraction=0.5)


@pytest.fixture()
def fresh_dataset(reads, reference):
    def factory():
        return import_reads(
            reads, "pg", MemoryStore(), chunk_size=100,
            reference=reference.manifest_entry(),
        )
    return factory


@pytest.fixture(scope="module")
def eager_chain(reads, reference, snap_aligner):
    """The reference five-pass eager run (align/sort/dupmark/varcall)."""
    dataset = import_reads(
        reads, "pg", MemoryStore(), chunk_size=100,
        reference=reference.manifest_entry(),
    )
    align_dataset(dataset, snap_aligner,
                  workers=2)
    sorted_ds = sort_dataset(dataset, MemoryStore(), SORT_CONFIG)
    stats = mark_duplicates(sorted_ds)
    variants = call_variants(sorted_ds, reference)
    return sorted_ds, stats, variants


def vcf_bytes(variants, reference) -> bytes:
    buf = io.BytesIO()
    write_vcf(variants, buf, contigs=reference.manifest_entry())
    return buf.getvalue()


class TestOneGraphEquivalence:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_matches_eager_path(
        self, backend, fresh_dataset, snap_aligner, reference, eager_chain
    ):
        eager_sorted, eager_stats, eager_variants = eager_chain
        dataset = fresh_dataset()
        outcome = run_pipeline(
            dataset,
            ("align", "sort", "dupmark", "varcall"),
            aligner=snap_aligner,
            reference=reference,
            sort_config=SORT_CONFIG,
            backend=backend,
            workers=2,
        )
        assert "results" in dataset.columns
        graph_sorted = outcome.sorted_dataset
        assert verify_sorted(graph_sorted)
        # Records byte-identical: every column of the sorted dataset,
        # including the duplicate flags dupmark rewrote.
        assert graph_sorted.manifest.columns == eager_sorted.manifest.columns
        for column in eager_sorted.columns:
            assert (graph_sorted.read_column(column)
                    == eager_sorted.read_column(column)), column
        # Duplicate-flag accounting identical.
        stats = outcome.dupmark_stats
        assert (stats.records, stats.duplicates_marked, stats.unmapped) == (
            eager_stats.records,
            eager_stats.duplicates_marked,
            eager_stats.unmapped,
        )
        assert stats.duplicates_marked > 0
        # VCF rows byte-identical.
        assert vcf_bytes(outcome.variants, reference) == vcf_bytes(
            eager_variants, reference
        )

    def test_stage_breakdowns(self, fresh_dataset, snap_aligner, reference):
        outcome = run_pipeline(
            fresh_dataset(),
            ("align", "sort", "dupmark", "varcall"),
            aligner=snap_aligner,
            reference=reference,
            sort_config=SORT_CONFIG,
            backend="serial",
        )
        assert [b.name for b in outcome.stages] == [
            "align", "sort", "dupmark", "varcall",
        ]
        align = outcome.stage("align")
        assert align.items_in > 0
        assert align.records == outcome.total_reads
        assert align.busy_seconds > 0
        assert outcome.stage("sort").busy_seconds >= 0
        assert "stages" in outcome.report
        assert outcome.report["stages"]["align"]["nodes"]

    def test_sorted_manifest_matches_eager(
        self, fresh_dataset, snap_aligner, reference, eager_chain
    ):
        eager_sorted, _, _ = eager_chain
        outcome = run_pipeline(
            fresh_dataset(),
            ("align", "sort"),
            aligner=snap_aligner,
            sort_config=SORT_CONFIG,
            backend="serial",
        )
        graph_manifest = outcome.sorted_dataset.manifest
        assert graph_manifest.name == eager_sorted.manifest.name
        assert graph_manifest.sort_order == "location"
        assert [
            (e.path, e.first_ordinal, e.record_count)
            for e in graph_manifest.chunks
        ] == [
            (e.path, e.first_ordinal, e.record_count)
            for e in eager_sorted.manifest.chunks
        ]


class PutLogStore(MemoryStore):
    """A memory store that remembers every key it was asked to put."""

    def __init__(self):
        super().__init__()
        self.puts: "list[str]" = []

    def put(self, key, data):
        self.puts.append(key)  # list.append is atomic under the GIL
        super().put(key, data)


@pytest.fixture(scope="module")
def eager_downstream(reads, reference, aligned_results):
    """Eager sort + dupmark + varcall over the pre-aligned dataset: the
    sort's own bytes, then the marked bytes, the manifest and the calls."""
    dataset = import_reads(
        reads, "aligned", MemoryStore(), chunk_size=100,
        reference=reference.manifest_entry(),
    )
    dataset.append_column("results", list(aligned_results))
    store = MemoryStore()
    sorted_ds = sort_dataset(dataset, store, SORT_CONFIG)
    sort_only = {key: store.get(key) for key in store.keys()}
    stats = mark_duplicates(sorted_ds)
    assert stats.duplicates_marked > 0
    marked = {key: store.get(key) for key in store.keys()}
    assert marked != sort_only
    variants = call_variants(sorted_ds, reference, VARCALL_CONFIG)
    assert variants
    return sort_only, marked, sorted_ds.manifest.to_json(), variants


class TestMarksBeforeTheFirstWrite:
    """Dupmark directly after sort writes the results column — once,
    already flagged; the merge writes only the other columns.  Every
    other shape writes what the eager chain writes."""

    def check(self, outcome, store, eager_downstream, marked=True,
              variants=True):
        sort_only, eager_marked, manifest_json, eager_variants = \
            eager_downstream
        expected = eager_marked if marked else sort_only
        assert sorted(store.puts) == sorted(expected), \
            "every output chunk file is put exactly once"
        assert {key: store.get(key) for key in store.keys()} == expected
        assert outcome.sorted_dataset.manifest.to_json() == manifest_json
        if variants:
            assert outcome.variants == eager_variants

    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("stages", [
        ("sort", "dupmark"), ("sort", "dupmark", "varcall"),
    ])
    def test_fused_results_are_put_once(
        self, stages, backend, aligned_dataset, reference, eager_downstream
    ):
        store = PutLogStore()
        outcome = run_pipeline(
            aligned_dataset, stages, reference=reference,
            sort_config=SORT_CONFIG, varcall_config=VARCALL_CONFIG,
            output_store=store, backend=backend, workers=2,
        )
        self.check(outcome, store, eager_downstream,
                   variants="varcall" in stages)

    def test_placed_split_between_sort_and_dupmark(
        self, aligned_dataset, reference, eager_downstream
    ):
        from repro.cluster.multiserver import run_placed_pipeline
        from repro.cluster.placement import PlacementPlan

        store = PutLogStore()
        outcome = run_placed_pipeline(
            aligned_dataset, PlacementPlan.parse("A=sort;B=dupmark,varcall"),
            reference=reference, sort_config=SORT_CONFIG,
            varcall_config=VARCALL_CONFIG,
            output_store=store, backend="serial",
        )
        self.check(outcome, store, eager_downstream)

    @pytest.mark.parametrize("stages", [("sort",), ("sort", "varcall")])
    def test_without_dupmark_the_merge_writes_every_column(
        self, stages, aligned_dataset, reference, eager_downstream
    ):
        store = PutLogStore()
        outcome = run_pipeline(
            aligned_dataset, stages, reference=reference,
            sort_config=SORT_CONFIG, output_store=store, backend="serial",
        )
        self.check(outcome, store, eager_downstream, marked=False,
                   variants=False)


class TestStreamingVarcall:
    """Varcall calls behind a sliding window exactly when its input is
    location-sorted — a property read off the stage tuple (or, for a
    head-mode stage, the manifest) — and piles up whole otherwise; the
    calls are the eager ones either way."""

    @pytest.fixture()
    def sorted_flags(self, monkeypatch):
        """``sorted_input`` of every VarCallNode built."""
        from repro.core.ops import VarCallNode

        seen = []
        init = VarCallNode.__init__

        def spy(node, *args, **kwargs):
            init(node, *args, **kwargs)
            seen.append(node.sorted_input)

        monkeypatch.setattr(VarCallNode, "__init__", spy)
        return seen

    @pytest.fixture()
    def expected(self, aligned_dataset, reference):
        calls = call_variants(aligned_dataset, reference, VARCALL_CONFIG)
        assert calls == call_from_pileup(
            pileup_dataset(aligned_dataset, VARCALL_CONFIG), reference,
            VARCALL_CONFIG)
        return calls

    @pytest.mark.parametrize("stages, order, streams", [
        (("sort", "varcall"), "location", True),
        (("sort", "varcall"), "metadata", False),
        (("varcall",), None, False),
    ])
    def test_sortedness_comes_from_the_stage_tuple(
        self, stages, order, streams, aligned_dataset, reference, expected,
        sorted_flags,
    ):
        outcome = run_pipeline(
            aligned_dataset, stages, reference=reference,
            sort_config=SortConfig(chunks_per_superchunk=2,
                                   order=order or "location"),
            varcall_config=VARCALL_CONFIG, backend="serial",
        )
        assert sorted_flags == [streams]
        assert outcome.variants == expected

    def test_an_align_stage_unsorts_a_sorted_dataset(
        self, fresh_dataset, snap_aligner, reference, sorted_flags
    ):
        dataset = fresh_dataset()
        dataset.manifest.sort_order = "location"
        run_pipeline(dataset, ("align", "varcall"), aligner=snap_aligner,
                     reference=reference, backend="serial")
        assert sorted_flags == [False]

    @pytest.mark.parametrize("stages", [("varcall",), ("dupmark", "varcall")])
    def test_head_mode_over_a_sorted_manifest_streams(
        self, stages, aligned_dataset, reference, sorted_flags
    ):
        """Parallel readers, so a resequencer restores manifest order
        ahead of the window (the dupmark head has its own)."""
        sorted_ds = sort_dataset(aligned_dataset, MemoryStore(), SORT_CONFIG)
        eager = import_dataset_copy(sorted_ds)
        if "dupmark" in stages:
            mark_duplicates(eager)
        expected = call_variants(eager, reference, VARCALL_CONFIG)
        assert expected
        outcome = run_pipeline(sorted_ds, stages, reference=reference,
                               varcall_config=VARCALL_CONFIG,
                               backend="serial")
        assert sorted_flags == [True]
        assert outcome.variants == expected

    def test_head_mode_window_is_a_window(self, aligned_dataset, reference):
        from repro.core.ops import ResequencerNode

        sorted_ds = sort_dataset(aligned_dataset, MemoryStore(), SORT_CONFIG)
        stage = STAGES["varcall"].build(
            PipelineSpec(sorted_ds, ("varcall",), reference=reference,
                         varcall_config=VARCALL_CONFIG),
            ServerSite(),
        )
        assert any(isinstance(n, ResequencerNode) for n in stage.graph.nodes)
        compose(stage).run(timeout=120)
        node = stage.collector
        assert node.variants == call_variants(sorted_ds, reference,
                                              VARCALL_CONFIG)
        # One 100-read chunk of six spans a sixth of the genome.
        assert 0 < node.window.high_water_rows < len(reference) // 3
        unsorted = STAGES["varcall"].build(
            PipelineSpec(aligned_dataset, ("varcall",), reference=reference),
            ServerSite(),
        )
        assert not unsorted.collector.sorted_input
        assert not any(isinstance(n, ResequencerNode)
                       for n in unsorted.graph.nodes)

    def test_a_manifest_that_lies_about_its_order_fails_loudly(
        self, aligned_dataset, reference
    ):
        from repro.dataflow.errors import PipelineError

        aligned_dataset.manifest.sort_order = "location"
        with pytest.raises(PipelineError,
                           match="aligned-.*not location-sorted"):
            run_pipeline(aligned_dataset, ("varcall",), reference=reference,
                         backend="serial")

    def test_placed_servers_read_the_same_tuple(
        self, aligned_dataset, reference, eager_downstream, sorted_flags
    ):
        from repro.cluster.multiserver import run_placed_pipeline
        from repro.cluster.placement import PlacementPlan

        outcome = run_placed_pipeline(
            aligned_dataset, PlacementPlan.parse("A=sort;B=dupmark;C=varcall"),
            reference=reference, sort_config=SORT_CONFIG,
            varcall_config=VARCALL_CONFIG, backend="serial",
        )
        assert sorted_flags == [True]
        assert outcome.variants == eager_downstream[3]


@pytest.fixture()
def published(monkeypatch):
    """A recording in-process transport: edge -> the distinct (column
    set, results attached) shapes of the work items published on it."""
    import json

    from repro.cluster.broker import LocalBrokerClient

    seen: "dict[str, set]" = {}

    class RecordingClient(LocalBrokerClient):
        def _record(self, edge, payload):
            if isinstance(payload, list):  # item edges ship frame lists
                header = json.loads(bytes(payload[0]))
                seen.setdefault(edge, set()).add(
                    (frozenset(header["columns"]), header["results"]))

        def publish(self, edge, key, payload, timeout=0.05, ack=None):
            self._record(edge, payload)
            return super().publish(edge, key, payload, timeout=timeout,
                                   ack=ack)

    monkeypatch.setattr(
        "repro.cluster.multiserver.LocalBrokerClient", RecordingClient)
    return seen


class TestColumnPruning:
    """A cut ships the union of what the stages placed after it declare
    (``STAGES[stage].reads``), not every column the item holds."""

    VARCALL_READS = (frozenset({"results", "bases", "qual"}), False)
    EVERYTHING = (frozenset({"results", "bases", "qual", "metadata"}),
                  False)

    def _placed(self, dataset, plan, reference, **kwargs):
        from repro.cluster.multiserver import run_placed_pipeline
        from repro.cluster.placement import PlacementPlan

        return run_placed_pipeline(
            dataset, PlacementPlan.parse(plan), reference=reference,
            sort_config=SORT_CONFIG, varcall_config=VARCALL_CONFIG,
            backend="serial", **kwargs,
        )

    def test_declared_unions(self):
        from repro.core.subgraphs import columns_read

        assert list(STAGES) == ["align", "sort", "dupmark", "filter",
                                "varcall"]
        assert columns_read(("dupmark",)) == {"results"}
        assert columns_read(("dupmark", "varcall")) == \
            {"results", "bases", "qual"}
        assert columns_read(("dupmark", "filter", "varcall")) is None
        assert columns_read(("sort", "dupmark")) is None

    @pytest.mark.parametrize("plan,edges", [
        ("A=sort;B=dupmark,varcall", ["sort->dupmark"]),
        ("A=sort;B=dupmark;C=varcall",
         ["sort->dupmark", "dupmark->varcall"]),
    ])
    def test_metadata_never_crosses_into_dupmark_or_varcall(
        self, plan, edges, aligned_dataset, reference, eager_downstream,
        published,
    ):
        store = MemoryStore()
        outcome = self._placed(aligned_dataset, plan, reference,
                               output_store=store)
        assert published == {edge: {self.VARCALL_READS} for edge in edges}
        # Nothing stored changes: the sorted dataset keeps its metadata.
        _sort_only, marked, manifest_json, variants = eager_downstream
        assert {key: store.get(key) for key in store.keys()} == marked
        assert any(key.endswith(".metadata") for key in marked)
        assert outcome.sorted_dataset.manifest.to_json() == manifest_json
        assert outcome.variants == variants

    def test_everything_crosses_into_a_sort(
        self, fresh_dataset, snap_aligner, reference, published,
    ):
        self._placed(fresh_dataset(), "A1=align;A2=align;B=sort,dupmark",
                     reference, aligner=snap_aligner)
        # The align stage attaches its results beside the columns.
        assert published == {"align->sort": {
            (frozenset({"bases", "qual", "metadata"}), True)}}

    def test_everything_crosses_into_a_group_holding_filter(
        self, aligned_dataset, reference, published,
    ):
        from repro.core.filters import by_min_mapq

        self._placed(aligned_dataset, "A=sort;B=dupmark,filter,varcall",
                     reference, filter_predicate=by_min_mapq(30))
        assert published == {"sort->dupmark": {self.EVERYTHING}}

    def test_attached_results_cross_a_pruning_cut(
        self, fresh_dataset, snap_aligner, reference, published,
    ):
        single = run_pipeline(
            fresh_dataset(), ("align", "dupmark"), aligner=snap_aligner,
            backend="serial",
        )
        placed = self._placed(fresh_dataset(), "A=align;B=dupmark",
                              reference, aligner=snap_aligner)
        # bases and qual stay behind; item.results is the results column.
        assert published == {"align->dupmark": {(frozenset(), True)}}
        assert placed.dupmark_stats.duplicates_marked == \
            single.dupmark_stats.duplicates_marked > 0

    def test_a_wrong_declaration_fails_with_the_item_column_message(
        self, aligned_dataset, reference, monkeypatch,
    ):
        import dataclasses

        monkeypatch.setitem(STAGES, "varcall", dataclasses.replace(
            STAGES["varcall"], reads=("results", "bases")))
        # B fails while A is still merging: the aborted edge must also
        # unwind A's session (it once hung until the session timeout).
        with pytest.raises(Exception) as excinfo:
            self._placed(aligned_dataset, "A=sort;B=dupmark,varcall",
                         reference, session_timeout=30.0)
        cause = excinfo.value
        while cause.__cause__ is not None:
            cause = cause.__cause__
        assert isinstance(cause, ValueError)
        assert not isinstance(cause, KeyError)
        assert "lacks column 'qual' needed by the varcall stage" in \
            str(cause)
        assert "STAGES['varcall'].reads" in str(cause)

    def test_sink_counters_surface_in_the_stage_report(
        self, aligned_dataset,
    ):
        from repro.cluster.broker import Broker, LocalBrokerClient
        from repro.cluster.wire import edge_item_serializer
        from repro.core.pipelines import (
            PipelineSpec,
            ServerEndpoints,
            ServerSite,
            build_placed_server_graph,
        )
        from repro.dataflow.backends import make_backend
        from repro.dataflow.queues import PULL_OK, RemoteQueue

        edge = "sort->dupmark"
        broker = Broker()
        broker.create_edge(edge, capacity=16, producers=1)
        client = LocalBrokerClient(broker)
        server = build_placed_server_graph(
            PipelineSpec(aligned_dataset, ("sort", "dupmark", "varcall"),
                         sort_config=SORT_CONFIG),
            "A", ("sort",),
            ServerSite(
                backend=make_backend("serial"),
                endpoints=ServerEndpoints(egress=RemoteQueue(
                    client, edge, edge_item_serializer(client))),
            ),
        )
        report = Session(server.pipeline.graph).run(timeout=60).report
        shipped = []
        while True:
            status, tag, _key, frames = client.pull(edge, timeout=0.05)
            if status != PULL_OK:
                break
            client.ack(edge, tag)
            shipped.append(frames)
        assert len(shipped) == 6
        counters = {
            "columns_pruned": 6,          # metadata, once per chunk
            "edge_frames": 6 * (1 + 3),   # header + three columns
            "edge_raw_bytes": sum(len(f) for fs in shipped for f in fs),
        }
        assert report["nodes"]["edge_sink"]["counters"] == counters
        stage = report["stages"]["sort"]["counters"]
        assert {k: stage[k] for k in counters} == counters


class TestSingleStagePipelines:
    def test_sort_only(self, aligned_dataset, eager_chain):
        outcome = run_pipeline(
            aligned_dataset, ("sort",), sort_config=SORT_CONFIG,
            backend="serial",
        )
        assert verify_sorted(outcome.sorted_dataset)
        assert outcome.dataset is outcome.sorted_dataset

    def test_dupmark_only_matches_eager(self, aligned_dataset, reference):
        expected = mark_duplicates(
            import_dataset_copy(aligned_dataset)
        )
        outcome = run_pipeline(aligned_dataset, ("dupmark",),
                               backend="serial")
        stats = outcome.dupmark_stats
        assert (stats.records, stats.duplicates_marked) == (
            expected.records, expected.duplicates_marked
        )
        assert outcome.sorted_dataset is None

    def test_dupmark_then_varcall_matches_eager(
        self, aligned_dataset, reference
    ):
        """Head-mode dupmark must widen its read set for a fused varcall."""
        eager_copy = import_dataset_copy(aligned_dataset)
        eager_stats = mark_duplicates(eager_copy)
        eager_variants = call_variants(eager_copy, reference)
        outcome = run_pipeline(
            aligned_dataset, ("dupmark", "varcall"), reference=reference,
            backend="serial",
        )
        stats = outcome.dupmark_stats
        assert (stats.records, stats.duplicates_marked) == (
            eager_stats.records, eager_stats.duplicates_marked
        )
        assert outcome.variants == eager_variants

    def test_varcall_only_matches_eager(self, aligned_dataset, reference):
        expected = call_variants(aligned_dataset, reference)
        outcome = run_pipeline(
            aligned_dataset, ("varcall",), reference=reference,
            backend="serial",
        )
        assert outcome.variants == expected

    def test_align_only(self, fresh_dataset, snap_aligner):
        dataset = fresh_dataset()
        outcome = run_pipeline(dataset, ("align",), aligner=snap_aligner,
                               backend="serial")
        assert "results" in dataset.columns
        results = dataset.read_column("results")
        assert sum(r.is_aligned for r in results) >= 0.95 * len(results)
        assert outcome.variants is None and outcome.dupmark_stats is None


def import_dataset_copy(dataset: AGDDataset) -> AGDDataset:
    """Deep-copy a dataset into a fresh store (eager-vs-graph isolation)."""
    store = MemoryStore()
    for entry in dataset.manifest.chunks:
        for column in dataset.columns:
            store.put(entry.chunk_file(column),
                      dataset.store.get(entry.chunk_file(column)))
    import copy

    return AGDDataset(copy.deepcopy(dataset.manifest), store)


class TestValidation:
    def test_rejects_out_of_order_stages(self, aligned_dataset, snap_aligner):
        with pytest.raises(ValueError, match="order"):
            run_pipeline(aligned_dataset, ("sort", "align"),
                         aligner=snap_aligner)

    def test_rejects_unknown_stage(self, aligned_dataset):
        with pytest.raises(ValueError, match="unknown"):
            run_pipeline(aligned_dataset, ("align", "polish"))

    def test_rejects_empty_stages(self, aligned_dataset):
        with pytest.raises(ValueError, match="at least one"):
            run_pipeline(aligned_dataset, ())

    def test_requires_aligner(self, dataset):
        with pytest.raises(ValueError, match="aligner"):
            run_pipeline(dataset, ("align",))

    def test_requires_reference_for_varcall(self, aligned_dataset):
        with pytest.raises(ValueError, match="reference"):
            run_pipeline(aligned_dataset, ("varcall",))

    def test_requires_results_without_align(self, dataset):
        with pytest.raises(ValueError, match="results"):
            run_pipeline(dataset, ("dupmark",))


class TestComposePrimitives:
    """Graph.merge / Graph.fuse / compose at the dataflow level."""

    def test_merge_prefixes_names_and_tags_stages(self):
        a, b = Graph("a"), Graph("b")
        qa = a.queue("out", 2)
        a.add(IterableSource("src", [1, 2, 3]), output=qa)
        a.add(CollectSink("snk"), input=qa)
        qb = b.queue("out", 2)
        b.add(IterableSource("src", [4]), output=qb)
        b.add(CollectSink("snk"), input=qb)
        g = Graph("merged")
        g.merge(a, prefix="first")
        g.merge(b, prefix="second")
        assert {n.name for n in g.nodes} == {
            "first.src", "first.snk", "second.src", "second.snk",
        }
        assert {q.name for q in g.queues} == {"first.out", "second.out"}
        assert g.node_stages["first.src"] == "first"
        report = g.stats_report()
        assert set(report["stages"]) == {"first", "second"}

    def test_merge_consumes_donor(self):
        a = Graph("a")
        qa = a.queue("out", 2)
        a.add(IterableSource("src", [1]), output=qa)
        a.add(CollectSink("snk"), input=qa)
        g1, g2 = Graph("g1"), Graph("g2")
        g1.merge(a, prefix="first")
        with pytest.raises(GraphError, match="already merged"):
            g2.merge(a, prefix="second")
        # The failed second merge changed nothing.
        assert g2.nodes == [] and g2.queues == []
        assert {n.name for n in g1.nodes} == {"first.src", "first.snk"}

    def test_merge_rejects_duplicate_names(self):
        a, b = Graph("a"), Graph("b")
        qa = a.queue("q", 2)
        a.add(IterableSource("src", []), output=qa)
        a.add(CollectSink("snk"), input=qa)
        qb = b.queue("q", 2)
        b.add(IterableSource("src", []), output=qb)
        b.add(CollectSink("snk"), input=qb)
        g = Graph("merged")
        g.merge(a)
        with pytest.raises(GraphError, match="duplicate"):
            g.merge(b)

    def test_merge_deduplicates_shared_resources(self):
        shared = object()
        a, b = Graph("a"), Graph("b")
        qa = a.queue("qa", 2)
        a.add(IterableSource("sa", []), output=qa)
        a.add(CollectSink("ka"), input=qa)
        a.register_resource("executor", shared)
        qb = b.queue("qb", 2)
        b.add(IterableSource("sb", []), output=qb)
        b.add(CollectSink("kb"), input=qb)
        b.register_resource("executor", shared)
        g = Graph("merged")
        g.merge(a, prefix="a")
        g.merge(b, prefix="b")
        assert g.resources.get("executor") is shared

    def test_merge_rejects_conflicting_resources(self):
        a, b = Graph("a"), Graph("b")
        qa = a.queue("qa", 2)
        a.add(IterableSource("sa", []), output=qa)
        a.add(CollectSink("ka"), input=qa)
        a.register_resource("executor", object())
        qb = b.queue("qb", 2)
        b.add(IterableSource("sb", []), output=qb)
        b.add(CollectSink("kb"), input=qb)
        b.register_resource("executor", object())
        g = Graph("merged")
        g.merge(a, prefix="a")
        with pytest.raises(ValueError, match="already registered"):
            g.merge(b, prefix="b")

    def test_fuse_runs_two_stage_graph(self):
        # Stage 1: source -> double -> [sink queue]
        s1 = Graph("s1")
        q_in = s1.queue("in", 2)
        q_out = s1.queue("out", 2)
        s1.add(IterableSource("src", [1, 2, 3]), output=q_in)
        s1.add(LambdaNode("double", lambda x: x * 2),
               input=q_in, output=q_out)
        # Stage 2: [open inlet] -> add1 -> sink
        s2 = Graph("s2")
        q_src = s2.queue("in", 2)
        q_done = s2.queue("done", 2)
        sink = CollectSink("snk")
        s2.add(LambdaNode("add1", lambda x: x + 1),
               input=q_src, output=q_done)
        s2.add(sink, input=q_done)
        g = Graph("fused")
        g.merge(s1, prefix="s1")
        g.merge(s2, prefix="s2")
        g.fuse(q_out, q_src)
        assert "s2.in" not in {q.name for q in g.queues}
        Session(g).run(timeout=30)
        assert sorted(sink.collected) == [3, 5, 7]

    def test_fuse_rejects_fed_inlet(self):
        g = Graph("g")
        q1 = g.queue("q1", 2)
        q2 = g.queue("q2", 2)
        g.add(IterableSource("src", []), output=q2)
        with pytest.raises(GraphError, match="producer"):
            g.fuse(q1, q2)

    def test_compose_rejects_headless_first_stage(
        self, aligned_dataset, reference
    ):
        stage = STAGES["varcall"].build(
            PipelineSpec(aligned_dataset, ("dupmark", "varcall"),
                         reference=reference),
            ServerSite(),
        )
        with pytest.raises(GraphError, match="upstream"):
            compose(stage)

    def test_compose_rejects_stage_after_terminal(
        self, aligned_dataset, reference
    ):
        var = STAGES["varcall"].build(
            PipelineSpec(aligned_dataset, ("varcall",), reference=reference),
            ServerSite(),
        )
        dup = STAGES["dupmark"].build(
            PipelineSpec(aligned_dataset, ("sort", "dupmark")), ServerSite())
        with pytest.raises(GraphError, match="terminal"):
            compose(var, dup)

    def test_compose_end_to_end(self, aligned_dataset):
        out_store = MemoryStore()
        spec = PipelineSpec(aligned_dataset, ("sort", "dupmark"),
                            sort_config=SORT_CONFIG, output_store=out_store)
        sort_stage, dup_stage = (STAGES[stage].build(spec, ServerSite())
                                 for stage in spec.stages)
        pipeline = compose(sort_stage, dup_stage, name="mini")
        result = pipeline.run(timeout=120)
        assert set(result.stage_report) == {"sort", "dupmark"}
        sorted_ds = AGDDataset(sort_stage.collector.manifest, out_store)
        assert verify_sorted(sorted_ds)
        assert pipeline.stage("dupmark").collector.dup_stats.records == \
            aligned_dataset.total_records
