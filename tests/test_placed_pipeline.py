"""Distributed stage placement tests (§5.2 for the whole workload).

The acceptance properties of the placed refactor:

* a 2-server run (align+sort on A, dupmark+varcall on B) produces
  byte-identical sorted datasets, duplicate flags, and VCF rows to the
  single-``Session`` one-graph run — on every execution backend, over
  the in-process reference transport AND a real socket transport;
* every chunk is processed exactly once across servers, even under
  skewed per-chunk costs (self-balancing via the shared work edge);
* a killed worker's in-flight chunks are redelivered to a surviving
  replica and completed (at-least-once delivery, idempotent writes);
* neither an in-process nor a loopback TCP cut runs the data-block
  codec (every edge frames raw), and both are byte-identical to the
  single-session run.
"""

from __future__ import annotations

import io
import time

import pytest

from repro.agd.manifest import ChunkEntry
from repro.align.base import ReadAligner
from repro.cluster.broker import (
    Broker,
    BrokerError,
    BrokerServer,
    LocalBrokerClient,
    TcpBrokerClient,
)
from repro.cluster.placement import (
    EDGE_CAPACITY,
    WORK_EDGE,
    PlacementError,
    PlacementPlan,
    StagePlacement,
)
from repro.cluster.multiserver import WorkerKilled, run_placed_pipeline
from repro.cluster.wire import (
    decode_entry,
    decode_work_item_frames,
    encode_entry,
    encode_work_item_frames,
    entry_serializer,
)
from repro.core.ops import ChunkWorkItem
from repro.core.pipelines import run_pipeline
from repro.core.sort import SortConfig, verify_sorted
from repro.dataflow.errors import PipelineAborted, QueueClosed
from repro.dataflow.queues import RemoteQueue
from repro.formats.converters import import_reads
from repro.formats.vcf import write_vcf
from repro.storage.base import MemoryStore
from dev_shm import dev_shm_entries

SORT_CONFIG = SortConfig(chunks_per_superchunk=2)


@pytest.fixture()
def fresh_dataset(reads, reference):
    def factory():
        return import_reads(
            reads, "pg", MemoryStore(), chunk_size=100,
            reference=reference.manifest_entry(),
        )
    return factory


@pytest.fixture(scope="module")
def single_session(reads, reference, snap_aligner):
    """The single-Session one-graph reference run (serial backend)."""
    dataset = import_reads(
        reads, "pg", MemoryStore(), chunk_size=100,
        reference=reference.manifest_entry(),
    )
    return run_pipeline(
        dataset,
        ("align", "sort", "dupmark", "varcall"),
        aligner=snap_aligner,
        reference=reference,
        sort_config=SORT_CONFIG,
        backend="serial",
    )


def vcf_bytes(variants, reference) -> bytes:
    buf = io.BytesIO()
    write_vcf(variants, buf, contigs=reference.manifest_entry())
    return buf.getvalue()


def assert_matches_single(placed, single, reference) -> None:
    assert verify_sorted(placed.sorted_dataset)
    assert placed.sorted_dataset.manifest.columns == \
        single.sorted_dataset.manifest.columns
    for column in single.sorted_dataset.columns:
        assert (placed.sorted_dataset.read_column(column)
                == single.sorted_dataset.read_column(column)), column
    # Chunk files byte-identical, duplicate flags included.
    for entry in single.sorted_dataset.manifest.chunks:
        for column in single.sorted_dataset.columns:
            key = entry.chunk_file(column)
            assert placed.sorted_dataset.store.get(key) == \
                single.sorted_dataset.store.get(key), key
    assert (placed.dupmark_stats.records,
            placed.dupmark_stats.duplicates_marked) == (
        single.dupmark_stats.records,
        single.dupmark_stats.duplicates_marked,
    )
    assert placed.dupmark_stats.duplicates_marked > 0
    assert vcf_bytes(placed.variants, reference) == \
        vcf_bytes(single.variants, reference)


class TestPlacementPlan:
    def test_parse_and_edges(self):
        plan = PlacementPlan.parse("A=align,sort;B=dupmark,varcall")
        assert plan.stages == ("align", "sort", "dupmark", "varcall")
        assert plan.groups == [("align", "sort"), ("dupmark", "varcall")]
        specs = plan.edges()
        assert [s.name for s in specs] == [WORK_EDGE, "sort->dupmark"]
        assert specs[0].producers == 1
        assert specs[1].producers == 1
        assert plan.ingress_edge("A") is None
        assert plan.egress_edge("A") == "sort->dupmark"
        assert plan.ingress_edge("B") == "sort->dupmark"
        assert plan.egress_edge("B") is None

    def test_replicated_align_edges_count_producers(self):
        plan = PlacementPlan.parse("A1=align;A2=align;B=sort,dupmark")
        assert plan.groups == [("align",), ("sort", "dupmark")]
        specs = plan.edges()
        assert specs[1].name == "align->sort"
        assert specs[1].producers == 2

    def test_round_trips_through_doc(self):
        plan = PlacementPlan.parse("A=align;B=sort,dupmark,varcall")
        again = PlacementPlan.from_doc(plan.to_doc())
        assert again.placements == plan.placements

    def test_rejects_overlapping_groups(self):
        with pytest.raises(PlacementError, match="overlap"):
            PlacementPlan.parse("A=align,sort;B=sort,dupmark")

    def test_rejects_out_of_order_groups(self):
        with pytest.raises(PlacementError, match="order"):
            PlacementPlan.parse("A=dupmark;B=align,sort")

    def test_rejects_replicated_stateful_group(self):
        with pytest.raises(PlacementError, match="replicated"):
            PlacementPlan.parse("A=sort,dupmark;B=sort,dupmark")

    def test_rejects_unknown_stage(self):
        with pytest.raises(PlacementError, match="unknown"):
            PlacementPlan.parse("A=align,polish")

    def test_rejects_duplicate_server_names(self):
        with pytest.raises(PlacementError, match="duplicate"):
            PlacementPlan([StagePlacement("A", ("align",)),
                           StagePlacement("A", ("align",))])

    def test_one_to_one_groups(self):
        assert StagePlacement("A", ("align",)).one_to_one
        assert StagePlacement("B", ("dupmark", "varcall")).one_to_one
        assert not StagePlacement("C", ("sort",)).one_to_one
        assert not StagePlacement("D", ("filter", "varcall")).one_to_one


class TestWireFormat:
    def test_entry_round_trip(self):
        entry = ChunkEntry("pg-3", 300, 100)
        assert decode_entry(encode_entry(entry)) == entry

    def test_work_item_round_trip_columns_and_results(
        self, aligned_dataset
    ):
        item = ChunkWorkItem(
            entry=aligned_dataset.manifest.chunks[0],
            columns={
                column: aligned_dataset.read_chunk(column, 0).records
                for column in ("bases", "qual", "results")
            },
        )
        back = decode_work_item_frames(encode_work_item_frames(item))
        assert back.entry == item.entry
        assert back.columns == item.columns


class TestBroker:
    def test_pull_ack_lifecycle(self):
        broker = Broker()
        broker.create_edge("e", capacity=8, producers=1)
        producer = LocalBrokerClient(broker)
        consumer = LocalBrokerClient(broker)
        qp = RemoteQueue(producer, "e", entry_serializer())
        qc = RemoteQueue(consumer, "e", entry_serializer(),
                         ack_mode="manual")
        qp.register_producer()
        entries = [ChunkEntry(f"c-{i}", i * 10, 10) for i in range(4)]
        for entry in entries:
            qp.put(entry)
        qp.producer_done()
        got = [qc.get() for _ in range(4)]
        assert got == entries
        # Unacked deliveries keep the edge open...
        with pytest.raises(TimeoutError):
            qc.get(timeout=0.15)
        for entry in got:
            assert qc.ack_key(entry.path)
        # ...and the last ack closes it.
        with pytest.raises(QueueClosed):
            qc.get(timeout=2.0)

    def test_dropped_consumer_redelivers_unacked(self):
        broker = Broker()
        broker.create_edge("e", capacity=8, producers=1)
        producer = LocalBrokerClient(broker)
        dying = LocalBrokerClient(broker)
        survivor = LocalBrokerClient(broker)
        qp = RemoteQueue(producer, "e", entry_serializer())
        qd = RemoteQueue(dying, "e", entry_serializer(), ack_mode="manual")
        qs = RemoteQueue(survivor, "e", entry_serializer(),
                         ack_mode="manual")
        qp.register_producer()
        entries = [ChunkEntry(f"c-{i}", i * 10, 10) for i in range(5)]
        for entry in entries:
            qp.put(entry)
        qp.producer_done()
        taken = [qd.get(), qd.get()]
        dying.close()  # dies holding two unacked deliveries
        seen = []
        while True:
            try:
                entry = qs.get(timeout=2.0)
            except QueueClosed:
                break
            seen.append(entry)
            assert qs.ack_key(entry.path)
        assert sorted(e.path for e in seen) == sorted(e.path for e in entries)
        assert {e.path for e in taken} <= {e.path for e in seen}
        assert broker.stats()["e"]["total_redelivered"] == 2

    def test_dropped_producer_slot_released(self):
        broker = Broker()
        broker.create_edge("e", capacity=4, producers=2)
        done_producer = LocalBrokerClient(broker)
        dead_producer = LocalBrokerClient(broker)
        consumer = LocalBrokerClient(broker)
        q_done = RemoteQueue(done_producer, "e", entry_serializer())
        q_dead = RemoteQueue(dead_producer, "e", entry_serializer())
        qc = RemoteQueue(consumer, "e", entry_serializer())
        q_done.register_producer()
        q_dead.register_producer()
        q_done.put(ChunkEntry("c-0", 0, 10))
        q_done.producer_done()
        assert qc.get().path == "c-0"
        # One producer never finished: the edge must stay open...
        with pytest.raises(TimeoutError):
            qc.get(timeout=0.15)
        # ...until its death releases the slot.
        dead_producer.close()
        with pytest.raises(QueueClosed):
            qc.get(timeout=2.0)

    def test_abort_wakes_consumers(self):
        broker = Broker()
        broker.create_edge("e", capacity=4, producers=1)
        consumer = LocalBrokerClient(broker)
        qc = RemoteQueue(consumer, "e", entry_serializer())
        broker.abort()
        with pytest.raises(PipelineAborted):
            qc.get(timeout=2.0)

    def test_capacity_backpressure(self):
        broker = Broker()
        broker.create_edge("e", capacity=1, producers=1)
        producer = LocalBrokerClient(broker)
        qp = RemoteQueue(producer, "e", entry_serializer())
        qp.register_producer()
        qp.put(ChunkEntry("c-0", 0, 10))
        with pytest.raises(TimeoutError):
            qp.put(ChunkEntry("c-1", 10, 10), timeout=0.15)

    def test_unknown_edge_rejected(self):
        broker = Broker()
        with pytest.raises(BrokerError, match="no edge"):
            broker.pull("missing", consumer=1)

    def test_tcp_transport_round_trip(self):
        broker = Broker()
        broker.create_edge("e", capacity=4, producers=1)
        broker.plan_doc = {"hello": "world"}
        server = BrokerServer(broker).start()
        try:
            producer = TcpBrokerClient(*server.address)
            consumer = TcpBrokerClient(*server.address)
            assert producer.plan() == {"hello": "world"}
            qp = RemoteQueue(producer, "e", entry_serializer())
            qc = RemoteQueue(consumer, "e", entry_serializer())
            qp.register_producer()
            qp.put(ChunkEntry("c-0", 0, 10))
            qp.producer_done()
            assert qc.get(timeout=5.0).path == "c-0"
            with pytest.raises(QueueClosed):
                qc.get(timeout=5.0)
            assert consumer.stats()["e"]["total_published"] == 1
            producer.close()
            consumer.close()
        finally:
            server.stop()


class TestPlacedEquivalence:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_two_server_split_matches_single_session(
        self, backend, fresh_dataset, snap_aligner, reference,
        single_session,
    ):
        """Align+sort on A, dupmark+varcall on B: byte-identical output."""
        plan = PlacementPlan.parse("A=align,sort;B=dupmark,varcall")
        placed = run_placed_pipeline(
            fresh_dataset(),
            plan,
            aligner=snap_aligner,
            reference=reference,
            sort_config=SORT_CONFIG,
            backend=backend,
            workers=2,
        )
        assert_matches_single(placed, single_session, reference)
        assert placed.server("A").chunks == 6
        assert placed.server("B").chunks == 6
        assert placed.total_redelivered == 0

    def test_three_way_split_with_replicated_align(
        self, fresh_dataset, snap_aligner, reference, single_session
    ):
        """Replicated align + sort server + dupmark/varcall server."""
        plan = PlacementPlan.parse(
            "A1=align;A2=align;S=sort;B=dupmark,varcall"
        )
        placed = run_placed_pipeline(
            fresh_dataset(),
            plan,
            aligner=snap_aligner,
            reference=reference,
            sort_config=SORT_CONFIG,
            backend="serial",
        )
        assert_matches_single(placed, single_session, reference)
        align_chunks = placed.server("A1").chunks + placed.server("A2").chunks
        assert align_chunks == 6  # every chunk aligned exactly once

    def test_tcp_transport_matches_single_session(
        self, fresh_dataset, snap_aligner, reference, single_session
    ):
        """Chunks cross a real socket; outputs stay byte-identical."""
        plan = PlacementPlan.parse("A=align,sort;B=dupmark,varcall")
        placed = run_placed_pipeline(
            fresh_dataset(),
            plan,
            aligner=snap_aligner,
            reference=reference,
            sort_config=SORT_CONFIG,
            backend="serial",
            transport="tcp",
        )
        assert_matches_single(placed, single_session, reference)
        assert placed.broker_stats["sort->dupmark"]["total_published"] == 6

    def test_single_server_degenerate_plan(
        self, fresh_dataset, snap_aligner, reference, single_session
    ):
        plan = PlacementPlan.single(("align", "sort", "dupmark", "varcall"))
        placed = run_placed_pipeline(
            fresh_dataset(),
            plan,
            aligner=snap_aligner,
            reference=reference,
            sort_config=SORT_CONFIG,
            backend="serial",
        )
        assert_matches_single(placed, single_session, reference)


DOWNSTREAM = ("sort", "dupmark", "varcall")


def _downstream_bytes(outcome, reference) -> dict:
    """Everything a downstream run leaves behind, as bytes."""
    sorted_ds = outcome.sorted_dataset
    blobs = {
        entry.chunk_file(column): sorted_ds.store.get(
            entry.chunk_file(column))
        for entry in sorted_ds.manifest.chunks
        for column in sorted_ds.columns
    }
    blobs["manifest"] = sorted_ds.manifest.to_json().encode()
    blobs["vcf"] = vcf_bytes(outcome.variants, reference)
    return blobs


class TestRawEdgeFrames:
    """``A=sort;B=dupmark,varcall`` — the suite's ``downstream_placed``
    cut — over the in-process broker and over loopback TCP: every edge
    frames raw, so neither runs a data-block zlib call."""

    def _placed(self, dataset, reference, **kwargs):
        return run_placed_pipeline(
            dataset,
            PlacementPlan.parse("A=sort;B=dupmark,varcall"),
            reference=reference,
            sort_config=SORT_CONFIG,
            **kwargs,
        )

    def test_in_process_edge_runs_no_data_block_codec(
        self, aligned_dataset, reference, codec_spy,
    ):
        placed = self._placed(aligned_dataset, reference)
        chunks = placed.broker_stats["sort->dupmark"]["total_published"]
        assert chunks == 6
        assert codec_spy.on("A.edge_sink") == []
        assert codec_spy.on("B.edge_source") == []
        # The spy is live (the merge deflates what it stores) and the
        # edge threads still deflate / inflate three indexes per chunk.
        assert any(c[1] == "compress" for c in codec_spy.on("A.sort."))
        assert [c[1] for c in codec_spy.index.on("A.edge_sink")] \
            == ["compress"] * (3 * chunks)
        assert [c[1] for c in codec_spy.index.on("B.edge_source")] \
            == ["decompressobj"] * (3 * chunks)

    def test_loopback_tcp_edge_no_deflate_no_dev_shm(
        self, aligned_dataset, reference, codec_spy, monkeypatch,
    ):
        """A loopback TCP edge frames raw and copies through the
        socket: no data-block deflate or inflate on either end, and no
        ``/dev/shm`` entry at any publish, let alone after the run."""
        before = dev_shm_entries()
        appeared = set()
        publish = Broker.publish

        def spying_publish(self, *args, **kwargs):
            appeared.update(dev_shm_entries() - before)
            return publish(self, *args, **kwargs)

        monkeypatch.setattr(Broker, "publish", spying_publish)
        placed = self._placed(aligned_dataset, reference, transport="tcp")
        assert placed.broker_stats["sort->dupmark"]["total_published"] == 6
        assert placed.broker_stats["sort->dupmark"]["wire_bytes"] > 0
        assert codec_spy.on("A.edge_sink") == []
        assert codec_spy.on("B.edge_source") == []
        assert appeared == set()
        assert dev_shm_entries() == before

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_local_tcp_and_single_session_bytes_agree(
        self, backend, reads, reference, aligned_results,
    ):
        def dataset():
            ds = import_reads(
                reads, "aligned", MemoryStore(), chunk_size=100,
                reference=reference.manifest_entry(),
            )
            ds.append_column("results", list(aligned_results))
            return ds

        single = _downstream_bytes(run_pipeline(
            dataset(), DOWNSTREAM, reference=reference,
            sort_config=SORT_CONFIG, backend=backend, workers=2,
        ), reference)
        assert len(single) == 6 * 4 + 2
        for transport in ("local", "tcp"):
            placed = self._placed(
                dataset(), reference, backend=backend, workers=2,
                transport=transport,
            )
            assert placed.dupmark_stats.duplicates_marked > 0
            assert _downstream_bytes(placed, reference) == single, transport


class TestEdgeAutotuning:
    """Broker-edge capacities are a constant, not tuned: every
    stage-boundary edge holds ``EDGE_CAPACITY`` chunks in flight."""

    def test_explicit_edge_capacities_applied(
        self, fresh_dataset, snap_aligner, reference, single_session
    ):
        dataset = fresh_dataset()
        plan = PlacementPlan.parse("A=align;B=sort;C=dupmark,varcall")
        placed = run_placed_pipeline(
            dataset,
            plan,
            aligner=snap_aligner,
            reference=reference,
            sort_config=SORT_CONFIG,
            backend="serial",
        )
        capacities = {edge: stats["capacity"]
                      for edge, stats in placed.broker_stats.items()}
        assert capacities == {
            WORK_EDGE: dataset.num_chunks,
            "align->sort": EDGE_CAPACITY,
            "sort->dupmark": EDGE_CAPACITY,
        }
        assert_matches_single(placed, single_session, reference)


class _SkewedAligner(ReadAligner):
    """Delays every read so one server is much slower than the other."""

    def __init__(self, inner, delay: float):
        self._inner = inner
        self._delay = delay

    def align_read(self, bases):
        if self._delay:
            time.sleep(self._delay)
        return self._inner.align_read(bases)


class _DyingAligner(ReadAligner):
    """Raises WorkerKilled after a fixed number of reads."""

    def __init__(self, inner, survive_reads: int):
        self._inner = inner
        self.remaining = survive_reads

    def align_read(self, bases):
        if self.remaining <= 0:
            raise WorkerKilled("simulated worker death")
        self.remaining -= 1
        return self._inner.align_read(bases)


class TestSelfBalancing:
    def test_skewed_chunk_costs_balance_via_work_queue(
        self, reads, reference, snap_aligner
    ):
        """A slow align server simply fetches fewer chunk names (§5.2):
        with shallow per-server queues, the shared work edge shifts
        chunks to the fast replica, and every chunk is still aligned
        exactly once."""
        from repro.core.subgraphs import AlignGraphConfig

        # Many small chunks + depth-1 queues: per-server prefetch stays
        # a handful, leaving the work edge something to balance (§4.5's
        # "shallow queues avoid stragglers").
        dataset = import_reads(
            reads, "skew", MemoryStore(), chunk_size=25,
            reference=reference.manifest_entry(),
        )
        num_chunks = dataset.num_chunks
        plan = PlacementPlan.parse("slow=align;fast=align")

        def factory(server):
            delay = 0.004 if server == "slow" else 0.0
            return _SkewedAligner(snap_aligner, delay)

        placed = run_placed_pipeline(
            dataset,
            plan,
            aligner_factory=factory,
            reference=reference,
            align_config=AlignGraphConfig(
                aligner_nodes=1, reader_nodes=1, parser_nodes=1,
                queue_depth=1,
            ),
            backend="serial",
        )
        slow = placed.server("slow").chunks
        fast = placed.server("fast").chunks
        assert slow + fast == num_chunks  # exactly once across servers
        assert fast > slow  # the dynamic queue shifted work to the fast one
        # Every chunk's results landed in the shared store.
        for entry in dataset.manifest.chunks:
            assert dataset.store.exists(entry.chunk_file("results"))

    def test_killed_worker_chunks_redelivered_and_completed(
        self, reads, snap_aligner, reference
    ):
        """A worker dying mid-chunk loses nothing: its unacked names are
        redelivered to the surviving replica and the run completes with
        byte-identical output.

        24 small chunks, not the usual 6: each worker's local pipeline
        eagerly prefetches ~7 chunk names, so with 6 chunks the
        survivor can hoard the whole edge before the dying worker
        aligns enough reads to die — death must not depend on winning
        that race.
        """
        def dataset24():
            return import_reads(
                reads, "pg24", MemoryStore(), chunk_size=25,
                reference=reference.manifest_entry(),
            )

        single = run_pipeline(
            dataset24(),
            ("align", "sort", "dupmark", "varcall"),
            aligner=snap_aligner,
            reference=reference,
            sort_config=SORT_CONFIG,
            backend="serial",
        )
        plan = PlacementPlan.parse(
            "dying=align;survivor=align;B=sort,dupmark,varcall"
        )

        def factory(server):
            if server == "dying":
                # Dies 5 reads into its second chunk: any schedule that
                # hands it even two of the 24 chunks kills it mid-work.
                return _DyingAligner(snap_aligner, survive_reads=30)
            return snap_aligner

        placed = run_placed_pipeline(
            dataset24(),
            plan,
            aligner_factory=factory,
            reference=reference,
            sort_config=SORT_CONFIG,
            backend="serial",
        )
        dying = placed.server("dying")
        survivor = placed.server("survivor")
        assert dying.killed
        assert not survivor.killed
        assert placed.total_redelivered > 0
        assert dying.chunks + survivor.chunks == 24  # exactly once
        assert_matches_single(placed, single, reference)

    def test_killed_worker_without_replica_fails_loudly(
        self, fresh_dataset, snap_aligner, reference
    ):
        """A dead server whose stage group has NO surviving replica
        cannot be healed by redelivery: the run must raise, not return
        silently partial results."""
        plan = PlacementPlan.parse("A=align;B=sort,dupmark")

        def factory(server):  # noqa: ARG001 - single align server
            return _DyingAligner(snap_aligner, survive_reads=150)

        with pytest.raises(Exception, match="worker death"):
            run_placed_pipeline(
                fresh_dataset(),
                plan,
                aligner_factory=factory,
                reference=reference,
                sort_config=SORT_CONFIG,
                backend="serial",
                session_timeout=60.0,
            )

    def test_non_kill_error_propagates(self, fresh_dataset, reference):
        class BrokenAligner(ReadAligner):
            def align_read(self, bases):
                raise RuntimeError("index corrupted")

        plan = PlacementPlan.parse("A=align;B=sort,dupmark")
        with pytest.raises(Exception, match="index corrupted"):
            run_placed_pipeline(
                fresh_dataset(),
                plan,
                aligner=BrokenAligner(),
                reference=reference,
                sort_config=SORT_CONFIG,
                backend="serial",
                session_timeout=60.0,
            )


class TestPlacedFilter:
    def test_filter_stage_is_placeable(
        self, fresh_dataset, snap_aligner, reference
    ):
        from repro.core.filters import by_min_mapq, filter_dataset

        dataset = fresh_dataset()
        single = run_pipeline(
            fresh_dataset(),
            ("align", "sort", "dupmark", "filter", "varcall"),
            aligner=snap_aligner,
            reference=reference,
            sort_config=SORT_CONFIG,
            filter_predicate=by_min_mapq(30),
            backend="serial",
        )
        plan = PlacementPlan.parse("A=align,sort;B=dupmark,filter,varcall")
        placed = run_placed_pipeline(
            dataset,
            plan,
            aligner=snap_aligner,
            reference=reference,
            sort_config=SORT_CONFIG,
            filter_predicate=by_min_mapq(30),
            backend="serial",
        )
        assert placed.filter_stats.kept == single.filter_stats.kept
        assert placed.filtered_dataset.manifest.columns == \
            single.filtered_dataset.manifest.columns
        for column in single.filtered_dataset.columns:
            assert (placed.filtered_dataset.read_column(column)
                    == single.filtered_dataset.read_column(column)), column
        assert vcf_bytes(placed.variants, reference) == \
            vcf_bytes(single.variants, reference)
        # And the streamed filter matches the eager function exactly.
        eager = filter_dataset(single.sorted_dataset, by_min_mapq(30),
                               MemoryStore())
        assert [e.path for e in placed.filtered_dataset.manifest.chunks] \
            == [e.path for e in eager.manifest.chunks]
