"""Broker wire tests (scatter/gather framing, one socket copy path).

* the scatter/gather TCP frame round-trips every payload shape —
  zero-length blobs, 1-byte segments, >64 KiB columns — and a torn or
  hostile frame raises :class:`WireError` without wedging the server;
* every TCP edge copies its payload through the socket, and nothing on
  it creates a ``/dev/shm`` entry;
* a placed TCP run is byte-identical to the single-``Session`` run,
  killed workers included;
* on ``--resume``, a multi-group plan whose leading group is pure
  align pre-acks journaled chunks AND re-injects their work items so
  downstream stages still see the full chunk set;
* every edge frames raw: in-process and loopback TCP edges run no
  data-block zlib call and deliver equal items, alignment results cross
  as an ordinary column frame, and column frames are checked against
  the item header on decode.
"""

from __future__ import annotations

import io
import json
import socket
import time

import pytest

from repro.agd.chunk import read_chunk_header, read_column
from repro.align.base import ReadAligner
from repro.cluster.broker import (
    _FRAME,
    _MAX_HEAD_BYTES,
    _MAX_SEGMENT_BYTES,
    _MAX_SEGMENTS,
    _SEGLEN,
    Broker,
    BrokerError,
    BrokerServer,
    LocalBrokerClient,
    TcpBrokerClient,
    _recv_frame,
    _send_frame,
)
from repro.cluster.multiserver import run_placed_pipeline
from repro.cluster.placement import WORK_EDGE, PlacementPlan
from repro.cluster.wire import (
    WireError,
    decode_work_item_frames,
    encode_work_item_frames,
    item_serializer,
)
from repro.core.ledger import RunLedger
from repro.core.ops import ChunkWorkItem
from repro.core.pipelines import run_pipeline
from repro.core.sort import SortConfig, verify_sorted
from repro.dataflow.queues import (
    DELIVERY_FENCED,
    EDGE_ABORTED,
    EDGE_CLOSED,
    PUBLISH_FULL,
    PUBLISH_OK,
    PULL_OK,
)
from repro.formats.converters import import_reads
from repro.formats.vcf import write_vcf
from repro.storage.base import MemoryStore
from dev_shm import dev_shm_entries

SORT_CONFIG = SortConfig(chunks_per_superchunk=2)


def _drain_pull(client, edge, deadline=10.0):
    """Poll a transport-level pull until a delivery (or time out)."""
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        status, tag, key, payload = client.pull(edge, timeout=0.2)
        if status == PULL_OK:
            return tag, key, payload
    raise TimeoutError(f"no delivery on {edge!r} within {deadline}s")


# --------------------------------------------------- scatter/gather frame


class TestScatterGatherFraming:
    """The raw wire format, over a socketpair — no broker involved."""

    def _round_trip(self, header, segments):
        a, b = socket.socketpair()
        try:
            sent = _send_frame(a, header, segments)
            back, body, wire = _recv_frame(b)
        finally:
            a.close()
            b.close()
        assert back == header
        assert [bytes(s) for s in body] == [bytes(s) for s in segments]
        assert wire == sent
        return body

    def test_no_segment_frame(self):
        self._round_trip({"op": "ack", "tag": 7}, [])

    def test_zero_length_and_tiny_segments(self):
        self._round_trip({"op": "publish", "multi": True},
                         [b"", b"x", b"", b"yz"])

    def test_large_column_segments(self):
        rng_bytes = bytes(range(256)) * 300  # 76800 B, > 64 KiB threshold
        self._round_trip({"op": "publish", "multi": True},
                         [rng_bytes, b"", rng_bytes[: 1 << 16]])

    def test_many_segment_scatter(self):
        import random

        rng = random.Random(1234)
        segments = [
            bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 200)))
            for _ in range(64)
        ]
        self._round_trip({"multi": True, "n": 64}, segments)

    def test_clean_close_at_frame_start_is_connection_error(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(ConnectionError):
                _recv_frame(b)
        finally:
            b.close()

    def test_truncated_mid_frame_is_wire_error(self):
        a, b = socket.socketpair()
        head = b'{"op": "publish"}'
        # Frame promises one 100-byte segment but the sender dies after
        # the header: torn mid-frame, not a clean close.
        a.sendall(_FRAME.pack(len(head), 1) + head + _SEGLEN.pack(100))
        a.close()
        try:
            with pytest.raises(WireError, match="truncated"):
                _recv_frame(b)
        finally:
            b.close()

    def test_oversized_header_rejected(self):
        a, b = socket.socketpair()
        a.sendall(_FRAME.pack(_MAX_HEAD_BYTES + 1, 0))
        a.close()
        try:
            with pytest.raises(WireError, match="header"):
                _recv_frame(b)
        finally:
            b.close()

    def test_oversized_segment_count_rejected(self):
        a, b = socket.socketpair()
        a.sendall(_FRAME.pack(2, _MAX_SEGMENTS + 1) + b"{}")
        a.close()
        try:
            with pytest.raises(WireError, match="segment"):
                _recv_frame(b)
        finally:
            b.close()

    def test_oversized_segment_length_rejected(self):
        a, b = socket.socketpair()
        head = b"{}"
        a.sendall(_FRAME.pack(len(head), 1) + head
                  + _SEGLEN.pack(_MAX_SEGMENT_BYTES + 1))
        a.close()
        try:
            with pytest.raises(WireError, match="segment"):
                _recv_frame(b)
        finally:
            b.close()

    def test_non_json_header_rejected(self):
        a, b = socket.socketpair()
        head = b"\xffnot json at all"
        a.sendall(_FRAME.pack(len(head), 0) + head)
        a.close()
        try:
            with pytest.raises(WireError, match="header"):
                _recv_frame(b)
        finally:
            b.close()

    def test_garbage_client_does_not_wedge_healthy_clients(self):
        """A hostile/broken peer costs only its own connection."""
        broker = Broker()
        broker.create_edge("e", capacity=4, producers=1)
        server = BrokerServer(broker).start()
        try:
            raw = socket.create_connection(server.address)
            raw.sendall(b"\xff" * 64)
            raw.close()
            producer = TcpBrokerClient(*server.address)
            consumer = TcpBrokerClient(*server.address)
            producer.attach_producer("e")
            assert producer.publish("e", "k", b"payload",
                                    timeout=5.0) == PUBLISH_OK
            _tag, key, payload = _drain_pull(consumer, "e")
            assert (key, bytes(payload)) == ("k", b"payload")
            producer.close()
            consumer.close()
        finally:
            server.stop()


# ----------------------------------------------- payload shapes + stats


class TestPayloadRoundTrip:
    def test_multi_segment_payload_and_wire_accounting(self):
        """Segment lists survive the copy path byte-for-byte, the
        per-edge ledger accounts every byte as copied, and a loopback
        pair leaves ``/dev/shm`` as it found it."""
        before = dev_shm_entries()
        broker = Broker()
        broker.create_edge("e", capacity=8, producers=1)
        server = BrokerServer(broker).start()
        try:
            producer = TcpBrokerClient(*server.address)
            consumer = TcpBrokerClient(*server.address)
            producer.attach_producer("e")
            payloads = {
                "empty": b"",
                "blob": b"single-blob",
                "columns": [b"", b"a", bytes(range(256)) * 400, b"qual"],
            }
            for key, payload in payloads.items():
                assert producer.publish("e", key, payload,
                                        timeout=5.0) == PUBLISH_OK
            got = {}
            for _ in payloads:
                tag, key, payload = _drain_pull(consumer, "e")
                got[key] = payload
                consumer.ack("e", tag)
            assert bytes(got["empty"]) == b""
            assert bytes(got["blob"]) == b"single-blob"
            assert [bytes(s) for s in got["columns"]] == \
                [bytes(s) for s in payloads["columns"]]

            logical = sum(
                sum(len(s) for s in p) if isinstance(p, list) else len(p)
                for p in payloads.values()
            )
            stat = consumer.stats()["e"]
            assert stat["payload_bytes"] == logical
            # Both directions crossed the socket: framing overhead makes
            # wire bytes strictly larger than the logical payload.
            assert stat["wire_bytes"] > logical
            assert dev_shm_entries() == before
            # 0 + 1 + 4 segments (an empty blob normalizes to no
            # segments), copied inline in each direction.
            assert stat["copied_segments"] == 10
            assert stat["copied_bytes"] == 2 * logical
            producer.close()
            consumer.close()
        finally:
            server.stop()
        assert dev_shm_entries() == before


# ------------------------------------------------- malformed requests


class TestMalformedRequests:
    """A missing or ill-typed request field gets an error reply; the
    connection thread survives and serves the next request."""

    @pytest.mark.parametrize("header", [
        {"op": "ack", "edge": "e"},
        {"op": "admit", "server": "x"},
        {"op": "pull", "edge": ["e"], "timeout": 0.01},
        {"op": "pull", "edge": "e", "timeout": "soon"},
        {"op": "pull", "edge": "e", "timeout": 1e12},
        {"op": "publish", "edge": "e", "key": "k", "multi": False,
         "timeout": 0.01, "ack": ["e", "seven"]},
    ], ids=["ack-no-tag", "admit-no-like", "edge-list", "timeout-str",
            "timeout-huge", "ack-bad-tag"])
    def test_error_reply_then_connection_still_serves(self, header):
        broker = Broker()
        broker.create_edge("e", capacity=4, producers=1)
        broker.plan_doc = {"servers": []}
        server = BrokerServer(broker).start()
        try:
            client = TcpBrokerClient(*server.address)
            client.attach_producer("e")
            with pytest.raises(BrokerError, match="request field|timeout"):
                client._request(header)
            assert client.stats()["e"]["total_published"] == 0
            client.close()
        finally:
            server.stop()


# ----------------------------------------------------- one publish op


def _filled(broker, worker):
    assert worker.publish("down", "filler", b"f") == PUBLISH_OK


def _quarantined(broker, worker):
    """Dead-letter key ``k`` on ``down`` (the broker allows no
    redelivery): its only consumer dies holding it."""
    assert worker.publish("down", "k", b"x") == PUBLISH_OK
    doomed = LocalBrokerClient(broker)
    assert doomed.pull("down")[0] == PULL_OK
    doomed.close()
    assert broker.quarantined()["down"][0]["key"] == "k"


#: (outcome, broker kwargs, set-up, status, upstream unacked after,
#: ack landed, items published on ``down``).
PUBLISH_ACK_TABLE = [
    ("ok", {}, None, PUBLISH_OK, 0, True, 1),
    ("full", {}, _filled, PUBLISH_FULL, 1, False, 1),
    ("closed", {}, lambda b, w: w.producer_done("down"), EDGE_CLOSED,
     1, False, 0),
    ("aborted", {}, lambda b, w: b.abort("down"), EDGE_ABORTED,
     1, False, 0),
    # Fencing requeues the delivery itself, and the stale ack must not
    # credit it.
    ("fenced", {}, lambda b, w: b.fence_consumer(w.consumer),
     DELIVERY_FENCED, 0, False, 0),
    ("preacked", {}, lambda b, w: b.pre_ack("down", ["k"]), PUBLISH_OK,
     0, True, 0),
    ("quarantined", {"max_redeliveries": 0}, _quarantined, PUBLISH_OK,
     0, True, 1),
]


class TestOnePublishOp:
    """``publish(..., ack=(edge, tag))``: the ack lands only when the
    publish lands or the key needs no delivery; a fenced, closed, full
    or aborted edge leaves it untouched."""

    @pytest.mark.parametrize("transport", ["local", "tcp"])
    @pytest.mark.parametrize(
        "outcome,kwargs,setup,status,unacked,acked,published",
        PUBLISH_ACK_TABLE, ids=[row[0] for row in PUBLISH_ACK_TABLE])
    def test_publish_with_ack_outcomes(self, transport, outcome, kwargs,
                                       setup, status, unacked, acked,
                                       published):
        broker = Broker(delivery_deadline="off", **kwargs)
        broker.create_edge("up", capacity=4, producers=1)
        broker.create_edge("down", capacity=1, producers=1)
        fired = []
        broker.ack_listener = lambda edge, key: fired.append((edge, key))
        source = LocalBrokerClient(broker)
        source.attach_producer("up")
        assert source.publish("up", "c0", b"chunk") == PUBLISH_OK
        server = None
        if transport == "tcp":
            server = BrokerServer(broker).start()
            worker = TcpBrokerClient(*server.address)
        else:
            worker = LocalBrokerClient(broker)
        try:
            worker.attach_producer("down")
            tag, key, _payload = _drain_pull(worker, "up")
            assert key == "c0"
            if setup is not None:
                setup(broker, worker)
            got = worker.publish("down", "k", b"item", timeout=0.01,
                                 ack=("up", tag))
            assert got == status, outcome
            stats = broker.stats()
            assert stats["up"]["unacked"] == unacked, outcome
            assert (("up", "c0") in fired) == acked, outcome
            assert stats["down"]["total_published"] == published, outcome
            if outcome == "fenced":
                assert stats["up"]["total_redelivered"] == 1
        finally:
            worker.close()
            if server is not None:
                server.stop()


# ------------------------------------------------- placed-run identity


# ------------------------------------------------------- raw edge frames


EDGE = "cut"


def _work_item(dataset, index=0) -> ChunkWorkItem:
    entry = dataset.manifest.chunks[index]
    return ChunkWorkItem(entry=entry, columns={
        column: read_column(dataset.store.get(entry.chunk_file(column)))
        for column in ("bases", "metadata", "qual", "results")
    })


class TestRawEdgeFrames:
    """Every edge frames a work item's columns raw, results included:
    in-process and loopback TCP edges run no data-block zlib call."""

    def _through(self, producer, consumer, item):
        """Publish ``item`` over the edge serializer and pull it back:
        (frame codec names, decoded item)."""
        serializer = item_serializer()
        producer.attach_producer(EDGE)
        assert producer.publish(
            EDGE, "k", serializer.encode(item), timeout=5.0
        ) == PUBLISH_OK
        tag, _key, frames = _drain_pull(consumer, EDGE)
        codecs = [read_chunk_header(f).codec_name for f in frames[1:]]
        decoded = serializer.decode(frames)
        del frames
        consumer.ack(EDGE, tag)
        producer.producer_done(EDGE)
        return codecs, decoded

    def test_three_transports_deliver_equal_items(self, aligned_dataset):
        """In-process both ends, TCP both ends, and an in-process
        publisher feeding a TCP consumer."""
        item = _work_item(aligned_dataset)
        delivered = {}

        broker = Broker()
        broker.create_edge(EDGE, capacity=2, producers=1)
        local = LocalBrokerClient(broker)
        delivered["local"] = self._through(local, local, item)

        for name in ("tcp", "local->tcp"):
            broker = Broker()
            broker.create_edge(EDGE, capacity=2, producers=1)
            server = BrokerServer(broker).start()
            try:
                producer = TcpBrokerClient(*server.address) \
                    if name == "tcp" else LocalBrokerClient(broker)
                consumer = TcpBrokerClient(*server.address)
                delivered[name] = self._through(producer, consumer, item)
                producer.close()
                consumer.close()
            finally:
                server.stop()

        for name, (codecs, decoded) in delivered.items():
            assert set(codecs) == {"none"}, name
            assert decoded == item, name

    def test_in_process_item_crosses_without_the_data_block_codec(
        self, aligned_dataset, codec_spy,
    ):
        item = _work_item(aligned_dataset)
        broker = Broker()
        broker.create_edge(EDGE, capacity=2, producers=1)
        client = LocalBrokerClient(broker)
        codec_spy.calls.clear()  # reading the item off the store inflated
        codec_spy.index.calls.clear()
        _codecs, decoded = self._through(client, client, item)
        assert decoded == item
        assert codec_spy.calls == []
        # The relative index is still deflated and inflated, per frame.
        assert [c[1] for c in codec_spy.index.calls] == \
            ["compress"] * 4 + ["decompressobj"] * 4

    def test_aligned_item_carries_results_as_a_column_frame(
        self, aligned_dataset,
    ):
        """The header lists ``results`` among the columns and nothing
        else: its frame sits in sorted column order like any other."""
        item = _work_item(aligned_dataset)
        frames = item_serializer().encode(item)
        header = json.loads(frames[0])
        assert set(header) == {"path", "first", "count", "columns"}
        assert header["columns"] == ["bases", "metadata", "qual", "results"]
        assert len(frames) == 1 + 4
        assert read_chunk_header(frames[4]).record_type == "results"
        assert decode_work_item_frames(frames).columns["results"] == \
            item.columns["results"]

    def test_redelivered_raw_payload_is_byte_equal(self, aligned_dataset):
        """The broker holds a frozen copy, not a reference: a dead
        consumer's raw delivery comes back byte for byte."""
        item = _work_item(aligned_dataset)
        broker = Broker()
        broker.create_edge(EDGE, capacity=2, producers=1)
        producer = LocalBrokerClient(broker)
        frames = item_serializer().encode(item)
        producer.attach_producer(EDGE)
        assert producer.publish(EDGE, "k", frames, timeout=5.0) \
            == PUBLISH_OK
        dying = LocalBrokerClient(broker)
        _tag, _key, first = _drain_pull(dying, EDGE)
        # Mutating what the publisher still holds must not reach the
        # broker's copy.
        item.columns.clear()
        dying.close()
        survivor = LocalBrokerClient(broker)
        tag, _key, second = _drain_pull(survivor, EDGE)
        assert [bytes(f) for f in second] == [bytes(f) for f in first] \
            == [bytes(f) for f in frames]
        assert all(isinstance(f, bytes) for f in second)
        assert broker.stats()[EDGE]["total_redelivered"] == 1
        survivor.ack(EDGE, tag)


class TestWorkItemFrameValidation:
    """A column frame is intact by its own CRCs even when it belongs to
    another chunk or column; only the item header can tell."""

    @pytest.mark.parametrize("index", [0, 1])
    def test_frame_from_another_chunk_rejected(self, aligned_dataset, index):
        import dataclasses

        item = _work_item(aligned_dataset, index)
        frames = encode_work_item_frames(item)
        assert decode_work_item_frames(frames) == item
        qual = sorted(item.columns).index("qual") + 1

        short = dataclasses.replace(
            item, columns={"qual": item.columns["qual"][:2]})
        crafted = list(frames)
        crafted[qual] = encode_work_item_frames(short)[1]
        with pytest.raises(WireError,
                           match=rf"'aligned-{index}'.*'qual'"):
            decode_work_item_frames(crafted)

        other = _work_item(aligned_dataset, 1 - index)
        crafted = list(frames)
        crafted[qual] = encode_work_item_frames(other)[qual]
        with pytest.raises(WireError, match="first ordinal"):
            decode_work_item_frames(crafted)

        crafted = list(frames)
        crafted[qual] = frames[sorted(item.columns).index("bases") + 1]
        with pytest.raises(WireError, match="'qual'.*'bases'"):
            decode_work_item_frames(crafted)

    def test_attached_results_frame_checked_too(self, aligned_dataset):
        import dataclasses

        item = _work_item(aligned_dataset)
        results = item.columns["results"]
        frames = encode_work_item_frames(item)
        short = dataclasses.replace(
            item, columns={"results": results[:2]})
        frames[-1] = encode_work_item_frames(short)[-1]
        with pytest.raises(WireError, match="'results'"):
            decode_work_item_frames(frames)


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


def _vcf_bytes(variants, reference) -> bytes:
    buf = io.BytesIO()
    write_vcf(variants, buf, contigs=reference.manifest_entry())
    return buf.getvalue()


def assert_matches_single(placed, single, reference) -> None:
    assert verify_sorted(placed.sorted_dataset)
    for column in single.sorted_dataset.columns:
        assert (placed.sorted_dataset.read_column(column)
                == single.sorted_dataset.read_column(column)), column
    assert (placed.dupmark_stats.records,
            placed.dupmark_stats.duplicates_marked) == (
        single.dupmark_stats.records,
        single.dupmark_stats.duplicates_marked,
    )
    assert _vcf_bytes(placed.variants, reference) == \
        _vcf_bytes(single.variants, reference)


class _DyingAligner(ReadAligner):
    """Raises WorkerKilled after a fixed number of reads."""

    def __init__(self, inner, survive_reads: int):
        self._inner = inner
        self.remaining = survive_reads

    def align_read(self, bases):
        if self.remaining <= 0:
            from repro.cluster.multiserver import WorkerKilled

            raise WorkerKilled("simulated worker death")
        self.remaining -= 1
        return self._inner.align_read(bases)


class TestPlacedTcpRun:
    def test_killed_worker_redelivered_over_tcp(
        self, reads, snap_aligner, reference,
    ):
        """At-least-once delivery over the socket copy path: a dead
        worker's chunks are redelivered, the output is byte-identical,
        and ``/dev/shm`` is left as it was found.

        24 small chunks, not the usual 6: each worker prefetches ~7
        chunk names into its local pipeline, so with 6 chunks the
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
                # Dies 5 reads into its second chunk.
                return _DyingAligner(snap_aligner, survive_reads=30)
            return snap_aligner

        before = dev_shm_entries()
        placed = run_placed_pipeline(
            dataset24(),
            plan,
            aligner_factory=factory,
            reference=reference,
            sort_config=SORT_CONFIG,
            backend="serial",
            transport="tcp",
        )
        assert placed.server("dying").killed
        assert placed.total_redelivered > 0
        assert placed.server("dying").chunks \
            + placed.server("survivor").chunks == 24
        assert_matches_single(placed, single, reference)
        assert dev_shm_entries() == before


# ------------------------------------------- pre-ack resume injection


class TestPreAckResumeInjection:
    def test_resume_preacks_align_and_injects_downstream_items(
        self, fresh_dataset, snap_aligner, reference, single_session,
        tmp_path,
    ):
        """Resuming a multi-group plan whose align work is all journaled
        pre-acks every chunk name AND re-injects the work items onto the
        first boundary edge — downstream stages see the full chunk set
        without a single re-alignment."""
        plan = PlacementPlan.parse("A=align;B=sort,dupmark,varcall")
        dataset = fresh_dataset()
        kwargs = dict(
            aligner=snap_aligner,
            reference=reference,
            sort_config=SORT_CONFIG,
            backend="serial",
        )

        ledger = RunLedger.create(tmp_path, run_id="r1")
        first = run_placed_pipeline(dataset, plan, ledger=ledger,
                                    output_store=MemoryStore(), **kwargs)
        ledger.close()
        assert_matches_single(first, single_session, reference)
        assert first.broker_stats[WORK_EDGE]["total_preacked"] == 0

        resumed_ledger = RunLedger.resume(tmp_path, run_id="r1")
        resumed = run_placed_pipeline(dataset, plan, ledger=resumed_ledger,
                                      output_store=MemoryStore(), **kwargs)
        assert resumed.broker_stats[WORK_EDGE]["total_preacked"] == 6
        assert resumed_ledger.skips.get("work.pre_acked") == 6
        # The align server did no work; the boundary edge still carried
        # every chunk (the coordinator's injected items).
        assert resumed.server("A").chunks == 0
        assert resumed.broker_stats["align->sort"]["total_published"] == 6
        assert_matches_single(resumed, single_session, reference)
        resumed_ledger.close()

    def test_resume_preack_injection_over_tcp(
        self, fresh_dataset, snap_aligner, reference, single_session,
        tmp_path,
    ):
        """Same resume identity when the injected items cross a real
        socket (the edge serializer normalizes both transports)."""
        plan = PlacementPlan.parse("A=align;B=sort,dupmark,varcall")
        dataset = fresh_dataset()
        kwargs = dict(
            aligner=snap_aligner,
            reference=reference,
            sort_config=SORT_CONFIG,
            backend="serial",
            transport="tcp",
        )

        ledger = RunLedger.create(tmp_path, run_id="r1")
        run_placed_pipeline(dataset, plan, ledger=ledger,
                            output_store=MemoryStore(), **kwargs)
        ledger.close()

        resumed_ledger = RunLedger.resume(tmp_path, run_id="r1")
        resumed = run_placed_pipeline(dataset, plan, ledger=resumed_ledger,
                                      output_store=MemoryStore(), **kwargs)
        assert resumed.broker_stats[WORK_EDGE]["total_preacked"] == 6
        assert resumed.server("A").chunks == 0
        assert_matches_single(resumed, single_session, reference)
        resumed_ledger.close()
