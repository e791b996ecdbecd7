"""Zero-copy broker plane tests (scatter/gather framing + shm handoff).

The acceptance properties of the zero-copy wire refactor:

* the scatter/gather TCP frame round-trips every payload shape —
  zero-length blobs, 1-byte segments, >64 KiB columns — and a torn or
  hostile frame raises :class:`WireError` without wedging the server;
* the same-host shm handoff only arms after the boot-token handshake
  proves the client genuinely shares ``/dev/shm`` with the broker, and
  degrades to the byte-identical socket copy path everywhere else;
* pool leases die with their delivery: acked, redelivered after a
  SIGKILLed consumer, or swept at ``server.stop()`` — never orphaned;
* a placed TCP run with shm handoffs is byte-identical to the copy
  path and to the single-``Session`` run, killed workers included;
* on ``--resume``, a multi-group plan whose leading group is pure
  align pre-acks journaled chunks AND re-injects their work items so
  downstream stages still see the full chunk set;
* an edge's codec is a property of its transport: in-process and
  shm-verified clients frame raw, a remote TCP client at gzip level 1,
  all three deliver equal items, and column frames are checked against
  the item header on decode.
"""

from __future__ import annotations

import io
import multiprocessing
import os
import signal
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
    EDGE_CODEC_LEVEL,
    RAW_EDGE_CODEC_LEVEL,
    WireError,
    decode_work_item_frames,
    edge_item_serializer,
    encode_work_item_frames,
)
from repro.core.ledger import RunLedger
from repro.core.ops import ChunkWorkItem
from repro.core.pipelines import run_pipeline
from repro.core.sort import SortConfig, verify_sorted
from repro.dataflow import shm
from repro.dataflow.queues import PUBLISH_OK, PULL_OK
from repro.formats.converters import import_reads
from repro.formats.vcf import write_vcf
from repro.storage.base import MemoryStore

SORT_CONFIG = SortConfig(chunks_per_superchunk=2)

needs_shm = pytest.mark.skipif(
    not shm.shm_available(), reason="POSIX shared memory unavailable"
)


def _drain_pull(client, edge, deadline=10.0):
    """Poll a transport-level pull until a delivery (or time out)."""
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        status, tag, key, payload = client.pull(edge, timeout=0.2)
        if status == PULL_OK:
            return tag, key, payload
    raise TimeoutError(f"no delivery on {edge!r} within {deadline}s")


def _wait_for(predicate, deadline=10.0):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(0.02)
    return False


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
        server = BrokerServer(broker, shm=False).start()
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
        """Segment lists survive the copy path byte-for-byte, and the
        per-edge ledger accounts every byte as copied, none as shm."""
        broker = Broker()
        broker.create_edge("e", capacity=8, producers=1)
        server = BrokerServer(broker, shm=False).start()
        assert not server.shm_enabled
        try:
            producer = TcpBrokerClient(*server.address)
            consumer = TcpBrokerClient(*server.address)
            assert not producer.shm_active
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
            assert stat["shm_handoffs"] == 0
            assert stat["shm_bytes"] == 0
            # 0 + 1 + 4 segments (an empty blob normalizes to no
            # segments), copied inline in each direction.
            assert stat["copied_segments"] == 10
            assert stat["copied_bytes"] == 2 * logical
            producer.close()
            consumer.close()
        finally:
            server.stop()


# ------------------------------------------------------- shm handshake


@needs_shm
class TestShmHandshake:
    def test_same_host_client_auto_verifies(self):
        broker = Broker()
        broker.create_edge("e", capacity=4, producers=1)
        server = BrokerServer(broker, shm=True).start()
        try:
            assert server.shm_enabled
            client = TcpBrokerClient(*server.address)
            assert client.shm_active
            client.close()
        finally:
            server.stop()

    def test_shm_false_forces_copy_path(self):
        broker = Broker()
        broker.create_edge("e", capacity=4, producers=1)
        server = BrokerServer(broker, shm=True, shm_threshold=64).start()
        try:
            producer = TcpBrokerClient(*server.address, shm=False)
            consumer = TcpBrokerClient(*server.address, shm=False)
            assert not producer.shm_active
            producer.attach_producer("e")
            big = bytes(range(256)) * 16  # 4 KiB, over the threshold
            assert producer.publish("e", "k", [big, b"x"],
                                    timeout=5.0) == PUBLISH_OK
            tag, _key, payload = _drain_pull(consumer, "e")
            consumer.ack("e", tag)
            assert [bytes(s) for s in payload] == [big, b"x"]
            assert consumer.stats()["e"]["shm_handoffs"] == 0
            producer.close()
            consumer.close()
        finally:
            server.stop()

    def test_fake_remote_host_degrades_to_copy(self):
        """A peer that cannot read the probe segment (i.e. a different
        host) must never be handed descriptors — and still gets the
        payload, byte-identical, over the socket."""
        broker = Broker()
        broker.create_edge("e", capacity=4, producers=1)
        server = BrokerServer(broker, shm=True, shm_threshold=64).start()
        try:
            with pytest.MonkeyPatch.context() as mp:
                def unreachable(name, offset, length, cache=False):
                    raise OSError("no such segment on this host")

                mp.setattr(shm, "read_segment", unreachable)
                remote = TcpBrokerClient(*server.address)
            assert not remote.shm_active
            remote.attach_producer("e")
            big = bytes(range(256)) * 16
            assert remote.publish("e", "k", big, timeout=5.0) == PUBLISH_OK
            with pytest.MonkeyPatch.context() as mp:
                def unreachable(name, offset, length, cache=False):
                    raise OSError("no such segment on this host")

                mp.setattr(shm, "read_segment", unreachable)
                remote_consumer = TcpBrokerClient(*server.address)
            assert not remote_consumer.shm_active
            tag, _key, payload = _drain_pull(remote_consumer, "e")
            remote_consumer.ack("e", tag)
            assert bytes(payload) == big
            assert remote_consumer.stats()["e"]["shm_handoffs"] == 0
            remote.close()
            remote_consumer.close()
        finally:
            server.stop()

    def test_wrong_token_refused(self):
        broker = Broker()
        broker.create_edge("e", capacity=4, producers=1)
        server = BrokerServer(broker, shm=True).start()
        try:
            client = TcpBrokerClient(*server.address, shm=False)
            reply = client._request(
                {"op": "shm_verify", "token": "00" * 16}
            )[0]
            assert reply.get("shm") is False
            client.close()
        finally:
            server.stop()

    def test_unverified_shm_publish_rejected(self):
        """Descriptors from a client that never passed the handshake are
        a protocol violation, not a silent read."""
        broker = Broker()
        broker.create_edge("e", capacity=4, producers=1)
        server = BrokerServer(broker, shm=True).start()
        try:
            client = TcpBrokerClient(*server.address, shm=False)
            with pytest.raises(BrokerError, match="unverified"):
                client._request(
                    {"op": "publish", "edge": "e", "key": "k",
                     "multi": False, "timeout": 1.0,
                     "shm": [{"seg": f"{server._pool.prefix}-c9-o0",
                              "len": 3}]},
                )
            client.close()
        finally:
            server.stop()

    def test_segment_outside_broker_namespace_rejected(self):
        """Even a verified client may only name segments under the
        broker's own pool prefix — no arbitrary /dev/shm reads."""
        broker = Broker()
        broker.create_edge("e", capacity=4, producers=1)
        server = BrokerServer(broker, shm=True).start()
        try:
            client = TcpBrokerClient(*server.address)
            assert client.shm_active
            with pytest.raises(BrokerError, match="namespace"):
                client._request(
                    {"op": "publish", "edge": "e", "key": "k",
                     "multi": False, "timeout": 1.0,
                     "shm": [{"seg": "unrelated-segment", "len": 3}]},
                )
            client.close()
        finally:
            server.stop()

    def test_client_adopts_only_its_own_segments(self):
        """A verified client may hand over only segments in its own
        ``-c{consumer}-o`` namespace: naming the boot probe (which would
        let the next ack unlink it and quietly drop every later client
        to the copy path) or another connection's segment is refused."""
        broker = Broker()
        broker.create_edge("e", capacity=4, producers=1)
        server = BrokerServer(broker, shm=True).start()
        try:
            prefix = server._pool.prefix
            client = TcpBrokerClient(*server.address)
            other = TcpBrokerClient(*server.address)
            assert client.shm_active and other.shm_active
            theirs = f"{prefix}-c{other.consumer}-o0"
            assert shm.create_segment(theirs, b"not yours", transfer=True)
            for name, length in ((server._probe_name,
                                  len(server._shm_token)), (theirs, 9)):
                with pytest.raises(BrokerError, match="namespace"):
                    client._request(
                        {"op": "publish", "edge": "e", "key": "k",
                         "multi": False, "timeout": 1.0,
                         "shm": [{"seg": name, "len": length}]},
                    )
            assert server._pool.stats()["adopted_live"] == 0
            assert server._probe_name in shm.list_segments(prefix)
            late = TcpBrokerClient(*server.address)
            assert late.shm_active
            for c in (client, other, late):
                c.close()
        finally:
            server.stop()
        assert shm.list_segments(prefix) == []


# --------------------------------------------- shm delivery + leases


@needs_shm
class TestShmHandoffDelivery:
    def _server(self, threshold=64):
        broker = Broker()
        broker.create_edge("e", capacity=8, producers=1)
        return BrokerServer(broker, shm=True, shm_threshold=threshold
                            ).start()

    def test_large_segments_cross_via_shm_byte_identical(self):
        server = self._server()
        try:
            producer = TcpBrokerClient(*server.address)
            consumer = TcpBrokerClient(*server.address)
            assert producer.shm_active and consumer.shm_active
            producer.attach_producer("e")
            big_a = bytes(range(256)) * 300   # 76.8 KB column
            big_b = os.urandom(4096)
            payload = [big_a, b"tiny", big_b]
            assert producer.publish("e", "k", payload,
                                    timeout=5.0) == PUBLISH_OK
            tag, key, got = _drain_pull(consumer, "e")
            consumer.ack("e", tag)
            assert key == "k"
            assert [bytes(s) for s in got] == [big_a, b"tiny", big_b]
            stat = consumer.stats()["e"]
            # Two big segments in each direction crossed as descriptors;
            # only the tiny one (and frame heads) used the socket.
            assert stat["shm_handoffs"] == 4
            assert stat["shm_bytes"] == 2 * (len(big_a) + len(big_b))
            assert stat["wire_bytes"] < len(big_a)
            producer.close()
            consumer.close()
        finally:
            server.stop()
        assert shm.list_segments(server._pool.prefix) == []

    def test_lease_released_on_ack(self):
        server = self._server()
        try:
            producer = TcpBrokerClient(*server.address)
            consumer = TcpBrokerClient(*server.address)
            producer.attach_producer("e")
            assert producer.publish("e", "k", os.urandom(8192),
                                    timeout=5.0) == PUBLISH_OK
            tag, _key, _payload = _drain_pull(consumer, "e")
            # Two leases ride the un-acked delivery: the adopted storage
            # lease (the publisher's segment, now pool-owned) plus the
            # consumer's handoff lease from the pull.
            assert server._pool.live_leases == 2
            consumer.ack("e", tag)
            # The ack reply is sent before the deferred wire record, so
            # observe the release through a follow-up request.
            consumer.stats()
            assert server._pool.live_leases == 0
            producer.close()
            consumer.close()
        finally:
            server.stop()

    def test_sigkilled_consumer_leases_reclaimed_and_redelivered(self):
        """A consumer SIGKILLed mid-delivery (pulled, never acked) must
        not orphan its pool leases: the dead connection releases them
        and the delivery goes to a surviving consumer."""
        server = self._server()
        try:
            producer = TcpBrokerClient(*server.address)
            producer.attach_producer("e")
            blob = os.urandom(16384)
            assert producer.publish("e", "k", blob,
                                    timeout=5.0) == PUBLISH_OK

            ctx = multiprocessing.get_context("fork")
            child = ctx.Process(
                target=_pull_and_die, args=(server.host, server.port, "e")
            )
            child.start()
            child.join(15.0)
            assert child.exitcode == -signal.SIGKILL

            survivor = TcpBrokerClient(*server.address)
            tag, key, payload = _drain_pull(survivor, "e")
            assert (key, bytes(payload)) == ("k", blob)
            survivor.ack("e", tag)
            survivor.stats()  # flush past the deferred record
            assert _wait_for(lambda: server._pool.live_leases == 0)
            assert server.broker.stats()["e"]["total_redelivered"] == 1
            producer.close()
            survivor.close()
        finally:
            server.stop()
        assert shm.list_segments(server._pool.prefix) == []

    def test_stop_sweeps_straggler_publish_segments(self):
        """A client that died between creating its one-shot publish
        segment and unlinking it leaves debris under the pool prefix;
        ``server.stop()`` sweeps the whole namespace."""
        server = self._server()
        straggler = f"{server._pool.prefix}-c99-o0"
        assert shm.create_segment(straggler, b"orphaned bytes")
        server.stop()
        assert shm.list_segments(server._pool.prefix) == []


# ------------------------------------------------- placed-run identity


# ------------------------------------------------ edge codec negotiation


EDGE = "cut"


def _work_item(dataset, index=0) -> ChunkWorkItem:
    entry = dataset.manifest.chunks[index]
    return ChunkWorkItem(entry=entry, columns={
        column: read_column(dataset.store.get(entry.chunk_file(column)))
        for column in ("bases", "metadata", "qual", "results")
    })


class TestEdgeCodecNegotiation:
    """The codec is read off the transport (``shares_memory``), never
    selected: raw where the payload stays in reachable memory, gzip
    level 1 where it crosses a real wire."""

    def _through(self, producer, consumer, item):
        """Publish ``item`` over the producer's negotiated serializer and
        pull it back: (frame codec names, decoded item)."""
        serializer = edge_item_serializer(producer)
        producer.attach_producer(EDGE)
        assert producer.publish(
            EDGE, "k", serializer.encode_frames(item), timeout=5.0
        ) == PUBLISH_OK
        tag, _key, frames = _drain_pull(consumer, EDGE)
        codecs = [read_chunk_header(f).codec_name for f in frames[1:]]
        # Decode before the ack: view deliveries alias a leased segment.
        decoded = edge_item_serializer(consumer).decode_frames(frames)
        del frames
        consumer.ack(EDGE, tag)
        producer.producer_done(EDGE)
        return codecs, decoded

    def test_three_transports_deliver_equal_items(self, aligned_dataset):
        item = _work_item(aligned_dataset)
        delivered = {}

        broker = Broker()
        broker.create_edge(EDGE, capacity=2, producers=1)
        local = LocalBrokerClient(broker)
        assert local.shares_memory
        delivered["local"] = self._through(local, local, item)

        for name, shm_mode in (("tcp", False), ("shm", None)):
            if name == "shm" and not shm.shm_available():
                continue
            broker = Broker()
            broker.create_edge(EDGE, capacity=2, producers=1)
            server = BrokerServer(broker, shm_threshold=512).start()
            try:
                producer = TcpBrokerClient(*server.address, shm=shm_mode)
                consumer = TcpBrokerClient(*server.address, shm=shm_mode)
                assert producer.shares_memory is (name == "shm")
                delivered[name] = self._through(producer, consumer, item)
                producer.close()
                consumer.close()
            finally:
                server.stop()

        assert set(delivered["local"][0]) == {"none"}
        assert set(delivered["tcp"][0]) == {"gzip"}
        if "shm" in delivered:
            assert set(delivered["shm"][0]) == {"none"}
        for name, (_codecs, decoded) in delivered.items():
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

    def test_remote_tcp_edge_still_frames_at_level_one(
        self, aligned_dataset, codec_spy,
    ):
        class _Remote:
            shares_memory = False

        item = _work_item(aligned_dataset)
        codec_spy.calls.clear()
        frames = edge_item_serializer(_Remote()).encode_frames(item)
        assert {read_chunk_header(f).codec_name for f in frames[1:]} \
            == {"gzip"}
        deflates = [c for c in codec_spy.calls
                    if c[1] in ("compress", "compressobj")]
        assert deflates and {c[2] for c in deflates} == {EDGE_CODEC_LEVEL}
        assert EDGE_CODEC_LEVEL == 1

    def test_redelivered_raw_payload_is_byte_equal(self, aligned_dataset):
        """The broker holds a frozen copy, not a reference: a dead
        consumer's raw delivery comes back byte for byte."""
        item = _work_item(aligned_dataset)
        broker = Broker()
        broker.create_edge(EDGE, capacity=2, producers=1)
        producer = LocalBrokerClient(broker)
        frames = edge_item_serializer(producer).encode_frames(item)
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

    @pytest.mark.parametrize(
        "level", [RAW_EDGE_CODEC_LEVEL, EDGE_CODEC_LEVEL])
    def test_frame_from_another_chunk_rejected(self, aligned_dataset, level):
        import dataclasses

        item = _work_item(aligned_dataset)
        frames = encode_work_item_frames(item, level)
        assert decode_work_item_frames(frames) == item
        qual = sorted(item.columns).index("qual") + 1

        short = dataclasses.replace(
            item, columns={"qual": item.columns["qual"][:2]})
        crafted = list(frames)
        crafted[qual] = encode_work_item_frames(short, level)[1]
        with pytest.raises(WireError, match=r"'aligned-0'.*'qual'"):
            decode_work_item_frames(crafted)

        other = _work_item(aligned_dataset, 1)
        crafted = list(frames)
        crafted[qual] = encode_work_item_frames(other, level)[qual]
        with pytest.raises(WireError, match="first ordinal"):
            decode_work_item_frames(crafted)

        crafted = list(frames)
        crafted[qual] = frames[sorted(item.columns).index("bases") + 1]
        with pytest.raises(WireError, match="'qual'.*'bases'"):
            decode_work_item_frames(crafted)

    def test_attached_results_frame_checked_too(self, aligned_dataset):
        import dataclasses

        item = _work_item(aligned_dataset)
        results = item.columns.pop("results")
        item.results = results
        frames = encode_work_item_frames(item)
        assert decode_work_item_frames(frames).results == results
        short = dataclasses.replace(item, results=results[:2])
        frames[-1] = encode_work_item_frames(short)[-1]
        with pytest.raises(WireError, match="'results'"):
            decode_work_item_frames(frames)


def _pull_and_die(host, port, edge):  # pragma: no cover - runs in child
    client = TcpBrokerClient(host, port)
    status, _tag, _key, _payload = client.pull(edge, timeout=10.0)
    assert status == PULL_OK
    os.kill(os.getpid(), signal.SIGKILL)


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


def _small_threshold_server(instances, threshold=512):
    """A BrokerServer subclass whose pool hands off tiny test chunks."""

    class _Server(BrokerServer):
        def __init__(self, broker, host="127.0.0.1", port=0, shm=None,
                     **kwargs):
            kwargs.setdefault("shm_threshold", threshold)
            super().__init__(broker, host=host, port=port, shm=shm,
                             **kwargs)
            instances.append(self)

    return _Server


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


@needs_shm
class TestPlacedShmEquivalence:
    def test_shm_run_byte_identical_to_copy_run(
        self, fresh_dataset, snap_aligner, reference, single_session,
        monkeypatch,
    ):
        """Same placed TCP run, shm on vs forced off: both byte-identical
        to the single-session reference; only the shm run hands off."""
        servers: list = []
        monkeypatch.setattr(
            "repro.cluster.multiserver.BrokerServer",
            _small_threshold_server(servers),
        )
        plan = PlacementPlan.parse("A=align,sort;B=dupmark,varcall")
        outcomes = {}
        for shm_mode in (False, True):
            outcomes[shm_mode] = run_placed_pipeline(
                fresh_dataset(),
                plan,
                aligner=snap_aligner,
                reference=reference,
                sort_config=SORT_CONFIG,
                backend="serial",
                transport="tcp",
                broker_shm=shm_mode,
            )
            assert_matches_single(outcomes[shm_mode], single_session,
                                  reference)

        def handoffs(outcome):
            return sum(stat.get("shm_handoffs", 0)
                       for stat in outcome.broker_stats.values())

        assert handoffs(outcomes[False]) == 0
        assert handoffs(outcomes[True]) > 0
        # The handoff saved those bytes from the socket entirely.
        shm_stats = outcomes[True].broker_stats
        copy_stats = outcomes[False].broker_stats
        for edge, stat in shm_stats.items():
            if stat.get("shm_handoffs"):
                assert stat["wire_bytes"] < copy_stats[edge]["wire_bytes"]
        for server in servers:
            if server._pool is not None:
                assert shm.list_segments(server._pool.prefix) == []

    def test_killed_worker_redelivered_under_shm(
        self, reads, snap_aligner, reference, monkeypatch,
    ):
        """At-least-once delivery survives shm handoffs: a dead worker's
        leases are reclaimed, its chunks redelivered, no segment
        leaked once the run closes its pool.

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
        servers: list = []
        monkeypatch.setattr(
            "repro.cluster.multiserver.BrokerServer",
            _small_threshold_server(servers),
        )
        plan = PlacementPlan.parse(
            "dying=align;survivor=align;B=sort,dupmark,varcall"
        )

        def factory(server):
            if server == "dying":
                # Dies 5 reads into its second chunk.
                return _DyingAligner(snap_aligner, survive_reads=30)
            return snap_aligner

        placed = run_placed_pipeline(
            dataset24(),
            plan,
            aligner_factory=factory,
            reference=reference,
            sort_config=SORT_CONFIG,
            backend="serial",
            transport="tcp",
            broker_shm=True,
        )
        assert placed.server("dying").killed
        assert placed.total_redelivered > 0
        assert placed.server("dying").chunks \
            + placed.server("survivor").chunks == 24
        assert_matches_single(placed, single, reference)
        for server in servers:
            if server._pool is not None:
                assert server._pool.live_leases == 0
                assert shm.list_segments(server._pool.prefix) == []


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
