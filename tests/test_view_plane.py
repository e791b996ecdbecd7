"""Decode-plane tests: one copy per data block, raw edge frames.

* chunk decoding over the identity codec never copies the data block
  out of its input; a decoded column is a view of an immutable
  ``bytes`` input and copies any other buffer once, whole (so it never
  aliases a mapping or a mutable buffer), ``column.view(i)`` is the
  zero-copy per-record window, and ``RaggedColumn.materialize``
  produces owned storage byte-identical to the views;
* a consumer dying between a TCP pull and its ack never corrupts the
  bytes a redelivery reads, and the socket copy path creates no
  ``/dev/shm`` entry;
* every edge frames a work item's columns raw (the identity codec),
  and a frame compressed by another codec still decodes to the same
  item, because the decoder reads each frame's codec off its header.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.agd.chunk import (
    read_chunk,
    read_chunk_data,
    read_chunk_header,
    write_chunk,
)
from repro.agd.columns import BasesColumn, PackedBasesColumn
from repro.agd.dataset import AGDDataset
from repro.agd.manifest import ChunkEntry
from repro.agd.records import record_type_for_column
from repro.align.result import AlignmentResult
from repro.cluster import broker as broker_mod
from repro.cluster.broker import (
    Broker,
    BrokerServer,
    TcpBrokerClient,
    _payload_nbytes,
)
from repro.cluster.wire import (
    decode_work_item_frames,
    encode_work_item_frames,
    item_serializer,
)
from repro.agd.chunk import read_column
from repro.core.columnar import _gather_kept
from repro.core.ops import ChunkWorkItem
from repro.dataflow.queues import PUBLISH_OK, PULL_OK
from repro.storage.base import MemoryStore
from dev_shm import dev_shm_entries

READS = [b"ACGTACGTAC", b"GGGTTTAAAC", b"ACGT", b"TTTTTTTTTTTTTTTT"]
QUALS = [b"IIIIIIIIII", b"FFFFFFFFFF", b"IIII", b"FFFFFFFFFFFFFFFF"]


def _drain_pull(client, edge, deadline=10.0):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        status, tag, key, payload = client.pull(edge, timeout=0.2)
        if status == PULL_OK:
            return tag, key, payload
    raise TimeoutError(f"no delivery on {edge!r} within {deadline}s")


# ------------------------------------------------- chunk-level view decode


class TestChunkViewDecode:
    def test_none_codec_memoryview_data_block_aliases_blob(self):
        blob = write_chunk(QUALS, "text", codec="none")
        view = memoryview(blob)
        header, index, data = read_chunk_data(view)
        assert isinstance(data, memoryview)
        # Zero-copy: the data block is a window into the input buffer
        # (only the deflated index ahead of it is inflated into its own).
        assert data.obj is blob
        assert bytes(data) == b"".join(QUALS)
        assert header.index_size != len(QUALS) * 4
        assert np.shares_memory(
            np.frombuffer(data, dtype=np.uint8),
            np.frombuffer(blob, dtype=np.uint8)[header.data_offset:])
        assert index.lengths.tolist() == [len(q) for q in QUALS]

    def test_none_framed_spill_restores_with_no_decode_copy(self):
        from repro.core.sort import _decode_spill

        blob = write_chunk(QUALS, "text", codec="none")
        counters: dict = {}
        assert _decode_spill(memoryview(blob), counters) == QUALS
        assert counters.get("decode_copies", 0) == 0
        assert counters["spill_view_bytes"] == len(b"".join(QUALS))

    def test_gzip_codec_still_decodes_from_views(self):
        blob = write_chunk(QUALS, "text")  # default gzip codec
        header, index, data = read_chunk_data(memoryview(blob))
        assert isinstance(data, bytes)  # decompression must materialize
        assert read_chunk(memoryview(blob)).records == QUALS

    def test_text_column_owns_its_block_and_serves_views(self):
        blob = bytearray(write_chunk(QUALS, "text", codec="none"))
        column = read_column(memoryview(blob))
        # One whole-block copy: nothing aliases the mutable buffer.
        assert not np.shares_memory(
            column.flat, np.frombuffer(blob, dtype=np.uint8))
        assert column == QUALS
        windows = [column.view(i) for i in range(len(QUALS))]
        assert all(isinstance(w, memoryview) for w in windows)
        assert [bytes(w) for w in windows] == QUALS
        assert all(np.shares_memory(np.frombuffer(w, dtype=np.uint8),
                                    column.flat) for w in windows if len(w))

    def test_default_decode_of_memoryview_owns_records(self):
        blob = write_chunk(QUALS, "text", codec="none")
        records = read_chunk(memoryview(blob)).records
        assert records == QUALS
        assert all(isinstance(r, bytes) for r in records)

    def test_results_decode_from_view_owns_storage(self):
        results = [
            AlignmentResult(flag=0, mapq=60, contig_index=0, position=i,
                            cigar=b"10M")
            for i in range(4)
        ]
        blob = write_chunk(results, "results", codec="none")
        decoded = read_chunk(memoryview(blob)).records
        assert decoded == results
        assert all(isinstance(r.cigar, bytes) for r in decoded)


def _identity_blob(column: str) -> bytes:
    records = {
        "bases": READS,
        "text": QUALS,
        "results": [
            AlignmentResult(flag=0, mapq=60, contig_index=0, position=i,
                            cigar=b"10M")
            for i in range(4)
        ],
    }[column]
    return write_chunk(records, column, codec="none")


def _mapped(blob: bytes) -> memoryview:
    mapping = mmap.mmap(-1, len(blob))
    mapping[:] = blob
    return memoryview(mapping)


class TestOneCopyPerBlock:
    """Every decode copies a data block exactly once: the read that made
    an immutable ``bytes`` blob, or else the column's own copy."""

    @pytest.mark.parametrize("column", ["bases", "text", "results"])
    def test_bytes_blob_is_the_column_storage(self, column):
        blob = _identity_blob(column)
        decoded = read_column(blob)
        assert np.shares_memory(decoded.flat,
                                np.frombuffer(blob, dtype=np.uint8))
        assert decoded == read_chunk(blob).records

    @pytest.mark.parametrize("column", ["bases", "text", "results"])
    @pytest.mark.parametrize("wrap", [
        lambda b: memoryview(bytearray(b)), _mapped,
    ], ids=["bytearray", "mmap"])
    def test_mutable_or_mapped_buffer_is_copied_once(self, column, wrap):
        blob = _identity_blob(column)
        view = wrap(blob)
        decoded = read_column(view)
        assert decoded.flat.flags.owndata
        assert not np.shares_memory(decoded.flat,
                                    np.frombuffer(view, dtype=np.uint8))
        assert decoded == read_chunk(blob).records

    @pytest.mark.parametrize("column", ["bases", "text", "results"])
    def test_gzip_frame_never_aliases_its_input(self, column):
        records = read_chunk(_identity_blob(column)).records
        blob = write_chunk(records, column, codec="gzip")
        decoded = read_column(blob)
        assert not np.shares_memory(decoded.flat,
                                    np.frombuffer(blob, dtype=np.uint8))
        assert decoded == records

    def test_read_record_returns_bytes(self):
        ds = AGDDataset.create("one-copy", {"qual": QUALS}, MemoryStore(),
                               chunk_size=3, codecs={"qual": "none"})
        for i, qual in enumerate(QUALS):
            record = ds.read_record("qual", i)
            assert isinstance(record, bytes)
            assert record == qual


class TestBasesColumnViews:
    def _column(self) -> BasesColumn:
        blob = write_chunk(READS, "bases", codec="none")
        return read_column(blob).decoded()

    def test_unpack_column_flat_round_trips(self):
        column = self._column()
        assert len(column) == len(READS)
        assert column.to_list() == READS

    def test_view_is_zero_copy_window(self):
        column = self._column()
        for i, read in enumerate(READS):
            window = column.view(i)
            assert isinstance(window, memoryview)
            assert bytes(window) == read
        with pytest.raises(IndexError):
            column.view(len(READS))

    def test_materialize_returns_owning_copy(self):
        column = self._column()
        aliased = BasesColumn(flat=column.flat[:], bounds=column.bounds)
        assert not aliased.flat.flags.owndata
        owned = aliased.materialize()
        assert owned.flat.flags.owndata and owned.flat.flags.writeable
        assert owned == column
        # Already-owning columns come back as-is (no needless copy).
        assert owned.materialize() is owned

    def test_gather_kept_matches_list_path(self):
        column = self._column()
        idx = np.array([3, 0, 2], dtype=np.int64)
        flat_col, lens_col = _gather_kept(column, idx)
        flat_lst, lens_lst = _gather_kept(list(READS), idx)
        assert np.array_equal(lens_col, lens_lst)
        assert np.array_equal(flat_col, flat_lst)
        assert flat_col.tobytes() == READS[3] + READS[0] + READS[2]

    def test_gather_kept_rejects_packed_words(self):
        """A packed bases column holds 3-bit words, not base bytes."""
        packed = read_column(write_chunk(READS, "bases", codec="none"))
        assert isinstance(packed, PackedBasesColumn)
        with pytest.raises(TypeError):
            _gather_kept(packed, np.array([0], dtype=np.int64))


# ---------------------------------------------------- raw edge frames


class TestRawEdgeFrames:
    def _item(self) -> ChunkWorkItem:
        entry = ChunkEntry("c0", 0, len(READS))
        item = ChunkWorkItem(entry=entry)
        item.columns["bases"] = list(READS)
        item.columns["qual"] = list(QUALS)
        item.columns["results"] = [
            AlignmentResult(flag=0, mapq=60, contig_index=0, position=i,
                            cigar=b"10M")
            for i in range(len(READS))
        ]
        return item

    def test_raw_frames_decode_identically_to_gzip_frames(self):
        """The decoder reads each frame's codec off its header: the
        same item with gzip frames decodes to the same item."""
        item = self._item()
        raw = encode_work_item_frames(item)
        gz = raw[:1] + [
            write_chunk(item.columns[column], record_type_for_column(column),
                        codec="gzip")
            for column in sorted(item.columns)
        ]
        assert [read_chunk_header(f).codec_name for f in gz[1:]] == \
            ["gzip"] * 3
        for frames in (raw, gz):
            got = decode_work_item_frames(frames)
            assert got.entry == item.entry
            assert got.columns["bases"] == READS
            assert got.columns["qual"] == QUALS
            assert got.columns["results"] == item.columns["results"]

    def test_views_decode_feeds_bases_column(self):
        item = self._item()
        frames = [
            memoryview(bytearray(f))
            for f in encode_work_item_frames(item)
        ]
        got = decode_work_item_frames(frames)
        # Bases stay in their 3-bit block (whoever reads them unpacks
        # them once); every column owns its storage, none aliases the
        # mutable frames it was decoded from.
        bases = got.columns["bases"]
        assert isinstance(bases, PackedBasesColumn)
        assert bases.to_list() == READS
        assert isinstance(bases.decoded(), BasesColumn)
        assert got.columns["qual"] == QUALS
        assert all(isinstance(r, bytes) for r in got.columns["qual"])
        assert got.columns["results"] == item.columns["results"]
        for column in (bases, got.columns["qual"], got.columns["results"]):
            assert not any(np.shares_memory(column.flat, np.frombuffer(
                f, dtype=np.uint8)) for f in frames)

    def test_bytes_frames_decode_as_views(self):
        """A frame received as immutable ``bytes`` is its columns'
        storage: decoding copies none of it."""
        item = self._item()
        frames = encode_work_item_frames(item)
        assert all(isinstance(f, bytes) for f in frames)
        got = decode_work_item_frames(frames)
        assert got.columns["qual"] == QUALS
        assert got.columns["results"] == item.columns["results"]
        for column in got.columns.values():
            assert any(np.shares_memory(column.flat, np.frombuffer(
                f, dtype=np.uint8)) for f in frames)

    def test_socket_segments_arrive_as_bytes(self):
        """``_recv_frame`` hands each payload segment over as ``bytes``
        (one copy out of the socket), short reads included."""
        import socket
        import threading

        item = self._item()
        frames = encode_work_item_frames(item)
        left, right = socket.socketpair()
        with left, right:
            right.settimeout(5.0)  # a timeout socket may read short
            writer = threading.Thread(target=broker_mod._send_frame,
                                      args=(left, {"op": "x"}, frames))
            writer.start()
            header, segments, _wire = broker_mod._recv_frame(right)
            writer.join()
        assert header == {"op": "x"}
        assert [type(s) for s in segments] == [bytes] * len(frames)
        assert segments == [bytes(f) for f in frames]
        assert decode_work_item_frames(segments).columns["results"] == \
            item.columns["results"]

    def test_every_serializer_frames_raw(self):
        """One serializer for every edge: each column, results included,
        crosses as one identity-codec frame behind the header."""
        item = self._item()
        frames = item_serializer().encode(item)
        assert len(frames) == 1 + len(item.columns)
        assert read_chunk(frames[1]).record_type == "bases"
        assert [read_chunk_header(f).codec_name for f in frames[1:]] \
            == ["none"] * len(item.columns)

    def test_payload_nbytes_counts_memoryview_storage(self):
        """An edge's payload bytes count a view's storage, not its
        first-axis length."""
        arr = np.zeros((10, 10))
        assert _payload_nbytes(memoryview(arr)) == 800
        # A frame list: view nbytes + bytes len.
        assert _payload_nbytes([memoryview(b"abcd"), b"ef"]) == 4 + 2


# ------------------------------------------------ end-to-end deliveries


def _pull_and_die(host, port, edge):  # pragma: no cover - in child
    client = TcpBrokerClient(host, port)
    status, _tag, _key, _payload = client.pull(edge, timeout=10.0)
    assert status == PULL_OK
    # Die after the pull, delivery unacked: a redelivery must read the
    # original bytes.
    os.kill(os.getpid(), signal.SIGKILL)


class TestViewDeliveries:
    def test_consumer_death_holding_views_never_corrupts_redelivery(self):
        """A consumer SIGKILLed after a socket-copy pull, before its
        ack: the broker's frozen copy goes to the next consumer byte
        for byte, and nothing lands in ``/dev/shm``."""
        before = dev_shm_entries()
        broker = Broker()
        broker.create_edge("e", capacity=8, producers=1)
        server = BrokerServer(broker).start()
        try:
            producer = TcpBrokerClient(*server.address)
            producer.attach_producer("e")
            blob = os.urandom(16384)
            assert producer.publish("e", "k", blob,
                                    timeout=5.0) == PUBLISH_OK

            ctx = multiprocessing.get_context("fork")
            child = ctx.Process(
                target=_pull_and_die,
                args=(server.host, server.port, "e"),
            )
            child.start()
            child.join(15.0)
            assert child.exitcode == -signal.SIGKILL

            survivor = TcpBrokerClient(*server.address)
            tag, key, payload = _drain_pull(survivor, "e")
            assert (key, bytes(payload)) == ("k", blob)
            survivor.ack("e", tag)
            assert broker.stats()["e"]["total_redelivered"] == 1
            producer.close()
            survivor.close()
        finally:
            server.stop()
        assert dev_shm_entries() == before
