"""Tests for chunk stores, disk models, and the Ceph simulation."""

import threading
import time

import pytest

from repro.storage.base import DirectoryStore, MemoryStore, StorageError
from repro.storage.diskmodel import (
    DiskModel,
    WritebackDiskModel,
    raid0,
)
from repro.storage.local import CountingStore, ModeledDiskStore

from models.ceph import CephConfig, CephStore, SimulatedCephCluster


class TestMemoryStore:
    def test_put_get(self):
        s = MemoryStore()
        s.put("k", b"v")
        assert s.get("k") == b"v"
        assert s.exists("k")

    def test_missing(self):
        with pytest.raises(StorageError):
            MemoryStore().get("nope")

    def test_delete(self):
        s = MemoryStore()
        s.put("k", b"v")
        s.delete("k")
        assert not s.exists("k")
        with pytest.raises(StorageError):
            s.delete("k")

    def test_keys_and_total(self):
        s = MemoryStore()
        s.put("a", b"12")
        s.put("b", b"345")
        assert sorted(s.keys()) == ["a", "b"]
        assert s.total_bytes == 5


class TestDirectoryStore:
    def test_roundtrip(self, tmp_path):
        s = DirectoryStore(tmp_path)
        s.put("x.bases", b"data")
        assert s.get("x.bases") == b"data"
        assert list(s.keys()) == ["x.bases"]
        s.delete("x.bases")
        assert not s.exists("x.bases")

    def test_nested_keys(self, tmp_path):
        s = DirectoryStore(tmp_path)
        s.put("sub/dir/file", b"x")
        assert s.get("sub/dir/file") == b"x"

    def test_bad_keys_rejected(self, tmp_path):
        s = DirectoryStore(tmp_path)
        for bad in ("", "/abs", "../escape", "a/../../b"):
            with pytest.raises(StorageError):
                s.put(bad, b"x")

    def test_missing(self, tmp_path):
        with pytest.raises(StorageError):
            DirectoryStore(tmp_path).get("ghost")


class TestDiskModel:
    def test_timing(self):
        disk = DiskModel(read_bandwidth=10e6)
        start = time.monotonic()
        disk.read(500_000)  # 0.05s at 10MB/s
        elapsed = time.monotonic() - start
        # Generous upper bound: shared CI runners oversleep wildly.
        assert 0.04 < elapsed < 0.6

    def test_counters(self):
        disk = DiskModel(read_bandwidth=1e9)
        disk.read(100)
        disk.write(200)
        assert disk.counters.bytes_read == 100
        assert disk.counters.bytes_written == 200
        assert disk.counters.read_ops == 1

    def test_serialization_under_contention(self):
        """Two concurrent reads on one disk take ~2x one read."""
        disk = DiskModel(read_bandwidth=10e6)
        start = time.monotonic()
        threads = [
            threading.Thread(target=disk.read, args=(400_000,))
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.monotonic() - start
        assert elapsed > 0.07  # 2 x 0.04s serialized

    def test_raid0_scales_bandwidth(self):
        array = raid0(6, 10e6)
        assert array.read_bandwidth == 60e6
        start = time.monotonic()
        array.read(3_000_000)  # 0.05s striped vs 0.3s on a single disk
        # Must beat the single-disk time even with CI scheduling noise.
        assert time.monotonic() - start < 0.2

    def test_invalid(self):
        with pytest.raises(ValueError):
            DiskModel(read_bandwidth=0)
        with pytest.raises(ValueError):
            raid0(0, 1e6)


class TestWritebackDiskModel:
    def test_small_writes_free(self):
        disk = WritebackDiskModel(read_bandwidth=1e6, dirty_limit=1_000_000)
        start = time.monotonic()
        disk.write(1000)
        # No storm -> no modeled sleep; bound is lax for slow CI runners.
        assert time.monotonic() - start < 0.1
        assert disk.writeback_storms == 0

    def test_storm_when_dirty_limit_hit(self):
        disk = WritebackDiskModel(
            read_bandwidth=10e6, write_bandwidth=10e6, dirty_limit=400_000
        )
        start = time.monotonic()
        disk.write(500_000)  # crosses limit -> synchronous flush
        elapsed = time.monotonic() - start
        assert disk.writeback_storms == 1
        assert elapsed > 0.03

    def test_flush_drains(self):
        disk = WritebackDiskModel(read_bandwidth=10e6, dirty_limit=1_000_000)
        disk.write(100_000)
        disk.flush()
        # Second flush: nothing left.
        start = time.monotonic()
        disk.flush()
        assert time.monotonic() - start < 0.1

    def test_storm_starves_reads(self):
        """Fig. 5a's mechanism: reads queue behind the writeback storm."""
        disk = WritebackDiskModel(
            read_bandwidth=20e6, write_bandwidth=5e6, dirty_limit=300_000
        )
        storm = threading.Thread(target=disk.write, args=(400_000,))
        storm.start()
        time.sleep(0.005)
        start = time.monotonic()
        disk.read(1000)  # must wait for the storm (~0.08s)
        waited = time.monotonic() - start
        storm.join()
        assert waited > 0.02


class TestModeledDiskStore:
    def test_counts_and_data(self):
        store = ModeledDiskStore(DiskModel(read_bandwidth=1e9))
        store.put("k", b"hello")
        assert store.get("k") == b"hello"
        assert store.bytes_written == 5
        assert store.bytes_read == 5

    def test_counting_store(self):
        store = CountingStore()
        store.put("k", b"abc")
        store.get("k")
        store.get("k")
        assert store.bytes_written == 3
        assert store.bytes_read == 6


class TestCephSimulation:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            CephConfig(num_nodes=0)
        with pytest.raises(ValueError):
            CephConfig(num_nodes=3, replication=4)

    def test_placement_deterministic_and_replicated(self):
        cluster = SimulatedCephCluster(CephConfig(
            num_nodes=5, replication=3, disk_bandwidth=1e9,
            network_bandwidth=1e9,
        ))
        nodes = cluster.placement("object-1")
        assert len(nodes) == 3
        assert len(set(nodes)) == 3
        assert nodes == cluster.placement("object-1")

    def test_put_get(self):
        cluster = SimulatedCephCluster(CephConfig(
            disk_bandwidth=1e9, network_bandwidth=1e9))
        cluster.put("a", b"data")
        assert cluster.get("a") == b"data"
        assert cluster.bytes_read == 4
        assert cluster.bytes_written == 4

    def test_missing(self):
        cluster = SimulatedCephCluster(CephConfig(
            disk_bandwidth=1e9, network_bandwidth=1e9))
        with pytest.raises(StorageError):
            cluster.get("ghost")

    def test_network_cap_bounds_throughput(self):
        cfg = CephConfig(num_nodes=7, disks_per_node=10,
                         disk_bandwidth=50e6, network_bandwidth=50e6)
        cluster = SimulatedCephCluster(cfg)
        bw = cluster.rados_bench(object_size=100_000, objects=10,
                                 concurrency=5)
        assert bw <= 60e6  # close to the 50 MB/s cap (timing slack)

    def test_store_facade_prefix(self):
        cluster = SimulatedCephCluster(CephConfig(
            disk_bandwidth=1e9, network_bandwidth=1e9))
        a = CephStore(cluster, prefix="dsA/")
        b = CephStore(cluster, prefix="dsB/")
        a.put("chunk", b"1")
        b.put("chunk", b"2")
        assert a.get("chunk") == b"1"
        assert b.get("chunk") == b"2"
        assert list(a.keys()) == ["chunk"]
