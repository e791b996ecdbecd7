"""Zero-copy data plane tests.

BufferPool lifecycle (lease/release refcounting, exhaustion fallback,
segment hygiene), ShmRef payload estimation, and process-backend
equivalence: the shm and pickled paths must produce byte-identical
results, and no ``/dev/shm`` segment may survive a backend shutdown —
including one-shot result segments stranded by a dead worker.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.dataflow import shm
from repro.dataflow.backends import ProcessBackend, payload_nbytes
from repro.dataflow.shm import BufferPool, ShmRef

needs_shm = pytest.mark.skipif(
    not shm.shm_available(), reason="POSIX shared memory unavailable"
)

SIG_DTYPE = np.dtype([("tag", "u1"), ("c1", "<i8"), ("p1", "<i8")])


# ---------------------------------------------------------------------------
# Module-level task functions (picklable by reference).


def echo_task(shared, payload):
    return payload


def stats_task(shared, payload):
    arr, blob = payload
    return (arr * 2, blob[:8], int(arr.sum()))


class ShmTaskError(RuntimeError):
    pass


def explode_task(shared, payload):
    raise ShmTaskError("boom")


# ---------------------------------------------------------------------------
# payload_nbytes: ShmRef, dict keys, recursion cap, structured arrays.


class TestPayloadNbytes:
    def test_dict_keys_counted(self):
        key_heavy = {b"k" * 1000: b"v"}
        value_heavy = {b"k": b"v" * 1000}
        assert payload_nbytes(key_heavy) >= 1000
        assert payload_nbytes(value_heavy) >= 1000

    def test_shm_ref_counts_as_reference_not_data(self):
        small = ShmRef("seg", 0, 10)
        huge = ShmRef("seg", 0, 1 << 30)
        assert payload_nbytes(small) == payload_nbytes(huge)
        assert payload_nbytes(huge) < 1 << 10

    def test_structured_array(self):
        arr = np.zeros(100, dtype=SIG_DTYPE)
        assert payload_nbytes(arr) == arr.nbytes
        assert payload_nbytes((arr, arr)) >= 2 * arr.nbytes

    def test_deep_nesting_capped(self):
        payload = [b"x" * 10_000]
        for _ in range(200):
            payload = [payload]
        estimate = payload_nbytes(payload)  # must not recurse to the leaf
        assert isinstance(estimate, int)
        assert estimate < 10_000

    def test_deeply_nested_dicts_capped(self):
        payload = {"leaf": b"x" * 10_000}
        for _ in range(200):
            payload = {"wrap": payload}
        estimate = payload_nbytes(payload)
        assert isinstance(estimate, int)
        assert estimate < 10_000
        # Shallow nested dicts still count fully (keys and values).
        shallow = {"a": {b"k" * 500: b"v" * 500}}
        assert payload_nbytes(shallow) >= 1000

    def test_bases_column_counted(self):
        from repro.agd.compaction import BasesColumn

        column = BasesColumn(
            flat=np.frombuffer(b"ACGT" * 256, dtype=np.uint8).copy(),
            bounds=np.arange(0, 1025, 4, dtype=np.int64),
        )
        assert payload_nbytes(column) == column.nbytes
        assert payload_nbytes(column) >= 1024


# ---------------------------------------------------------------------------
# BufferPool lifecycle.


@needs_shm
class TestBufferPool:
    def test_bytes_roundtrip(self):
        with BufferPool(slab_bytes=1 << 16) as pool:
            data = bytes(range(256)) * 8
            ref = pool.put_bytes(data)
            assert ref is not None and ref.descr is None
            view = shm.resolve_payload(ref)
            assert view == data
            pool.release(ref)

    def test_array_roundtrip_zero_copy(self):
        with BufferPool(slab_bytes=1 << 20) as pool:
            arr = np.zeros(64, dtype=SIG_DTYPE)
            arr["c1"] = np.arange(64)
            ref = pool.put_array(arr)
            assert ref is not None and ref.shape == (64,)
            out = shm.resolve_payload(ref)
            assert out.dtype == SIG_DTYPE
            assert np.array_equal(out, arr)
            # A zero-copy view, not a copy.
            assert not out.flags.owndata
            pool.release(ref)

    def test_lease_refcount_recycles_slab(self):
        with BufferPool(slab_bytes=1 << 14, max_bytes=1 << 14) as pool:
            refs = [pool.put_bytes(b"a" * 4000) for _ in range(3)]
            assert all(r is not None for r in refs)
            assert pool.live_leases == 3
            # Full (12KB + alignment in a 16KB slab): next big put fails.
            assert pool.put_bytes(b"b" * 8000) is None
            pool.release_all(refs)
            assert pool.live_leases == 0
            # Space reclaimed without growing a new slab.
            assert pool.put_bytes(b"b" * 8000) is not None
            assert pool.slab_count == 1

    def test_exhaustion_returns_none_never_raises(self):
        with BufferPool(slab_bytes=1 << 12, max_bytes=1 << 12) as pool:
            held = pool.put_bytes(b"x" * 3000)
            assert held is not None
            for _ in range(10):
                assert pool.put_bytes(b"y" * 3000) is None

    def test_non_contiguous_array_declined(self):
        with BufferPool() as pool:
            arr = np.arange(10_000, dtype=np.int64)[::2]
            assert pool.put_array(arr) is None

    def test_concurrent_lease_release(self):
        pool = BufferPool(slab_bytes=1 << 16, max_bytes=1 << 20)
        errors: list = []

        def hammer(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                for _ in range(100):
                    data = bytes([seed]) * int(rng.integers(100, 2000))
                    ref = pool.put_bytes(data)
                    if ref is None:
                        continue  # transient exhaustion is legal
                    if shm.resolve_payload(ref) != data:
                        raise AssertionError("lease returned wrong bytes")
                    pool.release(ref)
            except BaseException as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert pool.live_leases == 0
        prefix = pool.prefix
        pool.close()
        assert shm.list_segments(prefix) == []

    def test_close_unlinks_all_slabs(self):
        pool = BufferPool(slab_bytes=1 << 12, max_bytes=1 << 16)
        for _ in range(4):
            assert pool.put_bytes(b"z" * 3000) is not None
        prefix = pool.prefix
        assert len(shm.list_segments(prefix)) >= 1
        pool.close()
        assert shm.list_segments(prefix) == []
        pool.close()  # idempotent

    def test_close_sweeps_stale_result_segments(self):
        """A publisher that died after writing a one-shot segment under
        the pool's prefix leaves it behind; the owning pool's close()
        must remove it."""
        from multiprocessing import shared_memory

        pool = BufferPool()
        stale = shared_memory.SharedMemory(
            create=True, size=128, name=f"{pool.prefix}-r999-0"
        )
        stale.buf[:4] = b"dead"
        stale.close()
        assert f"{pool.prefix}-r999-0" in shm.list_segments(pool.prefix)
        swept = pool.close()
        assert swept == 1
        assert shm.list_segments(pool.prefix) == []


# ---------------------------------------------------------------------------
# ProcessBackend: shm mode vs the pickled reference path.


def _run_both(payloads, task=stats_task, **shm_kwargs):
    shm_backend = ProcessBackend(workers=2, shm=True, **shm_kwargs)
    try:
        via_shm = shm_backend.run_chunk(task, payloads)
    finally:
        shm_backend.shutdown()
    pickled_backend = ProcessBackend(workers=2, shm=False)
    try:
        via_pickle = pickled_backend.run_chunk(task, payloads)
    finally:
        pickled_backend.shutdown()
    return via_shm, via_pickle


@needs_shm
class TestProcessBackendShm:
    def test_large_payloads_identical_to_pickled(self):
        arr = np.arange(50_000, dtype=np.int64)
        blob = b"ACGT" * 50_000
        payloads = [(arr + i, blob) for i in range(5)]
        via_shm, via_pickle = _run_both(payloads, shm_threshold=1024)
        for (sa, sb, sc), (pa, pb, pc) in zip(via_shm, via_pickle):
            assert np.array_equal(sa, pa)
            assert sb == pb
            assert sc == pc

    def test_exhausted_pool_falls_back_to_pickling(self):
        arr = np.arange(50_000, dtype=np.int64)
        blob = b"ACGT" * 50_000
        payloads = [(arr, blob)] * 6
        via_shm, via_pickle = _run_both(
            payloads, shm_threshold=1024,
            shm_slab_bytes=1 << 12, shm_max_bytes=1 << 12,
        )
        for (sa, sb, sc), (pa, pb, pc) in zip(via_shm, via_pickle):
            assert np.array_equal(sa, pa)
            assert sb == pb and sc == pc

    def test_no_segments_leak_after_shutdown(self):
        before = set(shm.list_segments("psna-"))
        backend = ProcessBackend(workers=2, shm=True, shm_threshold=1024)
        backend.run_chunk(
            echo_task, [np.arange(20_000, dtype=np.int64)] * 4
        )
        backend.shutdown()
        assert set(shm.list_segments("psna-")) == before

    def test_worker_error_releases_leases(self):
        backend = ProcessBackend(workers=2, shm=True, shm_threshold=1024)
        try:
            with pytest.raises(ShmTaskError):
                backend.run_chunk(explode_task, [b"x" * 100_000] * 3)
            assert backend._shm_pool is not None
            assert backend._shm_pool.live_leases == 0
            # Backend stays usable on the zero-copy path after an error.
            assert backend.run_chunk(echo_task, [b"y" * 100_000]) == \
                [b"y" * 100_000]
        finally:
            backend.shutdown()

    def test_stale_worker_segment_swept_on_shutdown(self):
        from multiprocessing import shared_memory

        backend = ProcessBackend(workers=2, shm=True)
        backend.start()
        prefix = backend._shm_pool.prefix
        stale = shared_memory.SharedMemory(
            create=True, size=64, name=f"{prefix}-r12345-7"
        )
        stale.close()
        backend.shutdown()
        assert shm.list_segments(prefix) == []

    def test_shm_explicit_false_stays_pickled(self):
        backend = ProcessBackend(workers=1, shm=False)
        try:
            backend.run_chunk(echo_task, [b"z" * 200_000])
            assert backend._shm_pool is None
        finally:
            backend.shutdown()


# ---------------------------------------------------------------------------
# End-to-end: the whole pipeline, shm vs pickled, byte-identical.


@needs_shm
class TestPipelineEquivalence:
    @pytest.mark.parametrize("stages", [
        ("align", "sort", "dupmark", "varcall"),
    ])
    def test_pipeline_outputs_byte_identical(
        self, reads, reference, snap_aligner, stages
    ):
        from repro.core.pipelines import run_pipeline
        from repro.core.sort import SortConfig
        from repro.formats.converters import import_reads
        from repro.storage.base import MemoryStore

        def fresh():
            return import_reads(
                reads, "shm-eq", MemoryStore(), chunk_size=100,
                reference=reference.manifest_entry(),
            )

        def run(shm_mode):
            return run_pipeline(
                fresh(), stages,
                aligner=snap_aligner, reference=reference,
                sort_config=SortConfig(chunks_per_superchunk=2),
                backend="process", workers=2, shm=shm_mode,
            )

        before = set(shm.list_segments("psna-"))
        with_shm = run(True)
        without = run(False)
        assert set(shm.list_segments("psna-")) == before
        for column in without.sorted_dataset.columns:
            assert (with_shm.sorted_dataset.read_column(column)
                    == without.sorted_dataset.read_column(column)), column
        assert with_shm.variants == without.variants
        assert (with_shm.dupmark_stats.duplicates_marked
                == without.dupmark_stats.duplicates_marked)


@needs_shm
def test_process_backend_run_leaves_stderr_and_dev_shm_clean():
    """Payload slabs are attached by every worker: the resource tracker
    must see one register/unregister pair per name (a second unregister
    prints a ``KeyError`` traceback per segment), and nothing may be
    left in ``/dev/shm``."""
    from run_wgs_pipeline import launch

    before = set(shm.list_segments("psna"))
    proc = launch("process")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert set(shm.list_segments("psna")) == before
