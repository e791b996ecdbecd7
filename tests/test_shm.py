"""Shared-memory plane tests.

BufferPool lifecycle (lease/release refcounting, exhaustion, segment
hygiene) and the process backend's place beside it: its payloads go
down the pipe, so a process-backend run matches the serial one byte for
byte and leaves ``/dev/shm`` as it found it.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.dataflow import shm
from repro.dataflow.backends import ProcessBackend
from repro.dataflow.shm import BufferPool

needs_shm = pytest.mark.skipif(
    not shm.shm_available(), reason="POSIX shared memory unavailable"
)


# ---------------------------------------------------------------------------
# Module-level task functions (picklable by reference).


def echo_task(shared, payload):
    return payload


# ---------------------------------------------------------------------------
# BufferPool lifecycle.


@needs_shm
class TestBufferPool:
    def test_bytes_roundtrip(self):
        with BufferPool(slab_bytes=1 << 16) as pool:
            data = bytes(range(256)) * 8
            ref = pool.put_bytes(data)
            assert ref is not None
            with pool.view_ref(ref) as view:
                assert view.materialize() == data
            pool.release(ref)
            assert pool.live_leases == 0

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
                    with pool.view_ref(ref) as view:
                        if view.materialize() != data:
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
# ProcessBackend: payloads go down the pipe, never through a segment.


class TestProcessBackendShm:
    def test_no_segments_leak_after_shutdown(self):
        """Not one ``psna-`` segment appears, even for payloads above
        the broker's shm threshold."""
        before = set(shm.list_segments("psna-"))
        backend = ProcessBackend(workers=2)
        big = np.arange(20_000, dtype=np.int64)
        assert big.nbytes >= shm.DEFAULT_SHM_THRESHOLD
        try:
            out = backend.run_chunk(echo_task, [big] * 4)
            assert set(shm.list_segments("psna-")) == before
        finally:
            backend.shutdown()
        assert all(np.array_equal(o, big) for o in out)
        assert set(shm.list_segments("psna-")) == before


# ---------------------------------------------------------------------------
# End-to-end: the whole pipeline, process vs serial, byte-identical.


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

        def run(backend):
            return run_pipeline(
                fresh(), stages,
                aligner=snap_aligner, reference=reference,
                sort_config=SortConfig(chunks_per_superchunk=2),
                backend=backend, workers=2,
            )

        before = set(shm.list_segments("psna-"))
        process = run("process")
        serial = run("serial")
        assert set(shm.list_segments("psna-")) == before
        for column in serial.sorted_dataset.columns:
            assert (process.sorted_dataset.read_column(column)
                    == serial.sorted_dataset.read_column(column)), column
        assert process.variants == serial.variants
        assert (process.dupmark_stats.duplicates_marked
                == serial.dupmark_stats.duplicates_marked)


@needs_shm
def test_process_backend_run_leaves_stderr_and_dev_shm_clean():
    """A whole process-backend pipeline in a fresh interpreter: nothing
    on stderr (no resource-tracker complaint) and nothing left in
    ``/dev/shm``."""
    from run_wgs_pipeline import launch

    before = set(shm.list_segments("psna"))
    proc = launch("process")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert set(shm.list_segments("psna")) == before
