"""Shared-memory plane tests.

BufferPool lifecycle (adoption, lease/release refcounting, segment
hygiene) and the process backend's place beside it: its payloads go
down the pipe, so a process-backend run matches the serial one byte for
byte and leaves ``/dev/shm`` as it found it.
"""

from __future__ import annotations

import sys
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


def adopt(pool: BufferPool, data: bytes, tag: str = "t"):
    """Hand ``data`` to the pool the way a broker publisher does: a
    segment under the pool's prefix, created with ownership transfer,
    then adopted."""
    name = f"{pool.prefix}-{tag}"
    assert shm.create_segment(name, data, transfer=True)
    ref = pool.adopt_segment(name, 0, len(data))
    assert ref is not None
    return ref


@needs_shm
class TestBufferPool:
    def test_bytes_roundtrip(self):
        with BufferPool() as pool:
            data = bytes(range(256)) * 8
            ref = adopt(pool, data)
            with pool.view_ref(ref) as view:
                assert view.materialize() == data
            pool.release(ref)
            assert pool.live_leases == 0
            assert shm.list_segments(ref.segment) == []

    def test_concurrent_lease_release(self):
        pool = BufferPool()
        data = [bytes([i]) * (100 + 37 * i) for i in range(8)]
        refs = [adopt(pool, d, f"t{i}") for i, d in enumerate(data)]
        errors: list = []

        def hammer(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                for _ in range(100):
                    i = int(rng.integers(len(refs)))
                    lease = pool.incref(refs[i])
                    if lease is None:
                        raise AssertionError("live lease refused incref")
                    with pool.view_ref(lease) as view:
                        if view.materialize() != data[i]:
                            raise AssertionError("lease returned wrong bytes")
                    pool.release(lease)
            except BaseException as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the refcount updates
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        # Only the adoption leases are left; the segments survived every
        # concurrent re-lease and release.
        assert pool.live_leases == len(refs)
        assert pool.stats() == {"adopted_live": len(refs),
                                "adopted_bytes": sum(map(len, data))}
        pool.release_all(refs)
        assert pool.live_leases == 0
        prefix = pool.prefix
        assert shm.list_segments(prefix) == []
        pool.close()
        assert shm.list_segments(prefix) == []

    def test_close_unlinks_all_slabs(self):
        """``close()`` unlinks every adopted segment, however many
        leases still hold it."""
        pool = BufferPool()
        refs = [adopt(pool, b"z" * 3000, f"t{i}") for i in range(4)]
        pool.incref(refs[0])
        prefix = pool.prefix
        assert len(shm.list_segments(prefix)) == 4
        pool.close()
        assert shm.list_segments(prefix) == []
        assert pool.live_leases == 0
        pool.close()  # idempotent
        # A closed pool adopts nothing, and unlinks what it was offered.
        name = f"{prefix}-late"
        assert shm.create_segment(name, b"late", transfer=True)
        assert pool.adopt_segment(name, 0, 4) is None
        assert shm.list_segments(prefix) == []

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
