"""Tests for the pluggable execution backends (serial / process).

The contract every backend must honor: ``run_chunk(fn, payloads)``
returns per-payload results in order, the first task error re-raises in
the caller (including across process boundaries, where a dead worker is
an error too), and all backends produce identical results for the same
task payloads.  A process-backend run sends its payloads down the
workers' pipes only: it matches the serial run byte for byte and
leaves ``/dev/shm`` as it found it.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import run_backend_kill
from dev_shm import dev_shm_entries

from repro.core.pipelines import align_dataset
from repro.core.subgraphs import AlignGraphConfig
from repro.dataflow.backends import (
    BACKEND_CHOICES,
    DEFAULT_BATCH_SIZE,
    Backend,
    ProcessBackend,
    SerialBackend,
    make_backend,
    resolve_start_method,
)
from repro.dataflow.resources import ResourceManager
from repro.dataflow.session import NodeContext

from models.cputrace import BusyCounter, counting_backend

ALL_BACKENDS = list(BACKEND_CHOICES)


# ---------------------------------------------------------------------------
# Task functions must be module-level so the process backend can pickle
# them by reference.

def square_task(shared, payload):
    return payload * payload


def offset_task(shared, payload):
    return shared["offset"] + payload


class ExplodingPayloadError(RuntimeError):
    pass


def explode_on_seven(shared, payload):
    if payload == 7:
        raise ExplodingPayloadError(f"payload {payload} exploded")
    return payload


def nap_then_square(shared, payload):
    """Early payloads take longest, so replies arrive out of order."""
    time.sleep(0.02 * max(0, 4 - payload))
    return payload * payload


def explode_or_nap(shared, payload):
    if payload == 7:
        raise ExplodingPayloadError(f"payload {payload} exploded")
    time.sleep(0.3)
    return payload


class Unpicklable:
    """Reaches a forked worker by inheritance or not at all."""

    offset = 100

    def __reduce__(self):
        raise TypeError("Unpicklable must not be pickled")


def unpicklable_offset_task(shared, payload):
    return shared["resource"].offset + payload


def unpicklable_result_task(shared, payload):
    return Unpicklable() if payload == 1 else payload


def unpicklable_error_task(shared, payload):
    error = ExplodingPayloadError("carries a lock")
    error.lock = threading.Lock()
    raise error


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="no fork start method on this platform",
)
needs_spawn = pytest.mark.skipif(
    "spawn" not in multiprocessing.get_all_start_methods(),
    reason="no spawn start method on this platform",
)


@pytest.fixture(params=[*ALL_BACKENDS,
                        pytest.param("spawn", marks=needs_spawn)])
def any_backend(request):
    # Process: two payloads per message, so a chunk is several batches.
    # Spawn: the only start method macOS and Windows runners offer.
    if request.param == "serial":
        backend = SerialBackend()
    else:
        backend = ProcessBackend(
            workers=2, batch_size=2,
            start_method="spawn" if request.param == "spawn" else None)
    yield backend
    backend.shutdown()


class TestBackendContract:
    def test_ordered_results(self, any_backend):
        assert any_backend.run_chunk(square_task, list(range(10))) == [
            i * i for i in range(10)
        ]

    def test_empty_payloads(self, any_backend):
        assert any_backend.run_chunk(square_task, []) == []

    def test_shared_resources(self, any_backend):
        any_backend.register_shared("offset", 100)
        assert any_backend.run_chunk(offset_task, [1, 2, 3]) == [101, 102, 103]

    def test_error_propagates_to_caller(self, any_backend):
        with pytest.raises(ExplodingPayloadError, match="payload 7"):
            any_backend.run_chunk(explode_on_seven, list(range(12)))

    def test_usable_after_error(self, any_backend):
        with pytest.raises(ExplodingPayloadError):
            any_backend.run_chunk(explode_on_seven, [7])
        assert any_backend.run_chunk(square_task, [3]) == [9]

    def test_identical_results_across_backends(self):
        results = {}
        for kind in ALL_BACKENDS:
            backend = make_backend(kind, workers=2)
            try:
                results[kind] = backend.run_chunk(square_task, list(range(25)))
            finally:
                backend.shutdown()
        assert results["serial"] == results["process"]


class TestMakeBackend:
    def test_kinds(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        process = make_backend("process", workers=2)
        assert isinstance(process, ProcessBackend)
        assert process.workers == 2
        process.shutdown()  # never started: must be a no-op

    def test_unknown_kind_rejected(self):
        for kind in ("gpu", "thread"):
            with pytest.raises(ValueError, match="unknown backend"):
                make_backend(kind)

    def test_passthrough_instance(self):
        backend = SerialBackend()
        assert make_backend(backend) is backend

    def test_as_backend_passthrough_and_rejection(self):
        """A kernel's ``ctx.backend`` returns the registered Backend
        itself and rejects anything else."""
        resources = ResourceManager()
        ctx = NodeContext(resources, threading.Lock())
        backend = SerialBackend()
        resources.register("executor", backend)
        assert ctx.backend() is backend
        resources.register("other", object())
        with pytest.raises(TypeError):
            ctx.backend("other")


class TestSerialBackend:
    def test_busy_counter_balanced(self):
        counter = BusyCounter()
        backend = counting_backend("serial", counter)
        assert isinstance(backend, SerialBackend)
        assert backend.run_chunk(square_task, [1, 2]) == [1, 4]
        assert counter.busy == 0

    def test_shared_fallback_mapping(self):
        backend = SerialBackend()
        assert backend.run_chunk(
            offset_task, [5], shared={"offset": 10}
        ) == [15]

    def test_registry_shadows_fallback(self):
        backend = SerialBackend()
        backend.register_shared("offset", 1)
        assert backend.run_chunk(
            offset_task, [5], shared={"offset": 100}
        ) == [6]


class TestProcessBackend:
    def test_start_method_guard(self):
        available = multiprocessing.get_all_start_methods()
        assert resolve_start_method() in available
        assert ProcessBackend(workers=1).start_method in available
        with pytest.raises(ValueError, match="unavailable"):
            resolve_start_method("not-a-method")

    def test_batching_preserves_order(self):
        # 11 payloads / batch_size 3 -> 4 batches, one partial.
        backend = ProcessBackend(workers=2, batch_size=3)
        try:
            assert backend.run_chunk(square_task, list(range(11))) == [
                i * i for i in range(11)
            ]
            # More batches than workers, replies out of order.
            backend.batch_size = 1
            assert backend.run_chunk(nap_then_square, list(range(7))) == [
                i * i for i in range(7)
            ]
        finally:
            backend.shutdown()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ProcessBackend(workers=0)
        with pytest.raises(ValueError):
            ProcessBackend(batch_size=0)
        assert ProcessBackend().batch_size == DEFAULT_BATCH_SIZE

    def test_error_crosses_process_boundary(self):
        """Error propagation across the process boundary: the worker's
        exception re-raises in the waiting caller thread."""
        backend = ProcessBackend(workers=2, batch_size=2)
        try:
            with pytest.raises(ExplodingPayloadError, match="exploded"):
                backend.run_chunk(explode_on_seven, list(range(10)))
            # The workers survive; later chunks still run.
            assert backend.run_chunk(square_task, [6]) == [36]
        finally:
            backend.shutdown()

    def test_register_shared_after_start_rejected(self):
        backend = ProcessBackend(workers=1)
        try:
            backend.run_chunk(square_task, [1])
            with pytest.raises(RuntimeError, match="register_shared"):
                backend.register_shared("late", 1)
        finally:
            backend.shutdown()

    def test_shutdown_idempotent(self):
        for wait in (True, False):
            backend = ProcessBackend(workers=1)
            backend.run_chunk(square_task, [1])
            backend.shutdown(wait)
            backend.shutdown(wait)
            assert multiprocessing.active_children() == []

    def test_concurrent_callers_share_the_idle_set(self):
        """Two callers, two workers, 50 rounds each: every result is the
        caller's own and every worker is back in the idle set."""
        backend = ProcessBackend(workers=2, batch_size=2)
        failures: list = []

        def caller(base: int) -> None:
            try:
                for round_ in range(50):
                    payloads = [base + round_ * 10 + i for i in range(5)]
                    got = backend.run_chunk(square_task, payloads,
                                            timeout=30)
                    if got != [p * p for p in payloads]:
                        failures.append((payloads, got))
            except BaseException as error:
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            backend.start()
            threads = [threading.Thread(target=caller, args=(base,))
                       for base in (0, 10_000, 20_000)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
            assert failures == []
            assert backend._idle.qsize() == 2
        finally:
            sys.setswitchinterval(interval)
            backend.shutdown()

    def test_error_drains_in_flight_replies(self):
        """The error arrives while the other worker is still busy: the
        call raises only once that reply is in, so the next chunk cannot
        read a stale one."""
        backend = ProcessBackend(workers=2, batch_size=1)
        try:
            backend.start()
            started = time.monotonic()
            with pytest.raises(ExplodingPayloadError) as caught:
                backend.run_chunk(explode_or_nap, [1, 7, 2])
            assert time.monotonic() - started >= 0.3
            assert "explode_or_nap" in str(caught.value.__cause__)
            assert backend._idle.qsize() == 2
            assert backend.run_chunk(square_task, [3, 4]) == [9, 16]
        finally:
            backend.shutdown()

    def test_unpicklable_result_and_error_come_back_as_runtime_errors(self):
        backend = ProcessBackend(workers=1)
        try:
            with pytest.raises(RuntimeError, match="Unpicklable object"):
                backend.run_chunk(unpicklable_result_task, [0, 1])
            with pytest.raises(RuntimeError, match="carries a lock"):
                backend.run_chunk(unpicklable_error_task, [0])
            assert backend.run_chunk(square_task, [5]) == [25]
        finally:
            backend.shutdown()

    def test_timeout_is_one_deadline_and_breaks_the_backend(self):
        backend = ProcessBackend(workers=1, batch_size=1)
        try:
            backend.start()
            started = time.monotonic()
            with pytest.raises(TimeoutError):
                backend.run_chunk(explode_or_nap, [1, 2, 3], timeout=0.4)
            assert time.monotonic() - started < 0.6
            # A reply is still due on that pipe: no later chunk may read it.
            with pytest.raises(RuntimeError, match="broken"):
                backend.run_chunk(square_task, [3])
        finally:
            backend.shutdown()
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_fork_inherits_resources_and_adds_no_thread(self):
        backend = ProcessBackend(workers=2, start_method="fork")
        backend.register_shared("resource", Unpicklable())
        threads = threading.active_count()
        try:
            backend.start()
            assert backend.run_chunk(
                unpicklable_offset_task, list(range(6))
            ) == [100 + i for i in range(6)]
            assert threading.active_count() == threads
        finally:
            backend.shutdown()

    @needs_spawn
    def test_spawn_gives_the_same_results(self):
        backend = ProcessBackend(workers=2, batch_size=2,
                                 start_method="spawn")
        backend.register_shared("offset", 1000)
        try:
            assert backend.run_chunk(offset_task, list(range(7))) == [
                1000 + i for i in range(7)
            ]
            with pytest.raises(ExplodingPayloadError, match="exploded"):
                backend.run_chunk(explode_on_seven, list(range(10)))
        finally:
            backend.shutdown()


def _alive(pid: int) -> bool:
    """A zombie nobody reaps is not alive."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@needs_fork
def test_worker_lost_is_an_error_within_a_second():
    """A worker SIGKILLed mid-batch fails its ``run_chunk`` with its pid
    and signal, breaks the backend, and leaves nothing for the resource
    tracker to complain about."""
    process = run_backend_kill.popen("worker_lost")
    out, err = process.communicate(timeout=60)
    assert process.returncode == 0, err
    report = json.loads(out)
    assert "died mid-batch (exit code -9)" in report["error"]
    assert "worker pid" in report["error"]
    assert report["elapsed_s"] < 2.0
    assert report["error"] in report["later_error"]
    assert report["shutdown_s"] < 2.0 and report["children"] == 0
    assert "resource_tracker" not in err and "Traceback" not in err


@needs_fork
def test_process_run_starts_no_tracker_and_no_segment():
    """Payloads go down the pipe, whatever their size: a run creates no
    shared-memory segment, so CPython never starts its resource-tracker
    process (a second interpreter, inside whoever's timed region)."""
    process = run_backend_kill.popen("one_chunk")
    out, err = process.communicate(timeout=60)
    assert process.returncode == 0, err
    report = json.loads(out)
    assert report["lengths"] == [100_000] * 3
    assert report["created"] == []
    assert report["tracker_pid"] is None
    assert err == ""


@needs_fork
@pytest.mark.parametrize("mode", ["parent_killed", "parent_killed_idle"])
def test_parent_killed_leaves_no_worker(mode):
    process = run_backend_kill.popen(mode)
    workers: list = []
    try:
        workers = json.loads(process.stdout.readline())
        assert len(workers) == 2 and all(map(_alive, workers))
        time.sleep(0.3)  # mid-chunk
        process.send_signal(signal.SIGKILL)
        process.wait(10)
        deadline = time.monotonic() + 2.0
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, workers))
    finally:
        process.kill()
        for pid in workers:  # a failing run leaves none behind either
            try:
                if b"run_backend_kill" in Path(
                        f"/proc/{pid}/cmdline").read_bytes():
                    os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        process.communicate(timeout=10)


@pytest.mark.parametrize("kind,workers", [
    ("serial", 1), ("process", 1), ("process", 2),
], ids=["serial", "process-1", "process"])
def test_alignment_pipeline_per_backend(
    dataset, snap_aligner, aligned_results, kind, workers
):
    """The acceptance property: align_dataset(backend=...) produces the
    same alignment results on the synthetic genome for every backend —
    also with two aligner replicas contending for one worker's pipe."""
    config = AlignGraphConfig(aligner_nodes=2, subchunk_size=32)
    # Process: two subchunks per message, so a chunk is several batches.
    backend = ProcessBackend(workers=workers, batch_size=2) \
        if kind == "process" else kind
    try:
        outcome = align_dataset(
            dataset, snap_aligner, config=config, backend=backend
        )
    finally:
        if kind == "process":
            backend.shutdown()
    assert outcome.total_reads == dataset.total_records
    assert dataset.read_column("results") == aligned_results


def test_alignment_backend_instance_reuse(dataset, snap_aligner):
    """A caller-owned Backend instance is honored (and not shut down)."""
    backend = SerialBackend()
    try:
        align_dataset(dataset, snap_aligner, backend=backend)
        assert "results" in dataset.columns
        assert backend.run_chunk(square_task, [2]) == [4]
    finally:
        backend.shutdown()


def test_sort_and_dupmark_backend_equivalence(
    reads, reference, aligned_results
):
    """A ``sort,dupmark`` run handed a process backend gives a
    byte-identical dataset and the same stats as the eager path — and,
    hosting no align stage, never forks the backend's workers."""
    import multiprocessing

    from repro.core.dupmark import mark_duplicates
    from repro.core.pipelines import run_pipeline
    from repro.core.sort import sort_dataset, verify_sorted
    from repro.formats.converters import import_reads
    from repro.storage.base import MemoryStore

    def make_aligned():
        ds = import_reads(
            reads, "beq", MemoryStore(), chunk_size=100,
            reference=reference.manifest_entry(),
        )
        ds.append_column("results", list(aligned_results))
        return ds

    sorted_seq = sort_dataset(make_aligned(), MemoryStore())
    stats_seq = mark_duplicates(sorted_seq)
    children = multiprocessing.active_children()
    backend = ProcessBackend(workers=2, batch_size=2)
    try:
        outcome = run_pipeline(make_aligned(), ("sort", "dupmark"),
                               backend=backend)
        assert not backend._workers
        assert multiprocessing.active_children() == children
    finally:
        backend.shutdown()
    sorted_bknd, stats_bknd = outcome.sorted_dataset, outcome.dupmark_stats
    assert verify_sorted(sorted_bknd)
    for column in sorted_seq.manifest.columns:
        assert (sorted_seq.read_column(column)
                == sorted_bknd.read_column(column))
    assert (stats_seq.records, stats_seq.duplicates_marked,
            stats_seq.unmapped) == (stats_bknd.records,
                                    stats_bknd.duplicates_marked,
                                    stats_bknd.unmapped)


def test_worker_count_defaults():
    cpus = max(1, os.cpu_count() or 1)
    backend = ProcessBackend()
    assert backend.workers == cpus
    assert isinstance(backend, Backend)


# ---------------------------------------------------------------------------
# /dev/shm: payloads go down the pipe, never through a segment.


def echo_task(shared, payload):
    return payload


class TestProcessBackendShm:
    def test_no_segments_leak_after_shutdown(self):
        """Not one ``/dev/shm`` entry appears, even for payloads of
        64 KiB and more."""
        before = dev_shm_entries()
        backend = ProcessBackend(workers=2)
        big = np.arange(20_000, dtype=np.int64)
        assert big.nbytes >= 64 * 1024
        try:
            out = backend.run_chunk(echo_task, [big] * 4)
            assert dev_shm_entries() == before
        finally:
            backend.shutdown()
        assert all(np.array_equal(o, big) for o in out)
        assert dev_shm_entries() == before


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

        before = dev_shm_entries()
        process = run("process")
        serial = run("serial")
        assert dev_shm_entries() == before
        for column in serial.sorted_dataset.columns:
            assert (process.sorted_dataset.read_column(column)
                    == serial.sorted_dataset.read_column(column)), column
        assert process.variants == serial.variants
        assert (process.dupmark_stats.duplicates_marked
                == serial.dupmark_stats.duplicates_marked)


def test_process_backend_run_leaves_stderr_and_dev_shm_clean():
    """A whole process-backend pipeline in a fresh interpreter: nothing
    on stderr (no resource-tracker complaint) and nothing left in
    ``/dev/shm``."""
    from run_wgs_pipeline import launch

    before = dev_shm_entries()
    proc = launch("process")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert dev_shm_entries() == before
