"""Zero-copy spill & result plane: view-adopted sort spills and
raw-framed process-backend results.

Raw (identity-codec) scratch framing lets phase 2 of the external sort
``mmap`` spill files and decode them in place (``spill_view_bytes``
grows, ``decode_copies`` stays 0); the gzip fallback remains
byte-identical.  ``ProcessBackend`` with shm maps large task results in
place instead of copying them out of their one-shot segments, releasing
the leases one dispatch later (the deferred-ack discipline).  Both
planes must leak nothing: no ``/dev/shm`` entries, no pinned scratch
mappings.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.agd.chunk import read_chunk, write_chunk
from repro.agd.compression import NONE
from repro.align.result import AlignmentResult
from repro.agd.dataset import AGDDataset
from repro.core.sort import (
    SortConfig,
    SpillFileRef,
    SpillLease,
    local_scratch_root,
    open_spill_ref,
    sort_dataset,
    verify_sorted,
)
from repro.dataflow import shm as shm_plane
from repro.dataflow.backends import (
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    payload_nbytes,
)
from repro.storage.base import DirectoryStore, MemoryStore

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

needs_shm = pytest.mark.skipif(
    not shm_plane.shm_available(), reason="POSIX shared memory unavailable"
)


def make_aligned_dataset(positions, chunk_size=4):
    """A tiny aligned dataset with given (contig, position) results."""
    n = len(positions)
    results = [
        AlignmentResult(flag=0, contig_index=c, position=p, cigar=b"4M")
        if p >= 0 else AlignmentResult()
        for c, p in positions
    ]
    return AGDDataset.create(
        "mini",
        {
            "bases": [b"ACGT"] * n,
            "qual": [b"IIII"] * n,
            "metadata": [f"r{i:05d}".encode() for i in range(n)],
            "results": results,
        },
        MemoryStore(),
        chunk_size=chunk_size,
    )


POSITIONS = [
    ((i * 7919) % 3, (i * 104729) % 100_000) for i in range(60)
]


def store_bytes(store, dataset) -> "dict[str, bytes]":
    """Every chunk file of a sorted dataset, keyed by file name."""
    return {
        entry.chunk_file(column): bytes(store.get(entry.chunk_file(column)))
        for entry in dataset.manifest.chunks
        for column in dataset.manifest.columns
    }


# ------------------------------------------------------- negotiation


class TestRawScratchNegotiation:
    def test_directory_store_resolves_to_root(self, tmp_path):
        assert local_scratch_root(DirectoryStore(tmp_path)) == tmp_path

    def test_memory_store_has_no_root(self):
        assert local_scratch_root(MemoryStore()) is None

    def test_auto_picks_raw_only_on_local_scratch(self, tmp_path):
        config = SortConfig()
        assert config.resolve_scratch_codec(DirectoryStore(tmp_path)) == \
            "none"
        assert config.resolve_scratch_codec(MemoryStore()) == "gzip"

    def test_explicit_override_beats_auto(self, tmp_path):
        on = SortConfig(raw_scratch=True)
        off = SortConfig(raw_scratch=False)
        assert on.resolve_scratch_codec(MemoryStore()) == "none"
        assert off.resolve_scratch_codec(DirectoryStore(tmp_path)) == "gzip"


# -------------------------------------------------------- spill views


class TestSpillLease:
    def _raw_spill(self, tmp_path) -> "tuple[Path, list[bytes]]":
        records = [f"read-{i:04d}".encode() * 8 for i in range(32)]
        blob = write_chunk(records, "text", codec=NONE)
        path = tmp_path / "superchunk-0.metadata"
        path.write_bytes(blob)
        return path, records

    def test_decoded_records_match_and_lease_releases(self, tmp_path):
        path, records = self._raw_spill(tmp_path)
        ref = SpillFileRef(str(path), path.stat().st_size)
        buf, lease = open_spill_ref(ref)
        assert isinstance(buf, memoryview)
        assert buf.readonly
        decoded = read_chunk(buf)
        assert list(decoded.records) == records
        # read_chunk materialized the rows, so nothing pins the mapping.
        assert lease.release()
        assert lease.release()  # idempotent

    def test_release_refuses_while_views_pin_the_mapping(self, tmp_path):
        path, _records = self._raw_spill(tmp_path)
        with SpillLease(path) as lease:
            alias = lease.view(0, 64)
            assert not lease.release()
            alias.release()
            assert lease.release()

    def test_view_aliases_file_bytes(self, tmp_path):
        path, _records = self._raw_spill(tmp_path)
        raw = path.read_bytes()
        with SpillLease(path) as lease:
            assert lease.nbytes == len(raw)
            assert bytes(lease.view(8, 16)) == raw[8:24]
            assert bytes(lease.buf) == raw


class TestPayloadNbytes:
    def test_spill_file_ref_counts_mapped_size(self, tmp_path):
        ref = SpillFileRef(str(tmp_path / "x"), 1 << 20)
        assert payload_nbytes(ref) == 1 << 20
        # Nested in a task payload tuple, same accounting.
        assert payload_nbytes(("merge", [ref, ref])) >= 2 << 20


# ------------------------------------------------------ byte identity


class TestByteIdentity:
    def _sorted_bytes(self, scratch, config, backend=None, counters=None):
        ds = make_aligned_dataset(POSITIONS, chunk_size=5)
        out_store = MemoryStore()
        out = sort_dataset(ds, out_store, config, scratch_store=scratch,
                           backend=backend, counters=counters)
        assert verify_sorted(out)
        return store_bytes(out_store, out)

    def test_raw_scratch_output_matches_gzip(self, tmp_path):
        config = SortConfig(chunks_per_superchunk=3)
        raw_counters: dict = {}
        gzip_counters: dict = {}
        raw = self._sorted_bytes(DirectoryStore(tmp_path / "raw"),
                                 config, counters=raw_counters)
        gz = self._sorted_bytes(MemoryStore(), config,
                                counters=gzip_counters)
        assert raw == gz
        assert raw_counters["spill_view_bytes"] > 0
        assert raw_counters.get("decode_copies", 0) == 0
        assert gzip_counters["decode_copies"] > 0
        assert gzip_counters.get("spill_view_bytes", 0) == 0

    def test_forced_raw_on_memory_store_still_correct(self):
        # raw_scratch=True on a non-mappable store: no mmap restore, but
        # the identity frames round-trip through scratch.get unchanged.
        config = SortConfig(chunks_per_superchunk=3, raw_scratch=True)
        baseline = SortConfig(chunks_per_superchunk=3, raw_scratch=False)
        assert self._sorted_bytes(MemoryStore(), config) == \
            self._sorted_bytes(MemoryStore(), baseline)

    @pytest.mark.parametrize("make_backend", [
        lambda: SerialBackend(),
        lambda: ThreadBackend(workers=2),
        lambda: ProcessBackend(workers=2, start_method="fork"),
    ], ids=["serial", "thread", "process"])
    def test_backends_agree_raw_vs_gzip(self, tmp_path, make_backend):
        config = SortConfig(chunks_per_superchunk=3, merge_partitions=2)
        backend = make_backend()
        try:
            raw = self._sorted_bytes(
                DirectoryStore(tmp_path / "scratch"), config,
                backend=backend,
            )
            gz = self._sorted_bytes(
                MemoryStore(), config, backend=backend,
            )
        finally:
            backend.shutdown()
        assert raw == gz

    def test_raw_scratch_leaves_no_pinned_mappings(self, tmp_path):
        scratch_dir = tmp_path / "scratch"
        self._sorted_bytes(DirectoryStore(scratch_dir),
                           SortConfig(chunks_per_superchunk=3))
        gc.collect()
        # Every SpillLease released: the spill files are plain closed
        # files, freely removable.
        for p in scratch_dir.iterdir():
            p.unlink()
        scratch_dir.rmdir()

    @needs_shm
    def test_process_backend_sort_reports_zero_copies(self, tmp_path):
        before = set(shm_plane.list_segments("psna-"))
        config = SortConfig(chunks_per_superchunk=3, merge_partitions=2)
        counters: dict = {}
        backend = ProcessBackend(workers=2, start_method="fork",
                                 shm=True, shm_threshold=64)
        try:
            raw = self._sorted_bytes(
                DirectoryStore(tmp_path / "scratch"), config,
                backend=backend, counters=counters,
            )
        finally:
            backend.shutdown()
        serial = self._sorted_bytes(MemoryStore(), config)
        assert raw == serial
        # The whole sort memory plane moved on views: spill restore and
        # the worker->coordinator result direction.
        assert counters["spill_view_bytes"] > 0
        assert counters["result_view_bytes"] > 0
        assert counters["result_segments"] > 0
        assert counters.get("decode_copies", 0) == 0
        assert set(shm_plane.list_segments("psna-")) == before


# --------------------------------------------------- raw-framed results


def _big_result_task(shared, payload) -> bytes:
    return bytes(payload) * 1024


def _array_result_task(shared, payload) -> np.ndarray:
    return np.arange(int(payload), dtype=np.int64)


@needs_shm
class TestProcessBackendResultViews:
    def test_large_results_arrive_as_views(self):
        backend = ProcessBackend(workers=2, start_method="fork",
                                 shm=True, shm_threshold=64)
        try:
            results = backend.run_chunk(
                _big_result_task, [b"a", b"b"]
            )
            assert [bytes(r[:4]) for r in results] == [b"aaaa", b"bbbb"]
            assert all(isinstance(r, memoryview) for r in results)
            stats = backend.result_stats
            assert stats["result_segments"] == 2
            assert stats["result_view_bytes"] == 2 * 1024
            assert stats["result_copies"] == 0
        finally:
            backend.shutdown()

    def test_array_results_map_in_place(self):
        backend = ProcessBackend(workers=2, start_method="fork",
                                 shm=True, shm_threshold=64)
        try:
            [arr] = backend.run_chunk(_array_result_task, [512])
            assert isinstance(arr, np.ndarray)
            assert arr.dtype == np.int64
            assert int(arr.sum()) == 512 * 511 // 2
            assert backend.result_stats["result_segments"] == 1
        finally:
            backend.shutdown()

    def test_views_stay_valid_until_next_dispatch(self):
        backend = ProcessBackend(workers=1, start_method="fork",
                                 shm=True, shm_threshold=64)
        try:
            [first] = backend.run_chunk(_big_result_task, [b"x"])
            # Names are unlinked at attach: nothing to leak even while
            # the lease is deferred.
            assert first[:1] == b"x"
            [second] = backend.run_chunk(_big_result_task, [b"y"])
            # The first call's lease was flushed by the second dispatch;
            # the second view is live, the backend tracked both.
            assert second[:1] == b"y"
            assert backend.result_stats["result_segments"] == 2
        finally:
            backend.shutdown()

    def test_copy_fallback_counts_copies(self):
        backend = ProcessBackend(workers=1, start_method="fork",
                                 shm=True, shm_threshold=64,
                                 result_views=False)
        try:
            [result] = backend.run_chunk(_big_result_task, [b"z"])
            assert isinstance(result, bytes)
            assert backend.result_stats["result_copies"] == 1
            assert backend.result_stats["result_segments"] == 0
        finally:
            backend.shutdown()

    def test_shutdown_leaves_no_segments(self):
        before = set(shm_plane.list_segments("psna-"))
        backend = ProcessBackend(workers=2, start_method="fork",
                                 shm=True, shm_threshold=64)
        try:
            backend.run_chunk(_big_result_task, [b"a", b"b", b"c"])
        finally:
            backend.shutdown()
        assert set(shm_plane.list_segments("psna-")) == before


# ------------------------------------------------------ spilled payloads


@needs_shm
class TestReadRefDeprecation:
    def test_restage_ref_rehydrates_spilled_bytes(self, tmp_path):
        pool = shm_plane.BufferPool(spill_dir=tmp_path, spill_watermark=1)
        try:
            name = f"{pool.prefix}-spill2"
            data = bytes(range(256)) * 4
            assert shm_plane.create_segment(name, data)
            spilled = pool.adopt_segment(name, 0, len(data))
            assert spilled is not None
            assert pool.incref(spilled) is None
            restaged = pool.restage_ref(spilled)
            assert restaged is not None
            view = pool.view_ref(restaged)
            assert view is not None
            assert bytes(view.view) == data
            view.release()
            pool.release(restaged)
            pool.release(spilled)
        finally:
            pool.close()


# ------------------------------------------------ stage-report counters


class TestStageReportCounters:
    def test_streaming_sort_surfaces_memory_plane_counters(self, tmp_path):
        from repro.core.subgraphs import PipelineBuilder, build_sort_graph

        ds = make_aligned_dataset(POSITIONS, chunk_size=5)
        out_store = MemoryStore()
        stage = build_sort_graph(
            ds.manifest, out_store, input_store=ds.store,
            config=SortConfig(chunks_per_superchunk=3),
            scratch_store=DirectoryStore(tmp_path / "scratch"),
            backend="serial",
        )
        pipeline = PipelineBuilder("mini").add(stage).build()
        try:
            result = pipeline.run(timeout=120)
        finally:
            pipeline.close()
        counters = result.stage_report["sort"]["counters"]
        assert counters["spill_bytes"] > 0
        assert counters["spill_view_bytes"] > 0
        assert counters["spill_restores"] > 0
        assert counters.get("decode_copies", 0) == 0
        sorted_ds = AGDDataset(stage.collector.manifest, out_store)
        assert verify_sorted(sorted_ds)

    def test_gzip_scratch_counts_decode_copies(self):
        from repro.core.subgraphs import PipelineBuilder, build_sort_graph

        ds = make_aligned_dataset(POSITIONS, chunk_size=5)
        stage = build_sort_graph(
            ds.manifest, MemoryStore(), input_store=ds.store,
            config=SortConfig(chunks_per_superchunk=3),
            backend="serial",
        )
        pipeline = PipelineBuilder("mini").add(stage).build()
        try:
            result = pipeline.run(timeout=120)
        finally:
            pipeline.close()
        counters = result.stage_report["sort"]["counters"]
        assert counters["decode_copies"] > 0
        assert counters.get("spill_view_bytes", 0) == 0


# --------------------------------------------------- crash mid-merge


class TestCrashResumeMidMerge:
    def test_sigkill_mid_sort_resumes_byte_identical(self, tmp_path):
        """SIGKILL after the first journaled sort chunk — mid-merge, the
        raw-scratch spills half consumed — then ``--resume`` must
        reproduce the uninterrupted output byte for byte."""
        from repro.core.ledger import CRASH_ENV
        from repro.formats.converters import import_reads
        from repro.genome.reference import write_fasta
        from repro.genome.synthetic import synthetic_dataset

        ref, reads, _ = synthetic_dataset(
            genome_length=12_000, coverage=2.0, seed=77
        )
        write_fasta(ref, tmp_path / "ref.fa")
        for sub in ("ds-ref", "ds-run"):
            store = DirectoryStore(tmp_path / sub)
            ds = import_reads(reads, "smoke", store, chunk_size=60)
            ds.save_manifest(tmp_path / sub)

        def run_cli(args, env=None):
            full_env = os.environ.copy()
            full_env["PYTHONPATH"] = (
                str(SRC_DIR) + os.pathsep + full_env.get("PYTHONPATH", "")
            )
            full_env.pop(CRASH_ENV, None)
            if env:
                full_env.update(env)
            return subprocess.run(
                [sys.executable, "-m", "repro.cli", *args],
                capture_output=True, text=True, env=full_env, timeout=180,
            )

        base = [
            "--reference", str(tmp_path / "ref.fa"),
            "--stages", "align,sort", "--backend", "serial",
        ]
        reference = run_cli([
            "pipeline", str(tmp_path / "ds-ref"), str(tmp_path / "out-ref"),
            *base,
        ])
        assert reference.returncode == 0, reference.stderr

        run_args = [
            "pipeline", str(tmp_path / "ds-run"), str(tmp_path / "out-run"),
            *base,
            "--ledger-dir", str(tmp_path / "runs"), "--run-id", "crashed",
            "--scratch-dir", str(tmp_path / "scratch"),
        ]
        crashed = run_cli(run_args, env={CRASH_ENV: "sort:1"})
        assert crashed.returncode in (-9, 137), (
            f"expected SIGKILL, got rc={crashed.returncode}\n"
            f"stdout:\n{crashed.stdout}\nstderr:\n{crashed.stderr}"
        )

        resumed = run_cli(run_args + ["--resume"])
        assert resumed.returncode == 0, resumed.stderr

        def tree(root: Path) -> "dict[str, bytes]":
            return {
                str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()
            }

        ref_files, got_files = \
            tree(tmp_path / "out-ref"), tree(tmp_path / "out-run")
        assert sorted(ref_files) == sorted(got_files)
        differing = [k for k in ref_files if ref_files[k] != got_files[k]]
        assert not differing, f"resumed output differs: {differing}"
