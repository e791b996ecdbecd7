"""Spill plane: held runs and raw-framed sort spills.

The scratch store's kind decides how a sorted run is kept: a memory
store holds it as columns (nothing encoded, put or restored); a local
directory gets raw (identity-codec) frames that phase 2 of the external
sort reads back with one file read and decodes without inflating
(``spill_view_bytes`` grows, ``decode_copies`` stays 0); any other store
gets gzip — all byte-identical in what the merge emits.  The plane must
leak nothing: no ``/dev/shm`` entries, no open scratch files.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.agd.chunk import ChunkFormatError, read_chunk_header, write_chunk
from repro.agd.compression import NONE
from repro.align.result import AlignmentResult
from repro.agd.dataset import AGDDataset
from repro.core.sort import (
    SortConfig,
    _open_spill,
    local_scratch_root,
    scratch_codec,
    scratch_kind,
    sort_dataset,
    verify_sorted,
)
from repro.core.ledger import JournaledStore, RunLedger
from repro.storage.base import DirectoryStore, MemoryStore
from repro.storage.ceph import CephStore, SimulatedCephCluster
from repro.storage.diskmodel import DiskModel
from repro.storage.local import CountingStore, ModeledDiskStore
from dev_shm import dev_shm_entries
from row_sort_oracle import remote_scratch

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

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
        assert scratch_codec(DirectoryStore(tmp_path)).name == "none"
        assert scratch_codec(remote_scratch()).name == "gzip"

    @pytest.mark.parametrize("make,kind", [
        (lambda d: MemoryStore(), "memory"),
        (lambda d: CountingStore(MemoryStore()), "memory"),
        (lambda d: CountingStore(CountingStore()), "memory"),
        (lambda d: JournaledStore(MemoryStore(), None, "sort"), "memory"),
        (lambda d: DirectoryStore(d), "local"),
        (lambda d: CountingStore(DirectoryStore(d)), "local"),
        (lambda d: JournaledStore(CountingStore(DirectoryStore(d)), None,
                                  "sort"), "local"),
        (lambda d: ModeledDiskStore(DiskModel(1e9), MemoryStore()),
         "remote"),
        (lambda d: ModeledDiskStore(DiskModel(1e9), DirectoryStore(d)),
         "remote"),
        (lambda d: CountingStore(ModeledDiskStore(DiskModel(1e9))),
         "remote"),
        (lambda d: CephStore(SimulatedCephCluster()), "remote"),
    ], ids=["memory", "counting-memory", "counting-counting-memory",
            "journaled-memory", "directory", "counting-directory",
            "journaled-counting-directory", "modeled-memory",
            "modeled-directory", "counting-modeled", "ceph"])
    def test_scratch_kinds(self, tmp_path, make, kind):
        """Pass-through wrappers keep the kind of what they wrap; a
        modeled disk is remote whatever backs it, since its traffic is
        what it models."""
        store = make(tmp_path)
        assert scratch_kind(store) == kind
        assert (local_scratch_root(store) == tmp_path) == (kind == "local")

    def test_modeled_disk_pays_for_spill_restores(self, tmp_path):
        """Every spill byte written through a modeled disk is read back
        through it: the merge never maps the files underneath."""
        scratch = ModeledDiskStore(DiskModel(1e12),
                                   DirectoryStore(tmp_path / "scratch"))
        ds = make_aligned_dataset(
            [((i * 7919) % 3, (i * 104729) % 100_000) for i in range(200)],
            chunk_size=20)
        out = sort_dataset(ds, MemoryStore(),
                           SortConfig(chunks_per_superchunk=3),
                           scratch_store=scratch)
        assert verify_sorted(out)
        assert scratch.bytes_read == scratch.bytes_written > 0


# ------------------------------------------------------ spill restore


class TestSpillLease:
    """Restoring one raw spill from a local scratch directory."""

    def _raw_spill(self, tmp_path) -> "tuple[Path, list[bytes]]":
        records = [f"read-{i:04d}".encode() * 8 for i in range(32)]
        blob = write_chunk(records, "text", codec=NONE)
        path = tmp_path / "superchunk-0.metadata"
        path.write_bytes(blob)
        return path, records

    def test_decoded_records_match_and_lease_releases(self, tmp_path):
        """A local raw spill is verified and read in record windows from
        its file, past the store, and decodes to the records written."""
        path, records = self._raw_spill(tmp_path)

        class _NoGets(DirectoryStore):
            def get(self, key):
                raise AssertionError(f"restore went through get({key!r})")

        counters: dict = {}
        spill = _open_spill(_NoGets(tmp_path), tmp_path, path.name,
                            counters)
        got = []
        for lo in range(0, len(records), 5):
            hi = min(lo + 5, len(records))
            got.extend(spill.read(lo, hi))
        assert got == records
        assert counters == {"spill_restores": 1, "spill_view_bytes":
                            len(b"".join(records))}


# ------------------------------------------------------ byte identity


class TestByteIdentity:
    def _sorted_bytes(self, scratch, config, counters=None):
        ds = make_aligned_dataset(POSITIONS, chunk_size=5)
        out_store = MemoryStore()
        out = sort_dataset(ds, out_store, config, scratch_store=scratch,
                           counters=counters)
        assert verify_sorted(out)
        return store_bytes(out_store, out)

    def test_raw_scratch_output_matches_gzip(self, tmp_path):
        """The path is chosen by the store: a directory scratch spills
        raw frames and restores them with one read, a remote scratch
        gzips."""
        config = SortConfig(chunks_per_superchunk=3)
        raw_counters: dict = {}
        gzip_counters: dict = {}
        raw = self._sorted_bytes(DirectoryStore(tmp_path / "raw"),
                                 config, counters=raw_counters)
        gz = self._sorted_bytes(remote_scratch(), config,
                                counters=gzip_counters)
        assert raw == gz
        assert raw_counters["spill_view_bytes"] > 0
        assert raw_counters.get("decode_copies", 0) == 0
        assert gzip_counters["decode_copies"] == \
            gzip_counters["spill_restores"] > 0
        assert gzip_counters.get("spill_view_bytes", 0) == 0

    @pytest.mark.parametrize("wrap", [lambda s: s, CountingStore],
                             ids=["bare", "counting"])
    def test_memory_scratch_holds_runs(self, tmp_path, wrap):
        """A memory scratch is never written: every run stays columns,
        nothing is restored, and the output is the stored runs' bytes."""
        config = SortConfig(chunks_per_superchunk=3)
        scratch, counters = wrap(MemoryStore()), {}
        held = self._sorted_bytes(scratch, config, counters=counters)
        assert held == self._sorted_bytes(DirectoryStore(tmp_path / "raw"),
                                          config)
        assert held == self._sorted_bytes(remote_scratch(), config)
        assert not list(scratch.keys())
        assert "spill_restores" not in counters
        assert "decode_copies" not in counters

    def test_forced_raw_on_memory_store_still_correct(self):
        """Raw frames in a non-mappable store (a resumed run whose
        scratch moved, here forced by writing them): no file read,
        but the identity frames round-trip through ``scratch.get``
        unchanged — next to gzip runs, since every spill's header names
        its own codec."""
        from repro.agd.compression import leveled_codec
        from repro.core.sort import (
            _key_first_columns,
            encode_run_spill,
            iter_merged_chunks,
            sort_run,
            store_run_spill,
        )

        ds = make_aligned_dataset(POSITIONS, chunk_size=5)
        ordered = _key_first_columns(list(ds.manifest.columns))
        scratch, runs = MemoryStore(), []
        for start in range(0, ds.manifest.num_chunks, 3):
            codec = leveled_codec("none" if len(runs) % 2 == 0 else "gzip", 1)
            chunks = [{c: ds.store.get(e.chunk_file(c)) for c in ordered}
                      for e in ds.manifest.chunks[start:start + 3]]
            held = sort_run(MemoryStore(), len(runs), "location", ordered,
                            chunks)
            runs.append(store_run_spill(
                scratch, len(runs), encode_run_spill(held.columns, codec)))
        got, counters = MemoryStore(), {}
        entries = [entry for entry, *_ in iter_merged_chunks(
            scratch, runs, ordered, "location", 5, ds.manifest.name, got,
            counters=counters)]
        baseline = self._sorted_bytes(MemoryStore(),
                                      SortConfig(chunks_per_superchunk=3))
        assert {e.chunk_file(c): bytes(got.get(e.chunk_file(c)))
                for e in entries for c in ds.manifest.columns} == baseline
        assert counters["spill_view_bytes"] > 0
        assert counters["decode_copies"] > 0

    @pytest.mark.parametrize("backend,workers", [
        ("serial", 1), ("process", 1), ("process", 2),
    ], ids=["serial", "process-1", "process"])
    def test_backends_agree_raw_vs_gzip(self, tmp_path, reads, reference,
                                        snap_aligner, backend, workers):
        """Whole ``align,sort,dupmark,varcall`` runs, backend x scratch
        kind: every cell byte-identical to the eager chain, and a memory
        scratch, bare or counted, never written or restored from."""
        from repro.core.dupmark import mark_duplicates
        from repro.core.pipelines import align_dataset, run_pipeline
        from repro.core.varcall import VarCallConfig, call_variants
        from repro.formats.converters import import_reads

        varcall = VarCallConfig(min_depth=2, min_alt_fraction=0.5)
        config = SortConfig(chunks_per_superchunk=3)

        def fresh():
            return import_reads(reads, "fixture", MemoryStore(),
                                chunk_size=100,
                                reference=reference.manifest_entry())

        eager = fresh()
        align_dataset(eager, snap_aligner, backend="serial")
        eager_sorted = sort_dataset(eager, MemoryStore(), config)
        mark_duplicates(eager_sorted)
        expect = (store_bytes(eager_sorted.store, eager_sorted),
                  call_variants(eager_sorted, reference, varcall))
        assert expect[1], "fixture calls no variants"

        before = dev_shm_entries()
        for scratch in (DirectoryStore(tmp_path / "scratch"),
                        remote_scratch(), MemoryStore(),
                        CountingStore(MemoryStore())):
            outcome = run_pipeline(
                fresh(), ("align", "sort", "dupmark", "varcall"),
                aligner=snap_aligner, reference=reference,
                sort_config=config, varcall_config=varcall,
                scratch_store=scratch, backend=backend, workers=workers,
            )
            got = (store_bytes(outcome.sorted_dataset.store,
                               outcome.sorted_dataset), outcome.variants)
            assert got == expect
            counters = outcome.report["stages"]["sort"]["counters"]
            held = scratch_kind(scratch) == "memory"
            assert bool(list(scratch.keys())) != held
            assert ("spill_restores" in counters) != held
            assert ("decode_copies" in counters) == \
                (scratch_kind(scratch) == "remote")
        assert dev_shm_entries() == before

    def test_placed_memory_scratch_holds_runs(self, tmp_path,
                                              aligned_dataset, reference):
        """A placed run whose ``scratch_store_factory`` hands out memory
        stores writes none of them, and its sorted chunks and calls
        match local- and remote-scratch runs."""
        from repro.cluster.multiserver import run_placed_pipeline
        from repro.cluster.placement import PlacementPlan
        from repro.core.varcall import VarCallConfig

        varcall = VarCallConfig(min_depth=2, min_alt_fraction=0.5)
        kinds = {"memory": MemoryStore, "remote": remote_scratch,
                 "local": lambda: DirectoryStore(tmp_path / "scratch")}
        got = {}
        for kind, make in kinds.items():
            made = []

            def factory(_server):
                made.append(make())
                return made[-1]

            outcome = run_placed_pipeline(
                aligned_dataset,
                PlacementPlan.parse("A=sort;B=dupmark,varcall"),
                reference=reference,
                sort_config=SortConfig(chunks_per_superchunk=3),
                varcall_config=varcall, output_store=MemoryStore(),
                scratch_store_factory=factory, backend="serial",
            )
            got[kind] = (store_bytes(outcome.sorted_dataset.store,
                                     outcome.sorted_dataset),
                         outcome.variants)
            assert made and all(scratch_kind(s) == kind for s in made)
            assert any(list(s.keys()) for s in made) != (kind == "memory")
        assert got["memory"][1], "fixture calls no variants"
        assert got["memory"] == got["local"] == got["remote"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="no /proc/self/fd to list open files")
    def test_raw_scratch_leaves_no_pinned_mappings(self, tmp_path):
        scratch_dir = tmp_path / "scratch"
        self._sorted_bytes(DirectoryStore(scratch_dir),
                           SortConfig(chunks_per_superchunk=3))
        spills = {str(p.resolve()) for p in scratch_dir.iterdir()}
        assert spills
        open_files = set()
        for fd in os.listdir("/proc/self/fd"):
            try:
                open_files.add(os.readlink(f"/proc/self/fd/{fd}"))
            except OSError:
                pass  # closed between listdir and readlink
        assert not spills & open_files


# ------------------------------------------------------ corrupt spills


class _DamagingScratch(DirectoryStore):
    """A local scratch that damages one spill as it is written: flips a
    byte of its data block, or cuts its last bytes off."""

    def __init__(self, root, damage: str):
        super().__init__(root)
        self.damage = damage

    def put(self, key, blob):
        if key == "superchunk-1.qual":
            blob = bytearray(blob)
            if self.damage == "flip":
                blob[read_chunk_header(bytes(blob)).data_offset + 2] ^= 0xFF
            else:
                del blob[-7:]
            blob = bytes(blob)
        super().put(key, blob)


class TestCorruptSpillFailsBeforeOutput:
    """Every spill is verified before the merge emits: a flipped or torn
    raw spill fails the sort with ``ChunkFormatError`` and no sorted
    chunk is written, eager or streaming."""

    @pytest.mark.parametrize("damage", ["flip", "truncate"])
    def test_sort_dataset(self, tmp_path, damage):
        out = MemoryStore()
        with pytest.raises(ChunkFormatError):
            sort_dataset(make_aligned_dataset(POSITIONS, chunk_size=5), out,
                         SortConfig(chunks_per_superchunk=3),
                         scratch_store=_DamagingScratch(tmp_path, damage))
        assert not list(out.keys())

    @pytest.mark.parametrize("damage", ["flip", "truncate"])
    def test_streaming_sort(self, tmp_path, damage):
        from repro.core.pipelines import run_pipeline
        from repro.dataflow.errors import PipelineError

        out = MemoryStore()
        with pytest.raises(PipelineError) as failed:
            run_pipeline(make_aligned_dataset(POSITIONS, chunk_size=5),
                         ("sort",), sort_config=SortConfig(
                             chunks_per_superchunk=3),
                         scratch_store=_DamagingScratch(tmp_path, damage),
                         output_store=out, backend="serial")
        assert isinstance(failed.value.__cause__, ChunkFormatError)
        assert not [key for key in out.keys() if "-sorted-" in key]


# ------------------------------------------------ large pickled results


def _big_result_task(shared, payload) -> bytes:
    return bytes(payload) * 1024


class TestProcessBackendResultViews:
    """There is no result-view plane: large results return pickled,
    whole, and leave nothing behind."""

    def test_shutdown_leaves_no_segments(self):
        from repro.dataflow.backends import ProcessBackend

        before = dev_shm_entries()
        backend = ProcessBackend(workers=2, start_method="fork")
        try:
            results = backend.run_chunk(_big_result_task,
                                        [b"a", b"b", b"c"])
        finally:
            backend.shutdown()
        assert results == [b"a" * 1024, b"b" * 1024, b"c" * 1024]
        assert dev_shm_entries() == before


# ------------------------------------------------ stage-report counters


class TestStageReportCounters:
    @staticmethod
    def sort_stage(ds, out_store, scratch_store=None):
        from repro.core.pipelines import PipelineSpec
        from repro.core.subgraphs import STAGES, ServerSite

        return STAGES["sort"].build(
            PipelineSpec(ds, ("sort",),
                         sort_config=SortConfig(chunks_per_superchunk=3),
                         output_store=out_store),
            ServerSite(scratch_store=scratch_store),
        )

    def test_streaming_sort_surfaces_memory_plane_counters(self, tmp_path):
        from repro.core.subgraphs import compose

        ds = make_aligned_dataset(POSITIONS, chunk_size=5)
        out_store = MemoryStore()
        stage = self.sort_stage(ds, out_store,
                                DirectoryStore(tmp_path / "scratch"))
        result = compose(stage, name="mini").run(timeout=120)
        counters = result.stage_report["sort"]["counters"]
        assert counters["spill_bytes"] > 0
        assert counters["spill_view_bytes"] > 0
        assert counters["spill_restores"] > 0
        assert counters.get("decode_copies", 0) == 0
        sorted_ds = AGDDataset(stage.collector.manifest, out_store)
        assert verify_sorted(sorted_ds)

    def test_gzip_scratch_counts_decode_copies(self):
        from repro.core.subgraphs import compose

        ds = make_aligned_dataset(POSITIONS, chunk_size=5)
        stage = self.sort_stage(ds, MemoryStore(), remote_scratch())
        result = compose(stage, name="mini").run(timeout=120)
        counters = result.stage_report["sort"]["counters"]
        assert counters["decode_copies"] == counters["spill_restores"] > 0
        assert counters.get("spill_view_bytes", 0) == 0


# ------------------------------------------- ledgers from older versions


class TestLegacyPartitionedSpillResumes:
    def test_partition_spilled_ledger_adopts_and_merges_identically(
        self, tmp_path
    ):
        """A ledger an older version wrote for runs spilled by key
        range (``partitions`` / ``boundaries`` / ``spill_partitions``
        keys, ``superchunk-<run>-part<p>`` files in scratch): every run
        is adopted from its ``entries`` — all of them, in row order —
        and the one merge reproduces a fresh run byte for byte."""
        from repro.core.ledger import RunLedger, bind_run_config
        from repro.core.pipelines import run_pipeline
        from row_sort_oracle import oracle_spill_runs

        config = SortConfig(chunks_per_superchunk=3)

        def dataset():
            return make_aligned_dataset(POSITIONS, chunk_size=5)

        def run(**kwargs):
            out_store = MemoryStore()
            outcome = run_pipeline(dataset(), ("sort",), sort_config=config,
                                   output_store=out_store, backend="serial",
                                   **kwargs)
            return store_bytes(out_store, outcome.sorted_dataset)

        fresh = run(scratch_store=DirectoryStore(tmp_path / "fresh"))

        ds = dataset()
        scratch = DirectoryStore(tmp_path / "scratch")
        runs = oracle_spill_runs(ds, scratch, config, partitions=3)
        assert any(len(r.entries) > 1 for r in runs)
        ledger = RunLedger.create(tmp_path / "runs", run_id="legacy")
        bind_run_config(ledger, ds.manifest, ("sort",), backend="serial",
                        workers=4)
        for index, spilled in enumerate(runs):
            docs = [[e.path, e.first_ordinal, e.record_count]
                    for e in spilled.entries]
            ledger.append({
                "t": "spill", "run": index,
                "chunks": [e.path for e in ds.manifest.chunks[
                    index * 3:index * 3 + 3]],
                "entries": docs,
                "partitions": docs + [None],
                "boundaries": {"dtype": "<u8", "data": "AAAAAAAAAAA="},
                "spill_partitions": 3,
            })
        ledger.close()

        resumed = RunLedger.resume(tmp_path / "runs", run_id="legacy")
        try:
            got = run(scratch_store=scratch, ledger=resumed)
            assert resumed.skips["sort.spill"] == len(runs)
        finally:
            resumed.close()
        assert got == fresh
        # Nothing was re-spilled next to the adopted sub-chunks.
        assert not any(p.name.split(".")[0] in
                       {f"superchunk-{i}" for i in range(len(runs))}
                       for p in (tmp_path / "scratch").iterdir())


# ------------------------------------------------ held runs and ledgers


class TestHeldRunsResume:
    def test_memory_scratch_journals_no_spill_and_resumes(self, tmp_path):
        """A held run survives no restart, so a ledgered run with a
        memory scratch journals no ``spill`` for it; resumed after a
        crash that left one sorted chunk written, it re-sorts every run
        and lands on the uninterrupted bytes."""
        from repro.core.pipelines import run_pipeline

        def run(out_store, **kwargs):
            outcome = run_pipeline(
                make_aligned_dataset(POSITIONS, chunk_size=5), ("sort",),
                sort_config=SortConfig(chunks_per_superchunk=3),
                output_store=out_store, scratch_store=MemoryStore(),
                backend="serial", **kwargs)
            return store_bytes(out_store, outcome.sorted_dataset)

        fresh = run(MemoryStore())
        first = MemoryStore()
        ledger = RunLedger.create(tmp_path / "runs", run_id="held")
        try:
            assert run(first, ledger=ledger) == fresh
        finally:
            ledger.close()
        state = RunLedger.replay(tmp_path / "runs" / "held.jsonl")
        assert not state.spills
        assert state.stage_counts["sort"] == len(fresh)

        # What a crash after the first sorted chunk leaves behind.
        crashed = MemoryStore()
        for key in first.keys():
            if "-sorted-0." in key:
                crashed.put(key, first.get(key))
        written = len(list(crashed.keys()))
        resumed = RunLedger.resume(tmp_path / "runs", run_id="held")
        try:
            assert run(crashed, ledger=resumed) == fresh
            assert resumed.skips["sort"] == written > 0
            assert "sort.spill" not in resumed.skips
        finally:
            resumed.close()


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
