"""Phase 2 of the external sort — the k-way merge over run cursors —
against the concatenate-all merge it replaced (``sort_merge_oracle``).

The merge reads each run a window of records at a time and keeps at
most ``MERGE_WINDOW_BYTES`` of windows resident; whatever the window
size, its output chunks and manifest must be the oracle's byte for
byte: across run counts and lengths, heavy key ties, keys that do not
pack, both orders, every scratch kind, output chunk sizes other than
the input's, and runs a ledger adopted as several key-range entries.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.sort as sort_mod
from repro.agd.dataset import AGDDataset
from repro.align.result import AlignmentResult
from repro.core.sort import (
    SortConfig,
    _key_first_columns,
    build_sorted_manifest,
    iter_merged_chunks,
    sort_dataset,
    verify_sorted,
)
from repro.storage.base import DirectoryStore, MemoryStore
from row_sort_oracle import oracle_spill_runs, remote_scratch
from sort_merge_oracle import oracle_merged_chunks, oracle_sort_dataset
from test_columnar_sort import sort_cases, store_blobs


def _scratch(kind: str, directory: Path):
    if kind == "memory":
        return MemoryStore()
    return DirectoryStore(directory) if kind == "local" else remote_scratch()


def _adopted_merge(dataset, config, scratch, partitions, merge):
    """Merge the runs an older version spilled by key range (as a
    resumed run adopts them from its ledger) with ``merge``."""
    manifest = dataset.manifest
    runs = oracle_spill_runs(dataset, scratch, config, partitions)
    out = MemoryStore()
    entries = merge(scratch, runs, _key_first_columns(list(manifest.columns)),
                    config.order, config.output_chunk_size
                    or manifest.chunks[0].record_count, manifest.name, out,
                    config.output_codec())
    return out, build_sorted_manifest(manifest.name, list(manifest.columns),
                                      entries, manifest.reference,
                                      config.order)


def _cursor_merge(*args):
    return [entry for entry, *_ in iter_merged_chunks(*args)]


class TestMergeEqualsConcatenateAll:
    @settings(max_examples=80, deadline=None)
    @given(case=sort_cases(),
           kind=st.sampled_from(["memory", "local", "remote"]),
           window=st.sampled_from([1, 150, 2000, sort_mod.MERGE_WINDOW_BYTES]),
           partitions=st.sampled_from([1, 1, 2, 3]))
    def test_output_and_manifest(self, case, kind, window, partitions):
        dataset, config = case
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(sort_mod, "MERGE_WINDOW_BYTES", window):
            tmp = Path(tmp)
            if partitions == 1:
                expect_out, got_out = MemoryStore(), MemoryStore()
                expect = oracle_sort_dataset(dataset, expect_out, config,
                                             _scratch(kind, tmp / "oracle"))
                got = sort_dataset(dataset, got_out, config,
                                   _scratch(kind, tmp / "got"))
                expect, got = expect.manifest, got.manifest
            else:
                expect_out, expect = _adopted_merge(
                    dataset, config, _scratch(kind, tmp / "oracle"),
                    partitions, oracle_merged_chunks)
                got_out, got = _adopted_merge(
                    dataset, config, _scratch(kind, tmp / "got"),
                    partitions, _cursor_merge)
            assert store_blobs(got_out) == store_blobs(expect_out)
            assert got.to_json() == expect.to_json()
            assert verify_sorted(AGDDataset(got, got_out), config.order)


def _many_runs_dataset(runs: int, per_run: int = 12, chunk: int = 3):
    n = runs * per_run
    return AGDDataset.create(
        "many",
        {"results": [AlignmentResult(flag=0, contig_index=i % 3,
                                     position=(i * 7919) % 5000, cigar=b"8M")
                     for i in range(n)],
         "metadata": [f"read-{i:05d}".encode() for i in range(n)],
         "bases": [b"ACGTACGT"] * n, "qual": [b"IIIIIIII"] * n},
        MemoryStore(), chunk_size=chunk,
    ), SortConfig(chunks_per_superchunk=per_run // chunk)


class TestMergeWindows:
    def test_peak_window_bytes_stay_within_budget(self, tmp_path):
        """A 30-run sort reads every run in many small windows, and the
        windows resident at once never exceed the budget — on the eager
        path and in the sort stage's report, beside the restore
        counters, which keep their meaning."""
        from repro.core.pipelines import PipelineSpec
        from repro.core.subgraphs import STAGES, ServerSite, compose

        budget = 4096
        dataset, config = _many_runs_dataset(30)
        with mock.patch.object(sort_mod, "MERGE_WINDOW_BYTES", budget):
            counters: dict = {}
            expect = MemoryStore()
            oracle_sort_dataset(dataset, expect, config)
            got = MemoryStore()
            sort_dataset(dataset, got, config,
                         DirectoryStore(tmp_path / "eager"), counters)
            assert store_blobs(got) == store_blobs(expect)
            stage = STAGES["sort"].build(
                PipelineSpec(dataset, ("sort",), sort_config=config,
                             output_store=MemoryStore()),
                ServerSite(scratch_store=DirectoryStore(tmp_path / "stage")))
            report = compose(stage, name="many").run(timeout=120)
        staged = report.stage_report["sort"]["counters"]
        for counts in (counters, staged):
            assert counts["spill_restores"] == 30 * 4
            assert counts["spill_view_bytes"] > 0
            assert counts.get("decode_copies", 0) == 0
            assert counts["window_reads"] > 2 * 30
            assert 0 < counts["window_peak_bytes"] <= budget

    def test_one_window_per_run_at_the_default_budget(self, tmp_path):
        """Runs that fit their share of the budget are read once each."""
        dataset, config = _many_runs_dataset(5)
        counters: dict = {}
        sort_dataset(dataset, MemoryStore(), config,
                     DirectoryStore(tmp_path), counters)
        assert counters["window_reads"] == 5
        assert counters["window_peak_bytes"] <= sort_mod.MERGE_WINDOW_BYTES
