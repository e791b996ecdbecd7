"""Durable runs: ledger replay, torn writes, and crash-resume identity.

The crash tests SIGKILL a real ``persona`` subprocess mid-pipeline (via
the ``PERSONA_CRASH_AFTER`` chaos hook, which kills the process right
after the n-th journaled chunk of a stage) and then resume it from the
ledger, asserting the resumed output is byte-identical to an
uninterrupted run.  The crash point is randomized but seeded: CI sets
``PERSONA_CHAOS_SEED`` from the workflow run id so every PR exercises a
different (but reproducible) kill site.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.ledger import (
    CRASH_ENV,
    LedgerError,
    RunLedger,
    blob_digest,
    list_runs,
)
from repro.formats.converters import import_reads
from repro.genome.reference import write_fasta
from repro.genome.synthetic import synthetic_dataset
from repro.storage.base import DirectoryStore

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

#: Seeded chaos: which align chunk the crash tests kill after (1..5).
CHAOS_SEED = int(os.environ.get("PERSONA_CHAOS_SEED", "0") or "0")
CRASH_AFTER = 1 + CHAOS_SEED % 5


def _run_cli(args, env=None, timeout=180):
    """Run ``persona`` as a real subprocess (crash tests need a real kill)."""
    full_env = os.environ.copy()
    full_env["PYTHONPATH"] = (
        str(SRC_DIR) + os.pathsep + full_env.get("PYTHONPATH", "")
    )
    full_env.pop(CRASH_ENV, None)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True,
        text=True,
        env=full_env,
        timeout=timeout,
    )


def _assert_killed(proc):
    assert proc.returncode in (-9, 137), (
        f"expected SIGKILL, got rc={proc.returncode}\n"
        f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
    )


def _tree_bytes(root: Path) -> "dict[str, bytes]":
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _record_in_run_config(journal: Path, **meta) -> None:
    """Rewrite a journal's ``run_config`` record with ``meta`` added, as
    an older tree that recorded more settings would have written it."""
    lines = []
    for line in journal.read_bytes().splitlines():
        payload = line.split(b" ", 1)[1]
        record = json.loads(payload)
        if record.get("t") == "run_config":
            record["meta"].update(meta)
            payload = json.dumps(record, sort_keys=True,
                                 separators=(",", ":")).encode()
        lines.append(b"%08x " % zlib.crc32(payload) + payload + b"\n")
    journal.write_bytes(b"".join(lines))


def _assert_identical_trees(ref: Path, got: Path) -> None:
    ref_files, got_files = _tree_bytes(ref), _tree_bytes(got)
    assert sorted(ref_files) == sorted(got_files)
    differing = [k for k in ref_files if ref_files[k] != got_files[k]]
    assert not differing, f"resumed output differs from reference: {differing}"


@pytest.fixture(scope="module")
def durable_ws(tmp_path_factory):
    """Reference FASTA + a factory that stamps out identical datasets."""
    root = tmp_path_factory.mktemp("durable")
    ref, reads, _ = synthetic_dataset(
        genome_length=15_000, coverage=2.0, seed=555, duplicate_fraction=0.1
    )
    write_fasta(ref, root / "ref.fa")

    def make_dataset(dst: Path):
        store = DirectoryStore(dst)
        ds = import_reads(reads, "smoke", store, chunk_size=60)
        ds.save_manifest(dst)
        return ds

    return root, make_dataset


# ------------------------------------------------------------ replay


class TestReplay:
    def test_append_replay_roundtrip(self, tmp_path):
        ledger = RunLedger.create(tmp_path, run_id="r1", meta={"k": "v"})
        ledger.chunk_done("align", "c0.results", "d0", store="dataset")
        ledger.chunk_done("align", "c1.results", "d1", store="dataset")
        ledger.chunk_done("sort", "s0.bases", "d2", store="output")
        ledger.edge_ack("work", "c0.results")
        ledger.complete(wall_seconds=1.5, chunks=3)
        ledger.close()

        state = RunLedger.replay(tmp_path / "r1.jsonl")
        assert state.run_id == "r1"
        assert state.meta["k"] == "v"
        assert state.attempts == 1
        assert state.chunks[("align", "c1.results")] == "d1"
        assert state.stage_counts == {"align": 2, "sort": 1}
        assert state.writes[("output", "s0.bases")] == "d2"
        assert state.edge_acks["work"] == {"c0.results"}
        assert state.status == "complete"
        assert not state.torn_tail

    def test_latest_digest_wins(self, tmp_path):
        ledger = RunLedger.create(tmp_path, run_id="r1")
        ledger.chunk_done("align", "c0", "old")
        ledger.chunk_done("align", "c0", "new")
        ledger.close()
        state = RunLedger.replay(tmp_path / "r1.jsonl")
        assert state.chunks[("align", "c0")] == "new"

    def test_torn_write_tolerated_and_truncated(self, tmp_path):
        ledger = RunLedger.create(tmp_path, run_id="r1")
        ledger.chunk_done("align", "c0", "d0")
        ledger.close()
        path = tmp_path / "r1.jsonl"
        good_bytes = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b'deadbeef {"t":"chunk_done","partial')  # torn record

        state = RunLedger.replay(path)
        assert state.torn_tail
        assert state.status == "interrupted"
        assert state.good_bytes == good_bytes
        assert state.chunks[("align", "c0")] == "d0"

        resumed = RunLedger.resume(tmp_path, run_id="r1")
        resumed.chunk_done("align", "c1", "d1")
        resumed.close()
        state = RunLedger.replay(path)
        assert not state.torn_tail
        assert state.attempts == 2
        assert state.chunks[("align", "c1")] == "d1"

    def test_corrupt_middle_record_stops_replay(self, tmp_path):
        ledger = RunLedger.create(tmp_path, run_id="r1")
        ledger.chunk_done("align", "c0", "d0")
        ledger.close()
        path = tmp_path / "r1.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        # Flip a payload byte without fixing the CRC.
        bad = lines[-1][:-10] + b"X" + lines[-1][-9:]
        path.write_bytes(b"".join(lines[:-1]) + bad)
        state = RunLedger.replay(path)
        assert state.torn_tail
        assert ("align", "c0") not in state.chunks

    def test_resume_missing_run_raises(self, tmp_path):
        with pytest.raises(LedgerError):
            RunLedger.resume(tmp_path / "empty")
        with pytest.raises(LedgerError):
            RunLedger.run_path(tmp_path / "empty", "nope")

    def test_create_refuses_existing_run_id(self, tmp_path):
        RunLedger.create(tmp_path, run_id="r1").close()
        with pytest.raises(LedgerError):
            RunLedger.create(tmp_path, run_id="r1")

    def test_list_runs(self, tmp_path):
        assert list_runs(tmp_path / "missing") == []
        RunLedger.create(tmp_path, run_id="a").close()
        b = RunLedger.create(tmp_path, run_id="b")
        b.complete()
        b.close()
        runs = list_runs(tmp_path)
        assert {s.run_id for s in runs} == {"a", "b"}
        by_id = {s.run_id: s for s in runs}
        assert by_id["a"].status == "incomplete"
        assert by_id["b"].status == "complete"


# ------------------------------------------------ crash-resume identity


class TestCrashResume:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_crash_resume_byte_identity(self, durable_ws, tmp_path, backend):
        root, make_dataset = durable_ws
        make_dataset(tmp_path / "ds-ref")
        make_dataset(tmp_path / "ds-run")
        base = [
            "--reference", str(root / "ref.fa"),
            "--stages", "align,sort,dupmark,varcall",
            "--backend", backend, "--workers", "2",
        ]

        ref = _run_cli([
            "pipeline", str(tmp_path / "ds-ref"), str(tmp_path / "out-ref"),
            "--vcf", str(tmp_path / "ref.vcf"), *base,
        ])
        assert ref.returncode == 0, ref.stderr

        run_args = [
            "pipeline", str(tmp_path / "ds-run"), str(tmp_path / "out-run"),
            "--vcf", str(tmp_path / "run.vcf"), *base,
            "--ledger-dir", str(tmp_path / "runs"), "--run-id", "crashed",
            "--scratch-dir", str(tmp_path / "scratch"),
        ]
        crashed = _run_cli(
            run_args, env={CRASH_ENV: f"align:{CRASH_AFTER}"}
        )
        _assert_killed(crashed)
        # A ledger from a tree that still had the process backend's shm
        # payload plane recorded the setting; a resume validates only
        # the stages and the dataset fingerprint.
        journal = tmp_path / "runs" / "crashed.jsonl"
        assert "shm" not in RunLedger.replay(journal).meta
        _record_in_run_config(journal, shm=True)

        resumed = _run_cli(run_args + ["--resume"])
        assert resumed.returncode == 0, resumed.stderr
        assert "resumed" in resumed.stdout

        _assert_identical_trees(tmp_path / "out-ref", tmp_path / "out-run")
        _assert_identical_trees(tmp_path / "ds-ref", tmp_path / "ds-run")
        assert (tmp_path / "ref.vcf").read_bytes() == \
            (tmp_path / "run.vcf").read_bytes()

        state = RunLedger.replay(journal)
        assert state.status == "complete"
        assert state.meta["shm"] is True
        assert state.attempts == 2
        skipped = state.complete.get("skipped", {})
        assert skipped.get("align", 0) >= CRASH_AFTER

    def test_crash_between_merge_put_and_dupmark_put(self, durable_ws,
                                                     tmp_path):
        """``sort,dupmark`` journals each output results chunk once, from
        the dupmark stage.  Kill the run after the merge has put two of
        the first sorted chunk's other columns — its results column is
        not yet written by anyone — and the resume must still land on
        the uninterrupted run's bytes and pass ``runs verify``."""
        root, make_dataset = durable_ws
        make_dataset(tmp_path / "ds-ref")
        make_dataset(tmp_path / "ds-run")

        def args(tag):
            return [
                "pipeline", str(tmp_path / f"ds-{tag}"),
                str(tmp_path / f"out-{tag}"),
                "--vcf", str(tmp_path / f"{tag}.vcf"),
                "--reference", str(root / "ref.fa"),
                "--stages", "align,sort,dupmark,varcall",
                "--backend", "serial",
                "--ledger-dir", str(tmp_path / f"runs-{tag}"),
                "--run-id", tag,
                "--scratch-dir", str(tmp_path / f"scratch-{tag}"),
            ]

        ref = _run_cli(args("ref"))
        assert ref.returncode == 0, ref.stderr
        state = RunLedger.replay(tmp_path / "runs-ref" / "ref.jsonl")
        results_chunks = len(list((tmp_path / "out-ref").glob("*.results")))
        assert results_chunks > 1
        assert state.stage_counts["dupmark"] == results_chunks
        assert state.stage_counts["sort"] == 3 * results_chunks
        assert not any(stage == "sort" and key.endswith(".results")
                       for stage, key in state.chunks)

        crashed = _run_cli(args("run"), env={CRASH_ENV: "sort:2"})
        _assert_killed(crashed)
        state = RunLedger.replay(tmp_path / "runs-run" / "run.jsonl")
        assert state.stage_counts["sort"] == 2
        assert "dupmark" not in state.stage_counts
        assert not list((tmp_path / "out-run").glob("*.results"))

        resumed = _run_cli(args("run") + ["--resume"])
        assert resumed.returncode == 0, resumed.stderr
        _assert_identical_trees(tmp_path / "out-ref", tmp_path / "out-run")
        assert (tmp_path / "ref.vcf").read_bytes() == \
            (tmp_path / "run.vcf").read_bytes()
        assert main(["runs", "verify", str(tmp_path / "runs-run"),
                     "run"]) == 0

    def test_placed_tcp_crash_resume_byte_identity(self, durable_ws,
                                                   tmp_path):
        root, make_dataset = durable_ws
        make_dataset(tmp_path / "ds-ref")
        make_dataset(tmp_path / "ds-run")
        base = [
            "--plan", "A=align,sort;B=dupmark,varcall",
            "--reference", str(root / "ref.fa"),
            "--transport", "tcp", "--backend", "serial",
        ]

        ref = _run_cli([
            "cluster", "run", str(tmp_path / "ds-ref"),
            str(tmp_path / "out-ref"), "--vcf", str(tmp_path / "ref.vcf"),
            *base,
        ])
        assert ref.returncode == 0, ref.stderr

        run_args = [
            "cluster", "run", str(tmp_path / "ds-run"),
            str(tmp_path / "out-run"), "--vcf", str(tmp_path / "run.vcf"),
            *base,
            "--ledger-dir", str(tmp_path / "runs"),
            "--scratch-dir", str(tmp_path / "scratch"),
        ]
        crashed = _run_cli(
            run_args, env={CRASH_ENV: f"align:{CRASH_AFTER}"}
        )
        _assert_killed(crashed)

        resumed = _run_cli(run_args + ["--resume"])
        assert resumed.returncode == 0, resumed.stderr

        _assert_identical_trees(tmp_path / "out-ref", tmp_path / "out-run")
        _assert_identical_trees(tmp_path / "ds-ref", tmp_path / "ds-run")
        assert (tmp_path / "ref.vcf").read_bytes() == \
            (tmp_path / "run.vcf").read_bytes()

        states = list_runs(tmp_path / "runs")
        assert len(states) == 1
        assert states[0].status == "complete"
        assert states[0].attempts == 2
        # The broker pre-acked the aligned chunks instead of redelivering.
        assert states[0].complete.get("skipped", {}).get("align", 0) >= 1


# -------------------------------------------------------- provenance


class TestRunsCli:
    @pytest.fixture(scope="class")
    def completed_run(self, durable_ws, tmp_path_factory):
        root, make_dataset = durable_ws
        work = tmp_path_factory.mktemp("runscli")
        make_dataset(work / "ds")
        rc = main([
            "pipeline", str(work / "ds"), str(work / "out"),
            "--reference", str(root / "ref.fa"),
            "--stages", "align,sort,dupmark",
            "--backend", "serial",
            "--ledger-dir", str(work / "runs"), "--run-id", "prov",
        ])
        assert rc == 0
        return work

    def test_runs_list_and_show(self, completed_run, capsys):
        work = completed_run
        assert main(["runs", "list", str(work / "runs")]) == 0
        out = capsys.readouterr().out
        assert "prov" in out and "complete" in out

        assert main(["runs", "show", str(work / "runs"), "prov"]) == 0
        out = capsys.readouterr().out
        assert "dataset_fingerprint" in out
        assert "align" in out and "sort" in out
        assert "wall" in out  # completion timings

    def test_runs_verify_detects_tampering(self, completed_run, capsys):
        work = completed_run
        assert main(["runs", "verify", str(work / "runs"), "prov"]) == 0
        capsys.readouterr()

        target = sorted((work / "out").glob("*.bases"))[0]
        original = target.read_bytes()
        tampered = bytearray(original)
        tampered[len(tampered) // 2] ^= 0xFF
        target.write_bytes(bytes(tampered))
        try:
            assert main(["runs", "verify", str(work / "runs"), "prov"]) == 1
            out = capsys.readouterr().out
            assert "tampered" in out
        finally:
            target.write_bytes(original)
        assert main(["runs", "verify", str(work / "runs"), "prov"]) == 0

    def test_runs_verify_detects_missing_chunk(self, completed_run, capsys):
        work = completed_run
        target = sorted((work / "out").glob("*.qual"))[0]
        original = target.read_bytes()
        target.unlink()
        try:
            assert main(["runs", "verify", str(work / "runs"), "prov"]) == 1
            assert "missing" in capsys.readouterr().out
        finally:
            target.write_bytes(original)

    def test_resume_refuses_changed_dataset(self, durable_ws, tmp_path):
        root, make_dataset = durable_ws
        make_dataset(tmp_path / "ds")
        rc = main([
            "pipeline", str(tmp_path / "ds"), str(tmp_path / "out"),
            "--reference", str(root / "ref.fa"),
            "--stages", "align,sort", "--backend", "serial",
            "--ledger-dir", str(tmp_path / "runs"), "--run-id", "r1",
        ])
        assert rc == 0
        # Same ledger, different stage list: refused up front.
        rc = main([
            "pipeline", str(tmp_path / "ds"), str(tmp_path / "out2"),
            "--reference", str(root / "ref.fa"),
            "--stages", "align,sort,dupmark", "--backend", "serial",
            "--ledger-dir", str(tmp_path / "runs"), "--resume",
        ])
        assert rc == 2


# ------------------------------------------------------- atomic writes


class TestAtomicStore:
    def test_put_leaves_no_tmp_residue(self, tmp_path):
        store = DirectoryStore(tmp_path)
        store.put("chunk.bases", b"payload")
        assert (tmp_path / "chunk.bases").read_bytes() == b"payload"
        assert not list(tmp_path.glob("*.tmp"))

    def test_keys_skip_orphaned_tmp_files(self, tmp_path):
        store = DirectoryStore(tmp_path)
        store.put("chunk.bases", b"payload")
        (tmp_path / "chunk.bases.123.tmp").write_bytes(b"torn")
        assert set(store.keys()) == {"chunk.bases"}

    def test_overwrite_is_atomic_replace(self, tmp_path):
        store = DirectoryStore(tmp_path)
        store.put("k", b"old")
        store.put("k", b"new")
        assert store.get("k") == b"new"
        assert blob_digest(store.get("k")) == blob_digest(b"new")
