"""The seams a run description crosses: one ``PipelineSpec`` interpreted
by the single session, by the coordinator's placed servers, by a worker
admitted mid-run and by the ``persona cluster broker`` / ``worker``
subprocess roles must leave the same bytes behind; the facts the spec
derives from the stage tuple must agree with their definitions; and one
entry-point call must run, and journal, exactly once.
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing
import threading
import time
from pathlib import Path

import pytest

import repro.cluster.multiserver as multiserver
import repro.core.pipelines as pipelines
from repro.agd.dataset import AGDDataset
from repro.align.base import ReadAligner
from repro.cluster.multiserver import join_placed_worker, run_placed_pipeline
from repro.cluster.placement import PlacementPlan
from repro.core.ledger import RunLedger
from repro.core.pipelines import (
    PipelineSpec,
    build_snap_aligner,
    run_pipeline,
)
from repro.core.sort import SortConfig
from repro.core.subgraphs import STAGES as STAGE_TABLE
from repro.formats.converters import import_reads
from repro.formats.vcf import write_vcf
from repro.genome.reference import (
    read_fasta,
    reference_from_sequences,
    write_fasta,
)
from repro.genome.synthetic import ReadSimulator, synthetic_reference
from repro.storage.base import DirectoryStore, MemoryStore
from dev_shm import dev_shm_entries
from test_self_healing import _free_port, _popen_cli, _wait_port

PLAN = "A=align;B=sort,dupmark;C=varcall"
STAGES = ("align", "sort", "dupmark", "varcall")
SNPS = (3_000, 9_000, 15_000)


# ------------------------------------------------------------ the world


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A reference on disk and reads off a "patient" carrying three SNPs
    at 10x, so the default calling thresholds have something to call."""
    work = tmp_path_factory.mktemp("seams")
    reference = synthetic_reference(20_000, num_contigs=1, seed=41)
    patient = bytearray(reference.concatenated())
    for pos in SNPS:
        patient[pos] = {65: 67, 67: 71, 71: 84, 84: 65}[patient[pos]]
    reads, _ = ReadSimulator(
        reference_from_sequences([("chr1", bytes(patient))]),
        read_length=101, duplicate_fraction=0.1, seed=42,
    ).simulate(2_000)
    write_fasta(reference, work / "ref.fa")
    return work, read_fasta(work / "ref.fa"), reads


@pytest.fixture(scope="module")
def make_dataset(world):
    work, reference, reads = world

    def make(name: str) -> AGDDataset:
        dataset = import_reads(
            reads, "seams", DirectoryStore(work / name), chunk_size=100,
            reference=reference.manifest_entry(),
        )
        dataset.save_manifest(work / name)
        return dataset
    return make


def _save(outcome, reference, out_dir: Path, vcf: Path) -> None:
    outcome.sorted_dataset.save_manifest(out_dir)
    write_vcf(outcome.variants, vcf, contigs=reference.manifest_entry())


def _tree(root: Path, pattern: str = "*") -> "dict[str, bytes]":
    return {p.name: p.read_bytes() for p in sorted(root.glob(pattern))}


@pytest.fixture(scope="module")
def single(world, make_dataset):
    """The oracle: one session, ``run_pipeline``."""
    work, reference, _ = world
    outcome = run_pipeline(
        make_dataset("ds-single"), STAGES,
        aligner=build_snap_aligner(reference), reference=reference,
        output_store=DirectoryStore(work / "out-single"), backend="serial",
    )
    _save(outcome, reference, work / "out-single", work / "single.vcf")
    assert len(outcome.variants) == len(SNPS)
    assert outcome.dupmark_stats.duplicates_marked > 0
    return work / "ds-single", work / "out-single", work / "single.vcf"


def assert_same_bytes(work: Path, name: str, single) -> None:
    ds_single, out_single, vcf_single = single
    assert _tree(work / f"ds-{name}", "*.results") == \
        _tree(ds_single, "*.results")
    assert _tree(work / f"out-{name}") == _tree(out_single)
    assert (work / f"{name}.vcf").read_bytes() == vcf_single.read_bytes()


class _SlowAligner(ReadAligner):
    """Delays every batch, so the work edge keeps a backlog."""

    def __init__(self, inner, delay: float):
        self._inner = inner
        self._delay = delay

    def align_read(self, bases):
        return self._inner.align_read(bases)

    def align_reads(self, batch):
        time.sleep(self._delay)
        return self._inner.align_reads(batch)


class TestOneSpecEveryServerLoop:
    def test_coordinator_servers(self, world, make_dataset, single):
        work, reference, _ = world
        placed = run_placed_pipeline(
            make_dataset("ds-placed"), PlacementPlan.parse(PLAN),
            aligner=build_snap_aligner(reference), reference=reference,
            output_store=DirectoryStore(work / "out-placed"),
            session_timeout=120.0,
        )
        _save(placed, reference, work / "out-placed", work / "placed.vcf")
        assert [s.server for s in placed.servers] == ["A", "B", "C"]
        assert_same_bytes(work, "placed", single)

    def test_worker_admitted_mid_run(self, world, make_dataset, single):
        """``join_placed_worker`` over the in-process broker: the late
        replica runs the same server loop as the planned ones."""
        work, reference, _ = world
        dataset = make_dataset("ds-joined")
        aligner = build_snap_aligner(reference)
        joined: dict = {}

        def on_ready(broker, listener):
            assert listener is None  # transport="local"

            def join():
                try:
                    joined["outcome"] = join_placed_worker(
                        PipelineSpec(dataset, STAGES, reference=reference,
                                     backend="serial"),
                        "late", "A", broker=broker, aligner=aligner,
                    )
                except BaseException as exc:  # surfaced by the test body
                    joined["error"] = exc
            joined["thread"] = threading.Thread(target=join, name="late")
            joined["thread"].start()

        placed = run_placed_pipeline(
            dataset, PlacementPlan.parse(PLAN),
            aligner_factory=lambda server: _SlowAligner(aligner, 0.1),
            reference=reference,
            output_store=DirectoryStore(work / "out-joined"),
            broker_ready=on_ready, session_timeout=120.0,
        )
        joined["thread"].join(timeout=60.0)
        assert not joined["thread"].is_alive()
        assert "error" not in joined, joined.get("error")
        late = joined["outcome"]
        assert not late.killed and late.error is None
        assert late.stages == ("align",)
        assert late.chunks >= 1
        assert late.chunks + placed.server("A").chunks == dataset.num_chunks
        _save(placed, reference, work / "out-joined", work / "joined.vcf")
        assert_same_bytes(work, "joined", single)

    def test_cli_broker_and_worker_roles(self, world, make_dataset, single):
        """``persona cluster broker`` + three ``persona cluster worker``
        processes: ``serve_plan`` and the server loop behind the CLI."""
        work, _, _ = world
        make_dataset("ds-roles")
        port = _free_port()
        broker = _popen_cli([
            "cluster", "broker", str(work / "ds-roles"), "--plan", PLAN,
            "--host", "127.0.0.1", "--port", str(port), "--timeout", "120",
        ])
        procs = [broker]
        try:
            _wait_port(port)
            worker = [
                "cluster", "worker", str(work / "ds-roles"),
                "--connect", f"127.0.0.1:{port}", "--backend", "serial",
                "--reference", str(work / "ref.fa"), "--timeout", "120",
                "--output-dir", str(work / "out-roles"),
            ]
            for server, extra in (("A", []), ("B", []),
                                  ("C", ["--vcf", str(work / "roles.vcf")])):
                procs.append(_popen_cli(worker + ["--server", server] + extra))
            outputs = [p.communicate(timeout=150) for p in procs]
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        for proc, (out, err) in zip(procs, outputs):
            assert proc.returncode == 0, (out, err)
        assert "run complete" in outputs[0][0]
        assert "duplicates marked" in outputs[2][0]
        assert f"called {len(SNPS)} variants" in outputs[3][0]
        assert_same_bytes(work, "roles", single)


# ------------------------------------------- who owns a compute backend


class _CensusStore(DirectoryStore):
    """Counts this process's children at every put (mid-run, from a
    node thread)."""

    def __init__(self, root):
        super().__init__(root)
        self.children: "list[int]" = []

    def put(self, key, data):
        self.children.append(len(multiprocessing.active_children()))
        super().put(key, data)


class TestOnlyTheAlignServerMakesABackend:
    """Only the aligner dispatches: a run, or a placed server, without an
    align stage forks nothing — and what is forked is still shut down."""

    def test_downstream_process_run_forks_no_child(self, world, single):
        work, reference, _ = world
        ds_single, out_single, vcf_single = single
        dataset = AGDDataset.open(ds_single)
        if not dataset.manifest.has_column("results"):
            dataset.manifest.add_column("results")
        assert multiprocessing.active_children() == []
        before = dev_shm_entries()
        out = _CensusStore(work / "out-downstream")
        outcome = run_pipeline(
            dataset, ("sort", "dupmark", "varcall"), reference=reference,
            output_store=out, backend="process", workers=2,
        )
        assert out.children and set(out.children) == {0}
        assert multiprocessing.active_children() == []
        assert dev_shm_entries() == before
        _save(outcome, reference, work / "out-downstream",
              work / "downstream.vcf")
        assert _tree(work / "out-downstream") == _tree(out_single)
        assert (work / "downstream.vcf").read_bytes() == \
            vcf_single.read_bytes()

    def test_placed_process_run_forks_the_align_server_only(
        self, world, make_dataset, single,
    ):
        work, reference, _ = world
        assert multiprocessing.active_children() == []
        before = dev_shm_entries()
        in_flight: list = []
        placed = run_placed_pipeline(
            make_dataset("ds-forks"),
            PlacementPlan.parse("A=align;B=sort;C=dupmark,varcall"),
            aligner=build_snap_aligner(reference), reference=reference,
            output_store=DirectoryStore(work / "out-forks"),
            backend="process", workers=2, session_timeout=120.0,
            broker_ready=lambda broker, listener: in_flight.append(
                len(multiprocessing.active_children())),
        )
        assert in_flight == [2]  # A's two workers; B and C have none
        assert multiprocessing.active_children() == []
        assert dev_shm_entries() == before
        _save(placed, reference, work / "out-forks", work / "forks.vcf")
        assert_same_bytes(work, "forks", single)


# ------------------------------------------------- what the spec derives


def _ordered_subsets():
    for size in range(1, len(STAGE_TABLE) + 1):
        yield from itertools.combinations(STAGE_TABLE, size)


class TestPipelineSpecProperties:
    """Against the definitions ``_build_stage_graph`` used to inline."""

    @pytest.mark.parametrize("manifest_order", ["location", "unsorted"])
    @pytest.mark.parametrize("sort_order", ["location", "metadata"])
    def test_cross_stage_facts_over_every_stage_subset(
        self, sort_order, manifest_order, reads,
    ):
        dataset = import_reads(reads, "props", MemoryStore(), chunk_size=50)
        dataset.manifest.sort_order = manifest_order
        config = SortConfig(order=sort_order, output_chunk_size=70)
        checked = 0
        for stages in _ordered_subsets():
            spec = PipelineSpec(dataset, stages, sort_config=config)
            assert spec.stages == stages
            assert spec.marks_first_write == (
                "sort" in stages
                and stages[stages.index("sort") + 1:][:1] == ("dupmark",))
            if "sort" in stages:
                sorted_input = sort_order == "location"
                triple = ("props-sorted-filtered", 70, sort_order)
            else:
                sorted_input = ("align" not in stages
                                and manifest_order == "location")
                triple = ("props-filtered", 50, manifest_order)
            assert spec.sorted_input == sorted_input, stages
            assert spec.filter_output == triple, stages
            checked += 1
        assert checked == 2 ** len(STAGE_TABLE) - 1

    def test_filter_chunk_size_defaults_to_the_input_chunk_size(
        self, dataset,
    ):
        spec = PipelineSpec(dataset, ("sort", "filter"))
        assert spec.filter_output == ("fixture-sorted-filtered", 100,
                                      "location")

    def test_backend_recipe(self, dataset):
        from repro.dataflow.backends import make_backend

        named = PipelineSpec(dataset, ("align",), backend="serial",
                             workers=3)
        assert (named.backend_name, named.owns_backends) == ("serial", True)
        instance = make_backend("serial")
        try:
            shared = PipelineSpec(dataset, ("align",), backend=instance)
            assert shared.backend_name == instance.name
            assert not shared.owns_backends
            assert shared.make_backend("x", ("align",)) is instance
            # Only the aligner dispatches: no other server gets one.
            assert shared.make_backend("x", ("sort", "dupmark")) is None
            assert named.make_backend("x", ("varcall",)) is None
        finally:
            instance.shutdown()

    def test_a_spec_is_always_a_valid_stage_tuple(self, dataset):
        for bad in ((), ("sort", "align"), ("sort", "sort"), ("polish",)):
            with pytest.raises(ValueError):
                PipelineSpec(dataset, bad)

    def test_fields_are_entry_point_keywords(self):
        """The spec adds no option: every field is an entry-point
        keyword, and neither entry point takes a spec beside them."""
        import inspect

        fields = {f.name for f in dataclasses.fields(PipelineSpec)}
        single = set(inspect.signature(run_pipeline).parameters)
        placed = set(inspect.signature(run_placed_pipeline).parameters)
        assert fields <= single
        assert fields - placed == {"stages"}  # the plan carries them
        assert "spec" not in single | placed


# ------------------------------------------------------------ the probes


class TestProbesNeverJournal:
    """There is no probe run: one entry-point call runs the pipeline
    once, with the caller's dataset and ledger in one frozen spec, and
    journals that run alone."""

    def _spy(self, monkeypatch, module, name):
        seen = []
        real = getattr(module, name)

        def spy(spec, *args, **kwargs):
            seen.append(spec)
            return real(spec, *args, **kwargs)

        monkeypatch.setattr(module, name, spy)
        return seen

    def _assert_one_run(self, seen, dataset, ledger):
        [spec] = seen
        assert spec.dataset is dataset and spec.ledger is ledger
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.ledger = None
        state = RunLedger.replay(ledger.path)
        assert state.status == "complete" and state.attempts == 1
        return state

    def test_queue_autotune_probe(self, dataset, snap_aligner, reference,
                                  monkeypatch, tmp_path):
        seen = self._spy(monkeypatch, pipelines, "_run_pipeline_once")
        ledger = RunLedger.create(tmp_path, run_id="once")
        run_pipeline(
            dataset, STAGES, aligner=snap_aligner, reference=reference,
            backend="serial", ledger=ledger,
        )
        ledger.close()
        state = self._assert_one_run(seen, dataset, ledger)
        assert state.stage_counts["align"] == dataset.num_chunks

    def test_edge_autotune_probe(self, dataset, snap_aligner, reference,
                                 monkeypatch, tmp_path):
        seen = self._spy(monkeypatch, multiserver, "_run_placed_once")
        ledger = RunLedger.create(tmp_path, run_id="once")
        plan = PlacementPlan.parse("A=align,sort;B=dupmark,varcall")
        run_placed_pipeline(
            dataset, plan, aligner=snap_aligner, reference=reference,
            ledger=ledger,
        )
        ledger.close()
        state = self._assert_one_run(seen, dataset, ledger)
        assert state.edge_acks["work"] == {
            entry.path for entry in dataset.manifest.chunks}
