"""The graphs the entry points hand to ``Session.run``, against a golden.

For every graph: its nodes in order (name, class, replicas, input and
output queue, the settings its builder gave it), its queues (name,
capacity), the node -> stage map and the chains ``Session.run`` would
form — taken at the start of ``Session.run``, which is then abandoned,
so nothing executes.  Queue names and capacities are what a run's
``report["queues"]`` and depth trace are keyed and bounded by, so a
refactor of how graphs are built must leave all of this where it was.

Covered: the composed graph of every ordered subset of the stages, plus
a head varcall over a location-sorted manifest and a durable run of all
five; ``align_dataset``; ``align_standalone``; the per-server graphs of
two placed plans over the in-process broker.  After an intended change
of graph shape, re-record with
``PYTHONPATH=src python tests/test_graph_golden.py``.
"""

from __future__ import annotations

import itertools
import json
import tempfile
from pathlib import Path

import pytest

from repro.align.snap import SeedIndex, SnapAligner
from repro.cluster.multiserver import run_placed_pipeline
from repro.cluster.placement import PlacementPlan
from repro.core.filters import by_min_mapq
from repro.core.ledger import RunLedger
from repro.core.pipelines import align_dataset, align_standalone, run_pipeline
from repro.dataflow.session import Session
from repro.formats.converters import import_reads
from repro.genome.synthetic import ReadSimulator, synthetic_reference
from repro.storage.base import MemoryStore

GOLDEN = Path(__file__).parent / "golden" / "stage_graphs.json"
STAGE_NAMES = ("align", "sort", "dupmark", "filter", "varcall")
PLANS = ("A=sort;B=dupmark,varcall", "A1=align;A2=align;B=sort,dupmark")


#: Node attributes a stage builder sets from the spec and site; a store,
#: codec or journal is recorded by its type.
SETTINGS = (
    "columns", "ordered_columns", "deferred_columns", "expected",
    "sorted_input", "subchunk_size", "order", "chunks_per_superchunk",
    "out_chunk_size", "dataset_name", "sort_order", "column", "record_type",
    "codec", "write_codec", "output_codec", "journal", "store",
    "output_store", "scratch", "contig_names",
)


class _Captured(Exception):
    """Raised in place of running a graph once it has been recorded."""


def _plain(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_plain(v) for v in value)
    return type(value).__name__


def _queue_name(queue) -> "str | None":
    return None if queue is None else queue.name


def _describe(session: Session) -> dict:
    graph = session.graph
    graph.validate()
    described = {
        "name": graph.name,
        "nodes": [[n.name, type(n).__name__, n.parallelism,
                   _queue_name(n.input), _queue_name(n.output),
                   {a: _plain(getattr(n, a)) for a in SETTINGS
                    if hasattr(n, a)}]
                  for n in graph.nodes],
        "queues": [[q.name, q.capacity] for q in graph.queues],
        "stages": dict(graph.node_stages),
    }
    described["chains"] = [[m.name for m in head.chain()]
                           for head in session._chain()]
    return described


def _captured(call) -> "list[dict]":
    """The graphs ``call()`` hands to ``Session.run``, none of them run."""
    seen: "list[dict]" = []
    original = Session.run

    def record(session, timeout=None):
        seen.append(_describe(session))
        raise _Captured()

    Session.run = record
    try:
        with pytest.raises(_Captured):
            call()
    finally:
        Session.run = original
    return sorted(seen, key=lambda g: g["name"])


def _world():
    reference = synthetic_reference(12_000, num_contigs=2, seed=7)
    reads, _ = ReadSimulator(reference, read_length=101, seed=8).simulate(200)
    aligner = SnapAligner(SeedIndex(reference))

    def dataset(sort_order: str = "unsorted"):
        ds = import_reads(reads, "golden", MemoryStore(), chunk_size=50,
                          reference=reference.manifest_entry())
        ds.append_column("results",
                         [aligner.align_read(r.bases) for r in reads])
        ds.manifest.sort_order = sort_order
        return ds

    return reference, aligner, dataset


def _composed(reference, aligner, dataset) -> dict:
    runs = {
        ",".join(stages): (dataset(), stages)
        for size in range(1, len(STAGE_NAMES) + 1)
        for stages in itertools.combinations(STAGE_NAMES, size)
    }
    runs["varcall@location"] = (dataset("location"), ("varcall",))
    composed = {
        key: _captured(lambda: run_pipeline(
            ds, stages, aligner=aligner, reference=reference,
            filter_predicate=by_min_mapq(0), backend="serial",
        ))
        for key, (ds, stages) in runs.items()
    }
    # A durable run: journaled stores, and the journals on their nodes.
    with tempfile.TemporaryDirectory() as ledger_dir:
        ledger = RunLedger.create(ledger_dir, run_id="golden")
        try:
            composed[f"{','.join(STAGE_NAMES)}@ledger"] = _captured(
                lambda: run_pipeline(
                    dataset(), STAGE_NAMES, aligner=aligner,
                    reference=reference, filter_predicate=by_min_mapq(0),
                    scratch_store=MemoryStore(), backend="serial",
                    ledger=ledger,
                ))
        finally:
            ledger.close()
    return composed


def _align_entry_points(reference, aligner, dataset) -> dict:
    ds = dataset()
    return {
        "align_dataset": _captured(
            lambda: align_dataset(ds, aligner, backend="serial")),
        "align_standalone": _captured(lambda: align_standalone(
            ds.manifest, MemoryStore(), MemoryStore(), aligner,
            reference.manifest_entry(), backend="serial")),
    }


def _placed(reference, aligner, dataset) -> dict:
    return {
        plan: _captured(lambda: run_placed_pipeline(
            dataset(), PlacementPlan.parse(plan), aligner=aligner,
            reference=reference, backend="serial", session_timeout=30.0,
        ))
        for plan in PLANS
    }


SECTIONS = {"composed": _composed, "align": _align_entry_points,
            "placed": _placed}


@pytest.fixture(scope="module")
def world():
    return _world()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_graphs_match_the_golden(section, world, golden):
    observed = json.loads(json.dumps(SECTIONS[section](*world)))
    expected = golden[section]
    assert sorted(observed) == sorted(expected)
    for key in expected:
        assert observed[key] == expected[key], key


def test_the_golden_covers_every_ordered_stage_subset(golden):
    assert len(golden["composed"]) == 2 ** len(STAGE_NAMES) - 1 + 2


if __name__ == "__main__":
    world = _world()
    GOLDEN.write_text(json.dumps(
        {section: build(*world) for section, build in SECTIONS.items()},
        indent=1, sort_keys=True,
    ) + "\n")
    print(f"wrote {GOLDEN}")
