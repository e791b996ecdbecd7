"""The thread model (``dataflow/session.py``): 1:1 single-replica queues
are elided and their consumers chained onto the producer's thread; the
sort merge's encode+put runs behind it on the session's one lane.

Toy graphs pin the chain semantics against the queued run; the pipeline
tests pin the thread budget, the byte identity, and that nothing is
acknowledged before it is stored.
"""

from __future__ import annotations

import io
import sys
import threading
import time

import pytest

from repro.core.dupmark import mark_duplicates
from repro.core.ledger import JournaledStore, RunLedger
from repro.core.ops import AckSinkNode
from repro.core.pipelines import PipelineSpec, run_pipeline
from repro.core.sort import SortConfig, sort_dataset
from repro.core.subgraphs import STAGES, ServerSite
from repro.core.varcall import VarCallConfig, call_variants
from repro.dataflow.errors import PipelineError
from repro.dataflow.errors import PipelineAborted
from repro.dataflow.graph import Graph
from repro.dataflow.lane import WriteBehindLane
from repro.dataflow.node import CollectSink, IterableSource, LambdaNode, Node
from repro.dataflow.session import Session
from repro.formats.converters import import_reads
from repro.formats.vcf import write_vcf
from repro.storage.base import DirectoryStore, MemoryStore

SORT_CONFIG = SortConfig(chunks_per_superchunk=2)
VARCALL_CONFIG = VarCallConfig(min_depth=2, min_alt_fraction=0.5)


class Batcher(Node):
    """Groups of ``size``; ``finalize`` flushes the remainder."""

    def __init__(self, name, size, log=None):
        super().__init__(name)
        self.size, self._held, self.log = size, [], log

    def setup(self, ctx):
        if self.log is not None:
            self.log.append(("setup", self.name))

    def process(self, item, ctx):
        if self.log is not None:
            self.log.append(("item", self.name))
        self._held.append(item)
        if len(self._held) == self.size:
            held, self._held = self._held, []
            return [tuple(held)]
        return None

    def finalize(self, ctx):
        if self.log is not None:
            self.log.append(("finalize", self.name))
        return [tuple(self._held)] if self._held else None


def batcher_graph(log=None):
    """src -> entry -> pairs -> triples -> sink.  ``entry`` is fed by a
    source, so it heads the chain the other three join."""
    g = Graph("t")
    queues = [g.queue(name, 2) for name in ("q0", "q1", "q2", "q3")]
    g.add(IterableSource("src", range(11)), output=queues[0])
    g.add(LambdaNode("entry", lambda x: x), input=queues[0], output=queues[1])
    g.add(Batcher("pairs", 2, log), input=queues[1], output=queues[2])
    g.add(Batcher("triples", 3, log), input=queues[2], output=queues[3])
    sink = CollectSink()
    g.add(sink, input=queues[3])
    return g, sink


def started_threads(monkeypatch):
    """Names of the threads started from here on."""
    names: "list[str]" = []
    real = threading.Thread.start

    def start(self):
        names.append(self.name)
        real(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return names


class TestChainSemantics:
    def test_same_items_in_the_same_order_as_the_queued_run(
        self, monkeypatch
    ):
        g, sink = batcher_graph()
        threads = started_threads(monkeypatch)
        result = Session(g).run(timeout=10)
        assert sorted(threads) == ["t.entry.0", "t.src.0"]
        with monkeypatch.context() as patch:
            # The queued run: every node keeps its queue and its thread.
            patch.setattr(Session, "_chain", lambda self: self.graph.nodes)
            queued_graph, queued_sink = batcher_graph()
            queued = Session(queued_graph).run(timeout=10)
        assert sink.collected == queued_sink.collected == [
            ((0, 1), (2, 3), (4, 5)), ((6, 7), (8, 9), (10,))]
        for name, stats in result.report["nodes"].items():
            for key in ("items_in", "items_out"):
                assert stats[key] == queued.report["nodes"][name][key], name

    def test_setup_first_and_finalize_cascades_head_to_tail(self):
        log: list = []
        g, sink = batcher_graph(log)
        Session(g).run(timeout=10)
        assert log[:2] == [("setup", "pairs"), ("setup", "triples")]
        # ``pairs`` flushes its odd item into ``triples`` before
        # ``triples`` flushes: the remainder is ((10,),), not lost.
        tail = log[log.index(("finalize", "pairs")):]
        assert tail == [("finalize", "pairs"), ("item", "triples"),
                        ("finalize", "triples")]

    def test_what_could_run_in_parallel_is_not_chained(self):
        g = Graph("t")
        fed = g.queue("fed", 2)        # a source's prefetch buffer
        wide = g.queue("wide", 2)      # into a replicated kernel
        shared = g.queue("shared", 2)  # fan-in, then fan-out
        g.add(IterableSource("src", range(20)), output=fed)
        g.add(LambdaNode("one", lambda x: x), input=fed, output=wide)
        g.add(LambdaNode("many", lambda x: x, parallelism=2),
              input=wide, output=shared)
        g.add(IterableSource("src2", range(20, 30)), output=shared)
        sinks = [CollectSink("left"), CollectSink("right")]
        for sink in sinks:
            g.add(sink, input=shared)
        result = Session(g).run(timeout=10)
        assert all(node.inline_next is None for node in g.nodes)
        assert not any("inline" in q for q in result.report["queues"].values())
        assert sorted(sinks[0].collected + sinks[1].collected) \
            == list(range(30))

    def test_report_stays_true(self):
        g = Graph("t")
        q0, q1, q2 = (g.queue(name, 2) for name in ("q0", "q1", "q2"))
        g.add(IterableSource("src", range(5)), output=q0)
        g.add(LambdaNode("quick", lambda x: x), input=q0, output=q1)
        g.add(LambdaNode("slow", lambda x: time.sleep(0.02) or x),
              input=q1, output=q2)
        g.add(CollectSink(), input=q2)
        report = Session(g, queue_sample_interval=0.005).run(timeout=10).report
        assert report["queues"]["q1"] == {
            "capacity": 2, "total_enqueued": 5, "max_depth": 0,
            "inline": True}
        assert "inline" not in report["queues"]["q0"]
        assert set(report["queue_trace"]["depths"]) == {"q0"}
        nodes = report["nodes"]
        # Self time: the tail's 0.1 s is not also the head's.
        assert nodes["slow"]["busy_seconds"] >= 0.1
        assert nodes["quick"]["busy_seconds"] < 0.05
        assert nodes["slow"]["inline"] and nodes["sink"]["inline"]
        assert nodes["slow"]["wait_seconds"] == 0
        assert "inline" not in nodes["quick"]

    def test_failure_names_the_node_that_raised(self):
        def explode(x):
            raise ValueError("cursed")

        g = Graph("t")
        q0, q1, q2 = (g.queue(name, 2) for name in ("q0", "q1", "q2"))
        g.add(IterableSource("src", range(5)), output=q0)
        g.add(LambdaNode("head", lambda x: x), input=q0, output=q1)
        g.add(LambdaNode("tail", explode), input=q1, output=q2)
        g.add(CollectSink(), input=q2)
        with pytest.raises(PipelineError) as excinfo:
            Session(g).run(timeout=10)
        assert excinfo.value.node_name == "tail"

    def test_timeout_names_the_node_that_was_executing(self):
        g = Graph("t")
        q0, q1 = g.queue("q0", 2), g.queue("q1", 2)
        g.add(IterableSource("src", range(2)), output=q0)
        g.add(LambdaNode("head", lambda x: x), input=q0, output=q1)
        # Asleep well past the 0.3 s timeout, but back within the run's
        # join grace, so the test does not wait out the grace.
        g.add(LambdaNode("sleeper", lambda x: time.sleep(1.0)), input=q1)
        with pytest.raises(TimeoutError, match="t.head.0, node 'sleeper'"):
            Session(g).run(timeout=0.3)

    @pytest.mark.parametrize("ending", ["closed", "aborted"])
    def test_a_chain_blocked_in_its_tails_put_unwinds(self, ending):
        """Downstream goes away — closes its queue, or fails — while the
        chain sits in ``tail.output.put`` on a full queue."""
        class Quitter(Node):
            def process(self, item, ctx):
                time.sleep(0.05)  # let the chain fill the queue
                if ending == "aborted":
                    raise RuntimeError("downstream died")
                self.input.close()

        g = Graph("t")
        q0, q1, q2 = g.queue("q0", 2), g.queue("q1", 2), g.queue("q2", 1)
        # Four items: one in each quitter replica, one queued, one put
        # blocked (a session does not drain the input of a node whose
        # downstream closed, so the source must be able to finish).
        g.add(IterableSource("src", range(4)), output=q0)
        g.add(LambdaNode("head", lambda x: x), input=q0, output=q1)
        g.add(LambdaNode("tail", lambda x: x), input=q1, output=q2)
        g.add(Quitter("quitter", parallelism=2), input=q2)
        before = threading.active_count()
        if ending == "aborted":
            with pytest.raises(PipelineError) as excinfo:
                Session(g).run(timeout=10)
            assert excinfo.value.node_name == "quitter"
        else:
            Session(g).run(timeout=10)
        assert threading.active_count() == before


class TestWriteBehindLane:
    def test_jobs_run_in_order_a_bounded_number_in_flight(self):
        ran: "list[int]" = []
        peak = 0
        lane = WriteBehindLane()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for i in range(500):
                lane.submit(ran.append, i)
                peak = max(peak, i + 1 - len(ran))
            lane.drain()
        finally:
            sys.setswitchinterval(interval)
            lane.close(timeout=10)
        assert ran == list(range(500))
        assert peak <= 3  # two queued, one running
        assert not [t for t in threading.enumerate() if t.name == "lane"]

    def test_first_failure_skips_the_rest_and_comes_back_to_the_owner(self):
        ran: list = []
        heard: list = []

        def job(i):
            if i == 1:
                raise OSError("disk full")
            ran.append(i)

        lane = WriteBehindLane(on_error=lambda node, exc: heard.append(exc))
        tickets = [lane.submit(job, 0), lane.submit(job, 1)]
        tickets[0].wait()
        with pytest.raises(PipelineAborted):
            tickets[1].wait()  # the waiter is not the one to blame
        with pytest.raises(OSError):
            lane.submit(job, 2)
        with pytest.raises(OSError):
            lane.drain()
        lane.close(timeout=10)
        assert ran == [0] and len(heard) == 1
        with pytest.raises(OSError):
            lane.submit(job, 3)

    def test_a_closed_lane_takes_no_more_jobs(self):
        lane = WriteBehindLane()
        lane.submit(int)
        lane.close(timeout=10)
        with pytest.raises(PipelineAborted):
            lane.submit(int)


@pytest.fixture()
def aligned_on_disk(reads, reference, aligned_results, tmp_path):
    ds = import_reads(reads, "aligned", DirectoryStore(tmp_path / "in"),
                      chunk_size=100, reference=reference.manifest_entry())
    ds.append_column("results", list(aligned_results))
    return ds


def eager_bytes(dataset, reference):
    """The eager sort -> dupmark -> varcall chain's output."""
    store = MemoryStore()
    sorted_ds = sort_dataset(dataset, store, SORT_CONFIG)
    mark_duplicates(sorted_ds)
    blobs = {key: bytes(store.get(key)) for key in store.keys()}
    blobs["manifest"] = sorted_ds.manifest.to_json()
    blobs["vcf"] = vcf_lines(
        call_variants(sorted_ds, reference, VARCALL_CONFIG), reference)
    return blobs


def vcf_lines(variants, reference):
    buf = io.BytesIO()
    write_vcf(variants, buf, contigs=reference.manifest_entry())
    return buf.getvalue()


class TestThreadBudget:
    """Fails on the parent: it started 10 and 13 threads."""

    def run(self, dataset, stages, reference, tmp_path, monkeypatch, **kw):
        out = DirectoryStore(tmp_path / "out")
        threads = started_threads(monkeypatch)
        outcome = run_pipeline(
            dataset, stages, reference=reference, sort_config=SORT_CONFIG,
            varcall_config=VARCALL_CONFIG, output_store=out,
            scratch_store=DirectoryStore(tmp_path / "scratch"), **kw)
        blobs = {key: out.get(key) for key in out.keys()}
        blobs["manifest"] = outcome.sorted_dataset.manifest.to_json()
        blobs["vcf"] = vcf_lines(outcome.variants, reference)
        assert not [t for t in threading.enumerate() if "lane" in t.name]
        assert not list((tmp_path / "out").rglob("*.tmp"))
        return threads, blobs

    def test_downstream_run_starts_seven_threads(
        self, aligned_on_disk, reference, tmp_path, monkeypatch
    ):
        threads, blobs = self.run(
            aligned_on_disk, ("sort", "dupmark", "varcall"), reference,
            tmp_path, monkeypatch)
        assert len(threads) <= 7, threads
        assert "pipeline.lane" in threads
        assert blobs == eager_bytes(aligned_on_disk, reference)

    def test_whole_run_starts_nine_threads(
        self, reads, reference, snap_aligner, aligned_on_disk, tmp_path,
        monkeypatch,
    ):
        """Named ``serial`` or left to the default, which is serial: no
        backend pool beside the node threads."""
        expected = eager_bytes(aligned_on_disk, reference)
        for kw in ({"backend": "serial"}, {}):
            dataset = import_reads(
                reads, "aligned", MemoryStore(), chunk_size=100,
                reference=reference.manifest_entry())
            with monkeypatch.context() as patch:
                threads, blobs = self.run(
                    dataset, ("align", "sort", "dupmark", "varcall"),
                    reference, tmp_path / str(len(kw)), patch,
                    aligner=snap_aligner, **kw)
            assert len(threads) <= 9, (kw, threads)
            assert blobs == expected


class GatedStore(MemoryStore):
    """``put`` logs, then blocks until ``gate`` is set."""

    def __init__(self, log):
        super().__init__()
        self.log, self.gate = log, threading.Event()
        self.entered = threading.Event()

    def put(self, key, data):
        self.entered.set()
        assert self.gate.wait(10)
        super().put(key, data)
        self.log.append(("put", key))


class AckLog:
    """An ``AckSinkNode``'s manual-ack ingress, recording."""

    def __init__(self, log):
        self.log = log

    def ack_key(self, key):
        self.log.append(("ack", key))


def sort_then_ack(dataset, store, log):
    """A sort stage whose sorted chunks end in an acknowledging sink —
    the shape of a placed group that hosts ``sort``."""
    stage = STAGES["sort"].build(
        PipelineSpec(dataset, ("sort",), sort_config=SORT_CONFIG,
                     output_store=store),
        ServerSite(),
    )
    stage.graph.add(AckSinkNode(ack_source=AckLog(log)), input=stage.sink)
    return stage.graph


class TestNothingIsAcknowledgedBeforeItIsStored:
    def test_acks_and_chunk_done_wait_for_the_put(
        self, aligned_dataset, tmp_path
    ):
        log: list = []
        store = GatedStore(log)
        ledger = RunLedger.create(tmp_path / "ledger")
        graph = sort_then_ack(
            aligned_dataset, JournaledStore(store, ledger, "sort"), log)
        runner = threading.Thread(target=Session(graph).run, daemon=True)
        runner.start()
        assert store.entered.wait(10)
        time.sleep(0.2)  # the chain has long reached the ack sink
        assert log == []
        assert b"chunk_done" not in ledger.path.read_bytes()
        store.gate.set()
        runner.join(10)
        assert not runner.is_alive()
        ledger.close()
        acks = [key for kind, key in log if kind == "ack"]
        assert len(acks) == 6
        for path in acks:
            puts = [i for i, (kind, key) in enumerate(log)
                    if kind == "put" and key.startswith(f"{path}.")]
            assert len(puts) == 4
            assert max(puts) < log.index(("ack", path))

    def test_a_failed_write_fails_the_merge_and_acks_nothing_after(
        self, aligned_dataset, tmp_path
    ):
        class FailingStore(DirectoryStore):
            def put(self, key, data):
                if key.startswith("aligned-sorted-2."):
                    raise OSError("disk full")
                super().put(key, data)

        log: list = []
        graph = sort_then_ack(
            aligned_dataset, FailingStore(tmp_path / "out"), log)
        with pytest.raises(PipelineError) as excinfo:
            Session(graph).run(timeout=10)
        assert excinfo.value.node_name == "sort_merge"
        assert isinstance(excinfo.value.__cause__, OSError)
        assert ("ack", "aligned-sorted-2") not in log
        assert len(log) < 6
        assert not [t for t in threading.enumerate() if "lane" in t.name]
        assert not list((tmp_path / "out").rglob("*.tmp"))
