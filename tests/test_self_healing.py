"""Self-healing broker plane: deadlines, quarantine, admission.

The acceptance properties of the robustness layer:

* a delivery held past its deadline fences the holder, requeues its
  chunks (fresh tags, so stale acks never credit reissued work), and
  the run still completes byte-identical to the single-``Session`` run;
* a poison chunk that kills every worker that touches it is quarantined
  to the edge's dead-letter queue after ``max_redeliveries`` strikes,
  journaled to the run ledger, and the run completes DEGRADED — byte-
  identical to a clean run over the surviving chunks;
* the broker's adopted shared memory is bounded by edge backpressure:
  a full edge refuses the publish and unlinks its segment;
* a worker admitted into a RUNNING placed pipeline pulls real work and
  the combined output stays byte-identical.
"""

from __future__ import annotations

import io
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.align.base import ReadAligner
from repro.cluster import broker as broker_mod
from repro.cluster.broker import (
    Broker,
    BrokerError,
    BrokerServer,
    LocalBrokerClient,
    TcpBrokerClient,
)
from repro.cluster.multiserver import (
    WorkerKilled,
    join_placed_worker,
    run_placed_pipeline,
)
from repro.cluster.placement import WORK_EDGE, PlacementPlan
from repro.core.ledger import CHAOS_MODE_ENV, CRASH_ENV, RunLedger
from repro.core.pipelines import PipelineSpec, run_pipeline
from repro.core.sort import SortConfig, verify_sorted
from repro.core.subgraphs import AlignGraphConfig
from repro.dataflow import shm as shm_plane
from repro.dataflow.queues import (
    DELIVERY_FENCED,
    EDGE_ABORTED,
    EDGE_CLOSED,
    PUBLISH_FULL,
    PUBLISH_OK,
    PULL_EMPTY,
    PULL_OK,
)
from repro.formats.converters import import_reads
from repro.formats.vcf import write_vcf
from repro.genome.reference import write_fasta
from repro.genome.synthetic import synthetic_dataset
from repro.storage.base import DirectoryStore, MemoryStore

SORT_CONFIG = SortConfig(chunks_per_superchunk=2)

#: Strictly FIFO per-worker processing: one chunk in flight per node, so
#: a worker's held set is fixed the moment it stalls and the broker's
#: front-of-edge requeue order is observable.
SHALLOW_ALIGN = AlignGraphConfig(
    aligner_nodes=1, reader_nodes=1, parser_nodes=1, queue_depth=1,
)


def _pull_until(client, edge: str, want=PULL_OK, tries: int = 400,
                pause: float = 0.01):
    """Poll an edge until ``want`` comes back (polling also drives the
    broker's piggybacked servicing pass: expiry, backoff promotion)."""
    last = None
    for _ in range(tries):
        last = client.pull(edge, timeout=0.01)
        if last[0] == want:
            return last
        time.sleep(pause)
    raise AssertionError(f"never saw {want!r} on {edge!r}; last {last!r}")


# ------------------------------------------------------------ deadlines


class TestDeliveryDeadlines:
    def test_fixed_deadline_fences_and_redelivers(self, monkeypatch):
        monkeypatch.setattr(broker_mod, "_BACKOFF_BASE", 0.01)
        monkeypatch.setattr(broker_mod, "_BACKOFF_CAP", 0.05)
        broker = Broker(delivery_deadline=0.08)
        broker.create_edge("e", capacity=8, producers=1)
        producer = LocalBrokerClient(broker)
        slow = LocalBrokerClient(broker)
        survivor = LocalBrokerClient(broker)
        producer.attach_producer("e")
        assert producer.publish("e", "k", b"payload") == PUBLISH_OK

        status, tag1, key, _ = slow.pull("e")
        assert (status, key) == (PULL_OK, "k")
        time.sleep(0.12)  # hold past the 80ms deadline

        status, tag2, key, payload = _pull_until(survivor, "e")
        assert key == "k" and payload == b"payload"
        assert tag2 != tag1  # fresh tag on reissue
        assert broker.is_fenced(slow.consumer)
        assert slow.pull("e")[0] == DELIVERY_FENCED

        # The fenced worker's stale ack must not credit the reissue.
        slow.ack("e", tag2)
        assert broker.stats()["e"]["unacked"] == 1
        survivor.ack("e", tag2)
        producer.producer_done("e")
        assert survivor.pull("e")[0] == EDGE_CLOSED

        stats = broker.stats()["e"]
        assert stats["total_expired"] >= 1
        assert stats["total_redelivered"] >= 1

    def test_auto_deadline_is_lenient_until_estimate_warms(self,
                                                           monkeypatch):
        monkeypatch.setattr(broker_mod, "_DEADLINE_MIN", 0.05)
        monkeypatch.setattr(broker_mod, "_DEADLINE_MAX", 600.0)
        broker = Broker(delivery_deadline="auto")
        broker.create_edge("e", capacity=4, producers=1)
        producer = LocalBrokerClient(broker)
        worker = LocalBrokerClient(broker)
        other = LocalBrokerClient(broker)
        producer.attach_producer("e")
        producer.publish("e", "k", b"p")
        status, tag, _, _ = worker.pull("e")
        assert status == PULL_OK
        # Cold estimate: only the _DEADLINE_MAX ceiling applies, so a
        # slow first chunk is never fenced spuriously.
        time.sleep(0.1)
        for _ in range(5):
            other.pull("e", timeout=0.01)
            time.sleep(0.02)
        assert not broker.is_fenced(worker.consumer)
        worker.ack("e", tag)
        assert broker.stats()["e"]["service_ewma"] is not None

    def test_deadline_off_never_fences(self):
        broker = Broker(delivery_deadline="off")
        broker.create_edge("e", capacity=4, producers=1)
        producer = LocalBrokerClient(broker)
        worker = LocalBrokerClient(broker)
        other = LocalBrokerClient(broker)
        producer.attach_producer("e")
        producer.publish("e", "k", b"p")
        assert worker.pull("e")[0] == PULL_OK
        time.sleep(0.1)
        for _ in range(5):
            other.pull("e", timeout=0.01)
            time.sleep(0.02)
        assert not broker.is_fenced(worker.consumer)

    def test_rejects_bad_policy_knobs(self):
        with pytest.raises(ValueError, match="positive"):
            Broker(delivery_deadline=0.0)
        with pytest.raises(ValueError, match="on_poison"):
            Broker(on_poison="retry")
        with pytest.raises(ValueError, match="negative"):
            Broker(max_redeliveries=-1)

    def test_backoff_parks_then_promotes_in_original_order(self,
                                                           monkeypatch):
        monkeypatch.setattr(broker_mod, "_BACKOFF_BASE", 0.2)
        monkeypatch.setattr(broker_mod, "_BACKOFF_CAP", 0.2)
        broker = Broker(delivery_deadline="off")
        broker.create_edge("e", capacity=8, producers=1)
        producer = LocalBrokerClient(broker)
        producer.attach_producer("e")
        producer.publish("e", "k0", b"p0")
        producer.publish("e", "k1", b"p1")

        dying = LocalBrokerClient(broker)
        assert dying.pull("e")[2] == "k0"
        assert dying.pull("e")[2] == "k1"
        dying.close()  # drop: strike + park both under backoff

        survivor = LocalBrokerClient(broker)
        assert survivor.pull("e")[0] == PULL_EMPTY  # parked, not visible
        assert broker.stats()["e"]["delayed"] == 2
        time.sleep(0.25)
        # Promotion restores the ORIGINAL order at the front of the edge.
        assert _pull_until(survivor, "e")[2] == "k0"
        assert survivor.pull("e")[2] == "k1"

    def test_idle_producer_is_fenced(self):
        broker = Broker(delivery_deadline=0.05)
        broker.create_edge("work", capacity=4, producers=1)
        broker.create_edge("out", capacity=4, producers=1)
        coordinator = LocalBrokerClient(broker)
        coordinator.attach_producer("work")
        coordinator.publish("work", "c0", b"p")
        coordinator.producer_done("work")

        worker = LocalBrokerClient(broker)
        worker.attach_producer("out")
        status, tag, _, _ = worker.pull("work")
        assert status == PULL_OK
        worker.ack("work", tag)
        # ...and now the worker freezes holding its "out" producer slot:
        # nothing unacked anywhere, so no delivery deadline covers it,
        # but it blocks the edge from ever closing.
        downstream = LocalBrokerClient(broker)
        assert _pull_until(downstream, "out", want=EDGE_CLOSED)
        assert broker.is_fenced(worker.consumer)

    def test_zero_pull_producer_is_exempt_from_idle_fence(self):
        broker = Broker(delivery_deadline=0.05)
        broker.create_edge("out", capacity=4, producers=1)
        coordinator = LocalBrokerClient(broker)
        coordinator.attach_producer("out")  # never pulls (publisher only)
        other = LocalBrokerClient(broker)
        deadline = time.monotonic() + 0.4
        while time.monotonic() < deadline:
            other.pull("out", timeout=0.01)
            time.sleep(0.02)
        assert not broker.is_fenced(coordinator.consumer)


# ----------------------------------------------------------- quarantine


class TestPoisonQuarantine:
    def test_quarantine_after_redelivery_budget(self, monkeypatch):
        monkeypatch.setattr(broker_mod, "_BACKOFF_BASE", 0.01)
        monkeypatch.setattr(broker_mod, "_BACKOFF_CAP", 0.01)
        broker = Broker(delivery_deadline="off", max_redeliveries=1)
        captured = []
        broker.quarantine_listener = \
            lambda edge, record: captured.append((edge, record))
        broker.create_edge("e", capacity=4, producers=1)
        producer = LocalBrokerClient(broker)
        producer.attach_producer("e")
        producer.publish("e", "poison", b"bad")

        for _ in range(2):  # two strikes exhaust max_redeliveries=1
            victim = LocalBrokerClient(broker)
            if victim.pull("e")[0] != PULL_OK:
                _pull_until(victim, "e")
            victim.close()

        edge, record = captured[0]
        assert edge == "e"
        assert record["key"] == "poison"
        assert record["strikes"] == 2
        assert len(record["history"]) == 2
        assert broker.quarantined() == {"e": [record]}
        assert LocalBrokerClient(broker).quarantined_keys() == {"poison"}

        stats = broker.stats()["e"]
        assert stats["total_quarantined"] == 1
        assert stats["quarantined"] == ["poison"]
        # A resumed producer republishing the dead key is swallowed.
        assert producer.publish("e", "poison", b"bad") == PUBLISH_OK
        assert broker.stats()["e"]["pending"] == 0
        producer.producer_done("e")
        assert broker.wait_complete(timeout=2.0)

    def test_on_poison_fail_aborts_every_edge(self):
        broker = Broker(delivery_deadline="off", max_redeliveries=0,
                        on_poison="fail")
        broker.create_edge("e", capacity=4, producers=1)
        broker.create_edge("other", capacity=4, producers=1)
        producer = LocalBrokerClient(broker)
        producer.attach_producer("e")
        producer.publish("e", "poison", b"bad")
        victim = LocalBrokerClient(broker)
        assert victim.pull("e")[0] == PULL_OK
        victim.close()  # strike 1 > budget 0: immediate quarantine

        assert broker.poison_failure == ("e", "poison")
        bystander = LocalBrokerClient(broker)
        assert bystander.pull("other")[0] == EDGE_ABORTED
        assert broker.wait_complete(timeout=2.0)


# ------------------------------------------------------- live admission


class TestWorkerAdmission:
    def _broker_with_plan(self, text="A=align;B=sort,dupmark,varcall"):
        plan = PlacementPlan.parse(text)
        broker = Broker()
        broker.plan_doc = plan.to_doc()
        for spec in plan.edges():
            broker.create_edge(spec.name, capacity=4,
                               producers=spec.producers)
        return broker, plan

    def test_admit_grows_plan_and_producer_slot(self):
        broker, plan = self._broker_with_plan()
        client = LocalBrokerClient(broker)
        doc = client.admit("late", "A")
        grown = PlacementPlan.from_doc(doc)
        assert grown.placement_for("late").stages == ("align",)
        egress = plan.egress_edge("A")
        assert broker.stats()[egress]["producers_remaining"] == 2
        assert broker.live_replicas(("align",)) == ["late"]
        # The broker serves the grown plan to future workers too.
        assert broker.plan_doc == doc

    def test_admit_rejects_bad_requests(self):
        broker, plan = self._broker_with_plan()
        with pytest.raises(BrokerError):
            broker.admit_worker("late", "nobody")  # unknown template
        with pytest.raises(BrokerError):
            broker.admit_worker("late", "B")  # stateful, not replicable
        with pytest.raises(BrokerError):
            broker.admit_worker("A", "A")  # duplicate server name
        assert Broker().plan_doc is None
        with pytest.raises(BrokerError, match="no placement plan"):
            Broker().admit_worker("late", "A")

    def test_admit_refused_after_group_finished(self):
        broker, plan = self._broker_with_plan()
        egress = plan.egress_edge("A")
        broker.producer_done(egress)  # the only align replica finished
        with pytest.raises(BrokerError, match="closed"):
            broker.admit_worker("late", "A")

    def test_fenced_replica_leaves_live_set(self):
        broker, _ = self._broker_with_plan()
        client = LocalBrokerClient(broker)
        client.admit("late", "A")
        assert broker.live_replicas(("align",)) == ["late"]
        broker.fence_consumer(client.consumer)
        assert broker.live_replicas(("align",)) == []


# ------------------------------------------------- adopted shm bound


@pytest.mark.skipif(not shm_plane.shm_available(),
                    reason="POSIX shared memory unavailable")
class TestAdoptionBound:
    def test_full_edge_holds_at_most_capacity_plus_one_segments(self):
        """With no consumer, the broker's ``/dev/shm`` footprint is
        bounded by the edge: ``capacity`` pending deliveries plus the one
        publish in flight.  A refused (``full``) publish leaves no
        segment behind, and ``stop()`` leaves none at all."""
        capacity = 2
        broker = Broker(delivery_deadline="off")
        broker.create_edge("e", capacity=capacity, producers=1)
        server = BrokerServer(broker, shm=True).start()
        if not server.shm_enabled:
            server.stop()
            pytest.skip("broker could not arm the shm handoff")
        prefix = server._pool.prefix
        peak = 0
        sampling = threading.Event()
        sampling.set()

        def sample() -> None:
            nonlocal peak
            while sampling.is_set():
                peak = max(peak, server._pool.stats()["adopted_live"])
                time.sleep(0.0005)

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        producer = None
        statuses = []
        try:
            producer = TcpBrokerClient(server.host, server.port)
            assert producer.shm_active
            producer.attach_producer("e")
            for i in range(3 * capacity):
                statuses.append(producer.publish(
                    "e", f"k{i}", os.urandom(100_000), timeout=0.05))
                held = statuses.count(PUBLISH_OK)
                assert server._pool.stats()["adopted_live"] == held
                assert len(shm_plane.list_segments(f"{prefix}-c")) == held
        finally:
            sampling.clear()
            sampler.join(5.0)
            if producer is not None:
                producer.close()
            server.stop()
        assert statuses == ([PUBLISH_OK] * capacity
                            + [PUBLISH_FULL] * (2 * capacity))
        assert not sampler.is_alive()
        assert capacity <= peak <= capacity + 1
        assert shm_plane.list_segments(prefix) == []


# ------------------------------------------------------------ chaos hook


class TestChaosHook:
    @pytest.mark.parametrize("raw,expected", [
        ("", ("crash", 0.0)),
        ("crash", ("crash", 0.0)),
        ("hang", ("hang", 3600.0)),
        ("hang:2", ("hang", 2.0)),
        ("slow:250", ("slow", 0.25)),
        ("slow", ("slow", 0.1)),
        ("garbage:x", ("crash", 0.0)),
    ])
    def test_parse_chaos_modes(self, monkeypatch, raw, expected):
        from repro.core.ledger import _parse_chaos_mode

        monkeypatch.setenv(CHAOS_MODE_ENV, raw)
        assert _parse_chaos_mode() == expected

    def test_hang_fires_once(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CRASH_ENV, "align:1")
        monkeypatch.setenv(CHAOS_MODE_ENV, "hang:0.3")
        ledger = RunLedger.create(tmp_path, run_id="hang")
        t0 = time.monotonic()
        ledger.chunk_done("align", "c0", "d0")
        assert time.monotonic() - t0 >= 0.3
        t1 = time.monotonic()
        ledger.chunk_done("align", "c1", "d1")
        assert time.monotonic() - t1 < 0.2  # one-shot
        ledger.close()

    def test_slow_fires_on_every_matching_chunk(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv(CRASH_ENV, "align:1")
        monkeypatch.setenv(CHAOS_MODE_ENV, "slow:100")
        ledger = RunLedger.create(tmp_path, run_id="slow")
        for key in ("c0", "c1"):
            t0 = time.monotonic()
            ledger.chunk_done("align", key, "d")
            assert time.monotonic() - t0 >= 0.1
        ledger.close()

    def test_quarantine_record_replays(self, tmp_path):
        ledger = RunLedger.create(tmp_path, run_id="q")
        ledger.quarantine("work", {
            "key": "pg-5", "strikes": 3,
            "history": ["attempt 1: died", "attempt 2: died"],
        })
        ledger.close()
        state = RunLedger.replay(tmp_path / "q.jsonl")
        assert state.quarantined["work"][0]["key"] == "pg-5"
        assert state.quarantined["work"][0]["strikes"] == 3


# ----------------------------------------------------- placed end-to-end


class _HangingAligner(ReadAligner):
    """Stalls hard on its first read (a SIGSTOPped-worker stand-in)."""

    def __init__(self, inner, sleep_s: float):
        self._inner = inner
        self._sleep = sleep_s
        self._fired = False

    def align_read(self, bases):
        if not self._fired:
            self._fired = True
            time.sleep(self._sleep)
        return self._inner.align_read(bases)


class _PoisonAligner(ReadAligner):
    """Kills the worker on one specific read's bases (a poison chunk).

    The death is delayed a beat so the victim's sink thread drains
    (publishes + acks) the chunks it aligned BEFORE the poison one:
    the death then strikes exactly the poison chunk.  Without the
    delay, alignment outpaces the TCP publish of the neighbouring
    chunk, and that innocent — redelivered together with the poison
    chunk, in seq order, to the next victim — collects a strike at
    EVERY death and ends up quarantined alongside it."""

    def __init__(self, inner, poison_bases, death_delay: float = 0.5):
        self._inner = inner
        self._poison = poison_bases
        self._delay = death_delay

    def align_read(self, bases):
        if bases == self._poison:
            time.sleep(self._delay)
            raise WorkerKilled("simulated poison chunk")
        return self._inner.align_read(bases)


class _SlowAligner(ReadAligner):
    """Delays every read (leaves the work edge a backlog to rebalance)."""

    def __init__(self, inner, delay: float):
        self._inner = inner
        self._delay = delay

    def align_read(self, bases):
        time.sleep(self._delay)
        return self._inner.align_read(bases)


@pytest.fixture()
def fresh_dataset(reads, reference):
    def factory(chunk_size: int = 100):
        return import_reads(
            reads, "pg", MemoryStore(), chunk_size=chunk_size,
            reference=reference.manifest_entry(),
        )
    return factory


@pytest.fixture(scope="module")
def degraded_single(reads, reference, snap_aligner):
    """Reference for DEGRADED runs: the single-Session run over the
    first five chunks only (the poison tests quarantine ``pg-5``)."""
    dataset = import_reads(
        reads[:500], "pg", MemoryStore(), chunk_size=100,
        reference=reference.manifest_entry(),
    )
    return run_pipeline(
        dataset,
        ("align", "sort", "dupmark", "varcall"),
        aligner=snap_aligner,
        reference=reference,
        sort_config=SORT_CONFIG,
        backend="serial",
    )


@pytest.fixture(scope="module")
def single_session_24(reads, reference, snap_aligner):
    """Single-Session reference over the SAME reads split into 24
    chunks (chunk_size=25).  Placed tests that need fine chunking to
    defeat prefetch hoarding (a replica's local pipeline eagerly
    claims ~7 chunk names) compare against this — sorted output is
    only byte-identical under identical import chunking."""
    dataset = import_reads(
        reads, "pg", MemoryStore(), chunk_size=25,
        reference=reference.manifest_entry(),
    )
    return run_pipeline(
        dataset,
        ("align", "sort", "dupmark", "varcall"),
        aligner=snap_aligner,
        reference=reference,
        sort_config=SORT_CONFIG,
        backend="serial",
    )


@pytest.fixture(scope="module")
def degraded_single_24(reads, reference, snap_aligner):
    """Degraded reference at chunk_size=25: everything but the final
    chunk (reads 575-599), which the combo test quarantines."""
    dataset = import_reads(
        reads[:575], "pg", MemoryStore(), chunk_size=25,
        reference=reference.manifest_entry(),
    )
    return run_pipeline(
        dataset,
        ("align", "sort", "dupmark", "varcall"),
        aligner=snap_aligner,
        reference=reference,
        sort_config=SORT_CONFIG,
        backend="serial",
    )


@pytest.fixture(scope="module")
def poison_bases(reads):
    """Bases of a read as close as possible to the END of the read
    set, unique across the whole set.  The position is load-bearing
    twice over:

    * It sits in the final chunk under every chunking these tests use
      (``pg-5`` at chunk_size=100, chunk 23 at chunk_size=25).  The
      broker issues and re-issues deliveries in seq order, so the
      highest-seq chunk is always the LAST name any worker pulls —
      a worker dying on it has already aligned-and-acked everything
      it claimed earlier, and the death strikes no innocent chunk.
    * Quarantining the final chunk leaves the ordinal hole at the
      end, so a fresh import of the surviving reads renumbers them
      identically and the degraded byte-identity comparison holds.
    * Being late WITHIN the chunk, dozens of reads align (and the
      previous chunk's in-flight publish drains) before it fires.
    """
    counts = Counter(r.bases for r in reads)
    for r in reversed(reads[575:600]):
        if counts[r.bases] == 1:
            return r.bases
    raise AssertionError("no unique read in the last chunk")


def vcf_bytes(variants, reference) -> bytes:
    buf = io.BytesIO()
    write_vcf(variants, buf, contigs=reference.manifest_entry())
    return buf.getvalue()


def assert_matches_single(placed, single, reference) -> None:
    assert verify_sorted(placed.sorted_dataset)
    assert placed.sorted_dataset.manifest.columns == \
        single.sorted_dataset.manifest.columns
    for column in single.sorted_dataset.columns:
        assert (placed.sorted_dataset.read_column(column)
                == single.sorted_dataset.read_column(column)), column
    for entry in single.sorted_dataset.manifest.chunks:
        for column in single.sorted_dataset.columns:
            key = entry.chunk_file(column)
            assert placed.sorted_dataset.store.get(key) == \
                single.sorted_dataset.store.get(key), key
    assert (placed.dupmark_stats.records,
            placed.dupmark_stats.duplicates_marked) == (
        single.dupmark_stats.records,
        single.dupmark_stats.duplicates_marked,
    )
    assert vcf_bytes(placed.variants, reference) == \
        vcf_bytes(single.variants, reference)


class TestSelfHealingPlaced:
    def test_hung_worker_fenced_and_run_completes(
        self, fresh_dataset, snap_aligner, reference, single_session_24
    ):
        """A worker that stalls mid-chunk is fenced at the delivery
        deadline, its chunks are reissued to the healthy replica, and
        its late (post-fence) publishes are rejected — output stays
        byte-identical, nothing lost, nothing doubled.

        24 chunks matter: each replica's local pipeline prefetches ~7
        chunk names, so with the default 6 chunks the healthy replica
        can hoard the whole edge before the stalled one claims any —
        and a worker that never pulled is never fenced."""
        plan = PlacementPlan.parse("hang=align;ok=align;"
                                   "B=sort,dupmark,varcall")

        def factory(server):
            if server == "hang":
                return _HangingAligner(snap_aligner, sleep_s=3.0)
            return snap_aligner

        placed = run_placed_pipeline(
            fresh_dataset(chunk_size=25),
            plan,
            aligner_factory=factory,
            reference=reference,
            align_config=SHALLOW_ALIGN,
            sort_config=SORT_CONFIG,
            backend="serial",
            delivery_deadline=1.0,
            session_timeout=120.0,
        )
        hang = placed.server("hang")
        ok = placed.server("ok")
        assert hang.killed  # fenced, surfaced exactly like a death
        assert not ok.killed
        stats = placed.broker_stats[WORK_EDGE]
        assert stats["total_expired"] >= 1
        assert stats["total_redelivered"] >= 1
        assert not placed.quarantined
        assert hang.chunks + ok.chunks == 24  # exactly once
        assert_matches_single(placed, single_session_24, reference)

    def test_poison_chunk_quarantined_run_completes_degraded(
        self, fresh_dataset, snap_aligner, reference, degraded_single,
        poison_bases, tmp_path, monkeypatch,
    ):
        """A chunk that kills every worker that touches it is dead-
        lettered after its redelivery budget, journaled to the ledger,
        and the run completes byte-identical to a clean run over the
        surviving chunks."""
        dataset = fresh_dataset()
        poison_key = dataset.manifest.chunks[5].path
        plan = PlacementPlan.parse(
            "d1=align;d2=align;ok=align;B=sort,dupmark,varcall"
        )

        def factory(server):  # noqa: ARG001 - every replica is at risk
            return _PoisonAligner(snap_aligner, poison_bases)

        # Slow redelivery well past innocent in-flight completion, so
        # only the poison chunk ever accumulates strikes.
        monkeypatch.setattr(broker_mod, "_BACKOFF_BASE", 0.5)
        ledger = RunLedger.create(tmp_path, run_id="poisoned")
        placed = run_placed_pipeline(
            dataset,
            plan,
            aligner_factory=factory,
            reference=reference,
            align_config=SHALLOW_ALIGN,
            sort_config=SORT_CONFIG,
            backend="serial",
            max_redeliveries=1,
            session_timeout=120.0,
            ledger=ledger,
        )
        ledger.close()

        assert sum(1 for s in placed.servers if s.killed) == 2
        [record] = placed.quarantined[WORK_EDGE]
        assert record["key"] == poison_key
        assert record["strikes"] == 2
        stats = placed.broker_stats[WORK_EDGE]
        assert stats["total_quarantined"] == 1
        assert stats["quarantined"] == [poison_key]
        # Survivors completed exactly the five innocent chunks.
        assert sum(s.chunks for s in placed.servers
                   if "align" in s.stages) == 5
        assert_matches_single(placed, degraded_single, reference)

        # The quarantine is durable: the journal replays the record.
        state = RunLedger.replay(tmp_path / "poisoned.jsonl")
        assert state.status == "complete"
        [journaled] = state.quarantined[WORK_EDGE]
        assert journaled["key"] == poison_key
        assert journaled["strikes"] == 2
        assert len(journaled["history"]) == 2

    def test_mid_run_admitted_worker_pulls_real_work(
        self, fresh_dataset, snap_aligner, reference
    ):
        """A worker that joins a RUNNING placed pipeline over TCP is
        admitted as an align replica, drains real deliveries, and the
        combined output stays byte-identical.

        Finer chunking (20 chunks) matters: a planned replica's local
        pipeline eagerly prefetches ~7 chunk names into its internal
        queues, so with the default 6 chunks a newcomer would find the
        work edge already drained no matter how slow the incumbent is.
        """
        dataset = fresh_dataset(chunk_size=30)
        assert dataset.manifest.num_chunks == 20
        single = run_pipeline(
            fresh_dataset(chunk_size=30),
            ("align", "sort", "dupmark", "varcall"),
            aligner=snap_aligner,
            reference=reference,
            sort_config=SORT_CONFIG,
            backend="serial",
        )
        plan = PlacementPlan.parse("A=align;B=sort,dupmark,varcall")
        joined: dict = {}
        threads: list = []

        def on_ready(broker, server_tcp):
            def join():
                try:
                    joined["outcome"] = join_placed_worker(
                        PipelineSpec(
                            dataset, plan.stages, reference=reference,
                            align_config=SHALLOW_ALIGN, backend="serial",
                        ),
                        "late", "A",
                        host=server_tcp.host, port=server_tcp.port,
                        aligner=snap_aligner,
                    )
                except BaseException as exc:  # surfaced by the test body
                    joined["error"] = exc
            t = threading.Thread(target=join, name="late-joiner")
            t.start()
            threads.append(t)

        placed = run_placed_pipeline(
            dataset,
            plan,
            # The planned replica is slow, so the newcomer has plenty of
            # outstanding chunk names to steal from the work edge.
            aligner_factory=lambda server: _SlowAligner(
                snap_aligner, 0.01
            ),
            reference=reference,
            align_config=SHALLOW_ALIGN,
            sort_config=SORT_CONFIG,
            backend="serial",
            transport="tcp",
            broker_ready=on_ready,
            session_timeout=120.0,
        )
        for t in threads:
            t.join(timeout=60.0)
        assert "error" not in joined, joined.get("error")
        late = joined["outcome"]
        assert not late.killed
        assert late.stages == ("align",)
        assert late.chunks >= 1
        pulls = placed.broker_stats[WORK_EDGE]["pulls_by_consumer"]
        assert pulls[str(late.consumer)] > 0
        assert late.chunks + placed.server("A").chunks == 20
        assert_matches_single(placed, single, reference)

    def test_tcp_run_heals_stall_and_poison_together(
        self, fresh_dataset, snap_aligner, reference, degraded_single_24,
        poison_bases, monkeypatch,
    ):
        """The acceptance run: a placed TCP pipeline with a stalled
        worker AND a poison chunk completes byte-identical to a clean
        run minus the quarantined chunk.

        Three things keep the quarantine outcome deterministic despite
        the reissue churn.  24 chunks: the stalled worker always claims
        part of the edge (one healthy prefetcher can't hoard 24 names),
        so it is always fenced.  Poison in the highest-seq chunk: it is
        the LAST delivery both initially and on every seq-ordered
        reissue, so (with ``death_delay`` letting the sink drain) each
        death strikes the poison chunk alone.  Redelivery backoff ==
        the 2s deadline: the first reissue of ANYTHING lands after the
        hung worker is fenced, so no chunk can pick up a death-strike
        and then ride into the hung worker's open prefetch slots for a
        second, quarantining strike at the fence."""
        dataset = fresh_dataset(chunk_size=25)
        poison_key = dataset.manifest.chunks[23].path
        plan = PlacementPlan.parse(
            "hang=align;d1=align;d2=align;ok=align;"
            "B=sort,dupmark,varcall"
        )

        def factory(server):
            if server == "hang":
                return _HangingAligner(snap_aligner, sleep_s=5.0)
            return _PoisonAligner(snap_aligner, poison_bases)

        # Backoff == the delivery deadline: every reissue happens AFTER
        # the hung worker is fenced and can no longer pull.
        monkeypatch.setattr(broker_mod, "_BACKOFF_BASE", 2.0)
        placed = run_placed_pipeline(
            dataset,
            plan,
            aligner_factory=factory,
            reference=reference,
            align_config=SHALLOW_ALIGN,
            sort_config=SORT_CONFIG,
            backend="serial",
            transport="tcp",
            delivery_deadline=2.0,
            max_redeliveries=1,
            session_timeout=120.0,
        )
        hang = placed.server("hang")
        assert hang.killed  # fenced at the deadline
        stats = placed.broker_stats[WORK_EDGE]
        assert stats["total_expired"] >= 1
        assert stats["total_redelivered"] >= 1
        records = placed.quarantined[WORK_EDGE]
        assert [r["key"] for r in records] == [poison_key], records
        [record] = records
        # The 23 innocent chunks completed exactly once despite the
        # fence-and-death reissue churn.
        assert sum(s.chunks for s in placed.servers
                   if "align" in s.stages) == 23
        assert_matches_single(placed, degraded_single_24, reference)


# ------------------------------------------------- CLI subprocess (SIGSTOP)


SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def _run_cli(args, env=None, timeout=180):
    full_env = os.environ.copy()
    full_env["PYTHONPATH"] = (
        str(SRC_DIR) + os.pathsep + full_env.get("PYTHONPATH", "")
    )
    full_env.pop(CRASH_ENV, None)
    full_env.pop(CHAOS_MODE_ENV, None)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True, text=True, env=full_env, timeout=timeout,
    )


def _popen_cli(args):
    full_env = os.environ.copy()
    full_env["PYTHONPATH"] = (
        str(SRC_DIR) + os.pathsep + full_env.get("PYTHONPATH", "")
    )
    full_env.pop(CRASH_ENV, None)
    full_env.pop(CHAOS_MODE_ENV, None)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=full_env,
    )


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _wait_port(port: int, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            socket.create_connection(("127.0.0.1", port),
                                     timeout=0.2).close()
            return
        except OSError:
            time.sleep(0.05)
    raise AssertionError(f"broker never listened on {port}")


def _tree_bytes(root: Path) -> "dict[str, bytes]":
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


class TestStoppedWorkerCli:
    def test_sigstopped_worker_fenced_and_run_completes(
        self, tmp_path_factory
    ):
        """The real thing: SIGSTOP a live ``persona cluster worker``
        subprocess mid-run.  The broker fences it at the delivery
        deadline, a late-started replica drains its chunks, the run
        completes cleanly — byte-identical to the single-process
        ``persona pipeline`` run — and the thawed worker exits reporting
        it was fenced."""
        work = tmp_path_factory.mktemp("sigstop")
        ref, reads, _ = synthetic_dataset(
            genome_length=30_000, coverage=3.0, seed=777,
            duplicate_fraction=0.1,
        )
        write_fasta(ref, work / "ref.fa")
        for name in ("ds-ref", "ds-run"):
            store = DirectoryStore(work / name)
            ds = import_reads(reads, "smoke", store, chunk_size=150)
            ds.save_manifest(work / name)
        # Sized by chunk count, not by how long a chunk takes: w1
        # prefetches every chunk name before its first result lands, so
        # freezing it strands them all, and the replica that inherits
        # them must finish the lot inside ONE delivery deadline — each
        # chunk costs it a couple of 50 ms broker polls however fast
        # the aligner is, so keep the lot small.
        assert 4 <= ds.num_chunks <= 8

        reference = _run_cli([
            "pipeline", str(work / "ds-ref"), str(work / "out-ref"),
            "--reference", str(work / "ref.fa"),
            "--stages", "align,sort,dupmark,varcall",
            "--vcf", str(work / "ref.vcf"), "--backend", "serial",
        ])
        assert reference.returncode == 0, reference.stderr

        port = _free_port()
        plan = "w1=align;w2=align;B=sort,dupmark,varcall"
        broker = _popen_cli([
            "cluster", "broker", str(work / "ds-run"), "--plan", plan,
            "--host", "127.0.0.1", "--port", str(port),
            "--delivery-deadline", "2", "--timeout", "120",
        ])
        w1 = w2 = b = None
        try:
            _wait_port(port)
            worker_args = [
                "cluster", "worker", str(work / "ds-run"),
                "--connect", f"127.0.0.1:{port}",
                "--reference", str(work / "ref.fa"),
                "--backend", "serial", "--timeout", "120",
            ]
            # Staggered start: w1 runs ALONE until its first aligned
            # chunk lands, so freezing it provably strands pulled work.
            w1 = _popen_cli(worker_args + ["--server", "w1"])
            deadline = time.monotonic() + 60.0
            while not list((work / "ds-run").glob("*.results")):
                assert time.monotonic() < deadline, \
                    "w1 never aligned a chunk"
                assert w1.poll() is None, w1.communicate()[1]
                time.sleep(0.002)
            w1.send_signal(signal.SIGSTOP)

            w2 = _popen_cli(worker_args + ["--server", "w2"])
            b = _popen_cli(worker_args + [
                "--server", "B", "--output-dir", str(work / "out-run"),
                "--vcf", str(work / "run.vcf"),
            ])
            w2_out, w2_err = w2.communicate(timeout=150)
            b_out, b_err = b.communicate(timeout=150)
            assert w2.returncode == 0, w2_err
            assert b.returncode == 0, b_err

            # Thaw the fenced worker: its next broker op is rejected
            # and it must exit loudly without corrupting the run.
            w1.send_signal(signal.SIGCONT)
            w1_out, w1_err = w1.communicate(timeout=60)
            assert w1.returncode == 1, (w1_out, w1_err)
            assert "fenced" in w1_err

            broker_out, broker_err = broker.communicate(timeout=120)
            assert broker.returncode == 0, broker_err
            assert "run complete" in broker_out
            assert "DEGRADED" not in broker_out
            redelivered = [
                int(m) for m in re.findall(
                    r"redelivered\s+(\d+)", broker_out
                )
            ]
            assert sum(redelivered) >= 1, broker_out
        finally:
            for proc in (w1, w2, b, broker):
                if proc is not None and proc.poll() is None:
                    try:
                        proc.send_signal(signal.SIGCONT)
                    except OSError:
                        pass
                    proc.kill()
                    proc.wait()

        assert _tree_bytes(work / "out-ref") == _tree_bytes(work / "out-run")
        assert (work / "ref.vcf").read_bytes() == \
            (work / "run.vcf").read_bytes()
