"""Placed multi-server execution of the composed pipeline (§5.2, §5.5).

PR 2/3 made align → sort → dupmark → filter → varcall one streaming
dataflow graph inside a single Session; this module runs that SAME
workload across several servers.  A :class:`~repro.cluster.placement.
PlacementPlan` assigns stage groups to named servers, a
:class:`~repro.cluster.broker.Broker` carries the chunk-name work edge
and the stage-boundary item edges, and each server executes its own
Session over just its placed subgraph (:func:`~repro.core.pipelines.
split_pipeline`) — pulling from upstream edges, pushing to downstream
ones, with storage as the shared substrate.

Within one CPython process the servers share the GIL, so in-process runs
demonstrate *distribution correctness* (every chunk processed exactly
once, outputs byte-identical to the single-session run, killed-worker
redelivery) — the same division of labor as the paper's §5.5 "Actual"
methodology.  ``transport="tcp"`` routes every edge through a real
socket broker (loopback or across machines), exercising the wire path
end to end.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.agd.dataset import AGDDataset
from repro.cluster.broker import (
    Broker,
    BrokerServer,
    LocalBrokerClient,
    TcpBrokerClient,
)
from repro.cluster.placement import WORK_EDGE, PlacementPlan
from repro.cluster.wire import edge_item_serializer, entry_serializer
from repro.core.pipelines import PlacedServerGraph, split_pipeline
from repro.core.subgraphs import AlignGraphConfig
from repro.dataflow.backends import Backend, make_backend
from repro.dataflow.errors import (
    PipelineAborted,
    PipelineError,
    QueueClosed,
    WorkerFenced,
)
from repro.dataflow.queues import RemoteQueue
from repro.dataflow.session import Session


def queue_factory(client_for):
    """The standard endpoint factory over broker clients: chunk-name
    edges carry manifest entries, item edges carry whole work items.
    ``client_for(server)`` supplies (and caches) each server's transport
    client; the returned callable matches the ``make_queue`` contract of
    :func:`repro.core.pipelines.split_pipeline`."""
    def make_queue(server: str, edge: str, kind: str,
                   ack_mode: str) -> RemoteQueue:
        client = client_for(server)
        # Per-edge codec negotiation: the serializer is read off the
        # client (``shares_memory``) — in-process and shm-verified
        # same-host edges carry raw level-0 frames, remote edges gzip.
        serializer = entry_serializer() if kind == "names" \
            else edge_item_serializer(client)
        return RemoteQueue(client, edge, serializer, ack_mode=ack_mode)
    return make_queue


class WorkerKilled(RuntimeError):
    """Raised inside a kernel to simulate (or signal) a dying worker.

    The placed runner treats a session whose root failure is
    ``WorkerKilled`` as a dead server, not a pipeline error: its broker
    client is dropped, its unacked chunk deliveries are requeued for a
    surviving replica, and the run continues.
    """


class PoisonChunkError(RuntimeError):
    """Raised when a quarantined chunk aborts the run
    (``on_poison="fail"``)."""

    def __init__(self, edge: str, key: str):
        super().__init__(
            f"chunk {key!r} on edge {edge!r} exhausted its redelivery "
            f"budget and the broker's on_poison policy is 'fail'"
        )
        self.edge = edge
        self.key = key


@dataclass
class ServerOutcome:
    """One simulated server's run."""

    server_id: int
    chunks: int
    records: int
    wall_seconds: float


@dataclass
class MultiServerOutcome:
    """Aggregate over all servers."""

    servers: list[ServerOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0
    total_records: int = 0
    total_chunks: int = 0

    @property
    def completion_imbalance(self) -> float:
        """Max/min server wall time — the paper reports "no measurable
        completion-time imbalance" (§1)."""
        if not self.servers:
            return 0.0
        times = [s.wall_seconds for s in self.servers]
        return max(times) / min(times) if min(times) > 0 else float("inf")


@dataclass
class PlacedServerOutcome:
    """One placed server's share of a pipeline run."""

    server: str
    stages: "tuple[str, ...]"
    chunks: int
    records: int
    wall_seconds: float
    killed: bool = False
    #: The broker consumer id this server ran under (set for workers
    #: joined via :func:`join_placed_worker`; lets tests match the
    #: server to ``broker_stats``'s per-consumer pull counters).
    consumer: "int | None" = None


@dataclass
class PlacedPipelineOutcome:
    """Result of one :func:`run_placed_pipeline` call."""

    wall_seconds: float
    servers: "list[PlacedServerOutcome]" = field(default_factory=list)
    sorted_dataset: "AGDDataset | None" = None
    dupmark_stats: "object | None" = None
    variants: "list | None" = None
    filtered_dataset: "AGDDataset | None" = None
    filter_stats: "object | None" = None
    #: Broker edge counters after the run (published/redelivered/depth).
    broker_stats: dict = field(default_factory=dict)
    #: Per-edge capacities an ``autotune_edges`` probe applied to this
    #: run (empty when autotuning was off or nothing needed changing).
    autotuned_edges: "dict[str, int]" = field(default_factory=dict)
    #: edge -> quarantine records for keys that exhausted their
    #: redelivery budget; a non-empty dict marks a *degraded* run whose
    #: outputs exclude those chunks.
    quarantined: "dict[str, list]" = field(default_factory=dict)

    def server(self, name: str) -> PlacedServerOutcome:
        for outcome in self.servers:
            if outcome.server == name:
                return outcome
        raise KeyError(f"no server {name!r} in this run")

    @property
    def total_redelivered(self) -> int:
        return sum(e["total_redelivered"] for e in self.broker_stats.values())

    @property
    def total_quarantined(self) -> int:
        return sum(len(records) for records in self.quarantined.values())

    @property
    def completion_imbalance(self) -> float:
        live = [s.wall_seconds for s in self.servers if not s.killed]
        if not live:
            return 0.0
        return max(live) / min(live) if min(live) > 0 else float("inf")


def suggest_edge_capacities(
    broker_stats: "dict[str, dict]",
    headroom: int = 1,
    min_capacity: int = 2,
    growth_factor: int = 2,
) -> "dict[str, int]":
    """Propose per-edge broker capacities from a placed run's stats.

    The cluster-scale mirror of
    :func:`repro.core.pipelines.suggest_queue_capacities`: an edge whose
    high-water depth hit capacity (producers repeatedly blocked on it)
    grows by ``growth_factor``; an edge that never came close shrinks to
    its observed high-water plus ``headroom`` (never below
    ``min_capacity``); right-sized edges are omitted.  The work edge is
    skipped — it is sized to the chunk count by design.  Feed the result
    back via ``run_placed_pipeline(edge_capacities=...)`` (or let
    ``autotune_edges=True`` do the probe-then-apply round trip).
    """
    from repro.cluster.placement import WORK_EDGE

    suggestions: "dict[str, int]" = {}
    for edge, stats in broker_stats.items():
        if edge == WORK_EDGE:
            continue
        capacity = stats.get("capacity", 0)
        if capacity <= 0:
            continue
        max_depth = stats.get("max_depth", 0)
        if max_depth >= capacity:
            suggested = capacity * growth_factor
        else:
            suggested = max(min_capacity, max_depth + headroom)
        if suggested != capacity:
            suggestions[edge] = suggested
    return suggestions


def _root_cause(exc: BaseException) -> BaseException:
    seen = set()
    while True:
        nxt = exc.__cause__ or exc.__context__
        if nxt is None or id(nxt) in seen:
            return exc
        seen.add(id(exc))
        exc = nxt


def run_placed_pipeline(
    dataset: AGDDataset,
    plan: PlacementPlan,
    *,
    aligner=None,
    aligner_factory=None,
    reference=None,
    align_config: "AlignGraphConfig | None" = None,
    sort_config=None,
    varcall_config=None,
    filter_predicate=None,
    output_store=None,
    filter_store=None,
    scratch_store_factory=None,
    align_results_store_factory=None,
    backend: "str | Backend" = "serial",
    workers: int = 2,
    batch_size: "int | None" = None,
    transport: str = "local",
    host: str = "127.0.0.1",
    port: int = 0,
    edge_capacity: int = 4,
    edge_capacities: "dict[str, int] | None" = None,
    autotune_edges: bool = False,
    wire_codec: str = "none",
    broker_shm: "bool | None" = None,
    session_timeout: "float | None" = 600.0,
    vectorized: bool = True,
    ledger=None,
    delivery_deadline="auto",
    max_redeliveries: int = 4,
    on_poison: str = "quarantine",
    spill_dir: "str | None" = None,
    spill_watermark: "int | None" = None,
    broker_ready=None,
) -> PlacedPipelineOutcome:
    """Run the composed pipeline across the plan's servers.

    Every server runs its placed stage group in its own Session (and its
    own compute backend built from ``backend``/``workers``); chunk names
    flow from the coordinator through the work edge, work items cross
    stage boundaries through broker edges, and storage
    (``dataset.store``, ``output_store``, ``filter_store``) is the
    shared substrate — so outputs are byte-identical to the
    single-session one-graph run.

    ``transport`` selects the in-process reference broker (``"local"``)
    or a real socket broker on ``host:port`` (``"tcp"``; port 0 picks a
    free one).  Either way delivery is at-least-once with idempotent
    chunk writes: a server whose failure root-causes to
    :class:`WorkerKilled` is dropped, its unacked chunks are redelivered
    to surviving replicas, and the run completes; any other failure
    aborts every edge and re-raises.

    ``edge_capacity`` sizes every stage-boundary broker edge uniformly;
    ``edge_capacities`` overrides individual edges by name (e.g.
    ``{"sort->dupmark": 8}``).  ``autotune_edges=True`` runs the
    placement twice — a probe, then the measured run with capacities
    suggested by :func:`suggest_edge_capacities` from the probe's
    per-edge depth stats (explicit ``edge_capacities`` pins win).  The
    applied suggestions land in ``outcome.autotuned_edges``.

    ``wire_codec`` compresses TCP payload segments; ``broker_shm``
    controls the same-host shared-memory handoff on TCP transports
    (None probes ``/dev/shm`` and enables it when clients verify the
    broker's boot token — i.e. they genuinely share the host; False
    forces the byte-identical copy path).

    ``ledger`` (:class:`repro.core.ledger.RunLedger`) makes the placed
    run durable: broker acks and per-stage output writes are journaled,
    and a ledger opened with ``RunLedger.resume`` pre-acks work the
    interrupted attempt completed (plans whose leading group is pure
    align over the shared dataset store) while stage kernels skip
    digest-verified outputs — the resumed run is byte-identical to an
    uninterrupted one.  When downstream stage groups exist, the
    coordinator re-injects the pre-acked chunks' work items onto the
    first boundary edge from the digest-verified stored columns, so
    resequencers and dup scans still see the full chunk set.
    """
    if autotune_edges:
        kwargs = dict(
            aligner=aligner,
            aligner_factory=aligner_factory,
            reference=reference,
            align_config=align_config,
            sort_config=sort_config,
            varcall_config=varcall_config,
            filter_predicate=filter_predicate,
            output_store=output_store,
            filter_store=filter_store,
            scratch_store_factory=scratch_store_factory,
            align_results_store_factory=align_results_store_factory,
            backend=backend,
            workers=workers,
            batch_size=batch_size,
            transport=transport,
            host=host,
            port=port,
            edge_capacity=edge_capacity,
            wire_codec=wire_codec,
            broker_shm=broker_shm,
            session_timeout=session_timeout,
            vectorized=vectorized,
            delivery_deadline=delivery_deadline,
            max_redeliveries=max_redeliveries,
            on_poison=on_poison,
            spill_dir=spill_dir,
            spill_watermark=spill_watermark,
        )
        # Probe placement: outputs are deterministic and chunk writes
        # idempotent, so the measured run's inputs stay intact — the
        # same contract as the in-graph queue autotuner.  Only the
        # measured run journals to the ledger.
        probe = run_placed_pipeline(
            dataset, plan, edge_capacities=edge_capacities, **kwargs
        )
        tuned = suggest_edge_capacities(probe.broker_stats)
        for pinned in (edge_capacities or {}):
            tuned.pop(pinned, None)
        merged = dict(tuned)
        merged.update(edge_capacities or {})
        outcome = run_placed_pipeline(
            dataset, plan, edge_capacities=merged, ledger=ledger,
            broker_ready=broker_ready, **kwargs
        )
        outcome.autotuned_edges = tuned
        return outcome

    manifest = dataset.manifest
    if ledger is not None:
        from repro.core.ledger import bind_run_config

        backend_name = backend if isinstance(backend, str) \
            else getattr(backend, "name", type(backend).__name__)
        bind_run_config(
            ledger, manifest, plan.stages,
            backend=backend_name, workers=workers, transport=transport,
            vectorized=vectorized, plan=plan.to_doc(),
        )
    if aligner_factory is None:
        def aligner_factory(server):  # noqa: ARG001 - uniform signature
            return aligner

    from repro.storage.base import MemoryStore

    sort_store = output_store if output_store is not None else MemoryStore()
    filter_out = filter_store if filter_store is not None else MemoryStore()

    broker = Broker(
        delivery_deadline=delivery_deadline,
        max_redeliveries=max_redeliveries,
        on_poison=on_poison,
    )
    broker.plan_doc = plan.to_doc()
    work_capacity = max(1, manifest.num_chunks)
    overrides = edge_capacities or {}

    # Resume pre-ack: a plan whose LEADING group is pure align can skip
    # chunks whose journaled results digest still matches the shared
    # store — the aligners never see them again.  Computed before edge
    # creation because, when downstream groups exist, the coordinator
    # re-injects those chunks' work items onto the first boundary edge
    # and needs a producer slot pre-declared there (resequencers, merge
    # manifests and dup scans still see the full chunk set).  Leading
    # groups that aggregate or re-chunk (sort, filter) and plans with
    # per-server results stores cannot pre-ack; their stage kernels
    # skip digest-verified writes instead.
    pre_acked: "list[str]" = []
    if ledger is not None and ledger.resuming \
            and plan.groups[0] == ("align",) \
            and align_results_store_factory is None:
        from repro.core.ledger import blob_digest
        from repro.storage.base import StorageError

        for entry in manifest.chunks:
            key = entry.chunk_file("results")
            digest = ledger.journaled_digest("align", key)
            if digest is None:
                continue
            try:
                if blob_digest(dataset.store.get(key)) == digest:
                    pre_acked.append(entry.path)
            except StorageError:
                continue
    inject_edge: "str | None" = None
    if pre_acked and len(plan.groups) > 1:
        # First boundary edge (plan.edges() lists the work edge first).
        inject_edge = plan.edges()[1].name

    for spec in plan.edges():
        broker.create_edge(
            spec.name,
            capacity=work_capacity if spec.name == WORK_EDGE
            else max(1, int(overrides.get(spec.name, edge_capacity))),
            # One extra slot for the coordinator's re-injected items.
            producers=spec.producers + (1 if spec.name == inject_edge
                                        else 0),
        )

    if ledger is not None:
        broker.ack_listener = ledger.edge_ack
        broker.quarantine_listener = ledger.quarantine
        if pre_acked:
            broker.pre_ack(WORK_EDGE, pre_acked)
            ledger.count_skip("work.pre_acked", len(pre_acked))

    server_tcp: "BrokerServer | None" = None
    if transport == "tcp":
        server_tcp = BrokerServer(
            broker, host=host, port=port, shm=broker_shm,
            spill_dir=spill_dir, spill_watermark=spill_watermark,
        ).start()
    elif transport != "local":
        raise ValueError(f"unknown transport {transport!r} "
                         f"(choices: local, tcp)")

    clients: dict[str, object] = {}

    def client_for(server: str):
        if server not in clients:
            if server_tcp is not None:
                clients[server] = TcpBrokerClient(
                    server_tcp.host, server_tcp.port,
                    wire_codec=wire_codec, shm=broker_shm,
                )
            else:
                clients[server] = LocalBrokerClient(broker)
        return clients[server]

    make_queue = queue_factory(client_for)

    backends: dict[str, Backend] = {}
    owns_backends = not isinstance(backend, Backend)

    def backend_for(server: str) -> Backend:
        if server not in backends:
            backends[server] = make_backend(
                backend, workers=workers, batch_size=batch_size,
                name=f"{server}.backend",
            )
        return backends[server]

    def scratch_for(server: str):
        if scratch_store_factory is not None:
            return scratch_store_factory(server)
        return None

    outcomes: dict[str, PlacedServerOutcome] = {}
    errors: list[BaseException] = []
    dead: set[str] = set()
    lock = threading.Lock()
    started = time.monotonic()
    placed: "list[PlacedServerGraph]" = []
    try:
        # Build every server graph in the main thread: process-backend
        # pools must fork before any session's threads are live.
        placed = split_pipeline(
            dataset,
            plan,
            make_queue,
            aligner_for=aligner_factory,
            backend_for=backend_for,
            scratch_for=scratch_for,
            align_results_store_for=align_results_store_factory,
            reference=reference,
            align_config=align_config,
            sort_config=sort_config,
            varcall_config=varcall_config,
            filter_predicate=filter_predicate,
            sort_store=sort_store,
            filter_store=filter_out,
            vectorized=vectorized,
            ledger=ledger,
        )

        def run_server(server_graph: PlacedServerGraph) -> None:
            start = time.monotonic()
            try:
                Session(server_graph.pipeline.graph).run(
                    timeout=session_timeout
                )
            except BaseException as exc:
                wall = time.monotonic() - start
                cause = _root_cause(exc)
                if isinstance(exc, PipelineError) and \
                        isinstance(cause, (WorkerKilled, WorkerFenced)):
                    # A dead worker (or one the broker fenced for
                    # missing a delivery deadline), not a broken
                    # pipeline: requeue its unacked deliveries and
                    # release its producer slots so replicas finish the
                    # work and edges still close.
                    client_for(server_graph.server).close()
                    with lock:
                        dead.add(server_graph.server)
                        survivors = [
                            p.server for p in plan.placements
                            if p.stages == server_graph.stages
                            and p.server not in dead
                        ] + [
                            s for s in broker.live_replicas(
                                server_graph.stages)
                            if s not in dead
                        ]
                        outcomes[server_graph.server] = PlacedServerOutcome(
                            server=server_graph.server,
                            stages=server_graph.stages,
                            chunks=server_graph.sink.chunks,
                            records=server_graph.sink.records,
                            wall_seconds=wall,
                            killed=True,
                        )
                        if not survivors:
                            # No replica can finish this stage group: the
                            # run cannot produce complete output.  Fail
                            # loudly instead of returning partial results
                            # (or hanging until the session deadline).
                            errors.append(exc)
                    if not survivors:
                        broker.abort()
                    return
                with lock:
                    errors.append(exc)
                broker.abort()
                return
            wall = time.monotonic() - start
            with lock:
                outcomes[server_graph.server] = PlacedServerOutcome(
                    server=server_graph.server,
                    stages=server_graph.stages,
                    chunks=server_graph.sink.chunks,
                    records=server_graph.sink.records,
                    wall_seconds=wall,
                )

        threads = [
            threading.Thread(target=run_server, args=(sg,),
                             name=f"placed-{sg.server}")
            for sg in placed
        ]
        for t in threads:
            t.start()

        if broker_ready is not None:
            # Edges exist, the plan is served, the TCP listener (if
            # any) is accepting: late workers may now join via
            # ``join_placed_worker`` / ``persona cluster worker --join``.
            broker_ready(broker, server_tcp)

        # The coordinator is the work edge's one producer: publish every
        # chunk name, then close it (the manifest-server publish, §5.2).
        coordinator = LocalBrokerClient(broker) if server_tcp is None \
            else TcpBrokerClient(server_tcp.host, server_tcp.port,
                                 wire_codec=wire_codec, shm=broker_shm)
        work_queue = RemoteQueue(coordinator, WORK_EDGE, entry_serializer())
        work_queue.register_producer()
        try:
            for entry in manifest.chunks:
                work_queue.put(entry)
        except (PipelineAborted, QueueClosed):
            # A worker failed and aborted the edges mid-publish; the
            # root error is in `errors` — keep going so the threads are
            # joined and that error (not this symptom) is raised.
            pass
        finally:
            work_queue.producer_done()

        if inject_edge is not None:
            # Re-inject the pre-acked chunks' work items from the
            # digest-verified store so downstream groups see every
            # chunk, exactly as an align replica would have sent them
            # (the edge serializer normalizes both transports).
            from repro.agd.chunk import read_column
            from repro.core.ops import ChunkWorkItem

            inject_queue = RemoteQueue(
                coordinator, inject_edge, edge_item_serializer(coordinator)
            )
            inject_queue.register_producer()
            inject_columns = tuple(
                c for c in manifest.columns if c != "results"
            )
            try:
                done_set = set(pre_acked)
                for entry in manifest.chunks:
                    if entry.path not in done_set:
                        continue
                    item = ChunkWorkItem(entry=entry)
                    for column in inject_columns:
                        item.columns[column] = read_column(
                            dataset.store.get(entry.chunk_file(column))
                        )
                    item.results = read_column(
                        dataset.store.get(entry.chunk_file("results"))
                    )
                    inject_queue.put(item)
            except (PipelineAborted, QueueClosed):
                pass
            finally:
                inject_queue.producer_done()

        for t in threads:
            t.join()
        coordinator.close()
    finally:
        broker_stats = broker.stats()
        quarantined = broker.quarantined()
        poison_failure = broker.poison_failure
        for client in clients.values():
            client.close()
        if server_tcp is not None:
            server_tcp.stop()
        for sg in placed:
            sg.close(wait=False)
        if owns_backends:
            for b in backends.values():
                b.shutdown(wait=not errors)
    if poison_failure is not None:
        # The on_poison="fail" policy aborted every edge; the sessions
        # died of PipelineAborted symptoms — raise the actual disease.
        raise PoisonChunkError(*poison_failure)
    if errors:
        raise errors[0]
    wall = time.monotonic() - started

    if ledger is not None:
        ledger.complete(
            wall_seconds=wall,
            chunks=manifest.num_chunks,
            records=dataset.total_records,
            skipped=dict(ledger.skips),
            servers={
                s.server: {"chunks": s.chunks, "records": s.records,
                           "wall_seconds": s.wall_seconds,
                           "killed": s.killed}
                for s in outcomes.values()
            },
            broker={
                edge: {"published": st["total_published"],
                       "redelivered": st["total_redelivered"],
                       "preacked": st.get("total_preacked", 0),
                       "quarantined": st.get("total_quarantined", 0)}
                for edge, st in broker_stats.items()
            },
        )

    if "align" in plan.stages and align_results_store_factory is None \
            and not manifest.has_column("results"):
        manifest.add_column("results")

    def collector_for(stage: str):
        for sg in placed:
            if stage in sg.stages:
                return sg.pipeline.stage(stage).collector
        return None

    sort_collector = collector_for("sort")
    dupmark_collector = collector_for("dupmark")
    filter_collector = collector_for("filter")
    varcall_collector = collector_for("varcall")
    return PlacedPipelineOutcome(
        wall_seconds=wall,
        servers=sorted(outcomes.values(), key=lambda s: s.server),
        sorted_dataset=(
            AGDDataset(sort_collector.manifest, sort_store)
            if sort_collector is not None else None
        ),
        dupmark_stats=(dupmark_collector.dup_stats
                       if dupmark_collector is not None else None),
        variants=(varcall_collector.variants
                  if varcall_collector is not None else None),
        filtered_dataset=(
            AGDDataset(filter_collector.manifest, filter_out)
            if filter_collector is not None else None
        ),
        filter_stats=(filter_collector.filter_stats
                      if filter_collector is not None else None),
        broker_stats=broker_stats,
        quarantined=quarantined,
    )


def join_placed_worker(
    dataset: AGDDataset,
    server: str,
    like: str,
    *,
    broker: "Broker | None" = None,
    host: "str | None" = None,
    port: "int | None" = None,
    aligner=None,
    reference=None,
    align_config: "AlignGraphConfig | None" = None,
    align_results_store=None,
    backend: "str | Backend" = "serial",
    workers: int = 2,
    batch_size: "int | None" = None,
    wire_codec: str = "none",
    broker_shm: "bool | None" = None,
    session_timeout: "float | None" = 600.0,
    vectorized: bool = True,
) -> PlacedServerOutcome:
    """Attach a NEW worker to a placed pipeline that is already running.

    The worker is admitted as a replica of ``like``'s stage group (only
    the pure align group is replicable) via :meth:`Broker.admit_worker`:
    the group's egress edge gains a producer slot, the plan document
    grows the replica, and — because the work edge is pull-based — the
    newcomer starts draining outstanding chunk deliveries immediately.
    Pass either an in-process ``broker`` or the TCP coordinates
    (``host``/``port``) of a running :class:`BrokerServer`.

    Returns this worker's :class:`PlacedServerOutcome` once the run
    drains (``consumer`` identifies it in
    ``broker_stats[...]["pulls_by_consumer"]``); a worker killed or
    fenced mid-run returns with ``killed=True`` — its in-flight chunks
    were requeued, exactly like an original replica's.
    """
    from repro.core.pipelines import (
        build_placed_server_graph,
        placed_server_endpoints,
    )

    if (broker is None) == (host is None):
        raise ValueError("pass exactly one of broker= or host=/port=")
    client = LocalBrokerClient(broker) if broker is not None \
        else TcpBrokerClient(host, port, wire_codec=wire_codec,
                             shm=broker_shm)
    owns_backend = not isinstance(backend, Backend)
    backend_obj = make_backend(
        backend, workers=workers, batch_size=batch_size,
        name=f"{server}.backend",
    ) if owns_backend else backend
    started = time.monotonic()
    killed = False
    try:
        plan = PlacementPlan.from_doc(client.admit(server, like))
        placement = plan.placement_for(server)
        work_queue, ingress, egress, manual = placed_server_endpoints(
            plan, server, queue_factory(lambda s: client)
        )
        graph = build_placed_server_graph(
            dataset,
            server,
            placement.stages,
            plan.stages,
            work_queue=work_queue,
            ingress=ingress,
            egress=egress,
            manual_ack=manual,
            aligner=aligner,
            reference=reference,
            align_config=align_config,
            align_results_store=align_results_store,
            backend_obj=backend_obj,
            vectorized=vectorized,
        )
        try:
            Session(graph.pipeline.graph).run(timeout=session_timeout)
        except BaseException as exc:
            if isinstance(exc, PipelineError) and isinstance(
                    _root_cause(exc), (WorkerKilled, WorkerFenced)):
                killed = True
            else:
                raise
        finally:
            graph.close(wait=False)
        return PlacedServerOutcome(
            server=server,
            stages=placement.stages,
            chunks=graph.sink.chunks,
            records=graph.sink.records,
            wall_seconds=time.monotonic() - started,
            killed=killed,
            consumer=getattr(client, "consumer", None),
        )
    finally:
        client.close()
        if owns_backend:
            backend_obj.shutdown()


def run_multi_server_alignment(
    dataset: AGDDataset,
    aligner_factory,
    output_store_factory,
    num_servers: int,
    config: "AlignGraphConfig | None" = None,
    session_timeout: float = 600.0,
) -> MultiServerOutcome:
    """Align one dataset across ``num_servers`` in-process servers.

    The degenerate one-stage placement plan: every server runs just the
    align group, all pulling chunk names from the shared work edge —
    exactly the paper's §5.2 cluster mode, now expressed on the same
    broker machinery that places whole pipelines.

    ``aligner_factory(server_id)`` returns the per-server aligner (in
    reality each server loads its own copy of the reference index);
    ``output_store_factory(server_id)`` returns that server's handle to
    the shared output store.
    """
    if num_servers <= 0:
        raise ValueError("need at least one server")
    config = config or AlignGraphConfig()
    plan = PlacementPlan.replicated_align(num_servers)

    def server_id(server: str) -> int:
        return int(server.removeprefix("server"))

    outcome = run_placed_pipeline(
        dataset,
        plan,
        aligner_factory=lambda server: aligner_factory(server_id(server)),
        align_results_store_factory=lambda server: output_store_factory(
            server_id(server)
        ),
        align_config=config,
        backend=config.backend,
        workers=config.executor_threads,
        batch_size=config.batch_size,
        session_timeout=session_timeout,
    )
    result = MultiServerOutcome(wall_seconds=outcome.wall_seconds)
    for placed in outcome.servers:
        result.servers.append(ServerOutcome(
            server_id=server_id(placed.server),
            chunks=placed.chunks,
            records=placed.records,
            wall_seconds=placed.wall_seconds,
        ))
    result.servers.sort(key=lambda s: s.server_id)
    result.total_records = sum(s.records for s in result.servers)
    result.total_chunks = sum(s.chunks for s in result.servers)
    return result
