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

A placed run is four steps, each one function here: *setup* (the
:class:`~repro.core.pipelines.PipelineSpec` and each server's
:class:`~repro.core.subgraphs.ServerSite`), *serve*
(:func:`serve_plan`: the plan's edges on a broker, work published),
*supervise* (every server's :func:`run_placed_server` loop on its own
thread) and *collect*.  A worker that joins later or runs in its own
process (:func:`join_placed_worker`, ``persona cluster worker``) goes
through the same :func:`build_placed_server` / :func:`run_placed_server`
pair; ``persona cluster broker`` through the same :func:`serve_plan`.
The paper's §5.2 cluster mode is one plan among others:
``run_placed_pipeline(dataset, PlacementPlan.replicated_align(n),
aligner_factory=..., align_results_store_factory=...)`` runs ``n``
align servers that pull chunk names from the shared work edge.

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
from dataclasses import dataclass, field, replace

from repro.agd.chunk import read_column
from repro.agd.dataset import AGDDataset
from repro.cluster.broker import (
    Broker,
    BrokerServer,
    LocalBrokerClient,
    TcpBrokerClient,
)
from repro.cluster.placement import EDGE_CAPACITY, WORK_EDGE, PlacementPlan
from repro.cluster.wire import entry_serializer, item_serializer
from repro.core.ledger import bind_run_config, blob_digest
from repro.core.ops import ChunkWorkItem
from repro.core.pipelines import (
    PipelineSpec,
    PlacedServerGraph,
    StageOutputs,
    harvest_outputs,
    split_pipeline,
)
from repro.core.subgraphs import AlignGraphConfig, ServerSite, replicable
from repro.dataflow.backends import Backend
from repro.dataflow.errors import (
    PipelineAborted,
    PipelineError,
    QueueClosed,
    WorkerFenced,
)
from repro.dataflow.queues import RemoteQueue
from repro.dataflow.session import Session
from repro.storage.base import StorageError


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
class PlacedServerOutcome:
    """One placed server's share of a pipeline run."""

    server: str
    stages: "tuple[str, ...]"
    chunks: int
    records: int
    wall_seconds: float
    #: The session failure that killed it (root cause ``WorkerKilled``
    #: or ``WorkerFenced``); None for a server that finished.
    error: "PipelineError | None" = None
    #: The broker consumer id this server ran under (set for workers
    #: joined via :func:`join_placed_worker`; lets tests match the
    #: server to ``broker_stats``'s per-consumer pull counters).
    consumer: "int | None" = None

    @property
    def killed(self) -> bool:
        return self.error is not None


@dataclass
class PlacedPipelineOutcome(StageOutputs):
    """Result of one :func:`run_placed_pipeline` call."""

    wall_seconds: float
    servers: "list[PlacedServerOutcome]" = field(default_factory=list)
    #: Broker edge counters after the run (published/redelivered/depth).
    broker_stats: dict = field(default_factory=dict)
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
        """Max/min wall time over the servers that finished — the paper
        reports "no measurable completion-time imbalance" (§1)."""
        live = [s.wall_seconds for s in self.servers if not s.killed]
        if not live:
            return 0.0
        return max(live) / min(live) if min(live) > 0 else float("inf")


def root_cause(exc: BaseException) -> BaseException:
    seen = set()
    while True:
        nxt = exc.__cause__ or exc.__context__
        if nxt is None or id(nxt) in seen:
            return exc
        seen.add(id(exc))
        exc = nxt


# ---------------------------------------------------------------------------
# Serve: a plan's edges on a broker.


def _verified_align_chunks(dataset: AGDDataset, ledger) -> "list[str]":
    """Chunk paths whose journaled align results digest still matches
    what the dataset store holds."""
    verified = []
    for entry in dataset.manifest.chunks:
        key = entry.chunk_file("results")
        digest = ledger.journaled_digest("align", key)
        if digest is None:
            continue
        try:
            if blob_digest(dataset.store.get(key)) == digest:
                verified.append(entry.path)
        except StorageError:
            continue
    return verified


def serve_plan(
    broker: Broker,
    plan: PlacementPlan,
    dataset: AGDDataset,
    *,
    ledger=None,
    results_shared: bool = True,
    listener: "BrokerServer | None" = None,
) -> "tuple[list[str], str | None]":
    """Put ``plan`` on ``broker``: create its edges, attach the ledger,
    publish every chunk name on the work edge (the manifest-server
    publish, §5.2 — the edge is sized to hold them all, so this never
    blocks; every boundary edge holds :data:`EDGE_CAPACITY`) and start
    ``listener``, the TCP front, if there is one.
    Workers may attach (and late ones be admitted) once it returns.

    Resume pre-ack: a plan whose LEADING group is replicable (the align
    group, ``Stage.replicable``) can skip chunks whose journaled results
    digest still matches the shared store (``results_shared``;
    per-server results stores cannot) — the aligners never see them
    again.  When downstream groups exist they must still see the full
    chunk set (resequencers, merge manifests, dup scans), so the first
    boundary edge gets one more producer slot for the caller to
    re-inject those chunks' items through (:func:`reinject`).  Leading
    groups that aggregate or re-chunk (sort, filter) cannot pre-ack;
    their stage kernels skip digest-verified writes instead.

    Returns ``(pre_acked chunk paths, the edge to re-inject them on or
    None)``.
    """
    manifest = dataset.manifest
    pre_acked: "list[str]" = []
    if ledger is not None and ledger.resuming and results_shared \
            and replicable(plan.groups[0]):
        pre_acked = _verified_align_chunks(dataset, ledger)
    # First boundary edge (plan.edges() lists the work edge first).
    inject_edge = plan.edges()[1].name \
        if pre_acked and len(plan.groups) > 1 else None
    broker.plan_doc = plan.to_doc()
    for edge in plan.edges():
        broker.create_edge(
            edge.name,
            capacity=max(1, manifest.num_chunks) if edge.name == WORK_EDGE
            else EDGE_CAPACITY,
            producers=edge.producers + (edge.name == inject_edge),
        )
    if ledger is not None:
        broker.ack_listener = ledger.edge_ack
        broker.quarantine_listener = ledger.quarantine
        if pre_acked:
            broker.pre_ack(WORK_EDGE, pre_acked)
            ledger.count_skip("work.pre_acked", len(pre_acked))
    coordinator = LocalBrokerClient(broker)
    work_queue = RemoteQueue(coordinator, WORK_EDGE, entry_serializer())
    work_queue.register_producer()
    for entry in manifest.chunks:
        work_queue.put(entry)
    work_queue.producer_done()
    coordinator.close()
    if listener is not None:
        listener.start()
    return pre_acked, inject_edge


def reinject(broker: Broker, edge: str, dataset: AGDDataset,
             paths: "list[str]") -> None:
    """Publish pre-acked chunks' work items on ``edge`` from the
    digest-verified store, exactly as an align replica would have sent
    them.  Blocks on the edge's capacity, so its consumers must be
    running."""
    client = LocalBrokerClient(broker)
    queue = RemoteQueue(client, edge, item_serializer())
    queue.register_producer()
    wanted = set(paths)
    # An interrupted run's manifest may not list the results it wrote.
    columns = set(dataset.manifest.columns) | {"results"}
    try:
        for entry in dataset.manifest.chunks:
            if entry.path not in wanted:
                continue
            item = ChunkWorkItem(entry=entry, columns={
                column: read_column(
                    dataset.store.get(entry.chunk_file(column)))
                for column in columns})
            queue.put(item)
    except (PipelineAborted, QueueClosed):
        # A server failed and aborted the edges mid-publish; its error
        # (not this symptom) is what the run raises.
        pass
    finally:
        queue.producer_done()
        client.close()


# ---------------------------------------------------------------------------
# One server: build its cut, run its loop.


def queue_factory(client_for):
    """The standard endpoint factory over broker clients: chunk-name
    edges carry manifest entries, item edges carry whole work items.
    ``client_for(server)`` supplies (and caches) each server's transport
    client; the returned callable matches the ``make_queue`` contract of
    :func:`repro.core.pipelines.split_pipeline`."""
    def make_queue(server: str, edge: str, kind: str,
                   ack_mode: str) -> RemoteQueue:
        serializer = entry_serializer() if kind == "names" \
            else item_serializer()
        return RemoteQueue(client_for(server), edge, serializer,
                           ack_mode=ack_mode)
    return make_queue


def build_placed_server(
    spec: PipelineSpec,
    plan: PlacementPlan,
    server: str,
    client,
    site: ServerSite,
) -> PlacedServerGraph:
    """ONE server's cut of ``spec`` under ``plan``, wired to its edges
    through ``client`` — what a worker outside the coordinator builds.
    Stage requirements are checked for the stages it hosts."""
    [graph] = split_pipeline(spec, plan, queue_factory(lambda _: client),
                             lambda _: site, servers=(server,))
    return graph


def run_placed_server(
    graph: PlacedServerGraph, session_timeout: "float | None"
) -> PlacedServerOutcome:
    """The server loop: run the built cut's Session to completion.

    A session whose root failure is :class:`WorkerKilled` or
    ``WorkerFenced`` (the broker gave up on it at a delivery deadline)
    is a dead worker, not a broken pipeline: the outcome comes back
    ``killed=True`` carrying the error, and once the caller drops the
    server's broker client its unacked deliveries are requeued for a
    surviving replica.  Any other failure propagates.
    """
    start = time.monotonic()
    error = None
    try:
        Session(graph.pipeline.graph).run(timeout=session_timeout)
    except PipelineError as exc:
        if not isinstance(root_cause(exc), (WorkerKilled, WorkerFenced)):
            raise
        error = exc
    return PlacedServerOutcome(
        server=graph.server,
        stages=graph.stages,
        chunks=graph.sink.chunks,
        records=graph.sink.records,
        wall_seconds=time.monotonic() - start,
        error=error,
    )


def _supervise(
    plan: PlacementPlan,
    broker: Broker,
    placed: "list[PlacedServerGraph]",
    client_for,
    session_timeout: "float | None",
    between,
) -> "tuple[dict[str, PlacedServerOutcome], list[BaseException]]":
    """Run every built server's loop on its own thread; ``between()``
    runs on the caller's thread once they are all started.  Returns the
    per-server outcomes and the failures that must fail the run: a
    server that broke (every edge is aborted so the others unwind), or a
    stage group whose last replica died."""
    outcomes: "dict[str, PlacedServerOutcome]" = {}
    errors: "list[BaseException]" = []
    lock = threading.Lock()

    def run_server(graph: PlacedServerGraph) -> None:
        try:
            outcome = run_placed_server(graph, session_timeout)
        except BaseException as exc:
            with lock:
                errors.append(exc)
            broker.abort()
            return
        if outcome.killed:
            # Requeue its unacked deliveries and release its producer
            # slots so replicas finish the work and edges still close.
            client_for(graph.server).close()
        with lock:
            outcomes[graph.server] = outcome
            dead = {s for s, o in outcomes.items() if o.killed}
            stranded = outcome.killed and not [
                s for s in plan.servers_for(graph.stages)
                + broker.live_replicas(graph.stages) if s not in dead
            ]
            if stranded:
                # No replica can finish this stage group: fail loudly
                # instead of returning partial results (or hanging until
                # the session deadline).
                errors.append(outcome.error)
        if stranded:
            broker.abort()

    threads = [
        threading.Thread(target=run_server, args=(graph,),
                         name=f"placed-{graph.server}")
        for graph in placed
    ]
    for t in threads:
        t.start()
    try:
        between()
    except BaseException:
        broker.abort()
        raise
    finally:
        for t in threads:
            t.join()
    return outcomes, errors


def _run_placed_once(
    spec: PipelineSpec,
    plan: PlacementPlan,
    site_for,
    open_broker,
    *,
    session_timeout: "float | None",
    broker_ready=None,
) -> "PlacedPipelineOutcome":
    """Serve, supervise, collect: one placed execution of ``spec``."""
    dataset, ledger = spec.dataset, spec.ledger
    broker, listener = open_broker()
    clients: dict = {}

    def client_for(server: str):
        if server not in clients:
            clients[server] = LocalBrokerClient(broker) if listener is None \
                else TcpBrokerClient(*listener.address)
        return clients[server]

    def between() -> None:
        if broker_ready is not None:
            # Late workers may now join via ``join_placed_worker`` /
            # ``persona cluster worker --join``.
            broker_ready(broker, listener)
        if inject_edge is not None:
            reinject(broker, inject_edge, dataset, pre_acked)

    sites: "dict[str, ServerSite]" = {}
    placed: "list[PlacedServerGraph]" = []
    errors: "list[BaseException]" = []
    started = time.monotonic()
    try:
        for server in plan.servers:
            sites[server] = site_for(server)
        # Align results all land in the dataset store, not per server.
        results_shared = all(site.align_results_store is None
                             for site in sites.values())
        pre_acked, inject_edge = serve_plan(
            broker, plan, dataset, ledger=ledger,
            results_shared=results_shared, listener=listener,
        )
        # Build every server graph on this thread: process-backend
        # workers must fork before any session's threads are live.
        placed = split_pipeline(spec, plan, queue_factory(client_for),
                                sites.__getitem__)
        outcomes, errors = _supervise(plan, broker, placed, client_for,
                                      session_timeout, between)
    finally:
        broker_stats = broker.stats()
        quarantined = broker.quarantined()
        for client in clients.values():
            client.close()
        if listener is not None:
            listener.stop()
        for site in sites.values():
            spec.shutdown_backend(site.backend, wait=not errors)
    if broker.poison_failure is not None:
        # The on_poison="fail" policy aborted every edge; the sessions
        # died of PipelineAborted symptoms — raise the actual disease.
        raise PoisonChunkError(*broker.poison_failure)
    if errors:
        raise errors[0]
    wall = time.monotonic() - started

    servers = sorted(outcomes.values(), key=lambda s: s.server)
    if ledger is not None:
        ledger.complete(
            wall_seconds=wall,
            chunks=dataset.num_chunks,
            records=dataset.total_records,
            skipped=dict(ledger.skips),
            servers={
                s.server: {"chunks": s.chunks, "records": s.records,
                           "wall_seconds": s.wall_seconds,
                           "killed": s.killed}
                for s in servers
            },
            broker={
                edge: {"published": st["total_published"],
                       "redelivered": st["total_redelivered"],
                       "preacked": st.get("total_preacked", 0),
                       "quarantined": st.get("total_quarantined", 0)}
                for edge, st in broker_stats.items()
            },
        )
    if "align" in spec.stages and results_shared \
            and not spec.manifest.has_column("results"):
        spec.manifest.add_column("results")
    return PlacedPipelineOutcome(
        wall_seconds=wall,
        servers=servers,
        broker_stats=broker_stats,
        quarantined=quarantined,
        **vars(harvest_outputs(
            spec, [st for graph in placed for st in graph.pipeline.stages])),
    )


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
    transport: str = "local",
    host: str = "127.0.0.1",
    port: int = 0,
    session_timeout: "float | None" = 600.0,
    ledger=None,
    delivery_deadline="auto",
    max_redeliveries: int = 4,
    on_poison: str = "quarantine",
    broker_ready=None,
) -> PlacedPipelineOutcome:
    """Run the composed pipeline across the plan's servers.

    Every server runs its placed stage group in its own Session (a
    server hosting ``align`` also gets its own compute backend built
    from ``backend``/``workers``; no other stage dispatches); chunk names
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
    aborts every edge and re-raises.  Every stage-boundary edge holds
    :data:`~repro.cluster.placement.EDGE_CAPACITY` chunks in flight.

    Over TCP every payload byte crosses the socket; every edge frames
    columns raw (:func:`repro.cluster.wire.item_serializer`).

    ``ledger`` (:class:`repro.core.ledger.RunLedger`) makes the placed
    run durable: broker acks and per-stage output writes are journaled,
    and a ledger opened with ``RunLedger.resume`` pre-acks work the
    interrupted attempt completed (see :func:`serve_plan`) while stage
    kernels skip digest-verified outputs — the resumed run is
    byte-identical to an uninterrupted one.
    """
    spec = PipelineSpec(
        dataset, plan.stages, reference=reference, align_config=align_config,
        sort_config=sort_config, varcall_config=varcall_config,
        filter_predicate=filter_predicate, output_store=output_store,
        filter_store=filter_store, ledger=ledger, backend=backend,
        workers=workers,
    )
    if transport not in ("local", "tcp"):
        raise ValueError(f"unknown transport {transport!r} "
                         f"(choices: local, tcp)")
    if ledger is not None:
        bind_run_config(
            ledger, spec.manifest, spec.stages, backend=spec.backend_name,
            workers=workers, transport=transport, plan=plan.to_doc(),
        )

    def site_for(server: str) -> ServerSite:
        # An aligner usually means loading a reference index: only
        # align-hosting servers get one.
        hosted = plan.placement_for(server).stages
        return ServerSite(
            aligner=(aligner_factory(server) if aligner_factory is not None
                     else aligner) if "align" in hosted else None,
            backend=spec.make_backend(server, hosted),
            scratch_store=(scratch_store_factory(server)
                           if scratch_store_factory is not None else None),
            align_results_store=(
                align_results_store_factory(server)
                if align_results_store_factory is not None else None),
        )

    def open_broker():
        broker = Broker(delivery_deadline=delivery_deadline,
                        max_redeliveries=max_redeliveries,
                        on_poison=on_poison)
        listener = BrokerServer(broker, host=host, port=port) \
            if transport == "tcp" else None
        return broker, listener

    return _run_placed_once(
        spec, plan, site_for, open_broker,
        session_timeout=session_timeout, broker_ready=broker_ready)


def join_placed_worker(
    spec: PipelineSpec,
    server: str,
    like: str,
    *,
    broker: "Broker | None" = None,
    host: "str | None" = None,
    port: "int | None" = None,
    aligner=None,
    align_results_store=None,
    session_timeout: "float | None" = 600.0,
) -> PlacedServerOutcome:
    """Attach a NEW worker to a placed pipeline that is already running.

    ``spec`` describes the run being joined (the same dataset and stage
    tuple the coordinator was given; the worker brings its own
    ``aligner`` and, optionally, its own results store).  The worker is
    admitted as a replica of ``like``'s stage group (only the align group
    is replicable) via :meth:`Broker.admit_worker`: the group's
    egress edge gains a producer slot, the plan document grows the
    replica, and — because the work edge is pull-based — the newcomer
    starts draining outstanding chunk deliveries immediately.  Pass
    either an in-process ``broker`` or the TCP coordinates
    (``host``/``port``) of a running :class:`BrokerServer`.

    Returns this worker's :class:`PlacedServerOutcome` once the run
    drains (``consumer`` identifies it in
    ``broker_stats[...]["pulls_by_consumer"]``); a worker killed or
    fenced mid-run returns with ``killed=True`` — its in-flight chunks
    were requeued, exactly like an original replica's.
    """
    if (broker is None) == (host is None):
        raise ValueError("pass exactly one of broker= or host=/port=")
    client = LocalBrokerClient(broker) if broker is not None \
        else TcpBrokerClient(host, port)
    # Only the align group admits replicas.
    site = ServerSite(aligner=aligner,
                      backend=spec.make_backend(server, ("align",)),
                      align_results_store=align_results_store)
    try:
        plan = PlacementPlan.from_doc(client.admit(server, like))
        graph = build_placed_server(spec, plan, server, client, site)
        outcome = run_placed_server(graph, session_timeout)
        return replace(outcome, consumer=getattr(client, "consumer", None))
    finally:
        client.close()
        spec.shutdown_backend(site.backend)
