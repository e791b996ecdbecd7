"""The ``persona`` command line (the original repo ships a ``persona``
driver script; this is its analog over our Python reproduction).

Subcommands::

    persona import-fastq  <fastq> <dataset-dir> [--name N] [--chunk-size C]
    persona export        <dataset-dir> <out.{sam,bam,fastq}>
    persona align         <dataset-dir> --reference ref.fasta [--aligner snap|bwa]
    persona sort          <dataset-dir> <out-dir> [--order location|metadata]
    persona dupmark       <dataset-dir>
    persona varcall       <dataset-dir> --reference ref.fasta <out.vcf>
    persona pipeline      <dataset-dir> <out-dir> --reference ref.fasta
                          [--stages align,sort,dupmark,varcall] [--vcf out.vcf]
                          [--ledger-dir runs/ [--resume]]
    persona runs          list|show|verify <ledger-dir> [run-id]
    persona stats         <dataset-dir>
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.agd.dataset import AGDDataset
from repro.storage.base import DirectoryStore


def _cli_codec(args: argparse.Namespace):
    """Column codec from ``--codec-level`` (None keeps the default)."""
    if getattr(args, "codec_level", None) is None:
        return None
    from repro.agd.compression import leveled_codec

    return leveled_codec("gzip", args.codec_level)


def _cmd_import_fastq(args: argparse.Namespace) -> int:
    from repro.formats.converters import import_fastq

    store = DirectoryStore(args.dataset_dir)
    name = args.name or Path(args.fastq).stem.split(".")[0]
    start = time.monotonic()
    dataset = import_fastq(args.fastq, name, store, chunk_size=args.chunk_size,
                           codec=_cli_codec(args))
    dataset.save_manifest(args.dataset_dir)
    elapsed = time.monotonic() - start
    print(
        f"imported {dataset.total_records} reads into "
        f"{dataset.num_chunks} chunks in {elapsed:.2f}s"
    )
    return 0


def _cmd_import_sam(args: argparse.Namespace) -> int:
    from repro.formats.converters import import_bam, import_sam

    store = DirectoryStore(args.dataset_dir)
    name = args.name or Path(args.input).stem
    path = Path(args.input)
    with open(path, "rb") as fh:
        magic = fh.read(4)
    importer = import_bam if magic == b"BGZB" else import_sam
    dataset = importer(path, name, store, chunk_size=args.chunk_size,
                       codec=_cli_codec(args))
    dataset.save_manifest(args.dataset_dir)
    print(
        f"imported {dataset.total_records} aligned records into "
        f"{dataset.num_chunks} chunks (columns: {dataset.columns})"
    )
    return 0


def _cmd_rechunk(args: argparse.Namespace) -> int:
    dataset = AGDDataset.open(args.dataset_dir)
    out_store = DirectoryStore(args.output_dir)
    codec = _cli_codec(args)
    rechunked = dataset.rechunk(
        args.chunk_size, store=out_store,
        codecs=({c: codec for c in dataset.columns}
                if codec is not None else None),
    )
    rechunked.save_manifest(args.output_dir)
    print(
        f"rechunked {dataset.num_chunks} -> {rechunked.num_chunks} chunks "
        f"({args.chunk_size} records each) -> {args.output_dir}"
    )
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.formats.converters import export_bam, export_fastq, export_sam

    dataset = AGDDataset.open(args.dataset_dir)
    out = Path(args.output)
    suffix = out.suffix.lower()
    if suffix == ".sam":
        count = export_sam(dataset, out)
        print(f"wrote {count} SAM records to {out}")
    elif suffix == ".bam":
        nbytes = export_bam(dataset, out)
        print(f"wrote {nbytes} BAM bytes to {out}")
    elif suffix in (".fastq", ".fq"):
        count = export_fastq(dataset, out)
        print(f"wrote {count} FASTQ records to {out}")
    else:
        print(f"unsupported export format {suffix!r}", file=sys.stderr)
        return 2
    return 0


def _build_aligner(args: argparse.Namespace, reference):
    """The ``--aligner`` the flags name, over ``reference``."""
    from repro.core.pipelines import build_bwa_aligner, build_snap_aligner

    builder = {"snap": build_snap_aligner, "bwa": build_bwa_aligner}
    return builder[args.aligner](reference)


def _sort_config(args: argparse.Namespace):
    """``SortConfig`` from the sort flags this subcommand has."""
    from repro.core.sort import SortConfig

    return SortConfig(
        order=args.order,
        chunks_per_superchunk=args.superchunk,
        output_codec_level=getattr(args, "codec_level", None),
    )


def _cmd_align(args: argparse.Namespace) -> int:
    from repro.core.pipelines import align_dataset
    from repro.core.subgraphs import AlignGraphConfig
    from repro.genome.reference import read_fasta
    from repro.metrics.throughput import format_bases_rate

    dataset = AGDDataset.open(args.dataset_dir)
    reference = read_fasta(args.reference)
    aligner = _build_aligner(args, reference)
    dataset.manifest.reference = reference.manifest_entry()
    config = AlignGraphConfig(
        executor_threads=args.threads,
        aligner_nodes=max(1, args.threads // 2),
        backend=args.backend,
        batch_size=args.batch_size,
        shm=args.shm,
    )
    outcome = align_dataset(dataset, aligner, config=config)
    dataset.save_manifest(args.dataset_dir)
    print(
        f"aligned {outcome.total_reads} reads "
        f"({outcome.total_bases} bases) in {outcome.wall_seconds:.2f}s "
        f"[{args.backend} backend] "
        f"= {format_bases_rate(outcome.bases_per_second)}"
    )
    return 0


def _cmd_sort(args: argparse.Namespace) -> int:
    from repro.core.sort import sort_dataset

    dataset = AGDDataset.open(args.dataset_dir)
    out_store = DirectoryStore(args.output_dir)
    start = time.monotonic()
    sorted_ds = sort_dataset(
        dataset,
        out_store,
        _sort_config(args),
        scratch_store=(DirectoryStore(args.scratch_dir)
                       if args.scratch_dir else None),
    )
    sorted_ds.save_manifest(args.output_dir)
    elapsed = time.monotonic() - start
    print(
        f"sorted {sorted_ds.total_records} records by {args.order} "
        f"in {elapsed:.2f}s -> {args.output_dir}"
    )
    return 0


def _cmd_dupmark(args: argparse.Namespace) -> int:
    from repro.core.dupmark import mark_duplicates

    dataset = AGDDataset.open(args.dataset_dir)
    start = time.monotonic()
    stats = mark_duplicates(dataset)
    elapsed = time.monotonic() - start
    rate = stats.records / elapsed if elapsed > 0 else 0.0
    print(
        f"marked {stats.duplicates_marked} duplicates in "
        f"{stats.records} records ({rate:,.0f} reads/s)"
    )
    return 0


def _cmd_varcall(args: argparse.Namespace) -> int:
    from repro.core.varcall import call_variants
    from repro.formats.vcf import write_vcf
    from repro.genome.reference import read_fasta

    dataset = AGDDataset.open(args.dataset_dir)
    reference = read_fasta(args.reference)
    variants = call_variants(dataset, reference)
    count = write_vcf(variants, args.output, contigs=reference.manifest_entry())
    print(f"called {count} variants -> {args.output}")
    return 0


def _spec_from_args(args: argparse.Namespace, stages, hosted=None,
                    output_arg: str = "an output directory"):
    """The run a ``pipeline`` / ``cluster run`` / ``cluster worker``
    command line describes, as ``(PipelineSpec, aligner)``.

    ``hosted`` is the stages this process itself runs (a worker's own
    group; default: all of ``stages``) — it loads only what those need.
    ``output_arg`` is how this subcommand spells the sorted-dataset
    directory.  Every user error is a ``ValueError`` carrying the
    one-line message (callers print it and exit 2).
    """
    from repro.core.filters import by_min_mapq
    from repro.core.pipelines import PipelineSpec
    from repro.core.subgraphs import AlignGraphConfig, check_stages
    from repro.genome.reference import read_fasta

    check_stages(stages)
    hosted = stages if hosted is None else hosted
    if "sort" in stages and not args.output_dir \
            and {"sort", "dupmark"} & set(hosted):
        raise ValueError(f"{output_arg} is required when the sort stage "
                         f"runs (it receives the sorted dataset)")
    if "filter" in hosted and args.min_mapq is None:
        raise ValueError("--min-mapq is required when the filter stage runs")
    if {"align", "varcall"} & set(hosted) and not args.reference:
        raise ValueError("--reference is required for align/varcall stages")
    dataset = AGDDataset.open(args.dataset_dir)
    reference = read_fasta(args.reference) if args.reference else None
    if reference is not None:
        # Output manifests (sorted dataset, VCF contigs) must name the
        # reference even when this invocation runs no align stage.
        dataset.manifest.reference = reference.manifest_entry()
    spec = PipelineSpec(
        dataset,
        stages,
        reference=reference,
        align_config=AlignGraphConfig(
            executor_threads=args.workers,
            aligner_nodes=max(1, args.workers // 2),
        ),
        sort_config=_sort_config(args),
        filter_predicate=(by_min_mapq(args.min_mapq)
                          if args.min_mapq is not None else None),
        output_store=(DirectoryStore(args.output_dir)
                      if args.output_dir and "sort" in stages else None),
        filter_store=(DirectoryStore(args.filter_dir)
                      if args.filter_dir else None),
        ledger=(_open_ledger(args) if hasattr(args, "ledger_dir") else None),
        backend=args.backend,
        workers=args.workers,
        batch_size=args.batch_size,
        shm=getattr(args, "shm", None),
    )
    aligner = _build_aligner(args, reference) if "align" in hosted else None
    return spec, aligner


def _print_outputs(args: argparse.Namespace, outputs, reference) -> None:
    """Report (and save the manifests / VCF of) what a run's stages left
    behind: ``outputs`` is any :class:`repro.core.pipelines.
    StageOutputs` — a pipeline's, a placed run's, or one worker's."""
    from repro.formats.vcf import write_vcf

    if outputs.dupmark_stats is not None:
        print(f"  duplicates marked: "
              f"{outputs.dupmark_stats.duplicates_marked}")
    if outputs.filter_stats is not None:
        print(f"  filter kept {outputs.filter_stats.kept} of "
              f"{outputs.filter_stats.examined} records "
              f"(mapq >= {args.min_mapq})")
        if args.filter_dir:
            outputs.filtered_dataset.save_manifest(args.filter_dir)
            print(f"  filtered dataset -> {args.filter_dir}")
    if outputs.variants is not None:
        if args.vcf:
            count = write_vcf(outputs.variants, args.vcf,
                              contigs=reference.manifest_entry())
            print(f"  called {count} variants -> {args.vcf}")
        else:
            print(f"  called {len(outputs.variants)} variants "
                  f"(pass --vcf to write them)")
    if outputs.sorted_dataset is not None:
        outputs.sorted_dataset.save_manifest(args.output_dir)
        print(f"  sorted dataset -> {args.output_dir}")


def _cmd_pipeline(args: argparse.Namespace) -> int:
    from repro.core.pipelines import TUNE_SIDECAR_NAME, run_pipeline

    stages = tuple(s.strip() for s in args.stages.split(",") if s.strip())
    if args.autotune_queues and args.tune_cache is None:
        # Sidecar next to the dataset: repeat runs load the persisted
        # suggestions and skip the probe entirely.
        args.tune_cache = str(Path(args.dataset_dir) / TUNE_SIDECAR_NAME)
    try:
        if args.tune_cache is not None and not args.autotune_queues:
            raise ValueError(
                "--tune-cache only takes effect with --autotune-queues")
        spec, aligner = _spec_from_args(args, stages)
        outcome = run_pipeline(
            aligner=aligner,
            scratch_store=(DirectoryStore(args.scratch_dir)
                           if args.scratch_dir else None),
            session_timeout=args.timeout,
            autotune_queues=args.autotune_queues,
            tune_path=args.tune_cache,
            **vars(spec),
        )
    except ValueError as exc:
        # Unknown / out-of-order stages, a missing flag, a dataset the
        # stages cannot run on: user input errors, one line each.
        print(str(exc), file=sys.stderr)
        return 2
    if "align" in stages:
        spec.dataset.save_manifest(args.dataset_dir)
    print(
        f"pipeline [{' -> '.join(stages)}] over {outcome.total_reads} "
        f"reads ({outcome.chunks} chunks) in {outcome.wall_seconds:.2f}s "
        f"[{args.backend} backend, one graph]"
    )
    for stage in outcome.stages:
        print(
            f"  {stage.name:<8} busy {stage.busy_seconds:8.3f}s  "
            f"wait {stage.wait_seconds:8.3f}s  "
            f"{stage.records_per_second:>12,.0f} records/s"
        )
    if outcome.report.get("autotuned_queues"):
        source = ("the persisted tune sidecar"
                  if outcome.report.get("autotune_cache") == "hit"
                  else "the probe run's depth traces")
        print(f"  autotuned {len(outcome.report['autotuned_queues'])} "
              f"queue capacities from {source}")
    _print_outputs(args, outcome, spec.reference)
    _close_ledger(spec.ledger)
    return 0


def _parse_host_port(spec: str) -> "tuple[str, int]":
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise SystemExit(
            f"bad broker address {spec!r}; expected host:port "
            f"(e.g. 127.0.0.1:7470)"
        )
    # Accept bracketed IPv6 literals ([::1]:7470).
    return (host.strip("[]") or "127.0.0.1", int(port))


def _delivery_deadline(raw: str):
    """argparse type for ``--delivery-deadline``: auto | off | seconds."""
    value = raw.strip().lower()
    if value in ("auto", "off"):
        return value
    try:
        seconds = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'auto', 'off', or seconds, got {raw!r}"
        ) from None
    if seconds <= 0:
        raise argparse.ArgumentTypeError("deadline must be positive")
    return seconds


def _print_quarantined(quarantined: dict) -> None:
    for edge, records in sorted(quarantined.items()):
        for rec in records:
            print(f"  QUARANTINED {rec['key']!r} on edge {edge} after "
                  f"{rec['strikes']} failed deliveries:")
            for line in rec.get("history") or []:
                print(f"    {line}")


def _cmd_cluster_run(args: argparse.Namespace) -> int:
    """All-in-one placed run: broker + every server in one process."""
    from repro.cluster.multiserver import PoisonChunkError, run_placed_pipeline
    from repro.cluster.placement import PlacementPlan

    scratch_factory = None
    if args.scratch_dir:
        scratch_root = Path(args.scratch_dir)

        def scratch_factory(server: str):
            return DirectoryStore(scratch_root / server)

    spec = None
    try:
        plan = PlacementPlan.parse(args.plan)
        spec, aligner = _spec_from_args(args, plan.stages)
        fields = dict(vars(spec))
        # The plan carries the stages; placed backends keep the shm
        # default.
        del fields["stages"], fields["shm"]
        outcome = run_placed_pipeline(
            plan=plan,
            aligner=aligner,
            scratch_store_factory=scratch_factory,
            transport=args.transport,
            host=args.host,
            port=args.port,
            edge_capacity=args.edge_capacity,
            autotune_edges=args.autotune_edges,
            broker_shm=args.broker_shm,
            session_timeout=args.timeout,
            delivery_deadline=args.delivery_deadline,
            max_redeliveries=args.max_redeliveries,
            on_poison=args.on_poison,
            spill_dir=args.spill_dir,
            spill_watermark=args.spill_watermark,
            **fields,
        )
    except PoisonChunkError as exc:
        print(f"poison chunk {exc.key!r} exhausted its redeliveries on "
              f"edge {exc.edge!r} (--on-poison fail)", file=sys.stderr)
        _close_ledger(spec.ledger, summary=False)
        return 1
    except ValueError as exc:
        # A bad plan, a missing flag, a dataset the stages cannot run
        # on: the same one-line messages as `persona pipeline`.
        print(str(exc), file=sys.stderr)
        return 2
    stages = plan.stages
    if "align" in stages:
        spec.dataset.save_manifest(args.dataset_dir)
    total_chunks = sum(s.chunks for s in outcome.servers)
    print(
        f"placed pipeline [{' -> '.join(stages)}] across "
        f"{len(outcome.servers)} servers ({args.transport} transport) "
        f"in {outcome.wall_seconds:.2f}s"
    )
    if outcome.autotuned_edges:
        print(f"  autotuned {len(outcome.autotuned_edges)} broker edge "
              f"capacities from the probe run's depth stats")
    for server in outcome.servers:
        marker = " [KILLED]" if server.killed else ""
        print(f"  {server.server:<10} {','.join(server.stages):<28} "
              f"{server.chunks:>4} chunks  {server.records:>7} records  "
              f"{server.wall_seconds:7.2f}s{marker}")
    print(f"  {total_chunks} chunk completions, "
          f"{outcome.total_redelivered} redelivered, imbalance "
          f"{outcome.completion_imbalance:.2f}x")
    if outcome.quarantined:
        print(f"  run completed DEGRADED: {outcome.total_quarantined} "
              f"chunk(s) quarantined")
        _print_quarantined(outcome.quarantined)
    _print_outputs(args, outcome, spec.reference)
    _close_ledger(spec.ledger)
    return 0


def _cmd_cluster_broker(args: argparse.Namespace) -> int:
    """Broker role: serve the plan's edges over TCP and publish names."""
    from repro.cluster.broker import Broker, BrokerServer
    from repro.cluster.multiserver import serve_plan
    from repro.cluster.placement import PlacementPlan

    plan = PlacementPlan.parse(args.plan)
    dataset = AGDDataset.open(args.dataset_dir)
    broker = Broker(
        delivery_deadline=args.delivery_deadline,
        max_redeliveries=args.max_redeliveries,
        on_poison=args.on_poison,
    )
    server = BrokerServer(broker, host=args.host, port=args.port,
                          shm=args.broker_shm, spill_dir=args.spill_dir,
                          spill_watermark=args.spill_watermark)
    serve_plan(broker, plan, dataset, edge_capacity=args.edge_capacity,
               listener=server)
    print(f"broker serving plan [{args.plan}] on "
          f"{server.host}:{server.port}")
    print(f"published {dataset.num_chunks} chunk names; waiting for "
          f"workers (timeout {args.timeout}s)")
    done = broker.wait_complete(timeout=args.timeout)
    if broker.poison_failure is not None:
        edge, key = broker.poison_failure
        print(f"poison chunk {key!r} exhausted its redeliveries on edge "
              f"{edge!r}; run aborted (--on-poison fail)", file=sys.stderr)
    if not done:
        # Abort the edges first so blocked workers unwind through the
        # PipelineAborted path instead of dying on connection resets
        # when the socket goes away below.
        broker.abort()
    # Workers only learn an edge is exhausted (or aborted) by polling
    # it: keep the socket up until they have all observed it and
    # disconnected.  The grace period scales with the run deadline so a
    # short-timeout invocation is not stuck a further fixed 60s here.
    server.wait_connections_closed(timeout=min(60.0, max(1.0, args.timeout)))
    quarantined = broker.quarantined()
    for edge, stat in broker.stats().items():
        print(f"  {edge:<16} published {stat['total_published']:>5}  "
              f"redelivered {stat['total_redelivered']:>3}  "
              f"expired {stat['total_expired']:>3}  "
              f"quarantined {stat['total_quarantined']:>3}  "
              f"max depth {stat['max_depth']}")
        if stat.get("wire_bytes") or stat.get("shm_handoffs"):
            print(f"  {'':<16} wire {stat['wire_bytes']:>12,}B of "
                  f"{stat['payload_bytes']:>12,}B payload  "
                  f"shm handoffs {stat['shm_handoffs']:>4} "
                  f"({stat['shm_bytes']:,}B)  copied "
                  f"{stat['copied_segments']:>4} "
                  f"({stat['copied_bytes']:,}B)")
    server.stop()
    if quarantined:
        _print_quarantined(quarantined)
    if broker.poison_failure is not None:
        return 1
    if not done:
        print("timed out before every edge drained", file=sys.stderr)
        return 1
    if quarantined:
        total = sum(len(v) for v in quarantined.values())
        print(f"all edges drained; run complete DEGRADED "
              f"({total} chunk(s) quarantined)")
    else:
        print("all edges drained; run complete")
    return 0


def _cmd_cluster_worker(args: argparse.Namespace) -> int:
    """Worker role: run one server's placed stage group."""
    from repro.cluster.broker import BrokerError, TcpBrokerClient
    from repro.cluster.multiserver import (
        build_placed_server,
        root_cause,
        run_placed_server,
    )
    from repro.cluster.placement import PlacementPlan
    from repro.core.pipelines import harvest_outputs
    from repro.core.subgraphs import ServerSite
    from repro.dataflow.errors import WorkerFenced

    host, port = _parse_host_port(args.connect)
    client = TcpBrokerClient(host, port, shm=args.broker_shm)
    site = None
    try:
        plan_doc = client.plan()
        if not plan_doc:
            print("broker serves no placement plan", file=sys.stderr)
            return 1
        if args.join:
            # Live admission: ask the broker to grow `--join`'s
            # (replicable) stage group by this server, then run with the
            # updated plan.
            try:
                plan_doc = client.admit(args.server, args.join)
            except BrokerError as exc:
                print(f"broker refused admission: {exc}", file=sys.stderr)
                return 1
            print(f"admitted into the running plan as a replica of "
                  f"{args.join!r}")
        try:
            plan = PlacementPlan.from_doc(plan_doc)
            hosted = plan.placement_for(args.server).stages
            spec, aligner = _spec_from_args(args, plan.stages, hosted,
                                            output_arg="--output-dir")
            site = ServerSite(
                aligner=aligner,
                backend=spec.make_backend(args.server, hosted))
            graph = build_placed_server(spec, plan, args.server, client,
                                        site)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        print(f"worker {args.server!r} running [{','.join(hosted)}] "
              f"against broker {host}:{port}")
        outcome = run_placed_server(graph, args.timeout)
    finally:
        if site is not None:
            spec.shutdown_backend(site.backend)
        client.close()
    if outcome.killed:
        # Fenced: the broker gave up on us (deadline expiry) and
        # reissued our work elsewhere.  Either way the run goes on
        # without this worker; exit without corrupting it.
        cause = root_cause(outcome.error)
        how = "fenced by the broker" if isinstance(cause, WorkerFenced) \
            else "killed"
        print(f"worker {args.server!r} was {how}: {cause}", file=sys.stderr)
        return 1
    print(f"  completed {outcome.chunks} chunks "
          f"({outcome.records} records)")
    if "align" in hosted:
        # Replicated align workers race here harmlessly: each saves the
        # same manifest content (results column + reference entry).
        if not spec.manifest.has_column("results"):
            spec.manifest.add_column("results")
        spec.dataset.save_manifest(args.dataset_dir)
        print(f"  results column registered -> {args.dataset_dir}")
    _print_outputs(args, harvest_outputs(spec, graph.pipeline.stages),
                   spec.reference)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    dataset = AGDDataset.open(args.dataset_dir)
    manifest = dataset.manifest
    print(f"dataset:    {manifest.name}")
    print(f"records:    {manifest.total_records}")
    print(f"chunks:     {manifest.num_chunks}")
    print(f"sort order: {manifest.sort_order}")
    print("columns:")
    for column in manifest.columns:
        nbytes = dataset.column_bytes(column)
        print(f"  {column:<10} {nbytes:>12,} bytes")
    if manifest.reference:
        print("reference contigs:")
        for contig in manifest.reference:
            print(f"  {contig['name']:<10} {contig['length']:>12,} bp")
    return 0


def _ledger_state_for(args: argparse.Namespace):
    """Replay the run the `runs` subcommand points at (latest if no id)."""
    from repro.core.ledger import RunLedger

    path = RunLedger.run_path(args.ledger_dir, args.run_id)
    return RunLedger.replay(path), path


def _cmd_runs_list(args: argparse.Namespace) -> int:
    from repro.core.ledger import LedgerError, list_runs

    try:
        runs = list_runs(args.ledger_dir)
    except LedgerError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if not runs:
        print(f"no run journals in {args.ledger_dir}")
        return 0
    print(f"{'RUN':<28} {'STATUS':<12} {'ATT':>3} {'CHUNKS':>6}  STAGES")
    for state in runs:
        created = (
            time.strftime("%Y-%m-%d %H:%M:%S",
                          time.localtime(state.created_at))
            if state.created_at else "?"
        )
        stages = ",".join(state.meta.get("stages") or []) or "-"
        chunks = sum(state.stage_counts.values())
        print(f"{state.run_id:<28} {state.status:<12} {state.attempts:>3} "
              f"{chunks:>6}  {stages}  ({created})")
    return 0


def _cmd_runs_show(args: argparse.Namespace) -> int:
    from repro.core.ledger import LedgerError

    try:
        state, path = _ledger_state_for(args)
    except LedgerError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(f"run:      {state.run_id}")
    print(f"journal:  {path}")
    print(f"status:   {state.status}")
    print(f"attempts: {state.attempts}")
    if state.created_at:
        print(f"created:  "
              f"{time.strftime('%Y-%m-%d %H:%M:%S', time.localtime(state.created_at))}")
    if state.meta:
        print("config:")
        for key in sorted(state.meta):
            print(f"  {key:<20} {state.meta[key]}")
    if state.stage_counts:
        print("progress (journaled chunk writes):")
        for stage in sorted(state.stage_counts):
            print(f"  {stage:<10} {state.stage_counts[stage]:>5} chunks")
    if state.spills:
        print(f"sort spills journaled: {len(state.spills)}")
    if state.edge_acks:
        print("broker edge acks:")
        for edge in sorted(state.edge_acks):
            print(f"  {edge:<16} {len(state.edge_acks[edge]):>5} keys")
    if state.quarantined:
        print("quarantined chunks (dead-lettered by the broker):")
        for edge in sorted(state.quarantined):
            for rec in state.quarantined[edge]:
                print(f"  {edge:<16} {rec['key']!r} after "
                      f"{rec['strikes']} strikes")
                for line in rec.get("history") or []:
                    print(f"    {line}")
    done = state.complete
    if done is not None:
        print("completion:")
        if "wall_seconds" in done:
            print(f"  wall        {done['wall_seconds']:.2f}s")
        for field_name in ("chunks", "records"):
            if field_name in done:
                print(f"  {field_name:<11} {done[field_name]}")
        if done.get("skipped"):
            parts = ", ".join(f"{k}={v}"
                              for k, v in sorted(done["skipped"].items()))
            print(f"  skipped     {parts}")
        for stage, timing in sorted((done.get("stages") or {}).items()):
            busy = timing.get("busy_seconds", 0.0)
            wait = timing.get("wait_seconds", 0.0)
            print(f"  {stage:<11} busy {busy:7.2f}s  wait {wait:7.2f}s")
        for server, info in sorted((done.get("servers") or {}).items()):
            marker = " [KILLED]" if info.get("killed") else ""
            print(f"  {server:<11} {info.get('chunks', 0):>4} chunks  "
                  f"{info.get('records', 0):>7} records{marker}")
    return 0


#: `runs verify` resolves each journaled store label to the directory the
#: run was started against (recorded in the run_config meta).
_STORE_META_KEYS = {
    "dataset": "dataset_dir",
    "output": "output_dir",
    "filter": "filter_dir",
}


def _cmd_runs_verify(args: argparse.Namespace) -> int:
    from repro.core.ledger import LedgerError, blob_digest

    try:
        state, path = _ledger_state_for(args)
    except LedgerError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    checked = 0
    problems: "list[str]" = []
    skipped_labels: "set[str]" = set()
    for (label, key), digest in sorted(state.writes.items()):
        root = state.meta.get(_STORE_META_KEYS.get(label, ""))
        if root is None:
            skipped_labels.add(label or "?")
            continue
        target = Path(root) / key
        checked += 1
        if not target.is_file():
            problems.append(f"missing   {label}:{key}")
        elif blob_digest(target.read_bytes()) != digest:
            problems.append(f"tampered  {label}:{key}")
    print(f"run {state.run_id}: verified {checked} journaled output "
          f"chunks against their digests")
    for label in sorted(skipped_labels):
        print(f"  (store {label!r} has no recorded directory; skipped)")
    if problems:
        for problem in problems:
            print(f"  {problem}")
        print(f"VERIFY FAILED: {len(problems)} chunk(s) missing or modified")
        return 1
    print("  all digests match")
    return 0


def _add_backend_options(
    p: argparse.ArgumentParser,
    default: str = "thread",
    with_workers: bool = False,
    with_shm: bool = True,
) -> None:
    """Attach the execution-backend flags to a subcommand that aligns
    (only the align kernels dispatch to a backend)."""
    from repro.dataflow.backends import BACKEND_CHOICES

    p.add_argument(
        "--backend",
        choices=BACKEND_CHOICES,
        default=default,
        help=f"execution backend for the align kernels (default: {default})",
    )
    p.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="task payloads per IPC message (process backend)",
    )
    if with_shm:
        p.add_argument(
            "--shm",
            action=argparse.BooleanOptionalAction,
            default=None,
            help="ship large process-backend payloads through "
                 "the shared-memory buffer pool instead of pickled pipes "
                 "(default: auto — on wherever POSIX shared memory works; "
                 "--no-shm forces the pickled path)",
        )
    if with_workers:
        p.add_argument(
            "--workers",
            type=int,
            default=4,
            help="worker count for thread/process backends",
        )


def _add_ledger_options(p: argparse.ArgumentParser) -> None:
    """Attach the durable-run flags to a pipeline-running subcommand."""
    p.add_argument(
        "--ledger-dir",
        default=None,
        metavar="DIR",
        help="journal this run's progress and provenance to an "
             "append-only ledger under DIR (enables crash-resume and "
             "the 'persona runs' subcommands)",
    )
    p.add_argument(
        "--run-id",
        default=None,
        help="explicit run id for the ledger (default: a fresh "
             "timestamped id; with --resume: the latest run)",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted run from its ledger: work whose "
             "journaled digests still match what is on disk is skipped, "
             "and the output is byte-identical to an uninterrupted run",
    )
    p.add_argument(
        "--scratch-dir",
        default=None,
        metavar="DIR",
        help="durable scratch directory for external-sort spills "
             "(default: in-memory; required for spill re-adoption "
             "across a crash-resume)",
    )


def _open_ledger(args: argparse.Namespace) -> "object | None":
    """Create or resume the run ledger the flags ask for (None if off)."""
    from repro.core.ledger import RunLedger

    if args.resume and not args.ledger_dir:
        raise ValueError("--resume requires --ledger-dir")
    if not args.ledger_dir:
        return None
    if args.resume:
        return RunLedger.resume(args.ledger_dir, run_id=args.run_id)
    # `runs verify` resolves journaled store labels through these.
    meta = {
        key: str(Path(getattr(args, key)).resolve())
        for key in ("dataset_dir", "output_dir", "filter_dir")
        if getattr(args, key)
    }
    return RunLedger.create(args.ledger_dir, run_id=args.run_id, meta=meta)


def _close_ledger(ledger, summary: bool = True) -> None:
    """Print the run's ledger summary (if it journaled) and close it."""
    if ledger is None:
        return
    if summary:
        skips = dict(ledger.skips)
        line = f"  run ledger: {ledger.run_id} -> {ledger.path}"
        if ledger.resuming:
            line += f" (resumed; {sum(skips.values())} journaled steps " \
                    f"skipped)"
        print(line)
        if skips:
            parts = ", ".join(f"{k}={v}" for k, v in sorted(skips.items()))
            print(f"  resume skips: {parts}")
    ledger.close()


def _add_codec_level_option(p: argparse.ArgumentParser, what: str) -> None:
    p.add_argument(
        "--codec-level",
        type=int,
        default=None,
        help=f"gzip compression level (0-9) for {what} "
             f"(default: library default, level 6)",
    )


def build_parser() -> argparse.ArgumentParser:
    from repro.core.subgraphs import STAGES

    parser = argparse.ArgumentParser(
        prog="persona",
        description="Persona bioinformatics framework (USENIX ATC '17 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("import-fastq", help="import FASTQ into an AGD dataset")
    p.add_argument("fastq")
    p.add_argument("dataset_dir")
    p.add_argument("--name", default=None)
    p.add_argument("--chunk-size", type=int, default=10_000)
    _add_codec_level_option(p, "the imported columns")
    p.set_defaults(fn=_cmd_import_fastq)

    p = sub.add_parser("import-sam", help="import SAM/BAM into an AGD dataset")
    p.add_argument("input")
    p.add_argument("dataset_dir")
    p.add_argument("--name", default=None)
    p.add_argument("--chunk-size", type=int, default=10_000)
    _add_codec_level_option(p, "the imported columns")
    p.set_defaults(fn=_cmd_import_sam)

    p = sub.add_parser("export", help="export AGD to SAM/BAM/FASTQ")
    p.add_argument("dataset_dir")
    p.add_argument("output")
    p.set_defaults(fn=_cmd_export)

    p = sub.add_parser("rechunk", help="rewrite a dataset with a new chunk size")
    p.add_argument("dataset_dir")
    p.add_argument("output_dir")
    p.add_argument("--chunk-size", type=int, required=True)
    _add_codec_level_option(p, "the rewritten columns")
    p.set_defaults(fn=_cmd_rechunk)

    p = sub.add_parser("align", help="align a dataset, appending results")
    p.add_argument("dataset_dir")
    p.add_argument("--reference", required=True)
    p.add_argument("--aligner", choices=("snap", "bwa"), default="snap")
    p.add_argument("--threads", type=int, default=4)
    _add_backend_options(p)
    p.set_defaults(fn=_cmd_align)

    p = sub.add_parser("sort", help="external-merge sort a dataset")
    p.add_argument("dataset_dir")
    p.add_argument("output_dir")
    p.add_argument("--order", choices=("location", "metadata"), default="location")
    p.add_argument("--superchunk", type=int, default=4)
    p.add_argument(
        "--scratch-dir",
        default=None,
        metavar="DIR",
        help="spill superchunk runs under DIR instead of in memory "
             "(spills to a local directory are written raw and restored "
             "as zero-copy mmap views; in-memory spills are gzipped)",
    )
    _add_codec_level_option(p, "the sorted output chunks")
    p.set_defaults(fn=_cmd_sort)

    p = sub.add_parser("dupmark", help="mark duplicate reads in place")
    p.add_argument("dataset_dir")
    p.set_defaults(fn=_cmd_dupmark)

    p = sub.add_parser("varcall", help="call variants to VCF")
    p.add_argument("dataset_dir")
    p.add_argument("output")
    p.add_argument("--reference", required=True)
    p.set_defaults(fn=_cmd_varcall)

    p = sub.add_parser(
        "pipeline",
        help="run several stages as one streaming dataflow graph",
    )
    p.add_argument("dataset_dir")
    p.add_argument(
        "output_dir",
        nargs="?",
        default=None,
        help="directory for the sorted dataset (required with a sort stage)",
    )
    p.add_argument("--reference", default=None)
    p.add_argument(
        "--stages",
        default="align,sort,dupmark,varcall",
        help=f"comma-separated ordered subset of {','.join(STAGES)}",
    )
    p.add_argument("--aligner", choices=("snap", "bwa"), default="snap")
    p.add_argument("--vcf", default=None, help="write called variants here")
    p.add_argument("--order", choices=("location", "metadata"),
                   default="location")
    p.add_argument("--superchunk", type=int, default=4)
    p.add_argument(
        "--min-mapq",
        type=int,
        default=None,
        help="filter-stage predicate: keep aligned reads with mapping "
             "quality >= N (required when --stages includes filter)",
    )
    p.add_argument(
        "--filter-dir",
        default=None,
        help="directory for the filtered dataset (default: kept in "
             "memory, only stats reported)",
    )
    p.add_argument(
        "--autotune-queues",
        action="store_true",
        help="run a sampling probe first, then re-run with per-queue "
             "capacities suggested from its depth traces",
    )
    p.add_argument(
        "--tune-cache",
        default=None,
        metavar="PATH",
        help="sidecar file persisting autotuned queue capacities "
             "(default: <dataset-dir>/.persona-tune.json); repeat runs "
             "load it and skip the probe",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="whole-pipeline deadline in seconds (default: none — the "
             "budget is shared by every fused stage)",
    )
    _add_backend_options(p, with_workers=True)
    _add_codec_level_option(p, "the sorted output chunks")
    _add_ledger_options(p)
    p.set_defaults(fn=_cmd_pipeline)

    p = sub.add_parser(
        "cluster",
        help="place the composed pipeline across servers (§5.2 for the "
             "whole workload)",
    )
    cluster_sub = p.add_subparsers(dest="cluster_command", required=True)

    def _add_cluster_shared(cp, with_vcf: bool = True) -> None:
        cp.add_argument("--reference", default=None)
        cp.add_argument("--aligner", choices=("snap", "bwa"),
                        default="snap")
        cp.add_argument("--order", choices=("location", "metadata"),
                        default="location")
        cp.add_argument("--superchunk", type=int, default=4)
        cp.add_argument("--min-mapq", type=int, default=None,
                        help="filter-stage predicate (plans with a "
                             "filter stage)")
        cp.add_argument("--filter-dir", default=None,
                        help="directory for the filtered dataset (plans "
                             "with a filter stage)")
        if with_vcf:
            cp.add_argument("--vcf", default=None,
                            help="write called variants here")
        cp.add_argument("--timeout", type=float, default=600.0,
                        help="per-server session deadline in seconds")
        _add_backend_options(cp, default="serial", with_workers=True,
                             with_shm=False)

    def _add_fault_options(cp) -> None:
        cp.add_argument("--delivery-deadline", type=_delivery_deadline,
                        default="auto", metavar="auto|off|SECONDS",
                        help="fence a worker whose delivery is overdue: "
                             "'auto' scales a per-edge moving service-"
                             "time estimate, a number is a fixed per-"
                             "delivery deadline, 'off' disables fencing "
                             "(default: auto)")
        cp.add_argument("--max-redeliveries", type=int, default=4,
                        help="strikes before a chunk is quarantined to "
                             "the per-edge dead-letter queue (default: 4)")
        cp.add_argument("--on-poison", choices=("quarantine", "fail"),
                        default="quarantine",
                        help="quarantine: complete the run degraded "
                             "without the poison chunk; fail: abort the "
                             "run at the first quarantined chunk")
        cp.add_argument("--spill-dir", default=None,
                        help="spill adopted shared-memory backlog past "
                             "--spill-watermark to files here (freeing "
                             "/dev/shm under backpressure)")
        cp.add_argument("--spill-watermark", type=int, default=None,
                        metavar="BYTES",
                        help="adopted-backlog bytes held in shared "
                             "memory before new payloads spill to "
                             "--spill-dir (default: the pool cap)")

    cp = cluster_sub.add_parser(
        "run",
        help="all-in-one placed run: broker plus every server, in one "
             "process (loopback TCP or in-process edges)",
    )
    cp.add_argument("dataset_dir")
    cp.add_argument("output_dir", nargs="?", default=None,
                    help="directory for the sorted dataset (required "
                         "with a sort stage)")
    cp.add_argument("--plan", required=True,
                    help='stage placement, e.g. '
                         '"A=align,sort;B=dupmark,varcall" (repeat a '
                         'pure align group for data-parallel replicas)')
    cp.add_argument("--transport", choices=("local", "tcp"),
                    default="local",
                    help="in-process reference edges or a real loopback "
                         "TCP broker")
    cp.add_argument("--host", default="127.0.0.1")
    cp.add_argument("--port", type=int, default=0)
    cp.add_argument("--edge-capacity", type=int, default=4,
                    help="stage-boundary edge depth (chunks in flight "
                         "per cut)")
    cp.add_argument("--autotune-edges", action="store_true",
                    help="run a probe placement first, then re-run with "
                         "per-edge capacities suggested from its broker "
                         "depth stats")
    cp.add_argument("--broker-shm", action=argparse.BooleanOptionalAction,
                    default=None,
                    help="hand large TCP edge payloads to same-host "
                         "workers through the broker's shared-memory "
                         "pool instead of copying them over the socket "
                         "(default: auto — on wherever /dev/shm works "
                         "and the client proves it shares the host; "
                         "--no-broker-shm forces the copy path)")
    _add_cluster_shared(cp)
    _add_fault_options(cp)
    _add_ledger_options(cp)
    cp.set_defaults(fn=_cmd_cluster_run)

    cp = cluster_sub.add_parser(
        "broker",
        help="broker role: serve the plan's edges over TCP and publish "
             "the dataset's chunk names",
    )
    cp.add_argument("dataset_dir")
    cp.add_argument("--plan", required=True)
    cp.add_argument("--host", default="0.0.0.0")
    cp.add_argument("--port", type=int, default=7470)
    cp.add_argument("--edge-capacity", type=int, default=4,
                    help="stage-boundary edge depth (chunks in flight "
                         "per cut)")
    cp.add_argument("--timeout", type=float, default=3600.0,
                    help="how long to wait for workers to drain the run")
    cp.add_argument("--broker-shm", action=argparse.BooleanOptionalAction,
                    default=None,
                    help="offer the shared-memory handoff to workers "
                         "that prove they share this host (default: "
                         "auto; --no-broker-shm serves copies only)")
    _add_fault_options(cp)
    cp.set_defaults(fn=_cmd_cluster_broker)

    cp = cluster_sub.add_parser(
        "worker",
        help="worker role: run one named server's placed stage group "
             "against a broker",
    )
    cp.add_argument("dataset_dir")
    cp.add_argument("--connect", required=True,
                    help="broker address host:port")
    cp.add_argument("--server", required=True,
                    help="this worker's server name in the plan")
    cp.add_argument("--join", default=None, metavar="SERVER",
                    help="attach to the RUNNING pipeline as a new "
                         "replica of SERVER's (replicable) stage group "
                         "instead of claiming a pre-planned slot; "
                         "--server names this new worker")
    cp.add_argument("--output-dir", default=None,
                    help="shared sorted-dataset directory (sort/dupmark "
                         "workers)")
    cp.add_argument("--broker-shm", action=argparse.BooleanOptionalAction,
                    default=None,
                    help="accept the broker's shared-memory handoff when "
                         "this worker shares its host (default: auto; "
                         "--no-broker-shm always pulls copies)")
    _add_cluster_shared(cp)
    cp.set_defaults(fn=_cmd_cluster_worker)

    p = sub.add_parser(
        "runs",
        help="inspect and verify durable run ledgers (see --ledger-dir)",
    )
    runs_sub = p.add_subparsers(dest="runs_command", required=True)

    rp = runs_sub.add_parser("list", help="list every run journaled in DIR")
    rp.add_argument("ledger_dir", metavar="DIR")
    rp.set_defaults(fn=_cmd_runs_list)

    rp = runs_sub.add_parser(
        "show",
        help="show one run's provenance: config, progress, timings",
    )
    rp.add_argument("ledger_dir", metavar="DIR")
    rp.add_argument("run_id", nargs="?", default=None,
                    help="run id (default: the most recent run)")
    rp.set_defaults(fn=_cmd_runs_show)

    rp = runs_sub.add_parser(
        "verify",
        help="re-digest every journaled output chunk against the ledger; "
             "exits 1 if any is missing or modified",
    )
    rp.add_argument("ledger_dir", metavar="DIR")
    rp.add_argument("run_id", nargs="?", default=None,
                    help="run id (default: the most recent run)")
    rp.set_defaults(fn=_cmd_runs_verify)

    p = sub.add_parser("stats", help="show dataset statistics")
    p.add_argument("dataset_dir")
    p.set_defaults(fn=_cmd_stats)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
