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


def _cmd_align(args: argparse.Namespace) -> int:
    from repro.core.pipelines import (
        align_dataset,
        build_bwa_aligner,
        build_snap_aligner,
    )
    from repro.core.subgraphs import AlignGraphConfig
    from repro.genome.reference import read_fasta
    from repro.metrics.throughput import format_bases_rate

    dataset = AGDDataset.open(args.dataset_dir)
    reference = read_fasta(args.reference)
    if args.aligner == "snap":
        aligner = build_snap_aligner(reference)
    elif args.aligner == "bwa":
        aligner = build_bwa_aligner(reference)
    else:
        print(f"unknown aligner {args.aligner!r}", file=sys.stderr)
        return 2
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


def _make_cli_backend(args: argparse.Namespace):
    """Build the compute backend a sort/varcall subcommand asked for.

    Returns ``None`` for the serial default (the sequential in-line code
    path needs no backend object at all).
    """
    from repro.dataflow.backends import make_backend

    if args.backend == "serial":
        return None
    return make_backend(
        args.backend, workers=args.workers, batch_size=args.batch_size,
        shm=args.shm,
    )


def _cmd_sort(args: argparse.Namespace) -> int:
    from repro.core.sort import SortConfig, sort_dataset

    dataset = AGDDataset.open(args.dataset_dir)
    out_store = DirectoryStore(args.output_dir)
    backend = _make_cli_backend(args)
    start = time.monotonic()
    try:
        sorted_ds = sort_dataset(
            dataset,
            out_store,
            SortConfig(
                order=args.order,
                chunks_per_superchunk=args.superchunk,
                output_codec_level=args.codec_level,
                merge_partitions=args.merge_partitions,
                raw_scratch=_raw_scratch_arg(args),
            ),
            scratch_store=(DirectoryStore(args.scratch_dir)
                           if args.scratch_dir else None),
            backend=backend,
        )
    finally:
        if backend is not None:
            backend.shutdown()
    sorted_ds.save_manifest(args.output_dir)
    elapsed = time.monotonic() - start
    print(
        f"sorted {sorted_ds.total_records} records by {args.order} "
        f"in {elapsed:.2f}s -> {args.output_dir}"
    )
    return 0


def _cmd_dupmark(args: argparse.Namespace) -> int:
    from repro.core.dupmark import mark_duplicates

    # --backend/--kernels are accepted and ignored: there is one dupmark
    # implementation, and it is too cheap per chunk to dispatch.
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
    backend = _make_cli_backend(args)
    try:
        variants = call_variants(dataset, reference, backend=backend,
                                 vectorized=args.kernels == "vectorized")
    finally:
        if backend is not None:
            backend.shutdown()
    count = write_vcf(variants, args.output, contigs=reference.manifest_entry())
    print(f"called {count} variants -> {args.output}")
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    from repro.core.filters import by_min_mapq
    from repro.core.pipelines import (
        PIPELINE_STAGES,
        TUNE_SIDECAR_NAME,
        build_bwa_aligner,
        build_snap_aligner,
        run_pipeline,
    )
    from repro.core.sort import SortConfig
    from repro.core.subgraphs import AlignGraphConfig
    from repro.formats.vcf import write_vcf
    from repro.genome.reference import read_fasta

    stages = tuple(s.strip() for s in args.stages.split(",") if s.strip())
    unknown = [s for s in stages if s not in PIPELINE_STAGES]
    if unknown:
        print(f"unknown stages {unknown} "
              f"(choices: {','.join(PIPELINE_STAGES)})", file=sys.stderr)
        return 2
    if "sort" in stages and not args.output_dir:
        print("an output directory is required when the sort stage runs "
              "(it receives the sorted dataset)", file=sys.stderr)
        return 2
    if "filter" in stages and args.min_mapq is None:
        print("--min-mapq is required when the filter stage runs",
              file=sys.stderr)
        return 2
    dataset = AGDDataset.open(args.dataset_dir)
    aligner = None
    reference = None
    if "align" in stages or "varcall" in stages:
        if not args.reference:
            print("--reference is required for align/varcall stages",
                  file=sys.stderr)
            return 2
        reference = read_fasta(args.reference)
    if "align" in stages:
        builder = {"snap": build_snap_aligner, "bwa": build_bwa_aligner}
        aligner = builder[args.aligner](reference)
    if reference is not None:
        # Output manifests (sorted dataset, VCF contigs) must name the
        # reference even when this invocation runs no align stage.
        dataset.manifest.reference = reference.manifest_entry()
    output_store = DirectoryStore(args.output_dir) if "sort" in stages \
        else None
    filter_store = DirectoryStore(args.filter_dir) if args.filter_dir \
        else None
    if args.tune_cache is not None and not args.autotune_queues:
        print("--tune-cache only takes effect with --autotune-queues",
              file=sys.stderr)
        return 2
    if args.autotune_queues and args.tune_cache is None:
        # Sidecar next to the dataset: repeat runs load the persisted
        # suggestions and skip the probe entirely.
        args.tune_cache = str(Path(args.dataset_dir) / TUNE_SIDECAR_NAME)
    try:
        ledger = _open_ledger(
            args,
            dataset_dir=args.dataset_dir,
            output_dir=args.output_dir,
            filter_dir=args.filter_dir,
        )
        outcome = run_pipeline(
            dataset,
            stages,
            aligner=aligner,
            reference=reference,
            align_config=AlignGraphConfig(
                executor_threads=args.workers,
                aligner_nodes=max(1, args.workers // 2),
            ),
            sort_config=SortConfig(
                order=args.order,
                chunks_per_superchunk=args.superchunk,
                output_codec_level=args.codec_level,
                merge_partitions=args.merge_partitions,
                raw_scratch=_raw_scratch_arg(args),
            ),
            filter_predicate=(by_min_mapq(args.min_mapq)
                              if args.min_mapq is not None else None),
            output_store=output_store,
            filter_store=filter_store,
            scratch_store=(DirectoryStore(args.scratch_dir)
                           if args.scratch_dir else None),
            backend=args.backend,
            workers=args.workers,
            batch_size=args.batch_size,
            session_timeout=args.timeout,
            vectorized=args.kernels == "vectorized",
            autotune_queues=args.autotune_queues,
            tune_path=(args.tune_cache if args.autotune_queues else None),
            shm=args.shm,
            ledger=ledger,
        )
    except ValueError as exc:
        # Stage-composition errors (order, duplicates, missing results
        # column, ...) are user input errors, same class as unknown
        # stage names above.
        print(str(exc), file=sys.stderr)
        return 2
    if "align" in stages:
        dataset.save_manifest(args.dataset_dir)
    if outcome.sorted_dataset is not None:
        outcome.sorted_dataset.save_manifest(args.output_dir)
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
    if outcome.dupmark_stats is not None:
        print(f"  duplicates marked: "
              f"{outcome.dupmark_stats.duplicates_marked}")
    if outcome.filter_stats is not None:
        print(f"  filter kept {outcome.filter_stats.kept} of "
              f"{outcome.filter_stats.examined} records "
              f"(mapq >= {args.min_mapq})")
        if args.filter_dir:
            outcome.filtered_dataset.save_manifest(args.filter_dir)
            print(f"  filtered dataset -> {args.filter_dir}")
    if outcome.variants is not None:
        if args.vcf:
            count = write_vcf(outcome.variants, args.vcf,
                              contigs=reference.manifest_entry())
            print(f"  called {count} variants -> {args.vcf}")
        else:
            print(f"  called {len(outcome.variants)} variants "
                  f"(pass --vcf to write them)")
    if outcome.sorted_dataset is not None:
        print(f"  sorted dataset -> {args.output_dir}")
    if ledger is not None:
        _print_ledger_summary(ledger)
        ledger.close()
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


def _cluster_reference_and_aligner(args, stages):
    """Load the reference / build the aligner a stage set needs."""
    from repro.core.pipelines import build_bwa_aligner, build_snap_aligner
    from repro.genome.reference import read_fasta

    reference = None
    aligner = None
    if "align" in stages or "varcall" in stages:
        if not args.reference:
            raise SystemExit("--reference is required for align/varcall "
                             "stages")
        reference = read_fasta(args.reference)
    if "align" in stages:
        builder = {"snap": build_snap_aligner, "bwa": build_bwa_aligner}
        aligner = builder[args.aligner](reference)
    return reference, aligner


def _cluster_filter_predicate(args, stages):
    from repro.core.filters import by_min_mapq

    if "filter" not in stages:
        return None
    if args.min_mapq is None:
        raise SystemExit("--min-mapq is required when the plan places a "
                         "filter stage")
    return by_min_mapq(args.min_mapq)


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
    from repro.core.sort import SortConfig
    from repro.formats.vcf import write_vcf

    plan = PlacementPlan.parse(args.plan)
    stages = plan.stages
    dataset = AGDDataset.open(args.dataset_dir)
    reference, aligner = _cluster_reference_and_aligner(args, stages)
    if reference is not None:
        dataset.manifest.reference = reference.manifest_entry()
    if "sort" in stages and not args.output_dir:
        print("--output-dir is required when the plan places a sort stage",
              file=sys.stderr)
        return 2
    try:
        ledger = _open_ledger(
            args,
            dataset_dir=args.dataset_dir,
            output_dir=args.output_dir,
            filter_dir=args.filter_dir,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    scratch_factory = None
    if args.scratch_dir:
        scratch_root = Path(args.scratch_dir)

        def scratch_factory(server: str):
            return DirectoryStore(scratch_root / server)

    try:
        outcome = run_placed_pipeline(
            dataset,
            plan,
            aligner=aligner,
            reference=reference,
            sort_config=SortConfig(order=args.order,
                                   chunks_per_superchunk=args.superchunk,
                                   raw_scratch=_raw_scratch_arg(args)),
            filter_predicate=_cluster_filter_predicate(args, stages),
            output_store=(DirectoryStore(args.output_dir)
                          if args.output_dir else None),
            filter_store=(DirectoryStore(args.filter_dir)
                          if args.filter_dir else None),
            scratch_store_factory=scratch_factory,
            backend=args.backend,
            workers=args.workers,
            batch_size=args.batch_size,
            transport=args.transport,
            host=args.host,
            port=args.port,
            edge_capacity=args.edge_capacity,
            autotune_edges=args.autotune_edges,
            broker_shm=args.broker_shm,
            session_timeout=args.timeout,
            vectorized=args.kernels == "vectorized",
            ledger=ledger,
            delivery_deadline=args.delivery_deadline,
            max_redeliveries=args.max_redeliveries,
            on_poison=args.on_poison,
            spill_dir=args.spill_dir,
            spill_watermark=args.spill_watermark,
        )
    except PoisonChunkError as exc:
        print(f"poison chunk {exc.key!r} exhausted its redeliveries on "
              f"edge {exc.edge!r} (--on-poison fail)", file=sys.stderr)
        if ledger is not None:
            ledger.close()
        return 1
    if "align" in stages:
        dataset.save_manifest(args.dataset_dir)
    if outcome.sorted_dataset is not None:
        outcome.sorted_dataset.save_manifest(args.output_dir)
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
    if outcome.dupmark_stats is not None:
        print(f"  duplicates marked: "
              f"{outcome.dupmark_stats.duplicates_marked}")
    if outcome.filter_stats is not None:
        print(f"  filter kept {outcome.filter_stats.kept} of "
              f"{outcome.filter_stats.examined} records "
              f"(mapq >= {args.min_mapq})")
        if args.filter_dir:
            outcome.filtered_dataset.save_manifest(args.filter_dir)
            print(f"  filtered dataset -> {args.filter_dir}")
    if outcome.variants is not None and args.vcf:
        count = write_vcf(outcome.variants, args.vcf,
                          contigs=reference.manifest_entry())
        print(f"  called {count} variants -> {args.vcf}")
    elif outcome.variants is not None:
        print(f"  called {len(outcome.variants)} variants "
              f"(pass --vcf to write them)")
    if outcome.sorted_dataset is not None:
        print(f"  sorted dataset -> {args.output_dir}")
    if ledger is not None:
        _print_ledger_summary(ledger)
        ledger.close()
    return 0


def _cmd_cluster_broker(args: argparse.Namespace) -> int:
    """Broker role: serve the plan's edges over TCP and publish names."""
    from repro.cluster.broker import Broker, BrokerServer, LocalBrokerClient
    from repro.cluster.placement import WORK_EDGE, PlacementPlan
    from repro.cluster.wire import entry_serializer
    from repro.dataflow.queues import RemoteQueue

    plan = PlacementPlan.parse(args.plan)
    dataset = AGDDataset.open(args.dataset_dir)
    broker = Broker(
        delivery_deadline=args.delivery_deadline,
        max_redeliveries=args.max_redeliveries,
        on_poison=args.on_poison,
    )
    broker.plan_doc = plan.to_doc()
    for spec in plan.edges():
        broker.create_edge(
            spec.name,
            capacity=(max(1, dataset.num_chunks)
                      if spec.name == WORK_EDGE else args.edge_capacity),
            producers=spec.producers,
        )
    server = BrokerServer(broker, host=args.host, port=args.port,
                          shm=args.broker_shm, spill_dir=args.spill_dir,
                          spill_watermark=args.spill_watermark).start()
    print(f"broker serving plan [{args.plan}] on "
          f"{server.host}:{server.port}")
    coordinator = LocalBrokerClient(broker)
    work_queue = RemoteQueue(coordinator, WORK_EDGE, entry_serializer())
    work_queue.register_producer()
    for entry in dataset.manifest.chunks:
        work_queue.put(entry)
    work_queue.producer_done()
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
    from repro.cluster.broker import TcpBrokerClient
    from repro.cluster.multiserver import queue_factory
    from repro.cluster.placement import PlacementPlan
    from repro.core.pipelines import (
        build_placed_server_graph,
        placed_server_endpoints,
    )
    from repro.core.sort import SortConfig
    from repro.dataflow.backends import make_backend
    from repro.dataflow.session import Session
    from repro.formats.vcf import write_vcf

    from repro.cluster.broker import BrokerError

    host, port = _parse_host_port(args.connect)
    client = TcpBrokerClient(host, port, shm=args.broker_shm)
    plan_doc = client.plan()
    if not plan_doc:
        print("broker serves no placement plan", file=sys.stderr)
        return 1
    if args.join:
        # Live admission: ask the broker to grow `--join`'s (replicable)
        # stage group by this server, then run with the updated plan.
        try:
            plan_doc = client.admit(args.server, args.join)
        except BrokerError as exc:
            print(f"broker refused admission: {exc}", file=sys.stderr)
            client.close()
            return 1
        print(f"admitted into the running plan as a replica of "
              f"{args.join!r}")
    plan = PlacementPlan.from_doc(plan_doc)
    placement = plan.placement_for(args.server)
    stages = plan.stages
    dataset = AGDDataset.open(args.dataset_dir)
    reference, aligner = _cluster_reference_and_aligner(args, placement.stages)
    if reference is not None:
        # A sort/varcall-only worker writes the sorted manifest: it
        # must carry the reference contigs exactly like a single-run
        # `persona pipeline` output would, or the two diverge.
        dataset.manifest.reference = reference.manifest_entry()
    if "sort" in stages and not args.output_dir and (
            "sort" in placement.stages or "dupmark" in placement.stages):
        print("--output-dir (the shared sorted-dataset directory) is "
              "required for sort/dupmark workers when the plan places a "
              "sort stage", file=sys.stderr)
        return 2
    backend_obj = make_backend(args.backend, workers=args.workers,
                               batch_size=args.batch_size,
                               name=f"{args.server}.backend")
    sort_store = DirectoryStore(args.output_dir) if args.output_dir else None
    work_queue, ingress, egress, manual = placed_server_endpoints(
        plan, args.server, queue_factory(lambda server: client)
    )
    graph = build_placed_server_graph(
        dataset,
        args.server,
        placement.stages,
        stages,
        work_queue=work_queue,
        ingress=ingress,
        egress=egress,
        manual_ack=manual,
        aligner=aligner,
        reference=reference,
        sort_config=SortConfig(order=args.order,
                               chunks_per_superchunk=args.superchunk,
                               raw_scratch=_raw_scratch_arg(args)),
        filter_predicate=_cluster_filter_predicate(args, placement.stages),
        sort_store=sort_store,
        filter_store=(DirectoryStore(args.filter_dir)
                      if args.filter_dir else None),
        backend_obj=backend_obj,
        vectorized=args.kernels == "vectorized",
    )
    print(f"worker {args.server!r} running [{','.join(placement.stages)}] "
          f"against broker {host}:{port}")
    try:
        Session(graph.pipeline.graph).run(timeout=args.timeout)
    except Exception as exc:
        from repro.cluster.multiserver import _root_cause
        from repro.dataflow.errors import WorkerFenced

        if isinstance(_root_cause(exc), WorkerFenced):
            # The broker gave up on us (deadline expiry) and reissued
            # our work elsewhere; exit without corrupting the run.
            print(f"worker {args.server!r} was fenced by the broker: "
                  f"{_root_cause(exc)}", file=sys.stderr)
            return 1
        raise
    finally:
        backend_obj.shutdown()
        client.close()
    print(f"  completed {graph.sink.chunks} chunks "
          f"({graph.sink.records} records)")
    if "align" in placement.stages:
        # Replicated align workers race here harmlessly: each saves the
        # same manifest content (results column + reference entry).
        if not dataset.manifest.has_column("results"):
            dataset.manifest.add_column("results")
        dataset.save_manifest(args.dataset_dir)
        print(f"  results column registered -> {args.dataset_dir}")
    if "sort" in placement.stages and args.output_dir:
        sorted_manifest = graph.stage("sort").collector.manifest
        sorted_manifest.save(args.output_dir)
        print(f"  sorted dataset -> {args.output_dir}")
    if "dupmark" in placement.stages:
        stats = graph.stage("dupmark").collector.dup_stats
        print(f"  duplicates marked: {stats.duplicates_marked}")
    if "filter" in placement.stages:
        fstats = graph.stage("filter").collector.filter_stats
        print(f"  filter kept {fstats.kept} of {fstats.examined} records")
        if args.filter_dir:
            graph.stage("filter").collector.manifest.save(args.filter_dir)
            print(f"  filtered dataset -> {args.filter_dir}")
    if "varcall" in placement.stages:
        variants = graph.stage("varcall").collector.variants
        if args.vcf:
            count = write_vcf(variants, args.vcf,
                              contigs=reference.manifest_entry())
            print(f"  called {count} variants -> {args.vcf}")
        else:
            print(f"  called {len(variants)} variants")
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
    runs: str = "the align kernels and the sort's run and merge kernels",
) -> None:
    """Attach the shared execution-backend flags to a subcommand;
    ``runs`` says, for the help text, what it dispatches there."""
    from repro.dataflow.backends import BACKEND_CHOICES

    p.add_argument(
        "--backend",
        choices=BACKEND_CHOICES,
        default=default,
        help=f"execution backend for {runs} (default: {default})",
    )
    p.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="task payloads per IPC message (process backend)",
    )
    p.add_argument(
        "--shm",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="ship large process-backend payloads/results through the "
             "shared-memory buffer pool instead of pickled pipes "
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


def _add_kernel_options(
    p: argparse.ArgumentParser,
    with_merge_partitions: bool = False,
) -> None:
    """Attach the columnar fast-path flags to a subcommand."""
    p.add_argument(
        "--kernels",
        choices=("vectorized", "scalar"),
        default="vectorized",
        help="varcall kernel implementation: the numpy columnar fast "
             "path (default) or the scalar reference path (identical "
             "output, used for equivalence testing); sort and dupmark "
             "have one implementation each and ignore this",
    )
    p.add_argument(
        "--raw-scratch",
        choices=("auto", "on", "off"),
        default="auto",
        help="sort-spill scratch framing: 'on' writes runs raw "
             "(identity codec) so the merge restores them as zero-copy "
             "mmap views, 'off' gzips scratch, 'auto' (default) picks "
             "raw when the scratch store is a local directory",
    )
    if with_merge_partitions:
        p.add_argument(
            "--merge-partitions",
            type=int,
            default=None,
            help="partitioned sort-merge kernels for phase 2 of the "
                 "external sort (default: one per backend worker)",
        )


def _raw_scratch_arg(args: argparse.Namespace) -> "bool | None":
    """Map the ``--raw-scratch`` tri-state to ``SortConfig.raw_scratch``."""
    value = getattr(args, "raw_scratch", "auto")
    return None if value == "auto" else value == "on"


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


def _open_ledger(args: argparse.Namespace, **meta_dirs) -> "object | None":
    """Create or resume the run ledger the flags ask for (None if off)."""
    from repro.core.ledger import RunLedger

    if args.resume and not args.ledger_dir:
        raise SystemExit("--resume requires --ledger-dir")
    if not args.ledger_dir:
        return None
    if args.resume:
        return RunLedger.resume(args.ledger_dir, run_id=args.run_id)
    meta = {
        key: str(Path(value).resolve())
        for key, value in meta_dirs.items() if value
    }
    return RunLedger.create(args.ledger_dir, run_id=args.run_id, meta=meta)


def _print_ledger_summary(ledger, report: "dict | None" = None) -> None:
    skips = dict(ledger.skips)
    line = f"  run ledger: {ledger.run_id} -> {ledger.path}"
    if ledger.resuming:
        done = sum(skips.values())
        line += f" (resumed; {done} journaled steps skipped)"
    print(line)
    if skips:
        parts = ", ".join(f"{k}={v}" for k, v in sorted(skips.items()))
        print(f"  resume skips: {parts}")


def _add_codec_level_option(p: argparse.ArgumentParser, what: str) -> None:
    p.add_argument(
        "--codec-level",
        type=int,
        default=None,
        help=f"gzip compression level (0-9) for {what} "
             f"(default: library default, level 6)",
    )


def build_parser() -> argparse.ArgumentParser:
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
             "(a local directory arms the zero-copy raw-scratch path; "
             "see --raw-scratch)",
    )
    _add_backend_options(p, default="serial", with_workers=True)
    _add_kernel_options(p, with_merge_partitions=True)
    _add_codec_level_option(p, "the sorted output chunks")
    p.set_defaults(fn=_cmd_sort)

    p = sub.add_parser("dupmark", help="mark duplicate reads in place")
    p.add_argument("dataset_dir")
    _add_backend_options(p, default="serial", with_workers=True)
    _add_kernel_options(p)
    p.set_defaults(fn=_cmd_dupmark)

    p = sub.add_parser("varcall", help="call variants to VCF")
    p.add_argument("dataset_dir")
    p.add_argument("output")
    p.add_argument("--reference", required=True)
    _add_backend_options(
        p, default="serial", with_workers=True,
        runs="the per-chunk fan-out (inflate + pileup of a chunk's blobs)",
    )
    _add_kernel_options(p)
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
        help="comma-separated ordered subset of "
             "align,sort,dupmark,filter,varcall",
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
    _add_kernel_options(p, with_merge_partitions=True)
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
        _add_backend_options(cp, default="serial", with_workers=True)
        _add_kernel_options(cp)

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
