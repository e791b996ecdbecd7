"""Whole-genome-sequencing pipeline: the paper's motivating workload (§1),
now as ONE composed dataflow graph (§4.1).

A complete WGS preprocessing run over paired-end reads:

    FASTQ import -> paired-end alignment (BWA-MEM-style, with the serial
    insert-size inference step of §4.3) -> coordinate sort (§4.3's
    external merge sort) -> duplicate marking (§5.6) -> variant calling
    -> VCF + sorted SAM export.

Unlike the original five-pass version of this example, alignment, sort,
duplicate marking, and variant calling all execute in a SINGLE
``Session.run``: ``run_pipeline`` fuses the four stage subgraphs sink
queue to source queue, so AGD chunks stream between stages under §4.5's
bounded-queue flow control and the dataset never materializes in storage
between stages.

A handful of SNPs are planted in the "patient" genome so the variant
caller has something real to find.

Run:  python examples/wgs_pipeline.py
"""

import io

from repro.core import (
    AlignGraphConfig,
    SortConfig,
    VarCallConfig,
    build_bwa_aligner,
    run_pipeline,
    verify_sorted,
)
from repro.formats import export_sam, fastq_bytes, import_fastq_stream, write_vcf
from repro.genome import (
    ErrorModel,
    ReadSimulator,
    reference_from_sequences,
    synthetic_reference,
)
from repro.storage import MemoryStore

GENOME_LENGTH = 60_000
COVERAGE = 10.0
SNP_POSITIONS = (9_000, 21_000, 33_000, 45_000, 57_000)


def mutate(base: int) -> int:
    return {65: 67, 67: 71, 71: 84, 84: 65}[base]  # A->C->G->T->A


def main() -> None:
    # ------------------------------------------------------------ sample
    reference = synthetic_reference(GENOME_LENGTH, num_contigs=2, seed=7)
    patient_seq = bytearray(reference.concatenated())
    truth = {}
    for pos in SNP_POSITIONS:
        original = patient_seq[pos]
        patient_seq[pos] = mutate(original)
        truth[pos] = (chr(original), chr(patient_seq[pos]))
    split = len(reference.contigs[0])
    patient = reference_from_sequences([
        ("chr1", bytes(patient_seq[:split])),
        ("chr2", bytes(patient_seq[split:])),
    ])
    simulator = ReadSimulator(
        patient,
        read_length=101,
        paired=True,
        insert_size_mean=320,
        insert_size_sd=25,
        duplicate_fraction=0.10,
        error_model=ErrorModel(substitution_rate=0.002, indel_rate=0.0005),
        seed=8,
    )
    count = simulator.reads_for_coverage(COVERAGE)
    reads, origins = simulator.simulate(count + count % 2)
    print(f"patient genome: {GENOME_LENGTH:,} bp with {len(truth)} SNPs; "
          f"{len(reads):,} paired reads at {COVERAGE:.0f}x")

    # ------------------------------------------------------------ import
    store = MemoryStore()
    dataset = import_fastq_stream(
        io.BytesIO(fastq_bytes(reads)), "wgs", store, chunk_size=512
    )
    dataset.manifest.reference = reference.manifest_entry()
    print(f"imported: {dataset.num_chunks} chunks, "
          f"{dataset.total_bytes():,} B in AGD")

    # ------------------------------------------------ one-graph pipeline
    aligner = build_bwa_aligner(reference)
    # The single-threaded BWA-MEM inference step (§4.3) stays outside the
    # graph: it must see sample pairs before parallel alignment starts.
    sample_pairs = [
        (reads[i].bases, reads[i + 1].bases) for i in range(0, 80, 2)
    ]
    model = aligner.infer_insert_size(sample_pairs)
    print(f"insert-size model (serial step): mean={model.mean:.0f} "
          f"sd={model.std:.0f} from {model.samples} pairs")

    outcome = run_pipeline(
        dataset,
        stages=("align", "sort", "dupmark", "varcall"),
        aligner=aligner,
        reference=reference,
        align_config=AlignGraphConfig(paired=True, subchunk_size=128),
        sort_config=SortConfig(chunks_per_superchunk=4),
        varcall_config=VarCallConfig(min_mapq=20),
        name="wgs",
    )
    print(f"one-graph run: align+sort+dupmark+varcall in "
          f"{outcome.wall_seconds:.1f}s (single Session.run)")
    for stage in outcome.stages:
        print(f"  {stage.name:<8} busy {stage.busy_seconds:7.3f}s  "
              f"wait {stage.wait_seconds:7.3f}s  "
              f"{stage.records_per_second:>12,.0f} records/s")

    # ------------------------------------------------------------- align
    results = dataset.read_column("results")
    proper = sum(1 for r in results if r.flag & 0x2)
    print(f"proper pairs: {proper}/{len(results)}")

    # -------------------------------------------------------------- sort
    sorted_ds = outcome.sorted_dataset
    assert verify_sorted(sorted_ds)
    print(f"coordinate-sorted: {sorted_ds.num_chunks} chunks "
          f"(external merge streamed through the graph)")

    # ----------------------------------------------------------- dupmark
    stats = outcome.dupmark_stats
    true_dups = sum(1 for o in origins if o.is_duplicate)
    print(f"duplicates marked: {stats.duplicates_marked} "
          f"(planted PCR duplicates: {true_dups})")

    # ----------------------------------------------------------- varcall
    variants = outcome.variants
    planted_local = set()
    for pos in set(SNP_POSITIONS):
        contig, local = reference.to_local(pos)
        planted_local.add((contig, local))
    found = {(v.chrom, v.pos - 1) for v in variants} & planted_local
    print(f"variants called: {len(variants)}; planted SNPs recovered: "
          f"{len(found)}/{len(planted_local)}")
    assert found == planted_local, "one-graph run must recover every SNP"

    # ------------------------------------------------------------ export
    vcf_buf = io.BytesIO()
    write_vcf(variants, vcf_buf, contigs=reference.manifest_entry())
    sam_buf = io.BytesIO()
    export_sam(sorted_ds, sam_buf)
    print(f"exports: VCF {len(vcf_buf.getvalue()):,} B, "
          f"sorted SAM {len(sam_buf.getvalue()):,} B "
          f"(AGD results column: {sorted_ds.column_bytes('results'):,} B)")


if __name__ == "__main__":
    main()
