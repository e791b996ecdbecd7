"""Pileup-based variant calling (§8: "work ongoing to integrate
comprehensive data filtering and variant calling").

The paper lists variant calling as Persona's next integration target, so
this module implements the classic pileup caller the background section
describes (§2.1: variant calling "compares the reassembled genome to the
reference and attempts [to] identify mutations"): pile up aligned bases
per reference position, then call a site when the non-reference evidence
clears depth/fraction/quality thresholds.  SNP calls only — indel calling
is out of scope, as it is for GATK's basic pileup mode.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

from repro.agd.dataset import AGDDataset
from repro.align.result import cigar_operations
from repro.formats.vcf import VariantRecord
from repro.genome.reference import ReferenceGenome
from repro.genome.sequence import reverse_complement


@dataclass
class VarCallConfig:
    """Calling thresholds."""

    min_depth: int = 4
    min_alt_fraction: float = 0.6
    min_base_quality: int = 15
    min_mapq: int = 20
    skip_duplicates: bool = True


@dataclass
class PileupColumn:
    """Base evidence at one reference position."""

    depth: int = 0
    counts: "Counter[int]" = None  # base byte -> count

    def __post_init__(self) -> None:
        if self.counts is None:
            self.counts = Counter()


def pileup_records(
    results: list,
    bases_col: list,
    quals_col: list,
    config: VarCallConfig,
    columns: "dict[tuple[int, int], PileupColumn] | None" = None,
) -> "dict[tuple[int, int], PileupColumn]":
    """Accumulate pileup evidence for one batch of records.

    Soft clips and insertions consume read bases without reference
    positions; deletions consume reference without read bases — the CIGAR
    walk handles all three.  Accumulation is commutative (integer depth
    and base counts), so batches can pile up in any order and merge.
    """
    if columns is None:
        columns = defaultdict(PileupColumn)
    for result, bases, quals in zip(results, bases_col, quals_col):
        if not result.is_aligned or result.mapq < config.min_mapq:
            continue
        if config.skip_duplicates and result.is_duplicate:
            continue
        if result.is_reverse:
            bases = reverse_complement(bases)
            quals = quals[::-1]
        read_pos = 0
        ref_pos = result.position
        for length, op in cigar_operations(result.cigar):
            if op in "M=X":
                for offset in range(length):
                    quality = quals[read_pos + offset] - 33
                    if quality >= config.min_base_quality:
                        key = (result.contig_index, ref_pos + offset)
                        column = columns[key]
                        column.depth += 1
                        column.counts[bases[read_pos + offset]] += 1
                read_pos += length
                ref_pos += length
            elif op in "IS":
                read_pos += length
            elif op in "DN":
                ref_pos += length
            # H and P consume neither.
    return columns


def merge_pileups(
    target: "dict[tuple[int, int], PileupColumn]",
    other: "dict[tuple[int, int], PileupColumn]",
) -> "dict[tuple[int, int], PileupColumn]":
    """Fold one pileup into another (order-independent)."""
    for key, column in other.items():
        into = target[key] if isinstance(target, defaultdict) else \
            target.setdefault(key, PileupColumn())
        into.depth += column.depth
        into.counts.update(column.counts)
    return target


def pileup_dataset(
    dataset: AGDDataset,
    config: "VarCallConfig | None" = None,
) -> "dict[tuple[int, int], PileupColumn]":
    """Build pileup columns over an aligned (ideally sorted) dataset.

    This is the *scalar reference* implementation (dict-of-Counter
    columns); :func:`iter_pileup_partials` feeds the vectorized fast
    path that :func:`call_variants` uses by default.
    """
    config = config or VarCallConfig()
    columns: dict[tuple[int, int], PileupColumn] = defaultdict(PileupColumn)
    for chunk_index in range(dataset.num_chunks):
        pileup_records(
            dataset.read_chunk("results", chunk_index).records,
            dataset.read_chunk("bases", chunk_index).records,
            dataset.read_chunk("qual", chunk_index).records,
            config,
            columns,
        )
    return columns


def iter_pileup_partials(
    dataset: AGDDataset,
    config: "VarCallConfig | None" = None,
):
    """Each chunk's vectorized pileup partial, lazily, in chunk order:
    the chunk's three column blobs decode to columns and pile up
    entirely in numpy (:func:`repro.core.columnar.pileup_partial`).
    Raises :class:`~repro.core.columnar.ColumnarFallback` when a chunk
    cannot use the columnar encoding (non-ACGTN base bytes,
    sparse-and-wide coverage) — :func:`call_variants` then reruns the
    scalar path."""
    from repro.agd.chunk import read_column
    from repro.core.columnar import pileup_partial, read_results_column

    config = config or VarCallConfig()
    for entry in dataset.manifest.chunks:
        yield pileup_partial(
            read_results_column(
                dataset.store.get(entry.chunk_file("results"))),
            read_column(dataset.store.get(entry.chunk_file("bases"))),
            read_column(dataset.store.get(entry.chunk_file("qual"))),
            config,
        )


def call_from_pileup(
    columns: "dict[tuple[int, int], PileupColumn]",
    reference: ReferenceGenome,
    config: "VarCallConfig | None" = None,
) -> list[VariantRecord]:
    """Apply the calling thresholds to accumulated pileup columns.

    Iterates positions in sorted order, so the emitted VCF rows are
    deterministic regardless of how the pileup was accumulated.
    """
    config = config or VarCallConfig()
    names = reference.names
    variants: list[VariantRecord] = []
    for (contig_index, position), column in sorted(columns.items()):
        if column.depth < config.min_depth:
            continue
        contig = reference.contig(names[contig_index])
        # A malformed record can pile positions off either end of the
        # contig; a negative one must not index it from the back.
        if not 0 <= position < len(contig):
            continue
        ref_base = contig.sequence[position]
        alt_base, alt_count = max(
            column.counts.items(), key=lambda kv: (kv[1], kv[0])
        )
        if alt_base == ref_base:
            continue
        fraction = alt_count / column.depth
        if fraction < config.min_alt_fraction:
            continue
        quality = min(99.0, 10.0 * alt_count * fraction)
        variants.append(
            VariantRecord(
                chrom=names[contig_index],
                pos=position + 1,
                ref=chr(ref_base),
                alt=chr(alt_base),
                qual=quality,
                info={
                    "DP": column.depth,
                    "AF": f"{fraction:.3f}",
                },
            )
        )
    return variants


def call_variants(
    dataset: AGDDataset,
    reference: ReferenceGenome,
    config: "VarCallConfig | None" = None,
) -> list[VariantRecord]:
    """Call SNPs against the reference; returns VCF records in order.

    The pileup runs on the numpy fast path; the scalar reference path
    (:func:`pileup_dataset` + :func:`call_from_pileup`) produces
    byte-identical VCF output, is the ground truth the fast path is
    equivalence-tested against, and takes over by itself for input the
    columnar encoding cannot represent.
    """
    from repro.core.columnar import ColumnarFallback, PileupWindow

    config = config or VarCallConfig()
    window = PileupWindow(reference, config)
    try:
        for partial in iter_pileup_partials(dataset, config):
            window.add(partial)
        return window.finish()
    except ColumnarFallback:
        # Input the columnar encoding cannot represent exactly (e.g.
        # lowercase/IUPAC base bytes) or efficiently (sparse-and-wide
        # coverage): rerun on the scalar reference path.
        columns = pileup_dataset(dataset, config)
        return call_from_pileup(columns, reference, config)
