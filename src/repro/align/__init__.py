"""Aligner substrate: SNAP-like, BWA-MEM-like, paired-end."""

from repro.align.bwa import BwaConfig, BwaMemAligner, FMIndex, InsertSizeModel
from repro.align.distance import (
    banded_alignment,
    hamming,
    landau_vishkin,
    verify_candidate,
)
from repro.align.paired import InsertWindow, PairedAligner
from repro.align.result import (
    FLAG_DUPLICATE,
    FLAG_FIRST_IN_PAIR,
    FLAG_MATE_REVERSE,
    FLAG_MATE_UNMAPPED,
    FLAG_PAIRED,
    FLAG_PROPER_PAIR,
    FLAG_REVERSE,
    FLAG_SECOND_IN_PAIR,
    FLAG_SECONDARY,
    FLAG_UNMAPPED,
    AlignmentResult,
    cigar_operations,
    cigar_read_span,
    cigar_reference_span,
    make_cigar,
)
from repro.align.snap import SeedIndex, SnapAligner, SnapConfig, compute_mapq

__all__ = [
    "AlignmentResult",
    "BwaConfig",
    "BwaMemAligner",
    "FLAG_DUPLICATE",
    "FLAG_FIRST_IN_PAIR",
    "FLAG_MATE_REVERSE",
    "FLAG_MATE_UNMAPPED",
    "FLAG_PAIRED",
    "FLAG_PROPER_PAIR",
    "FLAG_REVERSE",
    "FLAG_SECOND_IN_PAIR",
    "FLAG_SECONDARY",
    "FLAG_UNMAPPED",
    "FMIndex",
    "InsertSizeModel",
    "InsertWindow",
    "PairedAligner",
    "SeedIndex",
    "SnapAligner",
    "SnapConfig",
    "banded_alignment",
    "cigar_operations",
    "cigar_read_span",
    "cigar_reference_span",
    "compute_mapq",
    "hamming",
    "landau_vishkin",
    "make_cigar",
    "verify_candidate",
]
