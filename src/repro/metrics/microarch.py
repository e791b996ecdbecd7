"""Simulated microarchitectural workload analysis (Figure 8, §6).

The paper profiles both aligners with Intel VTune and finds they are
"heavily CPU backend-bound": SNAP "due to the core and not memory access
— ... short but frequent calls to a local alignment edit distance
function that has a small instruction mix and many data dependent
instructions and branches", while "in BWA-MEM, the system is much more
memory bound ... due mostly to cache misses and DTLB misses".

VTune is unavailable here (and meaningless over CPython), so this module
reproduces the *analysis*, not the measurement: it instruments our
aligner kernels to count operation classes, then maps each class through
a fixed top-down weighting to retiring / frontend / bad-speculation /
backend fractions, with the backend split into core- and memory-bound
parts.  The class weights are set from the architectural character of
each operation (a hash probe touches one cache line; an FM-index occ
query is a dependent random access; an LV inner step is branchy ALU
work), so the *contrast* between the aligners is an output, not an input:
it emerges from which operations each algorithm actually performs.
SPEC reference rows (from published top-down characterizations) are
provided for the same visual comparison the paper makes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.align.bwa.aligner import BwaMemAligner
from repro.align.snap.aligner import SnapAligner


@dataclass(frozen=True)
class OpClassWeights:
    """Top-down character of one operation class (fractions sum <= 1)."""

    retiring: float
    frontend: float
    bad_speculation: float
    backend_core: float
    backend_memory: float

    def __post_init__(self) -> None:
        total = (
            self.retiring + self.frontend + self.bad_speculation
            + self.backend_core + self.backend_memory
        )
        if not 0.99 <= total <= 1.01:
            raise ValueError(f"weights must sum to 1, got {total}")


#: Architectural character per operation class.
OP_WEIGHTS: dict[str, OpClassWeights] = {
    # Dict probe: one or two cache lines, short dependent chain.
    "hash_probe": OpClassWeights(0.30, 0.05, 0.05, 0.25, 0.35),
    # Edit-distance inner steps: data-dependent branches, small mix,
    # functional-unit pressure — SNAP's core-bound signature.
    "edit_distance": OpClassWeights(0.25, 0.05, 0.15, 0.45, 0.10),
    # Candidate window fetch: streaming access, prefetch-friendly.
    "window_fetch": OpClassWeights(0.40, 0.05, 0.02, 0.18, 0.35),
    # FM-index occ query: dependent random reads over a large table —
    # cache and DTLB misses; BWA's memory-bound signature.
    "fm_occ": OpClassWeights(0.15, 0.03, 0.02, 0.10, 0.70),
    # LF-mapping walk during locate: serially dependent random reads.
    "lf_walk": OpClassWeights(0.12, 0.03, 0.02, 0.08, 0.75),
    # Chain bookkeeping: small dict/loop work.
    "chaining": OpClassWeights(0.35, 0.08, 0.07, 0.30, 0.20),
}

#: Published-shape top-down rows for SPEC CPU2006 benchmarks the paper
#: plots alongside (values approximate public characterizations).
SPEC_REFERENCE: dict[str, dict[str, float]] = {
    "mcf (memory)": {
        "retiring": 0.15, "frontend": 0.05, "bad_speculation": 0.05,
        "backend_core": 0.10, "backend_memory": 0.65,
    },
    "libquantum (stream)": {
        "retiring": 0.30, "frontend": 0.03, "bad_speculation": 0.02,
        "backend_core": 0.15, "backend_memory": 0.50,
    },
    "hmmer (compute)": {
        "retiring": 0.55, "frontend": 0.05, "bad_speculation": 0.05,
        "backend_core": 0.30, "backend_memory": 0.05,
    },
}


@dataclass
class TopDownProfile:
    """A top-down breakdown for one workload."""

    name: str
    retiring: float
    frontend: float
    bad_speculation: float
    backend_core: float
    backend_memory: float
    op_counts: dict

    @property
    def backend_bound(self) -> float:
        return self.backend_core + self.backend_memory

    @property
    def memory_fraction_of_backend(self) -> float:
        backend = self.backend_bound
        return self.backend_memory / backend if backend else 0.0

    def as_row(self) -> dict[str, float]:
        return {
            "retiring": self.retiring,
            "frontend": self.frontend,
            "bad_speculation": self.bad_speculation,
            "backend_core": self.backend_core,
            "backend_memory": self.backend_memory,
        }


def _blend(name: str, op_counts: "dict[str, int]") -> TopDownProfile:
    total_ops = sum(op_counts.values())
    if total_ops == 0:
        raise ValueError(f"no operations recorded for {name}")
    acc = {"retiring": 0.0, "frontend": 0.0, "bad_speculation": 0.0,
           "backend_core": 0.0, "backend_memory": 0.0}
    for op, count in op_counts.items():
        w = OP_WEIGHTS[op]
        share = count / total_ops
        acc["retiring"] += share * w.retiring
        acc["frontend"] += share * w.frontend
        acc["bad_speculation"] += share * w.bad_speculation
        acc["backend_core"] += share * w.backend_core
        acc["backend_memory"] += share * w.backend_memory
    return TopDownProfile(name=name, op_counts=dict(op_counts), **acc)


def profile_snap(aligner: SnapAligner, reads: "list[bytes]") -> TopDownProfile:
    """Run SNAP over ``reads`` and derive its top-down profile."""
    before = (
        aligner.stats.seed_lookups,
        aligner.stats.candidates_checked,
    )
    for bases in reads:
        aligner.align_read(bases)
    after = (
        aligner.stats.seed_lookups,
        aligner.stats.candidates_checked,
    )
    lookups = after[0] - before[0]
    candidates = after[1] - before[1]
    read_len = len(reads[0]) if reads else 100
    op_counts = {
        "hash_probe": lookups,
        # Each verification (a Hamming compare, then Landau–Vishkin for
        # the few it cannot settle) runs ~read_length inner steps.
        "edit_distance": candidates * read_len,
        "window_fetch": candidates,
    }
    return _blend("Persona SNAP", op_counts)


def profile_bwa(aligner: BwaMemAligner, reads: "list[bytes]") -> TopDownProfile:
    """Run BWA-MEM over ``reads`` and derive its top-down profile."""
    before = (
        aligner.stats.fm_extensions,
        aligner.stats.seeds_found,
        aligner.stats.chains_verified,
    )
    for bases in reads:
        aligner.align_read(bases)
    after = (
        aligner.stats.fm_extensions,
        aligner.stats.seeds_found,
        aligner.stats.chains_verified,
    )
    extensions = after[0] - before[0]
    seeds = after[1] - before[1]
    chains = after[2] - before[2]
    read_len = len(reads[0]) if reads else 100
    sample = max(1, aligner.index.sa_sample // 2)
    op_counts = {
        "fm_occ": extensions * 2,       # two occ() calls per extend
        "lf_walk": seeds * aligner.config.max_occurrences * sample,
        "chaining": chains * 4,
        "edit_distance": chains * read_len,
    }
    return _blend("Persona BWA-MEM", op_counts)


def hyperthreading_shift(profile: TopDownProfile) -> TopDownProfile:
    """Model the with-HT variant the paper plots: a second hardware thread
    hides part of the memory stall but adds core contention."""
    memory = profile.backend_memory * 0.75
    core = profile.backend_core + profile.backend_memory * 0.10
    retiring = profile.retiring + profile.backend_memory * 0.15
    return TopDownProfile(
        name=f"{profile.name} (HT)",
        retiring=retiring,
        frontend=profile.frontend,
        bad_speculation=profile.bad_speculation,
        backend_core=core,
        backend_memory=memory,
        op_counts=profile.op_counts,
    )
