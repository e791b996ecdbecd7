"""Figure 8 — Microarchitectural workload analysis (§6).

Paper result (VTune over both aligners, with SPEC points for reference):
both aligners are heavily backend-bound; for SNAP "the issue is due to
the core and not memory access" (short, branchy edit-distance calls);
"in BWA-MEM, the system is much more memory bound" (cache and DTLB misses
in FM-index walks).  Hyperthreading shifts part of the memory stall into
retirement.

We reproduce the analysis through operation-mix profiling of our kernels
(see ``benchmarks/models/microarch.py``): the op counts are measured from
real aligner runs; the per-class top-down weights are fixed constants, so
the SNAP-vs-BWA contrast emerges from what each algorithm actually
executes.
"""

from __future__ import annotations

from models.microarch import (
    SPEC_REFERENCE,
    hyperthreading_shift,
    profile_bwa,
    profile_snap,
)


def _fmt_row(name, row):
    return (
        f"{name:<24} retiring {row['retiring']:>5.1%}  "
        f"frontend {row['frontend']:>5.1%}  "
        f"badspec {row['bad_speculation']:>5.1%}  "
        f"core {row['backend_core']:>5.1%}  "
        f"memory {row['backend_memory']:>5.1%}"
    )


def test_fig8_workload_analysis(
    benchmark, bench_aligner, bench_reference, bench_reads, report,
):
    from repro.align.bwa import BwaMemAligner, FMIndex

    batch = [r.bases for r in bench_reads[:150]]
    snap_profile = profile_snap(bench_aligner, batch)
    bwa_aligner = BwaMemAligner(FMIndex(bench_reference))
    bwa_profile = profile_bwa(bwa_aligner, batch[:60])
    snap_ht = hyperthreading_shift(snap_profile)
    bwa_ht = hyperthreading_shift(bwa_profile)

    rep = report("fig8_workload_analysis",
                 "Figure 8 — Workload analysis (top-down breakdown)")
    for profile in (snap_profile, snap_ht, bwa_profile, bwa_ht):
        rep.add(_fmt_row(profile.name, profile.as_row()))
    rep.add()
    rep.add("SPEC reference points (published characterizations):")
    for name, row in SPEC_REFERENCE.items():
        rep.add(_fmt_row(name, row))
    rep.add()
    rep.add(f"operation mix measured: SNAP {snap_profile.op_counts}")
    rep.add(f"                        BWA  {bwa_profile.op_counts}")
    rep.add()
    rep.add("shape checks:")
    rep.check("SNAP is backend-bound (>35%)",
              snap_profile.backend_bound > 0.35)
    rep.check("BWA is backend-bound (>35%)",
              bwa_profile.backend_bound > 0.35)
    rep.check("SNAP's backend stall is core-dominated",
              snap_profile.backend_core > snap_profile.backend_memory)
    rep.check("BWA's backend stall is memory-dominated",
              bwa_profile.backend_memory > bwa_profile.backend_core)
    rep.check(
        "BWA more memory-bound than SNAP (the §6 contrast)",
        bwa_profile.memory_fraction_of_backend
        > snap_profile.memory_fraction_of_backend + 0.2,
    )
    rep.check(
        "BWA's profile resembles mcf more than hmmer does",
        abs(bwa_profile.backend_memory
            - SPEC_REFERENCE["mcf (memory)"]["backend_memory"])
        < abs(bwa_profile.backend_memory
              - SPEC_REFERENCE["hmmer (compute)"]["backend_memory"]),
    )
    rep.check("HT shifts memory stall into retirement for BWA",
              bwa_ht.backend_memory < bwa_profile.backend_memory
              and bwa_ht.retiring > bwa_profile.retiring)
    rep.finish()

    benchmark.pedantic(
        lambda: profile_snap(bench_aligner, batch[:30]),
        rounds=1, iterations=1,
    )
