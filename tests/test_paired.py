"""Tests for the generic paired-end orchestration layer."""

import pytest

from repro.align.paired import InsertWindow, PairedAligner
from repro.align.result import (
    FLAG_MATE_UNMAPPED,
    FLAG_PROPER_PAIR,
    FLAG_UNMAPPED,
)
from repro.align.snap import SeedIndex, SnapAligner
from repro.genome.synthetic import ReadSimulator, synthetic_reference


@pytest.fixture(scope="module")
def setup():
    ref = synthetic_reference(25_000, seed=301)
    sim = ReadSimulator(ref, paired=True, insert_size_mean=300,
                        insert_size_sd=20, seed=302)
    reads, origins = sim.simulate(100)
    snap = SnapAligner(SeedIndex(ref))
    paired = PairedAligner(snap, InsertWindow(220, 400))
    return ref, reads, origins, paired


class TestPairedAligner:
    def test_both_mates_aligned(self, setup):
        ref, reads, origins, paired = setup
        for i in range(0, 40, 2):
            r1, r2 = paired.align_pair(reads[i].bases, reads[i + 1].bases)
            assert r1.is_aligned and r2.is_aligned
            c1, l1 = ref.to_local(origins[i].global_pos)
            assert r1.position == l1

    def test_proper_pair_rate(self, setup):
        ref, reads, origins, paired = setup
        proper = 0
        for i in range(0, 100, 2):
            r1, _ = paired.align_pair(reads[i].bases, reads[i + 1].bases)
            if r1.flag & FLAG_PROPER_PAIR:
                proper += 1
        assert proper >= 42  # >=84%

    def test_insert_window_validation(self):
        window = InsertWindow(100, 200)
        assert window.contains(150)
        assert not window.contains(99)
        assert not window.contains(201)

    def test_mate_rescue(self, setup):
        """An unalignable mate is rescued by scanning the insert window."""
        ref, reads, origins, paired = setup

        class HalfBlindAligner:
            """Aligns only the first mate; fails the second."""

            def __init__(self, inner, fail_reads):
                self.inner = inner
                self.reference = inner.reference
                self.fail_reads = fail_reads

            def align_global(self, bases):
                if bases in self.fail_reads:
                    return None
                return self.inner.align_global(bases)

        snap = paired.aligner
        r1_bases, r2_bases = reads[0].bases, reads[1].bases
        blind = HalfBlindAligner(snap, {r2_bases})
        rescue_paired = PairedAligner(blind, InsertWindow(220, 400))
        r1, r2 = rescue_paired.align_pair(r1_bases, r2_bases)
        assert r1.is_aligned
        assert r2.is_aligned, "mate rescue failed"
        c2, l2 = ref.to_local(origins[1].global_pos)
        assert r2.position == l2

    def test_both_unmapped(self, setup):
        _, _, _, paired = setup
        import numpy as np

        rng = np.random.default_rng(9)
        junk1 = bytes(b"ACGT"[x] for x in rng.integers(0, 4, size=101))
        junk2 = bytes(b"ACGT"[x] for x in rng.integers(0, 4, size=101))
        r1, r2 = paired.align_pair(junk1, junk2)
        if not r1.is_aligned and not r2.is_aligned:
            assert r1.flag & FLAG_UNMAPPED
            assert r1.flag & FLAG_MATE_UNMAPPED

    def test_short_mate_does_not_crash_the_pair(self, setup):
        _, reads, _, paired = setup
        r1, r2 = paired.align_pair(reads[0].bases, b"ACGT")
        assert r1.is_aligned
        r1, r2 = paired.align_pair(b"ACGT", b"ACGTA")
        assert not r1.is_aligned and not r2.is_aligned

    def test_orientation_forward_reverse(self, setup):
        ref, reads, origins, paired = setup
        for i in range(0, 20, 2):
            r1, r2 = paired.align_pair(reads[i].bases, reads[i + 1].bases)
            if r1.flag & FLAG_PROPER_PAIR:
                assert r1.is_reverse != r2.is_reverse
