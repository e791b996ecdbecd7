"""Property tests for the edit-distance kernels (Hamming, LV, banded)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.distance import (
    banded_alignment,
    hamming,
    landau_vishkin,
    verify_candidate,
)
from repro.align.result import cigar_operations

dna = st.binary(min_size=1, max_size=14).map(
    lambda b: bytes(b"ACGT"[x % 4] for x in b)
)


@st.composite
def edited_window(draw):
    """A read drawn from a reference window with substitutions, indels
    and ``N``s, the window (possibly shorter than the read) and a bound
    ``k`` in 0..8."""
    ref = draw(st.binary(min_size=1, max_size=40).map(
        lambda b: bytes(b"ACGT"[x % 4] for x in b)))
    read = bytearray(ref[:draw(st.integers(1, len(ref)))])
    for _ in range(draw(st.integers(0, 6))):
        at = draw(st.integers(0, len(read) - 1))
        kind = draw(st.sampled_from(["sub", "ins", "del", "N"]))
        if kind == "sub":
            read[at] = draw(st.sampled_from(b"ACGT"))
        elif kind == "ins":
            read.insert(at, draw(st.sampled_from(b"ACGT")))
        elif kind == "del" and len(read) > 1:
            del read[at]
        elif kind == "N":
            read[at] = ord("N")
    window = ref[:draw(st.integers(1, len(ref)))]
    return bytes(read), window, draw(st.integers(0, 8))


def dp_semiglobal(read: bytes, ref: bytes) -> int:
    """Oracle: min edits aligning all of ``read`` against a ``ref`` prefix."""
    m, n = len(read), len(ref)
    dp = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        dp[i][0] = i
    for j in range(1, n + 1):
        dp[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            dp[i][j] = min(
                dp[i - 1][j] + 1,
                dp[i][j - 1] + 1,
                dp[i - 1][j - 1] + (read[i - 1] != ref[j - 1]),
            )
    return min(dp[m])


class TestHamming:
    def test_basic(self):
        assert hamming(b"ACGT", b"ACGT") == 0
        assert hamming(b"ACGT", b"ACCT") == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming(b"A", b"AA")

    def test_empty(self):
        assert hamming(b"", b"") == 0


class TestLandauVishkin:
    def test_exact(self):
        assert landau_vishkin(b"ACGTACGT", b"ACGTACGTAA", 3) == 0

    def test_substitution(self):
        assert landau_vishkin(b"ACGTACGT", b"ACCTACGTAA", 3) == 1

    def test_read_insertion(self):
        assert landau_vishkin(b"ACGGTACGT", b"ACGTACGTAA", 3) == 1

    def test_read_deletion(self):
        assert landau_vishkin(b"ACTACGT", b"ACGTACGTAA", 3) == 1

    def test_exceeds_bound(self):
        assert landau_vishkin(b"AAAAAAA", b"CCCCCCCCC", 2) is None

    def test_empty_read(self):
        assert landau_vishkin(b"", b"ACGT", 2) == 0

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            landau_vishkin(b"A", b"A", -1)

    def test_short_reference(self):
        # Read longer than reference: must pay for the overhang.
        assert landau_vishkin(b"ACGT", b"AC", 2) == 2
        assert landau_vishkin(b"ACGT", b"AC", 1) is None

    @given(dna, dna, st.integers(min_value=0, max_value=4))
    @settings(max_examples=200)
    def test_matches_dp_oracle(self, read, ref, k):
        truth = dp_semiglobal(read, ref)
        got = landau_vishkin(read, ref, k)
        if truth <= k:
            assert got == truth
        else:
            assert got is None


class TestBandedAlignment:
    def test_exact(self):
        distance, cigar, consumed = banded_alignment(b"ACGT", b"ACGTAA", 2)
        assert distance == 0 and cigar == b"4M" and consumed == 4

    def test_substitution_cigar(self):
        distance, cigar, _ = banded_alignment(b"ACGT", b"ACCTAA", 2)
        assert distance == 1 and cigar == b"4M"

    def test_deletion_cigar(self):
        distance, cigar, _ = banded_alignment(b"ACTACGT", b"ACGTACGT", 2)
        assert distance == 1
        assert b"D" in cigar

    def test_insertion_cigar(self):
        distance, cigar, _ = banded_alignment(b"ACGGTACGT", b"ACGTACGT", 2)
        assert distance == 1
        assert b"I" in cigar

    def test_none_when_out_of_band(self):
        assert banded_alignment(b"AAAA", b"TTTT", 1) is None

    def test_empty_read(self):
        assert banded_alignment(b"", b"ACGT", 2) == (0, b"", 0)

    @given(dna, dna, st.integers(min_value=0, max_value=4))
    @settings(max_examples=150)
    def test_distance_matches_oracle(self, read, ref, k):
        truth = dp_semiglobal(read, ref)
        outcome = banded_alignment(read, ref, k)
        if truth <= k:
            assert outcome is not None
            assert outcome[0] == truth
        else:
            assert outcome is None or outcome[0] > k

    @given(dna, dna, st.integers(min_value=0, max_value=4))
    @settings(max_examples=150)
    def test_cigar_consistent(self, read, ref, k):
        outcome = banded_alignment(read, ref, k)
        if outcome is None:
            return
        _, cigar, consumed = outcome
        ops = cigar_operations(cigar)
        read_span = sum(n for n, op in ops if op in "MIS=X")
        ref_span = sum(n for n, op in ops if op in "MDN=X")
        assert read_span == len(read)
        assert ref_span == consumed


class TestTracebackPremises:
    """What lets the SNAP aligner rank candidates on Landau–Vishkin
    distances alone and trace only the winner, on a band as wide as its
    distance."""

    @given(edited_window())
    @settings(max_examples=300, deadline=None)
    def test_lv_and_banded_agree(self, case):
        read, ref, k = case
        distance = landau_vishkin(read, ref, k)
        outcome = banded_alignment(read, ref, k)
        assert (distance is None) == (outcome is None)
        if outcome is not None:
            assert outcome[0] == distance

    @given(edited_window())
    @settings(max_examples=300, deadline=None)
    def test_band_of_the_distance_traces_the_same_path(self, case):
        read, ref, k = case
        distance = landau_vishkin(read, ref, k)
        if distance is None:
            return
        assert banded_alignment(read, ref, k) == banded_alignment(
            read, ref[:len(read) + distance], distance
        )


class TestVerifyCandidate:
    def test_fast_path(self):
        assert verify_candidate(b"ACGT", b"ACGTAA", 2) == (0, b"4M")

    def test_substitutions_stay_m(self):
        distance, cigar = verify_candidate(b"ACGT", b"TCGTAA", 2)
        assert distance == 1 and cigar == b"4M"

    def test_indel_path(self):
        distance, cigar = verify_candidate(b"ACTACGTACGTA", b"ACGTACGTACGTAA", 3)
        assert distance == 1 and b"D" in cigar

    def test_rejection(self):
        assert verify_candidate(b"AAAAAAAA", b"CCCCCCCCCC", 3) is None

    @given(dna, st.integers(min_value=0, max_value=3))
    @settings(max_examples=100)
    def test_self_alignment_is_zero(self, read, k):
        assert verify_candidate(read, read + b"AAAA", k) == (
            0, f"{len(read)}M".encode()
        )
