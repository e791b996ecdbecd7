"""Tests for AlignmentResult and CIGAR algebra."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.align.result import (
    FLAG_DUPLICATE,
    FLAG_REVERSE,
    AlignmentResult,
    cigar_operations,
    cigar_read_span,
    cigar_reference_span,
    make_cigar,
)

cigar_ops = st.lists(
    st.tuples(st.integers(min_value=1, max_value=200),
              st.sampled_from(list("MIDNSHP=X"))),
    max_size=12,
)


class TestAlignmentResult:
    def test_defaults_unmapped(self):
        r = AlignmentResult()
        assert not r.is_aligned
        assert not r.is_reverse
        assert not r.is_duplicate

    def test_flags(self):
        r = AlignmentResult(flag=FLAG_REVERSE, contig_index=0, position=10)
        assert r.is_aligned and r.is_reverse

    def test_with_flag(self):
        r = AlignmentResult(flag=0, contig_index=0, position=1)
        dup = r.with_flag(FLAG_DUPLICATE)
        assert dup.is_duplicate and not r.is_duplicate
        cleared = dup.with_flag(FLAG_DUPLICATE, False)
        assert not cleared.is_duplicate

    def test_validation(self):
        with pytest.raises(ValueError):
            AlignmentResult(flag=-1)
        with pytest.raises(ValueError):
            AlignmentResult(mapq=300)
        with pytest.raises(ValueError):
            AlignmentResult(cigar=b"garbage")

    def test_cigar_verdict_is_remembered_and_rejection_is_not(self):
        """A well-formed CIGAR is parsed once however many results carry
        it; a malformed one raises on every construction."""
        from repro.align import result

        result._validate_cigar.cache_clear()
        for _ in range(3):
            AlignmentResult(cigar=b"77M2I22M")
            with pytest.raises(ValueError, match="malformed CIGAR"):
                AlignmentResult(cigar=b"77M2")
            with pytest.raises(ValueError, match="zero-length"):
                AlignmentResult(cigar=b"0M")
        info = result._validate_cigar.cache_info()
        assert (info.misses, info.hits, info.currsize) == (7, 2, 1)

    def test_serialization_roundtrip(self):
        r = AlignmentResult(
            flag=FLAG_REVERSE, mapq=37, contig_index=3, position=123456,
            next_contig_index=3, next_position=123800, template_length=450,
            edit_distance=2, cigar=b"50M1I50M",
        )
        assert AlignmentResult.from_bytes(r.to_bytes()) == r

    def test_serialized_size(self):
        r = AlignmentResult(cigar=b"10M")
        assert len(r.to_bytes()) == r.serialized_size()

    def test_truncated_rejected(self):
        r = AlignmentResult(contig_index=0, position=1, flag=0, cigar=b"5M")
        raw = r.to_bytes()
        with pytest.raises(ValueError):
            AlignmentResult.from_bytes(raw[:10])
        with pytest.raises(ValueError):
            AlignmentResult.from_bytes(raw[:-1])

    def test_location_key_ordering(self):
        a = AlignmentResult(flag=0, contig_index=0, position=5)
        b = AlignmentResult(flag=0, contig_index=0, position=9)
        c = AlignmentResult(flag=0, contig_index=1, position=0)
        unmapped = AlignmentResult()
        keys = [x.location_key() for x in (a, b, c, unmapped)]
        assert keys == sorted(keys)

    @given(
        st.integers(min_value=0, max_value=0xFFFF),
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=-1, max_value=10**12),
    )
    def test_roundtrip_property(self, flag, mapq, position):
        r = AlignmentResult(flag=flag, mapq=mapq, contig_index=0,
                            position=position)
        assert AlignmentResult.from_bytes(r.to_bytes()) == r


class TestCigar:
    def test_parse(self):
        assert cigar_operations(b"10M2I5D") == [(10, "M"), (2, "I"), (5, "D")]

    def test_empty(self):
        assert cigar_operations(b"") == []

    def test_malformed(self):
        for bad in (b"M", b"10", b"10Z", b"10M3", b"0M"):
            with pytest.raises(ValueError):
                cigar_operations(bad)

    def test_spans(self):
        cigar = b"5S90M2I3D1M"
        assert cigar_reference_span(cigar) == 90 + 3 + 1
        assert cigar_read_span(cigar) == 5 + 90 + 2 + 1

    def test_make_cigar_merges(self):
        assert make_cigar([(5, "M"), (5, "M"), (2, "I")]) == b"10M2I"

    def test_make_cigar_drops_zero(self):
        assert make_cigar([(0, "M"), (3, "D")]) == b"3D"

    @given(cigar_ops)
    def test_make_parse_roundtrip(self, ops):
        cigar = make_cigar(ops)
        parsed = cigar_operations(cigar)
        # Parsed form equals the run-length-merged input.
        merged = []
        for n, op in ops:
            if n == 0:
                continue
            if merged and merged[-1][1] == op:
                merged[-1] = (merged[-1][0] + n, op)
            else:
                merged.append((n, op))
        assert parsed == merged
