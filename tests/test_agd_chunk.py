"""Tests for the AGD chunk codec, including corruption handling."""

from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.agd.chunk import (
    HEADER_SIZE,
    VERSION,
    ChunkFormatError,
    ChunkHeader,
    chunk_record_count,
    read_chunk,
    read_chunk_header,
    read_chunk_index,
    read_column,
    write_chunk,
)
from repro.agd.compression import available_codecs
from repro.align.result import AlignmentResult

sequences = st.binary(max_size=120).map(
    lambda b: bytes(b"ACGTN"[x % 5] for x in b)
)


class TestHeader:
    def test_roundtrip(self):
        header = ChunkHeader(
            record_type="bases", codec_name="gzip", record_count=7,
            first_ordinal=100, compressed_size=50, uncompressed_size=80,
            data_crc=123, index_crc=456, index_size=19,
        )
        raw = header.to_bytes()
        assert len(raw) == HEADER_SIZE
        assert ChunkHeader.from_bytes(raw) == header
        assert header.version == VERSION == 2
        assert header.data_offset == HEADER_SIZE + 19

    def test_bad_magic(self):
        with pytest.raises(ChunkFormatError):
            ChunkHeader.from_bytes(b"X" * HEADER_SIZE)

    def test_truncated(self):
        with pytest.raises(ChunkFormatError):
            ChunkHeader.from_bytes(b"AGDC")

    def test_bad_version(self):
        header = ChunkHeader("bases", "gzip", 1, 0, 1, 1, 0, 0)
        raw = bytearray(header.to_bytes())
        raw[4] = 99  # version field
        with pytest.raises(ChunkFormatError):
            ChunkHeader.from_bytes(bytes(raw))


class TestRoundTrip:
    def test_bases_chunk(self):
        records = [b"ACGT", b"GGGG", b"N" * 25]
        blob = write_chunk(records, "bases", first_ordinal=10)
        chunk = read_chunk(blob)
        assert chunk.records == records
        assert chunk.record_type == "bases"
        assert chunk.first_ordinal == 10

    def test_text_chunk(self):
        records = [b"read.1", b"", b"read.3 extra"]
        blob = write_chunk(records, "text")
        assert read_chunk(blob).records == records

    def test_results_chunk(self):
        records = [
            AlignmentResult(flag=0, mapq=60, contig_index=0, position=5,
                            cigar=b"10M"),
            AlignmentResult(),  # unmapped
        ]
        blob = write_chunk(records, "results")
        assert read_chunk(blob).records == records

    @pytest.mark.parametrize("codec", available_codecs())
    def test_all_codecs(self, codec):
        records = [b"ACGT" * 30] * 5
        blob = write_chunk(records, "bases", codec=codec)
        assert read_chunk(blob).records == records
        assert read_chunk_header(blob).codec_name == codec

    def test_header_only_read(self):
        blob = write_chunk([b"x"] * 42, "text", first_ordinal=7)
        assert chunk_record_count(blob) == 42
        header = read_chunk_header(blob)
        assert header.first_ordinal == 7

    def test_index_only_read(self):
        blob = write_chunk([b"ab", b"cde"], "text")
        header, index = read_chunk_index(blob)
        assert [index[i] for i in range(len(index))] == [2, 3]

    @given(st.lists(sequences, min_size=1, max_size=30))
    def test_roundtrip_property(self, records):
        blob = write_chunk(records, "bases")
        assert read_chunk(blob).records == records

    def test_unknown_record_type(self):
        from repro.agd.records import UnknownRecordTypeError

        with pytest.raises(UnknownRecordTypeError):
            write_chunk([b"x"], "nonsense")


class TestCorruption:
    """Failure injection: every corruption mode must be detected."""

    @pytest.fixture()
    def blob(self):
        return write_chunk([b"ACGT" * 10] * 20, "bases")

    def test_truncated_index(self, blob):
        with pytest.raises(ChunkFormatError, match="index"):
            read_chunk(blob[: HEADER_SIZE + 10])

    def test_truncated_data(self, blob):
        with pytest.raises(ChunkFormatError, match="truncated|decompress"):
            read_chunk(blob[:-5])

    def test_flipped_data_byte(self, blob):
        corrupted = bytearray(blob)
        corrupted[-1] ^= 0xFF
        with pytest.raises(ChunkFormatError):
            read_chunk(bytes(corrupted))

    def test_flipped_index_byte(self, blob):
        # Any byte of the deflated index: the zlib header, the stream,
        # its Adler-32 trailer.  Inflation fails before the CRC is asked.
        header = read_chunk_header(blob)
        assert header.index_size < header.record_count * 4
        for at in range(HEADER_SIZE, header.data_offset):
            corrupted = bytearray(blob)
            corrupted[at] ^= 0xFF
            with pytest.raises(ChunkFormatError, match="index"):
                read_chunk(bytes(corrupted))

    def test_index_missing_a_byte(self, blob):
        # The stored index one byte short, with and without the header
        # admitting it: the stream never ends, or the data block's
        # first byte is taken for its last.
        header = read_chunk_header(blob)
        cut = blob[: header.data_offset - 1] + blob[header.data_offset :]
        with pytest.raises(ChunkFormatError, match="index"):
            read_chunk_index(cut)
        shorter = replace(header, index_size=header.index_size - 1)
        with pytest.raises(ChunkFormatError, match="index"):
            read_chunk_index(shorter.to_bytes() + cut[HEADER_SIZE:])

    def test_index_with_trailing_bytes(self, blob):
        header = read_chunk_header(blob)
        longer = replace(header, index_size=header.index_size + 1)
        padded = (longer.to_bytes() + blob[HEADER_SIZE : header.data_offset]
                  + b"\0" + blob[header.data_offset :])
        with pytest.raises(ChunkFormatError, match="index"):
            read_chunk_index(padded)

    def test_index_inflating_past_its_record_count(self, blob):
        header = read_chunk_header(blob)
        fewer = replace(header, record_count=header.record_count - 1)
        with pytest.raises(ChunkFormatError, match="index"):
            read_chunk_index(fewer.to_bytes() + blob[HEADER_SIZE:])

    def test_not_a_chunk(self):
        with pytest.raises(ChunkFormatError):
            read_chunk(b"this is not an AGD chunk at all, not even close....")

    def test_empty(self):
        with pytest.raises(ChunkFormatError):
            read_chunk(b"")


GOLDEN = Path(__file__).parent / "golden"

#: What the parent commit's (version-1) writer was given for each
#: committed blob: records, record type, codec, first ordinal.
GOLDEN_V1 = {
    "bases_gzip": (
        [b"ACGTNACGTN" * 3, b"", b"GATTACA", b"N" * 25, b"ACGT" * 30],
        "bases", "gzip", 10,
    ),
    "results_none": (
        [
            AlignmentResult(flag=0, mapq=60, contig_index=0, position=5,
                            cigar=b"10M"),
            AlignmentResult(),
            AlignmentResult(flag=16, mapq=37, contig_index=1,
                            position=12345, cigar=b"50M1I50M",
                            edit_distance=2),
        ],
        "results", "none", 0,
    ),
    "text_lzma": ([b"read.1", b"", b"read.3 extra"], "text", "lzma", 7),
}


class TestVersion1Compatibility:
    """Chunks written before version 2 (raw index) still decode; nothing
    writes them any more."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_V1))
    def test_golden_v1_blob_decodes_like_its_v2_reencoding(self, name):
        records, record_type, codec, first_ordinal = GOLDEN_V1[name]
        v1 = (GOLDEN / f"chunk_v1_{name}.bin").read_bytes()
        header = read_chunk_header(v1)
        assert header.version == 1
        assert header.index_size == len(records) * 4
        assert (header.record_type, header.codec_name) == (record_type, codec)
        old = read_chunk(v1)
        assert old.records == records
        assert old.first_ordinal == first_ordinal

        v2 = write_chunk(old.records, old.record_type, old.first_ordinal,
                         codec=codec)
        new_header = read_chunk_header(v2)
        assert new_header.version == 2
        assert (new_header.data_crc, new_header.index_crc,
                new_header.uncompressed_size) == \
            (header.data_crc, header.index_crc, header.uncompressed_size)
        assert read_chunk(v2) == old
        assert read_column(memoryview(v1)) == read_column(memoryview(v2))
        assert read_chunk_index(v1)[1] == read_chunk_index(v2)[1]

    def test_v1_header_cannot_be_written(self):
        v1 = (GOLDEN / "chunk_v1_bases_gzip.bin").read_bytes()
        with pytest.raises(ValueError, match="read-only"):
            read_chunk_header(v1).to_bytes()

    def test_v1_corruption_still_detected(self):
        v1 = bytearray((GOLDEN / "chunk_v1_bases_gzip.bin").read_bytes())
        v1[HEADER_SIZE] ^= 0xFF
        with pytest.raises(ChunkFormatError, match="CRC"):
            read_chunk(bytes(v1))
