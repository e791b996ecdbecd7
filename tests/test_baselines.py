"""Tests for the row-oriented baseline tools (Table 2, §5.6)."""

import io

import pytest

from repro.formats.bam import read_bam, write_bam
from repro.formats.sam import SamHeader, SamRecord, read_sam, sam_bytes

from models.baselines import (
    BaselineSortReport,
    PicardLikeSorter,
    SamblasterLike,
    SamblasterReport,
    SamtoolsLikeSorter,
)


HEADER = SamHeader(contigs=[{"name": "chr1", "length": 100_000},
                            {"name": "chr2", "length": 50_000}])


def make_records(positions):
    return [
        SamRecord(
            qname=f"r{i}", flag=0, rname=contig, pos=pos, mapq=60,
            cigar="4M", rnext="*", pnext=0, tlen=0, seq=b"ACGT",
            qual=b"IIII",
        )
        for i, (contig, pos) in enumerate(positions)
    ]


def unsorted_sam() -> bytes:
    positions = [("chr1", 500), ("chr2", 5), ("chr1", 3), ("chr1", 9999),
                 ("chr2", 700), ("chr1", 1), ("chr1", 42)]
    return sam_bytes(HEADER, make_records(positions))


def is_coordinate_sorted(records) -> bool:
    keys = [r.location_key() for r in records]
    return keys == sorted(keys)


class TestSamtoolsLike:
    def test_sort_bam(self):
        records = make_records([("chr1", p) for p in (9, 2, 7, 1, 8)])
        buf = io.BytesIO()
        write_bam(HEADER, records, buf)
        sorter = SamtoolsLikeSorter(run_size=2)
        report = BaselineSortReport()
        sorted_blob = sorter.sort_bam(buf.getvalue(), report)
        header, out = read_bam(io.BytesIO(sorted_blob))
        assert is_coordinate_sorted(out)
        assert len(out) == 5
        assert report.runs_written == 3  # external runs of 2
        assert header.sort_order == "coordinate"

    def test_sort_sam_includes_conversion(self):
        sorter = SamtoolsLikeSorter(run_size=100)
        report = BaselineSortReport()
        sorted_blob = sorter.sort_sam(unsorted_sam(), report)
        assert report.conversion_performed
        _, out = read_bam(io.BytesIO(sorted_blob))
        assert is_coordinate_sorted(out)

    def test_record_preservation(self):
        sorter = SamtoolsLikeSorter(run_size=3)
        sorted_blob = sorter.sort_sam(unsorted_sam())
        _, out = read_bam(io.BytesIO(sorted_blob))
        assert {r.qname for r in out} == {f"r{i}" for i in range(7)}

    def test_invalid_run_size(self):
        with pytest.raises(ValueError):
            SamtoolsLikeSorter(run_size=0)


class TestPicardLike:
    def test_sort(self):
        report = BaselineSortReport()
        sorted_blob = PicardLikeSorter().sort_sam(unsorted_sam(), report)
        _, out = read_sam(io.BytesIO(sorted_blob))
        assert is_coordinate_sorted(out)
        assert report.records == 7

    def test_agrees_with_samtools_like(self):
        sam = unsorted_sam()
        picard_out = PicardLikeSorter().sort_sam(sam)
        samtools_out = SamtoolsLikeSorter().sort_sam(sam)
        _, picard_records = read_sam(io.BytesIO(picard_out))
        _, samtools_records = read_bam(io.BytesIO(samtools_out))
        assert [r.qname for r in picard_records] == [
            r.qname for r in samtools_records
        ]

    def test_validation_rejects_bad_cigar(self):
        record = SamRecord(
            qname="bad", flag=0, rname="chr1", pos=1, mapq=60, cigar="99M",
            rnext="*", pnext=0, tlen=0, seq=b"ACGT", qual=b"IIII",
        )
        blob = sam_bytes(HEADER, [record])
        with pytest.raises(ValueError, match="CIGAR"):
            PicardLikeSorter().sort_sam(blob)


class TestSamblasterLike:
    def test_marks_duplicates(self):
        positions = [("chr1", 100), ("chr1", 100), ("chr1", 200),
                     ("chr1", 100)]
        blob = sam_bytes(HEADER, make_records(positions))
        report = SamblasterReport()
        marked = SamblasterLike().mark(
            blob, [{"name": "chr1", "length": 100_000},
                   {"name": "chr2", "length": 50_000}], report
        )
        assert report.duplicates_marked == 2
        _, out = read_sam(io.BytesIO(marked))
        flags = [bool(r.flag & 0x400) for r in out]
        assert flags == [False, True, False, True]

    def test_header_preserved(self):
        blob = sam_bytes(HEADER, make_records([("chr1", 1)]))
        marked = SamblasterLike().mark(
            blob, [{"name": "chr1", "length": 100_000}]
        )
        assert marked.startswith(b"@HD")

    def test_unmapped_not_marked(self):
        records = [
            SamRecord(qname=f"u{i}", flag=4, rname="*", pos=0, mapq=0,
                      cigar="", rnext="*", pnext=0, tlen=0, seq=b"ACGT",
                      qual=b"IIII")
            for i in range(3)
        ]
        blob = sam_bytes(HEADER, records)
        report = SamblasterReport()
        SamblasterLike().mark(blob, [], report)
        assert report.duplicates_marked == 0
