"""Tests for repro.genome.reference: contigs, coordinates, FASTA I/O."""

import io

import pytest

from repro.genome.reference import (
    Contig,
    parse_fasta,
    read_fasta,
    reference_from_sequences,
    write_fasta,
)


@pytest.fixture()
def genome():
    return reference_from_sequences(
        [("chr1", b"ACGT" * 10), ("chr2", b"TTTT" * 5), ("chrM", b"GG")]
    )


class TestContig:
    def test_length(self):
        assert len(Contig("c", b"ACGT")) == 4

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Contig("", b"ACGT")

    def test_invalid_bases_rejected(self):
        with pytest.raises(ValueError):
            Contig("c", b"ACGT!")


class TestReferenceGenome:
    def test_total_length(self, genome):
        assert len(genome) == 40 + 20 + 2

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            reference_from_sequences([("a", b"AC"), ("a", b"GT")])

    def test_names(self, genome):
        assert genome.names == ["chr1", "chr2", "chrM"]

    def test_contig_lookup(self, genome):
        assert genome.contig("chr2").sequence == b"TTTT" * 5

    def test_contig_lookup_missing(self, genome):
        with pytest.raises(KeyError):
            genome.contig("chrX")

    def test_concatenated(self, genome):
        assert genome.concatenated() == b"ACGT" * 10 + b"TTTT" * 5 + b"GG"

    def test_global_local_roundtrip(self, genome):
        for name, local in (("chr1", 0), ("chr1", 39), ("chr2", 0),
                            ("chr2", 19), ("chrM", 1)):
            g = genome.to_global(name, local)
            assert genome.to_local(g) == (name, local)

    def test_to_global_bounds(self, genome):
        with pytest.raises(ValueError):
            genome.to_global("chr1", 40)
        with pytest.raises(KeyError):
            genome.to_global("nope", 0)

    def test_to_local_bounds(self, genome):
        with pytest.raises(ValueError):
            genome.to_local(len(genome))
        with pytest.raises(ValueError):
            genome.to_local(-1)

    def test_fetch(self, genome):
        assert genome.fetch(0, 4) == b"ACGT"
        assert genome.fetch(40, 4) == b"TTTT"

    def test_fetch_clamps_at_end(self, genome):
        assert genome.fetch(len(genome) - 1, 10) == b"G"

    def test_fetch_negative_rejected(self, genome):
        with pytest.raises(ValueError):
            genome.fetch(-1, 4)

    def test_manifest_entry(self, genome):
        entries = genome.manifest_entry()
        assert entries[0] == {"name": "chr1", "length": 40}
        assert len(entries) == 3

    def test_contig_start(self, genome):
        assert genome.contig_start("chr1") == 0
        assert genome.contig_start("chr2") == 40
        assert genome.contig_start("chrM") == 60


class TestFasta:
    def test_roundtrip(self, genome, tmp_path):
        path = tmp_path / "ref.fasta"
        write_fasta(genome, path, width=7)
        back = read_fasta(path)
        assert back.names == genome.names
        assert back.concatenated() == genome.concatenated()

    def test_parse_basic(self):
        fasta = b">c1 description ignored\nACGT\nACGT\n>c2\nTT\n"
        genome = parse_fasta(io.BytesIO(fasta))
        assert genome.names == ["c1", "c2"]
        assert genome.contig("c1").sequence == b"ACGTACGT"

    def test_parse_lowercase_upcased(self):
        genome = parse_fasta(io.BytesIO(b">c\nacgt\n"))
        assert genome.contig("c").sequence == b"ACGT"

    def test_parse_blank_lines_skipped(self):
        genome = parse_fasta(io.BytesIO(b">c\nAC\n\nGT\n"))
        assert genome.contig("c").sequence == b"ACGT"

    def test_parse_no_header_rejected(self):
        with pytest.raises(ValueError):
            parse_fasta(io.BytesIO(b"ACGT\n"))

    def test_parse_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_fasta(io.BytesIO(b""))
