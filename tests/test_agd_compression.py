"""Tests for AGD per-column compression codecs."""

import random
import zlib
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.agd.chunk import read_chunk_data
from repro.agd.compression import (
    GZIP,
    LZMA,
    NONE,
    PROBE_BYTES,
    Codec,
    UnknownCodecError,
    available_codecs,
    get_codec,
    leveled_codec,
    register_codec,
)
from repro.align.result import FLAG_REVERSE, AlignmentResult
from repro.formats.converters import import_reads
from repro.genome.synthetic import ReadSimulator
from repro.storage.base import MemoryStore


class TestCodecs:
    @pytest.mark.parametrize("codec", [GZIP, LZMA, NONE])
    def test_roundtrip(self, codec):
        data = b"ACGT" * 1000 + b"some incompressible \x00\xff tail"
        assert codec.decompress(codec.compress(data)) == data

    def test_gzip_compresses_repetitive(self):
        data = b"ACGT" * 10_000
        assert len(GZIP.compress(data)) < len(data) / 5

    def test_lzma_beats_gzip_on_text(self):
        # The §3 tradeoff: lzma smaller, slower.
        data = (b"read.%d some metadata here\n" * 500) % tuple(range(500))
        assert len(LZMA.compress(data)) <= len(GZIP.compress(data))

    def test_none_is_identity(self):
        data = b"anything"
        assert NONE.compress(data) == data

    def test_lookup(self):
        assert get_codec("gzip") is GZIP
        assert get_codec("lzma") is LZMA
        assert get_codec("none") is NONE

    def test_unknown(self):
        with pytest.raises(UnknownCodecError):
            get_codec("zstd")

    def test_available(self):
        assert set(available_codecs()) >= {"gzip", "lzma", "none"}

    def test_register_duplicate_rejected(self):
        with pytest.raises(ValueError):
            register_codec(Codec("gzip", bytes, bytes))

    def test_register_new(self):
        name = "xor-test-codec"
        if name not in available_codecs():
            xor = Codec(
                name,
                lambda d: bytes(b ^ 0x55 for b in d),
                lambda d: bytes(b ^ 0x55 for b in d),
            )
            register_codec(xor)
        codec = get_codec(name)
        assert codec.decompress(codec.compress(b"hello")) == b"hello"

    @given(st.binary(max_size=5000))
    def test_gzip_roundtrip_property(self, data):
        assert GZIP.decompress(GZIP.compress(data)) == data


def _huffman_only(data: bytes, level: int = 6) -> bytes:
    deflater = zlib.compressobj(level, zlib.DEFLATED, zlib.MAX_WBITS,
                                zlib.DEF_MEM_LEVEL, zlib.Z_HUFFMAN_ONLY)
    return deflater.compress(data) + deflater.flush()


#: Blocks on both sides of the probe's size threshold, with and without
#: structure for LZ77 to find.
blocks = st.one_of(
    st.binary(max_size=3 * PROBE_BYTES),
    st.builds(
        lambda unit, repeats, tail: unit * repeats + tail,
        st.binary(min_size=1, max_size=64),
        st.integers(1, 3 * PROBE_BYTES // 64),
        st.binary(max_size=PROBE_BYTES),
    ),
)


class TestProbedDeflate:
    """The gzip codec picks Z_HUFFMAN_ONLY or the default strategy per
    block from a probe of its first PROBE_BYTES."""

    @given(blocks, st.integers(0, 9))
    def test_roundtrip_and_determinism_property(self, data, level):
        codec = leveled_codec("gzip", level)
        first = codec.compress(data)
        # Plain zlib under the same codec name: any reader inflates it.
        assert codec.name == "gzip"
        assert zlib.decompress(first) == data
        assert GZIP.decompress(first) == data
        # A pure function of the block's bytes: again, from a view, and
        # from two threads at once.
        assert codec.compress(data) == first
        assert codec.compress(memoryview(data)) == first
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(codec.compress, [data, data])) == \
                [first, first]
        # One of the two strategies' streams, never a third thing.
        assert first in (zlib.compress(data, level),
                         _huffman_only(data, level))

    def test_default_codec_is_probed_level_6(self):
        data = bytes(range(256)) * 64
        assert GZIP.compress(data) == leveled_codec("gzip", 6).compress(data)

    def test_probe_skipped_for_small_blocks_and_level_0(self):
        # Noise: Huffman-only would win if the probe ran.
        noise = random.Random(7).randbytes(PROBE_BYTES)
        assert GZIP.compress(noise) == zlib.compress(noise, 6)
        big = noise * 3
        assert leveled_codec("gzip", 0).compress(big) == zlib.compress(big, 0)

    def test_probe_decides_by_the_first_probe_bytes_only(self):
        rng = random.Random(11)
        noisy_head = bytes(rng.choices(range(33, 74), k=PROBE_BYTES))
        flat_head = b"ACGT" * (PROBE_BYTES // 4)
        tail = b"ACGT" * 4096
        assert GZIP.compress(noisy_head + tail) == \
            _huffman_only(noisy_head + tail)
        assert GZIP.compress(flat_head + noisy_head) == \
            zlib.compress(flat_head + noisy_head, 6)


@pytest.fixture(scope="module")
def seeded_columns(reference):
    """Data blocks of a seeded 3 000-read aligned dataset, per column:
    1 000-read chunks, so every block is past the probe threshold."""
    reads, origins = ReadSimulator(
        reference, read_length=101, duplicate_fraction=0.1, seed=5
    ).simulate(3000)
    dataset = import_reads(reads, "probe", MemoryStore(), chunk_size=1000)
    contig_index = {name: i for i, name in enumerate(reference.names)}
    results = []
    for origin in origins:
        contig, local = reference.to_local(origin.global_pos)
        results.append(AlignmentResult(
            flag=FLAG_REVERSE if origin.reverse else 0, mapq=60,
            contig_index=contig_index[contig], position=local,
            edit_distance=origin.errors, cigar=b"101M",
        ))
    dataset.append_column("results", results)
    return {
        column: [
            bytes(read_chunk_data(
                dataset.store.get(entry.chunk_file(column)))[2])
            for entry in dataset.manifest.chunks
        ]
        for column in dataset.columns
    }


class TestProbeOnSeededColumns:
    """The probe is a heuristic, so what it buys is asserted on data,
    not for arbitrary input."""

    def test_no_block_larger_than_plain_level_6(self, seeded_columns):
        assert sorted(seeded_columns) == \
            ["bases", "metadata", "qual", "results"]
        for column, column_blocks in seeded_columns.items():
            for data in column_blocks:
                assert len(data) > PROBE_BYTES
                assert len(GZIP.compress(data)) <= \
                    len(zlib.compress(data, 6)), column

    def test_qual_goes_huffman_only_and_the_rest_do_not(self, seeded_columns):
        for column, column_blocks in seeded_columns.items():
            for data in column_blocks:
                stored = GZIP.compress(data)
                if column == "qual":
                    assert stored == _huffman_only(data)
                    assert len(stored) < 0.95 * len(zlib.compress(data, 6))
                else:
                    assert stored == zlib.compress(data, 6), column
