"""Cross-cutting property tests on whole-system invariants."""

import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.agd.dataset import AGDDataset
from repro.align.result import AlignmentResult
from repro.core.dupmark import mark_duplicates_results
from repro.core.sort import SortConfig, sort_dataset
from repro.formats.sam import SamHeader, SamRecord, read_sam, sam_bytes
from repro.storage.base import MemoryStore

from models.ceph import CephConfig, SimulatedCephCluster

# ------------------------------------------------------------------ SAM

qnames = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126,
                           exclude_characters="\t@"),
    min_size=1, max_size=20,
)
dna = st.binary(min_size=1, max_size=40).map(
    lambda b: bytes(b"ACGT"[x % 4] for x in b)
)


@st.composite
def sam_records(draw):
    seq = draw(dna)
    return SamRecord(
        qname=draw(qnames),
        flag=draw(st.sampled_from([0, 16, 1024, 1040, 4])),
        rname="chr1",
        pos=draw(st.integers(min_value=1, max_value=10_000)),
        mapq=draw(st.integers(min_value=0, max_value=60)),
        cigar=f"{len(seq)}M",
        rnext="*",
        pnext=0,
        tlen=draw(st.integers(min_value=-500, max_value=500)),
        seq=seq,
        qual=b"I" * len(seq),
    )


class TestSamProperties:
    @given(st.lists(sam_records(), max_size=15))
    @settings(max_examples=40)
    def test_sam_file_roundtrip(self, records):
        header = SamHeader(contigs=[{"name": "chr1", "length": 20_000}])
        blob = sam_bytes(header, records)
        _, back = read_sam(io.BytesIO(blob))
        assert back == records


# ------------------------------------------------------------------ sort

positions_lists = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2),
              st.integers(min_value=0, max_value=500)),
    min_size=1, max_size=25,
)


class TestSortProperties:
    @given(positions_lists)
    @settings(max_examples=25, deadline=None)
    def test_sort_is_permutation(self, positions):
        """Sorting must be a permutation: no record lost or duplicated."""
        n = len(positions)
        dataset = AGDDataset.create(
            "perm",
            {
                "metadata": [f"r{i}".encode() for i in range(n)],
                "results": [
                    AlignmentResult(flag=0, contig_index=c, position=p,
                                    cigar=b"4M")
                    for c, p in positions
                ],
            },
            MemoryStore(),
            chunk_size=4,
        )
        out = sort_dataset(dataset, MemoryStore(),
                           SortConfig(chunks_per_superchunk=2))
        assert sorted(out.read_column("metadata")) == sorted(
            f"r{i}".encode() for i in range(n)
        )

    @given(positions_lists)
    @settings(max_examples=25, deadline=None)
    def test_sort_idempotent(self, positions):
        n = len(positions)
        dataset = AGDDataset.create(
            "idem",
            {
                "metadata": [f"r{i}".encode() for i in range(n)],
                "results": [
                    AlignmentResult(flag=0, contig_index=c, position=p,
                                    cigar=b"4M")
                    for c, p in positions
                ],
            },
            MemoryStore(),
            chunk_size=4,
        )
        once = sort_dataset(dataset, MemoryStore(), SortConfig())
        twice = sort_dataset(once, MemoryStore(), SortConfig())
        keys_once = [
            (r.contig_index, r.position) for r in once.read_column("results")
        ]
        keys_twice = [
            (r.contig_index, r.position) for r in twice.read_column("results")
        ]
        assert keys_once == keys_twice


# --------------------------------------------------------------- dupmark

result_lists = st.lists(
    st.tuples(st.integers(min_value=0, max_value=1),
              st.integers(min_value=0, max_value=30),
              st.booleans()),
    max_size=30,
).map(
    lambda triples: [
        AlignmentResult(flag=0x10 if rev else 0, contig_index=c,
                        position=p, cigar=b"10M")
        for c, p, rev in triples
    ]
)


class TestDupmarkProperties:
    @given(result_lists)
    @settings(max_examples=50)
    def test_first_occurrence_never_marked(self, results):
        from repro.core.dupmark import fragment_signature

        marked = mark_duplicates_results(results)
        seen = set()
        for original, out in zip(results, marked):
            sig = fragment_signature(original)
            if sig not in seen:
                assert not out.is_duplicate
                seen.add(sig)
            else:
                assert out.is_duplicate

    @given(result_lists)
    @settings(max_examples=50)
    def test_idempotent(self, results):
        once = mark_duplicates_results(results)
        twice = mark_duplicates_results(once)
        assert [r.is_duplicate for r in once] == [
            r.is_duplicate for r in twice
        ]

    @given(result_lists)
    @settings(max_examples=50)
    def test_only_flag_changes(self, results):
        marked = mark_duplicates_results(results)
        for original, out in zip(results, marked):
            assert out.position == original.position
            assert out.cigar == original.cigar
            assert out.flag & ~0x400 == original.flag & ~0x400


# ------------------------------------------------------------------ ceph

class TestCephProperties:
    @given(st.lists(st.text(min_size=1, max_size=20), min_size=1,
                    max_size=30, unique=True))
    @settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow],
              deadline=None)
    def test_placement_replicas_distinct(self, keys):
        cluster = SimulatedCephCluster(CephConfig(
            num_nodes=5, replication=3,
            disk_bandwidth=1e12, network_bandwidth=1e12,
        ))
        for key in keys:
            nodes = cluster.placement(key)
            assert len(set(nodes)) == 3
            assert all(0 <= n < 5 for n in nodes)

    @given(st.dictionaries(st.text(min_size=1, max_size=10),
                           st.binary(max_size=100), max_size=15))
    @settings(max_examples=25, deadline=None)
    def test_store_retrieves_exactly(self, blobs):
        cluster = SimulatedCephCluster(CephConfig(
            disk_bandwidth=1e12, network_bandwidth=1e12))
        for key, blob in blobs.items():
            cluster.put(key, blob)
        for key, blob in blobs.items():
            assert cluster.get(key) == blob
        assert sorted(cluster.keys()) == sorted(blobs)


# ----------------------------------------------------------------- AGD

class TestDatasetProperties:
    @given(
        st.lists(dna, min_size=1, max_size=40),
        st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=30, deadline=None)
    def test_chunking_invariant(self, sequences, chunk_size):
        """Column content is independent of chunk size."""
        quals = [b"I" * len(s) for s in sequences]
        a = AGDDataset.create(
            "a", {"bases": sequences, "qual": quals}, MemoryStore(),
            chunk_size=chunk_size,
        )
        b = AGDDataset.create(
            "b", {"bases": sequences, "qual": quals}, MemoryStore(),
            chunk_size=len(sequences),
        )
        assert a.read_column("bases") == b.read_column("bases")
        assert a.read_column("qual") == b.read_column("qual")
        assert a.total_records == b.total_records == len(sequences)
