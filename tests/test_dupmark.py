"""Tests for Samblaster-style duplicate marking (§4.3, §5.6)."""

import pytest

from repro.align.result import (
    FLAG_DUPLICATE,
    FLAG_FIRST_IN_PAIR,
    FLAG_PAIRED,
    FLAG_REVERSE,
    AlignmentResult,
)
from repro.core.dupmark import (
    DupmarkStats,
    fragment_signature,
    mark_duplicates,
    mark_duplicates_results,
    signature,
    unclipped_position,
)


def aligned(pos, contig=0, reverse=False, cigar=b"10M", **kw):
    flag = FLAG_REVERSE if reverse else 0
    return AlignmentResult(flag=flag, contig_index=contig, position=pos,
                           cigar=cigar, **kw)


class TestUnclippedPosition:
    def test_forward_no_clip(self):
        assert unclipped_position(aligned(100)) == 100

    def test_forward_soft_clip(self):
        assert unclipped_position(aligned(100, cigar=b"5S5M")) == 95

    def test_reverse_end(self):
        # Reverse 5' end is the alignment end.
        assert unclipped_position(aligned(100, reverse=True)) == 109

    def test_reverse_with_trailing_clip(self):
        assert unclipped_position(
            aligned(100, reverse=True, cigar=b"5M5S")
        ) == 109

    def test_clip_insensitive_signature(self):
        """Duplicates with different clipping share a signature."""
        a = aligned(100, cigar=b"10M")
        b = aligned(103, cigar=b"3S7M")
        assert signature(a) == signature(b)


class TestSignature:
    def test_unmapped_none(self):
        assert signature(AlignmentResult()) is None
        assert fragment_signature(AlignmentResult()) is None

    def test_strand_distinguishes(self):
        assert signature(aligned(100)) != signature(aligned(100, reverse=True))

    def test_contig_distinguishes(self):
        assert signature(aligned(100, contig=0)) != signature(
            aligned(100, contig=1)
        )

    def test_paired_mates_share_fragment_signature(self):
        r1 = AlignmentResult(
            flag=FLAG_PAIRED | FLAG_FIRST_IN_PAIR, contig_index=0,
            position=100, next_contig_index=0, next_position=300,
            cigar=b"10M",
        )
        r2 = AlignmentResult(
            flag=FLAG_PAIRED | FLAG_REVERSE, contig_index=0, position=300,
            next_contig_index=0, next_position=100, cigar=b"10M",
        )
        # Mate signature uses the mate's raw position; both orderings
        # canonicalize identically for same geometry.
        assert fragment_signature(r1)[0] == "pair"
        assert fragment_signature(r2)[0] == "pair"


class TestMarkResults:
    def test_first_kept_rest_marked(self):
        results = [aligned(100), aligned(100), aligned(100)]
        stats = DupmarkStats()
        out = mark_duplicates_results(results, stats)
        assert [r.is_duplicate for r in out] == [False, True, True]
        assert stats.duplicates_marked == 2

    def test_distinct_not_marked(self):
        results = [aligned(100), aligned(101), aligned(100, reverse=True)]
        out = mark_duplicates_results(results)
        assert not any(r.is_duplicate for r in out)

    def test_unmapped_never_marked(self):
        results = [AlignmentResult(), AlignmentResult()]
        stats = DupmarkStats()
        out = mark_duplicates_results(results, stats)
        assert not any(r.is_duplicate for r in out)
        assert stats.unmapped == 2

    def test_input_not_mutated(self):
        results = [aligned(100), aligned(100)]
        mark_duplicates_results(results)
        assert not results[1].is_duplicate


class TestMarkDataset:
    def test_in_place_marking(self, aligned_dataset, origins):
        stats = mark_duplicates(aligned_dataset)
        assert stats.records == aligned_dataset.total_records
        true_dups = sum(1 for o in origins if o.is_duplicate)
        # Every planted PCR duplicate must be caught (same origin =>
        # same signature); coincidental position collisions may add more.
        assert stats.duplicates_marked >= true_dups
        results = aligned_dataset.read_column("results")
        assert sum(r.is_duplicate for r in results) == stats.duplicates_marked

    def test_planted_duplicates_found(self, aligned_dataset, origins, reference):
        mark_duplicates(aligned_dataset)
        results = aligned_dataset.read_column("results")
        seen_positions = set()
        for result, origin in zip(results, origins):
            if origin.is_duplicate and origin.global_pos in seen_positions:
                if result.is_aligned:
                    assert result.is_duplicate
            seen_positions.add(origin.global_pos)

    def test_requires_results_column(self, dataset):
        with pytest.raises(ValueError):
            mark_duplicates(dataset)

    def test_only_results_column_rewritten(self, aligned_dataset):
        """§5.6: 'only the results column needs to be read/written'."""
        store = aligned_dataset.store
        writes = []
        original_put = store.put

        def spy_put(key, data):
            writes.append(key)
            original_put(key, data)

        store.put = spy_put
        mark_duplicates(aligned_dataset)
        assert writes, "expected some chunks to be rewritten"
        assert all(key.endswith(".results") for key in writes)

    def test_agrees_with_samblaster_baseline(self, aligned_dataset, reads):
        """Persona and the samblaster-like baseline mark the same set."""
        import io

        from models.baselines import SamblasterLike, SamblasterReport
        from repro.formats.converters import export_sam

        buf = io.BytesIO()
        export_sam(aligned_dataset, buf)
        report = SamblasterReport()
        marked_sam = SamblasterLike().mark(
            buf.getvalue(), aligned_dataset.manifest.reference, report
        )
        stats = mark_duplicates(aligned_dataset)
        assert report.duplicates_marked == stats.duplicates_marked
        # Same reads marked, by name.
        from repro.formats.sam import read_sam

        _, sam_records = read_sam(io.BytesIO(marked_sam))
        sam_marked = {
            r.qname for r in sam_records if r.flag & FLAG_DUPLICATE
        }
        results = aligned_dataset.read_column("results")
        metas = aligned_dataset.read_column("metadata")
        agd_marked = {
            m.split()[0].decode()
            for m, r in zip(metas, results)
            if r.is_duplicate
        }
        assert sam_marked == agd_marked


class TestPairedDupmark:
    """Paired fragments: PCR duplicates share both mates' coordinates."""

    @pytest.fixture(scope="class")
    def paired_marked(self):
        from repro.align.bwa import BwaMemAligner, FMIndex
        from repro.genome.synthetic import ReadSimulator, synthetic_reference

        ref = synthetic_reference(20_000, seed=881)
        sim = ReadSimulator(ref, paired=True, duplicate_fraction=0.2,
                            insert_size_mean=300, insert_size_sd=20,
                            seed=882)
        reads, origins = sim.simulate(300)
        aligner = BwaMemAligner(FMIndex(ref))
        aligner.infer_insert_size(
            [(reads[i].bases, reads[i + 1].bases) for i in range(0, 60, 2)]
        )
        results = []
        for i in range(0, len(reads), 2):
            r1, r2 = aligner.align_pair(reads[i].bases, reads[i + 1].bases)
            results.extend((r1, r2))
        marked = mark_duplicates_results(results)
        return origins, marked

    def test_planted_pair_duplicates_found(self, paired_marked):
        origins, marked = paired_marked
        planted = sum(1 for o in origins if o.is_duplicate)
        found = sum(1 for r in marked if r.is_duplicate)
        assert planted > 10
        # Every planted duplicate fragment contributes 2 reads; allow a
        # small shortfall for pairs that failed to align properly.
        assert found >= 0.9 * planted

    def test_non_duplicates_spared(self, paired_marked):
        origins, marked = paired_marked
        false_marks = sum(
            1 for o, r in zip(origins, marked)
            if r.is_duplicate and not o.is_duplicate
        )
        # Coincidental fragment collisions are possible but rare.
        assert false_marks <= 4


class TestRewriteKeepsTheCodec:
    """Marking flips flag bits; it must not re-choose a chunk's codec."""

    @pytest.mark.parametrize("how", ["eager", "head_stage"])
    def test_lzma_results_stay_lzma(self, aligned_dataset, how):
        from repro.agd.chunk import read_chunk_header
        from repro.core.pipelines import run_pipeline

        for index in range(aligned_dataset.num_chunks):
            aligned_dataset.replace_column_chunk(
                "results", index,
                aligned_dataset.read_chunk("results", index).records,
                codec="lzma",
            )
        if how == "eager":
            stats = mark_duplicates(aligned_dataset)
        else:
            stats = run_pipeline(
                aligned_dataset, stages=("dupmark",), backend="serial"
            ).dupmark_stats
        assert stats.duplicates_marked > 0
        assert {
            read_chunk_header(aligned_dataset.store.get(
                entry.chunk_file("results"))).codec_name
            for entry in aligned_dataset.manifest.chunks
        } == {"lzma"}
        results = aligned_dataset.read_column("results")
        assert sum(r.is_duplicate for r in results) == stats.duplicates_marked

    def test_fused_dupmark_writes_at_the_sorts_output_level(
        self, aligned_dataset
    ):
        """``sort,dupmark``: flagged and clean results chunks alike come
        out at ``SortConfig.output_codec_level``."""
        from repro.agd.chunk import read_chunk, write_chunk
        from repro.agd.compression import leveled_codec
        from repro.core.pipelines import run_pipeline
        from repro.core.sort import SortConfig
        from repro.storage.base import MemoryStore

        store = MemoryStore()
        outcome = run_pipeline(
            aligned_dataset, stages=("sort", "dupmark"),
            sort_config=SortConfig(output_codec_level=1),
            output_store=store, backend="serial",
        )
        assert outcome.dupmark_stats.duplicates_marked > 0
        level_one = leveled_codec("gzip", 1)
        flagged_chunks = 0
        for entry in outcome.sorted_dataset.manifest.chunks:
            blob = store.get(entry.chunk_file("results"))
            records = read_chunk(blob).records
            flagged_chunks += any(r.is_duplicate for r in records)
            assert blob == write_chunk(
                records, "results", entry.first_ordinal, codec=level_one
            )
            assert blob != write_chunk(records, "results",
                                       entry.first_ordinal)
        assert flagged_chunks
