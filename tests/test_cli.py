"""End-to-end tests for the persona CLI."""

import pytest

from repro.cli import main
from repro.formats.fastq import write_fastq
from repro.genome.reference import write_fasta
from repro.genome.synthetic import synthetic_dataset


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    ref, reads, origins = synthetic_dataset(
        genome_length=15_000, coverage=2.0, seed=555, duplicate_fraction=0.1
    )
    write_fasta(ref, root / "ref.fasta")
    write_fastq(reads, root / "reads.fastq")
    return root, ref, reads


@pytest.fixture(scope="module")
def imported(workspace):
    root, ref, reads = workspace
    dataset_dir = root / "dataset"
    rc = main([
        "import-fastq", str(root / "reads.fastq"), str(dataset_dir),
        "--chunk-size", "100",
    ])
    assert rc == 0
    return root, ref, reads, dataset_dir


@pytest.fixture(scope="module")
def aligned(imported):
    """``imported``'s dataset once the align stage has run on it: what
    every test that needs alignment results starts from, whatever ran
    (or did not run) before it."""
    root, _, _, dataset_dir = imported
    assert main([
        "pipeline", str(dataset_dir), "--stages", "align",
        "--reference", str(root / "ref.fasta"),
        "--workers", "2",
    ]) == 0
    return imported


@pytest.fixture(scope="module")
def unaligned(workspace):
    root, _, _ = workspace
    ds_dir = root / "unaligned-ds"
    assert main(["import-fastq", str(root / "reads.fastq"), str(ds_dir),
                 "--chunk-size", "100"]) == 0
    return root, ds_dir


class TestCLI:
    def test_import(self, imported):
        _, _, reads, dataset_dir = imported
        assert (dataset_dir / "manifest.json").exists()
        from repro.agd.dataset import AGDDataset

        ds = AGDDataset.open(dataset_dir)
        assert ds.total_records == len(reads)

    def test_align(self, aligned):
        _, _, _, dataset_dir = aligned
        from repro.agd.dataset import AGDDataset

        ds = AGDDataset.open(dataset_dir)
        assert "results" in ds.columns

    def test_sort_and_dupmark(self, aligned):
        root, _, _, dataset_dir = aligned
        sorted_dir = root / "sorted"
        assert main(["pipeline", str(dataset_dir), str(sorted_dir),
                     "--stages", "sort"]) == 0
        from repro.agd.dataset import AGDDataset
        from repro.core.sort import verify_sorted

        ds = AGDDataset.open(sorted_dir)
        assert verify_sorted(ds)
        assert main(["pipeline", str(sorted_dir), "--stages", "dupmark"]) == 0
        results = ds.read_column("results")
        assert any(r.is_duplicate for r in results)

    def test_exports(self, aligned, capsys):
        root, _, reads, dataset_dir = aligned
        for suffix in ("sam", "bam", "fastq"):
            out = root / f"out.{suffix}"
            assert main(["export", str(dataset_dir), str(out)]) == 0
            assert out.exists() and out.stat().st_size > 0

    def test_export_unknown_format(self, imported):
        root, _, _, dataset_dir = imported
        assert main(["export", str(dataset_dir), str(root / "x.xyz")]) == 2

    def test_varcall(self, aligned):
        root, _, _, dataset_dir = aligned
        out = root / "calls.vcf"
        rc = main([
            "pipeline", str(dataset_dir), "--stages", "varcall",
            "--reference", str(root / "ref.fasta"), "--vcf", str(out),
        ])
        assert rc == 0
        assert out.read_text().startswith("##fileformat")

    def test_stats(self, imported, capsys):
        _, _, reads, dataset_dir = imported
        assert main(["stats", str(dataset_dir)]) == 0
        out = capsys.readouterr().out
        assert str(len(reads)) in out
        assert "bases" in out


class TestPipelineCommand:
    """The one-graph `persona pipeline` subcommand."""

    @pytest.fixture(scope="class")
    def pipelined(self, workspace):
        root, ref, reads = workspace
        ds_dir = root / "pipe-ds"
        rc = main([
            "import-fastq", str(root / "reads.fastq"), str(ds_dir),
            "--chunk-size", "100",
        ])
        assert rc == 0
        out_dir = root / "pipe-sorted"
        vcf = root / "pipe.vcf"
        rc = main([
            "pipeline", str(ds_dir), str(out_dir),
            "--reference", str(root / "ref.fasta"),
            "--vcf", str(vcf),
            "--backend", "serial", "--workers", "2",
            "--superchunk", "2",
        ])
        assert rc == 0
        return root, ds_dir, out_dir, vcf

    def test_writes_sorted_dataset(self, pipelined, workspace):
        _, _, out_dir, _ = pipelined
        _, _, reads = workspace
        from repro.agd.dataset import AGDDataset
        from repro.core.sort import verify_sorted

        ds = AGDDataset.open(out_dir)
        assert ds.total_records == len(reads)
        assert verify_sorted(ds)
        assert any(r.is_duplicate for r in ds.read_column("results"))

    def test_writes_vcf(self, pipelined):
        _, _, _, vcf = pipelined
        assert vcf.read_text().startswith("##fileformat")

    def test_input_dataset_gains_results(self, pipelined):
        _, ds_dir, _, _ = pipelined
        from repro.agd.dataset import AGDDataset

        assert "results" in AGDDataset.open(ds_dir).columns

    def test_reports_per_stage_breakdown(self, pipelined, capsys):
        root, _, out_dir, _ = pipelined
        rc = main([
            "pipeline", str(out_dir), str(root / "pipe-unused"),
            "--stages", "varcall",
            "--reference", str(root / "ref.fasta"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "one graph" in out
        assert "varcall" in out

    def test_subset_stages(self, pipelined, workspace, capsys):
        root, ds_dir, _, _ = pipelined
        out_dir = root / "pipe-resorted"
        rc = main([
            "pipeline", str(ds_dir), str(out_dir),
            "--stages", "sort,dupmark",
            "--superchunk", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "duplicates marked" in out
        from repro.agd.dataset import AGDDataset
        from repro.core.sort import verify_sorted

        assert verify_sorted(AGDDataset.open(out_dir))

    def test_rejects_unknown_stage(self, pipelined):
        root, ds_dir, _, _ = pipelined
        assert main([
            "pipeline", str(ds_dir), str(root / "x"),
            "--stages", "align,polish",
            "--reference", str(root / "ref.fasta"),
        ]) == 2

    def test_rejects_out_of_order_stages(self, pipelined, capsys):
        root, ds_dir, _, _ = pipelined
        assert main([
            "pipeline", str(ds_dir), str(root / "x"),
            "--stages", "sort,align",
            "--reference", str(root / "ref.fasta"),
        ]) == 2
        assert "order" in capsys.readouterr().err

    def test_dupmark_varcall_subset(self, pipelined, capsys):
        root, _, out_dir, _ = pipelined
        rc = main([
            "pipeline", str(out_dir), str(root / "unused"),
            "--stages", "dupmark,varcall",
            "--reference", str(root / "ref.fasta"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "duplicates marked" in out and "variants" in out

    def test_requires_reference_for_align(self, pipelined):
        root, ds_dir, _, _ = pipelined
        assert main([
            "pipeline", str(ds_dir), str(root / "x"),
        ]) == 2


class TestImportSamAndRechunk:
    def test_import_sam_roundtrip(self, aligned, workspace):
        root, ref, reads = workspace
        _, _, _, dataset_dir = aligned
        sam_out = root / "roundtrip.sam"
        assert main(["export", str(dataset_dir), str(sam_out)]) == 0
        sam_ds_dir = root / "from-sam"
        assert main([
            "import-sam", str(sam_out), str(sam_ds_dir),
            "--chunk-size", "100",
        ]) == 0
        from repro.agd.dataset import AGDDataset

        back = AGDDataset.open(sam_ds_dir)
        assert back.total_records == len(reads)
        assert "results" in back.columns

    def test_rechunk(self, imported, workspace):
        root, _, reads = workspace
        _, _, _, dataset_dir = imported
        out_dir = root / "rechunked"
        assert main([
            "rechunk", str(dataset_dir), str(out_dir),
            "--chunk-size", "37",
        ]) == 0
        from repro.agd.dataset import AGDDataset

        rechunked = AGDDataset.open(out_dir)
        assert rechunked.total_records == len(reads)
        assert rechunked.manifest.chunks[0].record_count == 37


class TestClusterErrorsMatchPipeline:
    """`cluster run` / `cluster worker` reject what `pipeline` rejects,
    with the same one-line message and exit 2 — never a traceback."""

    def _both(self, capsys, root, ds_dir, stages, plan, *extra):
        out = str(root / "err-out")
        rc = main(["pipeline", str(ds_dir), out, "--stages", stages, *extra])
        pipeline_err = capsys.readouterr().err
        assert rc == 2
        rc = main(["cluster", "run", str(ds_dir), out, "--plan", plan,
                   *extra])
        cluster_err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in cluster_err
        assert cluster_err == pipeline_err
        assert len(cluster_err.strip().splitlines()) == 1
        return cluster_err

    def test_stages_that_need_alignment_results(self, unaligned, capsys):
        err = self._both(capsys, *unaligned, "sort,dupmark",
                         "A=sort;B=dupmark")
        assert "need alignment results" in err

    def test_varcall_without_reference(self, unaligned, capsys):
        err = self._both(capsys, *unaligned, "sort,varcall",
                         "A=sort;B=varcall")
        assert "--reference is required" in err

    def test_filter_without_min_mapq(self, unaligned, capsys):
        err = self._both(capsys, *unaligned, "sort,filter",
                         "A=sort;B=filter")
        assert "--min-mapq is required" in err

    def test_required_messages_name_arguments_that_exist(
        self, unaligned, capsys,
    ):
        root, ds_dir = unaligned
        assert main(["cluster", "run", str(ds_dir),
                     "--plan", "A=sort;B=dupmark"]) == 2
        err = capsys.readouterr().err
        assert "an output directory is required" in err
        assert "--output-dir" not in err  # positional on `cluster run`

    def test_vcf_without_a_varcall_stage(self, aligned, capsys):
        root, _, _, ds_dir = aligned
        vcf = root / "dropped.vcf"
        err = self._both(capsys, root, ds_dir, "sort,dupmark",
                         "A=sort;B=dupmark", "--vcf", str(vcf))
        assert "--vcf needs a varcall stage" in err
        assert not vcf.exists()

    def test_filter_dir_without_a_filter_stage(self, aligned, capsys):
        root, _, _, ds_dir = aligned
        filter_dir = root / "dropped-filtered"
        err = self._both(capsys, root, ds_dir, "sort,dupmark",
                         "A=sort;B=dupmark", "--filter-dir", str(filter_dir),
                         "--min-mapq", "20")
        assert "--filter-dir needs a filter stage" in err
        assert not filter_dir.exists()

    def test_bad_plan_is_a_one_line_error(self, unaligned, capsys):
        root, ds_dir = unaligned
        assert main(["cluster", "run", str(ds_dir), str(root / "x"),
                     "--plan", "A=dupmark;B=sort"]) == 2
        assert "pipeline order" in capsys.readouterr().err

    def test_deleted_selectors_are_gone(self, unaligned):
        root, ds_dir = unaligned
        for argv in (
            ["pipeline", str(ds_dir), "--stages", "dupmark",
             "--backend", "thread"],
            ["pipeline", str(ds_dir), "--stages", "varcall",
             "--reference", "r", "--kernels", "scalar"],
            ["cluster", "run", str(ds_dir), "--plan", "A=align", "--shm"],
            # Process-backend payloads go down the pipe only.
            ["pipeline", str(ds_dir), "--stages", "align",
             "--reference", "r", "--shm"],
            ["pipeline", str(ds_dir), "--no-shm"],
            # Only the aligner dispatches; one merge; framing by store.
            ["pipeline", str(ds_dir), str(root / "x"), "--stages", "sort",
             "--backend", "thread"],
            ["pipeline", str(ds_dir), "--merge-partitions", "2"],
            ["cluster", "run", str(ds_dir), "--plan", "A=align",
             "--raw-scratch", "on"],
            # The backend is named by --backend/--workers alone.
            ["pipeline", str(ds_dir), "--stages", "align",
             "--reference", "r", "--batch-size", "2"],
            ["pipeline", str(ds_dir), "--batch-size", "2"],
            ["cluster", "run", str(ds_dir), "--plan", "A=align",
             "--batch-size", "2"],
            # One in-process backend (serial); one worker-count flag.
            ["pipeline", str(ds_dir), "--stages", "align",
             "--reference", "r", "--threads", "2"],
            ["pipeline", str(ds_dir), "--backend", "thread"],
            # One command runs stages: `pipeline --stages X`.
            ["align", str(ds_dir), "--reference", "r"],
            ["sort", str(ds_dir), str(root / "x")],
            ["dupmark", str(ds_dir)],
            ["varcall", str(ds_dir), "x.vcf", "--reference", "r"],
            # Every TCP edge is a socket copy: no shm handoff to select.
            *(
                [*role, flag]
                for role in (
                    ["cluster", "run", str(ds_dir), "--plan", "A=align"],
                    ["cluster", "broker", str(ds_dir), "--plan", "A=align"],
                    ["cluster", "worker", str(ds_dir), "--connect",
                     "127.0.0.1:1", "--server", "A"],
                )
                for flag in ("--broker-shm", "--no-broker-shm")
            ),
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2


def _tree_bytes(root):
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


class TestMetadataSortOfUnalignedDataset:
    """A metadata sort reads no results column: `pipeline` and `cluster
    run` sort an unaligned dataset like the eager ``sort_dataset``."""

    def test_pipeline_and_cluster_run_match_sort_dataset(self, unaligned):
        from repro.agd.dataset import AGDDataset
        from repro.core.sort import SortConfig, sort_dataset
        from repro.storage.base import DirectoryStore

        root, ds_dir = unaligned
        eager = root / "meta-eager"
        sort_dataset(AGDDataset.open(ds_dir), DirectoryStore(eager),
                     SortConfig(order="metadata")).save_manifest(eager)
        piped, placed = root / "meta-pipeline", root / "meta-placed"
        assert main(["pipeline", str(ds_dir), str(piped),
                     "--stages", "sort", "--order", "metadata"]) == 0
        assert main(["cluster", "run", str(ds_dir), str(placed),
                     "--plan", "A=sort", "--order", "metadata"]) == 0
        expected = _tree_bytes(eager)
        assert "manifest.json" in expected
        assert _tree_bytes(piped) == expected
        assert _tree_bytes(placed) == expected


class TestClusterWorkerCli:
    """`persona cluster worker` in-process against a served plan."""

    @pytest.fixture()
    def served(self, workspace):
        from repro.agd.dataset import AGDDataset
        from repro.cluster.broker import Broker, BrokerServer
        from repro.cluster.multiserver import serve_plan
        from repro.cluster.placement import PlacementPlan

        root, _, _ = workspace
        ds_dir = root / "worker-ds"
        assert main(["import-fastq", str(root / "reads.fastq"), str(ds_dir),
                     "--chunk-size", "100"]) == 0
        broker = Broker()
        listener = BrokerServer(broker)
        serve_plan(broker, PlacementPlan.parse("A=align;B=sort,dupmark"),
                   AGDDataset.open(ds_dir), listener=listener)
        yield root, ds_dir, listener
        listener.stop()

    def _worker(self, root, ds_dir, listener, server, *extra):
        return main([
            "cluster", "worker", str(ds_dir), "--server", server,
            "--connect", f"127.0.0.1:{listener.port}", "--timeout", "60",
            "--reference", str(root / "ref.fasta"), *extra,
        ])

    def test_killed_worker_reports_like_a_fenced_one(
        self, served, capsys, monkeypatch,
    ):
        """The server loop's classification is the shared one: a
        ``WorkerKilled`` root cause is a message and exit 1."""
        import repro.cli as cli
        from repro.align.base import ReadAligner
        from repro.cluster.multiserver import WorkerKilled

        class Dying(ReadAligner):
            def align_read(self, bases):
                raise WorkerKilled("host lost")

        monkeypatch.setattr(cli, "_build_aligner", lambda *_: Dying())
        assert self._worker(*served, "A") == 1
        err = capsys.readouterr().err
        assert "worker 'A' was killed: host lost" in err
        assert "Traceback" not in err

    def test_missing_output_dir_names_the_flag(self, served, capsys):
        assert self._worker(*served, "B") == 2
        err = capsys.readouterr().err
        assert err.startswith("--output-dir is required")

    def test_unknown_server_is_a_one_line_error(self, served, capsys):
        assert self._worker(*served, "nobody") == 2
        assert "no server 'nobody'" in capsys.readouterr().err
