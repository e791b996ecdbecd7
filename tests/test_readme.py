"""The README's Quickstart is executed: every ``persona`` line of its
shell block runs through the CLI, so the front door cannot name a
subcommand or a flag that is gone."""

import re
import shlex
from pathlib import Path

from repro.cli import main
from repro.formats.fastq import write_fastq
from repro.genome.reference import write_fasta
from repro.genome.synthetic import synthetic_dataset

README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart_commands() -> "list[list[str]]":
    """The argv of each ``persona`` command in the Quickstart's bash
    block (continuation lines joined, comments dropped)."""
    section = README.read_text().split("## Quickstart", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.DOTALL).group(1)
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv and argv[0] == "persona":
            commands.append(argv[1:])
    return commands


def test_quickstart_runs(tmp_path, monkeypatch):
    ref, reads, _ = synthetic_dataset(genome_length=15_000, coverage=2.0,
                                      seed=7, duplicate_fraction=0.1)
    write_fasta(ref, tmp_path / "ref.fasta")
    write_fastq(reads, tmp_path / "reads.fastq")
    monkeypatch.chdir(tmp_path)
    commands = quickstart_commands()
    assert any(argv[:1] == ["pipeline"] for argv in commands)
    for argv in commands:
        assert main(argv) == 0, argv
    assert Path("out.vcf").read_text().startswith("##fileformat")
