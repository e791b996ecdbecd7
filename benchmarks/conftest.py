"""Shared benchmark fixtures and the paper-vs-measured report helper.

Every benchmark regenerates one table or figure from the paper's
evaluation (§5-§6) at reduced scale.  Reports are printed and also written
to ``benchmarks/results/`` so EXPERIMENTS.md can cite a concrete run.

Scale note: the paper's testbed aligns 223M real reads on 32 Xeon nodes;
we align synthetic reads in pure Python on one machine.  Absolute numbers
differ by construction — every report therefore shows the paper's value,
our measured value, and the *shape* property that must hold.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.align.base import ReadAligner
from repro.align.snap import SeedIndex, SnapAligner
from repro.dataflow.backends import BACKEND_CHOICES
from repro.formats.converters import import_reads
from repro.genome.synthetic import ReadSimulator, synthetic_reference
from repro.storage.base import MemoryStore

RESULTS_DIR = Path(__file__).parent / "results"


def pytest_addoption(parser):
    group = parser.getgroup("persona", "Persona execution backends")
    group.addoption(
        "--backend",
        default="serial",
        choices=BACKEND_CHOICES,
        help="execution backend the benchmark pipelines use "
             "(default: serial)",
    )
    group.addoption(
        "--bench-workers",
        type=int,
        default=2,
        help="worker count for the process benchmark backend",
    )


@pytest.fixture(scope="session")
def bench_backend_kind(request) -> str:
    return request.config.getoption("--backend")


@pytest.fixture(scope="session")
def bench_workers(request) -> int:
    return request.config.getoption("--bench-workers")


BENCH_GENOME = 150_000
BENCH_READS = 4_000
BENCH_CHUNK = 400
READ_LENGTH = 101


@pytest.fixture(scope="session")
def bench_reference():
    return synthetic_reference(BENCH_GENOME, num_contigs=2, seed=7001)


@pytest.fixture(scope="session")
def bench_reads(bench_reference):
    simulator = ReadSimulator(
        bench_reference, read_length=READ_LENGTH,
        duplicate_fraction=0.12, seed=7002,
    )
    reads, _origins = simulator.simulate(BENCH_READS)
    return reads


@pytest.fixture(scope="session")
def bench_index(bench_reference):
    return SeedIndex(bench_reference, seed_length=16, max_hits=32)


@pytest.fixture(scope="session")
def bench_aligner(bench_index):
    return SnapAligner(bench_index)


class PerReadSnapAligner(SnapAligner):
    """SNAP through the per-read oracle loop: ~0.1 ms of Python compute
    per read, the deterministic CPU-bound load of the benches whose
    checks are about an aligner that keeps a core busy (Figure 5, the
    RAID0 row of Table 1) or a compute kernel worth a process pool
    (backend scaling)."""

    align_reads = ReadAligner.align_reads


@pytest.fixture(scope="session")
def bench_per_read_aligner(bench_index):
    return PerReadSnapAligner(bench_index)


@pytest.fixture()
def bench_dataset(bench_reads, bench_reference):
    return import_reads(
        bench_reads, "bench", MemoryStore(), chunk_size=BENCH_CHUNK,
        reference=bench_reference.manifest_entry(),
    )


@pytest.fixture(scope="session")
def single_thread_rate(bench_aligner, bench_reads):
    """Calibration: measured single-thread alignment rate (bases/s).

    The storage models express bandwidths as multiples of this rate so
    the paper's compute-to-I/O regime is reproduced regardless of how
    fast the host machine runs Python.
    """
    import time

    sample = bench_reads[:300]
    start = time.monotonic()
    for read in sample:
        bench_aligner.align_read(read.bases)
    elapsed = time.monotonic() - start
    return len(sample) * READ_LENGTH / elapsed


#: Machine-readable benchmark results land at the repo root as
#: ``BENCH_<name>.json`` (CI uploads them as artifacts; trend tooling
#: reads them without parsing the human report).
REPO_ROOT = Path(__file__).resolve().parent.parent


class Report:
    """Collects lines, prints them, and persists them under results/.

    Alongside the human-readable ``benchmarks/results/<name>.txt``,
    ``finish()`` writes a machine-readable ``BENCH_<name>.json`` at the
    repo root: every ``row``/``check`` is recorded structurally, and
    drivers can attach numeric series via :meth:`metric`.
    """

    def __init__(self, name: str, title: str):
        self.name = name
        self.title = title
        self.lines = [title, "=" * len(title)]
        self.metrics: dict = {}
        self.rows: list[dict] = []
        self.checks: list[dict] = []
        self.gates: list[dict] = []

    def add(self, line: str = "") -> None:
        self.lines.append(line)

    def metric(self, key: str, value) -> None:
        """Record one machine-readable metric (number, string, list)."""
        self.metrics[key] = value

    def row(self, label: str, paper, measured, note: str = "") -> None:
        self.add(f"{label:<42} paper: {paper:<16} measured: {measured:<16} {note}")
        self.rows.append(
            {"label": label, "paper": str(paper), "measured": str(measured),
             "note": note}
        )

    def check(self, description: str, holds: bool) -> None:
        marker = "HOLDS" if holds else "VIOLATED"
        self.add(f"  [{marker}] {description}")
        self.checks.append({"description": description, "holds": bool(holds)})
        assert holds, f"shape violated: {description}"

    def gate(self, name: str, threshold: float, measured: float,
             armed: bool, note: str = "") -> None:
        """A numeric speedup gate, recorded structurally either way.

        ``armed=False`` (e.g. too few CPUs for a timing assertion)
        records the measurement without asserting; the JSON still
        carries threshold, measured value, and arming state, so
        ``compare_bench.py`` can surface drift between what a gate
        states and what a host actually measured.
        """
        holds = bool(measured >= threshold)
        self.gates.append({
            "name": name, "threshold": float(threshold),
            "measured": float(measured), "armed": bool(armed),
            "holds": holds,
        })
        if armed:
            marker = "HOLDS" if holds else "VIOLATED"
            self.add(f"  [{marker}] gate {name}: measured {measured:.2f} "
                     f"vs threshold {threshold:g}")
            assert holds, (
                f"gate violated: {name}: {measured:.3f} < {threshold:g}"
            )
        else:
            suffix = f" — {note}" if note else ""
            self.add(f"  [UNARMED] gate {name}: measured {measured:.2f} "
                     f"vs threshold {threshold:g}{suffix}")

    def finish(self) -> str:
        import json

        text = "\n".join(self.lines) + "\n"
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{self.name}.txt").write_text(text)
        payload = {
            "benchmark": self.name,
            "title": self.title,
            "metrics": self.metrics,
            "rows": self.rows,
            "checks": self.checks,
            "gates": self.gates,
        }
        (REPO_ROOT / f"BENCH_{self.name}.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print("\n" + text)
        return text


@pytest.fixture()
def report(request):
    def factory(name: str, title: str) -> Report:
        return Report(name, title)

    return factory
