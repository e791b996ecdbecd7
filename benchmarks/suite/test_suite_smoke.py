"""Smoke test of the benchmark suite at 2 000 reads.

Not part of tier-1 (pyproject's ``testpaths`` is ``tests/``); run it by
path:

    PYTHONPATH=src python -m pytest -q benchmarks/suite/test_suite_smoke.py

(``PYTHONPATH`` only because pytest loads the legacy
``benchmarks/conftest.py`` on the way here; the suite finds ``src/``
itself.)

It drives ``run.py`` exactly as a user or the benchmark driver would —
as a subprocess, from another directory — and checks the contract:
every metric BENCHMARK.json names is emitted with a finite value, and
the last line of stdout has the agreed shape.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def run_suite(tmp_path: Path, *args: str) -> dict:
    """Run the suite from ``tmp_path``; return the final JSON object."""
    process = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--smoke",
         "--out", str(tmp_path / "out"), *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    assert process.returncode == 0, process.stdout + process.stderr
    return json.loads(process.stdout.strip().splitlines()[-1])


def assert_result(result: dict, expected: "dict[str, str]") -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == expected[name]
        assert math.isfinite(metric["value"]), name


def test_benchmark_json_matches_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/suite"]
    assert SPEC["command"][-1].startswith("benchmarks/suite/")
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = []
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_metric_on_every_workload(tmp_path):
    """The human mode: all workloads, timed repetitions and a trace."""
    final = run_suite(tmp_path, "--seed", "11", "--reps", "2")
    expected = {m["name"]: m["unit"]
                for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert final["seed"] == 11
    assert list(final["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, result in final["workloads"].items():
        assert_result(result, expected)
        assert (tmp_path / "out" / f"trace_{name}.jsonl").stat().st_size > 0
    metrics = {name: {k: v["value"] for k, v in result["metrics"].items()}
               for name, result in final["workloads"].items()}
    # The workloads separate the layers as README.md predicts.
    for name in ("wgs_serial", "wgs_process"):
        assert metrics[name]["core.align.busy_s"] > 0
        assert metrics[name]["cluster.edge_msgs"] == 0
    for name in ("downstream_single", "downstream_placed"):
        assert metrics[name]["core.align.busy_s"] == 0
        assert metrics[name]["storage.get_s"] > 0
    assert metrics["downstream_single"]["cluster.edge_msgs"] == 0
    assert metrics["downstream_placed"]["cluster.edge_msgs"] > 0
    assert not list((tmp_path / "out").glob("work-*"))


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"),
                                            ("1", "per_layer")])
def test_driver_invocation(tmp_path, trace, section):
    """The driver's command line: one workload, one result object."""
    result = run_suite(tmp_path, "--workload", "downstream_single",
                       "--seed", "12", "--seconds", "1", "--trace", trace)
    assert_result(result, {m["name"]: m["unit"] for m in SPEC[section]})
