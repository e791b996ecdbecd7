"""The repository's benchmark: one command, four workloads.

    python benchmarks/suite/run.py [--workload NAME]... [--seed N]
        [--seconds S | --reps K] [--trace 0|1|both] [--out DIR]
        [--smoke] [--check-repeat]

For each workload it builds the seeded fixture (in a child process,
several times, to time set-up), runs timed repetitions — each in a fresh
process, tracing off — verifies every repetition's outputs, and, with
tracing on, runs three more repetitions through the span proxies, each
followed by a layer replay.  Every metric is printed by name with its unit; the
last line of stdout is one JSON object.  With exactly one ``--workload``
that object is the one BENCHMARK.json's driver reads (``--trace 0``:
the end-to-end metrics; ``--trace 1``: the per-layer metrics).

See README.md beside this file for what each metric means, how the
metrics interact, and why the workloads are what they are.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import runner

if not (runner.SRC_DIR / "repro").is_dir():
    sys.exit(f"benchmark needs the program under test at {runner.SRC_DIR}")
sys.path.insert(0, str(runner.SRC_DIR))

from workloads import WORKLOADS, Workload, worker_count  # noqa: E402

SPEC = json.loads((runner.REPO_ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

#: Set-ups per run when ``setup_s`` is reported.
SETUPS = 4
#: A timed run takes at least this many repetitions, however slow.
MIN_REPS = 3
DEFAULT_REPS = 5
#: Sibling-workload repetitions: one is enough for the digest oracle; a
#: traced run also takes ratios against the sibling's median.
SIBLING_REPS = {False: 1, True: 3}
#: Traced repetitions per run; layer metrics are medians over them.
TRACED_REPS = 3
TCP_PROBES = 3
#: Hard limit per TCP probe.  The issue asked for 120 s; the driver
#: allows a whole run 180 s, so a stalled probe is cut off here and
#: counted in ``cluster.tcp_timeouts``, its wall-clock a lower bound.
TCP_PROBE_TIMEOUT_S = 15.0
#: The driver kills a run at 180 s: start no repetition after
#: RUN_BUDGET_S, and let none run past DRIVER_LIMIT_S.
RUN_BUDGET_S = 150.0
DRIVER_LIMIT_S = 175.0
CHILD_TIMEOUT_S = 120.0
#: Give up on a workload after this many failed repetitions.
MAX_FAILURES = 3


def log(message: str = "") -> None:
    print(message, flush=True)


def quartiles(values: "list[float]") -> "tuple[float, float, float]":
    """(q1, median, q3); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def reported(metric: str, values: "list[float]") -> float:
    """The one number a run reports for an end-to-end metric.

    Sizes: the median of the run's samples.  Times: their *lower
    quartile*.  On a shared host, interference only ever adds time, and
    it comes in bursts that can cover half of a 20 s run; the median of
    the repetitions then jumps between the quiet and the disturbed
    level from one run to the next (40 % between two sets of runs of
    the same commit, when this was measured), while the lower quartile
    stays at the quiet level as long as a third of the repetitions are
    undisturbed.  Unlike the minimum it is not moved much by one lucky
    repetition either.  Median and quartiles are printed beside it.
    """
    q1, median, _q3 = quartiles(values)
    return q1 if END_TO_END[metric]["unit"] == "s" else median


class Measurement:
    """One workload, one seed: set-up, repetitions, optional trace."""

    def __init__(self, workload: Workload, seed: int, scale: str,
                 out_dir: Path, traced: bool, setups: int):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.out_dir = out_dir
        self.traced = traced
        self.setups = setups
        self.started = time.monotonic()
        self.work_dir = out_dir / f"work-{os.getpid()}-{workload.name}"
        self.fixture_dir = self.work_dir / "fixture"
        self.attempted = 0
        self.failed = 0
        self.failures: "list[str]" = []
        self.reps: "list[dict]" = []
        self.setup_docs: "list[dict]" = []
        self.sibling_reps: "list[dict]" = []
        self.layers: "dict[str, float]" = {}
        self.digest: "str | None" = None
        self.shm_leaked = 0

    # ------------------------------------------------------------ helpers

    def _fail(self, what: str, result: runner.ChildResult) -> None:
        self.failed += 1
        self.failures.append(f"{what}: {result.failure}")
        log(f"  FAILED {what}: {result.failure}")
        for line in result.stderr.strip().splitlines()[-6:]:
            log(f"    | {line}")

    def _rep_timeout(self) -> float:
        """10x the median so far, within what the run has left."""
        limit = CHILD_TIMEOUT_S
        if self.reps:
            limit = 10.0 * self.median("wall_s") + 5.0
        elapsed = time.monotonic() - self.started
        return max(1.0, min(limit, DRIVER_LIMIT_S - elapsed))

    def _out_of_budget(self) -> bool:
        return time.monotonic() - self.started > RUN_BUDGET_S

    def _repetition(self, name: str, index: int,
                    trace_file: "Path | None" = None) -> "dict | None":
        """Run one repetition of workload ``name``; None if it failed."""
        self.attempted += 1
        result = runner.run_repetition(
            name, self.fixture_dir, self.work_dir, index,
            self._rep_timeout(), trace_file=trace_file,
        )
        self.shm_leaked += len(result.shm_leaked)
        if not result.ok:
            self._fail(f"{name} rep {index}", result)
            return None
        doc = result.doc
        doc["tracker_errors"] = result.tracker_errors
        if self.digest is None:
            self.digest = doc["digest"]
        elif doc["digest"] != self.digest:
            result.failure = (f"output digest {doc['digest'][:12]} differs "
                              f"from {self.digest[:12]}")
            self._fail(f"{name} rep {index}", result)
            return None
        return doc

    # -------------------------------------------------------------- steps

    def set_up(self) -> bool:
        workload = self.workload
        warm = worker_count() if workload.backend == "process" else 0
        for index in range(self.setups):
            result = runner.build_fixture(
                workload.fixture, self.seed, self.fixture_dir, self.scale,
                warm, CHILD_TIMEOUT_S,
            )
            self.attempted += 1
            if not result.ok:
                self._fail(f"set-up {index}", result)
                return False
            self.setup_docs.append(result.doc)
        digests = {d["inputs_sha256"] for d in self.setup_docs}
        if len(digests) != 1:
            self.failed += 1
            self.failures.append("same seed gave different fixture inputs")
            return False
        return True

    def run_sibling(self) -> None:
        """The sibling's output digest is this workload's oracle."""
        if self.workload.sibling is None:
            return
        for index in range(SIBLING_REPS[self.traced]):
            doc = self._repetition(self.workload.sibling, index)
            if doc is not None:
                self.sibling_reps.append(doc)

    def run_timed(self, seconds: "float | None", reps: int) -> None:
        deadline = time.monotonic() + (seconds or 0.0)
        index = 0
        while not self._out_of_budget() and self.failed < MAX_FAILURES:
            if seconds is None:
                if index >= reps:
                    break
            elif time.monotonic() >= deadline and len(self.reps) >= MIN_REPS:
                break
            doc = self._repetition(self.workload.name, index)
            if doc is not None:
                self.reps.append(doc)
            index += 1

    def run_traced(self) -> None:
        """Repetitions through the span proxies, each with a layer replay;
        a layer metric is its median over them."""
        name = self.workload.name
        trace_file = self.out_dir / f"trace_{name}.jsonl"
        trace_file.unlink(missing_ok=True)
        docs = []
        for index in range(TRACED_REPS):
            if self._out_of_budget():
                break
            doc = self._repetition(name, len(self.reps) + index,
                                   trace_file=trace_file)
            if doc is not None:
                docs.append(doc)
        if not docs:
            return
        doc = docs[0]
        layers = self.layers
        for key in doc["layers"]:
            layers[key] = statistics.median(d["layers"][key] for d in docs)
        layers["dataflow.tracker_errors"] = statistics.median(
            d["tracker_errors"] for d in docs)
        layers["dataflow.shm_leaked"] = self.shm_leaked
        untraced_wall = self.median("wall_s")
        traced_wall = statistics.median(d["wall_s"] for d in docs)
        layers["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0

        timings = {
            key: statistics.median(d["timings"][key] for d in self.setup_docs)
            for key in self.setup_docs[0]["timings"]
        }
        reads = doc["reads"]
        layers["genome.simulate_reads_per_s"] = reads / timings["simulate_s"]
        layers["formats.import_reads_per_s"] = reads / timings["import_s"]
        layers["align.index_build_s"] = timings["index_build_s"]
        layers["dataflow.pool_start_s"] = timings["pool_start_s"]

        if self.workload.sibling is None:
            # Only where one thread of kernels is the fair comparison:
            # the serial, single-session workloads.
            kernel_s = sum(layers[f"core.{stage}.kernel_s"]
                           for stage in ("sort", "dupmark", "varcall"))
            if "align" in self.workload.stages:
                kernel_s += layers["align.us_per_read"] * 1e-6 * reads
            layers["framework.overhead_frac"] = \
                1.0 - kernel_s / untraced_wall

        if self.sibling_reps:
            sibling_wall = statistics.median(
                r["wall_s"] for r in self.sibling_reps)
            sibling_cpu = statistics.median(
                r["cpu_s"] for r in self.sibling_reps)
            if self.workload.placed:
                layers["cluster.placed_overhead_frac"] = \
                    untraced_wall / sibling_wall - 1.0
            else:
                layers["dataflow.parallel_efficiency"] = \
                    sibling_wall / (doc["workers"] * untraced_wall)
                layers["dataflow.cpu_inflation"] = \
                    self.median("cpu_s") / sibling_cpu
        if self.workload.placed:
            self.probe_tcp(untraced_wall)

    def probe_tcp(self, local_wall: float) -> None:
        """Record the loopback-TCP placed stall without ever hanging.

        Nothing is gated on these numbers: they are here so the change
        that fixes the stall can show it and promote TCP to a workload.
        A probe that exceeds the limit dumps every thread's stack
        (``faulthandler``) into ``tcp_stall_<n>.txt`` and is killed.
        """
        walls, cpus, timeouts = [], [], 0
        for index in range(TCP_PROBES):
            if self._out_of_budget():
                break
            result = runner.run_repetition(
                self.workload.name, self.fixture_dir, self.work_dir,
                100 + index, TCP_PROBE_TIMEOUT_S + 10.0, transport="tcp",
                hard_timeout_s=TCP_PROBE_TIMEOUT_S,
            )
            if result.ok:
                walls.append(result.doc["wall_s"])
                cpus.append(result.doc["cpu_s"])
                continue
            lines = result.stderr.splitlines()
            marker = next((i for i, line in enumerate(lines)
                           if line.startswith("Timeout (")), None)
            if marker is None:  # not a stall: broken, and said so
                log(f"  tcp probe {index} failed: {result.failure}")
                continue
            timeouts += 1
            walls.append(TCP_PROBE_TIMEOUT_S)
            dump = self.out_dir / f"tcp_stall_{index}.txt"
            dump.write_text(result.stderr)
            log(f"  tcp probe {index} cut off at {TCP_PROBE_TIMEOUT_S:.0f} s;"
                f" every thread's stack is in {dump}; innermost frames:")
            for at in range(marker, len(lines) - 1):
                if lines[at].startswith("Thread "):
                    log(f"    | {lines[at + 1].strip()}")
        if not walls:
            return
        log(f"  tcp probe wall_s min/median/max = {min(walls):.3f} / "
            f"{statistics.median(walls):.3f} / {max(walls):.3f} "
            f"({timeouts} of {len(walls)} cut off at "
            f"{TCP_PROBE_TIMEOUT_S:.0f} s)")
        self.layers["cluster.tcp_wall_s"] = statistics.median(walls)
        self.layers["cluster.tcp_cpu_s"] = \
            statistics.median(cpus) if cpus else 0.0
        self.layers["cluster.tcp_stall_ratio"] = \
            statistics.median(walls) / local_wall
        self.layers["cluster.tcp_timeouts"] = timeouts

    def clean_up(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)

    # ------------------------------------------------------------ results

    def values(self, metric: str) -> "list[float]":
        if metric == "setup_s":
            return [d["timings"]["setup_s"] for d in self.setup_docs]
        return [r[metric] for r in self.reps]

    def median(self, metric: str) -> float:
        return statistics.median(self.values(metric))

    def end_to_end(self) -> "dict[str, float]":
        return {name: reported(name, self.values(name))
                for name in END_TO_END if self.values(name)}

    def per_layer(self) -> "dict[str, float]":
        """Every declared layer metric; 0 where it does not apply."""
        return {name: float(self.layers.get(name, 0.0)) for name in PER_LAYER}

    @property
    def correct(self) -> bool:
        return self.failed == 0 and bool(self.reps)


def measure(workload: Workload, args: argparse.Namespace) -> Measurement:
    want_e2e = args.trace in ("0", "both")
    traced = args.trace in ("1", "both")
    m = Measurement(workload, args.seed, "smoke" if args.smoke else "full",
                    args.out, traced, SETUPS if want_e2e else 1)
    log(f"== {workload.name} (seed {args.seed}, scale {m.scale}) ==")
    try:
        if m.set_up():
            m.run_sibling()
            m.run_timed(args.seconds, args.reps)
            if traced and m.reps:
                m.run_traced()
    finally:
        m.clean_up()
    report(m, want_e2e, traced)
    return m


def report(m: Measurement, want_e2e: bool, traced: bool) -> None:
    """Print every metric by name, with its unit."""
    log(f"  attempted {m.attempted}, failed {m.failed}, "
        f"correct {m.correct}, digest {(m.digest or '-')[:16]}")
    if m.reps:
        wall = m.median("wall_s")
        log(f"  throughput {m.reps[0]['reads'] / wall:,.0f} reads/s, "
            f"{m.reps[0]['bases'] / wall:,.0f} bases/s "
            f"({m.reps[0]['reads']} reads, {m.reps[0]['workers']} workers)")
    if want_e2e:
        for name, meta in END_TO_END.items():
            values = m.values(name)
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            log(f"  {name:<34} {reported(name, values):>12.4f} "
                f"{meta['unit']:<6} median {median:.4f} q1 {q1:.4f} "
                f"q3 {q3:.4f} n {len(values)} bound {meta['bound']:.0%}")
            log("    each: " + " ".join(f"{v:.4g}" for v in values))
    if traced:
        for name, value in m.per_layer().items():
            log(f"  {name:<34} {value:>12.4f} {PER_LAYER[name]['unit']}")


def result_object(m: Measurement, metrics: "dict[str, float]",
                  units: "dict[str, dict]") -> dict:
    return {
        "correct": m.correct,
        "attempted": max(1, m.attempted),
        "failed": m.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]["unit"]}
            for name, value in metrics.items()
        },
    }


def check_repeat(workloads: "list[Workload]",
                 args: argparse.Namespace) -> bool:
    """Two full sets on the same commit; every cell within its bound?

    A cell *agrees* when the two sets' reported values differ by no
    more than the metric's bound.  Otherwise it is *unresolved*: on the
    same commit the difference is the benchmark's own run-to-run noise,
    and a regression of that size could not be told from it.  Each
    set's samples are printed as [q1 median q3].
    """
    args.trace = "0"
    sets = [[measure(w, args) for w in workloads] for _ in range(2)]
    all_agree = True
    log("== check-repeat: set A vs set B, same commit, same seed ==")
    for first, second in zip(*sets):
        for name, meta in END_TO_END.items():
            a, b = first.values(name), second.values(name)
            if not a or not b:
                all_agree = False
                continue
            va, vb = reported(name, a), reported(name, b)
            qa, qb = quartiles(a), quartiles(b)
            shift = abs(vb - va) / va
            agree = shift <= meta["bound"]
            all_agree &= agree
            log(f"  {first.workload.name:<18} {name:<12} "
                f"A {va:.4f} [{qa[0]:.4f} {qa[1]:.4f} {qa[2]:.4f}]  "
                f"B {vb:.4f} [{qb[0]:.4f} {qb[1]:.4f} {qb[2]:.4f}]  "
                f"shift {shift:.1%} bound {meta['bound']:.0%}  "
                f"{'agree' if agree else 'unresolved'}")
        if not (first.correct and second.correct):
            all_agree = False
    return all_agree


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description="Persona reproduction benchmark suite")
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS),
                        help="repeatable; default: all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure each workload for this long")
    parser.add_argument("--reps", type=int, default=DEFAULT_REPS,
                        help="timed repetitions when --seconds is not given")
    parser.add_argument("--trace", default="both", choices=("0", "1", "both"))
    parser.add_argument("--out", type=Path, default=Path(".bench_out"))
    parser.add_argument("--smoke", action="store_true",
                        help="2 000-read fixtures (the pytest size)")
    parser.add_argument("--check-repeat", action="store_true")
    args = parser.parse_args(argv)
    args.out = args.out.resolve()
    args.out.mkdir(parents=True, exist_ok=True)
    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    workloads = [WORKLOADS[name] for name in names]

    if args.check_repeat:
        return 0 if check_repeat(workloads, args) else 1

    units = {"0": END_TO_END, "1": PER_LAYER,
             "both": {**END_TO_END, **PER_LAYER}}[args.trace]
    results = {}
    for workload in workloads:
        m = measure(workload, args)
        if not m.reps:
            log(f"{workload.name}: no repetition completed: "
                + "; ".join(m.failures))
            return 1
        values = {**m.end_to_end(), **m.per_layer()}
        metrics = {name: values[name] for name in units}
        results[workload.name] = result_object(m, metrics, units)
        if any(not math.isfinite(v) for v in metrics.values()):
            results[workload.name]["correct"] = False
    (args.out / "results.json").write_text(json.dumps(
        {"seed": args.seed, "smoke": args.smoke, "workloads": results},
        indent=1))
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {"seed": args.seed, "workloads": results}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
