"""Repetition isolation and accounting (parent side).

Every repetition — and every fixture build — is a fresh child process
in its own session: a clean ``ru_maxrss``, cold worker pools, nothing
inherited from the repetition before.  This module starts the child,
enforces its timeout (killing the whole process group, so pool workers
die with it), waits until the group is empty, scans for what the run
left behind, and parses the one JSON line the child prints.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"
SHM_DIR = Path("/dev/shm")
#: Prefix of every shared-memory segment the program creates.
SHM_PREFIX = "psna"


@dataclass
class ChildResult:
    """What one child process did."""

    ok: bool
    doc: dict = field(default_factory=dict)
    failure: str = ""
    stderr: str = ""
    #: ``resource_tracker`` complaints on the child's stderr.
    tracker_errors: int = 0
    #: ``/dev/shm`` segments that appeared during the child and stayed.
    shm_leaked: "list[str]" = field(default_factory=list)


def shm_segments() -> "set[str]":
    try:
        return {n for n in os.listdir(SHM_DIR) if n.startswith(SHM_PREFIX)}
    except OSError:
        return set()


def child_env(tmp_dir: Path) -> "dict[str, str]":
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC_DIR) + (os.pathsep + inherited
                                        if inherited else "")
    # Anything the program writes through tempfile lands in the
    # repetition's own directory, inside the checkout.
    env["TMPDIR"] = str(tmp_dir)
    return env


def _group_members(pgid: int) -> "list[int]":
    """Live (non-zombie) processes in process group ``pgid``.

    A child's orphans — multiprocessing's resource tracker, say — are
    reparented to init, which may reap them a second later; a zombie
    has ended and is not worth waiting for.
    """
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited while we were looking
        # "pid (comm) state ppid pgrp ..."; comm may contain spaces.
        state, _ppid, pgrp = stat.rpartition(")")[2].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            members.append(int(entry))
    return members


def _wait_group_gone(pgid: int, deadline_s: float = 5.0) -> None:
    """Block until every process the child started has ended (pool
    workers can outlive it by a moment); kill stragglers at the
    deadline."""
    deadline = time.monotonic() + deadline_s
    while _group_members(pgid):
        if time.monotonic() > deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                return
            deadline += 1.0
        time.sleep(0.01)


def run_child(script: str, args: "list[str]", work_dir: Path,
              timeout_s: float) -> ChildResult:
    """Run ``python <suite>/<script> <args>`` to completion or timeout."""
    work_dir.mkdir(parents=True, exist_ok=True)
    before = shm_segments()
    process = subprocess.Popen(
        [sys.executable, str(SUITE_DIR / script), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=child_env(work_dir), cwd=str(work_dir),
        start_new_session=True,
    )
    timed_out = False
    try:
        stdout, stderr = process.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        timed_out = True
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        stdout, stderr = process.communicate()
    _wait_group_gone(process.pid)
    result = ChildResult(
        ok=False, stderr=stderr,
        tracker_errors=stderr.count("resource_tracker.py"),
        shm_leaked=sorted(shm_segments() - before),
    )
    if timed_out:
        result.failure = f"timeout after {timeout_s:.0f} s"
        return result
    if process.returncode != 0:
        result.failure = f"exit code {process.returncode}"
        return result
    try:
        result.doc = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result.failure = "no JSON result on stdout"
        return result
    result.ok = True
    return result


def sweep_shm(names: "list[str]") -> None:
    """Unlink segments a killed child left in ``/dev/shm``."""
    for name in names:
        try:
            (SHM_DIR / name).unlink()
        except OSError:
            pass


def build_fixture(kind: str, seed: int, out_dir: Path, scale: str,
                  warm_workers: int, timeout_s: float) -> ChildResult:
    if out_dir.exists():
        shutil.rmtree(out_dir)
    return run_child(
        "fixtures.py",
        ["--kind", kind, "--seed", str(seed), "--out", str(out_dir),
         "--scale", scale, "--warm-workers", str(warm_workers)],
        out_dir.parent / "tmp", timeout_s,
    )


def run_repetition(workload: str, fixture_dir: Path, work_dir: Path,
                   rep: int, timeout_s: float, trace_file: "Path | None" = None,
                   transport: str = "local",
                   hard_timeout_s: float = 0.0) -> ChildResult:
    """One repetition in a fresh process; its directory is removed after.

    A repetition fails when the child raises, times out, leaves a
    ``/dev/shm`` segment behind, or any of its correctness checks is
    false.
    """
    rep_dir = work_dir / f"rep_{workload}_{rep}"
    args = ["--workload", workload, "--fixture", str(fixture_dir),
            "--rep-dir", str(rep_dir), "--rep", str(rep),
            "--transport", transport]
    if trace_file is not None:
        args += ["--trace", "1", "--trace-file", str(trace_file)]
    if hard_timeout_s:
        args += ["--hard-timeout", str(hard_timeout_s)]
    try:
        result = run_child("workloads.py", args, rep_dir, timeout_s)
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)
    if result.shm_leaked:
        sweep_shm(result.shm_leaked)
        if result.ok:
            result.ok = False
            result.failure = f"leaked {len(result.shm_leaked)} shm segments"
    if result.ok:
        failed = [name for name, passed in result.doc["checks"].items()
                  if not passed]
        if failed:
            result.ok = False
            result.failure = "checks failed: " + ", ".join(failed)
    return result
