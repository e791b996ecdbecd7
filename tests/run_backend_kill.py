"""``python run_backend_kill.py worker_lost|parent_killed[_idle]``: a process
backend in an interpreter of its own, for the two kill tests — what a
SIGKILL leaves behind (a live worker, a ``/dev/shm`` segment, a
``resource_tracker`` complaint at exit) shows only from outside."""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.dataflow.backends import ProcessBackend


def popen(mode: str) -> "subprocess.Popen":
    """Run this file in a fresh interpreter (the tests' entry point)."""
    here = Path(__file__).resolve()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(here.parent.parent / "src"), env.get("PYTHONPATH", "")])
    return subprocess.Popen(
        [sys.executable, str(here), mode], env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def die_on_three(shared, payload):
    blob, index = payload
    if index == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return len(blob)


def nap_task(shared, payload):
    time.sleep(0.2)
    return payload


def worker_lost() -> dict:
    """One payload SIGKILLs its worker; shm is on and the payloads are
    large enough to travel as leases."""
    backend = ProcessBackend(workers=2, batch_size=1, shm_threshold=1024)
    backend.start()
    report = {"prefix": backend._shm_pool.prefix if backend.shm else None}
    started = time.monotonic()
    try:
        backend.run_chunk(die_on_three,
                          [(b"x" * 100_000, i) for i in range(6)])
    except RuntimeError as error:
        report["error"] = str(error)
    report["elapsed_s"] = time.monotonic() - started
    if backend.shm:
        report["live_leases"] = backend._shm_pool.live_leases
    try:
        backend.run_chunk(nap_task, [1])
    except RuntimeError as error:
        report["later_error"] = str(error)
    started = time.monotonic()
    backend.shutdown()
    report["shutdown_s"] = time.monotonic() - started
    report["children"] = len(multiprocessing.active_children())
    return report


def parent_killed(mid_chunk: bool) -> None:
    """Print the worker pids, then sit mid-chunk (workers busy) or
    between chunks (workers waiting on their pipes) until SIGKILLed."""
    backend = ProcessBackend(workers=2, batch_size=1)
    backend.start()
    print(json.dumps([p.pid for p in multiprocessing.active_children()]),
          flush=True)
    if mid_chunk:
        backend.run_chunk(nap_task, list(range(300)))
    time.sleep(60)


if __name__ == "__main__":
    if sys.argv[1] == "worker_lost":
        print(json.dumps(worker_lost()))
    else:
        parent_killed(mid_chunk=sys.argv[1] == "parent_killed")
