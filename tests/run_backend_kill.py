"""``python run_backend_kill.py worker_lost|parent_killed[_idle]|one_chunk``:
a process backend in an interpreter of its own, for the two kill tests
and the start-up check — what a SIGKILL leaves behind (a live worker, a
``resource_tracker`` complaint at exit) and what a run starts (a
resource-tracker process, a shared-memory segment) show only from a
fresh interpreter."""

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


def length_task(shared, payload):
    return len(payload)


def nap_task(shared, payload):
    time.sleep(0.2)
    return payload


def worker_lost() -> dict:
    """One payload SIGKILLs its worker."""
    backend = ProcessBackend(workers=2, batch_size=1)
    backend.start()
    report = {}
    started = time.monotonic()
    try:
        backend.run_chunk(die_on_three,
                          [(b"x" * 100_000, i) for i in range(6)])
    except RuntimeError as error:
        report["error"] = str(error)
    report["elapsed_s"] = time.monotonic() - started
    try:
        backend.run_chunk(nap_task, [1])
    except RuntimeError as error:
        report["later_error"] = str(error)
    started = time.monotonic()
    backend.shutdown()
    report["shutdown_s"] = time.monotonic() - started
    report["children"] = len(multiprocessing.active_children())
    return report


def one_chunk() -> dict:
    """One ``run_chunk`` of 100 kB payloads, then shutdown: which
    shared-memory segments were created, and whether a resource-tracker
    process was started."""
    from multiprocessing import resource_tracker, shared_memory

    created = []
    init = shared_memory.SharedMemory.__init__

    def recording_init(self, name=None, create=False, size=0, **kwargs):
        init(self, name=name, create=create, size=size, **kwargs)
        if create:
            created.append(self.name)

    shared_memory.SharedMemory.__init__ = recording_init
    backend = ProcessBackend(workers=2)
    try:
        lengths = backend.run_chunk(length_task, [b"x" * 100_000] * 3)
    finally:
        backend.shutdown()
    return {
        "lengths": lengths,
        "created": created,
        "tracker_pid": resource_tracker._resource_tracker._pid,
    }


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
    elif sys.argv[1] == "one_chunk":
        print(json.dumps(one_chunk()))
    else:
        parent_killed(mid_chunk=sys.argv[1] == "parent_killed")
