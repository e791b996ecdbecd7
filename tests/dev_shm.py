"""Every entry of ``/dev/shm``, for the tests' leak checks.

Nothing under ``src/repro`` creates a shared-memory segment, so a check
compares the whole directory before and after the code it runs — any
new entry is a leak, whatever its name.
"""

from __future__ import annotations

import os

DEV_SHM = "/dev/shm"


def dev_shm_entries() -> "set[str]":
    """The names in ``/dev/shm`` (empty where there is no such
    directory)."""
    try:
        return set(os.listdir(DEV_SHM))
    except OSError:
        return set()
