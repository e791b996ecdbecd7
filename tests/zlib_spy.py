"""A recording stand-in for the ``zlib`` module (shared by the tests'
``codec_spy`` fixture and ``benchmarks/bench_broker_wire.py``)."""

from __future__ import annotations

import threading
import zlib


class ZlibSpy:
    """Stands in for the ``zlib`` module one repro module sees: records
    ``(thread name, function, level)`` per deflate/inflate call and
    passes everything through to the real module."""

    _SPIED = {"compress": 1, "compressobj": 0,
              "decompress": None, "decompressobj": None}

    def __init__(self):
        self.calls: "list[tuple[str, str, int | None]]" = []

    def __getattr__(self, name):
        real = getattr(zlib, name)
        if name not in self._SPIED:
            return real
        level_arg = self._SPIED[name]

        def spied(*args, **kwargs):
            level = kwargs.get("level")
            if level_arg is not None and len(args) > level_arg:
                level = args[level_arg]
            self.calls.append(
                (threading.current_thread().name, name, level))
            return real(*args, **kwargs)

        return spied

    def on(self, thread: str) -> "list[tuple[str, str, int | None]]":
        """Calls made on threads whose name contains ``thread``."""
        return [call for call in self.calls if thread in call[0]]
