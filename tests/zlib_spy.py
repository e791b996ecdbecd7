"""A recording stand-in for the ``zlib`` module (shared by the tests'
``codec_spy`` fixture and ``benchmarks/bench_broker_wire.py``)."""

from __future__ import annotations

import threading
import zlib

from repro.dataflow.node import executing_node


class ZlibSpy:
    """Stands in for the ``zlib`` module one repro module sees: records
    ``(where, function, level)`` per deflate/inflate call and passes
    everything through to the real module.  ``where`` is
    ``<graph>.<node>`` for a call made while a session node executes
    (also on a thread that node shares with others, or on the session's
    write-behind lane on its behalf), the thread name otherwise."""

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
            node = executing_node()
            thread = threading.current_thread().name
            where = thread if node is None \
                else f"{thread.split('.')[0]}.{node.name}"
            self.calls.append((where, name, level))
            return real(*args, **kwargs)

        return spied

    def on(self, where: str) -> "list[tuple[str, str, int | None]]":
        """Calls whose ``where`` contains the given text."""
        return [call for call in self.calls if where in call[0]]
