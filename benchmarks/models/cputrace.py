"""CPU-utilization tracing (Figure 5).

Figure 5 plots per-second CPU utilization of SNAP-standalone vs Persona
under different storage configurations.  Our analog samples
:class:`BusyCounter` instances — one count of currently-busy compute
calls per sampling tick, kept by a :func:`counting_backend` — and
normalizes by the provisioned worker count.  The single-disk standalone
run shows the same cyclical writeback starvation the paper describes
(§5.3) because the writeback disk model stalls reads during flush
storms, which drains the pipeline's input queues and idles the compute
backend.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.dataflow.backends import Backend, ProcessBackend, SerialBackend


class BusyCounter:
    """Counts concurrently-busy workers; sampled for CPU-utilization traces."""

    def __init__(self) -> None:
        self._count = 0
        self._lock = threading.Lock()

    def enter(self) -> None:
        with self._lock:
            self._count += 1

    def exit(self) -> None:
        with self._lock:
            self._count -= 1

    @property
    def busy(self) -> int:
        with self._lock:
            return self._count


def counting_backend(kind: str, busy: BusyCounter, workers: int = 1) -> Backend:
    """A ``serial`` or ``process`` backend whose every ``run_chunk`` call
    holds one count on ``busy`` while it runs: one count per in-flight
    call (a serial backend's calls run one after another)."""
    base = {"serial": SerialBackend, "process": ProcessBackend}[kind]

    class Counting(base):
        def run_chunk(self, *args, **kwargs):
            busy.enter()
            try:
                return super().run_chunk(*args, **kwargs)
            finally:
                busy.exit()

    return Counting() if base is SerialBackend else Counting(workers=workers)


@dataclass
class UtilizationTrace:
    """A sampled utilization time series."""

    interval: float
    samples: list[float] = field(default_factory=list)  # busy workers
    capacity: int = 1

    def utilizations(self) -> list[float]:
        """Per-sample utilization in [0, 1]."""
        if self.capacity <= 0:
            return [0.0 for _ in self.samples]
        return [min(1.0, s / self.capacity) for s in self.samples]

    @property
    def mean_utilization(self) -> float:
        utils = self.utilizations()
        return sum(utils) / len(utils) if utils else 0.0

    def dip_count(self, threshold: float = 0.5) -> int:
        """Number of distinct dips below ``threshold`` — the cyclical
        starvation signature of Fig. 5a."""
        dips = 0
        below = False
        for value in self.utilizations():
            if value < threshold and not below:
                dips += 1
                below = True
            elif value >= threshold:
                below = False
        return dips

    def ascii_plot(self, width: int = 60, height: int = 8) -> str:
        """Terminal rendering for benchmark output."""
        utils = self.utilizations()
        if not utils:
            return "(no samples)"
        if len(utils) > width:
            step = len(utils) / width
            buckets = []
            for i in range(width):
                lo = int(i * step)
                hi = max(lo + 1, int((i + 1) * step))
                window = utils[lo:hi]
                buckets.append(sum(window) / len(window))
            utils = buckets
        rows = []
        for level in range(height, 0, -1):
            cutoff = level / height
            row = "".join("#" if u >= cutoff - 1e-9 else " " for u in utils)
            rows.append(f"{cutoff:4.1f} |{row}")
        rows.append("     +" + "-" * len(utils))
        return "\n".join(rows)


class UtilizationSampler:
    """Background sampler over one or more busy counters."""

    def __init__(
        self,
        counters: "list[BusyCounter]",
        capacity: int,
        interval: float = 0.02,
    ):
        if not counters:
            raise ValueError("need at least one counter")
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.trace = UtilizationTrace(interval=interval, capacity=capacity)
        self._counters = counters
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None

    def __enter__(self) -> "UtilizationSampler":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("sampler already started")
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.trace.interval):
            busy = sum(c.busy for c in self._counters)
            self.trace.samples.append(float(busy))

    def stop(self) -> UtilizationTrace:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        return self.trace
