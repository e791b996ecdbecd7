"""Tests for metrics: utilization tracing, microarch profiles, rates."""

import time

import pytest

from repro.dataflow.backends import BusyCounter, SerialBackend
from repro.metrics.cputrace import UtilizationSampler, UtilizationTrace
from repro.metrics.microarch import (
    OP_WEIGHTS,
    SPEC_REFERENCE,
    hyperthreading_shift,
    profile_bwa,
    profile_snap,
)
from repro.metrics.throughput import (
    RateMeter,
    format_bases_rate,
    format_bytes_rate,
)


class TestUtilizationTrace:
    def test_utilizations_normalized(self):
        trace = UtilizationTrace(interval=0.01, samples=[0, 1, 2, 4, 2],
                                 capacity=2)
        utils = trace.utilizations()
        assert utils == [0.0, 0.5, 1.0, 1.0, 1.0]
        assert trace.mean_utilization == pytest.approx(0.7)

    def test_dip_count(self):
        trace = UtilizationTrace(
            interval=0.01,
            samples=[2, 2, 0, 0, 2, 2, 0, 2],
            capacity=2,
        )
        assert trace.dip_count(threshold=0.5) == 2

    def test_flat_trace_no_dips(self):
        trace = UtilizationTrace(interval=0.01, samples=[2] * 10, capacity=2)
        assert trace.dip_count() == 0

    def test_ascii_plot(self):
        trace = UtilizationTrace(interval=0.01, samples=[1, 2, 1], capacity=2)
        plot = trace.ascii_plot(width=10, height=4)
        assert "#" in plot

    def test_ascii_plot_empty(self):
        trace = UtilizationTrace(interval=0.01, samples=[], capacity=2)
        assert "no samples" in trace.ascii_plot()

    def test_ascii_plot_bucketing(self):
        trace = UtilizationTrace(interval=0.01, samples=[1] * 500, capacity=1)
        plot = trace.ascii_plot(width=50, height=3)
        assert len(plot.splitlines()[0]) <= 60


def sleep_task(shared, seconds):
    time.sleep(seconds)


class TestSampler:
    def test_samples_busy_executor(self):
        counter = BusyCounter()
        backend = SerialBackend(busy_counter=counter)
        with UtilizationSampler([counter], capacity=2, interval=0.005) as s:
            backend.run_chunk(sleep_task, [0.05] * 2)
        trace = s.trace
        assert trace.samples
        assert max(trace.samples) >= 1
        assert counter.busy == 0
        backend.shutdown()

    def test_validation(self):
        with pytest.raises(ValueError):
            UtilizationSampler([], capacity=1)
        with pytest.raises(ValueError):
            UtilizationSampler([BusyCounter()], capacity=1, interval=0)


class TestMicroarch:
    def test_weights_sum_to_one(self):
        for name, w in OP_WEIGHTS.items():
            total = (w.retiring + w.frontend + w.bad_speculation
                     + w.backend_core + w.backend_memory)
            assert total == pytest.approx(1.0, abs=0.011), name

    def test_snap_profile_core_bound(self, snap_aligner, reads):
        """Fig. 8: SNAP backend-bound 'due to the core and not memory'."""
        profile = profile_snap(snap_aligner, [r.bases for r in reads[:60]])
        assert profile.backend_bound > 0.3
        assert profile.backend_core > profile.backend_memory

    def test_bwa_profile_memory_bound(self, bwa_aligner, reads):
        """Fig. 8: 'In BWA-MEM, the system is much more memory bound.'"""
        profile = profile_bwa(bwa_aligner, [r.bases for r in reads[:40]])
        assert profile.backend_bound > 0.3
        assert profile.backend_memory > profile.backend_core

    def test_contrast_emerges_from_op_mix(self, snap_aligner, bwa_aligner, reads):
        batch = [r.bases for r in reads[:40]]
        snap = profile_snap(snap_aligner, batch)
        bwa = profile_bwa(bwa_aligner, batch)
        assert bwa.memory_fraction_of_backend > snap.memory_fraction_of_backend

    def test_ht_shift_reduces_memory_stall(self, snap_aligner, reads):
        profile = profile_snap(snap_aligner, [r.bases for r in reads[:30]])
        shifted = hyperthreading_shift(profile)
        assert shifted.backend_memory < profile.backend_memory
        assert shifted.retiring > profile.retiring

    def test_spec_references_present(self):
        assert "mcf (memory)" in SPEC_REFERENCE
        row = SPEC_REFERENCE["mcf (memory)"]
        assert row["backend_memory"] > row["backend_core"]

    def test_empty_reads_rejected(self, snap_aligner):
        with pytest.raises(ValueError):
            profile_snap(snap_aligner, [])


class TestRateMeter:
    def test_basic(self):
        meter = RateMeter()
        with meter:
            meter.add(1000)
            time.sleep(0.02)
        assert meter.count == 1000
        assert meter.elapsed >= 0.02
        assert meter.rate > 0

    def test_double_start_rejected(self):
        meter = RateMeter().start()
        with pytest.raises(RuntimeError):
            meter.start()

    def test_stop_without_start(self):
        with pytest.raises(RuntimeError):
            RateMeter().stop()

    def test_formatting(self):
        assert format_bases_rate(1.353e9) == "1.353 Gbases/s"
        assert format_bases_rate(45.45e6) == "45.45 Mbases/s"
        assert format_bases_rate(1500) == "1.5 Kbases/s"
        assert format_bases_rate(10) == "10 bases/s"
        assert format_bytes_rate(6e9) == "6.00 GB/s"
        assert format_bytes_rate(360e6) == "360.0 MB/s"
