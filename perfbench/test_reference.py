"""Tests for the benchmark's speed gauge.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import signal
import time

import pytest

from perfbench.reference import INTERVAL_S, Gauge


def test_gauge_reads_during_the_window_and_takes_out_its_own_time():
    previous = signal.getsignal(signal.SIGALRM)
    gauge = Gauge()
    outer = time.perf_counter()
    with gauge:
        end = time.perf_counter() + 3 * INTERVAL_S + 0.05
        while time.perf_counter() < end:
            pass
    outer = time.perf_counter() - outer

    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(gauge.speeds) >= 4  # one before the window, one per interval in it
    assert all(speed > 0 for speed in gauge.speeds)
    assert gauge.stolen > 0
    assert gauge.seconds == pytest.approx(outer - gauge.stolen, abs=0.003)
