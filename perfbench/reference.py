"""A gauge of the machine's speed, read while a run measures.

The host this benchmark runs on is shared, and the same CLI invocation can
take twice as long from one minute to the next, or from one second to the
next.  So ``run.py`` reports end-to-end times corrected to a fixed machine
speed.  It reads the speed from a small fixed slice of reference work, timed
every :data:`INTERVAL_S` of wall time from a timer signal *during* the timed
invocations, and scales each pass's measured time by the mean speed read
during it.  On a 2-CPU test machine this cut the deviation of one
product-large invocation's time from about 15 % to about 4.5 %; timing
reference work just before and after each invocation instead left about 9 %.

Set-up time is corrected by :func:`start_speed` instead.

The slice is the benchmark's own code, independent of ``lightsout``, so a
change to the program cannot move it.  It is shaped like the program's work:
tuple-based polynomial arithmetic over GF(2), as in ``gfpoly`` and ``snf``,
and XOR-basis rank of a bit matrix, as in ``_gf2kernel``.  Its inputs are
fixed, not drawn from the workload seed.
"""

from __future__ import annotations

import random
import signal
import statistics
import subprocess
import sys
import time

from perfbench.check import rank_and_consistency

#: Seconds one slice is taken to need at the reference speed.  It only sets
#: the scale of corrected times; a slice took 4-8 ms on the test machine
#: (2 CPUs, Python 3.11.7).
SLICE_NOMINAL_S = 0.008
#: Wall seconds between two speed readings while a gauge is active.
INTERVAL_S = 0.2
#: Seconds a bare interpreter (``python -c pass``) is taken to need to start
#: and exit at the reference speed: about its median on the test machine.
START_NOMINAL_S = 0.05

_RNG = random.Random(20180214)
_POLYS = [
    (tuple(_RNG.getrandbits(1) for _ in range(24)) + (1,),
     tuple(_RNG.getrandbits(1) for _ in range(16)) + (1,))
    for _ in range(40)
]
_BITS = 200
_MATRIX = [_RNG.getrandbits(_BITS) for _ in range(_BITS)]


def _mul(a: tuple, b: tuple) -> tuple:
    c = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                c[i + j] ^= y
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _mod(a: tuple, b: tuple) -> tuple:
    r = list(a)
    while len(r) >= len(b):
        if r[-1]:
            shift = len(r) - len(b)
            for j, y in enumerate(b):
                r[shift + j] ^= y
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return tuple(r)


def _gcd(a: tuple, b: tuple) -> tuple:
    while b:
        a, b = b, _mod(a, b)
    return a


def reference_slice() -> int:
    """One slice of the fixed work; returns a checksum so none of it can be skipped."""
    total = sum(len(_gcd(_mul(a, b), _mul(b, b))) for a, b in _POLYS)
    rank, _ = rank_and_consistency(_MATRIX, [0] * _BITS)
    return total + rank


def slice_speed() -> float:
    """The machine's speed now, relative to the reference speed (1.0 = nominal)."""
    start = time.perf_counter()
    reference_slice()
    return SLICE_NOMINAL_S / (time.perf_counter() - start)


def start_speed() -> float:
    """The machine's speed at starting an interpreter now (1.0 = nominal).

    Set-up time is mostly process start and imports, which the slice does
    not track; a bare interpreter started next to it does.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return START_NOMINAL_S / (time.perf_counter() - start)


class Gauge:
    """Reads the speed every INTERVAL_S from SIGALRM while active (main thread only).

    ``speeds`` holds every reading, one of them taken before it was active.
    After it, ``seconds`` is the wall time it was active, less the time its
    readings took then.
    """

    def __init__(self):
        self.speeds: list[float] = [slice_speed()]
        self.stolen = 0.0
        self.seconds = 0.0
        self._start = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.speeds.append(slice_speed())
        self.stolen += time.perf_counter() - start

    def __enter__(self) -> Gauge:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.seconds = time.perf_counter() - self._start - self.stolen
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def speed(self) -> float:
        return statistics.fmean(self.speeds)
