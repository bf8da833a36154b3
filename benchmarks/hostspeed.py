"""Host-speed probe: a fixed reference computation timed all through a pass.

The benchmark runs on a few vCPUs of a shared host whose speed, seen from
inside, swings by up to 2x for seconds to minutes at a time with almost no
steal time recorded and CPU time equal to wall time; code that makes many small
interpreter calls swings most, dense BLAS less. Medians over the passes of one
run cannot remove a swing that lasts the whole run. So every untraced pass is
also measured in units of a reference computation that belongs to the
benchmark, not to the program: a SIGALRM timer runs it every ``INTERVAL_S``
seconds during the pass, and the pass's time, less the probe's own, is divided
by the harmonic mean duration of those samples. The harmonic mean is the one
that fits: the samples are evenly spaced in time, so the program's work in
each interval is proportional to the interval over that interval's sample. A
change to the program moves that ratio as it moves wall time; the host's
swings move both sides of it.

Each workload names the reference whose code is of the kind that dominates its
own pass: ``interp`` (many numpy calls on tiny arrays) or ``memory``
(matrix-vector products that stream an 8 MB matrix).
"""

from __future__ import annotations

import functools
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1


@functools.cache
def _interp():
    """Many calls on tiny arrays, like the ascent loop and the small oracles."""
    vec, mat, rhs = np.linspace(0.0, 1.0, 5), np.ones((4, 5)), np.ones((5, 3))

    def run() -> None:
        for _ in range(100):
            vec.sum()
            vec * 2.0
            mat @ rhs
            np.maximum(vec, 0.5)

    return run


@functools.cache
def _memory():
    """Products with an 8 MB matrix, like the oracle and collection at large X."""
    rng = np.random.default_rng(0)
    mat, vec = rng.random((1000, 1000)), rng.random(1000)

    def run() -> None:
        for _ in range(3):
            mat @ vec

    return run


# kind -> factory; a reference's arrays are made once, and only in runs that use it
REFERENCES = {"interp": _interp, "memory": _memory}


class SpeedProbe:
    """Context manager that samples ``REFERENCES[kind]`` while it is open.

    ``probe_s`` is the time the samples took inside the block, ``ref_s`` the
    harmonic mean sample, with one more sample taken on exit so that a block
    shorter than the interval still has one.
    """

    def __init__(self, kind: str):
        self._reference = REFERENCES[kind]()
        self.samples: list[float] = []
        self.probe_s = 0.0
        self.ref_s = 0.0

    def _sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        self._reference()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe_s = sum(self.samples)
        self._sample()
        self.ref_s = statistics.harmonic_mean(self.samples)
