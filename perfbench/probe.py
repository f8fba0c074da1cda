"""Speed probe: times one fixed piece of work at intervals inside a run.

The measuring host is a shared virtual machine whose speed changes by up to
1.6x within seconds, and whose average over a minute drifts by 20% or more.
Each vCPU changes speed on its own, so only a probe on the run's own thread
sees the speed the run sees.  A SIGALRM handler runs the probe work every
``INTERVAL_S`` seconds of wall time, between two bytecodes of the program,
and records when it started and how long it took.  The work is a small
FFT round trip on 196 KB of complex data, a few elementwise products and a
short pure-Python loop, the same mix the program runs.  It touches no
torusns state, so the outputs of the run do not change.

``wall_probes`` is the run's wall time, less the probe's own time, divided by
the probe's mean time during that run: the run's length in probe units, which
the host's speed cancels out of.  (On a 2-vCPU shared virtual machine,
dividing each stretch between two probes by its own probe's time instead
spread more, 3.1% against 1.7% over six ``step64`` invocations, because
single probe times are noisy.)
"""

from __future__ import annotations

import signal
import time

import numpy as np
import scipy.fft

INTERVAL_S = 0.05


class SpeedProbe:
    """Probe timings of one run: ``starts`` and ``durations``, in order."""

    def __init__(self) -> None:
        rng = np.random.default_rng(7)
        shape = (3, 16, 16, 16)
        self._data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.warmup_s = 0.0

    def _work(self) -> None:
        for _ in range(2):
            field = scipy.fft.ifftn(self._data, axes=(1, 2, 3), workers=1)
            scipy.fft.fftn(field * field + 0.5 * field, axes=(1, 2, 3), workers=1)
        total = 0
        for i in range(300):
            total += i * i

    def _sample(self, signum, frame) -> None:
        begin = time.perf_counter()
        self._work()
        self.starts.append(begin)
        self.durations.append(time.perf_counter() - begin)

    def start(self) -> None:
        """Warm the probe work up once, then sample it every INTERVAL_S."""
        begin = time.perf_counter()
        self._work()
        self.warmup_s = time.perf_counter() - begin
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent_before(self, moment: float) -> float:
        """Probe time (warm-up included) taken from the run before ``moment``."""
        return self.warmup_s + sum(
            d for s, d in zip(self.starts, self.durations) if s < moment
        )

    @property
    def spent(self) -> float:
        return self.warmup_s + sum(self.durations)

    @property
    def mean_s(self) -> float:
        return sum(self.durations) / len(self.durations)
