"""How fast the host runs plain Python at the moment, sampled while the
program runs, so that timings can be given at one reference speed.

On a host shared with other tenants their load changes how fast the
benchmark runs: on the 2-vCPU reference machine a fixed pure-Python loop
flips between two speeds about 1.7 times apart, for seconds at a time, and
the program's own calls slow down with it.  A median over a whole run does
not remove that, because the phases last seconds.

``Timed`` runs a fixed probe, which does no work of the program, every
``PERIOD_S`` of wall time from a ``SIGALRM`` handler, and once before and
after each timed call.  A call that took ``t`` seconds, less the time spent
in probes, while the probes ran at speeds ``REF_PROBE_NS / p_i``, is
reported as ``t * mean(REF_PROBE_NS / p_i)``: the time the call would take
at the reference speed.  Work done is the integral of speed over time, and
samples taken at even steps of wall time estimate its mean.  Probes neither
allocate containers nor call the program, so they trigger no garbage
collection in it and their speed does not depend on its code.

The correction is approximate: the program does not slow down by exactly
the probe's share in every phase.  ``metadata.json`` records the spreads
it leaves on the reference machine, beside those of the wall times.
"""

from __future__ import annotations

import random
import signal
import time

PERIOD_S = 0.01
# Probe time at the reference speed.  Any fixed value would do; on the 2-vCPU
# Xeon (2.1 GHz) reference machine with Python 3.11 the probe took about
# 115 us in the host's fast phases and 200 us in its slow ones, so reported
# times are close to wall times in a slow phase.
REF_PROBE_NS = 200_000.0

_NAMES = tuple(f"N{i}" for i in range(64))
_TABLE = {(i, _NAMES[i % 64], i % 7): i & 0xFF for i in range(8192)}
_KEYS = list(_TABLE)
random.Random(20240).shuffle(_KEYS)
_KEYS = tuple(_KEYS[:1200])
_SEEN = frozenset(_NAMES[::3])


def _probe() -> int:
    """A fixed piece of interpreter work: tuple hashing, dict and set
    lookups over a table larger than the first-level caches, calls."""
    s = 0
    table, seen = _TABLE, _SEEN
    for k in _KEYS:
        s += table[k]
        if k[1] in seen:
            s += len(k)
    return s


def probe_ns() -> int:
    """Time one probe.  It runs twice and the second run is timed: the
    program evicts the probe's code and table from the caches between
    samples, and a cold probe measures that eviction, not the host."""
    _probe()
    t0 = time.perf_counter_ns()
    _probe()
    return time.perf_counter_ns() - t0


class Timed:
    """Times one stretch, such as one call, at the reference speed.

    ``with Timed(probing=True) as call:`` probes once before the stretch,
    every ``PERIOD_S`` during it and once after it.  Afterwards
    ``call.wall_ns`` is its wall time less the probes run inside it,
    ``call.inside_ns`` the time those probes took, ``call.factor`` the mean
    of ``REF_PROBE_NS / p`` over the samples and ``call.ref_ns`` the wall
    time at the reference speed.  Without probing (the traced run, so that
    no probe runs inside a span) the factor is 1.
    """

    def __init__(self, probing: bool):
        self.probing = probing
        self.wall_ns = 0
        self.inside_ns = 0
        self.factor = 1.0
        self._samples: list[int] = []

    @property
    def ref_ns(self) -> float:
        return self.wall_ns * self.factor

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter_ns()
        self._samples.append(probe_ns())
        self.inside_ns += time.perf_counter_ns() - t0

    def __enter__(self) -> "Timed":
        if self.probing:
            self._samples.append(probe_ns())
            self._old = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter_ns()
        if self.probing:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._old)
            self._samples.append(probe_ns())
            self.factor = sum(REF_PROBE_NS / p for p in self._samples) / len(self._samples)
        self.wall_ns = max(t1 - self._t0 - self.inside_ns, 1)
