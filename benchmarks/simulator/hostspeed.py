"""Wall seconds corrected for how fast a shared host ran.

On a shared host the same code runs up to twice as slowly while a neighbour
is busy, in spells that last from a second to minutes, so two runs of the
same code minutes apart can differ by far more than a regression worth
catching.  :class:`HostSpeed` samples the host's speed throughout a run and
converts wall seconds into *reference seconds*: what the window would have
taken on the reference host.

An interval timer runs :func:`_probe`, a fixed piece of interpreter work,
every :data:`PROBE_INTERVAL_S` of wall time, and records the host's speed as
``REFERENCE_PROBE_S / probe seconds``.  The samples are spread evenly over
wall time, so their mean is the mean speed over a window; the window's wall
time minus the probes' own time, times that mean, is its reference time.
The probe shares no code or data with the program being timed, so a change
to that program moves reference seconds in proportion to wall seconds.
"""

import signal
import time
from typing import Tuple

#: What :func:`_probe` costs on the reference host: one core of a 2-vCPU
#: Xeon (Sapphire Rapids) VM, Python 3.11, while no neighbour is busy.
REFERENCE_PROBE_S = 60e-6

#: Wall seconds between two probes: about 1% of a run on the reference host.
PROBE_INTERVAL_S = 0.005

_PROBE_KEYS = tuple(f"k{i}" for i in range(64))


def _probe() -> int:
    """A fixed piece of interpreter work: dict updates and integer math."""
    table: dict = {}
    acc = 0
    for i in range(400):
        key = _PROBE_KEYS[i & 63]
        table[key] = table.get(key, 0) + i
        acc += len(key) * i
    return acc


class HostSpeed:
    """Splits a process's life into windows timed in reference seconds.

    The first window opens at ``origin`` (a ``time.perf_counter()`` value);
    each :meth:`split` closes the open window and opens the next.  Between
    :meth:`start` and :meth:`stop` the process's ``SIGALRM`` belongs to the
    sampler.
    """

    def __init__(self, origin: float) -> None:
        self.samples = 0
        self._speed_sum = 0.0
        self._probe_s = 0.0
        self._last = (origin, 0, 0.0, 0.0)

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        _probe()
        elapsed = time.perf_counter() - start
        self.samples += 1
        self._speed_sum += REFERENCE_PROBE_S / elapsed
        self._probe_s += elapsed

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def split(self) -> Tuple[float, float]:
        """Close the open window with one more probe, so that it holds at
        least one: ``(wall seconds, reference seconds)``."""
        self._sample()
        now = (time.perf_counter(), self.samples, self._speed_sum,
               self._probe_s)
        (t0, n0, s0, p0), self._last = self._last, now
        wall = now[0] - t0
        speed = (now[2] - s0) / (now[1] - n0)
        return wall, (wall - (now[3] - p0)) * speed
