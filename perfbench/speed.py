"""How fast this machine runs the interpreter right now.

On a shared machine the speed of one core drifts.  On the 2-core VM this
benchmark was written on, the same pure-Python loop took anywhere from
0.22 to 0.35 s within one minute, in stretches of about ten seconds,
and ladder passes measured minutes apart took from 24 to 42 s.  Raw
wall times then say more about the neighbours than about the package.

So every timed region is bracketed by ``probe()``, a fixed piece of
pure-Python work that never calls the package, and its time is scaled
to reference speed::

    reference seconds = measured seconds * REFERENCE_S / probe seconds

where the probe time is the mean of the probes just before and just
after the region.  A change to the package moves the measured seconds
and not the probe, so the scaled time shows it; a slow stretch of the
machine moves both, and cancels.  Over 150 s of back-to-back CLI jobs
in a turbulent stretch, the interquartile spread of 8-job sums fell
from 0.24 of the median (measured) to 0.04 (scaled).

The probe mimics the package's hot loops: a lazily filled rank cache
over bitmask "bases" (``max((b & m).bit_count() for b in masks)``), and
random lookups in a dict of about the size of a 14-element rank table,
so cache pressure from neighbours slows it as it slows the package.
"""

from __future__ import annotations

import random
import time

# Probe time at reference speed: about its median on the machine above,
# so a reference second is close to a wall second there.
REFERENCE_S = 0.020

_rng = random.Random(5)
_MASKS = tuple(sum(1 << i for i in _rng.sample(range(20), 8)) for _ in range(300))
_TABLE = {(k * 2654435761) & 0xFFFFFF: k for k in range(1 << 14)}
_KEYS = list(_TABLE)
_rng.shuffle(_KEYS)
del _rng


def probe() -> float:
    """Seconds taken by the fixed probe work."""
    masks, table, keys = _MASKS, _TABLE, _KEYS
    started = time.perf_counter()
    cache = {}
    for k in range(400):
        m = (k * 2654435761) & 0xFFFFF
        if m not in cache:
            cache[m] = max((b & m).bit_count() for b in masks)
    acc = 0
    for i in range(20_000):
        acc ^= table[keys[(i * 40503) & 0x3FFF]]
    return time.perf_counter() - started


def scaled(seconds: float, probe_before: float, probe_after: float) -> float:
    """``seconds`` at reference speed."""
    return seconds * 2 * REFERENCE_S / (probe_before + probe_after)
