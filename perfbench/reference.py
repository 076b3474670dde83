"""A fixed reference loop that tracks the machine's current speed.

On a shared machine the speed of one core jumps between levels that last
seconds to minutes, often for whole runs, and a run's times move with it.
Every timed piece of work is therefore paired with a run of this loop just
before it, and reported scaled to a fixed reference speed:

    scaled = seconds * REFERENCE_S / loop_seconds

The loop does the pure-Python work of parsing an instance: it splits
lines, looks names up in a dict and builds a set of a roster.  That work
dominates ``legalassign`` itself, so a slow phase stretches both much
alike.  It imports nothing from ``legalassign``, so no change to the
program can move it.
"""

from __future__ import annotations

import time

# Fixed data for the loop: a roster of names, and preference lines of ten
# names each, as in an instance file.
_NAMES = [f"a{i}" for i in range(20_000)]
_INDEX = {name: i for i, name in enumerate(_NAMES)}
_LINES = [" ".join(_NAMES[(i * 7919 + k * 104_729) % 2000] for k in range(10))
          for i in range(2000)]

#: Seconds the loop takes on an uncontended core of the 2-vCPU machine the
#: benchmark was built on; a scaled time is in seconds at that speed.
REFERENCE_S = 0.018


def scale() -> float:
    """The factor that takes seconds measured now to reference seconds:
    REFERENCE_S over the time of one run of the reference loop."""
    t0 = time.perf_counter()
    for _ in range(3):
        prefs = {}
        for line in _LINES:
            tokens = line.split()
            prefs[tokens[0]] = [_INDEX[t] for t in tokens if t in _INDEX]
        set(_NAMES)
    return REFERENCE_S / (time.perf_counter() - t0)
