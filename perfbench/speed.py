"""Machine-speed probe, so that op times can be put on one scale.

The shared machine the benchmark runs on changes speed by up to 1.8x for
stretches of seconds to a minute (CPU time moves with wall time, so it is
the processor, not waiting).  A whole 30 s run can land in a slow stretch,
and run-to-run spreads of raw op times then reach 0.3-0.5 of their median.

``probe()`` times a fixed task that owes nothing to the package: Gauss-Jordan
elimination over ``fractions.Fraction`` on one fixed matrix, the same kind of
work (interpreted exact arithmetic on small big-ints, list building) that the
package does.  Every op is timed between two probes, and ``scale`` turns its
seconds into seconds on a machine where one probe takes ``REFERENCE_S``:
``seconds * REFERENCE_S / mean(probe before, probe after)``.  A change of the
package moves the scaled time exactly as it moves the raw time; a change of
the machine's speed moves the op and the probes alike and cancels out.
"""

import random
import time
from fractions import Fraction

# one probe on the machine the benchmark was written on, in a fast stretch
REFERENCE_S = 0.004

_ROWS, _COLS = 9, 12
_rng = random.Random(20250810)
_MATRIX = [[(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(_COLS)]
           for _ in range(_ROWS)]


def _eliminate():
    m = [[Fraction(p, q) for p, q in row] for row in _MATRIX]
    r = 0
    for c in range(_COLS):
        pivot = next((i for i in range(r, _ROWS) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(_ROWS):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return m


def probe(reps=3):
    """Seconds for one elimination, averaged over ``reps`` of them."""
    t0 = time.perf_counter()
    for _ in range(reps):
        _eliminate()
    return (time.perf_counter() - t0) / reps


def scale(seconds, before, after):
    """``seconds`` timed between probes ``before`` and ``after``, on the
    reference machine's scale."""
    return seconds * 2 * REFERENCE_S / (before + after)
