"""Machine-speed calibration for timings taken on a shared machine.

The speed a shared machine gives one thread drifts by tens of percent over
tens of seconds, so a wall-clock time alone does not repeat.  A fixed kernel
(small numpy gathers and Python float loops, the engine's own mix) is timed
just before and just after each timed call, never while it runs.  The call's
time is then reported in nominal seconds,
`wall * NOMINAL_REP_S / mean(bracket before, bracket after)`: the time the
call would take on a machine where one repetition takes NOMINAL_REP_S, a
fixed reference close to the kernel's speed on a 2-vCPU x86-64 virtual
machine with Python 3.11 and numpy 2.4.  The kernel uses nothing from the
package, so no change to the package can move it.
"""

from __future__ import annotations

import math
import time

NOMINAL_REP_S = 9.0e-6
# Repetitions per bracket, about 27 ms.  The machine's speed flips between a
# fast and a slow state within milliseconds; a call of a second or more runs
# at the mix of both, and a bracket this long sees that mix, where the
# fastest of a few short runs would see only the fast state.
BRACKET_REPS = 3000


class Speedometer:
    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(12345)
        n, pairs = 70, 495          # a dim-2, order-4 jet product
        self._ia, self._ib, self._ic = (rng.integers(0, n, pairs) for _ in range(3))
        self._a, self._b = rng.random(n), rng.random(n)
        self._n = n
        self._bincount = np.bincount

    def per_rep(self, reps: int) -> float:
        """Seconds per repetition of the kernel, measured now."""
        a, b, ia, ib, ic, n = self._a, self._b, self._ia, self._ib, self._ic, self._n
        acc = 0.0
        t0 = time.perf_counter()
        for _ in range(reps):
            acc += float(self._bincount(ic, weights=a[ia] * b[ib], minlength=n)[1])
            for k in range(24):
                acc = acc * 0.5 + math.sqrt(k + 1.0)
        return (time.perf_counter() - t0) / reps

    def bracket(self) -> float:
        """Seconds per repetition, the mean over BRACKET_REPS repetitions."""
        return self.per_rep(BRACKET_REPS)


def nominal(wall: float, before: float, after: float) -> float:
    """Wall seconds of a call bracketed by kernel speeds `before` and `after`,
    in nominal seconds."""
    return wall * NOMINAL_REP_S / ((before + after) / 2)
