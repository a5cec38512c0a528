"""Host-speed calibration.

The 2-vCPU VM this benchmark is sized for runs the same CPU-bound work
at two speeds, about 1.8x apart, flipping every few milliseconds to
every few minutes (its neighbours, not the program).  A run's median
lands in whichever mode dominated it, so no wall-clock median can hold
a 25 % bound across two sets of runs.  Each CPU-bound time is therefore
rescaled to a reference host speed: raw seconds x REFERENCE_S / the
calibration kernel's time measured right before and right after it
(:class:`Bracket`).

The calibration kernel is fixed work that calls nothing in the program
(a JSON round trip, a dict index and a sort: the interpreter work the
daemon and client do per request).  A program change therefore moves
the rescaled times exactly as it moves the raw ones; only the host's
speed is divided out.  Waits set by a timer (a deadline-floored reply)
are not CPU-bound and stay raw.
"""

from __future__ import annotations

import json
import time

#: Median kernel time on the reference host speed (2-vCPU VM, fast
#: mode).  Only a scale: any constant keeps comparisons exact.
REFERENCE_S = 0.00065

_DOC = [{"collective": "allgather", "nodes": 1 + i % 64, "ppn": 28,
         "msg_size": 1000 + 37 * i, "algorithm": f"algo{i % 7}"}
        for i in range(256)]


def _kernel() -> int:
    rows = json.loads(json.dumps(_DOC))
    index = {(r["collective"], r["nodes"], r["msg_size"]): r
             for r in rows}
    return sum(k[2] for k in sorted(index, reverse=True))


def kernel_s(repeats: int) -> float:
    """Mean seconds of one kernel call over *repeats* calls, now."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        _kernel()
    return (time.perf_counter() - t0) / repeats


class Bracket:
    """Calibration around consecutive timed operations: the factor of
    one operation uses the kernel samples taken just before and just
    after it (the *after* sample is the next operation's *before*)."""

    def __init__(self, repeats: int) -> None:
        self.repeats = repeats
        self.restart()

    def restart(self) -> None:
        """Take a fresh *before* sample (after untimed work)."""
        self.before = kernel_s(self.repeats)

    def factor(self) -> float:
        """Call right after a timed operation: multiply its raw time by
        the result to get reference-speed time."""
        after = kernel_s(self.repeats)
        f = 2.0 * REFERENCE_S / (self.before + after)
        self.before = after
        return f
