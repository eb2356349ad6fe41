"""How fast the machine runs right now, measured with a fixed kernel.

Other tenants of a shared host slow a process by up to 1.7x, in phases that
last seconds, which moves run-to-run timings far more than the changes the
benchmark is meant to resolve.  ``timed`` therefore times a fixed kernel,
which uses no octospin code, RUNS times just before and RUNS times just
after each call, never while the call runs.  The median kernel time is the
call's *pace*; dividing it out scales every call to the kernel's nominal
pace, NOMINAL_S (see ``scale``).

Contention slows interpreted code more than long-integer arithmetic, so one
kernel cannot track every request.  Each workload names the kernel closest
to where its time goes (``pace_kernel``): ``integer`` (long-integer product,
remainder and gcd, like eval at large heights) or ``mixed`` (small
rationals, which are interpreter-bound, then the ``integer`` kernel, like
the verify suites).  On a busy host the verify workloads slowed by less than
small rationals alone and by more than long integers alone.  The scaling is
still approximate; within eval-height the largest-coefficient requests read
somewhat fast on a busy host.

Scaling also removes a slowdown the program itself leaves behind after a
call returns, such as worker processes still busy; compare the unscaled
figures in the ``result`` line when a change might do that.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from time import perf_counter

#: Kernel runs before and after each call; the median of all of them is its
#: pace, so one preempted run does not move it.
RUNS = 3

_A, _B, _C = 5**900 + 12345, 7**700 + 999, 3**600


def _rational() -> None:
    x, acc = Fraction(3, 7), Fraction(0)
    for k in range(1, 100):
        acc += x * Fraction(k, k + 1) - Fraction(1, k)


def _integer() -> None:
    n = 0
    for i in range(60):
        n += (_C * (_C + i)) % (_C - i)
    for i in range(6):
        n += math.gcd(_A + i, _B * (i + 3))


def _mixed() -> None:
    _rational()
    _integer()


KERNELS = {"integer": _integer, "mixed": _mixed}
#: Each kernel's time that reported timings are scaled to: about its time on
#: an idle 2-core x86-64 VM under CPython 3.11.
NOMINAL_S = {"integer": 0.00028, "mixed": 0.00078}


def kernel_time(kernel: str) -> float:
    """Seconds taken by one run of the named kernel (0.3 to 0.8 ms)."""
    run = KERNELS[kernel]
    t0 = perf_counter()
    run()
    return perf_counter() - t0


def timed(fn, kernel: str) -> tuple:
    """(fn(), seconds spent in fn, pace in kernel seconds)."""
    samples = [kernel_time(kernel) for _ in range(RUNS)]
    t0 = perf_counter()
    result = fn()
    elapsed = perf_counter() - t0
    samples += [kernel_time(kernel) for _ in range(RUNS)]
    return result, elapsed, statistics.median(samples)


def scale(times, paces, kernel: str) -> list:
    """Each time as it would read at the kernel's nominal pace."""
    return [t * NOMINAL_S[kernel] / p for t, p in zip(times, paces)]
