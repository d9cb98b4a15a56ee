"""Scale measured times to a fixed reference speed of the machine.

On a shared host the same code runs up to about 1.8 times slower while
other tenants load the processor, in stretches that last from a fraction of
a second to tens of seconds, which no run length or in-run median evens
out. So the benchmark times a fixed pure-Python kernel before every request
(and after the last), and reports each request's time scaled by
REFERENCE_KERNEL_S / (the mean kernel time just before and after it): as if
the machine ran the kernel in exactly REFERENCE_KERNEL_S. The kernel does
the kind of work tuplix does (small frozen dataclasses, structural
matching, Fraction arithmetic, string formatting) and never calls tuplix,
so a change to tuplix moves the scaled times and not the scale.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

REFERENCE_KERNEL_S = 0.0005


@dataclass(frozen=True)
class _Node:
    value: object
    next: object


def kernel() -> tuple[Fraction, str]:
    total = Fraction(0)
    chain = None
    for i in range(100):
        chain = _Node(Fraction(i % 7, i % 5 + 1), chain)
    text = []
    while chain is not None:
        match chain:
            case _Node(Fraction() as q, rest):
                total += q
                text.append(f"{q.numerator}/{q.denominator}")
                chain = rest
    return total, ",".join(text)


class Speed:
    """Kernel timings along a run, and the scale factor they give at a moment."""

    def __init__(self):
        self.times: list[float] = []
        self.kernel_s: list[float] = []

    def sample(self) -> None:
        # The collector stays off so that garbage the measured code left
        # behind does not make the kernel look slow.
        gc.disable()
        try:
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                kernel()
                best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
        self.times.append(time.perf_counter())
        self.kernel_s.append(best)

    def factor_at(self, moment: float) -> float:
        """REFERENCE_KERNEL_S over the mean of the samples just before and after `moment`."""
        i = bisect.bisect(self.times, moment)
        return REFERENCE_KERNEL_S / statistics.mean(self.kernel_s[max(0, i - 1) : i + 1])
