"""Calibration helper: for each line read from stdin, times two fixed
kernels and prints their wall times in seconds, CPU kernel first.

The CPU kernel is Fraction arithmetic on a row that stays in cache, like
the recurrence and the series.  The memory kernel makes random reads over a
64 MiB buffer, like the oracles walking their large tables, so it slows down
with the machine's memory and cache contention.  Both run in this process
because a child's ``ru_maxrss`` includes its parent's high-water RSS at exec
time: the buffer in the benchmark process would show up as the peak RSS of
every CLI process the benchmark starts.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

CPU_ROWS = 100
SIZE = 64 << 20
STEPS = 200_000
PAGE = 4096


def cpu_kernel() -> float:
    start = time.perf_counter()
    row = [Fraction(1)]
    for _ in range(CPU_ROWS):
        row = [Fraction(2, 3) * x + Fraction(5, 7) * y for x, y in zip([0, *row], [*row, 0])]
    return time.perf_counter() - start


def memory_kernel(buf: bytearray) -> float:
    start = time.perf_counter()
    mask = len(buf) - 1
    index = total = 0
    for _ in range(STEPS):
        index = (index * 1103515245 + 12345) & mask
        total += buf[index]
    return time.perf_counter() - start


def main() -> None:
    buf = bytearray(SIZE)
    for offset in range(0, SIZE, PAGE):  # back every page with its own memory
        buf[offset] = 1
    for _ in sys.stdin:
        print(cpu_kernel(), memory_kernel(buf), flush=True)


if __name__ == "__main__":
    main()
