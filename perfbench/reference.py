"""A fixed pure-Python computation that gauges how fast a CPU runs right now.

The benchmark machine's speed drifts by a quarter or more, for reasons no
process inside it can see: the same loop takes 0.13 s at one moment and
0.21 s a few seconds later, with no steal time and no run-queue wait, and
each of the two CPUs drifts on its own.  So while an operation's process
runs, the benchmark, pinned to the same CPU, wakes every half second and
times this computation, and the end-to-end times are reported as ratios
to its mean CPU time.  The computation never changes, so a faster program
lowers the ratio, while a slower CPU slows both sides of it alike.

It mixes the kinds of work tilecohom does in pure Python: tuple keys in a
dict, sorting, Fraction sums and big-integer products.  One sample takes
about 7 ms of CPU time.
"""

from __future__ import annotations

import time
from fractions import Fraction

# what reference_work() returns; anything else means the computation changed
RESULT = 441739674


def reference_work() -> int:
    x = 12345
    table: dict = {}
    for i in range(3000):
        x = (x * 1103515245 + 12345) % 2147483648
        key = (x % 97, (x >> 7) % 89, (x >> 14) % 83, i % 5)
        table[key] = table.get(key, 0) + (x & 255)
    acc = sum(k[0] * v for k, v in sorted(table.items(), key=lambda kv: (kv[1], kv[0]))[:100])
    f = Fraction(0)
    for i in range(1, 200):
        f += Fraction((-1) ** i * i, i * i + 1)
    big = 1
    for i in range(1, 200):
        big = big * i + x
    return (acc + f.numerator % 1000003 + f.denominator % 999983 + big) % 1000000007


def reference_cpu() -> float:
    """CPU seconds this process spends on one run of the reference computation."""
    start = time.process_time()
    result = reference_work()
    cpu = time.process_time() - start
    if result != RESULT:
        raise RuntimeError(f"reference computation gave {result}, expected {RESULT}")
    return cpu
