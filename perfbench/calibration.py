"""A fixed piece of work that tells how fast the host is running right now.

    python3 perfbench/calibration.py THREADS ARRAYS

A shared host changes speed from second to second, by up to 2x. The
benchmark times this work between any two repeats and divides the repeats'
times by it, which takes that change out of the reported times while any
change to meanfield stays in them in full: the calibration uses nothing of
meanfield.

The work is of the kinds the workload does, in about its shares. Always a
scalar Python loop; then, with ARRAYS = 0, numpy calls on a 200-element
array in a Python loop (about half the time), and with ARRAYS = 1, for the
workload whose time goes mostly into N x N arrays, 1000 x 1000 float
temporaries of 8 MB each, above the L2 (about three quarters of the time).
A host that slows one kind of work more than another would otherwise leave
part of its drift in the scaled times.

It runs as a process of its own that the benchmark starts once per run:
each line read from standard input asks for one calibration, whose seconds
are written back as one line; end of input ends the process. The
benchmark's own process stays small that way, which matters because a
child started from it inherits its peak RSS in ``ru_maxrss``.
"""

from __future__ import annotations

import sys
import time

import numpy as np


def _work(share: float, arrays: bool) -> None:
    """``share`` of the fixed work: small arrays, or N x N ones if ``arrays``."""
    acc = 0.0
    for i in range(int(1_500_000 * share)):
        acc += (i * 0.5) % 7.0
    if arrays:
        y = np.linspace(-3.0, 3.0, 1000)
        for _ in range(int(60 * share)):
            d = y[:, None] - y[None, :]
            np.log(np.exp(-2.0 * d * d).sum(axis=1))
    else:
        x = np.linspace(-1.0, 1.0, 200)[:, None]
        for _ in range(int(30_000 * share)):
            x = x + 0.001 * (x.mean() - x)


def calibrate(threads: int, arrays: bool) -> float:
    """Seconds taken by the fixed work. With ``threads`` > 1 it is split
    over a thread pool of that size, as the CLI splits replicas, so it
    meets the same GIL hand-offs."""
    t0 = time.perf_counter()
    if threads <= 1:
        _work(1.0, arrays)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda share: _work(share, arrays), [1.0 / threads] * threads))
    return time.perf_counter() - t0


def main(argv=None) -> int:
    threads, arrays = (int(a) for a in (argv if argv is not None else sys.argv[1:]))
    for _ in sys.stdin:
        print(repr(calibrate(threads, bool(arrays))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
