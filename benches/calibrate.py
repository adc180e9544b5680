"""Host speed, measured beside every timed piece of work.

The benchmark runs on shared hosts whose speed swings by 20-100% for
seconds to minutes, longer than one run.  So every query (and every
import probe) is timed between two runs of a fixed piece of pure-Python
work, ``work()``, and its time is scaled by ``REFERENCE_S`` over the mean
of those two calibration times: the time the query would take on a host
that runs ``work()`` in ``REFERENCE_S``.  A change to nestnets moves the
query times but not ``work()``, which uses no nestnets code.

This module imports only ``time``, so the import probe that times
``import nestnets`` loads nothing else first.
"""

import time

# work() time of a quiet 2-core x86-64 host under CPython 3.11; the
# scaled times are about that host's milliseconds.
REFERENCE_S = 1.15e-3
ROUNDS = 3000


def work():
    """Tuples, a dict and sorting, like the multiset code under test."""
    acc = {}
    for i in range(ROUNDS):
        key = (i % 13, (i * 7) % 11, i % 5)
        acc[key] = acc.get(key, 0) + 1
    rows = sorted(acc.items(), key=lambda kv: (kv[1], kv[0]))
    return tuple(sorted({k[:2] for k, _ in rows}))


def timed():
    """Seconds one run of work() takes now."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def scaled(seconds, before, after):
    """seconds, measured between calibrations taking before and after
    seconds, at the reference speed."""
    return seconds * REFERENCE_S * 2.0 / (before + after)
