"""One sha256 over the bang-bang families of a grid of budgets.

    PYTHONPATH=src python3 tools/family_digest.py

The program is imported from ``PYTHONPATH``, so pointing it at another
checkout's ``src`` digests that checkout's families on the same grid.  The
grid is the ``itertools.product`` of the classes (T, mu), ``time_grid``,
``size``, ``max_switches``, ``n_periods`` and seeds below, in that order:
2520 budgets.  Per family the digest takes its length as 4 little-endian
bytes, then each signal's ``encoding_key()`` and breakpoint bytes.  Two
checkouts that print the same digest build the same families bit for bit.
The whole grid takes about 15 s on a 2-core x86_64 VM.
"""

from __future__ import annotations

import hashlib
import itertools
import struct

from pegrowth.rates import SearchBudget, bang_bang_family
from pegrowth.signals import SignalClass

CLASSES = ((1.0, 0.4), (1.0, 0.95), (1.0, 0.5), (1.0, 1.0), (0.3, 0.12), (2.5, 1.7), (1.0, 0.05))
TIME_GRIDS = (1, 4, 7, 16, 32)
SIZES = (1, 12, 60)
MAX_SWITCHES = (2, 6, 12)
N_PERIODS = (1, 4)
SEEDS = range(4)


def budgets() -> list[tuple[SignalClass, SearchBudget]]:
    """Every (class, budget) pair of the grid, in product order."""
    return [(SignalClass(T, mu), SearchBudget(n_periods=n_periods, max_switches=switches,
                                              time_grid=grid, size=size, seed=seed))
            for (T, mu), grid, size, switches, n_periods, seed in itertools.product(
                CLASSES, TIME_GRIDS, SIZES, MAX_SWITCHES, N_PERIODS, SEEDS)]


def digest(pairs) -> str:
    """The hex sha256 of the families of (class, budget) pairs."""
    h = hashlib.sha256()
    for cls, budget in pairs:
        family = bang_bang_family(cls, budget)
        h.update(struct.pack("<I", len(family)))
        for s in family:
            h.update(s.encoding_key())
            h.update(s.breakpoints.tobytes())
    return h.hexdigest()


if __name__ == "__main__":
    print(digest(budgets()))
