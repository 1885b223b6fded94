import importlib.util
import itertools
from pathlib import Path

from pegrowth.rates import SearchBudget
from pegrowth.signals import SignalClass

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("family_digest", ROOT / "tools" / "family_digest.py")
family_digest = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(family_digest)


def test_grid_is_the_recorded_product():
    """2520 budgets: classes, then time_grid, size, max_switches, n_periods
    and seed, in ``itertools.product`` order."""
    want = [(SignalClass(T, mu), SearchBudget(n_periods=n_periods, max_switches=switches,
                                               time_grid=grid, size=size, seed=seed))
            for (T, mu), grid, size, switches, n_periods, seed in itertools.product(
                [(1, .4), (1, .95), (1, .5), (1, 1), (.3, .12), (2.5, 1.7), (1, .05)],
                [1, 4, 7, 16, 32], [1, 12, 60], [2, 6, 12], [1, 4], range(4))]
    assert len(want) == 2520
    assert family_digest.budgets() == want
