import hashlib
import itertools
import json
import re
import struct
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from oracles import reference_family
from pegrowth import rates
from pegrowth.matcore import closed_loop, nilpotent_shift, opnorm, parity_matrix, unit_vector
from pegrowth.signals import EP_TOL, PESignal, SignalClass, _trusted, reverse, validate_pe

CLS = SignalClass(1.0, 0.4)
J2 = nilpotent_shift(2)
E2 = unit_vector(2, 1).reshape(2, 1)
BENCH_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "bench" / "configs").glob("*.json"))


def rk4_flow(A, B, K, s, t, n_per_segment=2000):
    """Independent matrix-ODE oracle: classical RK4 inside each segment."""
    d = A.shape[0]
    r = np.eye(d)
    bk = B @ K
    for value, dur in s.segments(0.0, t):
        m = A + value * bk
        dt = dur / n_per_segment
        for _ in range(n_per_segment):
            k1 = m @ r
            k2 = m @ (r + 0.5 * dt * k1)
            k3 = m @ (r + 0.5 * dt * k2)
            k4 = m @ (r + dt * k3)
            r = r + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return r


def random_system(seed, d=2, scale=0.8):
    rng = np.random.default_rng(seed)
    return (scale * rng.standard_normal((d, d)),
            rng.standard_normal((d, 1)),
            rng.standard_normal((1, d)))


class TestFundamentalSolution:
    def test_constant_signal(self):
        a, b, k = random_system(1)
        s = PESignal.constant(0.6, period=1.0)
        r = rates.fundamental_solution(a, b, k, s, 2.5)
        np.testing.assert_allclose(r, scipy.linalg.expm(2.5 * (a + 0.6 * (b @ k))), atol=1e-12)

    def test_time_zero(self):
        a, b, k = random_system(2)
        s = PESignal.constant(1.0, period=1.0)
        np.testing.assert_array_equal(rates.fundamental_solution(a, b, k, s, 0.0),
                                      np.eye(2))

    @pytest.mark.parametrize("t", [-1.0, np.inf, np.nan])
    def test_t_is_finite_and_non_negative(self, t):
        a, b, k = random_system(2)
        s = PESignal.constant(1.0, period=1.0)
        with pytest.raises(ValueError, match=rf"^need a finite t >= 0, got t={t!r}$"):
            rates.fundamental_solution(a, b, k, s, t)

    @pytest.mark.parametrize("t, periods", [(1e300, "1e+300"), (32768.5, "32768.5")])
    def test_a_walk_past_the_ceiling_raises(self, t, periods):
        a, b, k = random_system(2)
        s = PESignal([0.0, 0.5], [1.0, 0.0], period=1.0)
        message = f"t={t!r} spans {periods} periods of 2 segments, more than the 65536 segments"
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            rates.fundamental_solution(a, b, k, s, t)
        assert rates.fundamental_solution(a, b, k, s, 32768.0).shape == (2, 2)
        # an aperiodic signal has no periods to walk
        free = PESignal.from_segments([(1.0, 0.5), (0.0, 0.5)])
        assert rates.fundamental_solution(a, b, k, free, 1e5).shape == (2, 2)

    def test_against_rk4(self):
        a, b, k = random_system(11)
        s = PESignal([0.0, 0.5], [1.0, 0.0], period=1.0)
        r = rates.fundamental_solution(a, b, k, s, 1.0)
        np.testing.assert_allclose(r, rk4_flow(a, b, k, s, 1.0), atol=1e-8)

    def test_at_the_period_is_the_monodromy(self):
        """Over one period the segment list is the stored one, so the
        fundamental solution is the engine's monodromy bit for bit (on cells
        of T/7 the breakpoints are rounded partial sums)."""
        for seed in range(20):
            a, b, k = random_system(seed)
            family = rates.bang_bang_family(SignalClass(1, .4),
                                            rates.SearchBudget(size=32, seed=seed, time_grid=7))
            for s in family:
                assert s.segments(0, s.period) == s.period_segments()
                r = rates.fundamental_solution(a, b, k, s, s.period)
                assert r.tobytes() == rates.monodromy(a, b, k, s).R.tobytes()


class TestMonodromy:
    def test_constant_signal_rates(self):
        a, b, k = random_system(4)
        m = rates.monodromy(a, b, k, PESignal.constant(1.0, period=2.0))
        ev = np.linalg.eigvals(a + b @ k)
        assert m.top_rate == pytest.approx(ev.real.max(), abs=1e-10)
        assert m.bottom_rate == pytest.approx(ev.real.min(), abs=1e-10)

    def test_zero_dynamics(self):
        m = rates.monodromy(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 2)),
                            PESignal.constant(1.0, period=1.0))
        assert m.top_rate == 0.0 and m.bottom_rate == 0.0

    def test_power_iteration_matches_top_rate(self):
        a, b, k = random_system(5, scale=0.7)
        s = PESignal([0.0, 0.3, 0.7, 1.2], [1.0, 0.0, 1.0, 0.0], period=2.0)
        m = rates.monodromy(a, b, k, s)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(2)
        x /= np.linalg.norm(x)
        acc = 0.0
        for _ in range(50):
            x = m.R @ x
            n = np.linalg.norm(x)
            acc += np.log(n)
            x /= n
        assert abs(acc / (50 * s.period) - m.top_rate) <= 1e-3

    def test_needs_period(self):
        a, b, k = random_system(6)
        with pytest.raises(ValueError):
            rates.monodromy(a, b, k, PESignal([0.0], [1.0]))


class TestStiffAndLongPeriod:
    """Rates stay finite and right where the period product leaves the float
    range: scaled copies of a stiff triple and a long constant period."""

    STIFF_A = np.array([[-10.0, 1.0], [0.0, -20.0]])
    STIFF_K = np.array([[-2.0, -3.0]])

    @pytest.mark.parametrize("scale", [1, 10, 100, 1000])
    def test_stiff_triple_finite_and_dual(self, scale):
        a, b, k = scale * self.STIFF_A, scale * E2, self.STIFF_K
        fam = rates.bang_bang_family(CLS, rates.SearchBudget(size=10, seed=0))
        rc = rates.rc_estimate(a, b, k, CLS, fam).value
        rd_mirror = rates.rd_estimate(-a, -b, k, CLS, rates.mirror_family(fam)).value
        rd = rates.rd_estimate(a, b, k, CLS, fam).value
        assert np.isfinite(rc) and np.isfinite(rd)
        assert rc == rd_mirror
        bound = min(-np.linalg.eigvals(a + v * (b @ k)).real.max() for v in (CLS.floor, 1.0))
        assert rc <= bound + 1e-9 * abs(bound)  # both constants are in the family

    @pytest.mark.parametrize("scale", [1, 10, 100, 1000])
    def test_stiff_constant_family_matches_eigenvalues(self, scale):
        a, b, k = scale * self.STIFF_A, scale * E2, self.STIFF_K
        levels = np.linspace(CLS.floor, 1.0, 7)
        fam = rates.constant_family(CLS, 7)
        spectra = [np.linalg.eigvals(a + v * (b @ k)).real for v in levels]
        best_rc = min(-ev.max() for ev in spectra)
        best_rd = min(ev.min() for ev in spectra)
        assert rates.rc_estimate(a, b, k, CLS, fam).value == pytest.approx(best_rc, rel=1e-9)
        assert rates.rd_estimate(a, b, k, CLS, fam).value == pytest.approx(best_rd, rel=1e-9)

    def test_long_period_saddle(self):
        m = rates.monodromy(np.diag([-5.0, 5.0]), np.zeros((2, 1)), np.zeros((1, 2)),
                            PESignal.constant(1.0, period=200.0))
        assert (m.top_rate, m.bottom_rate) == (pytest.approx(5.0, abs=1e-12),
                                               pytest.approx(-5.0, abs=1e-12))

    def test_log_scale_past_int64_saturates(self):
        """A log scale past the int64 range saturates to inf or 0, without
        a warning, where the cast of its power of two used to wrap."""
        s = PESignal.from_segments([(1.0, 0.5), (0.0, 0.5)], period=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e1 = unit_vector(2, 0).reshape(2, 1)
            m = rates.monodromy(np.diag([1e19, -1.0]), e1, e1.T, s)
            assert m.top_rate == 1e19 and m.R[0, 0] == np.inf
            ones = np.ones((1, 2, 2))
            assert (rates._unscaled(ones, np.array([1e300])) == np.inf).all()
            assert (rates._unscaled(ones, np.array([-1e300])) == 0.0).all()

    def test_overflowing_residual_reported_as_inf(self):
        a, b, k = 100 * self.STIFF_A, 100 * E2, self.STIFF_K
        fam = rates.bang_bang_family(CLS, rates.SearchBudget(size=6, seed=0))
        rep = rates.duality_check(a, b, k, CLS, fam)
        assert rep.estimates_equal and np.isfinite(rep.rc.value)
        assert rep.max_residual == np.inf and not rep.ok


def periodic_exponent(x0, A, B, K, s):
    """Exponential growth rate of the solution from x0 under the periodic
    signal s, read off the scaled monodromy as ``shift_law_check`` reads it."""
    _, rn, log_scale = rates._monodromy(*closed_loop(A, B, K), s)
    return rates._per_vector_exponent(rn, log_scale, s.period, x0)


class TestLyapExponents:
    """The per-vector exponent that C7's shift law compares."""

    def test_scalar_embedding(self):
        lam = 0.7
        got = periodic_exponent([1.0, 1.0], lam * np.eye(2), np.zeros((2, 1)),
                                np.zeros((1, 2)), PESignal.constant(1.0, period=1.0))
        assert got == pytest.approx(lam, abs=1e-12)

    def test_matches_monodromy_rates(self):
        a, b, k = random_system(7)
        s = PESignal([0.0, 0.25, 0.75], [1.0, 0.0, 1.0], period=1.0)
        m = rates.monodromy(a, b, k, s)
        rng = np.random.default_rng(7)
        top = max(periodic_exponent(rng.standard_normal(2), a, b, k, s) for _ in range(8))
        assert top == pytest.approx(m.top_rate, abs=1e-6)

    def test_eigenvector_rate(self):
        a = np.diag([0.5, -1.5])
        s = PESignal.constant(1.0, period=1.0)
        got = periodic_exponent([0.0, 1.0], a, np.zeros((2, 1)), np.zeros((1, 2)), s)
        assert got == pytest.approx(-1.5, abs=1e-10)
        got2 = periodic_exponent([1.0, 0.0], a, np.zeros((2, 1)), np.zeros((1, 2)), s)
        assert got2 == pytest.approx(0.5, abs=1e-10)


class TestFamilies:
    def test_budget_family_valid_and_sized(self):
        fam = rates.bang_bang_family(CLS, rates.SearchBudget(size=30, seed=3))
        assert len(fam) == 30
        from pegrowth.signals import validate_pe
        assert all(validate_pe(s, CLS).valid for s in fam)
        assert all(s.period is not None for s in fam)

    def test_deterministic(self):
        f1 = rates.bang_bang_family(CLS, rates.SearchBudget(size=12, seed=9))
        f2 = rates.bang_bang_family(CLS, rates.SearchBudget(size=12, seed=9))
        assert [s.encoding_key() for s in f1] == [s.encoding_key() for s in f2]

    @pytest.mark.parametrize("max_switches", [-1, 0, 1])
    def test_budget_needs_two_switches(self, max_switches):
        # candidates switch an even number of times, at least twice
        with pytest.raises(ValueError, match="^max_switches must be at least 2$"):
            rates.SearchBudget(max_switches=max_switches)

    @pytest.mark.parametrize("time_grid, n_periods", [(2**63, 1), (2**61, 4)])
    def test_budget_cells_fit_int64(self, time_grid, n_periods):
        with pytest.raises(ValueError, match=r"^time_grid \* n_periods must be below 2\*\*63$"):
            rates.SearchBudget(time_grid=time_grid, n_periods=n_periods)

    @pytest.mark.parametrize("field", ["n_periods", "max_switches", "time_grid", "size", "seed"])
    def test_budget_fields_are_integers(self, field):
        for value in (4.0, True, 2.5):
            with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
                rates.SearchBudget(**{field: value})

    def test_budget_keeps_numpy_integers_as_ints(self):
        budget = rates.SearchBudget(n_periods=np.int64(2), size=np.uint8(3), seed=np.int64(5))
        assert [type(v) for v in (budget.n_periods, budget.size, budget.seed)] == [int] * 3
        assert budget == rates.SearchBudget(n_periods=2, size=3, seed=5)
        # int64 arithmetic would wrap this product to -2**63
        with pytest.raises(ValueError, match=r"^time_grid \* n_periods must be below 2\*\*63$"):
            rates.SearchBudget(time_grid=np.int64(2**61), n_periods=np.int64(4))

    @pytest.mark.parametrize("value", ["no", None, 1, np.True_])
    def test_include_constants_is_a_bool(self, value):
        with pytest.raises(ValueError, match=f"^include_constants must be a bool, got {value!r}$"):
            rates.SearchBudget(include_constants=value)

    @pytest.mark.parametrize("seed", [-1, np.int64(-7)])
    def test_seed_is_non_negative(self, seed):
        # numpy's own error for a negative seed does not name the field
        with pytest.raises(ValueError, match=f"^need seed >= 0, got seed={int(seed)}$"):
            rates.SearchBudget(seed=seed)

    @pytest.mark.parametrize("n, message", [(2.5, r"^n must be an integer, got 2\.5$"),
                                            (3.0, r"^n must be an integer, got 3\.0$"),
                                            (0, r"^need n >= 1, got n=0$")])
    def test_constant_family_counts(self, n, message):
        with pytest.raises(ValueError, match=message):
            rates.constant_family(CLS, n)

    def test_constant_family_grid(self):
        fam = rates.constant_family(CLS, 5)
        assert [s.values[0] for s in fam] == pytest.approx(
            list(np.linspace(0.4, 1.0, 5)))

    def test_encoding_keys_pinned(self):
        """The families of a small budget grid, pinned by a digest of their
        encoding keys that was recorded from the one-candidate-at-a-time
        search.  The grid covers mu = T (only the constant 1 is valid, and
        the attempt cap ends the search), size 1, switch counts that do not
        fit the cells, and single-period candidates."""
        digest = hashlib.sha256()
        for mu, size, max_switches, n_periods, time_grid, seed in itertools.product(
                (0.4, 0.95, 1.0), (1, 6), (2, 8), (1, 3), (4, 16), (0, 1)):
            fam = rates.bang_bang_family(SignalClass(1.0, mu), rates.SearchBudget(
                n_periods=n_periods, max_switches=max_switches, time_grid=time_grid,
                size=size, seed=seed))
            digest.update(len(fam).to_bytes(4, "little"))
            for s in fam:
                digest.update(s.encoding_key())
        assert digest.hexdigest() == \
            "25975b378968434b818c183b44d1292107df32455a3816c4e6001d41dd1849ca"


def assert_same_families(cls, time_grid, seeds):
    # Three candidates and no constants per family keep the reference
    # cheap; the 200 seeds give each (class, grid) a few hundred candidates.
    for seed in seeds:
        budget = rates.SearchBudget(time_grid=time_grid, size=3,
                                    include_constants=False, seed=seed)
        expected = [s.encoding_key() + s.breakpoints.tobytes()
                    for s in reference_family(cls, budget)]
        assert [s.encoding_key() + s.breakpoints.tobytes()
                for s in rates.bang_bang_family(cls, budget)] == expected, seed


class TestCellGridFamily:
    """The family accepts exactly the candidates that validate_pe accepts,
    so it is the reference family byte for byte, on grids with windows
    that sit exactly on the threshold."""

    # (1, 0.5) at 16 cells has windows of exactly mu; (1, 1.0) collapses
    # every candidate to the constant 1.
    @pytest.mark.parametrize("time_grid", [16, 10, 7])
    @pytest.mark.parametrize("T, mu", [(1.0, 0.4), (1.0, 0.95), (1.0, 0.5), (1.0, 1.0),
                                       (0.3, 0.12), (2.5, 1.7)])
    def test_equals_validate_pe_family(self, T, mu, time_grid):
        assert_same_families(SignalClass(T, mu), time_grid, range(200))

    # mu - EP_TOL is a whole number of cells: rounding in validate_pe
    # decides windows that sit exactly on the threshold.
    @pytest.mark.parametrize("T, time_grid, cells", [(0.3, 10, 4), (1e5 / 3, 7, 3)])
    def test_threshold_on_a_cell_boundary(self, T, time_grid, cells):
        cls = SignalClass(T, cells * (T / time_grid) + EP_TOL)
        assert_same_families(cls, time_grid, range(200))

    def test_mu_equal_to_T_terminates(self):
        cls = SignalClass(1.0, 1.0)
        fam = rates.bang_bang_family(cls, rates.SearchBudget(size=32, seed=0))
        assert 0 < len(fam) < 32
        assert all(validate_pe(s, cls).valid and s.values.tolist() == [1.0] for s in fam)

    @pytest.mark.parametrize("time_grid", [10**15, 10**18])
    def test_time_grid_does_not_size_memory(self, time_grid):
        """The cost of a candidate follows its switches, not its cells."""
        fam = rates.bang_bang_family(CLS, rates.SearchBudget(time_grid=time_grid, seed=0))
        assert len(fam) == 32
        assert all(validate_pe(s, CLS).valid for s in fam)


def family_fields(fam):
    """Every byte a family signal holds, with the kind of its arrays."""
    return [(s.encoding_key(), s.breakpoints.tobytes(), type(s.period))
            + tuple((a.dtype, a.flags.c_contiguous, a.flags.writeable)
                    for a in (s.breakpoints, s.values, s.durations))
            for s in fam]


class TestFamilyRows:
    """The family built and judged as the rows of one array is the family
    of the one-candidate-at-a-time build, byte for byte.  The grid holds
    mu = T, where every candidate merges into the constant 1; a single cell
    per window, where with one period per candidate no switch fits and the
    attempt cap ends the search, which the fill constants complete; two
    switches, and budgets without the constants."""

    @pytest.mark.parametrize("T, mu", [(1.0, 0.4), (1.0, 0.95), (1.0, 1.0), (2.5, 1.7)])
    @pytest.mark.parametrize("time_grid", [1, 4, 16])
    def test_equals_per_candidate_build(self, T, mu, time_grid):
        cls = SignalClass(T, mu)
        for max_switches, n_periods, include_constants, seed in itertools.product(
                (2, 6), (1, 4), (True, False), (0, 1)):
            budget = rates.SearchBudget(n_periods=n_periods, max_switches=max_switches,
                                        time_grid=time_grid, size=12,
                                        include_constants=include_constants, seed=seed)
            assert family_fields(rates.bang_bang_family(cls, budget)) == \
                family_fields(reference_family(cls, budget)), budget

    def test_constant_one_off_the_period(self):
        """At mu = T with many switches, the merged length of some
        candidates misses the period by more than the constructor's
        rounding slack; those candidates are dropped."""
        cls = SignalClass(0.1, 0.1)
        for seed in (3, 4, 5):
            budget = rates.SearchBudget(max_switches=60, time_grid=64, size=12, seed=seed)
            assert family_fields(rates.bang_bang_family(cls, budget)) == \
                family_fields(reference_family(cls, budget))

    def test_mu_equal_to_T_on_one_cell(self):
        """One cell per window and one period: no switch fits, the attempt
        cap ends the search and the fill constants are all the constant 1."""
        cls = SignalClass(1.0, 1.0)
        budget = rates.SearchBudget(n_periods=1, time_grid=1, size=3, include_constants=False)
        fam = rates.bang_bang_family(cls, budget)
        assert len(fam) == 1
        assert family_fields(fam) == family_fields(reference_family(cls, budget))

    def test_integer_class_gives_float_periods(self):
        budget = rates.SearchBudget(size=12, seed=2)
        fam = rates.bang_bang_family(SignalClass(1, 0.4), budget)
        assert all(type(s.period) is float for s in fam)
        assert family_fields(fam) == family_fields(rates.bang_bang_family(CLS, budget))

    @pytest.mark.parametrize("seed", range(4))
    def test_tail_shuffle_draws(self, seed):
        """With 20000 cells and up to 1000 switches, most draws take more
        than a fiftieth of the cells, where numpy shuffles the tail of the
        whole range."""
        budget = rates.SearchBudget(n_periods=1, max_switches=1000, time_grid=20000, size=3,
                                    include_constants=False, seed=seed)
        fam = rates.bang_bang_family(CLS, budget)
        assert len(fam) == 3 and max(s.n_segments for s in fam) > 402
        assert family_fields(fam) == family_fields(reference_family(CLS, budget))

    @pytest.mark.parametrize("path", BENCH_CONFIGS, ids=lambda p: p.stem)
    def test_bench_config_families(self, path):
        cfg = json.loads(path.read_text())
        cls = SignalClass(cfg["T"], cfg["mu"])
        for seed in range(1, 6):
            budget = rates.SearchBudget(**cfg["family"], seed=seed)
            assert family_fields(rates.bang_bang_family(cls, budget)) == \
                family_fields(reference_family(cls, budget))


# Ranges of the reader's bounded draw: 32-bit, with rejection for 2**31 + 3,
# a bare 32-bit draw at 2**32 - 1, 64-bit words above (with rejection for
# 3 * 2**62 + 1 and 2**63 + 3), a bare word at 2**64 - 1.
BOUNDED_RANGES = [1, 2, 3, 7, 1000, 2**31 + 3, 2**32 - 3, 2**32 - 2, 2**32 - 1, 2**32, 2**32 + 1,
                  2**32 + 5, 10**15, 10**18, 2**63 - 1, 2**63 + 3, 3 * 2**62 + 1, 2**64 - 1]


class TestDraws:
    """``rates._Draws`` makes the draws of ``np.random.default_rng(seed)``,
    draw for draw, each draw between draws of a 32-bit range and ``random``
    calls, which share a word's halves with it or take whole words."""

    @pytest.mark.parametrize("rng", [0] + BOUNDED_RANGES)
    def test_bounded_is_uint64_integers(self, rng):
        for seed in range(4):
            gen, draws = np.random.default_rng(seed), rates._Draws(seed)
            for _ in range(60):
                assert draws.bounded(rng) == int(gen.integers(0, rng, dtype=np.uint64, endpoint=True))
                assert draws.bounded(4) == int(gen.integers(0, 5, dtype=np.uint64))
                assert draws.random() == gen.random()

    @pytest.mark.parametrize("low, high", [(1, 2), (1, 5), (0, 2**31 + 4), (1, 2**32), (0, 2**32),
                                           (1, 10**15 + 1), (3, 2**63)])
    def test_integers(self, low, high):
        for seed in range(4):
            gen, draws = np.random.default_rng(seed), rates._Draws(seed)
            for _ in range(60):
                assert draws.integers(low, high) == int(gen.integers(low, high))
                assert draws.integers(1, 7) == int(gen.integers(1, 7))

    def test_integers_out_of_int64(self):
        with pytest.raises(ValueError, match="^high is out of bounds for int64$"):
            np.random.default_rng(0).integers(1, 2**63 + 1)
        with pytest.raises(ValueError, match="^high is out of bounds for int64$"):
            rates._Draws(0).integers(1, 2**63 + 1)

    # Floyd's algorithm below 10001 and for at most a fiftieth of a larger
    # range, numpy's tail shuffle of the whole range above that.
    @pytest.mark.parametrize("pop, size", [
        (1, 1), (2, 1), (2, 2), (63, 5), (1000, 999), (10000, 10000), (10001, 200), (10001, 201),
        (10001, 10001), (20000, 401), (12345, 12000), (2**31 + 3, 7), (2**32 - 1, 5), (2**32, 5),
        (2**32 + 3, 5), (10**15, 9), (10**18, 9), (2**63 - 1, 9)])
    def test_sample_is_choice(self, pop, size):
        for seed in range(4):
            gen, draws = np.random.default_rng(seed), rates._Draws(seed)
            for _ in range(3):
                assert draws.sample(pop, size) == gen.choice(pop, size=size, replace=False).tolist()
                assert draws.integers(1, 7) == int(gen.integers(1, 7))
                assert draws.random() == gen.random()

    def test_family_streams(self):
        """The draws of 200 attempts of ``bang_bang_family``, in its order,
        over seeds and budget shapes; on 12000 cells, a fifth of the draws
        shuffle the tail of the range."""
        shapes = [(4, 6, 16), (1, 2, 4), (3, 12, 7), (2, 60, 64), (1, 300, 12000), (4, 6, 10**15)]
        for seed, (n_periods, max_switches, grid) in itertools.product(range(12), shapes):
            gen, draws = np.random.default_rng(seed), rates._Draws(seed)
            for _ in range(200):
                mult = draws.integers(1, n_periods + 1)
                k = 2 * draws.integers(1, max_switches // 2 + 1)
                assert (mult, k) == (int(gen.integers(1, n_periods + 1)),
                                     2 * int(gen.integers(1, max_switches // 2 + 1)))
                if k >= grid * mult:
                    continue
                assert draws.sample(grid * mult - 1, k - 1) == \
                    gen.choice(grid * mult - 1, size=k - 1, replace=False).tolist()
                assert (draws.random(), draws.random()) == (gen.random(), gen.random())


def huge_layout(monkeypatch):
    """Patch ``np.arange`` and ``np.empty`` to raise numpy's ``MemoryError``
    for a length of more than 2**40, allocating nothing, and record those
    requests; other calls go to numpy."""
    asked = []

    def patched(real):
        def layout(n, *args, **kwargs):
            if isinstance(n, int) and n > 2**40:
                asked.append((real.__name__, n))
                raise MemoryError(f"Unable to allocate {8 * n / 2**50:.3g} PiB for an array with "
                                  f"shape ({n},) and data type int64")
            return real(n, *args, **kwargs)
        return layout

    monkeypatch.setattr(np, "arange", patched(np.arange))
    monkeypatch.setattr(np, "empty", patched(np.empty))
    return asked


class TestDrawLayout:
    """A draw lays out what numpy's draw lays out before any Python step, so
    a draw that no host can hold raises numpy's ``MemoryError`` at once."""

    def test_tail_shuffle_lays_out_the_range(self, monkeypatch):
        asked = huge_layout(monkeypatch)
        with pytest.raises(MemoryError, match="^Unable to allocate 71.1 PiB"):
            rates._Draws(0).sample(10**16 - 1, 10**15)
        assert asked == [("arange", 10**16 - 1)]

    def test_large_floyd_draw_lays_out_its_output(self, monkeypatch):
        asked = huge_layout(monkeypatch)
        with pytest.raises(MemoryError):
            rates._Draws(0).sample(10**16 - 1, 10**13)
        assert asked == [("empty", 10**13)]

    @pytest.mark.parametrize("seed, asked", [(1, ("arange", 2 * 10**16 - 1)),
                                             (0, ("empty", 269786713763871))])
    def test_budget_no_host_can_hold(self, monkeypatch, seed, asked):
        """The budget of 10^15 switches on 10^16 cells per window: the first
        draw takes more than a fiftieth of two windows' cells at seed 1, and
        2.7e14 cuts of four windows' cells at seed 0."""
        got = huge_layout(monkeypatch)
        budget = rates.SearchBudget(max_switches=10**15, time_grid=10**16, seed=seed)
        with pytest.raises(MemoryError):
            rates.bang_bang_family(CLS, budget)
        assert got == [asked]


class TestRcRdEstimates:
    def test_zero_gain_exact(self):
        a, _, _ = random_system(8)
        b0, k0 = np.zeros((2, 1)), np.zeros((1, 2))
        fam = rates.constant_family(CLS, 3)
        rc = rates.rc_estimate(a, b0, k0, CLS, fam)
        rd = rates.rd_estimate(a, b0, k0, CLS, fam)
        ev = np.linalg.eigvals(a)
        assert rc.value == pytest.approx(-ev.real.max(), abs=1e-10)
        assert rd.value == pytest.approx(ev.real.min(), abs=1e-10)

    def test_constant_family_reproduces_eigenvalue_formulas(self):
        a, b, k = random_system(9)
        grid = np.linspace(CLS.floor, 1.0, 50)
        fam = rates.constant_family(CLS, 50)
        rc = rates.rc_estimate(a, b, k, CLS, fam)
        rd = rates.rd_estimate(a, b, k, CLS, fam)
        best_rc = min(-np.linalg.eigvals(a + v * (b @ k)).real.max() for v in grid)
        best_rd = min(np.linalg.eigvals(a + v * (b @ k)).real.min() for v in grid)
        assert rc.value == pytest.approx(best_rc, abs=1e-9)
        assert rd.value == pytest.approx(best_rd, abs=1e-9)

    def test_nested_family_monotone(self):
        k = np.array([[-2.0, -3.0]])
        small = rates.bang_bang_family(CLS, rates.SearchBudget(size=8, seed=5))
        big = small + rates.bang_bang_family(CLS, rates.SearchBudget(size=16, seed=6))
        v_small = rates.rc_estimate(J2, E2, k, CLS, small).value
        v_big = rates.rc_estimate(J2, E2, k, CLS, big).value
        assert v_big <= v_small
        ev = np.linalg.eigvals(J2 + E2 @ k)
        assert v_small <= -ev.real.max() + 1e-9  # constant-1 signal is in the family

    def test_witness_is_valid_and_attains(self):
        a, b, k = random_system(10)
        fam = rates.bang_bang_family(CLS, rates.SearchBudget(size=10, seed=2))
        rc = rates.rc_estimate(a, b, k, CLS, fam)
        from pegrowth.signals import validate_pe
        assert validate_pe(rc.witness, CLS).valid
        m = rates.monodromy(a, b, k, rc.witness)
        assert -m.top_rate == pytest.approx(rc.value, abs=1e-12)

    def test_empty_family_errors(self):
        a, b, k = random_system(12)
        bad = PESignal([0.0, 0.2], [1.0, 0.0], period=1.0)  # fails excitation
        with pytest.raises(ValueError):
            rates.rc_estimate(a, b, k, CLS, [bad])


class TestDuality:
    def test_constant_signal_inverse(self):
        a, b, k = random_system(13)
        s = PESignal.constant(0.7, period=1.0)
        r = rates.fundamental_solution(a, b, k, s, 1.0)
        r_rev = rates.fundamental_solution(-a, -b, k, reverse(s), 1.0)
        assert opnorm(r_rev @ r - np.eye(2)) <= 1e-10

    @pytest.mark.parametrize("d", [2, 3])
    def test_random_bang_bang_residual(self, d):
        rng = np.random.default_rng(d)
        a = rng.standard_normal((d, d)) / np.sqrt(d)
        b = rng.standard_normal((d, 1))
        k = rng.standard_normal((1, d)) / np.sqrt(d)
        s = PESignal([0.0, 0.5, 1.25], [1.0, 0.0, 1.0], period=2.0)
        r = rates.fundamental_solution(a, b, k, s, 2.0)
        r_rev = rates.fundamental_solution(-a, -b, k, reverse(s), 2.0)
        assert opnorm(r_rev @ r - np.eye(d)) <= 1e-8

    def test_aggregate_bitwise_equality(self):
        a, b, k = random_system(14)
        fam = rates.bang_bang_family(CLS, rates.SearchBudget(size=20, seed=1))
        rep = rates.duality_check(a, b, k, CLS, fam)
        assert rep.estimates_equal
        assert rep.rc.value == rep.rd_mirror.value
        assert rep.max_residual <= 1e-8
        assert rep.ok

    def test_negative_tolerance_rejected(self):
        a, b, k = random_system(14)
        with pytest.raises(ValueError, match=r"^tol must be non-negative, got -1\.0$"):
            rates.duality_check(a, b, k, CLS, [PESignal.constant(1.0, period=1.0)], tol=-1.0)


def same_estimate(x, y):
    """Equal value (bit for bit), bound, method and witness."""
    return x.to_json() == y.to_json()


class TestWitnessTies:
    """At d = 1 two cyclic shifts of one two-segment signal have the same
    rates bit for bit: each factor is a scalar, and the shifts add the same
    two numbers.  The witness is the one with the smaller encoding key,
    whatever the family order, as the ``min`` rule over ``(value, key)``
    picks it, also where the rates are infinite."""

    CLS = SignalClass(1.0, 0.1)
    PAIR = (_trusted([1.0, 0.0], [1.2, 0.8], 2.0), _trusted([0.0, 1.0], [0.8, 1.2], 2.0))

    # a finite rate, and a shift past the float range either way
    @pytest.mark.parametrize("a", [-0.5, 1.7e308, -1.7e308])
    @pytest.mark.parametrize("flip", [False, True])
    def test_smaller_key_is_the_witness(self, a, flip):
        fam = list(self.PAIR[::-1] if flip else self.PAIR)
        least = min(s.encoding_key() for s in fam)
        A, B, K = np.array([[a]]), np.array([[1.0]]), np.array([[-2.0]])
        with np.errstate(over="ignore"):  # the segment shifts overflow
            got = rates.family_rates(A, B, K, self.CLS, fam)
            estimates = [rates.rc_estimate(A, B, K, self.CLS, fam),
                         rates.rd_estimate(A, B, K, self.CLS, fam)]
            grid = rates.duality_grid(A, B, [K, 2.0 * K], self.CLS, fam)
        assert got.top_rates[0] == got.top_rates[1] and got.bottom_rates[0] == got.bottom_rates[1]
        assert np.isfinite(got.top_rates[0]) == (a == -0.5)
        method = "/periodic-monodromy-min/2"
        rc, rd_mirror = (reference_minimum([-t for t in got.top_rates], fam, kind + method)
                         for kind in ("rc", "rd"))
        rd = reference_minimum(list(got.bottom_rates), fam, "rd" + method)
        for est, want in [(got.rc, rc), (got.rd, rd), (estimates[0], rc), (estimates[1], rd),
                          (grid.rc[0], rc), (grid.rd_mirror[0], rd_mirror)]:
            assert same_estimate(est, want)
            assert est.witness.encoding_key() == least
        assert grid.rc[1].witness.encoding_key() == grid.rd_mirror[1].witness.encoding_key() == least

    def test_minima_follow_the_min_rule(self):
        """Seeded value tables with ties, signed zeros, infinities and nans:
        one lexsort picks what ``min`` over ``(value, key)`` picks."""
        rng = np.random.default_rng(23)
        pool = np.array([np.nan, -np.inf, np.inf, 0.0, -0.0, 1.0, -1.0])
        for size in (1, 2, 5, 9):
            sigs = [PESignal.constant(v, period=1.0) for v in rng.permutation(np.linspace(0.4, 1.0, size))]
            values = rng.choice(pool, size=(40, size))
            for est, row in zip(rates._minima(values, sigs, "rc"), values.tolist()):
                want = reference_minimum(row, sigs, f"rc/periodic-monodromy-min/{size}")
                assert est.witness is want.witness
                assert np.array(est.value).tobytes() == np.array(want.value).tobytes()


class TestGainStack:
    """The stacked engine reproduces the one-gain engine slice by slice."""

    @pytest.mark.parametrize("d", range(2, 11))
    def test_stack_equals_single_gains(self, d):
        rng = np.random.default_rng(300 + d)
        a = rng.standard_normal((d, d))
        bks = np.stack([rng.standard_normal((d, 1)) @ rng.standard_normal((1, d))
                        for _ in range(5)])
        fam = rates.bang_bang_family(CLS, rates.SearchBudget(size=8, seed=d))
        for s in fam:
            rn, log_scale = rates._family_product(a, bks, [s.period_segments()])
            for g, bk in enumerate(bks):
                rn_g, log_scale_g = rates._family_product(a, bk[None], [s.period_segments()])
                np.testing.assert_array_equal(rn[0, g], rn_g[0, 0])
                assert log_scale[0, g] == log_scale_g[0, 0]
                assert (rates._top(rn, log_scale, s.period)[0, g]
                        == rates._top(rn_g, log_scale_g, s.period)[0, 0])


class TestSingleGainBranch:
    """The one-gain engine step picks the exponents of the stacked step, so
    it reproduces every slice of a stack bit for bit."""

    @staticmethod
    def assert_slices(a, bks, segments):
        rn, log_scale = rates._family_product(a, bks, [segments])
        for g, bk in enumerate(bks):
            rn_g, log_scale_g = rates._family_product(a, bk[None], [segments])
            assert rn_g.shape == (1, 1) + bk.shape
            np.testing.assert_array_equal(rn_g[0, 0], rn[0, g])
            assert log_scale_g.tolist() == [[log_scale[0, g]]]

    @pytest.mark.parametrize("scale", [1, 10])
    def test_stiff_triple(self, scale):
        a = scale * TestStiffAndLongPeriod.STIFF_A
        bk = (scale * E2) @ TestStiffAndLongPeriod.STIFF_K
        bks = np.stack([bk, 0.5 * bk, -bk])
        for s in rates.bang_bang_family(CLS, rates.SearchBudget(size=10, seed=0)):
            self.assert_slices(a, bks, s.period_segments())
            self.assert_slices(-a, -bks, reverse(s).period_segments())

    def test_long_period_saddle(self):
        a = np.diag([-5.0, 5.0])
        bks = np.stack([np.zeros((2, 2)), np.eye(2)])
        self.assert_slices(a, bks, PESignal.constant(1.0, period=200.0).period_segments())


class TestDualityGrid:
    @pytest.mark.parametrize("count", [1, 8])
    @pytest.mark.parametrize("d", [2, 3, 4, 7])
    def test_equals_per_gain_estimates(self, d, count):
        rng = np.random.default_rng(40 + d)
        a = rng.standard_normal((d, d)) / np.sqrt(d)
        b = rng.standard_normal((d, 1))
        gains = [rng.standard_normal((1, d)) for _ in range(count)]
        fam = rates.bang_bang_family(CLS, rates.SearchBudget(size=12, seed=d))
        mirrored = rates.mirror_family(fam)
        rep = rates.duality_grid(a, b, gains, CLS, fam)
        assert len(rep.rc) == len(rep.rd_mirror) == count
        for k, rc, rd in zip(gains, rep.rc, rep.rd_mirror):
            assert same_estimate(rc, rates.rc_estimate(a, b, k, CLS, fam))
            assert same_estimate(rd, rates.rd_estimate(-a, -b, k, CLS, mirrored))
            assert rc.value == rd.value

    def test_stiff_triple_with_scaled_gain(self):
        a, b = TestStiffAndLongPeriod.STIFF_A, E2
        k = TestStiffAndLongPeriod.STIFF_K
        gains = [k, 100.0 * k]
        fam = rates.bang_bang_family(CLS, rates.SearchBudget(size=10, seed=0))
        rep = rates.duality_grid(a, b, gains, CLS, fam)
        for kk, rc, rd in zip(gains, rep.rc, rep.rd_mirror):
            assert np.isfinite(rc.value)
            assert same_estimate(rc, rates.rc_estimate(a, b, kk, CLS, fam))
            assert same_estimate(rd, rates.rd_estimate(-a, -b, kk, CLS,
                                                        rates.mirror_family(fam)))
            assert rc.value == rd.value

    def test_needs_a_gain(self):
        a, b, _ = random_system(15)
        with pytest.raises(ValueError):
            rates.duality_grid(a, b, [], CLS, rates.constant_family(CLS, 2))

    def test_mirror_is_not_checked_one_signal_at_a_time(self, monkeypatch):
        """The mirrored family is checked in one pass over the list, not by
        a ``validate_pe`` call per mirrored signal."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return validate_pe(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "pegrowth" and getattr(mod, "validate_pe", None) is validate_pe:
                monkeypatch.setattr(mod, "validate_pe", counted)
        a, b, k = random_system(16)
        budget = rates.SearchBudget(size=20, seed=4)
        rep = rates.duality_grid(a, b, [k], CLS, budget)
        assert len(rep.rd_mirror) == 1 and len(calls) < budget.size


class TestFamilyRates:
    @pytest.mark.parametrize("d", [2, 5])
    def test_equals_separate_calls(self, d):
        rng = np.random.default_rng(60 + d)
        a = rng.standard_normal((d, d)) / np.sqrt(d)
        b = rng.standard_normal((d, 1))
        k = rng.standard_normal((1, d))
        fam = rates.bang_bang_family(CLS, rates.SearchBudget(size=12, seed=d))
        rep = rates.family_rates(a, b, k, CLS, fam)
        assert len(rep.signals) == len(fam)
        for s, top, bottom in zip(rep.signals, rep.top_rates, rep.bottom_rates):
            m = rates.monodromy(a, b, k, s)
            assert (top, bottom) == (m.top_rate, m.bottom_rate)
        assert same_estimate(rep.rc, rates.rc_estimate(a, b, k, CLS, fam))
        assert same_estimate(rep.rd, rates.rd_estimate(a, b, k, CLS, fam))
        # the envelopes against the singular values of each monodromy
        sv = [(np.linalg.svd(rates.monodromy(a, b, k, s).R, compute_uv=False), s.period)
              for s in rep.signals]
        assert rep.delta.delta_hat.value == pytest.approx(
            max(np.log(v[0]) / tau for v, tau in sv), abs=1e-9)
        assert rep.delta.delta_star_hat.value == pytest.approx(
            min(np.log(v[-1]) / tau for v, tau in sv), abs=1e-9)
        assert rep.delta.mirror_identity_exact
        assert rep.delta.delta_star_hat.value <= rep.delta.delta_hat.value


class TestDelta:
    def test_scalar_block(self):
        lam = 0.3
        fam = rates.constant_family(CLS, 4)
        rep = rates.family_rates(lam * np.eye(2), np.zeros((2, 1)),
                                 np.zeros((1, 2)), CLS, fam).delta
        assert rep.delta_hat.value == pytest.approx(lam, abs=1e-10)
        assert rep.delta_star_hat.value == pytest.approx(lam, abs=1e-10)

    def test_mirror_identity_and_order(self):
        a, b, k = random_system(15)
        fam = rates.bang_bang_family(CLS, rates.SearchBudget(size=12, seed=4))
        rep = rates.family_rates(a, b, k, CLS, fam).delta
        assert rep.mirror_identity_exact
        assert rep.delta_star_hat.value <= rep.delta_hat.value


class TestShiftLaw:
    def test_zero_shift(self):
        a, b, k = random_system(16)
        s = PESignal([0.0, 0.5], [1.0, 0.0], period=1.0)
        rep = rates.shift_law_check(a, b, k, 0.0, s, [1.0, 0.5])
        assert rep.top_rate_residual == 0.0
        assert rep.exponent_residual == 0.0

    def test_constant_signal_spectral_shift(self):
        a, b, k = random_system(17)
        s = PESignal.constant(1.0, period=1.0)
        rep = rates.shift_law_check(a, b, k, 1.0, s, [0.3, 1.0])
        assert rep.top_rate_residual <= 1e-10

    def test_random_periodic_d3(self):
        rng = np.random.default_rng(18)
        a = rng.standard_normal((3, 3)) * 0.6
        b = rng.standard_normal((3, 1))
        k = rng.standard_normal((1, 3)) * 0.5
        s = PESignal([0.0, 0.5, 1.25], [1.0, 0.0, 1.0], period=2.0)
        fam = rates.bang_bang_family(CLS, rates.SearchBudget(size=8, seed=8))
        rep = rates.shift_law_check(a, b, k, -2.5, s, rng.standard_normal(3),
                                    cls=CLS, family=fam)
        assert rep.top_rate_residual <= 1e-10
        assert rep.bottom_rate_residual <= 1e-10
        assert rep.exponent_residual <= 1e-10
        assert rep.rc_shift_residual <= 1e-10

    def test_forms_each_forward_product_once(self, monkeypatch):
        # the per-vector exponents read the forward products of the two
        # monodromies; with the two reversed ones, four products in all
        calls = []
        product = rates._family_product

        def counted(*args):
            calls.append(args)
            return product(*args)

        monkeypatch.setattr(rates, "_family_product", counted)
        a, b, k = random_system(16)
        rates.shift_law_check(a, b, k, 1.0, PESignal([0.0, 0.5], [1.0, 0.0], period=1.0),
                              [1.0, 0.5])
        assert len(calls) == 4

    @pytest.mark.parametrize("x0", [[0.0, 0.0], [1.0, 0.5, 0.2]], ids=["zero", "wrong-length"])
    def test_x0_is_checked(self, x0):
        a, b, k = random_system(16)
        s = PESignal([0.0, 0.5], [1.0, 0.0], period=1.0)
        with pytest.raises(ValueError) as err:
            rates.shift_law_check(a, b, k, 1.0, s, x0)
        assert str(err.value) == "x0 must be a nonzero vector of matching dimension"


def scaled_keys(sigs, c=1.0):
    """Each signal's values, durations and period, with the times times c."""
    return sorted((s.values.tobytes(), (c * s.durations).tobytes(), c * s.period) for s in sigs)


class TestTimeScaling:
    """Time scaling: (cA, cB, K) on the class (T/c, mu/c) is (A, B, K) on
    (T, mu) run c times as fast, so every rate is c times the original.  For
    c a power of two the budget's family is the original one with its times
    divided by c, and every segment exponent ``(c M)(dt / c)`` is
    ``M dt`` exactly.  Only the spectral abscissa moves: the eigenvalues of
    cM are not c times those of M bit for bit, so a rate moves by an ulp or
    two (42 of 1200 seeded cases were not bitwise equal, none by more than
    3 ulps).  A rate that read the segment durations themselves, such as an
    engine that skipped segments shorter than 1e-2 rather than empty ones,
    breaks the law at c = 8."""

    @staticmethod
    def assert_scaled(x, y, c):
        assert abs(x - c * y) <= 4 * np.spacing(c * (abs(y) + 1.0)), (x, c * y)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_rates_scale_with_time(self, d):
        for seed in range(2):
            rng = np.random.default_rng(100 * d + seed)
            a, b = rng.standard_normal((d, d)), rng.standard_normal((d, 1))
            gains = [rng.standard_normal((1, d)) for _ in range(4)]
            budget = rates.SearchBudget(size=12, seed=seed)
            base = rates.family_rates(a, b, gains[0], CLS, budget)
            grid = rates.duality_grid(a, b, gains, CLS, budget)
            for c in (2.0, 0.5, 8.0):
                cls = SignalClass(CLS.T / c, CLS.mu / c)
                got = rates.family_rates(c * a, c * b, gains[0], cls, budget)
                assert scaled_keys(got.signals, c) == scaled_keys(base.signals)
                self.assert_scaled(got.rc.value, base.rc.value, c)
                self.assert_scaled(got.rd.value, base.rd.value, c)
                scaled = rates.duality_grid(c * a, c * b, gains, cls, budget)
                for x, y in zip(scaled.rc + scaled.rd_mirror, grid.rc + grid.rd_mirror):
                    self.assert_scaled(x.value, y.value, c)


class TestCoordinateInvariance:
    def test_identity_change(self):
        a, b, k = random_system(19)
        s = PESignal([0.0, 0.5], [1.0, 0.0], period=1.0)
        rep = rates.coordinate_invariance_check(a, b, k, np.eye(2), np.eye(1), s)
        assert rep.spectral_residual == 0.0
        assert rep.conjugacy_residual == 0.0

    def test_random_similarity(self):
        rng = np.random.default_rng(20)
        a, b, k = random_system(20)
        s = PESignal([0.0, 0.4, 1.1], [1.0, 0.0, 1.0], period=2.0)
        p = np.eye(2) + 0.5 * rng.standard_normal((2, 2))
        v = np.eye(1) + 0.5 * rng.standard_normal((1, 1))
        rep = rates.coordinate_invariance_check(a, b, k, p, v, s)
        assert rep.spectral_residual <= 1e-9
        assert rep.top_rate_difference <= 1e-9

    def test_diagonal_scaling_changes_norms_not_rates(self):
        a, b, k = random_system(21)
        s = PESignal([0.0, 0.5], [1.0, 0.0], period=1.0)
        p = np.diag([5.0, 0.2])
        rep = rates.coordinate_invariance_check(a, b, k, p, np.eye(1), s)
        assert rep.spectral_residual <= 1e-9
        assert rep.top_rate_difference <= 1e-10


class TestParityDuality:
    def test_constant_on_d2(self):
        k = np.array([1.0, -2.0])
        s = PESignal.constant(1.0, period=1.0)
        rep = rates.parity_duality_check(k, [s])
        assert rep.max_residual <= 1e-8
        t = parity_matrix(2)
        np.testing.assert_array_equal(rep.K_minus, (k @ t))

    def test_random_switching_d3(self):
        rng = np.random.default_rng(22)
        k = rng.uniform(0.4, 1.4, size=3) * np.where(rng.random(3) < 0.5, -1, 1)
        s = PESignal([0.0, 0.6, 1.3], [1.0, 0.0, 1.0], period=2.0)
        rep = rates.parity_duality_check(k, [s])
        assert rep.max_residual <= 1e-8

    def test_zero_component_rejected(self):
        with pytest.raises(ValueError):
            rates.parity_duality_check(np.array([1.0, 0.0]), [])

    def test_first_failing_entry_is_reported(self):
        """The first entry that is aperiodic or fails the check is named,
        whichever kind of failure it is."""
        k = np.array([1.0, -2.0])
        good = PESignal.constant(1.0, period=1.0)
        weak = PESignal([0.0, 0.5], [1.0, 0.0], period=1.0)  # windows of 0.5 < 0.6
        loose = PESignal([0.0], [1.0])
        cls = SignalClass(1.0, 0.6)
        with pytest.raises(ValueError, match=r"^family\[1\] is not periodic$"):
            rates.parity_duality_check(k, [good, loose, weak], cls=cls)
        with pytest.raises(ValueError, match=r"^family\[1\] fails the excitation check$"):
            rates.parity_duality_check(k, [good, weak, loose], cls=cls)
        with pytest.raises(ValueError, match=r"^family\[2\] is not periodic$"):
            rates.parity_duality_check(k, iter([good, weak, loose]))
        rep = rates.parity_duality_check(k, iter([good, weak]))
        assert [row[0] for row in rep.per_signal] == [0, 1]


    @staticmethod
    def case(d, c):
        """The seeded gain and family of case (d, c) of the pinned digest."""
        rng = np.random.default_rng(100 * d + c)
        k = rng.uniform(0.3, 1.5, d) * np.where(rng.random(d) < 0.5, -1.0, 1.0)
        if c == 5:
            k *= 4.0
        family = [PESignal.constant(1.0, period=float(rng.uniform(0.5, 2.0)))]
        for _ in range(int(rng.integers(1, 5))):
            segs = [(float(rng.uniform(0.5, 1.0)), float(rng.uniform(0.1, 1.0)))
                    for _ in range(int(rng.integers(1, 6)))]
            family.append(PESignal.from_segments(segs, period=sum(t for _, t in segs)))
        return k, family

    def test_pinned_digest(self):
        """K_minus, every per-signal row and the worst residual on 36
        seeded cases (d = 2..7, with and without an excitation class, one
        larger gain each), pinned by a digest recorded when each signal
        took its own product and eigvals calls."""
        digest = hashlib.sha256()
        for d in range(2, 8):
            for c in range(6):
                k, family = self.case(d, c)
                rep = rates.parity_duality_check(k, family, cls=CLS if c % 2 else None)
                digest.update(rep.K_minus.tobytes())
                for i, period, res in rep.per_signal:
                    digest.update(struct.pack("<qdd", i, period, res))
                digest.update(struct.pack("<d", rep.max_residual))
        assert digest.hexdigest() == \
            "8ca8df436e0668644eb41531cc5f24a1e782aedd2a1d2781e819f5df63cacbe0"

    def test_eigenvalue_without_inverse_is_inf_residual(self):
        """At 30 times the gain of case (5, 5), an eigenvalue of the first
        signal's unscaled product underflows to 0.  Its inverse is reported
        as an inf residual, with no warning, while ``monodromy`` on the same
        loop gives finite rates and the other signals keep their residuals.
        A product that leaves the float range is an inf residual too, as in
        ``duality_check``."""
        k, family = self.case(5, 5)
        k = 30.0 * k
        rep = rates.parity_duality_check(k, family, cls=CLS)
        assert rep.per_signal[0][2] == np.inf and rep.max_residual == np.inf
        assert all(np.isfinite(res) for _, _, res in rep.per_signal[1:])
        m = rates.monodromy(nilpotent_shift(5), unit_vector(5, 4).reshape(5, 1),
                            k.reshape(1, 5), family[0])
        assert np.isfinite(m.top_rate) and np.isfinite(m.bottom_rate)
        # at 300 times the gain every product leaves the float range
        rep = rates.parity_duality_check(10.0 * k, family, cls=CLS)
        assert [res for _, _, res in rep.per_signal] == [np.inf] * len(family)


def test_continuity_probe_report():
    """Diagnostic only: convergence-rate estimates along a converging system
    sequence approach the limit value (reported, not asserted to a bound)."""
    a, b, k = random_system(23)
    fam = rates.bang_bang_family(CLS, rates.SearchBudget(size=10, seed=7))
    target = rates.rc_estimate(a, b, k, CLS, fam).value
    drift = []
    for eps in (0.1, 0.01, 0.001):
        rng = np.random.default_rng(24)
        an = a + eps * rng.standard_normal(a.shape)
        bn = b + eps * rng.standard_normal(b.shape)
        kn = k + eps * rng.standard_normal(k.shape)
        drift.append(abs(rates.rc_estimate(an, bn, kn, CLS, fam).value - target))
    print(f"continuity probe: |rc(n) - rc| along eps=0.1,0.01,0.001 -> {drift}")
    assert all(np.isfinite(drift))


# -- the family engine against the per-signal engine ------------------------

LN2 = float(np.log(2.0))


def reference_product(a, bks, segments):
    """The per-signal engine that the family engine replaced: one running
    ``(G, d, d)`` product, renormalised by each slice's power of two after
    every factor."""
    d = a.shape[0]
    rn = np.broadcast_to(np.eye(d), bks.shape)
    shift, exponent = [0.0] * len(bks), [0] * len(bks)
    for value, dt in segments:
        if dt == 0.0:
            continue
        m = a + value * bks
        sigma = np.linalg.eigvals(m).real.max(axis=1).tolist()
        rn = scipy.linalg.expm((m - np.array(sigma)[:, None, None] * np.eye(d)) * dt) @ rn
        e = np.frexp(np.abs(rn).max(axis=(1, 2), keepdims=True))[1]
        rn = np.ldexp(rn, -e)
        for i, eg in enumerate(e.ravel().tolist()):
            shift[i] += sigma[i] * dt
            exponent[i] += eg
    return rn, [sh + ex * LN2 for sh, ex in zip(shift, exponent)]


def reference_top(rn, log_scale, tau, norm=False):
    """Per-slice reads: ``scipy.linalg.svdvals`` slice by slice for norms."""
    peak = (np.array([scipy.linalg.svdvals(r)[0] for r in rn]) if norm
            else np.abs(np.linalg.eigvals(rn)).max(axis=1))
    return ((np.asarray(log_scale) + np.log(peak)) / tau).tolist()


def reference_unscaled(rn, log_scale):
    whole, frac = divmod(log_scale, LN2)
    with np.errstate(over="ignore"):
        return np.ldexp(rn * np.exp(frac), int(whole))


def ragged_family(rng, n, values):
    """n segment lists of 1 to 12 segments, with repeated values and
    durations and explicit zero-duration segments."""
    durations = [0.0, 0.125, 0.3, 0.7, 1.0, 2.5]
    return [[(float(rng.choice(values)), float(rng.choice(durations)))
             for _ in range(int(rng.integers(1, 13)))] for _ in range(n)]


def assert_family_slices(a, bks, family, periods):
    rn, log_scale = rates._family_product(a, bks, family)
    assert rn.shape == (len(family),) + bks.shape and log_scale.shape == rn.shape[:2]
    tau = np.asarray(periods, dtype=float)[:, None]
    tops, norms = rates._top(rn, log_scale, tau), rates._top(rn, log_scale, tau, norm=True)
    for s, segments in enumerate(family):
        ref_rn, ref_scale = reference_product(a, bks, segments)
        np.testing.assert_array_equal(rn[s], ref_rn)
        assert log_scale[s].tolist() == ref_scale
        assert tops[s].tolist() == reference_top(ref_rn, ref_scale, periods[s])
        assert norms[s].tolist() == reference_top(ref_rn, ref_scale, periods[s], norm=True)
        for g, bk in enumerate(bks):
            rn_g, log_scale_g = rates._family_product(a, bk[None], [segments])
            np.testing.assert_array_equal(rn_g[0, 0], rn[s, g])
            assert log_scale_g.tolist() == [[log_scale[s, g]]]


class TestFamilyEngine:
    """Every (signal, gain) slice of a family stack is the per-signal
    product bit for bit, and the batched reads are the per-slice reads."""

    @pytest.mark.parametrize("gains", [1, 3])
    @pytest.mark.parametrize("d", range(2, 11))
    def test_ragged_family(self, d, gains):
        rng = np.random.default_rng(700 + 10 * d + gains)
        a = rng.standard_normal((d, d))
        bks = np.stack([rng.standard_normal((d, 1)) @ rng.standard_normal((1, d))
                        for _ in range(gains)])
        family = ragged_family(rng, 9, [0.0, 0.4, 1.0, float(rng.random())])
        periods = [max(sum(dt for _, dt in segs), 0.5) for segs in family]
        assert_family_slices(a, bks, family, periods)

    def test_zero_duration_only_and_empty(self):
        a = np.array([[0.0, 1.0], [-2.0, -0.5]])
        bks = np.array([[[0.0, 0.0], [1.0, 1.0]]])
        family = [[(1.0, 0.0)], [], [(0.0, 0.0), (1.0, 0.5), (0.0, 0.0)]]
        rn, log_scale = rates._family_product(a, bks, family)
        for s in (0, 1):
            np.testing.assert_array_equal(rn[s, 0], np.eye(2))
            assert log_scale[s, 0] == 0.0
        assert_family_slices(a, bks, family, [1.0, 1.0, 0.5])

    @pytest.mark.parametrize("scale", [1, 10])
    def test_stiff_triple(self, scale):
        a = scale * TestStiffAndLongPeriod.STIFF_A
        bk = (scale * E2) @ TestStiffAndLongPeriod.STIFF_K
        bks = np.stack([bk, 0.5 * bk, -bk])
        fam = rates.bang_bang_family(CLS, rates.SearchBudget(size=10, seed=0))
        periods = [s.period for s in fam]
        assert_family_slices(a, bks, [s.period_segments() for s in fam], periods)
        assert_family_slices(-a, -bks, [reverse(s).period_segments() for s in fam], periods)

    def test_long_period_saddle(self):
        a = np.diag([-5.0, 5.0])
        bks = np.stack([np.zeros((2, 2)), np.eye(2)])
        fam = [PESignal.constant(1.0, period=200.0), PESignal.constant(0.4, period=1.0)]
        assert_family_slices(a, bks, [s.period_segments() for s in fam], [200.0, 1.0])

    @pytest.mark.parametrize("d", range(2, 11))
    def test_batched_svd_is_svdvals(self, d):
        rng = np.random.default_rng(800 + d)
        for log_scale in (-30.0, -5.0, 0.0, 5.0, 30.0):
            x = np.exp(log_scale) * rng.standard_normal((20, d, d))
            batched = np.linalg.svd(x, compute_uv=False)[:, 0]
            assert batched.tolist() == [scipy.linalg.svdvals(r)[0] for r in x]


# -- the family-stacked estimators against the per-signal ones ---------------


def reference_tops(a, bks, sigs, norm=False):
    """Per signal, the per-gain reads of its own product."""
    return [reference_top(*reference_product(a, bks, s.period_segments()), s.period, norm)
            for s in sigs]


def reference_minimum(values, sigs, method, bound="upper", pick=min):
    """The extreme value with its witness; ties go to the smaller key."""
    best = pick(zip(values, [s.encoding_key() for s in sigs], sigs), key=lambda e: e[:2])
    return rates.RateEstimate(best[0], bound, best[2], method)


def reference_family_rates(a, b, k, cls, family):
    """``family_rates`` as it was: each signal's product read on its own,
    once per read."""
    sigs = rates._resolve_family(cls, family)
    mirrored = rates.mirror_family(sigs)
    bk, bk_rev = (b @ k)[None], ((-b) @ k)[None]
    tops = [t[0] for t in reference_tops(a, bk, sigs)]
    bottoms = [-t[0] for t in reference_tops(-a, bk_rev, mirrored)]
    norms = [t[0] for t in reference_tops(a, bk, sigs, norm=True)]
    mirror_norms = [t[0] for t in reference_tops(-a, bk_rev, mirrored, norm=True)]
    method = f"/periodic-monodromy-min/{len(sigs)}"
    delta_hat = reference_minimum(norms, sigs, "delta/log-norm-max", "lower", max)
    delta_star = reference_minimum([-v for v in mirror_norms], sigs, "delta*/log-conorm-min")
    delta = rates.DeltaReport(delta_hat, delta_star,
                              bool(delta_star.value == -max(mirror_norms)))
    return rates.FamilyRates(tuple(sigs), tuple(tops), tuple(bottoms),
                             reference_minimum([-t for t in tops], sigs, "rc" + method),
                             reference_minimum(bottoms, sigs, "rd" + method), delta)


def reference_duality_check(a, b, k, cls, family, tol=1e-8):
    """``duality_check`` as it was: one signal at a time."""
    sigs = rates._resolve_family(cls, family)
    bk, bk_rev = (b @ k)[None], ((-b) @ k)[None]
    rows = []
    # rates.mirror_family, so a test that patches the mirror patches this too.
    for i, (s, s_rev) in enumerate(zip(sigs, rates.mirror_family(sigs))):
        rn, log_scale = reference_product(a, bk, s.period_segments())
        rn_rev, log_scale_rev = reference_product(-a, bk_rev, s_rev.period_segments())
        prod = reference_unscaled(rn_rev[0] @ rn[0], log_scale_rev[0] + log_scale[0])
        res = opnorm(prod - np.eye(len(a))) if np.isfinite(prod).all() else np.inf
        rows.append((i, s.period, res))
    mirrored = rates._resolve_family(cls, rates.mirror_family(sigs))
    rc = reference_minimum([-t[0] for t in reference_tops(a, bk, sigs)], sigs,
                           f"rc/periodic-monodromy-min/{len(sigs)}")
    rd = reference_minimum([-t[0] for t in reference_tops(a, bk, rates.mirror_family(mirrored))],
                           mirrored, f"rd/periodic-monodromy-min/{len(mirrored)}")
    return rates.DualityReport(tuple(rows), max([0.0] + [r[2] for r in rows]), rc, rd,
                               bool(rc.value == rd.value), tol)


def reference_duality_grid(a, b, gains, cls, family):
    """``duality_grid`` as it was: each signal's gain stack on its own."""
    sigs = rates._resolve_family(cls, family)
    mirrored = rates._resolve_family(cls, rates.mirror_family(sigs))
    bks = np.stack([b @ k for k in gains])
    tops = reference_tops(a, bks, sigs)
    tops_rd = reference_tops(a, bks, rates.mirror_family(mirrored))
    return rates.DualityGridReport(
        tuple(reference_minimum([-t[g] for t in tops], sigs,
                                f"rc/periodic-monodromy-min/{len(sigs)}")
              for g in range(len(gains))),
        tuple(reference_minimum([-t[g] for t in tops_rd], mirrored,
                                f"rd/periodic-monodromy-min/{len(mirrored)}")
              for g in range(len(gains))))


def assert_same_estimate(x, y):
    assert same_estimate(x, y)
    assert x.witness.encoding_key() == y.witness.encoding_key()


def assert_reference_equality(a, b, k, cls, family, gains):
    got, ref = rates.family_rates(a, b, k, cls, family), reference_family_rates(a, b, k, cls, family)
    assert [s.encoding_key() for s in got.signals] == [s.encoding_key() for s in ref.signals]
    assert got.top_rates == ref.top_rates and got.bottom_rates == ref.bottom_rates
    for name in ("rc", "rd"):
        assert_same_estimate(getattr(got, name), getattr(ref, name))
    assert_same_estimate(got.delta.delta_hat, ref.delta.delta_hat)
    assert_same_estimate(got.delta.delta_star_hat, ref.delta.delta_star_hat)
    assert got.delta.mirror_identity_exact == ref.delta.mirror_identity_exact

    got, ref = rates.duality_check(a, b, k, cls, family), reference_duality_check(a, b, k, cls, family)
    assert got.per_signal == ref.per_signal and got.max_residual == ref.max_residual
    assert_same_estimate(got.rc, ref.rc)
    assert_same_estimate(got.rd_mirror, ref.rd_mirror)
    assert got.estimates_equal == ref.estimates_equal and got.ok == ref.ok

    got, ref = rates.duality_grid(a, b, gains, cls, family), reference_duality_grid(a, b, gains, cls, family)
    assert len(got.rc) == len(got.rd_mirror) == len(gains)
    for x, y in zip(got.rc + got.rd_mirror, ref.rc + ref.rd_mirror):
        assert_same_estimate(x, y)


class TestReferenceEquality:
    """``family_rates``, ``duality_check`` and ``duality_grid`` on the family
    engine equal their per-signal versions field by field."""

    @pytest.mark.parametrize("d", range(2, 11))
    def test_random_triple(self, d):
        rng = np.random.default_rng(900 + d)
        a = rng.standard_normal((d, d)) * rng.choice([0.3, 1.0, 4.0])
        b = rng.standard_normal((d, 1))
        gains = [rng.standard_normal((1, d)) for _ in range(3)]
        fam = rates.SearchBudget(size=12, seed=d)
        assert_reference_equality(a, b, gains[0], CLS, fam, gains)

    @pytest.mark.parametrize("scale", [1, 10])
    def test_stiff_triple(self, scale):
        a, b = scale * TestStiffAndLongPeriod.STIFF_A, scale * E2
        k = TestStiffAndLongPeriod.STIFF_K
        fam = rates.bang_bang_family(CLS, rates.SearchBudget(size=10, seed=0))
        assert_reference_equality(a, b, k, CLS, fam, [k, 0.5 * k, -k])

    def test_mu_095(self):
        cls = SignalClass(1.0, 0.95)
        a, b, k = random_system(31, d=3)
        fam = rates.SearchBudget(size=16, seed=3)
        assert_reference_equality(a, b, k, cls, fam, [k, 2.0 * k])

    def test_explicit_signals(self):
        a, b, k = random_system(32, d=4)
        fam = [PESignal.constant(0.7, period=1.0),
               PESignal([0.0, 0.5, 1.25], [1.0, 0.0, 1.0], period=2.0),
               PESignal([0.0, 0.3, 0.7, 1.2], [1.0, 0.0, 1.0, 0.0], period=2.0),
               PESignal([0.0, 0.2], [1.0, 0.0], period=1.0),  # not PE: dropped
               PESignal.from_segments([(1.0, 0.25), (0.4, 0.5), (1.0, 0.25)], period=1.0)]
        assert_reference_equality(a, b, k, CLS, fam, [k, -k])


# -- one engine pass per loop -----------------------------------------------


def distinct_segments(sigs):
    return {seg for s in sigs for seg in s.period_segments() if seg[1] > 0.0}


def expm_per_pass(monkeypatch):
    """The segment keys exponentiated inside each ``rates._pass``, in call
    order: the slices that pass through ``rates._expm_stack``, counted in
    ``(G, d, d)`` stacks over the gains, one per ``(value, duration)`` key.
    A pass that does not call the kernel exactly once fails the test."""
    counts, calls = [], []
    kernel, pass_ = rates._expm_stack, rates._pass

    def counted_kernel(x):
        counts[-1] += len(x)
        calls[-1] += 1
        return kernel(x)

    def counted_pass(*args, **kwargs):
        counts.append(0)
        calls.append(0)
        out = pass_(*args, **kwargs)
        assert calls[-1] == 1, f"one pass made {calls[-1]} kernel calls"
        return out

    monkeypatch.setattr(rates, "_expm_stack", counted_kernel)
    monkeypatch.setattr(rates, "_pass", counted_pass)
    return counts


def nudge_reversal(monkeypatch):
    """Make ``rates.mirror_family`` lengthen the last duration of every
    reversed signal by one ulp: the values and every other duration keep
    their bits, and the signal stays consistent with its breakpoints and
    period."""
    mirror_family = rates.mirror_family

    def nudged(family):
        out = []
        for r in mirror_family(family):
            durations = r.durations.copy()
            durations[-1] = np.nextafter(durations[-1], np.inf)
            out.append(PESignal.from_segments(zip(r.values, durations), period=r.period))
        return out

    monkeypatch.setattr(rates, "mirror_family", nudged)


class TestOnePassPerLoop:
    """``duality_grid`` reads ``rc`` and ``rd_mirror`` from one pass on the
    loop (A, BK), over the family and the reversal of its mirror: each
    distinct segment is exponentiated once per call, and each distinct
    ``(segments, period)`` row is multiplied out and read once per pass.
    ``duality_check`` adds one pass on the reversed tuple for its
    residuals."""

    @staticmethod
    def case(d):
        rng = np.random.default_rng(1000 + d)
        a = rng.standard_normal((d, d)) / np.sqrt(d)
        b = rng.standard_normal((d, 1))
        gains = [rng.standard_normal((1, d)) for _ in range(4)]
        return a, b, gains, rates.bang_bang_family(CLS, rates.SearchBudget(size=16, seed=d))

    @pytest.mark.parametrize("d", [2, 5])
    def test_grid_computes_each_segment_once(self, d, monkeypatch):
        a, b, gains, fam = self.case(d)
        counts = expm_per_pass(monkeypatch)
        rep = rates.duality_grid(a, b, gains, CLS, fam)
        assert counts == [len(distinct_segments(fam))]
        assert all(rc.value == rd.value for rc, rd in zip(rep.rc, rep.rd_mirror))

    @pytest.mark.parametrize("d", [2, 5])
    def test_check_makes_two_passes(self, d, monkeypatch):
        a, b, gains, fam = self.case(d)
        counts = expm_per_pass(monkeypatch)
        rep = rates.duality_check(a, b, gains[0], CLS, fam)
        assert counts == [len(distinct_segments(fam)),
                          len(distinct_segments(rates.mirror_family(fam)))]
        assert rep.estimates_equal

    def test_mirror_rows_are_the_family_rows(self, monkeypatch):
        """The reversal of the mirror is the family bit for bit, so a grid
        pass multiplies out S rows, not 2S, and its ``eigvals`` read holds
        S x G slices; ``duality_check``'s two passes are S rows each."""
        a, b, gains, fam = self.case(3)
        assert len(rates._resolve_family(CLS, rates.mirror_family(fam))) == len(fam)
        rows, reads = [], []
        product, top = rates._family_product, rates._top
        monkeypatch.setattr(rates, "_family_product",
                            lambda a, bks, family: rows.append(len(family)) or product(a, bks, family))
        monkeypatch.setattr(rates, "_top",
                            lambda rn, *args, **kw: reads.append(rn.shape[:2]) or top(rn, *args, **kw))
        rep = rates.duality_grid(a, b, gains, CLS, fam)
        assert rows == [len(fam)] and reads == [(len(fam), len(gains))]
        assert [e.value for e in rep.rc] == [e.value for e in rep.rd_mirror]
        rows.clear()
        reads.clear()
        assert rates.duality_check(a, b, gains[0], CLS, fam).ok
        assert rows == [len(fam)] * 2 and reads == [(len(fam), 1)]

    def test_period_one_ulp_apart_is_a_row_of_its_own(self):
        """Rows are keyed by their segments and their period, which the
        reads divide by: a period one ulp longer is a row of its own, and a
        repeated signal is not."""
        a, b, gains, _ = self.case(3)
        segments = [(1.0, 0.25), (0.4, 0.5), (1.0, 0.25)]
        s, t = (PESignal.from_segments(segments, period=p) for p in (1.0, np.nextafter(1.0, 2.0)))
        assert s.period_segments() == t.period_segments() and s.period != t.period
        rn, log_scale, periods, inverse = rates._pass(a, b, gains, [s, t, s])
        assert rn.shape[0] == 2 and inverse.tolist() == [0, 1, 0]
        tops = -rates._neg_tops(rn, log_scale, periods, inverse)
        bks = np.stack([b @ k for k in gains])
        ref_rn, ref_scale = reference_product(a, bks, segments)
        for i, sig in enumerate((s, t, s)):
            assert tops[:, i].tolist() == reference_top(ref_rn, ref_scale, sig.period)
        assert tops[:, 0].tolist() != tops[:, 1].tolist()

    def test_nudged_reversal_is_still_checked(self, monkeypatch):
        """A segment that the double reversal moves by one ulp is a key of
        its own in the shared pass, so the ``rd_mirror`` rows are not the
        ``rc`` rows and the equality of ``rc`` and ``rd`` still fails where
        the reversal is wrong."""
        a, b, gains, fam = self.case(3)
        nudge_reversal(monkeypatch)
        mirrored = rates._resolve_family(CLS, rates.mirror_family(fam))
        back = distinct_segments(rates.mirror_family(mirrored))
        missed = back - distinct_segments(fam)
        counts = expm_per_pass(monkeypatch)
        got = rates.duality_grid(a, b, gains, CLS, fam)
        assert counts == [len(distinct_segments(fam)) + len(missed)] and 0 < len(missed) < len(back)
        ref = reference_duality_grid(a, b, gains, CLS, fam)
        for x, y in zip(got.rc + got.rd_mirror, ref.rc + ref.rd_mirror):
            assert_same_estimate(x, y)
        assert any(rc.value != rd.value for rc, rd in zip(got.rc, got.rd_mirror))

        got, ref = (rates.duality_check(a, b, gains[0], CLS, fam),
                    reference_duality_check(a, b, gains[0], CLS, fam))
        assert got.per_signal == ref.per_signal and got.max_residual == ref.max_residual
        assert_same_estimate(got.rc, ref.rc)
        assert_same_estimate(got.rd_mirror, ref.rd_mirror)
        assert got.estimates_equal == ref.estimates_equal and got.ok == ref.ok


# -- the stacked kernels against their one-at-a-time versions ----------------


def assert_expm_bits(x):
    """``rates._expm_stack`` equals ``scipy.linalg.expm`` slice by slice,
    byte for byte."""
    with np.errstate(all="ignore"):
        got = rates._expm_stack(x)
        want = np.array([scipy.linalg.expm(m) for m in x.reshape(-1, *x.shape[-2:])])
    assert got.shape == x.shape and got.tobytes() == want.tobytes()


class TestExpmStack:
    KINDS = {"generic": lambda x: x, "upper": np.triu, "lower": np.tril,
             "nilpotent": lambda x: np.triu(x, 1), "diagonal": lambda x: x * np.eye(x.shape[-1])}

    @pytest.mark.parametrize("d", range(1, 11))
    def test_seeded_stacks(self, d):
        """Every kind of slice at every scale, up to ones whose squarings
        overflow, alone and mixed in one stack."""
        rng = np.random.default_rng(1100 + d)
        mixed = []
        for shape in self.KINDS.values():
            for scale in (1e-3, 0.1, 1.0, 30.0, 300.0, 3e4):
                x = shape(rng.standard_normal((5, d, d))) * scale
                assert_expm_bits(x)
                mixed.append(x[:2])
        assert_expm_bits(rng.permutation(np.concatenate(mixed)))
        assert_expm_bits(np.zeros((3, 2, d, d)))

    @pytest.mark.parametrize("path", BENCH_CONFIGS, ids=lambda p: p.stem)
    def test_bench_config_factors(self, path, tmp_path, monkeypatch):
        """Every stack that ``duality-grid`` exponentiates on a committed
        benchmark config: dense slices, and at mu = 0.40 the nilpotent
        chain of the value-0 segments."""
        from pegrowth import cli

        stacks = []
        kernel = rates._expm_stack

        def recorded(x):
            stacks.append(x)
            return kernel(x)

        monkeypatch.setattr(rates, "_expm_stack", recorded)
        assert cli.main(["duality-grid", "--config", str(path), "--seed", "1",
                         "--out", str(tmp_path / "g")]) == 0
        monkeypatch.undo()
        assert stacks
        for s in stacks:
            assert_expm_bits(s)

    @pytest.mark.parametrize("fault", ["import", "call"])
    def test_without_the_private_kernels(self, fault, tmp_path, monkeypatch):
        """Where scipy's private Padé kernels cannot be imported or called,
        the whole stack goes to ``scipy.linalg.expm``: the bits and a
        ``duality-grid`` summary stay the same."""
        from pegrowth import cli

        def argv(out):
            return ["duality-grid", "--config", str(BENCH_CONFIGS[0]), "--seed", "1",
                    "--out", str(out)]

        assert cli.main(argv(tmp_path / "kernels")) == 0
        if fault == "import":
            monkeypatch.setitem(sys.modules, "scipy.linalg._matfuncs_expm", None)
        else:
            import scipy.linalg._matfuncs_expm as kernels

            def moved(*args):
                raise TypeError("pick_pade_structure() takes no arguments")

            monkeypatch.setattr(kernels, "pick_pade_structure", moved)
        calls = []
        expm = scipy.linalg.expm
        monkeypatch.setattr(scipy.linalg, "expm", lambda x: calls.append(x.shape) or expm(x))
        rng = np.random.default_rng(1190)
        for shape in self.KINDS.values():
            assert_expm_bits(shape(rng.standard_normal((4, 3, 3))) * 30.0)
        calls.clear()
        assert cli.main(argv(tmp_path / "fallback")) == 0
        assert calls
        assert ((tmp_path / "fallback" / "summary.json").read_bytes()
                == (tmp_path / "kernels" / "summary.json").read_bytes())

    def test_no_dense_expm_call(self, monkeypatch):
        """The engine runs every branch of ``scipy.linalg.expm`` itself: on
        a chain pair, whose value-0 segments have nilpotent generators, it
        makes no ``scipy.linalg.expm`` call."""
        seen = []
        monkeypatch.setattr(scipy.linalg, "expm", lambda x: seen.append(x))
        k = np.random.default_rng(17).standard_normal((1, 3))
        report = rates.duality_grid(nilpotent_shift(3), unit_vector(3, 2).reshape(3, 1), [k, -k],
                                    CLS, rates.SearchBudget(size=12, seed=1))
        assert not seen
        assert [e.value for e in report.rc] == [e.value for e in report.rd_mirror]


class TestMirrorFamily:
    FIELDS = ("breakpoints", "values", "durations")

    def assert_reverse_bits(self, fam):
        got = rates.mirror_family(fam)
        assert len(got) == len(fam)
        for r, s in zip(got, fam):
            # the reversal one signal at a time, breakpoints summed in Python
            want = _trusted(s.values[::-1].tolist(), s.durations[::-1].tolist(), s.period)
            for name in self.FIELDS:
                x, y = getattr(r, name), getattr(want, name)
                assert (x.dtype, x.flags.c_contiguous, x.flags.writeable) == (y.dtype, True, False)
                assert x.tobytes() == y.tobytes()
            assert type(r.period) is float and r.period == want.period
            assert r.encoding_key() == want.encoding_key()

    @pytest.mark.parametrize("path", BENCH_CONFIGS, ids=lambda p: p.stem)
    def test_bench_config_families(self, path):
        cfg = json.loads(path.read_text())
        cls = SignalClass(cfg["T"], cfg["mu"])
        for seed in (1, 2, 7):
            fam = rates.bang_bang_family(cls, rates.SearchBudget(**cfg["family"], seed=seed))
            self.assert_reverse_bits(fam)
            self.assert_reverse_bits(rates.mirror_family(fam))

    def test_ragged_and_rounded_signals(self):
        rng = np.random.default_rng(12)
        fam = [PESignal.constant(0.7, period=1.5),
               PESignal([0.0, 0.25, 0.625], [1.0, 0.0, 0.5], period=2.0)]
        for n in (1, 2, 5, 13):
            durations = rng.uniform(0.01, 3.0, n) / 7.0
            fam.append(PESignal.from_segments(zip(rng.uniform(0.0, 1.0, n), durations),
                                              period=float(np.cumsum(durations)[-1])))
        self.assert_reverse_bits(fam)
        assert rates.mirror_family([]) == []

    def test_failing_signal_raises_as_reverse_does(self):
        # As in test_signals: reversed, the first segment ends past the period.
        s = _trusted([1.0, 0.0], [0.5, 1.5], 1.0)
        with pytest.raises(ValueError, match="precede the period"):
            rates.mirror_family([PESignal.constant(0.5, period=1.0), s])
        with pytest.raises(ValueError, match="periodic signals only"):
            rates.mirror_family([PESignal.constant(0.5, period=1.0), PESignal([0.0], [1.0])])
