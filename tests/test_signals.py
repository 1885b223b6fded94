import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pegrowth import signals
from pegrowth.rates import SearchBudget, bang_bang_family
from pegrowth.signals import (EP_TOL, PESignal, PEValidation, SignalClass, _trusted,
                              reverse, validate_pe)

from oracles import value_at

CLS = SignalClass(1.0, 0.4)


def integral(s, t0, t1):
    """Exact integral of a periodic signal over [t0, t1], through the
    antiderivative that the excitation check reads."""
    lo, hi = signals._periodic_antiderivative(signals._layout([s]), np.array([[t0, t1]]))[0]
    return float(hi - lo)


def grid_oracle_worst(s, cls, n_steps=10_000):
    """Window minimum via midpoint Riemann sums at step T/n_steps.

    Exact for signals whose breakpoints sit on the step grid: every step then
    lies inside one segment, and the worst window start is itself a grid
    point.
    """
    h = cls.T / n_steps
    per = s.period
    n_start = int(round(per / h))
    mids = (np.arange(n_start + n_steps) + 0.5) * h
    cum = np.concatenate([[0.0], np.cumsum(value_at(s, mids))]) * h
    windows = cum[n_steps:n_steps + n_start] - cum[:n_start]
    return float(windows.min())


def random_grid_signal(rng, cls, grid=16):
    mult = int(rng.integers(1, 4))
    cells = grid * mult
    k = 2 * int(rng.integers(1, 4))
    idx = np.sort(rng.choice(np.arange(1, cells), size=k - 1, replace=False))
    bounds = np.concatenate([[0], idx, [cells]])
    low = 0.0 if rng.random() < 0.5 else cls.floor
    segs = [(1.0 if i % 2 == 0 else low, (bounds[i + 1] - bounds[i]) * cls.T / grid)
            for i in range(k)]
    return PESignal.from_segments(segs, period=mult * cls.T)


class TestSignalClass:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            SignalClass(1.0, 1.5)
        with pytest.raises(ValueError):
            SignalClass(1.0, 0.0)

    def test_floor(self):
        assert SignalClass(2.0, 0.5).floor == 0.25


class TestPESignal:
    def test_validation(self):
        with pytest.raises(ValueError):
            PESignal([0.0, 0.0], [1.0, 0.0], period=1.0)  # not increasing
        with pytest.raises(ValueError):
            PESignal([0.0], [1.5], period=1.0)  # value out of range
        with pytest.raises(ValueError):
            PESignal([0.1], [1.0], period=1.0)  # periodic must start at 0
        with pytest.raises(ValueError):
            PESignal([0.0, 1.0], [1.0, 0.0], period=1.0)  # breakpoint at period

    def test_value_and_integral(self):
        s = PESignal([0.0, 0.5], [1.0, 0.0], period=1.0)
        assert value_at(s, 0.25) == 1.0
        assert value_at(s, 0.75) == 0.0
        assert value_at(s, 1.25) == 1.0
        assert integral(s, 0.0, 1.0) == pytest.approx(0.5)
        assert integral(s, 0.25, 1.25) == pytest.approx(0.5)
        assert integral(s, -0.7, 0.2) == pytest.approx(0.4)

    def test_integral_at_a_remainder_just_below_zero(self):
        # x is a rounding error short of six periods, but x / per rounds to
        # 6.0: the remainder x - 6 per is negative and must not index the
        # last segment of the period
        per = 0.5056378869683275
        s = PESignal.from_segments([(1.0, per / 2), (0.0, per / 2)], period=per)
        x = 3.0338273218099645
        assert x / per == 6.0 and x - 6.0 * per < 0.0
        assert integral(s, 0.0, x) == pytest.approx(3.0 * per, rel=1e-15)
        assert integral(s, x, x + per) == pytest.approx(0.5 * per, rel=1e-14)

    def test_aperiodic_extension(self):
        s = PESignal([0.0, 1.0], [0.2, 0.8])
        assert value_at(s, -5.0) == 0.2
        assert value_at(s, 7.0) == 0.8

    def test_json_round_trip(self):
        s = PESignal([0.0, 0.25], [1.0, 0.0], period=2.0)
        back = PESignal.from_json(s.to_json())
        np.testing.assert_array_equal(back.breakpoints, s.breakpoints)
        np.testing.assert_array_equal(back.values, s.values)
        assert back.period == s.period

    @pytest.mark.parametrize("obj", [
        {"breakpoints": [0.0], "values": [1.0], "period": True},
        {"breakpoints": [0.0], "values": [1.0], "period": "1"},
        {"breakpoints": [0.0], "values": ["1"], "period": 1.0},
        {"breakpoints": [False], "values": [1.0], "period": 1.0},
        {"breakpoints": [0.0], "values": [[1.0]], "period": 1.0},
        {"breakpoints": 0.0, "values": [1.0], "period": 1.0},
        {"breakpoints": [0.0], "values": [1.0], "period": 10 ** 400},
        {"values": [1.0], "period": 1.0},
    ])
    def test_from_json_takes_numbers_only(self, obj):
        with pytest.raises(ValueError, match="malformed signal object"):
            PESignal.from_json(obj)

    def test_from_segments_merges(self):
        s = PESignal.from_segments([(1.0, 0.5), (1.0, 0.25), (0.0, 0.25)], period=1.0)
        assert s.n_segments == 2
        np.testing.assert_array_equal(s.values, [1.0, 0.0])


def reference_from_segments(segments):
    """``PESignal.from_segments`` without a period as it was built before
    it skipped the numpy checks: the same merge rules, ``np.cumsum``
    breakpoints and the validating constructor."""
    vals, durs = [], []
    for v, dur in segments:
        if dur < 0:
            raise ValueError("segment durations must be nonnegative")
        if dur == 0.0:
            continue
        if vals and vals[-1] == v:
            durs[-1] = durs[-1] + dur
        else:
            vals.append(float(v))
            durs.append(float(dur))
    if not vals:
        raise ValueError("signal needs at least one segment of positive length")
    return PESignal(np.concatenate([[0.0], np.cumsum(durs)[:-1]]), vals, None)


class TestAperiodicSegments:
    """An aperiodic ``from_segments``, which steering calls per query, builds
    the validating constructor's signal bit for bit, and raises where it
    raises."""

    def test_same_bits_as_the_validating_constructor(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            n = int(rng.integers(1, 12))
            segs = [(float(rng.choice([0.0, 0.4, 1.0])),
                     float(rng.choice([0.0, 1.0, 1.0, 1.0]) * rng.exponential()
                           * rng.choice([1e-3, 1.0, 100.0]))) for _ in range(n)]
            if not any(dur > 0.0 for _, dur in segs):
                continue
            ref, got = reference_from_segments(segs), PESignal.from_segments(segs)
            assert got.period is None
            for name in ("breakpoints", "values", "durations"):
                assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
                assert not getattr(got, name).flags.writeable

    @pytest.mark.parametrize("segs", [
        [(1.5, 1.0)], [(0.4, 1.0), (-0.1, 1.0)], [(np.nan, 1.0)],
        [(0.4, 1.0), (1.0, np.nan), (0.4, 1.0)], [(0.4, np.inf), (1.0, 1.0)],
        [(0.4, 1.0), (1.0, 1e-17), (0.4, 1.0)],  # 1.0 + 1e-17 == 1.0
        [(0.4, 0.0)], [(0.4, -1.0)], []])
    def test_raises_where_the_validating_constructor_raises(self, segs):
        with pytest.raises(ValueError):
            reference_from_segments(segs)
        with pytest.raises(ValueError):
            PESignal.from_segments(segs)


@st.composite
def clipped_windows(draw):
    """A periodic or aperiodic signal, with durations on a grid of 1/16 or
    free, and a window [t0, t1] with ends on a grid of 1/32: on a grid
    breakpoint or mid-cell, from negative starts and over several periods."""
    n = draw(st.integers(1, 6))
    values = draw(st.lists(st.sampled_from([0.0, 0.4, 1.0]) | st.floats(0.0, 1.0),
                           min_size=n, max_size=n))
    if draw(st.booleans()):
        durations = [c / 16 for c in draw(st.lists(st.integers(1, 40), min_size=n, max_size=n))]
    else:
        durations = draw(st.lists(st.floats(0.05, 2.0), min_size=n, max_size=n))
    period = sum(durations) if draw(st.booleans()) else None
    s = PESignal.from_segments(zip(values, durations), period=period)
    t0 = draw(st.integers(-160, 160)) / 32
    return s, t0, t0 + draw(st.integers(0, 320)) / 32


class TestClippedSegments:
    """``segments`` walks the stored segments and clips the first and last
    piece to the window."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=clipped_windows())
    def test_pieces_are_the_stored_segments(self, case):
        s, t0, t1 = case
        pieces = s.segments(t0, t1)
        if t0 == t1:
            assert pieces == []
            return
        durations = [dur for _, dur in pieces]
        assert sum(durations) == pytest.approx(t1 - t0, rel=1e-12, abs=1e-12)
        starts = t0 + np.concatenate([[0.0], np.cumsum(durations)[:-1]])
        for (v, dur), a in zip(pieces, starts):
            assert dur > 0.0 and v == value_at(s, a + dur / 2)
        # every piece but the first and the last is a whole stored segment,
        # in the order of the signal: periodic, or a run of the finite ones
        stored = list(zip(s.values.tolist(), s.durations.tolist()))
        inner = pieces[1:-1]
        if s.period is not None:
            runs = [(stored * (len(inner) // len(stored) + 2))[i:i + len(inner)]
                    for i in range(len(stored))]
        else:
            runs = [stored[i:i + len(inner)] for i in range(len(stored) - len(inner) + 1)]
        assert inner in runs

    def test_one_period_is_period_segments(self):
        s = PESignal.from_segments([(1.0, 0.1), (0.0, 0.2), (1.0, 0.3), (0.4, 0.7)], period=1.3)
        assert s.segments(0.0, s.period) == s.period_segments()
        assert s.segments(2 * s.period, 3 * s.period) == s.period_segments()


class TestExplicitDurations:
    """The durations that ``from_segments`` keeps must be finite and end at
    the period, to within rounding; rates read only the durations.  Each
    rejected input raises the message it raised when the constructor also
    took durations."""

    @pytest.mark.parametrize("durations, match", [
        ([0.5, -0.5], "nonnegative"),
        ([np.nan, 0.5], "non-finite signal data"),  # a breakpoint is nan
        ([0.5, 0.0], "not the period"),  # the empty segment is dropped
        ([np.inf, 0.5], "non-finite signal data"),
        ([0.5, np.inf], "positive and finite"),
        ([0.5, np.nan], "positive and finite"),
        ([0.5, 0.5 + 18 * 2.0 ** -53], "not the period"),  # 9 ulps of 1 over 2 segments
        ([0.5, 1.5], "not the period"),
        ([0.5, 0.5 + 1e-9], "not the period"),
    ])
    def test_rejected(self, durations, match):
        with pytest.raises(ValueError, match=match):
            PESignal.from_segments(zip([1.0, 0.0], durations), period=1.0)

    @pytest.mark.parametrize("last", [np.nan, np.inf])
    def test_rejected_aperiodic_last(self, last):
        # the last value of an aperiodic signal runs forever, but its
        # duration must still be a number
        with pytest.raises(ValueError, match="^segment durations must be positive and finite$"):
            PESignal.from_segments([(0.4, 1.0), (1.0, last)])

    @pytest.mark.parametrize("period", [0.0, -1.0, np.nan, np.inf])
    def test_rejected_period(self, period):
        with pytest.raises(ValueError, match="period must be positive and finite"):
            PESignal.from_segments([(1.0, 0.5), (0.0, 0.5)], period=period)

    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_rejected_value(self, value):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            PESignal.from_segments([(1.0, 0.5), (value, 0.5)], period=1.0)

    def test_rounded_total_accepted(self):
        # A total a few ulps off the period is rounding in the sum; 8 ulps
        # of 1 is the most that two segments may miss it by.
        for last in (np.nextafter(0.5, 1.0), np.nextafter(0.5, 0.0), 0.5 + 16 * 2.0 ** -53):
            s = PESignal.from_segments([(1.0, 0.5), (0.0, last)], period=1.0)
            assert s.durations.tolist() == [0.5, last]
        s = PESignal.from_segments([(1.0, 1.0000000000000002)], period=1.0)
        assert s.durations.tolist() == [1.0000000000000002]

    def test_from_segments_keeps_its_durations(self):
        segs = [(1.0, 0.1), (0.0, 0.2), (1.0, 0.3), (0.4, 0.7)]
        s = PESignal.from_segments(segs, period=1.3)
        assert s.period_segments() == segs

    def test_constructor_takes_no_durations(self):
        assert "durations" not in inspect.signature(PESignal).parameters
        assert not hasattr(signals, "_checked_durations")


def scalar_integral(s, t0, t1):
    """Exact integral of a periodic signal over [t0, t1] from the
    antiderivative, one point at a time."""
    per = s.period
    cum = np.concatenate([[0.0], np.cumsum(s.values * s.durations)])

    def F(x):
        k = np.floor(x / per)
        r = x - k * per
        if r >= per:
            k, r = k + 1, r - per
        i = int(np.searchsorted(s.breakpoints, r, side="right")) - 1
        return k * cum[-1] + cum[i] + s.values[i] * (r - s.breakpoints[i])

    return float(F(t1) - F(t0))


def scalar_validate_pe(s, cls):
    """Reference: every candidate window start in turn, first strict minimum."""
    T = cls.T
    cand = np.concatenate([s.breakpoints, np.mod(s.breakpoints - T, s.period)])
    cand = np.unique(np.mod(cand, s.period))
    worst_t, worst = 0.0, np.inf
    for t in cand:
        val = scalar_integral(s, t, t + T)
        if val < worst:
            worst, worst_t = val, float(t)
    return PEValidation(bool(worst >= cls.mu - EP_TOL), worst_t, float(worst))


@st.composite
def signal_cases(draw):
    """Periodic signals, on a grid (ties between windows) or with free
    durations, against classes at mu in {0.4, 0.95, 1}."""
    n = draw(st.integers(1, 6))
    levels = st.sampled_from([0.0, 0.4, 0.95, 1.0]) | st.floats(0.0, 1.0)
    values = draw(st.lists(levels, min_size=n, max_size=n))
    if draw(st.booleans()):
        durations = [c / 16 for c in draw(st.lists(st.integers(1, 40), min_size=n, max_size=n))]
    else:
        durations = draw(st.lists(st.floats(0.01, 2.0), min_size=n, max_size=n))
    s = PESignal.from_segments(zip(values, durations), period=sum(durations))
    cls = SignalClass(1.0, draw(st.sampled_from([0.4, 0.95, 1.0])))
    return s, cls


class TestValidateAgainstScalarLoop:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=signal_cases(), t=st.floats(-3.0, 6.0), width=st.floats(0.0, 4.0))
    def test_same_verdict_start_and_integral(self, case, t, width):
        s, cls = case
        assert validate_pe(s, cls) == scalar_validate_pe(s, cls)
        assert integral(s, t, t + width) == scalar_integral(s, t, t + width)


def reference_periodic_check(s, cls):
    """``validate_pe``'s periodic branch as a pass over one signal's own
    arrays, the way it was computed before lists were checked together."""
    T, per = cls.T, s.period
    cand = np.concatenate([s.breakpoints, np.mod(s.breakpoints - T, per)])
    cand = np.unique(np.mod(cand, per))
    x = np.array([cand + T, cand])
    cum = np.concatenate([[0.0], np.cumsum(s.values * s.durations)])
    k = np.floor(x / per)
    r = x - k * per
    wrap, under = r >= per, r < 0.0
    k = np.where(wrap, k + 1, np.where(under, k - 1, k))
    r = np.where(wrap, r - per, np.where(under, r + per, r))
    i = np.searchsorted(s.breakpoints, r, side="right") - 1
    end, start = k * cum[-1] + cum[i] + s.values[i] * (r - s.breakpoints[i])
    window = end - start
    j = int(np.argmin(window))
    return PEValidation(bool(window[j] >= cls.mu - EP_TOL), float(cand[j]), float(window[j]))


@st.composite
def periodic_lists(draw):
    """A window length and a list of multi-segment periodic signals of
    varied length and period, on a grid (ties between windows) or free."""
    T = draw(st.sampled_from([1.0, 0.3, 2.5]))
    sigs = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(2, 8))
        values = draw(st.lists(st.sampled_from([0.0, 0.4, 1.0]) | st.floats(0.0, 1.0),
                               min_size=n, max_size=n))
        scale = draw(st.sampled_from([0.05, 0.7, 3.0]))
        if draw(st.booleans()):
            durations = [scale * c / 16 for c in
                         draw(st.lists(st.integers(1, 40), min_size=n, max_size=n))]
        else:
            durations = draw(st.lists(st.floats(0.01 * scale, 2.0 * scale),
                                      min_size=n, max_size=n))
        sigs.append(PESignal.from_segments(zip(values, durations), period=sum(durations)))
    return T, sigs


def bits(x: float) -> str:
    return float(x).hex()


class TestListCheck:
    """One excitation pass over a list gives every signal the verdict, worst
    integral and worst start of a pass over that signal alone."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=periodic_lists())
    def test_matches_one_signal_passes_bit_for_bit(self, case):
        T, sigs = case
        worst, start, _ = signals._least_windows(signals._layout(sigs), SignalClass(T, T))
        refs = [reference_periodic_check(s, SignalClass(T, T)) for s in sigs]
        assert [bits(w) for w in worst] == [bits(r.worst_integral) for r in refs]
        assert [bits(t) for t in start] == [bits(r.worst_window_start) for r in refs]
        # mu at each exact worst integral and one ulp either side of it
        for s, ref in zip(sigs, refs):
            w = ref.worst_integral
            for mu in (np.nextafter(w, -np.inf), w, np.nextafter(w, np.inf)):
                if not 0.0 < mu <= T:
                    continue
                cls = SignalClass(T, float(mu))
                assert signals._pe_valid(sigs, cls) == [
                    r.worst_integral >= cls.mu - EP_TOL for r in refs]
                assert validate_pe(s, cls) == reference_periodic_check(s, cls)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=periodic_lists(), mu=st.sampled_from([0.05, 0.4, 0.95, 1.0]))
    def test_rows_judged_as_their_signals(self, case, mu):
        """Padded rows judged by a class are the rows built without one,
        kept where their signals pass ``_pe_valid``; a padding column past
        the longest row changes no verdict."""
        T, sigs = case
        cls = SignalClass(T, mu * T)
        sizes = np.array([s.values.size for s in sigs])
        vals, durs = np.zeros((len(sigs), sizes.max() + 1)), np.zeros((len(sigs), sizes.max() + 1))
        for i, s in enumerate(sigs):
            vals[i, :s.values.size], durs[i, :s.values.size] = s.values, s.durations
        periods = [s.period for s in sigs]
        built = signals._periodic_rows(vals.copy(), durs.copy(), sizes, periods)
        judged = signals._periodic_rows(vals, durs, sizes, periods, cls)
        assert all(r is not None for r in built)
        for b, j, ok in zip(built, judged, signals._pe_valid(built, cls)):
            assert (j is not None) == ok
            if ok:
                assert j.encoding_key() + j.breakpoints.tobytes() == \
                    b.encoding_key() + b.breakpoints.tobytes()

    def test_empty_list(self):
        assert signals._pe_valid([], CLS) == []

    def test_per_entry_verdicts(self):
        """None for an aperiodic entry, the excitation verdict of each
        periodic one, and True for every periodic entry with no class."""
        good = PESignal.constant(1.0, period=1.0)
        weak = PESignal([0.0, 0.5], [1.0, 0.0], period=1.0)
        loose = PESignal.constant(1.0)
        sigs = [loose, good, weak, loose]
        assert signals._pe_valid(sigs, SignalClass(1.0, 0.6)) == [None, True, False, None]
        assert signals._pe_valid(sigs, None) == [None, True, True, None]
        assert signals._pe_valid([loose], CLS) == [None]


def shifted_signal(s, t0):
    """The periodic signal t -> s(t0 + t)."""
    per = s.period
    events = sorted({float(np.mod(b - t0, per)) for b in s.breakpoints} | {0.0})
    events = [e for e in events if e < per]
    ends = events[1:] + [per]
    return PESignal.from_segments([(value_at(s, t0 + e), end - e) for e, end in zip(events, ends)],
                                  period=per)


class TestValidatePE:
    def test_constant_one(self):
        res = validate_pe(PESignal.constant(1.0, period=2.0), CLS)
        assert res.valid and res.worst_integral == pytest.approx(CLS.T)

    def test_boundary_constant_exact(self):
        # T = 1: the worst window integral of the constant mu/T is exactly mu
        res = validate_pe(PESignal.constant(CLS.floor, period=1.0), CLS)
        assert res.valid
        assert res.worst_integral == CLS.mu

    def test_square_wave_every_window(self):
        s = PESignal([0.0, CLS.mu], [1.0, 0.0], period=CLS.T)
        res = validate_pe(s, CLS)
        assert res.valid
        assert res.worst_integral == pytest.approx(CLS.mu, abs=1e-12)
        # any window start catches exactly mu of on-time
        for t in (0.0, 0.1, 0.37, 0.9):
            assert integral(s, t, t + CLS.T) == pytest.approx(CLS.mu, abs=1e-12)

    def test_invalid_signal(self):
        s = PESignal([0.0, 0.2], [1.0, 0.0], period=1.0)
        res = validate_pe(s, CLS)
        assert not res.valid
        assert res.worst_integral == pytest.approx(0.2, abs=1e-12)

    def test_grid_oracle_agreement(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            s = random_grid_signal(rng, CLS)
            res = validate_pe(s, CLS)
            worst = grid_oracle_worst(s, CLS)
            assert abs(res.worst_integral - worst) <= 1e-6

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            s = random_grid_signal(rng, CLS)
            base = validate_pe(s, CLS)
            for t0 in (0.17, 0.5, 1.31):
                shifted = validate_pe(shifted_signal(s, t0), CLS)
                assert shifted.valid == base.valid
                assert shifted.worst_integral == pytest.approx(
                    base.worst_integral, abs=1e-10)

    def test_aperiodic_raises(self):
        with pytest.raises(ValueError):
            validate_pe(PESignal([0.0], [1.0]), CLS)


class TestReverse:
    def test_constant_fixed_point(self):
        s = PESignal.constant(0.7, period=1.5)
        r = reverse(s)
        np.testing.assert_array_equal(r.values, s.values)
        np.testing.assert_array_equal(r.breakpoints, s.breakpoints)

    def test_square_wave_reflection(self):
        a, tau = 0.25, 1.0
        s = PESignal([0.0, a], [1.0, 0.0], period=tau)
        r = reverse(s)
        np.testing.assert_array_equal(r.breakpoints, [0.0, tau - a])
        np.testing.assert_array_equal(r.values, [0.0, 1.0])

    @staticmethod
    def family():
        # Cells of T/7: the breakpoints are rounded partial sums.
        return bang_bang_family(SignalClass(0.3, 0.12),
                                SearchBudget(time_grid=7, size=24, seed=5))

    def test_involution_exact(self):
        # dyadic data, then rounded breakpoints: both survive the round trip
        # bit for bit, in read-only arrays
        dyadic = PESignal([0.0, 0.25, 0.625], [1.0, 0.0, 0.5], period=2.0)
        for s in [dyadic] + self.family():
            rr = reverse(reverse(s))
            for name in ("values", "durations", "breakpoints"):
                np.testing.assert_array_equal(getattr(rr, name), getattr(s, name))
                assert not getattr(rr, name).flags.writeable
            assert rr.period == s.period

    def test_rejects_aperiodic(self):
        with pytest.raises(ValueError):
            reverse(PESignal([0.0], [1.0]))

    def test_equals_validating_constructor(self):
        for s in self.family():
            r = reverse(s)
            vals, durs = s.values[::-1], s.durations[::-1]
            ref = PESignal.from_segments(zip(vals, durs), period=s.period)
            for name in ("values", "durations", "breakpoints"):
                got, want = getattr(r, name), getattr(ref, name)
                assert (got.dtype, got.shape, got.flags.c_contiguous, got.flags.writeable) \
                    == (want.dtype, want.shape, want.flags.c_contiguous, want.flags.writeable)
                np.testing.assert_array_equal(got, want)
            assert type(r.period) is float and r.period == ref.period
            assert r.encoding_key() == ref.encoding_key()

    def test_reversed_breakpoints_past_the_period_raise(self):
        # The trusted constructor checks only the breakpoints, so its
        # durations need not sum to the period; reversed, the first segment
        # ends past it, and the validating constructor rejects that.
        s = _trusted(np.array([1.0, 0.0]), np.array([0.5, 1.5]), 1.0)
        with pytest.raises(ValueError, match="precede the period"):
            reverse(s)

    def test_pointwise_reflection(self):
        rng = np.random.default_rng(2)
        s = random_grid_signal(rng, CLS)
        r = reverse(s)
        for t in rng.uniform(0, s.period, 50):
            assert value_at(r, t) == pytest.approx(value_at(s, -t), abs=0)
