"""Piecewise-constant persistently exciting signals.

A signal is a right-continuous step function alpha with values in [0, 1].
``SignalClass(T, mu)`` describes the excitation constraint: the integral of
alpha over every window of length T must be at least mu.  Periodic signals
carry an explicit period and are the workhorses of the growth-rate search;
only they are checked for excitation and reversed.  Aperiodic signals extend
their end values and are only read over finite spans.

Segment durations are stored alongside breakpoints, the one record of the
segments' lengths: reversal, the worst-window search and the segment lists
read them, which keeps time reversal an exact involution in floating point.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .matcore import _json_number

__all__ = [
    "SignalClass",
    "PESignal",
    "PEValidation",
    "validate_pe",
    "reverse",
]

# Absolute slack on the window-integral constraint; boundary constructions
# such as the constant mu/T sit exactly on it.
EP_TOL = 1e-12


@dataclass(frozen=True)
class SignalClass:
    """Excitation parameters: window length T and window energy mu, 0 < mu <= T."""

    T: float
    mu: float

    def __post_init__(self):
        if not (0.0 < self.mu <= self.T) or not np.isfinite(self.T):
            raise ValueError(f"need 0 < mu <= T, got T={self.T}, mu={self.mu}")

    @property
    def floor(self) -> float:
        """Smallest admissible constant value, mu/T."""
        return self.mu / self.T


@dataclass(frozen=True)
class PESignal:
    """Piecewise-constant signal.

    ``values[i]`` holds on ``[breakpoints[i], breakpoints[i+1])``; the last
    segment runs to ``period`` for periodic signals and extends forever for
    aperiodic ones.  Periodic signals must start at breakpoint 0.  The
    constructor works out ``durations`` from the breakpoints (and the
    period); ``from_segments`` keeps the durations it is given.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    period: float | None = None
    durations: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        bk = np.asarray(self.breakpoints, dtype=float).ravel()
        vals = np.asarray(self.values, dtype=float).ravel()
        if bk.size == 0 or bk.size != vals.size:
            raise ValueError("need one value per breakpoint, at least one segment")
        if not np.all(np.isfinite(bk)) or not np.all(np.isfinite(vals)):
            raise ValueError("non-finite signal data")
        if np.any(np.diff(bk) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if np.any(vals < 0.0) or np.any(vals > 1.0):
            raise ValueError("signal values must lie in [0, 1]")
        if self.period is not None:
            per = float(self.period)
            if not (per > 0.0 and np.isfinite(per)):
                raise ValueError("period must be positive and finite")
            if bk[0] != 0.0:
                raise ValueError("periodic signals must start at breakpoint 0")
            if bk[-1] >= per:
                raise ValueError("last breakpoint must precede the period")
            durs = np.concatenate([np.diff(bk), [per - bk[-1]]])
        else:
            durs = np.diff(bk)
        object.__setattr__(self, "breakpoints", _freeze(bk))
        object.__setattr__(self, "values", _freeze(vals))
        object.__setattr__(self, "durations", _freeze(durs))
        if self.period is not None:
            object.__setattr__(self, "period", float(self.period))

    # -- construction -----------------------------------------------------

    @classmethod
    def from_segments(cls, segments, period: float | None = None) -> "PESignal":
        """Build from (value, duration) pairs, merging equal neighbours and
        dropping zero-length segments.  Every duration must be finite, the
        last one of an aperiodic signal too, though it runs forever.  A
        periodic signal keeps the merged durations, which must add up to the
        period to within rounding (``_PERIOD_ULPS``)."""
        vals: list[float] = []
        durs: list[float] = []
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
        if period is not None:
            period = float(period)
            if not (period > 0.0 and math.isfinite(period)):
                raise ValueError("period must be positive and finite")
        if not math.isfinite(durs[-1]):  # the others reach _trusted's breakpoints
            raise ValueError("segment durations must be positive and finite")
        out = _trusted(vals, durs, period)
        if period is None:
            return out
        total = out.breakpoints[-1] + durs[-1]
        if abs(total - period) > _PERIOD_ULPS * len(durs) * math.ulp(period):
            raise ValueError(f"durations add up to {float(total)!r}, not the period {period!r}")
        return out

    @classmethod
    def constant(cls, value: float, period: float | None = None) -> "PESignal":
        return cls(np.array([0.0]), np.array([value]), period)

    # -- basic queries -----------------------------------------------------

    @property
    def n_segments(self) -> int:
        return int(self.values.size)

    def segments(self, t0: float, t1: float):
        """(value, duration) pairs covering [t0, t1], in time order: the
        stored segments, a periodic signal's period by period and an
        aperiodic one's with its end values extended, the first and the last
        clipped to the span.  A whole segment keeps its stored duration, so
        ``segments(0, period)`` is ``period_segments()``."""
        if t1 < t0:
            raise ValueError("need t1 >= t0")
        if t1 == t0:
            return []
        vals, bk, durs = self.values.tolist(), self.breakpoints.tolist(), self.durations.tolist()
        if self.period is None:  # (value, start, end, stored duration)
            walk = [(vals[0], -math.inf, bk[0], math.inf),
                    *zip(vals, bk, bk[1:] + [math.inf], durs + [math.inf])]
        else:  # from one period early, in case t0 / per rounds up onto an integer
            per = self.period
            walk = (seg for k in range(math.floor(t0 / per) - 1, math.floor(t1 / per) + 2)
                    for seg in zip(vals, [b + k * per for b in bk],
                                   [b + k * per for b in bk[1:]] + [(k + 1) * per], durs))
        out = []
        for v, a, b, dur in walk:
            if a >= t1:
                break
            if b > t0:
                out.append((v, dur if t0 <= a and b <= t1 else min(b, t1) - max(a, t0)))
        return out

    def period_segments(self):
        """(value, duration) pairs for exactly one period, no rounding."""
        if self.period is None:
            raise ValueError("signal is not periodic")
        return list(zip(self.values.tolist(), self.durations.tolist()))

    def encoding_key(self) -> bytes:
        """Deterministic byte encoding (values, durations, period)."""
        per = -1.0 if self.period is None else self.period
        return (np.ascontiguousarray(self.values).tobytes()
                + np.ascontiguousarray(self.durations).tobytes()
                + struct.pack("<d", per))

    # -- serialisation -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "breakpoints": [float(b) for b in self.breakpoints],
            "values": [float(v) for v in self.values],
            "period": None if self.period is None else float(self.period),
        }

    @classmethod
    def from_json(cls, obj) -> "PESignal":
        """The signal of ``to_json``'s object: flat lists of finite numbers
        and a finite period or null, by ``matcore._json_number``."""
        try:
            bk, vals, per = obj["breakpoints"], obj["values"], obj.get("period")
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed signal object: {obj!r}") from exc
        if not (isinstance(bk, list) and isinstance(vals, list)
                and all(map(_json_number, bk + vals)) and (per is None or _json_number(per))):
            raise ValueError(f"malformed signal object: {obj!r}")
        return cls(np.asarray(bk, dtype=float), np.asarray(vals, dtype=float), per)


# ``from_segments``' durations may miss the period by rounding in their sum;
# family candidates merged into one segment miss it by up to 2 ulps per segment.
_PERIOD_ULPS = 4


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PEValidation:
    valid: bool
    worst_window_start: float
    worst_integral: float


def validate_pe(s: PESignal, cls: SignalClass) -> PEValidation:
    """Check the excitation constraint of a periodic signal: every length-T
    window integrates to >= mu.

    For a piecewise-constant signal the window integral is piecewise linear
    in the window start, so the minimum is attained where the start or the
    end of the window hits a breakpoint; only that finite candidate set is
    evaluated, over one period, and the first minimal start is reported.
    The signal is checked as the one row of the pass that checks a whole
    list (``_least_windows``).
    """
    if s.period is None:
        raise ValueError("the excitation check is defined for periodic signals only")
    worst, start, valid = _least_windows(_layout([s]), cls)
    return PEValidation(valid=bool(valid[0]),
                        worst_window_start=float(start[0]),
                        worst_integral=float(worst[0]))


def _pe_valid(sigs, cls: SignalClass | None) -> list[bool | None]:
    """Per entry of a list, None for an aperiodic signal, else
    ``validate_pe(s, cls).valid``, or True when there is no class; one pass
    checks every periodic entry."""
    periodic = [s for s in sigs if s.period is not None]
    verdicts = iter([True] * len(periodic) if cls is None or not periodic
                    else _least_windows(_layout(periodic), cls)[2].tolist())
    return [None if s.period is None else next(verdicts) for s in sigs]


def _least_windows(layout, cls: SignalClass) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The least length-T window integral of every row of a non-empty
    layout (``_layout``), the first window start that attains it, and the
    excitation verdict that this integral gives, in one pass.  The padding
    breakpoints are read as 0 while the candidate starts are formed, which
    only repeats real candidates."""
    bk, per = layout[0], layout[-1]
    bk = np.where(bk < np.inf, bk, 0.0)
    cand = np.mod(np.concatenate([bk, np.mod(bk - cls.T, per)], axis=1), per)
    cand.sort(axis=1)
    at = _periodic_antiderivative(layout, np.concatenate([cand + cls.T, cand], axis=1))
    half = cand.shape[1]
    window = at[:, :half] - at[:, half:]
    first = np.argmin(window, axis=1)
    rows = np.arange(len(window))
    worst = window[rows, first]
    return worst, cand[rows, first], worst >= cls.mu - EP_TOL


def _layout(sigs):
    """Periodic signals padded to one ``(S, n)`` layout (``_rows_layout``).
    Each real entry goes through the floating-point operations of a pass
    over its signal alone, so a result does not depend on which signals
    share the layout."""
    sizes = np.array([s.values.size for s in sigs])[:, None]
    real = np.arange(sizes.max()) < sizes
    bk, vals, durs = (np.full(real.shape, fill) for fill in (np.inf, 0.0, 0.0))
    bk[real] = np.concatenate([s.breakpoints for s in sigs])
    vals[real] = np.concatenate([s.values for s in sigs])
    durs[real] = np.concatenate([s.durations for s in sigs])
    return _rows_layout(bk, vals, durs, [s.period for s in sigs])


def _rows_layout(bk, vals, durs, periods):
    """The layout of padded ``(S, n)`` breakpoints, values and durations:
    the breakpoints, padded with +inf, which no remainder reaches, the
    values, the integral from 0 to each breakpoint and to the period
    (values and durations are padded with zeros, which leave it as it is)
    and the periods, shaped ``(S, 1)``."""
    cum = np.concatenate([np.zeros((len(vals), 1)), np.cumsum(vals * durs, axis=1)], axis=1)
    return bk, vals, cum, np.asarray(periods, dtype=float)[:, None]


def _periodic_antiderivative(layout, x: np.ndarray) -> np.ndarray:
    """Exact integral from 0 to each entry of row s of x, of signal s of a
    ``_layout``."""
    bk, vals, cum, per = layout
    k = np.floor(x / per)
    r = x - k * per
    # floating wrap guards: x / per can round onto the next or the previous
    # integer, leaving r a rounding error past either end of [0, per)
    wrap, under = r >= per, r < 0.0
    if wrap.any() or under.any():
        k = np.where(wrap, k + 1, np.where(under, k - 1, k))
        r = np.where(wrap, r - per, np.where(under, r + per, r))
    # searchsorted(side="right") of each remainder in its row's breakpoints:
    # a stable sort puts every breakpoint before the remainders equal to it.
    order = np.argsort(np.concatenate([bk, r], axis=1), axis=1, kind="stable")
    rows = np.arange(len(x))[:, None]
    seen = np.empty(order.shape, dtype=np.intp)
    seen[rows, order] = np.cumsum(order < bk.shape[1], axis=1)
    i = seen[:, bk.shape[1]:] - 1
    return k * cum[:, -1:] + cum[rows, i] + vals[rows, i] * (r - bk[rows, i])


def reverse(s: PESignal) -> PESignal:
    """Time reversal t -> alpha(-t) of a periodic signal.

    Implemented by reversing the segment (value, duration) list, so applying
    it twice reproduces the original values and durations bit for bit.
    """
    return _reversed([s])[0]


def _reversed(sigs) -> list[PESignal]:
    """``reverse`` of every signal of a list, in one pass over padded
    ``(S, n)`` value and duration arrays (``_periodic_rows``).  A signal
    whose reversal fails a check goes to the validating constructor, which
    raises."""
    if any(s.period is None for s in sigs):
        raise ValueError("time reversal is defined for periodic signals only")
    if not sigs:
        return []
    sizes = np.array([s.values.size for s in sigs])
    real = np.arange(sizes.max()) < sizes[:, None]
    vals, durs = np.zeros(real.shape), np.zeros(real.shape)
    vals[real] = np.concatenate([s.values[::-1] for s in sigs])
    durs[real] = np.concatenate([s.durations[::-1] for s in sigs])
    out = _periodic_rows(vals, durs, sizes, [s.period for s in sigs])
    return [r if r is not None
            else _trusted(s.values[::-1].tolist(), s.durations[::-1].tolist(), s.period)
            for r, s in zip(out, sigs)]


def _periodic_rows(vals, durs, sizes, periods, cls: SignalClass | None = None
                   ) -> list[PESignal | None]:
    """The periodic signals of padded ``(S, n)`` value and duration arrays:
    signal i has the first ``sizes[i]`` entries of row i (the padding is
    zero) and the period ``periods[i]``.  The breakpoints are ``np.cumsum``
    along the rows, which adds in the order of a partial sum in Python, and
    the checks of the validating constructor (values in [0, 1], finite and
    increasing breakpoints, the last one before the period) run on the
    whole array; given a class, so does the excitation check of
    ``validate_pe``, on the rows that pass them.  The rows of the frozen
    arrays are the fields of a signal that passes; a row that fails a check
    is ``None``.  The durations are kept as given and their sum is not
    checked against the period."""
    sizes = np.asarray(sizes)
    periods = np.asarray(periods, dtype=float)
    rows = np.arange(len(sizes))
    real = np.arange(vals.shape[1]) < sizes[:, None]
    bk = np.zeros(vals.shape)
    np.cumsum(durs[:, :-1], axis=1, out=bk[:, 1:])
    last = bk[rows, sizes - 1]
    # the zero padding is a valid value and is exempt from the gap check
    trusted = (((vals >= 0.0) & (vals <= 1.0)).all(axis=1)
               & ((bk[:, 1:] - bk[:, :-1] > 0.0) | ~real[:, 1:]).all(axis=1)
               & np.isfinite(last) & (last < periods))
    at = np.flatnonzero(trusted)
    if cls is not None and at.size:
        layout = _rows_layout(np.where(real, bk, np.inf)[at], vals[at], durs[at], periods[at])
        trusted[at] = _least_windows(layout, cls)[2]
    for a in (bk, vals, durs):
        a.setflags(write=False)
    out = []
    for i, n, per, ok in zip(rows.tolist(), sizes.tolist(), periods.tolist(), trusted.tolist()):
        if not ok:
            out.append(None)
            continue
        r = object.__new__(PESignal)
        object.__setattr__(r, "breakpoints", bk[i, :n])
        object.__setattr__(r, "values", vals[i, :n])
        object.__setattr__(r, "durations", durs[i, :n])
        object.__setattr__(r, "period", per)
        out.append(r)
    return out


def _trusted(vals, durs, period: float | None = None) -> PESignal:
    """The signal of segment values and positive durations, given as short
    sequences by a caller that has checked them.  The breakpoints are the
    partial sums in Python, which add in the order of ``np.cumsum``, and the
    values, the gaps between breakpoints and, for a periodic signal, the
    last breakpoint's place before the period are checked there, at less
    cost than numpy calls on a few entries.  A periodic signal keeps the
    given durations, an aperiodic one gets the gaps.  If a check fails, the
    validating constructor, given the breakpoints, raises; else the fields
    are frozen as ``__post_init__`` freezes them."""
    bk = [0.0]
    for dur in durs[:-1]:
        bk.append(bk[-1] + dur)
    gaps = [b - a for a, b in zip(bk, bk[1:])]
    if (not all(0.0 <= v <= 1.0 for v in vals) or not math.isfinite(bk[-1])
            or not all(g > 0.0 for g in gaps) or not (period is None or bk[-1] < period)):
        return PESignal(np.array(bk), vals, period)
    out = object.__new__(PESignal)
    object.__setattr__(out, "breakpoints", _freeze(np.array(bk)))
    object.__setattr__(out, "values", _freeze(np.array(vals)))
    object.__setattr__(out, "durations", _freeze(np.array(gaps if period is None else durs)))
    object.__setattr__(out, "period", None if period is None else float(period))
    return out
