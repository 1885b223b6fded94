"""Growth rates of persistently excited closed loops.

Per-signal Lyapunov exponents via monodromy matrices, worst-case
convergence/divergence estimators over finite families of periodic signals,
and the exact algebraic checks that tie a system to its time reversal.

Every period product comes from ``_segment_product``, scaled so that stiff
and long-period signals give finite logarithms.  It evaluates a stack of
gains at once, one ``expm`` per distinct segment for the whole stack, and
each slice equals the one-gain product bit for bit; ``duality_grid`` reads
a whole grid of gains in one pass per side.  Only *top* quantities are
read from it: the log spectral radius and the log 2-norm.  A *bottom*
quantity is the negated top quantity of the reversed tuple
(-A, -B, K, reverse(s)), whose period product is the inverse.  Negation
and ``reverse`` are exact involutions, so the convergence estimate of a
system and the divergence estimate of its reversal on the mirrored family
are one computation and agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .matcore import (as_matrix, multiset_residual, opnorm, parity_matrix,
                      nilpotent_shift, require_square, unit_vector)
from .signals import PESignal, SignalClass, reverse, validate_pe

__all__ = [
    "SearchBudget",
    "RateEstimate",
    "Monodromy",
    "fundamental_solution",
    "monodromy",
    "lyap_exponents",
    "constant_family",
    "bang_bang_family",
    "mirror_family",
    "rc_estimate",
    "rd_estimate",
    "duality_check",
    "DualityReport",
    "duality_grid",
    "DualityGridReport",
    "family_rates",
    "FamilyRates",
    "delta_quantities",
    "DeltaReport",
    "shift_law_check",
    "ShiftLawReport",
    "coordinate_invariance_check",
    "CoordinateInvarianceReport",
    "parity_duality_check",
    "ParityDualityReport",
]

_LN2 = float(np.log(2.0))


def _loop_matrices(A, B, K):
    a = require_square(A, "A")
    b = as_matrix(B, "B")
    k = as_matrix(K, "K")
    if b.shape[0] != a.shape[0] or k.shape != (b.shape[1], a.shape[0]):
        raise ValueError(
            f"inconsistent shapes: A {a.shape}, B {b.shape}, K {k.shape}")
    return a, b, k


def _segment_product(a, bks, segments, table: dict) -> tuple[np.ndarray, list[float]]:
    """Ordered products of the segment exponentials for a stack of gains, as
    ``(Rn, log_scale)`` with ``R[g] = exp(log_scale[g]) Rn[g]``.

    ``bks`` stacks the loop gains ``B K`` as ``(G, d, d)``; one gain is a
    stack of one.  A segment's factor ``e^{M dt}``, ``M = a + value bk``, is
    taken as ``e^{sigma dt} e^{(M - sigma I) dt}`` with sigma the spectral
    abscissa of M, so no factor over- or underflows on its own.  ``table``
    maps each value to ``(M - sigma I, sigma, {dt: e^{(M - sigma I) dt}})``,
    each stacked over the gains, so a distinct segment costs one ``expm``
    call for the whole stack.  The caller owns the table and may share it
    between calls with the same ``(a, bks)``.  Each running product is
    renormalised by its own power of two after every factor, which is exact
    barring underflow of tiny entries.
    """
    g, d = bks.shape[0], a.shape[0]
    rn = np.broadcast_to(np.eye(d), bks.shape)
    shift, exponent = [0.0] * g, [0] * g
    for value, dt in segments:
        if dt == 0.0:
            continue
        entry = table.get(value)
        if entry is None:
            m = a + value * bks
            sigma = np.linalg.eigvals(m).real.max(axis=1)
            entry = table[value] = (m - sigma[:, None, None] * np.eye(d), sigma.tolist(), {})
        generator, sigma, factors = entry
        factor = factors.get(dt)
        if factor is None:
            factor = factors[dt] = scipy.linalg.expm(generator * dt)
        rn = factor @ rn
        e = np.frexp(np.abs(rn).max(axis=(1, 2), keepdims=True))[1]
        rn = np.ldexp(rn, -e)
        for i, eg in enumerate(e.ravel().tolist()):
            shift[i] += sigma[i] * dt
            exponent[i] += eg
    return rn, [sh + ex * _LN2 for sh, ex in zip(shift, exponent)]


def _unscaled(rn: np.ndarray, log_scale: float) -> np.ndarray:
    """``exp(log_scale) rn``, saturating entrywise to 0 or inf, never nan."""
    whole, frac = divmod(log_scale, _LN2)
    with np.errstate(over="ignore"):
        return np.ldexp(rn * np.exp(frac), int(whole))


def _top(rn: np.ndarray, log_scale, tau: float, norm: bool = False) -> list[float]:
    """Per gain, the log spectral radius (or log 2-norm) of
    ``exp(log_scale[g]) rn[g]``, over tau."""
    # scipy's batched svdvals loops over the slices itself, at more than
    # twice the cost of one call per slice.
    peak = (np.array([scipy.linalg.svdvals(r)[0] for r in rn]) if norm
            else np.abs(np.linalg.eigvals(rn)).max(axis=1))
    return ((np.asarray(log_scale) + np.log(peak)) / tau).tolist()


def _period_top(a, bks, s: PESignal, table: dict, norm: bool = False) -> list[float]:
    return _top(*_segment_product(a, bks, s.period_segments(), table), s.period, norm)


def fundamental_solution(A, B, K, s: PESignal, t: float) -> np.ndarray:
    """Solution at time t of R' = (A + alpha(t) B K) R, R(0) = I.

    Exact product of per-segment matrix exponentials over the segments of
    [0, t]; deterministic.  Entries beyond the float range saturate to inf.
    """
    a, b, k = _loop_matrices(A, B, K)
    if t < 0:
        raise ValueError("need t >= 0")
    if t == 0.0:
        return np.eye(a.shape[0])
    rn, log_scale = _segment_product(a, (b @ k)[None], s.segments(0.0, t), {})
    return _unscaled(rn[0], log_scale[0])


@dataclass(frozen=True)
class Monodromy:
    """Fundamental solution over one signal period and the induced rates.

    ``top_rate`` is the log spectral radius of R over the period;
    ``bottom_rate`` is the negated top rate of the reversed tuple, whose
    monodromy is the inverse of R.  They are the extreme Lyapunov exponents
    of the periodic system, and stay finite where R itself saturates.
    """

    R: np.ndarray
    tau: float
    top_rate: float
    bottom_rate: float


def monodromy(A, B, K, s: PESignal) -> Monodromy:
    a, b, k = _loop_matrices(A, B, K)
    if s.period is None:
        raise ValueError("monodromy needs a periodic signal")
    rn, log_scale = _segment_product(a, (b @ k)[None], s.period_segments(), {})
    return Monodromy(R=_unscaled(rn[0], log_scale[0]), tau=s.period,
                     top_rate=_top(rn, log_scale, s.period)[0],
                     bottom_rate=-_period_top(-a, ((-b) @ k)[None], reverse(s), {})[0])


# -- per-vector exponents ---------------------------------------------------


def _modulus_classes(logmods: np.ndarray, tol: float = 1e-7) -> list[float]:
    """Distinct log-modulus levels, descending, clustered within tol."""
    vals = np.sort(logmods)[::-1]
    classes = [[vals[0]]]
    for x in vals[1:]:
        if classes[-1][-1] - x <= tol:
            classes[-1].append(x)
        else:
            classes.append([x])
    return [float(np.mean(c)) for c in classes]


def _spectral_component(r: np.ndarray, thresh: float, x: np.ndarray) -> float:
    """Norm of the component of x in the invariant subspace with |eig| >= thresh."""
    d = r.shape[0]
    t, z, sdim = scipy.linalg.schur(
        r, output="real", sort=lambda re, im: np.hypot(re, im) >= thresh)
    if sdim == 0:
        return 0.0
    if sdim == d:
        return float(np.linalg.norm(x))
    t11 = t[:sdim, :sdim]
    t22 = t[sdim:, sdim:]
    y = scipy.linalg.solve_sylvester(t11, -t22, t[:sdim, sdim:])
    w = z.T @ x
    proj = np.zeros_like(w)
    proj[:sdim] = w[:sdim] + y @ w[sdim:]
    return float(np.linalg.norm(z @ proj))


def _per_vector_exponent(rn: np.ndarray, log_scale: float, tau: float,
                         x0: np.ndarray, tol: float = 1e-9) -> float:
    """Log-modulus class of ``exp(log_scale) rn`` that x0 touches, over tau."""
    classes = _modulus_classes(np.log(np.abs(np.linalg.eigvals(rn))))
    level = classes[-1]
    for i, c in enumerate(classes[:-1]):
        thresh = np.exp(0.5 * (c + classes[i + 1]))
        if _spectral_component(rn, thresh, x0) > tol * np.linalg.norm(x0):
            level = c
            break
    return (level + log_scale) / tau


def lyap_exponents(x0, A, B, K, s: PESignal, horizon: float | None = None):
    """Per-initial-vector exponential growth rate(s).

    Periodic signals: the exponent is read off the monodromy eigenstructure
    (the slowest/fastest classes the vector actually touches), and the upper
    and lower limits coincide.  Aperiodic signals are propagated to
    ``horizon`` with running renormalisation, and the max/min of
    ``log|x(t)|/t`` over the tail of a geometric time grid are returned.
    """
    a, b, k = _loop_matrices(A, B, K)
    x = np.asarray(x0, dtype=float).ravel()
    if x.size != a.shape[0] or np.linalg.norm(x) == 0.0:
        raise ValueError("x0 must be a nonzero vector of matching dimension")
    bks = (b @ k)[None]
    if s.period is not None:
        rn, log_scale = _segment_product(a, bks, s.period_segments(), {})
        lam = _per_vector_exponent(rn[0], log_scale[0], s.period, x)
        return lam, lam
    if horizon is None or horizon <= 0:
        raise ValueError("aperiodic signals need a positive horizon")
    times = np.geomspace(horizon / 256.0, horizon, 48)
    rates = []
    logn = float(np.log(np.linalg.norm(x)))
    cur = x / np.linalg.norm(x)
    prev = 0.0
    table = {}
    for tj in times:
        rn, log_scale = _segment_product(a, bks, s.segments(prev, tj), table)
        cur = rn[0] @ cur
        nrm = np.linalg.norm(cur)
        cur /= nrm
        logn += log_scale[0] + np.log(nrm)
        prev = tj
        rates.append(logn / tj)
    tail = [r for tj, r in zip(times, rates) if tj >= horizon / 2.0]
    return float(max(tail)), float(min(tail))


# -- signal families ---------------------------------------------------------


@dataclass(frozen=True)
class SearchBudget:
    """Shape of the periodic bang-bang search family.

    Periods run over {T, 2T, ..., n_periods*T}; candidates alternate between
    1 and a low level (0 or mu/T) with an even number of switches per period
    (at most max_switches), switching on a uniform grid of ``time_grid``
    cells per window length T.  Candidates failing the excitation check are
    discarded.  Generation is deterministic in ``seed``.
    """

    n_periods: int = 4
    max_switches: int = 6
    time_grid: int = 16
    size: int = 32
    include_constants: bool = True
    seed: int = 0

    def __post_init__(self):
        if min(self.n_periods, self.time_grid, self.size) < 1:
            raise ValueError("n_periods, time_grid and size must be positive")


def constant_family(cls: SignalClass, n: int) -> list[PESignal]:
    """Constant signals on an n-point grid spanning [mu/T, 1]."""
    if n < 1:
        raise ValueError("need n >= 1")
    levels = np.linspace(cls.floor, 1.0, n) if n > 1 else np.array([1.0])
    return [PESignal.constant(float(v), period=cls.T) for v in levels]


def bang_bang_family(cls: SignalClass, budget: SearchBudget) -> list[PESignal]:
    """Deterministic PE-valid family of periodic bang-bang candidates."""
    rng = np.random.default_rng(budget.seed)
    out: list[PESignal] = []
    seen: set[bytes] = set()

    def push(sig: PESignal) -> None:
        key = sig.encoding_key()
        if key in seen:
            return
        if validate_pe(sig, cls).valid:
            seen.add(key)
            out.append(sig)

    if budget.include_constants:
        push(PESignal.constant(1.0, period=cls.T))
        push(PESignal.constant(cls.floor, period=cls.T))
    step = cls.T / budget.time_grid
    halves = max(1, budget.max_switches // 2)
    attempts = 0
    max_attempts = 80 * budget.size
    while len(out) < budget.size and attempts < max_attempts:
        attempts += 1
        mult = int(rng.integers(1, budget.n_periods + 1))
        cells = budget.time_grid * mult
        k = 2 * int(rng.integers(1, halves + 1))
        if k >= cells:
            continue
        idx = np.sort(rng.choice(np.arange(1, cells), size=k - 1, replace=False))
        bounds = np.concatenate([[0], idx, [cells]])
        low = 0.0 if rng.random() < 0.7 else cls.floor
        first_high = bool(rng.random() < 0.5)
        segs = []
        for i in range(k):
            high = (i % 2 == 0) == first_high
            segs.append((1.0 if high else low, (bounds[i + 1] - bounds[i]) * step))
        try:
            push(PESignal.from_segments(segs, period=mult * cls.T))
        except ValueError:
            continue
    fill = 3
    while len(out) < budget.size:
        for v in np.linspace(cls.floor, 1.0, fill):
            push(PESignal.constant(float(v), period=cls.T))
            if len(out) >= budget.size:
                break
        fill += 2
    out.sort(key=lambda s: s.encoding_key())
    return out


def mirror_family(family) -> list[PESignal]:
    """Time reversal of every signal in the family."""
    return [reverse(s) for s in family]


@dataclass(frozen=True)
class RateEstimate:
    """A one-sided bound on a worst-case growth rate.

    ``value`` bounds the true rate from the side named in ``bound``; the
    witnessing signal attains it within the searched family.
    """

    value: float
    bound: str  # "upper" | "lower" | "exact"
    witness: PESignal | None
    method: str

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "bound": self.bound,
            "method": self.method,
            "witness": None if self.witness is None else self.witness.to_json(),
        }


def _resolve_family(cls: SignalClass, family) -> list[PESignal]:
    """The PE-valid periodic signals of a family.  A ``SearchBudget`` family
    is valid by construction; a sequence is validated here, once."""
    if isinstance(family, SearchBudget):
        return bang_bang_family(cls, family)
    sigs = list(family)
    for i, s in enumerate(sigs):
        if s.period is None:
            raise ValueError(f"family[{i}] is not periodic")
    valid = [s for s in sigs if validate_pe(s, cls).valid]
    if not valid:
        raise ValueError("no PE-valid signals in the family")
    return valid


def _signal_rates(a, b, gains, sigs, kind: str, table: dict) -> list[list[float]]:
    """Per gain, the rate of every signal in one stacked pass: the negated
    top exponent (kind "rc"), or the bottom exponent, the negated top
    exponent of the reversed tuple (-a, -b, K, reverse(s)) (kind "rd").
    ``table`` is the factor table of the tuple that is evaluated."""
    if kind == "rd":
        a, b, sigs = -a, -b, [reverse(s) for s in sigs]
    bks = np.stack([b @ k for k in gains])
    tops = [_period_top(a, bks, s, table) for s in sigs]
    return [[-t[g] for t in tops] for g in range(len(gains))]


def _minima(per_gain, sigs, kind: str) -> list[RateEstimate]:
    """Per gain, the family minimum of the signal rates; ties go to the
    smaller encoding key."""
    keys = [s.encoding_key() for s in sigs]
    method = f"{kind}/periodic-monodromy-min/{len(sigs)}"
    out = []
    for values in per_gain:
        best = min(zip(values, keys, sigs), key=lambda e: e[:2])
        out.append(RateEstimate(value=best[0], bound="upper", witness=best[2], method=method))
    return out


def _family_minimum(A, B, K, cls, family, kind: str) -> RateEstimate:
    a, b, k = _loop_matrices(A, B, K)
    sigs = _resolve_family(cls, family)
    return _minima(_signal_rates(a, b, [k], sigs, kind, {}), sigs, kind)[0]


def rc_estimate(A, B, K, cls: SignalClass, family) -> RateEstimate:
    """Upper bound on the worst-case convergence rate.

    Minimises the negated top monodromy exponent over the family; since the
    family is a subset of the signal class, the true rate cannot exceed the
    returned value.  ``family`` is a sequence of periodic signals or a
    ``SearchBudget``.
    """
    return _family_minimum(A, B, K, cls, family, "rc")


def rd_estimate(A, B, K, cls: SignalClass, family) -> RateEstimate:
    """Upper bound on the worst-case divergence rate (bottom exponents)."""
    return _family_minimum(A, B, K, cls, family, "rd")


@dataclass(frozen=True)
class DualityReport:
    """Per-signal inversion residuals plus the aggregate estimate equality."""

    per_signal: tuple  # of (index, period, residual)
    max_residual: float
    rc: RateEstimate
    rd_mirror: RateEstimate
    estimates_equal: bool
    tol: float

    @property
    def ok(self) -> bool:
        return self.max_residual <= self.tol and self.estimates_equal


def duality_check(A, B, K, cls: SignalClass, family, tol: float = 1e-8) -> DualityReport:
    """Verify time-reversal duality on a family of periodic signals.

    For each signal alpha of period tau the product
    ``R(tau; -A,-B,K, alpha_rev) R(tau; A,B,K, alpha)`` must be the identity
    (both factors are computed independently; the residual is reported,
    as inf where the product leaves the float range).  Aggregately, the
    convergence estimate of (A, B, K) and the divergence estimate of
    (-A, -B, K) on the mirrored family must coincide exactly.
    """
    a, b, k = _loop_matrices(A, B, K)
    sigs = _resolve_family(cls, family)
    eye = np.eye(a.shape[0])
    bks, bks_rev = (b @ k)[None], ((-b) @ k)[None]
    table, table_rev = {}, {}
    rows = []
    worst = 0.0
    for i, s in enumerate(sigs):
        rn, log_scale = _segment_product(a, bks, s.period_segments(), table)
        rn_rev, log_scale_rev = _segment_product(
            -a, bks_rev, reverse(s).period_segments(), table_rev)
        prod = _unscaled(rn_rev[0] @ rn[0], log_scale_rev[0] + log_scale[0])
        res = opnorm(prod - eye) if np.isfinite(prod).all() else np.inf
        worst = max(worst, res)
        rows.append((i, s.period, res))
    mirrored = _resolve_family(cls, mirror_family(sigs))
    rc = _minima(_signal_rates(a, b, [k], sigs, "rc", table), sigs, "rc")[0]
    rd = _minima(_signal_rates(-a, -b, [k], mirrored, "rd", {}), mirrored, "rd")[0]
    return DualityReport(per_signal=tuple(rows), max_residual=worst,
                         rc=rc, rd_mirror=rd,
                         estimates_equal=bool(rc.value == rd.value), tol=tol)


@dataclass(frozen=True)
class DualityGridReport:
    """Per gain, ``rc(A, B, K)`` and ``rd(-A, -B, K)`` on the mirrored family."""

    rc: tuple         # of RateEstimate, one per gain
    rd_mirror: tuple  # of RateEstimate, one per gain


def duality_grid(A, B, gains, cls: SignalClass, family) -> DualityGridReport:
    """Time-reversal duality of the estimates over a grid of gains.

    The family and its mirror are validated once each.  ``rc`` is one pass
    over the family with every gain stacked.  ``rd_mirror`` is a second pass
    along ``rd_estimate``'s own path: the negated tuple on the reversed
    mirrored family, with its own factor table.  It never reads the ``rc``
    values, so per-gain equality stays a check of the duality.  Each entry
    equals the corresponding ``rc_estimate``/``rd_estimate`` bit for bit.
    """
    if len(gains) == 0:
        raise ValueError("need at least one gain")
    loops = [_loop_matrices(A, B, K) for K in gains]
    a, b = loops[0][:2]
    ks = [k for _, _, k in loops]
    sigs = _resolve_family(cls, family)
    mirrored = _resolve_family(cls, mirror_family(sigs))
    rc = _minima(_signal_rates(a, b, ks, sigs, "rc", {}), sigs, "rc")
    rd = _minima(_signal_rates(-a, -b, ks, mirrored, "rd", {}), mirrored, "rd")
    return DualityGridReport(rc=tuple(rc), rd_mirror=tuple(rd))


@dataclass(frozen=True)
class DeltaReport:
    """Norm/conorm growth envelopes over a family of periodic signals."""

    delta_hat: RateEstimate        # max of log||R||/tau: lower bound on the sup envelope
    delta_star_hat: RateEstimate   # min of log conorm(R)/tau: upper bound on the inf envelope
    mirror_identity_exact: bool    # delta_star(A,B,K) == -delta_hat(-A,-B,K) on mirrors
    ordered: bool                  # delta_star_hat <= delta_hat


def _delta(a, b, k, sigs, table: dict, mirror_table: dict) -> DeltaReport:
    """``delta_quantities`` on validated signals; ``table`` serves (a, bk)
    and ``mirror_table`` the reversed tuple (-a, -bk)."""
    mirrored = mirror_family(sigs)

    def log_norms(aa, bb, fam, tab):
        bks = (bb @ k)[None]
        return [_period_top(aa, bks, s, tab, norm=True)[0] for s in fam]

    keys = [s.encoding_key() for s in sigs]
    mirror_norms = log_norms(-a, -b, mirrored, mirror_table)
    top = max(zip(log_norms(a, b, sigs, table), keys, sigs), key=lambda e: e[:2])
    bottom = min(zip([-v for v in mirror_norms], keys, sigs), key=lambda e: e[:2])
    delta_hat = RateEstimate(top[0], "lower", top[2], "delta/log-norm-max")
    delta_star = RateEstimate(bottom[0], "upper", bottom[2], "delta*/log-conorm-min")
    mirror_delta = max(mirror_norms)
    return DeltaReport(delta_hat=delta_hat, delta_star_hat=delta_star,
                       mirror_identity_exact=bool(delta_star.value == -mirror_delta),
                       ordered=bool(delta_star.value <= delta_hat.value))


def delta_quantities(A, B, K, cls: SignalClass, family) -> DeltaReport:
    """Extremal log-norm and log-conorm growth over the family.

    The norm envelope is bounded below by the best signal found; the conorm
    envelope is bounded above.  The log conorm of R is the negated log norm
    of its inverse, the monodromy of the reversed tuple.  The conorm
    envelope is read from the norms of the reversed tuple on the mirrored
    family, so the exact mirror identity (the conorm envelope of a system is
    the negated norm envelope of its reversal) holds by construction; it is
    still reported, as ``mirror_identity_exact``.
    """
    a, b, k = _loop_matrices(A, B, K)
    return _delta(a, b, k, _resolve_family(cls, family), {}, {})


@dataclass(frozen=True)
class FamilyRates:
    """Per-signal monodromy rates of a family and the estimates they give."""

    signals: tuple       # the PE-valid signals, in family order
    top_rates: tuple     # Monodromy.top_rate of each signal
    bottom_rates: tuple  # Monodromy.bottom_rate of each signal
    rc: RateEstimate
    rd: RateEstimate
    delta: DeltaReport


def family_rates(A, B, K, cls: SignalClass, family) -> FamilyRates:
    """Per-signal rates with ``rc``, ``rd`` and the delta envelopes.

    The family is validated once.  One factor table serves (A, BK): the top
    rates, ``rc`` and the norm envelope.  One serves the reversed tuple
    (-A, -BK): the bottom rates, ``rd`` and the conorm envelope.  Every value
    equals what ``monodromy``, ``rc_estimate``, ``rd_estimate`` and
    ``delta_quantities`` give on their own, bit for bit.
    """
    a, b, k = _loop_matrices(A, B, K)
    sigs = _resolve_family(cls, family)
    table, table_rev = {}, {}
    neg_tops = _signal_rates(a, b, [k], sigs, "rc", table)
    bottoms = _signal_rates(a, b, [k], sigs, "rd", table_rev)
    return FamilyRates(signals=tuple(sigs), top_rates=tuple(-v for v in neg_tops[0]),
                       bottom_rates=tuple(bottoms[0]),
                       rc=_minima(neg_tops, sigs, "rc")[0], rd=_minima(bottoms, sigs, "rd")[0],
                       delta=_delta(a, b, k, sigs, table, table_rev))


@dataclass(frozen=True)
class ShiftLawReport:
    shift: float
    top_rate_residual: float
    bottom_rate_residual: float
    exponent_residual: float
    rc_shift_residual: float | None


def shift_law_check(A, B, K, shift: float, s: PESignal, x0,
                    cls: SignalClass | None = None, family=None) -> ShiftLawReport:
    """Exponents must shift by exactly ``shift`` under A -> A + shift*I.

    Checks the top/bottom monodromy rates and the per-vector exponent of
    ``x0``; optionally also the convergence estimate over a family (which
    shifts the other way).
    """
    a, b, k = _loop_matrices(A, B, K)
    d = a.shape[0]
    shifted = a + shift * np.eye(d)
    m0 = monodromy(a, b, k, s)
    m1 = monodromy(shifted, b, k, s)
    l0 = lyap_exponents(x0, a, b, k, s)[0]
    l1 = lyap_exponents(x0, shifted, b, k, s)[0]
    rc_res = None
    if family is not None:
        if cls is None:
            raise ValueError("family checks need the signal class")
        rc0 = rc_estimate(a, b, k, cls, family).value
        rc1 = rc_estimate(shifted, b, k, cls, family).value
        rc_res = abs(rc1 - (rc0 - shift))
    return ShiftLawReport(
        shift=float(shift),
        top_rate_residual=abs(m1.top_rate - (m0.top_rate + shift)),
        bottom_rate_residual=abs(m1.bottom_rate - (m0.bottom_rate + shift)),
        exponent_residual=abs(l1 - (l0 + shift)),
        rc_shift_residual=rc_res)


@dataclass(frozen=True)
class CoordinateInvarianceReport:
    spectral_residual: float     # relative multiset distance of monodromy spectra
    conjugacy_residual: float    # relative ||R' - P R P^-1||
    top_rate_difference: float
    bottom_rate_difference: float


def coordinate_invariance_check(A, B, K, P, V, s: PESignal) -> CoordinateInvarianceReport:
    """Per-signal rates are unchanged by x -> Px, u -> Vu.

    The transformed loop has monodromy ``P R P^-1``; spectra agree as
    multisets, so the exponents agree while norms may not.
    """
    a, b, k = _loop_matrices(A, B, K)
    p = require_square(P, "P")
    v = require_square(V, "V")
    pinv = np.linalg.inv(p)
    vinv = np.linalg.inv(v)
    m = monodromy(a, b, k, s)
    m2 = monodromy(p @ a @ pinv, p @ b @ vinv, v @ k @ pinv, s)
    conj = p @ m.R @ pinv
    ev0 = np.linalg.eigvals(m.R)
    ev2 = np.linalg.eigvals(m2.R)
    rel = multiset_residual(ev2, ev0) / (1.0 + float(np.max(np.abs(ev0))))
    return CoordinateInvarianceReport(
        spectral_residual=rel,
        conjugacy_residual=opnorm(m2.R - conj) / (1.0 + opnorm(conj)),
        top_rate_difference=abs(m2.top_rate - m.top_rate),
        bottom_rate_difference=abs(m2.bottom_rate - m.bottom_rate))


@dataclass(frozen=True)
class ParityDualityReport:
    K_minus: np.ndarray
    per_signal: tuple  # of (index, period, residual)
    max_residual: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.max_residual <= self.tol


def parity_duality_check(K, family, cls: SignalClass | None = None,
                         tol: float = 1e-8) -> ParityDualityReport:
    """Spectral inversion between a companion gain and its parity conjugate.

    For the chain pair (J, e_d) and a gain K with all components nonzero,
    the gain ``K_minus = (-1)^d K D`` (D the alternating parity matrix)
    satisfies: the monodromy spectrum of (J, e_d, K_minus) under the
    reversed signal is the elementwise inverse of the spectrum of
    (J, e_d, K) under the original.  Checked per signal via multiset
    matching.
    """
    k = as_matrix(K, "K").reshape(-1)
    d = k.size
    if np.any(k == 0.0):
        raise ValueError("all components of K must be nonzero")
    if d < 2:
        raise ValueError("need d >= 2")
    parity = parity_matrix(d)
    k_minus = ((-1.0) ** d) * (k @ parity)
    j = nilpotent_shift(d)
    ed = unit_vector(d, d - 1).reshape(d, 1)
    bks, bks_minus = (ed @ k.reshape(1, d))[None], (ed @ k_minus.reshape(1, d))[None]
    table, table_minus = {}, {}
    rows = []
    worst = 0.0
    for i, s in enumerate(family):
        if s.period is None:
            raise ValueError(f"family[{i}] is not periodic")
        if cls is not None and not validate_pe(s, cls).valid:
            raise ValueError(f"family[{i}] fails the excitation check")
        rn, log_scale = _segment_product(j, bks, s.period_segments(), table)
        rn_minus, log_scale_minus = _segment_product(
            j, bks_minus, reverse(s).period_segments(), table_minus)
        ev = np.linalg.eigvals(_unscaled(rn[0], log_scale[0]))
        ev_minus = np.linalg.eigvals(_unscaled(rn_minus[0], log_scale_minus[0]))
        res = multiset_residual(ev_minus, 1.0 / ev)
        worst = max(worst, res)
        rows.append((i, s.period, float(res)))
    return ParityDualityReport(K_minus=k_minus, per_signal=tuple(rows),
                               max_residual=worst, tol=tol)
