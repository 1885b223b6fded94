"""Growth rates of persistently excited closed loops.

Per-signal rates via monodromy matrices, worst-case convergence/divergence
estimators over finite families of periodic signals, and the exact
algebraic checks that tie a system to its time reversal.  The exponent of
one initial vector, which ``shift_law_check`` compares across a shift of A,
is read off the invariant subspaces of the monodromy.

Every period product comes from ``_family_product``, scaled so that stiff
and long-period signals give finite logarithms.  It evaluates a whole
family of signals against a stack of gains in one lockstep pass, a pure
function of the loop and the family.  One ``_expm_stack`` call per pass
exponentiates each distinct segment once, for all the gains, with
``scipy.linalg.expm``'s bits, and each slice equals the product of that one
signal and gain bit for bit.  A pass computes each distinct row, a signal's
``(value, duration)`` segments with its period, once.  Each estimator
computes a family's products once per orientation and reads them in
batches.  Only *top* quantities are read from them: the log spectral radius
and the log 2-norm.  A *bottom* quantity is the negated top quantity of the
reversed tuple (-A, -B, K, reverse(s)), whose period product is the
inverse.  Negation and ``reverse`` are exact involutions, so the
convergence estimate of a system and the divergence estimate of its
reversal on the mirrored family are one computation and agree bit for bit.
The duality checks read both from one pass over the family and the
reversed mirror.  Where the double reversal gives the family back bit for
bit, the mirror's rows are the family's rows; a row whose value, duration
or period it changes is a row of its own, so the equality still checks the
reversal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matcore import (_integer_arg, as_matrix, closed_loop, multiset_residual, opnorm,
                      parity_matrix, nilpotent_shift, require_square, unit_vector)
from .signals import _PERIOD_ULPS, PESignal, SignalClass, _pe_valid, _periodic_rows, _reversed

__all__ = [
    "SearchBudget",
    "RateEstimate",
    "Monodromy",
    "fundamental_solution",
    "monodromy",
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
    "DeltaReport",
    "shift_law_check",
    "ShiftLawReport",
    "coordinate_invariance_check",
    "CoordinateInvarianceReport",
    "parity_duality_check",
    "ParityDualityReport",
]

_LN2 = float(np.log(2.0))


def _expm_stack(x: np.ndarray) -> np.ndarray:
    """``scipy.linalg.expm`` of every ``(d, d)`` slice of ``x``, bit for bit.

    ``scipy.linalg.expm`` handles a stack one slice at a time and spends
    most of each slice on Python around its Padé kernels.  Here its branches
    run on the whole stack.  A diagonal slice (every slice at d = 1) is the
    exp of its diagonal.  Every other slice goes through scipy's private
    kernels in place in one workspace: ``pick_pade_structure`` scales it and
    picks the Padé order, ``pade_UV_calc`` evaluates the approximant.  The
    squarings run batched, one matrix product per level.  A triangular
    slice follows scipy's triangular branch (Al-Mohy and Higham, SIAM J.
    Matrix Anal. Appl. 31(3), 2009, Code Fragment 2.1): its diagonal and
    first off-diagonal are reset from the exact formulas before the first
    squaring (the diagonal only) and after each, and the other triangle is
    zeroed at the end.

    The kernels are private to scipy (``scipy.linalg._matfuncs_expm`` in
    scipy 1.17); the tests check the bits against ``scipy.linalg.expm``.
    If they cannot be imported or called, or a kernel reports a failure,
    the whole stack goes to ``scipy.linalg.expm``, which gives the same
    bits more slowly, or raises scipy's own error.  scipy is imported here,
    so a run that never forms a product never loads it."""
    import scipy.linalg

    flat = x.reshape(-1, *x.shape[-2:])
    d = flat.shape[-1]
    below = np.tril(flat, -1).any(axis=(1, 2))
    above = np.triu(flat, 1).any(axis=(1, 2))
    eye = np.arange(d)
    out = np.zeros_like(flat)
    diagonal = np.flatnonzero(~(below | above))[:, None]
    out[diagonal, eye, eye] = np.exp(flat[diagonal, eye, eye])
    at = np.flatnonzero(below | above)
    work = np.empty((at.size, 5, d, d))
    work[:, 0] = flat[at]
    squarings = _pade(work)
    if squarings is None:
        return scipy.linalg.expm(x)
    e = work[:, 0]
    # the triangular slices: diagonals, first off-diagonals and their places
    tri = np.flatnonzero(~(below & above)[at])
    upper = ~below[at[tri]]
    rows = np.where(upper[:, None], eye[:-1], eye[1:])
    cols = np.where(upper[:, None], eye[1:], eye[:-1])
    diag = flat[at[tri, None], eye, eye]
    off = flat[at[tri, None], rows, cols]
    tri_s = squarings[tri]
    live = np.flatnonzero(tri_s > 0)
    e[tri[live, None], eye, eye] = np.exp(diag[live] * np.ldexp(1.0, -tri_s[live])[:, None])
    for level in range(1, squarings.max(initial=0) + 1):
        i = np.flatnonzero(squarings >= level)
        e[i] = e[i] @ e[i]
        live = np.flatnonzero(tri_s >= level)
        if not live.size:
            continue
        scale = np.ldexp(1.0, level - tri_s[live])[:, None]
        arg = diag[live] * scale
        exp_arg = np.exp(arg)
        e[tri[live, None], eye, eye] = exp_arg
        # scipy's _exp_sinch along the rows: divided differences of exp
        gap = np.diff(arg, axis=1)
        sinch = np.divide(np.diff(exp_arg, axis=1), gap, out=exp_arg[:, :-1].copy(),
                          where=gap != 0.0)
        e[tri[live, None], rows[live], cols[live]] = sinch * (off[live] * scale)
    e[tri[upper]] = np.triu(e[tri[upper]])
    e[tri[~upper]] = np.tril(e[tri[~upper]])
    out[at] = e
    return out.reshape(x.shape)


def _pade(work: np.ndarray) -> np.ndarray | None:
    """scipy's scaling and Padé step on each slice ``work[j, 0]``, in place
    in the slice's ``(5, d, d)`` workspace ``work[j]``: the number of
    squarings of every slice, or None if scipy's private kernels cannot be
    imported or called or a kernel reports a failure."""
    try:
        from scipy.linalg._matfuncs_expm import pade_UV_calc, pick_pade_structure

        squarings = np.zeros(len(work), dtype=np.intp)
        for j, w in enumerate(work):
            order, squarings[j] = pick_pade_structure(w)
            if order < 0 or pade_UV_calc(w, order) != 0:
                return None
    except (ImportError, AttributeError, TypeError):
        return None
    return squarings


def _family_product(a, bks, family) -> tuple[np.ndarray, np.ndarray]:
    """Ordered products of the segment exponentials of every row and gain,
    as ``(Rn, log_scale)`` with ``R[s, g] = exp(log_scale[s, g]) Rn[s, g]``.

    ``family`` lists the ``(value, duration)`` segments of each row (the
    distinct signals of a pass) and ``bks`` stacks the loop gains ``B K``
    as ``(G, d, d)``, so ``Rn`` is ``(S, G, d, d)``.  A segment's factor
    ``e^{M dt}``, ``M = a + value bk``, is taken as
    ``e^{sigma dt} e^{(M - sigma I) dt}`` with sigma the spectral abscissa
    of M, so no factor over- or underflows on its own.

    The distinct segment keys ``(value, dt)`` are collected first, in the
    order they first appear.  The abscissas of every distinct value come
    from one ``eigvals`` call, and the factors of every key, for all the
    gains, from one ``_expm_stack`` call.  A key that differs by one ulp is a
    key of its own.

    The rows walk their segments in lockstep: step j gathers the j-th
    factor of every row that still has one and multiplies the whole
    ``(S, G, d, d)`` stack at once.  Zero-duration segments are skipped, and
    a row whose segments have run out drops out of the step.  Each
    running product is then renormalised by the power of two of its own
    peak, which is exact barring underflow of tiny entries.  Its shifts
    ``sigma dt`` and exponents are summed in segment order, so every slice
    equals the product of that one row and gain bit for bit.
    """
    g, d = bks.shape[0], a.shape[0]
    index: dict = {}
    rows = [[index.setdefault((v, dt), len(index)) for v, dt in segments if dt != 0.0]
            for segments in family]
    values = {v: i for i, v in enumerate(dict.fromkeys(v for v, _ in index))}
    m = a + np.array(list(values))[:, None, None, None] * bks
    sigma = np.linalg.eigvals(m).real.max(axis=-1)
    of = np.array([values[v] for v, _ in index], dtype=np.intp)
    dts = np.array([dt for _, dt in index])
    stack = _expm_stack((m - sigma[:, :, None, None] * np.eye(d))[of] * dts[:, None, None, None])
    step = sigma[of] * dts[:, None]
    pos = np.full((len(rows), max(map(len, rows), default=0)), -1, dtype=np.intp)
    for s, row in enumerate(rows):
        pos[s, :len(row)] = row
    rn = np.tile(np.eye(d), (len(rows), g, 1, 1))
    shift = np.zeros((len(rows), g))
    exponent = np.zeros((len(rows), g), dtype=np.int64)
    for col in pos.T:
        live = np.flatnonzero(col >= 0)
        at = col[live]
        prod = stack[at] @ rn[live]
        e = np.frexp(np.abs(prod).max(axis=(2, 3)))[1]
        rn[live] = np.ldexp(prod, -e[:, :, None, None])
        shift[live] += step[at]
        exponent[live] += e
    return rn, shift + exponent * _LN2


def _unscaled(rn: np.ndarray, log_scale) -> np.ndarray:
    """``exp(log_scale) rn`` per slice, saturating entrywise to 0 or inf,
    never nan.  The power of two is clipped to +-2^20 before its int64
    cast, past which ``ldexp`` saturates every finite entry anyway."""
    whole, frac = np.divmod(np.asarray(log_scale)[..., None, None], _LN2)
    with np.errstate(over="ignore"):
        return np.ldexp(rn * np.exp(frac), whole.clip(-2.0**20, 2.0**20).astype(np.int64))


def _top(rn: np.ndarray, log_scale, tau, norm: bool = False) -> np.ndarray:
    """Per slice of ``rn``, the log spectral radius (or log 2-norm) of
    ``exp(log_scale) rn``, over tau; one ``eigvals`` (or SVD) call reads
    the whole stack."""
    peak = (np.linalg.svd(rn, compute_uv=False)[..., 0] if norm
            else np.abs(np.linalg.eigvals(rn)).max(axis=-1))
    return (np.asarray(log_scale) + np.log(peak)) / tau


# most segments that ``fundamental_solution`` walks through a periodic signal
_WALK_SEGMENTS = 1 << 16


def fundamental_solution(A, B, K, s: PESignal, t: float) -> np.ndarray:
    """Solution at time t of R' = (A + alpha(t) B K) R, R(0) = I.

    Exact product of per-segment matrix exponentials over the segments of
    [0, t]; deterministic.  Entries beyond the float range saturate to inf.
    A periodic signal is walked period by period, so a t of more than
    ``_WALK_SEGMENTS`` segments raises ``ValueError``, and so does a t whose
    segment exponentials leave the float range as nan (an unbounded last
    segment of an aperiodic signal at t near 1e39, say).
    """
    a, b, k = closed_loop(A, B, K)
    if not (t >= 0 and math.isfinite(t)):
        raise ValueError(f"need a finite t >= 0, got t={t!r}")
    if s.period is not None and t / s.period * s.n_segments > _WALK_SEGMENTS:
        raise ValueError(f"t={t!r} spans {t / s.period:.6g} periods of {s.n_segments} segments, "
                         f"more than the {_WALK_SEGMENTS} segments a solution may walk")
    rn, log_scale = _family_product(a, (b @ k)[None], [s.segments(0.0, t)])
    if np.isnan(rn).any() or np.isnan(log_scale).any():
        raise ValueError(f"t={t!r} takes a segment exponential past the float range")
    return _unscaled(rn[0, 0], log_scale[0, 0])


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
    return _monodromy(*closed_loop(A, B, K), s)[0]


def _monodromy(a, b, k, s: PESignal) -> tuple[Monodromy, np.ndarray, float]:
    """``monodromy`` of a checked loop, with the scaled period product
    ``(Rn, log_scale)`` that it reads R and the top rate from: the passes of
    ``family_rates`` on the one-signal family ``[s]``."""
    if s.period is None:
        raise ValueError("monodromy needs a periodic signal")
    fwd = rn, log_scale, _, (row,) = _pass(a, b, [k], [s])
    m = Monodromy(R=_unscaled(rn[row, 0], log_scale[row, 0]), tau=s.period,
                  top_rate=-_neg_tops(*fwd).item(),
                  bottom_rate=_neg_tops(*_pass(-a, -b, [k], mirror_family([s]))).item())
    return m, rn[row, 0], float(log_scale[row, 0])


# -- per-vector exponents ---------------------------------------------------


def _modulus_classes(logmods: np.ndarray) -> list[float]:
    """Distinct log-modulus levels, descending, clustered within 1e-7."""
    vals = np.sort(logmods)[::-1]
    classes = [[vals[0]]]
    for x in vals[1:]:
        if classes[-1][-1] - x <= 1e-7:
            classes[-1].append(x)
        else:
            classes.append([x])
    return [float(np.mean(c)) for c in classes]


def _spectral_component(r: np.ndarray, thresh: float, x: np.ndarray) -> float:
    """Norm of the component of x in the invariant subspace with |eig| >= thresh."""
    import scipy.linalg

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


def _per_vector_exponent(rn: np.ndarray, log_scale: float, tau: float, x0) -> float:
    """Log-modulus class of ``exp(log_scale) rn`` that x0 touches, over tau:
    the exponential growth rate of the solution from x0 when ``rn`` is a
    scaled monodromy over the period tau.  A component counts when it is
    above 1e-9 |x0|."""
    x = np.asarray(x0, dtype=float).ravel()
    if x.size != rn.shape[0] or np.linalg.norm(x) == 0.0:
        raise ValueError("x0 must be a nonzero vector of matching dimension")
    if not np.isfinite(x).all():
        raise ValueError("x0 must be a finite nonzero vector of matching dimension")
    classes = _modulus_classes(np.log(np.abs(np.linalg.eigvals(rn))))
    level = classes[-1]
    for i, c in enumerate(classes[:-1]):
        thresh = np.exp(0.5 * (c + classes[i + 1]))
        if _spectral_component(rn, thresh, x) > 1e-9 * np.linalg.norm(x):
            level = c
            break
    return (level + log_scale) / tau


# -- signal families ---------------------------------------------------------


@dataclass(frozen=True)
class SearchBudget:
    """Shape of the periodic bang-bang search family.

    Periods run over {T, 2T, ..., n_periods*T}; candidates alternate between
    1 and a low level (0 or mu/T) with an even number of switches per period
    (at least 2, at most max_switches), switching on a uniform grid of
    ``time_grid`` cells per window length T.  Candidates failing the
    excitation check are discarded.  Generation is deterministic in ``seed``.
    Every field but ``include_constants`` is an int: a float, even a whole
    one, or a bool raises ``ValueError``, and a numpy integer is kept as an
    int.  ``seed`` is non-negative and ``include_constants`` is a bool.
    """

    n_periods: int = 4
    max_switches: int = 6
    time_grid: int = 16
    size: int = 32
    include_constants: bool = True
    seed: int = 0

    def __post_init__(self):
        for name in ("n_periods", "max_switches", "time_grid", "size"):
            object.__setattr__(self, name, _integer_arg(getattr(self, name), name))
        object.__setattr__(self, "seed", _integer_arg(self.seed, "seed", 0))
        if not isinstance(self.include_constants, bool):
            raise ValueError(f"include_constants must be a bool, got {self.include_constants!r}")
        if min(self.n_periods, self.time_grid, self.size) < 1:
            raise ValueError("n_periods, time_grid and size must be positive")
        if self.max_switches < 2:
            raise ValueError("max_switches must be at least 2")
        if self.time_grid * self.n_periods >= 2**63:  # cell indices are int64
            raise ValueError("time_grid * n_periods must be below 2**63")


def constant_family(cls: SignalClass, n: int) -> list[PESignal]:
    """Constant signals on an n-point grid spanning [mu/T, 1]."""
    n = _integer_arg(n, "n", 1)
    levels = np.linspace(cls.floor, 1.0, n) if n > 1 else np.array([1.0])
    return [PESignal.constant(float(v), period=cls.T) for v in levels]


class _Draws:
    """The draws of numpy 2.4's ``np.random.default_rng(seed)`` that the
    family makes, bit for bit, in Python ints read from the raw 64-bit
    words of its PCG64 bit generator, 64 at a time: ``integers(low, high)``,
    ``random()`` and ``choice(pop, size, replace=False)`` (``sample``),
    without the cost of a ``Generator`` call per draw.  A 32-bit draw takes
    the low half of a new word and keeps the high half for the next 32-bit
    draw; a draw of a whole word leaves that half buffered."""

    def __init__(self, seed: int):
        self._raw = np.random.default_rng(seed).bit_generator.random_raw
        self._words = iter(())
        self._high = None  # the unread high half of the last word split

    def word(self) -> int:
        w = next(self._words, None)
        if w is None:
            self._words = iter(self._raw(64).tolist())
            w = next(self._words)
        return w

    def uint32(self) -> int:
        high = self._high
        if high is None:
            w = self.word()
            self._high = w >> 32
            return w & 0xFFFFFFFF
        self._high = None
        return high

    def bounded(self, rng: int) -> int:
        """A draw in [0, rng] by Lemire's method, with its rejection loop:
        none for 0, 32-bit draws up to 2**32 - 1, words above.  At 2**32 - 1
        and 2**64 - 1 the threshold is 0 and the draw is a bare one."""
        if rng == 0:
            return 0
        bits, draw = (32, self.uint32) if rng <= 0xFFFFFFFF else (64, self.word)
        excl, mask = rng + 1, (1 << bits) - 1
        m = draw() * excl
        if m & mask < excl:
            threshold = (1 << bits) % excl
            while m & mask < threshold:
                m = draw() * excl
        return m >> bits

    def integers(self, low: int, high: int) -> int:
        """An int64 draw in [low, high), with numpy's error for a larger high."""
        if high > 2**63:
            raise ValueError("high is out of bounds for int64")
        return low + self.bounded(high - 1 - low)

    def random(self) -> float:
        """A float in [0, 1) from the top 53 bits of a word."""
        return (self.word() >> 11) * 2.0**-53

    def sample(self, pop: int, size: int) -> list[int]:
        """``size`` distinct values of range(pop), each drawn by ``bounded``.
        For more than a fiftieth of a range above 10000, numpy lays out the
        whole range as int64 and shuffles its tail; otherwise it runs Floyd's
        algorithm (a value already taken becomes j) and shuffles the result.
        The tail shuffle works on that range, and a Floyd draw of more than
        2**16 values first lays out numpy's output array, so a draw that
        numpy cannot hold raises its ``MemoryError`` before any Python step."""
        if pop > 10000 and size > pop // 50:
            idx = np.arange(pop, dtype=np.int64)
            for i in range(pop - 1, max(pop - size, 1) - 1, -1):
                j = self.bounded(i)
                idx[i], idx[j] = idx[j], idx[i]
            return idx[pop - size:].tolist()
        if size > 1 << 16:
            np.empty(size, dtype=np.int64)
        out, taken = [], set()
        for j in range(pop - size, pop):
            v = self.bounded(j)
            if v in taken:
                v = j
            taken.add(v)
            out.append(v)
        for i in range(size - 1, 0, -1):
            j = self.bounded(i)
            out[i], out[j] = out[j], out[i]
        return out


def bang_bang_family(cls: SignalClass, budget: SearchBudget) -> list[PESignal]:
    """Deterministic PE-valid family of periodic bang-bang candidates.

    Candidates are drawn in chunks, in the order of one-at-a-time draws.
    Each chunk's candidates are built as the rows of one padded array and
    judged there, in one pass, by the excitation check of ``validate_pe``
    (``_candidate_rows``); the accepted ones are added in draw order up to
    the one that completes the family.  A chunk holds as many attempts as
    the acceptance seen so far needs for the signals still missing, so few
    chunks are built and few draws are wasted.  The constants are judged
    as rows too.
    """
    draws = _Draws(budget.seed)
    out: dict[bytes, PESignal] = {}

    def push(sigs, size=None) -> None:
        """Add the signals that are not None in order, the first of each
        encoding key, while the family is smaller than ``size``."""
        for sig in sigs:
            if size is not None and len(out) >= size:
                break
            if sig is not None:
                out.setdefault(sig.encoding_key(), sig)

    def constants(levels) -> list[PESignal | None]:
        """The constant signals of period T at ``levels``, judged as rows."""
        n = len(levels)
        return _periodic_rows(np.array(levels, dtype=float)[:, None], np.full((n, 1), float(cls.T)),
                              np.ones(n, dtype=np.intp), [cls.T] * n, cls)

    if budget.include_constants:
        push(constants([1.0, cls.floor]))
    grid = budget.time_grid
    halves = budget.max_switches // 2
    attempts = 0
    max_attempts = 80 * budget.size
    start = len(out)
    while len(out) < budget.size and attempts < max_attempts:
        want = budget.size - len(out)
        if attempts:
            want = -(-want * attempts // max(len(out) - start, 1))
        chunk = min(want, max_attempts - attempts)
        attempts += chunk
        # the attempts that draw cuts: periods, switch counts, cuts, levels
        mult, k, cuts, low, first_high = [], [], [], [], []
        for _ in range(chunk):
            m = draws.integers(1, budget.n_periods + 1)
            switches = 2 * draws.integers(1, halves + 1)
            if switches >= grid * m:
                continue
            mult.append(m)
            k.append(switches)
            cuts += draws.sample(grid * m - 1, switches - 1)
            low.append(0.0 if draws.random() < 0.7 else cls.floor)
            first_high.append(draws.random() < 0.5)
        if mult:
            push(_candidate_rows(cls, grid, mult, k, cuts, low, first_high), budget.size)
    fill = 3
    while len(out) < budget.size:
        push(constants(np.linspace(cls.floor, 1.0, fill)), budget.size)
        fill += 2
        if cls.floor == 1.0:  # every fill constant is the constant 1
            break
    return [out[key] for key in sorted(out)]


def _candidate_rows(cls: SignalClass, grid: int, mult, k, cuts, low, first_high
                    ) -> list[PESignal | None]:
    """The bang-bang candidates of ``bang_bang_family``, as the rows of one
    padded array judged by the excitation check (``signals._periodic_rows``).
    Candidate i has ``grid * mult[i]`` cells of length ``T / grid``, the
    period ``mult[i] * T`` and ``k[i]`` segments; its level switches at the
    end of each of its ``k[i] - 1`` cells in the flat list ``cuts`` (0-based
    cell indices, candidate after candidate) and starts high when
    ``first_high[i]`` is, and it is ``low[i]`` when not high.  A candidate
    whose low level is 1 is the constant 1, one segment as long as all of
    its cells; it is kept only if that length is the period to within the
    validating constructor's rounding slack.  A candidate that fails a
    check is ``None``."""
    mult, sizes = np.array(mult), np.array(k, dtype=np.intp)
    low, first_high = np.array(low), np.array(first_high)
    width = sizes.max()
    # padding the cuts with the cell count sorts it past the real cuts
    bounds = np.zeros((len(sizes), width + 1), dtype=np.int64)
    bounds[:, 1:] = (grid * mult)[:, None]
    bounds[:, 1:-1][np.arange(width - 1) < sizes[:, None] - 1] = np.array(cuts, dtype=np.int64) + 1
    bounds.sort(axis=1)
    durs = (bounds[:, 1:] - bounds[:, :-1]) * (cls.T / grid)
    high = np.arange(width) % 2 != first_high[:, None]
    vals = np.where(np.arange(width) < sizes[:, None], np.where(high, 1.0, low[:, None]), 0.0)
    merged = np.flatnonzero(low == 1.0)
    total = np.cumsum(durs[merged], axis=1)[:, -1]
    vals[merged], durs[merged], sizes[merged] = 0.0, 0.0, 1
    vals[merged, 0], durs[merged, 0] = 1.0, total
    periods = mult * float(cls.T)
    rows = _periodic_rows(vals, durs, sizes, periods, cls)
    for i in merged.tolist():
        if not abs(durs[i, 0] - periods[i]) <= _PERIOD_ULPS * np.spacing(periods[i]):
            rows[i] = None
    return rows


def mirror_family(family) -> list[PESignal]:
    """Time reversal of every signal in the family, in one padded pass;
    each signal equals its ``reverse`` bit for bit."""
    return _reversed(list(family))


@dataclass(frozen=True)
class RateEstimate:
    """A one-sided bound on a worst-case growth rate.

    ``value`` bounds the true rate from the side named in ``bound``; the
    witnessing signal attains it within the searched family.
    """

    value: float
    bound: str  # "upper" | "lower"
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
    verdicts = _pe_valid(sigs, cls)
    if None in verdicts:
        raise ValueError(f"family[{verdicts.index(None)}] is not periodic")
    valid = [s for s, ok in zip(sigs, verdicts) if ok]
    if not valid:
        raise ValueError("no PE-valid signals in the family")
    return valid


def _pass(a, b, gains, sigs):
    """The period products of the signals and gains of (a, b K), in one
    family-engine pass: ``(Rn, log_scale, periods, inverse)``.  A row is
    computed once per distinct signal, keyed by its ``(value, duration)``
    period segments and its period with the float equality of the engine's
    segment keys; ``inverse[s]`` is the row of signal s, which every reader
    gathers through.  ``periods`` is shaped ``(U, 1)`` to divide the
    ``(U, G)`` reads of the U distinct rows."""
    bks = np.stack([b @ k for k in gains])
    index: dict = {}
    inverse = np.array([index.setdefault((tuple(s.period_segments()), s.period), len(index))
                        for s in sigs], dtype=np.intp)
    rn, log_scale = _family_product(a, bks, [segments for segments, _ in index])
    return rn, log_scale, np.array([[period] for _, period in index]), inverse


def _neg_tops(rn, log_scale, periods, inverse) -> np.ndarray:
    """Per gain, the negated top exponent of every signal of a pass, as a
    ``(G, S)`` array read once per distinct row.  Kind "rc" of a family
    reads it on (a, b); kind "rd", the bottom exponents, reads it on the
    reversed tuple (-a, -b) and the mirrored family."""
    return (-_top(rn, log_scale, periods))[inverse].T


def _log_norms(rn, log_scale, periods, inverse) -> list[float]:
    """The log 2-norm rate of every signal of a one-gain pass."""
    return _top(rn, log_scale, periods, norm=True)[inverse, 0].tolist()


def _minima(per_gain, sigs, kind: str) -> list[RateEstimate]:
    """Per gain, the family minimum of the signal rates, as ``min`` over
    ``(value, encoding key)`` pairs picks it: ties go to the smaller
    encoding key, and a nan first value stays the minimum.  One lexsort by
    value and key rank picks every gain's witness."""
    values = np.asarray(per_gain)
    keys = [s.encoding_key() for s in sigs]
    rank = np.empty(len(sigs), dtype=np.intp)
    rank[sorted(range(len(sigs)), key=keys.__getitem__)] = np.arange(len(sigs))
    best = np.lexsort((np.broadcast_to(rank, values.shape), values), axis=-1)[:, 0]
    best = np.where(np.isnan(values[:, 0]), 0, best)
    method = f"{kind}/periodic-monodromy-min/{len(sigs)}"
    return [RateEstimate(value=v, bound="upper", witness=sigs[i], method=method)
            for v, i in zip(values[np.arange(len(best)), best].tolist(), best.tolist())]


def _family_minimum(A, B, K, cls, family, kind: str) -> RateEstimate:
    a, b, k = closed_loop(A, B, K)
    sigs = _resolve_family(cls, family)
    if kind == "rd":
        return _minima(_neg_tops(*_pass(-a, -b, [k], mirror_family(sigs))), sigs, kind)[0]
    return _minima(_neg_tops(*_pass(a, b, [k], sigs)), sigs, kind)[0]


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


# Largest inversion residual that the duality checks accept.
_RESIDUAL_TOL = 1e-8


def _duality_pass(a, b, ks, cls: SignalClass, family):
    """``(sigs, mirror, pass, rc, rd_mirror)`` of the checked loop (a, b):
    the validated family, its reversal, the one pass that reads both sides
    of the duality, and the per-gain estimates.

    The family and its reversal are validated once each.  ``rd(-A, -B, K)``
    on the mirror is (a, b) again on the reversed mirror, so the pass runs
    over the family followed by the reversal of the validated mirror:
    ``rc`` is read from the family's rows and ``rd_mirror`` from the rest.
    Each distinct row is computed once, so a reversed mirror signal that
    equals its family signal shares its row, and one that differs in any
    value, duration or the period gets its own: the equality checks that
    the double reversal is exact.
    """
    sigs = _resolve_family(cls, family)
    mirror = mirror_family(sigs)
    mirrored = _resolve_family(cls, mirror)
    fwd = _pass(a, b, ks, sigs + mirror_family(mirrored))
    neg_tops, n = _neg_tops(*fwd), len(sigs)
    return (sigs, mirror, fwd, _minima(neg_tops[:, :n], sigs, "rc"),
            _minima(neg_tops[:, n:], mirrored, "rd"))


def duality_check(A, B, K, cls: SignalClass, family,
                  tol: float = _RESIDUAL_TOL) -> DualityReport:
    """Verify time-reversal duality on a family of periodic signals.

    For each signal alpha of period tau the product
    ``R(tau; -A,-B,K, alpha_rev) R(tau; A,B,K, alpha)`` must be the identity
    (both factors are computed independently; the residual is reported,
    as inf where the product leaves the float range).  Aggregately, the
    convergence estimate of (A, B, K) and the divergence estimate of
    (-A, -B, K) on the mirrored family must coincide exactly.

    ``rc``, ``rd_mirror`` and the forward products are ``_duality_pass``'s;
    the residuals also gather the rows of a pass of the reversed tuple.
    """
    if not tol >= 0.0:
        raise ValueError(f"tol must be non-negative, got {tol!r}")
    a, b, k = closed_loop(A, B, K)
    sigs, mirror, (rn, log_scale, _, at), (rc,), (rd,) = _duality_pass(a, b, [k], cls, family)
    rn_rev, log_scale_rev, _, at_rev = _pass(-a, -b, [k], mirror)
    at = at[:len(sigs)]
    prod = _unscaled(rn_rev[at_rev, 0] @ rn[at, 0], log_scale_rev[at_rev, 0] + log_scale[at, 0])
    finite = np.isfinite(prod).all(axis=(1, 2))
    eye = np.eye(a.shape[0])
    # A non-finite product is reported as inf; eye keeps the SVD finite.
    gap = np.where(finite[:, None, None], prod, eye) - eye
    res = np.where(finite, np.linalg.svd(gap, compute_uv=False).max(axis=-1), np.inf).tolist()
    rows = [(i, s.period, r) for i, (s, r) in enumerate(zip(sigs, res))]
    return DualityReport(per_signal=tuple(rows), max_residual=max([0.0] + res),
                         rc=rc, rd_mirror=rd,
                         estimates_equal=bool(rc.value == rd.value), tol=tol)


@dataclass(frozen=True)
class DualityGridReport:
    """Per gain, ``rc(A, B, K)`` and ``rd(-A, -B, K)`` on the mirrored family."""

    rc: tuple         # of RateEstimate, one per gain
    rd_mirror: tuple  # of RateEstimate, one per gain


def duality_grid(A, B, gains, cls: SignalClass, family) -> DualityGridReport:
    """Time-reversal duality of the estimates over a grid of gains, from the
    one pass of ``_duality_pass`` with every gain stacked, so each distinct
    segment is exponentiated once per call.  Each entry equals the
    corresponding ``rc_estimate``/``rd_estimate`` bit for bit.
    """
    if len(gains) == 0:
        raise ValueError("need at least one gain")
    loops = [closed_loop(A, B, K) for K in gains]
    *_, rc, rd = _duality_pass(*loops[0][:2], [k for _, _, k in loops], cls, family)
    return DualityGridReport(rc=tuple(rc), rd_mirror=tuple(rd))


@dataclass(frozen=True)
class DeltaReport:
    """Norm/conorm growth envelopes over a family of periodic signals."""

    delta_hat: RateEstimate        # max of log||R||/tau: lower bound on the sup envelope
    delta_star_hat: RateEstimate   # min of log conorm(R)/tau: upper bound on the inf envelope
    mirror_identity_exact: bool    # delta_star(A,B,K) == -delta_hat(-A,-B,K) on mirrors


def _delta(sigs, norms, mirror_norms) -> DeltaReport:
    """The norm and conorm envelopes of validated signals, from their
    log-norm rates on (a, bk) and those of their mirror on the reversed
    tuple (-a, -bk).  The log conorm of R is the negated log norm of its
    inverse, the reversed tuple's monodromy, so the mirror identity holds by
    construction; it is still reported, as ``mirror_identity_exact``."""
    keys = [s.encoding_key() for s in sigs]
    top = max(zip(norms, keys, sigs), key=lambda e: e[:2])
    bottom = min(zip([-v for v in mirror_norms], keys, sigs), key=lambda e: e[:2])
    delta_hat = RateEstimate(top[0], "lower", top[2], "delta/log-norm-max")
    delta_star = RateEstimate(bottom[0], "upper", bottom[2], "delta*/log-conorm-min")
    mirror_delta = max(mirror_norms)
    return DeltaReport(delta_hat=delta_hat, delta_star_hat=delta_star,
                       mirror_identity_exact=bool(delta_star.value == -mirror_delta))


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

    The family is validated once.  One pass over (A, BK) gives the top
    rates, ``rc`` and the norm envelope; one pass over the reversed tuple
    (-A, -BK) on the mirrored family gives the bottom rates, ``rd`` and the
    conorm envelope.  Every value equals what ``monodromy``, ``rc_estimate``
    and ``rd_estimate`` give on their own, bit for bit.
    """
    a, b, k = closed_loop(A, B, K)
    sigs = _resolve_family(cls, family)
    fwd = _pass(a, b, [k], sigs)
    rev = _pass(-a, -b, [k], mirror_family(sigs))
    neg_tops, bottoms = _neg_tops(*fwd), _neg_tops(*rev)
    return FamilyRates(signals=tuple(sigs), top_rates=tuple((-neg_tops[0]).tolist()),
                       bottom_rates=tuple(bottoms[0].tolist()),
                       rc=_minima(neg_tops, sigs, "rc")[0], rd=_minima(bottoms, sigs, "rd")[0],
                       delta=_delta(sigs, _log_norms(*fwd), _log_norms(*rev)))


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
    if not math.isfinite(shift):
        raise ValueError(f"shift must be finite, got {shift!r}")
    a, b, k = closed_loop(A, B, K)
    d = a.shape[0]
    shifted = a + shift * np.eye(d)
    m0, rn0, log_scale0 = _monodromy(a, b, k, s)
    m1, rn1, log_scale1 = _monodromy(shifted, b, k, s)
    l0 = _per_vector_exponent(rn0, log_scale0, s.period, x0)
    l1 = _per_vector_exponent(rn1, log_scale1, s.period, x0)
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
    a, b, k = closed_loop(A, B, K)
    p = require_square(P, "P")
    v = require_square(V, "V")
    if p.shape[0] != a.shape[0]:
        raise ValueError(f"P must be d x d with d = {a.shape[0]}, got shape {p.shape}")
    if v.shape[0] != b.shape[1]:
        raise ValueError(f"V must be m x m with m = {b.shape[1]}, got shape {v.shape}")
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


def parity_duality_check(K, family, cls: SignalClass | None = None) -> ParityDualityReport:
    """Spectral inversion between a companion gain and its parity conjugate.

    For the chain pair (J, e_d) and a gain K with all components nonzero,
    the gain ``K_minus = (-1)^d K D`` (D the alternating parity matrix)
    satisfies: the monodromy spectrum of (J, e_d, K_minus) under the
    reversed signal is the elementwise inverse of the spectrum of
    (J, e_d, K) under the original.  Checked per signal via multiset
    matching, after one family-engine pass per side.
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
    family = list(family)
    for i, ok in enumerate(_pe_valid(family, cls)):
        if ok is None:
            raise ValueError(f"family[{i}] is not periodic")
        if not ok:
            raise ValueError(f"family[{i}] fails the excitation check")
    prods = [_unscaled(rn[at, 0], log_scale[at, 0]) for rn, log_scale, _, at in (
        _pass(j, ed, [k.reshape(1, d)], family),
        _pass(j, ed, [k_minus.reshape(1, d)], mirror_family(family)))]
    # A product that leaves the float range, or a spectrum with no finite
    # inverse, is reported as an inf residual; eye keeps eigvals finite.
    finite = np.isfinite(prods[0]).all(axis=(1, 2)) & np.isfinite(prods[1]).all(axis=(1, 2))
    ev, ev_minus = (np.linalg.eigvals(np.where(finite[:, None, None], p, np.eye(d)))
                    for p in prods)
    rows = []
    worst = 0.0
    for i, s in enumerate(family):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            inv = 1.0 / ev[i]
        invertible = finite[i] and np.isfinite(inv).all()
        res = multiset_residual(ev_minus[i], inv) if invertible else np.inf
        worst = max(worst, res)
        rows.append((i, s.period, float(res)))
    return ParityDualityReport(K_minus=k_minus, per_signal=tuple(rows), max_residual=worst)
