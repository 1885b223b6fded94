"""Reference implementations that the tests compare the package against,
and the writer of the config matrix format.

They are not part of ``pegrowth``: no subcommand, gate or workload needs
them.  Each reads the package's kernels through their module, so a test
that patches a kernel sees the oracle's calls too.
"""

import math

import numpy as np

from pegrowth import matcore, projective, rates, signals


def span_rank(family, tol: float = matcore.DEFAULT_RANK_TOL) -> int:
    """Dimension of the linear span of a family of same-shaped matrices.

    Each matrix is vectorised; the rank is the number of singular values of
    the stacked family exceeding ``tol`` times the largest one.
    """
    mats = [matcore.as_matrix(m, f"family[{i}]") for i, m in enumerate(family)]
    if not mats:
        return 0
    shape = mats[0].shape
    for i, m in enumerate(mats):
        if m.shape != shape:
            raise ValueError(f"family[{i}] has shape {m.shape}, expected {shape}")
    return matcore.numerical_rank(
        matcore.singular_values(np.vstack([m.ravel() for m in mats])), tol)


def bracket(M, N) -> np.ndarray:
    """Commutator MN - NM of two square matrices of one shape."""
    m = matcore.require_square(M, "M")
    n = matcore.require_square(N, "N")
    if m.shape != n.shape:
        raise ValueError(f"shape mismatch: {m.shape} vs {n.shape}")
    return m @ n - n @ m


def matrix_to_json(M) -> dict:
    """The config encoding ``{"rows": d, "cols": m, "data": [row-major]}``
    of a matrix, which ``matcore.matrix_from_json`` reads."""
    m = matcore.as_matrix(M)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": [float(x) for x in m.ravel()]}


def reference_family(cls, budget) -> list:
    """``rates.bang_bang_family`` one candidate at a time: the same draws,
    each candidate built by ``PESignal.from_segments`` and judged by
    ``validate_pe``, the first of each encoding key added while the family
    is short, then the fill constants."""
    rng = np.random.default_rng(budget.seed)
    out = {}

    def push(sig) -> None:
        if signals.validate_pe(sig, cls).valid:
            out.setdefault(sig.encoding_key(), sig)

    if budget.include_constants:
        push(signals.PESignal.constant(1.0, period=cls.T))
        push(signals.PESignal.constant(cls.floor, period=cls.T))
    step = cls.T / budget.time_grid
    halves = budget.max_switches // 2
    attempts = 0
    while len(out) < budget.size and attempts < 80 * budget.size:
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
        segs = [(1.0 if (i % 2 == 0) == first_high else low, (bounds[i + 1] - bounds[i]) * step)
                for i in range(k)]
        try:
            push(signals.PESignal.from_segments(segs, period=mult * cls.T))
        except ValueError:
            continue
    fill = 3
    while len(out) < budget.size:
        for v in np.linspace(cls.floor, 1.0, fill):
            if len(out) < budget.size:
                push(signals.PESignal.constant(float(v), period=cls.T))
        fill += 2
        if cls.floor == 1.0:  # every fill constant is the constant 1
            break
    return [out[key] for key in sorted(out)]


def value_at(s, t):
    """Value of a signal at time(s) t: a periodic signal wraps, an aperiodic
    one extends its end values.  A scalar t gives a float."""
    tt = np.asarray(t, dtype=float)
    if s.period is not None:
        idx = np.searchsorted(s.breakpoints, np.mod(tt, s.period), side="right") - 1
    else:
        idx = np.clip(np.searchsorted(s.breakpoints, tt, side="right") - 1, 0, s.n_segments - 1)
    out = s.values[idx]
    return float(out) if np.isscalar(t) else out


def angle_field(A, B, K):
    """(f, g) of the planar system ``x' = M x``, ``M = A + alpha BK``, along
    ``q = (cos theta, sin theta)``: the angular speed ``f(theta, alpha) =
    q_perp' M q`` with ``q_perp = (-sin theta, cos theta)``, and the radial
    log-derivative ``g(theta, alpha) = q' M q``.  Both are read off the
    matrix entries, with no double-angle form; theta and alpha broadcast."""
    a = matcore.as_matrix(A, "A")
    bk = matcore.as_matrix(B, "B") @ matcore.as_matrix(K, "K")
    if a.shape != (2, 2) or bk.shape != (2, 2):
        raise ValueError("the angle field needs d = 2")

    def image(theta, alpha):
        """cos theta, sin theta and the two entries of M q."""
        c, s = np.cos(theta), np.sin(theta)
        m = [[a[i, j] + np.multiply(alpha, bk[i, j]) for j in (0, 1)] for i in (0, 1)]
        return c, s, m[0][0] * c + m[0][1] * s, m[1][0] * c + m[1][1] * s

    def f(theta, alpha):
        c, s, x, y = image(theta, alpha)
        return -s * x + c * y

    def g(theta, alpha):
        c, s, x, y = image(theta, alpha)
        return c * x + s * y

    return f, g


def reference_angle_of(q) -> float:
    """``projective.angle_of`` on numpy arrays and scalars: the unit vector
    of ``matcore.canonical_unit``, ``np.arctan2`` on it and ``wrap_angle``."""
    u = matcore.canonical_unit(q)
    if u is None:
        raise ValueError("cannot project the zero vector")
    if u.size != 2:
        raise ValueError("angles are defined for d = 2")
    return float(projective.wrap_angle(np.arctan2(u[1], u[0])))


def _reference_zeros(field) -> tuple:
    big, small, shift = field
    if big * small > 0.0 or (big == 0.0 and small == 0.0):
        return ()
    v0 = math.atan2(math.sqrt(big), math.sqrt(-small))
    return tuple(sorted({projective._wrap(shift + v0), projective._wrap(shift - v0)}))


class ReferencePlanar(projective._Planar):
    """``projective._Planar`` set up through ``matcore.closed_loop`` and
    numpy scalars, with the greedy senses written with ``sorted``, ``any``,
    ``min`` and ``angle_distance``: the same arithmetic as the package's
    float pass, in the form it had before that pass."""

    def __init__(self, A, B, K, control_range):
        a, b, k = matcore.closed_loop(A, B, K)
        if a.shape != (2, 2):
            raise ValueError("angle dynamics need d = 2")
        bk = b @ k
        ca = ((a[1, 0] - a[0, 1]) / 2.0, (a[1, 0] + a[0, 1]) / 2.0, (a[1, 1] - a[0, 0]) / 2.0)
        cb = ((bk[1, 0] - bk[0, 1]) / 2.0, (bk[1, 0] + bk[0, 1]) / 2.0, (bk[1, 1] - bk[0, 0]) / 2.0)
        self.lo, self.hi = projective._control_range(control_range)
        self.switch = projective._polar(cb)
        self.cuts = _reference_zeros(self.switch)
        self.fields = {v: projective._polar(tuple(x + v * y for x, y in zip(ca, cb)))
                       for v in (self.lo, self.hi)}
        self.zeros = {v: _reference_zeros(f) for v, f in self.fields.items()}

    def sense(self, theta0, target, sigma, max_time):
        wrap, speed_at = projective._wrap, projective._speed_at
        end = theta0 + sigma * wrap(sigma * (target - theta0))
        pts = [theta0]
        pts += sorted((c for c in (theta0 + sigma * wrap(sigma * (z - theta0)) for z in self.cuts)
                       if sigma * (end - c) > 0.0 and c != theta0), key=lambda c: sigma * c)
        pts.append(end)
        total, segs = 0.0, []
        for t1, t2 in zip(pts, pts[1:]):
            mid = 0.5 * (t1 + t2)
            alpha = self.hi if sigma * speed_at(self.switch, mid) >= 0.0 else self.lo
            field = self.fields[alpha]
            left, right = min(t1, t2), max(t1, t2)
            if (sigma * speed_at(field, mid) <= 0.0
                    or any(left + wrap(z - left) <= right for z in self.zeros[alpha])):
                return math.inf, []
            dt = projective._arc_time(field, t1, t2)
            total += dt
            if not total <= max_time:
                return math.inf, []
            segs.append((alpha, dt))
        return total, segs

    def fastest(self, theta0, target, tol, max_time):
        if abs(projective.angle_distance(target, theta0)) <= tol:
            return 0.0, []
        return min(self.sense(theta0, target, +1.0, max_time),
                   self.sense(theta0, target, -1.0, max_time), key=lambda r: r[0])
