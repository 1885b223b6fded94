"""Dynamics on real projective space.

General-dimension projected fields, plus the planar (d = 2) toolkit: angle
dynamics on the half-circle [0, pi), the exact invariant control set of the
projected bilinear system, and greedy bang-bang steering between directions
with exact switch and arrival times.

The planar toolkit reads everything from one representation.  The angular
speed of ``x' = M x`` at ``q = (cos theta, sin theta)`` is the first-degree
trigonometric polynomial

    f(theta) = c0 + c1 cos 2theta + c2 sin 2theta,
    (c0, c1, c2) = ((m10 - m01)/2, (m10 + m01)/2, (m11 - m00)/2),

affine in alpha for ``M = A + alpha BK``.  In polar form it is
``big cos^2 v + small sin^2 v`` with ``v = theta - shift``,
``big, small = c0 +- hypot(c1, c2)`` and ``shift = atan2(c2, c1) / 2``.
Its zeros on the half-circle are closed-form (at most two), and the time to
cross an arc free of zeros is an elementary integral: an ``atan`` form when
``big`` and ``small`` share a sign, an ``atanh`` (logarithmic) form when
they do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lie
from .matcore import as_matrix, canonical_unit, require_square
from .signals import PESignal

__all__ = [
    "proj_point",
    "angle_of",
    "point_of",
    "wrap_angle",
    "angle_distance",
    "project_field",
    "angle_dynamics_d2",
    "CircleArcSet",
    "InvariantSetResult",
    "invariant_control_set_d2",
    "boundary_points",
    "forward_invariance_audit",
    "InvarianceAudit",
    "SteeringError",
    "SteerResult",
    "steer_d2",
    "steering_time_bound",
]


def proj_point(x) -> np.ndarray:
    """Canonical unit representative of a projective point.

    Normalises and flips sign so the first nonzero coordinate is positive
    (antipodal identification); see ``matcore.canonical_unit``.
    """
    u = canonical_unit(x)
    if u is None:
        raise ValueError("cannot project the zero vector")
    return u


def wrap_angle(theta):
    """Reduce an angle modulo pi into [0, pi).

    The same bits as ``np.mod(theta, pi)`` (``fmod``, plus pi where that is
    negative, and ``+ 0.0`` turning -0 into +0) at a third of its cost.
    """
    r = np.fmod(theta, np.pi)
    return r + (r < 0.0) * np.pi


def angle_distance(a, b):
    """Signed distance from b to a on the half-circle, in [-pi/2, pi/2)."""
    return np.mod(a - b + np.pi / 2.0, np.pi) - np.pi / 2.0


def angle_of(q) -> float:
    u = proj_point(q)
    if u.size != 2:
        raise ValueError("angles are defined for d = 2")
    return float(wrap_angle(np.arctan2(u[1], u[0])))


def point_of(theta) -> np.ndarray:
    return np.array([np.cos(theta), np.sin(theta)])


def project_field(M, q) -> np.ndarray:
    """Tangent vector of the projected linear field at a unit direction.

    Returns ``Mx - (x'Mx) x`` for the unit representative x of q; adding any
    multiple of the identity to M leaves the result unchanged.
    """
    m = require_square(M, "M")
    x = proj_point(q)
    if x.size != m.shape[0]:
        raise ValueError("dimension mismatch")
    mx = m @ x
    return mx - (x @ mx) * x


def _speed_coeffs(m) -> tuple:
    """(c0, c1, c2): the angular speed of ``x' = m x`` is
    ``c0 + c1 cos 2theta + c2 sin 2theta`` (m an array or nested lists)."""
    (m00, m01), (m10, m11) = m
    return (m10 - m01) / 2.0, (m10 + m01) / 2.0, (m11 - m00) / 2.0


def _radial_coeffs(m) -> tuple:
    """(c0, c1, c2): the radial log-derivative of ``x' = m x`` is
    ``c0 + c1 cos 2theta + c2 sin 2theta``."""
    (m00, m01), (m10, m11) = m
    return (m00 + m11) / 2.0, (m00 - m11) / 2.0, (m01 + m10) / 2.0


def _planar_loop(A, B, K):
    a = require_square(A, "A")
    if a.shape != (2, 2):
        raise ValueError("angle dynamics need d = 2")
    return a, as_matrix(B, "B") @ as_matrix(K, "K")


def angle_dynamics_d2(A, B, K):
    """Polar reduction of the planar projected system.

    Returns (f, g) with ``f(theta, alpha)`` the angular speed and
    ``g(theta, alpha)`` the radial log-derivative of
    ``x' = (A + alpha B K) x`` along ``q = (cos theta, sin theta)``.
    Both are first-degree trigonometric polynomials in 2 theta, affine in
    alpha, so they are pi-periodic in theta; they accept arrays.
    """
    a, bk = _planar_loop(A, B, K)

    def trig(base, pert):
        def field(theta, alpha):
            c2, s2 = np.cos(2.0 * theta), np.sin(2.0 * theta)
            return (base[0] + base[1] * c2 + base[2] * s2
                    + np.asarray(alpha) * (pert[0] + pert[1] * c2 + pert[2] * s2))
        return field

    return (trig(_speed_coeffs(a), _speed_coeffs(bk)),
            trig(_radial_coeffs(a), _radial_coeffs(bk)))


def _polar(coeffs) -> tuple:
    """(big, small, shift) of the speed ``c0 + c1 cos 2theta + c2 sin 2theta``:
    it equals ``big cos^2 v + small sin^2 v`` with ``v = theta - shift``."""
    c0, c1, c2 = (float(c) for c in coeffs)
    rho = math.hypot(c1, c2)
    return c0 + rho, c0 - rho, 0.5 * math.atan2(c2, c1)


def _speed_at(field, theta: float) -> float:
    big, small, shift = field
    v = theta - shift
    return big * math.cos(v) ** 2 + small * math.sin(v) ** 2


def _wrap(theta: float) -> float:
    """``theta`` mod pi as a float in [0, pi) (``%`` can round up to pi)."""
    r = theta % math.pi
    return 0.0 if r >= math.pi else r


def _zeros(field) -> tuple:
    """Sorted zeros of the speed on [0, pi): none, one (a double root) or two.

    An identically zero speed has no isolated zeros and returns none.
    """
    big, small, shift = field
    if big * small > 0.0 or (big == 0.0 and small == 0.0):
        return ()
    v0 = math.atan2(math.sqrt(big), math.sqrt(-small))  # big >= 0 >= small
    return tuple(sorted({_wrap(shift + v0), _wrap(shift - v0)}))


def _atanh(x: float) -> float:
    # |x| >= 1 only by rounding at an end that is a zero of the speed
    return math.atanh(x) if abs(x) < 1.0 else math.copysign(math.inf, x)


def _arc_time(field, t1: float, t2: float) -> float:
    """Exact ``integral of d theta / f`` from t1 to t2 over an arc free of
    zeros of f; positive when the flow runs from t1 to t2."""
    big, small, shift = field
    v1, v2 = t1 - shift, t2 - shift
    if big * small > 0.0:
        # atan form, lifted continuously across the poles of tan v
        rb, rs = math.sqrt(abs(big)), math.sqrt(abs(small))

        def lift(v):
            n = round(v / math.pi)
            r = v - n * math.pi
            return math.atan2(rs * math.sin(r), rb * math.cos(r)) + n * math.pi

        return math.copysign(1.0, big) * (lift(v2) - lift(v1)) / (rb * rs)
    if big > 0.0 > small:
        # logarithmic form: atanh of (rs/rb) tan v where the speed is
        # positive, of (rb/rs) cot v where it is negative
        rb, rs = math.sqrt(big), math.sqrt(-small)
        vm = 0.5 * (v1 + v2)
        if big * math.cos(vm) ** 2 + small * math.sin(vm) ** 2 > 0.0:
            h1, h2 = (_atanh(rs * math.tan(v) / rb) for v in (v1, v2))
        else:
            h1, h2 = (_atanh(rb * math.cos(v) / (rs * math.sin(v))) for v in (v1, v2))
        return (h2 - h1) / (rb * rs)
    if small < 0.0:  # big == 0: speed small sin^2 v, double root at v = 0
        s1, s2 = math.sin(v1), math.sin(v2)
        if s1 == 0.0 or s2 == 0.0:
            return math.inf
        return (math.cos(v1) / s1 - math.cos(v2) / s2) / small
    if big > 0.0:  # small == 0: speed big cos^2 v, double root at v = pi/2
        return (math.tan(v2) - math.tan(v1)) / big
    return math.inf  # identically zero speed


@dataclass(frozen=True)
class CircleArcSet:
    """Disjoint arcs [lo, hi) on the half-circle [0, pi).

    Each arc has ``0 <= lo < pi`` and ``lo < hi <= lo + pi``; an arc that
    wraps across pi has ``hi > pi`` and covers [lo, pi) and [0, hi - pi).
    The whole half-circle is the single arc (0, pi).
    """

    arcs: tuple  # of (lo, hi)

    @property
    def whole(self) -> bool:
        return len(self.arcs) == 1 and self.arcs[0][0] == 0.0 and self.arcs[0][1] >= np.pi

    def measure(self) -> float:
        return float(sum(hi - lo for lo, hi in self.arcs))

    def contains(self, theta, inflate: float = 0.0):
        """Membership test (arrays ok), with optional symmetric inflation."""
        t = wrap_angle(np.asarray(theta, dtype=float))
        inside = np.zeros_like(t, dtype=bool)
        for lo, hi in self.arcs:
            lo_i, hi_i = lo - inflate, hi + inflate
            inside |= (t >= lo_i) & (t < hi_i)
            # inflation may spill across the pi-wrap
            inside |= (t - np.pi >= lo_i) & (t - np.pi < hi_i)
            inside |= (t + np.pi >= lo_i) & (t + np.pi < hi_i)
        return inside if inside.ndim else bool(inside)

    def to_json(self) -> dict:
        return {"arcs": [[float(lo), float(hi)] for lo, hi in self.arcs]}


@dataclass(frozen=True)
class InvariantSetResult:
    applicable: bool
    arcs: CircleArcSet | None
    n_sinks: int
    certificate: lie.RankCertificate | None


class _Planar:
    """The planar toolkit on one representation: the speeds of BK and of
    ``A + alpha BK`` at both ends of the control range, in polar form,
    with their zeros on the half-circle."""

    def __init__(self, A, B, K, control_range):
        # Python floats: the same IEEE bits as numpy scalars, at less cost
        ca, cb = (_speed_coeffs(m.tolist()) for m in _planar_loop(A, B, K))
        self.lo, self.hi = float(control_range[0]), float(control_range[1])
        self.switch = _polar(cb)
        self.cuts = _zeros(self.switch)
        self.fields = {v: _polar(tuple(x + v * y for x, y in zip(ca, cb)))
                       for v in (self.lo, self.hi)}
        self.zeros = {v: _zeros(f) for v, f in self.fields.items()}

    def sink_arcs(self) -> tuple:
        """Sink strongly connected components of the zero/arc graph, as arcs.

        The nodes, in circular order, are the zeros of the two extremal
        speeds and the open arcs between them (at most four of each); the
        sign of each speed is constant on a node.  A node hands the flow to
        its upper neighbour when the larger speed is positive on it, and to
        its lower neighbour when the smaller speed is negative.  Returns the
        sink components as (lo, hi) pairs, and their count.
        """
        f_lo, f_hi = self.fields[self.lo], self.fields[self.hi]
        zl, zh = self.zeros[self.lo], self.zeros[self.hi]
        zeros = sorted(set(zl + zh))
        if not zeros:
            return ((0.0, math.pi),), 1
        nz = len(zeros)
        n = 2 * nz
        # node 2i is zeros[i]; node 2i+1 the arc from zeros[i] to the next zero
        ends = []
        for i, z in enumerate(zeros):
            nxt = zeros[i + 1] if i + 1 < nz else zeros[0] + math.pi
            ends.append((z, z))
            ends.append((z, nxt))
        up, down = [], []
        for j, (left, right) in enumerate(ends):
            if j % 2 == 0:
                speeds = (0.0 if left in zl else _speed_at(f_lo, left),
                          0.0 if left in zh else _speed_at(f_hi, left))
            else:
                mid = 0.5 * (left + right)
                speeds = (_speed_at(f_lo, mid), _speed_at(f_hi, mid))
            up.append(max(speeds) > 0.0)
            down.append(min(speeds) < 0.0)

        def reach(j):
            seen, todo = {j}, [j]
            while todo:
                i = todo.pop()
                for k, edge in (((i + 1) % n, up[i]), ((i - 1) % n, down[i])):
                    if edge and k not in seen:
                        seen.add(k)
                        todo.append(k)
            return seen

        reached = [reach(j) for j in range(n)]
        sinks = {frozenset(r) for j, r in enumerate(reached)
                 if all(j in reached[k] for k in r)}
        if any(len(c) == n for c in sinks):
            return ((0.0, math.pi),), 1
        arcs = []
        for comp in sinks:
            # a component is a run of consecutive nodes; walk it from its start
            first = next(j for j in comp if (j - 1) % n not in comp)
            last = first
            while (last + 1) % n in comp:
                last += 1
            lo = ends[first][0]
            hi = ends[last % n][1] + (math.pi if last >= n else 0.0)
            arcs.append((float(lo), float(hi)))
        return tuple(sorted(arcs)), len(sinks)

    def sense(self, theta0: float, target: float, sigma: float, max_time: float):
        """Greedy steering along one sense, as (tau, segments); tau is inf
        when the sense is infeasible or slower than ``max_time``.

        The greedy control is ``hi`` where ``sigma * f1 >= 0`` and ``lo``
        elsewhere, ``f1`` being the speed of BK; so the switch points are
        the zeros of ``f1``.  On each piece between them the arrival time is
        the exact integral of ``1 / f``.  A sense is infeasible when its
        chosen speed reaches zero on the closed path (a tangential double
        root included) or points backwards: such a path is dominated
        pointwise by the other sense.
        """
        end = theta0 + sigma * _wrap(sigma * (target - theta0))
        pts = [theta0]
        pts += sorted((c for c in (theta0 + sigma * _wrap(sigma * (z - theta0))
                                   for z in self.cuts)
                       if sigma * (end - c) > 0.0 and c != theta0), key=lambda c: sigma * c)
        pts.append(end)
        total, segs = 0.0, []
        for t1, t2 in zip(pts, pts[1:]):
            mid = 0.5 * (t1 + t2)
            alpha = self.hi if sigma * _speed_at(self.switch, mid) >= 0.0 else self.lo
            field = self.fields[alpha]
            left, right = min(t1, t2), max(t1, t2)
            if (sigma * _speed_at(field, mid) <= 0.0
                    or any(left + _wrap(z - left) <= right for z in self.zeros[alpha])):
                return math.inf, []
            dt = _arc_time(field, t1, t2)
            total += dt
            if not total <= max_time:
                return math.inf, []
            segs.append((alpha, dt))
        return total, segs

    def fastest(self, theta0: float, target: float, tol: float, max_time: float):
        """The faster sense as (tau, segments); (0, []) within ``tol``."""
        if abs(angle_distance(target, theta0)) <= tol:
            return 0.0, []
        return min(self.sense(theta0, target, +1.0, max_time),
                   self.sense(theta0, target, -1.0, max_time), key=lambda r: r[0])


def invariant_control_set_d2(A, B, K, control_range, plarc_samples: int = 64,
                             seed: int = 0) -> InvariantSetResult:
    """Exact invariant control set on the half-circle.

    Control sets of a one-dimensional system are arcs bounded by equilibria
    of the extremal controls, so the set is read from a graph of at most
    eight nodes: the zeros of the angular speeds at both ends of the control
    range and the arcs between them (see ``_Planar.sink_arcs``).  The invariant
    control set is the union of the sink components, with closed-form
    endpoints.  Requires the projected rank certificate; otherwise the
    result is flagged not applicable.  A control range that is not a
    nondegenerate subinterval of [0, 1] raises ``ValueError`` either way.
    """
    lo, hi = float(control_range[0]), float(control_range[1])
    if not (0.0 <= lo < hi <= 1.0):
        raise ValueError("control range must be a nondegenerate subinterval of [0, 1]")
    cert = lie.check_plarc(A, B, K, samples=plarc_samples, seed=seed)
    if not cert.verdict:
        return InvariantSetResult(False, None, 0, cert)
    arcs, n_sinks = _Planar(A, B, K, (lo, hi)).sink_arcs()
    return InvariantSetResult(True, CircleArcSet(arcs=arcs), n_sinks, cert)


def boundary_points(arcs: CircleArcSet, n: int, resolution: int) -> np.ndarray:
    """Points just inside the set near its boundary (or spread out if whole)."""
    h = np.pi / resolution
    if arcs.whole:
        return wrap_angle(np.linspace(0.0, np.pi, n, endpoint=False))
    ends = []
    for lo, hi in arcs.arcs:
        ends.append((lo, +1.0))
        ends.append((hi, -1.0))
    pts = []
    offsets = np.linspace(0.25 * h, 1.25 * h, max(1, n // len(ends)) + 1)
    for endpoint, direction in ends:
        for off in offsets:
            pts.append(wrap_angle(endpoint + direction * off))
            if len(pts) >= n:
                return np.asarray(pts)
    while len(pts) < n:
        pts.append(pts[len(pts) % len(ends)])
    return np.asarray(pts)


@dataclass(frozen=True)
class InvarianceAudit:
    ok: bool
    max_excursion: float   # worst distance to the nearest arc end of a sample
                           # outside the inflated set (radians)
    inflate: float
    n_trajectories: int


# most trajectory-steps one block of the audit holds in memory
_AUDIT_BLOCK = 1 << 14


def _projective_step(m, t: float) -> np.ndarray:
    """A matrix proportional to ``expm(m t)`` for a stack of 2x2 ``m``.

    With N the traceless part of m, ``q = -det N`` and ``r = sqrt|q|``,
    ``expm(N t)`` is proportional to ``I + (tanh(rt)/r) N`` when q > 0, to
    ``cos(rt) I + (sin(rt)/r) N`` when q < 0 and to ``I + tN`` when q = 0;
    the factor ``exp(t tr(m) / 2)`` is dropped.  Only directions matter, and
    no entry can overflow.
    """
    shape = np.shape(m)
    m = np.asarray(m, dtype=float).reshape(-1, 2, 2)
    half = 0.5 * (m[:, 0, 0] - m[:, 1, 1])
    n01, n10 = m[:, 0, 1], m[:, 1, 0]
    q = half * half + n01 * n10
    r = np.sqrt(np.abs(q))
    rt = r * t
    # cos and sin only where q < 0: they cost about ten times tanh
    neg = q < 0.0
    c = np.cos(rt, out=np.ones_like(rt), where=neg)
    s = np.sin(rt, out=np.tanh(rt), where=neg)
    s = np.divide(s, r, out=np.full_like(r, t), where=q != 0.0)
    out = np.empty(m.shape)
    out[:, 0, 0] = c + s * half
    out[:, 0, 1] = s * n01
    out[:, 1, 0] = s * n10
    out[:, 1, 1] = c - s * half
    return out.reshape(shape)


def _flow_block(m, x0, x1, dt: float, hold: int):
    """Exact samples of ``x' = m[w] x`` over consecutive hold windows.

    ``m`` stacks the matrices of ``nw`` windows for ``n`` trajectories,
    shape (nw, n, 2, 2), and (x0, x1) are the directions at the start of
    the first window.  Returns the angles at the ``hold`` multiples of
    ``dt`` inside each window, shape (nw * hold, n), and the unit
    directions at the end of the last window.
    """
    nw, n = m.shape[:2]
    # window starts, chained with the hold * dt matrix and renormalised
    chain = _projective_step(m, hold * dt)
    y0, y1 = np.empty((nw, n)), np.empty((nw, n))
    for w in range(nw):
        y0[w], y1[w] = x0, x1
        p = chain[w]
        x0, x1 = p[:, 0, 0] * x0 + p[:, 0, 1] * x1, p[:, 1, 0] * x0 + p[:, 1, 1] * x1
        norm = np.hypot(x0, x1)
        x0, x1 = x0 / norm, x1 / norm
    # the samples inside each window, all windows at once
    e = _projective_step(m, dt)
    e00, e01, e10, e11 = e[..., 0, 0], e[..., 0, 1], e[..., 1, 0], e[..., 1, 1]
    u0, u1 = np.empty((nw, hold, n)), np.empty((nw, hold, n))
    for j in range(hold):
        y0, y1 = e00 * y0 + e01 * y1, e10 * y0 + e11 * y1
        u0[:, j], u1[:, j] = y0, y1
    return np.arctan2(u1, u0, out=u0).reshape(nw * hold, n), x0, x1


def _excursion(arcs: CircleArcSet, theta) -> float:
    """Largest distance of the angles ``theta`` to the nearest arc end."""
    t = wrap_angle(theta)
    ends = [np.minimum(np.abs(angle_distance(t, lo)), np.abs(angle_distance(t, hi)))
            for lo, hi in arcs.arcs]
    return float(np.min(ends, axis=0).max())


def forward_invariance_audit(A, B, K, control_range, arcs: CircleArcSet,
                             start_angles, n_signals: int = 50,
                             horizon: float = 8.0, dt: float = 1.0 / 256.0,
                             seed: int = 0, inflate: float | None = None,
                             resolution: int = 4096) -> InvarianceAudit:
    """Follow random admissible controls from the given starting angles.

    Every trajectory must stay inside the arc set inflated by two reporting
    cells (``2 pi / resolution`` by default, a cell being
    ``pi / resolution``).  Controls are piecewise constant, redrawn
    uniformly from the control range every ``hold = 8`` steps.  The flow of
    ``x' = (A + alpha BK) x`` is exact (``_projective_step``); ``dt`` is only
    its sampling step, and the set is checked at every multiple of ``dt`` up
    to ``ceil(horizon / dt)`` steps.  The audit reads only A, B, K and the
    control range, so it stays independent of the closed forms it checks.
    """
    lo, hi = float(control_range[0]), float(control_range[1])
    a, bk = _planar_loop(A, B, K)
    if inflate is None:
        inflate = 2.0 * np.pi / resolution
    starts = np.repeat(np.asarray(start_angles, dtype=float), n_signals)
    n_traj = starts.size
    steps = int(np.ceil(horizon / dt))
    hold = 8
    windows = -(-steps // hold)
    rng = np.random.default_rng(seed)
    rng.random(n_traj)  # drawn before the first window; kept for the stream
    x0, x1 = np.cos(starts), np.sin(starts)
    # a block is at most _AUDIT_BLOCK trajectory-steps: whole windows of
    # every trajectory, or one window of a slice of them
    chunk = max(1, _AUDIT_BLOCK // hold)
    per_block = max(1, chunk // max(1, n_traj))
    worst = 0.0
    ok = True
    for w0 in range(0, windows, per_block):
        # one draw per window, in window order
        alpha = lo + (hi - lo) * rng.random((min(per_block, windows - w0), n_traj))
        for c in range(0, n_traj, chunk):
            part = slice(c, c + chunk)
            m = a + alpha[:, part, None, None] * bk
            theta, x0[part], x1[part] = _flow_block(m, x0[part], x1[part], dt, hold)
            theta = theta[:steps - w0 * hold]
            inside = arcs.contains(theta, inflate=inflate)
            if not inside.all():
                ok = False
                worst = max(worst, _excursion(arcs, theta[~inside]))
    return InvarianceAudit(ok=ok, max_excursion=worst, inflate=float(inflate),
                           n_trajectories=n_traj)


class SteeringError(RuntimeError):
    """Greedy steering stalled before reaching the target."""

    def __init__(self, message: str, best_distance: float):
        super().__init__(message)
        self.best_distance = best_distance


@dataclass(frozen=True)
class SteerResult:
    signal: PESignal   # aperiodic control segment, values inside the range
    tau: float
    final_distance: float


def steer_d2(q0, q_target, A, B, K, control_range, resolution: int = 4096,
             max_time: float = 100.0) -> SteerResult:
    """Greedy bang-bang steering between two directions on the half-circle.

    The control takes the endpoint of the range that pushes the angle
    fastest in the chosen rotation sense; both senses are evaluated in
    closed form (see ``_Planar.sense``) and the faster one is returned,
    with the exact switch times as its segments.  The path ends on the
    target; a start within ``pi / resolution`` of it counts as already
    there.  Raises ``SteeringError`` when neither sense arrives within
    ``max_time``.
    """
    theta0 = angle_of(q0)
    target = angle_of(q_target)
    tol = math.pi / resolution
    tau, segs = _Planar(A, B, K, control_range).fastest(theta0, target, tol, max_time)
    if not math.isfinite(tau):
        raise SteeringError(
            f"target unreachable within {max_time:.3g} time units",
            best_distance=float(abs(angle_distance(target, theta0))))
    sig = PESignal.from_segments(segs) if segs else PESignal.constant(float(control_range[1]))
    return SteerResult(signal=sig, tau=tau, final_distance=0.0)


def steering_time_bound(A, B, K, control_range, q_target, resolution: int = 4096,
                        mesh: int = 96, max_time: float = 100.0,
                        slack: float = 1.25) -> float:
    """Empirical uniform steering-time bound to one target direction.

    Takes the exact greedy arrival times from a mesh of starting angles and
    returns the worst with a safety factor; a fresh starting point lies
    within one mesh cell of a probed one, so its greedy arrival time is
    covered by the slack.
    """
    planar = _Planar(A, B, K, control_range)
    target = angle_of(q_target)
    tol = math.pi / resolution
    starts = wrap_angle(np.linspace(0.0, np.pi, mesh, endpoint=False))
    worst = max(planar.fastest(float(t), target, tol, max_time)[0] for t in starts)
    if not math.isfinite(worst):
        raise SteeringError("some mesh starts cannot reach the target",
                            best_distance=np.nan)
    return float(slack * worst + 1.0)
