"""Dynamics on real projective space.

Canonical representatives of projective points, plus the planar (d = 2)
toolkit: angle dynamics on the half-circle [0, pi), the exact invariant
control set of the projected bilinear system, and greedy bang-bang steering
between directions with exact switch and arrival times.

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
from .matcore import _integer_arg, canonical_unit, closed_loop
from .signals import PESignal

__all__ = [
    "proj_point",
    "angle_of",
    "point_of",
    "wrap_angle",
    "angle_distance",
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
    """Reduce an angle modulo pi into [0, pi].

    The same bits as ``np.mod(theta, pi)`` (``fmod``, plus pi where that is
    negative, and ``+ 0.0`` turning -0 into +0) at a third of its cost.
    Like ``np.mod`` it gives pi itself where a tiny negative angle rounds
    up: ``wrap_angle(-1e-17)`` is pi, where ``_wrap`` gives 0.
    """
    r = np.fmod(theta, np.pi)
    return r + (r < 0.0) * np.pi


def angle_distance(a, b):
    """Signed distance from b to a on the half-circle, in [-pi/2, pi/2)."""
    return np.mod(a - b + np.pi / 2.0, np.pi) - np.pi / 2.0


def angle_of(q) -> float:
    """Angle in [0, pi] of the planar projective point q: the bits of
    ``wrap_angle(np.arctan2(u[1], u[0]))``, ``u = proj_point(q)``, in one
    pass over two floats.  The norm stays the BLAS dot of ``np.linalg.norm``
    and the angle numpy's ``arctan2``: ``math.sqrt(x*x + y*y)`` and
    ``math.atan2`` round otherwise on some inputs."""
    tol = 1e-12
    v = np.asarray(q, dtype=float).ravel()
    n = math.sqrt(v.dot(v))
    if n <= tol:
        raise ValueError("cannot project the zero vector")
    if v.size != 2:
        raise ValueError("angles are defined for d = 2")
    x, y = v.tolist()
    x, y = x / n, y / n
    if (x < -tol) if abs(x) > tol else (y < -tol):
        x, y = -x, -y
    r = math.fmod(float(np.arctan2(y, x)), math.pi)
    return r + math.pi if r < 0.0 else r + 0.0


def point_of(theta) -> np.ndarray:
    return np.array([np.cos(theta), np.sin(theta)])


def _speed_coeffs(m) -> tuple:
    """(c0, c1, c2): the angular speed of ``x' = m x`` is
    ``c0 + c1 cos 2theta + c2 sin 2theta`` (m an array or nested lists)."""
    (m00, m01), (m10, m11) = m
    return (m10 - m01) / 2.0, (m10 + m01) / 2.0, (m11 - m00) / 2.0


def _finite(m) -> bool:
    return all(map(math.isfinite, m.ravel().tolist()))


def _planar_loop(A, B, K):
    """``(A, BK)`` of a planar closed loop as float64 arrays, with the checks
    and messages of ``matcore.closed_loop``, then d = 2.  A valid triple
    (K may be a 1-D row, as ``as_matrix`` reads it) costs a few shape tests
    and one pass over its floats, each matrix checked before the next is
    read; any other raises ``closed_loop``'s message or the d = 2 one."""
    a = np.asarray(A, dtype=float)
    if a.shape == (2, 2) and _finite(a):
        b = np.asarray(B, dtype=float)
        if b.ndim == 2 and b.shape[0] == 2 and _finite(b):
            k = np.asarray(K, dtype=float)
            if k.ndim < 2:
                k = k.reshape(1, -1)
            if k.shape == (b.shape[1], 2) and _finite(k):
                return a, b @ k
    closed_loop(A, B, K)
    raise ValueError("angle dynamics need d = 2")


def _control_range(control_range) -> tuple[float, float]:
    """``(lo, hi)`` as floats, checked to be a nondegenerate subinterval of [0, 1]."""
    lo, hi = float(control_range[0]), float(control_range[1])
    if not (0.0 <= lo < hi <= 1.0):
        raise ValueError("control range must be a nondegenerate subinterval of [0, 1]")
    return lo, hi


def _polar(coeffs) -> tuple:
    """(big, small, shift) of the speed ``c0 + c1 cos 2theta + c2 sin 2theta``:
    it equals ``big cos^2 v + small sin^2 v`` with ``v = theta - shift``."""
    c0, c1, c2 = map(float, coeffs)
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
    z1, z2 = _wrap(shift + v0), _wrap(shift - v0)
    if z1 == z2:
        return (z1,)
    return (z2, z1) if z2 < z1 else (z1, z2)


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

    def _covers(self, t, inflate: float):
        """Membership of an array of angles already wrapped into [0, pi] in
        the arc set inflated by ``inflate`` on both sides."""
        inside = np.zeros(t.shape, dtype=bool)
        for lo, hi in self.arcs:
            lo_i, hi_i = lo - inflate, hi + inflate
            # inflation may spill across the pi-wrap; as t <= pi, t - pi >= lo_i
            # needs lo_i <= 0, and as t >= 0, t + pi < hi_i needs hi_i > pi
            for u in (t, t - np.pi if lo_i <= 0.0 else None,
                      t + np.pi if hi_i > np.pi else None):
                if u is not None:
                    inside |= (u >= lo_i) & (u < hi_i)
        return inside

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
        a, bk = _planar_loop(A, B, K)
        (a0, a1, a2), cb = _speed_coeffs(a.tolist()), _speed_coeffs(bk.tolist())
        b0, b1, b2 = cb
        self.lo, self.hi = lo, hi = _control_range(control_range)
        self.switch = _polar(cb)
        self.cuts = _zeros(self.switch)
        f_lo = _polar((a0 + lo * b0, a1 + lo * b1, a2 + lo * b2))
        f_hi = _polar((a0 + hi * b0, a1 + hi * b1, a2 + hi * b2))
        self.fields = {lo: f_lo, hi: f_hi}
        self.zeros = {lo: _zeros(f_lo), hi: _zeros(f_hi)}

    def sink_arcs(self) -> tuple:
        """Sink strongly connected components of the zero/arc graph, as arcs.

        The nodes, in circular order, are the zeros of the two extremal
        speeds and the open arcs between them (at most four of each); the
        sign of each speed is constant on a node.  A node hands the flow to
        its upper neighbour when the larger speed is positive on it, and to
        its lower neighbour when the smaller speed is negative.  Every edge
        joins neighbours on the cycle, so one scan finds the components: the
        whole circle when the flow can go all the way round or at most one
        link is not passed both ways, else the maximal runs of nodes joined
        both ways.  A run is a sink when its ends hand the flow nowhere
        outward.  Returns the sink components as (lo, hi) pairs, and their
        count.
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

        joined = [up[j] and down[(j + 1) % n] for j in range(n)]
        if all(up) or all(down) or joined.count(False) < 2:
            return ((0.0, math.pi),), 1
        breaks = [j for j in range(n) if not joined[j]]
        arcs = []
        for brk, nxt in zip(breaks, breaks[1:] + [breaks[0] + n]):
            first = (brk + 1) % n
            last = first + nxt - brk - 1  # the run first..last, unwrapped
            if not down[first] and not up[last % n]:
                hi = ends[last % n][1] + (math.pi if last >= n else 0.0)
                arcs.append((float(ends[first][0]), float(hi)))
        return tuple(sorted(arcs)), len(arcs)

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
        for z in self.cuts:  # at most two; put in the order of travel below
            c = theta0 + sigma * _wrap(sigma * (z - theta0))
            if sigma * (end - c) > 0.0 and c != theta0:
                pts.append(c)
        if len(pts) == 3 and sigma * pts[2] < sigma * pts[1]:
            pts[1], pts[2] = pts[2], pts[1]
        pts.append(end)
        lo, hi, switch, fields, zeros = self.lo, self.hi, self.switch, self.fields, self.zeros
        total, segs = 0.0, []
        for t1, t2 in zip(pts, pts[1:]):
            mid = 0.5 * (t1 + t2)
            alpha = hi if sigma * _speed_at(switch, mid) >= 0.0 else lo
            field = fields[alpha]
            if sigma * _speed_at(field, mid) <= 0.0:
                return math.inf, []
            left, right = min(t1, t2), max(t1, t2)
            for z in zeros[alpha]:
                if left + _wrap(z - left) <= right:
                    return math.inf, []
            dt = _arc_time(field, t1, t2)
            total += dt
            if not total <= max_time:
                return math.inf, []
            segs.append((alpha, dt))
        return total, segs

    def fastest(self, theta0: float, target: float, tol: float, max_time: float):
        """The faster sense as (tau, segments); (0, []) within ``tol``."""
        half = 0.5 * math.pi  # angle_distance in floats: % has np.mod's bits
        if abs((target - theta0 + half) % math.pi - half) <= tol:
            return 0.0, []
        fwd = self.sense(theta0, target, +1.0, max_time)
        bwd = self.sense(theta0, target, -1.0, max_time)
        return bwd if bwd[0] < fwd[0] else fwd


def invariant_control_set_d2(A, B, K, control_range, seed: int = 0) -> InvariantSetResult:
    """Exact invariant control set on the half-circle.

    Control sets of a one-dimensional system are arcs bounded by equilibria
    of the extremal controls, so the set is read from a cycle of at most
    eight nodes: the zeros of the angular speeds at both ends of the control
    range and the arcs between them (see ``_Planar.sink_arcs``).  The invariant
    control set is the union of the sink components, with closed-form
    endpoints.  Requires the projected rank certificate; otherwise the
    result is flagged not applicable.  A control range that is not a
    nondegenerate subinterval of [0, 1], or a pair with d != 2, raises
    ``ValueError`` either way, before the certificate runs.
    """
    _control_range(control_range)
    _planar_loop(A, B, K)
    cert = lie.check_plarc(A, B, K, seed=seed)
    if not cert.verdict:
        return InvariantSetResult(False, None, 0, cert)
    arcs, n_sinks = _Planar(A, B, K, control_range).sink_arcs()
    return InvariantSetResult(True, CircleArcSet(arcs=arcs), n_sinks, cert)


def boundary_points(arcs: CircleArcSet, n: int, resolution: int) -> np.ndarray:
    """Points just inside the set near its boundary (or spread out if whole)."""
    n, resolution = _integer_arg(n, "n", 1), _integer_arg(resolution, "resolution", 1)
    if not arcs.arcs:
        raise ValueError("arcs is empty: the set has no boundary")
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
# most trajectory-steps one audit takes (17 times the 5000 x 1536 of C12)
_AUDIT_STEPS = 1 << 27


def _projective_steps(m, times) -> list:
    """Matrices proportional to ``expm(m t)`` for each t of ``times``, for
    a 2x2 ``m`` given by its entry arrays ``(m00, m01, m10, m11)``, and
    returned the same way.

    With N the traceless part of m, ``q = -det N`` and ``r = sqrt|q|``,
    ``expm(N t)`` is proportional to ``I + (tanh(rt)/r) N`` when q > 0, to
    ``cos(rt) I + (sin(rt)/r) N`` when q < 0 and to ``I + tN`` when q = 0;
    the factor ``exp(t tr(m) / 2)`` is dropped.  Only directions matter, and
    no entry can overflow.  The entries of N, q and r are shared by all the
    times.
    """
    m00, m01, m10, m11 = (np.asarray(x, dtype=float) for x in m)
    half = 0.5 * (m00 - m11)
    q = half * half + m01 * m10
    r = np.sqrt(np.abs(q))
    # cos and sin only where q < 0: they cost about ten times tanh
    neg = q < 0.0
    turning = neg.any()
    nonzero = q != 0.0
    shear = not nonzero.all()
    out = []
    for t in times:
        rt = r * t
        s = np.tanh(rt)
        if turning:
            c = np.cos(rt, out=np.ones_like(rt), where=neg)
            np.sin(rt, out=s, where=neg)
        else:
            c = 1.0  # 1.0 + x has the bits of ones + x
        if shear:
            s = np.divide(s, r, out=np.full_like(r, t), where=nonzero)
        else:
            s /= r
        sh = s * half
        out.append((c + sh, s * m01, s * m10, c - sh))
    return out


def _flow_block(m, x0, x1, dt: float, hold: int):
    """Exact samples of ``x' = m[w] x`` over consecutive hold windows.

    ``m`` holds the four entry arrays of the matrices of ``nw`` windows for
    ``n`` trajectories, each of shape (nw, n), and (x0, x1) the directions
    at the start of the first window; they are advanced in place to the
    unit directions at the end of the last window.  Returns the angles at
    the ``hold`` multiples of ``dt`` inside each window, in (-pi, pi] as
    ``arctan2`` gives them, shape (nw * hold, n).
    """
    nw, n = m[0].shape
    (p00, p01, p10, p11), (e00, e01, e10, e11) = _projective_steps(m, (hold * dt, dt))
    # window starts, chained with the hold * dt matrix and renormalised
    y0, y1 = np.empty((nw + 1, n)), np.empty((nw + 1, n))
    y0[0], y1[0] = x0, x1
    tmp = np.empty(n)
    for a0, a1, b0, b1, q00, q01, q10, q11 in zip(y0, y1, y0[1:], y1[1:], p00, p01, p10, p11):
        np.multiply(q00, a0, out=b0)
        b0 += np.multiply(q01, a1, out=tmp)
        np.multiply(q10, a0, out=b1)
        b1 += np.multiply(q11, a1, out=tmp)
        np.hypot(b0, b1, out=tmp)
        b0 /= tmp
        b1 /= tmp
    x0[:], x1[:] = y0[nw], y1[nw]
    # the samples inside each window, all windows at once; sample j of every
    # window is one contiguous (nw, n) slice
    tmp = np.empty((nw, n))
    u0, u1 = np.empty((hold, nw, n)), np.empty((hold, nw, n))
    a0, a1 = y0[:nw], y1[:nw]
    for b0, b1 in zip(u0, u1):
        np.multiply(e00, a0, out=b0)
        b0 += np.multiply(e01, a1, out=tmp)
        np.multiply(e10, a0, out=b1)
        b1 += np.multiply(e11, a1, out=tmp)
        a0, a1 = b0, b1
    theta = np.empty((nw, hold, n))
    np.arctan2(u1, u0, out=theta.transpose(1, 0, 2))
    return theta.reshape(nw * hold, n)


def _wrap_arctan2(theta):
    """``wrap_angle`` of angles in [-pi, pi], such as those of ``arctan2``:
    there ``fmod(theta, pi)`` is theta itself except at +-pi, so the wrap
    adds pi to the negative angles and maps pi to 0.  A tiny negative angle
    whose sum with pi rounds to pi stays pi, as in ``wrap_angle``."""
    t = theta + (theta < 0.0) * np.pi
    t[theta == np.pi] = 0.0
    return t


def _excursion(arcs: CircleArcSet, theta) -> float:
    """Largest distance of the angles ``theta`` to the nearest arc end."""
    t = wrap_angle(theta)
    ends = [np.minimum(np.abs(angle_distance(t, lo)), np.abs(angle_distance(t, hi)))
            for lo, hi in arcs.arcs]
    return float(np.min(ends, axis=0).max())


def forward_invariance_audit(A, B, K, control_range, arcs: CircleArcSet,
                             start_angles, n_signals: int = 50,
                             horizon: float = 8.0, seed: int = 0,
                             resolution: int = 4096) -> InvarianceAudit:
    """Follow random admissible controls from the given starting angles.

    Every trajectory must stay inside the arc set inflated by two reporting
    cells, ``2 pi / resolution`` (a cell being ``pi / resolution``).
    Controls are piecewise constant, redrawn uniformly from the control
    range every ``hold = 8`` steps of ``dt = 1/256``.  The flow of
    ``x' = (A + alpha BK) x`` is exact (``_projective_steps``); ``dt`` is only
    its sampling step, and the set is checked at every multiple of ``dt`` up
    to ``ceil(horizon / dt)`` steps.  The audit reads only A, B, K and the
    control range, so it stays independent of the closed forms it checks.
    An audit that would check nothing (no start, no signal or a horizon
    that is not positive and finite) raises ``ValueError``, and so does one
    of more than ``_AUDIT_STEPS`` trajectory-steps.
    """
    lo, hi = _control_range(control_range)
    a, bk = _planar_loop(A, B, K)
    n_signals = _integer_arg(n_signals, "n_signals", 1)
    inflate = 2.0 * np.pi / _integer_arg(resolution, "resolution", 1)
    if not (horizon > 0 and math.isfinite(horizon)):
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    starts = np.asarray(start_angles, dtype=float)
    if not starts.size:
        raise ValueError("start_angles is empty")
    dt = 1.0 / 256.0
    starts = np.repeat(starts, n_signals)
    n_traj = starts.size
    steps = math.ceil(horizon / dt)
    if n_traj * steps > _AUDIT_STEPS:
        raise ValueError(f"horizon={horizon!r} takes {n_traj} trajectories over {steps} steps, "
                         f"more than the {_AUDIT_STEPS} trajectory-steps an audit may take")
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
            al = alpha[:, part]
            m = [a[i, j] + al * bk[i, j] for i in (0, 1) for j in (0, 1)]
            theta = _flow_block(m, x0[part], x1[part], dt, hold)[:steps - w0 * hold]
            inside = arcs._covers(_wrap_arctan2(theta), inflate)
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
    tol = math.pi / _integer_arg(resolution, "resolution", 1)
    tau, segs = _Planar(A, B, K, control_range).fastest(theta0, target, tol, max_time)
    if not math.isfinite(tau):
        raise SteeringError(
            f"target unreachable within {max_time:.3g} time units",
            best_distance=float(abs(angle_distance(target, theta0))))
    sig = PESignal.from_segments(segs) if segs else PESignal.constant(float(control_range[1]))
    return SteerResult(signal=sig, tau=tau, final_distance=0.0)


def steering_time_bound(A, B, K, control_range, q_target, resolution: int = 4096,
                        mesh: int = 96, max_time: float = 100.0) -> float:
    """Empirical uniform steering-time bound to one target direction.

    Takes the exact greedy arrival times from a mesh of starting angles and
    returns ``1.25 * worst + 1``; a fresh starting point lies within one mesh
    cell of a probed one, so its greedy arrival time is covered by the
    slack.
    """
    mesh = _integer_arg(mesh, "mesh", 1)
    planar = _Planar(A, B, K, control_range)
    target = angle_of(q_target)
    tol = math.pi / _integer_arg(resolution, "resolution", 1)
    starts = wrap_angle(np.linspace(0.0, np.pi, mesh, endpoint=False))
    worst = max(planar.fastest(t, target, tol, max_time)[0] for t in starts.tolist())
    if not math.isfinite(worst):
        raise SteeringError("some mesh starts cannot reach the target",
                            best_distance=np.nan)
    return float(1.25 * worst + 1.0)
