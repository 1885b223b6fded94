"""Dynamics on real projective space.

General-dimension projected fields, plus the planar (d = 2) toolkit: angle
dynamics on the half-circle [0, pi), a grid approximation of the invariant
control set of the projected bilinear system, and greedy bang-bang steering
between directions.
"""

from __future__ import annotations

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
    """Reduce an angle modulo pi into [0, pi)."""
    return np.mod(theta, np.pi)


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


def angle_dynamics_d2(A, B, K):
    """Polar reduction of the planar projected system.

    Returns (f, g) with ``f(theta, alpha)`` the angular speed and
    ``g(theta, alpha)`` the radial log-derivative of
    ``x' = (A + alpha B K) x`` along ``q = (cos theta, sin theta)``.
    Both are pi-periodic in theta and accept arrays.
    """
    a = require_square(A, "A")
    if a.shape != (2, 2):
        raise ValueError("angle dynamics need d = 2")
    b = as_matrix(B, "B")
    k = as_matrix(K, "K")
    bk = b @ k

    def rates(theta, alpha, m):
        c, s = np.cos(theta), np.sin(theta)
        qx = m[0, 0] * c + m[0, 1] * s
        qy = m[1, 0] * c + m[1, 1] * s
        return c, s, qx, qy

    def f(theta, alpha):
        m0 = a
        c, s, q0x, q0y = rates(theta, alpha, m0)
        base = -s * q0x + c * q0y
        c, s, q1x, q1y = rates(theta, alpha, bk)
        return base + np.asarray(alpha) * (-s * q1x + c * q1y)

    def g(theta, alpha):
        c, s, q0x, q0y = rates(theta, alpha, a)
        base = c * q0x + s * q0y
        c, s, q1x, q1y = rates(theta, alpha, bk)
        return base + np.asarray(alpha) * (c * q1x + s * q1y)

    return f, g


@dataclass(frozen=True)
class CircleArcSet:
    """Disjoint arcs [lo, hi) on the half-circle [0, pi)."""

    arcs: tuple  # of (lo, hi), 0 <= lo < hi <= pi

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
    resolution: int
    n_sinks: int
    certificate: lie.RankCertificate | None


def _arcs_from_mask(mask: np.ndarray, resolution: int) -> CircleArcSet:
    h = np.pi / resolution
    if mask.all():
        return CircleArcSet(arcs=((0.0, np.pi),))
    idx = np.flatnonzero(mask)
    arcs = []
    start = prev = None
    for j in idx:
        if start is None:
            start = prev = j
        elif j == prev + 1:
            prev = j
        else:
            arcs.append((start, prev))
            start = prev = j
    if start is not None:
        arcs.append((start, prev))
    # merge a wrap-around run (last cell adjacent to first)
    if len(arcs) >= 2 and arcs[0][0] == 0 and arcs[-1][1] == mask.size - 1:
        first = arcs.pop(0)
        last = arcs.pop()
        arcs.append((last[0], first[1] + mask.size))
    out = []
    for a, b in arcs:
        lo = (a % mask.size) * h
        hi = lo + (b - a + 1) * h
        out.append((float(lo), float(hi)))
    out.sort()
    return CircleArcSet(arcs=tuple(out))


def invariant_control_set_d2(A, B, K, control_range, resolution: int = 4096,
                             plarc_samples: int = 64, seed: int = 0) -> InvariantSetResult:
    """Grid approximation of the invariant control set on the half-circle.

    Builds a reachability graph on ``resolution`` cells: a cell can hand the
    flow to its upper neighbour when the maximal angular speed over the
    control range is positive at both cell ends, and symmetrically downward.
    The invariant control set is the union of the sink strongly connected
    components, accurate to one cell.  Requires the projected rank
    certificate; otherwise the result is flagged not applicable.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    cert = lie.check_plarc(A, B, K, samples=plarc_samples, seed=seed)
    if not cert.verdict:
        return InvariantSetResult(False, None, resolution, 0, cert)
    lo, hi = float(control_range[0]), float(control_range[1])
    if not (0.0 <= lo < hi <= 1.0):
        raise ValueError("control range must be a nondegenerate subinterval of [0, 1]")
    f, _ = angle_dynamics_d2(A, B, K)
    n = int(resolution)
    theta = np.arange(n) * (np.pi / n)
    f_lo = f(theta, lo)
    f_hi = f(theta, hi)
    fmin = np.minimum(f_lo, f_hi)
    fmax = np.maximum(f_lo, f_hi)
    nxt = np.roll(np.arange(n), -1)
    up = (fmax > 0.0) & (np.roll(fmax, -1) > 0.0)
    down = (fmin < 0.0) & (np.roll(fmin, 1) < 0.0)
    rows = np.concatenate([np.flatnonzero(up), np.flatnonzero(down)])
    cols = np.concatenate([nxt[up], np.roll(np.arange(n), 1)[down]])
    graph = csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    n_comp, labels = connected_components(graph, directed=True, connection="strong")
    has_exit = np.zeros(n_comp, dtype=bool)
    for u, v in zip(rows, cols):
        if labels[u] != labels[v]:
            has_exit[labels[u]] = True
    sinks = np.flatnonzero(~has_exit)
    mask = np.isin(labels, sinks)
    return InvariantSetResult(True, _arcs_from_mask(mask, n), n,
                              int(sinks.size), cert)


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
    max_excursion: float   # worst distance outside the inflated set (radians)
    inflate: float
    n_trajectories: int


def forward_invariance_audit(A, B, K, control_range, arcs: CircleArcSet,
                             start_angles, n_signals: int = 50,
                             horizon: float = 8.0, dt: float = 1.0 / 256.0,
                             seed: int = 0, inflate: float | None = None,
                             resolution: int = 4096) -> InvarianceAudit:
    """Simulate random admissible controls from the given starting angles.

    Every trajectory must stay inside the arc set inflated by one grid
    period (2 pi / resolution by default).  Controls are piecewise constant,
    redrawn uniformly from the control range every few steps.
    """
    lo, hi = float(control_range[0]), float(control_range[1])
    f, _ = angle_dynamics_d2(A, B, K)
    if inflate is None:
        inflate = 2.0 * np.pi / resolution
    starts = np.asarray(start_angles, dtype=float)
    rng = np.random.default_rng(seed)
    theta = np.repeat(starts, n_signals)
    n_traj = theta.size
    steps = int(np.ceil(horizon / dt))
    hold = 8
    alpha = lo + (hi - lo) * rng.random(n_traj)
    worst = 0.0
    ok = True
    for step in range(steps):
        if step % hold == 0:
            alpha = lo + (hi - lo) * rng.random(n_traj)
        k1 = f(theta, alpha)
        k2 = f(theta + 0.5 * dt * k1, alpha)
        k3 = f(theta + 0.5 * dt * k2, alpha)
        k4 = f(theta + dt * k3, alpha)
        theta = theta + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        inside = arcs.contains(theta, inflate=inflate)
        if not np.all(inside):
            ok = False
            out = wrap_angle(theta[~inside])
            for t in out:
                dist = min(min(abs(angle_distance(t, lo)), abs(angle_distance(t, hi)))
                           for lo, hi in arcs.arcs)
                worst = max(worst, float(dist))
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


def _directional_times(f, starts: np.ndarray, target: float, lo: float, hi: float,
                       tol: float, dt: float, max_time: float) -> np.ndarray:
    """First hitting times of the target for both rotation senses, vectorised.

    Column j of the result pairs start j; rows are the two senses.  Inf
    marks a sense that never arrives within ``max_time``.  Steps shrink near
    the target so the tolerance window cannot be overshot.
    """
    n = starts.size
    theta = np.concatenate([starts, starts])
    sense = np.concatenate([np.ones(n), -np.ones(n)])
    t_acc = np.zeros(2 * n)
    done = np.abs(angle_distance(target, theta)) <= tol
    max_iter = int(np.ceil(max_time / dt)) + 256
    for _ in range(max_iter):
        if done.all() or t_acc[~done].min() > max_time:
            break
        cand_lo = f(theta, lo)
        cand_hi = f(theta, hi)
        alpha = np.where(sense * cand_hi >= sense * cand_lo, hi, lo)
        k1 = f(theta, alpha)
        dist = np.abs(angle_distance(target, theta))
        h = np.minimum(dt, 0.45 * dist / np.maximum(np.abs(k1), 1e-12))
        k2 = f(theta + 0.5 * h * k1, alpha)
        k3 = f(theta + 0.5 * h * k2, alpha)
        k4 = f(theta + h * k3, alpha)
        move = (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        theta = np.where(done, theta, theta + move)
        t_acc = np.where(done, t_acc, t_acc + h)
        done |= np.abs(angle_distance(target, theta)) <= tol
    times = np.where(done, t_acc, np.inf)
    return times.reshape(2, n)


def steer_d2(q0, q_target, A, B, K, control_range, resolution: int = 4096,
             dt: float = 1.0 / 256.0, max_time: float = 100.0) -> SteerResult:
    """Greedy bang-bang steering between two directions on the half-circle.

    At every step the control takes the endpoint of the range that pushes
    the angle fastest in the chosen rotation sense; both senses are
    attempted and the faster one is replayed to produce the control segment.
    Raises ``SteeringError`` when neither sense arrives.
    """
    lo, hi = float(control_range[0]), float(control_range[1])
    f, _ = angle_dynamics_d2(A, B, K)
    theta0 = angle_of(q0)
    target = angle_of(q_target)
    tol = np.pi / resolution
    if abs(angle_distance(target, theta0)) <= tol:
        return SteerResult(signal=PESignal.constant(hi), tau=0.0, final_distance=0.0)
    times = _directional_times(f, np.array([theta0]), target, lo, hi, tol, dt, max_time)
    best_sense = int(np.argmin(times[:, 0]))
    if not np.isfinite(times[best_sense, 0]):
        raise SteeringError(
            f"target unreachable within {max_time:.3g} time units",
            best_distance=float(abs(angle_distance(target, theta0))))
    sense = 1.0 if best_sense == 0 else -1.0
    theta = theta0
    segs = []
    t = 0.0
    while abs(angle_distance(target, theta)) > tol:
        a_lo, a_hi = f(theta, lo), f(theta, hi)
        alpha = hi if sense * a_hi >= sense * a_lo else lo
        k1 = f(theta, alpha)
        dist = abs(angle_distance(target, theta))
        h = min(dt, 0.45 * dist / max(abs(k1), 1e-12))
        k2 = f(theta + 0.5 * h * k1, alpha)
        k3 = f(theta + 0.5 * h * k2, alpha)
        k4 = f(theta + h * k3, alpha)
        theta = theta + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        segs.append((alpha, h))
        t += h
        if t > max_time + 1.0:  # pragma: no cover - guarded by the probe above
            raise SteeringError("steering replay stalled",
                                best_distance=float(abs(angle_distance(target, theta))))
    sig = PESignal.from_segments(segs) if segs else PESignal.constant(hi)
    return SteerResult(signal=sig, tau=t,
                       final_distance=float(abs(angle_distance(target, theta))))


def steering_time_bound(A, B, K, control_range, q_target, resolution: int = 4096,
                        mesh: int = 96, dt: float = 1.0 / 256.0,
                        max_time: float = 100.0, slack: float = 1.25) -> float:
    """Empirical uniform steering-time bound to one target direction.

    Steers from a mesh of starting angles and returns the worst arrival time
    with a safety factor; a fresh starting point lies within one mesh cell
    of a probed one, so its greedy arrival time is covered by the slack.
    """
    lo, hi = float(control_range[0]), float(control_range[1])
    f, _ = angle_dynamics_d2(A, B, K)
    target = angle_of(q_target)
    tol = np.pi / resolution
    starts = wrap_angle(np.linspace(0.0, np.pi, mesh, endpoint=False))
    times = _directional_times(f, starts, target, lo, hi, tol, dt, max_time)
    per_start = times.min(axis=0)
    if not np.all(np.isfinite(per_start)):
        raise SteeringError("some mesh starts cannot reach the target",
                            best_distance=np.nan)
    return float(slack * per_start.max() + 1.0)
