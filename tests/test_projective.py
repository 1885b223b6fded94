import hashlib
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from pegrowth import projective as prj
from pegrowth import rates
from pegrowth.matcore import closed_loop, require_square
from pegrowth.signals import PESignal, SignalClass, validate_pe

from oracles import ReferencePlanar, angle_field, proj_point, reference_angle_of

ROT = np.array([[0.0, -1.0], [1.0, 0.0]])
ZERO_IN = (np.zeros((2, 1)), np.zeros((1, 2)))
CLS = SignalClass(1.0, 0.4)
RANGE = (CLS.floor, 1.0)

# controllable saddle with a proper invariant arc (verified PLARC)
SADDLE = (np.array([[1.0, 0.0], [0.0, -1.0]]),
          np.array([[1.0], [1.0]]),
          np.array([[-0.6, 0.2]]))


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


class TestProjectField:
    def test_identity_projects_to_zero(self):
        q = proj_point([1.0, 2.0, -1.0])
        np.testing.assert_allclose(project_field(np.eye(3), q),
                                   np.zeros(3), atol=1e-14)

    def test_rotation_at_e1(self):
        out = project_field(ROT, [1.0, 0.0])
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-14)

    def test_saddle_at_diagonal(self):
        q = proj_point([1.0, 1.0])
        out = project_field(np.diag([1.0, -1.0]), q)
        # radial part cancels; tangent pushes toward e1
        assert out[0] > 0 and out[1] < 0
        np.testing.assert_allclose(out @ q, 0.0, atol=1e-14)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((3, 3))
        q = proj_point(rng.standard_normal(3))
        for lam in (-2.0, 0.5, 10.0):
            np.testing.assert_allclose(
                project_field(m + lam * np.eye(3), q),
                project_field(m, q), atol=1e-10)


def rotated(triple, angle):
    """The triple in coordinates rotated by ``angle``: directions move by
    ``angle`` on the half-circle."""
    a, b, k = triple
    r = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    return r @ a @ r.T, r @ b, k @ r.T


def random_pairs(n, seed=11):
    """Seeded random planar triples with control ranges, lo = 0 about half
    the time."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        a, b, k = (rng.standard_normal(shape) for shape in ((2, 2), (2, 1), (1, 2)))
        lo = 0.0 if rng.random() < 0.5 else rng.uniform(0.0, 0.8)
        yield a, b, k, (lo, 1.0)


class TestAngleDynamics:
    def test_closed_form_matches_project_field(self):
        # the polar speed that _Planar reads at a control value, and the
        # oracle's, are the tangential part of the projected field
        rng = np.random.default_rng(8)
        for a, b, k, _ in random_pairs(20, seed=8):
            f, _ = angle_field(a, b, k)
            theta = rng.uniform(-2 * np.pi, 2 * np.pi, 5)
            alpha = rng.uniform(0.0, 1.0, 5)
            # arrays in, arrays out
            np.testing.assert_allclose(f(theta, alpha), [
                f(t, al) for t, al in zip(theta, alpha)], rtol=1e-14, atol=1e-14)
            for t, al in zip(theta, alpha):
                m = a + al * (b @ k)
                q = prj.point_of(t)
                normal = np.array([-np.sin(t), np.cos(t)])
                # project_field picks the canonical sign; the angular speed
                # is sign-free
                u = proj_point(q)
                sgn = float(np.sign(u @ q))
                speed = sgn * (normal @ project_field(m, q))
                field = prj._Planar(a, b, k, (0.0, al)).fields[al]
                assert prj._speed_at(field, t) == pytest.approx(speed, abs=1e-13)
                assert f(t, al) == pytest.approx(speed, abs=1e-13)

    def test_pure_rotation(self):
        f, g = angle_field(ROT, *ZERO_IN)
        for theta in np.linspace(0, np.pi, 7):
            assert f(theta, 0.3) == pytest.approx(1.0, abs=1e-12)
            assert g(theta, 0.3) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_formulas(self):
        a_, b_ = 0.7, -1.2
        f, g = angle_field(np.diag([a_, b_]), *ZERO_IN)
        for theta in np.linspace(0, np.pi, 9):
            assert f(theta, 1.0) == pytest.approx(
                (b_ - a_) * np.sin(theta) * np.cos(theta), abs=1e-12)
            assert g(theta, 1.0) == pytest.approx(
                a_ * np.cos(theta) ** 2 + b_ * np.sin(theta) ** 2, abs=1e-12)

    def test_pi_periodicity(self):
        a, b, k = SADDLE
        f, g = angle_field(a, b, k)
        rng = np.random.default_rng(3)
        for theta in rng.uniform(0, np.pi, 10):
            assert f(theta + np.pi, 0.5) == pytest.approx(f(theta, 0.5), abs=1e-12)
            assert g(theta + np.pi, 0.5) == pytest.approx(g(theta, 0.5), abs=1e-12)

    def test_radial_integral_reproduces_log_growth(self):
        a, b, k = SADDLE
        alpha = 0.8
        f, g = angle_field(a, b, k)
        x0 = np.array([np.cos(0.3), np.sin(0.3)])
        t_end, n = 2.0, 4000
        dt = t_end / n
        theta, ell = 0.3, 0.0

        def step(th, el):
            # joint RK4 on (theta, log radius)
            k1 = (f(th, alpha), g(th, alpha))
            k2 = (f(th + 0.5 * dt * k1[0], alpha), g(th + 0.5 * dt * k1[0], alpha))
            k3 = (f(th + 0.5 * dt * k2[0], alpha), g(th + 0.5 * dt * k2[0], alpha))
            k4 = (f(th + dt * k3[0], alpha), g(th + dt * k3[0], alpha))
            return (th + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
                    el + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]))

        for _ in range(n):
            theta, ell = step(theta, ell)
        s = PESignal.constant(alpha, period=1.0)
        x_t = rates.fundamental_solution(a, b, k, s, t_end) @ x0
        assert ell == pytest.approx(np.log(np.linalg.norm(x_t)), abs=1e-6)


def grid_control_set(A, B, K, control_range, resolution):
    """The cell-graph approximation of the invariant control set, kept as
    the reference: a cell hands the flow to its upper neighbour when the
    larger extremal speed is positive at both cell ends, and symmetrically
    downward; the set is the union of the sink components, to one cell.
    Returns (arcs, n_sinks)."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    f, _ = angle_field(A, B, K)
    n = int(resolution)
    theta = np.arange(n) * (np.pi / n)
    f_lo, f_hi = f(theta, control_range[0]), f(theta, control_range[1])
    fmin, fmax = np.minimum(f_lo, f_hi), np.maximum(f_lo, f_hi)
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
    h = np.pi / n
    if mask.all():
        return ((0.0, np.pi),), int(sinks.size)
    runs = []
    for j in np.flatnonzero(mask):
        if runs and j == runs[-1][1] + 1:
            runs[-1][1] = j
        else:
            runs.append([j, j])
    # merge a run through the last cell with one through the first
    if len(runs) >= 2 and runs[0][0] == 0 and runs[-1][1] == n - 1:
        first = runs.pop(0)
        runs[-1][1] = first[1] + n
    arcs = sorted((a * h, (b + 1) * h) for a, b in runs)
    return tuple(arcs), int(sinks.size)


def reference_sink_arcs(planar):
    """``planar.sink_arcs()`` by the search the library used before its one
    scan round the circle: the set of nodes each node reaches, and the sink
    components as the reached sets that reach back to each of their nodes."""
    f_lo, f_hi = planar.fields[planar.lo], planar.fields[planar.hi]
    zl, zh = planar.zeros[planar.lo], planar.zeros[planar.hi]
    zeros = sorted(set(zl + zh))
    if not zeros:
        return ((0.0, math.pi),), 1
    nz = len(zeros)
    n = 2 * nz
    ends = []
    for i, z in enumerate(zeros):
        nxt = zeros[i + 1] if i + 1 < nz else zeros[0] + math.pi
        ends.append((z, z))
        ends.append((z, nxt))
    up, down = [], []
    for j, (left, right) in enumerate(ends):
        if j % 2 == 0:
            speeds = (0.0 if left in zl else prj._speed_at(f_lo, left),
                      0.0 if left in zh else prj._speed_at(f_hi, left))
        else:
            mid = 0.5 * (left + right)
            speeds = (prj._speed_at(f_lo, mid), prj._speed_at(f_hi, mid))
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
        first = next(j for j in comp if (j - 1) % n not in comp)
        last = first
        while (last + 1) % n in comp:
            last += 1
        hi = ends[last % n][1] + (math.pi if last >= n else 0.0)
        arcs.append((float(ends[first][0]), float(hi)))
    return tuple(sorted(arcs)), len(sinks)


def seeded_planar_fields(n, seed):
    """Seeded planar triples and control ranges: Gaussian, diagonal A, and
    entries rounded to integers or halves (coincident zeros, double roots),
    with lo = 0 or hi = 1 about half the time each."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        a, b, k = (rng.standard_normal(shape) for shape in ((2, 2), (2, 1), (1, 2)))
        if i % 4 == 1:
            a = np.diag(np.diag(a))
        elif i % 4 == 2:
            a, b, k = np.round(a), np.round(b), np.round(k)
        elif i % 4 == 3:
            a, b, k = np.round(2 * a) / 2, np.round(2 * b) / 2, np.round(2 * k) / 2
        lo = 0.0 if rng.random() < 0.3 else rng.uniform(0.0, 0.9)
        hi = 1.0 if rng.random() < 0.5 else rng.uniform(lo + 0.05, 1.0)
        yield a, b, k, (lo, hi)


def endpoint_gap_cells(exact, grid, resolution):
    """Largest distance, in cells, between matched endpoints (mod pi)."""
    e = sorted(prj.wrap_angle(np.ravel(exact)))
    g = sorted(prj.wrap_angle(np.ravel(grid)))
    assert len(e) == len(g)
    gaps = [abs(prj.angle_distance(x, y)) for x, y in zip(e, g)]
    return max(gaps, default=0.0) * resolution / np.pi


def test_wrap_angle_has_the_bits_of_np_mod():
    rng = np.random.default_rng(13)
    theta = np.concatenate([
        rng.uniform(-10.0, 10.0, 20000), 1e6 * rng.standard_normal(2000),
        np.arange(-40, 41) * np.pi, np.arange(-40, 41) * (np.pi / 4096),
        [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, np.nextafter(np.pi, 0.0),
         -np.nextafter(np.pi, 0.0), np.nextafter(-np.pi, 0.0), 1e300, -1e300]])
    np.testing.assert_array_equal(prj.wrap_angle(theta).view(np.int64),
                                  np.mod(theta, np.pi).view(np.int64))
    for t in (-0.0, -1e-300, 3.5, -np.pi):
        assert repr(prj.wrap_angle(t)) == repr(np.mod(t, np.pi))


def test_wrap_angle_reaches_pi_where_np_mod_does():
    """The range is [0, pi], closed: a tiny negative angle rounds up to pi,
    as in ``np.mod``; the scalar ``_wrap`` gives 0 there."""
    assert prj.wrap_angle(-1e-17) == np.mod(-1e-17, np.pi) == np.pi
    assert prj.angle_of([1.0, -1e-17]) == np.pi
    assert prj._wrap(-1e-17) == 0.0


def contains(arcs, theta, inflate=0.0):
    """Membership of angles (arrays ok) in the arc set inflated by
    ``inflate``: the audit's ``_covers`` after ``wrap_angle``."""
    inside = arcs._covers(prj.wrap_angle(np.asarray(theta, dtype=float)), inflate)
    return inside if inside.ndim else bool(inside)


class TestCircleArcSet:
    def test_wrapping_arc_contains_both_sides_of_pi(self):
        arcs = prj.CircleArcSet(arcs=((2.9, 3.4),))  # [2.9, pi) and [0, 3.4 - pi)
        assert contains(arcs, 3.0) and contains(arcs, np.pi - 1e-9)
        assert contains(arcs, 0.0) and contains(arcs, 0.2)
        assert contains(arcs, 3.3)  # the same direction as 3.3 - pi
        assert not contains(arcs, 3.4 - np.pi + 1e-9)
        assert not contains(arcs, 2.8) and not contains(arcs, 1.5)
        np.testing.assert_array_equal(contains(arcs, np.array([3.0, 0.1, 1.0])),
                                      [True, True, False])
        assert sum(hi - lo for lo, hi in arcs.arcs) == pytest.approx(0.5)


def reference_contains(arcs, theta, inflate=0.0):
    """Arc-set membership as it was before its comparisons were pruned: all
    six comparisons per arc, on ``np.mod``, whose bits ``wrap_angle`` has."""
    t = np.mod(np.asarray(theta, dtype=float), np.pi)
    inside = np.zeros(t.shape, dtype=bool)
    for lo, hi in arcs.arcs:
        lo_i, hi_i = lo - inflate, hi + inflate
        inside |= (t >= lo_i) & (t < hi_i)
        inside |= (t - np.pi >= lo_i) & (t - np.pi < hi_i)
        inside |= (t + np.pi >= lo_i) & (t + np.pi < hi_i)
    return inside


EDGES = np.array([np.pi, -np.pi, 0.0, -0.0, -1e-17, 1e-17, 5e-324, -5e-324,
                  np.nextafter(np.pi, 0.0), -np.nextafter(np.pi, 0.0), np.pi / 2, -np.pi / 2])


class TestPrunedMembership:
    # each inflated arc set makes a different subset of the comparisons run:
    # lo - inflate < 0 (t - pi), hi + inflate > pi (t + pi), both, neither,
    # a wrapping arc beside a plain one, and lo - inflate == 0 exactly
    SETS = [(((0.01, 0.5),), 0.05), (((2.9, 3.13),), 0.05), (((0.02, 3.12),), 0.05),
            (((0.6, 1.7),), 0.05), (((0.3, 0.9), (2.0, 3.3)), 0.01),
            (((0.0, 0.5),), 0.0), (((2.5, np.pi),), 0.0), (((0.0, np.pi),), 0.0)]

    @staticmethod
    def angles():
        rng = np.random.default_rng(41)
        x = rng.standard_normal((2, 20000))
        atan = np.arctan2(x[1], x[0])
        return np.concatenate([atan, EDGES, -EDGES, np.linspace(-np.pi, np.pi, 4097)])

    @pytest.mark.parametrize("arcs, inflate", SETS)
    def test_contains_matches_all_six_comparisons(self, arcs, inflate):
        arcs = prj.CircleArcSet(arcs=arcs)
        theta = np.concatenate([self.angles(), np.linspace(-20.0, 20.0, 8001), EDGES + np.pi])
        np.testing.assert_array_equal(contains(arcs, theta, inflate),
                                      reference_contains(arcs, theta, inflate))

    @pytest.mark.parametrize("arcs, inflate", SETS)
    def test_audit_wrap_matches_contains(self, arcs, inflate):
        arcs = prj.CircleArcSet(arcs=arcs)
        theta = self.angles()
        np.testing.assert_array_equal(arcs._covers(prj._wrap_arctan2(theta), inflate),
                                      reference_contains(arcs, theta, inflate))
        # the same angles as wrap_angle, up to the sign of a zero
        np.testing.assert_array_equal((prj._wrap_arctan2(theta) + 0.0).view(np.int64),
                                      prj.wrap_angle(theta).view(np.int64))

    @pytest.mark.parametrize("arcs, expected", [
        (((0.0, 0.5),), [True, True, True, True]),
        (((2.5, np.pi),), [False, False, False, False]),
        (((2.5, 3.5),), [True, True, True, True]),
        (((0.5, 1.0),), [False, False, False, False]),
    ])
    def test_pinned_edges(self, arcs, expected):
        # pi and -pi wrap to 0, -0.0 to 0, and -1e-17 to pi (-1e-17 + pi
        # rounds to pi), which the t - pi comparison maps back to 0
        arcs = prj.CircleArcSet(arcs=arcs)
        theta = [np.pi, -np.pi, -0.0, -1e-17]
        assert [contains(arcs, t) for t in theta] == expected
        assert arcs._covers(prj._wrap_arctan2(np.array(theta)), 0.0).tolist() == expected


class TestClosedForms:
    def test_zeros_are_zeros(self):
        for a, b, k, crange in random_pairs(50, seed=3):
            f, _ = angle_field(a, b, k)
            planar = prj._Planar(a, b, k, crange)
            for alpha in crange:
                for z in planar.zeros[alpha]:
                    assert 0.0 <= z < np.pi
                    assert abs(f(z, alpha)) <= 1e-12 * (1 + np.abs(a).max() + np.abs(b @ k).max())

    def test_double_roots(self):
        shear = np.array([[0.0, 1.0], [0.0, 0.0]])   # speed -sin^2: double root at 0
        field = prj._polar(prj._speed_coeffs(shear))
        assert prj._zeros(field) == (0.0,)
        assert prj._zeros(prj._polar(prj._speed_coeffs(shear.T))) == (np.pi / 2,)

    @pytest.mark.parametrize("m", [
        [[0.0, -1.0], [1.0, 0.0]],     # rotation: no zeros, atan form
        [[0.3, -2.0], [1.5, -0.4]],    # focus: no zeros, atan form
        [[0.3, 2.0], [-1.5, -0.4]],    # the focus turning the other way
        [[1.0, 0.2], [0.7, -1.0]],     # saddle: zeros, logarithmic form
        [[0.0, 1.0], [0.0, 0.0]],      # shear: double root, cot form
        [[0.0, 0.0], [1.0, 0.0]],      # shear: double root, tan form
    ])
    def test_arc_time_matches_quadrature(self, m):
        m = np.array(m)
        field = prj._polar(prj._speed_coeffs(m))
        f, _ = angle_field(m, *ZERO_IN)
        zeros = list(prj._zeros(field))
        lifted = zeros + [z + np.pi for z in zeros]
        rng = np.random.default_rng(4)
        checked = 0
        for _ in range(60):
            t1 = rng.uniform(0.0, np.pi)
            t2 = t1 + rng.uniform(-np.pi, np.pi) * 0.999
            lo_, hi_ = min(t1, t2), max(t1, t2)
            if any(lo_ - 1e-3 <= z + s <= hi_ + 1e-3
                   for z in lifted for s in (-np.pi, 0.0, np.pi)):
                continue
            exact = prj._arc_time(field, t1, t2)
            ref = quad(lambda t: 1.0 / f(t, 0.0), t1, t2, epsabs=0.0, epsrel=1e-13,
                       limit=400)[0]
            assert exact == pytest.approx(ref, rel=1e-10, abs=0.0)
            checked += 1
        assert checked >= 10


class TestInvariantSet:
    def test_rotation_whole_circle(self):
        res = prj.invariant_control_set_d2(ROT, *ZERO_IN, RANGE)
        assert res.applicable and res.arcs.whole and res.n_sinks == 1

    def test_saddle_single_arc(self):
        a, b, k = SADDLE
        res = prj.invariant_control_set_d2(a, b, k, RANGE)
        assert res.applicable and not res.arcs.whole
        assert len(res.arcs.arcs) == 1
        lo, hi = res.arcs.arcs[0]
        assert 0.0 < hi - lo < np.pi / 2

    def test_weak_input_arc_near_attractor(self):
        # near-autonomous saddle: invariant set hugs the attracting axis
        a = np.diag([1.0, -1.0])
        b = np.array([[1.0], [1.0]])
        k = 0.05 * np.array([[-1.0, 0.5]])
        res = prj.invariant_control_set_d2(a, b, k, RANGE)
        assert res.applicable and not res.arcs.whole
        # projectively the dominant eigendirection attracts: theta = 0 here
        assert contains(res.arcs, 0.0, 0.05)
        assert not contains(res.arcs, np.pi / 2, 0.05)
        assert sum(hi - lo for lo, hi in res.arcs.arcs) < 0.2

    def test_not_applicable_without_plarc(self):
        res = prj.invariant_control_set_d2(np.diag([1.0, 2.0]), *ZERO_IN, RANGE)
        assert not res.applicable and res.arcs is None

    @pytest.mark.parametrize("crange", [(0.5, 0.2), (0.2, 1.5), (np.nan, 1.0), (0.2, 0.2)])
    def test_bad_range_raises_before_plarc(self, crange):
        # a pair without PLARC would be flagged not applicable; the range is checked first
        with pytest.raises(ValueError, match="control range"):
            prj.invariant_control_set_d2(np.diag([1.0, 2.0]), *ZERO_IN, crange)

    @pytest.mark.parametrize("crange", [(0.4, 1.5), (-0.5, 1.0), (0.6, 0.6)])
    @pytest.mark.parametrize("entry", ["invariant_control_set_d2", "steering_time_bound",
                                       "steer_d2", "forward_invariance_audit"])
    def test_every_planar_entry_point_checks_the_range(self, entry, crange):
        # c12 with the target at the middle of its invariant arc
        arcs = prj.invariant_control_set_d2(*SADDLE, RANGE).arcs
        target = prj.point_of(0.5 * sum(arcs.arcs[0]))
        calls = {
            "invariant_control_set_d2": lambda: prj.invariant_control_set_d2(*SADDLE, crange),
            "steering_time_bound": lambda: prj.steering_time_bound(*SADDLE, crange, target),
            "steer_d2": lambda: prj.steer_d2([1.0, 0.0], target, *SADDLE, crange),
            "forward_invariance_audit": lambda: prj.forward_invariance_audit(
                *SADDLE, crange, arcs, [0.5], n_signals=2, horizon=0.5),
        }
        with pytest.raises(ValueError, match=r"^control range must be a nondegenerate "
                                             r"subinterval of \[0, 1\]$"):
            calls[entry]()

    @pytest.mark.parametrize("triple, crange, n_sinks", [
        (([[0.0, 0.0], [0.0, 0.5]], [[-0.5], [0.0]], [[0.5, -1.0]]),
         (0.10563365031986374, 1.0), 3),
        (([[1.0, 1.0], [0.0, 1.0]], [[0.0], [-2.0]], [[0.0, -3.0]]),
         (0.6439607129445425, 1.0), 4)])
    def test_sink_arcs_pinned_many_sinks(self, triple, crange, n_sinks):
        planar = prj._Planar(*(np.array(m) for m in triple), crange)
        got = planar.sink_arcs()
        assert got[1] == n_sinks
        assert repr(got) == repr(reference_sink_arcs(planar))

    def test_sink_arcs_match_reachability_search(self):
        counts = {}
        for a, b, k, crange in seeded_planar_fields(4000, seed=5):
            planar = prj._Planar(a, b, k, crange)
            got = planar.sink_arcs()
            assert repr(got) == repr(reference_sink_arcs(planar))
            counts[got[1]] = counts.get(got[1], 0) + 1
        assert {1, 2} <= set(counts)

    @pytest.mark.parametrize("triple", [
        (np.diag([1.0, 2.0, 3.0]), np.zeros((3, 1)), np.zeros((1, 3))),
        tuple(np.random.default_rng(0).standard_normal(s) for s in ((3, 3), (3, 1), (1, 3)))])
    def test_d3_raises_before_plarc(self, monkeypatch, triple):
        calls = []
        monkeypatch.setattr(prj.lie, "check_plarc", lambda *a, **kw: calls.append(a))
        with pytest.raises(ValueError, match="^angle dynamics need d = 2$"):
            prj.invariant_control_set_d2(*triple, RANGE)
        assert not calls

    def test_c12_matches_grid(self):
        a, b, k = SADDLE
        res = prj.invariant_control_set_d2(a, b, k, RANGE)
        arcs, n_sinks = grid_control_set(a, b, k, RANGE, 4096)
        assert res.n_sinks == n_sinks == 1
        assert endpoint_gap_cells(res.arcs.arcs, arcs, 4096) <= 2.0

    def test_random_pairs_match_grid(self):
        resolution = 4096
        compared = 0
        for a, b, k, crange in random_pairs(220):
            res = prj.invariant_control_set_d2(a, b, k, crange)
            if not res.applicable:
                continue
            arcs, n_sinks = grid_control_set(a, b, k, crange, resolution)
            assert endpoint_gap_cells(res.arcs.arcs, arcs, resolution) <= 2.0
            # a set narrower than a few cells can split into several grid sinks
            if all(hi - lo > 2 * np.pi / resolution for lo, hi in arcs):
                assert res.n_sinks == n_sinks
            else:
                assert res.n_sinks == 1
                assert sum(hi - lo for lo, hi in res.arcs.arcs) <= 4 * np.pi / resolution
            compared += 1
        assert compared >= 200

    def test_whole_circle_with_zeros(self):
        # A is a saddle (zeros at 0 and pi/2 for alpha = 0), A + BK a centre
        # whose speed is negative everywhere: the flow can go all the way round
        a = np.diag([1.0, -1.0])
        b = np.array([[1.0], [1.0]])
        k = np.array([[-3.0, 3.0]])
        res = prj.invariant_control_set_d2(a, b, k, (0.0, 1.0))
        assert res.applicable and res.arcs.whole and res.n_sinks == 1
        assert grid_control_set(a, b, k, (0.0, 1.0), 1024) == (((0.0, np.pi),), 1)

    def test_arc_wrapping_pi(self):
        base = prj.invariant_control_set_d2(*SADDLE, RANGE).arcs.arcs[0]
        shift = np.pi - base[0] - 0.1   # moves the arc across pi
        turned = rotated(SADDLE, shift)
        res = prj.invariant_control_set_d2(*turned, RANGE)
        (lo, hi), = res.arcs.arcs
        assert lo < np.pi < hi <= lo + np.pi
        assert lo == pytest.approx(base[0] + shift, abs=1e-12)
        assert hi - lo == pytest.approx(base[1] - base[0], abs=1e-12)
        arcs, n_sinks = grid_control_set(*turned, RANGE, 4096)
        assert n_sinks == 1 and endpoint_gap_cells(res.arcs.arcs, arcs, 4096) <= 2.0
        assert contains(res.arcs, np.pi - 0.05) and contains(res.arcs, 0.05)

    def test_tangential_double_root_boundary(self):
        # lo = 0: the speed of A is -sin^2, tangent to zero at theta = 0; the
        # speed at alpha = 1 is cos 2 theta; the set is [0, pi/4]
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0], [1.0]])
        k = np.array([[1.0, 0.0]])
        res = prj.invariant_control_set_d2(a, b, k, (0.0, 1.0))
        assert res.applicable and res.n_sinks == 1
        (lo, hi), = res.arcs.arcs
        assert lo == 0.0 and hi == pytest.approx(np.pi / 4, abs=1e-15)
        arcs, n_sinks = grid_control_set(a, b, k, (0.0, 1.0), 4096)
        assert n_sinks == 1 and endpoint_gap_cells(res.arcs.arcs, arcs, 4096) <= 2.0

    def test_forward_invariance_audit(self):
        a, b, k = SADDLE
        res = prj.invariant_control_set_d2(a, b, k, RANGE)
        pts = prj.boundary_points(res.arcs, 40, 2048)
        audit = prj.forward_invariance_audit(a, b, k, RANGE, res.arcs, pts,
                                             n_signals=20, horizon=6.0,
                                             resolution=2048, seed=0)
        assert audit.ok, audit.max_excursion


def rk4_audit(A, B, K, control_range, arcs, start_angles, n_signals=50,
              horizon=8.0, dt=1.0 / 256.0, seed=0, inflate=None, resolution=4096):
    """The fixed-step RK4 audit of the angle field, kept as the reference:
    same random stream, same hold windows, same sampling times."""
    lo, hi = float(control_range[0]), float(control_range[1])
    f, _ = angle_field(A, B, K)
    if inflate is None:
        inflate = 2.0 * np.pi / resolution
    rng = np.random.default_rng(seed)
    theta = np.repeat(np.asarray(start_angles, dtype=float), n_signals)
    steps, hold = int(np.ceil(horizon / dt)), 8
    alpha = lo + (hi - lo) * rng.random(theta.size)
    worst, ok = 0.0, True
    for step in range(steps):
        if step % hold == 0:
            alpha = lo + (hi - lo) * rng.random(theta.size)
        k1 = f(theta, alpha)
        k2 = f(theta + 0.5 * dt * k1, alpha)
        k3 = f(theta + 0.5 * dt * k2, alpha)
        k4 = f(theta + dt * k3, alpha)
        theta = theta + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        inside = contains(arcs, theta, inflate)
        if not np.all(inside):
            ok = False
            for t in prj.wrap_angle(theta[~inside]):
                worst = max(worst, min(min(abs(prj.angle_distance(t, a)),
                                           abs(prj.angle_distance(t, b)))
                                       for a, b in arcs.arcs))
    return prj.InvarianceAudit(ok=ok, max_excursion=float(worst), inflate=float(inflate),
                               n_trajectories=theta.size)


def projective_step(m, t):
    """``prj._projective_steps`` for one time on a 2x2 matrix or a stack of
    them, with the entries put back into matrices."""
    shape = np.shape(m)
    m = np.asarray(m, dtype=float).reshape(-1, 2, 2)
    (e,) = prj._projective_steps((m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]), [t])
    return np.stack(e, axis=-1).reshape(shape)


class TestProjectiveStep:
    @pytest.mark.parametrize("m, sign", [
        ([[1.0, 0.2], [0.7, -1.0]], +1),     # saddle: q > 0
        ([[0.3, -2.0], [1.5, -0.4]], -1),    # focus: q < 0
        ([[0.0, 1.0], [0.0, 0.0]], 0),       # shear: q == 0 exactly
        ([[0.5, 1.0], [0.0, 0.5]], 0),       # a shear plus a multiple of I
        ([[2.0, 0.0], [0.0, 2.0]], 0),       # a multiple of I: N == 0
    ])
    def test_direction_matches_expm(self, m, sign):
        from scipy.linalg import expm
        m = np.array(m)
        n = m - 0.5 * np.trace(m) * np.eye(2)
        assert np.sign(-np.linalg.det(n)) == sign
        rng = np.random.default_rng(2)
        for t in (1.0 / 256.0, 0.1, 1.0, 3.7):
            step = projective_step(m, t)
            for x in rng.standard_normal((4, 2)):
                np.testing.assert_allclose(proj_point(step @ x),
                                           proj_point(expm(m * t) @ x), rtol=0.0, atol=1e-12)

    def test_stacks_match_single_matrices(self):
        rng = np.random.default_rng(7)
        ms = rng.standard_normal((3, 5, 2, 2))
        ms[0, 0] = [[0.0, 1.0], [0.0, 0.0]]
        stacked = projective_step(ms, 0.3)
        for idx in np.ndindex(3, 5):
            np.testing.assert_array_equal(stacked[idx], projective_step(ms[idx], 0.3))

    @pytest.mark.parametrize("scale", [1e4, 1e8])
    def test_finite_when_stiff(self, scale):
        # r t = scale: expm(M t) overflows for the saddle; the step does not
        saddle = scale * np.diag([1.0, -1.0])
        step = projective_step(saddle, 1.0)
        assert np.isfinite(step).all()
        np.testing.assert_allclose(proj_point(step @ [0.3, 0.8]), [1.0, 0.0], atol=1e-15)
        # the rotation by r t = scale keeps unit length
        rot = scale * ROT
        step = projective_step(rot, 1.0)
        assert np.isfinite(step).all()
        assert abs(np.linalg.det(step) - 1.0) < 1e-12
        x = step @ [1.0, 0.0]
        assert abs(prj.angle_distance(np.arctan2(x[1], x[0]), scale)) < 1e-12 * scale


def c12_audit_inputs(resolution=2048, n_starts=12):
    a, b, k = SADDLE
    res = prj.invariant_control_set_d2(a, b, k, RANGE)
    return a, b, k, res.arcs, prj.boundary_points(res.arcs, n_starts, resolution)


def shrunk(arcs):
    """The middle third of each arc: a set the flow leaves."""
    return prj.CircleArcSet(arcs=tuple((lo + (hi - lo) / 3, hi - (hi - lo) / 3)
                                       for lo, hi in arcs.arcs))


class TestInvarianceAudit:
    FOCUS = (np.array([[0.3, -2.0], [1.5, -0.4]]), np.array([[1.0], [0.0]]),
             np.array([[0.2, 0.4]]))

    def cases(self):
        a, b, k, arcs, pts = c12_audit_inputs()
        yield "c12", (a, b, k, RANGE, arcs, pts)
        small = shrunk(arcs)
        yield "c12 shrunk", (a, b, k, RANGE, small, prj.boundary_points(small, 12, 2048))
        weak = (np.diag([1.0, -1.0]), np.array([[1.0], [1.0]]), 0.05 * np.array([[-1.0, 0.5]]))
        res = prj.invariant_control_set_d2(*weak, RANGE)
        yield "saddle", (*weak, RANGE, res.arcs, prj.boundary_points(res.arcs, 12, 2048))
        # the whole circle is invariant for the focus; audit an arc it leaves
        arc = prj.CircleArcSet(arcs=((0.5, 1.5),))
        yield "focus", (*self.FOCUS, (0.0, 1.0), arc, np.linspace(0.6, 1.4, 12))

    def test_matches_rk4_reference(self):
        for name, args in self.cases():
            for horizon in (0.1, 3.0):
                kw = dict(n_signals=4, horizon=horizon, seed=3, resolution=2048)
                exact = prj.forward_invariance_audit(*args, **kw)
                ref = rk4_audit(*args, **kw)
                assert (exact.ok, exact.n_trajectories, exact.inflate) == (
                    ref.ok, ref.n_trajectories, ref.inflate), name
                assert exact.max_excursion == pytest.approx(ref.max_excursion,
                                                            rel=0.0, abs=1e-9), name
        assert not ref.ok  # the focus leaves its arc

    # (ok, max_excursion.hex(), n_trajectories) per case, horizon and seed,
    # recorded before the audit's propagator and membership test were fused
    PINNED = {
        ("c12", 0.5, 3): (True, "0x0.0p+0", 48), ("c12", 0.5, 8): (True, "0x0.0p+0", 48),
        ("c12", 3.0, 3): (True, "0x0.0p+0", 48), ("c12", 3.0, 8): (True, "0x0.0p+0", 48),
        ("c12 shrunk", 0.5, 3): (False, "0x1.f8d8703fc6200p-6", 48),
        ("c12 shrunk", 0.5, 8): (False, "0x1.ef2e16535db00p-7", 48),
        ("c12 shrunk", 3.0, 3): (False, "0x1.f8d8703fc6200p-6", 48),
        ("c12 shrunk", 3.0, 8): (False, "0x1.4dd53bb720c00p-6", 48),
        ("saddle", 0.5, 3): (True, "0x0.0p+0", 48), ("saddle", 0.5, 8): (True, "0x0.0p+0", 48),
        ("saddle", 3.0, 3): (True, "0x0.0p+0", 48), ("saddle", 3.0, 8): (True, "0x0.0p+0", 48),
        ("focus", 0.5, 3): (False, "0x1.c32502865dd8cp-1", 48),
        ("focus", 0.5, 8): (False, "0x1.bfc1cb9229610p-1", 48),
        ("focus", 3.0, 3): (False, "0x1.121ec48ca45f0p+0", 48),
        ("focus", 3.0, 8): (False, "0x1.121e133abd4cap+0", 48),
    }

    def test_pinned_results(self):
        for name, args in self.cases():
            for horizon in (0.5, 3.0):
                for seed in (3, 8):
                    audit = prj.forward_invariance_audit(*args, n_signals=4, horizon=horizon,
                                                         seed=seed, resolution=2048)
                    got = (audit.ok, audit.max_excursion.hex(), audit.n_trajectories)
                    assert got == self.PINNED[name, horizon, seed], (name, horizon, seed)

    def test_block_size_does_not_change_the_result(self, monkeypatch):
        for name, args in self.cases():
            kw = dict(n_signals=4, horizon=0.55, seed=5, resolution=2048)
            n_traj = len(args[5]) * kw["n_signals"]
            results = []
            for block in (1, 8 * n_traj, 1 << 30):  # one trajectory-step, one window, all
                monkeypatch.setattr(prj, "_AUDIT_BLOCK", block)
                results.append(prj.forward_invariance_audit(*args, **kw))
            assert results[0] == results[1] == results[2], name

    def test_empty_starts(self):
        a, b, k, arcs, _ = c12_audit_inputs()
        with pytest.raises(ValueError, match="^start_angles is empty$"):
            prj.forward_invariance_audit(a, b, k, RANGE, arcs, [], horizon=1.0)

    def test_zero_horizon_checks_nothing(self):
        """Every start is outside the set, but a zero horizon reaches no
        sampling time, so the audit would pass without a check: it raises."""
        a, b, k, arcs, _ = c12_audit_inputs()
        with pytest.raises(ValueError, match=r"^horizon must be positive and finite, got 0\.0$"):
            prj.forward_invariance_audit(a, b, k, RANGE, arcs, [0.5, 1.0],
                                         n_signals=3, horizon=0.0)

    @pytest.mark.parametrize("kw, message", [
        (dict(horizon=-1.0), r"^horizon must be positive and finite, got -1\.0$"),
        (dict(horizon=np.nan), r"^horizon must be positive and finite, got nan$"),
        (dict(horizon=np.inf), r"^horizon must be positive and finite, got inf$"),
        (dict(n_signals=0), r"^need n_signals >= 1, got n_signals=0$"),
        (dict(n_signals=2.0), r"^n_signals must be an integer, got 2\.0$"),
        (dict(resolution=0), r"^need resolution >= 1, got resolution=0$"),
        (dict(resolution=4096.0), r"^resolution must be an integer, got 4096\.0$"),
    ], ids=["horizon -1", "horizon nan", "horizon inf", "no signals", "float signals",
            "resolution 0", "float resolution"])
    def test_an_audit_that_checks_nothing_raises(self, kw, message):
        """From start 0.5, outside the set: each bad argument alone raises a
        ``ValueError`` that names it, before any trajectory is followed."""
        a, b, k, arcs, _ = c12_audit_inputs()
        assert not arcs._covers(np.array([0.5]), 0.0).any()
        with pytest.raises(ValueError, match=message):
            prj.forward_invariance_audit(a, b, k, RANGE, arcs, [0.5], **{"horizon": 1.0, **kw})

    def test_a_horizon_past_the_ceiling_raises_at_once(self):
        a, b, k = SADDLE
        arcs = prj.CircleArcSet(arcs=((0.5, 1.0),))
        with pytest.raises(ValueError, match=r"^horizon=1e\+300 takes 8 trajectories over "
                                             r"256\d+ steps, more than the 134217728 "):
            prj.forward_invariance_audit(a, b, k, RANGE, arcs, [0.5], n_signals=8,
                                         horizon=1e300)
        # 2^27 trajectory-steps are allowed, one more step per trajectory is not
        with pytest.raises(ValueError, match=r"^horizon=16384\.00390625 takes 32 "):
            prj.forward_invariance_audit(a, b, k, RANGE, arcs, [0.5], n_signals=32,
                                         horizon=16384.0 + 1.0 / 256.0)

    @pytest.mark.parametrize("horizon, steps", [(1.0 / 256.0, 1), (0.1, 26), (0.125, 32)])
    def test_samples_every_step_up_to_the_horizon(self, horizon, steps):
        # a pure rotation turns at unit speed: the last sample, at
        # steps * dt, is the farthest past the arc end; the first, at
        # dt = 1/256, already lies past the inflation 2 pi / 4096
        arcs = prj.CircleArcSet(arcs=((0.0, 0.002),))
        audit = prj.forward_invariance_audit(ROT, *ZERO_IN, RANGE, arcs, [0.0],
                                             n_signals=2, horizon=horizon)
        assert not audit.ok and audit.n_trajectories == 2
        assert audit.max_excursion == pytest.approx(steps / 256.0 - 0.002, abs=1e-13)

    def test_long_stiff_horizon_stays_finite(self):
        # each window can double the unnormalised direction: 2^1280 would
        # overflow without the renormalisation of the window starts
        arcs = prj.CircleArcSet(arcs=((np.pi - 0.1, np.pi + 0.1),))  # around theta = 0
        audit = prj.forward_invariance_audit(1e3 * np.diag([1.0, -1.0]), *ZERO_IN, RANGE,
                                             arcs, [0.05, 3.1], n_signals=1, horizon=40.0)
        assert audit.ok and audit.max_excursion == 0.0

    @pytest.mark.parametrize("scale", [1e3, 1e5])
    def test_stiff_scaling_keeps_the_set_invariant(self, scale):
        # scaling A and K scales A + alpha BK: the same directions, a faster
        # flow; the set is the same and the exact flow never leaves it
        a, b, k = SADDLE
        base = prj.invariant_control_set_d2(a, b, k, RANGE)
        res = prj.invariant_control_set_d2(scale * a, b, scale * k, RANGE)
        assert res.arcs == base.arcs
        pts = prj.boundary_points(res.arcs, 40, 4096)
        audit = prj.forward_invariance_audit(scale * a, b, scale * k, RANGE, res.arcs, pts,
                                             n_signals=20, horizon=6.0, resolution=4096)
        assert audit.ok and audit.max_excursion == 0.0


class TestPlanarSetup:
    class NumpyScalarPlanar(prj._Planar):
        """The set-up on numpy scalars, kept as the reference."""

        def __init__(self, A, B, K, control_range):
            a, bk = prj._planar_loop(A, B, K)
            ca = ((a[1, 0] - a[0, 1]) / 2.0, (a[1, 0] + a[0, 1]) / 2.0, (a[1, 1] - a[0, 0]) / 2.0)
            cb = ((bk[1, 0] - bk[0, 1]) / 2.0, (bk[1, 0] + bk[0, 1]) / 2.0,
                  (bk[1, 1] - bk[0, 0]) / 2.0)
            self.lo, self.hi = float(control_range[0]), float(control_range[1])
            self.switch = prj._polar(cb)
            self.cuts = prj._zeros(self.switch)
            self.fields = {v: prj._polar(tuple(x + v * y for x, y in zip(ca, cb)))
                           for v in (self.lo, self.hi)}
            self.zeros = {v: prj._zeros(f) for v, f in self.fields.items()}

    @staticmethod
    def steer_outputs(triple):
        arcs = prj.invariant_control_set_d2(*triple, RANGE).arcs
        lo, hi = arcs.arcs[0]
        out = []
        for target in np.linspace(lo + 0.02, hi - 0.02, 3):
            q = prj.point_of(target)
            out.append(prj.steering_time_bound(*triple, RANGE, q, mesh=16, max_time=20.0))
            for start in np.linspace(0.0, np.pi, 6, endpoint=False):
                st = prj.steer_d2(prj.point_of(start), q, *triple, RANGE, max_time=50.0)
                out.append((st.tau, st.signal.to_json()))
        return out

    @pytest.mark.parametrize("angle", [0.0, 0.7, 2.0])
    def test_same_bits_as_numpy_scalars(self, monkeypatch, angle):
        triple = rotated(SADDLE, angle)
        fast = self.steer_outputs(triple)
        monkeypatch.setattr(prj, "_Planar", self.NumpyScalarPlanar)
        assert fast == self.steer_outputs(triple)


def _outcome(call):
    """A call's result, or its error's type, message and ``best_distance``;
    floats as their bytes, so that the sign of a zero or a NaN counts."""
    def bits(x):
        return np.float64(x).tobytes() if isinstance(x, float) else x
    try:
        out = call()
    except ValueError as exc:
        return "ValueError", str(exc)
    except prj.SteeringError as exc:
        return "SteeringError", str(exc), bits(exc.best_distance)
    if isinstance(out, prj.SteerResult):
        return bits(out.tau), bits(out.final_distance), out.signal.to_json()
    return bits(out)


def _angle_inputs(rng, n):
    """n planar vectors: Gaussian at scales 1e-6 to 1e20, exact zero
    coordinates, coordinates and norms near 1e-12, nan and inf."""
    v = rng.standard_normal((n, 2)) * 10.0 ** rng.uniform(-6.0, 20.0, (n, 1))
    part = n // 8
    v[np.arange(part), rng.integers(0, 2, part)] = 0.0  # one exact zero coordinate
    signs = rng.choice([-1.0, 1.0], (part, 2))
    near = 1e-12 * (1.0 + rng.integers(-4, 5, (part, 2)) * 2.0 ** -52)
    v[part:2 * part] = signs * np.where(rng.random((part, 2)) < 0.5, near,
                                        rng.standard_normal((part, 2)))
    v[2 * part:3 * part] *= 1e-12 / np.linalg.norm(v[2 * part:3 * part], axis=1)[:, None]
    v[2 * part:3 * part] *= 1.0 + rng.integers(-3, 4, (part, 1)) * 2.0 ** -52
    odd = rng.choice([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1e-12], (part, 2))
    v[3 * part:4 * part] = odd
    return v


class TestFloatPass:
    """The float pass of a steering query against the numpy path it
    replaces (``oracles.reference_angle_of`` and ``ReferencePlanar``)."""

    def test_angle_of_has_the_bits_of_the_numpy_path(self):
        rng = np.random.default_rng(29)
        vecs = _angle_inputs(rng, 100_000)
        shapes = [(2,), (2, 1), (1, 2)]
        inputs = [v.reshape(shapes[i % 3]) for i, v in enumerate(vecs)]
        inputs += list(_angle_inputs(rng, 3_000).reshape(-1, 3))  # d = 3
        inputs += [np.zeros(3), [0.0, -0.0], [1e-13, -1e-13], [0.0, 0.0, 5e-13]]
        got = [_outcome(lambda q=q: prj.angle_of(q)) for q in inputs]
        with np.errstate(all="ignore"):  # inf / inf in canonical_unit
            want = [_outcome(lambda q=q: reference_angle_of(q)) for q in inputs]
        assert got == want
        messages = {w[1] for w in want if isinstance(w, tuple)}
        assert messages == {"cannot project the zero vector", "angles are defined for d = 2"}

    def test_planar_loop_checks_as_closed_loop(self):
        def reference(A, B, K):
            a, b, k = closed_loop(A, B, K)
            if a.shape != (2, 2):
                raise ValueError("angle dynamics need d = 2")
            return a, b @ k

        a, b, k = SADDLE
        cases = [
            (a, b, k), (a, b, k[0]), (a, b, k.tolist()), (a, np.ones((2, 2)), np.ones((2, 2))),
            (a, np.ones((2, 0)), np.ones((0, 2))), (a, b, np.ones((1, 3))),
            (np.eye(3), np.ones((3, 1)), np.ones((1, 3))), (1.0, 1.0, 1.0), (a[0], b, k),
            (a.ravel(), b, k), (np.ones((2, 2, 2)), b, k), (a, np.ones((2, 1, 1)), k),
            (a, b, np.ones((1, 2, 1))), (a, b[0], k), (a, b.T, k), (a, b, k.T), (a, b, 0.5),
            (np.eye(1), np.ones((1, 1)), np.ones((1, 1))), (a, np.ones((3, 1)), k),
            ([[1.0, np.nan], [0.0, 1.0]], b, k), (a, [[np.inf], [1.0]], k),
            (a, b, [[1.0, -np.inf]]), ([[np.nan]], [[np.inf, 1.0]], k),
            (np.ones((2, 3)), [[np.nan]], k), ([[1.0, 2.0], [3.0]], b, k),
            (np.ones((3, 3, 3)), [[1.0], [2.0, 3.0]], k), (a, [[1.0], [2.0, 3.0]], k),
            (a, b, [[1.0], [2.0, 3.0]]), (a, b, "x"),
        ]
        for case in cases:
            def arrays(out):
                return [(m.dtype, m.shape, m.tobytes()) for m in out]
            try:
                want = arrays(reference(*case))
            except ValueError as exc:
                want = str(exc)
            try:
                got = arrays(prj._planar_loop(*case))
            except ValueError as exc:
                got = str(exc)
            assert got == want, case

    @staticmethod
    def _queries(rng, n):
        """n random planar queries: one or two inputs, control ranges inside
        [0, 1], start and target directions, and time limits short enough
        that some targets are out of reach."""
        out = []
        for i in range(n):
            m = 1 + i % 2
            a = rng.standard_normal((2, 2)) * 10.0 ** rng.uniform(-2, 2)
            b, k = rng.standard_normal((2, m)), rng.standard_normal((m, 2))
            lo = float(rng.choice([0.0, rng.uniform(0.0, 0.9)]))
            crange = (lo, float(rng.choice([1.0, rng.uniform(lo + 0.05, 1.0)])))
            q0, q1 = rng.standard_normal((2, 2)) * 10.0 ** rng.uniform(-3, 3, (2, 1))
            out.append((a, b, k, crange, q0, q1, float(rng.choice([0.5, 5.0, 50.0]))))
        return out

    def test_steering_has_the_bits_of_the_numpy_path(self, monkeypatch):
        rng = np.random.default_rng(2029)
        queries = self._queries(rng, 2_000)
        # every message that the validation of a query can raise
        bad = [(SADDLE[0][0], *SADDLE[1:], RANGE), (np.eye(3), *SADDLE[1:], RANGE),
               (SADDLE[0], np.ones((3, 1)), SADDLE[2], RANGE),
               (np.full((2, 2), np.nan), *SADDLE[1:], RANGE),
               (np.ones((2, 2, 1)), *SADDLE[1:], RANGE), (np.ones((2, 3)), *SADDLE[1:], RANGE),
               (np.eye(1), [[1.0]], [[1.0]], RANGE), (*SADDLE, (0.5, 0.5)), (*SADDLE, (-0.1, 1.0))]

        def run():
            out = []
            for a, b, k, crange, q0, q1, max_time in queries:
                out.append(_outcome(lambda: prj.steer_d2(q0, q1, a, b, k, crange,
                                                         max_time=max_time)))
                out.append(_outcome(lambda: prj.steer_d2(q0, q1, a, b, k, crange,
                                                         resolution=16, max_time=max_time)))
            for a, b, k, crange, q0, q1, max_time in queries[:500]:
                out.append(_outcome(lambda: prj.steering_time_bound(a, b, k, crange, q1, mesh=6,
                                                                    max_time=max_time)))
            for triple in bad:
                out.append(_outcome(lambda: prj.steer_d2([1.0, 0.0], [0.0, 1.0], *triple)))
                out.append(_outcome(lambda: prj.steering_time_bound(*triple, [0.0, 1.0])))
            for q in ([0.0, 0.0], [1.0, 2.0, 3.0]):
                out.append(_outcome(lambda: prj.steer_d2(q, [1.0, 0.0], *SADDLE, RANGE)))
                out.append(_outcome(lambda: prj.steer_d2([1.0, 0.0], q, *SADDLE, RANGE)))
            return out

        got = run()
        monkeypatch.setattr(prj, "_Planar", ReferencePlanar)
        monkeypatch.setattr(prj, "angle_of", reference_angle_of)
        want = run()
        assert got == want
        kinds = [w[0] if isinstance(w, tuple) and isinstance(w[0], str) else "ok" for w in want]
        assert kinds.count("SteeringError") > 1_000 and kinds.count("ok") > 1_000
        assert {w[1] for w in want if isinstance(w, tuple) and w[0] == "ValueError"} == {
            "A must be square, got shape (1, 2)",
            "angle dynamics need d = 2", "inconsistent shapes: A (2, 2), B (3, 1), K (1, 2)",
            "inconsistent shapes: A (3, 3), B (2, 1), K (1, 2)",
            "A contains non-finite entries", "A must be 2-D, got 3-D",
            "A must be square, got shape (2, 3)",
            "control range must be a nondegenerate subinterval of [0, 1]",
            "cannot project the zero vector", "angles are defined for d = 2"}


class TestSteering:
    def test_rotation_reaches_quickly(self):
        st = prj.steer_d2([1.0, 0.0], [1.0, 1.0], ROT, *ZERO_IN, RANGE,
                          resolution=1024)
        assert st.tau <= np.pi
        assert st.final_distance <= np.pi / 1024 + 1e-12

    def test_trivial_target(self):
        st = prj.steer_d2([1.0, 1.0], [1.0, 1.0], ROT, *ZERO_IN, RANGE)
        assert st.tau == 0.0

    def test_steered_signal_values_admissible(self):
        a, b, k = SADDLE
        res = prj.invariant_control_set_d2(a, b, k, RANGE)
        lo, hi = res.arcs.arcs[0]
        target = prj.point_of(0.5 * (lo + hi))
        st = prj.steer_d2([1.0, 0.0], target, a, b, k, RANGE, resolution=2048)
        assert set(np.unique(st.signal.values)) <= {RANGE[0], RANGE[1]}

    def test_random_pairs_within_bound(self):
        rng = np.random.default_rng(6)
        target = prj.point_of(1.0)
        bound = prj.steering_time_bound(ROT, *ZERO_IN, RANGE, target,
                                        resolution=1024, mesh=24)
        for _ in range(10):
            q0 = prj.point_of(rng.uniform(0, np.pi))
            st = prj.steer_d2(q0, target, ROT, *ZERO_IN, RANGE, resolution=1024)
            assert st.tau <= bound

    def test_segments_are_bang_bang_and_sum_to_tau(self):
        rng = np.random.default_rng(9)
        for a, b, k, crange in random_pairs(30, seed=5):
            res = prj.invariant_control_set_d2(a, b, k, crange)
            if not res.applicable or sum(hi - lo for lo, hi in res.arcs.arcs) < 0.05:
                continue
            lo, hi = res.arcs.arcs[0]
            target = prj.point_of(rng.uniform(lo + 0.01, hi - 0.01))
            for start in rng.uniform(0.0, np.pi, 4):
                try:
                    st = prj.steer_d2(prj.point_of(start), target, a, b, k, crange,
                                      max_time=1e3)
                except prj.SteeringError:
                    continue
                segs = st.signal.segments(0.0, st.tau)
                assert {v for v, _ in segs} <= set(crange)
                assert st.signal.breakpoints[-1] < st.tau
                assert sum(dt for _, dt in segs) == pytest.approx(st.tau, rel=1e-14)
                assert st.final_distance == 0.0

    def test_arrival_time_matches_quadrature(self):
        # integrate 1/f along the greedy path, piece by piece between switches
        a, b, k = SADDLE
        f, _ = angle_field(a, b, k)
        planar = prj._Planar(a, b, k, RANGE)
        res = prj.invariant_control_set_d2(a, b, k, RANGE)
        lo, hi = res.arcs.arcs[0]
        rng = np.random.default_rng(12)
        for _ in range(40):
            theta0, target = rng.uniform(0.0, np.pi), rng.uniform(lo + 1e-3, hi - 1e-3)
            tau, segs = planar.fastest(theta0, target, 0.0, 100.0)
            for sigma in (1.0, -1.0):
                t_sense, segs = planar.sense(theta0, target, sigma, 100.0)
                if not math.isfinite(t_sense):
                    continue
                theta, total = theta0, 0.0
                end = theta0 + sigma * prj._wrap(sigma * (target - theta0))
                for alpha, dt in segs:
                    # the piece ends where the time under alpha runs out
                    nxt = min((c for c in (theta + sigma * prj._wrap(sigma * (z - theta))
                                           for z in planar.cuts)
                               if sigma * (c - theta) > 0.0), key=lambda c: sigma * c,
                              default=end)
                    nxt = nxt if sigma * (end - nxt) > 0.0 else end
                    ref = quad(lambda t: 1.0 / f(t, alpha), theta, nxt,
                               epsabs=0.0, epsrel=1e-13, limit=400)[0]
                    assert dt == pytest.approx(ref, rel=1e-10, abs=0.0)
                    theta, total = nxt, total + dt
                assert theta == end and total == pytest.approx(t_sense, rel=1e-15)
                assert tau <= t_sense

    @pytest.mark.parametrize("start, target", [(0.1, 3.0), (3.0, 0.1)])
    def test_rotation_with_input(self, start, target):
        # speed 1 - 0.3 alpha sin^2: no zeros, so only the increasing sense
        # arrives, with the low control throughout; (3.0, 0.1) crosses pi
        a, b, k = ROT, np.array([[1.0], [0.0]]), np.array([[0.0, 0.3]])
        st = prj.steer_d2(prj.point_of(start), prj.point_of(target), a, b, k, RANGE)
        f, _ = angle_field(a, b, k)
        end = start + (target - start) % np.pi
        ref = quad(lambda t: 1.0 / f(t, RANGE[0]), start, end, epsabs=0.0, epsrel=1e-13)[0]
        assert st.tau == pytest.approx(ref, rel=1e-10)
        assert st.signal.values.tolist() == [RANGE[0]]

    def test_closes_the_splice_loop(self):
        # a steering control takes values in [mu/T, 1], so it closes a
        # periodic signal of the class: 1 on [0, 1], a full-on pad of
        # T - mu, the steering segments and a second pad
        a, b, k = SADDLE
        res = prj.invariant_control_set_d2(a, b, k, RANGE)
        lo, hi = res.arcs.arcs[0]
        st = prj.steer_d2([0.0, 1.0], prj.point_of(0.5 * (lo + hi)), a, b, k,
                          RANGE, resolution=2048)
        assert st.tau > 0.0
        pad = CLS.T - CLS.mu
        segs = [(1.0, 1.0), (1.0, pad), *st.signal.segments(0.0, st.tau), (1.0, pad)]
        out = PESignal.from_segments(segs, period=1.0 + 2.0 * pad + st.tau)
        assert validate_pe(out, CLS).valid


def test_unreachable_raises():
    # pure saddle with no input: from a generic angle the flow never reaches
    # the repelling axis
    a = np.diag([1.0, -1.0])
    with pytest.raises(prj.SteeringError):
        prj.steer_d2([1.0, 1.0], [0.0, 1.0], a, *ZERO_IN, RANGE,
                     resolution=512, max_time=5.0)


@pytest.mark.parametrize("arcs", [((0.5, 1.0),), ((0.0, np.pi),)])
@pytest.mark.parametrize("n", [0, -3])
def test_boundary_points_need_a_positive_count(arcs, n):
    with pytest.raises(ValueError, match=rf"^need n >= 1, got n={n}$"):
        prj.boundary_points(prj.CircleArcSet(arcs=arcs), n, 2048)


def test_boundary_points_need_an_arc():
    with pytest.raises(ValueError, match=r"^arcs is empty"):
        prj.boundary_points(prj.CircleArcSet(arcs=()), 12, 2048)


@pytest.mark.parametrize("mesh", [0, -1])
def test_steering_time_bound_needs_a_mesh(mesh):
    target = prj.point_of(0.5 * sum(prj.invariant_control_set_d2(*SADDLE, RANGE).arcs.arcs[0]))
    with pytest.raises(ValueError, match=r"^need mesh >= 1"):
        prj.steering_time_bound(*SADDLE, RANGE, target, mesh=mesh)


CIRCLE = prj.CircleArcSet(arcs=((0.0, np.pi),))


@pytest.mark.parametrize("call, message", [
    (lambda: prj.boundary_points(prj.CircleArcSet(arcs=((0.5, 1.0),)), 2.5, 2048),
     r"^n must be an integer, got 2\.5$"),
    (lambda: prj.boundary_points(CIRCLE, 3.0, 2048), r"^n must be an integer, got 3\.0$"),
    (lambda: prj.boundary_points(CIRCLE, True, 2048), r"^n must be an integer, got True$"),
    (lambda: prj.boundary_points(prj.CircleArcSet(arcs=((0.5, 1.0),)), 4, 0),
     r"^need resolution >= 1, got resolution=0$"),
    (lambda: prj.steering_time_bound(*SADDLE, RANGE, prj.point_of(0.1), mesh=2.5),
     r"^mesh must be an integer, got 2\.5$"),
    (lambda: prj.steering_time_bound(*SADDLE, RANGE, prj.point_of(0.1), resolution=0),
     r"^need resolution >= 1, got resolution=0$"),
    (lambda: prj.steer_d2(prj.point_of(0.2), prj.point_of(0.1), *SADDLE, RANGE, resolution=0),
     r"^need resolution >= 1, got resolution=0$"),
    (lambda: prj.steer_d2(prj.point_of(0.2), prj.point_of(0.1), *SADDLE, RANGE,
                          resolution=512.5), r"^resolution must be an integer, got 512\.5$"),
], ids=["arc n 2.5", "circle n 3.0", "n True", "points resolution 0", "mesh 2.5",
        "bound resolution 0", "steer resolution 0", "steer resolution 512.5"])
def test_counts_are_integers_of_at_least_one(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_counts_keep_numpy_integers():
    arcs = prj.CircleArcSet(arcs=((0.5, 1.0),))
    np.testing.assert_array_equal(prj.boundary_points(arcs, np.int64(5), np.int32(2048)),
                                  prj.boundary_points(arcs, 5, 2048))


@pytest.mark.parametrize("b, k", [ZERO_IN, (np.array([[1.0], [0.0]]),
                                            np.array([[0.0, 1.0]]))])
def test_tangential_double_root_blocks_both_senses(b, k):
    # every admissible speed is -(1 + alpha b k01) sin^2 theta: it touches
    # zero at theta = 0 without changing sign, so the decreasing sense
    # stalls there and the increasing sense runs backwards
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    planar = prj._Planar(a, b, k, RANGE)
    assert planar.sense(0.5, 2.0, 1.0, 1e6)[0] == math.inf
    assert planar.sense(0.5, 2.0, -1.0, 1e6)[0] == math.inf
    with pytest.raises(prj.SteeringError):
        prj.steer_d2(prj.point_of(0.5), prj.point_of(2.0), a, b, k, RANGE, max_time=1e6)
    # the other way round the path stays clear of the double root
    st = prj.steer_d2(prj.point_of(2.0), prj.point_of(0.5), a, b, k, RANGE)
    speed = 1.0 + (RANGE[1] if k[0, 1] else 0.0)  # the greedy control is hi
    assert st.tau == pytest.approx((1 / np.tan(0.5) - 1 / np.tan(2.0)) / speed, rel=1e-12)


def matrix_json(m) -> dict:
    m = np.atleast_2d(np.asarray(m, dtype=float))
    return {"rows": m.shape[0], "cols": m.shape[1], "data": [float(x) for x in m.ravel()]}


class TestGoldenPlanar:
    """c12 and two fixed rotated, perturbed variants of it, run as the
    planar benchmark runs them: ``pegrowth invariant-set`` at resolution
    4096, the invariance audit from 16 boundary points with 8 signals each
    over 4 time units, a steering-time bound on a 32-point mesh and eight
    ``steer_d2`` queries to one target.  The sha256 of ``summary.json`` and
    of the audit, bound and steering record are pinned; a change that is
    meant to be faster only must keep them."""

    T, MU, RESOLUTION = 1.0, 0.4, 4096
    AUDIT_STARTS, AUDIT_SIGNALS, AUDIT_HORIZON = 16, 8, 4.0
    MESH, BOUND_MAX_TIME, EXTRA_TIME, MARGIN_CELLS, QUERIES = 32, 20.0, 1.0, 5, 8
    # (A, B, K, seed, target fraction); the variants are c12 rotated by 0.9
    # and 2.3 with its eigenvalues scaled and B, K perturbed
    TRIPLES = {
        "c12": (SADDLE[0].tolist(), SADDLE[1].tolist(), SADDLE[2].tolist(), 101, 1.0 / 3.0),
        "variant 1": ([[-0.16879406327269086, 0.9592399164150222],
                       [0.9592399164150222, 0.2787940632726909]],
                      [[-0.11173556592359966], [1.4035722864561457]],
                      [[-0.5250324326187569, -0.32379151424710084]], 202, 0.5),
        "variant 2": ([[-0.1788348148390807, -1.0085963686879664],
                       [-1.0085963686879664, 0.0488348148390805]],
                      [[-1.435940973639784], [0.031201285589370444]],
                      [[0.24078464248387632, -0.6297005287784916]], 303, 2.0 / 3.0),
    }
    DIGESTS = {
        "c12": ("2c83666a754abe4d3c717c74e4b4301e40c03a67459a3351bfdc3386a6112834",
                "d2bc9805f84826b5fb96c07c4439dc07c218726fdc66242726d3331b5392b177"),
        "variant 1": ("ba51bffdbbcdaf13fb7c910cc6e905df131ccda283532bec99a8624ec0413959",
                      "0c5e20061bf0fd48ae0f51a5700a855a407bf3aa371b284694db139192126648"),
        "variant 2": ("732796370f496e0883ab8e6655b4730ac848fdb874d95c8fb3ffca6c146bb2bd",
                      "1344ea46eab5ffce6dcf92eb8a8218dd0f7e98c7aa166da14327c5bb81c2721d"),
    }

    @classmethod
    def outputs(cls, name, tmp_path):
        from pegrowth import cli
        a, b, k, seed, fraction = cls.TRIPLES[name]
        cfg = {"schema": "1", "pair": {"A": matrix_json(a), "B": matrix_json(b)},
               "K": matrix_json(k), "T": cls.T, "mu": cls.MU,
               "resolution": cls.RESOLUTION, "seed": seed}
        path = tmp_path / "planar.json"
        path.write_text(json.dumps(cfg, sort_keys=True, indent=1) + "\n")
        assert cli.main(["invariant-set", "--config", str(path), "--out", str(tmp_path)]) == 0
        summary = (tmp_path / "summary.json").read_bytes()
        a, b, k = (np.array(m) for m in (a, b, k))
        crange = (cls.MU / cls.T, 1.0)
        arcs = prj.CircleArcSet(arcs=tuple(tuple(arc) for arc in json.loads(summary)["arcs"]))
        audit = prj.forward_invariance_audit(
            a, b, k, crange, arcs, prj.boundary_points(arcs, cls.AUDIT_STARTS, cls.RESOLUTION),
            n_signals=cls.AUDIT_SIGNALS, horizon=cls.AUDIT_HORIZON, seed=seed,
            resolution=cls.RESOLUTION)
        lo, hi = arcs.arcs[0]
        margin = cls.MARGIN_CELLS * math.pi / cls.RESOLUTION
        target = lo + margin + fraction * (hi - lo - 2 * margin)
        bound = prj.steering_time_bound(a, b, k, crange, prj.point_of(target),
                                        resolution=cls.RESOLUTION, mesh=cls.MESH,
                                        max_time=cls.BOUND_MAX_TIME)
        record = {"audit": [audit.ok, audit.max_excursion, audit.n_trajectories],
                  "bound": bound, "steer": []}
        for j in range(cls.QUERIES):
            start = target + (j + 0.5) / cls.QUERIES * math.pi
            st = prj.steer_d2(prj.point_of(start), prj.point_of(target), a, b, k, crange,
                              resolution=cls.RESOLUTION, max_time=bound + cls.EXTRA_TIME)
            record["steer"].append([st.tau, st.final_distance, st.signal.to_json()])
        return (hashlib.sha256(summary).hexdigest(),
                hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest())

    @pytest.mark.parametrize("name", sorted(TRIPLES))
    def test_planar_bytes(self, tmp_path, name):
        assert self.outputs(name, tmp_path) == self.DIGESTS[name]


def _planar_calls(crange=RANGE, seed=0, starts=(0.5,), max_time=100.0):
    """The four planar entry points on c12, with the given arguments."""
    arcs = prj.invariant_control_set_d2(*SADDLE, RANGE).arcs
    target = prj.point_of(0.5 * sum(arcs.arcs[0]))
    return {
        "invariant_control_set_d2": lambda: prj.invariant_control_set_d2(*SADDLE, crange,
                                                                         seed=seed),
        "steering_time_bound": lambda: prj.steering_time_bound(*SADDLE, crange, target,
                                                               max_time=max_time),
        "steer_d2": lambda: prj.steer_d2([1.0, 0.0], target, *SADDLE, crange,
                                         max_time=max_time),
        "forward_invariance_audit": lambda: prj.forward_invariance_audit(
            *SADDLE, crange, arcs, list(starts), n_signals=2, horizon=0.5, seed=seed),
    }


class TestPlanarArguments:
    ENTRIES = sorted(_planar_calls())

    @pytest.mark.parametrize("crange", [(0.4, 1.0, 2.0), (0.4,), 0.5, "ab"],
                             ids=["three", "one", "scalar", "string"])
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_control_range_is_a_pair(self, entry, crange):
        with pytest.raises(ValueError, match=r"^control range must be a pair \(lo, hi\), got "):
            _planar_calls(crange=crange)[entry]()

    @pytest.mark.parametrize("seed, message", [
        (-1, r"^need seed >= 0, got seed=-1$"), (1.5, r"^seed must be an integer, got 1\.5$"),
        (True, r"^seed must be an integer, got True$")], ids=["negative", "float", "bool"])
    @pytest.mark.parametrize("entry", ["invariant_control_set_d2", "forward_invariance_audit"])
    def test_seed_is_a_non_negative_integer(self, entry, seed, message):
        with pytest.raises(ValueError, match=message):
            _planar_calls(seed=seed)[entry]()

    @pytest.mark.parametrize("max_time", [np.nan, 0.0, -1.0])
    @pytest.mark.parametrize("entry", ["steer_d2", "steering_time_bound"])
    def test_max_time_is_positive(self, entry, max_time):
        with pytest.raises(ValueError, match=r"^max_time must be positive, got "):
            _planar_calls(max_time=max_time)[entry]()

    @pytest.mark.parametrize("starts", [[np.nan], [np.inf], [0.5, -np.inf]],
                             ids=["nan", "inf", "second -inf"])
    def test_start_angles_are_finite(self, starts):
        with pytest.raises(ValueError, match=r"^start_angles contains non-finite entries$"):
            _planar_calls(starts=starts)["forward_invariance_audit"]()


class TestBoundaryPoints:
    ARC_SETS = (((0.5, 1.2),), ((0.3, 0.9), (2.0, 3.5)),
                ((0.0, 0.4), (1.0, 1.5), (2.5, 2.9)), ((0.0, np.pi),))

    def test_whole_set_spreads_its_points(self):
        for n in (1, 7, 96):
            pts = prj.boundary_points(CIRCLE, n, 4096)
            np.testing.assert_array_equal(pts, np.linspace(0.0, np.pi, n, endpoint=False))

    def test_recorded_points(self):
        """n = 1..300 on one, two (one wrapping past pi) and three arcs and
        the whole set, at two resolutions: the bytes of every point set,
        pinned by a digest recorded on the program before its padding loop
        went."""
        h = hashlib.sha256()
        for arcs in self.ARC_SETS:
            for resolution in (64, 4096):
                for n in range(1, 301):
                    pts = prj.boundary_points(prj.CircleArcSet(arcs=arcs), n, resolution)
                    assert pts.shape == (n,) and pts.dtype == np.float64
                    h.update(pts.tobytes())
        assert h.hexdigest() == (
            "4529a9b5eb67dbe7be5b806411765cd790bb60d0a294baf56ba4ea126f859a97")
