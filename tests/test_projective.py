import math

import numpy as np
import pytest
from scipy.integrate import quad

from pegrowth import projective as prj
from pegrowth import rates
from pegrowth.signals import PESignal, SignalClass

ROT = np.array([[0.0, -1.0], [1.0, 0.0]])
ZERO_IN = (np.zeros((2, 1)), np.zeros((1, 2)))
CLS = SignalClass(1.0, 0.4)
RANGE = (CLS.floor, 1.0)

# controllable saddle with a proper invariant arc (verified PLARC)
SADDLE = (np.array([[1.0, 0.0], [0.0, -1.0]]),
          np.array([[1.0], [1.0]]),
          np.array([[-0.6, 0.2]]))


class TestProjPoint:
    def test_canonical_sign(self):
        u = prj.proj_point([-1.0, 2.0])
        assert u[0] > 0
        np.testing.assert_allclose(np.linalg.norm(u), 1.0, atol=1e-12)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            prj.proj_point([0.0, 0.0])


class TestProjectField:
    def test_identity_projects_to_zero(self):
        q = prj.proj_point([1.0, 2.0, -1.0])
        np.testing.assert_allclose(prj.project_field(np.eye(3), q),
                                   np.zeros(3), atol=1e-14)

    def test_rotation_at_e1(self):
        out = prj.project_field(ROT, [1.0, 0.0])
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-14)

    def test_saddle_at_diagonal(self):
        q = prj.proj_point([1.0, 1.0])
        out = prj.project_field(np.diag([1.0, -1.0]), q)
        # radial part cancels; tangent pushes toward e1
        assert out[0] > 0 and out[1] < 0
        np.testing.assert_allclose(out @ q, 0.0, atol=1e-14)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((3, 3))
        q = prj.proj_point(rng.standard_normal(3))
        for lam in (-2.0, 0.5, 10.0):
            np.testing.assert_allclose(
                prj.project_field(m + lam * np.eye(3), q),
                prj.project_field(m, q), atol=1e-10)


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
        rng = np.random.default_rng(8)
        for a, b, k, _ in random_pairs(20, seed=8):
            f, g = prj.angle_dynamics_d2(a, b, k)
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
                u = prj.proj_point(q)
                sgn = float(np.sign(u @ q))
                speed = sgn * (normal @ prj.project_field(m, q))
                assert f(t, al) == pytest.approx(speed, abs=1e-13)
                assert g(t, al) == pytest.approx(q @ m @ q, abs=1e-13)

    def test_pure_rotation(self):
        f, g = prj.angle_dynamics_d2(ROT, *ZERO_IN)
        for theta in np.linspace(0, np.pi, 7):
            assert f(theta, 0.3) == pytest.approx(1.0, abs=1e-12)
            assert g(theta, 0.3) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_formulas(self):
        a_, b_ = 0.7, -1.2
        f, g = prj.angle_dynamics_d2(np.diag([a_, b_]), *ZERO_IN)
        for theta in np.linspace(0, np.pi, 9):
            assert f(theta, 1.0) == pytest.approx(
                (b_ - a_) * np.sin(theta) * np.cos(theta), abs=1e-12)
            assert g(theta, 1.0) == pytest.approx(
                a_ * np.cos(theta) ** 2 + b_ * np.sin(theta) ** 2, abs=1e-12)

    def test_pi_periodicity(self):
        a, b, k = SADDLE
        f, g = prj.angle_dynamics_d2(a, b, k)
        rng = np.random.default_rng(3)
        for theta in rng.uniform(0, np.pi, 10):
            assert f(theta + np.pi, 0.5) == pytest.approx(f(theta, 0.5), abs=1e-12)
            assert g(theta + np.pi, 0.5) == pytest.approx(g(theta, 0.5), abs=1e-12)

    def test_radial_integral_reproduces_log_growth(self):
        a, b, k = SADDLE
        alpha = 0.8
        f, g = prj.angle_dynamics_d2(a, b, k)
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

    f, _ = prj.angle_dynamics_d2(A, B, K)
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


class TestCircleArcSet:
    def test_wrapping_arc_contains_both_sides_of_pi(self):
        arcs = prj.CircleArcSet(arcs=((2.9, 3.4),))  # [2.9, pi) and [0, 3.4 - pi)
        assert arcs.contains(3.0) and arcs.contains(np.pi - 1e-9)
        assert arcs.contains(0.0) and arcs.contains(0.2)
        assert arcs.contains(3.3)  # the same direction as 3.3 - pi
        assert not arcs.contains(3.4 - np.pi + 1e-9)
        assert not arcs.contains(2.8) and not arcs.contains(1.5)
        np.testing.assert_array_equal(arcs.contains(np.array([3.0, 0.1, 1.0])),
                                      [True, True, False])
        assert arcs.measure() == pytest.approx(0.5)


class TestClosedForms:
    def test_zeros_are_zeros(self):
        for a, b, k, crange in random_pairs(50, seed=3):
            f, _ = prj.angle_dynamics_d2(a, b, k)
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
        f, _ = prj.angle_dynamics_d2(m, *ZERO_IN)
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
        assert res.arcs.contains(0.0, inflate=0.05)
        assert not res.arcs.contains(np.pi / 2, inflate=0.05)
        assert res.arcs.measure() < 0.2

    def test_not_applicable_without_plarc(self):
        res = prj.invariant_control_set_d2(np.diag([1.0, 2.0]), *ZERO_IN, RANGE)
        assert not res.applicable and res.arcs is None

    @pytest.mark.parametrize("crange", [(0.5, 0.2), (0.2, 1.5), (np.nan, 1.0), (0.2, 0.2)])
    def test_bad_range_raises_before_plarc(self, crange):
        # a pair without PLARC would be flagged not applicable; the range is checked first
        with pytest.raises(ValueError, match="control range"):
            prj.invariant_control_set_d2(np.diag([1.0, 2.0]), *ZERO_IN, crange)

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
                assert res.n_sinks == 1 and res.arcs.measure() <= 4 * np.pi / resolution
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
        assert res.arcs.contains(np.pi - 0.05) and res.arcs.contains(0.05)

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
    f, _ = prj.angle_dynamics_d2(A, B, K)
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
        inside = arcs.contains(theta, inflate=inflate)
        if not np.all(inside):
            ok = False
            for t in prj.wrap_angle(theta[~inside]):
                worst = max(worst, min(min(abs(prj.angle_distance(t, a)),
                                           abs(prj.angle_distance(t, b)))
                                       for a, b in arcs.arcs))
    return prj.InvarianceAudit(ok=ok, max_excursion=float(worst), inflate=float(inflate),
                               n_trajectories=theta.size)


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
            step = prj._projective_step(m, t)
            for x in rng.standard_normal((4, 2)):
                np.testing.assert_allclose(prj.proj_point(step @ x),
                                           prj.proj_point(expm(m * t) @ x), rtol=0.0, atol=1e-12)

    def test_stacks_match_single_matrices(self):
        rng = np.random.default_rng(7)
        ms = rng.standard_normal((3, 5, 2, 2))
        ms[0, 0] = [[0.0, 1.0], [0.0, 0.0]]
        stacked = prj._projective_step(ms, 0.3)
        for idx in np.ndindex(3, 5):
            np.testing.assert_array_equal(stacked[idx], prj._projective_step(ms[idx], 0.3))

    @pytest.mark.parametrize("scale", [1e4, 1e8])
    def test_finite_when_stiff(self, scale):
        # r t = scale: expm(M t) overflows for the saddle; the step does not
        saddle = scale * np.diag([1.0, -1.0])
        step = prj._projective_step(saddle, 1.0)
        assert np.isfinite(step).all()
        np.testing.assert_allclose(prj.proj_point(step @ [0.3, 0.8]), [1.0, 0.0], atol=1e-15)
        # the rotation by r t = scale keeps unit length
        rot = scale * ROT
        step = prj._projective_step(rot, 1.0)
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
        audit = prj.forward_invariance_audit(a, b, k, RANGE, arcs, [], horizon=1.0)
        assert audit == prj.InvarianceAudit(True, 0.0, 2.0 * np.pi / 4096, 0)

    def test_zero_horizon_checks_nothing(self):
        a, b, k, arcs, _ = c12_audit_inputs()
        # every start is outside the set, but no sampling time is reached
        audit = prj.forward_invariance_audit(a, b, k, RANGE, arcs, [0.5, 1.0],
                                             n_signals=3, horizon=0.0)
        assert audit == prj.InvarianceAudit(True, 0.0, 2.0 * np.pi / 4096, 6)

    @pytest.mark.parametrize("horizon, steps", [(1.0 / 256.0, 1), (0.1, 26), (0.125, 32)])
    def test_samples_every_step_up_to_the_horizon(self, horizon, steps):
        # a pure rotation turns at unit speed: the last sample, at
        # steps * dt, is the farthest past the arc end
        arcs = prj.CircleArcSet(arcs=((0.0, 0.002),))
        audit = prj.forward_invariance_audit(ROT, *ZERO_IN, RANGE, arcs, [0.0],
                                             n_signals=2, horizon=horizon, inflate=0.0)
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
            if not res.applicable or res.arcs.measure() < 0.05:
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
        f, _ = prj.angle_dynamics_d2(a, b, k)
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
        f, _ = prj.angle_dynamics_d2(a, b, k)
        end = start + (target - start) % np.pi
        ref = quad(lambda t: 1.0 / f(t, RANGE[0]), start, end, epsabs=0.0, epsrel=1e-13)[0]
        assert st.tau == pytest.approx(ref, rel=1e-10)
        assert st.signal.values.tolist() == [RANGE[0]]

    def test_closes_the_splice_loop(self):
        # steering output is admissible input for the periodic splice
        from pegrowth.signals import splice_periodic, validate_pe
        a, b, k = SADDLE
        res = prj.invariant_control_set_d2(a, b, k, RANGE)
        lo, hi = res.arcs.arcs[0]
        st = prj.steer_d2([0.0, 1.0], prj.point_of(0.5 * (lo + hi)), a, b, k,
                          RANGE, resolution=2048)
        if st.tau == 0.0:
            pytest.skip("start coincided with target")
        out = splice_periodic(PESignal.constant(1.0), 1.0, st.signal, st.tau, CLS)
        assert validate_pe(out, CLS).valid


def test_unreachable_raises():
    # pure saddle with no input: from a generic angle the flow never reaches
    # the repelling axis
    a = np.diag([1.0, -1.0])
    with pytest.raises(prj.SteeringError):
        prj.steer_d2([1.0, 1.0], [0.0, 1.0], a, *ZERO_IN, RANGE,
                     resolution=512, max_time=5.0)


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
