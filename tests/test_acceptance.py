"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np
import pytest

from pegrowth import control, lie, projective as prj, rates, spinchk
from pegrowth.matcore import (multiset_residual, nilpotent_shift, opnorm,
                              unit_vector)
from pegrowth.signals import PESignal, SignalClass, reverse, validate_pe

CLS = SignalClass(1.0, 0.4)


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def random_triple(rng, d, scale=0.8):
    a = scale * rng.standard_normal((d, d)) / np.sqrt(d)
    b = rng.standard_normal((d, 1))
    k = scale * rng.standard_normal((1, d)) / np.sqrt(d)
    return a, b, k


def random_controllable(rng, d, m=1):
    while True:
        a = rng.standard_normal((d, d))
        b = rng.standard_normal((d, m))
        if control.kalman_rank(a, b) == d:
            return a, b


def test_c01_monodromy_time_reversal_inversion():
    """50 seeded tuples, d in {2,3}, 10 periodic bang-bang signals each:
    the reversed-system monodromy inverts the original within 1e-8."""
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for i in range(50):
        d = 2 if i < 25 else 3
        rng = np.random.default_rng(1000 + i)
        a, b, k = random_triple(rng, d)
        fam = rates.bang_bang_family(
            CLS, rates.SearchBudget(n_periods=2, size=10, seed=i,
                                    include_constants=False))
        eye = np.eye(d)
        for s in fam[:10]:
            r = rates.fundamental_solution(a, b, k, s, s.period)
            r_rev = rates.fundamental_solution(-a, -b, k, reverse(s), s.period)
            worst = max(worst, opnorm(r_rev @ r - eye))
            count += 1
    elapsed = time.perf_counter() - t0
    report("C1 monodromy time-reversal inversion",
           worst <= 1e-8 and elapsed < 10.0,
           f"{count} products, max residual {worst:.3e}, {elapsed:.1f}s")


def test_c02_search_level_duality_bit_for_bit():
    """rc(A,B,K) == rd(-A,-B,K) bit for bit on mirrored 30-signal families,
    20 seeds; 100-point gain-grid suprema also equal bit for bit."""
    all_equal = True
    for i in range(20):
        d = 2 if i % 2 == 0 else 3
        rng = np.random.default_rng(2000 + i)
        a, b, k = random_triple(rng, d)
        fam = rates.bang_bang_family(CLS, rates.SearchBudget(size=30, seed=i))
        assert len(fam) == 30
        rc = rates.rc_estimate(a, b, k, CLS, fam)
        rd = rates.rd_estimate(-a, -b, k, CLS, rates.mirror_family(fam))
        all_equal &= (rc.value == rd.value)
    rng = np.random.default_rng(77)
    a, b, _ = random_triple(rng, 2)
    fam = rates.bang_bang_family(CLS, rates.SearchBudget(size=30, seed=77))
    mirrored = rates.mirror_family(fam)
    rcs, rds = [], []
    for _ in range(100):
        k = rng.standard_normal((1, 2))
        rcs.append(rates.rc_estimate(a, b, k, CLS, fam).value)
        rds.append(rates.rd_estimate(-a, -b, k, CLS, mirrored).value)
    grid_equal = all(x == y for x, y in zip(rcs, rds)) and max(rcs) == max(rds)
    report("C2 search-level duality bit-for-bit", all_equal and grid_equal,
           f"20 seeds per-K equal: {all_equal}, grid sup {max(rcs)!r} == {max(rds)!r}")


def test_c03_chain_pair_lie_rank():
    """Nonvanishing-component gains on the chain pair reach full Lie rank and
    certify; a zero Markov scalar refuses the certificate."""
    t0 = time.perf_counter()
    ok = True
    for d in (2, 3, 4):
        rng = np.random.default_rng(d)
        j = nilpotent_shift(d)
        ed = unit_vector(d, d - 1)
        for _ in range(20):
            k = rng.uniform(0.3, 1.5, size=d) * np.where(rng.random(d) < 0.5, -1.0, 1.0)
            basis = lie.lie_closure([j, np.outer(ed, k)])
            cert = control.accessibility_certificate(j, ed, k)
            ok &= (basis.dim == d * d) and cert.verdict
        k_zero = rng.uniform(0.3, 1.5, size=d)
        k_zero[int(rng.integers(0, d))] = 0.0
        ok &= not control.accessibility_certificate(j, ed, k_zero).verdict
    elapsed = time.perf_counter() - t0
    report("C3 chain-pair full Lie rank", ok and elapsed < 5.0,
           f"60 gains, {elapsed:.1f}s")


def test_c04_inclusion_chain():
    """100 random controllable triples, d in {2,3}: certificate-level
    implication chain LARC(A+sI) => LARC0 => PLARC never violated."""
    violations = 0
    for i in range(100):
        d = 2 if i < 50 else 3
        rng = np.random.default_rng(4000 + i)
        a, b = random_controllable(rng, d)
        k = rng.standard_normal((1, d))
        shift = float(rng.uniform(-1.0, 1.0))
        audit = lie.inclusion_chain_audit(a, b, k, shift=shift, seed=i)
        violations += len(audit.violations)
    report("C4 inclusion chain", violations == 0, f"violations: {violations}")


def test_c05_noncontrollable_plarc():
    """Non-controllable pairs with B != 0 always fail the projected rank
    certificate; the planar rotation family with B = 0 passes."""
    ok = True
    for i in range(50):
        d = 2 if i < 25 else 3
        rng = np.random.default_rng(5000 + i)
        r = int(rng.integers(1, d))
        a_block = np.zeros((d, d))
        a_block[:r, :] = rng.standard_normal((r, d))
        a_block[r:, r:] = rng.standard_normal((d - r, d - r))
        b_block = np.zeros((d, 1))
        b_block[:r, 0] = rng.standard_normal(r)
        if np.linalg.norm(b_block) < 0.3:
            b_block[0, 0] = 1.0
        p = np.eye(d) + 0.4 * rng.standard_normal((d, d))
        a = p @ a_block @ np.linalg.inv(p)
        b = p @ b_block
        assert control.kalman_rank(a, b) < d
        k = rng.standard_normal((1, d))
        cert = lie.check_plarc(a, b, k, seed=i)
        ok &= not cert.verdict
    for i in range(10):
        rng = np.random.default_rng(5100 + i)
        w = rng.uniform(0.5, 2.0)
        c = rng.standard_normal()
        a = np.array([[c, -w], [w, c]])
        cert = lie.check_plarc(a, np.zeros((2, 1)), np.zeros((1, 2)), seed=i)
        ok &= cert.verdict
    report("C5 non-controllable PLARC", ok)


def test_c06_constant_signal_bounds():
    """Constant-family estimates reproduce the closed-loop eigenvalue
    formulas over a 50-point grid within 1e-9."""
    worst = 0.0
    grid = np.linspace(CLS.floor, 1.0, 50)
    fam = rates.constant_family(CLS, 50)
    for i in range(10):
        d = 2 if i % 2 == 0 else 3
        rng = np.random.default_rng(6000 + i)
        a, b, k = random_triple(rng, d)
        bk = b @ k
        rc = rates.rc_estimate(a, b, k, CLS, fam).value
        rd = rates.rd_estimate(a, b, k, CLS, fam).value
        rc_formula = min(-np.linalg.eigvals(a + v * bk).real.max() for v in grid)
        rd_formula = min(np.linalg.eigvals(a + v * bk).real.min() for v in grid)
        worst = max(worst, abs(rc - rc_formula), abs(rd - rd_formula))
    report("C6 constant-signal eigenvalue bounds", worst <= 1e-9,
           f"max deviation {worst:.3e}")


def test_c07_shift_law():
    """Per-signal exponents shift exactly with A -> A + shift*I."""
    worst = 0.0
    s = PESignal([0.0, 0.5, 1.25], [1.0, 0.0, 1.0], period=2.0)
    for i in range(20):
        d = 2 if i % 2 == 0 else 3
        rng = np.random.default_rng(7000 + i)
        a, b, k = random_triple(rng, d)
        x0 = rng.standard_normal(d)
        for shift in (-2.5, 0.0, 1.0, 10.0):
            rep = rates.shift_law_check(a, b, k, shift, s, x0)
            worst = max(worst, rep.top_rate_residual, rep.bottom_rate_residual,
                        rep.exponent_residual)
    report("C7 shift law", worst <= 1e-10, f"max residual {worst:.3e}")


def test_c08_coordinate_invariance():
    """Monodromy spectra are similarity invariants of the loop data."""
    worst = 0.0
    s = PESignal([0.0, 0.4, 1.1], [1.0, 0.0, 1.0], period=2.0)
    for i in range(50):
        d = 2 if i % 2 == 0 else 3
        rng = np.random.default_rng(8000 + i)
        a, b, k = random_triple(rng, d)
        while True:
            p = np.eye(d) + 0.5 * rng.standard_normal((d, d))
            if np.linalg.cond(p) < 50:
                break
        v = np.eye(1) + 0.5 * rng.standard_normal((1, 1))
        rep = rates.coordinate_invariance_check(a, b, k, p, v, s)
        worst = max(worst, rep.spectral_residual)
    report("C8 coordinate invariance", worst <= 1e-9, f"max residual {worst:.3e}")


def test_c09_coefficient_inequalities():
    """Pole-placed companion gains with one-sign spectra satisfy the
    coefficient bounds; repeated-root cases are tight."""
    ok = True
    worst_slack = 0.0
    for d in (2, 3, 4):
        rng = np.random.default_rng(9000 + d)
        for _ in range(100):
            sign = -1.0 if rng.random() < 0.5 else 1.0
            poles = []
            while len(poles) < d:
                if d - len(poles) >= 2 and rng.random() < 0.4:
                    re = sign * rng.uniform(0.5, 2.5)
                    im = rng.uniform(0.3, 2.0)
                    poles += [complex(re, im), complex(re, -im)]
                else:
                    poles.append(complex(sign * rng.uniform(0.5, 3.0), 0.0))
            k = control.companion_gain(poles)
            rep = control.companion_coefficient_bounds(k)
            ok &= rep.verdict
            worst_slack = min(worst_slack, min(rep.slacks))
        for c in (1.0, 1.5):
            poles = [-c] * d
            rep = control.companion_coefficient_bounds(
                control.companion_gain(poles), eigenvalues=poles)
            tightness = max(abs(s) for s in rep.slacks)
            ok &= rep.verdict and tightness <= 1e-9
    report("C9 one-sign coefficient inequalities",
           ok and worst_slack >= -1e-9,
           f"min slack {worst_slack:.3e}")


def test_c10_parity_gain_duality():
    """Spectral inversion between a chain gain and its parity conjugate."""
    worst = 0.0
    for d in (2, 3, 4):
        rng = np.random.default_rng(10_000 + d)
        k = rng.uniform(0.3, 1.2, size=d) * np.where(rng.random(d) < 0.5, -1.0, 1.0)
        fam = rates.bang_bang_family(
            CLS, rates.SearchBudget(n_periods=2, size=20, seed=d))
        rep = rates.parity_duality_check(k, fam, cls=CLS)
        worst = max(worst, rep.max_residual)
    report("C10 parity gain duality", worst <= 1e-8, f"max residual {worst:.3e}")


def test_c11_spin_algebra():
    """200 seeded spin(9,1) draws: membership, origin-symmetric spectra, and
    vanishing odd characteristic coefficients."""
    g = spinchk.lorentz_form()
    worst_m, worst_s, worst_o = 0.0, 0.0, 0.0
    for seed in range(200):
        m = spinchk.random_spin91(seed)
        scale = 1.0 + opnorm(m)
        worst_m = max(worst_m, opnorm(m.T @ g + g @ m) / scale)
        ev = np.linalg.eigvals(m)
        worst_s = max(worst_s, multiset_residual(ev, -ev))
        dec = spinchk.charpoly_even_decomp(m)
        worst_o = max(worst_o, dec.odd_residual / (1.0 + opnorm(m) ** 10))
    report("C11 spin(9,1) spectra",
           worst_m <= 1e-10 and worst_s <= 1e-6 and worst_o <= 1e-6,
           f"membership {worst_m:.2e}, symmetry {worst_s:.2e}, odd {worst_o:.2e}")


def test_c12_invariant_set_and_steering():
    """Forward invariance of the computed control set under random
    admissible signals, and uniform-time steering to interior targets."""
    a = np.array([[1.0, 0.0], [0.0, -1.0]])
    b = np.array([[1.0], [1.0]])
    k = np.array([[-0.6, 0.2]])
    crange = (CLS.floor, 1.0)
    resolution = 4096
    res = prj.invariant_control_set_d2(a, b, k, crange)
    assert res.applicable and not res.arcs.whole and res.n_sinks == 1
    pts = prj.boundary_points(res.arcs, 100, resolution)
    audit = prj.forward_invariance_audit(a, b, k, crange, res.arcs, pts,
                                         n_signals=50, horizon=6.0,
                                         resolution=resolution, seed=0)
    lo, hi = res.arcs.arcs[0]
    margin = 5 * np.pi / resolution
    rng = np.random.default_rng(5)
    steered = 0
    for _ in range(10):
        t_ang = rng.uniform(lo + margin, hi - margin)
        target = prj.point_of(t_ang)
        bound = prj.steering_time_bound(a, b, k, crange, target,
                                        resolution=resolution, mesh=32,
                                        max_time=20.0)
        for _ in range(5):
            q0 = prj.point_of(rng.uniform(0.0, np.pi))
            st = prj.steer_d2(q0, target, a, b, k, crange,
                              resolution=resolution, max_time=bound + 5.0)
            if st.tau <= bound:
                steered += 1
    report("C12 invariant set + steering",
           audit.ok and steered == 50,
           f"audit ok: {audit.ok}, steered {steered}/50")


def test_c13_pe_validation_oracle():
    """Worst-window search agrees with a 10^4-step Riemann oracle on 100
    random periodic signals; the boundary constant is accepted exactly."""
    from test_signals import grid_oracle_worst, random_grid_signal

    rng = np.random.default_rng(13)
    worst = 0.0
    verdict_mismatch = 0
    for _ in range(100):
        s = random_grid_signal(rng, CLS)
        res = validate_pe(s, CLS)
        oracle = grid_oracle_worst(s, CLS)
        worst = max(worst, abs(res.worst_integral - oracle))
        if abs(res.worst_integral - CLS.mu) > 1e-8:
            verdict_mismatch += int(res.valid != (oracle >= CLS.mu))
    boundary = validate_pe(PESignal.constant(CLS.floor, period=1.0), CLS)
    exact = boundary.valid and boundary.worst_integral == CLS.mu
    report("C13 excitation validation vs grid oracle",
           worst <= 1e-6 and verdict_mismatch == 0 and exact,
           f"max gap {worst:.2e}, boundary exact: {exact}")
