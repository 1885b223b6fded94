import hashlib
import math

import numpy as np
import pytest
import scipy.linalg

from oracles import span_rank
from pegrowth import control, lie, matcore
from pegrowth.matcore import nilpotent_shift, opnorm, unit_vector


def random_controllable(rng, d, m=1):
    while True:
        a = rng.standard_normal((d, d))
        b = rng.standard_normal((d, m))
        if control.kalman_rank(a, b) == d:
            return a, b


class TestMatrixPair:
    def test_validation(self):
        with pytest.raises(ValueError):
            control.MatrixPair(np.eye(1), np.ones((1, 1)))  # d >= 2
        with pytest.raises(ValueError):
            control.MatrixPair(np.eye(2), np.ones((3, 1)))

    def test_fields(self):
        p = control.MatrixPair(np.eye(3), np.ones((3, 2)))
        assert (p.d, p.m) == (3, 2)


class TestKalmanRank:
    def test_chain(self):
        for d in (2, 3, 5):
            assert control.kalman_rank(nilpotent_shift(d),
                                       unit_vector(d, d - 1).reshape(d, 1)) == d

    def test_repeated_eigenvalue_single_input(self):
        assert control.kalman_rank(np.eye(2), unit_vector(2, 0).reshape(2, 1)) == 1

    def test_rotation(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert control.kalman_rank(rot, unit_vector(2, 0).reshape(2, 1)) == 2

    def test_similarity_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 2))
            p = np.eye(3) + 0.4 * rng.standard_normal((3, 3))
            r1 = control.kalman_rank(a, b)
            r2 = control.kalman_rank(p @ a @ np.linalg.inv(p), p @ b)
            assert r1 == r2


class TestControllableForm:
    def test_already_companion(self):
        d = 4
        w = np.array([1.5, -2.0, 0.5, 0.0])  # last entry zero: traceless companion
        a = nilpotent_shift(d) + np.outer(unit_vector(d, d - 1), w)
        form = control.controllable_form_si(a, unit_vector(d, d - 1))
        np.testing.assert_allclose(form.v, w, atol=1e-9)
        np.testing.assert_allclose(form.P, np.eye(d), atol=1e-9)

    def test_trace_shift_example(self):
        # tr A = -3, so the divisor-1 form describes A + 3I
        a = np.array([[0.0, 1.0], [-2.0, -3.0]])
        b = unit_vector(2, 1)
        form = control.controllable_form_si(a, b)
        shifted = a + 3.0 * np.eye(2)
        comp = nilpotent_shift(2) + np.outer(unit_vector(2, 1), form.v)
        np.testing.assert_allclose(np.linalg.inv(form.P) @ comp @ form.P,
                                   shifted, atol=1e-9)
        np.testing.assert_allclose(form.P @ b, unit_vector(2, 1), atol=1e-12)
        assert form.v[-1] == pytest.approx(np.trace(shifted), abs=1e-9)

    @pytest.mark.parametrize("divisor", [1.0, 4.0])
    def test_round_trip_random(self, divisor):
        rng = np.random.default_rng(9)
        d = 4
        a, b = random_controllable(rng, d)
        form = control.controllable_form_si(a, b, trace_divisor=divisor)
        shifted = a - (np.trace(a) / divisor) * np.eye(d)
        comp = nilpotent_shift(d) + np.outer(unit_vector(d, d - 1), form.v)
        err = np.max(np.abs(np.linalg.inv(form.P) @ comp @ form.P - shifted))
        assert err <= 1e-8 * (1.0 + opnorm(shifted))
        if divisor == d:
            assert abs(form.v[-1]) <= 1e-9

    def test_rejects_uncontrollable(self):
        with pytest.raises(control.NotControllableError) as err:
            control.controllable_form_si(np.eye(2), unit_vector(2, 0))
        assert err.value.rank == 1

    def test_zero_trace_divisor_rejected(self):
        with pytest.raises(ValueError, match=r"^trace_divisor must be nonzero$"):
            control.controllable_form_si(nilpotent_shift(2), unit_vector(2, 1), trace_divisor=0.0)


class TestAccessibilityCertificate:
    def test_chain_gain_passes(self):
        cert = control.accessibility_certificate(
            nilpotent_shift(2), unit_vector(2, 1), [1.0, 1.0])
        assert cert.verdict
        assert cert.r == (1.0, 1.0)
        assert cert.K_seq[0] == (1.0, 1.0) and cert.K_seq[1] == (0.0, 1.0)

    def test_vanishing_r0_fails(self):
        cert = control.accessibility_certificate(
            nilpotent_shift(2), unit_vector(2, 1), [1.0, 0.0])
        assert not cert.verdict and cert.r[0] == 0.0

    def test_all_ones_d3(self):
        cert = control.accessibility_certificate(
            nilpotent_shift(3), unit_vector(3, 2), [1.0, 1.0, 1.0])
        assert cert.verdict
        assert all(abs(r) > 1e-9 for r in cert.r)

    def test_implies_full_lie_rank(self):
        rng = np.random.default_rng(14)
        checked = 0
        for d in (2, 3, 4):
            while checked < 5 * (d - 1):
                a, b = random_controllable(rng, d)
                k = rng.standard_normal(d)
                cert = control.accessibility_certificate(a, b, k)
                if not cert.verdict:
                    continue
                shifted = a - np.trace(a) * np.eye(d)
                larc = lie.check_larc(shifted, b, (k @ cert.P).reshape(1, d))
                assert larc.verdict
                checked += 1
            checked = 0


def gaussian_triples():
    """216 seeded Gaussian triples: three draws of the benchmark's
    triple_sweep recipe, d = 2..10 at eight log-strata of scale 0.3..30."""
    lo, hi = math.log(0.3), math.log(30.0)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        for d in range(2, 11):
            for j in range(8):
                scale = math.exp(lo + (j + 0.5) / 8 * (hi - lo))
                a = scale * rng.standard_normal((d, d)) / math.sqrt(d)
                b = rng.standard_normal((d, 1))
                k = scale * rng.standard_normal((1, d)) / math.sqrt(d)
                yield a, b, k


def test_rank_verdicts_on_gaussian_triples():
    """``kalman_rank`` and the ``accessibility_certificate`` verdict (or the
    Kalman rank it rejected) on the 216 ``gaussian_triples``.  Large d and
    scale make the Krylov matrix ill-conditioned, so the rank cutoff decides
    many of these; the digest pins every verdict."""
    verdicts = []
    for a, b, k in gaussian_triples():
        try:
            acc = control.accessibility_certificate(a, b, k).verdict
        except control.NotControllableError as exc:
            acc = f"rank {exc.rank}"
        verdicts.append((control.kalman_rank(a, b), acc))
    assert sum(isinstance(v[1], str) for v in verdicts) == 27  # not controllable at 1e-9
    assert {v[1] for v in verdicts} >= {True, False}
    assert (hashlib.sha256(repr(verdicts).encode()).hexdigest()
            == "c288597a6c497730c46e27b3a50a28f45d84763b7fae33eff467997804fc427b")


def test_rank_kernel_matches_scipy_svdvals(monkeypatch):
    """The rank callers read singular values through numpy's SVD; on every
    matrix they form here, that equals ``scipy.linalg.svdvals`` bit for bit:
    the Kalman matrices and accessibility row stacks of the 216
    ``gaussian_triples``, and the stacks of seeded ``span_rank`` families
    (random, with repeated and combined members, at scales 1e-3..1e3)."""
    seen, kernel = [], matcore.singular_values

    def recorded(x):
        seen.append(np.array(x, dtype=float))
        return kernel(x)

    monkeypatch.setattr(control, "singular_values", recorded)
    for a, b, k in gaussian_triples():
        control.kalman_rank(a, b)
        try:
            control.accessibility_certificate(a, b, k)
        except control.NotControllableError:
            pass
    n_control = len(seen)
    monkeypatch.setattr(matcore, "singular_values", recorded)
    rng = np.random.default_rng(16)
    for d in range(2, 7):
        for n in (1, 2, d, d * d - 1, d * d, d * d + 2):
            fam = list(10.0 ** rng.uniform(-3, 3) * rng.standard_normal((n, d, d)))
            if n > 2:
                fam[-1] = fam[0] - 0.5 * fam[1]
                fam[-2] = fam[0]
            span_rank(fam)
    # per triple, kalman_rank on (A, b) and on the certificate's shifted
    # pair; row stacks for the 189 triples it does not reject
    assert n_control == 2 * 216 + 189 and len(seen) == n_control + 30
    for x in seen:
        assert np.linalg.svd(x, compute_uv=False).tobytes() == scipy.linalg.svdvals(x).tobytes()


def test_overflowing_krylov_matrix_raises():
    """An overflowed Krylov matrix is an error, not rank 0: numpy's SVD
    returns NaN for an infinite entry, so ``singular_values`` checks it
    first."""
    a = np.diag([1e200, 2e200, 3e200]) + nilpotent_shift(3)
    b = unit_vector(3, 2).reshape(3, 1)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="infs or NaNs"):
        control.kalman_rank(a, b)
    with pytest.raises(ValueError, match="infs or NaNs"):
        matcore.singular_values(np.array([[np.nan, 1.0], [1.0, 1.0]]))


class TestCoefficientBounds:
    def test_distinct_roots(self):
        rep = control.companion_coefficient_bounds([-2.0, -3.0])
        assert rep.verdict and rep.c0 == pytest.approx(1.0, abs=1e-9)
        assert rep.slacks[0] == pytest.approx(1.0, abs=1e-9)
        assert rep.slacks[1] == pytest.approx(0.5, abs=1e-9)

    def test_double_root_tight(self):
        rep = control.companion_coefficient_bounds([-1.0, -2.0], eigenvalues=[-1.0, -1.0])
        assert rep.verdict
        assert max(abs(s) for s in rep.slacks) <= 1e-9

    def test_imaginary_spectrum_rejected(self):
        with pytest.raises(ValueError):
            control.companion_coefficient_bounds([-1.0, 0.0])

    def test_mixed_signs_rejected(self):
        k = control.companion_gain([-1.0, 2.0])
        with pytest.raises(ValueError):
            control.companion_coefficient_bounds(k)

    def test_eigenvalue_consistency_guard(self):
        with pytest.raises(ValueError):
            control.companion_coefficient_bounds([-2.0, -3.0], eigenvalues=[-5.0, -6.0])


class TestPolePlacement:
    def test_companion_gain_exact(self):
        poles = [-1.0, -2.0, -4.0]
        k = control.companion_gain(poles)
        d = 3
        comp = nilpotent_shift(d) + np.outer(unit_vector(d, d - 1), k)
        got = np.sort(np.linalg.eigvals(comp).real)
        np.testing.assert_allclose(got, np.sort(poles), atol=1e-9)


def test_deep_pole_shift_eventually_certifies():
    """For companion pairs, gains whose closed loop sits deep in a half-plane
    pass the accessibility certificate once the depth clears a finite bar."""
    rng = np.random.default_rng(11)
    for d in (2, 3):
        v = np.concatenate([rng.standard_normal(d - 1), [0.0]])
        a = nilpotent_shift(d) + np.outer(unit_vector(d, d - 1), v)
        b = unit_vector(d, d - 1)
        bar = 10.0 * (1.0 + opnorm(a))
        c_star = None
        for c in np.linspace(0.5, bar, 24):
            poles = [-c - j for j in range(d)]
            k = control.companion_gain(poles) - v
            if control.accessibility_certificate(a, b, k).verdict:
                c_star = c
                break
        assert c_star is not None and c_star <= bar
        print(f"d={d}: smallest certifying pole depth ~ {c_star:.3g} (bar {bar:.3g})")
