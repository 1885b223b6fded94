import numpy as np
import pytest

from pegrowth import spinchk
from pegrowth.matcore import multiset_residual, opnorm


class TestMembership:
    def test_zero(self):
        assert spinchk.is_spin91(np.zeros((10, 10)))

    def test_embedded_skew(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((9, 9))
        m = np.zeros((10, 10))
        m[:9, :9] = 0.5 * (g - g.T)
        assert spinchk.is_spin91(m)

    def test_symmetric_rejected(self):
        rng = np.random.default_rng(1)
        g = rng.standard_normal((10, 10))
        assert not spinchk.is_spin91(0.5 * (g + g.T) + np.eye(10))

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            spinchk.is_spin91(np.zeros((9, 9)))

    def test_membership_residual(self):
        m = spinchk.random_spin91(3)
        assert spinchk.membership_residual(m) <= 1e-15
        g = spinchk.lorentz_form()
        bent = m + np.outer(np.eye(10)[0], np.eye(10)[9])
        expected = opnorm(bent.T @ g + g @ bent) / (1.0 + opnorm(bent))
        assert spinchk.membership_residual(bent) == expected > 0.1


class TestRandomDraws:
    def test_draws_pass_everything(self):
        for seed in range(40):
            m = spinchk.random_spin91(seed)
            assert spinchk.is_spin91(m)
            assert spinchk.spectrum_symmetric(m)
            assert abs(np.trace(m)) <= 1e-12
            dec = spinchk.charpoly_even_decomp(m)
            assert dec.odd_residual <= 1e-6 * (1.0 + opnorm(m) ** 10)

    def test_rank_two_border_spectrum(self):
        # A1 = 0, v1 = a e1: eigenvalues {a, -a, 0 x 8}
        a = 1.7
        m = np.zeros((10, 10))
        m[0, 9] = a
        m[9, 0] = a
        ev = np.sort(np.linalg.eigvals(m).real)
        np.testing.assert_allclose(ev[0], -a, atol=1e-12)
        np.testing.assert_allclose(ev[-1], a, atol=1e-12)
        np.testing.assert_allclose(ev[1:-1], np.zeros(8), atol=1e-12)
        dec = spinchk.charpoly_even_decomp(m)
        assert dec.odd_residual <= 1e-9
        # P = X^8 (X^2 - a^2): Q(Y) = Y^5 - a^2 Y^4
        np.testing.assert_allclose(dec.q_coeffs[:2], [1.0, -a * a], atol=1e-9)
        np.testing.assert_allclose(dec.q_coeffs[2:], np.zeros(4), atol=1e-9)

    def test_bordered_decomposition_round_trip(self):
        m = spinchk.random_spin91(17)
        a1, v1 = spinchk.bordered_decomposition(m)
        np.testing.assert_allclose(a1, -a1.T, atol=1e-12)
        rebuilt = np.zeros((10, 10))
        rebuilt[:9, :9] = a1
        rebuilt[:9, 9] = v1
        rebuilt[9, :9] = v1
        np.testing.assert_allclose(rebuilt, m, atol=1e-12)


class TestSpectrumSymmetric:
    def test_balanced_diag(self):
        assert spinchk.spectrum_symmetric(np.diag([1.0, -1.0]))

    def test_unbalanced_diag(self):
        assert not spinchk.spectrum_symmetric(np.diag([1.0, 2.0]))

    def test_zero_matrix_charpoly(self):
        dec = spinchk.charpoly_even_decomp(np.zeros((10, 10)))
        np.testing.assert_allclose(dec.q_coeffs, [1.0, 0, 0, 0, 0, 0], atol=1e-12)
        assert dec.odd_residual == 0.0

    def test_membership_required_for_decomp(self):
        with pytest.raises(ValueError):
            spinchk.charpoly_even_decomp(np.eye(10))


class TestSoSpectrum:
    def test_skew_passes(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((4, 4))
        assert spinchk.so_spectrum_check(0.5 * (g - g.T))

    def test_diag_fails(self):
        assert not spinchk.so_spectrum_check(np.diag([1.0, -1.0]))

    def test_similarity_preserves(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal((4, 4))
        skew = 0.5 * (g - g.T)
        p = np.eye(4) + 0.4 * rng.standard_normal((4, 4))
        sim = p @ skew @ np.linalg.inv(p)
        assert spinchk.so_spectrum_check(sim, tol=1e-8)


def test_negation_residual_small():
    m = spinchk.random_spin91(99)
    ev = np.linalg.eigvals(m)
    assert multiset_residual(ev, -ev) <= 1e-6
