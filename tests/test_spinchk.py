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
            ev = np.linalg.eigvals(m)
            assert multiset_residual(ev, -ev) <= 1e-6 * (1.0 + opnorm(m))
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


class TestSpectrumSymmetric:
    def test_zero_matrix_charpoly(self):
        dec = spinchk.charpoly_even_decomp(np.zeros((10, 10)))
        np.testing.assert_allclose(dec.q_coeffs, [1.0, 0, 0, 0, 0, 0], atol=1e-12)
        assert dec.odd_residual == 0.0

    def test_membership_required_for_decomp(self):
        with pytest.raises(ValueError):
            spinchk.charpoly_even_decomp(np.eye(10))


def test_negation_residual_small():
    m = spinchk.random_spin91(99)
    ev = np.linalg.eigvals(m)
    assert multiset_residual(ev, -ev) <= 1e-6
