import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pegrowth import matcore


def small_matrices(d):
    return arrays(np.float64, (d, d),
                  elements=st.floats(-3.0, 3.0, allow_nan=False, width=64))


class TestConorm:
    def test_identity(self):
        assert matcore.conorm(np.eye(4)) == pytest.approx(1.0, abs=1e-14)

    def test_diagonal(self):
        assert matcore.conorm(np.diag([2.0, 3.0])) == pytest.approx(2.0, abs=1e-14)

    def test_inverse_relation(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((3, 3)) + 0.5 * np.eye(3)
        assert abs(np.linalg.det(g)) > 1e-6
        prod = matcore.conorm(g) * matcore.opnorm(np.linalg.inv(g))
        assert prod == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            matcore.conorm(np.ones((2, 3)))

    @settings(max_examples=30, deadline=None)
    @given(small_matrices(3), st.integers(0, 2 ** 32 - 1))
    def test_lower_bounds_image_norms(self, m, seed):
        rng = np.random.default_rng(seed)
        c = matcore.conorm(m)
        for _ in range(5):
            x = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            assert c <= np.linalg.norm(m @ x) + 1e-10


class TestExpm:
    def test_zero(self):
        np.testing.assert_allclose(matcore.expm(np.zeros((3, 3)), 1.0), np.eye(3))

    def test_nilpotent(self):
        t = 0.7
        out = matcore.expm(matcore.nilpotent_shift(2), t)
        np.testing.assert_allclose(out, [[1.0, t], [0.0, 1.0]], atol=1e-15)

    def test_diagonal(self):
        out = matcore.expm(np.diag([0.3, -1.2]), 1.0)
        np.testing.assert_allclose(out, np.diag(np.exp([0.3, -1.2])), rtol=1e-13)

    @settings(max_examples=25, deadline=None)
    @given(small_matrices(2), st.floats(0.05, 1.5), st.floats(0.05, 1.5))
    def test_semigroup(self, m, s, t):
        if matcore.opnorm(m) * (s + t) > 10.0:
            return
        lhs = matcore.expm(m, s) @ matcore.expm(m, t)
        rhs = matcore.expm(m, s + t)
        assert matcore.opnorm(lhs - rhs) <= 1e-10 * (1.0 + matcore.opnorm(rhs))


class TestSpanRank:
    def test_single(self):
        assert matcore.span_rank([np.eye(2)]) == 1

    def test_collinear(self):
        assert matcore.span_rank([np.eye(2), 2.0 * np.eye(2)]) == 1

    def test_full_basis_of_m2(self):
        fam = [np.eye(2), matcore.nilpotent_shift(2),
               matcore.nilpotent_shift(2).T, np.diag([1.0, -1.0])]
        assert matcore.span_rank(fam) == 4

    def test_empty(self):
        assert matcore.span_rank([]) == 0


class TestSpectrum:
    def test_diagonal(self):
        rep = matcore.spectrum(np.diag([1.0, 2.0]))
        assert rep.min_real == pytest.approx(1.0)
        assert rep.max_real == pytest.approx(2.0)
        assert sorted(m for _, m in rep.eigenvalues) == [1, 1]

    def test_rotation(self):
        rep = matcore.spectrum(np.array([[0.0, -1.0], [1.0, 0.0]]))
        vals = sorted(rep.as_multiset(), key=lambda z: z.imag)
        np.testing.assert_allclose(vals, [-1j, 1j], atol=1e-12)
        assert rep.min_real == pytest.approx(0.0, abs=1e-12)

    def test_companion_quadratic(self):
        # X^2 + 3X + 2 = (X + 1)(X + 2)
        rep = matcore.spectrum(np.array([[0.0, 1.0], [-2.0, -3.0]]))
        np.testing.assert_allclose(sorted(rep.as_multiset().real), [-2.0, -1.0],
                                   atol=1e-12)

    def test_multiplicities_sum(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((5, 5))
        rep = matcore.spectrum(m)
        assert sum(mult for _, mult in rep.eigenvalues) == 5

    @settings(max_examples=25, deadline=None)
    @given(small_matrices(3), st.integers(0, 2 ** 32 - 1))
    @example(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 1.0], [1.0, 0.0, 0.0]]), 5)
    def test_similarity_invariance(self, m, seed):
        rng = np.random.default_rng(seed)
        p = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        if abs(np.linalg.det(p)) < 0.2:
            return
        sim = p @ m @ np.linalg.inv(p)
        # Rounding makes the computed spectrum of sim exact for some m + F
        # with ||F|| <~ u cond(p)^2 ||m||.  An eigenvalue in a Jordan block of
        # size k moves by O(||F||^(1/k)), so the bound must follow Elsner's
        # (2 ||m||)^(1 - 1/n) ||F||^(1/n) with n = 3, not a linear one: the
        # pinned example is one 3 x 3 Jordan block at 0.
        size = 1.0 + matcore.opnorm(m)
        perturbation = 64 * np.finfo(float).eps * np.linalg.cond(p) ** 2 * size
        tol = 4.0 * (2.0 * size) ** (2.0 / 3.0) * perturbation ** (1.0 / 3.0)
        res = matcore.multiset_residual(np.linalg.eigvals(sim), np.linalg.eigvals(m))
        assert res <= tol


class TestJson:
    def test_round_trip(self):
        m = np.array([[1.5, -2.0, 0.0], [0.25, 3.0, -1.0]])
        back = matcore.matrix_from_json(matcore.matrix_to_json(m))
        np.testing.assert_array_equal(back, m)

    def test_malformed(self):
        with pytest.raises(ValueError):
            matcore.matrix_from_json({"rows": 2, "cols": 2, "data": [1.0]})
        with pytest.raises(ValueError):
            matcore.matrix_from_json({"rows": 2})


def test_parity_matrix_signs():
    t = matcore.parity_matrix(4)
    np.testing.assert_array_equal(np.diag(t), [1.0, -1.0, 1.0, -1.0])
    np.testing.assert_array_equal(t @ t, np.eye(4))


class TestCanonicalUnit:
    def test_sign_and_norm(self):
        u = matcore.canonical_unit([0.0, -3.0, 4.0])
        np.testing.assert_array_equal(u, [0.0, 0.6, -0.8])

    def test_zero_has_no_direction(self):
        assert matcore.canonical_unit(np.zeros(3)) is None
        assert matcore.canonical_unit([1e-13, 0.0]) is None

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, 4, elements=st.floats(-3.0, 3.0, width=64)))
    def test_antipodes_share_a_representative(self, v):
        u = matcore.canonical_unit(v)
        if u is None:
            assert np.linalg.norm(v) <= 1e-12
        else:
            np.testing.assert_array_equal(u, matcore.canonical_unit(-v))
