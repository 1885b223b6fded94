import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import matrix_to_json, reference_as_matrix, span_rank
from pegrowth import lie, matcore, projective, rates
from pegrowth.signals import PESignal


def small_matrices(d):
    return arrays(np.float64, (d, d),
                  elements=st.floats(-3.0, 3.0, allow_nan=False, width=64))


class TestSpanRank:
    def test_single(self):
        assert span_rank([np.eye(2)]) == 1

    def test_collinear(self):
        assert span_rank([np.eye(2), 2.0 * np.eye(2)]) == 1

    def test_full_basis_of_m2(self):
        fam = [np.eye(2), matcore.nilpotent_shift(2),
               matcore.nilpotent_shift(2).T, np.diag([1.0, -1.0])]
        assert span_rank(fam) == 4

    def test_empty(self):
        assert span_rank([]) == 0


class TestNumericalRank:
    def test_empty(self):
        assert matcore.numerical_rank(np.zeros(0), 1e-9) == 0

    def test_all_zeros(self):
        assert matcore.numerical_rank(np.zeros(4), 1e-9) == 0

    def test_single_nonzero(self):
        assert matcore.numerical_rank(np.array([2.5]), 1e-9) == 1
        assert matcore.numerical_rank(np.array([2.5, 0.0, 0.0]), 1e-9) == 1

    def test_rank_deficient_stack(self):
        # the third row is the sum of the first two
        rows = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0], [1.0, 3.0, -1.0]])
        assert matcore.numerical_rank(np.linalg.svd(rows, compute_uv=False), 1e-9) == 2
        assert matcore.numerical_rank(np.array([3.0, 1.0, 1e-17]), 1e-9) == 2

    def test_cutoff_is_strict(self):
        # a value at tol * sv[0] does not count, nor does an exact zero at tol = 0
        assert matcore.numerical_rank(np.array([1.0, 1e-9]), 1e-9) == 1
        assert matcore.numerical_rank(np.array([2.0, 0.0]), 0.0) == 1


class TestClosedLoop:
    """Every closed-loop entry point rejects inconsistent (A, B, K) shapes
    with the one message of ``matcore.closed_loop``."""

    A = np.diag([1.0, -1.0])
    BAD = [(np.ones((2, 1)), np.ones((1, 3))), (np.ones((3, 1)), np.ones((1, 2)))]
    RANGE = (0.4, 1.0)

    def test_accepts_consistent_shapes(self):
        a, b, k = matcore.closed_loop(self.A, [[1.0], [1.0]], [[-0.6, 0.2]])
        assert (a.shape, b.shape, k.shape) == ((2, 2), (2, 1), (1, 2))

    @pytest.mark.parametrize("entry", ["closed_loop", "monodromy", "check_larc", "steer_d2",
                                       "forward_invariance_audit"])
    @pytest.mark.parametrize("bad", range(len(BAD)))
    def test_one_message_everywhere(self, entry, bad):
        b, k = self.BAD[bad]
        calls = {
            "closed_loop": lambda: matcore.closed_loop(self.A, b, k),
            "monodromy": lambda: rates.monodromy(self.A, b, k, PESignal.constant(0.6, period=1.0)),
            "check_larc": lambda: lie.check_larc(self.A, b, k),
            "steer_d2": lambda: projective.steer_d2([1.0, 0.0], [1.0, 1.0], self.A, b, k,
                                                    self.RANGE),
            "forward_invariance_audit": lambda: projective.forward_invariance_audit(
                self.A, b, k, self.RANGE, projective.CircleArcSet(((0.0, np.pi),)), [0.5],
                n_signals=2, horizon=0.5),
        }
        message = f"inconsistent shapes: A (2, 2), B {b.shape}, K {k.shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            calls[entry]()


class TestSpectrum:
    """Spectra of similar matrices agree as multisets (``multiset_residual``)."""

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


class TestFronorm:
    def test_in_range_keeps_numpys_bits(self):
        rng = np.random.default_rng(1)
        for scale in (1e-300, 1.0, 1e150):
            m = scale * rng.standard_normal((4, 4))
            assert matcore.fronorm(m) == np.linalg.norm(m)

    def test_huge_entries_do_not_overflow(self):
        m = np.array([[3e200, 0.0], [0.0, -4e200]])
        assert matcore.fronorm(m) == pytest.approx(5e200, rel=1e-15)


class TestJson:
    def test_round_trip(self):
        m = np.array([[1.5, -2.0, 0.0], [0.25, 3.0, -1.0]])
        back = matcore.matrix_from_json(matrix_to_json(m))
        np.testing.assert_array_equal(back, m)

    def test_malformed(self):
        with pytest.raises(ValueError):
            matcore.matrix_from_json({"rows": 2, "cols": 2, "data": [1.0]})
        with pytest.raises(ValueError):
            matcore.matrix_from_json({"rows": 2})

    @pytest.mark.parametrize("obj", [
        {"rows": "2", "cols": 1, "data": [1.0, 2.0]},
        {"rows": 2, "cols": True, "data": [1.0, 2.0]},
        {"rows": 2.5, "cols": 1, "data": [1.0, 2.0]},
        {"rows": float("inf"), "cols": 1, "data": [1.0, 2.0]},
        {"rows": 2, "cols": 1, "data": [1.0, "2"]},
        {"rows": 2, "cols": 1, "data": [1.0, False]},
        {"rows": 2, "cols": 1, "data": [1.0, None]},
        {"rows": 2, "cols": 1, "data": [1.0, float("nan")]},
        {"rows": 2, "cols": 1, "data": [1.0, 10 ** 400]},
        {"rows": 2, "cols": 1, "data": [[1.0], [2.0]]},
        {"rows": 1, "cols": 1, "data": 1.0},
    ])
    def test_numbers_follow_the_config_rule(self, obj):
        with pytest.raises(ValueError):
            matcore.matrix_from_json(obj)

    def test_whole_floats_and_integers_are_numbers(self):
        m = matcore.matrix_from_json({"rows": 2.0, "cols": 1, "data": [1, -2.5]})
        assert m.dtype == float and m.tolist() == [[1.0], [-2.5]]


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


def _as_matrix_inputs():
    """0-d to 4-d inputs: scalars, lists, empty, read-only, strided and
    integer arrays, ragged lists and strings, and nan, inf and -inf at every
    position of a 0-d, 1-d, 2-d and 3-d array."""
    ro = np.arange(6.0).reshape(2, 3)
    ro.setflags(write=False)
    ro_row = np.arange(3.0)
    ro_row.setflags(write=False)
    out = [1.0, np.float64(2.5), np.array(3.0), 0, True, -0.0, [1.0, 2.0], [[1.0, 2.0]],
           [[1, 2], [3, 4]], [[[1.0]]], [], [[]], np.array([]), np.empty((0, 0)),
           np.empty((0, 3)), np.empty((3, 0)), np.empty((0, 2, 2)), np.ones((2, 2, 2)),
           np.ones((1, 1, 1, 1)), ro, ro_row, ro.T, np.arange(6.0)[::2], np.arange(12.0)[::-1],
           np.arange(9).reshape(3, 3), np.ones((2, 2), dtype=np.float32),
           [[1.0], [2.0, 3.0]], "x", [1e308, -1e308], [5e-324, -0.0]]
    for shape in [(), (3,), (2, 3), (1, 1), (2, 1, 2)]:
        for bad in (np.nan, np.inf, -np.inf):
            for i in range(max(1, int(np.prod(shape)))):
                m = np.ones(shape)
                m.flat[i] = bad
                out.append(m)
                out.append(m.tolist())
    return out


class TestAsMatrix:
    def test_same_result_as_the_numpy_checks(self):
        """The float pass gives the bits, shape, writeability and memory of
        numpy's ``atleast_2d`` and ``isfinite``, or the same message."""
        def outcome(check, a):
            try:
                m = check(a, "B")
            except ValueError as exc:
                return str(exc)
            shares = isinstance(a, np.ndarray) and np.shares_memory(m, a)
            return m.dtype.str, m.shape, m.tobytes(), m.flags.writeable, shares

        inputs = _as_matrix_inputs()
        got = [outcome(matcore.as_matrix, a) for a in inputs]
        assert got == [outcome(reference_as_matrix, a) for a in inputs]
        messages = {g for g in got if isinstance(g, str)}
        assert {"B must be 2-D, got 3-D", "B must be 2-D, got 4-D",
                "B contains non-finite entries"} <= messages
        assert sum(isinstance(g, tuple) for g in got) == 24
