import hashlib

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import bracket, span_rank
from pegrowth import lie
from pegrowth.matcore import DEFAULT_RANK_TOL, fronorm, nilpotent_shift, unit_vector

J2 = nilpotent_shift(2)
E21 = np.outer(unit_vector(2, 1), unit_vector(2, 0))  # e_2 e_1'
ROT = np.array([[0.0, -1.0], [1.0, 0.0]])


def small(d):
    return arrays(np.float64, (d, d),
                  elements=st.floats(-2.0, 2.0, allow_nan=False, width=64))


def random_controllable(rng, d, m=1):
    from pegrowth.control import kalman_rank
    while True:
        a = rng.standard_normal((d, d))
        b = rng.standard_normal((d, m))
        if kalman_rank(a, b) == d:
            return a, b


def reference_closure(generators, tol=DEFAULT_RANK_TOL):
    """Orthonormal basis rows of the Lie closure by the per-row loop the
    library used before its basis became array-backed: modified Gram-Schmidt,
    applied twice, one basis row at a time, and the same breadth-first
    bracketing."""
    gens = [np.asarray(g, dtype=float) for g in generators]
    d = gens[0].shape[0]
    rows = []

    def insert(mat):
        v = mat.ravel().astype(float)
        scale = np.linalg.norm(v)
        if scale <= tol:
            return False
        for _ in range(2):
            for r in rows:
                v = v - (r @ v) * r
        res = np.linalg.norm(v)
        if res <= tol * (1.0 + scale):
            return False
        rows.append(v / res)
        return True

    scaled = [g / fronorm(g) for g in gens if fronorm(g) > tol]
    frontier = [rows[-1].reshape(d, d) for g in scaled if insert(g)]
    while frontier and len(rows) < d * d:
        new = []
        for x in frontier:
            for g in scaled:
                if insert(x @ g - g @ x):
                    new.append(rows[-1].reshape(d, d))
        frontier = new
    return rows


def reference_plarc(a, f, seed=0, tol=DEFAULT_RANK_TOL):
    """(verdict, dim) of the projected rank certificate by the per-sample
    loop over the reference closure.  The sample set is the one the library
    used before it dropped the uniform samples at d = 2: 64 midpoints of
    equal cells of the half-circle there, the library's quasi-uniform
    directions for d >= 3."""
    d = a.shape[0]
    L = np.array(reference_closure([a, f], tol)).reshape(-1, d, d)
    n = max(2 * d, 64)
    if d == 2:
        pts = [np.array([np.cos(t), np.sin(t)]) for t in (np.arange(n) + 0.5) * np.pi / n]
    else:
        pts = lie._quasi_uniform_directions(d, n, seed)
    pts += lie._real_eig_directions(a) + lie._real_eig_directions(a + f)
    rng = np.random.default_rng(seed + 1)
    for _ in range(3):
        pts += lie._real_eig_directions(np.tensordot(rng.standard_normal(len(L)), L, axes=1))
    verdict = True
    for x in pts:
        lx = L @ x
        sv = scipy.linalg.svdvals(lx - np.outer(lx @ x, x))
        verdict &= np.count_nonzero(sv > tol * max(1.0, sv[0])) >= d - 1
    return verdict, len(L)


def structured_generators(rng, d, n, kind):
    """``n`` random generators of a known kind of algebra, in random coordinates."""
    gens = []
    for _ in range(n):
        g = rng.standard_normal((d, d))
        if kind == "traceless":
            g -= np.trace(g) / d * np.eye(d)
        elif kind == "skew":
            g = g - g.T
        elif kind == "upper":
            g = np.triu(g)
        elif kind == "block":
            g[d // 2:, :d // 2] = 0.0
        elif kind == "diagonal":
            g = np.diag(np.diag(g))
        gens.append(g)
    p = np.eye(d) + 0.3 * rng.standard_normal((d, d))
    pinv = np.linalg.inv(p)
    return [p @ g @ pinv for g in gens]


# seed-1 triple_sweep triple "triple_d07_01" (python3 bench/gen.py --workload
# triple_sweep --seed 1): LARC(A, B, K) holds, and a closure of the traceless
# parts that drifts out of sl(7) reports LARC0 dim 49
PINNED_A = np.array(
    [[-0.21215693480390385, -0.3443603584265117, -0.15834242178122704, 0.3804376450218182,
      0.42437148643942674, 0.2310638716389922, -0.12317299692691307],
     [0.12212770004526989, 0.004609903572220961, -0.28619655374436065, 0.12933596442899503,
      0.09812557141410899, -0.09069459710197024, -0.042290155944359635],
     [-0.019190479123198156, -0.19187068474635138, -0.12491063534165277, -0.24607688989310605,
      -0.3072254807057858, -0.22000307714813094, 0.08766581808840773],
     [-0.2690340369572499, -0.06722899963008033, -0.2726545787954051, -0.04190822642413535,
      0.28895898899944555, -0.8908670134264882, 0.49127028949989354],
     [-0.28672239034054264, -0.1375759044810008, -0.20184803163682064, -0.4228287633318998,
      -0.008920846927175798, -0.23311459781879923, -0.5549536236581273],
     [-0.2637820088943402, -0.3416501194389854, 0.5749433322157016, -0.16167421768450083,
      0.05412998824349305, -0.14415166786794914, 0.4532178882457606],
     [0.1957773349572372, 0.28403190653889276, 0.292694627424062, -0.13453293577796924,
      -0.5739878177428202, -0.017507744740354728, -0.07092948979628474]])
PINNED_B = np.array([[0.49801193748178735], [1.0255591290929948], [1.5531431069134554],
                     [-1.6798357366900019], [-1.8729025094232932], [1.1876680660435375],
                     [0.5060609696556986]])
PINNED_K = np.array([[-0.41402022350520207, -0.8060413405394026, -0.041335654467300496,
                      -0.13350860736669262, 0.0165252340369986, 0.6700854216537587,
                      -0.01934638674458645]])


class TestBracket:
    def test_self_vanishes(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(bracket(m, m), np.zeros((2, 2)))

    def test_sl2_generators(self):
        np.testing.assert_array_equal(bracket(J2, E21), np.diag([1.0, -1.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            bracket(np.eye(2), np.eye(3))

    @settings(max_examples=25, deadline=None)
    @given(small(4), small(4))
    def test_antisymmetry(self, m, n):
        np.testing.assert_allclose(bracket(m, n), -bracket(n, m),
                                   atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(small(3), small(3), small(3))
    def test_jacobi(self, a, b, c):
        total = (bracket(a, bracket(b, c))
                 + bracket(b, bracket(c, a))
                 + bracket(c, bracket(a, b)))
        assert fronorm(total) <= 1e-10 * (1 + fronorm(a)) * (1 + fronorm(b)) * (1 + fronorm(c))

    @settings(max_examples=20, deadline=None)
    @given(small(3), small(3), small(3), st.floats(-2, 2), st.floats(-2, 2))
    def test_bilinearity(self, a, b, c, x, y):
        lhs = bracket(x * a + y * b, c)
        rhs = x * bracket(a, c) + y * bracket(b, c)
        assert fronorm(lhs - rhs) <= 1e-10 * (1 + fronorm(lhs) + fronorm(rhs))


class TestClosure:
    def test_abelian(self):
        assert lie.lie_closure([np.eye(2)]).dim == 1

    def test_sl2(self):
        basis = lie.lie_closure([J2, E21])
        assert basis.dim == 3
        assert basis.all_traceless

    def test_full_gl3_from_chain(self):
        k = np.array([[1.0, 1.0, 1.0]])
        e3 = unit_vector(3, 2).reshape(3, 1)
        assert lie.lie_closure([nilpotent_shift(3), e3 @ k]).dim == 9

    def test_orthonormality(self):
        basis = lie.lie_closure([J2, E21])
        g = np.array([[np.sum(a * b) for b in basis.basis] for a in basis.basis])
        assert np.max(np.abs(g - np.eye(basis.dim))) <= 1e-10

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            gens = [rng.standard_normal((3, 3)) for _ in range(2)]
            p = np.eye(3) + 0.4 * rng.standard_normal((3, 3))
            pinv = np.linalg.inv(p)
            d1 = lie.lie_closure(gens).dim
            d2 = lie.lie_closure([p @ g @ pinv for g in gens]).dim
            assert d1 == d2

    def test_agrees_with_the_certificates_near_the_tolerance(self):
        # a 2x2 pair whose common eigendirection is perturbed by about 1e-8,
        # just above the rank tolerance: a closure grown from span{A, F}
        # read dim 4 here, and the certificates' D + span{A, F} reads 3
        a = np.array([[-3.4084406864769936, -2.9625197239964463],
                      [1.7816652984206947, 1.2153974990175307]])
        f = np.array([[0.6914487530176795, 1.9326153268622954],
                      [0.1958351541301419, -0.7595675266541102]])
        assert lie.lie_closure([a, f]).dim == lie.check_larc(a, np.eye(2), f).dim == 3

    def test_depth_reached_pinned(self):
        """The depths of the generators of this class, recorded when the
        closure grew breadth-first from span(generators)."""
        e3 = unit_vector(3, 2).reshape(3, 1)
        cases = [[np.zeros((2, 2))], [np.eye(2)], [J2, E21],
                 [nilpotent_shift(3), e3 @ np.array([[1.0, 1.0, 1.0]])]]
        rng = np.random.default_rng(8)
        for _ in range(5):
            gens = [rng.standard_normal((3, 3)) for _ in range(2)]
            p = np.eye(3) + 0.4 * rng.standard_normal((3, 3))
            cases += [gens, [p @ g @ np.linalg.inv(p) for g in gens]]
        rng = np.random.default_rng(3)
        for kind in ("generic", "traceless", "skew", "upper", "block"):
            cases.append(structured_generators(rng, 3, 2, kind))
        for d in (6, 8, 10):
            for kind in ("generic", "skew"):
                cases.append(structured_generators(np.random.default_rng(d), d, 2, kind))
        assert [lie.lie_closure(gens).depth_reached for gens in cases] == \
            [0, 1, 2, 4] + [4] * 10 + [4, 4, 2, 3, 4] + [6, 6, 7, 7, 8, 8]

    def test_matches_all_pairs_bruteforce(self):
        # independent closure: bracket all pairs until the span stabilises
        rng = np.random.default_rng(3)
        for kind in ("generic", "traceless", "skew", "upper", "block"):
            gens = structured_generators(rng, 3, 2, kind)
            mats = list(gens)
            dim = span_rank(mats)
            while True:
                extra = [bracket(x, y) for i, x in enumerate(mats)
                         for y in mats[i + 1:]]
                new = span_rank(mats + extra)
                if new == dim:
                    break
                mats += extra
                dim = new
            assert lie.lie_closure(gens).dim == dim == len(reference_closure(gens))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.integers(2, 3),
           st.sampled_from(["generic", "traceless", "skew", "upper", "block", "diagonal"]),
           st.integers(0, 2**32 - 1))
    def test_matches_reference_loop(self, d, n, kind, seed):
        gens = structured_generators(np.random.default_rng(seed), d, n, kind)
        assert lie.lie_closure(gens).dim == len(reference_closure(gens))

    @pytest.mark.parametrize("d", [6, 8, 10])
    @pytest.mark.parametrize("kind", ["generic", "skew"])
    def test_orthonormal_at_large_d(self, d, kind):
        # gl(d), and so(d) in random coordinates; the dimension alone cannot
        # show a basis that lost orthogonality, since it is capped at d*d
        gens = structured_generators(np.random.default_rng(d), d, 2, kind)
        basis = lie.lie_closure(gens)
        assert basis.dim == (d * d if kind == "generic" else d * (d - 1) // 2)
        q = np.stack(basis.basis).reshape(basis.dim, -1)
        assert np.max(np.abs(q @ q.T - np.eye(basis.dim))) <= 1e-12


class TestLarc:
    def test_chain_pair(self):
        cert = lie.check_larc(J2, unit_vector(2, 1).reshape(2, 1), [[1.0, 1.0]])
        assert cert.verdict and cert.dim == 4

    def test_zero_system(self):
        cert = lie.check_larc(np.zeros((3, 3)), np.zeros((3, 1)), [[1.0, 1.0, 1.0]])
        assert not cert.verdict and cert.dim == 0

    def test_triangular_pair_fails(self):
        cert = lie.check_larc(np.diag([1.0, 2.0]), unit_vector(2, 1).reshape(2, 1),
                              [[0.0, 1.0]])
        assert not cert.verdict and cert.dim < 4


class TestLarc0:
    def test_sl2_pair(self):
        cert = lie.check_larc0(J2, unit_vector(2, 1).reshape(2, 1), [[1.0, 0.0]])
        assert cert.verdict and cert.dim == 3

    def test_identity_a_fails(self):
        cert = lie.check_larc0(np.eye(2), np.zeros((2, 1)), [[1.0, 1.0]])
        assert not cert.verdict

    def test_generic_controllable_d3(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            a, b = random_controllable(rng, 3)
            k = rng.standard_normal((1, 3))
            assert lie.check_larc0(a, b, k).verdict


class TestPlarc:
    def test_batched_ranks_match_per_sample_loop(self):
        rng = np.random.default_rng(12)
        cases = [(ROT, np.zeros((2, 2))), (np.diag([1.0, 2.0]), np.ones((2, 2)))]
        for d in (2, 3, 4, 5):
            a, b = random_controllable(rng, d)
            cases.append((a, b @ rng.standard_normal((1, d))))
            # a common invariant subspace: PLARC fails
            f = structured_generators(rng, d, 1, "block")[0]
            cases.append((np.linalg.inv(f - 3 * np.eye(d)) @ f, f))
        for a, f in cases:
            d = a.shape[0]
            cert = lie.check_plarc(a, np.eye(d), f)
            assert (cert.verdict, cert.dim) == reference_plarc(a, f)
            assert cert.verdict == (not cert.failing_samples)

    def test_d2_matches_the_uniform_sample_set(self):
        """At d = 2 the certificate samples only eigendirections; its verdict
        and dim are those of the sample set with 64 uniform directions, on
        generic pairs, on pairs with a common eigendirection, exact and
        perturbed, on scalar A and on rotation pairs.  The perturbations
        stay clear of the rank tolerance, where the two closures may differ
        in dim."""
        rng = np.random.default_rng(29)
        eps = (1e-4, 1e-5, 1e-6, 1e-13, 1e-14)
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        cases = []
        for i in range(30):
            cases.append((rng.standard_normal((2, 2)), rng.standard_normal((2, 2))))
            p = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
            pinv = np.linalg.inv(p)
            a, f = (p @ np.triu(rng.standard_normal((2, 2))) @ pinv for _ in range(2))
            cases.append((a, f))
            cases.append((a, f + eps[i % 5] * rng.standard_normal((2, 2))))
            cases.append((rng.standard_normal() * np.eye(2), f))
            cases.append(tuple(rng.standard_normal() * np.eye(2) + rng.standard_normal() * rot
                               for _ in range(2)))
        verdicts = set()
        for i, (a, f) in enumerate(cases):
            cert = lie.check_plarc(a, np.eye(2), f, seed=i)
            assert (cert.verdict, cert.dim) == reference_plarc(a, f, seed=i), i
            assert cert.verdict == (not cert.failing_samples)
            verdicts.add(cert.verdict)
        assert verdicts == {True, False}

    def test_rotation_without_input(self):
        cert = lie.check_plarc(ROT, np.zeros((2, 1)), [[0.0, 0.0]])
        assert cert.verdict

    def test_diagonal_fails_at_eigendirections(self):
        cert = lie.check_plarc(np.diag([1.0, 2.0]), np.zeros((2, 1)), [[1.0, 1.0]])
        assert not cert.verdict
        assert len(cert.failing_samples) > 0

    def test_follows_from_larc(self):
        cert = lie.check_plarc(J2, unit_vector(2, 1).reshape(2, 1), [[1.0, 1.0]])
        assert cert.verdict

    def test_json_shape(self):
        cert = lie.check_plarc(np.diag([1.0, 2.0]), np.zeros((2, 1)), [[1.0, 1.0]])
        obj = cert.to_json()
        assert set(obj) == {"kind", "verdict", "dim", "failing_samples", "tol"}


def sweep_pairs():
    """(A, BK) pairs whose closure contains sl(d): for d = 2..10, Gaussian
    triples at the centres of the lowest, middle and highest of
    ``triple_sweep``'s 8 log-scale strata over [0.3, 30], and the traceless
    parts of one more triple (the closure is then sl(d) itself)."""
    rng = np.random.default_rng(31)
    lo, hi = np.log(0.3), np.log(30.0)
    pairs = []
    for d in range(2, 11):
        for j in (0, 4, 7):
            scale = np.exp(lo + (j + 0.5) / 8 * (hi - lo))
            a = scale * rng.standard_normal((d, d)) / np.sqrt(d)
            f = rng.standard_normal((d, 1)) @ (scale * rng.standard_normal((1, d)) / np.sqrt(d))
            pairs.append((a, f))
        a, f = rng.standard_normal((2, d, d))
        pairs.append((a - np.trace(a) / d * np.eye(d), f - np.trace(f) / d * np.eye(d)))
    return pairs


def sampled_pairs():
    """(A, BK) pairs whose closure does not contain sl(d): B = 0, integer
    block-triangular pairs, pairs with one shared eigendirection, and the
    50 non-controllable pairs of acceptance criterion C5."""
    rng = np.random.default_rng(32)
    pairs = []
    for d in range(2, 6):
        pairs.append((rng.standard_normal((d, d)), np.zeros((d, d))))
    for d in range(3, 7):
        a, f = rng.integers(-3, 4, size=(2, d, d)).astype(float)
        a[d // 2:, :d // 2] = f[d // 2:, :d // 2] = 0.0
        pairs.append((a, f))
    for d in range(2, 6):
        a, f = rng.standard_normal((2, d, d))
        a[1:, 0] = f[1:, 0] = 0.0  # both fix the line of e_1
        p = np.eye(d) + 0.3 * rng.standard_normal((d, d))
        pinv = np.linalg.inv(p)
        pairs.append((p @ a @ pinv, p @ f @ pinv))
    for i in range(50):  # as built in tests/test_acceptance.py::test_c05
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
        pairs.append((p @ a_block @ np.linalg.inv(p),
                      (p @ b_block) @ rng.standard_normal((1, d))))
    return pairs


class TestClosureDecidedPlarc:
    """A closure W that contains sl(d) decides PLARC without samples.  For
    orthonormal rows E_k of W and a unit x, sum_k (P E_k x)(P E_k x)' = P
    with P = I - xx', so the tangent stack at every direction has d - 1
    singular values 1 and one 0: the sampled rule passes everywhere."""

    def test_verdict_and_dim_are_the_sampled_ones(self):
        for i, (a, f) in enumerate(sweep_pairs()):
            d = a.shape[0]
            cert = lie.check_plarc(a, np.eye(d), f, seed=i)
            assert (cert.n_samples, cert.failing_samples) == (0, ()), i
            assert (cert.verdict, cert.dim) == reference_plarc(a, f, seed=i), i
            assert cert.dim >= d * d - 1

    def test_tangent_stack_is_the_projector(self):
        for i, (a, f) in enumerate(sweep_pairs()):
            d = a.shape[0]
            L = np.array(lie.lie_closure([a, f]).basis)
            X = lie._quasi_uniform_directions(d, max(2 * d, 64), i) if d != 2 else []
            X = np.array(X + lie._real_eig_directions(a) + lie._real_eig_directions(a + f))
            lx = np.einsum("kij,nj->nki", L, X)
            tang = lx - np.einsum("nki,ni->nk", lx, X)[:, :, None] * X[:, None, :]
            sv = np.linalg.svd(tang, compute_uv=False)
            assert np.abs(sv[:, :d - 1] - 1.0).max() <= 1e-12, i
            assert sv[:, d - 1].max() <= 1e-12, i

    def test_other_closures_keep_their_sampled_certificates(self):
        """Verdict, dim, failing samples and sample count of every pair,
        pinned by a digest recorded on the program before closures decided
        the verdict."""
        h = hashlib.sha256()
        verdicts = set()
        for i, (a, f) in enumerate(sampled_pairs()):
            d = a.shape[0]
            cert = lie.check_plarc(a, np.eye(d), f, seed=i)
            assert cert.n_samples > 0, i
            verdicts.add(cert.verdict)
            h.update(repr((cert.verdict, cert.dim, cert.n_samples)).encode())
            h.update(np.array(cert.failing_samples, dtype=float).tobytes())
        assert verdicts == {True, False}
        assert h.hexdigest() == (
            "28bef6a63ad7316297ef3d51e1d6851ef5adf2c8a5b20f6e7446d7bd6d73468c")


class TestChainAudit:
    def test_chain_pair_all_hold(self):
        audit = lie.inclusion_chain_audit(J2, unit_vector(2, 1).reshape(2, 1),
                                          [[1.0, 1.0]], shift=0.0)
        assert audit.larc_shifted.verdict and audit.larc0.verdict
        assert audit.plarc.verdict and not audit.violations

    def test_identity_a_vacuous(self):
        audit = lie.inclusion_chain_audit(np.eye(2), unit_vector(2, 1).reshape(2, 1),
                                          [[1.0, 0.0]], shift=0.5)
        assert not audit.larc_shifted.verdict
        assert not audit.violations

    def test_random_controllable_no_violations(self):
        rng = np.random.default_rng(4)
        for i in range(15):
            a, b = random_controllable(rng, 3)
            k = rng.standard_normal((1, 3))
            shift = float(rng.uniform(-1.0, 1.0))
            audit = lie.inclusion_chain_audit(a, b, k, shift=shift, seed=i)
            assert not audit.violations, audit.violations

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.integers(2, 10), st.floats(0.3, 30.0), st.integers(0, 2**32 - 1))
    def test_chain_and_dimension_invariants(self, d, scale, seed):
        rng = np.random.default_rng(seed)
        a = scale * rng.standard_normal((d, d)) / np.sqrt(d)
        b = rng.standard_normal((d, 1))
        k = scale * rng.standard_normal((1, d)) / np.sqrt(d)
        shift = float(rng.uniform(-1.0, 1.0))
        audit = lie.inclusion_chain_audit(a, b, k, shift=shift, seed=seed % 997)
        assert not audit.violations, audit.violations
        assert audit.larc0.dim <= d * d - 1
        assert lie.check_larc(a + shift * np.eye(d), b, k).dim == audit.larc_shifted.dim
        assert lie.check_larc0(a, b, k).dim == audit.larc0.dim
        plarc = lie.check_plarc(a, b, k, seed=seed % 997)
        assert (plarc.dim, plarc.verdict, plarc.n_samples) == (
            audit.plarc.dim, audit.plarc.verdict, audit.plarc.n_samples)

    def test_pinned_d7_triple(self):
        audit = lie.inclusion_chain_audit(PINNED_A, PINNED_B, PINNED_K)
        assert audit.larc_shifted.dim == 49 and audit.larc_shifted.verdict
        assert audit.larc0.dim == 48 and audit.larc0.verdict
        assert audit.plarc.dim == 49 and audit.plarc.verdict
        assert not audit.violations, audit.violations
        assert lie.check_larc0(PINNED_A, PINNED_B, PINNED_K).dim == 48
