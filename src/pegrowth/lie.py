"""Matrix Lie algebra closures and the rank certificates LARC, LARC0, PLARC.

LARC holds when Lie(A, BK) spans all d x d matrices; LARC0 when the
traceless parts of A and BK generate sl(d); PLARC when the fields induced on
real projective space span the full tangent space at every point.  A closure
that contains sl(d) decides PLARC: sl(d) acts transitively on the sphere
(Boothby & Wilson, SIAM J. Control Optim. 17, 1979), so the verdict is true
and no direction is sampled.  Any other closure is certified numerically at
a finite sample of directions, so a true verdict is evidence at the sampled
points rather than a proof (the sample count is part of the certificate).

For generators X_1, ..., X_n, Lie(X_1, ..., X_n) = span{X_i} + D, where D is
the span of the nested brackets of length >= 2.  The identity is central, so
D is the same for (A + lambda*I, BK), (A, BK) and the traceless parts
(A0, F0), and it lies in sl(d).  D is spanned by the breadth-first brackets
of the [X_i, X_j] with the traceless X_i and kept orthogonal to the identity.
``lie_closure`` is D + span{X_i}; LARC is dim(D + span{A + lambda*I, BK}),
LARC0 is dim(D + span{A0, F0}), at most d*d - 1 by construction, and PLARC
reads D + span{A, BK}: true when it contains sl(d), sampled on its basis
otherwise.  ``inclusion_chain_audit`` computes D once for all three, so
LARC => LARC0 holds by construction: both sides add two generators with the
same traceless parts to the same D.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .matcore import (DEFAULT_RANK_TOL, _integer_arg, canonical_unit, closed_loop, fronorm,
                      require_square)

__all__ = [
    "LieBasis",
    "RankCertificate",
    "ChainAudit",
    "lie_closure",
    "check_larc",
    "check_larc0",
    "check_plarc",
    "inclusion_chain_audit",
]


@dataclass(frozen=True)
class LieBasis:
    """Orthonormal (Frobenius) spanning set of a computed matrix Lie algebra."""

    dim: int
    basis: tuple
    all_traceless: bool
    depth_reached: int


class _OrthoBasis:
    """Orthonormal rows spanning a growing subspace of R^n.

    The rows live in a preallocated (n, n) array.  A candidate is projected
    off them by classical Gram-Schmidt applied twice, two matrix-vector
    products a pass, which is as orthogonal as the modified process (Giraud,
    Langou & Rozloznik, 2005).  It joins when its residual exceeds
    ``DEFAULT_RANK_TOL * (1 + |candidate|)``.
    """

    def __init__(self, n: int):
        self.q = np.zeros((n, n))
        self.k = 0

    @property
    def rows(self) -> np.ndarray:
        return self.q[:self.k]

    def insert(self, v) -> bool:
        if self.k == len(self.q):
            return False
        v = np.array(v, dtype=float).ravel()
        scale = np.linalg.norm(v)
        q = self.rows
        for _ in range(2):  # twice is enough
            v -= q.T @ (q @ v)
        res = np.linalg.norm(v)
        if res <= DEFAULT_RANK_TOL * (1.0 + scale):
            return False
        self.q[self.k] = v / res
        self.k += 1
        return True

    def copy(self, start: int = 0) -> _OrthoBasis:
        """A new basis holding the rows from ``start`` on."""
        out = _OrthoBasis(len(self.q))
        out.k = self.k - start
        out.q[:out.k] = self.q[start:self.k]
        return out


def _unit_generators(gens) -> list[np.ndarray]:
    """The generators scaled to unit Frobenius norm; numerically zero ones dropped."""
    return [g / n for g in gens if (n := fronorm(g)) > DEFAULT_RANK_TOL]


def lie_closure(generators) -> LieBasis:
    """Smallest matrix Lie algebra containing the generators.

    It is D + span(generators), with D grown by ``_derived_algebra`` as the
    rank certificates grow it, so the two agree by construction.
    ``depth_reached`` counts the breadth-first rounds of bracketing that a
    closure grown from span(generators) runs: up to the first bracket length
    n whose brackets add nothing to D_n + span(generators) (D_n the
    brackets of length 2..n), or one less when the closure is all of gl(d);
    0 when every generator is zero.  Deterministic for a fixed input order.
    """
    gens = [require_square(g, f"generators[{i}]") for i, g in enumerate(generators)]
    if not gens:
        raise ValueError("need at least one generator")
    d = gens[0].shape[0]
    for i, g in enumerate(gens):
        if g.shape != (d, d):
            raise ValueError(f"generators[{i}] has shape {g.shape}, expected {(d, d)}")
    derived, ends = _derived_algebra(gens)
    basis = _plus_span(derived, gens, False)
    # replay D's levels (length n runs to row ends[n - 2]) on span(generators)
    probe, length = _plus_span(_OrthoBasis(d * d), gens, True), 1
    for n, (start, stop) in enumerate(zip([1] + ends, ends), 2):
        if sum(probe.insert(r) for r in derived.q[start:stop]):
            length = n
    mats = tuple(basis.rows.reshape(-1, d, d).copy())
    traceless = all(abs(np.trace(m)) <= 1e-9 * (1.0 + fronorm(m)) for m in mats)
    return LieBasis(dim=len(mats), basis=mats, all_traceless=traceless,
                    depth_reached=length - (len(mats) == d * d) if mats else 0)


def _traceless(m: np.ndarray) -> np.ndarray:
    d = m.shape[0]
    return m - (np.trace(m) / d) * np.eye(d)


def _derived_algebra(gens) -> tuple[_OrthoBasis, list[int]]:
    """D, the span of the brackets of length >= 2 of ``gens``, and the row
    count after the brackets of each length.

    Row 0 is vec(I)/sqrt(d), so every row after it is orthogonal to the
    identity: D lies in sl(d), and rounding cannot leak out of it.  D is
    seeded with the brackets [x_i, x_j], i < j, of the unit traceless parts
    x_i of the generators, and grows breadth-first: each round brackets the
    rows found in the previous round against the x_i, until a round finds
    nothing or the basis is full.
    """
    d = gens[0].shape[0]
    basis = _OrthoBasis(d * d)
    basis.insert(np.eye(d) / np.sqrt(d))
    unit = _unit_generators([_traceless(g) for g in gens])
    for i, x in enumerate(unit):
        for y in unit[i + 1:]:
            basis.insert(x @ y - y @ x)
    found, ends = 1, [basis.k]
    while found < basis.k < len(basis.q):
        frontier = basis.q[found:basis.k].reshape(-1, d, d)
        found = basis.k
        cands = np.stack([frontier @ g - g @ frontier for g in unit], axis=1)
        for c in cands.reshape(-1, d * d):
            basis.insert(c)
        ends.append(basis.k)
    return basis, ends


def _plus_span(derived: _OrthoBasis, gens, keep_identity: bool) -> _OrthoBasis:
    """D + span(gens), behind the identity row when ``keep_identity``."""
    basis = derived.copy(start=0 if keep_identity else 1)
    for g in _unit_generators(gens):
        basis.insert(g)
    return basis


def _closure_of(A, B, K, derived: _OrthoBasis | None) -> tuple:
    """``(a, BK, D)`` of a triple: the checked loop matrix, the loop gain
    and ``derived``, or the D of ``(a, BK)`` when that is None."""
    a, b, k = closed_loop(A, B, K)
    f = b @ k
    return a, f, _derived_algebra([a, f])[0] if derived is None else derived


@dataclass(frozen=True)
class RankCertificate:
    """Outcome of one of the three rank checks."""

    kind: str  # "LARC" | "LARC0" | "PLARC"
    verdict: bool
    dim: int
    failing_samples: tuple = ()
    n_samples: int = 0  # PLARC's sampled directions; 0 when the closure decides
    tol: ClassVar[float] = DEFAULT_RANK_TOL  # the rank cutoff of every certificate

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "verdict": bool(self.verdict),
            "dim": int(self.dim),
            "failing_samples": [[float(x) for x in q] for q in self.failing_samples],
            "tol": float(self.tol),
        }


def check_larc(A, B, K, *, derived: _OrthoBasis | None = None) -> RankCertificate:
    """Does Lie(A, BK) = D + span{A, BK} span all of the d x d matrices?

    ``derived`` is the D of ``(A, BK)`` when the caller has it already
    (``inclusion_chain_audit`` shares one among the three certificates).
    """
    a, f, derived = _closure_of(A, B, K, derived)
    dim = _plus_span(derived, [a, f], False).k
    return RankCertificate("LARC", dim == a.size, dim)


def check_larc0(A, B, K, *, derived: _OrthoBasis | None = None) -> RankCertificate:
    """Do the traceless parts A0, F0 of A and BK generate sl(d)?

    The dimension is that of D + span{A0, F0}, orthogonal to the identity
    and so at most d*d - 1.  ``derived`` as in ``check_larc``.
    """
    a, f, derived = _closure_of(A, B, K, derived)
    dim = _plus_span(derived, [_traceless(a), _traceless(f)], True).k - 1
    return RankCertificate("LARC0", dim == a.size - 1, dim)


def _real_eig_directions(M) -> list[np.ndarray]:
    """Real and imaginary parts of eigenvectors, canonicalised to unit reps."""
    w, v = np.linalg.eig(M)
    out = []
    for j in range(w.size):
        for part in (v[:, j].real, v[:, j].imag):
            u = canonical_unit(part)
            if u is not None:
                out.append(u)
    return out


def _quasi_uniform_directions(d: int, n: int, seed: int) -> list[np.ndarray]:
    if d == 3:
        golden = np.pi * (3.0 - np.sqrt(5.0))
        pts = []
        for i in range(n):
            z = 1.0 - (2.0 * i + 1.0) / n
            r = np.sqrt(max(0.0, 1.0 - z * z))
            phi = golden * i
            u = canonical_unit(np.array([r * np.cos(phi), r * np.sin(phi), z]))
            if u is not None:
                pts.append(u)
        return pts
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(n):
        u = canonical_unit(rng.standard_normal(d))
        if u is not None:
            pts.append(u)
    return pts


def check_plarc(A, B, K, seed: int = 0, *,
                derived: _OrthoBasis | None = None) -> RankCertificate:
    """Certificate for the projected rank condition.

    When the closure D + span{A, BK} contains sl(d) (D is all of sl(d), or
    the closure is all of gl(d)), the verdict is true, with no samples
    (``n_samples`` is 0).  For orthonormal rows E_k of such a closure and a
    unit x, sum_k (P E_k x)(P E_k x)' = P with P = I - xx', so the tangent
    stack below has d - 1 singular values equal to 1 at every direction.

    Otherwise, at each sampled direction x the vectors ``Mx - (x'Mx)x`` over
    the closure basis must span the full tangent space (rank d-1).  The
    sample set mixes ``max(2d, 64)`` quasi-uniform directions with the
    eigendirections of A, A + BK, and of a few random elements of the
    closure itself: rank deficiency lives on invariant subspaces, and
    eigendirections of algebra elements land inside them even when the
    uniform samples miss.  At d = 2 the uniform samples are left out: rank 1
    fails only at a common eigendirection of the whole algebra, which is an
    eigendirection of A, or of A + BK when A is scalar.  The closure basis
    is that of D + span{A, BK}; ``derived`` as in ``check_larc``.  ``seed``
    is a non-negative integer, whether or not the closure samples.
    """
    seed = _integer_arg(seed, "seed", 0)
    a, f, derived = _closure_of(A, B, K, derived)
    d = a.shape[0]
    basis = _plus_span(derived, [a, f], False)
    if basis.k == 0:
        return RankCertificate("PLARC", False, 0)
    if derived.k == d * d or basis.k == d * d:  # the closure contains sl(d)
        return RankCertificate("PLARC", True, basis.k)
    L = basis.rows.reshape(-1, d, d)

    pts = _quasi_uniform_directions(d, max(2 * d, 64), seed) if d != 2 else []
    pts.extend(_real_eig_directions(a))
    pts.extend(_real_eig_directions(a + f))
    rng = np.random.default_rng(seed + 1)
    for _ in range(3):
        coeffs = rng.standard_normal(basis.k)
        pts.extend(_real_eig_directions(np.tensordot(coeffs, L, axes=1)))

    seen = set()
    unique = []
    for x in pts:
        key = tuple(np.round(x, 12))
        if key not in seen:
            seen.add(key)
            unique.append(x)
    X = np.array(unique)
    tang = np.einsum("kij,nj->nki", L, X)  # (sample, basis element, coordinate)
    radial = np.einsum("nki,ni->nk", tang, X)
    for i in range(d):  # in place, one coordinate at a time: no second stack
        tang[:, :, i] -= radial * X[:, i:i + 1]
    sv = np.linalg.svd(tang, compute_uv=False)
    # absolute floor: basis matrices are unit Frobenius norm, so a
    # numerically-zero tangent stack must not count as rank >= 1
    rank = np.count_nonzero(sv > DEFAULT_RANK_TOL * np.maximum(1.0, sv[:, :1]), axis=1)
    failing = tuple(X[rank < d - 1])
    return RankCertificate("PLARC", not failing, basis.k, failing_samples=failing,
                           n_samples=len(unique))


@dataclass(frozen=True)
class ChainAudit:
    """Joint evaluation of the three certificates and their implication chain."""

    shift: float
    larc_shifted: RankCertificate
    larc0: RankCertificate
    plarc: RankCertificate
    violations: tuple


def inclusion_chain_audit(A, B, K, shift: float = 0.0, seed: int = 0) -> ChainAudit:
    """Check LARC(A + shift*I, B) => LARC0(A, B) => PLARC(A, B) on one triple.

    The derived algebra D is computed once and shared by the three
    certificates.  When LARC0 holds, D is sl(d) (sl(d) is its own derived
    algebra), so the closure decides PLARC without samples (``check_plarc``).
    Violations are reported, not raised; an empty list means the implication
    chain held at certificate level.
    """
    if not np.isfinite(shift):
        raise ValueError(f"shift must be finite, got {shift!r}")
    seed = _integer_arg(seed, "seed", 0)
    a, _, derived = _closure_of(A, B, K, None)
    larc = check_larc(a + shift * np.eye(a.shape[0]), B, K, derived=derived)
    larc0 = check_larc0(a, B, K, derived=derived)
    plarc = check_plarc(a, B, K, seed=seed, derived=derived)
    violations = []
    if larc.verdict and not larc0.verdict:
        violations.append("LARC holds but LARC0 fails")
    if larc0.verdict and not plarc.verdict:
        violations.append("LARC0 holds but PLARC fails")
    return ChainAudit(shift=float(shift), larc_shifted=larc, larc0=larc0,
                      plarc=plarc, violations=tuple(violations))
