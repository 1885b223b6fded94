"""Matrix Lie algebra closures and the rank certificates LARC, LARC0, PLARC.

LARC holds when Lie(A, BK) spans all d x d matrices; LARC0 when the
traceless parts of A and BK generate sl(d); PLARC when the fields induced on
real projective space span the full tangent space at every point.  PLARC is
certified numerically at a finite sample of directions, so a true verdict is
evidence at the sampled points rather than a proof (the sample count is part
of the certificate).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .matcore import (DEFAULT_RANK_TOL, as_matrix, canonical_unit, fronorm,
                      require_square)

__all__ = [
    "LieBasis",
    "LieClosureError",
    "RankCertificate",
    "ChainAudit",
    "bracket",
    "lie_closure",
    "check_larc",
    "check_larc0",
    "check_plarc",
    "check_irreducible",
    "inclusion_chain_audit",
]


@dataclass(frozen=True)
class LieBasis:
    """Orthonormal (Frobenius) spanning set of a computed matrix Lie algebra."""

    dim: int
    basis: tuple
    all_traceless: bool
    depth_reached: int

    @property
    def matrix_dim(self) -> int:
        return self.basis[0].shape[0] if self.basis else 0

    def stacked(self) -> np.ndarray:
        """Basis as a (dim, d, d) array; empty (0, 0, 0) for the zero algebra."""
        if not self.basis:
            return np.zeros((0, 0, 0))
        return np.stack(self.basis)


class LieClosureError(RuntimeError):
    """Closure did not stabilise within the depth budget."""

    def __init__(self, message: str, partial: LieBasis):
        super().__init__(message)
        self.partial = partial


def bracket(M, N) -> np.ndarray:
    """Commutator MN - NM."""
    m = require_square(M, "M")
    n = require_square(N, "N")
    if m.shape != n.shape:
        raise ValueError(f"shape mismatch: {m.shape} vs {n.shape}")
    return m @ n - n @ m


class _FrobeniusBasis:
    """Incrementally orthonormalised family of vectorised matrices."""

    def __init__(self, d: int, tol: float):
        self.d = d
        self.tol = tol
        self.rows: list[np.ndarray] = []

    def insert(self, mat: np.ndarray) -> bool:
        v = mat.ravel().astype(float)
        scale = np.linalg.norm(v)
        if scale <= self.tol:
            return False
        for _ in range(2):  # twice-is-enough reorthogonalisation
            for r in self.rows:
                v = v - (r @ v) * r
        res = np.linalg.norm(v)
        if res <= self.tol * (1.0 + scale):
            return False
        self.rows.append(v / res)
        return True

    def matrices(self) -> list[np.ndarray]:
        return [r.reshape(self.d, self.d) for r in self.rows]


def lie_closure(generators, tol: float = DEFAULT_RANK_TOL,
                max_depth: int | None = None) -> LieBasis:
    """Smallest matrix Lie algebra containing the generators.

    Breadth-first: each round brackets the newly found basis elements
    against the generators only, then re-orthonormalises.  Stops when the
    dimension stabilises or reaches d*d.  Deterministic for a fixed input
    order.

    Raises ``LieClosureError`` (carrying the partial basis) if the depth
    budget is exhausted while the dimension is still growing.
    """
    gens = [require_square(g, f"generators[{i}]") for i, g in enumerate(generators)]
    if not gens:
        raise ValueError("need at least one generator")
    d = gens[0].shape[0]
    for i, g in enumerate(gens):
        if g.shape != (d, d):
            raise ValueError(f"generators[{i}] has shape {g.shape}, expected {(d, d)}")
    if max_depth is None:
        max_depth = d * d
    full = d * d

    basis = _FrobeniusBasis(d, tol)
    frontier: list[np.ndarray] = []
    scaled_gens = []
    for g in gens:
        ng = fronorm(g)
        if ng > tol:
            scaled_gens.append(g / ng)
    for g in scaled_gens:
        if basis.insert(g):
            frontier.append(basis.rows[-1].reshape(d, d))

    depth = 0
    while frontier and len(basis.rows) < full:
        if depth >= max_depth:
            partial = _finish(basis, depth, tol)
            raise LieClosureError(
                f"closure still growing at depth {depth} (dim {partial.dim})", partial)
        new: list[np.ndarray] = []
        for x in frontier:
            for g in scaled_gens:
                cand = x @ g - g @ x
                if basis.insert(cand):
                    new.append(basis.rows[-1].reshape(d, d))
        frontier = new
        depth += 1
    return _finish(basis, depth, tol)


def _finish(basis: _FrobeniusBasis, depth: int, tol: float) -> LieBasis:
    mats = tuple(basis.matrices())
    traceless = all(abs(np.trace(m)) <= 1e-9 * (1.0 + fronorm(m)) for m in mats)
    return LieBasis(dim=len(mats), basis=mats, all_traceless=traceless,
                    depth_reached=depth)


@dataclass(frozen=True)
class RankCertificate:
    """Outcome of one of the three rank checks."""

    kind: str  # "LARC" | "LARC0" | "PLARC"
    verdict: bool
    dim: int
    failing_samples: tuple = ()
    tol: float = DEFAULT_RANK_TOL
    n_samples: int = 0

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "verdict": bool(self.verdict),
            "dim": int(self.dim),
            "failing_samples": [[float(x) for x in q] for q in self.failing_samples],
            "tol": float(self.tol),
        }


def _closed_loop(A, B, K):
    a = require_square(A, "A")
    b = as_matrix(B, "B")
    k = as_matrix(K, "K")
    d = a.shape[0]
    if b.shape[0] != d:
        raise ValueError(f"B must have {d} rows, got {b.shape}")
    if k.shape != (b.shape[1], d):
        raise ValueError(f"K must have shape {(b.shape[1], d)}, got {k.shape}")
    return a, b @ k


def check_larc(A, B, K, tol: float = DEFAULT_RANK_TOL) -> RankCertificate:
    """Does Lie(A, BK) span all of the d x d matrices?"""
    a, f = _closed_loop(A, B, K)
    d = a.shape[0]
    basis = lie_closure([a, f], tol=tol)
    return RankCertificate("LARC", basis.dim == d * d, basis.dim, tol=tol)


def check_larc0(A, B, K, tol: float = DEFAULT_RANK_TOL) -> RankCertificate:
    """Do the traceless parts of A and BK generate sl(d)?"""
    a, f = _closed_loop(A, B, K)
    d = a.shape[0]
    a0 = a - (np.trace(a) / d) * np.eye(d)
    f0 = f - (np.trace(f) / d) * np.eye(d)
    basis = lie_closure([a0, f0], tol=tol)
    verdict = basis.dim == d * d - 1 and basis.all_traceless
    return RankCertificate("LARC0", verdict, basis.dim, tol=tol)


def _real_eig_directions(M, tol=1e-9) -> list[np.ndarray]:
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
    if d == 2:
        thetas = (np.arange(n) + 0.5) * np.pi / n
        return [np.array([np.cos(t), np.sin(t)]) for t in thetas]
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


def check_plarc(A, B, K, samples: int | None = None, seed: int = 0,
                tol: float = DEFAULT_RANK_TOL) -> RankCertificate:
    """Sampled certificate for the projected rank condition.

    At each sampled direction x the vectors ``Mx - (x'Mx)x`` over the closure
    basis must span the full tangent space (rank d-1).  The sample set mixes
    quasi-uniform directions with the eigendirections of A, A + BK, and of a
    few random elements of the closure itself: rank deficiency lives on
    invariant subspaces, and eigendirections of algebra elements land inside
    them even when the uniform samples miss.
    """
    a, f = _closed_loop(A, B, K)
    d = a.shape[0]
    if samples is None:
        samples = max(2 * d, 64)
    if samples < 2 * d:
        raise ValueError(f"need at least {2 * d} samples for d={d}")
    basis = lie_closure([a, f], tol=tol)
    if basis.dim == 0:
        return RankCertificate("PLARC", False, 0, tol=tol, n_samples=0)
    L = basis.stacked()

    pts = _quasi_uniform_directions(d, samples, seed)
    pts.extend(_real_eig_directions(a))
    pts.extend(_real_eig_directions(a + f))
    rng = np.random.default_rng(seed + 1)
    for _ in range(3):
        coeffs = rng.standard_normal(basis.dim)
        pts.extend(_real_eig_directions(np.tensordot(coeffs, L, axes=1)))

    seen = set()
    failing = []
    n_used = 0
    for x in pts:
        key = tuple(np.round(x, 12))
        if key in seen:
            continue
        seen.add(key)
        n_used += 1
        lx = L @ x
        radial = lx @ x
        tang = lx - np.outer(radial, x)
        sv = scipy.linalg.svdvals(tang)
        smax = sv[0] if sv.size else 0.0
        # absolute floor: basis matrices are unit Frobenius norm, so a
        # numerically-zero tangent stack must not count as rank >= 1
        rank = int(np.count_nonzero(sv > tol * max(1.0, smax)))
        if rank < d - 1:
            failing.append(x.copy())
    verdict = not failing
    return RankCertificate("PLARC", verdict, basis.dim,
                           failing_samples=tuple(failing), tol=tol,
                           n_samples=n_used)


def check_irreducible(L: LieBasis, trials: int | None = None, seed: int = 0,
                      tol: float = DEFAULT_RANK_TOL) -> bool:
    """Does the algebra act without a proper invariant subspace?

    Grows the smallest invariant subspace containing each seed vector by
    Krylov iteration; any seed that stalls below dimension d exhibits a
    proper invariant subspace.  Seeds combine random directions with the
    eigendirections of basis elements and of random combinations, since
    invariant subspaces are spanned by eigenvector components.
    """
    if L.dim == 0:
        return False
    d = L.matrix_dim
    if trials is None:
        trials = max(d, 8)
    if trials < d:
        raise ValueError(f"need at least d={d} trials")
    rng = np.random.default_rng(seed)
    seeds: list[np.ndarray] = []
    for _ in range(trials):
        u = canonical_unit(rng.standard_normal(d))
        if u is not None:
            seeds.append(u)
    stacked = L.stacked()
    for m in L.basis:
        seeds.extend(_real_eig_directions(m))
    for _ in range(2):
        coeffs = rng.standard_normal(L.dim)
        seeds.extend(_real_eig_directions(np.tensordot(coeffs, stacked, axes=1)))

    for v in seeds:
        if _invariant_subspace_dim(L, v, tol) < d:
            return False
    return True


def _invariant_subspace_dim(L: LieBasis, v: np.ndarray, tol: float) -> int:
    d = L.matrix_dim
    rows = [v / np.linalg.norm(v)]
    grew = True
    while grew and len(rows) < d:
        grew = False
        for m in L.basis:
            for w in list(rows):
                u = m @ w
                for _ in range(2):
                    for r in rows:
                        u = u - (r @ u) * r
                nu = np.linalg.norm(u)
                if nu > tol * (1.0 + np.linalg.norm(m @ w)):
                    rows.append(u / nu)
                    grew = True
                    if len(rows) == d:
                        return d
    return len(rows)


@dataclass(frozen=True)
class ChainAudit:
    """Joint evaluation of the three certificates and their implication chain."""

    shift: float
    larc_shifted: RankCertificate
    larc0: RankCertificate
    plarc: RankCertificate
    violations: tuple = field(default=())

    @property
    def ok(self) -> bool:
        return not self.violations


def inclusion_chain_audit(A, B, K, shift: float = 0.0, samples: int | None = None,
                          seed: int = 0, tol: float = DEFAULT_RANK_TOL) -> ChainAudit:
    """Check LARC(A + shift*I, B) => LARC0(A, B) => PLARC(A, B) on one triple.

    Violations are reported, not raised; an empty list means the implication
    chain held at certificate level.
    """
    a = require_square(A, "A")
    d = a.shape[0]
    larc = check_larc(a + shift * np.eye(d), B, K, tol=tol)
    larc0 = check_larc0(a, B, K, tol=tol)
    plarc = check_plarc(a, B, K, samples=samples, seed=seed, tol=tol)
    violations = []
    if larc.verdict and not larc0.verdict:
        violations.append("LARC holds but LARC0 fails")
    if larc0.verdict and not plarc.verdict:
        violations.append("LARC0 holds but PLARC fails")
    return ChainAudit(shift=float(shift), larc_shifted=larc, larc0=larc0,
                      plarc=plarc, violations=tuple(violations))
