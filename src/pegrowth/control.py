"""Controllability machinery: Kalman rank, the single-input companion form,
and the per-gain accessibility certificates built on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import (DEFAULT_RANK_TOL, as_matrix, nilpotent_shift,
                      numerical_rank, opnorm, require_square, singular_values,
                      unit_vector)

__all__ = [
    "MatrixPair",
    "NotControllableError",
    "ControllabilityForm",
    "AccCertificate",
    "CoefficientBoundReport",
    "controllability_matrix",
    "kalman_rank",
    "controllable_form_si",
    "accessibility_certificate",
    "companion_coefficient_bounds",
    "companion_gain",
]


@dataclass(frozen=True)
class MatrixPair:
    """A system pair (A, B) with A d x d, B d x m, d >= 2, m >= 1."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        a = require_square(self.A, "A")
        b = as_matrix(self.B, "B")
        if a.shape[0] < 2:
            raise ValueError("state dimension must be at least 2")
        if b.shape[0] != a.shape[0]:
            raise ValueError(f"B must have {a.shape[0]} rows, got {b.shape}")
        if b.shape[1] < 1:
            raise ValueError("input dimension must be at least 1")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)

    @property
    def d(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


class NotControllableError(ValueError):
    """Raised where controllability is required; carries the Kalman rank."""

    def __init__(self, rank: int, d: int):
        super().__init__(f"pair is not controllable (Kalman rank {rank} < {d})")
        self.rank = rank
        self.d = d


def controllability_matrix(A, B) -> np.ndarray:
    """[B, AB, ..., A^(d-1)B]."""
    a = require_square(A, "A")
    b = as_matrix(B, "B")
    blocks = [b]
    for _ in range(a.shape[0] - 1):
        blocks.append(a @ blocks[-1])
    return np.hstack(blocks)


def kalman_rank(A, B) -> int:
    """Rank of the controllability matrix: the pair is controllable when it is d."""
    return numerical_rank(singular_values(controllability_matrix(A, B)), DEFAULT_RANK_TOL)


def _input_column(b, d: int) -> np.ndarray:
    """A single input ``b`` (a d-vector, row or column) as a d x 1 column."""
    bb = as_matrix(b, "b")
    if bb.shape == (1, d):
        bb = bb.T
    if bb.shape != (d, 1):
        raise ValueError(f"b must be a {d}-vector, got shape {bb.shape}")
    return bb


def _companion_row(a, b) -> np.ndarray:
    """The row q with ``q C = e_d'``, C the controllability matrix of the
    single-input pair ``(a, b)``; rejects a pair whose Kalman rank is below d."""
    d = a.shape[0]
    rank = kalman_rank(a, b)
    if rank < d:
        raise NotControllableError(rank, d)
    return np.linalg.solve(controllability_matrix(a, b).T, unit_vector(d, d - 1))


@dataclass(frozen=True)
class ControllabilityForm:
    """Companion form data for a single-input pair.

    ``P`` maps the trace-shifted matrix to ``J + e_d v`` (J the upper shift)
    with ``P @ b = e_d``; the last entry of v equals the trace of the shifted
    matrix, so it vanishes exactly when the shift removes the whole trace.
    """

    v: np.ndarray
    P: np.ndarray


def controllable_form_si(A, b, trace_divisor: float = 1.0) -> ControllabilityForm:
    """Companion (controllability) form of ``A - (tr A / trace_divisor) I``.

    With ``trace_divisor=d`` the shifted matrix is traceless and the
    companion row v satisfies ``v @ e_d = 0``; the default divisor 1 shifts
    by the full trace.  Rejects non-controllable input with the Kalman rank
    in the diagnostic.
    """
    if trace_divisor == 0.0:
        raise ValueError("trace_divisor must be nonzero")
    a = require_square(A, "A")
    d = a.shape[0]
    bb = _input_column(b, d)
    m = a - (np.trace(a) / trace_divisor) * np.eye(d)
    rows = [_companion_row(m, bb)]
    for _ in range(d - 1):
        rows.append(rows[-1] @ m)
    p = np.vstack(rows)
    v = (p @ m @ np.linalg.inv(p))[d - 1, :]
    return ControllabilityForm(v=v, P=p)


@dataclass(frozen=True)
class AccCertificate:
    """Accessibility certificate for a gain in companion coordinates.

    ``verdict`` is true when every Markov-type scalar r_j is safely nonzero
    and the iterated rows K_j are independent; the certified feedback for
    the original pair is ``K @ P``.
    """

    verdict: bool
    r: tuple
    K_seq: tuple
    v: np.ndarray
    P: np.ndarray

    def to_json(self) -> dict:
        return {
            "verdict": bool(self.verdict),
            "r": [float(x) for x in self.r],
            "K_seq": [[float(x) for x in row] for row in self.K_seq],
            "v": [float(x) for x in self.v],
        }


def accessibility_certificate(A, b, K, trace_divisor: float = 1.0) -> AccCertificate:
    """Check the sufficient accessibility conditions for a companion gain.

    Computes the companion row v of the (trace-shifted) pair, then
    ``K_j = K (J + e_d v)^j`` and ``r_j = K_j e_d`` for j < d.  A true
    verdict needs every ``|r_j|`` above the scale-aware floor
    ``DEFAULT_RANK_TOL (1 + |K| |J + e_d v|^j)`` and the K_j linearly
    independent; it certifies that ``K @ P`` puts the closed loop
    of the shifted pair at full Lie rank.
    """
    form = controllable_form_si(A, b, trace_divisor=trace_divisor)
    d = form.P.shape[0]
    k = as_matrix(K, "K").reshape(-1)
    if k.size != d:
        raise ValueError(f"K must have length {d}, got {k.size}")
    av = nilpotent_shift(d) + np.outer(unit_vector(d, d - 1), form.v)
    rows = [k.copy()]
    for _ in range(d - 1):
        rows.append(rows[-1] @ av)
    r_vals = tuple(float(row[-1]) for row in rows)
    norm_av = opnorm(av)
    norm_k = float(np.linalg.norm(k))
    nonzero = all(
        abs(r_vals[j]) > DEFAULT_RANK_TOL * (1.0 + norm_k * norm_av ** j) for j in range(d))
    independent = numerical_rank(singular_values(np.vstack(rows)), DEFAULT_RANK_TOL) == d
    return AccCertificate(verdict=nonzero and independent, r=r_vals,
                          K_seq=tuple(tuple(map(float, row)) for row in rows),
                          v=form.v, P=form.P)


@dataclass(frozen=True)
class CoefficientBoundReport:
    verdict: bool
    slacks: tuple
    c0: float


def companion_coefficient_bounds(K, eigenvalues=None) -> CoefficientBoundReport:
    """Coefficient lower bounds forced by a one-sign closed-loop spectrum.

    For the companion matrix ``J + e_d K`` whose eigenvalues all have real
    parts of one sign, each coefficient obeys
    ``|k_(d-m)| >= c0 |k_(d-m+1)| (d-m)/(m+1)`` with ``k_(d+1) = 1`` and
    ``c0`` the smallest absolute real part.  Returns the per-m slacks.

    ``eigenvalues`` may be supplied when the spectrum is known exactly
    (pole-placed gains with defective roots lose accuracy through the
    numerical eigensolver); supplied values are validated against the
    companion characteristic polynomial before use.

    Raises ``ValueError`` when real parts are mixed-sign or within 1e-9
    (relative to ``1 + max |eigenvalue|``) of zero; a slack of at least -1e-9
    counts as met.
    """
    tol = 1e-9
    k = as_matrix(K, "K").reshape(-1)
    d = k.size
    comp = nilpotent_shift(d) + np.outer(unit_vector(d, d - 1), k)
    if eigenvalues is None:
        ev = np.linalg.eigvals(comp)
    else:
        ev = np.asarray(eigenvalues, dtype=complex).ravel()
        if ev.size != d:
            raise ValueError(f"expected {d} eigenvalues, got {ev.size}")
        coeffs = np.real(np.poly(ev))
        implied_k = -coeffs[1:][::-1]
        if np.max(np.abs(implied_k - k)) > 1e-6 * (1.0 + np.max(np.abs(k))):
            raise ValueError("supplied eigenvalues do not match the companion row")
    scale = 1.0 + float(np.max(np.abs(ev)))
    re = ev.real
    if np.any(np.abs(re) <= tol * scale):
        raise ValueError("spectrum has (numerically) zero real parts")
    if not (np.all(re > 0) or np.all(re < 0)):
        raise ValueError("spectrum real parts are not of one sign")
    c0 = float(np.min(np.abs(re)))
    kext = np.concatenate([k, [1.0]])  # k_(d+1) := 1
    slacks = []
    for m in range(d):
        lhs = abs(kext[d - m - 1])
        rhs = c0 * abs(kext[d - m]) * (d - m) / (m + 1)
        slacks.append(float(lhs - rhs))
    verdict = all(s >= -tol for s in slacks)
    return CoefficientBoundReport(verdict=verdict, slacks=tuple(slacks), c0=c0)


def companion_gain(poles) -> np.ndarray:
    """Row K with sigma(J + e_d K) = poles, from the expanded polynomial."""
    coeffs = np.real(np.poly(np.asarray(poles, dtype=complex)))
    return -coeffs[1:][::-1]
