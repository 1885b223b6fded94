"""Membership and characteristic-polynomial tests for spin(9,1).

spin(9,1) is realised as the 10 x 10 matrices M with
``M' G + G M = 0`` for the Lorentz form G = diag(I_9, -1).  Its elements
are bordered skew matrices and their spectra are symmetric about the
origin, so the characteristic polynomial is even.  These spectral facts are
what the rank-certificate density argument needs; ``spin-audit`` checks them
numerically on seeded draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import opnorm, require_square

__all__ = [
    "LORENTZ_DIM",
    "lorentz_form",
    "membership_residual",
    "is_spin91",
    "random_spin91",
    "charpoly_even_decomp",
    "CharPolyDecomposition",
]

LORENTZ_DIM = 10


def lorentz_form() -> np.ndarray:
    """diag(I_9, -1)."""
    g = np.eye(LORENTZ_DIM)
    g[-1, -1] = -1.0
    return g


def _require_lorentz(M) -> np.ndarray:
    m = require_square(M, "M")
    if m.shape != (LORENTZ_DIM, LORENTZ_DIM):
        raise ValueError(f"expected a {LORENTZ_DIM} x {LORENTZ_DIM} matrix, got {m.shape}")
    return m


def membership_residual(M) -> float:
    """Relative membership residual ||M' G + G M|| / (1 + ||M||)."""
    m = _require_lorentz(M)
    g = lorentz_form()
    return opnorm(m.T @ g + g @ m) / (1.0 + opnorm(m))


def is_spin91(M) -> bool:
    """Membership test: membership_residual(M) <= 1e-10."""
    return membership_residual(M) <= 1e-10


def random_spin91(seed: int) -> np.ndarray:
    """Seeded draw of a spin(9,1) element in bordered skew form.

    Returns ``[[A1, v1], [v1', 0]]`` with A1 a random 9 x 9 skew matrix and
    v1 a random 9-vector; every draw passes the membership test.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((LORENTZ_DIM - 1, LORENTZ_DIM - 1))
    a1 = 0.5 * (g - g.T)
    v1 = rng.standard_normal(LORENTZ_DIM - 1)
    m = np.zeros((LORENTZ_DIM, LORENTZ_DIM))
    m[:-1, :-1] = a1
    m[:-1, -1] = v1
    m[-1, :-1] = v1
    return m


@dataclass(frozen=True)
class CharPolyDecomposition:
    """Even-part coefficients of the characteristic polynomial.

    For a spin(9,1) element, P(X) = Q(X^2) with Q monic of degree five;
    ``q_coeffs`` lists Q's coefficients from the leading one down and
    ``odd_residual`` is the largest leftover odd coefficient.
    """

    q_coeffs: tuple
    odd_residual: float


def charpoly_even_decomp(M) -> CharPolyDecomposition:
    """Split the characteristic polynomial into even and odd parts.

    Coefficients come from expanding the product over numerically computed
    eigenvalues, which stays stable for balanced matrices of this size.
    Membership is checked first.
    """
    m = _require_lorentz(M)
    if not is_spin91(m):
        raise ValueError("matrix fails the spin(9,1) membership test")
    coeffs = np.real(np.poly(np.linalg.eigvals(m)))  # X^10 ... constant
    even = coeffs[0::2]
    odd = coeffs[1::2]
    return CharPolyDecomposition(q_coeffs=tuple(float(c) for c in even),
                                 odd_residual=float(np.max(np.abs(odd))))

