"""Dense real-matrix primitives: norms, the numerical rank rule and its
singular-value kernel, and the shape check of a closed loop.

Everything operates on plain float64 ``numpy`` arrays.  The vector norm is
Euclidean throughout and the matrix norm is the induced spectral norm; all
rate and certificate computations elsewhere in the package inherit this
choice.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "DEFAULT_RANK_TOL",
    "as_matrix",
    "require_square",
    "opnorm",
    "fronorm",
    "closed_loop",
    "numerical_rank",
    "singular_values",
    "multiset_residual",
    "nilpotent_shift",
    "parity_matrix",
    "unit_vector",
    "canonical_unit",
    "matrix_from_json",
]

# Relative SVD cutoff; matches the double-precision noise floor for d <= 10.
DEFAULT_RANK_TOL = 1e-9


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite float64 2-D array (1-D input becomes a row)."""
    m = np.atleast_2d(np.asarray(a, dtype=float))
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got {m.ndim}-D")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def require_square(a, name: str = "matrix") -> np.ndarray:
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def opnorm(M) -> float:
    """Spectral operator norm (largest singular value)."""
    return float(np.linalg.norm(as_matrix(M), 2))


def fronorm(M) -> float:
    """Frobenius norm.  numpy squares the entries before it sums them, which
    overflows past about 1e154; only in that case is the matrix divided by
    its largest entry first, so every norm within range keeps numpy's bits."""
    m = as_matrix(M)
    with np.errstate(over="ignore"):
        n = np.linalg.norm(m)
    if not np.isfinite(n):
        peak = np.abs(m).max()
        n = peak * np.linalg.norm(m / peak)
    return float(n)


def closed_loop(A, B, K) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(A, B, K)`` of the closed loop ``A + alpha B K`` as finite float64
    arrays, checked to be d x d, d x m and m x d."""
    a = require_square(A, "A")
    b = as_matrix(B, "B")
    k = as_matrix(K, "K")
    if b.shape[0] != a.shape[0] or k.shape != (b.shape[1], a.shape[0]):
        raise ValueError(
            f"inconsistent shapes: A {a.shape}, B {b.shape}, K {k.shape}")
    return a, b, k


def numerical_rank(sv: np.ndarray, tol: float) -> int:
    """Number of singular values ``sv`` (a descending 1-D array) above
    ``tol * sv[0]``; 0 when ``sv`` is empty or ``sv[0] == 0``."""
    if len(sv) == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > tol * sv[0]))


def singular_values(x) -> np.ndarray:
    """Singular values of ``x``, descending, by numpy's SVD.

    Raises ``ValueError`` (the message of ``scipy.linalg.svdvals``) if an
    entry is non-finite: numpy's SVD would return NaN for an infinite entry,
    which a rank count reads as 0.
    """
    if not np.isfinite(x).all():
        raise ValueError("array must not contain infs or NaNs")
    return np.linalg.svd(x, compute_uv=False)


def multiset_residual(a, b) -> float:
    """Greedy nearest-pair matching distance between two complex multisets.

    Returns the largest ``|a_i - b_match(i)|`` over the greedy matching;
    robust to conjugate-pair ordering.  Requires equal lengths.
    """
    av = np.asarray(a, dtype=complex).ravel()
    bv = np.asarray(b, dtype=complex).ravel()
    if av.size != bv.size:
        raise ValueError("multisets must have equal size")
    order = np.lexsort((av.imag, av.real))
    used = np.zeros(bv.size, dtype=bool)
    worst = 0.0
    for i in order:
        dist = np.abs(bv - av[i])
        dist[used] = np.inf
        j = int(np.argmin(dist))
        used[j] = True
        worst = max(worst, float(dist[j]))
    return worst


def nilpotent_shift(d: int) -> np.ndarray:
    """The d x d upper shift: ones on the first superdiagonal."""
    return np.eye(d, k=1)


def parity_matrix(d: int) -> np.ndarray:
    """diag(1, -1, 1, ...) with alternating signs."""
    return np.diag([(-1.0) ** i for i in range(d)])


def unit_vector(d: int, i: int) -> np.ndarray:
    """Canonical basis vector e_i (0-based) of R^d."""
    v = np.zeros(d)
    v[i] = 1.0
    return v


def canonical_unit(v) -> np.ndarray | None:
    """Unit representative of the line through v, signed so that its first
    coordinate above 1e-12 is positive (antipodal identification); None when
    the norm of v is at most 1e-12."""
    tol = 1e-12
    v = np.asarray(v, dtype=float).ravel()
    n = np.linalg.norm(v)
    if n <= tol:
        return None
    u = v / n
    for x in u:
        if abs(x) > tol:
            return u if x > 0 else -u
    return u


def _integer_arg(value, name: str, least: int | None = None) -> int:
    """``value`` as an int: a Python or numpy integer, not a bool or a float
    (even a whole one), and no smaller than ``least``; else a ``ValueError`` naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"need {name} >= {least}, got {name}={int(value)}")
    return int(value)


def _json_number(value, whole: bool = False) -> bool:
    """Whether a parsed JSON value is a number that a config may give: an
    int or a float but not a bool, and either ``whole`` (an int, or a float
    with no fractional part) or finite, an int past the float range counting
    as infinite.  A string of digits is no number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if whole:
        return isinstance(value, int) or value.is_integer()
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def matrix_from_json(obj) -> np.ndarray:
    """The matrix of ``{"rows": d, "cols": m, "data": [row-major]}``: whole
    sizes and a flat list of finite numbers, by ``_json_number``."""
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: {obj!r}") from exc
    if not (_json_number(rows, whole=True) and _json_number(cols, whole=True)):
        raise ValueError(f"matrix rows and cols must be integers, got {rows!r} and {cols!r}")
    if not (isinstance(data, list) and all(map(_json_number, data))):
        raise ValueError("matrix data must be a flat list of finite numbers")
    rows, cols = int(rows), int(cols)
    if rows <= 0 or cols <= 0:
        raise ValueError("matrix dimensions must be positive")
    arr = np.asarray(data, dtype=float)
    if arr.size != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {arr.size}")
    return as_matrix(arr.reshape(rows, cols))
