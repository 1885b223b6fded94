"""Reference implementations that the tests compare the package against,
and the writer of the config matrix format.

They are not part of ``pegrowth``: no subcommand, gate or workload needs
them.  Each reads the package's kernels through their module, so a test
that patches a kernel sees the oracle's calls too.
"""

import numpy as np

from pegrowth import matcore


def span_rank(family, tol: float = matcore.DEFAULT_RANK_TOL) -> int:
    """Dimension of the linear span of a family of same-shaped matrices.

    Each matrix is vectorised; the rank is the number of singular values of
    the stacked family exceeding ``tol`` times the largest one.
    """
    mats = [matcore.as_matrix(m, f"family[{i}]") for i, m in enumerate(family)]
    if not mats:
        return 0
    shape = mats[0].shape
    for i, m in enumerate(mats):
        if m.shape != shape:
            raise ValueError(f"family[{i}] has shape {m.shape}, expected {shape}")
    return matcore.numerical_rank(
        matcore.singular_values(np.vstack([m.ravel() for m in mats])), tol)


def bracket(M, N) -> np.ndarray:
    """Commutator MN - NM of two square matrices of one shape."""
    m = matcore.require_square(M, "M")
    n = matcore.require_square(N, "N")
    if m.shape != n.shape:
        raise ValueError(f"shape mismatch: {m.shape} vs {n.shape}")
    return m @ n - n @ m


def matrix_to_json(M) -> dict:
    """The config encoding ``{"rows": d, "cols": m, "data": [row-major]}``
    of a matrix, which ``matcore.matrix_from_json`` reads."""
    m = matcore.as_matrix(M)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": [float(x) for x in m.ravel()]}
