"""Reference implementations that the tests compare the package against.

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
