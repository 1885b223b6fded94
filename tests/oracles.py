"""Reference implementations that the tests compare the package against,
and the writer of the config matrix format.

They are not part of ``pegrowth``: no subcommand, gate or workload needs
them.  Each reads the package's kernels through their module, so a test
that patches a kernel sees the oracle's calls too.
"""

import numpy as np

from pegrowth import matcore, rates, signals


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


def per_candidate_family(cls, budget) -> list:
    """``rates.bang_bang_family`` as it was before its candidates were built
    as the rows of one array: the same draws and cell-sum screen, then each
    screened candidate built on its own (``signals._trusted``, or
    ``PESignal.from_segments`` for the constant 1 of a class with mu = T),
    checked exactly on its own when it lies near the threshold, and added
    while the family is short."""
    rng = np.random.default_rng(budget.seed)
    out = {}

    def push(sigs) -> None:
        for sig, valid in zip(sigs, signals._pe_valid(sigs, cls)):
            if valid:
                add(sig)

    def add(sig) -> None:
        out.setdefault(sig.encoding_key(), sig)

    if budget.include_constants:
        push([signals.PESignal.constant(1.0, period=cls.T),
              signals.PESignal.constant(cls.floor, period=cls.T)])
    grid = budget.time_grid
    step = cls.T / grid
    threshold = cls.mu - signals.EP_TOL
    halves = budget.max_switches // 2
    attempts = 0
    max_attempts = 80 * budget.size
    start = len(out)
    while len(out) < budget.size and attempts < max_attempts:
        want = budget.size - len(out)
        if attempts:
            want = -(-want * attempts // max(len(out) - start, 1))
        chunk = min(want, max_attempts - attempts)
        attempts += chunk
        draws = []
        for _ in range(chunk):
            mult = int(rng.integers(1, budget.n_periods + 1))
            k = 2 * int(rng.integers(1, halves + 1))
            if k >= grid * mult:
                continue
            cuts = rng.choice(grid * mult - 1, size=k - 1, replace=False) + 1
            low = 0.0 if rng.random() < 0.7 else cls.floor
            draws.append((mult, cuts, low, rng.random() < 0.5))
        if not draws:
            continue
        mult, cuts, low, first_high = zip(*draws)
        mult, low, first_high = np.array(mult), np.array(low), np.array(first_high)
        least, cells = rates._least_cell_sums(grid, mult, cuts, first_high)
        worst = (least + low * (grid - least)) * step
        band = rates._CELL_BAND * (mult + 1) * cls.T
        for d in np.flatnonzero(worst >= threshold - band):
            if len(out) >= budget.size:
                break
            bounds = np.concatenate([[0], np.sort(cuts[d]), [cells[d]]])
            is_high = np.arange(bounds.size - 1) % 2 != first_high[d]
            values = np.where(is_high, 1.0, low[d])
            durations = (bounds[1:] - bounds[:-1]) * step
            try:
                if low[d] < 1.0:
                    sig = signals._trusted(values.tolist(), durations.tolist(), mult[d] * cls.T)
                else:
                    sig = signals.PESignal.from_segments(
                        zip(values.tolist(), durations.tolist()), period=mult[d] * cls.T)
            except ValueError:
                continue
            if worst[d] <= threshold + band[d]:
                push([sig])
            else:
                add(sig)
    fill = 3
    while len(out) < budget.size:
        for v in np.linspace(cls.floor, 1.0, fill):
            push([signals.PESignal.constant(float(v), period=cls.T)])
            if len(out) >= budget.size:
                break
        fill += 2
        if cls.floor == 1.0:
            break
    return [out[key] for key in sorted(out)]
