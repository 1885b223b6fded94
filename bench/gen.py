"""Seeded inputs for the pegrowth benchmark.

    python3 bench/gen.py --workload triple_sweep --seed 3 --out DIR

Writes one JSON config per program input plus ``jobs.json``, the task list
that ``run.py`` executes.  The same ``(workload, seed)`` gives byte-identical
files; the program only ever sees these files (and, for steering, the
matrices and angle fractions they hold).

Draws are stratified so that every seed has the same mix of sizes and
scales: seeds change the matrices, not the shape of the workload.  That
keeps run-to-run spread small without choosing which inputs appear.
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

import numpy as np

CONFIG_DIR = Path(__file__).resolve().parent / "configs"
WORKLOADS = ("grid_duality", "triple_sweep", "planar_steer")

# grid_duality: every committed chain-pair config runs this many times per
# pass, each call with its own seed, so its own gain grid and 60-signal family.
GRID_CALLS_PER_CONFIG = 5

# triple_sweep: SWEEP_PER_DIM triples for every d, one at the centre of each
# of SWEEP_PER_DIM equal log-scale strata; the seed draws the matrices.
SWEEP_DIMS = tuple(range(2, 11))
SWEEP_PER_DIM = 8
SWEEP_SCALE = (0.3, 30.0)
SWEEP_MU = 0.4
SWEEP_FAMILY_SIZE = 32

# planar_steer: the c12 acceptance triple plus seeded rotations and small
# perturbations of it; every one satisfies PLARC and keeps c12's type
# (both checked below).  Targets
# are stratified over the central half of each invariant arc, and starts
# over the half-circle measured from the target, so every seed has the same
# mix of steering distances.
C12 = ([[1.0, 0.0], [0.0, -1.0]], [[1.0], [1.0]], [[-0.6, 0.2]])
PLANAR_TRIPLES = 3
PLANAR_QUERIES = 8
PLANAR_MU = 0.4
PLANAR_RESOLUTION = 4096


def matrix_json(m) -> dict:
    m = np.atleast_2d(np.asarray(m, dtype=float))
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]),
            "data": [float(x) for x in m.ravel()]}


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")


def _seeds(rng, n):
    return [int(x) for x in rng.integers(0, 2**31 - 1, size=n)]


def grid_duality(rng, out: Path) -> dict:
    tasks = []
    for path in sorted(CONFIG_DIR.glob("chain_*.json")):
        template = json.loads(path.read_text())
        count = int(template["K_grid"]["count"])
        for call, seed in enumerate(_seeds(rng, GRID_CALLS_PER_CONFIG)):
            name = f"{path.stem}_{call}.json"
            write_json(out / name, dict(template, seed=seed))
            tasks.append({"kind": "grid", "config": name, "units": count,
                          "label": f"{path.stem} call {call} seed {seed}"})
    return {"unit": "gains", "tasks": tasks}


def triple_sweep(rng, out: Path) -> dict:
    lo, hi = (math.log(x) for x in SWEEP_SCALE)
    tasks = []
    for d in SWEEP_DIMS:
        for j in range(SWEEP_PER_DIM):
            scale = math.exp(lo + (j + 0.5) / SWEEP_PER_DIM * (hi - lo))
            a = scale * rng.standard_normal((d, d)) / math.sqrt(d)
            b = rng.standard_normal((d, 1))
            k = scale * rng.standard_normal((1, d)) / math.sqrt(d)
            cfg = {"schema": "1",
                   "pair": {"A": matrix_json(a), "B": matrix_json(b)},
                   "K": matrix_json(k), "T": 1.0, "mu": SWEEP_MU,
                   "family": {"size": SWEEP_FAMILY_SIZE},
                   "seed": _seeds(rng, 1)[0]}
            name = f"triple_d{d:02d}_{j:02d}.json"
            write_json(out / name, cfg)
            tasks.append({"kind": "triple", "config": name, "units": 1,
                          "label": f"d={d} scale={scale:.3g}"})
    return {"unit": "triples", "tasks": tasks}


def _shares_real_eigendirection(a, bk, tol=1e-6) -> bool:
    """Exact d = 2 PLARC test: PLARC fails iff A and BK share a real
    eigendirection."""
    w, v = np.linalg.eig(a)
    for j in range(2):
        if abs(w[j].imag) > tol:
            continue
        x = np.real(v[:, j])
        y = bk @ x
        if abs(x[0] * y[1] - x[1] * y[0]) <= tol * (1.0 + np.linalg.norm(y)):
            return True
    return False


def _keeps_c12_type(a, bk, control_range) -> bool:
    """Whether A + alpha BK has real eigenvalues at both ends of the control
    range, as c12 has.  A perturbation that turns one end into a focus is
    another kind of system: its invariant control set is the whole
    half-circle and greedy steering crawls through the slow rotation, up to
    50 time units, past the runner's STEER_BOUND_MAX_TIME."""
    return all(np.all(np.isreal(np.linalg.eigvals(a + alpha * bk))) for alpha in control_range)


def planar_steer(rng, out: Path) -> dict:
    a0, b0, k0 = (np.asarray(m, dtype=float) for m in C12)
    tasks = []
    for i in range(PLANAR_TRIPLES):
        a, b, k = a0, b0, k0
        while i > 0:
            phi = rng.uniform(0.0, math.pi)
            rot = np.array([[math.cos(phi), -math.sin(phi)],
                            [math.sin(phi), math.cos(phi)]])
            a = rot @ np.diag(np.diag(a0) * rng.uniform(0.9, 1.1, 2)) @ rot.T
            b = rot @ (b0 + 0.05 * rng.standard_normal((2, 1)))
            k = (k0 + 0.05 * rng.standard_normal((1, 2))) @ rot.T
            if (not _shares_real_eigendirection(a, b @ k)
                    and _keeps_c12_type(a, b @ k, (PLANAR_MU, 1.0))):
                break
        cfg = {"schema": "1",
               "pair": {"A": matrix_json(a), "B": matrix_json(b)},
               "K": matrix_json(k), "T": 1.0, "mu": PLANAR_MU,
               "resolution": PLANAR_RESOLUTION, "seed": _seeds(rng, 1)[0]}
        name = f"planar_{i}.json"
        write_json(out / name, cfg)
        fraction = 0.25 + 0.5 * (i + float(rng.random())) / PLANAR_TRIPLES
        offsets = [(j + float(u)) / PLANAR_QUERIES
                   for j, u in enumerate(rng.random(PLANAR_QUERIES))]
        tasks.append({"kind": "planar", "config": name, "units": PLANAR_QUERIES,
                      "target": fraction, "offsets": offsets,
                      "label": "c12" if i == 0 else f"c12 variant {i}"})
    return {"unit": "queries", "tasks": tasks}


GENERATORS = {"grid_duality": grid_duality, "triple_sweep": triple_sweep,
              "planar_steer": planar_steer}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the inputs of one workload into ``out`` and return the task list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    manifest = GENERATORS[workload](rng, out)
    manifest.update(workload=workload, seed=seed)
    write_json(out / "jobs.json", manifest)
    return manifest


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    manifest = generate(args.workload, args.seed, Path(args.out))
    print(f"{len(manifest['tasks'])} tasks written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
