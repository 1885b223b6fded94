"""Self-test of the benchmark's correctness oracles.

    python3 bench/selftest.py

The stiff triple of the ROADMAP (A = [[-10, 1], [0, -20]], B = e2,
K = [-2, -3]) must come out of a triple_sweep job as failed, with a cause;
the c12 acceptance triple must pass both as a triple_sweep job and as a
planar_steer task.  Exits 0 when both hold, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

STIFF = ([[-10.0, 1.0], [0.0, -20.0]], [[0.0], [1.0]], [[-2.0, -3.0]])


def config(triple, **extra) -> dict:
    a, b, k = triple
    cfg = {"schema": "1", "pair": {"A": gen.matrix_json(a), "B": gen.matrix_json(b)},
           "K": gen.matrix_json(k), "T": 1.0, "mu": 0.4, "seed": 0}
    cfg.update(extra)
    return cfg


def main() -> int:
    pegrowth = run.import_program()
    work = run.WORK / f"selftest-{os.getpid()}"
    inp = work / "inputs"
    inp.mkdir(parents=True)
    ok = True
    try:
        gen.write_json(inp / "stiff.json", config(STIFF, family={"size": 32}))
        gen.write_json(inp / "c12.json", config(gen.C12, family={"size": 32}))
        gen.write_json(inp / "c12_planar.json",
                       config(gen.C12, resolution=gen.PLANAR_RESOLUTION))

        stiff = workloads.run_triple(pegrowth, {"config": "stiff.json", "units": 1},
                                     inp, work / "stiff")
        causes = stiff.jobs[0][2]
        print(f"stiff triple as a triple_sweep job: {'FLAGGED' if causes else 'NOT FLAGGED'}")
        for c in causes:
            print(f"  {c}")
        ok &= bool(causes)

        c12 = workloads.run_triple(pegrowth, {"config": "c12.json", "units": 1},
                                   inp, work / "c12")
        causes = c12.jobs[0][2]
        print(f"c12 triple as a triple_sweep job: "
              f"{'FAILED ' + ' | '.join(causes) if causes else 'passed'}")
        ok &= not causes

        planar = workloads.run_planar(
            pegrowth, {"config": "c12_planar.json", "units": 2, "target": 0.5,
                       "offsets": [0.1, 0.7]},
            inp, work / "c12_planar")
        failed = [causes for _, _, causes in planar.jobs if causes]
        print(f"c12 triple as a planar_steer task: "
              f"{len(planar.jobs) - len(failed)}/{len(planar.jobs)} queries passed")
        for c in failed:
            print(f"  {' | '.join(c)}")
        ok &= not failed
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
