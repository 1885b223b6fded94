"""Run every workload over ten seeds, twice, and record the baseline.

    python3 bench/baseline.py

Makes two sets of runs of the same code.  Each set runs ``run.py`` for
``run_seconds`` of ``BENCHMARK.json`` once per workload and seed 1..10 with
tracing off, and once per workload with tracing on (seed 1).  Prints every
metric by name with its unit, then compares the sets: the second median of
each end-to-end metric against the first and the metric's bound, and the
output digests, failure counts and exact traced counts seed by seed.
Writes ``bench/baseline.json``: per set and workload, the median, quartiles,
spread (interquartile range over median) and ten values of each end-to-end
metric, the traced per-layer numbers, and per seed the raw timings, the
host factor of each pass, the output digest and the failing inputs; then
the comparison, the machine, the library versions, the program's git sha
and a digest of the benchmark's own ``*.py`` files (the code both sets ran).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)
SETS = 2
EXACT = ("kernel.expm.matrices", "signals.validate_pe.calls", "projective.field_evals",
         "rates.monodromy.calls")


def bench_run(workload, seed, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    details = json.loads((ROOT / ".bench_work" / "results" /
                          f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, details


def machine() -> dict:
    import numpy
    import scipy
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    code = hashlib.sha256()
    for path in sorted(BENCH.glob("*.py")):
        code.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"cpu": cpu, "cpus": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_sha": sha, "bench_py_sha256": code.hexdigest()}


def one_set(workload) -> dict:
    values, runs = {}, []
    for seed in SEEDS:
        result, details = bench_run(workload, seed, 0)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        runs.append({"seed": seed, "correct": result["correct"],
                     "attempted": result["attempted"], "failed": result["failed"],
                     "passes": details["passes"], "whole_passes": details["whole_passes"],
                     "tail": details["tail"], "raw": details["raw"],
                     "host_factors": details["host_factors"], "digest": details["digest"],
                     "failures": details["failures"]})
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{k} {m['value']:.4g} {m['unit']}" for k, m in result["metrics"].items())
            + f", failed {result['failed']}/{result['attempted']}"
            + f", correct {result['correct']}", flush=True)
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0, "values": vals}
    result, _ = bench_run(workload, SEEDS[0], 1)
    entry = {"end_to_end": summary, "runs": runs,
             "per_layer_seed1": {k: m["value"] for k, m in result["metrics"].items()},
             "per_layer_seed1_correct": result["correct"]}
    print(f"\n{workload}: median [q1, q3] spread")
    for name, s in summary.items():
        print(f"  {name:14s} {s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] "
              f"{s['spread']:.4f}")
    for k, v in entry["per_layer_seed1"].items():
        print(f"  {k:42s} {v:.6g}")
    print(flush=True)
    return entry


def compare(first, second) -> dict:
    """Per workload: how far the second set's medians are worse than the
    first's, against each bound, and whether digests and counts repeat."""
    out = {}
    for workload, a in first.items():
        b = second[workload]
        metrics = {}
        for spec in SPEC["end_to_end"]:
            m1 = a["end_to_end"][spec["name"]]["median"]
            m2 = b["end_to_end"][spec["name"]]["median"]
            worse = (m2 - m1) / m1 if spec["better"] == "lower" else (m1 - m2) / m1
            metrics[spec["name"]] = {"worse": worse, "bound": spec["bound"],
                                     "within": worse <= spec["bound"]}
        out[workload] = {
            "metrics": metrics,
            "digests_equal": [r["digest"] for r in a["runs"]] == [r["digest"] for r in b["runs"]],
            "failed_equal": [r["failed"] for r in a["runs"]] == [r["failed"] for r in b["runs"]],
            "counts_equal": all(a["per_layer_seed1"][k] == b["per_layer_seed1"][k]
                                for k in EXACT),
        }
        print(f"{workload}: set 2 against set 1")
        for name, m in metrics.items():
            print(f"  {name:14s} worse by {m['worse']:+.4f} (bound {m['bound']})"
                  f" {'ok' if m['within'] else 'OUTSIDE'}")
        print(f"  digests equal {out[workload]['digests_equal']}, failed equal "
              f"{out[workload]['failed_equal']}, counts equal {out[workload]['counts_equal']}",
              flush=True)
    return out


def main() -> int:
    sys.path.insert(0, str(BENCH))
    import gen
    sets = []
    for n in range(SETS):
        print(f"=== set {n + 1} ===", flush=True)
        sets.append({workload: one_set(workload) for workload in gen.WORKLOADS})
    report = {"machine": machine(), "run_seconds": SPEC["run_seconds"],
              "sets": sets, "comparison": compare(sets[0], sets[1])}
    (BENCH / "baseline.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
