"""Whole-process times of each ``pegrowth`` subcommand.

    python3 tools/subcommand_times.py --src parent=../parent --src change=. --runs 15

Each ``--src LABEL=PATH`` names a source checkout, whose program is imported
from ``PATH/src``.  Every subcommand runs as ``python -m pegrowth SUB`` on
its config, read from this tool's checkout (``tools/configs``, and
``bench/configs`` for ``duality-grid``) so an older checkout is timed on
the same inputs, with BLAS limited to one thread; the row
``import`` times ``python -c "import pegrowth"``.  One untimed warm-up run
of every row fills the bytecode caches.  Runs are interleaved: run i times
every row on every checkout, alternating the checkout order, so a slow
phase of a shared host falls on all of them.

A run's time is the wall time of the whole process, from spawn to exit,
import included.  Each row reports the median, quartiles and minimum over
the runs, the exit code, and the sha256 of the ``summary.json`` the run
wrote, which must repeat in every run.  The results go to ``--out``
(``BENCH_subcommands.json`` by default).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROWS = {
    "import": None,
    "lie-check": "tools/configs/d4.json",
    "acc-cert": "tools/configs/d4.json",
    "rates": "tools/configs/d4.json",
    "duality": "tools/configs/d4.json",
    "invariant-set": "tools/configs/c12.json",
    "spin-audit": "tools/configs/c12.json",
    "duality-grid": "bench/configs/chain_d3_mu0.40.json",
}


def _env(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_once(src: Path, row: str) -> tuple[float, int, str | None]:
    """Seconds, exit code and summary sha256 (None for ``import``) of one process."""
    with tempfile.TemporaryDirectory() as tmp:
        if ROWS[row] is None:
            cmd = [sys.executable, "-c", "import pegrowth"]
        else:
            cmd = [sys.executable, "-m", "pegrowth", row,
                   "--config", str(ROOT / ROWS[row]), "--out", tmp]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=_env(src), cwd=tmp, capture_output=True)
        seconds = time.perf_counter() - t0
        summary = Path(tmp) / "summary.json"
        digest = hashlib.sha256(summary.read_bytes()).hexdigest() if summary.exists() else None
    return seconds, proc.returncode, digest


def measure(sources: dict, rows: list, runs: int) -> dict:
    times = {label: {row: [] for row in rows} for label in sources}
    outcome = {label: {row: run_once(src, row)[1:] for row in rows}  # warm-up
               for label, src in sources.items()}
    order = list(sources)
    for i in range(runs):
        for label in (order if i % 2 == 0 else order[::-1]):
            for row in rows:
                seconds, *result = run_once(sources[label], row)
                if tuple(result) != outcome[label][row]:
                    raise SystemExit(f"{label} {row}: exit code or summary changed in run {i}")
                times[label][row].append(seconds)
    report = {}
    for label in sources:
        report[label] = {}
        for row in rows:
            q1, median, q3 = statistics.quantiles(times[label][row], n=4, method="inclusive")
            code, digest = outcome[label][row]
            report[label][row] = {
                "median_s": round(median, 4), "q1_s": round(q1, 4), "q3_s": round(q3, 4),
                "iqr_s": round(q3 - q1, 4), "min_s": round(min(times[label][row]), 4),
                "exit": code, "summary_sha256": digest}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", required=True, metavar="LABEL=PATH",
                        help="a source checkout to time; repeat to compare")
    parser.add_argument("--runs", type=int, default=15, help="timed runs per row")
    parser.add_argument("--out", default="BENCH_subcommands.json")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    sources = {}
    for spec in args.src:
        label, sep, path = spec.partition("=")
        if not sep or not label or label in sources:
            parser.error(f"--src needs a distinct LABEL=PATH, got {spec!r}")
        sources[label] = Path(path).resolve()
    report = measure(sources, list(ROWS), args.runs)
    doc = {
        "tool": "tools/subcommand_times.py",
        "runs": args.runs,
        "statistic": "median, quartiles and minimum of whole-process wall seconds",
        "host": {"python": platform.python_version(), "numpy": version("numpy"),
                 "scipy": version("scipy"), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "configs": ROWS,
        "sources": report,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    labels = list(sources)
    print("row".ljust(14) + "".join(f"{label:>22}" for label in labels))
    for row in ROWS:
        cells = [report[label][row] for label in labels]
        print(row.ljust(14) + "".join(
            f"{c['median_s']:>10.3f} s (IQR {c['iqr_s']:.3f})" for c in cells))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
