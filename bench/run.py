"""The pegrowth benchmark.

    python3 bench/run.py --workload grid_duality --seed 1 --seconds 26 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One process, no worker threads, BLAS limited to one thread.

Workloads (inputs come from ``gen.py``; ``BENCHMARK.json`` says why each
exists):

* ``grid_duality``: ``duality-grid`` on the six committed chain-pair
  configs (d in {2, 3, 4}, mu in {0.4, 0.95}), five calls per config, each
  with its own seed, 8-gain grid and 60-signal family.  Unit: gains.
* ``triple_sweep``: 72 random triples, 8 for each d = 2..10, at the centres
  of 8 log-scale strata over [0.3, 30]; each runs lie-check, acc-cert,
  rates and duality on its own config and 32-signal family.  Unit: triples.
* ``planar_steer``: the c12 triple and two seeded rotated variants of its
  type (``gen._keeps_c12_type``); each runs invariant-set at resolution
  4096, the invariance audit, one steering-time bound and eight steer_d2
  queries.  Unit: queries.

A run generates the inputs, runs one untimed warm-up task, then repeats the
task list ("a pass"), alternating forward and reverse order, until the time
budget is spent: at least two whole passes, and with tracing off the last
pass stops where the budget ends.  Every program call counts with its
fastest time over the passes that ran it (the host is shared, and
contention only adds time); a job's time is the sum of its calls.
Percentiles are over distinct jobs, so the tail percentile depends only on
the job count.  Failed jobs are counted, never dropped.  ``correct`` is
true when outputs, failure causes and traced counts repeat exactly in
every pass, and no job fails for a cause outside the seed code's known
defects (``workloads.KNOWN_DEFECTS``).

``--trace 0`` reports the end-to-end metrics: throughput and per-job times
over program calls only, ``setup_s`` as the median of nine cold
``import pegrowth`` in fresh interpreters spread over the run, peak RSS,
and ``ok_frac`` (1 - failed/attempted; ``failed_frac`` itself is printed
with its base but is 0 on clean workloads, and a metric that can be 0 has
no relative bound).

Timings are reported at a nominal host speed.  A shared host's speed swings
by up to 1.6x for seconds to minutes at a time, and the fastest of two or
three samples of a call does not escape a slow phase that covers the run.
So a fixed probe (``workloads.host_probe``, a few milliseconds of work that
never touches the program) runs after every program call.  A pass's host
factor is the mean of its probes over PROBE_NOMINAL_S; each call's time in
a pass is divided by that pass's factor before the fastest is taken, and
each ``setup_s`` sample by the factor of the pass that follows it.  The
mean, not the median: a long call pays for the host's pauses in proportion
to their share of the time, and so does the probes' total, while most
millisecond probes fall between pauses.  A
change to the program moves the reported times as it moves the raw ones; a
slow phase of the host moves both the program and the probe, and cancels.
The raw values are printed next to the reported ones.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracing.py`` plus ``trace.overhead_frac``, from
program times scaled by the same host factors (the per-layer times are
raw).

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Details (failing inputs with causes, digest, tail percentile)
go to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 9
SETUP_PER_PASS = 3
TAIL_BEYOND = 10
# Mean of host_probe's seconds on a two-core Xeon VM (the baseline's
# machine) in a quiet phase: the speed the timings are scaled to.
PROBE_NOMINAL_S = 0.0025

END_TO_END = (("work_per_s", "units/s"), ("job_p50_ms", "ms"), ("job_tail_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_frac", "ratio"))

PER_LAYER = (
    ("kernel.expm.calls", "count"), ("kernel.expm.matrices", "count"),
    ("kernel.expm.s", "s"), ("kernel.eigvals.calls", "count"),
    ("kernel.eigvals.s", "s"), ("kernel.svdvals.calls", "count"),
    ("kernel.svdvals.s", "s"),
    ("rates.self_s", "s"), ("rates.bang_bang_family.s", "s"),
    ("rates.rc_estimate.s", "s"), ("rates.rd_estimate.s", "s"),
    ("rates.duality_check.s", "s"), ("rates.delta_quantities.s", "s"),
    ("rates.monodromy.calls", "count"), ("rates.segments_total", "count"),
    ("rates.segments_distinct", "count"), ("rates.expm_reuse", "ratio"),
    ("rates.residual_over_tol", "count"),
    ("signals.validate_pe.calls", "count"), ("signals.validate_pe.s", "s"),
    ("signals.family_accept_ratio", "ratio"),
    ("lie.self_s", "s"), ("lie.lie_closure.calls", "count"), ("lie.lie_closure.s", "s"),
    ("lie.closure_depth_sum", "count"), ("lie.check_plarc.s", "s"),
    ("lie.plarc_samples", "count"),
    ("control.self_s", "s"), ("control.accessibility_certificate.s", "s"),
    ("control.kalman_rank.calls", "count"),
    ("projective.self_s", "s"), ("projective.invariant_control_set_d2.s", "s"),
    ("projective.forward_invariance_audit.s", "s"),
    ("projective.steering_time_bound.s", "s"), ("projective.steer_d2.s", "s"),
    ("projective.field_evals", "count"), ("projective.steer_segments", "count"),
    ("cli.main.s", "s"), ("cli.self_s", "s"), ("cli.bytes_out", "bytes"),
    ("trace.overhead_frac", "ratio"),
)

# Per-layer counts that must repeat exactly in every traced pass.
EXACT_COUNTS = ("kernel.expm.matrices", "signals.validate_pe.calls",
                "projective.field_evals", "rates.monodromy.calls")


def measure_setup(n: int) -> list[float]:
    """Seconds of ``import pegrowth`` in ``n`` fresh interpreters."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import pegrowth; print(repr(time.perf_counter() - t))")
    times = []
    for _ in range(n):
        done = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def import_program():
    sys.path.insert(0, str(SRC))
    import pegrowth
    import pegrowth.cli
    import pegrowth.projective
    if Path(pegrowth.__file__).resolve().parent != SRC / "pegrowth":
        raise ImportError(f"imported pegrowth from {pegrowth.__file__}, not {SRC}")
    return pegrowth


def run_pass(pegrowth, runners, manifest, inp: Path, out_root: Path, order,
             tracer=None, budget=None) -> dict:
    """Run the tasks in ``order``; return {task index: TaskResult}.  With a
    ``budget`` in seconds, start no task once it is spent."""
    shutil.rmtree(out_root, ignore_errors=True)
    results = {}
    t0 = time.perf_counter()
    for i in order:
        if budget is not None and time.perf_counter() - t0 >= budget:
            break
        if tracer is not None:
            tracer.job = i
        task = manifest["tasks"][i]
        results[i] = runners[task["kind"]](pegrowth, task, inp, out_root / f"task{i:03d}")
    return results


def program_s(p: dict) -> float:
    return sum(sum(r.call_s) for r in p.values())


def fastest_calls(passes, factors=None) -> dict:
    """Per task, per program call, its fastest time over the passes that ran
    it, each pass's times divided by its host factor: the host is shared,
    and contention only ever adds time.  The first pass is whole."""
    factors = factors or [1.0] * len(passes)
    return {i: [min(p[i].call_s[c] / f for p, f in zip(passes, factors) if i in p)
                for c in range(len(r.call_s))]
            for i, r in passes[0].items()}


def host_factors(probe_s: list, spans) -> list:
    """Per pass, the mean of its host probes over PROBE_NOMINAL_S."""
    return [statistics.fmean(probe_s[a:b]) / PROBE_NOMINAL_S for a, b in spans]


def timings(call_s: dict, job_calls, units: int) -> dict:
    """work_per_s, job_p50_ms and job_tail_ms from per-call seconds."""
    job_ms = sorted(1e3 * sum(call_s[i][c] for c in calls) for i, calls in job_calls if calls)
    return {"work_per_s": units / sum(map(sum, call_s.values())),
            "job_p50_ms": statistics.median(job_ms),
            "job_tail_ms": job_ms[tail_index(len(job_ms))]}


def same_outputs(p: dict, base: dict) -> bool:
    return all(r.digest == base[i].digest
               and [j[2] for j in r.jobs] == [j[2] for j in base[i].jobs]
               for i, r in p.items())


def tail_index(n: int) -> int:
    """Index, in ascending order, of the highest percentile with at least
    TAIL_BEYOND jobs beyond it (the maximum when there are fewer jobs)."""
    return max(0, n - TAIL_BEYOND - 1)


def layer_metrics(summary, p: dict) -> dict:
    m = {name: float(summary.get(name, 0.0)) for name, _ in PER_LAYER}
    expm_matrices = summary.get("kernel.expm.matrices", 0.0)
    m["rates.expm_reuse"] = (summary.get("rates.segments_total", 0.0) / expm_matrices
                             if expm_matrices else 0.0)
    in_family = summary.get("signals.validate_pe.in_family", 0.0)
    m["signals.family_accept_ratio"] = (summary.get("rates.family_signals", 0.0) / in_family
                                        if in_family else 0.0)
    m["rates.residual_over_tol"] = float(sum(r.residual_over_tol for r in p.values()))
    m["cli.bytes_out"] = float(sum(r.bytes_out for r in p.values()))
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="pegrowth benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "pegrowth" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'pegrowth'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    import gen
    import workloads
    if args.workload not in gen.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(gen.WORKLOADS)}", file=sys.stderr)
        return 2

    setup = []  # (seconds, index of the pass that follows)
    if args.trace == 0:
        measure_setup(1)  # may compile bytecode; not counted
    pegrowth = import_program()
    from tracing import Tracer

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{tag}-{os.getpid()}"
    try:
        inp = work / "inputs"
        manifest = gen.generate(args.workload, args.seed, inp)
        runners = workloads.RUNNERS
        warm = dict(manifest["tasks"][0])
        if "offsets" in warm:  # one steering query is enough to warm up
            warm["offsets"] = warm["offsets"][:1]
        runners[warm["kind"]](pegrowth, warm, inp, work / "warmup")

        passes, traced, summaries, first_tracer = [], [], [], None
        probe_spans, traced_spans = [], []  # per pass, its slice of workloads.PROBE_S
        forward = list(range(len(manifest["tasks"])))
        measured = 0.0
        while True:
            whole = len(passes) >= 2 if args.trace == 0 else bool(passes and traced)
            left = args.seconds - measured
            if whole and (left <= 0 or args.trace == 1
                          and left < measured / (len(passes) + len(traced))):
                break
            if args.trace == 0 and len(setup) < SETUP_REPEATS:
                setup += [(s, len(passes)) for s in
                          measure_setup(min(SETUP_PER_PASS, SETUP_REPEATS - len(setup)))]
            want_trace = args.trace == 1 and len(traced) < len(passes)
            order = forward if (len(passes) + len(traced)) % 2 == 0 else forward[::-1]
            tracer = Tracer() if want_trace else None
            if tracer is not None:
                tracer.install()
            first_probe = len(workloads.PROBE_S)
            t0 = time.perf_counter()
            try:
                p = run_pass(pegrowth, runners, manifest, inp, work / "out", order, tracer,
                             budget=left if whole and args.trace == 0 else None)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            measured += time.perf_counter() - t0
            (traced if want_trace else passes).append(p)
            (traced_spans if want_trace else probe_spans).append(
                (first_probe, len(workloads.PROBE_S)))
            if want_trace:
                summaries.append(tracer.summarise())
                first_tracer = first_tracer or tracer  # keep one span set
        if args.trace == 0:
            setup += [(s, len(passes) - 1) for s in measure_setup(SETUP_REPEATS - len(setup))]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    base = passes[0]
    unit = manifest["unit"]
    call_s = fastest_calls(passes)
    per_job_ms, job_calls, labels, causes, units = [], [], [], [], 0
    for i, task in enumerate(manifest["tasks"]):
        for k, (calls, n, why) in enumerate(base[i].jobs):
            per_job_ms.append(1e3 * sum(call_s[i][c] for c in calls) if calls else None)
            job_calls.append((i, calls))
            query = f" query {k}" if len(base[i].jobs) > 1 else ""
            labels.append(f"{task['config']}: {task['label']}{query}")
            causes.append(why)
            units += n
    attempted = len(causes)
    failed_jobs = [j for j, c in enumerate(causes) if c]
    failed = len(failed_jobs)
    new = workloads.new_defects(args.workload, [c for j in failed_jobs for c in causes[j]])
    correct = all(same_outputs(p, base) for p in passes + traced) and not new

    job_ms = sorted(t for t in per_job_ms if t is not None)
    tail_at = tail_index(len(job_ms))
    tail_pct = 100.0 * (tail_at + 1) / len(job_ms)
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "unit": unit, "passes": len(passes), "traced_passes": len(traced),
               "whole_passes": sum(len(p) == len(base) for p in passes),
               "jobs": attempted, "failed": failed, "new_defects": new,
               "tail": {"percentile": round(tail_pct, 2), "jobs": len(job_ms),
                        "beyond": len(job_ms) - tail_at - 1},
               "digest": _digest([base[i].digest for i in forward]), "job_ms": per_job_ms,
               "failures": [{"job": j, "input": labels[j], "causes": causes[j]}
                            for j in failed_jobs]}

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}"
          f" ({details['whole_passes']} whole)  traced passes {len(traced)}  jobs {attempted}")
    for f in details["failures"]:
        print(f"  FAIL job {f['job']} ({f['input']}): {' | '.join(f['causes'])}")
    for cause in new:
        print(f"  NEW DEFECT: {cause}")
    if args.trace == 0:
        factors = host_factors(workloads.PROBE_S, probe_spans)
        raw = dict(timings(call_s, job_calls, units),
                   setup_s=statistics.median(s for s, _ in setup))
        metrics = dict(timings(fastest_calls(passes, factors), job_calls, units),
                       setup_s=statistics.median(s / factors[k] for s, k in setup))
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["ok_frac"] = (attempted - failed) / attempted
        details.update(raw=raw, host_factors=factors,
                       pass_call_s=[{i: r.call_s for i, r in p.items()} for p in passes],
                       pass_probe_s=[workloads.PROBE_S[a:b] for a, b in probe_spans])
        print("  host factor per pass " + " ".join(f"{f:.3f}" for f in factors))
        notes = {"work_per_s": f"{unit}/s, failed jobs included",
                 "job_tail_ms": f"p{tail_pct:.1f} of {len(job_ms)} jobs, "
                                f"{len(job_ms) - tail_at - 1} beyond",
                 "setup_s": f"median of {len(setup)} cold imports",
                 "ok_frac": f"failed_frac = {failed}/{attempted} = {failed / attempted:.4g}"}
        for name, value in raw.items():
            notes[name] = "; ".join([f"raw {value:.6g}"]
                                    + ([notes[name]] if name in notes else []))
        units_of = dict(END_TO_END)
    else:
        layers = [layer_metrics(s, p) for s, p in zip(summaries, traced)]
        correct = correct and all(
            all(m[name] == layers[0][name] for name in EXACT_COUNTS) for m in layers)
        quietest = min(range(len(traced)), key=lambda i: program_s(traced[i]))
        metrics = layers[quietest]
        untraced_s, traced_s = (
            sum(map(sum, fastest_calls(ps, host_factors(workloads.PROBE_S, spans)).values()))
            for ps, spans in ((passes, probe_spans), (traced, traced_spans)))
        metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        notes = {}
        units_of = dict(PER_LAYER)
        first_tracer.write(WORK / "trace" / f"{tag}.json")
    details["metrics"] = metrics
    for name, value in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:42s} {value:.6g} {units_of[name]}{extra}")
    print(f"  digest {details['digest']}  correct {correct}")
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(details, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units_of[name]}
                                  for name, value in metrics.items()}}))
    return 0


def _digest(digests) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


if __name__ == "__main__":
    raise SystemExit(main())
