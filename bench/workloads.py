"""Task runners and correctness oracles of the pegrowth benchmark.

Each runner executes one task of ``jobs.json`` through the program's public
entry points (``pegrowth.cli.main`` in process, and the public functions of
``pegrowth.projective`` for steering, which has no subcommand), times only
the program calls, and checks every output.  A job fails when:

* a call raises, or a subcommand exits outside {0, 4};
* a summary reports an ``rc`` or ``rd`` that is not finite;
* ``estimates_equal`` / ``per_gain_equal`` / ``sup_equal`` is false;
* ``rc`` exceeds the constant-signal oracle
  ``min over alpha in {mu/T, 1} of -max Re eig(A + alpha B K)`` by more than
  1e-9 relative (the family holds both constants, so the bound must hold);
* a generic triple's ``lie-check`` or ``acc-cert`` exits non-zero;
* ``invariant-set`` is not applicable, or the invariance audit is not ok;
* a steer ends farther than pi/resolution from its target, or its tau
  exceeds the steering-time bound.

A ``duality`` exit 4 caused only by ``max_residual > tolerance`` is counted
as ``residual_over_tol``, not as a failure: the inversion residual of an
ill-conditioned product exceeds an absolute 1e-8 through rounding, not
through a wrong answer.

Failed jobs are counted, never dropped.  ``KNOWN_DEFECTS`` lists the causes
the seed code already produces on each workload (``baseline.json`` lists
every failing input); a failure with any other cause is a new defect, and
``run.py`` then reports the run as not correct.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Captured before any tracer patches numpy, so oracles never add kernel spans.
_eigvals = np.linalg.eigvals

TRIPLE_SUBCOMMANDS = ("lie-check", "acc-cert", "rates", "duality")
RC_RTOL = 1e-9
AUDIT_STARTS = 16
AUDIT_SIGNALS = 8
AUDIT_HORIZON = 4.0
STEER_MESH = 32
STEER_BOUND_MAX_TIME = 20.0
STEER_EXTRA_TIME = 1.0
TARGET_MARGIN_CELLS = 5

# Causes of the seed code's failures, by workload.  grid_duality and
# planar_steer have none: any failed job there is a new defect.
KNOWN_DEFECTS = {
    "triple_sweep": ("LARC holds but LARC0 fails", "pair is not controllable",
                     "numerically singular fundamental solution", "is not finite",
                     "exceeds the constant-signal bound"),
}


def new_defects(workload: str, causes) -> list:
    """The causes that are not known defects of the seed code on ``workload``."""
    known = KNOWN_DEFECTS.get(workload, ())
    return [c for c in causes if not any(k in c for k in known)]


# Seconds of every host probe in this process; see host_probe.
PROBE_S: list = []


def host_probe() -> None:
    """Time a fixed piece of work that never touches the program: pure-Python
    float arithmetic plus small numpy products, the mix the program's calls
    run.  ``run.py`` scales its timings by how slow these samples ran, so
    that the host's own speed swings cancel out."""
    m = np.eye(3) * 0.5
    t0 = time.perf_counter()
    x = 0.0
    for i in range(20000):
        x += (i * 0.5) ** 0.5
    for _ in range(200):
        m = m @ m + 0.1
        m = m / np.abs(m).max()
    PROBE_S.append(time.perf_counter() - t0)


@dataclass
class TaskResult:
    """Outcome of one task: the seconds of every timed program call, its
    jobs and a digest of its outputs.  A host probe follows every call."""

    call_s: list = field(default_factory=list)
    jobs: list = field(default_factory=list)  # (call indices, units, failure causes)
    residual_over_tol: int = 0
    bytes_out: int = 0
    digest: str = ""

    def timed(self, seconds: float) -> int:
        self.call_s.append(seconds)
        host_probe()
        return len(self.call_s) - 1


def call_cli(pegrowth, argv):
    """Run ``pegrowth.cli.main(argv)``; return (exit code or error text,
    seconds, stderr text)."""
    err = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            code = pegrowth.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a leaked exception is a job failure, not a crash
        code = f"raised {type(exc).__name__}: {exc}"
    return code, time.perf_counter() - t0, err.getvalue()


def _matrix(obj) -> np.ndarray:
    return np.asarray(obj["data"], dtype=float).reshape(obj["rows"], obj["cols"])


def constant_signal_bound(a, b, k, T, mu) -> float:
    """min over alpha in {mu/T, 1} of -max Re eig(A + alpha B K)."""
    bk = b @ k
    return min(-float(np.max(_eigvals(a + alpha * bk).real)) for alpha in (mu / T, 1.0))


def rc_violates(rc: float, bound: float) -> bool:
    return rc - bound > RC_RTOL * max(1.0, abs(bound))


def _last_line(text: str) -> str:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return lines[-1].strip()[:160] if lines else ""


def _finish(res: TaskResult, out: Path, record=None) -> TaskResult:
    """Digest every output file under ``out`` plus ``record``, the results
    that are not written to files."""
    hasher = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        hasher.update(str(path.relative_to(out)).encode() + b"\0" + data)
        res.bytes_out += len(data)
    if record is not None:
        hasher.update(json.dumps(record, sort_keys=True).encode())
    res.digest = hasher.hexdigest()
    return res


def _read_summary(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _check_rate_summary(sub, summary, bound, causes) -> None:
    for key in ("rc", "rd", "rd_mirror"):
        if key in summary and not math.isfinite(summary[key]["value"]):
            causes.append(f"{sub}: {key} = {summary[key]['value']} is not finite")
    if summary.get("estimates_equal") is False:
        causes.append(f"{sub}: estimates_equal is false")
    rc = summary.get("rc", {}).get("value")
    if rc is not None and math.isfinite(rc) and rc_violates(rc, bound):
        causes.append(f"{sub}: rc {rc:.6g} exceeds the constant-signal bound {bound:.6g}")


def run_triple(pegrowth, task, inp: Path, out: Path) -> TaskResult:
    """lie-check, acc-cert, rates and duality on one generic triple."""
    res = TaskResult()
    cfg_path = inp / task["config"]
    cfg = json.loads(cfg_path.read_text())
    a, b, k = _matrix(cfg["pair"]["A"]), _matrix(cfg["pair"]["B"]), _matrix(cfg["K"])
    bound = constant_signal_bound(a, b, k, cfg["T"], cfg["mu"])
    causes = []
    for sub in TRIPLE_SUBCOMMANDS:
        code, secs, err = call_cli(pegrowth, [sub, "--config", str(cfg_path),
                                              "--out", str(out / sub)])
        res.timed(secs)
        summary = _read_summary(out / sub / "summary.json") if code in (0, 4) else None
        if sub in ("lie-check", "acc-cert"):
            if code != 0:
                why = _last_line(err)
                if summary and summary.get("chain", {}).get("violations"):
                    why = "; ".join(summary["chain"]["violations"])
                causes.append(f"{sub} exit {code}: {why}")
            continue
        if code not in (0, 4):
            causes.append(f"{sub} exit {code}: {_last_line(err)}")
            continue
        if summary is None:
            causes.append(f"{sub}: no summary.json")
            continue
        _check_rate_summary(sub, summary, bound, causes)
        if sub == "duality" and code == 4:
            if summary.get("estimates_equal") and summary["max_residual"] > summary["tolerance"]:
                res.residual_over_tol += 1
            else:
                causes.append("duality exit 4 without a residual over tolerance")
    res.jobs.append((list(range(len(res.call_s))), task["units"], causes))
    return _finish(res, out)


_MIRROR_CHECKED: dict = {}


def _mirror_mismatch(pegrowth, cfg_path, cfg, a, b, k0, rc0) -> bool:
    """Whether gain 0's ``rc`` from grid.csv differs from ``rc_estimate`` on
    the gain and family that this module rebuilds from the config.  A drift
    in the draw would show on every config, so only the first grid task of
    a process is checked (in ``run.py``, the untimed warm-up) and its answer
    is kept for that task; no traced pass ever calls ``rc_estimate`` here."""
    key = str(cfg_path)
    if not _MIRROR_CHECKED:
        rates = pegrowth.rates
        cls = pegrowth.signals.SignalClass(cfg["T"], cfg["mu"])
        family = rates.bang_bang_family(
            cls, rates.SearchBudget(**cfg.get("family", {}), seed=cfg["seed"]))
        _MIRROR_CHECKED[key] = rates.rc_estimate(a, b, k0, cls, family).value != rc0
    return _MIRROR_CHECKED.get(key, False)


def run_grid(pegrowth, task, inp: Path, out: Path) -> TaskResult:
    """One duality-grid call: K_grid gains sharing one signal family."""
    res = TaskResult()
    cfg_path = inp / task["config"]
    cfg = json.loads(cfg_path.read_text())
    code, secs, err = call_cli(pegrowth, ["duality-grid", "--config", str(cfg_path),
                                          "--out", str(out)])
    call = res.timed(secs)
    causes = []
    summary = _read_summary(out / "summary.json") if code in (0, 4) else None
    if summary is None:
        causes.append(f"duality-grid exit {code}: {_last_line(err)}")
    else:
        for key in ("per_gain_equal", "sup_equal"):
            if not summary.get(key):
                causes.append(f"duality-grid: {key} is false")
        for key in ("sup_rc", "sup_rd_mirror"):
            if not math.isfinite(summary.get(key, math.nan)):
                causes.append(f"duality-grid: {key} = {summary.get(key)} is not finite")
        # The oracle needs each gain, which duality-grid draws internally
        # (_run_duality_grid in pegrowth/cli.py: default_rng(seed), then one
        # scale * standard_normal((m, d)) per gain).  This mirrors that draw;
        # _mirror_mismatch makes a drift show as its own cause.
        a, b = _matrix(cfg["pair"]["A"]), _matrix(cfg["pair"]["B"])
        rng = np.random.default_rng(cfg["seed"])
        grid = cfg["K_grid"]
        gains = [grid["scale"] * rng.standard_normal((b.shape[1], a.shape[0]))
                 for _ in range(grid["count"])]
        csv = out / "grid.csv"
        rows = csv.read_text().splitlines()[1:] if csv.is_file() else []
        if len(rows) != len(gains):
            causes.append(f"duality-grid: {len(rows)} rows for {len(gains)} gains")
        elif _mirror_mismatch(pegrowth, cfg_path, cfg, a, b, gains[0],
                              float(rows[0].split(",")[1])):
            causes.append("duality-grid gain 0: rc differs from a direct rc_estimate "
                          "on the mirrored gain; the oracle's gain draw is out of date")
        for row, k in zip(rows, gains):
            idx, rc, rd, _ = row.split(",")
            rc, rd = float(rc), float(rd)
            if not (math.isfinite(rc) and math.isfinite(rd)):
                causes.append(f"duality-grid gain {idx}: rc {rc}, rd {rd} not finite")
            elif rc_violates(rc, constant_signal_bound(a, b, k, cfg["T"], cfg["mu"])):
                causes.append(f"duality-grid gain {idx}: rc {rc:.6g} exceeds the "
                              "constant-signal bound")
    res.jobs.append(([call], task["units"], causes))
    return _finish(res, out)


def _point(theta: float) -> np.ndarray:
    return np.array([math.cos(theta), math.sin(theta)])


def run_planar(pegrowth, task, inp: Path, out: Path) -> TaskResult:
    """invariant-set, invariance audit, a steering-time bound and steering
    queries to one target on one planar triple; each query is one job."""
    prj = pegrowth.projective
    res = TaskResult()
    cfg_path = inp / task["config"]
    cfg = json.loads(cfg_path.read_text())
    a, b, k = _matrix(cfg["pair"]["A"]), _matrix(cfg["pair"]["B"]), _matrix(cfg["K"])
    resolution = cfg["resolution"]
    crange = (cfg["mu"] / cfg["T"], 1.0)
    tol = math.pi / resolution
    record = {}

    code, secs, err = call_cli(pegrowth, ["invariant-set", "--config", str(cfg_path),
                                          "--out", str(out)])
    res.timed(secs)
    summary = _read_summary(out / "summary.json") if code == 0 else None
    shared = []  # causes that fail every query of this triple
    arcs = None
    if summary is None or not summary.get("applicable"):
        shared.append(f"invariant-set exit {code}: not applicable {_last_line(err)}")
    else:
        arcs = prj.CircleArcSet(arcs=tuple((lo, hi) for lo, hi in summary["arcs"]))
        t0 = time.perf_counter()
        audit = prj.forward_invariance_audit(
            a, b, k, crange, arcs, prj.boundary_points(arcs, AUDIT_STARTS, resolution),
            n_signals=AUDIT_SIGNALS, horizon=AUDIT_HORIZON, seed=cfg["seed"],
            resolution=resolution)
        res.timed(time.perf_counter() - t0)
        record["audit"] = [audit.ok, audit.max_excursion, audit.n_trajectories]
        if not audit.ok:
            shared.append(f"invariance audit not ok (excursion {audit.max_excursion:.3g})")

    offsets = task["offsets"]
    if arcs is None:
        res.jobs.extend(([], 1, list(shared)) for _ in offsets)
        return _finish(res, out, record)
    lo, hi = arcs.arcs[0]
    margin = TARGET_MARGIN_CELLS * tol
    theta_t = lo + margin + task["target"] * (hi - lo - 2 * margin)
    t0 = time.perf_counter()
    try:
        bound = prj.steering_time_bound(a, b, k, crange, _point(theta_t),
                                        resolution=resolution, mesh=STEER_MESH,
                                        max_time=STEER_BOUND_MAX_TIME)
    except prj.SteeringError as exc:
        bound = None
        shared.append(f"steering_time_bound: {exc}")
    res.timed(time.perf_counter() - t0)
    record["bound"] = bound
    max_time = (STEER_BOUND_MAX_TIME if bound is None else bound) + STEER_EXTRA_TIME
    for qi, u in enumerate(offsets):
        causes = list(shared)
        t0 = time.perf_counter()
        try:
            st = prj.steer_d2(_point(theta_t + u * math.pi), _point(theta_t), a, b, k, crange,
                              resolution=resolution, max_time=max_time)
        except prj.SteeringError as exc:
            st = None
            causes.append(f"steer_d2: {exc}")
        call = res.timed(time.perf_counter() - t0)
        if st is not None:
            record[f"steer{qi}"] = [st.tau, st.final_distance, st.signal.to_json()]
            if st.final_distance > tol:
                causes.append(f"steer ended {st.final_distance:.3g} from its target")
            if bound is not None and st.tau > bound:
                causes.append(f"steer tau {st.tau:.4g} exceeds the bound {bound:.4g}")
        res.jobs.append(([call], 1, causes))
    return _finish(res, out, record)


RUNNERS = {"grid": run_grid, "triple": run_triple, "planar": run_planar}
