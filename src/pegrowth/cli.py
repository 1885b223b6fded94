"""Batch experiment runner.

Every subcommand reads a JSON config (schema "1"), executes one analysis,
and writes a summary JSON plus CSV artifacts into the output directory.
Outputs are byte-identical for identical (config, seed).

Exit codes: 0 success, 2 config error, 3 numerical diagnostic (including a
library ``ValueError`` once the config has parsed), 4 property violation
detected.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, control, lie, projective, rates, spinchk
from .matcore import matrix_from_json, multiset_residual
from .signals import PESignal, SignalClass, validate_pe

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VIOLATION = 4

class ConfigError(ValueError):
    pass


def _load_config(path: str):
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if str(cfg.get("schema", "1")) != "1":
        raise ConfigError(f"unsupported config schema {cfg.get('schema')!r}")
    return cfg, hashlib.sha256(raw).hexdigest()


def _require(cfg, key):
    if key not in cfg:
        raise ConfigError(f"config is missing {key!r}")
    return cfg[key]


def _integer(value, name):
    """A JSON integer, or a float with no fractional part, as an int.  A JSON
    boolean is not a number, and 1e400 parses as inf, which is no integer."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(value, name):
    """A JSON number as a finite float."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            x = float(value)
        except OverflowError:  # an integer beyond the float range
            x = math.inf
        if math.isfinite(x):
            return x
    raise ConfigError(f"{name} must be a finite number, got {value!r}")


def _pair(cfg):
    obj = _require(cfg, "pair")
    try:
        pair = control.MatrixPair(matrix_from_json(obj["A"]), matrix_from_json(obj["B"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad pair: {exc}") from exc
    return pair


def _gain(cfg, pair):
    obj = _require(cfg, "K")
    try:
        k = matrix_from_json(obj)
    except ValueError as exc:
        raise ConfigError(f"bad gain: {exc}") from exc
    if k.shape != (pair.m, pair.d):
        raise ConfigError(f"K must be {pair.m} x {pair.d}, got {k.shape}")
    return k


def _signal_class(cfg):
    try:
        return SignalClass(_real(_require(cfg, "T"), "T"), _real(_require(cfg, "mu"), "mu"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _budget(cfg, seed):
    fam = cfg.get("family", {})
    if not isinstance(fam, dict):
        raise ConfigError("bad family spec: family must be a JSON object")
    counts = {key: _integer(fam.get(key, default), f"family {key}") for key, default in
              (("n_periods", 4), ("max_switches", 6), ("time_grid", 16), ("size", 32))}
    constants = fam.get("include_constants", True)
    if not isinstance(constants, bool):
        raise ConfigError(f"family include_constants must be true or false, got {constants!r}")
    try:
        return rates.SearchBudget(**counts, include_constants=constants, seed=seed)
    except ValueError as exc:
        raise ConfigError(f"bad family spec: {exc}") from exc


def _signals(objs):
    if not isinstance(objs, list):
        raise ValueError("signals must be a JSON list")
    return [PESignal.from_json(o) for o in objs]


def _family(cfg, cls, seed, signal_file=None):
    sigs = []
    if signal_file is not None:
        try:
            payload = json.loads(Path(signal_file).read_text())
            sigs = _signals(payload["signals"])
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad signal file: {exc}") from exc
    elif "signals" in cfg:
        try:
            sigs = _signals(cfg["signals"])
        except ValueError as exc:
            raise ConfigError(f"bad signals entry: {exc}") from exc
    if sigs:
        bad = [i for i, s in enumerate(sigs)
               if s.period is None or not validate_pe(s, cls).valid]
        if bad:
            raise ConfigError(f"signals {bad} are not periodic PE signals for this class")
        return sigs
    # The library builds the budget's family and trusts it: valid by
    # construction, so it is not validated again.
    return _budget(cfg, seed)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    def fmt(x):
        if isinstance(x, float):
            return format(x, ".17g")
        return str(x)

    lines = [",".join(header)]
    lines.extend(",".join(fmt(x) for x in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _summary_base(cfg_hash, seed):
    return {"version": __version__, "config_sha256": cfg_hash, "seed": seed}


# -- subcommand bodies -------------------------------------------------------


def _run_lie_check(cfg, cfg_hash, seed, out, args):
    pair = _pair(cfg)
    k = _gain(cfg, pair)
    shift = _real(cfg.get("lambda", 0.0), "lambda")
    audit = lie.inclusion_chain_audit(pair.A, pair.B, k, shift=shift, seed=seed)
    summary = _summary_base(cfg_hash, seed)
    summary["certificates"] = {
        "larc_shifted": audit.larc_shifted.to_json(),
        "larc0": audit.larc0.to_json(),
        "plarc": audit.plarc.to_json(),
    }
    summary["chain"] = {"lambda": shift, "violations": list(audit.violations)}
    _write_json(out / "summary.json", summary)
    return EXIT_VIOLATION if audit.violations else EXIT_OK


def _run_acc_cert(cfg, cfg_hash, seed, out, args):
    pair = _pair(cfg)
    if pair.m != 1:
        raise ConfigError("acc-cert is single-input only")
    k = _gain(cfg, pair)
    divisor = _real(cfg.get("trace_divisor", 1.0), "trace_divisor")
    if divisor == 0.0:
        raise ConfigError("trace_divisor must be nonzero")
    try:
        cert = control.accessibility_certificate(pair.A, pair.B, k, trace_divisor=divisor)
    except control.NotControllableError as exc:
        raise RuntimeError(str(exc)) from exc
    summary = _summary_base(cfg_hash, seed)
    summary["certificate"] = cert.to_json()
    _write_json(out / "summary.json", summary)
    return EXIT_OK


def _run_rates(cfg, cfg_hash, seed, out, args):
    pair = _pair(cfg)
    k = _gain(cfg, pair)
    cls = _signal_class(cfg)
    family = _family(cfg, cls, seed, args.signal_file)
    report = rates.family_rates(pair.A, pair.B, k, cls, family)
    rows = [(idx, s.period, top, bottom, "") for idx, (s, top, bottom) in enumerate(
        zip(report.signals, report.top_rates, report.bottom_rates))]
    _write_csv(out / "rates.csv",
               ("signal_id", "period", "top_rate", "bottom_rate", "residual"), rows)
    delta = report.delta
    summary = _summary_base(cfg_hash, seed)
    summary.update({
        "T": cls.T, "mu": cls.mu, "n_signals": len(report.signals),
        "rc": report.rc.to_json(), "rd": report.rd.to_json(),
        "delta": delta.delta_hat.to_json(),
        "delta_star": delta.delta_star_hat.to_json(),
        "delta_mirror_identity": delta.mirror_identity_exact,
    })
    _write_json(out / "summary.json", summary)
    return EXIT_OK


def _run_duality(cfg, cfg_hash, seed, out, args):
    pair = _pair(cfg)
    k = _gain(cfg, pair)
    cls = _signal_class(cfg)
    family = _family(cfg, cls, seed, args.signal_file)
    tol = _real(cfg.get("tolerance", 1e-8), "tolerance")
    if tol < 0.0:
        raise ConfigError("tolerance must be non-negative")
    report = rates.duality_check(pair.A, pair.B, k, cls, family, tol=tol)
    rows = [(i, per, "", "", res) for i, per, res in report.per_signal]
    _write_csv(out / "duality.csv",
               ("signal_id", "period", "top_rate", "bottom_rate", "residual"), rows)
    summary = _summary_base(cfg_hash, seed)
    summary.update({
        "max_residual": report.max_residual,
        "tolerance": tol,
        "rc": report.rc.to_json(),
        "rd_mirror": report.rd_mirror.to_json(),
        "estimates_equal": report.estimates_equal,
        "ok": report.ok,
    })
    _write_json(out / "summary.json", summary)
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _run_invariant_set(cfg, cfg_hash, seed, out, args):
    pair = _pair(cfg)
    k = _gain(cfg, pair)
    if pair.d != 2:
        raise ConfigError("invariant-set needs d = 2")
    cls = _signal_class(cfg)
    crange = cfg.get("control_range", (cls.floor, 1.0))
    if not isinstance(crange, (list, tuple)) or len(crange) != 2:
        raise ConfigError(f"control_range must be a pair [lo, hi], got {crange!r}")
    lo, hi = (_real(x, "control_range entry") for x in crange)
    if not 0.0 <= lo < hi <= 1.0:
        raise ConfigError("control_range must be a nondegenerate subinterval of [0, 1]")
    result = projective.invariant_control_set_d2(pair.A, pair.B, k, (lo, hi), seed=seed)
    summary = _summary_base(cfg_hash, seed)
    summary["applicable"] = result.applicable
    summary["n_sinks"] = result.n_sinks
    if result.applicable:
        summary["arcs"] = result.arcs.to_json()["arcs"]
    _write_json(out / "summary.json", summary)
    if not result.applicable:
        return EXIT_NUMERICAL
    return EXIT_OK


def _run_spin_audit(cfg, cfg_hash, seed, out, args):
    n = args.seeds if args.seeds is not None else _integer(cfg.get("seeds", 200), "seeds")
    if n <= 0:
        raise ConfigError("seeds must be positive")
    rows = []
    for i in range(n):
        m = spinchk.random_spin91(seed + i)
        ev = np.linalg.eigvals(m)
        rows.append((seed + i, spinchk.membership_residual(m),
                     multiset_residual(ev, -ev),
                     spinchk.charpoly_even_decomp(m).odd_residual))
    _write_csv(out / "spin.csv",
               ("seed", "membership_residual", "symmetry_residual", "odd_residual"),
               rows)
    summary = _summary_base(cfg_hash, seed)
    summary.update({
        "draws": n,
        "max_membership_residual": max(r[1] for r in rows),
        "max_symmetry_residual": max(r[2] for r in rows),
        "max_odd_residual": max(r[3] for r in rows),
    })
    _write_json(out / "summary.json", summary)
    return EXIT_OK


def _run_duality_grid(cfg, cfg_hash, seed, out, args):
    pair = _pair(cfg)
    cls = _signal_class(cfg)
    family = _family(cfg, cls, seed, args.signal_file)
    if "K" in cfg and "K_grid" not in cfg:
        gains = [_gain(cfg, pair)]
    else:
        grid_spec = cfg.get("K_grid", {})
        if not isinstance(grid_spec, dict):
            raise ConfigError("K_grid must be a JSON object")
        count = _integer(grid_spec.get("count", 100), "K_grid count")
        scale = _real(grid_spec.get("scale", 1.0), "K_grid scale")
        if count < 1:
            raise ConfigError("K_grid count must be positive")
        rng = np.random.default_rng(seed)
        gains = [scale * rng.standard_normal((pair.m, pair.d)) for _ in range(count)]

    report = rates.duality_grid(pair.A, pair.B, gains, cls, family)
    rows = [(idx, rc.value, rd.value, int(rc.value == rd.value))
            for idx, (rc, rd) in enumerate(zip(report.rc, report.rd_mirror))]
    _write_csv(out / "grid.csv", ("k_index", "rc", "rd_mirror", "equal"), rows)
    sup_rc = max(r[1] for r in rows)
    sup_rd = max(r[2] for r in rows)
    all_equal = all(r[3] for r in rows)
    summary = _summary_base(cfg_hash, seed)
    summary.update({
        "n_gains": len(gains),
        "sup_rc": sup_rc,
        "sup_rd_mirror": sup_rd,
        "per_gain_equal": all_equal,
        "sup_equal": bool(sup_rc == sup_rd),
    })
    _write_json(out / "summary.json", summary)
    return EXIT_OK if all_equal and sup_rc == sup_rd else EXIT_VIOLATION


RUNNERS = {"lie-check": _run_lie_check, "acc-cert": _run_acc_cert, "rates": _run_rates,
           "duality": _run_duality, "invariant-set": _run_invariant_set,
           "spin-audit": _run_spin_audit, "duality-grid": _run_duality_grid}
SUBCOMMANDS = tuple(RUNNERS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pegrowth",
        description="Growth-rate and rank-certificate experiments for "
                    "persistently excited linear systems")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help="overrides the config seed")
        p.add_argument("--out", default=".", help="output directory")
        if name in ("rates", "duality", "duality-grid"):
            p.add_argument("--signal-file", default=None,
                           help="JSON file with an explicit signal family")
        if name == "spin-audit":
            p.add_argument("--seeds", type=int, default=None,
                           help="number of seeded draws")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser; parsing leaves no state in it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg, cfg_hash = _load_config(args.config)
        seed = args.seed if args.seed is not None else _integer(cfg.get("seed", 0), "seed")
        if seed < 0:
            raise ConfigError("seed must be non-negative")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return RUNNERS[args.subcommand](cfg, cfg_hash, seed, out, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (lie.LieClosureError, control.NotControllableError,
            projective.SteeringError, ArithmeticError, RuntimeError,
            ValueError) as exc:  # ValueError covers numpy's LinAlgError
        print(f"numerical diagnostic: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
