import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pegrowth import cli, projective, rates, signals
from pegrowth.matcore import matrix_to_json
from pegrowth.signals import PESignal, SignalClass


def base_config(**extra):
    cfg = {
        "schema": "1",
        "pair": {"A": matrix_to_json(np.array([[0.0, 1.0], [0.0, 0.0]])),
                 "B": matrix_to_json(np.array([[0.0], [1.0]]))},
        "K": matrix_to_json(np.array([[-2.0, -3.0]])),
        "T": 1.0,
        "mu": 0.4,
        "family": {"size": 12},
        "seed": 7,
    }
    cfg.update(extra)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(sub, cfg_path, out, *extra):
    return cli.main([sub, "--config", cfg_path, "--out", str(out), *extra])


class TestDuality:
    def test_success_and_outputs(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert run("duality", cfg, out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["ok"] and summary["estimates_equal"]
        assert summary["max_residual"] <= 1e-8
        assert summary["seed"] == 7 and "config_sha256" in summary
        lines = (out / "duality.csv").read_text().strip().splitlines()
        assert lines[0] == "signal_id,period,top_rate,bottom_rate,residual"
        assert len(lines) == 13

    def test_mu_exceeding_T_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, base_config(T=0.3, mu=0.4))
        assert run("duality", cfg, tmp_path / "o") == 2

    def test_byte_identical_across_runs_and_jobs(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert run("duality", cfg, a) == 0
        assert run("duality", cfg, b) == 0
        for name in ("summary.json", "duality.csv"):
            assert (b / name).read_bytes() == (a / name).read_bytes()
        with pytest.raises(SystemExit) as exc:  # --jobs is no longer an option
            run("duality", cfg, c, "--jobs", "4")
        assert exc.value.code == 2 and not c.exists()

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "s"
        assert run("duality", cfg, out, "--seed", "99") == 0
        assert json.loads((out / "summary.json").read_text())["seed"] == 99

    def test_explicit_signal_file(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        sig = {"signals": [
            {"breakpoints": [0.0], "values": [1.0], "period": 1.0},
            {"breakpoints": [0.0, 0.5], "values": [1.0, 0.0], "period": 1.0},
        ]}
        sig_path = tmp_path / "sig.json"
        sig_path.write_text(json.dumps(sig))
        out = tmp_path / "sf"
        assert run("duality", cfg, out, "--signal-file", str(sig_path)) == 0
        lines = (out / "duality.csv").read_text().strip().splitlines()
        assert len(lines) == 3

    def test_invalid_signal_file_rejected(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        sig_path = tmp_path / "sig.json"
        sig_path.write_text(json.dumps({"signals": [
            {"breakpoints": [0.0, 0.1], "values": [1.0, 0.0], "period": 1.0}]}))
        assert run("duality", cfg, tmp_path / "x", "--signal-file", str(sig_path)) == 2


    def test_stiff_triple_finite_without_traceback(self, tmp_path, capsys):
        cfg = base_config(family={"size": 8})
        cfg["pair"]["A"] = matrix_to_json(100 * np.array([[-10.0, 1.0], [0.0, -20.0]]))
        cfg["pair"]["B"] = matrix_to_json(100 * np.array([[0.0], [1.0]]))
        out = tmp_path / "stiff"
        assert run("duality", write_config(tmp_path, cfg), out) in (0, 4)
        summary = json.loads((out / "summary.json").read_text())
        assert np.isfinite(summary["rc"]["value"])
        assert summary["rc"]["value"] == summary["rd_mirror"]["value"]
        assert summary["estimates_equal"]
        assert "Traceback" not in capsys.readouterr().err


class TestRates:
    def test_outputs(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "r"
        assert run("rates", cfg, out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["rc"]["bound"] == "upper"
        assert summary["delta_mirror_identity"] is True
        assert summary["delta_star"]["value"] <= summary["delta"]["value"]
        header = (out / "rates.csv").read_text().splitlines()[0]
        assert header == "signal_id,period,top_rate,bottom_rate,residual"

    def test_integral_floats_read_as_integers(self, tmp_path):
        whole = write_config(tmp_path, base_config(seed=7.0, family={"size": 12.0}), "f.json")
        assert run("rates", write_config(tmp_path, base_config()), tmp_path / "i") == 0
        assert run("rates", whole, tmp_path / "f") == 0
        assert json.loads((tmp_path / "f" / "summary.json").read_text())["seed"] == 7
        assert (tmp_path / "f" / "rates.csv").read_bytes() == \
            (tmp_path / "i" / "rates.csv").read_bytes()


class TestLieCheck:
    def test_chain_pair(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "l"
        assert run("lie-check", cfg, out) == 0
        summary = json.loads((out / "summary.json").read_text())
        certs = summary["certificates"]
        assert certs["larc0"]["verdict"] and certs["plarc"]["verdict"]
        assert summary["chain"]["violations"] == []


class TestAccCert:
    def test_verdict(self, tmp_path):
        cfg = write_config(tmp_path, base_config(
            K=matrix_to_json(np.array([[1.0, 1.0]]))))
        out = tmp_path / "a"
        assert run("acc-cert", cfg, out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["certificate"]["verdict"] is True
        assert summary["certificate"]["r"] == [1.0, 1.0]

    def test_uncontrollable_is_numerical_diagnostic(self, tmp_path):
        cfg = base_config()
        cfg["pair"]["A"] = matrix_to_json(np.eye(2))
        cfg["pair"]["B"] = matrix_to_json(np.array([[1.0], [0.0]]))
        path = write_config(tmp_path, cfg)
        assert run("acc-cert", path, tmp_path / "u") == 3


class TestInvariantSet:
    def test_rotation_full_circle(self, tmp_path):
        cfg = base_config()
        cfg["pair"]["A"] = matrix_to_json(np.array([[0.0, -1.0], [1.0, 0.0]]))
        cfg["pair"]["B"] = matrix_to_json(np.zeros((2, 1)))
        cfg["K"] = matrix_to_json(np.zeros((1, 2)))
        cfg["resolution"] = 512  # no longer read, and still accepted
        path = write_config(tmp_path, cfg)
        out = tmp_path / "i"
        assert run("invariant-set", path, out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["applicable"] and summary["arcs"] == [[0.0, np.pi]]
        assert "resolution" not in summary
        assert [p.name for p in out.iterdir()] == ["summary.json"]

    def test_plarc_failure_flagged(self, tmp_path):
        cfg = base_config()
        cfg["pair"]["A"] = matrix_to_json(np.diag([1.0, 2.0]))
        cfg["pair"]["B"] = matrix_to_json(np.zeros((2, 1)))
        cfg["K"] = matrix_to_json(np.zeros((1, 2)))
        cfg["resolution"] = 256
        path = write_config(tmp_path, cfg)
        out = tmp_path / "na"
        assert run("invariant-set", path, out) == 3
        assert json.loads((out / "summary.json").read_text())["applicable"] is False


class TestSpinAudit:
    def test_audit(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "sp"
        assert run("spin-audit", cfg, out, "--seeds", "6") == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["draws"] == 6
        assert summary["max_membership_residual"] <= 1e-10
        lines = (out / "spin.csv").read_text().strip().splitlines()
        assert len(lines) == 7


class TestDualityGrid:
    def test_grid_equality(self, tmp_path):
        cfg = base_config(K_grid={"count": 12, "scale": 1.0},
                          family={"size": 8})
        del cfg["K"]
        path = write_config(tmp_path, cfg)
        out = tmp_path / "g"
        assert run("duality-grid", path, out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["per_gain_equal"] and summary["sup_equal"]
        assert summary["sup_rc"] == summary["sup_rd_mirror"]
        lines = (out / "grid.csv").read_text().strip().splitlines()
        assert len(lines) == 13
        assert all(line.endswith(",1") for line in lines[1:])

    @staticmethod
    def grid_config(tmp_path):
        cfg = base_config(K_grid={"count": 8, "scale": 1.0}, family={"size": 60})
        del cfg["K"]
        return write_config(tmp_path, cfg)

    def test_validates_family_and_mirror_once(self, tmp_path, monkeypatch):
        calls = []
        validate_pe = rates.validate_pe

        def counted(*args, **kwargs):
            calls.append(args[0])
            return validate_pe(*args, **kwargs)

        monkeypatch.setattr(rates, "validate_pe", counted)
        family = rates.bang_bang_family(SignalClass(1.0, 0.4),
                                        rates.SearchBudget(size=60, seed=7))
        attempts = len(calls)
        calls.clear()
        assert run("duality-grid", self.grid_config(tmp_path), tmp_path / "g") == 0
        assert len(calls) <= attempts + 2 * len(family)

    def test_rd_mirror_is_evaluated_on_its_own_path(self, tmp_path, monkeypatch):
        reverse = rates.reverse

        def perturbed(s):
            # Raises every value by 1e-6 of its distance to 1, which keeps
            # the signal PE and its durations consistent.
            r = reverse(s)
            return PESignal(r.breakpoints, r.values + 1e-6 * (1.0 - r.values), r.period,
                            durations=r.durations)

        monkeypatch.setattr(rates, "reverse", perturbed)
        out = tmp_path / "g"
        assert run("duality-grid", self.grid_config(tmp_path), out) == 4
        assert not json.loads((out / "summary.json").read_text())["per_gain_equal"]


class TestValidateOnce:
    """A budget family is validated once, inside ``bang_bang_family``; the
    CLI hands the budget to the library, which trusts the family it builds.
    The mirrored family and explicit signals are still validated."""

    SIGNALS = [{"breakpoints": [0.0], "values": [1.0], "period": 1.0},
               {"breakpoints": [0.0, 0.5], "values": [1.0, 0.0], "period": 1.0},
               {"breakpoints": [0.0, 0.25, 1.0], "values": [1.0, 0.4, 1.0], "period": 1.5}]

    @staticmethod
    def counter(monkeypatch):
        """Counts ``validate_pe`` calls inside and outside the family."""
        calls = {"family": 0, "other": 0}
        inside = []
        validate_pe, build = signals.validate_pe, rates.bang_bang_family

        def counted(*args, **kwargs):
            calls["family" if inside else "other"] += 1
            return validate_pe(*args, **kwargs)

        def family(*args, **kwargs):
            inside.append(True)
            try:
                return build(*args, **kwargs)
            finally:
                inside.pop()

        for mod in (signals, rates, cli):
            monkeypatch.setattr(mod, "validate_pe", counted)
        monkeypatch.setattr(rates, "bang_bang_family", family)
        return calls

    @staticmethod
    def family_size():
        return len(rates.bang_bang_family(SignalClass(1.0, 0.4), rates.SearchBudget(size=12, seed=7)))

    def test_rates_budget(self, tmp_path, monkeypatch):
        n = self.family_size()
        calls = self.counter(monkeypatch)
        out = tmp_path / "r"
        assert run("rates", write_config(tmp_path, base_config()), out) == 0
        assert calls["family"] > 0 and calls["other"] == 0
        assert f'\n  "n_signals": {n},\n' in (out / "summary.json").read_text()

    @pytest.mark.parametrize("sub", ["duality", "duality-grid"])
    def test_mirror_validated_once_per_signal(self, tmp_path, monkeypatch, sub):
        n = self.family_size()
        calls = self.counter(monkeypatch)
        assert run(sub, write_config(tmp_path, base_config()), tmp_path / "d") == 0
        assert calls["family"] > 0 and calls["other"] == n

    @pytest.mark.parametrize("sub", ["rates", "duality", "duality-grid"])
    def test_explicit_signals_validated(self, tmp_path, monkeypatch, sub):
        calls = self.counter(monkeypatch)
        out = tmp_path / "e"
        assert run(sub, write_config(tmp_path, base_config(signals=self.SIGNALS)), out) == 0
        assert calls["family"] == 0 and calls["other"] >= len(self.SIGNALS)
        if sub == "rates":
            summary = json.loads((out / "summary.json").read_text())
            assert summary["n_signals"] == len(self.SIGNALS)

    @pytest.mark.parametrize("sub", ["rates", "duality", "duality-grid"])
    def test_non_pe_signal_is_config_error(self, tmp_path, capsys, sub):
        bad = self.SIGNALS + [{"breakpoints": [0.0, 0.1], "values": [1.0, 0.0], "period": 1.0}]
        assert run(sub, write_config(tmp_path, base_config(signals=bad)), tmp_path / "x") == 2
        err = capsys.readouterr().err
        assert err == "config error: signals [3] are not periodic PE signals for this class\n"


class TestExitCodes:
    def test_empty_gain_grid_is_config_error(self, tmp_path):
        cfg = base_config(K_grid={"count": 0})
        del cfg["K"]
        assert run("duality-grid", write_config(tmp_path, cfg), tmp_path / "g") == 2

    def test_empty_family_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, base_config(family={"size": 0}))
        assert run("rates", cfg, tmp_path / "r") == 2

    def test_malformed_control_range_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, base_config(control_range="lo-hi"))
        assert run("invariant-set", cfg, tmp_path / "i") == 2

    def test_library_value_error_is_numerical(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("control range must be a nondegenerate subinterval of [0, 1]")

        monkeypatch.setattr(projective, "invariant_control_set_d2", fail)
        cfg = write_config(tmp_path, base_config())
        assert run("invariant-set", cfg, tmp_path / "i") == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical diagnostic:") and err.count("\n") == 1

    @pytest.mark.parametrize("sub", ["rates", "duality", "duality-grid"])
    def test_family_not_an_object_is_config_error(self, tmp_path, capsys, sub):
        cfg = write_config(tmp_path, base_config(family=[1, 2]))
        assert run(sub, cfg, tmp_path / "f") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: bad family spec") and err.count("\n") == 1

    @pytest.mark.parametrize("sub", ["rates", "duality", "duality-grid"])
    def test_signals_not_a_list_is_config_error(self, tmp_path, capsys, sub):
        cfg = write_config(tmp_path, base_config(signals=5))
        assert run(sub, cfg, tmp_path / "s") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: bad signals entry") and err.count("\n") == 1

    @pytest.mark.parametrize("payload", [{"signals": 5}, {"signals": {"period": 1.0}},
                                         [{"breakpoints": [0.0], "values": [1.0]}]])
    def test_signal_file_without_signal_list_is_config_error(self, tmp_path, capsys, payload):
        sig_path = tmp_path / "sig.json"
        sig_path.write_text(json.dumps(payload))
        cfg = write_config(tmp_path, base_config())
        assert run("rates", cfg, tmp_path / "r", "--signal-file", str(sig_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: bad signal file") and err.count("\n") == 1

    @staticmethod
    def assert_config_error(tmp_path, capsys, sub, cfg_text, *extra):
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text)
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(sub, str(path), out, *extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, err
        assert not (out / "summary.json").exists()

    @classmethod
    def assert_field_error(cls, tmp_path, capsys, sub, field, literal):
        """Sets ``field`` (a key path) of the base config to the raw JSON
        ``literal``."""
        cfg = base_config(K_grid={"count": 4})
        if sub == "duality-grid":
            del cfg["K"]
        node = cfg
        for key in field[:-1]:
            node = node[key]
        node[field[-1]] = "FIELD"
        cls.assert_config_error(tmp_path, capsys, sub,
                                json.dumps(cfg).replace('"FIELD"', literal))

    @pytest.mark.parametrize("sub, field", [
        ("rates", ("seed",)), ("rates", ("family", "size")),
        ("rates", ("family", "n_periods")), ("rates", ("family", "max_switches")),
        ("rates", ("family", "time_grid")), ("invariant-set", ("seed",)),
        ("duality-grid", ("K_grid", "count")), ("spin-audit", ("seeds",))])
    def test_overflowing_integer_is_config_error(self, tmp_path, capsys, sub, field):
        """A JSON 1e400 parses as inf, which no integer field accepts."""
        self.assert_field_error(tmp_path, capsys, sub, field, "1e400")

    @pytest.mark.parametrize("sub, field, literal", [
        # integer fields take integral numbers only
        ("rates", "seed", "1.5"), ("rates", "seed", "true"),
        ("rates", "family.size", "2.7"), ("rates", "family.n_periods", '"4"'),
        ("duality-grid", "K_grid.count", "true"), ("spin-audit", "seeds", "2.5"),
        ("rates", "family.include_constants", '"false"'),
        ("rates", "family.include_constants", "0"),
        # float fields take finite numbers only
        ("duality-grid", "K_grid.scale", "1e400"), ("duality-grid", "K_grid.scale", "NaN"),
        ("lie-check", "lambda", "NaN"), ("lie-check", "lambda", "1e400"),
        ("lie-check", "lambda", "-Infinity"), ("rates", "T", "true"),
        # the control range is a subinterval of [0, 1] with lo < hi
        ("invariant-set", "control_range", "[0.5, 0.2]"),
        ("invariant-set", "control_range", "[0.2, 1.5]"),
        ("invariant-set", "control_range", "[NaN, 1]"),
        ("invariant-set", "control_range", "[0.2, 0.2]"),
        ("invariant-set", "control_range", "[1.0, 0.5]"),
        ("invariant-set", "control_range", "[0.1, 0.5, 0.9]"),
        ("invariant-set", "control_range", '"12"'),
        ("invariant-set", "mu", "1.0")])  # mu == T leaves the range [1, 1]
    def test_malformed_field_is_config_error(self, tmp_path, capsys, sub, field, literal):
        self.assert_field_error(tmp_path, capsys, sub, tuple(field.split(".")), literal)

    @pytest.mark.parametrize("tol", [float("nan"), -1e-8, float("inf")])
    def test_meaningless_tolerance_is_config_error(self, tmp_path, capsys, tol):
        self.assert_config_error(tmp_path, capsys, "duality",
                                 json.dumps(base_config(tolerance=tol)))

    @pytest.mark.parametrize("divisor", [0.0, float("inf"), float("nan")])
    def test_meaningless_trace_divisor_is_config_error(self, tmp_path, capsys, divisor):
        self.assert_config_error(tmp_path, capsys, "acc-cert",
                                 json.dumps(base_config(trace_divisor=divisor)))

    @pytest.mark.parametrize("sub", ["rates", "acc-cert", "spin-audit"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, sub):
        self.assert_config_error(tmp_path, capsys, sub, json.dumps(base_config(seed=-1)))
        self.assert_config_error(tmp_path, capsys, sub, json.dumps(base_config()), "--seed", "-3")

    def test_linalg_error_is_numerical(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(rates, "duality_check", fail)
        assert run("duality", write_config(tmp_path, base_config()), tmp_path / "d") == 3
        assert capsys.readouterr().err == "numerical diagnostic: SVD did not converge\n"


def _entries(lo, hi, n):
    return st.lists(st.floats(lo, hi, allow_nan=False, width=32), min_size=n, max_size=n)


# Each is applied on its own to otherwise valid configs.
EDGES = {
    "none": {},
    "family size 0": {"family": {"size": 0}},
    "one-cell family grid": {"family": {"size": 3, "n_periods": 1, "time_grid": 1}},
    "n_periods 0": {"family": {"size": 2, "n_periods": 0}},
    "grid count 0": {"K_grid": {"count": 0}},
    "resolution 0": {"resolution": 0},
    "resolution 1": {"resolution": 1},
    "mu 0": {"mu": 0.0},
    "mu above T": {"mu": 1.5},
    "seeds 0": {"seeds": 0},
    "empty control range": {"control_range": [0.5, 0.5]},
}


@st.composite
def small_configs(draw):
    """Planar configs with small families, at ordinary and stiff scales."""
    scale = draw(st.sampled_from([1.0, 30.0, 0.0]))
    return {
        "schema": "1",
        "pair": {"A": {"rows": 2, "cols": 2, "data": [scale * x for x in draw(_entries(-1, 1, 4))]},
                 "B": {"rows": 2, "cols": 1, "data": [scale * x for x in draw(_entries(-1, 1, 2))]}},
        "K": {"rows": 1, "cols": 2, "data": draw(_entries(-3, 3, 2))},
        "T": 1.0,
        "mu": draw(st.sampled_from([0.4, 0.9])),
        "family": {"size": draw(st.integers(1, 3))},
        "K_grid": {"count": draw(st.integers(1, 2)), "scale": draw(st.sampled_from([1.0, 50.0]))},
        "resolution": 16,
        "seeds": 1,
        "seed": draw(st.integers(0, 3)),
    }


@pytest.mark.parametrize("edge", sorted(EDGES))
@settings(max_examples=3, deadline=None, derandomize=True)
@given(cfg=small_configs())
def test_every_config_maps_to_a_documented_exit(edge, cfg):
    cfg.update(EDGES[edge])
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), cfg)
        for sub in cli.SUBCOMMANDS:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run(sub, path, Path(tmp) / sub)
            assert code in (0, 2, 3, 4), (sub, code)
            assert "Traceback" not in err.getvalue()
            assert err.getvalue().count("\n") <= 1, err.getvalue()


def test_parser_is_built_once_and_keeps_no_state(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, base_config())
    sig_path = tmp_path / "sig.json"
    sig_path.write_text(json.dumps({"signals": [
        {"breakpoints": [0.0], "values": [1.0], "period": 1.0}]}))
    build_parser, built = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    try:
        assert run("rates", cfg, tmp_path / "r", "--seed", "99", "--signal-file",
                   str(sig_path)) == 0
        assert run("duality", cfg, tmp_path / "d") == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    rates_summary = json.loads((tmp_path / "r" / "summary.json").read_text())
    assert (rates_summary["seed"], rates_summary["n_signals"]) == (99, 1)
    summary = json.loads((tmp_path / "d" / "summary.json").read_text())
    assert summary["seed"] == 7
    assert len((tmp_path / "d" / "duality.csv").read_text().splitlines()) == 1 + 12


def test_unknown_config_schema(tmp_path):
    cfg = write_config(tmp_path, base_config(schema="2"))
    assert run("duality", cfg, tmp_path / "z") == 2


def test_missing_config_file(tmp_path):
    assert cli.main(["duality", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2


def test_python_dash_m_entry_point(tmp_path):
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    help_run = subprocess.run([sys.executable, "-m", "pegrowth", "--help"], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)
    assert help_run.returncode == 0, help_run.stderr
    assert "lie-check" in help_run.stdout
    missing = subprocess.run([sys.executable, "-m", "pegrowth", "lie-check", "--config",
                              str(tmp_path / "nope.json"), "--out", str(tmp_path)],
                             cwd=tmp_path, env=env, capture_output=True, text=True,
                             timeout=120)
    assert missing.returncode == 2, missing.stderr
