import contextlib
import hashlib
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

from oracles import matrix_to_json
from pegrowth import cli, projective, rates, signals
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

    def test_huge_lambda_keeps_the_larc_rank(self, tmp_path):
        # BK is traceless, so the identity direction of Lie(A + lambda I, BK)
        # comes from A + lambda I alone, whose Frobenius norm must not overflow
        rng = np.random.default_rng(0)
        a, b, k = (rng.standard_normal(shape) for shape in ((3, 3), (3, 1), (1, 3)))
        k -= (k @ b) / (b.T @ b) * b.T
        for lam in (0.0, 1e150, 1e160):
            cfg = base_config(pair={"A": matrix_to_json(a), "B": matrix_to_json(b)},
                              K=matrix_to_json(k), **{"lambda": lam})
            out = tmp_path / f"l{lam:g}"
            assert run("lie-check", write_config(tmp_path, cfg), out) == 0
            summary = json.loads((out / "summary.json").read_text())
            larc = summary["certificates"]["larc_shifted"]
            assert (larc["dim"], larc["verdict"], summary["chain"]["lambda"]) == (9, True, lam)


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

    def test_plarc_failure_flagged(self, tmp_path, capsys):
        for a, detail in ((np.diag([1.0, 2.0]), "closure dim 1, rank-deficient at 2 of 2"),
                          (np.zeros((2, 2)), "closure dim 0, rank-deficient at 0 of 0")):
            cfg = base_config()
            cfg["pair"]["A"] = matrix_to_json(a)
            cfg["pair"]["B"] = matrix_to_json(np.zeros((2, 1)))
            cfg["K"] = matrix_to_json(np.zeros((1, 2)))
            cfg["resolution"] = 256
            path = write_config(tmp_path, cfg)
            out = tmp_path / "na"
            assert run("invariant-set", path, out) == 3
            assert json.loads((out / "summary.json").read_text())["applicable"] is False
            assert capsys.readouterr().err == (
                "numerical diagnostic: the invariant control set needs PLARC, which fails "
                f"({detail} sampled directions)\n")


class TestSpinAudit:
    def test_audit(self, tmp_path):
        cfg = write_config(tmp_path, base_config(seeds=6))
        out = tmp_path / "sp"
        assert run("spin-audit", cfg, out) == 0
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
        passes = []  # the row count of every excitation pass
        least_windows = signals._least_windows

        def counted(layout, cls):
            passes.append(len(layout[0]))
            return least_windows(layout, cls)

        monkeypatch.setattr(signals, "_least_windows", counted)
        family = rates.bang_bang_family(SignalClass(1.0, 0.4),
                                        rates.SearchBudget(size=60, seed=7))
        in_family = list(passes)
        passes.clear()
        assert run("duality-grid", self.grid_config(tmp_path), tmp_path / "g") == 0
        # The family's own passes, then the whole mirror in one.
        assert passes == in_family + [len(family)]

    @staticmethod
    def spy_draws(monkeypatch):
        """The size of every ``standard_normal`` call on a generator that
        ``np.random.default_rng`` makes; a second call fails at once."""
        sizes = []
        default_rng = np.random.default_rng

        class Spy:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def standard_normal(self, size):
                sizes.append(size)
                assert len(sizes) == 1, "the gains take one draw"
                return self.rng.standard_normal(size)

        monkeypatch.setattr(np.random, "default_rng", lambda seed=None: Spy(default_rng(seed)))
        return sizes

    def test_gains_in_one_draw(self, tmp_path, monkeypatch):
        sizes = self.spy_draws(monkeypatch)
        assert run("duality-grid", self.grid_config(tmp_path), tmp_path / "g") == 0
        assert sizes == [(8, 1, 2)]

    def test_grid_no_host_can_hold_is_config_error(self, tmp_path, capsys, monkeypatch):
        # 2^45 gains of shape (1, 2) are 512 TiB, more than the address
        # space: the one draw fails to allocate before it writes anything
        sizes = self.spy_draws(monkeypatch)
        cfg = base_config(K_grid={"count": 2**45, "scale": 1.0})
        del cfg["K"]
        assert run("duality-grid", write_config(tmp_path, cfg), tmp_path / "g") == 2
        assert sizes == [(2**45, 1, 2)]
        err = capsys.readouterr().err
        assert err.startswith("config error: the run needs more memory than it can get: "
                              "Unable to allocate 512. TiB") and err.count("\n") == 1

    def test_rd_mirror_is_evaluated_on_its_own_path(self, tmp_path, monkeypatch):
        mirror_family = rates.mirror_family

        def perturbed(family):
            # Raises every value by 1e-6 of its distance to 1, which keeps
            # the signals PE and their durations consistent.
            return [PESignal.from_segments(zip(r.values + 1e-6 * (1.0 - r.values), r.durations),
                                           period=r.period) for r in mirror_family(family)]

        monkeypatch.setattr(rates, "mirror_family", perturbed)
        out = tmp_path / "g"
        assert run("duality-grid", self.grid_config(tmp_path), out) == 4
        assert not json.loads((out / "summary.json").read_text())["per_gain_equal"]


class TestGoldenOutputs:
    """``duality-grid`` on the committed benchmark configs writes the bytes
    recorded here: sha256 of ``grid.csv`` and of ``summary.json`` per config
    and seed.  A change that is meant to be faster only must keep them."""

    CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"
    DIGESTS = {
        ("chain_d2_mu0.40", 1): ("c0e02b855841c00233244b3ae4a9e9c7fa3e9f5b395234ef49addcf02f966f4c",
                                 "ec0d8f4f84a0a1fbfb2d04d56e305af417186f3b732feba1ddeaed0adcb368c5"),
        ("chain_d2_mu0.40", 2): ("cd8d47b33c19bb316e2e3f574cedca7de34b083dadf9d5c3f0502fa2ad414458",
                                 "3aaa64bf0d7187d2fbcd3a71f66f581495487d9a357f01d86e8c16c8038084e6"),
        ("chain_d2_mu0.95", 1): ("6e737000d7790e7e6e73b16ab74f2b291657188ce81477d616aa7537df1bfa8f",
                                 "c0be6bcf3ff0d51cbc9ace20755d13a3a317c2d69e5d3816d3f70a3d43bc5bf4"),
        ("chain_d2_mu0.95", 2): ("de88f07cedbc0ae8fd3c6a30b28cad6b723467f8ae8053652c96375b52c79e44",
                                 "163323215db51498f7891f1d85c10f400e0540d60857a3525ddfc0bc4a18ffe7"),
        ("chain_d3_mu0.40", 1): ("272119bcd474584839c13f71898d0f2ae36c7178e87e16c750da32d446adf5fe",
                                 "4cc3015498cc3f1e6dd3d452d14c1fa54b6202b7e25cf8640f28fd154d515829"),
        ("chain_d3_mu0.40", 2): ("a86d6b5964d9969172819a7774ce9b7d8b1fa8abe851c01b07c55ed5e9b2fd99",
                                 "68a771e3297cc2f4567699e87eccf295bdf410df3469cd48a1ab2335b48f7c98"),
        ("chain_d3_mu0.95", 1): ("b18b67f9b8d72626d4fa233a9a33435669a49fdfba84b5ad5837b2a853a52dc4",
                                 "b23f91f3c0ca9690dcea0a8eecd406c754f701ff281233145e6478ef9dfda997"),
        ("chain_d3_mu0.95", 2): ("76211bade5c0759b76a47b2bf3387c6fa198814ce030f3429014b810babe0ab6",
                                 "14cdbe903dc965e1c0f3295531996284248db0b208d2d88eee518b29e2584a1f"),
        ("chain_d4_mu0.40", 1): ("9c0be7dd15a0078940d2c4c689d751fe634a09a9f5916b355a1d4f3a0c5db8f7",
                                 "f7cc5cc320045f7072d0ae3b10181bf85c499fd6bcc6a059d9e81cdaae2e7c70"),
        ("chain_d4_mu0.40", 2): ("3886205b260601586b02c42753396fe475c90357ecf4b6af6164693fae5754bd",
                                 "5c5db9a5b147976cebb6c93f9593319ea1134127bda94a606d4c0fec4e41777a"),
        ("chain_d4_mu0.95", 1): ("4f21f9bb776fea857d139119e45f3a322359b058f56780a7274e9118619d4e2c",
                                 "b2d6ab7bf98aa7ca21ec02cfe8d67d738a44284021ad59cf0e18f118cbc39cfa"),
        ("chain_d4_mu0.95", 2): ("3886205b260601586b02c42753396fe475c90357ecf4b6af6164693fae5754bd",
                                 "2a63a1e457fc69448556ffc30b8eb7f6502e69d2c55ca43a73a8537ffd3b73cc"),
    }

    @pytest.mark.parametrize("name, seed", sorted(DIGESTS))
    def test_duality_grid_bytes(self, tmp_path, name, seed):
        out = tmp_path / "g"
        assert cli.main(["duality-grid", "--config", str(self.CONFIGS / f"{name}.json"),
                         "--seed", str(seed), "--out", str(out)]) == 0
        digests = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                        for f in ("grid.csv", "summary.json"))
        assert digests == self.DIGESTS[name, seed]


def seeded_triple(d, seed, scale):
    """One triple of the benchmark's triple_sweep recipe."""
    rng = np.random.default_rng(seed)
    return (scale * rng.standard_normal((d, d)) / np.sqrt(d), rng.standard_normal((d, 1)),
            scale * rng.standard_normal((1, d)) / np.sqrt(d))


class TestGoldenRunnerOutputs:
    """Five more subcommands write the bytes recorded here, on configs the
    test writes: c12, the chain pair, the stiff triple (whose absolute
    duality residual exits 4) and one seeded d = 6 triple.  Each entry is
    the exit code and the sha256 of every file the run writes."""

    TRIPLES = {
        "c12": ([[1.0, 0.0], [0.0, -1.0]], [[1.0], [1.0]], [[-0.6, 0.2]]),
        "chain": ([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[-2.0, -3.0]]),
        "stiff": ([[-10.0, 1.0], [0.0, -20.0]], [[0.0], [1.0]], [[-2.0, -3.0]]),
        "d6": seeded_triple(6, 6, 2.0),
    }
    RUNS = [(name, sub) for name in TRIPLES
            for sub in ("lie-check", "acc-cert", "rates", "duality")] + [("c12", "spin-audit")]
    OUTPUTS = {
        ("c12", "lie-check"): (0, {
            "summary.json": "c19334bb78805d99d17e984106a6a3e3bc7baf129b05ed93905f1d1bccf1db64",
        }),
        ("c12", "acc-cert"): (0, {
            "summary.json": "f9df29d8bd6fc2b96e5a33725d8a65dc308364406a89e648b1d018a0a404516a",
        }),
        ("c12", "rates"): (0, {
            "rates.csv": "e1fdff0916be33d6731318b85f0e6135c671a6511b95a30eefbdf72b555f7175",
            "summary.json": "900c7584809a9252f822ec75d29e4f2056f96b2055e8200762b2f742eccbe6e4",
        }),
        ("c12", "duality"): (0, {
            "duality.csv": "2c2ba328f88bfab5800438c23537e422ac0f0cc20cb2e917966791d31d6eec4d",
            "summary.json": "ba31aa67d789e3604b77710fd7c581c9190761e271bdca5212252c2739cf3ffd",
        }),
        ("chain", "lie-check"): (0, {
            "summary.json": "581a053a66bd039061799c4449731e20e7cdf62c5a73b710d77253c57bc31eb3",
        }),
        ("chain", "acc-cert"): (0, {
            "summary.json": "aa99260981f2035d086e9fcedf5821010c7549de6e0981a30cb1034ad1afa924",
        }),
        ("chain", "rates"): (0, {
            "rates.csv": "abe2970b81bfda7519781bf02614b9147f2ca75117aa8c83236efc123aaa72bd",
            "summary.json": "448669df437ab0f2002f240be8e8bfd82f35bdabe0ffe1596910c4311059dd30",
        }),
        ("chain", "duality"): (0, {
            "duality.csv": "946a5f3a35e8afbb42db660131983d9110515b7cd8c68546063f7dd8887938ef",
            "summary.json": "ab01b69370f2c528e83a64b6ef7b28897782d6717368faf25a1d46d57bb2221b",
        }),
        ("stiff", "lie-check"): (0, {
            "summary.json": "07ac5c439647e2f92b92fbd0d600441ef5248a450d14c473a2b2bd862d3b483c",
        }),
        ("stiff", "acc-cert"): (0, {
            "summary.json": "823c6e545a38b643416a1bff7398b192270135cc6ac02de9114482442dd53dd5",
        }),
        ("stiff", "rates"): (0, {
            "rates.csv": "ce3ced482f8da22d9a339f868d8e13df7fd034e1edfd869d319ece900bca0d9a",
            "summary.json": "1a613b116d8af5358392a57a3cfd2bae3e8a4344f0574ef95d0ed38af3617a41",
        }),
        ("stiff", "duality"): (4, {
            "duality.csv": "fc45d7fee1180f7b840888df8cd02152fdec8a5d6e7656c4ad4f6a57699a26e0",
            "summary.json": "94a0853f36dc3dc906f3ee76fa6d58305c4fb684c0a7bd35a3d7583dd370171e",
        }),
        ("d6", "lie-check"): (0, {
            "summary.json": "bbd06f4f3b8eeaebf8dbc9d276237de7fcd82e81ad6412bdb980539de1e0720e",
        }),
        ("d6", "acc-cert"): (0, {
            "summary.json": "761c80adb5c799ed859742dd136665491bc983c6e85a46d83430114906ecbd51",
        }),
        ("d6", "rates"): (0, {
            "rates.csv": "3d3e31ba4f91eff258a910a6331097e1c59e1f5248a22d9cb1fb4c51f9ca2c5c",
            "summary.json": "cd28d7015101547ee19be4c63364061f21097de3677d04ee4761353d972892a1",
        }),
        ("d6", "duality"): (4, {
            "duality.csv": "52698a6f42dae32797eceaecf768ff081bc1f1deee8784154adaf0ad81b522f9",
            "summary.json": "c0a0b0116b81bba8808fd7e7a32672c46f0bb50125e936856c423cd3e2000b96",
        }),
        ("c12", "spin-audit"): (0, {
            "spin.csv": "371e22e4278a85220681983ff6008cbf03ff0793e5ace6dfcfdd04917a6c4327",
            "summary.json": "4f43977f595059819e3c42ce0377be1f9cc05cf1726e1e4780747515f6b52bb8",
        }),
    }

    def config(self, tmp_path, name):
        a, b, k = (np.asarray(m, dtype=float) for m in self.TRIPLES[name])
        cfg = {"schema": "1", "pair": {"A": matrix_to_json(a), "B": matrix_to_json(b)},
               "K": matrix_to_json(k), "T": 1.0, "mu": 0.4, "family": {"size": 12},
               "seed": 3, "seeds": 6}
        return write_config(tmp_path, cfg, f"{name}.json")

    def outputs(self, tmp_path, name, sub):
        out = tmp_path / "o"
        code = run(sub, self.config(tmp_path, name), out)
        return code, {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                      for f in sorted(out.iterdir())}

    @pytest.mark.parametrize("name, sub", RUNS)
    def test_bytes(self, tmp_path, name, sub):
        assert self.outputs(tmp_path, name, sub) == self.OUTPUTS[name, sub]

    @pytest.mark.parametrize("sub", ["lie-check", "acc-cert", "rates", "duality", "spin-audit"])
    def test_config_error_writes_no_summary(self, tmp_path, capsys, sub):
        # the runner itself rejects these: no gain, no draws
        cfg = base_config(seeds=0)
        del cfg["K"]
        out = tmp_path / "o"
        assert run(sub, write_config(tmp_path, cfg), out) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert out.is_dir() and not any(out.iterdir())


class TestValidateOnce:
    """A budget family is validated once, inside ``bang_bang_family``; the
    CLI hands the budget to the library, which trusts the family it builds.
    The mirrored family and explicit signals are still validated, each list
    in one pass."""

    SIGNALS = [{"breakpoints": [0.0], "values": [1.0], "period": 1.0},
               {"breakpoints": [0.0, 0.5], "values": [1.0, 0.0], "period": 1.0},
               {"breakpoints": [0.0, 0.25, 1.0], "values": [1.0, 0.4, 1.0], "period": 1.5}]

    @staticmethod
    def counter(monkeypatch):
        """Counts the rows that excitation passes check inside and outside
        the family, and the passes outside it.  Every check, of one signal,
        a list or the family's candidate rows, is a pass of
        ``signals._least_windows``."""
        calls = {"family": 0, "other": 0, "passes": 0}
        inside = []
        least_windows, build = signals._least_windows, rates.bang_bang_family

        def counted(layout, cls):
            calls["family" if inside else "other"] += len(layout[0])
            calls["passes"] += not inside
            return least_windows(layout, cls)

        def family(*args, **kwargs):
            inside.append(True)
            try:
                return build(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(signals, "_least_windows", counted)
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
        assert calls["family"] > 0 and calls["other"] == n and calls["passes"] == 1

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

    def test_bad_signals_listed_in_order(self, tmp_path, capsys):
        """Aperiodic and non-PE entries are listed together, in order."""
        weak = {"breakpoints": [0.0, 0.1], "values": [1.0, 0.0], "period": 1.0}
        loose = {"breakpoints": [0.0], "values": [1.0], "period": None}
        sigs = [weak, self.SIGNALS[0], loose, weak, self.SIGNALS[1]]
        assert run("rates", write_config(tmp_path, base_config(signals=sigs)), tmp_path / "x") == 2
        err = capsys.readouterr().err
        assert err == "config error: signals [0, 2, 3] are not periodic PE signals for this class\n"


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

    @pytest.mark.parametrize("blocked", ["out", "parent", "rates.csv", "summary.json"])
    def test_unwritable_output_is_config_error(self, tmp_path, capsys, blocked):
        # a file where --out or one of its parents should be a directory, or a
        # directory where an output file goes
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "o"
        if blocked in ("out", "parent"):
            out.write_text("")
            out = out / "sub" if blocked == "parent" else out
        else:
            (out / blocked).mkdir(parents=True)
        assert run("rates", cfg, out) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write output: ") and err.count("\n") == 1

    def test_memory_error_is_config_error(self, tmp_path, capsys, monkeypatch):
        # numpy's error for an array too large to allocate, raised without
        # allocating anything
        def fail(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.11 PiB for an array with shape "
                              "(1, 1000000000000016) and data type int64")

        monkeypatch.setattr(rates, "_family_product", fail)
        cfg = base_config(K_grid={"count": 2, "scale": 1.0}, family={"time_grid": 10**15})
        del cfg["K"]
        assert run("duality-grid", write_config(tmp_path, cfg), tmp_path / "g") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: the run needs more memory than it can get: "
                              "Unable to allocate") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_family_no_host_can_hold_is_config_error(self, tmp_path, capsys, monkeypatch):
        # 10^15 switches on 10^16 cells per window: at seed 1 the first cut
        # draw takes more than a fiftieth of two windows' cells, so it lays
        # out all of them as int64, as numpy's draw does (142 PiB).  The
        # layout fails here without allocating anything.
        arange = np.arange

        def layout(n, *args, **kwargs):
            if isinstance(n, int) and n > 2**40:
                raise MemoryError(f"Unable to allocate 142 PiB for an array with shape ({n},) "
                                  "and data type int64")
            return arange(n, *args, **kwargs)

        monkeypatch.setattr(np, "arange", layout)
        cfg = base_config(family={"max_switches": 10**15, "time_grid": 10**16})
        assert run("rates", write_config(tmp_path, cfg), tmp_path / "r", "--seed", "1") == 2
        assert capsys.readouterr().err == (
            "config error: the run needs more memory than it can get: Unable to allocate 142 PiB "
            "for an array with shape (19999999999999999,) and data type int64\n")

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
    def test_empty_signals_is_config_error(self, tmp_path, capsys, sub):
        """An explicit empty list is an empty family, not a request for the
        budget's family."""
        assert run(sub, write_config(tmp_path, base_config(signals=[])), tmp_path / "s") == 2
        err = capsys.readouterr().err
        assert err == "config error: bad signals entry: signals must be a non-empty JSON list\n"

    @pytest.mark.parametrize("sub", ["rates", "duality", "duality-grid"])
    def test_signals_not_a_list_is_config_error(self, tmp_path, capsys, sub):
        for signals in (5, {"period": 1.0}):
            cfg = write_config(tmp_path, base_config(signals=signals))
            assert run(sub, cfg, tmp_path / "s") == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: bad signals entry") and err.count("\n") == 1

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
        # a family candidate switches at least twice a period
        ("rates", "family.max_switches", "1"), ("rates", "family.max_switches", "0"),
        ("rates", "family.include_constants", "0"),
        # a candidate's cells are counted in int64
        ("rates", "family.time_grid", "10000000000000000000"),
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
        ("invariant-set", "mu", "1.0"),  # mu == T leaves the range [1, 1]
        # json.loads refuses an integer literal past the str-int digit limit
        pytest.param("duality-grid", "seed", "9" * 5000, id="duality-grid-seed-5000-digits"),
        # matrix sizes and entries and signal entries follow the rule of the
        # scalar keys: no strings, booleans, fractional sizes or nested lists
        ("rates", "pair.A", '{"rows": "2", "cols": 2.9, "data": [0, 1, true, "0"]}'),
        ("rates", "pair.A.rows", '"2"'), ("rates", "pair.A.cols", "2.9"),
        ("rates", "pair.A.data", "[0, 1, true, 0]"), ("rates", "pair.A.data", "[[0, 1], [0, 0]]"),
        pytest.param("rates", "pair.A.data", "[0, 1, 0, 1" + "0" * 400 + "]",
                     id="rates-pair.A.data-integer-past-the-float-range"),
        ("rates", "pair.B.data", '["0", 1]'), ("rates", "K.cols", '"2"'),
        ("rates", "K.data", "[-2, true]"),
        ("rates", "signals", '[{"breakpoints": [0], "values": [1], "period": true}]'),
        ("rates", "signals", '[{"breakpoints": [0], "values": ["1"], "period": 1}]'),
        ("rates", "signals", '[{"breakpoints": ["0"], "values": [1], "period": 1}]')])
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
    signal_cfg = write_config(tmp_path, base_config(signals=[
        {"breakpoints": [0.0], "values": [1.0], "period": 1.0}]), "signals.json")
    build_parser, built = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    try:
        assert run("rates", signal_cfg, tmp_path / "r", "--seed", "99") == 0
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


SCIPY_PROBE = """
import json, sys
from pathlib import Path
from pegrowth import cli

cfg, out = sys.argv[1], Path(sys.argv[2])
codes = {sub: cli.main([sub, "--config", cfg, "--out", str(out / sub)])
         for sub in ("lie-check", "acc-cert", "invariant-set", "spin-audit")}
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
codes["rates"] = cli.main(["rates", "--config", cfg, "--out", str(out / "rates")])
print(json.dumps({"codes": codes, "loaded": loaded,
                  "after_rates": "scipy.linalg" in sys.modules}))
"""


def test_rank_subcommands_never_import_scipy(tmp_path):
    """``import pegrowth`` and the rank, planar and spin subcommands load no
    scipy module; ``rates`` then loads ``scipy.linalg`` for its first
    ``expm``.  One fresh interpreter, on c12 with a small family."""
    cfg = write_config(tmp_path, {
        "schema": "1", "pair": {"A": matrix_to_json(np.diag([1.0, -1.0])),
                                "B": matrix_to_json(np.ones((2, 1)))},
        "K": matrix_to_json(np.array([[-0.6, 0.2]])), "T": 1.0, "mu": 0.4,
        "family": {"size": 4},
        "seed": 3, "seeds": 2})
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    probe = subprocess.run([sys.executable, "-c", SCIPY_PROBE, cfg, str(tmp_path)],
                           cwd=tmp_path, env=env, capture_output=True, text=True,
                           timeout=120)
    assert probe.returncode == 0, probe.stderr
    result = json.loads(probe.stdout)
    assert result["codes"] == {"lie-check": 0, "acc-cert": 0, "invariant-set": 0,
                               "spin-audit": 0, "rates": 0}
    assert result["loaded"] == []
    assert result["after_rates"]
