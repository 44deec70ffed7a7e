import math

import numpy as np
import pytest

from chdbc import experiments as ex
from chdbc.cli import main
from chdbc.discretization import Interval
from chdbc.errors import ConfigError
from chdbc.solver import simulate


class TestConfigParsing:
    def test_roundtrip(self):
        text = "solver.dt = 1e-2  # comment\n\n# full line comment\nseed = 7\n"
        cfg = ex.parse_config(text)
        assert cfg == {"solver.dt": "1e-2", "seed": "7"}

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            ex.parse_config("solver.dx = 1\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            ex.parse_config("just words\n")

    def test_resolve_fills_defaults(self):
        cfg = ex.resolve_config({"solver.dt": "1e-2"}, seed=3)
        assert cfg["seed"] == "3"
        assert cfg["domain.kind"] == "interval"

    def test_bad_experiment_kind(self):
        with pytest.raises(ConfigError):
            ex.resolve_config({"experiment.kind": "frobnicate"})

    def test_bad_number(self):
        cfg = ex.resolve_config({"solver.dt": "fast"})
        with pytest.raises(ConfigError):
            ex.build_solver_config(cfg)


class TestManifest:
    def test_manifest_is_valid_config(self, tmp_path):
        cfg = ex.resolve_config({"solver.dt": "1e-2"}, seed=5)
        path = ex.write_manifest(cfg, tmp_path)
        reparsed = ex.parse_config(open(path).read())
        assert reparsed == cfg

    def test_version_stamp(self, tmp_path):
        from chdbc import __version__
        path = ex.write_manifest(ex.resolve_config(), tmp_path)
        assert __version__ in open(path).read()


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense.key = 1\n")
        assert main(["simulate", "--config", str(bad),
                     "--outdir", str(tmp_path / "o")]) == 2

    def test_config_kind_other_than_subcommand_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "k.cfg"
        cfg.write_text("experiment.kind = decay\n")
        assert main(["simulate", "--config", str(cfg),
                     "--outdir", str(tmp_path / "o")]) == 2
        assert "experiment.kind" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_manifest_replays_with_its_subcommand(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("domain.n = 24\nsolver.dt = 1e-2\nexperiment.T = 0.05\n")
        assert main(["simulate", "--config", str(cfg),
                     "--outdir", str(tmp_path / "a")]) == 0
        manifest = tmp_path / "a" / "manifest.txt"
        assert "experiment.kind = simulate" in manifest.read_text()
        assert main(["simulate", "--config", str(manifest),
                     "--outdir", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "diagnostics.csv").read_bytes() == \
            (tmp_path / "b" / "diagnostics.csv").read_bytes()

    def test_missing_config_file_is_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                     "--outdir", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("key, value", [
        ("potential.kind", "foo"), ("solver.dt", "-1"), ("solver.dt", "nan"),
        ("solver.N", "1"), ("domain.n", "3"), ("potential.kappa1", "-1"),
        ("experiment.T", "0.0105"), ("experiment.cadence", "0.0025"),
        ("experiment.amplitude", "nan"), ("solver.newton_tol", "nan"),
        ("solver.newton_tol", "0"), ("solver.lam", "nan"), ("forcing.h1", "inf"),
        ("solver.newton_max_iter", "0"), ("experiment.cadence", "abc"),
        ("experiment.eps", "0"), ("experiment.eps", "-1e-3"),
        ("experiment.eps", "1e-2,abc"), ("experiment.eps", "1e-2,inf"),
        ("experiment.eps", ""), ("experiment.eps", "1e-3,1e-3"),
        ("experiment.ensemble", "0"), ("experiment.ensemble", "1"),
        ("experiment.n_levels", "0"), ("domain.b", "-2.0"), ("domain.a", "1.0"),
        ("domain.a", "nan"), ("domain.b", "inf"), ("domain.a", "-inf"),
        ("domain.Lx", "-2.0"), ("domain.Lx", "0"), ("domain.Lx", "nan"),
        ("domain.Lx", "inf"), ("forcing.h2", "nan"), ("forcing.h2", "inf"),
        ("boundary.a", "nan"), ("potential.kappa1", "inf"),
        ("potential.kappa", "inf"), ("experiment.h2_violating", "nan")])
    def test_bad_value_is_2(self, tmp_path, capsys, key, value):
        # each key is read by the subcommands that use it: a potential key by
        # stationary too
        command = {"experiment.eps": "lipschitz", "experiment.ensemble": "decay",
                   "experiment.n_levels": "converge-n",
                   "experiment.h2_violating": "sign-condition"}.get(key, "simulate")
        commands = [command, "stationary"] if key.startswith("potential.") \
            else [command]
        # and some only where another key selects them
        context = {"domain.Lx": "domain.kind = strip\n",
                   "boundary.a": "boundary.g = tanh\n",
                   "potential.kappa": "potential.kind = power\n"}.get(key, "")
        for command in commands:
            # converge-n rejects an experiment.T it does not read
            T = "" if command == "converge-n" else "experiment.T = 0.01\n"
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"domain.n = 16\n{T}{context}{key} = {value}\n")
            rc = main([command, "--config", str(cfg),
                       "--outdir", str(tmp_path / "o")])
            assert rc == 2, command
            err = capsys.readouterr().err
            assert err.startswith("config error:"), (command, err)
            if command == "converge-n":
                assert "experiment.n_levels" in err

    @pytest.mark.parametrize("command, key, value", [
        ("converge-n", "experiment.T", "0.02"),
        ("converge-n", "experiment.cadence", "0.01"),
        ("converge-n", "solver.N", "64"),
        ("separation", "solver.N", "64"),
        ("sign-condition", "solver.N", "16")])
    def test_unread_key_is_2(self, tmp_path, capsys, command, key, value):
        # the driver sets these itself, so a value for one would be ignored
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"domain.n = 33\nsolver.dt = 1e-2\n{key} = {value}\n")
        assert main([command, "--config", str(cfg),
                     "--outdir", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unread_key_at_its_default_replays(self, tmp_path):
        # compared parsed: 0.10 is the default T, and a manifest lists all keys
        cfg = tmp_path / "run.cfg"
        cfg.write_text("domain.n = 16\nsolver.dt = 5e-2\nexperiment.T = 0.10\n"
                       "solver.N = 8\nexperiment.n_levels = 1\n")
        assert main(["converge-n", "--config", str(cfg),
                     "--outdir", str(tmp_path / "a")]) == 0
        assert main(["converge-n", "--config",
                     str(tmp_path / "a" / "manifest.txt"),
                     "--outdir", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "converge_n.csv").read_bytes() == \
            (tmp_path / "b" / "converge_n.csv").read_bytes()

    def test_lipschitz_eps_below_resolution_is_2(self, tmp_path, capsys):
        # 1e-300 times the mode leaves every start value as it was
        cfg = tmp_path / "run.cfg"
        cfg.write_text("domain.n = 24\nsolver.dt = 1e-2\nexperiment.T = 0.05\n"
                       "experiment.eps = 1e-2,1e-300\n")
        assert main(["lipschitz", "--config", str(cfg),
                     "--outdir", str(tmp_path / "o")]) == 2
        assert "experiment.eps" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-1", "two"])
    def test_bad_workers_is_2(self, tmp_path, capsys, workers):
        with pytest.raises(SystemExit) as info:
            main(["decay", "--workers", workers,
                  "--outdir", str(tmp_path / "o")])
        assert info.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["simulate", "stationary"])
    def test_workers_on_single_run_is_2(self, tmp_path, capsys, command):
        # one run has nothing to fan out, so the flag is not accepted
        with pytest.raises(SystemExit) as info:
            main([command, "--workers", "2", "--outdir", str(tmp_path / "o")])
        assert info.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_stationary_ok_is_0(self, tmp_path, capsys):
        rc = main(["stationary", "--potential", "logarithmic", "--K", "0.5",
                   "--outdir", str(tmp_path / "o")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "classification: Classical" in out
        assert (tmp_path / "o" / "stationary_profile.csv").exists()
        assert (tmp_path / "o" / "manifest.txt").exists()

    @pytest.mark.parametrize("args", [
        "--K=-1", "--K=nan", "--K=inf", "--K=1 --sweep=-1:2:3",
        "--K=1 --sweep=0.2:nan:3", "--K=1 --sweep=0.2:inf:3",
        "--K=1 --sweep=0.2:2:0"])
    def test_stationary_bad_value_is_2(self, tmp_path, capsys, args):
        rc = main(["stationary", "--potential", "logarithmic", *args.split(),
                   "--outdir", str(tmp_path / "o")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_stationary_underflowing_flux_is_3(self, tmp_path, capsys):
        # K * K underflows: no slope can be found, and the run says so
        rc = main(["stationary", "--potential", "logarithmic", "--K", "1e-200",
                   "--outdir", str(tmp_path / "o")])
        assert rc == 3
        assert "solver failure" in capsys.readouterr().err

    def test_stationary_flux_out_of_bracket_is_3(self, tmp_path, capsys):
        # the computed flight of kappa1 = 100 stays below 1 for every s tried
        cfg = tmp_path / "k.cfg"
        cfg.write_text("potential.kappa1 = 100\n")
        rc = main(["stationary", "--config", str(cfg), "--K", "1.0",
                   "--outdir", str(tmp_path / "o")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("solver failure:")

    def test_stationary_tiny_flux_is_linearized(self, tmp_path, capsys):
        # f'(0) = 2: the profile is K sinh(sqrt2 x) / (sqrt2 cosh sqrt2)
        rc = main(["stationary", "--potential", "logarithmic", "--K", "1e-30",
                   "--outdir", str(tmp_path / "o")])
        assert rc == 0
        out = dict(line.split(": ", 1)
                   for line in capsys.readouterr().out.splitlines())
        assert float(out["s"]) == pytest.approx(
            1e-30 / math.cosh(math.sqrt(2.0)), rel=1e-12, abs=0.0)

    def test_stationary_variational(self, tmp_path, capsys):
        rc = main(["stationary", "--potential", "logarithmic", "--K", "4.0",
                   "--outdir", str(tmp_path / "o")])
        assert rc == 0
        assert "VariationalOnly" in capsys.readouterr().out


class TestSimulateDriver:
    def _cfg(self, **over):
        base = {"solver.dt": "1e-2", "domain.n": "32", "experiment.T": "0.05",
                "solver.N": "8", "experiment.amplitude": "0.3"}
        base.update(over)
        return ex.resolve_config(base, seed=1)

    def test_outputs(self, tmp_path):
        summary = ex.run_experiment(self._cfg(), tmp_path)
        assert (tmp_path / "diagnostics.csv").exists()
        assert (tmp_path / "snapshot_0000.csv").exists()
        assert summary["dissipation_violations"] == 0
        assert summary["mass_drift"] < 1e-12

    def test_byte_identical_reruns(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        ex.run_experiment(self._cfg(), d1)
        ex.run_experiment(self._cfg(), d2)
        assert (d1 / "diagnostics.csv").read_bytes() == \
            (d2 / "diagnostics.csv").read_bytes()

    def test_rerun_from_manifest(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        ex.run_experiment(self._cfg(), d1)
        cfg = ex.resolve_config(
            ex.parse_config((d1 / "manifest.txt").read_text()))
        ex.run_experiment(cfg, d2)
        assert (d1 / "diagnostics.csv").read_bytes() == \
            (d2 / "diagnostics.csv").read_bytes()


class TestSweepDrivers:
    def test_converge_n_table_shape(self, tmp_path):
        cfg = ex.resolve_config({"solver.dt": "5e-2", "domain.n": "24",
                                 "experiment.n_levels": "2",
                                 "experiment.amplitude": "0.3"})
        out = ex.run_converge_n(cfg, tmp_path, times=(0.05, 0.1, 0.15))
        assert out["rows"] == 3 * 2
        lines = (tmp_path / "converge_n.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 6

    def test_converge_n_fields_match_every_step_run(self):
        # the gcd snapshot stride changes what is stored, not the stepping
        cfg = ex.resolve_config({"solver.dt": "1e-2", "domain.n": "24",
                                 "experiment.amplitude": "0.3"})
        times = (0.04, 0.1, 0.16)
        stride = 2  # the gcd of the 4, 10 and 16 steps to the times
        states = ex._run((cfg, 8, None, 0, 0.0, 0.16, stride * 1e-2))
        fields = {t: states[round(t / 1e-2) // stride].field for t in times}
        ops = ex.build_operators(cfg)
        scfg = ex.build_solver_config(cfg, N=8)
        f0 = ex.initial_field(ops, 0, 0.3, 0.0)
        traj = simulate(ops, scfg, f0, 0.16, cadence=1e-2)
        for t in times:
            k = round(t / 1e-2)
            assert np.array_equal(fields[t].bulk, traj.states[k].field.bulk)

    def test_margin_sweeps_honour_workers(self, tmp_path):
        cfg = ex.resolve_config({"solver.dt": "1e-2", "domain.n": "24",
                                 "experiment.T": "0.05",
                                 "experiment.amplitude": "0.3",
                                 "experiment.n_levels": "1",
                                 "experiment.ensemble": "3"})
        for run in (ex.run_separation, ex.run_sign_condition):
            serial = run(cfg, tmp_path / "a", Ns=(8, 16))
            pooled = run(cfg, tmp_path / "b", workers=2, Ns=(8, 16))
            assert pooled["rows"] == serial["rows"]
        for run, table in [
                (ex.run_converge_n, "converge_n.csv"),
                (ex.run_lipschitz, "lipschitz.csv"),
                (ex.run_decay, "decay.csv")]:
            kwargs = {"times": (0.02, 0.05)} if table == "converge_n.csv" else {}
            serial = run(cfg, tmp_path / "a", **kwargs)
            pooled = run(cfg, tmp_path / "b", workers=2, **kwargs)
            assert pooled == serial
            assert (tmp_path / "b" / table).read_bytes() == \
                (tmp_path / "a" / table).read_bytes()

    def test_operators_built_once_per_process(self, tmp_path, monkeypatch):
        built = []
        make = ex.make_operators
        monkeypatch.setattr(ex, "make_operators",
                            lambda dom: built.append(dom) or make(dom))
        ex._operators.cache_clear()
        cfg = ex.resolve_config({"solver.dt": "1e-2", "domain.n": "23",
                                 "experiment.n_levels": "2"})
        for out in ("a", "b"):
            ex.run_converge_n(cfg, tmp_path / out, times=(0.02, 0.05))
        assert built == [Interval(23, -1.0, 1.0)]

    def test_lipschitz_zero_eps_skipped(self, tmp_path):
        cfg = ex.resolve_config({"solver.dt": "1e-2", "domain.n": "24",
                                 "experiment.T": "0.05",
                                 "experiment.eps": "1e-2,1e-3"})
        out = ex.run_lipschitz(cfg, tmp_path)
        assert set(out["eps"]) == {1e-2, 1e-3}
        r = out["final_over_initial"]
        assert r[1e-2] == pytest.approx(r[1e-3], rel=0.05)

    def test_decay_rate_from_one_sample(self, tmp_path):
        # the default cadence, 10 dt = T, leaves one snapshot after t = 0
        cfg = {"solver.dt": "1e-2", "domain.n": "33", "experiment.T": "0.1",
               "experiment.ensemble": "3"}
        one = ex.run_decay(ex.resolve_config(cfg, seed=1), tmp_path / "a")
        five = ex.run_decay(ex.resolve_config(
            {**cfg, "experiment.cadence": "0.02"}, seed=1), tmp_path / "b")
        assert 0.0 < one["decay_rate"] < math.inf
        assert one["decay_rate"] == pytest.approx(five["decay_rate"], rel=0.1)

    def test_decay_rate_of_equal_members_is_nan(self, tmp_path):
        cfg = ex.resolve_config({"solver.dt": "1e-2", "domain.n": "24",
                                 "experiment.T": "0.05",
                                 "experiment.ensemble": "2",
                                 "experiment.amplitude": "0"})
        out = ex.run_decay(cfg, tmp_path)
        assert out["initial_diameter"] == 0.0
        assert math.isnan(out["decay_rate"])

    def test_decay_outputs(self, tmp_path):
        cfg = ex.resolve_config({"solver.dt": "1e-2", "domain.n": "24",
                                 "experiment.T": "0.1",
                                 "experiment.ensemble": "3",
                                 "experiment.amplitude": "0.3"})
        out = ex.run_decay(cfg, tmp_path)
        assert out["ensemble"] == 3
        assert (tmp_path / "decay.csv").exists()
        assert out["final_diameter"] < out["initial_diameter"]


class TestInitialField:
    def test_mean_and_bounds(self):
        cfg = ex.resolve_config({"domain.n": "40"})
        ops = ex.build_operators(cfg)
        f = ex.initial_field(ops, 9, 0.5, -0.2)
        assert ops.mean(f.bulk) == pytest.approx(-0.2, abs=1e-12)
        assert np.max(np.abs(f.bulk)) < 1.0

    def test_amplitude_validation(self):
        cfg = ex.resolve_config({})
        ops = ex.build_operators(cfg)
        with pytest.raises(ConfigError):
            ex.initial_field(ops, 0, 0.9, 0.3)
        with pytest.raises(ConfigError):
            ex.initial_field(ops, 0, float("nan"), 0.0)

    def test_seed_changes_data(self):
        cfg = ex.resolve_config({})
        ops = ex.build_operators(cfg)
        f1 = ex.initial_field(ops, 0, 0.4, 0.0)
        f2 = ex.initial_field(ops, 1, 0.4, 0.0)
        assert not np.array_equal(f1.bulk, f2.bulk)
