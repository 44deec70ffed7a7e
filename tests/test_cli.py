import math
import os

import numpy as np
import pytest

from chdbc import diagnostics, discretization, stationary
from chdbc import experiments as ex
from chdbc.cli import main
from chdbc.discretization import MAX_NODES, Interval, PeriodicStrip
from chdbc.errors import ConfigError, DomainError
from chdbc.potentials import (BoundaryNonlinearity, LogarithmicPotential,
                              PowerSingularPotential, SmoothDoubleWell)
from chdbc.solver import MAX_STEPS, simulate


class TestConfigParsing:
    def test_roundtrip(self):
        text = "solver.dt = 1e-2  # comment\n\n# full line comment\nseed = 7\n"
        cfg = ex.parse_config(text)
        assert cfg == {"solver.dt": "1e-2", "seed": "7"}

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            ex.parse_config("solver.dx = 1\n")

    def test_repeated_key(self):
        # last-wins would run one value and hide the other
        with pytest.raises(ConfigError, match="line 3: repeated key 'solver.dt'"):
            ex.parse_config("solver.dt = 1e-3\nseed = 1\nsolver.dt = 1e-2\n")

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


# Each subcommand's keys that no run of it reads at the default kinds (the
# interval, the logarithmic potential and the linear g), written out apart
# from experiments.KINDS: the other kinds' parameters, the other drivers'
# own keys, and the keys a driver sets itself or never uses.
_OWN = {"converge-n": "experiment.n_levels", "lipschitz": "experiment.eps",
        "sign-condition": "experiment.h2_violating",
        "stationary": "experiment.K experiment.sweep",
        "decay": "experiment.ensemble"}
_UNUSED = {"converge-n": "solver.N experiment.T experiment.cadence",
           "separation": "solver.N", "sign-condition": "solver.N",
           "stationary": "domain.kind domain.n domain.a domain.b solver.N "
                         "solver.lam solver.dt solver.newton_tol "
                         "solver.newton_max_iter boundary.g forcing.h1 "
                         "forcing.h2 experiment.T experiment.cadence "
                         "experiment.amplitude experiment.mean"}
_UNREAD_AT_DEFAULT_KINDS = {
    command: [key for key in ex.DEFAULTS if key in " ".join([
        "domain.Lx domain.nx domain.ny potential.kappa potential.p boundary.a",
        _UNUSED.get(command, ""),
        *(own for other, own in _OWN.items() if other != command)]).split()]
    for command in ex.KINDS["experiment.kind"]}


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

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    @pytest.mark.parametrize("command", ["simulate", "stationary", "decay"])
    def test_unwritable_outdir_is_2(self, tmp_path, capsys, command, under):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        outdir = blocker / "o" if under else blocker
        assert main([command, "--outdir", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {outdir}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, value", [
        ("potential.kind", "foo"), ("solver.dt", "-1"), ("solver.dt", "nan"),
        ("solver.N", "1"), ("domain.n", "3"), ("potential.kappa1", "-1"),
        ("experiment.T", "0.0105"), ("experiment.cadence", "0.0025"),
        ("experiment.cadence", "0"), ("experiment.cadence", "0.2"),
        ("experiment.amplitude", "nan"), ("solver.newton_tol", "nan"),
        ("solver.newton_tol", "0"), ("solver.lam", "nan"), ("forcing.h1", "inf"),
        ("solver.newton_max_iter", "0"), ("experiment.cadence", "abc"),
        ("experiment.eps", "0"), ("experiment.eps", "-1e-3"),
        ("experiment.eps", "1e-2,abc"), ("experiment.eps", "1e-2,inf"),
        ("experiment.eps", ""), ("experiment.eps", "1e-3,1e-3"),
        ("experiment.ensemble", "0"), ("experiment.ensemble", "1"),
        ("experiment.n_levels", "0"), ("experiment.n_levels", "1022"),
        ("domain.b", "-2.0"), ("domain.a", "1.0"),
        ("domain.a", "nan"), ("domain.b", "inf"), ("domain.a", "-inf"),
        ("domain.Lx", "-2.0"), ("domain.Lx", "0"), ("domain.Lx", "nan"),
        ("domain.Lx", "inf"), ("forcing.h2", "nan"), ("forcing.h2", "inf"),
        ("boundary.a", "nan"), ("potential.kappa1", "inf"),
        ("potential.kappa", "inf"), ("experiment.h2_violating", "nan"),
        ("experiment.T", "1e300"), ("solver.dt", "1e-300"),
        ("experiment.amplitude", "-5"), ("experiment.amplitude", "-inf")])
    def test_bad_value_is_2(self, tmp_path, capsys, key, value):
        # each key is read by the subcommands that use it: a potential key by
        # stationary too, and the cadence by every sweep that steps to T
        commands = {"experiment.eps": ["lipschitz"],
                    "experiment.ensemble": ["decay"],
                    "experiment.n_levels": ["converge-n"],
                    "experiment.h2_violating": ["sign-condition"],
                    "experiment.cadence": ["simulate", "lipschitz", "decay",
                                           "separation", "sign-condition"],
                    }.get(key, ["simulate"])
        if key.startswith("potential."):
            commands = commands + ["stationary"]
        # and some only where another key selects them
        context = {"domain.Lx": "domain.kind = strip\n",
                   "boundary.a": "boundary.g = tanh\n",
                   "potential.kappa": "potential.kind = power\n"}.get(key, "")
        for command in commands:
            # converge-n and stationary reject an experiment.T they do not
            # read, and a config that sets a key twice fails for that alone
            T = "" if command in ("converge-n", "stationary") \
                or key == "experiment.T" else "experiment.T = 0.01\n"
            # neither the strip nor stationary reads domain.n
            size = "" if "strip" in context or command == "stationary" \
                or key == "domain.n" else "domain.n = 16\n"
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{size}{T}{context}{key} = {value}\n")
            rc = main([command, "--config", str(cfg),
                       "--outdir", str(tmp_path / "o")])
            assert rc == 2, command
            err = capsys.readouterr().err
            assert err.startswith("config error:"), (command, err)
            assert "does not read" not in err, (command, err)
            assert key in err, (command, err)

    @pytest.mark.parametrize("key, value", [
        ("boundary.a", "nan"), ("boundary.a", "abc"), ("boundary.a", "0.3"),
        ("potential.p", "nan"), ("potential.kappa0", "nan"),
        ("domain.Lx", "nan"), ("domain.a", "nan")])
    def test_unselected_kind_key_is_2(self, tmp_path, capsys, key, value):
        # a key of a kind the config did not select (the default linear g,
        # logarithmic potential and interval, or the one set here) is never
        # read, so it must stay at its default, as a driver's unread key must
        context = {"potential.kappa0": "potential.kind = power\n",
                   "domain.a": "domain.kind = strip\n"}.get(key, "")
        size = "" if "strip" in context else "domain.n = 16\n"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{size}experiment.T = 0.01\n{context}{key} = {value}\n")
        assert main(["simulate", "--config", str(cfg),
                     "--outdir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:"), err
        assert key in err

    @pytest.mark.parametrize("command, settings, named", [
        ("simulate", "domain.n = 100000000000\n", "domain.n"),
        ("simulate", "domain.n = 1000000000000000000000000000000\n",
         "domain.n"),
        ("simulate",
         "domain.kind = strip\ndomain.nx = 100000\ndomain.ny = 100000\n",
         "strip"),
        ("stationary", "experiment.sweep = 0:1:1000000000000\n",
         "experiment.sweep"),
        ("decay", "domain.n = 16\nexperiment.ensemble = 100000000000\n",
         "experiment.ensemble")],
        ids=["n-1e11", "n-1e30", "strip-1e5-squared", "sweep-1e12",
             "ensemble-1e11"])
    def test_grid_too_large_is_2(self, tmp_path, capsys, command, settings,
                                 named):
        # a grid, a slope sweep and an ensemble's stacked fields are bounded
        # by MAX_NODES nodes, before any allocation
        T = "" if command == "stationary" else "experiment.T = 0.01\n"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{T}{settings}")
        assert main([command, "--config", str(cfg),
                     "--outdir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err, err
        assert str(MAX_NODES) in err and "Traceback" not in err

    def test_decay_past_the_pair_stack_is_2(self, tmp_path, capsys,
                                            monkeypatch):
        # 560 members of 64 nodes have 156,520 pair differences to stack at
        # a snapshot, past MAX_NODES nodes; 559 have 155,961.  No run steps.
        monkeypatch.setattr(ex, "_sweep", None)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("domain.n = 64\nexperiment.T = 0.01\n"
                       "experiment.ensemble = 560\n")
        assert main(["decay", "--config", str(cfg),
                     "--outdir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: experiment.ensemble must be 2 "
                              f"to 559 ({MAX_NODES} stacked nodes"), err

    def test_endless_decay_is_2(self, tmp_path, capsys):
        # ten snapshots of 1e302 steps each: the step bound stops it at once
        cfg = tmp_path / "run.cfg"
        cfg.write_text("domain.n = 16\nexperiment.T = 1e300\n"
                       "experiment.cadence = 1e299\n")
        assert main(["decay", "--config", str(cfg),
                     "--outdir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: experiment.T, experiment.cadence, "
                              "solver.dt: T=1e+300 ")
        assert str(MAX_STEPS) in err

    def test_converge_n_time_off_the_dt_grid_is_2(self, tmp_path, capsys):
        # converge-n's first time, 0.1, is not a multiple of dt = 0.04
        cfg = tmp_path / "run.cfg"
        cfg.write_text("domain.n = 16\nsolver.dt = 0.04\n")
        assert main(["converge-n", "--config", str(cfg),
                     "--outdir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: t=0.1 ")
        assert "experiment.T" not in err

    @pytest.mark.parametrize("command", ["simulate", "lipschitz", "separation"])
    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_negative_seed_is_2(self, tmp_path, capsys, command, where):
        # numpy's generators take no negative seed
        cfg = tmp_path / "run.cfg"
        cfg.write_text("domain.n = 16\nexperiment.T = 0.01\n"
                       + ("seed = -1\n" if where == "config" else ""))
        flag = ["--seed", "-1"] if where == "flag" else []
        rc = main([command, "--config", str(cfg), *flag,
                   "--outdir", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "seed" in err

    @pytest.mark.parametrize("command, key, value", [
        ("converge-n", "experiment.T", "0.02"),
        ("converge-n", "experiment.cadence", "0.01"),
        ("converge-n", "solver.N", "64"),
        ("separation", "solver.N", "64"),
        ("sign-condition", "solver.N", "16")] + [
        (command, key, "7") for command, keys in _UNREAD_AT_DEFAULT_KINDS.items()
        for key in keys])
    def test_unread_key_is_2(self, tmp_path, capsys, command, key, value):
        # a driver that sets a key itself, or never uses it, would ignore it
        size = "" if command == "stationary" \
            else "domain.n = 33\nsolver.dt = 1e-2\n"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{size}{key} = {value}\n")
        assert main([command, "--config", str(cfg),
                     "--outdir", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("settings, message", [
        ("domain.kind = disk\ndomain.n = 16\n",
         "domain.kind must be interval or strip, got 'disk'"),
        ("potential.kind = foo\npotential.kappa1 = 2\n",
         "potential.kind must be logarithmic, power or smooth, got 'foo'"),
        ("boundary.g = cubic\nboundary.a = 0.3\n",
         "boundary.g must be linear or tanh, got 'cubic'"),
        ("experiment.kind = frobnicate\n",
         "experiment.kind must be simulate, converge-n, lipschitz, separation,"
         " sign-condition, stationary or decay, got 'frobnicate'")],
        ids=["domain", "potential", "boundary", "experiment"])
    def test_unknown_kind_keeps_its_error(self, tmp_path, capsys, settings,
                                          message):
        # the run names the unknown kind, not the parameter set beside it,
        # and rejects it before the manifest is written
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"experiment.T = 0.01\n{settings}")
        assert main(["simulate", "--config", str(cfg),
                     "--outdir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_stationary_domain_key_is_2(self, tmp_path, capsys):
        # stationary solves on [0, 1] and reads no domain key; a kind that
        # does not exist and a nan size used to pass into the manifest
        cfg = tmp_path / "run.cfg"
        cfg.write_text("domain.kind = disk\ndomain.n = nan\n")
        assert main(["stationary", "--config", str(cfg),
                     "--outdir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: experiment.kind = stationary "
                              "does not read domain.kind;"), err
        assert not (tmp_path / "o").exists()

    def test_stationary_manifest_replays(self, tmp_path):
        # the manifest lists every domain key and the seed at its default
        assert main(["stationary", "--K", "1.0",
                     "--outdir", str(tmp_path / "a")]) == 0
        assert main(["stationary", "--config",
                     str(tmp_path / "a" / "manifest.txt"),
                     "--outdir", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "stationary_profile.csv").read_bytes() == \
            (tmp_path / "b" / "stationary_profile.csv").read_bytes()

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
        "--K=1 --sweep=0.2:2:0", "--K=1 --seed=1"])
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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("config, args", [
        ("", "--potential power --K 1.35e154"),  # K^2 overflows
        ("potential.kappa1 = 5e-324\n", "--K 1"),  # F(0.5) underflows to 0
        # a sweep slope whose s^2 underflows: the flight's integrand at v = 0
        ("experiment.sweep = 0:1e-300:2\n", "--potential logarithmic --K 1"),
    ])
    def test_stationary_flux_out_of_range_is_3(self, tmp_path, capsys, config,
                                               args):
        # the first two used to escape from the flight map as a bare
        # arithmetic error, a traceback and exit 1, the third as a
        # divide-by-zero warning, exit 0 and x1 = inf; each now fails typed
        cfg = tmp_path / "k.cfg"
        cfg.write_text(config)
        rc = main(["stationary", "--config", str(cfg), *args.split(),
                   "--outdir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("solver failure: ")
        assert "Warning" not in err and "Traceback" not in err

    @pytest.mark.parametrize("error, code, prefix", [
        (DomainError, 3, "solver failure"), (ConfigError, 2, "config error")])
    def test_every_typed_error_has_its_exit_code(self, tmp_path, capsys,
                                                 monkeypatch, error, code,
                                                 prefix):
        def driver(cfg, outdir):
            raise error("x")

        keys = ex.KINDS["experiment.kind"]["simulate"][1]
        monkeypatch.setitem(ex.KINDS["experiment.kind"], "simulate",
                            (driver, keys))
        assert main(["simulate", "--outdir", str(tmp_path / "o")]) == code
        assert capsys.readouterr().err == f"{prefix}: x\n"

    def test_stationary_flux_out_of_bracket_is_3(self, tmp_path, capsys):
        # kappa1 = 100 puts s_star near 2e-5, inside the bracket of log s
        cfg = tmp_path / "k.cfg"
        cfg.write_text("potential.kappa1 = 100\n")
        rc = main(["stationary", "--config", str(cfg), "--K", "1.0",
                   "--outdir", str(tmp_path / "o")])
        assert rc == 0
        assert "classification: Classical" in capsys.readouterr().out

    @pytest.mark.parametrize("kappa1, K, verdict", [
        (100, 30.0, "VariationalOnly"), (1000, 1.0, "Classical"),
        (1000, 100.0, "VariationalOnly")])
    def test_stationary_stiff_potential_is_0(self, tmp_path, capsys, kappa1,
                                             K, verdict):
        cfg = tmp_path / "k.cfg"
        cfg.write_text(f"potential.kappa1 = {kappa1}\n")
        rc = main(["stationary", "--config", str(cfg), "--K", str(K),
                   "--outdir", str(tmp_path / "o")])
        assert rc == 0
        assert f"classification: {verdict}" in capsys.readouterr().out

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


def _clear_process_caches():
    for cached in (stationary.critical_flux, stationary._peak_scale):
        cached.cache_clear()


class TestRepeatedCallsInOneProcess:
    """K_plus and the flight's grading scale are cached per potential for the
    whole process; calls made after others must not see their leftovers."""

    def _call(self, capsys, argv, outdir):
        assert main([*argv, "--outdir", str(outdir)]) == 0
        files = {p.name: p.read_bytes() for p in outdir.iterdir()}
        return capsys.readouterr().out, files

    def test_each_call_matches_a_first_call(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("domain.n = 9\nsolver.dt = 1e-2\n"
                       "experiment.n_levels = 2\n")
        calls = {"sweep": ["stationary", "--sweep", "0.2:4.0:8"],
                 "plain": ["stationary"],
                 "power": ["stationary", "--potential", "power", "--K", "2.5"],
                 "converge": ["converge-n", "--workers", "1",
                              "--config", str(cfg)]}
        first = {}
        for name, argv in calls.items():
            _clear_process_caches()
            first[name] = self._call(capsys, argv, tmp_path / f"first_{name}")
        order = ["sweep", "plain", "power", "converge", "sweep"]
        later = [self._call(capsys, calls[name], tmp_path / f"later_{k}")
                 for k, name in enumerate(order)]
        assert "stationary_sweep.csv" in first["sweep"][1]
        assert "sweep_rows" not in later[1][0]
        assert "stationary_sweep.csv" not in later[1][1]
        assert later == [first[name] for name in order]


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
        # the snapshot times change what is stored, not the stepping
        cfg = ex.resolve_config({"solver.dt": "1e-2", "domain.n": "24",
                                 "experiment.amplitude": "0.3"})
        times = (0.04, 0.1, 0.16)
        (states,) = ex._lockstep(cfg, [(8, None, 0, 0.0)], times)
        assert [s.t for s in states] == [0.0, *times]
        fields = {t: s.field for t, s in zip(times, states[1:])}
        ops = ex.build_operators(cfg)
        scfg = ex.build_solver_config(cfg, N=8)
        f0 = ex.initial_field(ops, 0, 0.3, 0.0)
        traj = simulate(ops, scfg, f0, 0.16, cadence=1e-2)
        for t in times:
            k = round(t / 1e-2)
            assert np.array_equal(fields[t].bulk, traj.states[k].field.bulk)

    def test_converge_n_rows_hold_the_states_at_their_times(self, tmp_path):
        # each row's diff is that of the N and 2N states at the row's t
        cfg = ex.resolve_config({"solver.dt": "1e-2", "domain.n": "24",
                                 "experiment.amplitude": "0.3",
                                 "experiment.n_levels": "1"})
        ex.run_converge_n(cfg, tmp_path)
        ops = ex.build_operators(cfg)
        f0 = ex.initial_field(ops, 0, 0.3, 0.0)
        runs = {N: simulate(ops, ex.build_solver_config(cfg, N=N), f0, 1.0,
                            cadence=1e-2).states for N in (4, 8)}
        rows = (tmp_path / "converge_n.csv").read_text().splitlines()[1:]
        assert len(rows) == 3
        for row in rows:
            t, N, diff = (float(v) for v in row.split(","))
            (a,) = [s for s in runs[N] if s.t == t]
            (b,) = [s for s in runs[2 * N] if s.t == t]
            assert diff == ops.phi_w_distance(a.field, b.field)

    def test_margins_are_minima_over_the_snapshots(self, tmp_path):
        # in this quench the boundary margin dips at t = 0.1 (0.2062) below
        # its value at T (0.2164); the trace gap is the one at T
        cfg = ex.resolve_config({
            "domain.n": "24", "domain.a": "-4.0", "domain.b": "4.0",
            "solver.lam": "6.0", "solver.dt": "1e-2", "experiment.T": "0.2",
            "experiment.amplitude": "0.85", "experiment.mean": "0.05"}, seed=0)
        (_, bulk, bnd, gap), = ex.run_separation(cfg, tmp_path, Ns=(8,))["rows"]
        (states,) = ex._lockstep(cfg, [(8, None, 0, 0.0)], [0.1, 0.2])
        margins = [diagnostics.margins(s.field) for s in states[1:]]
        assert (bulk, bnd) == tuple(map(min, zip(*margins)))
        assert bnd < margins[-1][1] - 0.01
        assert gap == diagnostics.trace_mismatch(
            ex.build_operators(cfg), ex.build_solver_config(cfg), states[-1])
        row = ex.run_sign_condition(cfg, tmp_path, Ns=(8,))["rows"][0]
        assert row[-2:] == (bnd, gap)

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


class _Recording(dict):
    """A config that notes each key looked up in it."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("kinds", [
    {}, {"domain.kind": "strip", "potential.kind": "power", "boundary.g": "tanh"},
    {"potential.kind": "smooth"}], ids=["interval-logarithmic-linear",
                                        "strip-power-tanh", "smooth"])
@pytest.mark.parametrize("command", list(ex.KINDS["experiment.kind"]))
def test_read_table_matches_the_drivers(tmp_path, monkeypatch, command, kinds):
    """The keys a driver looks up on a tiny run are exactly the keys that
    run_experiment lets a config set off its default (less experiment.kind,
    which it reads to dispatch).  A kind set to 7 is read if run_experiment
    rejects it as a kind."""
    if command == "stationary":  # a domain and boundary law of its own
        kinds = {k: v for k, v in kinds.items() if k == "potential.kind"}
    cfg = _Recording(ex.resolve_config({
        **kinds, "experiment.kind": command, "domain.n": "8", "domain.nx": "8",
        "domain.ny": "9", "solver.dt": "0.05", "experiment.T": "0.1",
        "experiment.eps": "1e-2", "experiment.ensemble": "2",
        "experiment.n_levels": "1"}))
    driver, keys = ex.KINDS["experiment.kind"][command]
    driver(cfg, str(tmp_path / "o"))
    monkeypatch.setitem(ex.KINDS["experiment.kind"], command,
                        (lambda cfg, outdir: {}, keys))
    monkeypatch.setattr(ex, "write_manifest", lambda cfg, outdir: None)
    base = ex.resolve_config({**kinds, "experiment.kind": command})
    settable = set()
    for key in [key for key in ex.DEFAULTS if key != "experiment.kind"]:
        try:
            ex.run_experiment({**base, key: "7"}, str(tmp_path / "p"))
        except ConfigError as exc:
            if f"does not read {key};" in str(exc):
                continue
            assert str(exc).startswith(f"{key} must be "), exc
        settable.add(key)
    assert settable == cfg.read


@pytest.mark.parametrize("command", list(ex.KINDS["experiment.kind"]))
def test_every_file_goes_through_write_text(tmp_path, monkeypatch, command):
    """A tiny run into a directory that does not exist yet writes each file
    under it, its manifest included, once, through write_text."""
    tiny = {"domain.n": "8", "solver.dt": "0.05", "experiment.T": "0.1",
            "experiment.eps": "1e-2", "experiment.ensemble": "2",
            "experiment.n_levels": "1", "experiment.sweep": "0.5:1:2"}
    _, keys = ex.KINDS["experiment.kind"][command]
    cfg = ex.resolve_config({"experiment.kind": command, **{
        key: val for key, val in tiny.items()
        if key in keys or (key == "domain.n" and "domain.kind" in keys)}})
    written, original = [], discretization.write_text

    def recording(path, text):
        written.append(os.fspath(path))
        original(path, text)

    for module in (discretization, ex):  # where write_text is looked up
        monkeypatch.setattr(module, "write_text", recording)
    outdir = tmp_path / "a" / "b"
    ex.run_experiment(cfg, str(outdir))
    found = [os.path.join(top, name)
             for top, _, names in os.walk(outdir) for name in names]
    assert os.path.join(outdir, "manifest.txt") in found
    assert sorted(written) == sorted(found)


# Each kind of KINDS' domain, potential and boundary rows with the class it
# must build, and a value off its default for each key those rows read.
_ROW_CLASSES = {"interval": Interval, "strip": PeriodicStrip,
                "logarithmic": LogarithmicPotential,
                "power": PowerSingularPotential, "smooth": SmoothDoubleWell,
                "linear": BoundaryNonlinearity, "tanh": BoundaryNonlinearity}
_OFF_DEFAULT = {"domain.n": "9", "domain.a": "-2.0", "domain.b": "3.0",
                "domain.Lx": "3.0", "domain.nx": "8", "domain.ny": "9",
                "potential.kappa0": "0.5", "potential.kappa1": "2.0",
                "potential.kappa": "2.0", "potential.p": "4.0",
                "boundary.a": "0.25"}


@pytest.mark.parametrize("setting, kind", [
    (setting, kind) for setting in ("domain.kind", "potential.kind",
                                    "boundary.g")
    for kind in ex.KINDS[setting]])
def test_kind_row_passes_each_key_to_its_class(setting, kind):
    """Each key of a row reaches the built object's attribute named after
    its dot, parsed as its default is (an int or a float)."""
    _, keys = ex.KINDS[setting][kind]
    cfg = ex.resolve_config({setting: kind,
                             **{key: _OFF_DEFAULT[key] for key in keys}})
    built = {"domain.kind": lambda: ex.build_operators(cfg).domain,
             "potential.kind": lambda: ex.build_solver_config(cfg).potential,
             "boundary.g": lambda: ex.build_solver_config(cfg).g}[setting]()
    assert type(built) is _ROW_CLASSES[kind]
    for key in keys:
        assert _OFF_DEFAULT[key] != ex.DEFAULTS[key]
        assert repr(getattr(built, key.split(".")[1])) == _OFF_DEFAULT[key]
    if kind == "linear":
        assert built.a == 0.0
