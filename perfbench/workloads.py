"""The three benchmark workloads and their correctness gates.

Each workload runs chdbc through its public entry points: `chdbc.cli.main`
in-process for the subcommands, and the public `experiments`,
`discretization` and `diagnostics` API for post-processing.  The program
receives only a generated config file; the data seed in it comes from the
benchmark seed.  Every CLI call and every output check is one operation in
the tally, and a failed one is counted, never raised.
"""

from __future__ import annotations

import ast
import contextlib
import csv
import io
import json
import traceback
from dataclasses import dataclass, field
from importlib import resources
from time import perf_counter

import numpy as np

from chdbc import cli, diagnostics, discretization, experiments, solver, stationary

# Data sets per benchmark seed; repetitions cycle through them, so a run's
# median is not set by one draw of initial data.
DATA_SETS = 4


def data_seeds(seed):
    return [int(s) for s in
            np.random.default_rng(seed).integers(2 ** 31, size=DATA_SETS)]


@dataclass
class Tally:
    attempted: int = 0
    failures: list = field(default_factory=list)

    @property
    def failed(self):
        return len(self.failures)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Rep:
    wall_s: float        # first driver call to last
    steps: int           # steps taken by the stepping subcommand(s)
    step_wall_s: float   # wall time of those subcommand(s)


def _value(text):
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def call_cli(tally, argv):
    """Run one chdbc subcommand in-process; return its printed summary."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main([str(a) for a in argv])
    except Exception:  # a crash is a failed operation; the run goes on
        traceback.print_exc()
        rc = "an exception"
    tally.check(rc == 0, f"chdbc {argv[0]} exited with {rc}")
    summary = {}
    for line in buf.getvalue().splitlines():
        key, sep, val = line.partition(": ")
        if sep:
            summary[key] = _value(val)
    return summary


def _config_text(settings, data_seed):
    lines = [f"{k} = {v}" for k, v in settings.items()]
    if data_seed is not None:
        lines.append(f"seed = {data_seed}")
    return "\n".join(lines) + "\n"


class IntervalQuench:
    """Criterion-4 N-convergence study: `chdbc converge-n`, one process."""

    name = "interval-quench"
    seeded = True
    settings = {
        "domain.kind": "interval", "domain.n": 129, "domain.a": -4.0,
        "domain.b": 4.0, "potential.kind": "logarithmic", "solver.lam": 6.0,
        "solver.dt": 1e-2, "experiment.amplitude": 0.85,
        "experiment.mean": 0.05, "experiment.n_levels": 5,
    }
    # N = 4 ... 128, each run to run_converge_n's last time, t = 1.0
    steps = (5 + 1) * 100

    def config(self, data_seed):
        return _config_text(self.settings, data_seed)

    def run(self, tally, workdir, data_seed):
        cfg = workdir / "run.cfg"
        cfg.write_text(self.config(data_seed))
        out = workdir / "out"
        t0 = perf_counter()
        call_cli(tally, ["converge-n", "--config", cfg, "--outdir", out,
                         "--workers", 1])
        wall = perf_counter() - t0
        self.check(tally, out)
        return Rep(wall, self.steps, wall)

    @staticmethod
    def check(tally, out):
        try:
            with open(out / "converge_n.csv", newline="") as fh:
                rows = [(float(r["t"]), int(r["N"]), float(r["phi_w_diff"]))
                        for r in csv.DictReader(fh)]
        except (OSError, KeyError, ValueError) as exc:
            rows = []
            tally.check(False, f"converge_n.csv unreadable: {exc}")
        if not rows:
            tally.check(False, "converge_n.csv has no rows")
            return
        t_end = max(t for t, _, _ in rows)
        diffs = [d for _, _, d in sorted(r for r in rows if r[0] == t_end)]
        # A diff is exactly 0 once f_N = f on the whole run (the solution
        # stays within 1/N of the pure phases at both N): that is an
        # infinite reduction, as converge-n's own summary counts it.
        tally.check(all(b <= a for a, b in zip(diffs, diffs[1:])),
                    f"Cauchy diffs not monotone: {diffs}")
        tally.check(diffs[0] > 0 and diffs[0] >= 10.0 * diffs[-1],
                    f"Cauchy diffs reduce by less than 10x: {diffs}")


class StripSpinodal:
    """`chdbc simulate` on a 40x41 strip, then every snapshot read back from
    CSV and a variational-inequality residual over most of the run."""

    name = "strip-spinodal"
    seeded = True
    settings = {
        "domain.kind": "strip", "domain.nx": 40, "domain.ny": 41,
        "potential.kind": "logarithmic", "solver.N": 16, "solver.lam": 1.5,
        "solver.dt": 1e-3, "experiment.T": 0.1, "experiment.cadence": 0.01,
    }
    steps = 100
    cadence = 0.01
    snapshots = 11
    window = (0.02, 0.1)
    test_functions = 10

    def config(self, data_seed):
        return _config_text(self.settings, data_seed)

    def run(self, tally, workdir, data_seed):
        cfg = workdir / "run.cfg"
        cfg.write_text(self.config(data_seed))
        out = workdir / "out"
        t0 = perf_counter()
        summary = call_cli(tally, ["simulate", "--config", cfg,
                                   "--outdir", out])
        t1 = perf_counter()
        post = self.post_process(tally, cfg.read_text(), out, data_seed)
        wall = perf_counter() - t0
        tally.check(summary.get("dissipation_violations") == 0,
                    "dissipation violations: "
                    f"{summary.get('dissipation_violations')}")
        if post is not None:
            self.check(tally, *post)
        return Rep(wall, self.steps, t1 - t0)

    def post_process(self, tally, cfg_text, out, data_seed):
        """Snapshots read back from CSV, and the VI residual report."""
        try:
            cfg = experiments.resolve_config(experiments.parse_config(cfg_text))
            ops = experiments.build_operators(cfg)
            scfg = experiments.build_solver_config(cfg)
            paths = sorted(out.glob("snapshot_*.csv"))
            fields = [discretization.field_from_csv(ops, p) for p in paths]
            states = [solver.State(k * self.cadence, f)
                      for k, f in enumerate(fields)]
            traj = solver.Trajectory(ops, scfg, states, [], self.cadence)
            L = diagnostics.compute_vi_constant(ops, scfg.lam)
            tfs = diagnostics.generate_test_functions(
                ops, ops.mean(fields[0].bulk), count=self.test_functions,
                seed=data_seed, anchor=fields[0])
            vi = diagnostics.vi_residual(traj, self.window, tfs, L=L)
        except Exception:  # a crash is a failed operation; the run goes on
            traceback.print_exc()
            tally.check(False, "strip post-processing raised")
            return None
        return ops, paths, fields, vi

    def check(self, tally, ops, paths, fields, vi):
        tally.check(len(fields) == self.snapshots,
                    f"{len(fields)} snapshots, expected {self.snapshots}")
        mass = ops.mean(fields[0].bulk)
        for k, (path, fld) in enumerate(zip(paths, fields)):
            drift = abs(ops.mean(fld.bulk) - mass)
            tally.check(drift <= 1e-10, f"{path.name}: mass drift {drift:.3e}")
            if k > 0:
                tally.check(np.array_equal(fld.trace, ops.trace_of(fld.bulk)),
                            f"{path.name}: trace differs from bulk boundary")
        for r, scale in zip(vi.residuals, vi.scales):
            tally.check(r <= 1e-6 * scale,
                        f"VI residual {r:.3e} above 1e-6 * {scale:.3e}")


@contextlib.contextmanager
def _count_ode_steps(counter):
    """Count accepted steps of the shooting integrator; no timing."""
    original = stationary.__dict__["solve_ivp"]

    def counted(*args, **kwargs):
        sol = original(*args, **kwargs)
        counter[0] += len(sol.t) - 1
        return sol

    stationary.solve_ivp = counted
    try:
        yield
    finally:
        stationary.solve_ivp = original


class StationaryFlux:
    """Three `chdbc stationary` calls: classical, variational-only with a
    sweep, and a potential with F(1) = inf.  No random input: the seed is
    ignored.  It takes no time steps; its steps are the accepted steps of
    the shooting integrator."""

    name = "stationary-flux"
    seeded = False
    calls = [
        # (argv tail, K, expected classification)
        (["--potential", "logarithmic", "--K", 1.0], 1.0, "Classical"),
        (["--potential", "logarithmic", "--K", 3.0, "--sweep", "0.2:4.0:8"],
         3.0, "VariationalOnly"),
        (["--potential", "power", "--K", 2.5], 2.5, "Classical"),
    ]

    def config(self, data_seed):
        return None

    def run(self, tally, workdir, data_seed):
        ode_steps = [0]
        summaries = []
        with _count_ode_steps(ode_steps):
            t0 = perf_counter()
            for k, (tail, _, _) in enumerate(self.calls):
                summaries.append(call_cli(tally, ["stationary", *tail,
                                                  "--outdir", workdir / f"c{k}"]))
            wall = perf_counter() - t0
        self.check(tally, workdir, summaries)
        return Rep(wall, ode_steps[0], wall)

    def check(self, tally, workdir, summaries):
        golden = json.loads(resources.files("chdbc").joinpath(
            "data/critical_flux_logarithmic.json").read_text())
        for (tail, K, expected), summary in zip(self.calls, summaries):
            got = summary.get("classification")
            tally.check(got == expected,
                        f"K={K}: classification {got}, expected {expected}")
            if tail[1] == "logarithmic":
                for key in ("s_star", "K_plus"):
                    val = summary.get(key)
                    tally.check(isinstance(val, float)
                                and abs(val - golden[key]) <= 1e-10,
                                f"K={K}: {key} {val}, golden {golden[key]}")
            defect = summary.get("defect")
            want = K - summary.get("K_plus", K) if expected == "VariationalOnly" \
                else 0.0
            tally.check(isinstance(defect, float)
                        and abs(defect - want) <= 1e-12 * (1.0 + K),
                        f"K={K}: defect {defect}, expected {want}")
        sweep = workdir / "c1" / "stationary_sweep.csv"
        try:
            rows = sweep.read_text().count("\n") - 1
        except OSError:
            rows = 0
        tally.check(rows == 8, f"stationary_sweep.csv has {rows} rows, expected 8")


WORKLOADS = {w.name: w for w in (IntervalQuench(), StripSpinodal(),
                                 StationaryFlux())}
