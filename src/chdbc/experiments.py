"""Batch experiment drivers: flat key=value configs, deterministic seeding,
CSV outputs and a manifest that reproduces the run.

Every driver takes a resolved config dict (strings, as parsed) plus an output
directory, writes its artifacts there, and returns a small summary dict that
the command-line layer prints one line at a time.  Every file, the manifest
included, goes through discretization.write_text, which makes the directory
and reports a file it cannot write as a ConfigError.  A sweep steps all its
runs in lockstep through one Stepper; with workers > 1 it splits them into
that many contiguous groups, one lockstep group per pool process.  Workers
rebuild their problem from the plain config dict, and the parent process
alone writes files.  Each process builds the operators of a domain once.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import functools
import math
import os

import numpy as np

from . import __version__, diagnostics, stationary
from .discretization import (MAX_NODES, Field, Interval, PeriodicStrip,
                             field_to_csv, make_operators, write_rows,
                             write_text)
from .errors import ConfigError
from .potentials import (BoundaryNonlinearity, LogarithmicPotential,
                         PowerSingularPotential, SmoothDoubleWell,
                         check_sign_condition, check_separation_condition)
from .solver import SolverConfig, cadence_times, simulate, simulate_members

# Every known key with its default (as a string, the parsed form).
DEFAULTS = {
    "domain.kind": "interval",
    "domain.n": "64",
    "domain.a": "-1.0",
    "domain.b": "1.0",
    "domain.Lx": "2.0",
    "domain.nx": "32",
    "domain.ny": "33",
    "potential.kind": "logarithmic",
    "potential.kappa0": "0.0",
    "potential.kappa1": "1.0",
    "potential.kappa": "1.0",
    "potential.p": "3.0",
    "solver.N": "8",
    "solver.lam": "0.0",
    "solver.dt": "1e-3",
    "solver.newton_tol": "1e-10",
    "solver.newton_max_iter": "50",
    "boundary.g": "linear",
    "boundary.a": "0.5",
    "forcing.h1": "0.0",
    "forcing.h2": "0.0",
    "experiment.kind": "simulate",
    "experiment.T": "0.1",
    "experiment.cadence": "",
    "experiment.amplitude": "0.4",
    "experiment.mean": "0.0",
    "experiment.eps": "1e-2,1e-3,1e-4",
    "experiment.ensemble": "4",
    "experiment.K": "1.0",
    "experiment.sweep": "",
    "experiment.h2_violating": "3.0",
    "experiment.n_levels": "5",
    "seed": "0",
}


def parse_config(text) -> dict:
    """Flat key = value lines; # starts a comment; a key that is unknown or
    set twice is an error."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: repeated key {key!r}")
        out[key] = val
    return out


def resolve_config(overrides=None, seed=None) -> dict:
    cfg = dict(DEFAULTS)
    cfg.update(overrides or {})
    if seed is not None:
        cfg["seed"] = str(int(seed))
    _row(cfg, "experiment.kind")
    return cfg


def _num(cfg, key):
    """cfg[key] as an int if its default is one, else as a float."""
    typ = int if DEFAULTS[key].isdigit() else float
    try:
        return typ(cfg[key])
    except ValueError as exc:
        what = "an integer" if typ is int else "a number"
        raise ConfigError(f"{key}: not {what}: {cfg[key]!r}") from exc


def write_manifest(cfg, outdir):
    """The manifest is itself a valid config file reproducing the run."""
    path = os.path.join(outdir, "manifest.txt")
    write_text(path, f"# code version {__version__}\n"
               + "".join(f"{key} = {cfg[key]}\n" for key in sorted(cfg)))
    return path


def _row(cfg, setting):
    """The (driver or class, keys it reads) row of cfg's kind of setting."""
    kinds = KINDS[setting]
    if cfg[setting] not in kinds:
        *others, last = kinds
        raise ConfigError(f"{setting} must be {', '.join(others)} or {last}, "
                          f"got {cfg[setting]!r}")
    return kinds[cfg[setting]]


@contextlib.contextmanager
def _naming(keys):
    """A value rejected inside, as a ConfigError that names the keys."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{', '.join(keys)}: {exc}") from exc


def _make(cfg, make, keys, **given):
    """make(...) from the keys, each passed by the name after its dot; a given
    argument other than None replaces its key, which is then not read.  Its
    rejection of a value is a ConfigError that names the keys read."""
    given = {name: val for name, val in given.items() if val is not None}
    read = [key for key in keys if key.split(".")[1] not in given]
    kwargs = {key.split(".")[1]: _num(cfg, key) for key in read}
    with _naming(read):
        return make(**kwargs, **given)


def build_operators(cfg):
    return _operators(_make(cfg, *_row(cfg, "domain.kind")))


@functools.lru_cache(maxsize=8)
def _operators(dom):
    """make_operators(dom), once per process for each domain: a sweep's runs
    share their parent's set, and a pool worker builds its own.  Operators
    change after they are built only to keep their Poisson LU."""
    return make_operators(dom)


def build_solver_config(cfg, **given) -> SolverConfig:
    """SolverConfig from the _SOLVER keys not given, the potential and g."""
    return _make(cfg, SolverConfig, _SOLVER,
                 potential=_make(cfg, *_row(cfg, "potential.kind")),
                 g=_make(cfg, *_row(cfg, "boundary.g")), **given)


def _cadence(cfg, default=None):
    return _num(cfg, "experiment.cadence") if cfg["experiment.cadence"] else default


def initial_field(ops, seed, amplitude, mean) -> Field:
    """Deterministic spinodal-like data: a few random low modes, normalized,
    then mean-corrected so that |u0| <= |mean| + |amplitude| < 1."""
    if not abs(mean) + abs(amplitude) < 1.0:  # NaN fails too
        raise ConfigError(
            "require |experiment.mean| + |experiment.amplitude| < 1")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    strip = ops.domain.kind == "strip"
    modes = [(kx, ky) for kx in range(3) for ky in range(3) if kx or ky] \
        if strip else [(0, k) for k in range(1, 5)]
    prof = np.zeros(ops.bulk_shape)
    for kx, ky in modes:
        phase = rng.uniform(0.0, 2.0 * np.pi) if strip else 0.0
        prof += ops.cosine_mode(kx, ky, phase, rng.standard_normal())
    prof = prof - ops.mean(prof)
    mx = np.max(np.abs(prof))
    u0 = mean + (amplitude / mx) * prof
    u0 += mean - ops.mean(u0)
    return ops.field_from_bulk(u0)


# --------------------------------------------------------------------------
# Drivers
# --------------------------------------------------------------------------

def _initial(cfg, ops, seed, eps):
    """The configured initial field from the seed; eps > 0 adds eps times a
    fixed mean-neutral mode."""
    f0 = initial_field(ops, seed, _num(cfg, "experiment.amplitude"),
                       _num(cfg, "experiment.mean"))
    if eps:
        dv = ops.cosine_mode(0, 2) if ops.domain.kind == "interval" \
            else ops.cosine_mode(1, 1)
        dv = dv - ops.mean(dv)
        dv /= np.max(np.abs(dv))
        f0 = ops.field_from_bulk(f0.bulk + eps * dv)
    return f0


def _lockstep(cfg, jobs, times):
    """The States at t = 0 and the snapshot times of each (N, h2, seed, eps)
    job, stepped in lockstep here.  N and h2 of None take the config's."""
    ops = build_operators(cfg)
    return simulate_members(
        ops, [build_solver_config(cfg, N=N, h2=h2) for N, h2, _, _ in jobs],
        [_initial(cfg, ops, seed, eps) for _, _, seed, eps in jobs], times)


def _sweep(cfg, jobs, workers, times):
    """_lockstep of the jobs, in order, as at most `workers` contiguous
    groups of jobs, one lockstep group per process."""
    workers = min(workers, len(jobs))
    if workers <= 1:
        return _lockstep(cfg, jobs, times)
    cuts = [len(jobs) * i // workers for i in range(workers + 1)]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
        groups = ex.map(functools.partial(_lockstep, cfg, times=times),
                        [jobs[a:b] for a, b in zip(cuts, cuts[1:])])
        return [run for group in groups for run in group]


def _sweep_times(cfg, N=None):
    """experiment.T's snapshot times; the cadence defaults to min(10 dt, T)."""
    T, dt = _num(cfg, "experiment.T"), build_solver_config(cfg, N=N).dt
    cadence = _cadence(cfg, min(10.0 * dt, T))
    with _naming((*_TO_T, "solver.dt")):
        return cadence_times(T, cadence, dt)


def run_simulate(cfg, outdir):
    """One trajectory, with its snapshots and diagnostics table."""
    ops = build_operators(cfg)
    scfg, f0 = build_solver_config(cfg), _initial(cfg, ops, _num(cfg, "seed"), 0.0)
    T, cadence = _num(cfg, "experiment.T"), _cadence(cfg)
    with _naming((*_TO_T, "solver.dt")):  # simulate rejects only the times
        traj = simulate(ops, scfg, f0, T, cadence)
    for k, st in enumerate(traj.states):
        field_to_csv(ops, st.field, os.path.join(outdir, f"snapshot_{k:04d}.csv"))
    diagnostics.records_to_csv(traj.records,
                               os.path.join(outdir, "diagnostics.csv"))
    last = traj.records[-1]
    return {
        "snapshots": len(traj.states),
        "final_time": traj.final.t,
        "final_energy": last.energy.total,
        "mass_drift": abs(last.mass - ops.mean(traj.states[0].field.bulk)),
        "dissipation_violations": diagnostics.dissipation_check(traj),
    }


def run_converge_n(cfg, outdir, workers=1, times=(0.1, 0.5, 1.0)):
    """Cauchy table || u_N - u_2N ||_phi_w at a few times over doubling N."""
    n_levels = _num(cfg, "experiment.n_levels")
    if not 1 <= n_levels <= 1021:  # N = 4 * 2**1022 overflows a float
        raise ConfigError(f"experiment.n_levels must be 1 to 1021, got {n_levels}")
    Ns = [4 * 2 ** k for k in range(n_levels + 1)]  # one extra for the 2N leg
    ops = build_operators(cfg)
    jobs = [(N, None, _num(cfg, "seed"), 0.0) for N in Ns]
    runs = dict(zip(Ns, _sweep(cfg, jobs, workers, times)))
    rows = [(t, N, ops.phi_w_distance(runs[N][j].field, runs[2 * N][j].field))
            for j, t in enumerate(times, start=1) for N in Ns[:-1]]
    write_rows(os.path.join(outdir, "converge_n.csv"), ["t", "N", "phi_w_diff"],
               rows)
    final = [d for t, N, d in rows if t == max(times)]
    return {
        "rows": len(rows),
        "final_time_diffs": final,
        "monotone": all(final[i + 1] <= final[i] for i in range(len(final) - 1)),
        "reduction": final[0] / final[-1] if final[-1] > 0 else np.inf,
    }


def run_lipschitz(cfg, outdir, workers=1):
    raw = cfg["experiment.eps"]
    try:
        eps_list = [float(s) for s in raw.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"experiment.eps: not a list of numbers: {raw!r}") \
            from exc
    if not eps_list or not all(0.0 < eps < math.inf for eps in eps_list):
        raise ConfigError("experiment.eps must list values that are finite "
                          f"and > 0, got {raw!r}")
    if len(set(eps_list)) < len(eps_list):
        raise ConfigError(f"experiment.eps repeats a value: {raw!r}")
    ops = build_operators(cfg)
    base, *perturbed = _sweep(
        cfg, [(None, None, _num(cfg, "seed"), eps) for eps in [0.0] + eps_list],
        workers, _sweep_times(cfg))
    ts = [sb.t for sb in base]
    rows, fitted_C, fitted_K, ratios = [], {}, {}, {}
    for eps, run in zip(eps_list, perturbed):
        ds = [ops.phi_w_distance(sb.field, sp.field) for sb, sp in zip(base, run)]
        if ds[0] == 0.0:
            raise ConfigError(f"experiment.eps = {eps!r} leaves the perturbed "
                              "start equal to the base start")
        rows += [(eps, t, d) for t, d in zip(ts, ds)]
        fitted_K[eps], fitted_C[eps] = diagnostics.exponential_fit(ts, ds)
        ratios[eps] = ds[-1] / ds[0]
    write_rows(os.path.join(outdir, "lipschitz.csv"),
               ["eps", "t", "phi_w_distance"], rows)
    return {"eps": eps_list, "final_over_initial": ratios,
            "fitted_C": fitted_C, "fitted_K": fitted_K}


def _margins(cfg, sweep, workers):
    """Each (N, h2) run's least margins after t = 0 and its trace gap at T."""
    ops = build_operators(cfg)
    runs = _sweep(cfg, [(N, h2, _num(cfg, "seed"), 0.0) for N, h2 in sweep],
                  workers, _sweep_times(cfg, sweep[0][0]))
    return [(*map(min, zip(*(diagnostics.margins(s.field) for s in run[1:]))),
             diagnostics.trace_mismatch(
                 ops, build_solver_config(cfg, N=N, h2=h2), run[-1]))
            for (N, h2), run in zip(sweep, runs)]


def run_separation(cfg, outdir, workers=1, Ns=(8, 16, 32, 64)):
    """Separation margins and trace gaps across the regularization sweep."""
    margins = _margins(cfg, [(N, None) for N in Ns], workers)
    rows = [(N, *m) for N, m in zip(Ns, margins)]
    write_rows(os.path.join(outdir, "separation.csv"),
               ["N", "bulk_margin", "boundary_margin", "trace_gap"], rows)
    cond = check_separation_condition(_make(cfg, *_row(cfg, "potential.kind")))
    return {"rows": rows, "condition_satisfied": cond.satisfied,
            "note": cond.note}


def run_sign_condition(cfg, outdir, workers=1, Ns=(8, 16, 32, 64)):
    """Paired sweep: h2 satisfying the boundary sign condition vs violating
    it, identical solver settings otherwise."""
    g = _make(cfg, *_row(cfg, "boundary.g"))
    branches = {"satisfying": _num(cfg, "forcing.h2"),
                "violating": _num(cfg, "experiment.h2_violating")}
    if not math.isfinite(branches["violating"]):
        raise ConfigError("experiment.h2_violating must be finite, got "
                          f"{branches['violating']!r}")
    holds = {label: check_sign_condition(g, h2, 0.05)
             for label, h2 in branches.items()}
    jobs = [(label, h2, N) for label, h2 in branches.items() for N in Ns]
    margins = _margins(cfg, [(N, h2) for _, h2, N in jobs], workers)
    rows = [(label, h2, holds[label], N, bnd, gap)
            for (label, h2, N), (_, bnd, gap) in zip(jobs, margins)]
    write_rows(os.path.join(outdir, "sign_condition.csv"),
               ["branch", "h2", "condition_holds", "N", "boundary_margin",
                "trace_gap"], rows)
    return {"rows": rows}


def run_stationary(cfg, outdir):
    """One boundary-value solve and an optional slope sweep, run in this
    process."""
    pot = _make(cfg, *_row(cfg, "potential.kind"))
    problem = _make(cfg, stationary.StationaryProblem, ("experiment.K",),
                    potential=pot)
    sweep = cfg["experiment.sweep"]
    if sweep:
        try:
            lo, hi, steps = sweep.split(":")
            lo, hi, steps = float(lo), float(hi), int(steps)
        except ValueError as exc:
            raise ConfigError(
                f"experiment.sweep must be s_min:s_max:steps, got {sweep!r}"
            ) from exc
        if not (0.0 <= lo < math.inf and 0.0 <= hi < math.inf
                and 1 <= steps <= MAX_NODES):
            raise ConfigError("experiment.sweep needs finite slopes >= 0 and "
                              f"1 to {MAX_NODES} steps, got {sweep!r}")
    sol = stationary.solve_bvp(problem)
    write_rows(os.path.join(outdir, "stationary_profile.csv"), ["x", "y", "yp"],
               zip(sol.profile.x.tolist(), sol.profile.y.tolist(),
                   sol.profile.yp.tolist()))
    summary = {"classification": stationary.classify(pot, problem.K),
               "K": problem.K,
               "s": sol.profile.s, "defect": sol.defect}
    crit = stationary.critical_flux(pot)
    if crit is not None:
        summary["s_star"] = crit.s_star
        summary["K_plus"] = crit.K_plus
    if sweep:
        x1s = [(s, stationary.time_of_flight(pot, s))
               for s in np.linspace(lo, hi, steps).tolist()]
        write_rows(os.path.join(outdir, "stationary_sweep.csv"),
                   ["s", "x1", "exit"],
                   [(s, x1, stationary.exit_kind(x1)) for s, x1 in x1s])
        summary["sweep_rows"] = steps
    return summary


def run_decay(cfg, outdir, workers=1):
    """Diameters over time of an ensemble of runs from the seeds seed,
    seed + 1, ..., all at the configured mean."""
    n_ens, ops = _num(cfg, "experiment.ensemble"), build_operators(cfg)
    # the most members whose k (k - 1) / 2 pair differences stack in
    # MAX_NODES nodes
    most = (1 + math.isqrt(1 + 8 * (MAX_NODES // ops.n_bulk))) // 2
    if not 2 <= n_ens <= most:
        raise ConfigError(f"experiment.ensemble must be 2 to {most} ({MAX_NODES}"
                          f" stacked nodes over its member pairs, {ops.n_bulk} "
                          f"each), got {n_ens}")
    runs = _sweep(cfg, [(None, None, _num(cfg, "seed") + k, 0.0)
                        for k in range(n_ens)], workers, _sweep_times(cfg))
    rep = diagnostics.decay_experiment(ops, build_solver_config(cfg), runs)
    write_rows(os.path.join(outdir, "decay.csv"),
               ["t", "phi_w_diameter", "h1_diameter", "energy_spread"],
               zip(rep.times.tolist(), rep.phi_w_diameters.tolist(),
                   rep.h1_diameters.tolist(), rep.energy_spreads.tolist()))
    return {"ensemble": n_ens, "decay_rate": rep.decay_rate,
            "initial_diameter": float(rep.phi_w_diameters[0]),
            "final_diameter": float(rep.phi_w_diameters[-1])}


# The one table of kinds: for each setting that names a kind, each kind's
# driver or class and the keys that kind reads.  An experiment kind reads the
# settings whose kinds its run builds.
_SOLVER = tuple(k for k in DEFAULTS if k.startswith(("solver.", "forcing.")))
_STEPPING = ("domain.kind", "potential.kind", "boundary.g", "seed",
             "experiment.amplitude", "experiment.mean", *_SOLVER)
_N_SWEPT = tuple(key for key in _STEPPING if key != "solver.N")
_TO_T = ("experiment.T", "experiment.cadence")
KINDS = {
    "experiment.kind": {
        "simulate": (run_simulate, _STEPPING + _TO_T),
        "converge-n": (run_converge_n, _N_SWEPT + ("experiment.n_levels",)),
        "lipschitz": (run_lipschitz, _STEPPING + _TO_T + ("experiment.eps",)),
        "separation": (run_separation, _N_SWEPT + _TO_T),
        "sign-condition": (run_sign_condition, _N_SWEPT + _TO_T + (
            "experiment.h2_violating",)),
        "stationary": (run_stationary, ("potential.kind", "experiment.K",
                                        "experiment.sweep")),
        "decay": (run_decay, _STEPPING + _TO_T + ("experiment.ensemble",)),
    },
    "domain.kind": {
        "interval": (Interval, ("domain.n", "domain.a", "domain.b")),
        "strip": (PeriodicStrip, ("domain.Lx", "domain.nx", "domain.ny")),
    },
    "potential.kind": {
        "logarithmic": (LogarithmicPotential, ("potential.kappa0",
                                               "potential.kappa1")),
        "power": (PowerSingularPotential, ("potential.kappa", "potential.p")),
        "smooth": (SmoothDoubleWell, ()),
    },
    "boundary.g": {"linear": (BoundaryNonlinearity, ()),
                   "tanh": (BoundaryNonlinearity, ("boundary.a",))},
}


def run_experiment(cfg, outdir, **options):
    """Dispatch on experiment.kind, passing the driver its options (workers,
    for the sweeps); writes the manifest first so that a crashed run still
    documents what was attempted.  A key the run does not read must be left
    at its default, compared parsed, so that a manifest still replays."""
    reads = {"experiment.kind"}
    for setting in KINDS:  # experiment.kind first
        if setting in reads:
            reads.update(_row(cfg, setting)[1])
    for key, default in DEFAULTS.items():
        try:
            at_default = float(cfg[key]) == float(default)
        except ValueError:  # text, such as a kind or an empty cadence
            at_default = cfg[key] == default
        if not (at_default or key in reads):
            setting = next((s for s, kinds in KINDS.items() if s in reads and
                            any(key in keys for _, keys in kinds.values())),
                           "experiment.kind")
            raise ConfigError(f"{setting} = {cfg[setting]} does not read {key}; "
                              f"leave it out or at its default {default!r}")
    write_manifest(cfg, outdir)
    return _row(cfg, "experiment.kind")[0](cfg, outdir, **options)
