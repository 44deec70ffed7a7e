"""Batch experiment drivers: flat key=value configs, deterministic seeding,
CSV outputs and a manifest that reproduces the run.

Every driver takes a resolved config dict (strings, as parsed) plus an output
directory, writes its artifacts there, and returns a small summary dict that
the command-line layer prints one line at a time.  Sweeps optionally fan out
to a process pool; workers rebuild their problem from the plain config dict,
and the parent process alone writes files.  Each process builds the operators
of a domain once.
"""

from __future__ import annotations

import concurrent.futures
import functools
import math
import os

import numpy as np

from . import diagnostics, stationary
from .discretization import (Field, Interval, PeriodicStrip, field_to_csv,
                             make_operators, write_rows)
from .errors import ConfigError
from .potentials import (BoundaryNonlinearity, check_sign_condition,
                         check_separation_condition, potential_from_config)
from .solver import SolverConfig, simulate

__all__ = [
    "DEFAULTS", "parse_config", "resolve_config", "write_manifest",
    "build_operators", "build_solver_config", "initial_field",
    "run_simulate", "run_converge_n", "run_lipschitz", "run_separation",
    "run_sign_condition", "run_stationary", "run_decay", "run_experiment",
]

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
    """Flat key = value lines; # starts a comment; unknown keys are an error."""
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
        out[key] = val
    return out


def resolve_config(overrides=None, seed=None) -> dict:
    cfg = dict(DEFAULTS)
    cfg.update(overrides or {})
    if seed is not None:
        cfg["seed"] = str(int(seed))
    kind = cfg["experiment.kind"]
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"experiment.kind must be one of {EXPERIMENT_KINDS}, "
                          f"got {kind!r}")
    return cfg


def _f(cfg, key):
    try:
        return float(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: not a number: {cfg[key]!r}") from exc


def _i(cfg, key):
    try:
        return int(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: not an integer: {cfg[key]!r}") from exc


def write_manifest(cfg, outdir):
    """The manifest is itself a valid config file reproducing the run."""
    from . import __version__

    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "manifest.txt")
    with open(path, "w") as fh:
        fh.write(f"# code version {__version__}\n")
        for key in sorted(cfg):
            fh.write(f"{key} = {cfg[key]}\n")
    return path


def _build(make, *args, **kwargs):
    """make(*args, **kwargs), with its rejection of a value as a ConfigError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_operators(cfg):
    kind = cfg["domain.kind"]
    if kind == "interval":
        dom = _build(Interval, _i(cfg, "domain.n"), _f(cfg, "domain.a"),
                     _f(cfg, "domain.b"))
    elif kind == "strip":
        dom = _build(PeriodicStrip, _f(cfg, "domain.Lx"), _i(cfg, "domain.nx"),
                     _i(cfg, "domain.ny"))
    else:
        raise ConfigError(f"domain.kind must be interval or strip, got {kind!r}")
    return _operators(dom)


@functools.lru_cache(maxsize=8)
def _operators(dom):
    """make_operators(dom), once per process for each domain: a sweep's runs
    share their parent's set, and a pool worker builds its own.  Operators
    are never modified after they are built."""
    return make_operators(dom)


def _boundary_g(cfg):
    name = cfg["boundary.g"]
    if name == "linear":
        return BoundaryNonlinearity.linear()
    if name == "tanh":
        return _build(BoundaryNonlinearity.tanh_tilt, _f(cfg, "boundary.a"))
    raise ConfigError(f"boundary.g must be linear or tanh, got {name!r}")


def build_solver_config(cfg, N=None, h2=None) -> SolverConfig:
    pot = _build(
        potential_from_config, cfg["potential.kind"],
        kappa0=_f(cfg, "potential.kappa0"), kappa1=_f(cfg, "potential.kappa1"),
        kappa=_f(cfg, "potential.kappa"), p=_f(cfg, "potential.p"))
    return _build(
        SolverConfig,
        potential=pot,
        N=int(N if N is not None else _i(cfg, "solver.N")),
        lam=_f(cfg, "solver.lam"),
        dt=_f(cfg, "solver.dt"),
        g=_boundary_g(cfg),
        h1=_f(cfg, "forcing.h1"),
        h2=float(h2 if h2 is not None else _f(cfg, "forcing.h2")),
        newton_tol=_f(cfg, "solver.newton_tol"),
        newton_max_iter=_i(cfg, "solver.newton_max_iter"),
    )


def _cadence(cfg):
    return _f(cfg, "experiment.cadence") if cfg["experiment.cadence"] else None


def initial_field(ops, seed, amplitude, mean) -> Field:
    """Deterministic spinodal-like data: a few random low modes, normalized,
    then mean-corrected so that |u0| <= |mean| + amplitude < 1."""
    if not abs(mean) + amplitude < 1.0:  # NaN fails too
        raise ConfigError("require |experiment.mean| + experiment.amplitude < 1")
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

def _trajectory(cfg, N, h2, seed, eps, T, cadence):
    """One run, rebuilt from the plain config dict.  N and h2 of None take
    the config's values; eps > 0 adds eps times a fixed mean-neutral mode to
    the initial data."""
    ops = build_operators(cfg)
    scfg = build_solver_config(cfg, N=N, h2=h2)
    f0 = initial_field(ops, seed, _f(cfg, "experiment.amplitude"),
                       _f(cfg, "experiment.mean"))
    if eps:
        dv = ops.cosine_mode(0, 2) if ops.domain.kind == "interval" \
            else ops.cosine_mode(1, 1)
        dv = dv - ops.mean(dv)
        dv /= np.max(np.abs(dv))
        f0 = ops.field_from_bulk(f0.bulk + eps * dv)
    return simulate(ops, scfg, f0, T, cadence)


def _run(args):
    """_trajectory(*args).states, for a pool process: a Trajectory does not
    pickle, since its operators hold a SuperLU."""
    return _trajectory(*args).states


def _sweep(cfg, jobs, workers, T=None, cadence=None):
    """The snapshot States of each (N, h2, seed, eps) job, in order, run in
    at most `workers` processes.  T defaults to experiment.T, and the
    cadence to experiment.cadence or else every 10th step, capped by T."""
    if T is None:
        T = _f(cfg, "experiment.T")
        cadence = min(_cadence(cfg) or 10.0 * build_solver_config(cfg).dt, T)
    args = [(cfg, *job, T, cadence) for job in jobs]
    workers = min(workers, len(args))
    if workers <= 1:
        return [_run(a) for a in args]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(_run, args))


def run_simulate(cfg, outdir):
    """One trajectory, with its snapshots and diagnostics table."""
    traj = _trajectory(cfg, None, None, _i(cfg, "seed"), 0.0,
                       _f(cfg, "experiment.T"), _cadence(cfg))
    ops = traj.ops
    os.makedirs(outdir, exist_ok=True)
    for k, st in enumerate(traj.states):
        field_to_csv(ops, st.field, os.path.join(outdir, f"snapshot_{k:04d}.csv"))
    diagnostics.records_to_csv(traj.records,
                               os.path.join(outdir, "diagnostics.csv"))
    rep = diagnostics.dissipation_check(traj)
    last = traj.records[-1]
    return {
        "snapshots": len(traj.states),
        "final_time": traj.final.t,
        "final_energy": last.energy.total,
        "mass_drift": abs(last.mass - ops.mean(traj.states[0].field.bulk)),
        "dissipation_violations": rep.violations,
    }


def run_converge_n(cfg, outdir, workers=1, times=(0.1, 0.5, 1.0)):
    """Cauchy table || u_N - u_2N ||_phi_w at a few times over doubling N."""
    n_levels = _i(cfg, "experiment.n_levels")
    if n_levels < 1:
        raise ConfigError(f"experiment.n_levels must be >= 1, got {n_levels}")
    Ns = [4 * 2 ** k for k in range(n_levels + 1)]  # one extra for the 2N leg
    ops = build_operators(cfg)
    dt = build_solver_config(cfg, N=Ns[0]).dt
    # Snapshot only on the coarsest grid that holds every requested time.
    steps = [round(t / dt) for t in times]
    stride = math.gcd(*steps)
    jobs = [(N, None, _i(cfg, "seed"), 0.0) for N in Ns]
    runs = dict(zip(Ns, _sweep(cfg, jobs, workers, max(times), stride * dt)))
    rows = [(t, N, ops.phi_w_distance(runs[N][k // stride].field,
                                      runs[2 * N][k // stride].field))
            for t, k in zip(times, steps) for N in Ns[:-1]]
    os.makedirs(outdir, exist_ok=True)
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
        cfg, [(None, None, _i(cfg, "seed"), eps) for eps in [0.0] + eps_list],
        workers)
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
    os.makedirs(outdir, exist_ok=True)
    write_rows(os.path.join(outdir, "lipschitz.csv"),
               ["eps", "t", "phi_w_distance"], rows)
    return {"eps": eps_list, "final_over_initial": ratios,
            "fitted_C": fitted_C, "fitted_K": fitted_K}


def _final_margins(cfg, sweep, workers):
    """(bulk margin, boundary margin, trace gap) at T of each (N, h2) run."""
    ops = build_operators(cfg)
    scfgs = [build_solver_config(cfg, N=N, h2=h2) for N, h2 in sweep]
    runs = _sweep(cfg, [(N, h2, _i(cfg, "seed"), 0.0) for N, h2 in sweep],
                  workers)
    return [(1.0 - float(np.max(np.abs(run[-1].field.bulk))),
             1.0 - float(np.max(np.abs(run[-1].field.trace))),
             diagnostics.trace_mismatch(ops, scfg, run[-1]))
            for scfg, run in zip(scfgs, runs)]


def run_separation(cfg, outdir, workers=1, Ns=(8, 16, 32, 64)):
    """Boundary margins and trace gaps across the regularization sweep."""
    margins = _final_margins(cfg, [(N, None) for N in Ns], workers)
    rows = [(N, *m) for N, m in zip(Ns, margins)]
    os.makedirs(outdir, exist_ok=True)
    write_rows(os.path.join(outdir, "separation.csv"),
               ["N", "bulk_margin", "boundary_margin", "trace_gap"], rows)
    cond = check_separation_condition(build_solver_config(cfg).potential)
    return {"rows": rows, "condition_satisfied": cond.satisfied,
            "note": cond.note}


def run_sign_condition(cfg, outdir, workers=1, Ns=(8, 16, 32, 64)):
    """Paired sweep: h2 satisfying the boundary sign condition vs violating
    it, identical solver settings otherwise."""
    g = _boundary_g(cfg)
    branches = {"satisfying": _f(cfg, "forcing.h2"),
                "violating": _f(cfg, "experiment.h2_violating")}
    holds = {label: check_sign_condition(g, h2, 0.05)
             for label, h2 in branches.items()}
    jobs = [(label, h2, N) for label, h2 in branches.items() for N in Ns]
    margins = _final_margins(cfg, [(N, h2) for _, h2, N in jobs], workers)
    rows = [(label, h2, holds[label], N, bnd, gap)
            for (label, h2, N), (_, bnd, gap) in zip(jobs, margins)]
    os.makedirs(outdir, exist_ok=True)
    write_rows(os.path.join(outdir, "sign_condition.csv"),
               ["branch", "h2", "condition_holds", "N", "boundary_margin",
                "trace_gap"], rows)
    return {"rows": rows}


def run_stationary(cfg, outdir):
    """One boundary-value solve and an optional slope sweep, run in this
    process."""
    pot = build_solver_config(cfg).potential
    K = _f(cfg, "experiment.K")
    problem = _build(stationary.StationaryProblem, pot, K)
    sweep = cfg["experiment.sweep"]
    if sweep:
        try:
            lo, hi, steps = sweep.split(":")
            lo, hi, steps = float(lo), float(hi), int(steps)
        except ValueError as exc:
            raise ConfigError(
                f"experiment.sweep must be s_min:s_max:steps, got {sweep!r}"
            ) from exc
        if not (0.0 <= lo < math.inf and 0.0 <= hi < math.inf and steps >= 1):
            raise ConfigError("experiment.sweep needs finite slopes >= 0 and "
                              f"steps >= 1, got {sweep!r}")
    sol = stationary.solve_bvp(problem)
    os.makedirs(outdir, exist_ok=True)
    write_rows(os.path.join(outdir, "stationary_profile.csv"), ["x", "y", "yp"],
               zip(sol.profile.x.tolist(), sol.profile.y.tolist(),
                   sol.profile.yp.tolist()))
    summary = {"classification": stationary.classify(pot, K), "K": K,
               "s": sol.s, "kind": sol.kind, "defect": sol.defect}
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
    n_ens = _i(cfg, "experiment.ensemble")
    if n_ens < 2:
        raise ConfigError(f"experiment.ensemble must be >= 2, got {n_ens}")
    runs = _sweep(cfg, [(None, None, _i(cfg, "seed") + k, 0.0)
                        for k in range(n_ens)], workers)
    rep = diagnostics.decay_experiment(build_operators(cfg),
                                       build_solver_config(cfg), runs)
    os.makedirs(outdir, exist_ok=True)
    write_rows(os.path.join(outdir, "decay.csv"),
               ["t", "phi_w_diameter", "h1_diameter", "energy_spread"],
               zip(rep.times.tolist(), rep.phi_w_diameters.tolist(),
                   rep.h1_diameters.tolist(), rep.energy_spreads.tolist()))
    return {"ensemble": n_ens, "decay_rate": rep.decay_rate,
            "initial_diameter": float(rep.phi_w_diameters[0]),
            "final_diameter": float(rep.phi_w_diameters[-1])}


# The one table of drivers: experiment kinds and CLI subcommands alike.
_RUNNERS = {
    "simulate": run_simulate,
    "converge-n": run_converge_n,
    "lipschitz": run_lipschitz,
    "separation": run_separation,
    "sign-condition": run_sign_condition,
    "stationary": run_stationary,
    "decay": run_decay,
}
EXPERIMENT_KINDS = tuple(_RUNNERS)
# Keys a driver does not read, since it sets their values itself.
_UNREAD = {"converge-n": ("experiment.T", "experiment.cadence", "solver.N"),
           "separation": ("solver.N",), "sign-condition": ("solver.N",)}


def run_experiment(cfg, outdir, **options):
    """Dispatch on experiment.kind, passing the driver its options (workers,
    for the sweeps); writes the manifest first so that a crashed run still
    documents what was attempted.  A key the driver does not read must be
    left at its default, compared parsed, so that a manifest still replays."""
    kind = cfg["experiment.kind"]
    for key in _UNREAD.get(kind, ()):
        value, default = cfg[key], DEFAULTS[key]
        if value != default and (not value or not default
                                 or _f(cfg, key) != float(default)):
            raise ConfigError(f"{kind} does not read {key}; leave it out or "
                              f"at its default {default!r}")
    write_manifest(cfg, outdir)
    return _RUNNERS[kind](cfg, outdir, **options)
