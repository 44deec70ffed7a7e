"""Runtime-checkable diagnostics: energy breakdown, dissipation ledger,
variational-inequality residuals, boundary-trace mismatch, separation
margins, and ensemble decay.

Ensemble decay is post-processing: it takes the members' snapshot States
from runs already made, serially or in a process pool, so this module never
runs the solver.

Time derivatives are backward differences of stored snapshots and time
integrals use rules aligned with the snapshot cadence; no extra state is
kept in the solver.  The variational-inequality constant L comes from the
closed-form Neumann spectrum of the discretization, not an eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import combinations

import numpy as np

from .discretization import write_rows
from .errors import (InadmissibleTestFunctionError, InsufficientDataError,
                     StaleStateError)

__all__ = [
    "forcing_arrays", "EnergyBreakdown", "DiagnosticsRecord", "energy", "record",
    "dissipation_check", "DissipationReport",
    "compute_vi_constant", "vi_residual", "VIReport", "generate_test_functions",
    "trace_mismatch",
    "decay_experiment", "DecayReport", "exponential_fit",
    "records_to_csv",
]


def forcing_arrays(ops, cfg):
    """cfg.h1 and cfg.h2 (scalars or shaped arrays) as flat bulk and trace
    arrays."""
    h1 = np.broadcast_to(np.asarray(cfg.h1, dtype=float), ops.bulk_shape)
    h2 = np.broadcast_to(np.asarray(cfg.h2, dtype=float), ops.trace_shape)
    return h1.ravel(), h2.ravel()


# --------------------------------------------------------------------------
# Energy
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyBreakdown:
    bulk_gradient: float       # (1/2) ||grad u||^2 over the bulk
    boundary_gradient: float   # (1/2) ||surface grad of psi||^2
    bulk_potential: float      # integral of the shifted regularized potential
    boundary_potential: float  # integral of G(psi) over the boundary
    forcing: float             # (h1, u) - (h2, psi)

    @property
    def total(self):
        return (self.bulk_gradient + self.boundary_gradient + self.bulk_potential
                + self.boundary_potential + self.forcing)


def energy(ops, cfg, fld) -> EnergyBreakdown:
    """Quadrature evaluation of every term of the free energy, with the
    shifted potential F_N(u) - lam*u^2/2 in the bulk."""
    reg = cfg.regularized
    u = fld.bulk.ravel()
    psi = fld.trace.ravel()
    h1, h2 = forcing_arrays(ops, cfg)
    bulk_grad = 0.5 * float(u @ (ops.K @ u))
    bnd_grad = 0.5 * float(psi @ (ops.K_gamma @ psi))
    bulk_pot = float(ops.weights @ (reg.F(u) - 0.5 * cfg.lam * u * u))
    bnd_pot = float(ops.boundary_weights @ cfg.g.G(psi))
    forcing = ops.inner(h1, u) - ops.boundary_inner(h2, psi)
    return EnergyBreakdown(bulk_grad, bnd_grad, bulk_pot, bnd_pot, forcing)


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    mass: float
    energy: EnergyBreakdown
    min_u: float
    max_u: float
    bulk_margin: float
    boundary_margin: float
    f_l1: float
    newton_iters: int  # total over the steps since the previous snapshot
    newton_residual: float  # of the step that lands on this snapshot
    mu_mean: float
    newton_factorizations: int  # total over the same steps


def record(ops, cfg, state, report) -> DiagnosticsRecord:
    u = state.field.bulk.ravel()
    psi = state.field.trace.ravel()
    reg = cfg.regularized
    mu_mean = ops.inner(state.mu, np.ones(ops.n_bulk)) / ops.area
    return DiagnosticsRecord(
        t=state.t,
        mass=ops.mean(state.field.bulk),
        energy=energy(ops, cfg, state.field),
        min_u=float(u.min()),
        max_u=float(u.max()),
        bulk_margin=float(1.0 - np.max(np.abs(u))),
        boundary_margin=float(1.0 - np.max(np.abs(psi))),
        f_l1=float(ops.weights @ np.abs(reg.f(u))),
        newton_iters=report.newton_iters,
        newton_residual=report.residual,
        mu_mean=float(mu_mean),
        newton_factorizations=report.factorizations,
    )


def records_to_csv(records, path):
    """One row per record: its fields in order, with the energy spread into
    total_energy and then the EnergyBreakdown terms."""
    names = [f.name for f in fields(DiagnosticsRecord)]
    terms = [f.name for f in fields(EnergyBreakdown)]
    k = names.index("energy")
    head, tail = names[:k], names[k + 1:]
    write_rows(path, head + ["total_energy"] + terms + tail, [
        [getattr(r, n) for n in head] + [r.energy.total]
        + [getattr(r.energy, n) for n in terms] + [getattr(r, n) for n in tail]
        for r in records])


# --------------------------------------------------------------------------
# Dissipation ledger
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DissipationReport:
    violations: int
    ledger: list  # rows (t0, t1, dE, dissipation_rate)


def dissipation_check(traj) -> DissipationReport:
    """Check the discrete energy law between consecutive snapshots:
    E(t1) - E(t0) <= -0.8 * dt * (||du/dt||^2_{H^-1} + ||dpsi/dt||^2_Gamma)
    with the slack 1e-8 (1 + |E(t0)|), plus strict energy monotonicity.
    Assumes static forcing.  The energies after the initial state are read
    from traj.records, one per later snapshot."""
    if len(traj.states) < 2:
        raise InsufficientDataError("need at least two snapshots")
    if [r.t for r in traj.records] != [s.t for s in traj.states[1:]]:
        raise InsufficientDataError("need one record per snapshot after the first")
    ops, cfg = traj.ops, traj.cfg
    energies = [energy(ops, cfg, traj.states[0].field).total] \
        + [r.energy.total for r in traj.records]
    violations = 0
    ledger = []
    for k in range(len(traj.states) - 1):
        s0, s1 = traj.states[k], traj.states[k + 1]
        dt = s1.t - s0.t
        du = (s1.field.bulk - s0.field.bulk) / dt
        dpsi = (s1.field.trace - s0.field.trace) / dt
        rate = ops.h_minus1_norm(du - ops.mean(du)) ** 2 \
            + ops.boundary_inner(dpsi, dpsi)
        dE = energies[k + 1] - energies[k]
        slack = 1e-8 * (1.0 + abs(energies[k]))
        excess = dE + 0.8 * dt * rate
        if excess > slack or dE > slack:
            violations += 1
        ledger.append((s0.t, s1.t, dE, rate))
    return DissipationReport(violations, ledger)


# --------------------------------------------------------------------------
# Variational inequality
# --------------------------------------------------------------------------

def compute_vi_constant(ops, lam):
    """Smallest L making the quadratic form dominate (1/2)||.||^2_{H^1} on the
    zero-mean subspace, plus a 10% margin.

    M is diagonal and K symmetric, so the operator is similar to
    (lam + 1/2) kappa - kappa^2 / 2 over the nonzero closed-form Neumann
    eigenvalues kappa of the discretization.
    """
    kappa = ops.laplacian_eigenvalues()[1:]
    lam_max = float(np.max((lam + 0.5) * kappa - 0.5 * kappa ** 2))
    return 1.1 * max(lam_max, 0.0) + 1e-12


@dataclass(frozen=True)
class VIReport:
    residuals: list
    max_residual: float
    L: float
    scales: list


def _as_window_fields(tf, states):
    """Accept a static Field or a per-snapshot list of Fields."""
    if isinstance(tf, (list, tuple)):
        if len(tf) != len(states):
            raise InadmissibleTestFunctionError(
                "time-varying test function must match the window snapshots")
        return list(tf)
    return [tf] * len(states)


def vi_residual(traj, window, test_functions, L=None) -> VIReport:
    """Time-integrated left-minus-right of the defining variational
    inequality over a snapshot window, one residual per test function.

    Nonpositive residuals (up to discretization noise) mean the inequality is
    satisfied.  Test functions must carry the trajectory mass and stay
    strictly inside (-1, 1).

    Costs two inverse Laplacians per window step and one per distinct
    test-function field (a static test function is one field), not one per
    (test function, step) pair.
    """
    ops, cfg = traj.ops, traj.cfg
    s, t = window
    idx = [k for k, st in enumerate(traj.states) if s - 1e-12 <= st.t <= t + 1e-12]
    if len(idx) < 2:
        raise InsufficientDataError("window must contain at least two snapshots")
    states = [traj.states[k] for k in idx]
    if L is None:
        L = compute_vi_constant(ops, cfg.lam)
    mass = ops.mean(states[0].field.bulk)
    reg = cfg.regularized
    h1, h2 = forcing_arrays(ops, cfg)

    # Per-step data shared by every test function.  In the time pairings the
    # 1/dtau of the differences and the dtau of the rectangle rule cancel.
    # ||d_bar||^2_{H^-1} of d_bar = u_bar - v_bar is expanded as
    # (A u_bar, u_bar) - 2 (A v_bar, u_bar) + (A v_bar, v_bar), so each step
    # and each distinct test-function field needs its own solve only.
    steps = []
    for s0, s1 in zip(states, states[1:]):
        u = s1.field.bulk.ravel()
        du = u - s0.field.bulk.ravel()
        u_bar = u - ops.mean(u)
        psi = s1.field.trace.ravel()
        steps.append((s1.t - s0.t, u, u_bar,
                      ops.inner(ops.inverse_laplacian(u_bar), u_bar), psi,
                      ops.inverse_laplacian(du - ops.mean(du)),
                      (s1.field.trace - s0.field.trace).ravel(),
                      np.ravel(cfg.g.g(psi))))

    solved = {}  # id of a test-function field -> (A v_bar, (A v_bar, v_bar))
    residuals, scales = [], []
    for tf in test_functions:
        vs = _as_window_fields(tf, states)
        for v in vs:
            if np.max(np.abs(v.bulk)) >= 1.0 or np.max(np.abs(v.trace)) >= 1.0:
                raise InadmissibleTestFunctionError("test function reaches +-1")
            if abs(ops.mean(v.bulk) - mass) > 1e-8 * (1.0 + abs(mass)):
                raise InadmissibleTestFunctionError("test function mean mismatch")
        total = 0.0
        size = 0.0
        for (dtau, u, u_bar, uAu, psi, Adu, dpsi, g_psi), v in zip(steps, vs[1:]):
            vb = v.bulk.ravel()
            vt = v.trace.ravel()
            if id(v) not in solved:
                v_bar = vb - ops.mean(vb)
                Av = ops.inverse_laplacian(v_bar)
                solved[id(v)] = Av, ops.inner(Av, v_bar)
            Av, vAv = solved[id(v)]
            diff = u - vb
            diff_t = psi - vt
            total += ops.inner(Adu, diff) + ops.boundary_inner(dpsi, diff_t)
            # B(v, u - v) + (f_N(v), u - v) minus the right-hand side, with
            # L (A v_bar, d_bar) - L (u, A d_bar) = -L ||d_bar||^2_{H^-1}.
            rate = (float(vb @ (ops.K @ diff)) - cfg.lam * ops.inner(vb, diff)
                    - L * (uAu - 2.0 * ops.inner(Av, u_bar) + vAv)
                    + float(vt @ (ops.K_gamma @ diff_t))
                    + ops.inner(reg.f(vb) + h1, diff)
                    + ops.boundary_inner(g_psi - h2, diff_t))
            total += dtau * rate
            size = max(size, np.sqrt(ops.inner(diff, diff))
                       + np.sqrt(ops.boundary_inner(diff_t, diff_t)))
        scale = (t - s) * (1.0 + size) * (1.0 + abs(cfg.lam))
        residuals.append(float(total))
        scales.append(float(scale))
    return VIReport(residuals, float(max(residuals)), float(L), scales)


def generate_test_functions(ops, mass, count=20, seed=0, anchor=None):
    """Admissible test functions: the constant at the conserved mass, convex
    combinations with an anchor snapshot, and mean-corrected smooth bumps
    rescaled into [-0.95, 0.95], kept if they stay inside (-0.975, 0.975)."""
    rng = np.random.default_rng(seed)
    out = []
    const = ops.field_from_bulk(np.full(ops.bulk_shape, mass))
    out.append(const)
    if anchor is not None:
        for alpha in (0.25, 0.5, 0.75):
            bulk = (1.0 - alpha) * anchor.bulk + alpha * mass
            out.append(ops.field_from_bulk(bulk))
    if len(out) < count and not abs(mass) < 0.95:
        # else the amplitude below is not positive and the loop may not end
        raise InadmissibleTestFunctionError(f"no room for bumps at mass {mass!r}")
    while len(out) < count:
        if ops.domain.kind == "interval":
            prof = ops.cosine_mode(0, rng.integers(1, 4))
            prof = prof + 0.5 * rng.standard_normal() * np.exp(
                -((ops.domain.x - rng.uniform(-0.5, 0.5)) / 0.4) ** 2)
        else:
            prof = ops.cosine_mode(rng.integers(1, 3), rng.integers(1, 3))
        prof = prof - ops.mean(prof)
        amp = (0.95 - abs(mass)) * rng.uniform(0.2, 0.95)
        mx = np.max(np.abs(prof))
        bulk = mass + (amp / mx) * prof
        bulk += mass - ops.mean(bulk)  # mean correction, exact to quadrature
        if np.max(np.abs(bulk)) < 0.975:
            out.append(ops.field_from_bulk(bulk))
    return out[:count]


# --------------------------------------------------------------------------
# Trace mismatch
# --------------------------------------------------------------------------

def trace_mismatch(ops, cfg, state) -> float:
    """L^1(Gamma) gap between the normal derivative computed from the bulk
    and the value implied by the dynamic boundary equation."""
    if state.prev_trace is None:
        raise StaleStateError("state has not been stepped")
    internal = ops.normal_derivative(state.field.bulk).ravel()
    psi = state.field.trace.ravel()
    dpsi_dt = (state.field.trace - state.prev_trace).ravel() / cfg.dt
    _, h2 = forcing_arrays(ops, cfg)
    lap_gamma = -(ops.K_gamma @ psi) / ops.boundary_weights
    external = h2 - dpsi_dt + lap_gamma - np.ravel(cfg.g.g(psi))
    return float(ops.boundary_weights @ np.abs(internal - external))


# --------------------------------------------------------------------------
# Ensemble decay
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayReport:
    times: np.ndarray
    phi_w_diameters: np.ndarray
    h1_diameters: np.ndarray
    energy_spreads: np.ndarray
    decay_rate: float  # -K of exponential_fit to the phi_w diameters


def decay_experiment(ops, cfg, runs) -> DecayReport:
    """Diameter decay of an ensemble sharing the same mass; runs holds each
    member's snapshot States, taken at the same times."""
    times = np.array([s.t for s in runs[0]])
    phi_d, h1_d, e_spread = np.zeros((3, len(times)))
    for k in range(len(times)):
        fields = [run[k].field for run in runs]
        energies = [energy(ops, cfg, f).total for f in fields]
        e_spread[k] = max(energies) - min(energies)
        for fi, fj in combinations(fields, 2):
            phi_d[k] = max(phi_d[k], ops.phi_w_distance(fi, fj))
            d = (fi.bulk - fj.bulk).ravel()
            h1 = np.sqrt(float(d @ (ops.K @ d)) + ops.inner(d, d))
            h1_d[k] = max(h1_d[k], h1)
    return DecayReport(times, phi_d, h1_d, e_spread,
                       -exponential_fit(times, phi_d)[0])


def exponential_fit(times, d):
    """(K, C) of d(t) ~ C d(0) e^(K t), fitted to the samples with t > 0
    and d > 1e-14: with two or more, a least-squares line in log(d / d(0));
    with one, K = log(d1 / d(0)) / t1 and C = 1; with none, or d(0) = 0,
    (nan, nan)."""
    times, d = np.asarray(times, dtype=float), np.asarray(d, dtype=float)
    keep = (times > 0) & (d > 1e-14) & (d[0] > 0)
    ts, logs = times[keep], np.log(d[keep] / d[0])
    if len(ts) >= 2:
        K, logC = np.polyfit(ts, logs, 1)
        return float(K), float(np.exp(logC))
    if len(ts) == 1:
        return float(logs[0] / ts[0]), 1.0
    return np.nan, np.nan
