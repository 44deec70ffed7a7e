"""Runtime-checkable diagnostics: energy breakdown, the discrete energy law,
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

import numpy as np

from .discretization import Field, _dot, write_rows
from .errors import (InadmissibleTestFunctionError, InsufficientDataError,
                     StaleStateError)


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


def margins(fld):
    """The separation margins (1 - max|u|, 1 - max|psi|) of a field."""
    return tuple(float(1.0 - np.max(np.abs(v))) for v in (fld.bulk, fld.trace))


def record(ops, cfg, state, report) -> DiagnosticsRecord:
    u = state.field.bulk.ravel()
    bulk_margin, boundary_margin = margins(state.field)
    return DiagnosticsRecord(
        t=state.t,
        mass=ops.mean(state.field.bulk),
        energy=energy(ops, cfg, state.field),
        min_u=float(u.min()), max_u=float(u.max()),
        bulk_margin=bulk_margin, boundary_margin=boundary_margin,
        f_l1=float(ops.weights @ np.abs(cfg.regularized.f(u))),
        newton_iters=report.newton_iters,
        newton_residual=report.residual,
        mu_mean=float(ops.inner(state.mu, np.ones(ops.n_bulk)) / ops.area),
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
# Energy law
# --------------------------------------------------------------------------

def dissipation_check(traj) -> int:
    """The number of snapshot intervals that break the discrete energy law
    E(t1) - E(t0) <= -0.8 * dt * (||du/dt||^2_{H^-1} + ||dpsi/dt||^2_Gamma)
    or energy monotonicity, each with the slack 1e-8 (1 + |E(t0)|).
    Assumes static forcing.  The energies after the initial state are read
    from traj.records, one per later snapshot; the intervals are one stack."""
    if len(traj.states) < 2:
        raise InsufficientDataError("need at least two snapshots")
    if [r.t for r in traj.records] != [s.t for s in traj.states[1:]]:
        raise InsufficientDataError("need one record per snapshot after the first")
    ops, cfg = traj.ops, traj.cfg
    E = np.array([energy(ops, cfg, traj.states[0].field).total]
                 + [r.energy.total for r in traj.records])
    dt, _, _, du, dpsi = _steps(ops, traj.states)
    du, dpsi = du / dt[:, None], dpsi / dt[:, None]
    rate = np.maximum(_dot(ops.weights * ops.inverse_laplacian(du), du), 0.0) \
        + _dot(ops.boundary_weights * dpsi, dpsi)
    dE, slack = np.diff(E), 1e-8 * (1.0 + np.abs(E[:-1]))
    return int(np.count_nonzero((dE + 0.8 * dt * rate > slack) | (dE > slack)))


def _steps(ops, states):
    """One row per snapshot interval: its length, the bulk and trace at its
    end, and their changes over it, the bulk's with its mean removed."""
    u = np.array([s.field.bulk.ravel() for s in states])
    psi = np.array([s.field.trace.ravel() for s in states])
    return (np.diff([s.t for s in states]), u[1:], psi[1:],
            _mean_free(ops, np.diff(u, axis=0)), np.diff(psi, axis=0))


def _mean_free(ops, rows):
    return rows - (rows[..., None, :] @ ops.weights) / ops.area


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
    L: float
    scales: list


def vi_residual(traj, window, test_functions, L=None) -> VIReport:
    """Time-integrated left-minus-right of the defining variational
    inequality over a snapshot window, one residual per test function: a
    Field (static) or a list of Fields, one per window snapshot.  Residuals
    <= 0 (up to discretization noise) mean the inequality holds; test
    functions must carry the trajectory mass and stay inside (-1, 1).

    Each term is a row-wise inner product over the stacked window steps, a
    static test function one row broadcast over them.  Costs two inverse
    Laplacians per window step and one per distinct test-function field,
    one solve per stack.
    """
    ops, cfg = traj.ops, traj.cfg
    s, t = window
    states = [st for st in traj.states if s - 1e-12 <= st.t <= t + 1e-12]
    if len(states) < 2:
        raise InsufficientDataError("window must contain at least two snapshots")
    if L is None:
        L = compute_vi_constant(ops, cfg.lam)
    # In the time pairings the 1/dtau of the differences and the dtau of the
    # rectangle rule cancel.
    dtau, u, psi, du, dpsi = _steps(ops, states)
    w, w_gamma = ops.weights, ops.boundary_weights
    u_bar = _mean_free(ops, u)
    uAu = _dot(w * ops.inverse_laplacian(u_bar), u_bar)
    wAdu, wdpsi = w * ops.inverse_laplacian(du), w_gamma * dpsi
    h1, h2 = forcing_arrays(ops, cfg)
    g_psi = w_gamma * (cfg.g.g(psi) - h2)
    mass = ops.mean(states[0].field.bulk)
    residuals, scales = [], []
    for tf in test_functions:
        static = not isinstance(tf, (list, tuple))
        if not static and len(tf) != len(states):
            raise InadmissibleTestFunctionError(
                "time-varying test function must match the window snapshots")
        vb = np.array([v.bulk.ravel() for v in ([tf] if static else tf)])
        vt = np.array([v.trace.ravel() for v in ([tf] if static else tf)])
        if not (np.max(np.abs(vb)) < 1.0 and np.max(np.abs(vt)) < 1.0):
            raise InadmissibleTestFunctionError(
                "test function reaches +-1 or is not finite")
        if not np.all(np.abs(vb @ w / ops.area - mass) <= 1e-8 * (1.0 + abs(mass))):
            raise InadmissibleTestFunctionError("test function mean mismatch")
        if not static:  # its fields at the step ends
            vb, vt = vb[1:], vt[1:]
        v_bar = _mean_free(ops, vb)
        wAv = w * ops.inverse_laplacian(v_bar)
        # ||d_bar||^2_{H^-1} of d_bar = u_bar - v_bar as (A u_bar, u_bar) -
        # 2 (A v_bar, u_bar) + (A v_bar, v_bar): one dot for all three, so
        # v = u cancels to exactly 0.
        dAd = uAu - 2.0 * _dot(wAv, u_bar) + _dot(wAv, v_bar)
        diff, diff_t = u - vb, psi - vt
        # B(v, d) + (f_N(v), d) minus the right-hand side, d = u - v, with
        # L (A v_bar, d_bar) - L (u, A d_bar) = -L ||d_bar||^2_{H^-1}; K and
        # K_gamma are symmetric, so v K d = (K v) d.
        c = (ops.K @ vb.T).T + w * (cfg.regularized.f(vb) + h1 - cfg.lam * vb)
        rate = (_dot(c, diff) + _dot((ops.K_gamma @ vt.T).T + g_psi, diff_t)
                - L * dAd)
        total = _dot(wAdu, diff) + _dot(wdpsi, diff_t) + dtau * rate
        size = np.sqrt(_dot(w * diff, diff)) + np.sqrt(_dot(w_gamma * diff_t, diff_t))
        residuals.append(float(np.sum(total)))
        scales.append((t - s) * (1.0 + float(np.max(size))) * (1.0 + abs(cfg.lam)))
    return VIReport(residuals, float(L), scales)


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
    member's snapshot States, taken at the same times.  At each snapshot
    member a's pairs with the members after it are one stack, one Poisson
    solve; a pair's distances have the same bits in any stack."""
    times = np.array([s.t for s in runs[0]])
    phi_d, h1_d, e_spread = np.zeros((3, len(times)))
    for k in range(len(times)):
        fields = [run[k].field for run in runs]
        energies = [energy(ops, cfg, f).total for f in fields]
        e_spread[k] = max(energies) - min(energies)
        u = np.array([f.bulk for f in fields])
        psi = np.array([f.trace for f in fields])
        for a in range(len(runs) - 1):  # member a against those after it
            phi = ops.phi_w_distance(Field(u[a:a + 1], psi[a:a + 1]),
                                     Field(u[a + 1:], psi[a + 1:]))
            d = (u[a] - u[a + 1:]).reshape(-1, ops.n_bulk)
            Kd = np.ascontiguousarray((ops.K @ d.T).T)  # unit-stride rows to dot
            h1 = np.sqrt(_dot(Kd, d) + _dot(ops.weights * d, d))
            phi_d[k] = np.max(phi, initial=phi_d[k])
            h1_d[k] = np.max(h1, initial=h1_d[k])
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
