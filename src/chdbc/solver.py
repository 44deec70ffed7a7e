"""Mass-conservative, energy-stable semi-implicit stepper for the
regularized bulk/surface system in mixed (u, mu) form.

Splitting: the monotone regularized nonlinearity and every linear elliptic
term are implicit; the concave linear shift -lambda*u and the bounded
boundary perturbation g0 are explicit.  The trace unknowns are eliminated
into the bulk boundary nodes, so psi = u|_Gamma is exact for t > 0.

Discrete equations per step (M, K bulk mass/stiffness, B trace selection,
M_G, K_G their boundary counterparts, C = M_G/dt + K_G + M_G):

    M (u+ - u) + dt K mu+ = 0
    M mu+ = K u+ + M (f_N(u+) - lam*u + h1)
            + B^T [ M_G (B u+ - psi)/dt + (K_G + M_G) B u+ + M_G (g0(psi) - h2) ]

Newton runs on mu alone: u = u_old - P mu, P = dt M^-1 K, solves the first
equation, and u moves by increments P dmu, so it is rounded once per step.
r2 = M (mu - f_N(u)) - A u - rhs2, A = K + B^T C B, has Jacobian S^T in mu,
S = M + dt K M^-1 A + dt K diag(f_N'(u)).  One LU of S is kept across
iterations and steps (chord Newton), solved transposed, and remade at the
current iterate after an iteration that shrinks |r2| by less than
_CONTRACTION.  P 1 = 0, so each iterate's constant mode of mu is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import diagnostics
from .discretization import Field
from .errors import (ConfigError, LinearSolveFailedError, NewtonDivergedError,
                     StaleStateError)
from .potentials import BoundaryNonlinearity, RegularizedPotential

__all__ = ["SolverConfig", "State", "StepReport", "Stepper", "Trajectory",
           "simulate", "chemical_potential_mean", "MuMeanReport"]


@dataclass(frozen=True)
class SolverConfig:
    potential: object
    N: int = 8
    lam: float = 0.0
    dt: float = 1e-3
    g: BoundaryNonlinearity = field(default_factory=BoundaryNonlinearity.linear)
    h1: object = 0.0  # scalar or bulk-shaped array
    h2: object = 0.0  # scalar or trace-shaped array
    newton_tol: float = 1e-10
    newton_max_iter: int = 50

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.N < 2:
            raise ValueError("N must be >= 2")
        if not math.isfinite(self.lam):
            raise ValueError("lam must be finite")
        if not np.all(np.isfinite(self.h1)):
            raise ValueError("h1 must be finite")
        if not 0.0 < self.newton_tol < math.inf:
            raise ValueError("newton_tol must be finite and positive")
        if self.newton_max_iter < 1:
            raise ValueError("newton_max_iter must be >= 1")

    @property
    def regularized(self):
        return RegularizedPotential(self.potential, self.N)


@dataclass
class State:
    t: float
    field: Field
    mu: np.ndarray | None = None
    # Backward-step context for mean-potential bookkeeping and diagnostics.
    prev_bulk: np.ndarray | None = None
    prev_trace: np.ndarray | None = None

    def copy(self):
        return State(self.t, self.field.copy(),
                     None if self.mu is None else self.mu.copy(),
                     None if self.prev_bulk is None else self.prev_bulk.copy(),
                     None if self.prev_trace is None else self.prev_trace.copy())


@dataclass(frozen=True)
class StepReport:
    newton_iters: int
    residual: float
    factorizations: int  # LUs of S made during the step


_CONTRACTION = 0.1  # refactor once |r_new| > _CONTRACTION |r|


class Stepper:
    """Prebuilt matrices and the kept LU of S for one (ops, cfg) pair."""

    def __init__(self, ops, cfg: SolverConfig):
        self.ops, self.cfg = ops, cfg
        self.reg = cfg.regularized
        w = ops.weights
        ng = len(ops.boundary_weights)
        B = sp.csr_array((np.ones(ng), (np.arange(ng), ops.boundary_indices)),
                         shape=(ng, ops.n_bulk))
        Mg = sp.diags_array(ops.boundary_weights)
        self.A = (ops.K + B.T @ (Mg / cfg.dt + ops.K_gamma + Mg) @ B).tocsr()
        self.BtMg = (B.T @ Mg).tocsr()
        self.dtK = (cfg.dt * ops.K).tocsc()
        self.P = (sp.diags_array(1.0 / w) @ self.dtK).tocsr()
        self.S0 = (sp.diags_array(w) + self.P.T @ self.A).tocsc()  # K = K^T
        # S = S0 + dt K diag(f_N'(u)) scales column j of dt K by f_N'(u_j)
        self.dtK_cols = np.repeat(np.arange(ops.n_bulk), np.diff(self.dtK.indptr))
        self.lu = self.mu_out = None  # LU of S; the mu of the last step
        self.h1, self.h2 = diagnostics.forcing_arrays(ops, cfg)
        self.w_sum = float(np.sum(w))

    def _residual(self, u, mu, rhs2):
        return self.ops.weights * (mu - self.reg.f(u)) - self.A @ u - rhs2

    def step(self, state: State):
        ops, cfg = self.ops, self.cfg
        w = ops.weights
        u_old, psi_old = state.field.bulk.ravel(), state.field.trace.ravel()
        rhs2 = w * (self.h1 - cfg.lam * u_old) + self.BtMg @ (
            np.ravel(cfg.g.g0(psi_old)) - self.h2 - psi_old / cfg.dt)
        scale = 1.0 + np.linalg.norm(w * u_old) + np.linalg.norm(self.h1) \
            + np.linalg.norm(self.h2)

        # This stepper's own last mu starts u at u_old - P mu, a time
        # extrapolation.  A foreign mu may put that u far off, so it is
        # dropped and Newton starts at u_old with mu = 0.
        own = state.mu is not None and state.mu is self.mu_out
        mu = state.mu.ravel().copy() if own else np.zeros_like(u_old)
        u = u_old - self.P @ mu
        iters = factorizations = 0
        while True:
            r2 = self._residual(u, mu, rhs2)
            rnorm_new = np.linalg.norm(r2)
            finite = np.isfinite(rnorm_new)  # NaN data, infinite forcing
            if finite and iters:  # each update's constant mode, exactly
                c = -r2.sum() / self.w_sum  # moves r2 by c w, u not at all
                mu += c
                r2 += c * w
                rnorm_new = np.linalg.norm(r2)
            if iters and not rnorm_new <= _CONTRACTION * rnorm:
                self.lu = None
            rnorm = rnorm_new
            if finite and rnorm <= cfg.newton_tol * scale:
                break
            if iters >= cfg.newton_max_iter or not finite:
                raise NewtonDivergedError(
                    f"Newton stalled at residual {rnorm:.3e}",
                    residual=rnorm, iterations=iters, time=state.t)
            if self.lu is None:  # refactor at the current iterate
                S = self.S0 + sp.csc_array(
                    (self.dtK.data * self.reg.df(u)[self.dtK_cols],
                     self.dtK.indices, self.dtK.indptr), shape=self.dtK.shape)
                try:
                    self.lu = spla.splu(S, permc_spec="MMD_AT_PLUS_A")
                except RuntimeError as exc:
                    raise LinearSolveFailedError(str(exc)) from exc
                factorizations += 1
            dmu = self.lu.solve(r2, trans="T")
            mu -= dmu
            u = u + self.P @ dmu
            iters += 1

        bulk = u.reshape(ops.bulk_shape)
        self.mu_out = mu.reshape(ops.bulk_shape)
        return State(state.t + cfg.dt, Field(bulk, ops.trace_of(bulk)),
                     self.mu_out, state.field.bulk.copy(),
                     state.field.trace.copy()), \
            StepReport(iters, float(rnorm / scale), factorizations)


@dataclass
class Trajectory:
    ops: object
    cfg: SolverConfig
    states: list  # snapshots at cadence, initial state included
    records: list  # one DiagnosticsRecord per post-initial snapshot
    cadence: float

    @property
    def times(self):
        return np.array([s.t for s in self.states])

    @property
    def final(self):
        return self.states[-1]


def _grid_steps(name, value, dt):
    """The number of dt steps in value, which must be a positive multiple of dt."""
    k = round(value / dt) if math.isfinite(value / dt) else 0
    if k < 1 or abs(k * dt - value) > 1e-9 * value:
        raise ConfigError(f"{name}={value!r} is not a positive multiple of "
                          f"dt={dt!r}")
    return k


def simulate(ops, cfg: SolverConfig, initial: Field, T, cadence=None) -> Trajectory:
    """Advance from the initial field to time T, snapshotting at the cadence.

    T and the cadence must be multiples of dt; snapshot times are k*dt.  The
    initial trace may disagree with the bulk boundary values; the first
    implicit step resolves the mismatch.  Deterministic for fixed inputs.
    """
    n_steps = _grid_steps("T", T, cfg.dt)
    cadence = cfg.dt if cadence is None else cadence
    stride = _grid_steps("cadence", cadence, cfg.dt)
    if stride > n_steps:
        raise ConfigError("cadence must not exceed T")
    stepper = Stepper(ops, cfg)
    state = State(t=0.0, field=initial.copy())
    states = [state.copy()]
    records = []
    iters = factorizations = 0  # totals over the current snapshot interval
    for k in range(1, n_steps + 1):
        state, report = stepper.step(state)  # raises with the step's start time
        state.t = k * cfg.dt
        iters += report.newton_iters
        factorizations += report.factorizations
        if k % stride == 0 or k == n_steps:
            states.append(state.copy())
            records.append(diagnostics.record(ops, cfg, state, replace(
                report, newton_iters=iters, factorizations=factorizations)))
            iters = factorizations = 0
    return Trajectory(ops, cfg, states, records, cadence)


@dataclass(frozen=True)
class MuMeanReport:
    direct: float
    formula: float
    residual: float


def chemical_potential_mean(ops, cfg: SolverConfig, state: State) -> MuMeanReport:
    """Mean chemical potential, directly and through the boundary bookkeeping
    identity (surface time derivative + boundary nonlinearity - boundary
    forcing + bulk nonlinearity + bulk forcing), mirroring the splitting.
    """
    if state.mu is None or state.prev_trace is None:
        raise StaleStateError("no step taken yet; mu is unavailable")
    direct = ops.inner(state.mu, np.ones(ops.n_bulk)) / ops.area
    psi, psi_old = state.field.trace.ravel(), state.prev_trace.ravel()
    h1, h2 = diagnostics.forcing_arrays(ops, cfg)
    formula = ops.mean(cfg.regularized.f(state.field.bulk.ravel())
                       - cfg.lam * state.prev_bulk.ravel() + h1) \
        + ops.boundary_mean((psi - psi_old) / cfg.dt + psi
                            + np.ravel(cfg.g.g0(psi_old)) - h2)
    return MuMeanReport(direct, formula,
                        abs(direct - formula) / (1.0 + abs(direct)))
