"""Mass-conservative, energy-stable semi-implicit stepper for the
regularized bulk/surface system in mixed (u, mu) form.

Splitting: the monotone regularized nonlinearity and every linear elliptic
term are implicit; the concave linear shift -lambda*u and the bounded
boundary perturbation g0 are explicit.  Newton solves the coupled
(u, mu) system with the trace unknowns eliminated into the bulk boundary
nodes, so the trace coupling psi = u|_Gamma is exact for t > 0.

Discrete equations per step (M, K bulk mass/stiffness, B trace selection,
M_G, K_G their boundary counterparts, C = M_G/dt + K_G + M_G):

    M (u+ - u) + dt K mu+ = 0
    M mu+ = K u+ + M (f_N(u+) - lam*u + h1)
            + B^T [ M_G (B u+ - psi)/dt + (K_G + M_G) B u+ + M_G (g0(psi) - h2) ]

After Newton converges, u+ is recomputed from the first (linear) equation,
which enforces the conservative flux form, and hence mass conservation, to
round-off rather than to the Newton tolerance.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

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

log = logging.getLogger("chdbc")


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


class Stepper:
    """Prebuilt matrices and Newton machinery for one (ops, cfg) pair."""

    def __init__(self, ops, cfg: SolverConfig):
        self.ops = ops
        self.cfg = cfg
        self.reg = cfg.regularized
        n = ops.n_bulk
        ng = len(ops.boundary_weights)
        self.M = sp.diags_array(ops.weights).tocsr()
        self.K = ops.K
        self.B = sp.csr_array(
            (np.ones(ng), (np.arange(ng), ops.boundary_indices)), shape=(ng, n))
        self.Mg = sp.diags_array(ops.boundary_weights).tocsr()
        C = self.Mg / cfg.dt + ops.K_gamma + self.Mg
        self.BtCB = (self.B.T @ C @ self.B).tocsr()
        self.h1, self.h2 = diagnostics.forcing_arrays(ops, cfg)
        self._warn_shift()

    def _warn_shift(self):
        # Surface the regime where the explicit shift dominates the implicit
        # slope; the splitting is only provably monotone below it.
        fmin = float(np.min(self.reg.df(np.linspace(-2.0, 2.0, 401))))
        if self.cfg.lam >= fmin:
            log.warning("lambda=%g exceeds min f_N'=%g: shifted nonlinearity "
                        "is nonmonotone somewhere (N may be too small)",
                        self.cfg.lam, fmin)

    def _residual(self, u_new, mu_new, u_old, psi_old):
        cfg = self.cfg
        r1 = self.M @ (u_new - u_old) + cfg.dt * (self.K @ mu_new)
        rhs2 = (self.M @ (-cfg.lam * u_old + self.h1)
                + self.B.T @ (self.Mg @ (-psi_old / cfg.dt
                                         + np.ravel(cfg.g.g0(psi_old)) - self.h2)))
        r2 = (self.M @ mu_new - self.K @ u_new - self.M @ self.reg.f(u_new)
              - self.BtCB @ u_new - rhs2)
        return r1, r2

    def step(self, state: State):
        ops, cfg = self.ops, self.cfg
        u_old = state.field.bulk.ravel().copy()
        psi_old = state.field.trace.ravel().copy()

        u = u_old.copy()
        mu = state.mu.ravel().copy() if state.mu is not None else np.zeros_like(u)
        r1, r2 = self._residual(u, mu, u_old, psi_old)
        scale = 1.0 + np.linalg.norm(self.M @ u_old) + np.linalg.norm(self.h1) \
            + np.linalg.norm(self.h2)
        rnorm = np.linalg.norm(np.concatenate([r1, r2]))
        iters = 0
        # A non-finite residual (NaN data, infinite forcing) is a failure,
        # never a converged step.
        while not (np.isfinite(rnorm) and rnorm <= cfg.newton_tol * scale):
            if iters >= cfg.newton_max_iter or not np.isfinite(rnorm):
                raise NewtonDivergedError(
                    f"Newton stalled at residual {rnorm:.3e}",
                    residual=rnorm, iterations=iters, time=state.t)
            fp = self.reg.df(u)
            J = sp.block_array(
                [[self.M, cfg.dt * self.K],
                 [-(self.K + self.BtCB + self.M @ sp.diags_array(fp)), self.M]],
                format="csc")
            try:
                delta = spla.splu(J).solve(np.concatenate([-r1, -r2]))
            except RuntimeError as exc:
                raise LinearSolveFailedError(str(exc)) from exc
            n = len(u)
            # Line-search damping: halve until the residual norm decreases.
            alpha = 1.0
            for _ in range(9):
                u_try = u + alpha * delta[:n]
                mu_try = mu + alpha * delta[n:]
                r1_t, r2_t = self._residual(u_try, mu_try, u_old, psi_old)
                rnorm_t = np.linalg.norm(np.concatenate([r1_t, r2_t]))
                if rnorm_t < rnorm or alpha <= 1.0 / 256.0:
                    break
                alpha *= 0.5
            u, mu, r1, r2, rnorm = u_try, mu_try, r1_t, r2_t, rnorm_t
            iters += 1

        # Enforce the conservative flux form exactly.
        u = u_old - cfg.dt * ((self.K @ mu) / ops.weights)
        bulk = u.reshape(ops.bulk_shape)
        trace = ops.trace_of(bulk)
        new = State(
            t=state.t + cfg.dt,
            field=Field(bulk, trace.copy()),
            mu=mu.reshape(ops.bulk_shape),
            prev_bulk=state.field.bulk.copy(),
            prev_trace=state.field.trace.copy(),
        )
        return new, StepReport(iters, float(rnorm / scale))


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
    for k in range(1, n_steps + 1):
        try:
            state, report = stepper.step(state)
        except NewtonDivergedError as exc:
            exc.time = state.t
            raise
        state.t = k * cfg.dt
        if k % stride == 0 or k == n_steps:
            states.append(state.copy())
            records.append(diagnostics.record(ops, cfg, state, report))
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
    reg = cfg.regularized
    u_new = state.field.bulk.ravel()
    psi_new = state.field.trace.ravel()
    u_expl = state.prev_bulk.ravel()
    psi_expl = state.prev_trace.ravel()
    dpsi_dt = (state.field.trace - state.prev_trace).ravel() / cfg.dt
    h1, h2 = diagnostics.forcing_arrays(ops, cfg)
    bulk_part = ops.mean(reg.f(u_new) - cfg.lam * u_expl + h1)
    bnd_part = ops.boundary_mean(
        dpsi_dt + psi_new + np.ravel(cfg.g.g0(psi_expl)) - h2)
    formula = bulk_part + bnd_part
    return MuMeanReport(direct, formula,
                        abs(direct - formula) / (1.0 + abs(direct)))
