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
_CONTRACTION; S is structurally symmetric, so SuperLU factors it in its
symmetric mode.  P 1 = 0, so each iterate's constant mode of mu is exact.
Newton starts from the quadratic time extrapolation of the mus of the
stepper's last three steps, 3 mu_n - 3 mu_n-1 + mu_n-2; after two steps
from the linear one, 2 mu_n - mu_n-1, after one from mu_n, and from mu = 0
on a fresh start or a State whose mu the stepper did not make.

One Stepper steps k runs (members) that share ops and every setting but N
and h2 in lockstep, with one residual evaluation per chord iteration for
all of them.  Their vectors are stacked flat, k n long; A, P and B^T M_G
are block diagonal, and f_N has one cutoff per node.  Each member keeps its
own LU of S, residual norm, contraction test and mu history, and stays
frozen once it converges while the others iterate, so it follows the
iterates of its solo run bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np
import scipy.sparse as sp

from . import diagnostics
from .discretization import Field, factorize
from .errors import ConfigError, NewtonDivergedError, StaleStateError
from .potentials import BoundaryNonlinearity, RegularizedPotential

__all__ = ["SolverConfig", "State", "StepReport", "Stepper", "Trajectory",
           "simulate", "simulate_members", "chemical_potential_mean"]


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
        if not np.all(np.isfinite(self.h2)):
            raise ValueError("h2 must be finite")
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


def _flat(arrays):
    """The arrays end to end, flat; one array comes back as a view."""
    if len(arrays) == 1:
        return arrays[0].ravel()
    return np.concatenate(arrays, axis=None)


def _extrapolate(history):
    """The polynomial through the mus of the last steps, oldest first, at
    the next step: the sum of their newest backward differences."""
    out = history[-1]
    while len(history) > 1:
        history = [b - a for a, b in zip(history, history[1:])]
        out = out + history[-1]
    return out


def _tile(M, k):
    """k copies of the CSR matrix M on the diagonal.  Tiling M's arrays keeps
    each row's entries in M's order, so a member's rows of a product sum as
    M's own do; sp.block_diag reorders them."""
    if k == 1:
        return M
    shift = np.arange(k)[:, None]
    return sp.csr_array(
        (np.tile(M.data, k), (M.indices + M.shape[1] * shift).ravel(),
         np.append((M.indptr[:-1] + M.nnz * shift).ravel(), k * M.nnz)),
        shape=(k * M.shape[0], k * M.shape[1]))


class Stepper:
    """Prebuilt matrices and the kept LU of S of each member, for members
    that share ops and every setting but N and h2.

    cfg is one SolverConfig, or the list of the members' configs; step takes
    and returns a State or the list of the members' States to match.
    """

    def __init__(self, ops, cfg):
        cfgs = [cfg] if isinstance(cfg, SolverConfig) else list(cfg)
        cfg = cfgs[0]
        shared = [f.name for f in fields(SolverConfig)
                  if f.name not in ("N", "h2")]
        if any(not np.array_equal(getattr(c, name), getattr(cfg, name))
               for c in cfgs for name in shared):
            raise ValueError("lockstep members must agree on all but N and h2")
        self.ops, self.cfg, self.k = ops, cfg, len(cfgs)
        n, w = ops.n_bulk, ops.weights
        Ns = [c.N for c in cfgs]  # one cutoff, or one per node
        self.reg = RegularizedPotential(
            cfg.potential, Ns[0] if len(set(Ns)) == 1 else np.repeat(Ns, n))
        ng = len(ops.boundary_weights)
        B = sp.csr_array((np.ones(ng), (np.arange(ng), ops.boundary_indices)),
                         shape=(ng, n))
        Mg = sp.diags_array(ops.boundary_weights)
        A = (ops.K + B.T @ (Mg / cfg.dt + ops.K_gamma + Mg) @ B).tocsr()
        self.dtK = (cfg.dt * ops.K).tocsc()
        P = (sp.diags_array(1.0 / w) @ self.dtK).tocsr()
        self.S0 = (sp.diags_array(w) + P.T @ A).tocsc()  # K = K^T
        # S = S0 + dt K diag(f_N'(u)) scales column j of dt K by f_N'(u_j)
        self.dtK_cols = np.repeat(np.arange(n), np.diff(self.dtK.indptr))
        self.A, self.P = _tile(A, self.k), _tile(P, self.k)
        self.BtMg = _tile((B.T @ Mg).tocsr(), self.k)
        self.w = np.tile(w, self.k)
        # per member: the LU of S, and the mus of its last three steps
        self.lu, self.mus = [None] * self.k, [[] for _ in range(self.k)]
        h1, _ = diagnostics.forcing_arrays(ops, cfg)
        h2s = [diagnostics.forcing_arrays(ops, c)[1] for c in cfgs]
        self.h1, self.h2 = np.tile(h1, self.k), np.concatenate(h2s)
        self.h_norms = [(np.linalg.norm(h1), np.linalg.norm(h2)) for h2 in h2s]
        self.w_sum = float(np.sum(w))
        self.zero = np.zeros(n)

    def _residual(self, u, mu, rhs2):
        r = mu - self.reg.f(u)
        r *= self.w
        r -= self.A @ u
        r -= rhs2
        return r

    def step(self, state):
        ops, cfg, k, n = self.ops, self.cfg, self.k, self.ops.n_bulk
        states = [state] if isinstance(state, State) else state
        u_old = _flat([s.field.bulk for s in states])
        psi_old = _flat([s.field.trace for s in states])
        rhs2 = self.w * (self.h1 - cfg.lam * u_old) + self.BtMg @ (
            np.ravel(cfg.g.g0(psi_old)) - self.h2 - psi_old / cfg.dt)
        scale = [1.0 + np.linalg.norm(wu) + nh1 + nh2 for wu, (nh1, nh2)
                 in zip((self.w * u_old).reshape(k, n), self.h_norms)]

        # A member whose State carries the mu of its own last step starts
        # Newton at the time extrapolation of its last mus, and u at
        # u_old - P mu.  A foreign mu may put that u far off, so it is
        # dropped with the member's history and LU: Newton starts at u_old
        # with mu = 0, as a fresh Stepper's does.
        for m, (s, mus) in enumerate(zip(states, self.mus)):
            if not mus or s.mu is not mus[-1]:
                mus.clear()
                self.lu[m] = None
        mu = _flat([_extrapolate(mus) if mus else self.zero
                    for mus in self.mus]).copy()
        u = u_old - self.P @ mu
        MU = mu.reshape(k, n)  # a view: updating mu in place updates MU
        live, done = list(range(k)), []  # members iterating, members converged
        rnorm, iters, factorizations, it = [0.0] * k, 0, 0, 0
        while True:
            R = self._residual(u, mu, rhs2).reshape(k, n)
            if it:  # each update's constant mode, exactly
                c = R.sum(axis=1, keepdims=True) / -self.w_sum
                if done:
                    c[done] = 0.0  # a converged member stays as it stopped
                MU += c  # moves r2 by c w, u not at all
                R += c * ops.weights
            dmu, df = [self.zero] * k, None  # a converged member's is 0
            for m in live[:]:
                r = R[m]
                rnorm_new = math.sqrt(r.dot(r))
                finite = math.isfinite(rnorm_new)  # NaN data, an overflow
                if it and not rnorm_new <= _CONTRACTION * rnorm[m]:
                    self.lu[m] = None
                rnorm[m] = rnorm_new
                if finite and rnorm_new <= cfg.newton_tol * scale[m]:
                    live.remove(m)
                    done.append(m)
                    iters += it
                    continue
                if it >= cfg.newton_max_iter or not finite:
                    raise NewtonDivergedError(
                        f"Newton stalled at residual {rnorm_new:.3e}",
                        residual=rnorm_new, iterations=it, time=states[m].t)
                if self.lu[m] is None:  # refactor at the current iterate
                    if df is None:
                        df = self.reg.df(u).reshape(k, n)
                    S = self.S0 + sp.csc_array(
                        (self.dtK.data * df[m][self.dtK_cols],
                         self.dtK.indices, self.dtK.indptr), shape=self.dtK.shape)
                    self.lu[m] = factorize(S)
                    factorizations += 1
                dmu[m] = self.lu[m].solve(r, trans="T")
            if not live:
                break
            dmu = _flat(dmu)
            mu -= dmu
            u += self.P @ dmu
            it += 1

        out = []
        for s, bulk, mu_m, mus in zip(states, u.reshape(k, n), MU, self.mus):
            bulk = bulk.reshape(ops.bulk_shape)
            mus[:] = mus[-2:] + [mu_m.reshape(ops.bulk_shape)]
            out.append(State(s.t + cfg.dt, Field(bulk, ops.trace_of(bulk)),
                             mus[-1], s.field.bulk.copy(),
                             s.field.trace.copy()))
        return out[0] if isinstance(state, State) else out, StepReport(
            iters, float(max(r / sc for r, sc in zip(rnorm, scale))),
            factorizations)


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


def _march(ops, cfgs, initials, T, cadence):
    """Step the members from their initial fields to time T in lockstep,
    yielding their States at t = 0 and at each snapshot with the report of
    the snapshot interval (None at t = 0), its counts totalled over the
    interval's steps.  Snapshot times are k*dt; T and the cadence must be
    multiples of dt."""
    dt = cfgs[0].dt
    n_steps = _grid_steps("T", T, dt)
    stride = _grid_steps("cadence", cadence, dt)
    if stride > n_steps:
        raise ConfigError("cadence must not exceed T")
    stepper = Stepper(ops, cfgs)
    states = [State(t=0.0, field=f.copy()) for f in initials]
    yield [s.copy() for s in states], None
    iters = factorizations = 0  # totals over the current snapshot interval
    for k in range(1, n_steps + 1):
        states, report = stepper.step(states)  # raises with the step's start time
        for s in states:
            s.t = k * dt
        iters += report.newton_iters
        factorizations += report.factorizations
        if k % stride == 0 or k == n_steps:
            yield [s.copy() for s in states], replace(
                report, newton_iters=iters, factorizations=factorizations)
            iters = factorizations = 0


def simulate(ops, cfg: SolverConfig, initial: Field, T, cadence=None) -> Trajectory:
    """Advance from the initial field to time T, snapshotting at the cadence
    (default dt) and recording diagnostics at each snapshot after t = 0.

    T and the cadence must be multiples of dt; snapshot times are k*dt.  The
    initial trace may disagree with the bulk boundary values; the first
    implicit step resolves the mismatch.  Deterministic for fixed inputs.
    """
    cadence = cfg.dt if cadence is None else cadence
    states, records = [], []
    for (state,), report in _march(ops, [cfg], [initial], T, cadence):
        states.append(state)
        if report is not None:
            records.append(diagnostics.record(ops, cfg, state, report))
    return Trajectory(ops, cfg, states, records, cadence)


def simulate_members(ops, cfgs, initials, T, cadence):
    """The snapshot States of each member, as simulate would give them, with
    all members stepped in lockstep by one Stepper and no diagnostics
    recorded.  The members share ops and all settings but N and h2."""
    runs = zip(*(states for states, _ in _march(ops, cfgs, initials, T, cadence)))
    return [list(run) for run in runs]


def chemical_potential_mean(ops, cfg: SolverConfig, state: State) -> float:
    """Relative gap |direct - formula| / (1 + |direct|) between the mean
    chemical potential taken directly and through the boundary bookkeeping
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
    return abs(direct - formula) / (1.0 + abs(direct))
