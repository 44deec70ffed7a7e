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
S = M + dt K M^-1 A + dt K diag(f_N'(u)), solved transposed with an LU of S
chosen by S's half-bandwidth b.  When b^2 <= n (every interval: S is
pentadiagonal, b = 2), LAPACK's band LU costs about one sparse solve, so S
is factored at every iterate (Newton).  Otherwise (the periodic strip, whose
wrap-around couplings make b about n), SuperLU's LU, in its symmetric mode,
costs tens of solves, so one is kept across iterations and steps (chord
Newton) and remade at the current iterate after an iteration that shrinks
|r2| by less than _CONTRACTION.  P 1 = 0, so each iterate's constant mode of
mu is exact.
Newton starts from a time extrapolation of mu whose order adapts to the
data, as in variable-order Adams predictors (Shampine & Gordon, 1975): the
stepper keeps the backward differences of the mus of its last _HISTORY
steps, and the start is mu_n plus its newest differences in order, each
taken only while its norm is at most 1/_SHRINK of the one before.  Smooth
data get up to a quintic start; a member whose differences stop shrinking
gets a lower order.  Newton starts from mu = 0 on a fresh start or a State
whose mu the stepper did not make.

One Stepper steps k runs (members) that share ops and every setting but N
and h2 in lockstep, with one residual evaluation per Newton iteration for
all of them.  Their vectors are stacked flat, k n long; A, P and B^T M_G
are block diagonal, and f_N has one cutoff per node.  Each member factors
its own n x n block of S and keeps its own LU, residual norm, contraction
test and mu differences, and stays frozen once it converges while the others
iterate, so it follows the iterates of its solo run bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from . import diagnostics
from .discretization import Field, factorize
from .errors import (ConfigError, NewtonDivergedError, SingularSystemError,
                     StaleStateError)
from .potentials import BoundaryNonlinearity, RegularizedPotential


@dataclass(frozen=True)
class SolverConfig:
    potential: object
    N: int = 8
    lam: float = 0.0
    dt: float = 1e-3
    g: BoundaryNonlinearity = field(default_factory=BoundaryNonlinearity)
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
    # The trace a step started from, for the boundary time derivative.
    prev_trace: np.ndarray | None = None

    def copy(self):
        return State(self.t, self.field.copy(), *(
            None if a is None else a.copy() for a in (self.mu, self.prev_trace)))


@dataclass(frozen=True)
class StepReport:
    newton_iters: int
    residual: float
    factorizations: int  # LUs of S made during the step


_CONTRACTION = 0.1  # refactor once |r_new| > _CONTRACTION |r|
_HISTORY = 6  # steps whose mus the Newton start extrapolates, at most
_SHRINK = 4.0  # a difference joins the start if |d_j| <= |d_j-1| / _SHRINK


def _flat(arrays):
    """The arrays end to end, flat; one array comes back as a view."""
    if len(arrays) == 1:
        return arrays[0].ravel()
    return np.concatenate(arrays, axis=None)


def _band(A, b):
    """The sparse matrix A in dgbtrf's storage for b sub- and superdiagonals:
    A[i, j] at [2b + i - j, j], the first b rows left for the LU's fill."""
    A = A.tocoo()
    ab = np.zeros((3 * b + 1, A.shape[1]), order="F")
    ab[2 * b + A.row - A.col, A.col] = A.data
    return ab


class _BandLU:
    """LAPACK's LU of the band matrix in _band's storage, made in place."""

    def __init__(self, ab, b):
        self.lu, self.piv, info = lapack.dgbtrf(ab, b, b, overwrite_ab=True)
        if info > 0:
            raise SingularSystemError(f"band LU: zero pivot in column {info}")
        self.b = b

    def solve(self, r, trans="N"):
        return lapack.dgbtrs(self.lu, self.b, self.b, r, self.piv,
                             trans=int(trans == "T"))[0]


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
    """Prebuilt matrices and the LU of S of each member, for members
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
        # one cutoff, or one per node: floats, since an N may exceed int64
        Ns = [c.N for c in cfgs]
        self.reg = RegularizedPotential(
            cfg.potential,
            Ns[0] if len(set(Ns)) == 1 else np.repeat(np.array(Ns, float), n))
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
        # S0 and dt K in band storage, when S's half-bandwidth b allows
        b = max(int(np.max(np.abs(X.row - X.col)))
                for X in (self.S0.tocoo(), self.dtK.tocoo()))
        self.band = (_band(self.S0, b), _band(self.dtK, b), b) \
            if b * b <= n else None
        self.A, self.P = _tile(A, self.k), _tile(P, self.k)
        self.BtMg = _tile((B.T @ Mg).tocsr(), self.k)
        self.w = np.tile(w, self.k)
        # per member: the LU of S, the mu of its last step as its State holds
        # it, and the backward differences d_0 = mu_n, d_1, ... of its last
        # mus, stacked by order, of which the first `owned` are its data
        self.lu, self.last_mu = [None] * self.k, [None] * self.k
        self.diffs = np.zeros((_HISTORY, self.k, n))
        self.owned = [0] * self.k
        h1, _ = diagnostics.forcing_arrays(ops, cfg)
        h2s = [diagnostics.forcing_arrays(ops, c)[1] for c in cfgs]
        self.h1, self.h2 = np.tile(h1, self.k), np.concatenate(h2s)
        with np.errstate(over="ignore"):  # an overflow is an inf scale
            self.h_norms = [(np.linalg.norm(h1), np.linalg.norm(h2))
                            for h2 in h2s]
        self.w_sum = float(np.sum(w))
        self.zero = np.zeros(n)

    def _predict(self):
        """Each member's Newton start, k x n: mu_n plus the newest backward
        differences it owns, in order, while each is at most 1/_SHRINK of
        the one before in norm.  Row dots and one addition per order keep a
        member's bits independent of the stack it sits in."""
        D = self.diffs
        orders = []
        for owned, sq in zip(self.owned, diagnostics._dot(D, D).T.tolist()):
            q = 0
            while q + 1 < owned and _SHRINK ** 2 * sq[q + 1] <= sq[q]:
                q += 1
            orders.append(q)
        mu = D[0].copy()
        for j in range(1, max(orders) + 1):
            rows = [q >= j for q in orders]
            np.add(mu, D[j], out=mu,
                   where=True if all(rows) else np.array(rows)[:, None])
        return mu

    def _record(self, MU):
        """Take the members' new mus, k x n, into their differences:
        d_0 = mu, then d_j = d_j-1 - the old d_j-1."""
        D, E = self.diffs, np.empty_like(self.diffs)
        E[0] = MU
        for j in range(1, _HISTORY):
            np.subtract(E[j - 1], D[j - 1], out=E[j])
        self.diffs = E
        self.owned = [min(c + 1, _HISTORY) for c in self.owned]

    def _forget(self, m):
        """Drop member m's differences and LU: its next start is mu = 0."""
        self.diffs[:, m] = 0.0
        self.owned[m] = 0
        self.lu[m] = None

    def _residual(self, u, mu, rhs2):
        r = mu - self.reg.f(u)
        r *= self.w
        r -= self.A @ u
        r -= rhs2
        return r

    # Overflow makes an inf or NaN norm, which fails Newton below; the
    # warnings numpy would print are dropped with it.
    @np.errstate(over="ignore", invalid="ignore")
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
        # dropped with the member's differences and LU: Newton starts at u_old
        # with mu = 0, as a fresh Stepper's does.
        for m, s in enumerate(states):
            if not self.owned[m] or s.mu is not self.last_mu[m]:
                self._forget(m)
        MU = self._predict()
        mu = MU.reshape(-1)  # a view: updating mu in place updates MU
        u = u_old - self.P @ mu
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
                # NaN data, an overflow in the residual or in its scale
                finite = math.isfinite(rnorm_new) and math.isfinite(scale[m])
                if self.band is not None or (
                        it and not rnorm_new <= _CONTRACTION * rnorm[m]):
                    self.lu[m] = None
                rnorm[m] = rnorm_new
                if finite and rnorm_new <= cfg.newton_tol * scale[m]:
                    live.remove(m)
                    done.append(m)
                    iters += it
                    continue
                if it >= cfg.newton_max_iter or not finite:
                    raise NewtonDivergedError(
                        f"Newton stalled at residual {rnorm_new:.3e}"
                        if math.isfinite(scale[m]) else "Newton's convergence "
                        f"scale is {scale[m]} at residual {rnorm_new:.3e}",
                        residual=rnorm_new, iterations=it, time=states[m].t)
                if self.lu[m] is None:  # refactor at the current iterate
                    if df is None:
                        df = self.reg.df(u).reshape(k, n)
                    if self.band is None:
                        S = self.S0 + sp.csc_array(
                            (self.dtK.data * df[m][self.dtK_cols],
                             self.dtK.indices, self.dtK.indptr),
                            shape=self.dtK.shape)
                        self.lu[m] = factorize(S)
                    else:
                        ab0, abK, b = self.band
                        self.lu[m] = _BandLU(ab0 + abK * df[m], b)
                    factorizations += 1
                dmu[m] = self.lu[m].solve(r, trans="T")
            if not live:
                break
            dmu = _flat(dmu)
            mu -= dmu
            u += self.P @ dmu
            it += 1

        self._record(MU)
        self.last_mu = [mu_m.reshape(ops.bulk_shape) for mu_m in MU]
        out = []
        for s, bulk, mu_m in zip(states, u.reshape(k, n), self.last_mu):
            bulk = bulk.reshape(ops.bulk_shape)
            out.append(State(s.t + cfg.dt, Field(bulk, ops.trace_of(bulk)),
                             mu_m, s.field.trace.copy()))
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
    def final(self):
        return self.states[-1]


MAX_STEPS = 10 ** 9  # days of stepping at about 0.5 ms a step


def _grid_steps(name, value, dt):
    """The number of dt steps in value, which must be a positive multiple of
    dt and at most MAX_STEPS of them."""
    k = round(value / dt) if math.isfinite(value / dt) else 0
    if k < 1 or abs(k * dt - value) > 1e-9 * value:
        raise ConfigError(f"{name}={value!r} is not a positive multiple of "
                          f"dt={dt!r}")
    if k > MAX_STEPS:
        raise ConfigError(f"{name}={value!r} takes {value / dt:.3g} steps of "
                          f"dt={dt!r}, more than {MAX_STEPS}")
    return k


def cadence_times(T, cadence, dt):
    """The snapshot times k*dt of a run to T: each multiple of the cadence
    below T, then T, which must be multiples of dt with 0 < cadence <= T."""
    n, stride = _grid_steps("T", T, dt), _grid_steps("cadence", cadence, dt)
    if stride > n:
        raise ConfigError("cadence must not exceed T")
    return [k * dt for k in [*range(stride, n, stride), n]]


def _march(ops, cfgs, initials, times):
    """Step the members in lockstep to the last of the increasing snapshot
    times, yielding their States at t = 0 (report None) and at each time,
    with the report of its interval, counts totalled over its steps.  Times
    become steps here only: each must be a multiple k*dt, the State's t."""
    dt = cfgs[0].dt
    steps = [_grid_steps("t", t, dt) for t in times]
    if not steps or any(a >= b for a, b in zip(steps, steps[1:])):
        raise ConfigError(f"snapshot times must increase, got {list(times)!r}")
    stepper = Stepper(ops, cfgs)
    states = [State(t=0.0, field=f.copy()) for f in initials]
    yield [s.copy() for s in states], None
    for start, stop in zip([0, *steps], steps):
        iters = factorizations = 0  # totals over this snapshot interval
        for k in range(start + 1, stop + 1):
            states, report = stepper.step(states)  # raises with its start time
            for s in states:
                s.t = k * dt
            iters += report.newton_iters
            factorizations += report.factorizations
        yield [s.copy() for s in states], replace(
            report, newton_iters=iters, factorizations=factorizations)


def simulate(ops, cfg: SolverConfig, initial: Field, T, cadence=None) -> Trajectory:
    """Advance from the initial field to time T, snapshotting at the cadence
    (default dt) and recording diagnostics at each snapshot after t = 0.

    cadence_times, the one place that turns T and a cadence into snapshot
    times, makes the grid.  The initial trace may disagree with the bulk
    boundary values; the first implicit step resolves the mismatch.
    Deterministic for fixed inputs.
    """
    cadence = cfg.dt if cadence is None else cadence
    snaps = list(_march(ops, [cfg], [initial], cadence_times(T, cadence, cfg.dt)))
    records = [diagnostics.record(ops, cfg, s, r) for (s,), r in snaps[1:]]
    return Trajectory(ops, cfg, [s for (s,), _ in snaps], records, cadence)


def simulate_members(ops, cfgs, initials, times):
    """Each member's States at t = 0 and the snapshot times, as simulate gives
    them, all stepped in lockstep by one Stepper with no diagnostics.  The
    members share ops and all settings but N and h2."""
    runs = zip(*(states for states, _ in _march(ops, cfgs, initials, times)))
    return [list(run) for run in runs]


def chemical_potential_mean(ops, cfg: SolverConfig, state: State) -> float:
    """Relative gap |direct - formula| / (1 + |direct|) between the mean
    chemical potential taken directly and through the boundary bookkeeping
    identity (surface time derivative + boundary nonlinearity - boundary
    forcing + bulk nonlinearity + bulk forcing), mirroring the splitting.

    The explicit -lam u term is taken at the state's own bulk, not the bulk
    the step started from: the step conserves bulk mass, so the two means
    differ by round-off only, and a step that leaks mass shows as a gap.
    """
    if state.mu is None or state.prev_trace is None:
        raise StaleStateError("no step taken yet; mu is unavailable")
    direct = ops.inner(state.mu, np.ones(ops.n_bulk)) / ops.area
    u = state.field.bulk.ravel()
    psi, psi_old = state.field.trace.ravel(), state.prev_trace.ravel()
    h1, h2 = diagnostics.forcing_arrays(ops, cfg)
    formula = ops.mean(cfg.regularized.f(u) - cfg.lam * u + h1) \
        + ops.boundary_mean((psi - psi_old) / cfg.dt + psi
                            + np.ravel(cfg.g.g0(psi_old)) - h2)
    return abs(direct - formula) / (1.0 + abs(direct))
