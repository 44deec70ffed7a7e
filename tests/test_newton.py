"""The Newton step on mu (LU of S, solved transposed: a band LU at every
iterate on the interval, a kept SuperLU on the strip) against a
saddle-point Newton reference and the saddle residuals themselves, its warm
start, its refactor rules and its failure paths."""

import csv
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chdbc import experiments as ex
from chdbc import solver
from chdbc.cli import main
from chdbc.diagnostics import energy, forcing_arrays
from chdbc.discretization import (Field, Interval, PeriodicStrip, factorize,
                                  make_operators)
from chdbc.errors import NewtonDivergedError, SingularSystemError
from chdbc.potentials import (BoundaryNonlinearity, LogarithmicPotential,
                              PowerSingularPotential, RegularizedPotential,
                              SmoothDoubleWell)
from chdbc.solver import SolverConfig, State, Stepper


def saddle_residuals(ops, cfg, state):
    """The two residuals of the step's saddle system, as functions of
    (u+, mu+): r1 = M (u+ - u) + dt K mu+ and
    r2 = M mu+ - K u+ - M f_N(u+) - B^T C B u+ - rhs2; and their Jacobian."""
    reg = cfg.regularized
    n, w = ops.n_bulk, ops.weights
    ng = len(ops.boundary_weights)
    M = sp.diags_array(w)
    B = sp.csr_array((np.ones(ng), (np.arange(ng), ops.boundary_indices)),
                     shape=(ng, n))
    Mg = sp.diags_array(ops.boundary_weights)
    BtCB = B.T @ (Mg / cfg.dt + ops.K_gamma + Mg) @ B
    h1, h2 = forcing_arrays(ops, cfg)
    u_old = state.field.bulk.ravel()
    psi_old = state.field.trace.ravel()
    rhs2 = (M @ (h1 - cfg.lam * u_old) + B.T @ (
        Mg @ (np.ravel(cfg.g.g0(psi_old)) - h2 - psi_old / cfg.dt)))

    def r1(u, mu):
        return M @ (u - u_old) + cfg.dt * (ops.K @ mu)

    def r2(u, mu):
        return M @ mu - ops.K @ u - M @ reg.f(u) - BtCB @ u - rhs2

    def jacobian(u):
        return sp.block_array(
            [[M, cfg.dt * ops.K],
             [-(ops.K + BtCB + M @ sp.diags_array(reg.df(u))), M]],
            format="csc")

    return r1, r2, jacobian


def saddle_newton_step(ops, cfg, state):
    """Newton on the 2n x 2n saddle system [[M, dt K], [-(A + M D), M]],
    assembled and factored at every iterate, run until the residual stops
    shrinking; then the flux-form recomputation of u+.  A step of length t
    (1, 1/2, 1/4, ...) is taken once it shrinks the residual norm by the
    factor 1 - t/2: far from the root a full step can overshoot the steep
    tails of f_N, and the reference must not stop there."""
    n, w = ops.n_bulk, ops.weights
    u_old = state.field.bulk.ravel()
    r1, r2, jacobian = saddle_residuals(ops, cfg, state)

    def residual(u, mu):
        return np.concatenate([r1(u, mu), r2(u, mu)])

    u = u_old.copy()
    mu = np.zeros(n) if state.mu is None else state.mu.ravel().copy()
    r = residual(u, mu)
    for _ in range(200):
        d = spla.splu(jacobian(u)).solve(-r)
        for t in 0.5 ** np.arange(40):
            r_new = residual(u + t * d[:n], mu + t * d[n:])
            if np.linalg.norm(r_new) < (1.0 - 0.5 * t) * np.linalg.norm(r):
                break
        else:
            break  # round-off reached
        u, mu, r = u + t * d[:n], mu + t * d[n:], r_new
    return u_old - cfg.dt * (ops.K @ mu) / w, mu


_STEP_OPS = [make_operators(d) for d in (
    Interval(9), Interval(33, -2.0, 3.0), Interval(129, -4.0, 4.0),
    PeriodicStrip(2.0, 4, 5), PeriodicStrip(1.5, 8, 9),
    PeriodicStrip(2.0, 16, 17))]
_POTENTIALS = st.one_of(
    st.builds(LogarithmicPotential, st.floats(0.0, 0.5), st.floats(0.6, 2.0)),
    st.builds(PowerSingularPotential, st.floats(0.5, 2.0), st.floats(1.2, 4.0)),
    st.just(SmoothDoubleWell()))


def _forcing(draw, rng, shape):
    if draw(st.booleans()):
        return draw(st.floats(-0.5, 0.5))
    return 0.5 * rng.uniform(-1.0, 1.0, shape)


@st.composite
def step_cases(draw):
    ops = draw(st.sampled_from(_STEP_OPS))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    potential = draw(_POTENTIALS)
    N = draw(st.sampled_from([4, 8, 16, 32]))
    reg = RegularizedPotential(potential, N)
    fmin = float(np.min(reg.df(np.linspace(-1.0, 1.0, 201))))
    lam = draw(st.floats(0.0, 0.99)) * fmin if draw(st.booleans()) \
        else fmin + draw(st.floats(0.01, 4.0))
    cfg = SolverConfig(
        potential=potential, N=N, lam=lam, dt=10.0 ** draw(st.floats(-4, -1)),
        g=draw(st.sampled_from([BoundaryNonlinearity(),
                                BoundaryNonlinearity(0.3)])),
        h1=_forcing(draw, rng, ops.bulk_shape),
        h2=_forcing(draw, rng, ops.trace_shape))
    mean = draw(st.floats(-0.5, 0.5))
    f0 = ex.initial_field(ops, draw(st.integers(0, 2 ** 32 - 1)),
                          draw(st.floats(0.0, 0.99)) * (0.99 - abs(mean)), mean)
    mu = rng.standard_normal(ops.bulk_shape) if draw(st.booleans()) else None
    # the initial trace may disagree with the bulk; the step resolves it
    trace = f0.trace + draw(st.floats(-0.2, 0.2))
    return ops, cfg, State(0.0, Field(f0.bulk, trace), mu=mu)


# A full Newton step of the reference overshoots f_N's steep tail here; a
# reference without step control stopped at residual 7.3, 0.45 from the root.
_OVERSHOOT_CASE = (
    _STEP_OPS[3],
    SolverConfig(
        potential=PowerSingularPotential(1.0, 3.0), N=16, lam=2.0, dt=0.1,
        h1=np.array([
            [0.13696169, -0.23021329, -0.45902648, -0.48347236, 0.31327024],
            [0.41275558, 0.10663578, 0.22949656, 0.04362499, 0.43507242],
            [0.31585355, -0.4972615, 0.35740428, -0.46641442, 0.22965545],
            [-0.32434438, 0.36317892, 0.04146122, -0.20028811, -0.07731278]]),
        h2=np.array([
            [-0.47168033, -0.37571672, 0.17062441, 0.14718951],
            [0.11538511, -0.11632245, 0.49720994, 0.48083534]])),
    State(0.0, Field(
        np.array([
            [0.31530027, -0.16402862, -0.51002998, 0.29118002, 0.9590625],
            [0.32204797, 0.36138974, 0.26436598, -0.10419126, -0.33638299],
            [-0.1847057, 0.14849179, 0.36536557, -0.24866222, -0.74636629],
            [-0.14804942, -0.24695172, -0.28442729, -0.03722774, 0.14854509]]),
        np.array([[0.31530027, 0.32204797, -0.1847057, -0.14804942],
                  [0.9590625, -0.33638299, -0.74636629, 0.14854509]]))))


def _step_scale(ops, cfg, state):
    h1, h2 = forcing_arrays(ops, cfg)
    return 1.0 + np.linalg.norm(ops.weights * state.field.bulk.ravel()) \
        + np.linalg.norm(h1) + np.linalg.norm(h2)


def _assert_matches_saddle_newton(ops, cfg, state, new):
    """new is the step from state within 1e-9 of the step's scale of the
    saddle reference, with mass kept and the trace of its bulk."""
    u_ref, mu_ref = saddle_newton_step(ops, cfg, state)
    scale = _step_scale(ops, cfg, state)
    assert np.max(np.abs(new.field.bulk.ravel() - u_ref)) <= 1e-9 * scale
    # mu in the units of the residual: M (mu - mu_ref)
    assert np.max(np.abs(ops.weights * (new.mu.ravel() - mu_ref))) \
        <= 1e-9 * scale
    drift = abs(ops.mean(new.field.bulk) - ops.mean(state.field.bulk))
    assert drift <= 1e-12 * scale
    assert np.array_equal(new.field.trace, ops.trace_of(new.field.bulk))


def _assert_solves_saddle_system(ops, cfg, state, new):
    """new solves the saddle system of the step from state: the first
    equation to round-off, the second to the Newton tolerance."""
    r1, r2, _ = saddle_residuals(ops, cfg, state)
    u, mu = new.field.bulk.ravel(), new.mu.ravel()
    scale = _step_scale(ops, cfg, state)
    assert np.max(np.abs(r1(u, mu))) <= 64 * np.finfo(float).eps * scale
    assert np.linalg.norm(r2(u, mu)) <= cfg.newton_tol * scale


class TestChordStepAgainstSaddleNewton:
    @given(step_cases())
    @example(_OVERSHOOT_CASE)
    @settings(max_examples=80, deadline=None)
    def test_one_step(self, case):
        ops, cfg, state = case
        new, report = Stepper(ops, cfg).step(state)
        # a state that already solves its step takes no iteration
        assert report.factorizations >= 1 or report.newton_iters == 0
        _assert_matches_saddle_newton(ops, cfg, state, new)

    def test_state_that_solves_its_step(self):
        # with zero field and forcing, u = 0, mu = 0 solves the step: the
        # start residual is 0
        ops = make_operators(Interval(9))
        cfg = SolverConfig(potential=LogarithmicPotential(), N=4, lam=3.0,
                           dt=0.1)
        state = State(0.0, Field(np.zeros(9), np.zeros(2)))
        new, report = Stepper(ops, cfg).step(state)
        assert (report.newton_iters, report.factorizations) == (0, 0)
        assert np.array_equal(new.field.bulk, state.field.bulk)


class TestSolvedEquations:
    """The returned state solves the step's saddle system itself."""

    @given(step_cases())
    @settings(max_examples=80, deadline=None)
    def test_saddle_residuals(self, case):
        ops, cfg, state = case
        new, _ = Stepper(ops, cfg).step(state)
        _assert_solves_saddle_system(ops, cfg, state, new)


class TestWarmStart:
    @given(step_cases(), st.integers(3, 8))
    @settings(max_examples=40, deadline=None)
    def test_warm_started_step(self, case, n_steps):
        # the last of 3-8 steps of one Stepper starts from the extrapolated
        # mu of its earlier steps (up to all _HISTORY of them, and on the
        # strip a kept LU), and still solves its step
        ops, cfg, state = case
        stepper = Stepper(ops, cfg)
        for _ in range(n_steps - 1):
            state, _ = stepper.step(state)
        new, _ = stepper.step(state)
        _assert_matches_saddle_newton(ops, cfg, state, new)
        _assert_solves_saddle_system(ops, cfg, state, new)

    def test_foreign_state_steps_as_a_fresh_stepper(self):
        # a copied State after several own steps drops the history and, on
        # the strip, the kept LU: the step is a fresh Stepper's, bit for bit
        for ops, cfg, state in (_criterion_4(), _strip_quench()):
            stepper = Stepper(ops, cfg)
            for _ in range(5):
                state, _ = stepper.step(state)
            new, report = stepper.step(state.copy())
            ref, ref_report = Stepper(ops, cfg).step(state.copy())
            assert np.array_equal(new.field.bulk, ref.field.bulk)
            assert np.array_equal(new.mu, ref.mu)
            assert report == ref_report

    def test_own_mu_warm_starts(self):
        # the stepper's own last mu predicts u; the same mu in a copied
        # State is foreign, and Newton starts at u_old instead
        ops, cfg, state = _criterion_4()
        totals = []
        for foreign in (False, True):
            stepper, st, total = Stepper(ops, cfg), state, 0
            for _ in range(20):
                st, report = stepper.step(st.copy() if foreign else st)
                total += report.newton_iters
            totals.append(total)
        assert totals[0] < totals[1]

    @pytest.mark.parametrize("amplitude", [1.0, 1e3, 1e6])
    def test_foreign_mu_is_harmless(self, amplitude):
        # a foreign mu is dropped, so however wild it is, the step is the
        # one from mu = None, bit for bit
        ops, cfg, state = _criterion_4()
        first, _ = Stepper(ops, cfg).step(state)
        ref, _ = Stepper(ops, cfg).step(replace(first, mu=None))
        first.mu = amplitude * np.cos(np.arange(ops.n_bulk))
        new, _ = Stepper(ops, cfg).step(first)
        assert np.array_equal(new.field.bulk, ref.field.bulk)
        assert np.array_equal(new.mu, ref.mu)
        assert abs(ops.mean(new.field.bulk) - ops.mean(first.field.bulk)) \
            <= 1e-15


def _start(history, k=None):
    """The Newton start of a Stepper on a 9-node interval whose k members
    took the steps with the mus history[t][m], oldest first; a member whose
    mu is None at some t is forgotten there, as a foreign State makes it."""
    ops = make_operators(Interval(9))
    k = k or len(history[0])
    stepper = Stepper(ops, [SolverConfig(LogarithmicPotential())] * k)
    for mus in history:
        for m, mu in enumerate(mus):
            if mu is None:
                stepper._forget(m)
        stepper._record(np.array([np.zeros(9) if mu is None else mu
                                  for mu in mus]))
    return stepper._predict()


class TestNewtonStart:
    """The start is mu_n plus its newest backward differences, in order,
    while each is at most 1/_SHRINK of the one before in norm."""

    # dyadic, so every difference of the samples below is exact
    _SHAPE = (-1.0) ** np.arange(9) * 2.0 ** (np.arange(9) % 3)

    def _poly(self, degree, t):
        # differences that shrink 10-60 times per order
        return sum((t / 64.0) ** i for i in range(degree + 1)) * self._SHAPE

    def test_exact_on_polynomials_of_degree_up_to_5(self):
        # member d holds a polynomial of degree d in t over the last
        # _HISTORY = 6 steps; each member extrapolates its own exactly
        assert solver._HISTORY == 6
        history = [[self._poly(d, t) for d in range(6)] for t in range(6)]
        start = _start(history)
        for d in range(6):
            assert np.array_equal(start[d], self._poly(d, 6))

    def test_growing_difference_stops_the_order(self):
        # mu = 100 + t^2: |d_1| = 3 is below 104 / 4, but |d_2| = 2 is not
        # below 3 / 4, so the start is the linear 2 mu_n - mu_n-1 = 107
        history = [[(100.0 + t * t) * self._SHAPE] for t in range(3)]
        assert np.array_equal(_start(history)[0], 107.0 * self._SHAPE)
        # two steps give at most the linear start
        history = [[(100.0 + t) * self._SHAPE] for t in range(2)]
        assert np.array_equal(_start(history)[0], 102.0 * self._SHAPE)

    def test_member_without_steps_starts_at_zero(self):
        assert np.array_equal(_start([], k=2), np.zeros((2, 9)))
        history = [[self._poly(3, t), self._poly(3, t)] for t in range(4)]
        history.append([self._poly(3, 4), None])  # member 1 is forgotten
        start = _start(history)
        assert np.array_equal(start[1], np.zeros(9))
        assert np.array_equal(start[0], self._poly(3, 5))

    def test_members_are_independent_of_their_stack(self):
        # a smooth history with round-off in every difference: member 0's
        # start is the same bits alone and beside any other member
        rng = np.random.default_rng(0)
        c = rng.standard_normal((4, 9)) * [[1.0], [0.1], [0.01], [1e-3]]
        smooth = [sum(ci * (0.3 * t) ** i for i, ci in enumerate(c))
                  for t in range(8)]
        alone = _start([[mu] for mu in smooth])
        for other in (smooth[::-1], [1e6 * rng.standard_normal(9)
                                     for _ in range(8)]):
            stacked = _start([[a, b, a] for a, b in zip(smooth, other)])
            assert np.array_equal(stacked[0], alone[0])
            assert np.array_equal(stacked[2], alone[0])


def test_strip_newton_work_bound():
    # strip-spinodal's settings, 100 steps: a fixed quadratic start took
    # 183-193 chord iterations (one SuperLU solve each) on such data
    cfg = ex.resolve_config({
        "domain.kind": "strip", "domain.nx": "40", "domain.ny": "41",
        "solver.N": "16", "solver.lam": "1.5", "solver.dt": "1e-3"}, seed=0)
    ops = ex.build_operators(cfg)
    traj = solver.simulate(ops, ex.build_solver_config(cfg),
                           ex._initial(cfg, ops, 0, 0.0), 0.1, 0.1)
    (record,) = traj.records
    assert record.newton_factorizations == 1
    assert record.newton_iters <= 160


def test_interval_newton_work_bound():
    # interval-quench's settings and one of its data sets (data seed
    # 1016164991): its six converge-n members N = 4 ... 128 in lockstep to
    # t = 1 took 908 member iterations (111, 146, 169, 176, 172 and 134),
    # one band LU each; the bound is 5% above that
    seed = 1016164991
    cfg = ex.resolve_config({
        "domain.n": "129", "domain.a": "-4.0", "domain.b": "4.0",
        "solver.lam": "6.0", "solver.dt": "1e-2",
        "experiment.amplitude": "0.85", "experiment.mean": "0.05"}, seed=seed)
    ops = ex.build_operators(cfg)
    cfgs = [ex.build_solver_config(cfg, N=4 * 2 ** k) for k in range(6)]
    (_, _), (_, report) = solver._march(
        ops, cfgs, [ex._initial(cfg, ops, seed, 0.0)] * 6, [1.0])
    assert report.factorizations == report.newton_iters <= 953


def _criterion_4():
    cfg = ex.resolve_config({
        "solver.lam": "6.0", "solver.dt": "1e-2", "domain.n": "129",
        "domain.a": "-4.0", "domain.b": "4.0", "experiment.amplitude": "0.85",
        "experiment.mean": "0.05"}, seed=0)
    ops = ex.build_operators(cfg)
    return ops, ex.build_solver_config(cfg, N=16), \
        State(0.0, ex.initial_field(ops, 0, 0.85, 0.05))


def _strip_quench():
    # deeper than criterion 4's quench, so that the kept LU goes stale now
    # and then
    cfg = ex.resolve_config({
        "domain.kind": "strip", "domain.nx": "8", "domain.ny": "9",
        "solver.lam": "10.0", "solver.dt": "5e-2",
        "experiment.amplitude": "0.85", "experiment.mean": "0.05"}, seed=0)
    ops = ex.build_operators(cfg)
    return ops, ex.build_solver_config(cfg, N=64), \
        State(0.0, ex.initial_field(ops, 0, 0.85, 0.05))


class TestRefactorRule:
    def test_refactors_and_matches_newton(self, monkeypatch):
        # the strip's S has half-bandwidth about n: one SuperLU LU is kept
        ops, cfg, state = _strip_quench()
        stepper = Stepper(ops, cfg)
        assert stepper.chord
        chord, factorizations = state, 0
        for _ in range(100):
            chord, report = stepper.step(chord)
            factorizations += report.factorizations
        assert 1 < factorizations < 100

        # Every iterate stale: Newton with a fresh LU at every iteration.
        monkeypatch.setattr(solver, "_CONTRACTION", 0.0)
        stepper = Stepper(ops, cfg)
        newton = state
        for _ in range(100):
            stepper.lu = [None]
            newton, report = stepper.step(newton)
            assert report.factorizations == report.newton_iters
        assert np.max(np.abs(chord.field.bulk - newton.field.bulk)) <= 1e-9
        assert np.max(np.abs(chord.mu - newton.mu)) <= 1e-9

    def test_band_newton_matches_chord(self):
        # the interval's S is pentadiagonal: a band LU at every iterate
        ops, cfg, state = _criterion_4()
        stepper = Stepper(ops, cfg)
        assert not stepper.chord
        newton = state
        for _ in range(100):
            newton, report = stepper.step(newton)
            assert report.factorizations == report.newton_iters

        # SuperLU's chord path, the reference: the LU of
        # S = diag(w) + P^T A + dt K diag(f_N'(u)), kept while it contracts
        stepper = Stepper(ops, cfg)
        S0 = sp.diags_array(ops.weights) + stepper.P.T @ stepper.A
        stepper.chord = True
        stepper._factor = lambda df: factorize(
            (S0 + stepper.dtK @ sp.diags_array(df)).tocsc())
        chord = state
        for _ in range(100):
            chord, _ = stepper.step(chord)
        assert np.max(np.abs(chord.field.bulk - newton.field.bulk)) <= 1e-9
        assert np.max(np.abs(chord.mu - newton.mu)) <= 1e-9

    def test_singular_band_lu_raises(self):
        # S's band (b = 2) all zeros: dgbtrf finds a zero pivot
        ops, cfg, state = _criterion_4()
        stepper = Stepper(ops, cfg)
        stepper._factor = lambda df: solver._BandLU(
            np.zeros((7, ops.n_bulk), order="F"), 2)
        with pytest.raises(SingularSystemError):
            stepper.step(state)


class TestNoLineSearch:
    def test_max_iter_one_raises(self):
        ops, cfg, state = _criterion_4()
        _, report = Stepper(ops, cfg).step(state)
        assert report.newton_iters > 1
        one = SolverConfig(potential=cfg.potential, N=cfg.N, lam=cfg.lam,
                           dt=cfg.dt, newton_max_iter=1)
        with pytest.raises(NewtonDivergedError) as info:
            solver.simulate(ops, one, state.field, T=0.01)
        assert info.value.iterations == 1
        assert info.value.time == 0.0

    @pytest.mark.parametrize("N", [4, 10 ** 8])
    @pytest.mark.parametrize("dt", [1e-3, 5e-2])
    def test_stiff_corners(self, N, dt):
        # the extremes of N and dt on criterion 4's quench: Newton with no
        # line search converges at every one of 40 steps, keeps the mass
        # and never raises the energy
        ops, cfg, state = _criterion_4()
        cfg = replace(cfg, N=N, dt=dt)
        traj = solver.simulate(ops, cfg, state.field, T=40 * dt)
        m0 = ops.mean(state.field.bulk)
        E = [energy(ops, cfg, s.field).total for s in traj.states]
        for s in traj.states:
            assert abs(ops.mean(s.field.bulk) - m0) < 1e-13
        assert all(E[k + 1] <= E[k] + 1e-10 * (1.0 + abs(E[k]))
                   for k in range(len(E) - 1))

    def test_cli_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("domain.n = 129\ndomain.a = -4.0\ndomain.b = 4.0\n"
                       "solver.lam = 6.0\nsolver.dt = 1e-2\nsolver.N = 16\n"
                       "experiment.amplitude = 0.85\nexperiment.mean = 0.05\n"
                       "experiment.T = 0.1\nsolver.newton_max_iter = 1\n")
        rc = main(["simulate", "--config", str(cfg), "--seed", "0",
                   "--outdir", str(tmp_path / "o")])
        assert rc == 3
        assert "solver failure" in capsys.readouterr().err


def test_factorizations_column(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("domain.kind = strip\ndomain.nx = 16\ndomain.ny = 17\n"
                   "solver.N = 16\nsolver.lam = 1.5\nsolver.dt = 1e-3\n"
                   "experiment.T = 0.02\nexperiment.cadence = 1e-3\n")
    assert main(["simulate", "--config", str(cfg),
                 "--outdir", str(tmp_path / "o")]) == 0
    with open(tmp_path / "o" / "diagnostics.csv") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header[-2:] == ["mu_mean", "newton_factorizations"]
    assert len(rows) == 20
    assert 1 <= sum(int(r[-1]) for r in rows) < 20


def test_count_columns_total_over_interval(tmp_path):
    # newton_iters and newton_factorizations sum over the snapshot interval,
    # so the cadence moves counts between rows but never drops any
    sums = []
    for cadence in ("1e-3", "5e-3"):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("domain.kind = strip\ndomain.nx = 16\ndomain.ny = 17\n"
                       "solver.N = 16\nsolver.lam = 1.5\nsolver.dt = 1e-3\n"
                       f"experiment.T = 0.02\nexperiment.cadence = {cadence}\n")
        assert main(["simulate", "--config", str(cfg),
                     "--outdir", str(tmp_path / cadence)]) == 0
        with open(tmp_path / cadence / "diagnostics.csv") as fh:
            rows = list(csv.DictReader(fh))
        sums.append([sum(int(r[c]) for r in rows)
                     for c in ("newton_iters", "newton_factorizations")])
    assert sums[0] == sums[1]
    assert sums[0][1] >= 1


_QUENCH = {"domain.n": "33", "domain.a": "-4.0", "domain.b": "4.0",
           "solver.lam": "6.0", "solver.dt": "1e-2",
           "experiment.amplitude": "0.85", "experiment.mean": "0.05"}
# the N = 4 run of this quench converges at every step, the N = 64 run
# stalls at t = 0.2
_STALL = {**_QUENCH, "solver.dt": "5e-2", "solver.newton_max_iter": "3"}
_SMALL = {"domain.n": "33", "solver.lam": "2.0", "solver.dt": "1e-2"}
# the sweeps' shapes: settings, then (N, h2, seed, eps) per member, as
# experiments._sweep takes them
_SWEEPS = {
    "n-ladder": (_QUENCH, [(4 * 2 ** k, None, 0, 0.0) for k in range(6)]),
    "strip-h2": ({"domain.kind": "strip", "domain.nx": "8", "domain.ny": "9",
                  "boundary.g": "tanh", "solver.lam": "2.0",
                  "solver.dt": "1e-2"},
                 [(None, h2, 1, 0.0) for h2 in (0.2, -0.4, 1.0)]),
    "lipschitz-eps": (_SMALL, [(None, None, 0, eps)
                               for eps in (0.0, 1e-2, 1e-3, 1e-4)]),
    "decay-seeds": (_SMALL, [(None, None, seed, 0.0) for seed in range(4)]),
}


def _sweep_members(settings, jobs):
    cfg = ex.resolve_config(settings)
    ops = ex.build_operators(cfg)
    return (ops, [ex.build_solver_config(cfg, N=N, h2=h2) for N, h2, _, _ in jobs],
            [ex._initial(cfg, ops, seed, eps) for _, _, seed, eps in jobs])


class TestLockstep:
    """Members stepped together follow their solo runs bit for bit."""

    @pytest.mark.parametrize("sweep", sorted(_SWEEPS))
    def test_members_match_solo_runs(self, sweep):
        ops, cfgs, fields = _sweep_members(*_SWEEPS[sweep])
        T, dt = 0.2, cfgs[0].dt
        solo = [solver.simulate(ops, c, f, T) for c, f in zip(cfgs, fields)]
        runs = solver.simulate_members(ops, cfgs, fields,
                                       solver.cadence_times(T, 5 * dt, dt))
        for traj, run in zip(solo, runs):
            assert [s.t for s in run] == [s.t for s in traj.states[::5]]
            for a, b in zip(traj.states[::5], run):
                assert np.array_equal(a.field.bulk, b.field.bulk)
                assert np.array_equal(a.field.trace, b.field.trace)
                assert (a.mu is None) == (b.mu is None)
                assert a.mu is None or np.array_equal(a.mu, b.mu)
        # the report totals over members what the solo runs count
        stepper = Stepper(ops, cfgs)
        states = [State(0.0, f.copy()) for f in fields]
        iters = factorizations = 0
        for _ in range(round(T / dt)):
            states, report = stepper.step(states)
            iters += report.newton_iters
            factorizations += report.factorizations
        assert iters == sum(r.newton_iters for t in solo for r in t.records)
        assert factorizations == sum(r.newton_factorizations
                                     for t in solo for r in t.records)
        assert factorizations >= len(cfgs)
        for traj, state in zip(solo, states):
            assert np.array_equal(traj.final.field.bulk, state.field.bulk)
            assert np.array_equal(traj.final.mu, state.mu)

    def test_one_member_is_the_solo_step(self):
        # a list of one member steps as the bare State does
        ops, cfg, state = _criterion_4()
        (new,), report = Stepper(ops, [cfg]).step([state])
        ref, ref_report = Stepper(ops, cfg).step(state)
        assert np.array_equal(new.field.bulk, ref.field.bulk)
        assert np.array_equal(new.mu, ref.mu)
        assert report == ref_report

    def test_member_past_int64_steps_as_its_solo_run(self):
        # converge-n's 63rd level is N = 2**64, which no int64 holds
        ops, cfg, state = _criterion_4()
        cfgs = [cfg, replace(cfg, N=2**64)]
        news, _ = Stepper(ops, cfgs).step([state.copy(), state.copy()])
        for c, new in zip(cfgs, news):
            ref, _ = Stepper(ops, c).step(state.copy())
            assert np.array_equal(new.field.bulk, ref.field.bulk)
            assert np.array_equal(new.mu, ref.mu)

    @pytest.mark.parametrize("change", [{"dt": 2e-2}, {"lam": 5.0},
                                        {"newton_tol": 1e-8}])
    def test_members_must_agree(self, change):
        ops, cfg, _ = _criterion_4()
        Stepper(ops, [cfg, replace(cfg, N=64, h2=0.3)])  # N and h2 may differ
        with pytest.raises(ValueError, match="agree"):
            Stepper(ops, [cfg, replace(cfg, **change)])

    def test_stalled_member_raises_its_solo_error(self):
        ops, cfgs, fields = _sweep_members(
            _STALL, [(N, None, 0, 0.0) for N in (4, 64)])
        solver.simulate(ops, cfgs[0], fields[0], 1.0)
        with pytest.raises(NewtonDivergedError) as solo:
            solver.simulate(ops, cfgs[1], fields[1], 1.0)
        with pytest.raises(NewtonDivergedError) as both:
            solver.simulate_members(ops, cfgs, fields,
                                    solver.cadence_times(1.0, 0.1, cfgs[0].dt))
        assert solo.value.time > 0.0
        assert str(both.value) == str(solo.value)
        for attr in ("residual", "iterations", "time"):
            assert getattr(both.value, attr) == getattr(solo.value, attr)

    def test_stalled_member_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in _STALL.items())
                       + "experiment.n_levels = 4\n")  # N = 4, ..., 64
        assert main(["converge-n", "--config", str(cfg),
                     "--outdir", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.startswith("solver failure:")


@pytest.mark.parametrize("problem", [_criterion_4, _strip_quench])
def test_members_share_one_copy_of_each_operator(problem):
    # six members: A and P stay n x n and B^T M_G n x n_G, applied once to
    # the stack of the members' rows
    ops, cfg, _ = problem()
    stepper = Stepper(ops, [replace(cfg, N=4 * 2 ** m) for m in range(6)])
    n, ng = ops.n_bulk, len(ops.boundary_weights)
    assert stepper.A.shape == stepper.P.shape == (n, n)
    assert stepper.BtMg.shape == (n, ng)
    assert stepper.h2.shape == (6, ng)
