import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chdbc import diagnostics as dg
from chdbc.discretization import Interval, PeriodicStrip, make_operators
from chdbc.errors import (InadmissibleTestFunctionError,
                          InsufficientDataError)
from chdbc.experiments import initial_field
from chdbc.potentials import BoundaryNonlinearity, LogarithmicPotential
from chdbc.solver import SolverConfig, Trajectory, simulate


@pytest.fixture
def iops():
    return make_operators(Interval(48))


def run(ops, T=0.05, cadence=None, **kw):
    kw.setdefault("potential", LogarithmicPotential())
    kw.setdefault("N", 8)
    kw.setdefault("lam", 1.0)
    kw.setdefault("dt", 1e-3)
    cfg = SolverConfig(**kw)
    x = ops.domain.x
    u0 = 0.4 * np.cos(np.pi * (x + 1.0) / 2.0) - 0.05
    return simulate(ops, cfg, ops.field_from_bulk(u0), T, cadence)


class TestEnergy:
    def test_breakdown_sums(self, iops):
        traj = run(iops, T=5e-3, h1=0.1, h2=0.2)
        eb = dg.energy(iops, traj.cfg, traj.final.field)
        assert eb.total == pytest.approx(
            eb.bulk_gradient + eb.boundary_gradient + eb.bulk_potential
            + eb.boundary_potential + eb.forcing)

    def test_constant_field_no_gradient(self, iops):
        cfg = SolverConfig(potential=LogarithmicPotential(), N=8, dt=1e-3)
        f = iops.field_from_bulk(np.full(iops.n_bulk, 0.25))
        eb = dg.energy(iops, cfg, f)
        assert eb.bulk_gradient == pytest.approx(0.0, abs=1e-14)
        assert eb.boundary_gradient == pytest.approx(0.0, abs=1e-14)


class TestDissipation:
    def test_clean_run(self, iops):
        rep = dg.dissipation_check(run(iops, cadence=5e-3))
        assert rep.violations == 0
        assert len(rep.ledger) > 0

    def test_energy_only_of_the_initial_state(self, iops, monkeypatch):
        """The records hold bitwise the energies of the later snapshots, so
        the check computes only the initial state's."""
        traj = run(iops, cadence=5e-3)
        assert [r.energy.total for r in traj.records] == \
            [dg.energy(iops, traj.cfg, s.field).total for s in traj.states[1:]]
        calls = []
        energy = dg.energy
        monkeypatch.setattr(dg, "energy",
                            lambda *a: calls.append(a) or energy(*a))
        rep = dg.dissipation_check(traj)
        assert len(calls) == 1 and calls[0][2] is traj.states[0].field
        assert len(rep.ledger) == len(traj.records)

    def test_records_must_match_snapshots(self, iops):
        traj = run(iops, cadence=5e-3)
        for records in ([], traj.records[:-1], traj.records[::-1]):
            broken = Trajectory(iops, traj.cfg, traj.states, records, 5e-3)
            with pytest.raises(InsufficientDataError):
                dg.dissipation_check(broken)

    def test_needs_two_snapshots(self, iops):
        traj = run(iops, T=1e-3)
        broken = Trajectory(iops, traj.cfg, traj.states[:1], [], 1e-3)
        with pytest.raises(InsufficientDataError):
            dg.dissipation_check(broken)


class TestVI:
    def test_residuals_nonpositive(self, iops):
        traj = run(iops, T=0.05)
        mass = iops.mean(traj.states[0].field.bulk)
        tfs = dg.generate_test_functions(iops, mass, count=20, seed=2,
                                         anchor=traj.states[0].field)
        assert len(tfs) == 20
        rep = dg.vi_residual(traj, (0.0, 0.02), tfs)
        assert rep.max_residual <= 1e-6 * min(rep.scales)

    def test_exact_zero_at_solution(self, iops):
        traj = run(iops, T=0.02)
        idx = [k for k, s in enumerate(traj.states) if s.t <= 0.01 + 1e-12]
        w = [traj.states[k].field for k in idx]
        rep = dg.vi_residual(traj, (0.0, 0.01), [w])
        assert rep.residuals == [0.0]

    def test_l_independence_of_sign(self, iops):
        traj = run(iops, T=0.03)
        mass = iops.mean(traj.states[0].field.bulk)
        tfs = dg.generate_test_functions(iops, mass, count=8, seed=3)
        L = dg.compute_vi_constant(iops, traj.cfg.lam)
        r1 = dg.vi_residual(traj, (0.0, 0.03), tfs, L=L)
        r2 = dg.vi_residual(traj, (0.0, 0.03), tfs, L=1.5 * L)
        for a, b in zip(r1.residuals, r2.residuals):
            assert (a <= 1e-12) == (b <= 1e-12)

    def test_inadmissible_mean(self, iops):
        traj = run(iops, T=0.01)
        bad = iops.field_from_bulk(np.full(iops.n_bulk, 0.9))
        with pytest.raises(InadmissibleTestFunctionError):
            dg.vi_residual(traj, (0.0, 0.01), [bad])

    def test_inadmissible_range(self, iops):
        traj = run(iops, T=0.01)
        mass = iops.mean(traj.states[0].field.bulk)
        bulk = np.full(iops.n_bulk, mass)
        bulk[0] += 1.5
        bulk[1] -= 1.5 * iops.weights[0] / iops.weights[1]
        bad = iops.field_from_bulk(bulk)
        with pytest.raises(InadmissibleTestFunctionError):
            dg.vi_residual(traj, (0.0, 0.01), [bad])

    def test_generated_admissibility(self, iops):
        tfs = dg.generate_test_functions(iops, -0.2, count=20, seed=5)
        for f in tfs:
            assert np.max(np.abs(f.bulk)) < 1.0
            assert iops.mean(f.bulk) == pytest.approx(-0.2, abs=1e-10)

    @pytest.mark.parametrize("mass", [0.98, -0.975, 0.973, np.nan])
    def test_no_room_for_bumps(self, iops, mass):
        # at |mass| >= 0.95 the bumps' amplitude is not positive; the loop
        # used to spin forever
        with pytest.raises(InadmissibleTestFunctionError):
            dg.generate_test_functions(iops, mass, count=5)

    def test_constant_only_near_the_bound(self, iops):
        tfs = dg.generate_test_functions(iops, 0.98, count=1)
        assert len(tfs) == 1 and np.all(tfs[0].bulk == 0.98)

    def test_strip_test_functions(self):
        ops = make_operators(PeriodicStrip(2.0, 12, 13))
        tfs = dg.generate_test_functions(ops, 0.1, count=12, seed=6)
        assert len(tfs) == 12
        for f in tfs:
            assert np.max(np.abs(f.bulk)) < 1.0


def _dense_vi_constant(ops, lam):
    """The VI constant from a dense symmetric eigenproblem: with S =
    W^-1/2 K W^-1/2 and Q an orthonormal basis of the complement of the
    constant mode sqrt(w), the largest eigenvalue of
    Q^T S ((lam + 1/2) I - S / 2) Q, plus the 10% margin.  Returns L and the
    operator norm, which bounds the eigensolver's round-off."""
    s = 1.0 / np.sqrt(ops.weights)
    S = s[:, None] * ops.K.toarray() * s[None, :]
    T = S @ ((lam + 0.5) * np.eye(ops.n_bulk) - 0.5 * S)
    Q = np.linalg.qr(np.column_stack([np.sqrt(ops.weights),
                                      np.eye(ops.n_bulk)[:, :-1]]))[0][:, 1:]
    T = Q.T @ T @ Q
    lam_max = np.linalg.eigvalsh(0.5 * (T + T.T))[-1]
    return 1.1 * max(lam_max, 0.0) + 1e-12, np.linalg.norm(T, 2)


_VI_OPS = [make_operators(d) for d in (
    Interval(5), Interval(48), Interval(97, -3.0, 2.0), PeriodicStrip(2.0, 4, 5),
    PeriodicStrip(3.0, 12, 13), PeriodicStrip(0.7, 8, 17))]


class TestVIConstant:
    @given(st.sampled_from(_VI_OPS), st.floats(0.0, 60.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_symmetric_reference(self, ops, lam):
        L = dg.compute_vi_constant(ops, lam)
        L_ref, norm = _dense_vi_constant(ops, lam)
        # 1e-10 relative; near L = 0 the floor is the reference's own
        # eigensolver round-off, a few eps times the operator norm
        assert abs(L - L_ref) <= 1e-10 * L_ref + 1e-14 * norm

    def test_large_interval(self):
        # more nodes than a dense eigensolve handles comfortably
        for lam in (0.0, 1.5, 50.0):
            L = dg.compute_vi_constant(make_operators(Interval(1025)), lam)
            assert np.isfinite(L) and L > 0.0

    def test_vi_residual_default_constant_on_large_interval(self):
        ops = make_operators(Interval(1025))
        traj = run(ops, T=2e-3)
        rep = dg.vi_residual(traj, (0.0, 2e-3),
                             [[st.field for st in traj.states]])
        assert rep.residuals == [0.0]
        assert rep.L == dg.compute_vi_constant(ops, traj.cfg.lam)


def _vi_reference(traj, window, test_functions, L):
    """vi_residual written term by term, with three inverse Laplacians per
    test function and window step: A du, A v_bar and A d_bar."""
    ops, cfg = traj.ops, traj.cfg
    s, t = window
    states = [st for st in traj.states if s - 1e-12 <= st.t <= t + 1e-12]
    reg = cfg.regularized
    h1, h2 = dg.forcing_arrays(ops, cfg)

    def b_form(a_bulk, a_trace, b_bulk, b_trace):
        val = float(a_bulk @ (ops.K @ b_bulk)) - cfg.lam * ops.inner(a_bulk, b_bulk)
        a_bar = a_bulk - ops.mean(a_bulk)
        b_bar = b_bulk - ops.mean(b_bulk)
        val += L * ops.inner(ops.inverse_laplacian(a_bar), b_bar)
        return val + float(a_trace @ (ops.K_gamma @ b_trace))

    out = []
    for tf in test_functions:
        vs = tf if isinstance(tf, list) else [tf] * len(states)
        total = 0.0
        for k in range(len(states) - 1):
            s0, s1 = states[k], states[k + 1]
            v = vs[k + 1]
            u, psi = s1.field.bulk.ravel(), s1.field.trace.ravel()
            vb, vt = v.bulk.ravel(), v.trace.ravel()
            du = (s1.field.bulk - s0.field.bulk).ravel()
            dpsi = (s1.field.trace - s0.field.trace).ravel()
            diff, diff_t = u - vb, psi - vt
            Adu = ops.inverse_laplacian(du - ops.mean(du))
            total += ops.inner(Adu, diff) + ops.boundary_inner(dpsi, diff_t)
            lhs = b_form(vb, vt, diff, diff_t) + ops.inner(reg.f(vb), diff)
            Ad = ops.inverse_laplacian(diff - ops.mean(diff))
            rhs = (L * ops.inner(u, Ad)
                   - ops.boundary_inner(np.ravel(cfg.g.g(psi)), diff_t)
                   - ops.inner(h1, diff) + ops.boundary_inner(h2, diff_t))
            total += (s1.t - s0.t) * (lhs - rhs)
        out.append(total)
    return out


@pytest.mark.parametrize("domain", [Interval(48), PeriodicStrip(2.0, 8, 9)])
def test_vi_residual_matches_three_solve_reference(domain):
    ops = make_operators(domain)
    cfg = SolverConfig(potential=LogarithmicPotential(), N=8, lam=1.5,
                       dt=1e-3, h1=0.1, h2=0.2,
                       g=BoundaryNonlinearity.tanh_tilt(0.3))
    f0 = initial_field(ops, seed=4, amplitude=0.4, mean=0.1)
    traj = simulate(ops, cfg, f0, T=0.02, cadence=2e-3)
    tfs = dg.generate_test_functions(ops, ops.mean(f0.bulk), count=8, seed=7,
                                     anchor=f0)
    window = (0.004, 0.02)
    moving = [st.field for st in traj.states
              if 0.004 - 1e-12 <= st.t <= 0.02 + 1e-12]
    tfs.append(moving[::-1])
    for L in (dg.compute_vi_constant(ops, cfg.lam), 7.0):
        rep = dg.vi_residual(traj, window, tfs, L=L)
        ref = _vi_reference(traj, window, tfs, L)
        for r, r_ref, sc in zip(rep.residuals, ref, rep.scales):
            assert abs(r - r_ref) <= 1e-12 * sc


class TestTraceMismatch:
    def test_small_in_classical_regime(self, iops):
        traj = run(iops, T=0.05)
        assert dg.trace_mismatch(iops, traj.cfg, traj.final) < 1e-2

    def test_stale(self, iops):
        from chdbc.errors import StaleStateError
        from chdbc.solver import State
        traj = run(iops, T=1e-3)
        s = State(t=0.0, field=traj.states[0].field)
        with pytest.raises(StaleStateError):
            dg.trace_mismatch(iops, traj.cfg, s)


class TestRecordMargins:
    def test_margins_match_states(self, iops):
        # each record's margins and |f_N(u)|_L1 are those of its snapshot
        traj = run(iops, T=0.02, cadence=5e-3)
        reg = traj.cfg.regularized
        assert len(traj.records) == len(traj.states) - 1 == 4
        for rec, st in zip(traj.records, traj.states[1:]):
            u = st.field.bulk
            assert rec.t == st.t
            assert rec.bulk_margin == 1.0 - np.max(np.abs(u)) > 0
            assert rec.boundary_margin \
                == 1.0 - np.max(np.abs(st.field.trace)) > 0
            assert rec.f_l1 == iops.weights @ np.abs(reg.f(u))


class TestDecay:
    def _fields(self, ops, seeds):
        out = []
        for sd in seeds:
            rng = np.random.default_rng(sd)
            x = ops.domain.x
            prof = sum(rng.standard_normal() * np.cos(np.pi * k * (x + 1) / 2)
                       for k in range(1, 4))
            prof = prof - ops.mean(prof)
            prof = 0.3 * prof / np.max(np.abs(prof))
            u0 = prof + 0.1 - ops.mean(prof)
            u0 += 0.1 - ops.mean(u0)
            out.append(ops.field_from_bulk(u0))
        return out

    def test_diameter_decays(self, iops):
        cfg = SolverConfig(potential=LogarithmicPotential(), N=8, lam=1.0,
                           dt=1e-2)
        runs = [simulate(iops, cfg, f0, T=0.5, cadence=0.1).states
                for f0 in self._fields(iops, [0, 1, 2])]
        rep = dg.decay_experiment(iops, cfg, runs)
        assert rep.phi_w_diameters[-1] < rep.phi_w_diameters[0]
        assert rep.decay_rate > 0

    def test_permutation_invariant(self, iops):
        cfg = SolverConfig(potential=LogarithmicPotential(), N=8, dt=1e-2)
        fields = self._fields(iops, [0, 1, 2])
        runs = [simulate(iops, cfg, f0, T=0.1, cadence=0.05).states
                for f0 in fields]
        r1 = dg.decay_experiment(iops, cfg, runs)
        r2 = dg.decay_experiment(iops, cfg, runs[::-1])
        assert np.allclose(r1.phi_w_diameters, r2.phi_w_diameters, atol=1e-13)


class TestExponentialFit:
    def test_recovers_K_and_C(self):
        t = np.linspace(0.0, 1.0, 11)
        d = 0.3 * np.r_[1.0, 1.7 * np.exp(-2.5 * t[1:])]
        K, C = dg.exponential_fit(t, d)
        assert K == pytest.approx(-2.5, rel=1e-12)
        assert C == pytest.approx(1.7, rel=1e-12)

    def test_one_sample_reads_the_endpoint(self):
        K, C = dg.exponential_fit([0.0, 0.1], [0.5, 0.25])
        assert K == pytest.approx(np.log(0.5) / 0.1, rel=1e-15)
        assert C == 1.0

    def test_samples_at_or_below_the_floor_are_dropped(self):
        # t = 0 and d <= 1e-14 are not fitted: one sample is left
        K, C = dg.exponential_fit([0.0, 0.1, 0.2, 0.3],
                                  [1.0, 0.5, 1e-14, 0.0])
        assert (K, C) == (np.log(0.5) / 0.1, 1.0)

    @pytest.mark.parametrize("t, d", [([0.0], [1.0]), ([0.0, 0.1], [1.0, 0.0]),
                                      ([0.0, 0.1, 0.2], [0.0, 0.0, 0.0])])
    def test_no_sample_is_nan(self, t, d):
        K, C = dg.exponential_fit(t, d)
        assert np.isnan(K) and np.isnan(C)


def test_records_to_csv(tmp_path, iops):
    traj = run(iops, T=5e-3)
    path = tmp_path / "diag.csv"
    dg.records_to_csv(traj.records, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + len(traj.records)
    assert lines[0].startswith("t,mass,total_energy")
