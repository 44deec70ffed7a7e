from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chdbc import diagnostics as dg
from chdbc.discretization import Interval, PeriodicStrip, make_operators
from chdbc.errors import (InadmissibleTestFunctionError,
                          InsufficientDataError, NonZeroMeanError)
from chdbc.experiments import initial_field
from chdbc.potentials import (BoundaryNonlinearity, LogarithmicPotential,
                              PowerSingularPotential)
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
        assert dg.dissipation_check(run(iops, cadence=5e-3)) == 0

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
        assert dg.dissipation_check(traj) == 0
        assert len(calls) == 1 and calls[0][2] is traj.states[0].field

    def test_counts_a_raised_energy(self, iops):
        traj = run(iops, cadence=5e-3)
        last = traj.records[-1]
        raised = replace(last, energy=replace(
            last.energy, forcing=last.energy.forcing + 1.0))
        broken = Trajectory(iops, traj.cfg, traj.states,
                            traj.records[:-1] + [raised], 5e-3)
        assert dg.dissipation_check(broken) == 1

    def test_counts_a_too_slow_decay(self, iops):
        """Energies that fall by 0.5 instead of at least 0.8 dt times the
        dissipation rate, here computed one interval at a time, break the
        law on those intervals though the energy still decreases."""
        traj = run(iops, cadence=5e-3)
        E = dg.energy(iops, traj.cfg, traj.states[0].field).total
        records = []
        for k, (s0, s1) in enumerate(zip(traj.states, traj.states[1:])):
            dt = s1.t - s0.t
            du = (s1.field.bulk - s0.field.bulk) / dt
            dpsi = (s1.field.trace - s0.field.trace) / dt
            rate = iops.h_minus1_norm(du - iops.mean(du)) ** 2 \
                + iops.boundary_inner(dpsi, dpsi)
            E -= (0.5 if k in (1, 4, 7) else 1.0) * dt * rate
            r = traj.records[k]
            records.append(replace(r, energy=replace(
                r.energy, forcing=r.energy.forcing + E - r.energy.total)))
        broken = Trajectory(iops, traj.cfg, traj.states, records, 5e-3)
        assert dg.dissipation_check(broken) == 3

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
        assert max(rep.residuals) <= 1e-6 * min(rep.scales)

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
                       g=BoundaryNonlinearity(0.3))
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


@pytest.mark.parametrize("domain", [Interval(33), PeriodicStrip(2.0, 8, 9)])
def test_vi_residual_detects_a_wrong_trajectory(domain):
    """The converse of nonpositivity.  Test functions u_k +- 1e-2 phi near
    the run read <= 0 on the true run, and clearly > 0 for one sign on the
    same states relabelled with h2 = 1.0 instead of 0.2 (about +5.8e-3 and
    +1.2e-2 of the scale).  phi, the mean-free cosine_mode(0, 2), has a
    nonzero boundary mean, so the scalar h2 enters; modes (0, 1) and (1, 1)
    would cancel it.  At +-1e-3 the true interval run reads +2.7e-6."""
    ops = make_operators(domain)
    cfg = SolverConfig(potential=LogarithmicPotential(), N=8, lam=1.5,
                       dt=1e-3, h1=0.1, h2=0.2, g=BoundaryNonlinearity(0.3))
    traj = simulate(ops, cfg, initial_field(ops, 4, 0.4, 0.1), T=0.03,
                    cadence=3e-3)
    phi = ops.cosine_mode(0, 2)
    phi = phi - ops.mean(phi)
    tfs = [[ops.field_from_bulk(st.field.bulk + sign * 1e-2 * phi)
            for st in traj.states] for sign in (1.0, -1.0)]
    true = dg.vi_residual(traj, (0.0, 0.03), tfs)
    assert all(r <= 1e-6 * sc for r, sc in zip(true.residuals, true.scales))
    relabelled = Trajectory(ops, replace(cfg, h2=1.0), traj.states,
                            traj.records, 3e-3)
    wrong = dg.vi_residual(relabelled, (0.0, 0.03), tfs)
    assert any(r > 1e-3 * sc for r, sc in zip(wrong.residuals, wrong.scales))


_VI_DOMAINS = st.one_of(
    st.builds(Interval, st.integers(8, 65)),
    st.builds(lambda nx, ny: PeriodicStrip(2.0, nx, ny),
              st.integers(4, 16), st.integers(5, 17)))
_VI_POTENTIALS = st.one_of(
    st.builds(lambda k1: LogarithmicPotential(kappa1=k1), st.floats(0.5, 2.0)),
    st.builds(lambda k, p: PowerSingularPotential(kappa=k, p=p),
              st.floats(0.5, 2.0), st.floats(1.5, 4.0)))


@given(dom=_VI_DOMAINS, pot=_VI_POTENTIALS, N=st.integers(4, 64),
       lam_ratio=st.floats(0.0, 3.0), a=st.floats(-0.5, 0.5),
       h2_ratio=st.floats(-1.0, 1.0), dt=st.sampled_from([1e-3, 5e-3, 1e-2]),
       seed=st.integers(0, 2 ** 16), amp=st.floats(0.1, 0.6),
       mean=st.floats(-0.3, 0.3), tf_seed=st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_vi_residual_nonpositive_on_random_data(dom, pot, N, lam_ratio, a,
                                                h2_ratio, dt, seed, amp, mean,
                                                tf_seed):
    """The discrete solution satisfies its variational inequality: over 20
    steps on either domain, every generated test function (anchored at the
    second snapshot) reads r <= 1e-6 * scale, the gate of the strip
    benchmark.  lam runs up to three times f'(0), past the spinodal
    threshold; h2 meets the boundary sign condition of the tanh g."""
    ops = make_operators(dom)
    g = BoundaryNonlinearity(a)
    cfg = SolverConfig(potential=pot, N=N, lam=lam_ratio * float(pot.df(0.0)),
                       dt=dt, g=g, h2=h2_ratio * (float(g.g(1.0)) - 0.05))
    T = 20 * dt
    traj = simulate(ops, cfg, initial_field(ops, seed, amp, mean), T,
                    cadence=2 * dt)
    tfs = dg.generate_test_functions(
        ops, ops.mean(traj.states[0].field.bulk), count=32, seed=tf_seed,
        anchor=traj.states[1].field)
    rep = dg.vi_residual(traj, (0.0, T), tfs)
    for r, scale in zip(rep.residuals, rep.scales):
        assert r <= 1e-6 * scale


@pytest.mark.parametrize("domain", [Interval(33), PeriodicStrip(2.0, 8, 9)])
@pytest.mark.parametrize("part", ["bulk", "trace"])
def test_vi_residual_rejects_a_non_finite_test_function(domain, part):
    """A NaN node compares False with the bound and the mass alike; it used
    to pass both admissibility checks and come back as residuals=[nan]."""
    ops = make_operators(domain)
    cfg = SolverConfig(potential=LogarithmicPotential(), dt=1e-3)
    traj = simulate(ops, cfg, initial_field(ops, 1, 0.4, 0.1), T=3e-3)
    tf = ops.field_from_bulk(np.full(ops.bulk_shape,
                                     ops.mean(traj.states[0].field.bulk)))
    getattr(tf, part).flat[0] = np.nan
    with pytest.raises(InadmissibleTestFunctionError, match="not finite"):
        dg.vi_residual(traj, (0.0, 3e-3), [tf])


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

    @pytest.mark.parametrize("strip", [False, True], ids=["interval", "strip"])
    def test_diameters_are_the_pairwise_maxima(self, strip):
        # the pairs' stacked distances have the bits of the pair-by-pair
        # phi_w_distance and H^1 norm
        ops = make_operators(PeriodicStrip(2.0, 8, 9) if strip
                             else Interval(33))
        cfg = SolverConfig(potential=LogarithmicPotential(), N=8, lam=2.0,
                           dt=1e-2)
        runs = [simulate(ops, cfg, initial_field(ops, seed, 0.4, 0.1), T=0.1,
                         cadence=0.02).states for seed in range(5)]
        rep = dg.decay_experiment(ops, cfg, runs)
        for k in range(len(rep.times)):
            pairs = list(combinations([run[k].field for run in runs], 2))
            d = [(a.bulk - b.bulk).ravel() for a, b in pairs]
            assert rep.phi_w_diameters[k] == max(
                ops.phi_w_distance(a, b) for a, b in pairs)
            assert rep.h1_diameters[k] == max(
                np.sqrt(float(v @ (ops.K @ v)) + ops.inner(v, v)) for v in d)

    def test_unequal_means_raise(self, iops):
        cfg = SolverConfig(potential=LogarithmicPotential(), N=8, dt=1e-2)
        fields = self._fields(iops, [0, 1, 2])
        fields[2] = iops.field_from_bulk(fields[2].bulk + 0.01)
        runs = [simulate(iops, cfg, f0, T=0.02).states for f0 in fields]
        with pytest.raises(NonZeroMeanError):
            dg.decay_experiment(iops, cfg, runs)


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
