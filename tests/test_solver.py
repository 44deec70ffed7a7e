import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chdbc.diagnostics import dissipation_check, energy
from chdbc.experiments import initial_field
from chdbc.discretization import Field, Interval, PeriodicStrip, make_operators
from chdbc.errors import ConfigError, NewtonDivergedError, StaleStateError
from chdbc.potentials import (BoundaryNonlinearity, LogarithmicPotential,
                              PowerSingularPotential, check_sign_condition)
from chdbc.solver import (SolverConfig, State, chemical_potential_mean,
                          simulate)


@pytest.fixture
def iops():
    return make_operators(Interval(48))


def smooth_data(ops, amp=0.4, mean=0.1):
    if ops.domain.kind == "interval":
        x = ops.domain.x
        u0 = amp * np.cos(np.pi * (x - ops.domain.a)
                          / (ops.domain.b - ops.domain.a)) + mean
    else:
        X, Y = np.meshgrid(ops.domain.x, ops.domain.y, indexing="ij")
        u0 = amp * np.cos(np.pi * X) * np.cos(np.pi * (Y + 1.0) / 2.0) + mean
    return ops.field_from_bulk(u0)


class TestStepBasics:
    def test_mass_conserved(self, iops):
        cfg = SolverConfig(potential=LogarithmicPotential(), N=8, lam=1.0,
                           dt=1e-3)
        f0 = smooth_data(iops)
        traj = simulate(iops, cfg, f0, T=0.02, cadence=1e-3)
        m0 = iops.mean(f0.bulk)
        for s in traj.states:
            assert abs(iops.mean(s.field.bulk) - m0) < 1e-13

    def test_spinodal_lambda_logs_nothing(self, iops, caplog):
        """lam above f'(0) = min f_N' for every N is the spinodal regime the
        explicit -lam u of the splitting handles; it is no cause to warn."""
        cfg = SolverConfig(potential=LogarithmicPotential(), N=64, lam=6.0,
                           dt=1e-3)
        with caplog.at_level(logging.DEBUG):
            simulate(iops, cfg, smooth_data(iops), T=5e-3)
        assert caplog.records == []

    def test_trace_coupling_exact(self, iops):
        cfg = SolverConfig(potential=LogarithmicPotential(), N=8, dt=1e-3)
        traj = simulate(iops, cfg, smooth_data(iops), T=5e-3)
        for s in traj.states[1:]:
            assert np.array_equal(s.field.trace,
                                  iops.trace_of(s.field.bulk))

    def test_initial_trace_mismatch_resolved(self, iops):
        cfg = SolverConfig(potential=LogarithmicPotential(), N=8, dt=1e-3)
        f0 = smooth_data(iops)
        f0 = Field(f0.bulk, f0.trace + 0.3)  # inconsistent initial trace
        traj = simulate(iops, cfg, f0, T=3e-3)
        s1 = traj.states[1]
        assert np.array_equal(s1.field.trace, iops.trace_of(s1.field.bulk))

    def test_energy_decreases(self, iops):
        cfg = SolverConfig(potential=LogarithmicPotential(), N=16, lam=2.0,
                           dt=1e-2, h1=0.1, h2=-0.2)
        traj = simulate(iops, cfg, smooth_data(iops, amp=0.6), T=0.3,
                        cadence=1e-2)
        E = [energy(iops, cfg, s.field).total for s in traj.states]
        assert all(E[k + 1] <= E[k] + 1e-10 * (1.0 + abs(E[k]))
                   for k in range(len(E) - 1))

    def test_strip_runs(self):
        ops = make_operators(PeriodicStrip(2.0, 12, 13))
        cfg = SolverConfig(potential=PowerSingularPotential(p=3.0), N=8,
                           dt=1e-3)
        traj = simulate(ops, cfg, smooth_data(ops, amp=0.3, mean=0.0), T=5e-3)
        m0 = ops.mean(traj.states[0].field.bulk)
        assert abs(ops.mean(traj.final.field.bulk) - m0) < 1e-13


class TestSimulateContract:
    def test_snapshot_counts(self, iops):
        cfg = SolverConfig(potential=LogarithmicPotential(), N=8, dt=1e-3)
        traj = simulate(iops, cfg, smooth_data(iops), T=3e-3, cadence=1e-3)
        assert len(traj.states) == 4  # initial + 3
        assert len(traj.records) == 3

    def test_cadence_validation(self, iops):
        cfg = SolverConfig(potential=LogarithmicPotential(), N=8, dt=1e-3)
        with pytest.raises(ValueError):
            simulate(iops, cfg, smooth_data(iops), T=1e-3, cadence=1.0)
        with pytest.raises(ValueError):
            simulate(iops, cfg, smooth_data(iops), T=-1.0)

    @pytest.mark.parametrize("T, cadence", [(0.0105, None), (0.01, 0.0025),
                                            (float("nan"), None)])
    def test_off_grid_times_rejected(self, iops, T, cadence):
        cfg = SolverConfig(potential=LogarithmicPotential(), N=8, dt=1e-3)
        with pytest.raises(ConfigError):
            simulate(iops, cfg, smooth_data(iops), T=T, cadence=cadence)

    def test_times_on_grid(self, iops):
        # k*dt exactly, where summing dt would drift in the last digits
        cfg = SolverConfig(potential=LogarithmicPotential(), N=8, dt=1e-3)
        traj = simulate(iops, cfg, smooth_data(iops), T=0.1, cadence=0.01)
        assert list(traj.times) == [k * 10 * 1e-3 for k in range(11)]

    def test_nonfinite_data_diverges(self, iops):
        cfg = SolverConfig(potential=LogarithmicPotential(), N=8, dt=1e-3)
        f0 = smooth_data(iops)
        f0.bulk[3] = np.nan
        with pytest.raises(NewtonDivergedError):
            simulate(iops, cfg, f0, T=2e-3)

    def test_deterministic(self, iops):
        cfg = SolverConfig(potential=LogarithmicPotential(), N=8, lam=1.0,
                           dt=1e-3)
        t1 = simulate(iops, cfg, smooth_data(iops), T=0.01)
        t2 = simulate(iops, cfg, smooth_data(iops), T=0.01)
        assert np.array_equal(t1.final.field.bulk, t2.final.field.bulk)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(potential=LogarithmicPotential(), dt=0.0)
        with pytest.raises(ValueError):
            SolverConfig(potential=LogarithmicPotential(), N=1)
        for h2 in (np.nan, np.inf, np.array([0.1, -np.inf])):
            with pytest.raises(ValueError):
                SolverConfig(potential=LogarithmicPotential(), h2=h2)


class TestRegularizationConsistency:
    def test_confined_run_invariant(self, iops):
        # data well inside both cutoffs: f_N and f_2N coincide on the range
        f0 = smooth_data(iops, amp=0.45, mean=0.0)
        outs = []
        for N in (8, 16):
            cfg = SolverConfig(potential=LogarithmicPotential(), N=N, lam=1.0,
                               dt=1e-3)
            outs.append(simulate(iops, cfg, f0, T=0.02, cadence=1e-2))
        for a, b in zip(outs[0].states, outs[1].states):
            assert np.max(np.abs(a.field.bulk - b.field.bulk)) < 1e-9


class TestMuMean:
    def test_identity(self, iops):
        cfg = SolverConfig(potential=LogarithmicPotential(), N=8, lam=1.5,
                           dt=1e-3, h1=0.2, h2=0.1,
                           g=BoundaryNonlinearity.tanh_tilt(0.3))
        traj = simulate(iops, cfg, smooth_data(iops), T=0.01)
        assert chemical_potential_mean(iops, cfg, traj.final) < 1e-11

    def test_stale_state(self, iops):
        cfg = SolverConfig(potential=LogarithmicPotential(), N=8, dt=1e-3)
        fresh = State(t=0.0, field=smooth_data(iops))
        with pytest.raises(StaleStateError):
            chemical_potential_mean(iops, cfg, fresh)


_domains = st.one_of(
    st.builds(Interval, st.integers(8, 65)),
    st.builds(lambda nx, ny: PeriodicStrip(2.0, nx, ny),
              st.integers(4, 16), st.integers(5, 17)))
_singular = st.one_of(
    st.builds(lambda k1: LogarithmicPotential(kappa1=k1), st.floats(0.5, 2.0)),
    st.builds(lambda k, p: PowerSingularPotential(kappa=k, p=p),
              st.floats(0.5, 2.0), st.floats(1.5, 4.0)))
_tilts = st.one_of(st.just(0.0), st.floats(-0.5, 0.5))  # linear or tanh g


@given(dom=_domains, pot=_singular, N=st.integers(4, 64),
       lam_ratio=st.floats(0.0, 3.0), a=_tilts, h2_ratio=st.floats(-1.0, 1.0),
       seed=st.integers(0, 2 ** 16), amp=st.floats(0.1, 0.6),
       mean=st.floats(-0.3, 0.3))
@settings(max_examples=60, deadline=None)
def test_step_invariants_on_random_data(dom, pot, N, lam_ratio, a, h2_ratio,
                                        seed, amp, mean):
    """Over a few steps on either domain: bulk mass kept to rounding, no
    dissipation-ledger violation, and the trace equal to the bulk's y0 and
    y1 rows, read off the bulk here rather than through ops.trace_of.  lam
    runs from 0 to three times f'(0), below and above the spinodal
    threshold; h2 meets the boundary sign condition."""
    ops = make_operators(dom)
    g = BoundaryNonlinearity.tanh_tilt(a)
    h2 = h2_ratio * (float(g.g(1.0)) - 0.05)
    assert check_sign_condition(g, h2, 0.05)
    cfg = SolverConfig(potential=pot, N=N, lam=lam_ratio * float(pot.df(0.0)),
                       dt=1e-3, g=g, h2=h2)
    f0 = initial_field(ops, seed, amp, mean)
    traj = simulate(ops, cfg, f0, T=4e-3)
    m0 = ops.mean(f0.bulk)
    scale = 1.0 + float(np.max(np.abs(f0.bulk)))
    assert max(abs(r.mass - m0) for r in traj.records) <= 1e-12 * scale
    assert dissipation_check(traj).violations == 0
    for s in traj.states[1:]:
        rows = s.field.bulk.reshape(-1, ops.bulk_shape[-1])
        ends = np.array([rows[:, 0], rows[:, -1]]).reshape(ops.trace_shape)
        assert np.array_equal(s.field.trace, ends)
