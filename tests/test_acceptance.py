"""Acceptance suite: one test per headline capability, one PASS/FAIL line
each.  Run with -s to see the lines as they complete."""

import math

import numpy as np
import pytest

from chdbc import diagnostics as dg
from chdbc import experiments as ex
from chdbc import stationary as st
from chdbc.discretization import Interval, PeriodicStrip, make_operators
from chdbc.potentials import LogarithmicPotential, PowerSingularPotential
from chdbc.solver import SolverConfig, simulate


def _report(num, label, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {label}")
    assert ok, f"criterion {num}: {label}"


def _cos_data(ops, amp, mean):
    x = ops.domain.x
    if ops.domain.kind == "interval":
        u0 = amp * np.cos(np.pi * (x - ops.domain.a)
                          / (ops.domain.b - ops.domain.a)) + mean
    else:
        X, Y = np.meshgrid(ops.domain.x, ops.domain.y, indexing="ij")
        u0 = amp * np.cos(np.pi * X) * np.cos(np.pi * (Y + 1.0) / 2.0) + mean
    return ops.field_from_bulk(u0)


def test_criterion_1_mass_conservation():
    ops = make_operators(Interval(48))
    cfg = SolverConfig(potential=LogarithmicPotential(), N=8, lam=1.0,
                       dt=1e-3, h1=0.1, h2=0.2)
    f0 = _cos_data(ops, 0.5, 0.1)
    traj = simulate(ops, cfg, f0, T=1.0, cadence=1e-2)  # 10^3 steps
    m0 = ops.mean(f0.bulk)
    drift = max(abs(r.mass - m0) for r in traj.records)
    _report(1, f"mass drift {drift:.2e} <= 1e-10 over 10^3 steps",
            drift <= 1e-10)


def test_criterion_2_energy_dissipation_matrix():
    violations = 0
    runs = 0
    for dom in (Interval(48), PeriodicStrip(2.0, 16, 17)):
        ops = make_operators(dom)
        f0 = _cos_data(ops, 0.7, 0.1)
        for pot in (LogarithmicPotential(), PowerSingularPotential(p=3.0)):
            for N in (8, 32):
                for dt in (1e-2, 1e-3):
                    cfg = SolverConfig(potential=pot, N=N, lam=2.0, dt=dt,
                                       h1=0.1, h2=0.2)
                    traj = simulate(ops, cfg, f0, T=40 * dt, cadence=dt)
                    E = [dg.energy(ops, cfg, s.field).total
                         for s in traj.states]
                    violations += sum(
                        1 for k in range(len(E) - 1)
                        if E[k + 1] > E[k] + 1e-8 * (1.0 + abs(E[k])))
                    runs += 1
    _report(2, f"{violations} energy violations across {runs} matrix runs",
            violations == 0 and runs == 16)


def test_criterion_3_regularization_consistency():
    ops = make_operators(Interval(48))
    f0 = _cos_data(ops, 0.45, 0.0)
    outs = []
    for N in (8, 16):
        cfg = SolverConfig(potential=LogarithmicPotential(), N=N, lam=1.0,
                           dt=1e-3)
        outs.append(simulate(ops, cfg, f0, T=0.05, cadence=1e-2))
    diff = max(np.max(np.abs(a.field.bulk - b.field.bulk))
               for a, b in zip(outs[0].states, outs[1].states))
    _report(3, f"confined N -> 2N trajectory difference {diff:.2e} <= 1e-9",
            diff <= 1e-9)


def test_criterion_4_n_cauchy(tmp_path):
    cfg = ex.resolve_config({
        "solver.lam": "6.0", "solver.dt": "1e-2",
        "domain.n": "129", "domain.a": "-4.0", "domain.b": "4.0",
        "experiment.amplitude": "0.85", "experiment.mean": "0.05",
        "experiment.n_levels": "5"}, seed=0)
    out = ex.run_converge_n(cfg, tmp_path, workers=1)
    final = out["final_time_diffs"]  # N = 4, 8, 16, 32, 64 vs doubled
    monotone = all(final[k + 1] < final[k] for k in range(len(final) - 1))
    reduction = final[0] / final[-1]
    _report(4, f"phi_w Cauchy diffs monotone={monotone}, "
               f"reduction {reduction:.1f}x >= 10x",
            monotone and reduction >= 10.0)


def test_criterion_5_lipschitz(tmp_path):
    cfg = ex.resolve_config({
        "solver.lam": "1.0", "solver.dt": "1e-2", "domain.n": "64",
        "solver.N": "16", "experiment.T": "0.5",
        "experiment.amplitude": "0.4", "experiment.mean": "0.1"}, seed=0)
    out = ex.run_lipschitz(cfg, tmp_path)
    ratios = list(out["final_over_initial"].values())
    Ks = list(out["fitted_K"].values())
    Cs = list(out["fitted_C"].values())
    r_ok = max(ratios) <= 1.1 * min(ratios)
    k_spread = (max(Ks) - min(Ks)) / max(abs(np.mean(Ks)), 1e-12)
    c_spread = (max(Cs) - min(Cs)) / abs(np.mean(Cs))
    _report(5, f"distance ratios {ratios[0]:.4f}.. within 10%, "
               f"(C,K) spreads ({c_spread:.1e},{k_spread:.1e}) within 20%",
            r_ok and k_spread <= 0.2 and c_spread <= 0.2)


def test_criterion_6_stationary_critical_flux():
    import json
    from importlib import resources

    pot = LogarithmicPotential()
    golden = json.loads(resources.files("chdbc").joinpath(
        "data/critical_flux_logarithmic.json").read_text())
    crit = st.critical_flux(pot)
    ok = abs(crit.s_star - golden["s_star"]) <= 1e-10
    ok &= abs(crit.K_plus - golden["K_plus"]) <= 1e-10
    # triangle: shooting event vs quadrature on the saturated slopes
    for s in (1.0, 2.0, 4.0):
        res = st.shoot(pot, s)
        ok &= abs(res.x_hit - st.time_of_flight(pot, s)) <= 1e-6
        # the BVP leg at the flux this slope induces: above critical, the
        # solver must return the saturated profile with the matching defect
        K_s = math.sqrt(s * s + 2.0 * float(pot.F(1.0)))
        sol = st.solve_bvp(st.StationaryProblem(pot, K_s))
        ok &= st.classify(pot, K_s) == "VariationalOnly"
        ok &= abs(sol.defect - (K_s - crit.K_plus)) <= 1e-6
    # classical BVP leg below critical closes the triangle with shoot
    for frac in (0.5, 0.9):
        K = frac * crit.K_plus
        sol = st.solve_bvp(st.StationaryProblem(pot, K))
        ok &= abs(sol.profile.yp[-1] - K) <= 1e-6
        ok &= abs(st.shoot(pot, sol.profile.s).y[-1] - sol.profile.y[-1]) <= 1e-6
    ok &= st.classify(pot, 0.5 * crit.K_plus) == "Classical"
    ok &= st.classify(pot, 2.0 * crit.K_plus) == "VariationalOnly"
    _report(6, f"critical flux K+ = {crit.K_plus:.10f} pinned, triangle and "
               "classification consistent", ok)


def test_criterion_7_separation_dichotomy():
    # separated branch: power p = 3 holds the boundary away from +-1
    cfg_p = ex.resolve_config({
        "potential.kind": "power", "potential.p": "3.0",
        "solver.dt": "1e-2", "domain.n": "33", "experiment.T": "16.0",
        "experiment.amplitude": "0.3"}, seed=0)
    margins = {}
    for N in (32, 64):
        ops = ex.build_operators(cfg_p)
        scfg = ex.build_solver_config(cfg_p, N=N, h2=5.0)
        f0 = ex.initial_field(ops, 0, 0.3, 0.0)
        traj = simulate(ops, scfg, f0, 16.0, cadence=8.0)
        margins[N] = 1.0 - float(np.max(np.abs(traj.final.field.trace)))
    sep_ok = margins[32] > 0 and margins[64] > 0 \
        and abs(margins[64] - margins[32]) < 0.1 * margins[32] + 1e-15
    # saturating branch: logarithmic with the same forcing pinned at +-1
    cfg_l = ex.resolve_config({
        "solver.dt": "1e-2", "domain.n": "9", "experiment.T": "16.0",
        "experiment.amplitude": "0.3"}, seed=0)
    marg_l, gaps = {}, {}
    for N in (32, 64):
        ops = ex.build_operators(cfg_l)
        scfg = ex.build_solver_config(cfg_l, N=N, h2=5.0)
        f0 = ex.initial_field(ops, 0, 0.3, 0.0)
        traj = simulate(ops, scfg, f0, 16.0, cadence=8.0)
        marg_l[N] = 1.0 - float(np.max(np.abs(traj.final.field.trace)))
        gaps[N] = dg.trace_mismatch(ops, scfg, traj.final)
    sat_ok = all(marg_l[N] <= 4.0 / N for N in (32, 64))
    gap_ok = abs(gaps[64] - gaps[32]) <= 0.1 * gaps[32] and gaps[64] > 0
    _report(7, f"p=3 margin {margins[64]:.3f} stable; log margins "
               f"{marg_l[32]:+.4f},{marg_l[64]:+.4f} <= 4/N, gap ratio "
               f"{gaps[64] / gaps[32]:.3f}", sep_ok and sat_ok and gap_ok)


def test_criterion_8_variational_inequality():
    ops = make_operators(Interval(64))
    cfg = SolverConfig(potential=LogarithmicPotential(), N=8, lam=1.0, dt=1e-3)
    f0 = _cos_data(ops, 0.4, -0.05)
    traj = simulate(ops, cfg, f0, T=0.1, cadence=1e-3)
    mass = ops.mean(f0.bulk)
    L = dg.compute_vi_constant(ops, cfg.lam)
    tfs = dg.generate_test_functions(ops, mass, count=20, seed=1,
                                     anchor=traj.states[0].field)
    ok = len(tfs) >= 20
    windows = [(0.0, 0.03), (0.03, 0.06), (0.06, 0.1)]
    worst = -np.inf
    for win in windows:
        rep = dg.vi_residual(traj, win, tfs, L=L)
        rep2 = dg.vi_residual(traj, win, tfs, L=1.5 * L)
        for r, r2, sc in zip(rep.residuals, rep2.residuals, rep.scales):
            worst = max(worst, r / sc)
            ok &= r <= 1e-6 * sc
            ok &= (r <= 1e-12 * sc) == (r2 <= 1e-12 * sc)  # sign-level
    idx = [k for k, s in enumerate(traj.states) if s.t <= 0.03 + 1e-12]
    rep0 = dg.vi_residual(traj, (0.0, 0.03),
                          [[traj.states[k].field for k in idx]], L=L)
    ok &= rep0.residuals == [0.0]
    _report(8, f"{3 * len(tfs)} VI residuals <= 1e-6 scale (worst "
               f"{worst:.2e}), zero at w=u, sign stable under 1.5L", ok)


def test_criterion_9_discrete_operators():
    exact = 4.0 / np.pi ** 2
    errs = []
    for n in (33, 65, 129):
        ops = make_operators(Interval(n))
        v = np.cos(np.pi * (ops.domain.x + 1.0) / 2.0)
        val = ops.inner(ops.inverse_laplacian(v), v)
        errs.append(abs(val / ops.inner(v, v) - exact))
    ratios = [errs[k] / errs[k + 1] for k in range(2)]
    ok = all(3.2 <= r <= 4.8 for r in ratios)
    ops = make_operators(Interval(129))
    v = np.cos(np.pi * (ops.domain.x + 1.0) / 2.0)
    d2 = ops.phi_w_distance(ops.field_from_bulk(v),
                            ops.field_from_bulk(np.zeros_like(v))) ** 2
    ok &= abs(d2 - (2.0 + exact)) <= 1e-3
    _report(9, f"4/pi^2 with h^2 ratios {ratios[0]:.2f},{ratios[1]:.2f}; "
               f"phi_w^2 = {d2:.6f} vs {2 + exact:.6f}", ok)


def test_criterion_10_first_integral():
    ok = True
    worst = 0.0
    for pot, slopes in ((LogarithmicPotential(), (0.5, 1.0, 2.0, 4.0)),
                        (PowerSingularPotential(p=3.0), (0.5, 1.0))):
        for s in slopes:
            drift = st.first_integral_drift(pot, st.shoot(pot, s))
            worst = max(worst, drift / (1.0 + s * s))
            ok &= drift <= 1e-8 * (1.0 + s * s)
    _report(10, f"first-integral drift <= 1e-8*(1+s^2), worst {worst:.2e}", ok)
