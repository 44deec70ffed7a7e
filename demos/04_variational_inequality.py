"""Checking the variational inequality satisfied by the evolution.

The limit dynamics with the logarithmic potential can be characterized
through an integrated inequality tested against fields that share the
trajectory mass and stay strictly inside (-1, 1).  Here we run a short
simulation, generate a batch of admissible test functions, and confirm
that the time-integrated residual is nonpositive for every one of them,
over several snapshot windows and for a stability constant well above
the computed threshold.
"""

import numpy as np

from chdbc.diagnostics import compute_vi_constant, generate_test_functions, vi_residual
from chdbc.discretization import Interval, make_operators
from chdbc.experiments import initial_field
from chdbc.potentials import BoundaryNonlinearity, LogarithmicPotential
from chdbc.solver import SolverConfig, simulate


def main():
    ops = make_operators(Interval(n=64))
    cfg = SolverConfig(
        potential=LogarithmicPotential(),
        N=8,
        lam=1.0,
        dt=1e-3,
        g=BoundaryNonlinearity(),
        h1=0.1,
        h2=0.2,
    )
    u0 = initial_field(ops, seed=1, amplitude=0.4, mean=0.1)
    traj = simulate(ops, cfg, u0, T=0.1, cadence=1e-3)

    L = compute_vi_constant(ops, cfg.lam)
    print(f"stability constant L = {L:.4f}")

    mass = ops.mean(u0.bulk)
    tfs = generate_test_functions(ops, mass, count=20, seed=0)
    print(f"generated {len(tfs)} admissible test functions at mass {mass:.3f}")

    for window in ((0.0, 0.03), (0.03, 0.06), (0.06, 0.1)):
        rep = vi_residual(traj, window, tfs, L=L)
        worst = max(rep.residuals)
        print(f"window {window}: max residual / scale = "
              f"{worst / max(rep.scales):+.4f} "
              f"({'inequality holds' if worst <= 0 else 'VIOLATED'})")

    # the residual vanishes identically when the test function is the
    # solution itself
    rep = vi_residual(traj, (0.0, 0.03),
                      [[st.field for st in traj.states
                        if st.t <= 0.03 + 1e-12]], L=L)
    print(f"\nresidual with w = u: {rep.residuals[0]:.3e}")

    rep_big = vi_residual(traj, (0.0, 0.03), tfs, L=1.5 * L)
    print(f"sign stable under L -> 1.5 L: "
          f"{'yes' if max(rep_big.residuals) <= 0 else 'no'}")


if __name__ == "__main__":
    main()
