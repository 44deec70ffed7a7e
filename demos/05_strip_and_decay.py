"""A 2D periodic strip run and a trajectory-attraction experiment.

Two things at once.  First, the same stepper runs unchanged on a strip
that is periodic in x with dynamic conditions on the two horizontal
edges; we check mass conservation and energy decrease there too.
Second, on the interval we launch a small ensemble of initial data
sharing the same mass and watch the pairwise diameter of the ensemble
shrink, which is the finite-time signature of the long-time contraction
of the flow.
"""

import numpy as np

from chdbc.diagnostics import decay_experiment, energy
from chdbc.discretization import Interval, PeriodicStrip, make_operators
from chdbc.experiments import initial_field
from chdbc.potentials import BoundaryNonlinearity, LogarithmicPotential
from chdbc.solver import SolverConfig, simulate


def strip_run():
    ops = make_operators(PeriodicStrip(Lx=2.0, nx=16, ny=17))
    cfg = SolverConfig(
        potential=LogarithmicPotential(),
        N=8,
        lam=1.5,
        dt=1e-2,
        g=BoundaryNonlinearity(1.0),
        h2=0.1,
    )
    u0 = initial_field(ops, seed=5, amplitude=0.3, mean=0.0)
    traj = simulate(ops, cfg, u0, T=0.3, cadence=0.05)
    energies = [energy(ops, cfg, st.field).total for st in traj.states]
    masses = [ops.mean(st.field.bulk) for st in traj.states]
    print("periodic strip, 16 x 17 nodes:")
    print(f"  energy  {energies[0]:.6f} -> {energies[-1]:.6f} "
          f"(increases: {int(np.sum(np.diff(energies) > 1e-10))})")
    print(f"  mass drift {abs(masses[-1] - masses[0]):.3e}")


def decay_run():
    ops = make_operators(Interval(n=48))
    cfg = SolverConfig(
        potential=LogarithmicPotential(),
        N=8,
        lam=1.0,
        dt=1e-2,
        g=BoundaryNonlinearity(),
    )
    fields = [initial_field(ops, seed=k, amplitude=0.35, mean=0.1)
              for k in range(4)]
    runs = [simulate(ops, cfg, f0, T=1.0, cadence=0.1).states
            for f0 in fields]
    rep = decay_experiment(ops, cfg, runs)
    print("\nensemble of 4 trajectories with equal mass:")
    print(f"{'t':>6} {'diameter':>12}")
    for t, d in zip(rep.times, rep.phi_w_diameters):
        print(f"{t:6.2f} {d:12.6f}")
    print(f"fitted decay rate: {rep.decay_rate:.3f}")


if __name__ == "__main__":
    strip_run()
    decay_run()
