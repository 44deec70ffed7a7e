"""Phase separation on an interval with a dynamically coupled boundary.

A small random perturbation of a mixed state is advanced with the
convex-splitting stepper.  Along the way we watch the structural
invariants that make the scheme trustworthy: the bulk mass is conserved
to rounding, the energy ledger never increases, and the trace relaxes
onto the bulk boundary values after the first implicit step.
"""

import numpy as np

from chdbc.diagnostics import energy, trace_mismatch
from chdbc.discretization import Interval, make_operators
from chdbc.experiments import initial_field
from chdbc.potentials import BoundaryNonlinearity, LogarithmicPotential
from chdbc.solver import SolverConfig, chemical_potential_mean, simulate


def _margin_at(ops, cfg, u0, N):
    from dataclasses import replace

    traj = simulate(ops, replace(cfg, N=N), u0, T=2.0, cadence=0.5)
    return traj.records[-1].bulk_margin


def main():
    # a domain long enough for the spinodal modes to fit: with lam = 6 the
    # mixed state is unstable and the solution segregates toward the two
    # wells near +-1.  The stepper logs that the explicit -lam*u part
    # dominates the convex margin of f_N; Newton still converges because
    # the implicit elliptic part controls the iteration.
    ops = make_operators(Interval(n=129, a=-4.0, b=4.0))
    cfg = SolverConfig(
        potential=LogarithmicPotential(),
        N=32,
        lam=6.0,
        dt=1e-2,
        g=BoundaryNonlinearity.linear(),
        h1=0.0,
        h2=0.1,
    )

    u0 = initial_field(ops, seed=3, amplitude=0.85, mean=0.05)
    # deliberately break the trace so the first step has to repair it
    u0.trace[:] = 0.0
    print(f"initial trace mismatch: {np.max(np.abs(u0.trace - u0.bulk[[0, -1]])):.3e}")

    traj = simulate(ops, cfg, u0, T=2.0, cadence=0.2)

    m0 = ops.mean(traj.states[0].field.bulk)
    print(f"\n{'t':>6} {'energy':>12} {'mass':>12} {'|u|_max':>9} {'mu mean gap':>12}")
    for st in traj.states:
        e = energy(ops, cfg, st.field).total
        mass = ops.mean(st.field.bulk)
        umax = float(np.max(np.abs(st.field.bulk)))
        if st.mu is not None:
            gap = chemical_potential_mean(ops, cfg, st)
        else:
            gap = float("nan")
        print(f"{st.t:6.2f} {e:12.6f} {mass:12.9f} {umax:9.4f} {gap:12.3e}")

    final = traj.final
    print(f"\nmass drift: {abs(ops.mean(final.field.bulk) - m0):.3e}")
    tgap = np.max(np.abs(final.field.trace - final.field.bulk[[0, -1]]))
    print(f"final trace mismatch: {tgap:.3e}")
    print(f"normal-derivative consistency gap: "
          f"{trace_mismatch(ops, cfg, final):.3e}")

    last = traj.records[-1]
    print(f"separation margin from +-1: bulk {last.bulk_margin:.4f}, "
          f"boundary {last.boundary_margin:.4f}")
    # a negative bulk margin means the plateau sits in the linear
    # extension region of f_N; it moves back inside (-1, 1) as N grows
    print("bulk margin at N=64:",
          f"{_margin_at(ops, cfg, u0, 64):.4f}")
    drops = np.diff([energy(ops, cfg, st.field).total for st in traj.states])
    print(f"energy increases observed: {int(np.sum(drops > 1e-10))}")


if __name__ == "__main__":
    main()
