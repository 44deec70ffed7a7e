"""Tour of the singular potentials and their clipped regularizations.

The free-energy densities defined on (-1, 1) blow up (or lose meaning)
at the pure phases u = +-1.  The solver never evaluates them there:
it works with a regularized family f_N that follows f on
[-1 + 1/N, 1 - 1/N] and continues linearly outside.  This script prints
the raw and regularized values side by side so the construction is
visible, and checks the two structural conditions that the experiment
drivers rely on.
"""

import numpy as np

from chdbc.potentials import (
    BoundaryNonlinearity,
    LogarithmicPotential,
    PowerSingularPotential,
    RegularizedPotential,
    check_separation_condition,
    check_sign_condition,
)


def show_family(name, pot, N=8):
    reg = RegularizedPotential(pot, N)
    cut = 1.0 - 1.0 / N
    print(f"\n{name}  (cutoff at +-{cut:.3f}, N={N})")
    print(f"{'u':>8} {'f(u)':>14} {'f_N(u)':>14} {'F(u)':>14} {'F_N(u)':>14}")
    for u in (0.0, 0.5, cut, 0.95, 0.999):
        f = pot.f(u) if u < 1.0 else float("inf")
        F = pot.F(u)
        print(f"{u:8.3f} {f:14.5f} {reg.f(u):14.5f} {F:14.5f} {reg.F(u):14.5f}")
    # past the cutoff f_N is linear: equal increments in u give equal
    # increments in f_N
    d1 = reg.f(cut + 0.02) - reg.f(cut + 0.01)
    d2 = reg.f(cut + 0.03) - reg.f(cut + 0.02)
    print(f"  tail linearity: {d1:.6f} vs {d2:.6f}")


def main():
    log = LogarithmicPotential()
    pw = PowerSingularPotential(p=3.0)

    show_family("logarithmic", log)
    show_family("power (p=3)", pw)

    print("\nvalue at the pure phase:")
    print(f"  logarithmic F(1) = {float(log.F(1.0)):.6f}  (finite)")
    print(f"  power p=3   F(1) = {float(pw.F(1.0))}  (strong singularity)")

    print("\nseparation condition f(u)/u >= kappa_1/(1-u^2)^(p-1), p > 2:")
    for name, pot in (("power p=3", pw), ("logarithmic", log)):
        rep = check_separation_condition(pot)
        tag = "holds" if rep.satisfied else f"fails ({rep.note})"
        print(f"  {name}: {tag}")

    print("\nboundary sign condition g(-1) < h2 < g(1):")
    g = BoundaryNonlinearity(2.0)
    for h2 in (0.0, 0.5, 5.0):
        ok = check_sign_condition(g, h2, eps=0.05)
        print(f"  tanh nonlinearity, h2 = {h2}: {'satisfied' if ok else 'violated'}")


if __name__ == "__main__":
    main()
