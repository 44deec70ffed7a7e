"""Odd stationary profiles and the critical boundary flux.

The stationary problem y'' = f(y) on (-1, 1) with outward slope
y'(+-1) = K is solved from the midpoint through the first integral's
flight map x(y) = int_0^y dv / sqrt(s^2 + 2 F(v)).  For the
logarithmic potential there is a finite critical slope K_plus: below it
a classical profile meets the slope exactly, above it the profile
saturates at the pure phases before reaching the boundary and the slope
condition survives only in a variational sense.  For the power
potential F(1) is infinite and every K admits a classical solution.
"""

import numpy as np

from chdbc.potentials import LogarithmicPotential, PowerSingularPotential
from chdbc.stationary import (
    StationaryProblem,
    classify,
    critical_flux,
    first_integral_drift,
    shoot,
    solve_bvp,
    time_of_flight,
)


def main():
    log = LogarithmicPotential()

    print("arrival position x_1(s) of the midpoint shot at y = 1:")
    for s in (0.3, 0.5, 0.709137, 1.0, 2.0):
        print(f"  s = {s:8.6f}: x_1 = {time_of_flight(log, s):.6f}")

    crit = critical_flux(log)
    print(f"\ncritical slope: s_star = {crit.s_star:.12f}")
    print(f"critical flux:  K_plus = {crit.K_plus:.12f}")

    print("\nboundary-value problem at three flux levels:")
    for K in (0.5 * crit.K_plus, 0.99 * crit.K_plus, 2.0 * crit.K_plus):
        sol = solve_bvp(StationaryProblem(log, K))
        print(f"  K = {K:7.4f}: {classify(log, K):15s} "
              f"slope defect {sol.defect:.4f}")

    # sanity: the shooting integrator conserves the first integral
    res = shoot(log, 1.5)
    print(f"\nfirst-integral drift at s = 1.5: "
          f"{first_integral_drift(log, res):.2e}")
    print(f"saturation point of that shot: x = {res.x_hit:.6f}")

    print("\nstiffer logarithmic potentials: s_star falls off exponentially")
    for kappa1 in (100.0, 1000.0):
        crit = critical_flux(LogarithmicPotential(kappa1=kappa1))
        print(f"  kappa1 = {kappa1:6.0f}: s_star = {crit.s_star:.4e}, "
              f"K_plus = {crit.K_plus:.6f}")

    pw = PowerSingularPotential(p=3.0)
    print(f"\npower potential (p=3): critical flux is "
          f"{critical_flux(pw)} (none)")
    sol = solve_bvp(StationaryProblem(pw, 6.0))
    print(f"K = 6 still classical: y'(1) = {sol.profile.yp[-1]:.6f}, "
          f"max|y| = {np.max(np.abs(sol.profile.y)):.6f}")


if __name__ == "__main__":
    main()
