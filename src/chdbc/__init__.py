"""Desk-scale numerical laboratory for a conserved bulk/surface phase-field
system with singular potentials and dynamic boundary coupling.

Layout:
    potentials      singular nonlinearities and their regularizations
    discretization  interval and periodic-strip grids and operators
    solver          energy-stable semi-implicit time stepping
    diagnostics     energy law, variational-inequality residuals, margins
    stationary      the singular equilibrium boundary-value problem
    experiments     batch drivers behind the command-line interface
"""

from . import diagnostics, discretization, potentials, solver, stationary
from .diagnostics import (
    DiagnosticsRecord,
    dissipation_check,
    energy,
    vi_residual,
)
from .discretization import Field, Interval, PeriodicStrip, make_operators
from .potentials import (
    BoundaryNonlinearity,
    LogarithmicPotential,
    PowerSingularPotential,
    RegularizedPotential,
    SmoothDoubleWell,
)
from .solver import SolverConfig, State, Trajectory, simulate
from .stationary import StationaryProblem, classify, critical_flux, solve_bvp

__version__ = "0.1.0"
