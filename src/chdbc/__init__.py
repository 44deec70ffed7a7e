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

__version__ = "0.1.0"
