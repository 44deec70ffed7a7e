"""Every metric the benchmark prints, with its unit and direction.

A per-layer metric's name starts with its layer; it also names the
end-to-end metric and the workloads that a change to it should move.
BENCHMARK.json repeats the name, unit and direction (its format has no room
for the rest), and the self-test keeps the two in step.
"""

from __future__ import annotations

from typing import NamedTuple

WORKLOADS = ("interval-quench", "strip-spinodal", "stationary-flux")

IQ, SS, SF = WORKLOADS
STEPPING = f"{IQ},{SS}"
ALL = ",".join(WORKLOADS)


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str = ""  # end-to-end metric this per-layer metric should move
    on: str = ""     # workloads (comma-separated) where it should move it
    bound: float | None = None  # end-to-end only: allowed worsening share


END_TO_END = [
    Metric("wall_s", "s", "lower", bound=0.25),
    Metric("setup_s", "s", "lower", bound=0.25),
    Metric("steps_per_s", "1/s", "higher", bound=0.25),
    Metric("peak_rss_mb", "MB", "lower", bound=0.05),
]

PER_LAYER = [
    # solver: Stepper.step and the sparse linear algebra it calls
    Metric("solver.step_calls", "count", "lower", "steps_per_s", STEPPING),
    Metric("solver.step_s", "s", "lower", "steps_per_s", STEPPING),
    Metric("solver.step_self_s", "s", "lower", "steps_per_s", STEPPING),
    Metric("solver.step_ms_p50", "ms", "lower", "steps_per_s", STEPPING),
    Metric("solver.step_ms_p90", "ms", "lower", "steps_per_s", STEPPING),
    Metric("solver.newton_iters", "count", "lower", "steps_per_s", STEPPING),
    Metric("solver.newton_iters_per_step", "count", "lower", "steps_per_s", IQ),
    Metric("solver.residual_calls", "count", "lower", "steps_per_s", STEPPING),
    Metric("solver.line_search_evals", "count", "lower", "steps_per_s", STEPPING),
    Metric("solver.assemble_calls", "count", "lower", "steps_per_s", IQ),
    Metric("solver.assemble_s", "s", "lower", "steps_per_s", IQ),
    Metric("solver.factor_calls", "count", "lower", "steps_per_s", SS),
    Metric("solver.factor_s", "s", "lower", "steps_per_s", SS),
    Metric("solver.factor_nnz", "count", "lower", "steps_per_s", SS),
    Metric("solver.lu_solve_s", "s", "lower", "steps_per_s", SS),
    Metric("solver.stepper_init_s", "s", "lower", "setup_s", STEPPING),
    Metric("solver.self_s", "s", "lower", "steps_per_s", STEPPING),
    # diagnostics
    Metric("diagnostics.energy_calls", "count", "lower", "wall_s", IQ),
    Metric("diagnostics.energy_s", "s", "lower", "wall_s", IQ),
    Metric("diagnostics.energy_calls_per_step", "count", "lower", "wall_s", IQ),
    Metric("diagnostics.record_s", "s", "lower", "wall_s", IQ),
    Metric("diagnostics.dissipation_check_s", "s", "lower", "wall_s", SS),
    Metric("diagnostics.vi_constant_s", "s", "lower", "wall_s", SS),
    Metric("diagnostics.vi_residual_s", "s", "lower", "wall_s", SS),
    Metric("diagnostics.self_s", "s", "lower", "wall_s", STEPPING),
    # discretization
    Metric("discretization.make_operators_s", "s", "lower", "setup_s", STEPPING),
    Metric("discretization.inverse_laplacian_calls", "count", "lower", "wall_s", SS),
    Metric("discretization.inverse_laplacian_s", "s", "lower", "wall_s", SS),
    Metric("discretization.phi_w_distance_s", "s", "lower", "wall_s", IQ),
    Metric("discretization.csv_write_calls", "count", "lower", "wall_s", SS),
    Metric("discretization.csv_write_s", "s", "lower", "wall_s", SS),
    Metric("discretization.csv_write_bytes", "bytes", "lower", "wall_s", SS),
    Metric("discretization.csv_read_s", "s", "lower", "wall_s", SS),
    Metric("discretization.self_s", "s", "lower", "wall_s", SS),
    # potentials
    Metric("potentials.F_calls", "count", "lower", "wall_s", SF),
    Metric("potentials.F_s", "s", "lower", "wall_s", SF),
    Metric("potentials.f_calls", "count", "lower", "steps_per_s", STEPPING),
    Metric("potentials.df_calls", "count", "lower", "steps_per_s", STEPPING),
    Metric("potentials.self_s", "s", "lower", "wall_s", SF),
    # stationary: first-integral quadrature and root finding
    Metric("stationary.critical_flux_calls", "count", "lower", "wall_s", SF),
    Metric("stationary.critical_flux_s", "s", "lower", "wall_s", SF),
    Metric("stationary.critical_flux_calls_per_solve", "count", "lower",
           "wall_s", SF),
    Metric("stationary.time_of_flight_calls", "count", "lower", "wall_s", SF),
    Metric("stationary.time_of_flight_s", "s", "lower", "wall_s", SF),
    Metric("stationary.shoot_s", "s", "lower", "wall_s", SF),
    Metric("stationary.solve_bvp_s", "s", "lower", "wall_s", SF),
    Metric("stationary.quad_calls", "count", "lower", "wall_s", SF),
    Metric("stationary.quad_s", "s", "lower", "wall_s", SF),
    Metric("stationary.brentq_calls", "count", "lower", "wall_s", SF),
    Metric("stationary.self_s", "s", "lower", "wall_s", SF),
    # drivers, command line, start-up
    Metric("experiments.driver_self_s", "s", "lower", "wall_s", ALL),
    Metric("cli.main_s", "s", "lower", "wall_s", ALL),
    Metric("setup.import_s", "s", "lower", "setup_s", ALL),
    # cost of the tracing itself
    Metric("trace.overhead_s", "s", "lower"),
    Metric("trace.spans", "count", "lower"),
]


def benchmark_entry(m: Metric) -> dict:
    """The BENCHMARK.json form of a metric."""
    entry = {"name": m.name, "unit": m.unit, "better": m.better}
    if m.bound is not None:
        entry["bound"] = m.bound
    return entry
