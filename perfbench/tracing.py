"""Spans around the public callables of each chdbc layer.

A Tracer replaces each callable at the name its caller looks it up (a module
global, a class attribute) with a wrapper that records one span: name, start,
end, parent span and run id.  Spans live in flat arrays while the run goes on
and are written out once, when it ends.  A span's self time is its duration
minus the durations of its direct children; calls on one thread nest, so the
children never overlap.
"""

from __future__ import annotations

import os
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class _TracedLU:
    """SuperLU stand-in whose solve() is traced; SuperLU is a C type whose
    methods cannot be replaced in place."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")  # payload: Newton iterations, LU nnz, bytes
        self.run = array("i")
        self.run_id = -1
        self._stack = []

    def wrap(self, name, fn, payload=None, result=None):
        """Traced version of fn.  payload(args, out) gives the span's value,
        result(out) replaces what the caller receives."""
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack
        name_id, parent, start, end, value, run = (
            self.name_id, self.parent, self.start, self.end, self.value,
            self.run)

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            run.append(self.run_id)
            end.append(0.0)
            value.append(0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if payload is not None:
                value[idx] = payload(args, out)
            return out if result is None else result(out)

        return traced

    @contextmanager
    def installed(self, points, run_id):
        """Patch every (owner, attribute, span name, payload, result) point
        for the duration of the block."""
        self.run_id = run_id
        saved = []
        try:
            for owner, attr, name, payload, result in points:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, payload, result))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self):
        # copies, so that the arrays may keep growing afterwards
        return {key: np.array(getattr(self, key)) for key in
                ("name_id", "parent", "start", "end", "value", "run")}

    def write(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _csv_bytes(args, _out):
    return os.path.getsize(args[2])


def _lu_nnz(_args, lu):
    return lu.L.nnz + lu.U.nnz


def patch_points(tracer):
    """Every traced callable, patched where its callers look it up."""
    import scipy.sparse
    import scipy.sparse.linalg

    from chdbc import (cli, diagnostics, discretization, experiments,
                       potentials, solver, stationary)

    def traced_lu(lu):
        return _TracedLU(lu, tracer.wrap("solver.lu_solve", lu.solve))

    points = [
        (cli, "main", "cli.main", None, None),
        (experiments, "run_experiment", "experiments.run_experiment",
         None, None),
        (experiments, "make_operators", "discretization.make_operators",
         None, None),
        (experiments, "field_to_csv", "discretization.field_to_csv",
         _csv_bytes, None),
        (discretization, "field_from_csv", "discretization.field_from_csv",
         None, None),
        (discretization._OperatorsBase, "inverse_laplacian",
         "discretization.inverse_laplacian", None, None),
        (discretization._OperatorsBase, "phi_w_distance",
         "discretization.phi_w_distance", None, None),
        (solver.Stepper, "__init__", "solver.stepper_init", None, None),
        (solver.Stepper, "step", "solver.step",
         lambda _a, out: out[1].newton_iters, None),
        (solver.Stepper, "_residual", "solver.residual", None, None),
        (scipy.sparse, "block_array", "solver.block_array", None, None),
        (scipy.sparse.linalg, "splu", "solver.splu", _lu_nnz, traced_lu),
        (diagnostics, "energy", "diagnostics.energy", None, None),
        (diagnostics, "record", "diagnostics.record", None, None),
        (diagnostics, "dissipation_check", "diagnostics.dissipation_check",
         None, None),
        (diagnostics, "compute_vi_constant", "diagnostics.compute_vi_constant",
         None, None),
        (diagnostics, "vi_residual", "diagnostics.vi_residual", None, None),
        (stationary, "solve_bvp", "stationary.solve_bvp", None, None),
        (stationary, "critical_flux", "stationary.critical_flux", None, None),
        (stationary, "time_of_flight", "stationary.time_of_flight",
         None, None),
        (stationary, "shoot", "stationary.shoot", None, None),
        (stationary, "quad", "stationary.quad", None, None),
        (stationary, "brentq", "stationary.brentq", None, None),
    ]
    for cls in (potentials.LogarithmicPotential,
                potentials.PowerSingularPotential, potentials.SmoothDoubleWell):
        for attr in ("F", "f", "df"):
            points.append((cls, attr, f"potentials.{attr}", None, None))
    return points


def layer_metrics(tracer, run_id):
    """Per-layer metrics of one traced repetition, keyed by metric name."""
    a = tracer.arrays()
    keep = a["run"] == run_id
    base = int(np.argmax(keep)) if keep.any() else 0
    nid = a["name_id"][keep]
    parent = a["parent"][keep] - base  # indices local to this repetition
    dur = a["end"][keep] - a["start"][keep]
    val = a["value"][keep]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    self_time = dur - child
    names = np.array(tracer.names)[nid]
    parent_name = np.where(has_parent, names[np.maximum(parent, 0)], "")

    def sel(name, under=None):
        m = names == name
        if under is not None:
            m &= parent_name == under
        return m

    def count(name, under=None):
        return int(sel(name, under).sum())

    def total(name, under=None):
        return float(dur[sel(name, under)].sum())

    def layer_self(prefix):
        return float(self_time[np.char.startswith(names, prefix)].sum())

    steps = count("solver.step")
    step_ms = dur[sel("solver.step")] * 1e3
    iters = int(val[sel("solver.step")].sum())
    residuals = count("solver.residual")
    energy_calls = count("diagnostics.energy")
    solves = count("stationary.solve_bvp")
    crit_calls = count("stationary.critical_flux")
    nnz = val[sel("solver.splu", "solver.step")]

    out = {
        "solver.step_calls": steps,
        "solver.step_s": total("solver.step"),
        "solver.step_self_s": float(self_time[sel("solver.step")].sum()),
        "solver.step_ms_p50": float(np.percentile(step_ms, 50)) if steps else 0.0,
        "solver.step_ms_p90": float(np.percentile(step_ms, 90)) if steps else 0.0,
        "solver.newton_iters": iters,
        "solver.newton_iters_per_step": iters / steps if steps else 0.0,
        "solver.residual_calls": residuals,
        "solver.line_search_evals": residuals - steps - iters,
        "solver.assemble_calls": count("solver.block_array", "solver.step"),
        "solver.assemble_s": total("solver.block_array", "solver.step"),
        "solver.factor_calls": count("solver.splu", "solver.step"),
        "solver.factor_s": total("solver.splu", "solver.step"),
        "solver.factor_nnz": int(nnz.max()) if nnz.size else 0,
        "solver.lu_solve_s": total("solver.lu_solve", "solver.step"),
        "solver.stepper_init_s": total("solver.stepper_init"),
        "solver.self_s": layer_self("solver."),
        "diagnostics.energy_calls": energy_calls,
        "diagnostics.energy_s": total("diagnostics.energy"),
        "diagnostics.energy_calls_per_step":
            energy_calls / steps if steps else 0.0,
        "diagnostics.record_s": total("diagnostics.record"),
        "diagnostics.dissipation_check_s":
            total("diagnostics.dissipation_check"),
        "diagnostics.vi_constant_s": total("diagnostics.compute_vi_constant"),
        "diagnostics.vi_residual_s": total("diagnostics.vi_residual"),
        "diagnostics.self_s": layer_self("diagnostics."),
        "discretization.make_operators_s":
            total("discretization.make_operators"),
        "discretization.inverse_laplacian_calls":
            count("discretization.inverse_laplacian"),
        "discretization.inverse_laplacian_s":
            total("discretization.inverse_laplacian"),
        "discretization.phi_w_distance_s":
            total("discretization.phi_w_distance"),
        "discretization.csv_write_calls": count("discretization.field_to_csv"),
        "discretization.csv_write_s": total("discretization.field_to_csv"),
        "discretization.csv_write_bytes":
            int(val[sel("discretization.field_to_csv")].sum()),
        "discretization.csv_read_s": total("discretization.field_from_csv"),
        "discretization.self_s": layer_self("discretization."),
        "potentials.F_calls": count("potentials.F"),
        "potentials.F_s": total("potentials.F"),
        "potentials.f_calls": count("potentials.f"),
        "potentials.df_calls": count("potentials.df"),
        "potentials.self_s": layer_self("potentials."),
        "stationary.critical_flux_calls": crit_calls,
        "stationary.critical_flux_s": total("stationary.critical_flux"),
        "stationary.critical_flux_calls_per_solve":
            crit_calls / solves if solves else 0.0,
        "stationary.time_of_flight_calls": count("stationary.time_of_flight"),
        "stationary.time_of_flight_s": total("stationary.time_of_flight"),
        "stationary.shoot_s": total("stationary.shoot"),
        "stationary.solve_bvp_s": total("stationary.solve_bvp"),
        "stationary.quad_calls": count("stationary.quad"),
        "stationary.quad_s": total("stationary.quad"),
        "stationary.brentq_calls": count("stationary.brentq"),
        "stationary.self_s": layer_self("stationary."),
        "experiments.driver_self_s":
            float(self_time[sel("experiments.run_experiment")].sum()),
        "cli.main_s": total("cli.main"),
        "trace.spans": int(keep.sum()),
    }
    return out
