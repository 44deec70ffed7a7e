"""Manufactured steady states on the periodic strip and the interval.

With lam = 0, h1 = Lap u* - f(u*) and h2 = d_n u* - Lap_Gamma u* + g(u*)
on y = +-1, the smooth u* is the steady state at its mass (mu = 0, and the
energy is strictly convex), so the stepper's rest state meets an exact
answer.  Its error must fall at second order in h: that checks the strip's
x coupling and its surface Laplacian K_gamma, which no other exact answer
reaches.  The interval is the strip's x = 1/4 line, with no x direction
(on x = 0, u*'' vanishes at y = +-1, where a first-order boundary
difference would then keep second order).  At rest, ops.normal_derivative
meets the exact d_n u*, and diagnostics.trace_mismatch its exact value 0,
each at its own order.
"""

import functools

import numpy as np
import pytest

from chdbc import diagnostics, solver
from chdbc.discretization import Interval, PeriodicStrip, make_operators
from chdbc.potentials import BoundaryNonlinearity, LogarithmicPotential

PI = np.pi


def _exact(x, y, strip):
    """u*, its x second derivative, Lap u* and d_y u* at (x, y), for
    u* = 0.1 + 0.3 cos(pi x)(1 + y/2) + 0.2 sin(pi x) y^2 + 0.15 cos(pi y/2),
    2-periodic in x and within 0.875 = 1 - 1/N of +-1 at N = 8."""
    c, s = np.cos(PI * x), np.sin(PI * x)
    u = 0.1 + 0.3 * c * (1 + y / 2) + 0.2 * s * y ** 2 + 0.15 * np.cos(PI * y / 2)
    u_xx = -PI ** 2 * (0.3 * c * (1 + y / 2) + 0.2 * s * y ** 2) if strip \
        else np.zeros_like(u)
    u_y = 0.15 * c + 0.4 * s * y - 0.075 * PI * np.sin(PI * y / 2)
    u_yy = 0.4 * s - 0.0375 * PI ** 2 * np.cos(PI * y / 2)
    return u, u_xx, u_xx + u_yy, u_y


@functools.cache
def _rest_errors(n, strip, a):
    """max |u - u*|, max |normal_derivative(u) - d_n u*| and trace_mismatch
    at rest on the grid of spacing 2/n, from the constant at the discrete
    mean of u*: 50 steps of dt = 0.5."""
    dom = PeriodicStrip(2.0, n, n + 1) if strip else Interval(n + 1)
    ops = make_operators(dom)
    if strip:
        X, Y = np.meshgrid(dom.x, dom.y, indexing="ij")
        xb = dom.x
    else:
        X, Y, xb = np.full(n + 1, 0.25), dom.x, np.full(1, 0.25)
    u, _, lap, _ = _exact(X, Y, strip)
    pot, g = LogarithmicPotential(), BoundaryNonlinearity(a)
    h2, dn = [], []
    for side in (-1.0, 1.0):  # the trace rows y = -1, then y = 1
        ub, ub_xx, _, ub_y = _exact(xb, side, strip)
        dn.append(side * ub_y)
        h2.append(side * ub_y - ub_xx + g.g(ub))
    cfg = solver.SolverConfig(pot, N=8, dt=0.5, g=g, h1=lap - pot.f(u),
                              h2=np.reshape(h2, ops.trace_shape),
                              newton_tol=1e-12)
    start = ops.field_from_bulk(np.full(ops.bulk_shape, ops.mean(u)))
    rest = solver.simulate(ops, cfg, start, T=25.0, cadence=25.0).final
    dn = np.reshape(dn, ops.trace_shape)
    return (float(np.max(np.abs(rest.field.bulk - u))),
            float(np.max(np.abs(ops.normal_derivative(rest.field.bulk) - dn))),
            diagnostics.trace_mismatch(ops, cfg, rest))


@pytest.mark.parametrize("a", [0.0, 0.5], ids=["linear-g", "tanh-g"])
@pytest.mark.parametrize("strip", [True, False], ids=["strip", "interval"])
def test_rest_state_converges_at_second_order(strip, a):
    errors = [_rest_errors(n, strip, a)[0] for n in (8, 16, 32)]
    assert errors[0] > errors[1] > errors[2]
    assert np.log2(errors[1] / errors[2]) >= 1.9, errors


@pytest.mark.parametrize("a", [0.0, 0.5], ids=["linear-g", "tanh-g"])
@pytest.mark.parametrize("strip", [True, False], ids=["strip", "interval"])
@pytest.mark.parametrize("which", [1, 2], ids=["normal_derivative",
                                               "trace_mismatch"])
def test_boundary_checks_converge_at_second_order(which, strip, a):
    # observed orders between n = 16 and 32: normal_derivative 2.00 (strip)
    # and 1.99 (interval), trace_mismatch 1.99 on both, for both g laws;
    # both stay at 2.00 up to n = 64
    errors = [_rest_errors(n, strip, a)[which] for n in (8, 16, 32)]
    assert errors[0] > errors[1] > errors[2]
    assert np.log2(errors[1] / errors[2]) >= 1.9, errors
