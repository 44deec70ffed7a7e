"""The 1D singular boundary-value problem y'' = f(y), y'(+-1) = K.

Odd solutions are built by shooting from y(0) = 0, y'(0) = s.  The first
integral (1/2) y'^2 - F(y) = (1/2) s^2 turns the singular approach of
|y| -> 1 into a regular quadrature x(y) = int dv / sqrt(s^2 + 2 F(v)), which
is used both as an independent oracle for the shooting integrator and to
continue profiles into the stiff tail.  The quadrature is a composite
16-point Gauss-Legendre rule on 128 equal panels on each side of a split at
v = 0.999; above the split the substitution v = 1 - w^2 removes the endpoint
behaviour of the integrand; a quadrature costs one or two array evaluations
of F.

When F(1) is finite there is a critical outward slope: s_star is the initial
slope whose profile saturates exactly at the endpoint, and
K_plus = sqrt(s_star^2 + 2 F(1)).  For K > K_plus no classical odd solution
exists; the saturated profile (shot with s_star) takes over and the boundary
condition is met only in the variational sense, with defect K - K_plus.
critical_flux is cached per potential.

Below K_plus the classical slope comes from one root find in Y = y(1), with
s^2 = K^2 - 2 F(Y) from the first integral, and the profile from one shot.
How a shot leaves [0, 1] (exit_kind) follows from its time of flight x1
alone, so a slope sweep needs no shots.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import StiffnessFailureError

__all__ = [
    "StationaryProblem", "ShootingResult", "CriticalFlux", "BVPSolution",
    "shoot", "exit_kind", "time_of_flight", "critical_flux", "solve_bvp",
    "classify",
    "variational_equilibrium_check", "first_integral_drift",
]

_Y_SWITCH = 1.0 - 1e-6  # hand over from the ODE to the quadrature here
_Y_EVENT = 1.0 - 1e-12
_V_SPLIT = 0.999  # v = 1 - w^2 above this level
_PANELS = 128


# Patchable by name; scipy.integrate and scipy.optimize load on first call only.
def quad(*args, **kwargs):
    from scipy.integrate import quad
    return quad(*args, **kwargs)


def solve_ivp(*args, **kwargs):
    from scipy.integrate import solve_ivp
    return solve_ivp(*args, **kwargs)


def brentq(*args, **kwargs):
    from scipy.optimize import brentq
    return brentq(*args, **kwargs)


@functools.cache
def _unit_rule():
    """Nodes and weights of the composite 16-point Gauss-Legendre rule on
    [0, 1] with _PANELS equal panels (built on first use, not at import)."""
    t, w = np.polynomial.legendre.leggauss(16)
    left = np.arange(_PANELS)[:, None] / _PANELS
    nodes = (left + 0.5 * (t + 1.0) / _PANELS).ravel()
    weights = np.tile(0.5 * w / _PANELS, _PANELS)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@dataclass(frozen=True)
class StationaryProblem:
    potential: object
    K: float

    def __post_init__(self):
        if not 0.0 <= self.K < math.inf:  # NaN fails too
            raise ValueError("outward slope K must be finite and >= 0")


@dataclass
class ShootingResult:
    s: float
    x: np.ndarray        # grid on [-1, 1]
    y: np.ndarray        # odd profile (clamped to +-1 past saturation)
    yp: np.ndarray       # slope from the first integral (inf at saturation if F(1)=inf)
    exit: str            # "interior" | "saturated"
    x_hit: float | None  # where |y| reaches 1, when saturated
    # raw ODE samples for first-integral verification
    ode_x: np.ndarray
    ode_y: np.ndarray
    ode_yp: np.ndarray


def _rhs(potential):
    f = potential._f  # the clamp keeps |y| < 1, so f's range check is moot

    def rhs(_x, z):
        y = min(max(z[0], -_Y_EVENT), _Y_EVENT)
        return [z[1], float(f(y))]
    return rhs


def _switch_level(potential, s):
    """Where to hand the integration over to the quadrature.

    With F bounded the ODE can run almost to the endpoint.  When F blows up,
    integrating deep into the singular layer trades first-integral accuracy
    for nothing (the quadrature is exact there), so stop once F reaches a
    moderate multiple of the shot energy.
    """
    if math.isfinite(float(potential.F(1.0))):
        return _Y_SWITCH
    F_cap = 100.0 * (1.0 + s * s)
    if float(potential.F(_Y_SWITCH)) <= F_cap:
        return _Y_SWITCH
    return brentq(lambda v: float(potential.F(v)) - F_cap, 0.0, _Y_SWITCH,
                  xtol=1e-14)


def _tail_quadrature(potential, s, y_from, y_to):
    """x-distance spent between y_from and y_to, via the first integral.

    Below _V_SPLIT the rule runs in v; above it in w, with v = 1 - w^2.
    """
    nodes, weights = _unit_rule()
    split = min(max(y_from, _V_SPLIT), y_to)
    w_lo, w_hi = math.sqrt(1.0 - y_to), math.sqrt(1.0 - split)
    val = 0.0
    with np.errstate(over="ignore"):  # a node where F overflows weighs nothing
        if split > y_from:
            v = y_from + (split - y_from) * nodes
            val += (split - y_from) * weights @ (
                1.0 / np.sqrt(s * s + 2.0 * potential.F(v)))
        if w_hi > w_lo:
            w = w_lo + (w_hi - w_lo) * nodes
            val += (w_hi - w_lo) * weights @ (
                2.0 * w / np.sqrt(s * s + 2.0 * potential.F(1.0 - w * w)))
    return float(val)


def exit_kind(x1):
    """How a shot whose y reaches 1 at x = x1 leaves [0, 1]: "saturated"
    when x1 <= 1 (the exactly-critical shot lands at the endpoint up to
    rounding, hence the 1e-9 slack), else "interior"."""
    return "saturated" if x1 <= 1.0 + 1e-9 else "interior"


def time_of_flight(potential, s):
    """x_1(s) = int_0^1 dv / sqrt(s^2 + 2 F(v)): arrival position of y at 1.

    Monotone decreasing in s; +inf at s = 0 (the flight out of the
    degenerate equilibrium never starts).
    """
    if s < 0.0:
        raise ValueError("s must be >= 0")
    if s == 0.0:
        return math.inf
    return _tail_quadrature(potential, s, 0.0, 1.0)


def shoot(potential, s) -> ShootingResult:
    """Integrate y'' = f(y) from y(0)=0, y'(0)=s and mirror by oddness, on
    2001 profile points over [-1, 1]."""
    if s < 0.0:
        raise ValueError("initial slope s must be >= 0")
    half = np.linspace(0.0, 1.0, 1001)
    if s == 0.0:
        x = np.concatenate([-half[::-1], half[1:]])
        z = np.zeros_like(x)
        return ShootingResult(s, x, z, np.zeros_like(x) + 0.0, "interior", None,
                              half, np.zeros_like(half), np.zeros_like(half))

    y_switch = _switch_level(potential, s)
    event = lambda _x, z: z[0] - y_switch
    event.terminal = True
    event.direction = 1.0
    sol = solve_ivp(_rhs(potential), (0.0, 1.0), [0.0, s], method="DOP853",
                    rtol=1e-11, atol=1e-13, dense_output=True, events=[event],
                    max_step=0.05)
    if sol.status < 0:
        raise StiffnessFailureError(sol.message)

    e = 0.5 * s * s
    if sol.t_events[0].size:
        x_switch = float(sol.t_events[0][0])
        x_hit = x_switch + _tail_quadrature(potential, s, y_switch, 1.0)
        saturated = exit_kind(x_hit) == "saturated"
        x_hit = min(x_hit, 1.0)
    else:
        x_switch = 1.0
        x_hit = None
        saturated = False

    ode = half <= x_switch
    y_half = np.ones_like(half)
    y_half[ode] = sol.sol(half[ode])[0]
    for i in np.flatnonzero(~ode):
        if not saturated or half[i] < x_hit:
            # invert the quadrature map on the stiff tail
            y_half[i] = brentq(
                lambda v: x_switch + _tail_quadrature(potential, s, y_switch, v)
                - half[i], y_switch, 1.0 - 1e-15, xtol=1e-14)
    with np.errstate(over="ignore"):
        yp_half = np.sqrt(2.0 * e + 2.0 * potential.F(np.minimum(y_half, 1.0)))
    x = np.concatenate([-half[::-1], half[1:]])
    y = np.concatenate([-y_half[::-1], y_half[1:]])
    yp = np.concatenate([yp_half[::-1], yp_half[1:]])
    return ShootingResult(s, x, y, yp, "saturated" if saturated else "interior",
                          x_hit if saturated else None,
                          sol.t, sol.y[0], sol.y[1])


def first_integral_drift(potential, result: ShootingResult):
    """max |(1/2) y'^2 - F(y) - (1/2) s^2| along the raw ODE samples."""
    if result.ode_x.size == 0:
        return 0.0
    F = potential.F(np.clip(result.ode_y, -1.0, 1.0))
    drift = 0.5 * result.ode_yp ** 2 - F - 0.5 * result.s ** 2
    return float(np.max(np.abs(drift)))


@dataclass(frozen=True)
class CriticalFlux:
    s_star: float
    K_plus: float


@functools.cache
def critical_flux(potential) -> CriticalFlux | None:
    """Critical outward slope, or None when F(1) = inf (classical solutions
    then exist for every K: the strong-singularity regime).  Cached per
    potential: potentials are frozen, hashable dataclasses."""
    F1 = float(potential.F(1.0))
    if not math.isfinite(F1):
        return None
    g = lambda s: time_of_flight(potential, s) - 1.0
    s_lo, s_hi = 1e-6, 1.0
    while g(s_hi) > 0.0:
        s_hi *= 2.0
        if s_hi > 1e6:
            raise StiffnessFailureError("no saturation bracket: the flight "
                                        "stays above 1 up to s = 1e6")
    while g(s_lo) < 0.0:
        s_lo *= 0.5
        if s_lo < 1e-12:
            raise StiffnessFailureError("no interior bracket: the flight "
                                        "stays below 1 down to s = 1e-12")
    s_star = brentq(g, s_lo, s_hi, xtol=1e-12, rtol=8.9e-16)
    return CriticalFlux(float(s_star), math.sqrt(s_star * s_star + 2.0 * F1))


@dataclass
class BVPSolution:
    kind: str  # "classical" | "variational-only"
    s: float
    profile: ShootingResult
    defect: float  # K - y'(1) of the returned profile (0 in the classical case)


def _boundary_state(potential, s):
    """(y(1), y'(1)) for an interior shot, through the quadrature map."""
    if s == 0.0:
        return 0.0, 0.0
    Y = brentq(lambda v: _tail_quadrature(potential, s, 0.0, v) - 1.0,
               1e-15, 1.0 - 1e-15, xtol=1e-15)
    return Y, math.sqrt(s * s + 2.0 * float(potential.F(Y)))


def _classical_slope(potential, K):
    """Initial slope of the classical odd profile with y'(1) = K > 0.

    One root find in Y = y(1): the first integral fixes s^2 = K^2 - 2 F(Y),
    and the flight x(Y) = int_0^Y dv / sqrt(s^2 + 2 F(v)) must equal 1.
    F increases on (0, 1), so x(Y) increases too, and it is infinite where
    s^2 <= 0.  Valid for K <= K_plus, and for every K when F(1) = inf.
    """
    if not K * K >= sys.float_info.min:  # s^2 would lose its digits
        raise StiffnessFailureError(f"K = {K} is too small: K^2 underflows")

    def excess(Y):
        s2 = K * K - 2.0 * float(potential.F(Y))
        if s2 <= 0.0:
            return 1.0
        return _tail_quadrature(potential, math.sqrt(s2), 0.0, Y) - 1.0

    # s^2 + 2 F(v) <= K^2 on [0, Y], so x(Y) >= Y / K: the root lies below K,
    # and excess(2K) >= 1.  The bracket starts there, not at 1, for small K.
    top = min(np.nextafter(1.0, 0.0), 2.0 * K)
    if excess(top) > 0.0:
        Y = brentq(excess, 0.0, top, xtol=1e-300)  # to brentq's rtol alone
    elif math.isfinite(float(potential.F(1.0))):
        Y = 1.0  # K = K_plus up to rounding: the critical profile
    else:
        raise StiffnessFailureError(f"y(1) for K = {K} rounds to 1")
    # s from the first integral carries f(Y) times the rounding of Y, which
    # as Y -> 1 swamps the rounding of s; one secant step on x(Y; s) = 1 at
    # this Y takes s to the precision of the flight instead
    s = math.sqrt(K * K - 2.0 * float(potential.F(Y)))
    ds = 1e-7 * s
    x0 = _tail_quadrature(potential, s, 0.0, Y)
    x1 = _tail_quadrature(potential, s + ds, 0.0, Y)
    return s - (x0 - 1.0) * ds / (x1 - x0)


def solve_bvp(problem: StationaryProblem) -> BVPSolution:
    """Classical odd profile with y'(1) = K when one exists; otherwise the
    saturated profile shot with s_star, flagged variational-only."""
    pot, K = problem.potential, problem.K
    if K == 0.0:
        return BVPSolution("classical", 0.0, shoot(pot, 0.0), 0.0)
    crit = critical_flux(pot)
    if crit is not None and K > crit.K_plus:
        prof = shoot(pot, crit.s_star)
        return BVPSolution("variational-only", crit.s_star, prof,
                           K - crit.K_plus)
    s = _classical_slope(pot, K)
    return BVPSolution("classical", s, shoot(pot, s), 0.0)


def classify(potential, K):
    """"Classical" below the critical flux (or always, when F(1) = inf),
    "VariationalOnly" above."""
    crit = critical_flux(potential)
    if crit is None or K <= crit.K_plus:
        return "Classical"
    return "VariationalOnly"


def variational_equilibrium_check(potential, x, y):
    """L^2 residual of y'' - f(y) = <y'' - f(y)> on the region |y| <= 0.999,
    by centered finite differences."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    h = x[1] - x[0]
    ypp = (y[2:] - 2.0 * y[1:-1] + y[:-2]) / h ** 2
    yi = y[1:-1]
    mask = (np.abs(yi) <= 0.999) & (np.abs(y[2:]) < 1.0) & (np.abs(y[:-2]) < 1.0)
    r = ypp[mask] - potential.f(yi[mask])
    r = r - np.mean(r)
    return float(np.sqrt(h * np.sum(r * r)))
