"""The 1D singular boundary-value problem y'' = f(y), y'(+-1) = K.

Odd solutions are shot from y(0) = 0, y'(0) = s.  The first integral
(1/2) y'^2 - F(y) = (1/2) s^2 turns the singular approach of |y| -> 1 into a
regular flight map x(y) = int_0^y dv / sqrt(s^2 + 2 F(v)), which gives the
time of flight, the critical flux, the classical slope and, inverted, the
profile.  Its composite 16-point Gauss-Legendre rule grades panels
geometrically from a quarter of the width of the integrand's peak at v = 0
(about s / sqrt(F''(0))) up to 0.5, then takes equal panels up to v = 0.999,
and equal panels in w, v = 1 - w^2, above.  An ODE shot runs only to give
raw samples for first_integral_drift.

When F(1) is finite there is a critical outward slope: s_star is the initial
slope whose profile saturates exactly at the endpoint, and
K_plus = sqrt(s_star^2 + 2 F(1)).  For K > K_plus no classical odd solution
exists; the saturated profile (shot with s_star) takes over and the boundary
condition is met only in the variational sense, with defect K - K_plus.
critical_flux is cached per potential, and so is the flight's grading scale
sqrt(8 F(0.5)); the flight's panel edges above 0.5 are a module constant.

Below K_plus the classical slope comes from one root find in Y = y(1), with
s^2 = K^2 - 2 F(Y) from the first integral.  How a shot leaves [0, 1]
(exit_kind) follows from its time of flight x1 alone, so a slope sweep needs
no shots.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import StiffnessFailureError

_Y_CLAMP = 1.0 - 1e-12  # the ODE right-hand side reads f no closer to 1
_V_SPLIT = 0.999  # v = 1 - w^2 above this level
# _flight's edges from 0.5: 64 equal panels to _V_SPLIT, 128 equal ones in w
_TOP_EDGES = np.concatenate([
    np.linspace(0.5, _V_SPLIT, 65),
    1.0 - np.linspace(math.sqrt(1.0 - _V_SPLIT), 0.0, 129)[1:] ** 2])


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
def _gauss(n):
    """n-point Gauss-Legendre nodes and weights on [0, 1] (built on first
    use, not at import)."""
    t, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (t + 1.0), 0.5 * w


def _panels(potential, s, a, b, n=16):
    """n-point Gauss integrals of 1 / sqrt(s^2 + 2 F(v)) from a to b (arrays of
    levels), in w with v = 1 - w^2 where a is above _V_SPLIT."""
    t, wt = _gauss(n)
    top = a >= _V_SPLIT
    lo = np.where(top, np.sqrt(1.0 - b), a)
    hi = np.where(top, np.sqrt(1.0 - a), b)
    u = lo[..., None] + (hi - lo)[..., None] * t
    top = top[..., None]
    with np.errstate(over="ignore"):  # a node where F overflows weighs nothing
        g = np.where(top, 2.0 * u, 1.0) / np.sqrt(
            s * s + 2.0 * potential.F(np.where(top, 1.0 - u * u, u)))
    return (hi - lo) * (g @ wt)


@functools.cache
def _peak_scale(potential):
    """sqrt(8 F(0.5)), cached per potential: F(v) ~ c v^2 near 0 with
    c ~ 4 F(0.5), so the flight's integrand peaks at v = 0 with width
    s / sqrt(2 c) = s / _peak_scale."""
    scale = math.sqrt(8.0 * float(potential.F(0.5)))
    if scale == 0.0:
        raise StiffnessFailureError("F(0.5) underflows to 0: the flight map "
                                    "has no scale")
    return scale


def _flight(potential, s, y=1.0):
    """The flight map of slope s > 0 up to level y, as (panel edges, x at each
    edge).  Panels double from a quarter of the width of the integrand's peak
    at v = 0 up to 0.5, then _TOP_EDGES take over."""
    a0 = 0.25 * s / _peak_scale(potential)
    graded = 0.5 ** np.arange(math.ceil(-math.log2(a0)), 1, -1)
    edges = np.concatenate([[0.0], graded, _TOP_EDGES])
    edges = np.append(edges[edges < y], y)
    x = np.cumsum(_panels(potential, s, edges[:-1], edges[1:]))
    return edges, np.concatenate([[0.0], x])


def _x_at(potential, s, flight, y):
    """x(y) for levels y: the table up to y's panel, plus one Gauss rule on
    the rest of that panel."""
    edges, x = flight
    k = np.minimum(np.searchsorted(edges, y, side="right"), edges.size - 1) - 1
    return x[k] + _panels(potential, s, edges[k], y)


def _y_at(potential, s, flight, x):
    """Levels y where the flight reaches x < x(1): linear interpolation in the
    table, then Newton steps with dx/dy = 1 / sqrt(s^2 + 2 F(y)), which stay
    below the root as x(y) is concave.  On a panel [a, 2a] the guess misses by
    < a/10 and Newton's constant f / (2 (s^2 + 2 F)) is ~ 1/(2a), so the error
    falls as 0.03^(2^n): four steps reach rounding.  x follows each step by
    an 8-point rule over the step, which is short next to the distance to the
    integrand's singularities."""
    newton = lambda y, x_y: np.clip(
        y - (x_y - x) * np.sqrt(s * s + 2.0 * potential.F(y)), 0.0, 1.0)
    y = np.interp(x, flight[1], flight[0])
    x_y = _x_at(potential, s, flight, y)
    for _ in range(3):
        y, y_old = newton(y, x_y), y
        x_y = x_y + _panels(potential, s, y_old, y, 8)
    return newton(y, x_y)


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
    x_hit: float | None  # where |y| reaches 1 when saturated; None if interior
    # raw ODE samples for first-integral verification
    ode_x: np.ndarray
    ode_y: np.ndarray
    ode_yp: np.ndarray


def _rhs(potential):
    f = potential._f  # the clamp keeps |y| < 1, so f's range check is moot

    def rhs(_x, z):
        y = min(max(z[0], -_Y_CLAMP), _Y_CLAMP)
        return [z[1], float(f(y))]
    return rhs


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
    return float(_flight(potential, s)[1][-1])


def shoot(potential, s) -> ShootingResult:
    """The odd profile of y'' = f(y), y(0) = 0, y'(0) = s on 2001 points over
    [-1, 1], from the flight map, with raw ODE samples beside it."""
    if s < 0.0:
        raise ValueError("initial slope s must be >= 0")
    half = np.linspace(0.0, 1.0, 1001)
    if s == 0.0:
        x = np.concatenate([-half[::-1], half[1:]])
        z = np.zeros_like(x)
        return ShootingResult(s, x, z, np.zeros_like(x) + 0.0, None, half,
                              np.zeros_like(half), np.zeros_like(half))

    flight = _flight(potential, s)
    x1 = float(flight[1][-1])
    x_hit = min(x1, 1.0) if exit_kind(x1) == "saturated" else None
    flying = half < (x_hit or math.inf)
    y_half = np.ones_like(half)
    y_half[flying] = _y_at(potential, s, flight, half[flying])
    with np.errstate(over="ignore"):
        yp_half = np.sqrt(s * s + 2.0 * potential.F(y_half))

    # Raw ODE samples up to where the map puts y = 1 - 1e-6, or, when F blows
    # up, where F reaches 100 (1 + s^2): deeper in, the ODE only drifts.
    x_stop = float(_x_at(potential, s, flight, 1.0 - 1e-6))
    if not math.isfinite(float(potential.F(1.0))):
        F_edges = potential.F(flight[0][:-1])
        x_stop = min(x_stop, float(np.interp(100.0 * (1.0 + s * s), F_edges,
                                             flight[1][:-1])))
    sol = solve_ivp(_rhs(potential), (0.0, min(x_stop, 1.0)), [0.0, s],
                    method="DOP853", rtol=1e-11, atol=1e-13, max_step=0.05)
    if sol.status < 0:
        raise StiffnessFailureError(sol.message)

    x = np.concatenate([-half[::-1], half[1:]])
    y = np.concatenate([-y_half[::-1], y_half[1:]])
    yp = np.concatenate([yp_half[::-1], yp_half[1:]])
    return ShootingResult(s, x, y, yp, x_hit, sol.t, sol.y[0], sol.y[1])


def first_integral_drift(potential, result: ShootingResult):
    """max |(1/2) y'^2 - F(y) - (1/2) s^2| along the raw ODE samples."""
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
    # in log s, as s_star falls off exponentially with kappa1; at the floor
    # s^2 is still a normal float
    g = lambda u: time_of_flight(potential, math.exp(u)) - 1.0
    lo, hi = math.log(1e-100), math.log(1e6)
    if g(hi) > 0.0:
        raise StiffnessFailureError("no saturation bracket: the flight "
                                    "stays above 1 up to s = 1e6")
    if g(lo) < 0.0:
        raise StiffnessFailureError("no interior bracket: the flight "
                                    "stays below 1 down to s = 1e-100")
    s_star = math.exp(brentq(g, lo, hi, xtol=1e-15))
    return CriticalFlux(float(s_star), math.sqrt(s_star * s_star + 2.0 * F1))


@dataclass
class BVPSolution:
    profile: ShootingResult  # shot with the solution's slope profile.s
    defect: float  # K - y'(1) of the returned profile (0 in the classical case)


def _boundary_state(potential, s):
    """(y(1), y'(1)) for an interior shot (s > 0), through the flight map."""
    Y = float(_y_at(potential, s, _flight(potential, s), 1.0))
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
    if K * K == math.inf:  # s^2 = K^2 - 2 F(Y) would be inf
        raise StiffnessFailureError(f"K = {K} is too large: K^2 overflows")
    x = lambda s, Y: float(_flight(potential, s, Y)[1][-1])

    def excess(Y):
        s2 = K * K - 2.0 * float(potential.F(Y))
        if s2 <= 0.0:
            return 1.0
        return x(math.sqrt(s2), Y) - 1.0

    # s^2 + 2 F(v) <= K^2 on [0, Y], so x(Y) >= Y / K: the root lies below K,
    # and excess(2K) >= 1.  The bracket starts there, not at 1, for small K.
    top = min(np.nextafter(1.0, 0.0), 2.0 * K)
    if excess(top) > 0.0:
        Y = brentq(excess, 0.0, top, xtol=1e-300)  # to brentq's rtol alone
    elif math.isfinite(float(potential.F(1.0))):
        Y = 1.0  # K = K_plus up to rounding: the critical profile
    else:
        raise StiffnessFailureError(f"y(1) for K = {K} rounds to 1")
    # s from the first integral carries f(Y) times the rounding of Y, and for
    # stiff F s^2 sinks below the rounding of K^2.  Two secant steps on
    # x(Y; s) = 1 in log s, where x is near linear, take s to the precision
    # of the flight; the second is needed as their slope holds ~8 digits.
    s = math.sqrt(max(K * K - 2.0 * float(potential.F(Y)),
                      K * K * sys.float_info.epsilon))
    x0 = x(s, Y)
    slope = (x(s * math.exp(1e-7), Y) - x0) / 1e-7
    s *= math.exp((1.0 - x0) / slope)
    return s * math.exp((1.0 - x(s, Y)) / slope)


def solve_bvp(problem: StationaryProblem) -> BVPSolution:
    """Classical odd profile with y'(1) = K when one exists; otherwise the
    saturated profile shot with s_star, with defect K - K_plus > 0."""
    pot, K = problem.potential, problem.K
    if K == 0.0:
        return BVPSolution(shoot(pot, 0.0), 0.0)
    crit = critical_flux(pot)
    if crit is not None and K > crit.K_plus:
        return BVPSolution(shoot(pot, crit.s_star), K - crit.K_plus)
    return BVPSolution(shoot(pot, _classical_slope(pot, K)), 0.0)


def classify(potential, K):
    """"Classical" below the critical flux (or always, when F(1) = inf),
    "VariationalOnly" above."""
    crit = critical_flux(potential)
    if crit is None or K <= crit.K_plus:
        return "Classical"
    return "VariationalOnly"
