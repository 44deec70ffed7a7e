"""Singular bulk nonlinearities, their linear-extension regularizations, and
the boundary nonlinearity.

The bulk nonlinearity f lives on (-1, 1), is odd and monotone, and blows up
at the endpoints.  Two singular families are provided (logarithmic and
power-type) plus a smooth cubic used only for cross-checks.  The
regularization replaces f outside |u| <= 1 - 1/N by its first-order Taylor
extension, which keeps it globally defined, C^1 and monotone; its
antiderivative picks up exact quadratic tails.

Each potential class writes f, f' and F once, as the unchecked cores _f,
_df and _F, and _checked makes its public f, df and F from them: one entry
point per function that takes u as a float array and raises DomainError
outside the domain (|u| < 1 for f and df, |u| <= 1 for F; the smooth well
has none).  Callers that keep u inside, as the regularization does after
clipping, call the cores.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def _checked(core, rule=None):
    """The public method of the unchecked core (_f, _df or _F): it takes u
    as a float array and raises DomainError where rule, "|u| < 1" or
    "|u| <= 1", fails; with no rule, u is unbounded."""
    outside = {"|u| < 1": np.greater_equal, "|u| <= 1": np.greater}.get(rule)

    def method(self, u):
        u = np.asarray(u, dtype=float)
        if outside is not None and np.any(outside(np.abs(u), 1.0)):
            raise DomainError(f"argument must satisfy {rule}")
        return core(self, u)
    return method


@dataclass(frozen=True)
class LogarithmicPotential:
    """f(u) = -2*kappa0*u + kappa1*ln((1+u)/(1-u)) on (-1, 1).

    Defaults kappa0=0, kappa1=1 give the pure monotone logarithmic term;
    a double-well tilt is expressed through the separate linear shift
    lambda of the solver, so that f itself stays monotone.
    """

    kappa0: float = 0.0
    kappa1: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.kappa0 < self.kappa1 < math.inf:  # NaN fails too
            raise ValueError("require 0 <= kappa0 < kappa1 < inf")

    def _f(self, u):
        """f unchecked, for |u| < 1; atanh keeps its digits near u = 0."""
        return 2.0 * self.kappa1 * np.arctanh(u) - 2.0 * self.kappa0 * u

    def _df(self, u):
        return -2.0 * self.kappa0 + 2.0 * self.kappa1 / (1.0 - u * u)

    def _F(self, u):
        """F unchecked, for |u| <= 1: the antiderivative with F(0) = 0 and
        finite limits F(+-1) = -kappa0 + 2*kappa1*ln 2."""
        term = np.empty_like(u)
        # Near 0 the sum (1+u) log(1+u) + (1-u) log(1-u) cancels to u^2;
        # there the same sum is 2 u atanh(u) + log(1 - u^2), which keeps its
        # digits (and cancels itself above |u| = 1/2).
        small = np.abs(u) < 0.5
        v = u[small]
        term[small] = 2.0 * v * np.arctanh(v) + np.log1p(-v * v)
        rest = ~small
        v = u[rest]
        # x*log(x) -> 0 as x -> 0, so the endpoint values are the limits.
        with np.errstate(divide="ignore", invalid="ignore"):
            term[rest] = np.where(
                np.abs(v) < 1.0,
                (1.0 + v) * np.log1p(v) + (1.0 - v) * np.log1p(-v),
                2.0 * math.log(2.0),
            )
        return -self.kappa0 * u * u + self.kappa1 * term

    f, df = _checked(_f, "|u| < 1"), _checked(_df, "|u| < 1")
    F = _checked(_F, "|u| <= 1")


@dataclass(frozen=True)
class PowerSingularPotential:
    """f(u) = kappa * u / (1 - u^2)^(p-1) with kappa > 0, p > 1."""

    kappa: float = 1.0
    p: float = 3.0

    def __post_init__(self):
        if not (0.0 < self.kappa < math.inf and 1.0 < self.p < math.inf):
            raise ValueError("require finite kappa > 0 and p > 1")

    def _f(self, u):
        """f without the range check, for callers that keep |u| < 1."""
        return self.kappa * u * (1.0 - u * u) ** (1.0 - self.p)

    def _df(self, u):
        s = 1.0 - u * u
        return self.kappa * s ** (-self.p) * (1.0 + (2.0 * self.p - 3.0) * u * u)

    def _F(self, u):
        """F without the range check, for callers that keep |u| <= 1."""
        with np.errstate(divide="ignore"):
            log_s = np.log1p(-u * u)  # -inf at |u| = 1
        if self.p == 2.0:
            return -0.5 * self.kappa * log_s
        # (s^(2-p) - 1) / (p - 2) through expm1, which keeps the digits that
        # the plain difference loses as p -> 2
        return self.kappa * np.expm1((2.0 - self.p) * log_s) / (2.0 * (self.p - 2.0))

    f, df = _checked(_f, "|u| < 1"), _checked(_df, "|u| < 1")
    F = _checked(_F, "|u| <= 1")


@dataclass(frozen=True)
class SmoothDoubleWell:
    """f(u) = u^3: regular stand-in for cross-checks only, never singular."""

    def _f(self, u):
        return u ** 3

    def _df(self, u):
        return 3.0 * u * u

    def _F(self, u):
        return 0.25 * u ** 4

    f, df, F = _checked(_f), _checked(_df), _checked(_F)


@dataclass(frozen=True)
class RegularizedPotential:
    """Linear extension of a singular potential beyond |u| <= 1 - 1/N.

    On the core interval the regularization coincides with the base
    potential; outside, the first-order Taylor extension takes over, so the
    result is globally defined, C^1 and monotone nondecreasing.  The
    antiderivative is integrated in closed form (quadratic tails).
    """

    base: object
    N: object  # an int, or a float array of one N per node

    def __post_init__(self):
        if np.any(np.asarray(self.N) < 2):
            raise ValueError("regularization index N must be >= 2")

    @functools.cached_property
    def cutoff(self):
        return 1.0 - 1.0 / self.N

    def _split(self, u):
        """core = clip(u, +-cutoff) and d = u - core: every value below is
        the base potential's Taylor expansion at core, exact where d = 0.
        |core| <= 1 - 1/N, so the base potentials' unchecked cores apply."""
        u = np.asarray(u, dtype=float)
        core = u.clip(-self.cutoff, self.cutoff)
        return core, u - core

    def f_df(self, u):
        """f and df at the float array u, from one clip."""
        core, d = self._split(u)
        df = self.base._df(core)
        return self.base._f(core) + df * d, df

    def f(self, u):
        val = self.f_df(u)[0]
        return val if val.ndim else float(val)

    def df(self, u):
        val = self.base._df(self._split(u)[0])
        return val if val.ndim else float(val)

    def F(self, u):
        core, d = self._split(u)
        val = (self.base._F(core) + self.base._f(core) * d
               + 0.5 * self.base._df(core) * d * d)
        return val if val.ndim else float(val)


@dataclass(frozen=True)
class BoundaryNonlinearity:
    """g(z) = z + g0(z) with g0(z) = a tanh z, bounded in C^2; its
    antiderivative G(z) = z^2/2 + a ln cosh z has G(0) = 0.  At a = 0 (linear
    g) the g0 and ln cosh terms are exact zeros and no tanh or cosh runs."""

    a: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.a):
            raise ValueError("the tanh tilt a must be finite")

    def g0(self, z):
        z = np.asarray(z, dtype=float)
        return self.a * np.tanh(z) if self.a else np.zeros_like(z)

    def g(self, z):
        z = np.asarray(z, dtype=float)
        return z + self.g0(z)

    def G(self, z):
        """ln cosh z is |z| - ln 2 + ln(1 + e^(-2|z|)) from |z| = 20 on: exact
        to rounding there, and finite where cosh overflows (|z| > 710)."""
        z = np.asarray(z, dtype=float)
        G, t = 0.5 * z * z, np.abs(z)
        with np.errstate(over="ignore"):  # in a cosh that np.where drops
            return G + self.a * np.where(
                t < 20.0, np.log(np.cosh(z)),
                t - math.log(2.0) + np.log1p(np.exp(-2.0 * t))) if self.a else G


def check_sign_condition(g: BoundaryNonlinearity, h2, eps):
    """True iff g(-1) + eps <= h2 <= g(1) - eps at every boundary point."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    h2 = np.asarray(h2, dtype=float)
    lo = float(g.g(-1.0)) + eps
    hi = float(g.g(1.0)) - eps
    return bool(np.all(h2 >= lo) and np.all(h2 <= hi))


@dataclass(frozen=True)
class SeparationConditionReport:
    satisfied: bool
    note: str = ""


def check_separation_condition(spec) -> SeparationConditionReport:
    """The strong-singularity lower bound kappa1/(1-u^2)^(p-1) <= f(u)/u with
    p > 2, a property of the family: it holds for the power family iff
    p > 2, and never for the logarithmic one, whose f(u)/u grows only like
    log 1/(1-u)."""
    if isinstance(spec, PowerSingularPotential):
        ok = spec.p > 2.0
        return SeparationConditionReport(
            ok, "" if ok else "power exponent p <= 2")
    if isinstance(spec, LogarithmicPotential):
        return SeparationConditionReport(
            False, "f(u)/u grows only logarithmically near +-1")
    return SeparationConditionReport(False, "not a singular potential")
