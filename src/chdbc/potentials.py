"""Singular bulk nonlinearities, their linear-extension regularizations, and
the boundary nonlinearity.

The bulk nonlinearity f lives on (-1, 1), is odd and monotone, and blows up
at the endpoints.  Two singular families are provided (logarithmic and
power-type) plus a smooth cubic used only for cross-checks.  The
regularization replaces f outside |u| <= 1 - 1/N by its first-order Taylor
extension, which keeps it globally defined, C^1 and monotone; its
antiderivative picks up exact quadratic tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ChdbcError, DomainError

__all__ = [
    "LogarithmicPotential",
    "PowerSingularPotential",
    "SmoothDoubleWell",
    "RegularizedPotential",
    "BoundaryNonlinearity",
    "SeparationConditionReport",
    "check_sign_condition",
    "check_separation_condition",
    "potential_from_config",
]


def _check_open_interval(u):
    if np.any(np.abs(u) >= 1.0):
        raise DomainError("argument must satisfy |u| < 1")


def _check_closed_interval(u):
    if np.any(np.abs(u) > 1.0):
        raise DomainError("argument must satisfy |u| <= 1")


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
        if not (self.kappa0 >= 0.0 and self.kappa1 > self.kappa0):
            raise ValueError("require 0 <= kappa0 < kappa1")

    @property
    def name(self):
        return f"logarithmic(kappa0={self.kappa0:g},kappa1={self.kappa1:g})"

    def f(self, u):
        u = np.asarray(u, dtype=float)
        _check_open_interval(u)
        return self._f(u)

    def _f(self, u):
        """f without the range check, for callers that keep |u| < 1."""
        return -2.0 * self.kappa0 * u + self.kappa1 * np.log((1.0 + u) / (1.0 - u))

    def df(self, u):
        u = np.asarray(u, dtype=float)
        _check_open_interval(u)
        return self._df(u)

    def _df(self, u):
        return -2.0 * self.kappa0 + 2.0 * self.kappa1 / (1.0 - u * u)

    def d2f(self, u):
        u = np.asarray(u, dtype=float)
        _check_open_interval(u)
        return 4.0 * self.kappa1 * u / (1.0 - u * u) ** 2

    def F(self, u):
        """Antiderivative with F(0) = 0; finite limits F(+-1) = -kappa0 + 2*kappa1*ln 2."""
        u = np.asarray(u, dtype=float)
        _check_closed_interval(u)
        # x*log(x) -> 0 as x -> 0, so the endpoint values are the limits.
        with np.errstate(divide="ignore", invalid="ignore"):
            term = np.where(
                np.abs(u) < 1.0,
                (1.0 + u) * np.log1p(u) + (1.0 - u) * np.log1p(-u),
                2.0 * math.log(2.0),
            )
        # Near 0 the two terms cancel to u^2; there the same sum is
        # 2 u atanh(u) + log(1 - u^2), which keeps its digits (and cancels
        # itself above |u| = 1/2).
        small = np.abs(u) < 0.5
        v = u[small]
        term[small] = 2.0 * v * np.arctanh(v) + np.log1p(-v * v)
        return -self.kappa0 * u * u + self.kappa1 * term

    def F_at_one(self):
        return -self.kappa0 + 2.0 * self.kappa1 * math.log(2.0)


@dataclass(frozen=True)
class PowerSingularPotential:
    """f(u) = kappa * u / (1 - u^2)^(p-1) with kappa > 0, p > 1."""

    kappa: float = 1.0
    p: float = 3.0

    def __post_init__(self):
        if not (self.kappa > 0.0 and self.p > 1.0):
            raise ValueError("require kappa > 0 and p > 1")

    @property
    def name(self):
        return f"power(kappa={self.kappa:g},p={self.p:g})"

    def f(self, u):
        u = np.asarray(u, dtype=float)
        _check_open_interval(u)
        return self._f(u)

    def _f(self, u):
        """f without the range check, for callers that keep |u| < 1."""
        return self.kappa * u * (1.0 - u * u) ** (1.0 - self.p)

    def df(self, u):
        u = np.asarray(u, dtype=float)
        _check_open_interval(u)
        return self._df(u)

    def _df(self, u):
        s = 1.0 - u * u
        return self.kappa * s ** (-self.p) * (1.0 + (2.0 * self.p - 3.0) * u * u)

    def d2f(self, u):
        u = np.asarray(u, dtype=float)
        _check_open_interval(u)
        s = 1.0 - u * u
        return (
            2.0 * self.kappa * (self.p - 1.0) * u * s ** (-self.p - 1.0)
            * (3.0 + (2.0 * self.p - 3.0) * u * u)
        )

    def F(self, u):
        u = np.asarray(u, dtype=float)
        _check_closed_interval(u)
        with np.errstate(divide="ignore"):
            log_s = np.log1p(-u * u)  # -inf at |u| = 1
        if self.p == 2.0:
            return -0.5 * self.kappa * log_s
        # (s^(2-p) - 1) / (p - 2) through expm1, which keeps the digits that
        # the plain difference loses as p -> 2
        return self.kappa * np.expm1((2.0 - self.p) * log_s) / (2.0 * (self.p - 2.0))

    def F_at_one(self):
        if self.p >= 2.0:
            return math.inf
        return self.kappa / (2.0 * (2.0 - self.p))


@dataclass(frozen=True)
class SmoothDoubleWell:
    """f(u) = u^3: regular stand-in for cross-checks only, never singular."""

    @property
    def name(self):
        return "smooth-double-well"

    def f(self, u):
        return self._f(np.asarray(u, dtype=float))

    def _f(self, u):
        return u ** 3

    def df(self, u):
        return self._df(np.asarray(u, dtype=float))

    def _df(self, u):
        return 3.0 * u * u

    def d2f(self, u):
        u = np.asarray(u, dtype=float)
        return 6.0 * u

    def F(self, u):
        u = np.asarray(u, dtype=float)
        return 0.25 * u ** 4

    def F_at_one(self):
        return 0.25


@dataclass(frozen=True)
class RegularizedPotential:
    """Linear extension of a singular potential beyond |u| <= 1 - 1/N.

    On the core interval the regularization coincides with the base
    potential; outside, the first-order Taylor extension takes over, so the
    result is globally defined, C^1 and monotone nondecreasing.  The
    antiderivative is integrated in closed form (quadratic tails).
    """

    base: object
    N: int

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("regularization index N must be >= 2")

    @property
    def cutoff(self):
        return 1.0 - 1.0 / self.N

    def _split(self, u):
        """core = clip(u, +-cutoff) and d = u - core: every value below is
        the base potential's Taylor expansion at core, exact where d = 0.
        |core| <= 1 - 1/N, so the base potentials' unchecked cores apply."""
        u = np.asarray(u, dtype=float)
        core = np.clip(u, -self.cutoff, self.cutoff)
        return core, u - core

    def f(self, u):
        core, d = self._split(u)
        val = self.base._f(core) + self.base._df(core) * d
        return val if val.ndim else float(val)

    def df(self, u):
        val = self.base._df(self._split(u)[0])
        return val if val.ndim else float(val)

    def F(self, u):
        core, d = self._split(u)
        val = (self.base.F(core) + self.base._f(core) * d
               + 0.5 * self.base._df(core) * d * d)
        return val if val.ndim else float(val)


def _zero(z):
    return np.zeros_like(np.asarray(z, dtype=float))


@dataclass(frozen=True)
class BoundaryNonlinearity:
    """g(z) = z + g0(z) with g0 bounded in C^2; G is the antiderivative, G(0)=0."""

    g0: Callable = field(default=_zero)
    dg0: Callable = field(default=_zero)
    G0: Callable = field(default=_zero)

    def g(self, z):
        z = np.asarray(z, dtype=float)
        return z + self.g0(z)

    def dg(self, z):
        z = np.asarray(z, dtype=float)
        return 1.0 + self.dg0(z)

    def G(self, z):
        z = np.asarray(z, dtype=float)
        return 0.5 * z * z + self.G0(z)

    @classmethod
    def linear(cls):
        return cls()

    @classmethod
    def tanh_tilt(cls, a):
        """g(z) = z + a*tanh(z); G0(z) = a*ln cosh z."""
        return cls(
            g0=lambda z: a * np.tanh(z),
            dg0=lambda z: a / np.cosh(z) ** 2,
            G0=lambda z: a * np.log(np.cosh(z)),
        )


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
    p: float | None
    kappa1: float | None
    kappa2: float | None
    M: float | None
    satisfied: bool
    note: str = ""


def check_separation_condition(spec) -> SeparationConditionReport:
    """Check the strong-singularity lower bound kappa1/(1-u^2)^(p-1) <= f(u)/u
    with p > 2.

    Exact for the power family; for the logarithmic family the ratio
    f(u)*(1-u^2)^(p-1)/u is sampled at u = 1 - 10^-k and decays to zero, so
    no such bound holds.
    """
    if isinstance(spec, PowerSingularPotential):
        ok = spec.p > 2.0
        return SeparationConditionReport(
            p=spec.p, kappa1=spec.kappa, kappa2=spec.kappa, M=spec.p - 1.0,
            satisfied=ok,
            note="" if ok else "power exponent p <= 2",
        )
    if isinstance(spec, LogarithmicPotential):
        # Sampled verification of the asymptotic failure, p slightly above 2.
        p = 2.5
        u = 1.0 - 10.0 ** (-np.arange(1, 13, dtype=float))
        ratio = spec.f(u) * (1.0 - u * u) ** (p - 1.0) / u
        if not (np.all(np.diff(ratio) < 0.0) and ratio[-1] < 1e-6):
            raise ChdbcError("sampled f(u)(1-u^2)^(p-1)/u does not decay to 0")
        return SeparationConditionReport(
            p=None, kappa1=None, kappa2=None, M=None, satisfied=False,
            note="f(u)/u grows only logarithmically near +-1",
        )
    return SeparationConditionReport(
        p=None, kappa1=None, kappa2=None, M=None, satisfied=False,
        note="not a singular potential",
    )


def potential_from_config(kind, *, kappa0=0.0, kappa1=1.0, kappa=1.0, p=3.0):
    """Map config keys potential.kind etc. onto a potential object."""
    kind = kind.lower()
    if kind == "logarithmic":
        return LogarithmicPotential(kappa0=kappa0, kappa1=kappa1)
    if kind in ("power", "power-singular", "powersingular"):
        return PowerSingularPotential(kappa=kappa, p=p)
    if kind in ("smooth", "smooth-double-well", "smoothdoublewell"):
        return SmoothDoubleWell()
    raise ValueError(f"unknown potential kind: {kind!r}")
