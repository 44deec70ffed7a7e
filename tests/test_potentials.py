import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chdbc.errors import ChdbcError, DomainError
from chdbc.potentials import (POTENTIAL_KINDS, BoundaryNonlinearity,
                              LogarithmicPotential, PowerSingularPotential,
                              RegularizedPotential, SmoothDoubleWell,
                              check_separation_condition, check_sign_condition,
                              potential_from_config)


class TestLogarithmic:
    def test_odd_and_monotone(self):
        pot = LogarithmicPotential()
        u = np.linspace(-0.95, 0.95, 41)
        assert np.allclose(pot.f(-u), -pot.f(u))
        assert np.all(np.diff(pot.f(u)) > 0)

    def test_values(self):
        pot = LogarithmicPotential()
        assert pot.f(0.0) == 0.0
        assert pot.f(0.5) == pytest.approx(math.log(3.0))
        assert pot.df(0.0) == pytest.approx(2.0)
        # F(1) = 2 ln 2 for kappa0 = 0, kappa1 = 1
        assert pot.F(1.0) == pytest.approx(2.0 * math.log(2.0))
        assert pot.F(0.0) == 0.0

    def test_tilted(self):
        pot = LogarithmicPotential(kappa0=0.25, kappa1=1.0)
        assert pot.f(0.5) == pytest.approx(math.log(3.0) - 0.25)
        assert pot.F(1.0) == pytest.approx(-0.25 + 2.0 * math.log(2.0))

    def test_antiderivative_matches_quadrature(self):
        from scipy.integrate import quad
        pot = LogarithmicPotential()
        for u in (0.3, 0.7, -0.5):
            val, _ = quad(lambda v: float(pot.f(v)), 0.0, u)
            assert pot.F(u) == pytest.approx(val, abs=1e-10)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_antiderivative_keeps_its_digits_near_zero(self, sign):
        # the series u^2 + u^4/6 + u^6/15 is exact to u^8/28 relative u^6/28
        u = sign * np.logspace(-150, -3, 60)
        series = u * u + u ** 4 / 6.0 + u ** 6 / 15.0
        assert np.allclose(LogarithmicPotential().F(u), series, rtol=4e-16,
                           atol=0.0)

    def test_antiderivative_unchanged_from_one_half(self):
        u = np.concatenate([np.linspace(0.5, 1.0, 1001)[:-1],
                            [np.nextafter(1.0, 0.0)]])
        u = np.concatenate([u, -u])
        old_form = (1.0 + u) * np.log1p(u) + (1.0 - u) * np.log1p(-u)
        assert np.array_equal(LogarithmicPotential().F(u), old_form)
        # the two forms meet at |u| = 1/2
        below = np.nextafter(0.5, 0.0)
        assert LogarithmicPotential().F(below) == pytest.approx(
            (1.0 + below) * math.log1p(below) + (1.0 - below)
            * math.log1p(-below), rel=4e-16, abs=0.0)

    def test_blows_up(self):
        pot = LogarithmicPotential()
        with pytest.raises(DomainError):
            pot.f(1.0)
        with pytest.raises(DomainError):
            pot.F(1.0001)

    def test_parameter_validation(self):
        for kappa0, kappa1 in [(1.0, 0.5), (0.0, np.inf), (np.nan, 1.0)]:
            with pytest.raises(ValueError):
                LogarithmicPotential(kappa0=kappa0, kappa1=kappa1)


class TestPowerSingular:
    def test_values(self):
        pot = PowerSingularPotential(kappa=1.0, p=3.0)
        assert pot.f(0.5) == pytest.approx(0.5 / 0.75 ** 2)
        assert pot.F(1.0) == math.inf
        # F = (1/2)[(1-u^2)^{-1} - 1] for p=3
        assert pot.F(0.5) == pytest.approx(0.5 * (1.0 / 0.75 - 1.0))

    def test_derivative_consistency(self):
        pot = PowerSingularPotential(kappa=2.0, p=2.5)
        u = 0.4
        h = 1e-6
        fd = (pot.f(u + h) - pot.f(u - h)) / (2.0 * h)
        assert pot.df(u) == pytest.approx(float(fd), rel=1e-7)

    @pytest.mark.parametrize("p", [2.0 - 1e-12, 2.0 + 1e-12])
    def test_antiderivative_continuous_in_p_at_2(self, p):
        # (s^(2-p) - 1) / (p - 2) -> -log s as p -> 2, s = 1 - u^2
        u = np.array([1e-6, 0.1, 0.5, 0.9, 0.999])
        near = PowerSingularPotential(kappa=1.0, p=p).F(u)
        assert near == pytest.approx(-0.5 * np.log1p(-u * u), rel=1e-9)

    @pytest.mark.parametrize("kappa, p", [(np.inf, 3.0), (1.0, np.inf),
                                          (0.0, 3.0), (1.0, np.nan)])
    def test_parameter_validation(self, kappa, p):
        with pytest.raises(ValueError):
            PowerSingularPotential(kappa=kappa, p=p)

    def test_weak_singularity_finite_endpoint(self):
        pot = PowerSingularPotential(kappa=1.0, p=1.5)
        assert math.isfinite(pot.F(1.0))
        assert pot.F(1.0) == pytest.approx(1.0)


class TestRegularized:
    def test_agrees_on_core(self):
        base = LogarithmicPotential()
        reg = RegularizedPotential(base, 8)
        u = np.linspace(-0.875, 0.875, 31)
        assert np.allclose(reg.f(u), base.f(u))
        assert np.allclose(reg.F(u), base.F(u))

    def test_c1_at_cutoff(self):
        base = LogarithmicPotential()
        reg = RegularizedPotential(base, 16)
        uc = reg.cutoff
        eps = 1e-9
        assert reg.f(uc + eps) == pytest.approx(reg.f(uc - eps), abs=1e-7)
        assert reg.df(uc + eps) == pytest.approx(reg.df(uc - eps), abs=1e-4)

    def test_linear_tail(self):
        base = LogarithmicPotential()
        reg = RegularizedPotential(base, 8)
        uc = reg.cutoff
        # outside the core the slope is frozen at df(cutoff)
        assert reg.f(2.0) == pytest.approx(
            float(base.f(uc)) + float(base.df(uc)) * (2.0 - uc))
        assert reg.df(5.0) == pytest.approx(float(base.df(uc)))

    def test_quadratic_tail_antiderivative(self):
        from scipy.integrate import quad
        reg = RegularizedPotential(LogarithmicPotential(), 4)
        val, _ = quad(lambda v: float(reg.f(v)), 0.0, 1.5)
        assert reg.F(1.5) == pytest.approx(val, abs=1e-10)

    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone(self, a, b):
        reg = RegularizedPotential(LogarithmicPotential(), 8)
        lo, hi = min(a, b), max(a, b)
        assert reg.f(hi) >= reg.f(lo) - 1e-12

    def test_n_validation(self):
        with pytest.raises(ValueError):
            RegularizedPotential(LogarithmicPotential(), 1)


class TestBoundary:
    def test_linear_default(self):
        g = BoundaryNonlinearity.linear()
        assert g.g(0.7) == pytest.approx(0.7)
        assert g.G(2.0) == pytest.approx(2.0)

    def test_tanh_tilt(self):
        g = BoundaryNonlinearity.tanh_tilt(0.5)
        assert float(g.g(1.0)) == pytest.approx(1.0 + 0.5 * math.tanh(1.0))
        h = 1e-6
        fd = (g.G(1.0 + h) - g.G(1.0 - h)) / (2.0 * h)
        assert float(g.g(1.0)) == pytest.approx(float(fd), rel=1e-8)
        for a in (np.nan, np.inf):
            with pytest.raises(ValueError):
                BoundaryNonlinearity.tanh_tilt(a)

    def test_linear_evaluates_no_tanh(self, monkeypatch):
        # a = 0: exact zeros, so linear runs do not depend on tanh or cosh
        monkeypatch.setattr(np, "tanh", None)
        monkeypatch.setattr(np, "cosh", None)
        z = np.array([-3.0, -0.0, 0.25, 40.0])
        g = BoundaryNonlinearity.linear()
        assert g == BoundaryNonlinearity(0.0)
        assert np.array_equal(g.g0(z), np.zeros(4))
        assert np.array_equal(g.g(z), z + 0.0)
        assert np.array_equal(g.G(z), 0.5 * z * z)

    def test_sign_condition(self):
        g = BoundaryNonlinearity.linear()
        assert check_sign_condition(g, 0.0, 0.05)
        assert check_sign_condition(g, np.array([0.5, -0.5]), 0.05)
        assert not check_sign_condition(g, 3.0, 0.05)
        assert not check_sign_condition(g, 0.99, 0.05)
        with pytest.raises(ValueError):
            check_sign_condition(g, 0.0, -1.0)


class TestSeparationCondition:
    def test_power_p3(self):
        rep = check_separation_condition(PowerSingularPotential(kappa=1.0, p=3.0))
        assert rep.satisfied

    def test_power_p2_fails(self):
        rep = check_separation_condition(PowerSingularPotential(kappa=1.0, p=2.0))
        assert not rep.satisfied

    def test_logarithmic_fails(self):
        rep = check_separation_condition(LogarithmicPotential())
        assert not rep.satisfied
        assert "logarithmically" in rep.note

    def test_smooth(self):
        rep = check_separation_condition(SmoothDoubleWell())
        assert not rep.satisfied

    def test_logarithmic_sample_check_raises(self):
        # an explicit check, kept under python -O, unlike an assert
        class Steep(LogarithmicPotential):
            def f(self, u):
                return 1.0 / (1.0 - u * u) ** 2

        with pytest.raises(ChdbcError):
            check_separation_condition(Steep())


def test_potential_from_config():
    assert isinstance(potential_from_config("logarithmic"), LogarithmicPotential)
    pot = potential_from_config("power", kappa=2.0, p=4.0)
    assert pot.p == 4.0
    assert isinstance(potential_from_config("smooth"), SmoothDoubleWell)
    assert [type(potential_from_config(kind)) for kind in POTENTIAL_KINDS] \
        == [LogarithmicPotential, PowerSingularPotential, SmoothDoubleWell]
    # the kinds are exactly the documented config values
    for kind in ("quartic", "Logarithmic", "power-singular", "smooth-double-well"):
        with pytest.raises(ValueError):
            potential_from_config(kind)


_base_potentials = st.one_of(
    st.builds(lambda k1, r: LogarithmicPotential(kappa0=r * k1, kappa1=k1),
              st.floats(0.2, 5.0), st.floats(0.0, 0.95)),
    st.builds(lambda k, p: PowerSingularPotential(kappa=k, p=p),
              st.floats(0.2, 5.0),
              st.one_of(st.floats(1.2, 1.9), st.floats(2.0, 4.0))),
    st.just(SmoothDoubleWell()))
_open_interval = st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)


class TestUncheckedCore:
    @settings(max_examples=60, deadline=None)
    @given(_base_potentials, _open_interval, st.lists(_open_interval,
                                                      min_size=1, max_size=8))
    def test_core_is_f_bitwise(self, pot, u, us):
        # one formula: f and df are the range check plus _f and _df of the
        # same array
        for arg in (u, us):
            assert np.array_equal(pot._f(np.asarray(arg)), pot.f(arg))
            assert np.array_equal(pot._df(np.asarray(arg)), pot.df(arg))
            assert np.array_equal(pot._F(np.asarray(arg)), pot.F(arg))

    @pytest.mark.parametrize("pot", [LogarithmicPotential(),
                                     PowerSingularPotential(p=1.5),
                                     PowerSingularPotential(p=3.0)])
    @pytest.mark.parametrize("u", [1.0, -1.0, 1.5, [0.0, 1.0]])
    def test_f_still_checks_range(self, pot, u):
        with pytest.raises(DomainError):
            pot.f(u)
        with pytest.raises(DomainError):
            pot.df(u)

    @pytest.mark.parametrize("pot", [LogarithmicPotential(),
                                     PowerSingularPotential(p=1.5),
                                     PowerSingularPotential(p=3.0)])
    @pytest.mark.parametrize("u", [1.0000001, -1.5, [0.0, 1.0, 1.5]])
    def test_F_still_checks_range(self, pot, u):
        with pytest.raises(DomainError):
            pot.F(u)

    def test_logarithmic_F_core_matches_one_pass_formula(self):
        # the same values as evaluating the log1p form on every node and
        # overwriting |u| < 1/2 with the atanh form
        pot = LogarithmicPotential(0.3, 1.2)
        u = np.random.default_rng(7).uniform(-1.0, 1.0, 4000)
        u = np.concatenate([u, [0.0, 0.5, -0.5, np.nextafter(0.5, 0.0),
                                1.0, -1.0, 1e-300]])
        with np.errstate(divide="ignore", invalid="ignore"):
            term = np.where(np.abs(u) < 1.0,
                            (1.0 + u) * np.log1p(u) + (1.0 - u) * np.log1p(-u),
                            2.0 * math.log(2.0))
        small = np.abs(u) < 0.5
        v = u[small]
        term[small] = 2.0 * v * np.arctanh(v) + np.log1p(-v * v)
        assert np.array_equal(pot._F(u), -0.3 * u * u + 1.2 * term)


def _checked_regularization(reg, u):
    """f_N, f_N' and F_N through the base potentials' range-checked f, df
    and F: the clip-and-Taylor formula of RegularizedPotential."""
    u = np.asarray(u, dtype=float)
    core = np.clip(u, -reg.cutoff, reg.cutoff)
    d = u - core
    b = reg.base
    vals = (b.f(core) + b.df(core) * d, b.df(core),
            b.F(core) + b.f(core) * d + 0.5 * b.df(core) * d * d)
    return [v if v.ndim else float(v) for v in vals]


class TestRegularizedUncheckedCore:
    @pytest.mark.parametrize("base", [
        LogarithmicPotential(0.3, 1.2), PowerSingularPotential(1.5, 3.0),
        PowerSingularPotential(0.7, 1.5), SmoothDoubleWell()])
    @pytest.mark.parametrize("N", [2, 3, 16, 1000])
    def test_matches_checked_path_bitwise(self, base, N):
        reg = RegularizedPotential(base, N)
        c = reg.cutoff
        u = np.concatenate([np.linspace(-1.5, 1.5, 61),
                            [0.0, c, -c, 1.0, -1.0, 1e6, -1e6,
                             np.inf, -np.inf, np.nan]])
        rng = np.random.default_rng(N)  # both tails and the core, 2D too
        wide = np.concatenate([rng.uniform(-1.0, 1.0, 2000),
                               rng.uniform(-4.0, 4.0, 2000)])
        args = [u, u[:70].reshape(7, 10), wide, wide.reshape(40, 100),
                np.asarray(c), np.asarray(np.nan)]
        args += [float(v) for v in u]  # both tails, +-inf and NaN as scalars
        for arg in args:
            ref = _checked_regularization(reg, arg)
            for got, want in zip((reg.f(arg), reg.df(arg), reg.F(arg)), ref):
                assert type(got) is type(want)
                assert np.array_equal(got, want, equal_nan=True)
