import csv
import json
import math
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq

from chdbc import experiments
from chdbc import stationary as st
from chdbc.discretization import write_rows
from chdbc.errors import StiffnessFailureError
from chdbc.potentials import (LogarithmicPotential, PowerSingularPotential,
                              SmoothDoubleWell)

LOG = LogarithmicPotential()


def golden():
    path = resources.files("chdbc").joinpath(
        "data/critical_flux_logarithmic.json")
    return json.loads(path.read_text())


class TestTimeOfFlight:
    def test_infinite_at_zero(self):
        assert st.time_of_flight(LOG, 0.0) == math.inf

    def test_monotone_decreasing(self):
        vals = [st.time_of_flight(LOG, s) for s in (0.3, 0.7, 1.5, 3.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            st.time_of_flight(LOG, -1.0)


class TestShoot:
    def test_zero_slope_trivial(self):
        res = st.shoot(LOG, 0.0)
        assert np.all(res.y == 0.0)
        assert res.x_hit is None

    def test_odd_profile(self):
        res = st.shoot(LOG, 0.4)
        assert np.allclose(res.y[::-1], -res.y, atol=1e-12)

    def test_interior_below_critical(self):
        res = st.shoot(LOG, 0.5)
        assert res.x_hit is None
        assert np.max(np.abs(res.y)) < 1.0

    def test_saturated_above_critical(self):
        res = st.shoot(LOG, 1.0)
        assert 0.0 < res.x_hit < 1.0
        assert res.y[-1] == 1.0

    def test_near_critical_interior_shot_ends_below_one(self):
        # the ODE hands over to the tail before x = 1, but y reaches 1 past it
        s = st.critical_flux(LOG).s_star * (1.0 - 1e-7)
        res = st.shoot(LOG, s)
        Y, slope = st._boundary_state(LOG, s)
        assert res.x_hit is None
        assert res.ode_x[-1] < 1.0
        assert res.y[-1] == pytest.approx(Y, abs=1e-12)
        assert res.yp[-1] == pytest.approx(slope, rel=1e-9)

    def test_event_location_matches_quadrature(self):
        for s in (1.0, 2.0):
            res = st.shoot(LOG, s)
            assert res.x_hit == pytest.approx(st.time_of_flight(LOG, s),
                                              abs=1e-9)


class TestFirstIntegral:
    @pytest.mark.parametrize("s", [0.3, 1.0, 2.0, 4.0])
    def test_drift_small(self, s):
        res = st.shoot(LOG, s)
        assert st.first_integral_drift(LOG, res) <= 1e-8 * (1.0 + s * s)

    def test_power_family(self):
        pot = PowerSingularPotential(p=3.0)
        res = st.shoot(pot, 0.8)
        assert st.first_integral_drift(pot, res) <= 1e-8 * (1.0 + 0.64)


class TestCriticalFlux:
    def test_matches_golden(self):
        g = golden()
        crit = st.critical_flux(LOG)
        assert crit.s_star == pytest.approx(g["s_star"], abs=1e-10)
        assert crit.K_plus == pytest.approx(g["K_plus"], abs=1e-10)

    def test_k_plus_formula(self):
        crit = st.critical_flux(LOG)
        assert crit.K_plus == pytest.approx(
            math.sqrt(crit.s_star ** 2 + 4.0 * math.log(2.0)), abs=1e-14)

    def test_time_of_flight_at_star(self):
        crit = st.critical_flux(LOG)
        assert st.time_of_flight(LOG, crit.s_star) == pytest.approx(1.0,
                                                                    abs=1e-10)

    def test_strong_singularity_has_none(self):
        assert st.critical_flux(PowerSingularPotential(p=3.0)) is None

    def test_smooth_has_one(self):
        crit = st.critical_flux(SmoothDoubleWell())
        assert crit is not None
        assert crit.K_plus > 0

    @pytest.mark.parametrize("kappa1", [100.0, 1000.0])
    def test_no_interior_bracket_is_typed(self, kappa1, monkeypatch):
        # the flight is shorter than 1 even at the bracket's floor; uncached,
        # since these potentials' s_star is found elsewhere
        monkeypatch.setattr(st, "time_of_flight", lambda pot, s: 0.5)
        with pytest.raises(StiffnessFailureError, match="no interior bracket"):
            st.critical_flux.__wrapped__(LogarithmicPotential(kappa1=kappa1))

    def test_no_saturation_bracket_is_typed(self, monkeypatch):
        # unreachable while F >= 0, since the flight then lasts at most 1/s
        monkeypatch.setattr(st, "time_of_flight", lambda pot, s: 2.0)
        with pytest.raises(StiffnessFailureError, match="no saturation bracket"):
            st.critical_flux(LogarithmicPotential(kappa1=1.5))


class TestSolveBVP:
    def test_zero_flux(self):
        sol = st.solve_bvp(st.StationaryProblem(LOG, 0.0))
        assert sol.defect == 0.0  # classical
        assert np.all(sol.profile.y == 0.0)

    def test_classical_matches_flux(self):
        crit = st.critical_flux(LOG)
        K = 0.5 * crit.K_plus
        sol = st.solve_bvp(st.StationaryProblem(LOG, K))
        assert sol.defect == 0.0
        assert sol.profile.yp[-1] == pytest.approx(K, abs=1e-6)

    def test_variational_above_critical(self):
        crit = st.critical_flux(LOG)
        sol = st.solve_bvp(st.StationaryProblem(LOG, 2.0 * crit.K_plus))
        assert st.classify(LOG, 2.0 * crit.K_plus) == "VariationalOnly"
        assert sol.profile.s == pytest.approx(crit.s_star, abs=1e-10)
        assert sol.defect == pytest.approx(crit.K_plus, abs=1e-9)
        assert sol.profile.x_hit is not None

    def test_strong_singularity_always_classical(self):
        pot = PowerSingularPotential(p=3.0)
        sol = st.solve_bvp(st.StationaryProblem(pot, 6.0))
        assert sol.defect == 0.0  # classical
        assert sol.profile.yp[-1] == pytest.approx(6.0, abs=1e-6)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            st.StationaryProblem(LOG, -1.0)


class TestClassify:
    def test_dichotomy(self):
        crit = st.critical_flux(LOG)
        assert st.classify(LOG, 0.5 * crit.K_plus) == "Classical"
        assert st.classify(LOG, 2.0 * crit.K_plus) == "VariationalOnly"

    def test_power_always_classical(self):
        assert st.classify(PowerSingularPotential(p=3.0), 100.0) == "Classical"


def _equilibrium_residual(potential, x, y):
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


class TestVariationalEquilibrium:
    def test_classical_profile_small_residual(self):
        crit = st.critical_flux(LOG)
        sol = st.solve_bvp(st.StationaryProblem(LOG, 0.5 * crit.K_plus))
        r = _equilibrium_residual(LOG, sol.profile.x, sol.profile.y)
        assert r < 1e-5

    def test_singular_profile_residual(self):
        crit = st.critical_flux(LOG)
        prof = st.shoot(LOG, crit.s_star)
        r = _equilibrium_residual(LOG, prof.x, prof.y)
        # finite differences degrade in the steep tail but the interior
        # identity still holds to truncation error
        assert r < 0.05


def _quad_oracle(pot, s, y_from, y_to):
    """The first integral by adaptive quad: in v below 0.999 and in w,
    v = 1 - w^2, above it."""
    def tight(fn, a, b):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            return quad(fn, a, b, epsabs=0.0, epsrel=1e-13, limit=500)[0]

    split = min(max(y_from, 0.999), y_to)
    val = 0.0
    if split > y_from:
        val += tight(lambda v: 1.0 / math.sqrt(s * s + 2.0 * float(pot.F(v))),
                     y_from, split)
    if y_to > split:
        val += tight(lambda w: 2.0 * w / math.sqrt(
            s * s + 2.0 * float(pot.F(1.0 - w * w))),
            math.sqrt(1.0 - y_to), math.sqrt(1.0 - split))
    return val


_potentials = hs.one_of(
    hs.builds(lambda k1, r: LogarithmicPotential(kappa0=r * k1, kappa1=k1),
              hs.floats(0.2, 5.0), hs.floats(0.0, 0.95)),
    hs.builds(lambda k, p: PowerSingularPotential(kappa=k, p=p),
              hs.floats(0.2, 5.0),
              hs.one_of(hs.floats(1.2, 1.9), hs.floats(2.0, 4.0))),
    hs.just(SmoothDoubleWell()))
# log-uniform on [0.05, 10], so that interior shots (s below ~1) are common
_slopes = hs.floats(0.0, 1.0).map(lambda u: 0.05 * 200.0 ** u)
# levels in [0, 1], many of them within 1e-3 of the endpoint
_levels = hs.one_of(hs.floats(0.0, 1.0),
                    hs.floats(0.0, 12.0).map(lambda k: 1.0 - 10.0 ** -k))


class TestGaussQuadratureAgainstQuad:
    @settings(max_examples=40, deadline=None)
    @given(_potentials, _slopes)
    def test_time_of_flight(self, pot, s):
        assert st.time_of_flight(pot, s) == pytest.approx(
            _quad_oracle(pot, s, 0.0, 1.0), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(_potentials, _slopes, _levels, _levels)
    def test_tail_quadrature(self, pot, s, a, b):
        assume(a != b)
        y_from, y_to = min(a, b), max(a, b)
        ref = _quad_oracle(pot, s, y_from, y_to)
        x = st._x_at(pot, s, st._flight(pot, s), np.array([y_from, y_to]))
        assert x[1] - x[0] == pytest.approx(
            ref, rel=0.0, abs=1e-12 + 1e-10 * abs(ref))

    @settings(max_examples=25, deadline=None)
    @given(_potentials, _slopes)
    def test_boundary_state(self, pot, s):
        assume(_quad_oracle(pot, s, 0.0, 1.0) > 1.0 + 1e-9)  # interior shot
        Y = brentq(lambda v: _quad_oracle(pot, s, 0.0, v) - 1.0,
                   1e-15, 1.0 - 1e-15, xtol=1e-15)
        slope = math.sqrt(s * s + 2.0 * float(pot.F(Y)))
        got_Y, got_slope = st._boundary_state(pot, s)
        assert got_Y == pytest.approx(Y, abs=1e-12)
        assert got_slope == pytest.approx(slope, abs=1e-12)


def _quad_flight(pot, s, y=1.0):
    """x(y) by adaptive quad, with break points spread over the peak of
    1 / sqrt(s^2 + 2 F(v)) at v = 0, of width s / sqrt(F''(0))."""
    width = s / math.sqrt(float(pot.df(0.0)))
    points = [width * 10.0 ** k for k in range(5) if width * 10.0 ** k < y]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return quad(lambda v: 1.0 / math.sqrt(s * s + 2.0 * float(pot.F(v))),
                    0.0, y, points=points or None, epsabs=0.0, epsrel=1e-13,
                    limit=1000)[0]


class TestStiffPotentials:
    """Large kappa1: the flight's peak at v = 0 is far narrower than a panel
    of an equal-panel rule, and s_star falls to 1e-5 (kappa1 = 100) and 1e-18
    (kappa1 = 1000)."""

    @pytest.mark.parametrize("s", [1e-1, 1e-3, 1e-5, 1e-7])
    @pytest.mark.parametrize("kappa1", [1.0, 50.0, 100.0, 1000.0])
    def test_time_of_flight_matches_quad(self, kappa1, s):
        pot = LogarithmicPotential(kappa1=kappa1)
        assert st.time_of_flight(pot, s) == pytest.approx(
            _quad_flight(pot, s), rel=1e-12)

    @pytest.mark.parametrize("kappa1", [100.0, 1000.0])
    def test_critical_flux(self, kappa1):
        pot = LogarithmicPotential(kappa1=kappa1)
        crit = st.critical_flux(pot)
        assert crit.K_plus ** 2 == pytest.approx(
            crit.s_star ** 2 + 2.0 * float(pot.F(1.0)), rel=1e-12)
        assert st.time_of_flight(pot, crit.s_star) == pytest.approx(
            1.0, abs=1e-12)

    def test_raw_samples_reach_the_wall_at_kappa1_1000(self):
        # from s_star = 3.2e-18 the raw ODE climbs to the wall only if f
        # keeps its digits near y = 0; else it stays at y = s x, and the
        # drift reads 1e-32 and checks nothing
        pot = LogarithmicPotential(kappa1=1000.0)
        K = 2.0 * st.critical_flux(pot).K_plus
        prof = st.solve_bvp(st.StationaryProblem(pot, K)).profile
        top = float(np.max(prof.ode_y))
        assert top > 0.999
        assert st.first_integral_drift(pot, prof) <= \
            1e-9 * (1.0 + float(pot.F(top)))

    def test_saturated_profile(self):
        pot = LogarithmicPotential(kappa1=100.0)
        crit = st.critical_flux(pot)
        K = 2.0 * crit.K_plus
        prof = st.solve_bvp(st.StationaryProblem(pot, K)).profile
        assert prof.x_hit is not None
        assert -prof.y[0] == prof.y[-1] == 1.0
        residual = 0.5 * prof.yp ** 2 - pot.F(prof.y) - 0.5 * prof.s ** 2
        assert np.max(np.abs(residual)) <= 1e-10
        assert st.first_integral_drift(pot, prof) <= 1e-8 * (1.0 + prof.s ** 2)
        # the profile inverts the flight: x = x(y) wherever y < 1
        for x, y in list(zip(prof.x, prof.y))[1000::50]:
            if y < 1.0:
                assert x == pytest.approx(_quad_flight(pot, prof.s, y),
                                          abs=1e-10)


_SWEEP_POTENTIALS = [LogarithmicPotential(), LogarithmicPotential(kappa0=0.3),
                     PowerSingularPotential(p=1.5), PowerSingularPotential(p=3.0),
                     SmoothDoubleWell()]
_SWEEP_IDS = ["logarithmic(kappa0=0,kappa1=1)", "logarithmic(kappa0=0.3,kappa1=1)",
              "power(kappa=1,p=1.5)", "power(kappa=1,p=3)", "smooth-double-well"]


def _sweep_exits(pot, sweep, outdir):
    """(s, exit) rows of the stationary driver's sweep table."""
    cfg = experiments.resolve_config({
        "experiment.kind": "stationary", "experiment.K": "0.5",
        "experiment.sweep": sweep, "potential.kind":
        "smooth" if isinstance(pot, SmoothDoubleWell) else
        "power" if isinstance(pot, PowerSingularPotential) else "logarithmic",
        "potential.p": repr(getattr(pot, "p", 3.0)),
        "potential.kappa0": repr(getattr(pot, "kappa0", 0.0))})
    experiments.run_stationary(cfg, outdir)
    with open(outdir / "stationary_sweep.csv", newline="") as fh:
        return [(float(row["s"]), row["exit"]) for row in csv.DictReader(fh)]


class TestSweepExit:
    @pytest.mark.parametrize("pot", _SWEEP_POTENTIALS, ids=_SWEEP_IDS)
    def test_exit_from_x1_matches_shot(self, pot, tmp_path):
        # the sweep's exit column comes from x1 alone; a shot must agree,
        # also within 1e-8 of the critical slope
        rows = _sweep_exits(pot, "0.2:4.0:8", tmp_path)
        assert len(rows) == 8
        crit = st.critical_flux(pot)
        if crit is not None:
            for s in (crit.s_star * (1.0 - 1e-8), crit.s_star,
                      crit.s_star * (1.0 + 1e-8)):
                rows += _sweep_exits(pot, f"{s!r}:{s!r}:1", tmp_path)
        for s, kind in rows:
            assert (kind == "saturated") == (st.shoot(pot, s).x_hit is not None)


def _nested_slope(pot, K):
    """Reference classical slope by nested root finds: brentq in s on the
    boundary slope, each value from brentq in Y = y(1)."""
    crit = st.critical_flux(pot)
    if crit is None:
        g = lambda s: st.time_of_flight(pot, s) - 1.0
        hi = 1.0
        while g(hi) > 0.0:
            hi *= 2.0
        s_max = brentq(g, 1e-9, hi, xtol=1e-13)
    else:
        s_max = crit.s_star
    return brentq(lambda s: st._boundary_state(pot, s)[1] - K,
                  1e-12, s_max * (1.0 - 1e-10), xtol=1e-15)


class TestClassicalSlope:
    # r stops at 0.9: the reference's s bracket ends 1e-10 below s_star,
    # which for p near 2 cuts off the roots of K above about 0.92 K_plus
    @settings(max_examples=30, deadline=None)
    @given(_potentials, hs.floats(0.05, 0.9))
    def test_one_root_find_matches_nested(self, pot, r):
        # K below K_plus; with F(1) = inf, below the K that puts y(1) at 0.999
        crit = st.critical_flux(pot)
        K = r * (crit.K_plus if crit is not None
                 else math.sqrt(2.0 * float(pot.F(0.999))))
        sol = st.solve_bvp(st.StationaryProblem(pot, K))
        assert sol.defect == 0.0  # classical
        assert sol.profile.s == pytest.approx(_nested_slope(pot, K), rel=1e-12)
        # y'(1) = K at s to 1e-10 K or, where y'(1) is too steep in s for
        # that (y(1) near 1), by a change of sign across s (1 -+ 1e-12)
        miss = [st._boundary_state(pot, sol.profile.s * (1.0 + d))[1] - K
                for d in (-1e-12, 0.0, 1e-12)]
        assert abs(miss[1]) <= 1e-10 * K or miss[0] <= 0.0 <= miss[2]

    @pytest.mark.parametrize("K", [1e-8, 1e-30, 1e-100, 1e-150])
    def test_small_flux_is_linear(self, K):
        # y'' = f'(0) y to first order: s = K / cosh(sqrt(kappa)) for the
        # power family and s = K for the cubic, whose f'(0) is 0
        sol = st._classical_slope(PowerSingularPotential(kappa=1.0, p=3.0), K)
        assert sol == pytest.approx(K / math.cosh(1.0), rel=1e-12)
        assert st._classical_slope(SmoothDoubleWell(), K) == \
            pytest.approx(K, rel=1e-12)

    @pytest.mark.parametrize("K", [1e-200, 1e-155, 5e-324])
    def test_underflowing_flux_is_typed(self, K):
        with pytest.raises(StiffnessFailureError):
            st.solve_bvp(st.StationaryProblem(LOG, K))

    def test_at_critical_flux(self):
        # K = K_plus to rounding: the root sits at Y = 1, s at s_star
        crit = st.critical_flux(LOG)
        for K in (crit.K_plus, crit.K_plus * (1.0 - 1e-14)):
            sol = st.solve_bvp(st.StationaryProblem(LOG, K))
            assert sol.defect == 0.0  # classical
            assert sol.profile.s == pytest.approx(crit.s_star, rel=1e-12)


class TestProcessCaches:
    def test_flight_constants_are_per_potential(self):
        # each value bitwise as computed first in a cleared process, so no
        # potential's flight grades its panels by another's F(0.5)
        pots = [LogarithmicPotential(kappa1=1.0),
                LogarithmicPotential(kappa1=100.0), PowerSingularPotential(),
                LogarithmicPotential(kappa1=1.0)]
        values = lambda pot: (st.time_of_flight(pot, 0.5).hex(),
                              st._classical_slope(pot, 1.0).hex())
        first = {}
        for pot in pots:
            st._peak_scale.cache_clear()
            first[pot] = values(pot)
        st._peak_scale.cache_clear()
        assert [values(pot) for pot in pots] == [first[pot] for pot in pots]

    @pytest.mark.parametrize("kind, pot, K", [
        ("logarithmic", LOG, 1.0), ("logarithmic", LOG, 3.0),
        ("power", PowerSingularPotential(), 2.5), ("logarithmic", LOG, 0.0)])
    def test_profile_is_written_with_write_rows_bytes(self, tmp_path, kind,
                                                      pot, K):
        # classical, saturated, F(1) = inf and the s = 0 branch of shoot
        cfg = experiments.resolve_config({"experiment.kind": "stationary",
                                          "potential.kind": kind,
                                          "experiment.K": str(K)})
        experiments.run_stationary(cfg, tmp_path)
        prof = st.solve_bvp(st.StationaryProblem(pot, K)).profile
        write_rows(tmp_path / "rows.csv", ["x", "y", "yp"],
                   zip(prof.x.tolist(), prof.y.tolist(), prof.yp.tolist()))
        assert (tmp_path / "stationary_profile.csv").read_bytes() == \
            (tmp_path / "rows.csv").read_bytes()


class TestScipyPatchPoints:
    """The scipy calls go through module attributes, so that a profiler can
    wrap them by name (perfbench counts ODE steps and brentq calls)."""

    def test_names_are_module_callables(self):
        for name in ("quad", "solve_ivp", "brentq"):
            assert callable(st.__dict__[name])

    def test_patched_names_are_called(self, monkeypatch):
        calls = {"solve_ivp": 0, "brentq": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(st, name, counting(name, st.__dict__[name]))
        st.shoot(LOG, 1.0)
        st.critical_flux.cache_clear()
        try:
            st.critical_flux(LOG)
        finally:
            st.critical_flux.cache_clear()
        assert calls["solve_ivp"] > 0
        assert calls["brentq"] > 0
