"""Unit tests for the nonlinear cumulant route."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from cvbattery import cumulant
from cvbattery.cumulant import (
    NonlinearParams,
    cumulant_rhs,
    integrate_cumulant,
    steady_energy_nonlinear,
    steady_state_nonlinear,
    steady_variances,
)
from cvbattery.errors import ConvergenceError, InvalidInputError
from cvbattery.gaussian import MomentState, covariance_determinant


def _rates(p, m=MomentState()):
    """cumulant_rhs at the moments m, as a MomentState of derivatives."""
    a, aa, bb = complex(m.a_mean), complex(m.a_sq), complex(m.b_sq)
    y = np.array([a.real, a.imag, m.a_num, m.b_num, aa.real, aa.imag, bb.real, bb.imag])
    d = cumulant_rhs(0.0, y, p)
    return MomentState(a_mean=complex(d[0], d[1]), a_num=d[2], b_num=d[3],
                       a_sq=complex(d[4], d[5]), b_sq=complex(d[6], d[7]))


def _complex_rhs(t, y, p):
    """The cumulant equations in Python's complex arithmetic: the oracle of
    ``cumulant_rhs``, which writes out the same sums and products in real
    arithmetic."""
    gamma, J, Omega = p.gamma, p.J, p.Omega
    y0, y1, y2, y3, y4, y5, y6, y7 = y.tolist()
    a, aa, bb = complex(y0, y1), complex(y4, y5), complex(y6, y7)
    flow = J * (a.conjugate() * bb).imag
    da = -(gamma / 2.0) * a - 1j * J * bb - 1j * Omega
    daa = -gamma * aa - 2j * Omega * a - 2j * J * a * bb
    dbb = -2j * J * a - 4j * J * a * y3
    return (da.real, da.imag, -gamma * y2 + 2.0 * flow - 2.0 * Omega * a.imag, -4.0 * flow,
            daa.real, daa.imag, dbb.real, dbb.imag)


class TestRhs:
    def test_vacuum_initial_slope(self):
        p = NonlinearParams(Omega=0.25, J=1.0, gamma=0.5)
        d = _rates(p)
        # only the drive acts on the vacuum at t = 0
        assert d.a_mean == pytest.approx(-1j * p.Omega)
        assert d.a_num == 0.0
        assert d.b_num == 0.0
        assert d.a_sq == 0.0
        assert d.b_sq == 0.0

    def test_hand_computed_point(self):
        p = NonlinearParams(Omega=0.1, J=2.0, gamma=0.6)
        s = MomentState(
            a_mean=0.3 - 0.2j, a_num=0.05, b_num=0.4,
            a_sq=0.01 + 0.02j, b_sq=-0.15 + 0.1j,
        )
        d = _rates(p, s)
        a, bb = s.a_mean, s.b_sq
        flow = p.J * (np.conj(a) * bb).imag
        assert d.a_mean == pytest.approx(-(0.3) * a - 2j * bb - 0.1j)
        assert d.a_num == pytest.approx(-0.6 * 0.05 + 2 * flow - 0.2 * a.imag)
        assert d.b_num == pytest.approx(-4.0 * flow)
        assert d.a_sq == pytest.approx(-0.6 * s.a_sq - 0.2j * a - 4j * a * bb)
        assert d.b_sq == pytest.approx(-4j * a - 8j * a * 0.4)

    def test_real_form_equals_the_complex_form(self):
        rng = np.random.default_rng(0)
        for i in range(10_000):
            p = NonlinearParams(Omega=0.0 if i % 5 == 0 else rng.uniform(0.0, 2.0),
                                J=rng.uniform(0.1, 3.0),
                                gamma=0.0 if i % 3 == 0 else rng.uniform(0.0, 3.0))
            y = rng.normal(size=8) * 10.0 ** rng.integers(-6, 3)
            if i % 7 == 0:
                y[rng.random(8) < 0.5] = 0.0  # exact zeros, as in the vacuum start
            fast, ref = cumulant_rhs(0.0, y, p), _complex_rhs(0.0, y, p)
            assert fast == ref, (p, y)
            if i % 7:  # a zero derivative may differ in sign, no other value
                assert np.array(fast).tobytes() == np.array(ref).tobytes(), (p, y)

    @pytest.mark.parametrize("Omega,gamma,t_end", [(0.25, 0.0, 10.0), (0.25, 0.5, 40.0),
                                                   (0.05, 0.5, 40.0), (1.0, 0.5, 40.0)])
    def test_fig3_integrations_equal_the_complex_form(self, monkeypatch, Omega, gamma, t_end):
        p = NonlinearParams(Omega=Omega, J=1.0, gamma=gamma)
        fast = integrate_cumulant(p, t_end, 2001).states
        monkeypatch.setattr(cumulant, "cumulant_rhs", _complex_rhs)
        assert np.array_equal(fast, integrate_cumulant(p, t_end, 2001).states)

    def test_steady_state_is_fixed_point(self):
        for Omega, gamma in [(0.05, 0.5), (0.25, 0.5), (1.0, 2.0)]:
            p = NonlinearParams(Omega=Omega, J=1.0, gamma=gamma)
            d = _rates(p, steady_state_nonlinear(p))
            for v in (d.a_mean, d.a_num, d.b_num, d.a_sq, d.b_sq):
                assert abs(complex(v)) < 1e-12


class TestIntegration:
    def test_determinant_conserved(self):
        p = NonlinearParams(Omega=0.25, J=1.0, gamma=0.5)
        traj = integrate_cumulant(p, 40.0, 401)
        assert np.max(np.abs(traj.determinants() - 1.0)) < 1e-8

    def test_relaxation_to_steady_state(self):
        p = NonlinearParams(Omega=0.25, J=1.0, gamma=0.5)
        traj = integrate_cumulant(p, 400.0, 401)
        final = MomentState.from_array(traj.moments()[-1])
        ss = steady_state_nonlinear(p)
        assert final.b_sq == pytest.approx(ss.b_sq, abs=1e-8)
        assert final.b_num == pytest.approx(ss.b_num, abs=1e-8)
        assert abs(final.a_mean) < 1e-8
        assert final.a_num < 1e-8
        energy = traj.omega_b * traj.battery_population()[-1]
        assert energy == pytest.approx(steady_energy_nonlinear(p), abs=1e-8)

    def test_short_time_quartic_growth(self):
        # leading order: <b'b> = 4 (Omega J)^2 t^4 / 4! * ... reduces to
        # E ~ omega_b (Omega J)^2 t^4 for J t << 1
        p = NonlinearParams(Omega=0.25, J=1.0, gamma=0.0)
        traj = integrate_cumulant(p, 0.02, 11)
        e = traj.battery_population()
        t = traj.times
        ratio = e[-1] / e[5]
        assert ratio == pytest.approx((t[-1] / t[5]) ** 4, rel=1e-2)

    def test_dissipationless_oscillation_bounded(self):
        p = NonlinearParams(Omega=0.25, J=1.0, gamma=0.0)
        traj = integrate_cumulant(p, 50.0, 1001)
        e = traj.battery_population()
        assert e.min() >= -1e-12
        assert e.max() < 1.0  # weak driving keeps the battery below one quantum

    def test_validation(self):
        p = NonlinearParams()
        for t_end in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(InvalidInputError, match="t_end must be finite and positive"):
                integrate_cumulant(p, t_end)
        with pytest.raises(InvalidInputError):
            integrate_cumulant(p, 1.0, n_samples=1)

    def test_moment_states_have_zero_battery_mean(self):
        p = NonlinearParams(Omega=0.25, J=1.0, gamma=0.5)
        traj = integrate_cumulant(p, 5.0, 21)
        for b_mean in traj.moments()[:, 3]:
            assert b_mean == 0.0

    # (Omega, gamma, t_end, n_samples), J = 1: the benchmark trajectory, the
    # fig3 panels, weak drives over long horizons, strong damping, strong drive
    @pytest.mark.parametrize("Omega, gamma, t_end, n", [
        (0.25, 0.5, 40.0, 257), (0.25, 0.0, 10.0, 2001), (1.0, 0.5, 40.0, 2001),
        (0.01, 0.5, 240.0, 257), (0.002, 0.5, 400.0, 401), (0.25, 20.0, 40.0, 257),
        (5.0, 0.5, 40.0, 401),
    ])
    def test_matches_tight_reference(self, Omega, gamma, t_end, n):
        p = NonlinearParams(Omega=Omega, J=1.0, gamma=gamma)
        traj = integrate_cumulant(p, t_end, n)
        ref = solve_ivp(cumulant_rhs, (0.0, t_end), np.zeros(8), method="DOP853",
                        t_eval=traj.times, args=(p,), rtol=1e-13, atol=1e-15).y.T
        assert np.max(np.abs(traj.states - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_sparse_grid(self):
        # two samples: one output interval of many steps, no step cap applies
        p = NonlinearParams(Omega=1.0, J=1.0, gamma=0.5)
        traj = integrate_cumulant(p, 400.0, 2)
        assert traj.states.shape == (2, 8)
        assert traj.battery_population()[-1] == pytest.approx(
            (math.sqrt(5.0) - 1.0) / 2.0, abs=1e-8)

    # the strong drive checks that LSODA accepts the retry's tolerances there
    @pytest.mark.parametrize("Omega, gamma, t_end, n", [
        (0.25, 0.5, 5.0, 21), (100.0, 1.0, 10.0, 257)])
    def test_retry_then_error_on_persistent_drift(self, monkeypatch, Omega, gamma, t_end, n):
        monkeypatch.setattr(cumulant, "DET_DRIFT_TOL", 0.0)
        p = NonlinearParams(Omega=Omega, J=1.0, gamma=gamma)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ConvergenceError, match="persists after retry"):
                integrate_cumulant(p, t_end, n)
        assert len(caught) == 1
        assert caught[0].category is RuntimeWarning
        assert "determinant drift" in str(caught[0].message)
        assert "re-integrating" in str(caught[0].message)

    def test_non_finite_rhs_is_an_error(self, monkeypatch):
        monkeypatch.setattr(cumulant, "cumulant_rhs", lambda t, y, p: np.full(8, np.nan))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ConvergenceError, match="non-finite"):
                integrate_cumulant(NonlinearParams(), 1.0, 11)
        assert not caught

    def test_failed_integration_is_an_error(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ConvergenceError, match="cumulant integration failed"):
                integrate_cumulant(NonlinearParams(Omega=1e200, J=1.0, gamma=0.5), 40.0)
        assert not caught


class TestSteadyState:
    @pytest.mark.parametrize("Omega", [0.01, 0.25, 1.0, 100.0])
    def test_variance_product_exact(self, Omega):
        qs = steady_variances(NonlinearParams(Omega=Omega, J=1.0))
        assert qs.var_x * qs.var_p == 0.25
        assert qs.det == 1.0
        assert qs.coherence == 0.0

    def test_weak_drive_limits(self):
        qs = steady_variances(NonlinearParams(Omega=0.01, J=1.0))
        assert qs.var_x == pytest.approx(0.5 - 0.01, rel=1e-2)
        assert qs.var_p == pytest.approx(0.5 + 0.01, rel=1e-2)

    def test_strong_drive_limits(self):
        qs = steady_variances(NonlinearParams(Omega=100.0, J=1.0))
        assert qs.var_x == pytest.approx(1.0 / 800.0, rel=1e-2)
        assert qs.var_p == pytest.approx(200.0, rel=1e-2)

    def test_squeezing_for_any_drive(self):
        for Omega in (1e-3, 0.1, 10.0):
            qs = steady_variances(NonlinearParams(Omega=Omega, J=1.0))
            assert qs.var_x < 0.5 < qs.var_p

    def test_steady_energy_consistency(self):
        p = NonlinearParams(omega_b=1.7, Omega=0.4, J=1.3)
        ss = steady_state_nonlinear(p)
        assert steady_energy_nonlinear(p) == pytest.approx(
            p.omega_b * ss.b_num, rel=1e-14
        )
        assert ss.b_sq == pytest.approx(-p.Omega / p.J, rel=1e-14)
        # the steady state saturates the determinant invariant
        assert covariance_determinant(ss) == pytest.approx(1.0, rel=1e-12)


def test_invalid_params_rejected():
    with pytest.raises(InvalidInputError):
        NonlinearParams(J=0.0)
    with pytest.raises(InvalidInputError):
        NonlinearParams(J=1.0, gamma=-1.0)
    with pytest.raises(InvalidInputError):
        NonlinearParams(J=1.0, Omega=float("inf"))
