"""Unit tests for the weak-driving approximations."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from cvbattery.cumulant import NonlinearParams, integrate_cumulant, steady_energy_nonlinear
from cvbattery.errors import InvalidInputError, UnsupportedRegimeError
from cvbattery.linear import (
    LinearParams,
    energy_linear,
    linear_constants,
    optimal_energy,
    optimal_time_energy,
)
from cvbattery.perturbation import (
    approx_optima_nonlinear,
    perturbation_constants,
    perturbative_energy,
    shifted_time,
    weak_driving_energy,
)


class TestConstants:
    def test_values(self):
        pc = perturbation_constants()
        assert pc.alpha == pytest.approx(1.3932490753255886, abs=1e-14)
        assert pc.beta == pytest.approx(1.905419489872292, abs=1e-14)

    def test_alpha_root_oracle(self):
        ref = brentq(lambda x: math.tan(x) - 4.0 * x, 1.2, 1.5, xtol=1e-15)
        assert perturbation_constants().alpha == pytest.approx(ref, abs=1e-13)

    def test_alpha_is_half_b(self):
        # tan(B/2) = 2B with alpha = B/2 is the same root as tan(a) = 4a
        assert abs(linear_constants().B - 2.0 * perturbation_constants().alpha) < 1e-12

    def test_beta_definition(self):
        pc = perturbation_constants()
        assert pc.beta == pytest.approx(
            2.0 * math.sqrt(2.0) * math.sin(pc.alpha) ** 4 / pc.alpha, abs=1e-14
        )


class TestSeries:
    def setup_method(self):
        self.p = NonlinearParams(omega_b=1.0, Omega=0.25, J=1.0, gamma=0.0)

    def test_order0_peak(self):
        # sin^4 envelope peaks at J t = pi/sqrt(2) with value omega (2 Omega/J)^2
        t_e = math.pi / math.sqrt(2.0)
        assert perturbative_energy(t_e, self.p, 0) == pytest.approx(0.25, rel=1e-12)
        t = np.linspace(0.0, 2.0 * t_e, 4001)
        e0 = perturbative_energy(t, self.p, 0)
        assert t[np.argmax(e0)] == pytest.approx(t_e, rel=1e-3)

    def test_shifted_time_factor(self):
        eps = 0.125  # Omega/(2J) at Omega = J/4
        factor = 1.0 + 5.0 * eps**2 - 229.0 / 4.0 * eps**4
        assert shifted_time(2.0, 0.25, 1.0) == pytest.approx(2.0 * factor, rel=1e-14)
        assert shifted_time(1.0, 0.0, 1.0) == 1.0

    def test_orders_converge_to_cumulant(self):
        t = np.linspace(0.0, 2.0 * math.pi / math.sqrt(2.0), 201)
        ref = integrate_cumulant(self.p, t[-1], t.size).battery_population()
        dev = [
            np.max(np.abs(perturbative_energy(t, self.p, k) - ref))
            for k in (0, 1, 2)
        ]
        assert dev[0] > dev[1] > dev[2]

    def test_higher_orders_vanish_with_drive(self):
        weak = NonlinearParams(Omega=1e-3, J=1.0, gamma=0.0)
        t = np.linspace(0.0, 4.0, 65)
        e0 = perturbative_energy(t, weak, 0)
        e2 = perturbative_energy(t, weak, 2)
        # corrections (incl. the time rescaling) enter at relative order
        # (Omega/2J)^2 = 2.5e-7
        assert np.max(np.abs(e2 - e0)) < 1e-5 * np.max(e0)

    def test_requires_dissipationless(self):
        with pytest.raises(UnsupportedRegimeError):
            perturbative_energy(1.0, NonlinearParams(Omega=0.25, J=1.0, gamma=0.5))

    def test_order_validated(self):
        with pytest.raises(InvalidInputError):
            perturbative_energy(1.0, self.p, order=3)


class TestWeakDriving:
    def setup_method(self):
        self.p = NonlinearParams(omega_b=1.0, Omega=0.05, J=1.0, gamma=0.5)

    def test_boundary_values(self):
        assert weak_driving_energy(0.0, self.p) == pytest.approx(0.0, abs=1e-15)
        steady = self.p.omega_b * (self.p.Omega / self.p.J) ** 2
        assert weak_driving_energy(1e4, self.p) == pytest.approx(steady, rel=1e-10)

    def test_gamma_zero_reduces_to_order0(self):
        # at gamma = 0 the closed form collapses to the sin^4 envelope
        p0 = NonlinearParams(Omega=0.05, J=1.0, gamma=0.0)
        t = np.linspace(0.0, 10.0, 101)
        assert np.allclose(
            weak_driving_energy(t, p0),
            perturbative_energy(t, p0, 0),
            atol=1e-15,
        )

    def test_tracks_cumulant_at_weak_drive(self):
        p = NonlinearParams(Omega=0.01, J=1.0, gamma=0.5)
        traj = integrate_cumulant(p, 40.0, 401)
        ref = traj.battery_population()
        got = weak_driving_energy(traj.times, p)
        steady = p.omega_b * (p.Omega / p.J) ** 2
        assert np.max(np.abs(got - ref)) < 2e-3 * steady

    def test_overdamped_tracks_cumulant(self):
        # 2J^2 < (gamma/4)^2: the closed form is the overdamped linear battery,
        # off the cumulant curve by its next order, ~(Omega/J)^2 of the steady
        # energy, which halving the drive divides by 4
        errs = []
        for Omega in (0.002, 0.001):
            p = NonlinearParams(Omega=Omega, J=0.1, gamma=2.0)
            traj = integrate_cumulant(p, 400.0, 401)
            got = weak_driving_energy(traj.times, p)
            errs.append(np.max(np.abs(got - traj.battery_population()))
                        / steady_energy_nonlinear(p))
        assert errs[0] < 1e-3
        assert errs[1] / errs[0] == pytest.approx(0.25, rel=0.05)

    def test_is_linear_battery_at_sqrt2_j(self):
        p = NonlinearParams(omega_b=1.3, Omega=0.05, J=0.7, gamma=0.5)
        q = LinearParams(omega_b=2.0 * p.omega_b, Omega=p.Omega,
                         g=math.sqrt(2.0) * p.J, gamma=p.gamma)
        t = np.linspace(0.0, 30.0, 61)
        assert np.array_equal(weak_driving_energy(t, p), energy_linear(t, q))
        t_e, e_te, _, _ = approx_optima_nonlinear(p)
        assert (t_e, e_te) == (optimal_time_energy(q), optimal_energy(q))


class TestApproxOptima:
    def test_dissipationless_limit(self):
        p = NonlinearParams(omega_b=1.0, Omega=0.05, J=1.0, gamma=0.0)
        pc = perturbation_constants()
        t_e, e_te, t_p, p_tp = approx_optima_nonlinear(p)
        assert t_e == pytest.approx(math.pi / math.sqrt(2.0), rel=1e-14)
        assert e_te == pytest.approx(4.0 * 0.05**2, rel=1e-12)
        assert t_p == pytest.approx(math.sqrt(2.0) * pc.alpha, rel=1e-14)
        # peak power reduces to beta omega_b Omega^2 / J
        assert p_tp == pytest.approx(pc.beta * 0.05**2, rel=1e-12)

    def test_damped_peak_below_dissipationless(self):
        p0 = NonlinearParams(Omega=0.05, J=1.0, gamma=0.0)
        p1 = NonlinearParams(Omega=0.05, J=1.0, gamma=0.5)
        _, e0, _, pw0 = approx_optima_nonlinear(p0)
        t_e1, e1, _, pw1 = approx_optima_nonlinear(p1)
        assert e1 < e0
        assert pw1 < pw0
        # damping slows the oscillation: K < sqrt(2) J
        assert t_e1 > math.pi / (math.sqrt(2.0) * p1.J)

    def test_peak_energy_matches_formula_peak(self):
        p = NonlinearParams(Omega=0.05, J=1.0, gamma=0.5)
        t_e, e_te, _, _ = approx_optima_nonlinear(p)
        t = np.linspace(0.5 * t_e, 1.5 * t_e, 20001)
        e = weak_driving_energy(t, p)
        assert e_te == pytest.approx(np.max(e), rel=1e-6)
        assert t[np.argmax(e)] == pytest.approx(t_e, rel=1e-3)
