"""Unit tests for trajectory metrics extraction."""

import math

import numpy as np
import pytest

from cvbattery.cumulant import NonlinearParams, integrate_cumulant
from cvbattery.errors import InvalidInputError
from cvbattery.focksim import FockConfig, evolve
from cvbattery.linear import LinearParams
from cvbattery.metrics import compute_metrics, ergotropy_trajectory


class FakeTrajectory:
    """Minimal duck-typed trajectory."""

    def __init__(self, t, nb, omega_b=1.0):
        self.times = np.asarray(t, dtype=float)
        self._nb = np.asarray(nb, dtype=float)
        self.omega_b = omega_b

    def battery_population(self):
        return self._nb


class TestComputeMetrics:
    def test_quadratic_peak_refined_off_grid(self):
        # energy = 1 - (t - 2.3)^2 peaks between grid points
        t = np.linspace(0.0, 4.0, 41)
        e = np.clip(1.0 - (t - 2.3) ** 2, 0.0, None)
        m = compute_metrics(FakeTrajectory(t, e))
        assert m.t_E == pytest.approx(2.3, abs=1e-10)
        assert m.E_tE == pytest.approx(1.0, abs=1e-10)
        assert not m.asymptotic

    def test_sinusoidal_peak(self):
        t = np.linspace(0.0, 2.0 * math.pi, 257)
        e = np.sin(t / 2.0) ** 4
        m = compute_metrics(FakeTrajectory(t, e))
        assert m.t_E == pytest.approx(math.pi, rel=1e-4)
        assert m.E_tE == pytest.approx(1.0, rel=1e-6)

    def test_power_is_energy_over_time(self):
        t = np.linspace(0.0, 5.0, 11)
        e = t.copy()
        m = compute_metrics(FakeTrajectory(t, e))
        assert np.allclose(m.power, 1.0)
        assert m.P_tP == pytest.approx(1.0)

    def test_earliest_tie_wins(self):
        # grid hits the equal peaks at pi/2 and 3pi/2 exactly
        t = np.linspace(0.0, 2.0 * math.pi, 129)
        e = np.sin(t) ** 2
        m = compute_metrics(FakeTrajectory(t, e))
        assert m.t_E == pytest.approx(math.pi / 2.0, rel=1e-6)

    def test_all_zero_energy(self):
        t = np.linspace(0.0, 1.0, 11)
        m = compute_metrics(FakeTrajectory(t, np.zeros(11)))
        assert m.t_E == 0.0
        assert m.E_tE == 0.0

    def test_asymptotic_flag_for_saturating_energy(self):
        t = np.linspace(0.0, 5.0, 51)
        e = 1.0 - np.exp(-t)
        m = compute_metrics(FakeTrajectory(t, e))
        assert m.asymptotic
        assert m.t_E == pytest.approx(5.0)

    def test_omega_b_override(self):
        t = np.linspace(0.0, 4.0, 41)
        e = np.clip(1.0 - (t - 2.0) ** 2, 0.0, None)
        m = compute_metrics(FakeTrajectory(t, e, omega_b=3.0))
        assert m.E_tE == pytest.approx(3.0, abs=1e-9)

    def test_grid_validated(self):
        with pytest.raises(InvalidInputError):
            compute_metrics(FakeTrajectory([0.0], [1.0]))
        with pytest.raises(InvalidInputError):
            compute_metrics(FakeTrajectory([0.0, 2.0, 1.0], [0.0, 1.0, 2.0]))

    def test_on_cumulant_trajectory(self):
        p = NonlinearParams(omega_b=1.0, Omega=0.05, J=1.0, gamma=0.0)
        traj = integrate_cumulant(p, 4.0, 401)
        m = compute_metrics(traj)
        # weak driving: peak near pi/sqrt(2) with E ~ omega (2 Omega/J)^2
        assert m.t_E == pytest.approx(math.pi / math.sqrt(2.0), rel=2e-2)
        assert m.E_tE == pytest.approx(4.0 * 0.05**2, rel=5e-2)


class TestErgotropyTrajectory:
    def test_gaussian_route_on_cumulant(self):
        p = NonlinearParams(omega_b=1.0, Omega=0.25, J=1.0, gamma=0.5)
        traj = integrate_cumulant(p, 40.0, 81)
        erg = ergotropy_trajectory(traj, "gaussian")
        energy = traj.omega_b * traj.battery_population()
        # cumulant battery state stays minimum-uncertainty: all extractable
        assert np.max(np.abs(erg - energy)) < 1e-6

    def test_exact_route_on_fock(self):
        p = LinearParams(omega_b=1.0, Omega=0.1, g=0.5, gamma=1.0)
        traj = evolve("linear", p, FockConfig(6, 6), 8.0, n_samples=17)
        erg = ergotropy_trajectory(traj, "exact")
        energy = traj.omega_b * traj.battery_population()
        # linear route from vacuum stays coherent: all energy extractable
        assert np.max(np.abs(erg - energy)) < 1e-8

    def test_route_requirements(self):
        p = NonlinearParams(Omega=0.25, J=1.0, gamma=0.5)
        traj = integrate_cumulant(p, 1.0, 11)
        with pytest.raises(InvalidInputError):
            ergotropy_trajectory(traj, "exact")
        with pytest.raises(InvalidInputError):
            ergotropy_trajectory(traj, "bogus")
