"""Performance measures extracted from sampled trajectories.

Works on any trajectory object exposing ``times``, ``battery_population()``
and ``omega_b``; the Gaussian ergotropy also reads ``moments()``.  The
cumulant and the Fock trajectories expose all four.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .focksim import exact_ergotropy
from .gaussian import MomentState, covariance_determinant, ergotropy_gaussian, passive_energy


@dataclass
class BatteryMetrics:
    """Energy/power/ergotropy series plus the extracted optima."""

    energy: np.ndarray
    power: np.ndarray  # defined on the samples after t = 0
    t_E: float
    E_tE: float
    t_P: float
    P_tP: float
    asymptotic: bool = False  # True when the maximum sits at the final sample


def _refine_max(t, y):
    """Grid argmax plus quadratic interpolation through the bracketing
    samples; earliest maximum wins ties (1e-9 relative)."""
    y_max = np.max(y)
    if y_max <= 0.0:
        return 0.0, 0.0, False
    # a final sample tying the maximum signals a saturating (asymptotic) curve
    asym = bool(y[-1] >= y_max * (1.0 - 1e-9))
    i = int(np.argmax(y >= y_max * (1.0 - 1e-9)))
    if i == 0 or i == y.size - 1:
        return float(t[i]), float(y[i]), asym
    t0, t1, t2 = t[i - 1], t[i], t[i + 1]
    y0, y1, y2 = y[i - 1], y[i], y[i + 1]
    denom = (y0 - 2.0 * y1 + y2)
    if denom >= 0.0:  # degenerate / flat: keep the grid point
        return float(t1), float(y1), asym
    dt = 0.5 * (t2 - t0) / 2.0 * (y0 - y2) / denom
    dt = np.clip(dt, t0 - t1, t2 - t1)
    t_star = t1 + dt
    # vertex value of the parabola
    y_star = y1 - 0.125 * (y0 - y2) ** 2 / denom
    return float(t_star), float(max(y_star, y1)), asym


def compute_metrics(traj) -> BatteryMetrics:
    """Energy, power and their optima from a sampled trajectory."""
    return energy_metrics(
        traj.times, traj.omega_b * np.asarray(traj.battery_population(), dtype=float)
    )


def energy_metrics(times, energy) -> BatteryMetrics:
    """Power and the optima of a sampled energy curve E(t)."""
    t = np.asarray(times, dtype=float)
    if t.size < 2 or np.any(np.diff(t) <= 0):
        raise InvalidInputError("need a monotone time grid with >= 2 samples")
    energy = np.asarray(energy, dtype=float)
    power = energy[1:] / t[1:]
    t_E, E_tE, asym_e = _refine_max(t, energy)
    t_P, P_tP, asym_p = _refine_max(t[1:], power)
    return BatteryMetrics(
        energy=energy,
        power=power,
        t_E=t_E,
        E_tE=E_tE,
        t_P=t_P,
        P_tP=P_tP,
        asymptotic=asym_e or asym_p,
    )


def ergotropy_trajectory(traj, route: str) -> np.ndarray:
    """Per-sample ergotropy along a trajectory.

    route="gaussian" uses the covariance-determinant passive energy and
    needs moment data; route="exact" diagonalizes the reduced battery state
    and needs density matrices.
    """
    omega_b = traj.omega_b
    if route == "gaussian":
        if not hasattr(traj, "moments"):
            raise InvalidInputError("gaussian route needs moment data")
        m = MomentState.from_array(traj.moments())
        energy = omega_b * np.maximum(m.b_num, 0.0)
        passive = passive_energy(omega_b, covariance_determinant(m))
        return ergotropy_gaussian(energy, passive)
    if route == "exact":
        if not hasattr(traj, "reduced_battery_states"):
            raise InvalidInputError("exact route needs density matrices")
        return exact_ergotropy(traj.reduced_battery_states(), omega_b)
    raise InvalidInputError(f"unknown ergotropy route {route!r}")
