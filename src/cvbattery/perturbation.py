"""Weak-driving approximations for the nonlinear battery.

Dissipationless Poincare-Lindstedt series for the stored energy (orders 0-2
in (Omega/J)^2 with a rescaled time), the damped weak-driving closed form,
and the resulting optimal-time / peak-power estimates.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .cumulant import NonlinearParams
from .errors import InvalidInputError, UnsupportedRegimeError


@dataclass(frozen=True)
class PerturbationConstants:
    """alpha solves tan(alpha) = 4 alpha on (1.2, 1.5); beta sets the
    zeroth-order peak power."""

    alpha: float
    beta: float


def perturbation_constants() -> PerturbationConstants:
    alpha = brentq(lambda x: math.tan(x) - 4.0 * x, 1.2, 1.5, xtol=1e-15)
    beta = 2.0 * math.sqrt(2.0) * math.sin(alpha) ** 4 / alpha
    return PerturbationConstants(alpha=alpha, beta=beta)


def shifted_time(t, Omega: float, J: float):
    """Secular-term-free time rescaling tau(t) of the Lindstedt series."""
    eps = Omega / (2.0 * J)
    return (1.0 + 5.0 * eps**2 - (229.0 / 4.0) * eps**4) * np.asarray(t, dtype=float)


def _order_terms(theta, p: NonlinearParams):
    """The three series terms evaluated at phase argument theta = J*tau."""
    s = np.sin(theta / math.sqrt(2.0))
    r = p.Omega / p.J
    e0 = p.omega_b * (2.0 * r) ** 2 * s**4
    e1 = (
        p.omega_b
        / 6.0
        * r**4
        * s**3
        * (
            3.0 * np.sin(5.0 * theta / math.sqrt(2.0))
            - 25.0 * np.sin(3.0 * theta / math.sqrt(2.0))
            - 60.0 * np.sin(theta / math.sqrt(2.0))
        )
    )
    e2 = (
        p.omega_b
        / 1440.0
        * r**6
        * s**4
        * (
            101983.0
            + 75156.0 * np.cos(math.sqrt(2.0) * theta)
            - 2586.0 * np.cos(2.0 * math.sqrt(2.0) * theta)
            - 2248.0 * np.cos(3.0 * math.sqrt(2.0) * theta)
            + 135.0 * np.cos(4.0 * math.sqrt(2.0) * theta)
        )
    )
    return e0, e1, e2


def perturbative_energy(t, p: NonlinearParams, order: int = 2):
    """Partial sum E(0) + ... + E(order) of the dissipationless series.

    Order 0 on its own is evaluated at the bare time t; once first- or
    second-order corrections are included every term uses the shifted time.
    """
    if p.gamma != 0.0:
        raise UnsupportedRegimeError("perturbation series requires gamma = 0")
    if order not in (0, 1, 2):
        raise InvalidInputError(f"order must be 0, 1 or 2, got {order}")
    t = np.asarray(t, dtype=float)
    if order == 0:
        theta = p.J * t
        e0, _, _ = _order_terms(theta, p)
        out = e0
    else:
        theta = p.J * shifted_time(t, p.Omega, p.J)
        e0, e1, e2 = _order_terms(theta, p)
        out = e0 + e1 if order == 1 else e0 + e1 + e2
    return float(out) if out.ndim == 0 else out


def _characteristic_frequency(p: NonlinearParams) -> float:
    k2 = 2.0 * p.J**2 - (p.gamma / 4.0) ** 2
    if k2 <= 0.0:
        raise UnsupportedRegimeError(
            "overdamped regime 2J^2 <= (gamma/4)^2 has no weak-driving closed form"
        )
    return math.sqrt(k2)


def weak_driving_energy(t, p: NonlinearParams):
    """Damped weak-driving energy, leading order in Omega/J.

    E = omega_b (Omega/J)^2 {1 - 2F e^{-gamma t/4} + G e^{-gamma t/2}} with
    oscillation frequency K = sqrt(2J^2 - (gamma/4)^2).
    """
    K = _characteristic_frequency(p)
    t = np.asarray(t, dtype=float)
    F = np.cos(K * t) + p.gamma / (4.0 * K) * np.sin(K * t)
    G = (
        p.J**2 / K**2
        + (1.0 - p.J**2 / K**2) * np.cos(2.0 * K * t)
        + p.gamma / (4.0 * K) * np.sin(2.0 * K * t)
    )
    out = (
        p.omega_b
        * (p.Omega / p.J) ** 2
        * (1.0 - 2.0 * F * np.exp(-p.gamma * t / 4.0) + G * np.exp(-p.gamma * t / 2.0))
    )
    return float(out) if out.ndim == 0 else out


def approx_optima_nonlinear(p: NonlinearParams):
    """Weak-driving estimates (t_E, E(t_E), t_P, P(t_P)).

    t_E = pi/K with the peak energy omega_b (Omega/J)^2 (1 + e^{-pi gamma/4K})^2;
    t_P keeps its dissipationless value sqrt(2) alpha / J and the peak power
    acquires an exponential damping factor.
    """
    K = _characteristic_frequency(p)
    alpha = perturbation_constants().alpha
    t_e = math.pi / K
    e_te = (
        p.omega_b
        * (p.Omega / p.J) ** 2
        * (1.0 + math.exp(-math.pi * p.gamma / (4.0 * K))) ** 2
    )
    t_p = math.sqrt(2.0) * alpha / p.J
    p_tp = (
        p.omega_b
        * (p.Omega**2 / p.J)
        / (math.sqrt(2.0) * alpha)
        * (
            1.0
            - math.cos(2.0 * alpha)
            * math.exp(-alpha / (2.0 * math.sqrt(2.0)) * p.gamma / p.J)
        )
        ** 2
    )
    return t_e, e_te, t_p, p_tp
