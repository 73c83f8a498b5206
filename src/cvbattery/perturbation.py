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
from .linear import LinearParams, energy_linear, optimal_energy, optimal_time_energy


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


def _linear_equivalent(p: NonlinearParams) -> LinearParams:
    """The linear battery that the nonlinear one reduces to at leading order
    in Omega/J: from vacuum b'b'|0> = sqrt(2)|2>, so pair creation is a
    linear exchange with g = sqrt(2) J between the charger and a mode whose
    quantum, one pair, carries 2 omega_b."""
    return LinearParams(omega_b=2.0 * p.omega_b, Omega=p.Omega,
                        g=math.sqrt(2.0) * p.J, gamma=p.gamma)


def weak_driving_energy(t, p: NonlinearParams):
    """Damped weak-driving energy, leading order in Omega/J: the linear
    energy ``energy_linear`` of ``_linear_equivalent(p)``,

    E = omega_b (Omega/J)^2 {1 - [cos(Kt) + (gamma/4K) sin(Kt)] e^{-gamma t/4}}^2
    with K = sqrt(2J^2 - (gamma/4)^2), valid in every damping regime.
    """
    return energy_linear(t, _linear_equivalent(p))


def approx_optima_nonlinear(p: NonlinearParams):
    """Weak-driving estimates (t_E, E(t_E), t_P, P(t_P)).

    t_E and E(t_E) are the closed-form optima of ``_linear_equivalent(p)``:
    pi/K with the peak energy omega_b (Omega/J)^2 (1 + e^{-pi gamma/4K})^2
    (t_E infinite, E(t_E) the steady energy, in the overdamped regime);
    t_P keeps its dissipationless value sqrt(2) alpha / J and the peak power
    acquires an exponential damping factor.
    """
    q = _linear_equivalent(p)
    t_e, e_te = optimal_time_energy(q), optimal_energy(q)
    alpha = perturbation_constants().alpha
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
