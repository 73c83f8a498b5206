"""Closed-form results for the linearly coupled battery.

The stored energy, optimal charging times and powers of the linear model are
all analytic; the only numerics here are two scalar root solves (for the
dimensionless constants) and a 1-D maximization of the charging power.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import lambertw

from .errors import ConvergenceError, InconsistencyError, InvalidInputError

INF_TIME = math.inf  # marker for "maximum only reached asymptotically"


@dataclass(frozen=True)
class LinearParams:
    """Physical rates of the linear model, in units of one reference rate."""

    omega_b: float = 1.0
    Omega: float = 1.0
    g: float = 1.0
    gamma: float = 0.0

    def __post_init__(self):
        vals = (self.omega_b, self.Omega, self.g, self.gamma)
        if not all(np.isfinite(vals)):
            raise InvalidInputError(f"non-finite parameter in {self!r}")
        if self.g <= 0:
            raise InvalidInputError("coupling g must be positive")
        if self.omega_b <= 0 or self.Omega < 0 or self.gamma < 0:
            raise InvalidInputError(f"invalid rates in {self!r}")


@dataclass(frozen=True)
class LinearConstants:
    """Dimensionless prefactors of the weak/strong-coupling power asymptotes."""

    A: float
    B: float
    C: float
    D_strong: float


def linear_constants() -> LinearConstants:
    """Constants of the power asymptotes.

    A = -1/2 - W_-1(-1/(2 sqrt(e))), B solves tan(B/2) = 2B on (2, 3),
    C = 2(1 - e^-A)^2/A and D_strong = 4 sin^4(B/2)/B.
    """
    a = -0.5 - float(lambertw(-1.0 / (2.0 * math.sqrt(math.e)), -1).real)
    b = brentq(lambda x: math.tan(x / 2.0) - 2.0 * x, 2.0, 3.0, xtol=1e-15)
    c = 2.0 * (1.0 - math.exp(-a)) ** 2 / a
    d = 4.0 * math.sin(b / 2.0) ** 4 / b
    return LinearConstants(A=a, B=b, C=c, D_strong=d)


def exceptional_point(gamma: float) -> float:
    """Coupling strength g_EP = gamma/4 separating the two charging regimes."""
    if gamma < 0 or not np.isfinite(gamma):
        raise InvalidInputError("gamma must be finite and non-negative")
    return gamma / 4.0


def renormalized_frequency(g: float, gamma: float) -> complex:
    """G = sqrt(g^2 - (gamma/4)^2), purely imaginary below the exceptional
    point; the root with non-negative real part is returned."""
    if g <= 0 or gamma < 0:
        raise InvalidInputError("require g > 0 and gamma >= 0")
    G = np.sqrt(complex(g * g - (gamma / 4.0) ** 2))
    if G.real < 0:
        G = -G
    return G


def _envelope(t, g, gamma):
    """[cos(Gt) + (gamma/4G) sin(Gt)] e^{-gamma t/4}, evaluated stably.

    Above the exceptional point this is a damped oscillation; below it the
    complex formula hides growing exponentials, so the expression is
    rewritten as a sum of two decaying exponentials there.
    """
    disc = g * g - (gamma / 4.0) ** 2
    if abs(disc) <= (1e-6 * g) ** 2:
        # series limit sin(Gt)/G -> t(1 - (Gt)^2/6 + ...) near the EP
        z2 = disc * t * t
        return (1.0 - z2 / 2.0 + (gamma * t / 4.0) * (1.0 - z2 / 6.0)) * np.exp(
            -gamma * t / 4.0
        )
    if disc > 0:
        G = np.sqrt(disc)
        return (np.cos(G * t) + gamma / (4.0 * G) * np.sin(G * t)) * np.exp(
            -gamma * t / 4.0
        )
    mu = np.sqrt(-disc)  # overdamped: G = i mu
    cp = 0.5 * (1.0 + gamma / (4.0 * mu))
    cm = 0.5 * (1.0 - gamma / (4.0 * mu))
    return cp * np.exp(-(gamma / 4.0 - mu) * t) + cm * np.exp(-(gamma / 4.0 + mu) * t)


def energy_linear(t, p: LinearParams):
    """Stored energy E(t) of the linear battery (vacuum start).

    E = omega_b (Omega/g)^2 {1 - [cos(Gt) + (gamma/4G) sin(Gt)] e^{-gamma t/4}}^2,
    valid in all coupling regimes.  Accepts scalar or array times.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise InvalidInputError("time must be non-negative")
    env = _envelope(t, p.g, p.gamma)
    if np.any(np.abs(np.imag(np.asarray(env, dtype=complex))) > 1e-10):
        raise InconsistencyError("imaginary residue in linear energy envelope")
    val = p.omega_b * (p.Omega / p.g) ** 2 * (1.0 - np.real(env)) ** 2
    return float(val) if val.ndim == 0 else val


def steady_energy_linear(p: LinearParams) -> float:
    """Long-time limit omega_b (Omega/g)^2 (gamma > 0)."""
    return p.omega_b * (p.Omega / p.g) ** 2


def optimal_time_energy(p: LinearParams) -> float:
    """Charging time maximizing E(t): pi/G above the exceptional point,
    infinity (asymptotic approach) at or below it."""
    if p.g <= exceptional_point(p.gamma):
        return INF_TIME
    return math.pi / renormalized_frequency(p.g, p.gamma).real


def optimal_energy(p: LinearParams) -> float:
    """Maximum stored energy E(t_E) of the linear battery."""
    base = p.omega_b * (p.Omega / p.g) ** 2
    if p.g <= exceptional_point(p.gamma):
        return base
    G = renormalized_frequency(p.g, p.gamma).real
    return base * (1.0 + math.exp(-math.pi * p.gamma / (4.0 * G))) ** 2


def _golden_max(f, lo, hi, rel_tol=1e-10):
    # Kept instead of scipy's bounded minimize_scalar: t_P sits on a flat
    # maximum, and on fig2's 801-point grid the scipy optimiser moved t_P by
    # up to 5e-8 relative, more than the 1e-8 to which figure outputs are
    # compared with their references.
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > rel_tol * b:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def optimal_time_power(p: LinearParams) -> float:
    """Charging time maximizing the power P(t) = E(t)/t.

    Coarse 512-point log grid over (0, T_max] followed by golden-section
    refinement; the earliest maximizer wins ties.
    """
    if p.Omega <= 0:
        raise InvalidInputError("power optimum requires Omega > 0")
    if p.gamma > 0:
        t_max = max(40.0 / p.gamma, 20.0 * math.pi / p.g)
    else:
        t_max = 20.0 * math.pi / p.g
    grid = np.logspace(math.log10(t_max) - 6.0, math.log10(t_max), 512)
    power = energy_linear(grid, p) / grid
    best = np.max(power)
    # earliest grid point within relative tie tolerance of the maximum
    i = int(np.argmax(power >= best * (1.0 - 1e-9)))
    lo = grid[i - 1] if i > 0 else grid[0] * 1e-3
    hi = grid[i + 1] if i + 1 < grid.size else grid[-1]
    t_p = _golden_max(lambda t: energy_linear(t, p) / t, lo, hi)
    if not np.isfinite(t_p) or t_p <= 0:
        raise ConvergenceError("power maximization failed")
    return t_p


def max_power(p: LinearParams) -> float:
    """Peak charging power P(t_P) of the linear battery."""
    t_p = optimal_time_power(p)
    return energy_linear(t_p, p) / t_p
