"""Closed-form results for the linearly coupled battery.

The stored energy, optimal charging times and powers of the linear model are
all analytic; the only numerics here are two scalar root solves (for the
dimensionless constants) and a 1-D maximization of the charging power,
solved for many parameter points at once.  The root solvers are imported
inside ``linear_constants``, so that no route loads scipy.optimize or
scipy.special.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InvalidInputError

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
    from scipy.optimize import brentq
    from scipy.special import lambertw

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
    G = np.sqrt(complex(_regime(g, gamma)[0]))
    if G.real < 0:
        G = -G
    return G


_NEAR_EP, _UNDERDAMPED, _OVERDAMPED = range(3)


def _regime(g: float, gamma: float):
    """disc = g^2 - (gamma/4)^2 and the branch of ``_envelope`` for one point.

    Python floats throughout: ``**`` calls C ``pow``, whose last bit differs
    from ``x*x`` in about 0.1% of values.
    """
    disc = g * g - (gamma / 4.0) ** 2
    if abs(disc) <= (1e-6 * g) ** 2:
        return disc, _NEAR_EP
    return disc, (_UNDERDAMPED if disc > 0 else _OVERDAMPED)


def _envelope(t, gamma, disc, regime):
    """[cos(Gt) + (gamma/4G) sin(Gt)] e^{-gamma t/4}, evaluated stably.

    ``gamma`` and ``disc`` (from ``_regime``) are one point's floats, or
    arrays matching ``t`` that hold one point per element, all of one
    ``regime``.  Above the exceptional point this is a damped oscillation;
    below it the complex formula hides growing exponentials, so the
    expression is rewritten as a sum of two decaying exponentials there.
    """
    if regime == _NEAR_EP:
        # series limit sin(Gt)/G -> t(1 - (Gt)^2/6 + ...) near the EP
        z2 = disc * t * t
        return (1.0 - z2 / 2.0 + (gamma * t / 4.0) * (1.0 - z2 / 6.0)) * np.exp(
            -gamma * t / 4.0
        )
    if regime == _UNDERDAMPED:
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
    env = _envelope(t, p.gamma, *_regime(p.g, p.gamma))
    val = steady_energy_linear(p) * (1.0 - env) ** 2
    return float(val) if val.ndim == 0 else val


def steady_energy_linear(p: LinearParams) -> float:
    """Long-time limit omega_b (Omega/g)^2 (gamma > 0)."""
    return p.omega_b * (p.Omega / p.g) ** 2


def optimal_time_energy(p: LinearParams) -> float:
    """Charging time maximizing E(t): pi/G above the exceptional point,
    infinity (asymptotic approach) at or below it."""
    if p.g <= exceptional_point(p.gamma):
        return INF_TIME
    return math.pi / float(renormalized_frequency(p.g, p.gamma).real)


def optimal_energy(p: LinearParams) -> float:
    """Maximum stored energy E(t_E) of the linear battery."""
    base = steady_energy_linear(p)
    if p.g <= exceptional_point(p.gamma):
        return base
    G = renormalized_frequency(p.g, p.gamma).real
    return base * (1.0 + math.exp(-math.pi * p.gamma / (4.0 * G))) ** 2


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_BRACKET_GRID = 512  # points of each coarse log grid over (0, T_max]
_BRACKET_CHUNK = 8  # points whose grids make one array pass: 32 KiB per array


def _point_arrays(ps):
    """(pref, gamma, disc, regime): one entry per point of ``ps``, each from
    the Python floats of that point as ``energy_linear`` computes it, pref
    being the energy prefactor ``steady_energy_linear``."""
    pref = np.array([steady_energy_linear(p) for p in ps])
    gamma = np.array([p.gamma for p in ps])
    disc, regime = np.array([_regime(p.g, p.gamma) for p in ps]).reshape(-1, 2).T
    return pref, gamma, disc, regime


def _envelopes(t, idx, points):
    """``_envelope`` at times t for the points idx of ``points`` (from
    ``_point_arrays``): t[i] is a time, or a row of times, of point idx[i]."""
    _, gamma, disc, regime = points
    env = np.empty_like(t)
    for r in (_NEAR_EP, _UNDERDAMPED, _OVERDAMPED):
        m = regime[idx] == r
        if m.any():
            j = idx[m].reshape((-1,) + (1,) * (t.ndim - 1))
            env[m] = _envelope(t[m], gamma[j], disc[j], r)
    return env


def _power_brackets(ps, points):
    """(lo, hi): the grid neighbours of the earliest maximizer of E(t)/t on
    each point's 512-point log grid over (0, T_max] (``power_optima``)."""
    lo, hi = np.empty(len(ps)), np.empty(len(ps))
    for first in range(0, len(ps), _BRACKET_CHUNK):
        chunk = ps[first:first + _BRACKET_CHUNK]
        rows = np.arange(first, first + len(chunk))
        top = np.array([math.log10(max(40.0 / p.gamma, 20.0 * math.pi / p.g) if p.gamma > 0
                                   else 20.0 * math.pi / p.g) for p in chunk])
        grid = np.logspace(top - 6.0, top, _BRACKET_GRID, axis=1)
        power = points[0][rows, None] * (1.0 - _envelopes(grid, rows, points)) ** 2 / grid
        # earliest grid point within relative tie tolerance of the row's maximum
        i = np.argmax(power >= power.max(axis=1, keepdims=True) * (1.0 - 1e-9), axis=1)
        k = np.arange(rows.size)
        lo[rows] = np.where(i > 0, grid[k, i - 1], grid[:, 0] * 1e-3)
        hi[rows] = grid[k, np.minimum(i + 1, _BRACKET_GRID - 1)]
    return lo, hi


def power_optima(ps):
    """Optimal power times t_P and peak powers P(t_P) = E(t_P)/t_P of the
    linear battery at each point of ``ps`` (a sequence of ``LinearParams``).

    Each point's maximizer is bracketed on its own coarse 512-point log grid
    over (0, T_max], where the earliest maximizer wins ties, and then refined
    by golden-section search until (b - a) <= 1e-10 b.  The refinement moves
    every point's bracket in lockstep: one array evaluation of E(t)/t per
    iteration over the points not yet converged.

    t_P sits on a flat maximum, where one ulp of P can move t_P by ~1e-8
    relative, so the refinement reproduces the arithmetic of a scalar
    ``energy_linear(t, p) / t`` bit for bit: the energy prefactor and
    ``_regime`` are Python floats per point and the square of 1 - envelope
    is C ``pow`` (``np.float_power`` loops over it), not ``x*x`` or
    ``np.power``.  scipy's bounded ``minimize_scalar`` is not used: on
    fig2's 801-point grid it moved t_P by up to 5e-8 relative.

    Accuracy against the stationary point of E(t)/t at 50 digits, on fig2's
    grid: median 5e-9 relative, 167 of 801 beyond 1e-8, p99 2.8e-8, worst
    4.0e-8.  A maximizer past the bracket window is not found: at g/gamma =
    0.01, t_P = T_max = 20 pi/g, 1.8e-4 short of it, and P is 1.2e-8 low.

    The brackets are found ``_BRACKET_CHUNK`` points at a time, their grids
    one (points, 512) array, with the arithmetic of ``energy_linear`` on one
    point's grid: each grid's endpoints are ``math.log10`` of that point's
    Python float T_max, ``np.logspace`` then rounds every grid entry as it
    does for one grid, and every later step is elementwise.  The earliest
    maximizer is taken per row.  Returns two float arrays of len(ps).
    """
    ps = list(ps)
    if any(p.Omega <= 0 for p in ps):
        raise InvalidInputError("power optimum requires Omega > 0")
    points = _point_arrays(ps)
    pref = points[0]

    def power(t, idx):
        env = _envelopes(t, idx, points)
        return pref[idx] * np.float_power(1.0 - env, 2.0) / t  # C pow

    a, b = _power_brackets(ps, points)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    every = np.arange(len(ps))
    fc, fd = power(c, every), power(d, every)
    act = every[(b - a) > 1e-10 * b]
    while act.size:
        left = fc[act] > fd[act]  # the maximum lies in [a, d]
        lo, hi = act[left], act[~left]
        b[lo], d[lo], fd[lo] = d[lo], c[lo], fc[lo]
        c[lo] = b[lo] - _GOLDEN * (b[lo] - a[lo])
        a[hi], c[hi], fc[hi] = c[hi], d[hi], fd[hi]
        d[hi] = a[hi] + _GOLDEN * (b[hi] - a[hi])
        f = power(np.where(left, c[act], d[act]), act)
        fc[lo], fd[hi] = f[left], f[~left]
        act = act[(b[act] - a[act]) > 1e-10 * b[act]]
    t_p = 0.5 * (a + b)
    if not (np.all(np.isfinite(t_p)) and np.all(t_p > 0)):
        raise ConvergenceError("power maximization failed")
    return t_p, power(t_p, every)


def optimal_time_power(p: LinearParams) -> float:
    """Charging time maximizing the power P(t) = E(t)/t: ``power_optima``
    at the single point ``p``."""
    return float(power_optima([p])[0][0])


def max_power(p: LinearParams) -> float:
    """Peak charging power P(t_P) of the linear battery."""
    return float(power_optima([p])[1][0])
