"""Unit tests for the linear-model closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import lambertw

from cvbattery import linear
from cvbattery.errors import InvalidInputError
from cvbattery.linear import (
    INF_TIME,
    LinearParams,
    energy_linear,
    exceptional_point,
    linear_constants,
    max_power,
    optimal_energy,
    optimal_time_energy,
    optimal_time_power,
    power_optima,
    renormalized_frequency,
    steady_energy_linear,
)


def moment_ode_energy(t_grid, p):
    """Independent oracle: integrate the first-moment equations directly.

    From vacuum the state stays coherent, so E = omega_b |<b>|^2 with
    d<a>/dt = -(gamma/2)<a> - i g <b> - i Omega, d<b>/dt = -i g <a>.
    """

    def rhs(_, y):
        a, b = y[0] + 1j * y[1], y[2] + 1j * y[3]
        da = -(p.gamma / 2.0) * a - 1j * p.g * b - 1j * p.Omega
        db = -1j * p.g * a
        return [da.real, da.imag, db.real, db.imag]

    sol = solve_ivp(rhs, (0.0, t_grid[-1]), [0.0] * 4, t_eval=t_grid,
                    rtol=1e-12, atol=1e-14, method="DOP853")
    return p.omega_b * (sol.y[2] ** 2 + sol.y[3] ** 2)


def power_bracket(p):
    """Oracle: the per-point bracket rule that ``linear._power_brackets``
    batches, the neighbours of the earliest maximizer of E(t)/t on a
    512-point log grid over (0, T_max]."""
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
    return lo, hi


def scalar_power_optimum(p):
    """Oracle: the per-point solver that ``power_optima`` replaced,
    ``power_bracket`` and a scalar golden-section search over
    ``energy_linear(t, p) / t``.  Returns (t_P, P(t_P))."""
    a, b = power_bracket(p)

    def f(t):
        return energy_linear(t, p) / t

    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > 1e-10 * b:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f(d)
    t_p = 0.5 * (a + b)
    return t_p, f(t_p)


def assert_same_bits_as_scalar_solver(ps):
    t_p, p_tp = power_optima(ps)
    ref = np.array([scalar_power_optimum(p) for p in ps]).reshape(-1, 2)
    np.testing.assert_array_equal(t_p, ref[:, 0])
    np.testing.assert_array_equal(p_tp, ref[:, 1])


@st.composite
def linear_points(draw):
    """One point in a named regime: lossless, below, near or above the
    exceptional point g = gamma/4."""
    regime = draw(st.sampled_from(["lossless", "overdamped", "near_ep", "underdamped"]))
    gamma = 0.0 if regime == "lossless" else draw(st.floats(0.01, 5.0))
    g_ep = gamma / 4.0
    if regime == "lossless":
        g = draw(st.floats(0.01, 100.0))
    elif regime == "overdamped":
        g = g_ep * draw(st.floats(0.01, 0.99))
    elif regime == "near_ep":  # inside the series branch |g^2 - g_ep^2| <= (1e-6 g)^2
        g = g_ep * (1.0 + draw(st.floats(-4e-13, 4e-13)))
    else:
        g = g_ep * draw(st.floats(1.01, 400.0))
    return LinearParams(omega_b=draw(st.floats(0.2, 3.0)), Omega=draw(st.floats(1e-3, 2.0)),
                        g=g, gamma=gamma)


@settings(max_examples=60, deadline=None)
@given(st.lists(linear_points(), min_size=1, max_size=8))
def test_batched_power_optima_match_scalar_solver(ps):
    assert_same_bits_as_scalar_solver(ps)


def test_batched_power_optima_match_scalar_solver_on_fig2_grid():
    ps = [LinearParams(omega_b=1.0, Omega=0.1, g=float(r), gamma=1.0)
          for r in np.logspace(-2, 2, 801)]
    assert_same_bits_as_scalar_solver(ps)


def assert_same_brackets_as_per_point_rule(ps):
    lo, hi = linear._power_brackets(ps, linear._point_arrays(ps))
    ref = np.array([power_bracket(p) for p in ps]).reshape(-1, 2)
    np.testing.assert_array_equal(lo, ref[:, 0])
    np.testing.assert_array_equal(hi, ref[:, 1])


# up to 40 points, so that chunks of the batched pass fill, and mix regimes
@settings(max_examples=60, deadline=None)
@given(st.lists(linear_points(), min_size=1, max_size=40))
def test_batched_brackets_match_per_point_rule(ps):
    assert_same_brackets_as_per_point_rule(ps)


@pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0, 2.5])
def test_batched_brackets_match_per_point_rule_on_fig2_grid(gamma):
    # fig2's 801 ratios g/gamma (g itself at gamma = 0)
    ps = [LinearParams(omega_b=1.0, Omega=0.1, g=float(r) * (gamma or 1.0), gamma=gamma)
          for r in np.logspace(-2, 2, 801)]
    assert_same_brackets_as_per_point_rule(ps)


def test_batched_brackets_take_the_earliest_near_tie():
    # here the grid point after the first maximizer of E(t)/t holds a power
    # above it by less than the 1e-9 relative tie tolerance, so the bracket
    # is centred on the earlier point
    p = LinearParams(Omega=0.1, g=2.03850299, gamma=1.0)
    grid = np.logspace(math.log10(40.0) - 6.0, math.log10(40.0), 512)  # T_max = 40/gamma
    power = energy_linear(grid, p) / grid
    assert np.argmax(power) == 386
    assert 0.0 < power[386] - power[385] < 1e-9 * power[386]
    lo, hi = linear._power_brackets([p], linear._point_arrays([p]))
    assert (lo[0], hi[0]) == (grid[384], grid[386]) == power_bracket(p)


def test_power_optima_reject_an_undriven_point():
    ps = [LinearParams(Omega=0.1, g=g, gamma=1.0) for g in (0.1, 0.5, 2.0)]
    ps.insert(1, LinearParams(Omega=0.0, g=1.0, gamma=1.0))
    with pytest.raises(InvalidInputError):
        power_optima(ps)


class TestConstants:
    def test_values(self):
        lc = linear_constants()
        assert lc.A == pytest.approx(1.2564312086261695, abs=1e-14)
        assert lc.B == pytest.approx(2.7864981506511772, abs=1e-14)
        assert lc.C == pytest.approx(0.8145287551781475, abs=1e-14)
        assert lc.D_strong == pytest.approx(1.3473350422937096, abs=1e-14)

    def test_defining_equations(self):
        lc = linear_constants()
        assert abs((lc.A + 0.5) * math.exp(-(lc.A + 0.5))
                   - 1.0 / (2.0 * math.sqrt(math.e))) < 1e-14
        assert abs(math.tan(lc.B / 2.0) - 2.0 * lc.B) < 1e-12
        assert lc.C == pytest.approx(2.0 * (1.0 - math.exp(-lc.A)) ** 2 / lc.A,
                                     abs=1e-14)
        assert lc.D_strong == pytest.approx(
            4.0 * math.sin(lc.B / 2.0) ** 4 / lc.B, abs=1e-14
        )

    def test_root_oracles(self):
        lc = linear_constants()
        a_ref = -0.5 - lambertw(-0.5 / math.sqrt(math.e), -1).real
        b_ref = brentq(lambda x: math.tan(x / 2.0) - 2.0 * x, 2.0, 3.0,
                       xtol=1e-15)
        assert lc.A == pytest.approx(a_ref, abs=1e-13)
        assert lc.B == pytest.approx(b_ref, abs=1e-12)


class TestEnergy:
    @pytest.mark.parametrize(
        "g,gamma",
        [(0.5, 1.0), (2.0, 1.0), (0.1, 1.0), (0.2501, 1.0), (1.0, 0.0)],
    )
    def test_against_moment_ode(self, g, gamma):
        p = LinearParams(omega_b=1.0, Omega=0.1, g=g, gamma=gamma)
        t = np.linspace(0.0, 30.0, 301)
        ref = moment_ode_energy(t, p)
        got = energy_linear(t, p)
        assert np.max(np.abs(got - ref)) < 1e-9 * max(1.0, ref.max())

    def test_zero_time_and_scalar(self):
        p = LinearParams(Omega=0.1, g=0.5, gamma=1.0)
        assert energy_linear(0.0, p) == 0.0
        assert isinstance(energy_linear(1.5, p), float)

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidInputError):
            energy_linear(-1.0, LinearParams(g=1.0))

    def test_steady_limit(self):
        p = LinearParams(omega_b=2.0, Omega=0.3, g=0.7, gamma=1.0)
        assert energy_linear(1e4, p) == pytest.approx(
            steady_energy_linear(p), rel=1e-10
        )
        assert steady_energy_linear(p) == pytest.approx(
            2.0 * (0.3 / 0.7) ** 2, rel=1e-14
        )

    def test_deep_overdamped_stays_finite(self):
        # g << gamma once produced overflow in the naive complex form
        p = LinearParams(Omega=0.1, g=0.01, gamma=1.0)
        e = energy_linear(np.linspace(0.0, 2e5, 200), p)
        assert np.all(np.isfinite(e))
        assert e[-1] == pytest.approx(steady_energy_linear(p), rel=1e-8)

    def test_branches_agree_near_exceptional_point(self):
        gamma = 1.0
        t = np.linspace(0.0, 20.0, 101)
        e_ep = energy_linear(t, LinearParams(Omega=0.1, g=0.25, gamma=gamma))
        for g in (0.25 * (1 + 3e-7), 0.25 * (1 - 3e-7)):
            e = energy_linear(t, LinearParams(Omega=0.1, g=g, gamma=gamma))
            assert np.max(np.abs(e - e_ep)) < 1e-6


class TestOptima:
    def test_exceptional_point(self):
        assert exceptional_point(1.0) == 0.25
        assert exceptional_point(0.0) == 0.0
        with pytest.raises(InvalidInputError):
            exceptional_point(-1.0)

    def test_renormalized_frequency(self):
        G = renormalized_frequency(0.5, 1.0)
        assert G.real == pytest.approx(math.sqrt(0.25 - 0.0625), rel=1e-14)
        assert G.imag == 0.0
        G = renormalized_frequency(0.1, 1.0)  # below the exceptional point
        assert G.real == 0.0
        assert G.imag != 0.0

    @pytest.mark.parametrize("g", [0.3, 0.5, 1.0, 5.0])
    def test_energy_optimum_matches_grid_argmax(self, g):
        p = LinearParams(Omega=0.1, g=g, gamma=1.0)
        t_e = optimal_time_energy(p)
        G = math.sqrt(g * g - 0.0625)
        assert t_e == pytest.approx(math.pi / G, rel=1e-14)
        t = np.linspace(0.5 * t_e, 1.5 * t_e, 20001)
        e = energy_linear(t, p)
        i = int(np.argmax(e))
        assert t[i] == pytest.approx(t_e, rel=1e-3)
        assert optimal_energy(p) == pytest.approx(e[i], rel=1e-7)

    def test_below_exceptional_point_is_asymptotic(self):
        p = LinearParams(Omega=0.1, g=0.2, gamma=1.0)
        assert optimal_time_energy(p) == INF_TIME
        assert optimal_energy(p) == pytest.approx(steady_energy_linear(p))

    def test_power_optimum_is_a_maximum(self):
        p = LinearParams(Omega=0.1, g=0.5, gamma=1.0)
        t_p = optimal_time_power(p)
        p_max = max_power(p)
        assert p_max == pytest.approx(energy_linear(t_p, p) / t_p, rel=1e-12)
        for factor in (0.9, 1.1):
            t = factor * t_p
            assert energy_linear(t, p) / t < p_max

    def test_power_optimum_matches_grid_search(self):
        p = LinearParams(Omega=0.1, g=2.0, gamma=1.0)
        t = np.linspace(1e-3, 20.0, 200001)
        pw = energy_linear(t, p) / t
        i = int(np.argmax(pw))
        assert optimal_time_power(p) == pytest.approx(t[i], rel=1e-3)
        assert max_power(p) == pytest.approx(pw[i], rel=1e-8)

    def test_power_requires_drive(self):
        with pytest.raises(InvalidInputError):
            optimal_time_power(LinearParams(Omega=0.0, g=1.0, gamma=1.0))


def test_invalid_params_rejected():
    with pytest.raises(InvalidInputError):
        LinearParams(g=0.0)
    with pytest.raises(InvalidInputError):
        LinearParams(g=1.0, gamma=-0.1)
    with pytest.raises(InvalidInputError):
        LinearParams(g=1.0, omega_b=0.0)
    with pytest.raises(InvalidInputError):
        LinearParams(g=float("nan"))
