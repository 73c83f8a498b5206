"""Unit tests for the Gaussian-state bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvbattery.errors import InvalidInputError, UnphysicalStateError
from cvbattery.gaussian import (
    DET_GUARD,
    MomentState,
    covariance_determinant,
    ergotropy_gaussian,
    passive_energy,
    quadrature_stats,
)


def test_vacuum_moments():
    qs = quadrature_stats(MomentState())
    assert qs.var_x == 0.5
    assert qs.var_p == 0.5
    assert qs.coherence == 0.0
    assert qs.det == 1.0


@pytest.mark.parametrize("beta", [0.7, -1.3 + 0.4j, 2.0j])
def test_coherent_state_is_minimum_uncertainty(beta):
    m = MomentState(b_mean=beta, b_num=abs(beta) ** 2, b_sq=beta * beta)
    qs = quadrature_stats(m)
    assert qs.var_x == pytest.approx(0.5, abs=1e-14)
    assert qs.var_p == pytest.approx(0.5, abs=1e-14)
    assert covariance_determinant(m) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("r", [0.2, 0.8, 1.5])
def test_squeezed_vacuum_variances(r):
    # <b'b> = sinh^2 r, <bb> = -sinh r cosh r squeezes x below 1/2
    m = MomentState(b_num=math.sinh(r) ** 2, b_sq=-math.sinh(r) * math.cosh(r))
    qs = quadrature_stats(m)
    assert qs.var_x == pytest.approx(0.5 * math.exp(-2.0 * r), rel=1e-12)
    assert qs.var_p == pytest.approx(0.5 * math.exp(2.0 * r), rel=1e-12)
    assert qs.det == pytest.approx(1.0, abs=1e-10)
    assert qs.coherence == pytest.approx(0.0, abs=1e-12)


def test_coherence_from_imaginary_anomalous_moment():
    m = MomentState(b_num=1.0, b_sq=0.5j)
    qs = quadrature_stats(m)
    # xi = Im<bb> for vanishing first moments
    assert qs.coherence == pytest.approx(0.5, rel=1e-14)
    assert qs.var_x == pytest.approx(1.5)
    assert qs.var_p == pytest.approx(1.5)


def test_thermal_state_det_purity_passive():
    n_bar = 0.75
    m = MomentState(b_num=n_bar)
    det = covariance_determinant(m)
    assert det == pytest.approx((1.0 + 2.0 * n_bar) ** 2, rel=1e-14)
    # a thermal state is passive: all its energy is locked
    omega = 1.3
    assert passive_energy(omega, det) == pytest.approx(omega * n_bar, rel=1e-12)
    assert ergotropy_gaussian(omega * n_bar, passive_energy(omega, det)) == (
        pytest.approx(0.0, abs=1e-12)
    )


def test_coherent_state_energy_fully_extractable():
    beta = 1.2 - 0.3j
    m = MomentState(b_mean=beta, b_num=abs(beta) ** 2, b_sq=beta * beta)
    det = covariance_determinant(m)
    omega = 2.0
    energy = omega * m.b_num
    assert ergotropy_gaussian(energy, passive_energy(omega, det)) == pytest.approx(
        energy, rel=1e-12
    )


def test_first_moments_subtracted_in_determinant():
    # displacing a thermal state must not change D
    n_bar, beta = 0.4, 0.9 + 0.2j
    displaced = MomentState(
        b_mean=beta, b_num=n_bar + abs(beta) ** 2, b_sq=beta * beta
    )
    assert covariance_determinant(displaced) == pytest.approx(
        (1.0 + 2.0 * n_bar) ** 2, rel=1e-12
    )


def test_random_physical_moments_obey_heisenberg_bound():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n_bar = rng.uniform(0.0, 3.0)
        r = rng.uniform(0.0, 1.5)
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        beta = rng.normal(size=2) @ np.array([1.0, 1.0j])
        # squeezed thermal state, then displaced
        n = (n_bar + 0.5) * math.cosh(2.0 * r) - 0.5
        c = -(n_bar + 0.5) * math.sinh(2.0 * r) * phase
        m = MomentState(b_mean=beta, b_num=n + abs(beta) ** 2, b_sq=c + beta * beta)
        det = covariance_determinant(m)
        assert det >= 1.0 - 1e-9
        assert det == pytest.approx((1.0 + 2.0 * n_bar) ** 2, rel=1e-10)
        qs = quadrature_stats(m)
        assert qs.var_x * qs.var_p - qs.coherence**2 == pytest.approx(
            det / 4.0, rel=1e-9
        )


def test_unphysical_determinant_raises():
    with pytest.raises(UnphysicalStateError):
        passive_energy(1.0, 0.5)


def test_round_off_determinant_clamped():
    assert passive_energy(1.0, 1.0 - 1e-12) == 0.0


def test_non_finite_inputs_rejected():
    with pytest.raises(InvalidInputError):
        quadrature_stats(MomentState(b_num=float("nan")))
    with pytest.raises(InvalidInputError):
        covariance_determinant(MomentState(b_sq=complex(float("inf"), 0.0)))


# --- array path: one call over many states equals the scalar calls --------

_state = st.tuples(
    st.floats(0.0, 3.0),  # thermal occupation n_bar
    st.floats(0.0, 1.5),  # squeezing r
    st.floats(0.0, 2.0 * math.pi),  # squeezing angle phi
    st.complex_numbers(max_magnitude=2.0),  # displacement beta
)


def _physical_moments(states):
    """Moment arrays of displaced squeezed thermal states."""
    n_bar, r, phi, beta = (np.array(x) for x in zip(*states))
    n = (n_bar + 0.5) * np.cosh(2.0 * r) - 0.5
    c = -(n_bar + 0.5) * np.sinh(2.0 * r) * np.exp(1j * phi)
    return MomentState(b_mean=beta.astype(complex), b_num=n + np.abs(beta) ** 2,
                       b_sq=c + beta * beta)


def _scalar(m, i):
    return MomentState(b_mean=complex(m.b_mean[i]), b_num=float(m.b_num[i]),
                       b_sq=complex(m.b_sq[i]))


def _assert_elementwise(array_result, scalar_results):
    expected = np.array(scalar_results, dtype=float)
    assert array_result.shape == expected.shape
    assert np.all(np.abs(array_result - expected) <= 1e-15 * np.abs(expected))


@settings(deadline=None, max_examples=60)
@given(st.lists(_state, min_size=1, max_size=12), st.floats(0.1, 5.0))
def test_array_calls_match_scalar_calls(states, omega):
    m = _physical_moments(states)
    scalars = [_scalar(m, i) for i in range(len(states))]
    qs = quadrature_stats(m)
    for field in ("var_x", "var_p", "coherence", "det"):
        _assert_elementwise(getattr(qs, field),
                            [getattr(quadrature_stats(s), field) for s in scalars])
    det = covariance_determinant(m)
    _assert_elementwise(det, [covariance_determinant(s) for s in scalars])
    passive = passive_energy(omega, det)
    _assert_elementwise(passive, [passive_energy(omega, d) for d in det])
    energy = omega * m.b_num
    _assert_elementwise(ergotropy_gaussian(energy, passive),
                        [ergotropy_gaussian(e, pe) for e, pe in zip(energy, passive)])


@settings(deadline=None, max_examples=30)
@given(st.lists(_state, min_size=1, max_size=12), st.data())
def test_one_bad_sample_fails_the_array(states, data):
    m = _physical_moments(states)
    i = data.draw(st.integers(0, len(states) - 1))
    b_num = m.b_num.copy()
    b_num[i] = np.nan
    nan_state = MomentState(b_mean=m.b_mean, b_num=b_num, b_sq=m.b_sq)
    with pytest.raises(InvalidInputError):
        quadrature_stats(nan_state)
    with pytest.raises(InvalidInputError):
        covariance_determinant(nan_state)
    # <b'b> = 0 with |<bb>| = 0.3 gives D = 1 - 4 (0.3)^2 = 0.64
    b_mean, b_num, b_sq = m.b_mean.copy(), m.b_num.copy(), m.b_sq.copy()
    b_mean[i], b_num[i], b_sq[i] = 0.0, 0.0, 0.3
    det = covariance_determinant(MomentState(b_mean=b_mean, b_num=b_num, b_sq=b_sq))
    assert det[i] < 1.0 - DET_GUARD
    with pytest.raises(UnphysicalStateError):
        passive_energy(1.0, det)
