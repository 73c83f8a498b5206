"""Single-mode Gaussian-state bookkeeping for the battery mode.

Converts ladder-operator moments into quadrature variances, the covariance
matrix determinant, passive energy and ergotropy.  All functions are pure
and accept scalars or arrays (of one shape), so a whole trajectory is
evaluated in one call.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, UnphysicalStateError

# Covariance determinants in [1 - DET_GUARD, 1) are clamped to 1; anything
# lower is treated as unphysical rather than as round-off.
DET_GUARD = 1e-9


@dataclass(frozen=True)
class MomentState:
    """First and second ladder-operator moments of both modes.

    ``a_*`` refers to the charger mode, ``b_*`` to the battery mode.
    ``a_num``/``b_num`` are mean occupations, ``a_sq``/``b_sq`` the
    anomalous moments <aa> and <bb>.  Each field is a scalar (one instant)
    or an array over the samples of a trajectory, all of one shape.
    """

    a_mean: complex = 0.0
    a_num: float = 0.0
    a_sq: complex = 0.0
    b_mean: complex = 0.0
    b_num: float = 0.0
    b_sq: complex = 0.0

    @classmethod
    def from_array(cls, moments) -> "MomentState":
        """Fields from a (..., 6) complex array with columns <a>, <a'a>,
        <aa>, <b>, <b'b>, <bb>, the layout of ``moments()`` on every
        trajectory."""
        m = np.asarray(moments)
        return cls(a_mean=m[..., 0], a_num=m[..., 1].real, a_sq=m[..., 2],
                   b_mean=m[..., 3], b_num=m[..., 4].real, b_sq=m[..., 5])


@dataclass(frozen=True)
class QuadratureStats:
    """Battery-mode quadrature variances, coherence and determinant."""

    var_x: float
    var_p: float
    coherence: float
    det: float


def _first_non_finite(v):
    bad = ~np.isfinite(v)
    return np.asarray(v)[bad][0] if np.any(bad) else None


def _check_finite(*values):
    for v in values:
        bad = _first_non_finite(v)
        if bad is not None:
            raise InvalidInputError(f"non-finite moment value: {bad}")


def _battery_cumulants(m: MomentState):
    """Centred occupation <b'b> - |<b>|^2 and the real and imaginary parts
    of the anomalous cumulant c = <bb> - <b>^2.

    Only real products and np.square: numpy's vectorised complex product and
    a scalar's ``**`` round differently from the same operations on arrays,
    and every function here must give the same bits for a scalar and for
    an array.  hypot matches Python's abs(complex) bit for bit.
    """
    _check_finite(m.b_mean, m.b_num, m.b_sq)
    br, bi = np.real(m.b_mean), np.imag(m.b_mean)
    centered = m.b_num - np.square(np.hypot(br, bi))
    c_re = np.real(m.b_sq) - (br * br - bi * bi)
    c_im = np.imag(m.b_sq) - 2.0 * br * bi
    return centered, c_re, c_im


def quadrature_stats(m: MomentState) -> QuadratureStats:
    """Battery-mode quadrature statistics from ladder-operator moments.

    Returns (sigma_x^2, sigma_p^2, xi, D), with the coherence xi = Im c of
    the anomalous cumulant c = <bb> - <b>^2.
    """
    centered, c_re, c_im = _battery_cumulants(m)
    var_x = 0.5 * (1.0 + 2.0 * centered + 2.0 * c_re)
    var_p = 0.5 * (1.0 + 2.0 * centered - 2.0 * c_re)
    return QuadratureStats(var_x=var_x, var_p=var_p, coherence=c_im,
                           det=covariance_determinant(m))


def covariance_determinant(m: MomentState):
    """Covariance matrix determinant D of the battery mode.

    D = (1 + 2<b'b> - 2<b'><b>)^2 - 4|<bb> - <b>^2|^2.  For states with
    vanishing first moments this reduces to (1 + 2<b'b>)^2 - 4|<bb>|^2.
    """
    centered, c_re, c_im = _battery_cumulants(m)
    return np.square(1.0 + 2.0 * centered) - 4.0 * np.square(np.hypot(c_re, c_im))


def _clamped_det(det):
    bad = _first_non_finite(det)
    if bad is not None:
        raise InvalidInputError(f"non-finite determinant: {bad}")
    if np.any(det < 1.0 - DET_GUARD):
        raise UnphysicalStateError(
            f"covariance determinant {np.min(det)} below the Heisenberg bound"
        )
    return np.maximum(det, 1.0)


def passive_energy(omega_b: float, det):
    """Passive-state energy omega_b (sqrt(D) - 1)/2 of a Gaussian state."""
    det = _clamped_det(det)
    return omega_b * (np.sqrt(det) - 1.0) / 2.0


def ergotropy_gaussian(energy, passive):
    """Extractable work E - E_passive; may be tiny-negative from round-off."""
    _check_finite(energy, passive)
    return energy - passive
