"""Second-order cumulant description of the nonlinearly coupled battery.

Eight real components close the hierarchy: the real and imaginary parts of
<a>, <aa> and <bb>, and the populations <a'a> and <b'b>.  The battery first
moments vanish identically, and the covariance determinant of the battery
mode is a constant of motion (equal to one for a vacuum start), which the
integrator monitors.

The equations are integrated with LSODA (ODEPACK), which steps and
interpolates onto the output grid in compiled code and enters Python only
for the right-hand side.  It is called through scipy's compiled extension
``_odepack``, loaded on its own (``scipyext``): importing it through
``scipy.integrate`` would run that package's ``__init__``, which loads
scipy.optimize, scipy.special and more that no route uses.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InvalidInputError
from .gaussian import MomentState, QuadratureStats, covariance_determinant
from .scipyext import load_extension

DET_DRIFT_TOL = 1e-8
RTOL, ATOL = 1e-12, 1e-14  # integrator tolerances of the first attempt
# the retry tightens both by this factor; LSODA refuses rtol = 1e-14 as
# "Excess accuracy requested", so 10 is as far as it goes
RETRY_TIGHTEN = 10.0
# LSODA's step cap per output interval (default 500) would fail a sparse
# grid; the largest value it accepts removes the cap
MAX_STEPS = np.iinfo(np.int32).max
_odepack = load_extension("scipy.integrate._odepack")


@dataclass(frozen=True)
class NonlinearParams:
    """Physical rates of the nonlinear model, in units of one reference rate."""

    omega_b: float = 1.0
    Omega: float = 0.25
    J: float = 1.0
    gamma: float = 0.0

    def __post_init__(self):
        vals = (self.omega_b, self.Omega, self.J, self.gamma)
        if not all(np.isfinite(vals)):
            raise InvalidInputError(f"non-finite parameter in {self!r}")
        if self.J <= 0:
            raise InvalidInputError("coupling J must be positive")
        if self.omega_b <= 0 or self.Omega < 0 or self.gamma < 0:
            raise InvalidInputError(f"invalid rates in {self!r}")


def cumulant_rhs(t, y, p: NonlinearParams):
    """Time derivatives of the cumulant state vector y, whose components are
    Re<a>, Im<a>, <a'a>, <b'b>, Re<aa>, Im<aa>, Re<bb>, Im<bb>:
        d<a>/dt  = -(gamma/2) <a> - i J <bb> - i Omega
        d<aa>/dt = -gamma <aa> - 2i Omega <a> - 2i J <a><bb>
        d<bb>/dt = -2i J <a> (1 + 2 <b'b>)
    Called directly by the integrator, so it reads y once, into Python
    floats, and writes each part out in real arithmetic with the sums and
    products that Python's complex arithmetic takes: every nonzero value is
    the complex form's to the bit (a zero may differ in sign).
    """
    gamma, J, Omega = p.gamma, p.J, p.Omega
    y0, y1, y2, y3, y4, y5, y6, y7 = y.tolist()
    flow = J * (y0 * y7 - y1 * y6)  # Im(<a'><bb>)
    return (
        -(gamma / 2.0) * y0 + J * y7,
        -(gamma / 2.0) * y1 - J * y6 - Omega,
        -gamma * y2 + 2.0 * flow - 2.0 * Omega * y1,
        -4.0 * flow,
        -gamma * y4 + 2.0 * Omega * y1 + (2.0 * J * y1 * y6 + 2.0 * J * y0 * y7),
        -gamma * y5 - 2.0 * Omega * y0 - (2.0 * J * y0 * y6 - 2.0 * J * y1 * y7),
        2.0 * J * y1 + 4.0 * J * y1 * y3,
        -2.0 * J * y0 - 4.0 * J * y0 * y3,
    )


class CumulantTrajectory:
    """Uniformly sampled cumulant trajectory.

    ``states`` is the (n_samples, 8) array of integrator state vectors in the
    component order of :func:`cumulant_rhs`.
    """

    def __init__(self, times, states, params):
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states, dtype=float)
        self.params = params

    @property
    def omega_b(self):
        return self.params.omega_b

    def moments(self) -> np.ndarray:
        """(n_samples, 6) complex <a>, <a'a>, <aa>, <b>, <b'b>, <bb>; the
        <b> column is zero."""
        y = self.states
        out = np.zeros((y.shape[0], 6), dtype=complex)
        out[:, 0] = y[:, 0] + 1j * y[:, 1]
        out[:, 1] = y[:, 2]
        out[:, 2] = y[:, 4] + 1j * y[:, 5]
        out[:, 4] = y[:, 3]
        out[:, 5] = y[:, 6] + 1j * y[:, 7]
        return out

    def battery_population(self) -> np.ndarray:
        return np.maximum(self.states[:, 3], 0.0)

    def determinants(self) -> np.ndarray:
        """Battery covariance determinant at every sample (conserved)."""
        return covariance_determinant(MomentState.from_array(self.moments()))


def integrate_cumulant(p: NonlinearParams, t_end: float,
                       n_samples: int = 256) -> CumulantTrajectory:
    """Integrate the cumulant equations from vacuum up to ``t_end``.

    LSODA with relative/absolute tolerances ``RTOL``/``ATOL``, sampled on a
    uniform grid of ``n_samples`` points.  If the conserved determinant
    drifts beyond ``DET_DRIFT_TOL`` the run is repeated once with both
    tolerances tightened by ``RETRY_TIGHTEN``.  ``t_end`` must be finite and
    positive.  A failed integration or a non-finite state raises
    ``ConvergenceError``; it never only warns.
    """
    if not (np.isfinite(t_end) and t_end > 0):
        raise InvalidInputError("t_end must be finite and positive")
    if n_samples < 2:
        raise InvalidInputError("need at least 2 samples")

    t_grid = np.linspace(0.0, t_end, n_samples)
    for attempt, (rt, at) in enumerate(
            [(RTOL, ATOL), (RTOL / RETRY_TIGHTEN, ATOL / RETRY_TIGHTEN)]):
        # the arguments scipy.integrate.odeint passes, so that the states
        # are its to the bit
        y, _, istate = _odepack.odeint(
            cumulant_rhs, np.zeros(8), t_grid.copy(), (p,), ml=-1, mu=-1, full_output=1,
            rtol=rt, atol=at, mxstep=MAX_STEPS, mxordn=12, mxords=5, tfirst=1)
        if istate != 2:
            raise ConvergenceError(f"cumulant integration failed: LSODA istate {istate}")
        if not np.isfinite(y).all():
            # LSODA reports success on a NaN right-hand side
            raise ConvergenceError("cumulant integration produced a non-finite state")
        traj = CumulantTrajectory(t_grid, y, p)
        drift = np.max(np.abs(traj.determinants() - 1.0))
        if drift <= DET_DRIFT_TOL:
            return traj
        if attempt == 0:
            warnings.warn(
                f"determinant drift {drift:.2e} above tolerance; re-integrating",
                RuntimeWarning,
            )
    raise ConvergenceError(f"determinant drift {drift:.2e} persists after retry")


def steady_state_nonlinear(p: NonlinearParams) -> MomentState:
    """Fixed point of the cumulant equations (gamma-independent)."""
    r = 2.0 * p.Omega / p.J
    n_b = (math.sqrt(1.0 + r * r) - 1.0) / 2.0
    return MomentState(b_num=n_b, b_sq=-p.Omega / p.J)


def steady_energy_nonlinear(p: NonlinearParams) -> float:
    """Steady-state stored energy (omega_b/2)(sqrt(1 + (2 Omega/J)^2) - 1)."""
    return p.omega_b * steady_state_nonlinear(p).b_num


def steady_variances(p: NonlinearParams) -> QuadratureStats:
    """Steady-state quadrature variances; x is squeezed for any Omega > 0."""
    r = 2.0 * p.Omega / p.J
    root = math.sqrt(1.0 + r * r)
    # (root - r) = 1/(root + r): avoids cancellation for strong driving and
    # keeps the uncertainty product at 1/4
    var_p0 = 0.5 * (root + r)
    # snap the pair (by a few ulp at most) to representable values whose
    # rounded product is exactly 1/4
    for kp in sorted(range(-4, 5), key=abs):
        var_p = var_p0
        for _ in range(abs(kp)):
            var_p = math.nextafter(var_p, math.inf if kp > 0 else 0.0)
        var_x = 0.25 / var_p
        for kx in sorted(range(-8, 9), key=abs):
            v = var_x
            for _ in range(abs(kx)):
                v = math.nextafter(v, math.inf if kx > 0 else 0.0)
            if v * var_p == 0.25:
                return QuadratureStats(var_x=v, var_p=var_p,
                                       coherence=0.0, det=1.0)
    return QuadratureStats(var_x=var_x, var_p=var_p0, coherence=0.0, det=1.0)
