"""Exact reference route: truncated two-mode Fock-space Lindblad integration.

The rotated-frame Hamiltonians are time independent, so the master equation
is integrated as a linear ODE for the vectorized density matrix using a
sparse Liouvillian.  Tensor layout: charger index slow, battery index fast,
with row-major (C-order) vectorization, i.e. basis state |n_a, n_b> sits at
flat index n_a * cutoff_b + n_b.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from .errors import (
    ConvergenceError,
    InvalidInputError,
    UnphysicalStateError,
)
from .gaussian import MomentState

TOP_LEVEL_TOL = 1e-6  # max allowed population of the highest retained level


@dataclass(frozen=True)
class FockConfig:
    """Truncation and integration controls for the exact route."""

    cutoff_a: int = 8
    cutoff_b: int = 8
    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    convergence_rel: float = 1e-4

    def __post_init__(self):
        if self.cutoff_a < 2 or self.cutoff_b < 2:
            raise InvalidInputError("cutoffs must be at least 2")
        if not (0 < self.rel_tol < 1 and 0 < self.abs_tol < 1):
            raise InvalidInputError("tolerances must lie in (0, 1)")


def destroy(n: int) -> sp.csr_matrix:
    """Annihilation operator on an n-level truncated Fock space."""
    return sp.diags(np.sqrt(np.arange(1, n)), 1, format="csr").astype(complex)


@lru_cache(maxsize=8)
def _mode_operators(cutoff_a: int, cutoff_b: int):
    a = sp.kron(destroy(cutoff_a), sp.identity(cutoff_b), format="csr")
    b = sp.kron(sp.identity(cutoff_a), destroy(cutoff_b), format="csr")
    return a, b


def mode_operators(c: FockConfig):
    """Two-mode annihilation operators (a, b) on the product space.

    Cached per cutoff pair; the returned matrices are shared, so callers
    must not modify them in place.
    """
    return _mode_operators(c.cutoff_a, c.cutoff_b)


@lru_cache(maxsize=8)
def _moment_weights(cutoff_a: int, cutoff_b: int) -> np.ndarray:
    """Dense (dim^2, 6) matrix W with columns vec(O^T) for O = a, a'a, aa,
    b, b'b, bb, so that vec(rho) @ W gives all six Tr(rho O) at once."""
    a, b = _mode_operators(cutoff_a, cutoff_b)
    ops = (a, a.conj().T @ a, a @ a, b, b.conj().T @ b, b @ b)
    W = np.column_stack([op.T.toarray().reshape(-1) for op in ops])
    W.setflags(write=False)  # shared through the cache
    return W


def build_hamiltonian(kind: str, p, c: FockConfig) -> sp.csr_matrix:
    """Rotated-frame Hamiltonian on the truncated product space.

    linear:    g (a'b + b'a) + Omega (a' + a)
    nonlinear: J (a'bb + b'b'a) + Omega (a' + a)
    """
    a, b = mode_operators(c)
    ad, bd = a.conj().T, b.conj().T
    if kind == "linear":
        coupling = p.g * (ad @ b + bd @ a)
    elif kind == "nonlinear":
        coupling = p.J * (ad @ b @ b + bd @ bd @ a)
    else:
        raise InvalidInputError(f"unknown coupling kind {kind!r}")
    return (coupling + p.Omega * (ad + a)).tocsr()


def lindblad_rhs(rho: np.ndarray, H, gamma: float, c: FockConfig) -> np.ndarray:
    """i[rho, H] + (gamma/2)(2 a rho a' - a'a rho - rho a'a)."""
    dim = c.cutoff_a * c.cutoff_b
    if rho.shape != (dim, dim):
        raise InvalidInputError(f"density matrix shape {rho.shape} != ({dim}, {dim})")
    a, _ = mode_operators(c)
    ad = a.conj().T
    n_a = ad @ a
    drho = 1j * (rho @ H - H @ rho)
    drho += gamma / 2.0 * (2.0 * (a @ rho @ ad) - n_a @ rho - rho @ n_a)
    return np.asarray(drho)


def _liouvillian(H, gamma: float, c: FockConfig) -> sp.csr_matrix:
    """Superoperator L with vec(drho) = L vec(rho) for C-order vec."""
    dim = c.cutoff_a * c.cutoff_b
    eye = sp.identity(dim, format="csr")
    a, _ = mode_operators(c)
    ad = a.conj().T
    n_a = (ad @ a).tocsr()
    # row-major: vec(A X B) = (A kron B^T) vec(X)
    L = 1j * (sp.kron(eye, H.T) - sp.kron(H, eye))
    L += gamma / 2.0 * (
        2.0 * sp.kron(a, a.conj())
        - sp.kron(n_a, eye)
        - sp.kron(eye, n_a.T)
    )
    return L.tocsr()


class FockTrajectory:
    """Sampled density-matrix trajectory on the truncated product space.

    ``states`` is the (n_samples, dim^2) stack of row-major vec(rho) that the
    propagator returns; ``rhos`` views it as (n_samples, dim, dim).  Every
    observable is read from the stack in one batched pass.
    """

    kind = "fock"

    def __init__(self, times, states, params, config, coupling, cutoff_ok):
        self.times = np.asarray(times, dtype=float)
        self.states = states
        self.params = params
        self.config = config
        self.coupling = coupling
        self.cutoff_ok = bool(cutoff_ok)
        self._moments = None

    @property
    def omega_b(self):
        return self.params.omega_b

    @property
    def rhos(self) -> np.ndarray:
        dim = self.config.cutoff_a * self.config.cutoff_b
        return self.states.reshape(-1, dim, dim)

    def moments(self) -> np.ndarray:
        """(n_samples, 6) complex <a>, <a'a>, <aa>, <b>, <b'b>, <bb>."""
        if self._moments is None:
            c = self.config
            self._moments = self.states @ _moment_weights(c.cutoff_a, c.cutoff_b)
        return self._moments

    def battery_population(self) -> np.ndarray:
        return np.real(self.moments()[:, 4])

    def moment_states(self):
        return [
            MomentState(
                a_mean=complex(m[0]),
                a_num=float(m[1].real),
                a_sq=complex(m[2]),
                b_mean=complex(m[3]),
                b_num=float(m[4].real),
                b_sq=complex(m[5]),
                time=float(t),
            )
            for m, t in zip(self.moments(), self.times)
        ]

    def reduced_battery_states(self) -> np.ndarray:
        """(n_samples, cutoff_b, cutoff_b) partial traces over the charger."""
        c = self.config
        r5 = self.states.reshape(-1, c.cutoff_a, c.cutoff_b, c.cutoff_a, c.cutoff_b)
        return np.einsum("nijik->njk", r5)


def expectation(rho: np.ndarray, op) -> complex:
    """Tr(rho O) via a sparse contraction."""
    return complex((op.multiply(rho.T)).sum())


def check_density_matrix(rho: np.ndarray):
    """Hermiticity / trace / positivity guards on a sampled state."""
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise UnphysicalStateError("density matrix not Hermitian within 1e-10")
    if abs(np.trace(rho).real - 1.0) > 1e-8:
        raise UnphysicalStateError("density matrix trace deviates from 1")
    w = np.linalg.eigvalsh(rho)
    if w.min() < -1e-8:
        raise UnphysicalStateError(f"negative eigenvalue {w.min():.2e}")


def vacuum_state(c: FockConfig) -> np.ndarray:
    dim = c.cutoff_a * c.cutoff_b
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def evolve(
    kind: str,
    p,
    c: FockConfig,
    t_end: float,
    n_samples: int = 129,
    initial_state: np.ndarray | None = None,
    validate: bool = False,
) -> FockTrajectory:
    """Propagate the rotated-frame master equation and sample uniformly.

    The Liouvillian is time independent, so the evolution is computed as
    the exact action of the matrix exponential (Al-Mohy/Higham algorithm);
    the result is accurate to machine precision, below the configured
    integrator tolerances.  Starts from the two-mode vacuum unless
    ``initial_state`` is given.  Sets ``cutoff_ok = False`` when the top
    retained Fock level of either mode is populated beyond
    ``TOP_LEVEL_TOL`` at any sample.
    """
    if t_end <= 0:
        raise InvalidInputError("t_end must be positive")
    H = build_hamiltonian(kind, p, c)
    L = _liouvillian(H, p.gamma, c).tocsc()
    rho0 = vacuum_state(c) if initial_state is None else np.asarray(initial_state, dtype=complex)
    t_grid = np.linspace(0.0, t_end, n_samples)
    # expm_multiply's norm estimator (onenormest) draws from numpy's global
    # RNG: give it a fixed stream so results do not depend on the caller's
    # RNG state, and leave that state as it was.
    rng_state = np.random.get_state()
    np.random.seed(0)
    try:
        out = expm_multiply(
            L, rho0.reshape(-1), start=0.0, stop=t_end, num=n_samples, endpoint=True
        )
    finally:
        np.random.set_state(rng_state)
    # any non-finite entry makes the sum non-finite; summing avoids a
    # stack-sized boolean temporary
    if not np.isfinite(out.sum()):
        raise ConvergenceError("Lindblad propagation produced non-finite values")
    dim = c.cutoff_a * c.cutoff_b
    pop = np.real(out[:, :: dim + 1]).reshape(-1, c.cutoff_a, c.cutoff_b)
    cutoff_ok = not (
        np.any(pop[:, -1, :].sum(axis=1) > TOP_LEVEL_TOL)
        or np.any(pop[:, :, -1].sum(axis=1) > TOP_LEVEL_TOL)
    )
    traj = FockTrajectory(t_grid, out, p, c, kind, cutoff_ok)
    if validate:
        for rho in traj.rhos:
            check_density_matrix(rho)
    return traj


def extract_moments(rho: np.ndarray, c: FockConfig, time: float = 0.0) -> MomentState:
    """All six first/second moments of both modes by trace contractions."""
    a, b = mode_operators(c)
    ad, bd = a.conj().T, b.conj().T
    return MomentState(
        a_mean=expectation(rho, a),
        a_num=np.real(expectation(rho, ad @ a)),
        a_sq=expectation(rho, a @ a),
        b_mean=expectation(rho, b),
        b_num=np.real(expectation(rho, bd @ b)),
        b_sq=expectation(rho, b @ b),
        time=time,
    )


def reduced_battery_state(rho: np.ndarray, c: FockConfig) -> np.ndarray:
    """Partial trace over the charger (slow) index."""
    r4 = rho.reshape(c.cutoff_a, c.cutoff_b, c.cutoff_a, c.cutoff_b)
    return np.einsum("ijik->jk", r4)


def exact_ergotropy(rho_b: np.ndarray, omega_b: float):
    """Ergotropy of the battery mode without the Gaussian assumption.

    Eigenvalues sorted in descending order are paired with ascending Fock
    energies n * omega_b to form the passive energy.  ``rho_b`` is one
    reduced state (returns a float) or a stack of them with shape
    (n, cutoff_b, cutoff_b) (returns an array of n values).
    """
    rho_b = np.asarray(rho_b, dtype=complex)
    if np.max(np.abs(rho_b - rho_b.conj().swapaxes(-1, -2))) > 1e-8:
        raise UnphysicalStateError("reduced state not Hermitian")
    w = np.linalg.eigvalsh(rho_b)  # ascending along the last axis
    if w.min() < -1e-8:
        raise UnphysicalStateError(f"negative eigenvalue {w.min():.2e}")
    w = np.clip(w, 0.0, None)
    levels = omega_b * np.arange(rho_b.shape[-1])
    energy = np.sum(np.real(np.diagonal(rho_b, axis1=-2, axis2=-1)) * levels, axis=-1)
    passive = np.sum(w[..., ::-1] * levels, axis=-1)
    erg = energy - passive
    return float(erg) if erg.ndim == 0 else erg


def converge_cutoffs(
    kind: str,
    p,
    c: FockConfig,
    t_end: float,
    max_doublings: int = 4,
) -> FockConfig:
    """Grow the truncation until final-time energy and ergotropy settle.

    The battery cutoff doubles and the charger cutoff grows by 4 per round;
    convergence is declared when both observables change by less than
    ``convergence_rel`` (relative, with an absolute floor) between runs.
    """

    def final_observables(cfg):
        traj = evolve(kind, p, cfg, t_end, n_samples=17)
        energy = p.omega_b * float(traj.battery_population()[-1])
        erg = exact_ergotropy(traj.reduced_battery_states()[-1], p.omega_b)
        return energy, erg

    if p.Omega == 0.0:
        return c
    prev = final_observables(c)
    cfg = c
    for _ in range(max_doublings):
        nxt = replace(cfg, cutoff_a=cfg.cutoff_a + 4, cutoff_b=2 * cfg.cutoff_b)
        cur = final_observables(nxt)
        scale = max(abs(prev[0]), abs(cur[0]), 1e-12)
        if (
            abs(cur[0] - prev[0]) / scale < c.convergence_rel
            and abs(cur[1] - prev[1]) / scale < c.convergence_rel
        ):
            return cfg
        cfg, prev = nxt, cur
    raise ConvergenceError(
        f"cutoffs not converged after {max_doublings} doublings (last {cfg})"
    )


def conserved_charge_drift(p, c: FockConfig, t_end: float) -> float:
    """Max drift of <2 a'a + b'b> for the undriven dissipationless nonlinear
    model started from |1, 0>."""
    if p.Omega != 0.0 or p.gamma != 0.0:
        raise InvalidInputError("conserved-charge check requires Omega = gamma = 0")
    dim = c.cutoff_a * c.cutoff_b
    rho0 = np.zeros((dim, dim), dtype=complex)
    idx = 1 * c.cutoff_b + 0  # |n_a=1, n_b=0>
    rho0[idx, idx] = 1.0
    traj = evolve("nonlinear", p, c, t_end, n_samples=101, initial_state=rho0)
    m = traj.moments()
    vals = 2.0 * m[:, 1].real + m[:, 4].real
    return float(np.max(np.abs(vals - vals[0])))
