"""Exact reference route: truncated two-mode Fock-space Lindblad integration.

The rotated-frame Hamiltonians are time independent, so the master equation
is integrated as a linear ODE for the vectorized density matrix using a
sparse Liouvillian, by the action of its exponential.  That is computed by
``expm_multiply``: the per-sample branch of scipy's Al-Mohy/Higham
propagator, run in this module with scipy's arithmetic but without its
per-term overhead.  Tensor layout: charger index slow, battery index fast,
with row-major (C-order) vectorization, i.e. basis state |n_a, n_b> sits at
flat index n_a * cutoff_b + n_b.

The propagation runs in real arithmetic, in the frame R = V'rho V with
V = diag(i^n_a).  Every Hamiltonian term of both couplings changes n_a by
exactly one and has a real Fock-basis coefficient, and V'aV = i a, so V'HV is
i times a real matrix and the commutator part of the Liouvillian turns real;
the dissipator D[a] is unchanged, as V commutes with a'a and a R a' picks up
i * (-i) = 1.  The change of frame multiplies the vec(rho) entry (k, l) by
i^(n_a(l) - n_a(k)), and multiplying by a power of i is exact in floating
point, so the frame costs no accuracy.  A real start (the vacuum, any
Fock-diagonal state) gives a real R at all times.
"""

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
# scipy's (degree, step count) selection; the only private scipy import of the
# package, pinned by the bit-identity tests of ``expm_multiply`` and by the
# scipy version bound in pyproject.toml
from scipy.sparse.linalg._expm_multiply import LazyOperatorNormInfo, _fragment_3_1

from .errors import (
    ConvergenceError,
    InvalidInputError,
    UnphysicalStateError,
)
from .gaussian import MomentState

TOP_LEVEL_TOL = 1e-6  # max allowed population of the highest retained level
CONVERGENCE_REL = 1e-4  # converge_cutoffs: relative change that counts as settled
MAX_DOUBLINGS = 4  # converge_cutoffs: truncation growth rounds before giving up
_POWERS_OF_I = np.array([1, 1j, -1, -1j])
_UNIT_ROUNDOFF = 2.0**-53  # the Taylor series stops when its terms fall below it


def expm_multiply(A, B, *, start, stop, num) -> np.ndarray:
    """exp(t A) B for a sparse matrix A and a vector B at the ``num`` times of
    ``np.linspace(start, stop, num)``, with ``start = 0``.

    This is the per-sample branch of scipy's ``expm_multiply`` (Al-Mohy &
    Higham, SIAM J. Sci. Comput. 33, 488 (2011), algorithm 5.2, taken there
    when the sample count is at most the step count): A is shifted by
    mu = tr(A)/n, and scipy's own norm estimates fix the Taylor degree m* and
    the step count s for one sample step h.  Each sample is the previous one
    advanced by s sub-steps, each a Taylor series in hA/s cut off once two
    successive terms fall below 2^-53 ||F||_inf, then scaled by exp(h mu/s).
    The arithmetic is scipy's operation for operation, so the result is the
    same to the bit wherever scipy takes that branch; what goes is the
    overhead around it: terms are updated in place, and ||F||_inf is computed
    only when the bound ||F_0||_inf + sum of the term norms lets the stopping
    test pass.  Rounding keeps the computed ||F||_inf far below twice that
    bound, so the factor 2 below never skips a test that would have passed.
    scipy's norm estimates draw from numpy's global RNG; they run on a fixed
    stream (seed 0), so the result does not depend on the caller's RNG
    state, and that state is left as it was.
    """
    if num < 2:
        raise ValueError("need at least 2 samples")
    if start != 0:
        raise ValueError("the samples must start at t = 0")
    B = np.asarray(B)
    if B.ndim != 1 or A.shape != (B.size, B.size):
        raise ValueError(f"shapes of A {A.shape} and B {B.shape} do not match")
    samples, h = np.linspace(start, stop, num, retstep=True)
    n = B.size
    mu = A.trace() / float(n)
    A = A - mu * sp.identity(n, dtype=A.dtype, format=A.format)
    t = samples[-1] - samples[0]
    norm_info = LazyOperatorNormInfo(t * A, A_1_norm=t * abs(A).sum(axis=0).max(), ell=2,
                                     scale=1.0 / (num - 1))
    rng_state = np.random.get_state()
    np.random.seed(0)
    try:
        m_star, s = _fragment_3_1(norm_info, 1, _UNIT_ROUNDOFF, ell=2)
    finally:
        np.random.set_state(rng_state)
    if s == 0:  # ||h A||_1 is zero or underflows: exp(h A) is the identity
        m_star, s = 0, 1
    eta = np.exp(h * mu / float(s))
    coeffs = [h / float(s * (j + 1)) for j in range(m_star)]
    X = np.empty((num, n), dtype=np.result_type(A.dtype, B.dtype, float))
    X[0] = B
    term = np.empty(n, dtype=X.dtype)
    for k in range(1, num):
        F = X[k]
        F[:] = X[k - 1]
        for _ in range(s):
            term[:] = F
            c1 = bound = np.abs(F).max()
            for coeff in coeffs:
                np.multiply(A @ term, coeff, out=term)
                c2 = np.abs(term).max()
                F += term
                bound += c2
                if c1 + c2 <= 2.0 * _UNIT_ROUNDOFF * bound and (
                    c1 + c2 <= _UNIT_ROUNDOFF * np.abs(F).max()
                ):
                    break
                c1 = c2
            F *= eta
    return X


@dataclass(frozen=True)
class FockConfig:
    """Truncation of the exact route."""

    cutoff_a: int = 8
    cutoff_b: int = 8

    def __post_init__(self):
        if self.cutoff_a < 2 or self.cutoff_b < 2:
            raise InvalidInputError("cutoffs must be at least 2")


def destroy(n: int) -> sp.csr_matrix:
    """Annihilation operator on an n-level truncated Fock space."""
    return sp.diags(np.sqrt(np.arange(1, n)), 1, format="csr").astype(complex)


@lru_cache(maxsize=8)
def mode_operators(c: FockConfig):
    """Two-mode annihilation operators (a, b) on the product space.

    Cached per truncation; the returned matrices are shared, so callers
    must not modify them in place.
    """
    a = sp.kron(destroy(c.cutoff_a), sp.identity(c.cutoff_b), format="csr")
    b = sp.kron(sp.identity(c.cutoff_a), destroy(c.cutoff_b), format="csr")
    return a, b


@lru_cache(maxsize=8)
def _moment_weights(c: FockConfig):
    """Real sparse (dim^2, 6) CSC matrix W and six powers of i f such that
    (vec(R) @ W[:, j]) * f[j] is Tr(rho O) for O = a, a'a, aa, b, b'b, bb.

    Column j of W is vec(O^T).  O lowers n_a by a fixed s, so every entry
    (k, l) it weights has the phase i^s in vec(rho) = phase * vec(R); that
    common phase is f[j], and the weights themselves are real.  Shared
    through the cache: callers must not modify W or f in place.
    """
    a, b = mode_operators(c)
    ops = ((a, 1), (a.conj().T @ a, 0), (a @ a, 2),
           (b, 0), (b.conj().T @ b, 0), (b @ b, 0))
    W = sp.hstack([op.T.reshape((-1, 1)).real for op, _ in ops], format="csc")
    f = _POWERS_OF_I[[s for _, s in ops]]
    f.setflags(write=False)
    return W, f


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

    The propagator only advances the entries of vec(rho) that the
    Liouvillian can reach from the initial state: ``sector`` holds their
    sorted row-major indices and ``sector_states`` the (n_samples,
    sector.size) stack of their values in the frame R = V'rho V (module
    docstring); every other entry is zero at all times.  ``sector_states`` is
    real for a real start such as the vacuum.  ``phase`` (powers of i, one per
    sector entry) maps it back: vec(rho)[sector] = phase * sector_states.
    Every observable is read from that stack in one batched pass without
    leaving the frame.  ``states`` (n_samples, dim^2) and ``rhos``
    (n_samples, dim, dim) are the full-space arrays of rho, built anew on
    each access.
    """

    def __init__(self, times, sector_states, sector, phase, params, config, cutoff_ok):
        self.times = np.asarray(times, dtype=float)
        self.sector_states = sector_states
        self.sector = sector
        self.phase = phase
        self.params = params
        self.config = config
        self.cutoff_ok = bool(cutoff_ok)
        self._moments = None

    @property
    def omega_b(self):
        return self.params.omega_b

    @property
    def states(self) -> np.ndarray:
        c = self.config
        full = np.zeros((len(self.times), (c.cutoff_a * c.cutoff_b) ** 2), dtype=complex)
        full[:, self.sector] = self.sector_states * self.phase
        return full

    @property
    def rhos(self) -> np.ndarray:
        dim = self.config.cutoff_a * self.config.cutoff_b
        return self.states.reshape(-1, dim, dim)

    def moments(self) -> np.ndarray:
        """(n_samples, 6) complex <a>, <a'a>, <aa>, <b>, <b'b>, <bb>, from one
        product of the stack with the sparse real weights of
        ``_moment_weights``, so a real stack is never copied to complex."""
        if self._moments is None:
            W, f = _moment_weights(self.config)
            W = W[self.sector]
            # gather the few stack columns that any moment weights (165 of
            # 2304 at (8,12)) first: scipy copies a product's dense operand
            # transposed, and a copy of the whole stack raised the peak RSS
            cols = np.unique(W.indices)
            self._moments = (self.sector_states[:, cols] @ W[cols]) * f
        return self._moments

    def battery_population(self) -> np.ndarray:
        return np.real(self.moments()[:, 4])

    def reduced_battery_states(self) -> np.ndarray:
        """(n_samples, cutoff_b, cutoff_b) partial traces over the charger.

        The summed entries (i, j, i, k) have equal n_a on both sides, hence
        phase 1: they come straight from the stack, real for a real start.
        """
        ca, cb = self.config.cutoff_a, self.config.cutoff_b
        i, j, i2, k = np.unravel_index(self.sector, (ca, cb, ca, cb))
        out = np.zeros((len(self.times), cb * cb), dtype=self.sector_states.dtype)
        # one charger level at a time: no gather larger than the output, and
        # the sum runs over i in ascending order, as the einsum of
        # reduced_battery_state does, so both give the same bits
        for level in range(ca):
            sel = np.flatnonzero((i == level) & (i2 == level))  # entries (i, j, i, k)
            out[:, j[sel] * cb + k[sel]] += self.sector_states[:, sel]
        return out.reshape(-1, cb, cb)


def expectation(rho: np.ndarray, op) -> complex:
    """Tr(rho O) via a sparse contraction."""
    return complex((op.multiply(rho.T)).sum())


def check_density_matrix(rho: np.ndarray) -> np.ndarray:
    """The package's one test of a physical state, on one matrix or a stack
    of them (shape (..., d, d)): every entry finite, Hermitian within 1e-10,
    unit trace within 1e-8 and no eigenvalue below -1e-8.  Raises
    ``UnphysicalStateError`` on the first test that fails, else returns the
    eigenvalues it computed, ascending along the last axis (real input gets
    the real symmetric solver)."""
    if not np.isfinite(rho).all():
        raise UnphysicalStateError("density matrix has non-finite entries")
    if np.max(np.abs(rho - rho.conj().swapaxes(-1, -2))) > 1e-10:
        raise UnphysicalStateError("density matrix not Hermitian within 1e-10")
    if np.max(np.abs(np.trace(rho, axis1=-2, axis2=-1).real - 1.0)) > 1e-8:
        raise UnphysicalStateError("density matrix does not have unit trace within 1e-8")
    w = np.linalg.eigvalsh(rho)
    if w.min() < -1e-8:
        raise UnphysicalStateError(f"negative eigenvalue {w.min():.2e}")
    return w


def vacuum_state(c: FockConfig) -> np.ndarray:
    dim = c.cutoff_a * c.cutoff_b
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def _sector(L, v0: np.ndarray) -> np.ndarray:
    """Sorted indices of the vec(rho) entries that exp(L t) v0 can make
    nonzero: the support of v0 closed under the sparsity pattern of the CSR
    matrix L.

    The span of these entries is invariant under L, so propagating L
    restricted to them is exact.  With nonlinear coupling the parity of the
    battery number is conserved, and a vacuum start stays in the even-even
    parity block; linear coupling from vacuum reaches the whole space.
    """
    pattern = sp.csr_matrix((np.ones(L.nnz), L.indices, L.indptr), shape=L.shape)
    reached = v0 != 0
    while True:
        grown = reached | (pattern @ reached.astype(float) > 0)
        if np.array_equal(grown, reached):
            return np.flatnonzero(reached)
        reached = grown


def _sector_liouvillian(kind: str, p, c: FockConfig, v0: np.ndarray):
    """(L, sector, phase): the Liouvillian restricted to the sector that v0
    reaches (see ``_sector``) and taken to the frame R = V'rho V, that is,
    conj(phase) L phase entry by entry, where vec(rho)[sector] =
    phase * vec(R)[sector].  Each factor is a power of i, so the entries are
    exact; L keeps its complex dtype, and ``evolve`` checks that its
    imaginary part is zero."""
    L = _liouvillian(build_hamiltonian(kind, p, c), p.gamma, c)
    sector = _sector(L, v0)
    k, l = np.divmod(sector, c.cutoff_a * c.cutoff_b)
    phase = _POWERS_OF_I[(k // c.cutoff_b - l // c.cutoff_b) % 4]  # i^(n_a(k) - n_a(l))
    L = L[sector][:, sector]
    rows = np.repeat(np.arange(sector.size), np.diff(L.indptr))
    L.data *= phase.conj()[rows] * phase[L.indices]
    return L, sector, phase


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
    the exact action of the matrix exponential by ``expm_multiply``, this
    module's Al-Mohy/Higham propagator, which advances each sample from the
    one before by Taylor-series sub-steps, accurate to machine precision
    with no tolerance to set, and which leaves numpy's global RNG as it
    found it.  Only the entries of vec(rho) reachable from the initial
    state are propagated (see ``_sector``), and they are propagated as
    R = V'rho V with V = diag(i^n_a), where the Liouvillian is a real matrix
    (module docstring): ``expm_multiply`` gets a float64 matrix, and a
    float64 start vector when R0 is real, as for the vacuum or a
    Fock-diagonal state; a complex start stays complex.  Raises if the
    Liouvillian is not real in that frame, so there is no silent complex
    fallback.  Starts from the two-mode vacuum unless ``initial_state`` is
    given: a dim x dim matrix that must pass ``check_density_matrix``
    (``InvalidInputError`` otherwise, so a non-finite entry is refused
    before it is propagated).  Sets ``cutoff_ok = False`` when, at any
    sample, the highest level of either mode that the propagated entries
    contain is populated beyond ``TOP_LEVEL_TOL``.  ``validate`` checks every
    sample with ``check_density_matrix`` on the principal block of R that
    the sector's kets span: rho vanishes outside it, and V is unitary, so
    that block is a density matrix exactly when rho is.
    """
    if t_end <= 0:
        raise InvalidInputError("t_end must be positive")
    if n_samples < 2:
        raise InvalidInputError("need at least 2 samples")
    dim = c.cutoff_a * c.cutoff_b
    if initial_state is None:
        rho0 = vacuum_state(c)
    else:
        rho0 = np.asarray(initial_state, dtype=complex)
        if rho0.shape != (dim, dim):
            raise InvalidInputError(f"initial state shape {rho0.shape} != ({dim}, {dim})")
        try:
            check_density_matrix(rho0)
        except UnphysicalStateError as err:
            raise InvalidInputError(f"initial state: {err}") from None
    v0 = rho0.reshape(-1)
    L, sector, phase = _sector_liouvillian(kind, p, c, v0)
    if np.any(L.data.imag):
        raise InvalidInputError(f"{kind} Liouvillian is not real in the i^n_a frame")
    r0 = phase.conj() * v0[sector]  # exact: phase holds powers of i
    if not np.any(r0.imag):
        r0 = r0.real.copy()
    t_grid = np.linspace(0.0, t_end, n_samples)
    out = expm_multiply(L.real, r0, start=0.0, stop=t_end, num=n_samples)
    # any non-finite entry makes the sum non-finite; summing avoids a
    # stack-sized boolean temporary
    if not np.isfinite(out.sum()):
        raise ConvergenceError("Lindblad propagation produced non-finite values")
    kets, bras = np.divmod(sector, dim)
    diag = np.flatnonzero(kets == bras)  # sector columns of populations (phase 1)
    pop = np.real(out[:, diag])
    cutoff_ok = not any(
        np.any(pop[:, level == level.max()].sum(axis=1) > TOP_LEVEL_TOL)
        for level in np.divmod(kets[diag], c.cutoff_b)  # n_a, n_b
    )
    if validate:
        basis = np.union1d(kets, bras)
        n = basis.size
        block = np.zeros((n_samples, n * n), dtype=out.dtype)
        block[:, np.searchsorted(basis, kets) * n + np.searchsorted(basis, bras)] = out
        check_density_matrix(block.reshape(-1, n, n))
    return FockTrajectory(t_grid, out, sector, phase, p, c, cutoff_ok)


def extract_moments(rho: np.ndarray, c: FockConfig) -> MomentState:
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
    (n, cutoff_b, cutoff_b) (returns an array of n values).  Every state must
    pass ``check_density_matrix`` (``UnphysicalStateError`` otherwise, also
    for a non-finite entry), whose eigenvalues are the ones used here.  Real
    input stays real, so ``eigvalsh`` then works on real symmetric matrices.
    """
    rho_b = np.asarray(rho_b)
    rho_b = rho_b.astype(np.result_type(rho_b, float), copy=False)  # real stays real
    w = np.clip(check_density_matrix(rho_b), 0.0, None)  # ascending
    levels = omega_b * np.arange(rho_b.shape[-1])
    energy = np.sum(np.real(np.diagonal(rho_b, axis1=-2, axis2=-1)) * levels, axis=-1)
    passive = np.sum(w[..., ::-1] * levels, axis=-1)
    erg = energy - passive
    return float(erg) if erg.ndim == 0 else erg


def converge_cutoffs(kind: str, p, c: FockConfig, t_end: float) -> FockConfig:
    """Grow the truncation until final-time energy and ergotropy settle.

    The battery cutoff doubles and the charger cutoff grows by 4 per round;
    convergence is declared when both observables change by less than
    ``CONVERGENCE_REL`` (relative, with an absolute floor) between runs,
    within ``MAX_DOUBLINGS`` rounds.
    Of the two agreeing truncations the smaller is returned, unless its run
    set ``cutoff_ok = False``; then the larger one is, if its run did not.
    """

    def final_observables(cfg):
        traj = evolve(kind, p, cfg, t_end, n_samples=17)
        energy = p.omega_b * float(traj.battery_population()[-1])
        erg = exact_ergotropy(traj.reduced_battery_states()[-1], p.omega_b)
        return energy, erg, traj.cutoff_ok

    if p.Omega == 0.0:
        return c
    prev = final_observables(c)
    cfg = c
    for _ in range(MAX_DOUBLINGS):
        nxt = replace(cfg, cutoff_a=cfg.cutoff_a + 4, cutoff_b=2 * cfg.cutoff_b)
        cur = final_observables(nxt)
        scale = max(abs(prev[0]), abs(cur[0]), 1e-12)
        if (
            abs(cur[0] - prev[0]) / scale < CONVERGENCE_REL
            and abs(cur[1] - prev[1]) / scale < CONVERGENCE_REL
        ):
            # never return a truncation whose own run tripped the flag
            if prev[2]:
                return cfg
            if cur[2]:
                return nxt
        cfg, prev = nxt, cur
    raise ConvergenceError(
        f"cutoffs not converged after {MAX_DOUBLINGS} doublings (last {cfg})"
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
