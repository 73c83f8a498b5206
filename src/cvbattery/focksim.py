"""Exact reference route: truncated two-mode Fock-space Lindblad integration.

The rotated-frame Hamiltonians are time independent, so the master equation
is integrated as a linear ODE for the vectorized density matrix using a
sparse Liouvillian, by the action of its exponential.  That is computed by
``propagate.expm_multiply``: scipy's Al-Mohy/Higham Taylor propagator, run
with scipy's arithmetic but without its per-term overhead, one series
serving every sample that it spans.  Tensor layout: charger index slow,
battery index fast, with row-major (C-order) vectorization, i.e. basis state
|n_a, n_b> sits at flat index n_a * cutoff_b + n_b.

The propagation runs in real arithmetic, in the frame R = V'rho V with
V = diag(i^n_a).  Every Hamiltonian term of both couplings changes n_a by
exactly one and has a real Fock-basis coefficient, and V'aV = i a, so V'HV is
i times a real matrix and the Liouvillian of R, built on the kets that the
start reaches (``_folded_problem``), is real; D[a] keeps its form, as V
commutes with a'a and a R a' picks up i * (-i) = 1.  The change of frame
multiplies the vec(rho) entry (k, l) by i^(n_a(l) - n_a(k)), which is exact
in floating point.  A real start (the vacuum, any Fock-diagonal state) gives
a real R at all times.  R is also Hermitian, and a real Liouvillian maps its
real symmetric and real antisymmetric parts to themselves, so only the upper
triangle of each is propagated: about half the entries, under an operator
with about half the nonzeros.

The six Fock moments are read from that half stack, each entry weighed by the
mode operators at its index pair (``FockTrajectory.moments``).  ``evolve``
checks no sample: ``check_density_matrix(traj.rhos)`` checks them all.
"""

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .errors import (
    ConvergenceError,
    InvalidInputError,
    UnphysicalStateError,
)
from .gaussian import MomentState
# scipy's CSR kernel, the step of ``_sector``, comes with the propagator
from .propagate import csr_matvec, expm_multiply

TOP_LEVEL_TOL = 1e-6  # max allowed population of the highest retained level
CONVERGENCE_REL = 1e-4  # converge_cutoffs: relative change that counts as settled
MAX_DOUBLINGS = 4  # converge_cutoffs: truncation growth rounds before giving up
_POWERS_OF_I = np.array([1, 1j, -1, -1j])


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


class FockTrajectory:
    """Sampled density-matrix trajectory on the truncated product space.

    The propagator advances only the half of vec(rho) that determines the
    rest, and only the entries of that half that the initial state reaches,
    all between kets that it reaches under H and a (``_folded_problem``).
    In the frame R = V'rho V (module docstring), R is Hermitian, R = S + iA
    with S real symmetric and A real antisymmetric, and ``sector_states``, a
    real (n_samples, sector.size) stack, holds S on k <= l and A on k < l.
    Column j holds entry ``sector[j]`` = k * dim + l of S or of A: rho[k, l]
    gets phase[j] * sector_states[:, j] from it and rho[l, k] the conjugate,
    with ``phase`` a power of i per column.  Every other entry is zero at all
    times.  Every observable is read from the half stack in one batched pass
    without leaving the frame; ``rhos`` unfolds it into the full-space
    (n_samples, dim, dim) array of rho, built anew on each access.
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
    def rhos(self) -> np.ndarray:
        dim = self.config.cutoff_a * self.config.cutoff_b
        return _unfold(self.sector_states, *np.divmod(self.sector, dim), self.phase, dim)

    def moments(self) -> np.ndarray:
        """(n_samples, 6) complex <a>, <a'a>, <aa>, <b>, <b'b>, <bb>, from one
        real product of the stack with folded weights.  Column j stands for
        rho[k, l] and rho[l, k], so O weighs it with phase[j] O[l, k] +
        conj(phase[j]) O[k, l], the second term only off the diagonal: as O is
        real in the Fock basis and phase[j] a power of i, that is exactly
        Re(phase[j]) (O[l, k] + O[k, l]) + i Im(phase[j]) (O[l, k] - O[k, l]),
        read from the sparse operators at the sector's index pairs.  The real
        and imaginary parts are the 12 columns of one real product, so the
        stack is never copied to complex."""
        if self._moments is None:
            k, l = np.divmod(self.sector, self.config.cutoff_a * self.config.cutoff_b)
            a, b = mode_operators(self.config)
            parts = []
            for o, op in enumerate((a, a.conj().T @ a, a @ a, b, b.conj().T @ b, b @ b)):
                lk = np.asarray(op[l, k]).ravel().real
                kl = np.where(k != l, np.asarray(op[k, l]).ravel().real, 0.0)
                w = np.array([self.phase.real * (lk + kl), self.phase.imag * (lk - kl)])
                part, j = np.nonzero(w)  # real or imaginary part, stack column
                parts.append((w[part, j], j, o + 6 * part))
            data, row, col = map(np.concatenate, zip(*parts))
            W = sp.csc_matrix((data, (row, col)), shape=(self.sector.size, 12))
            # gather the few stack columns that any moment weights (165 of
            # 1176 at (8,12)) first: scipy copies a product's dense operand
            # transposed, and a copy of the whole stack raised the peak RSS
            cols = np.unique(W.indices)
            P = self.sector_states[:, cols] @ W[cols]
            self._moments = P[:, :6] + 1j * P[:, 6:]
        return self._moments

    def battery_population(self) -> np.ndarray:
        return np.real(self.moments()[:, 4])

    def reduced_battery_states(self) -> np.ndarray:
        """(n_samples, cutoff_b, cutoff_b) partial traces over the charger.

        The summed entries (i, j, i, k) have equal n_a on both sides, hence
        frame phase 1: they come straight from the stack, S mirrored and A
        antisymmetrised, real for a real start.
        """
        cb = self.config.cutoff_b
        k, l = np.divmod(self.sector, self.config.cutoff_a * cb)
        (i, j), (i2, k2) = np.divmod(k, cb), np.divmod(l, cb)
        sel = np.flatnonzero(i == i2)
        return _unfold(self.sector_states[:, sel], j[sel], k2[sel], self.phase[sel], cb)


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
    """Sorted indices that exp(L t) v0 can make nonzero: the support of v0
    closed under the sparsity pattern of the CSR matrix L.

    The span of these indices is invariant under L, so restricting L to them
    is exact.
    """
    n, ones = L.shape[0], np.ones(L.nnz)
    reached = (v0 != 0).astype(float)
    while True:
        grown = reached.copy()
        csr_matvec(n, n, L.indptr, L.indices, ones, reached, grown)  # += pattern @ reached
        grown = (grown > 0).astype(float)
        if np.array_equal(grown, reached):
            return np.flatnonzero(reached)
        reached = grown


def _frame_phase(sector, c: FockConfig) -> np.ndarray:
    """i^(n_a(k) - n_a(l)) for each row-major vec(rho) index k * dim + l: the
    factor that takes vec(R) to vec(rho), R = V'rho V (module docstring)."""
    k, l = np.divmod(sector, c.cutoff_a * c.cutoff_b)
    return _POWERS_OF_I[(k // c.cutoff_b - l // c.cutoff_b) % 4]


def _folded_problem(kind: str, p, c: FockConfig, v0: np.ndarray):
    """(M, x0, sector, phase): the real linear problem dx/dt = M x that
    ``evolve`` propagates, for the start vec(rho0) = v0.

    Every entry (k, l) of rho that the start reaches has k and l among the
    rows of rho0's support closed under H and a (``_sector``), so restricting
    the master equation to these kets is exact.  On them V'HV = iY with Y
    real (module docstring; ``InvalidInputError`` if V'HV has a real part),
    so the Liouvillian of R = V'rho V, L = Y x 1 - 1 x Y^T + (gamma/2)(2 a x a
    - n_a x 1 - 1 x n_a), is real and maps S and A of R = S + iA to
    themselves: S is symmetric and lives on the entries (k, l) with k <= l,
    A is antisymmetric and lives on k < l.  x stacks those halves, [S; A],
    and M = block-diag(L[S rows] E_S, L[A rows] E_A), where E_S copies each
    kept entry to its mirror (l, k) and E_A copies it with a minus sign.  M
    and x0 are then restricted to the entries that x0 reaches (``_sector``);
    for a real start, A vanishes, and so does its block.  Column j of the
    stack holds entry ``sector[j]`` = k * dim + l: rho[k, l] gets
    phase[j] * x[j] from it and rho[l, k] the conjugate, so phase is
    i^(n_a(k) - n_a(l)) on S and i times that on A.
    """
    dim = c.cutoff_a * c.cutoff_b
    H = build_hamiltonian(kind, p, c)
    a, _ = mode_operators(c)
    kets = _sector(abs(H) + abs(a), v0.reshape(dim, dim).any(axis=1))
    H = H[kets][:, kets]
    rows = np.repeat(np.arange(kets.size), np.diff(H.indptr))
    H.data *= _frame_phase(kets[H.indices] * dim + kets[rows], c)  # V'HV, exactly
    if np.any(H.data.real):
        raise InvalidInputError(f"{kind} Liouvillian is not real in the i^n_a frame: "
                                "V'HV has a real part")
    Y = H.imag
    a = a[kets][:, kets].real
    n_a = a.T @ a
    eye = sp.identity(kets.size, format="csr")
    # row-major: vec(A X B) = (A kron B^T) vec(X)
    L = sp.kron(Y, eye) - sp.kron(eye, Y.T)
    L += p.gamma / 2.0 * (2.0 * sp.kron(a, a) - sp.kron(n_a, eye) - sp.kron(eye, n_a))
    L = L.tocsr()
    sector = (kets[:, None] * dim + kets).ravel()
    phase = _frame_phase(sector, c)
    k, l = np.divmod(sector, dim)
    mirror = np.searchsorted(sector, l * dim + k)  # kets x kets is transpose-closed
    lower = np.flatnonzero(k > l)

    def fold(half, sign):
        """L[half] E, with E taking (k, l) to the column of the kept entry
        (min, max), times ``sign`` below the diagonal."""
        col = np.empty(sector.size, dtype=np.intp)
        col[half] = np.arange(half.size)
        E = sp.csr_matrix((np.r_[np.ones(half.size), np.full(lower.size, sign)],
                           (np.r_[half, lower], np.r_[col[half], col[mirror[lower]]])),
                          shape=(sector.size, half.size))
        return L[half] @ E

    sym, antisym = np.flatnonzero(k <= l), np.flatnonzero(k < l)
    M = sp.block_diag((fold(sym, 1.0), fold(antisym, -1.0)), format="csr")
    sector = np.r_[sector[sym], sector[antisym]]
    phase = np.r_[phase[sym], 1j * phase[antisym]]
    x0 = (phase.conj() * v0[sector]).real  # exact: phase holds powers of i
    keep = _sector(M, x0)
    return M[keep][:, keep], x0[keep], sector[keep], phase[keep]


def _unfold(stack, rows, cols, coef, n: int) -> np.ndarray:
    """(n_samples, n, n): the Hermitian matrices sum_j stack[:, j]
    (coef[j] |rows[j]><cols[j]| + conj(coef[j]) |cols[j]><rows[j]|) that a
    folded stack holds, a diagonal entry counted once.  They are the product
    of the stack with one sparse (coef.size, n^2) matrix U, taken as two real
    products, so the real stack is never copied to complex, and real when
    every coef is real."""
    j = np.arange(coef.size)
    off = rows != cols
    U = sp.csr_matrix((np.r_[coef, coef[off].conj()],
                       (np.r_[j, j[off]], np.r_[rows * n + cols, (cols * n + rows)[off]])),
                      shape=(coef.size, n * n))
    out = stack @ U.real
    if np.any(coef.imag):
        out = out + 1j * (stack @ U.imag)
    return out.reshape(-1, n, n)


def evolve(
    kind: str,
    p,
    c: FockConfig,
    t_end: float,
    n_samples: int = 129,
    initial_state: np.ndarray | None = None,
) -> FockTrajectory:
    """Propagate the rotated-frame master equation and sample uniformly.

    The Liouvillian is time independent, so the evolution is computed as the
    exact action of the matrix exponential by ``expm_multiply``, the
    package's Al-Mohy/Higham propagator (``propagate``).  One Taylor series
    from a sample gives every later sample within scipy's error bound for
    one series, and a sample step too long for one series takes several;
    the result is accurate to machine precision with no tolerance to set,
    and numpy's global RNG is left as it was.  The state is propagated as
    R = V'rho V with V = diag(i^n_a), on the kets that the start reaches
    under H and a, where the Liouvillian is a real matrix (module
    docstring), and only through the half of R that fixes the rest: the
    real symmetric part on k <= l and the real antisymmetric part on k < l,
    each under its own folded real operator, and of those only the entries
    that the initial state reaches
    (``_folded_problem``).  ``expm_multiply`` so gets a float64 matrix and a
    float64 start vector for every start; a real start, such as the vacuum
    or a Fock-diagonal state, has no antisymmetric part, and that half drops
    out.  Raises ``InvalidInputError`` if V'HV has a real part, so there is
    no silent complex fallback.  Starts from the two-mode vacuum unless
    ``initial_state`` is given: a dim x dim matrix that must pass
    ``check_density_matrix`` (``InvalidInputError`` otherwise, so a
    non-finite entry is refused before it is propagated).  ``t_end`` must be
    finite and positive.

    Sets ``cutoff_ok = False`` when, at any sample, the highest level of
    either mode that the propagated entries contain is populated beyond
    ``TOP_LEVEL_TOL`` and lies within one step of that mode's cutoff: one
    level for the charger and the linear battery, two for the nonlinear
    battery (b'b' moves n_b by two).  Below that, the evolution never
    reached the truncation.
    No sample is checked: ``check_density_matrix(traj.rhos)`` checks them
    all.
    """
    if not (np.isfinite(t_end) and t_end > 0):
        raise InvalidInputError("t_end must be finite and positive")
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
    L, x0, sector, phase = _folded_problem(kind, p, c, rho0.reshape(-1))
    t_grid = np.linspace(0.0, t_end, n_samples)
    out = expm_multiply(L, x0, t_end, n_samples)
    # any non-finite entry makes the sum non-finite; summing avoids a
    # stack-sized boolean temporary
    if not np.isfinite(out.sum()):
        raise ConvergenceError("Lindblad propagation produced non-finite values")
    kets, bras = np.divmod(sector, dim)
    diag = np.flatnonzero(kets == bras)  # populations: S entries with phase 1
    pop = out[:, diag]
    cutoff_ok = not any(
        level.max() + step >= cutoff
        and np.any(pop[:, level == level.max()].sum(axis=1) > TOP_LEVEL_TOL)
        for level, cutoff, step in zip(np.divmod(kets[diag], c.cutoff_b),  # n_a, n_b
                                       (c.cutoff_a, c.cutoff_b),
                                       (1, 2 if kind == "nonlinear" else 1))
    )
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
