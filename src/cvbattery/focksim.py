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

Of that half, ``evolve`` keeps only the entries that the observables read
(246 of 1176 at (8,12)); the six Fock moments weigh each by the mode
operators at its index pair (``_moment_weights``).  ``evolve`` checks no
sample: ``check_density_matrix(traj.rhos)`` checks them all.

Every sparse matrix of the route (the Hamiltonian, the reachable kets'
closure, the folded operator, the moment weights and the unfolding of a
stack) is a canonical ``propagate.CSR``, built from its entries by index
arithmetic on Fock numbers, each entry the value that scipy's sparse
products give it, and every product with one runs on scipy's compiled CSR
kernels: so a run never imports scipy.sparse, and its results are the bits
that the scipy-built operators gave.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConvergenceError,
    InvalidInputError,
    UnphysicalStateError,
)
from .gaussian import MomentState
# scipy's CSR kernels and the CSR layout come with the propagator
from .propagate import CSR, csr, csr_matvec, csr_matvecs, csr_rows, expm_multiply

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


def build_hamiltonian(kind: str, p, c: FockConfig) -> CSR:
    """Rotated-frame Hamiltonian on the truncated product space, a real
    canonical CSR matrix (every Fock-basis element is real).

    linear:    g (a'b + b'a) + Omega (a' + a)
    nonlinear: J (a'bb + b'b'a) + Omega (a' + a)

    Each element is its rate times the product of the operator string's
    ladder factors sqrt(n), taken from left to right: the value that scipy
    gives the product of the sparse mode operators.
    """
    if kind not in ("linear", "nonlinear"):
        raise InvalidInputError(f"unknown coupling kind {kind!r}")
    dim = c.cutoff_a * c.cutoff_b
    n_a, n_b = np.divmod(np.arange(dim), c.cutoff_b)
    root = np.sqrt(np.arange(max(c.cutoff_a, c.cutoff_b) + 2.0))
    lower = n_a >= 1
    raise_ = n_a + 1 < c.cutoff_a
    # (kets acted on, step of the flat index, rate x element) of each term
    if kind == "linear":
        rate = p.g
        terms = [(raise_ & (n_b >= 1), c.cutoff_b - 1, root[n_a + 1] * root[n_b]),  # a'b
                 (lower & (n_b + 1 < c.cutoff_b), 1 - c.cutoff_b, root[n_b + 1] * root[n_a])]
    else:
        rate = p.J
        terms = [(raise_ & (n_b >= 2), c.cutoff_b - 2,  # a'bb
                  root[n_a + 1] * root[np.maximum(n_b - 1, 0)] * root[n_b]),
                 (lower & (n_b + 2 < c.cutoff_b), 2 - c.cutoff_b,  # b'b'a
                  root[n_b + 2] * root[n_b + 1] * root[n_a])]
    terms = [(on, step, rate * value) for on, step, value in terms]
    terms += [(raise_, c.cutoff_b, p.Omega * root[n_a + 1]),  # Omega a'
              (lower, -c.cutoff_b, p.Omega * root[n_a])]  # Omega a
    cols = [np.flatnonzero(on) for on, _, _ in terms]
    return csr(np.concatenate([k + step for k, (_, step, _) in zip(cols, terms)]),
               np.concatenate(cols),
               np.concatenate([value[k] for k, (_, _, value) in zip(cols, terms)]), (dim, dim))


class FockTrajectory:
    """Sampled density-matrix trajectory on the truncated product space.

    The propagator advances only the half of vec(rho) that determines the
    rest, and only the entries of that half that the initial state reaches,
    all between kets that it reaches under H and a (``_folded_problem``).
    In the frame R = V'rho V (module docstring), R is Hermitian, R = S + iA
    with S real symmetric and A real antisymmetric, and the propagated
    vector holds S on k <= l and A on k < l.  Of those columns the
    trajectory keeps only the ones that its observables read (``evolve``):
    ``sector_states``, a real (n_samples, sector.size) stack.  Column j
    holds entry ``sector[j]`` = k * dim + l of S or of A: rho[k, l] gets
    phase[j] * sector_states[:, j] from it and rho[l, k] the conjugate, with
    ``phase`` a power of i per column.  Every observable is read from the
    kept stack in one batched pass without leaving the frame, the moments
    with ``weights``, ``_moment_weights`` on these columns.  ``problem`` is
    ``_folded_problem``'s (M, x0, sector, phase), all O(nnz): ``rhos``
    propagates it again, keeping every column, and unfolds that into the
    full-space (n_samples, dim, dim) array of rho, built anew on each
    access.
    """

    def __init__(self, times, sector_states, sector, phase, weights, problem, params, config,
                 cutoff_ok):
        self.times = np.asarray(times, dtype=float)
        self.sector_states = sector_states
        self.sector = sector
        self.phase = phase
        self._weights = weights
        self._problem = problem
        self.params = params
        self.config = config
        self.cutoff_ok = bool(cutoff_ok)
        self._moments = None

    @property
    def omega_b(self):
        return self.params.omega_b

    @property
    def rhos(self) -> np.ndarray:
        M, x0, sector, phase = self._problem
        dim = self.config.cutoff_a * self.config.cutoff_b
        stack = expm_multiply(M, x0, self.times[-1], self.times.size)
        return _unfold(stack, *np.divmod(sector, dim), phase, dim)

    def moments(self) -> np.ndarray:
        """(n_samples, 6) complex <a>, <a'a>, <aa>, <b>, <b'b>, <bb>, from one
        real product of the folded weights of ``_moment_weights`` with the
        stack: their real and imaginary parts are the 12 rows of that
        product, so the stack is never copied to complex."""
        if self._moments is None:
            W, n = self._weights, self.times.size
            P = np.zeros((12, n))
            # scipy's kernel reads the stack one column at a time: transposed
            csr_matvecs(12, W.shape[1], n, W.indptr, W.indices, W.data,
                        self.sector_states.T.ravel(), P.ravel())
            self._moments = P[:6].T + 1j * P[6:].T
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

    M is built from its entries (``csr``), which are scipy's values for the
    sparse products above: each entry of L is a rate times ladder factors,
    (gamma/2)(2 a(k) a(l)) or the diagonal's (gamma/2)((-n_a(k)) - n_a(l)),
    no two of its terms share a position, and a fold adds at most two
    entries of L.  M is canonical, with no stored zero.  The block of A is
    built only where x0 has an antisymmetric part.
    """
    dim = c.cutoff_a * c.cutoff_b
    H = build_hamiltonian(kind, p, c)
    h_rows = csr_rows(H)
    a_cols = np.arange(c.cutoff_b, dim)  # a: |n_a, n_b> -> sqrt(n_a) |n_a - 1, n_b>
    a_rows = a_cols - c.cutoff_b
    reach = csr(np.r_[h_rows, a_rows], np.r_[H.indices, a_cols], np.ones(H.nnz + a_cols.size),
                (dim, dim))
    kets = _sector(reach, v0.reshape(dim, dim).any(axis=1))
    nk = kets.size
    local = np.full(dim, -1)
    local[kets] = np.arange(nk)
    inside = (local[h_rows] >= 0) & (local[H.indices] >= 0)
    h_rows, h_cols = h_rows[inside], H.indices[inside]
    framed = H.data[inside] * _frame_phase(h_cols * dim + h_rows, c)  # V'HV, exactly
    if np.any(framed.real):
        raise InvalidInputError(f"{kind} Liouvillian is not real in the i^n_a frame: "
                                "V'HV has a real part")
    yr, yc, y = local[h_rows], local[h_cols], framed.imag
    on = local[a_cols] >= 0
    ar, ac = local[a_rows[on]], local[a_cols[on]]
    a = np.sqrt(a_cols[on] // c.cutoff_b, dtype=float)
    n_a = np.zeros(nk)
    n_a[ac] = a * a
    g2, i = p.gamma / 2.0, np.arange(nk)
    # the entries of L on the kets x kets; row-major: vec(A X B) = (A kron B^T) vec(X)
    rows = np.concatenate([(yr[:, None] * nk + i).ravel(),  # Y x 1
                           (i[:, None] * nk + yc).ravel(),  # -1 x Y^T
                           (ar[:, None] * nk + ar).ravel(),  # 2 a x a
                           np.arange(nk * nk)])  # -n_a x 1 - 1 x n_a
    cols = np.concatenate([(yc[:, None] * nk + i).ravel(), (i[:, None] * nk + yr).ravel(),
                           (ac[:, None] * nk + ac).ravel(), np.arange(nk * nk)])
    vals = np.concatenate([np.repeat(y, nk), np.tile(-y, nk),
                           g2 * (2.0 * np.multiply.outer(a, a)).ravel(),
                           g2 * np.subtract.outer(-n_a, n_a).ravel()])
    sector = (kets[:, None] * dim + kets).ravel()
    phase = _frame_phase(sector, c)
    k, l = np.divmod(np.arange(nk * nk), nk)
    kept = np.minimum(k, l) * nk + np.maximum(k, l)  # the entry that stands for (k, l)
    sym, antisym = np.flatnonzero(k <= l), np.flatnonzero(k < l)
    sector = np.r_[sector[sym], sector[antisym]]
    phase = np.r_[phase[sym], 1j * phase[antisym]]
    x0 = (phase.conj() * v0[sector]).real  # exact: phase holds powers of i
    blocks = [(sym, 1.0, 0)] + ([(antisym, -1.0, sym.size)] if np.any(x0[sym.size:]) else [])
    parts = []
    for half, sign, offset in blocks:
        # L[half] E, with E taking (k, l) to the column of the kept entry
        # (min, max), times ``sign`` below the diagonal
        col = np.full(nk * nk, -1)
        col[half] = np.arange(offset, offset + half.size)
        to = col[kept[cols]]
        sel = (col[rows] >= 0) & (to >= 0)
        parts.append((col[rows[sel]], to[sel],
                      vals[sel] * np.where(k[cols[sel]] > l[cols[sel]], sign, 1.0)))
    M = csr(*map(np.concatenate, zip(*parts)), (sector.size, sector.size))
    keep = _sector(M, x0)
    new = np.full(sector.size, -1)
    new[keep] = np.arange(keep.size)
    rows, cols = new[csr_rows(M)], new[M.indices]
    sel = (rows >= 0) & (cols >= 0)
    M = csr(rows[sel], cols[sel], M.data[sel], (keep.size, keep.size))
    return M, x0[keep], sector[keep], phase[keep]


def _mode_elements(k, l, c: FockConfig) -> np.ndarray:
    """(6, k.size): the Fock-basis elements O[k, l] of a, a'a, aa, b, b'b,
    bb at the flat indices k and l, each as scipy gives it for the product of
    the sparse mode operators: sqrt(n), sqrt(n) sqrt(n) and
    sqrt(n - 1) sqrt(n) for n of the mode at l, where the other mode's
    number agrees and this one's falls by 1, 0 and 2 from l to k."""
    k, l = np.divmod(k, c.cutoff_b), np.divmod(l, c.cutoff_b)
    root = np.sqrt(np.arange(-1.0, max(c.cutoff_a, c.cutoff_b)).clip(0.0))  # sqrt(n - 1)
    out = []
    for mode in (0, 1):
        (nk, nl), other = (k[mode], l[mode]), k[1 - mode] == l[1 - mode]
        for step, value in ((1, root[nl + 1]), (0, root[nl + 1] * root[nl + 1]),
                            (2, root[nl] * root[nl + 1])):
            out.append(np.where(other & (nk == nl - step), value, 0.0))
    return np.array(out)


def _moment_weights(sector, phase, c: FockConfig) -> CSR:
    """(12, sector.size) real weights W: W times the transposed stack gives
    the real parts of <a>, <a'a>, <aa>, <b>, <b'b>, <bb> in rows 0-5 and
    their imaginary parts in 6-11.  Column j stands for rho[k, l] and
    rho[l, k], so O weighs it with phase[j] O[l, k] + conj(phase[j]) O[k, l],
    the second term only off the diagonal: as O is real in the Fock basis
    and phase[j] a power of i, that is exactly Re(phase[j]) (O[l, k] +
    O[k, l]) + i Im(phase[j]) (O[l, k] - O[k, l]), with the elements of
    ``_mode_elements``.  Only nonzero weights are stored."""
    k, l = np.divmod(sector, c.cutoff_a * c.cutoff_b)
    lk = _mode_elements(l, k, c)
    kl = np.where(k != l, _mode_elements(k, l, c), 0.0)
    w = np.concatenate([phase.real * (lk + kl), phase.imag * (lk - kl)])
    row, j = np.nonzero(w)
    return csr(row, j, w[row, j], (12, sector.size))


def _cutoff_ok(stack, sector, kind: str, c: FockConfig) -> bool:
    """False when, at any sample of ``stack``, the highest level of either
    mode among the populations in ``sector`` holds more than
    ``TOP_LEVEL_TOL`` and lies within one step of that mode's cutoff (two
    levels for the nonlinear battery, one otherwise); see ``evolve``."""
    kets, bras = np.divmod(sector, c.cutoff_a * c.cutoff_b)
    diag = np.flatnonzero(kets == bras)  # populations: S entries with phase 1
    pop = stack[:, diag]
    return not any(
        level.max() + step >= cutoff
        and np.any(pop[:, level == level.max()].sum(axis=1) > TOP_LEVEL_TOL)
        for level, cutoff, step in zip(np.divmod(kets[diag], c.cutoff_b),  # n_a, n_b
                                       (c.cutoff_a, c.cutoff_b),
                                       (1, 2 if kind == "nonlinear" else 1))
    )


def _unfold(stack, rows, cols, coef, n: int) -> np.ndarray:
    """(n_samples, n, n): the Hermitian matrices sum_j stack[:, j]
    (coef[j] |rows[j]><cols[j]| + conj(coef[j]) |cols[j]><rows[j]|) that a
    folded stack holds, a diagonal entry counted once.  They are the product
    of one sparse (n^2, coef.size) matrix U with the transposed stack, taken
    as two real products, so the real stack is never copied to complex, and
    real when every coef is real.  Each entry of U's rows is added in column
    order, the order in which scipy's product of the stack with U^T adds
    them."""
    j = np.arange(coef.size)
    off = rows != cols
    at = np.r_[rows * n + cols, (cols * n + rows)[off]]
    j, coef = np.r_[j, j[off]], np.r_[coef, coef[off].conj()]
    stack_t = stack.T.ravel()

    def product(values):
        U = csr(at, j, values, (n * n, stack.shape[1]))
        out = np.zeros((n * n, len(stack)))
        csr_matvecs(n * n, stack.shape[1], len(stack), U.indptr, U.indices, U.data, stack_t,
                    out.ravel())
        return out.T

    out = product(coef.real)
    if np.any(coef.imag):
        out = out + 1j * product(coef.imag)
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
    and it makes no random draws of any kind.  The state is propagated as
    R = V'rho V with V = diag(i^n_a), on the kets that the start reaches
    under H and a, where the Liouvillian is a real matrix (module
    docstring), and only through the half of R that fixes the rest: the
    real symmetric part on k <= l and the real antisymmetric part on k < l,
    each under its own folded real operator, and of those only the entries
    that the initial state reaches (``_folded_problem``).
    ``expm_multiply`` so gets a float64 matrix and a float64 start vector
    for every start; a real start, such as the vacuum or a Fock-diagonal
    state, has no antisymmetric part, and that half drops out.  Raises
    ``InvalidInputError`` if V'HV has a real part, so there is no silent
    complex fallback.

    Of the propagated entries, ``expm_multiply`` returns only the columns
    that the observables read, found once from the moments' weights
    (``_moment_weights``), which the trajectory keeps: the entries with
    equal n_a on both sides (the populations, the reduced battery state,
    <b>, <b'b> and <bb>) and those that <a> and <aa> weigh.  It checks
    every entry that it computes, returned or not, and raises
    ``ConvergenceError`` on a non-finite one.  No sample is checked for
    physicality: ``check_density_matrix(traj.rhos)`` checks them all.

    Starts from the two-mode vacuum unless ``initial_state`` is given: a
    dim x dim matrix that must pass ``check_density_matrix``
    (``InvalidInputError`` otherwise, so a non-finite entry is refused
    before it is propagated).  ``t_end`` must be finite and positive.

    Sets ``cutoff_ok = False`` (``_cutoff_ok``) when, at any sample, the
    highest level of either mode that the propagated entries contain is
    populated beyond ``TOP_LEVEL_TOL`` and lies within one step of that
    mode's cutoff: one level for the charger and the linear battery, two
    for the nonlinear battery (b'b' moves n_b by two).  Below that, the
    evolution never reached the truncation.
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
    problem = _folded_problem(kind, p, c, rho0.reshape(-1))
    L, x0, sector, phase = problem
    W = _moment_weights(sector, phase, c)
    kets, bras = np.divmod(sector, dim)
    # equal n_a on both sides: the populations, the reduced battery state
    # and the entries that <b>, <b'b> and <bb> weigh; then those that <a>
    # and <aa> weigh
    read = kets // c.cutoff_b == bras // c.cutoff_b
    read[W.indices] = True
    kept = np.flatnonzero(read)
    W = CSR(W.data, (np.cumsum(read) - 1)[W.indices], W.indptr, (12, kept.size))  # on kept
    out = expm_multiply(L, x0, t_end, n_samples, kept)
    return FockTrajectory(np.linspace(0.0, t_end, n_samples), out, sector[kept], phase[kept],
                          W, problem, p, c, _cutoff_ok(out, sector[kept], kind, c))


def extract_moments(rho: np.ndarray, c: FockConfig) -> MomentState:
    """All six first/second moments of both modes, Tr(rho O) summed over the
    Fock-basis elements of each mode operator O."""
    dim = c.cutoff_a * c.cutoff_b
    k, l = np.divmod(np.arange(dim * dim), dim)
    m = _mode_elements(k, l, c) @ np.asarray(rho).T.ravel()  # O[k, l] rho[l, k]
    return MomentState(a_mean=complex(m[0]), a_num=float(m[1].real), a_sq=complex(m[2]),
                       b_mean=complex(m[3]), b_num=float(m[4].real), b_sq=complex(m[5]))


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
