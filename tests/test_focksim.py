"""Unit tests for the truncated-Fock exact route."""

import math
import re
import warnings
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.sparse.linalg import _expm_multiply as em
from scipy.sparse.linalg import expm_multiply

from cvbattery import focksim, propagate
from cvbattery.cumulant import NonlinearParams, steady_energy_nonlinear
from cvbattery.errors import ConvergenceError, InvalidInputError, UnphysicalStateError
from cvbattery.focksim import (
    TOP_LEVEL_TOL,
    FockConfig,
    FockTrajectory,
    build_hamiltonian,
    check_density_matrix,
    conserved_charge_drift,
    converge_cutoffs,
    evolve,
    exact_ergotropy,
    extract_moments,
    reduced_battery_state,
    vacuum_state,
    _cutoff_ok,
    _folded_problem,
    _frame_phase,
    _moment_weights,
    _sector,
    _unfold,
)
from cvbattery.gaussian import MomentState, covariance_determinant
from cvbattery.linear import LinearParams, energy_linear


CFG = FockConfig(cutoff_a=6, cutoff_b=6)


# The oracles: the mode operators, the Hamiltonian, the folded problem and
# the moment weights as scipy's sparse matrix arithmetic builds them, which
# the package's builders, working from the entries, match bit for bit.

def destroy(n: int) -> sp.csr_matrix:
    """Annihilation operator on an n-level truncated Fock space."""
    return sp.diags(np.sqrt(np.arange(1, n)), 1, format="csr").astype(complex)


def mode_operators(c: FockConfig):
    """Two-mode annihilation operators (a, b) on the product space."""
    a = sp.kron(destroy(c.cutoff_a), sp.identity(c.cutoff_b), format="csr")
    b = sp.kron(sp.identity(c.cutoff_a), destroy(c.cutoff_b), format="csr")
    return a, b


def expectation(rho: np.ndarray, op) -> complex:
    """Tr(rho O) via a sparse contraction."""
    return complex((op.multiply(rho.T)).sum())


def _sp(A) -> sp.csr_matrix:
    """The CSR matrix A (the package's ``CSR`` or scipy's) as scipy's."""
    return sp.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape)


def _scipy_hamiltonian(kind: str, p, c: FockConfig) -> sp.csr_matrix:
    """linear: g (a'b + b'a) + Omega (a' + a); nonlinear: J (a'bb + b'b'a)
    + Omega (a' + a), from the sparse mode operators."""
    a, b = mode_operators(c)
    ad, bd = a.conj().T, b.conj().T
    if kind == "linear":
        coupling = p.g * (ad @ b + bd @ a)
    else:
        coupling = p.J * (ad @ b @ b + bd @ bd @ a)
    return (coupling + p.Omega * (ad + a)).tocsr()


def _scipy_folded_problem(kind: str, p, c: FockConfig, v0: np.ndarray):
    """(M, x0, sector, phase) of ``focksim._folded_problem``, with M built
    by scipy's sparse products: the Liouvillian of the frame on the kets
    that the start reaches, L = Y x 1 - 1 x Y^T + (gamma/2)(2 a x a - n_a x
    1 - 1 x n_a), folded onto the halves S and A by block-diag(L[S rows]
    E_S, L[A rows] E_A) and restricted to the entries that x0 reaches."""
    dim = c.cutoff_a * c.cutoff_b
    H = _scipy_hamiltonian(kind, p, c)
    a, _ = mode_operators(c)
    kets = _sector(abs(H) + abs(a), v0.reshape(dim, dim).any(axis=1))
    H = H[kets][:, kets]
    rows = np.repeat(np.arange(kets.size), np.diff(H.indptr))
    H.data *= _frame_phase(kets[H.indices] * dim + kets[rows], c)
    assert not np.any(H.data.real)
    Y = H.imag
    a = a[kets][:, kets].real
    n_a = a.T @ a
    eye = sp.identity(kets.size, format="csr")
    L = sp.kron(Y, eye) - sp.kron(eye, Y.T)
    L += p.gamma / 2.0 * (2.0 * sp.kron(a, a) - sp.kron(n_a, eye) - sp.kron(eye, n_a))
    L = L.tocsr()
    sector = (kets[:, None] * dim + kets).ravel()
    phase = _frame_phase(sector, c)
    k, l = np.divmod(sector, dim)
    mirror = np.searchsorted(sector, l * dim + k)
    lower = np.flatnonzero(k > l)

    def fold(half, sign):
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
    x0 = (phase.conj() * v0[sector]).real
    keep = _sector(M, x0)
    return M[keep][:, keep], x0[keep], sector[keep], phase[keep]


def _scipy_moment_weights(sector, phase, c: FockConfig) -> sp.csc_matrix:
    """The (sector.size, 12) transpose of ``focksim._moment_weights``, read
    from the sparse mode operators at the sector's index pairs."""
    k, l = np.divmod(sector, c.cutoff_a * c.cutoff_b)
    a, b = mode_operators(c)
    parts = []
    for o, op in enumerate((a, a.conj().T @ a, a @ a, b, b.conj().T @ b, b @ b)):
        lk = np.asarray(op[l, k]).ravel().real
        kl = np.where(k != l, np.asarray(op[k, l]).ravel().real, 0.0)
        w = np.array([phase.real * (lk + kl), phase.imag * (lk - kl)])
        part, j = np.nonzero(w)
        parts.append((w[part, j], j, o + 6 * part))
    data, row, col = map(np.concatenate, zip(*parts))
    return sp.csc_matrix((data, (row, col)), shape=(sector.size, 12))


def _assert_canonical(A):
    """Sorted column indices within each row, no duplicate and no stored
    zero."""
    assert A.indptr[0] == 0 and A.indptr[-1] == A.nnz and np.all(np.diff(A.indptr) >= 0)
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    key = rows * A.shape[1] + A.indices
    assert np.all(np.diff(key) > 0) and np.all((A.indices >= 0) & (A.indices < A.shape[1]))
    assert np.all(A.data != 0)


def lindblad_rhs(rho: np.ndarray, H, gamma: float, c: FockConfig) -> np.ndarray:
    """i[rho, H] + (gamma/2)(2 a rho a' - a'a rho - rho a'a), on one matrix
    or a stack of them: the master equation written out with dense
    operators, the oracle of the operator that ``evolve`` propagates."""
    dim = c.cutoff_a * c.cutoff_b
    if rho.shape[-2:] != (dim, dim):
        raise InvalidInputError(f"density matrix shape {rho.shape} != ({dim}, {dim})")
    a, H = mode_operators(c)[0].toarray(), _sp(H).toarray()
    ad = a.conj().T
    n_a = ad @ a
    drho = 1j * (rho @ H - H @ rho)
    drho += gamma / 2.0 * (2.0 * (a @ rho @ ad) - n_a @ rho - rho @ n_a)
    return drho


def _full_liouvillian(kind, p, c: FockConfig) -> np.ndarray:
    """The dense full-space Liouvillian of ``lindblad_rhs``, one column per
    basis matrix |k><l|, in the row-major vec(rho) order."""
    dim = c.cutoff_a * c.cutoff_b
    basis = np.eye(dim * dim).reshape(-1, dim, dim)
    H = build_hamiltonian(kind, p, c)
    return lindblad_rhs(basis, H, p.gamma, c).reshape(dim * dim, -1).T


class TestOperators:
    def test_destroy_matrix_elements(self):
        a = destroy(4).toarray()
        expected = np.zeros((4, 4), dtype=complex)
        for n in range(1, 4):
            expected[n - 1, n] = math.sqrt(n)
        assert np.array_equal(a, expected)

    def test_commutator_on_truncated_space(self):
        n = 7
        a = destroy(n)
        comm = (a @ a.conj().T - a.conj().T @ a).toarray()
        # canonical except in the top retained level
        assert np.allclose(comm[:-1, :-1], np.eye(n - 1))
        assert comm[-1, -1] == pytest.approx(-(n - 1))

    def test_mode_operators_commute(self):
        a, b = mode_operators(CFG)
        assert abs(a @ b - b @ a).max() == 0.0

    def test_tensor_layout(self):
        # |n_a, n_b> lives at flat index n_a * cutoff_b + n_b
        a, b = mode_operators(CFG)
        state = np.zeros(36)
        state[2 * 6 + 3] = 1.0  # |2, 3>
        na = np.real((a.conj().T @ a) @ state)[2 * 6 + 3]
        nb = np.real((b.conj().T @ b) @ state)[2 * 6 + 3]
        assert na == pytest.approx(2.0)
        assert nb == pytest.approx(3.0)


class TestHamiltonian:
    @pytest.mark.parametrize(
        "kind,p",
        [
            ("linear", LinearParams(Omega=0.1, g=0.5, gamma=1.0)),
            ("nonlinear", NonlinearParams(Omega=0.25, J=1.0, gamma=0.5)),
        ],
    )
    def test_hermitian(self, kind, p):
        H = _sp(build_hamiltonian(kind, p, CFG))
        assert abs(H - H.conj().T).max() < 1e-14

    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            build_hamiltonian("quadratic", LinearParams(g=1.0), CFG)

    def test_nonlinear_matrix_element(self):
        # <0,2| J a'bb + b'b'a |1,0> = 0; <0,2| ... |1,0>: a'bb lowers b twice
        # and raises a: <1'... check <n_a=1,n_b=0| b'b'a |0, ...> instead:
        # b'b'a |1,0> = sqrt(1)*sqrt(1)*sqrt(2) |0,2>
        p = NonlinearParams(Omega=0.0, J=0.7, gamma=0.0)
        H = _sp(build_hamiltonian("nonlinear", p, CFG)).toarray()
        row = 0 * 6 + 2  # <0,2|
        col = 1 * 6 + 0  # |1,0>
        assert H[row, col] == pytest.approx(0.7 * math.sqrt(2.0))


class TestLindblad:
    def test_rhs_traceless(self):
        p = NonlinearParams(Omega=0.25, J=1.0, gamma=0.5)
        H = build_hamiltonian("nonlinear", p, CFG)
        rng = np.random.default_rng(3)
        m = rng.normal(size=(36, 36)) + 1j * rng.normal(size=(36, 36))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        drho = lindblad_rhs(rho, H, p.gamma, CFG)
        assert abs(np.trace(drho)) < 1e-12
        assert np.max(np.abs(drho - drho.conj().T)) < 1e-12

    def test_liouvillian_matches_rhs(self):
        # the operator that evolve propagates, on a full-rank complex start,
        # where it keeps every entry of rho
        p = NonlinearParams(Omega=0.25, J=1.0, gamma=0.5)
        H = build_hamiltonian("nonlinear", p, CFG)
        rng = np.random.default_rng(4)
        m = rng.normal(size=(36, 36)) + 1j * rng.normal(size=(36, 36))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        M, x0, sector, phase = _folded_problem("nonlinear", p, CFG, rho.reshape(-1))
        assert x0.size == 36 * 36
        k, l = np.divmod(sector, 36)
        assert np.max(np.abs(_unfold(x0[None], k, l, phase, 36)[0] - rho)) < 1e-15
        direct = lindblad_rhs(rho, H, p.gamma, CFG)
        via_super = _unfold((_sp(M) @ x0)[None], k, l, phase, 36)[0]
        assert np.max(np.abs(direct - via_super)) < 1e-12

    def test_rhs_shape_validated(self):
        H = build_hamiltonian("linear", LinearParams(g=1.0), CFG)
        with pytest.raises(InvalidInputError):
            lindblad_rhs(np.eye(5, dtype=complex), H, 0.5, CFG)


class TestEvolve:
    def test_linear_route_matches_closed_form(self):
        p = LinearParams(omega_b=1.0, Omega=0.1, g=0.5, gamma=1.0)
        traj = evolve("linear", p, CFG, 10.0, n_samples=41)
        e_ref = energy_linear(traj.times, p)
        e = traj.battery_population()
        assert np.max(np.abs(e - e_ref)) < 1e-6
        assert traj.cutoff_ok

    def test_validate_and_invariants(self):
        p = NonlinearParams(Omega=0.25, J=1.0, gamma=0.5)
        cfg = FockConfig(cutoff_a=8, cutoff_b=10)
        traj = evolve("nonlinear", p, cfg, 10.0, n_samples=21)
        check_density_matrix(traj.rhos)  # every sample; raises on a violation
        assert traj.cutoff_ok

    def test_cutoff_flag_trips_when_truncation_too_small(self):
        p = NonlinearParams(Omega=2.0, J=1.0, gamma=0.1)
        tiny = FockConfig(cutoff_a=3, cutoff_b=3)
        traj = evolve("nonlinear", p, tiny, 20.0, n_samples=21)
        assert not traj.cutoff_ok

    def test_cutoff_flag_sees_top_reachable_battery_level(self):
        # from vacuum the nonlinear model keeps n_b even, so at cutoff_b = 4
        # level |3> stays empty while |2> fills and the energy is ~9% off
        p = NonlinearParams(Omega=0.25, J=1.0, gamma=0.5)
        traj = evolve("nonlinear", p, FockConfig(cutoff_a=8, cutoff_b=4), 40.0,
                      n_samples=17)
        pop_b = np.real(np.diagonal(traj.reduced_battery_states(), axis1=1, axis2=2))
        assert np.max(pop_b[:, 3]) == 0.0
        assert np.max(pop_b[:, 2]) > 1e-2
        assert not traj.cutoff_ok

    @pytest.mark.parametrize("kind,p,cfg,start", [
        ("linear", LinearParams(Omega=0.0, g=0.5, gamma=1.0), FockConfig(4, 4), (0, 0)),
        ("linear", LinearParams(Omega=0.0, g=0.5, gamma=1.0), FockConfig(8, 12), (0, 0)),
        ("nonlinear", NonlinearParams(Omega=0.0, J=1.0, gamma=0.5), FockConfig(4, 4),
         (0, 0)),
        ("nonlinear", NonlinearParams(Omega=0.0, J=1.0, gamma=0.5), FockConfig(8, 12),
         (0, 0)),
        # conserved_charge_drift's start, which only mixes with |0,2>
        ("nonlinear", NonlinearParams(Omega=0.0, J=1.0, gamma=0.0), FockConfig(4, 6),
         (1, 0)),
        # at a cutoff of 2 the vacuum's level 0 lies one step below it
        ("linear", LinearParams(Omega=0.0, g=0.5, gamma=1.0), FockConfig(2, 6), (0, 0)),
        ("nonlinear", NonlinearParams(Omega=0.0, J=1.0, gamma=0.5), FockConfig(2, 6),
         (0, 0)),
        ("linear", LinearParams(Omega=0.0, g=0.5, gamma=1.0), FockConfig(2, 2), (0, 0)),
    ], ids=["linear-undriven-4-4", "linear-undriven-8-12", "nonlinear-undriven-4-4",
            "nonlinear-undriven-8-12", "conserved-charge-start", "linear-undriven-2-6",
            "nonlinear-undriven-2-6", "linear-undriven-2-2"])
    def test_cutoff_flag_holds_where_the_truncation_cannot_act(self, kind, p, cfg, start):
        # the highest reached level of each mode lies more than one step (two
        # levels for the nonlinear battery, one otherwise) below its cutoff,
        # so the evolution never reaches the truncation, however full it is
        traj = evolve(kind, p, cfg, 5.0, n_samples=9,
                      initial_state=_fock_state(cfg, *start))
        assert traj.cutoff_ok

    @pytest.mark.parametrize("cfg", [FockConfig(8, 20), FockConfig(8, 24)],
                             ids=["criterion-11", "fig4"])
    def test_cutoff_flag_trips_on_a_full_charger_top_level(self, cfg):
        # criterion 11's and fig4's point at Omega = J, gamma = 0.5: the
        # charger's level 7 holds more than TOP_LEVEL_TOL within t = 10
        p = NonlinearParams(Omega=1.0, J=1.0, gamma=0.5)
        assert not evolve("nonlinear", p, cfg, 10.0, n_samples=9).cutoff_ok

    def test_initial_state_validated(self):
        p = NonlinearParams(Omega=0.0, J=1.0, gamma=0.0)
        with pytest.raises(InvalidInputError, match="shape"):
            evolve("nonlinear", p, CFG, 1.0, initial_state=np.eye(5))
        with pytest.raises(InvalidInputError, match="unit trace"):
            evolve("nonlinear", p, CFG, 1.0, initial_state=np.zeros((36, 36)))

    def test_initial_state_must_be_a_density_matrix(self):
        p = NonlinearParams(Omega=0.0, J=1.0, gamma=0.0)
        skew = vacuum_state(CFG)
        skew[0, 1] = 1e-6  # unit trace, not Hermitian
        with pytest.raises(InvalidInputError, match="not Hermitian"):
            evolve("nonlinear", p, CFG, 1.0, initial_state=skew)
        negative = np.diag([1.2, -0.2] + [0.0] * 34).astype(complex)
        with pytest.raises(InvalidInputError, match="negative eigenvalue"):
            evolve("nonlinear", p, CFG, 1.0, initial_state=negative)

    def test_non_finite_initial_state_refused(self):
        p = NonlinearParams(Omega=0.25, J=1.0, gamma=0.5)
        rho0 = vacuum_state(CFG)
        rho0[0, 1] = rho0[1, 0] = np.nan
        with pytest.raises(InvalidInputError, match="non-finite"):
            evolve("nonlinear", p, CFG, 1.0, initial_state=rho0)

    def test_validate_rejects_a_tampered_stack(self, monkeypatch):
        p = NonlinearParams(Omega=0.25, J=1.0, gamma=0.5)
        cfg = FockConfig(cutoff_a=4, cutoff_b=6)
        dim = 24
        traj = evolve("nonlinear", p, cfg, 2.0, n_samples=5)
        check_density_matrix(traj.rhos)
        _, _, sector, _ = _folded_problem("nonlinear", p, cfg, vacuum_state(cfg).reshape(-1))
        # populations of |0,0> and |1,0>
        ground, excited = np.searchsorted(sector, [0, cfg.cutoff_b * (dim + 1)])
        assert sector[excited] == cfg.cutoff_b * (dim + 1)

        def tampered(A, b, t_end, num, cols=slice(None)):
            # the propagated vector, tampered whichever columns evolve or
            # rhos asks for
            out = propagate.expm_multiply(A, b, t_end, num)
            out[-1, ground] += 0.5  # the trace stays 1, <1,0|rho|1,0> < 0
            out[-1, excited] -= 0.5
            return out[:, cols]

        monkeypatch.setattr(focksim, "expm_multiply", tampered)
        traj = evolve("nonlinear", p, cfg, 2.0, n_samples=5)  # evolve checks no sample
        # the kept columns hold it too
        assert traj.sector_states[-1, np.searchsorted(traj.sector, sector[excited])] < 0.0
        with pytest.raises(UnphysicalStateError, match="negative eigenvalue"):
            check_density_matrix(traj.rhos)

    def test_non_finite_unread_entry_refused(self, monkeypatch):
        # a NaN in an entry that no observable reads, cut off from every
        # other entry, so that it never reaches a returned column: the
        # propagator's check covers every entry that it computes
        p = NonlinearParams(Omega=0.25, J=1.0, gamma=0.5)
        folded = focksim._folded_problem
        unread = []

        def poisoned(*args):
            M, x0, sector, phase = folded(*args)
            k, l = np.divmod(sector, CFG.cutoff_a * CFG.cutoff_b)
            j = np.flatnonzero(np.abs(k // CFG.cutoff_b - l // CFG.cutoff_b) > 2)[0]
            M = _sp(M).tocoo()
            cut = (M.col != j) | (M.row == j)
            M = sp.csr_matrix((M.data[cut], (M.row[cut], M.col[cut])), shape=M.shape)
            x0 = x0.copy()
            x0[j] = np.nan
            unread.append(j)
            return M, x0, sector, phase

        monkeypatch.setattr(focksim, "_folded_problem", poisoned)
        with pytest.raises(ConvergenceError, match="non-finite values"):
            evolve("nonlinear", p, CFG, 2.0, n_samples=5)
        assert len(unread) == 1

    def test_initial_state_honoured(self):
        dim = CFG.cutoff_a * CFG.cutoff_b
        rho0 = np.zeros((dim, dim), dtype=complex)
        rho0[CFG.cutoff_b, CFG.cutoff_b] = 1.0  # |1, 0>
        p = NonlinearParams(Omega=0.0, J=1.0, gamma=0.0)
        traj = evolve("nonlinear", p, CFG, 2.0, n_samples=11,
                      initial_state=rho0)
        # |1,0> couples to |0,2>: populations oscillate, total stays 1
        nb = traj.battery_population()
        assert nb[0] == pytest.approx(0.0, abs=1e-12)
        assert nb.max() > 1.0

    def test_t_end_validated(self):
        for t_end in (0.0, np.nan, np.inf):
            with pytest.raises(InvalidInputError, match="finite and positive"):
                evolve("linear", LinearParams(g=1.0), CFG, t_end)

    @pytest.mark.parametrize("n_samples", [1, 0])
    def test_fewer_than_two_samples_refused(self, monkeypatch, n_samples):
        def unreachable(*args):
            raise AssertionError("Liouvillian built for an invalid sample count")

        monkeypatch.setattr(focksim, "_folded_problem", unreachable)
        with pytest.raises(InvalidInputError, match="need at least 2 samples"):
            evolve("nonlinear", NonlinearParams(Omega=0.25, J=1.0, gamma=0.5), CFG,
                   1.0, n_samples=n_samples)

    def test_global_rng_neither_used_nor_advanced(self):
        p = NonlinearParams(Omega=0.25, J=1.0, gamma=0.5)
        saved = np.random.get_state()
        try:
            np.random.seed(11)
            before = np.random.get_state()
            first = evolve("nonlinear", p, CFG, 10.0, n_samples=5).sector_states
            after = np.random.get_state()
            assert before[0] == after[0] and before[2:] == after[2:]
            assert np.array_equal(before[1], after[1])
            np.random.seed(12)
            second = evolve("nonlinear", p, CFG, 10.0, n_samples=5).sector_states
        finally:
            np.random.set_state(saved)
        assert np.array_equal(first, second)

    def test_trace_holds_over_a_long_horizon(self):
        # a fig4 row's weak-drive point over its whole window: 256 sample
        # steps of 7 Taylor sub-steps each, on into the steady state; the
        # drift measured 1.8e-13, far inside check_density_matrix's 1e-8
        traj = evolve("nonlinear", NonlinearParams(Omega=0.1, J=1.0, gamma=0.5),
                      FockConfig(8, 8), 240.0, n_samples=257)
        trace = np.trace(traj.rhos, axis1=1, axis2=2)
        assert np.max(np.abs(trace - 1.0)) <= 1e-12


@settings(deadline=None, max_examples=25)
@given(
    st.sampled_from(["linear", "nonlinear"]),
    st.floats(0.01, 0.3),  # Omega
    st.floats(0.5, 2.0),  # g or J
    st.floats(0.0, 2.0),  # gamma
    st.integers(4, 6),  # cutoff_a
    st.integers(6, 10),  # cutoff_b
    st.floats(1.0, 10.0),  # t_end
)
def test_driven_trajectories_keep_d_at_least_one(kind, Omega, coupling, gamma, ca, cb, t_end):
    if kind == "linear":
        p = LinearParams(Omega=Omega, g=coupling, gamma=gamma)
    else:
        p = NonlinearParams(Omega=Omega, J=coupling, gamma=gamma)
    traj = evolve(kind, p, FockConfig(cutoff_a=ca, cutoff_b=cb), t_end, n_samples=9)
    assume(traj.cutoff_ok)  # truncation bends [b, b'] and with it the bound
    D = covariance_determinant(MomentState.from_array(traj.moments()))
    assert np.all(D >= 1.0 - 1e-9)


def _coherent_cutoff(n_max):
    """The fewest levels whose top level holds at most TOP_LEVEL_TOL / 10 of
    every coherent state with mean number up to n_max."""
    c = max(2, math.ceil(n_max) + 2)
    while math.exp(-n_max) * n_max ** (c - 1) / math.factorial(c - 1) > TOP_LEVEL_TOL / 10:
        c += 1
    return c


@settings(deadline=None, max_examples=25)
@given(st.floats(0.01, 0.4), st.floats(0.5, 2.0), st.floats(0.0, 3.0), st.floats(0.2, 3.0),
       st.floats(1.0, 10.0))
def test_linear_fock_energy_matches_closed_form(Omega, g, gamma, omega_b, t_end):
    # from vacuum both modes stay coherent, with |<a>|^2 <= (Omega/g)^2 and
    # |<b>|^2 <= 4 (Omega/g)^2 at all times
    p = LinearParams(omega_b=omega_b, Omega=Omega, g=g, gamma=gamma)
    cfg = FockConfig(cutoff_a=_coherent_cutoff((Omega / g) ** 2),
                     cutoff_b=_coherent_cutoff(4.0 * (Omega / g) ** 2))
    traj = evolve("linear", p, cfg, t_end, n_samples=9)
    assert traj.cutoff_ok
    energy = omega_b * traj.battery_population()
    assert np.max(np.abs(energy - energy_linear(traj.times, p))) <= 1e-6 * omega_b


def _random_density_matrix(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


@pytest.mark.parametrize(
    "kind,p,rho0",
    [
        ("linear", LinearParams(Omega=0.1, g=0.5, gamma=1.0), None),
        # a generic start makes the odd-parity moments <a>, <b> nonzero
        ("nonlinear", NonlinearParams(Omega=0.25, J=1.0, gamma=0.5),
         _random_density_matrix(36, 7)),
    ],
)
def test_batched_observables_match_per_sample(kind, p, rho0):
    traj = evolve(kind, p, CFG, 6.0, n_samples=13, initial_state=rho0)
    _, b = mode_operators(CFG)
    nb = (b.conj().T @ b).tocsr()
    fields = ("a_mean", "a_num", "a_sq", "b_mean", "b_num", "b_sq")
    batched = [MomentState.from_array(m) for m in traj.moments()]
    rhos = traj.rhos  # propagated again on each access
    assert len(batched) == len(rhos) == 13
    for rho, m in zip(rhos, batched):
        ref = extract_moments(rho, CFG)
        for f in fields:
            assert abs(getattr(m, f) - getattr(ref, f)) < 1e-12, f
    pop = np.array([np.real(expectation(rho, nb)) for rho in rhos])
    assert np.max(np.abs(traj.battery_population() - pop)) < 1e-12
    reduced = traj.reduced_battery_states()
    ref_reduced = np.array([reduced_battery_state(r, CFG) for r in rhos])
    assert reduced.shape == (13, 6, 6)
    assert np.max(np.abs(reduced - ref_reduced)) < 1e-12
    erg = exact_ergotropy(reduced, p.omega_b)
    ref_erg = [exact_ergotropy(r, p.omega_b) for r in ref_reduced]
    assert np.max(np.abs(erg - ref_erg)) < 1e-12
    if rho0 is not None:
        assert np.max(np.abs([m.b_mean for m in batched])) > 1e-3
        assert np.max(np.abs([m.a_mean for m in batched])) > 1e-3


def _moments_by_unfolded_weights(traj):
    """The moments as the stack times U W, the oracle of the fold in
    ``FockTrajectory.moments``: row j of U puts phase[j] on the row-major
    vec(rho) entry (k, l) of sector[j] and its conjugate on (l, k), and
    column o of the real W is vec(O^T), so vec(rho) @ W[:, o] = Tr(rho O).
    The product with the stack is the one ``moments`` takes."""
    c = traj.config
    dim = c.cutoff_a * c.cutoff_b
    a, b = mode_operators(c)
    ops = (a, a.conj().T @ a, a @ a, b, b.conj().T @ b, b @ b)
    W = sp.hstack([op.T.reshape((-1, 1)).real for op in ops], format="csr")
    k, l = np.divmod(traj.sector, dim)
    j, off = np.arange(k.size), k != l
    U = sp.csr_matrix((np.r_[traj.phase, traj.phase[off].conj()],
                       (np.r_[j, j[off]], np.r_[k * dim + l, (l * dim + k)[off]])),
                      shape=(k.size, dim * dim))
    W = U @ W
    W = sp.hstack([W.real, W.imag], format="csc")
    W.eliminate_zeros()
    cols = np.unique(W.indices)
    P = traj.sector_states[:, cols] @ W[cols]
    return P[:, :6] + 1j * P[:, 6:]


@settings(deadline=None, max_examples=30)
@given(
    st.sampled_from(["linear", "nonlinear"]),
    st.floats(0.01, 1.0),  # Omega
    st.floats(0.2, 2.0),  # g or J
    st.floats(0.0, 2.0),  # gamma
    st.integers(2, 8),  # cutoff_a
    st.integers(2, 8),  # cutoff_b
    st.booleans(),  # a random complex start, else the vacuum
    st.integers(0, 2**32 - 1),
)
# the benchmark's two Fock points
@example("nonlinear", 0.25, 1.0, 0.5, 8, 12, False, 0)
@example("linear", 0.1, 0.5, 1.0, 6, 6, False, 0)
def test_folded_moments_equal_the_unfolded_weights(kind, Omega, coupling, gamma, ca, cb,
                                                   complex_start, seed):
    c = FockConfig(cutoff_a=ca, cutoff_b=cb)
    if kind == "linear":
        p = LinearParams(Omega=Omega, g=coupling, gamma=gamma)
    else:
        p = NonlinearParams(Omega=Omega, J=coupling, gamma=gamma)
    rho0 = _random_density_matrix(ca * cb, seed) if complex_start else None
    traj = evolve(kind, p, c, 2.0, n_samples=5, initial_state=rho0)
    assert np.array_equal(traj.moments(), _moments_by_unfolded_weights(traj))


def _parity_projected(rho, c):
    """rho restricted to even battery numbers on both sides, renormalized."""
    even = np.arange(c.cutoff_a * c.cutoff_b) % c.cutoff_b % 2 == 0
    out = np.where(np.outer(even, even), rho, 0.0)
    return out / np.trace(out)


@settings(deadline=None, max_examples=25)
@given(
    st.sampled_from(["linear", "nonlinear"]),
    st.floats(0.01, 1.0),  # Omega
    st.floats(0.2, 2.0),  # g or J
    st.floats(0.05, 2.0),  # gamma
    st.sampled_from(["vacuum", "even", "full"]),
    st.integers(0, 2**32 - 1),
)
def test_sector_propagation_matches_full_space(kind, Omega, coupling, gamma, start, seed):
    c = FockConfig(cutoff_a=3, cutoff_b=4)
    dim = 12
    if kind == "linear":
        p = LinearParams(Omega=Omega, g=coupling, gamma=gamma)
    else:
        p = NonlinearParams(Omega=Omega, J=coupling, gamma=gamma)
    rho0 = {
        "vacuum": vacuum_state(c),
        "even": _parity_projected(_random_density_matrix(dim, seed), c),
        "full": _random_density_matrix(dim, seed),
    }[start]
    traj = evolve(kind, p, c, 3.0, n_samples=5, initial_state=rho0)
    ref = expm_multiply(sp.csc_matrix(_full_liouvillian(kind, p, c)), rho0.reshape(-1), start=0.0, stop=3.0, num=5,
                        endpoint=True)
    # the kets reached: all of them, or the even battery numbers when the
    # nonlinear coupling keeps a parity start in its block; a real start
    # propagates the k <= l half of S, a complex one all of S and A
    n = dim if kind == "linear" or start == "full" else 3 * 2
    _, _, sector, _ = _folded_problem(kind, p, c, rho0.reshape(-1))
    assert sector.size == (n * (n + 1) // 2 if start == "vacuum" else n * n)
    assert np.max(np.abs(traj.rhos.reshape(len(ref), -1) - ref)) < 1e-10
    ref_rhos = ref.reshape(-1, dim, dim)
    fields = ("a_mean", "a_num", "a_sq", "b_mean", "b_num", "b_sq")
    ref_moments = np.array([[getattr(extract_moments(r, c), f) for f in fields]
                            for r in ref_rhos])
    assert np.max(np.abs(traj.moments() - ref_moments)) < 1e-10
    ref_reduced = np.array([reduced_battery_state(r, c) for r in ref_rhos])
    reduced = traj.reduced_battery_states()
    assert np.max(np.abs(reduced - ref_reduced)) < 1e-10
    ref_erg = [exact_ergotropy(r, p.omega_b) for r in ref_reduced]
    assert np.max(np.abs(exact_ergotropy(reduced, p.omega_b) - ref_erg)) < 1e-10


@pytest.fixture
def handed_to_propagator(monkeypatch):
    """(rows, nnz) of every matrix evolve hands to expm_multiply."""
    seen = []

    def recording(L, *args):
        seen.append((L.shape[0], L.nnz))
        return propagate.expm_multiply(L, *args)

    monkeypatch.setattr(focksim, "expm_multiply", recording)
    return seen


@pytest.mark.parametrize(
    "kind,p,cfg,rows,nnz",
    [
        # even battery parity on both sides of rho: a quarter of the space
        ("nonlinear", NonlinearParams(Omega=0.25, J=1.0, gamma=0.5),
         FockConfig(cutoff_a=8, cutoff_b=12), 1176, 9450),
        # no conserved parity: the whole space
        ("linear", LinearParams(Omega=0.1, g=0.5, gamma=1.0),
         FockConfig(cutoff_a=6, cutoff_b=6), 666, 5070),
    ],
)
def test_liouvillian_handed_to_propagator(handed_to_propagator, kind, p, cfg, rows, nnz):
    evolve(kind, p, cfg, 1.0, n_samples=3)
    assert handed_to_propagator == [(rows, nnz)]


def test_conserved_charge_start_stays_in_its_sector(handed_to_propagator):
    # with Omega = gamma = 0, |1,0> only mixes with |0,2>: M = 2a'a + b'b = 2
    conserved_charge_drift(NonlinearParams(Omega=0.0, J=1.0, gamma=0.0),
                           FockConfig(4, 6), 5.0)
    assert [rows for rows, _ in handed_to_propagator] == [3]


def _assert_built_as_scipy_builds(kind, p, c, rho0):
    """The Hamiltonian, the folded problem and the moment weights equal the
    scipy-built oracles to the bit, and each matrix is canonical."""
    H = build_hamiltonian(kind, p, c)
    ref = _scipy_hamiltonian(kind, p, c).sorted_indices()
    _assert_canonical(H)
    assert not np.any(ref.data.imag)
    for got, want in zip(H[:3], (ref.data.real, ref.indices, ref.indptr)):
        assert np.array_equal(got, want)
    problem = _folded_problem(kind, p, c, rho0.reshape(-1))
    M, ref = problem[0], _scipy_folded_problem(kind, p, c, rho0.reshape(-1))
    _assert_canonical(M)
    assert M.data.dtype == np.float64
    for got, want in zip((*M[:3], *problem[1:]), (ref[0].data, ref[0].indices, ref[0].indptr,
                                                   *ref[1:])):
        assert np.array_equal(got, want)
    W = _moment_weights(*problem[2:], c)
    ref = _scipy_moment_weights(*problem[2:], c)  # its CSC arrays are those of W's CSR
    _assert_canonical(W)
    for got, want in zip(W[:3], (ref.data, ref.indices, ref.indptr)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("kind,p,cfg,start", [
    ("nonlinear", NonlinearParams(Omega=0.25, J=1.0, gamma=0.5), FockConfig(8, 12), (0, 0)),
    ("linear", LinearParams(Omega=0.1, g=0.5, gamma=1.0), FockConfig(6, 6), (0, 0)),
    ("nonlinear", NonlinearParams(Omega=0.0, J=1.0, gamma=0.0), FockConfig(4, 6), (1, 0)),
    ("nonlinear", NonlinearParams(Omega=0.562, J=1.0, gamma=0.5), FockConfig(8, 24), (0, 0)),
], ids=["traj-nonlinear", "linear-6-6", "conserved-charge-start", "fig4-8-24"])
def test_operators_are_scipys_at_the_oracle_points(kind, p, cfg, start):
    _assert_built_as_scipy_builds(kind, p, cfg, _fock_state(cfg, *start))


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from(["linear", "nonlinear"]),
    st.one_of(st.just(0.0), st.floats(0.0, 2.0, allow_subnormal=False)),  # Omega
    st.floats(0.05, 2.0),  # g or J
    # gamma = 0 leaves zeros in scipy's dissipator, which its sums drop
    st.one_of(st.just(0.0), st.floats(0.0, 2.0, allow_subnormal=False)),
    st.integers(2, 6),  # cutoff_a
    st.integers(2, 6),  # cutoff_b
    st.sampled_from(["vacuum", "fock", "real", "complex"]),
    st.integers(0, 2**32 - 1),
)
def test_operators_are_scipys(kind, Omega, coupling, gamma, ca, cb, start, seed):
    c = FockConfig(cutoff_a=ca, cutoff_b=cb)
    if kind == "linear":
        p = LinearParams(Omega=Omega, g=coupling, gamma=gamma)
    else:
        p = NonlinearParams(Omega=Omega, J=coupling, gamma=gamma)
    dim = ca * cb
    rho0 = {
        "vacuum": lambda: vacuum_state(c),
        "fock": lambda: _fock_state(c, seed % ca, seed % cb),
        "real": lambda: np.diag(np.random.default_rng(seed).dirichlet(np.ones(dim))),
        "complex": lambda: _random_density_matrix(dim, seed),
    }[start]()
    _assert_built_as_scipy_builds(kind, p, c, rho0)


@pytest.fixture
def propagator_dtypes(monkeypatch):
    """(matrix dtype, vector dtype) of every expm_multiply call of evolve."""
    seen = []

    def recording(L, v, *args):
        seen.append((L.data.dtype, v.dtype))
        return propagate.expm_multiply(L, v, *args)

    monkeypatch.setattr(focksim, "expm_multiply", recording)
    return seen


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from(["linear", "nonlinear"]),
    st.one_of(st.just(0.0), st.floats(0.0, 2.0)),  # Omega, undriven half the time
    st.floats(0.05, 2.0),  # g or J
    st.floats(0.0, 2.0),  # gamma
    st.integers(2, 5),  # cutoff_a
    st.integers(2, 5),  # cutoff_b
    # a Fock state |n_a, n_b> that the undriven coupling alone does not take
    # to the kets that the decay of the charger reaches
    st.sampled_from(["vacuum", "fock", "real", "complex"]),
    st.integers(0, 2**32 - 1),
)
def test_folded_operator_matches_rhs(kind, Omega, coupling, gamma, ca, cb, start, seed):
    """For any x on the kept columns, M x unfolds to the master equation's
    right-hand side at the rho that x unfolds to: the operator is real,
    exact on the kets it is built on, and leaves no entry outside them."""
    c = FockConfig(cutoff_a=ca, cutoff_b=cb)
    if kind == "linear":
        p = LinearParams(Omega=Omega, g=coupling, gamma=gamma)
    else:
        p = NonlinearParams(Omega=Omega, J=coupling, gamma=gamma)
    dim = ca * cb
    rho0 = {
        "vacuum": lambda: vacuum_state(c),
        "fock": lambda: _fock_state(c, 1 + seed % (ca - 1), seed % cb),
        "real": lambda: np.diag(np.random.default_rng(seed).dirichlet(np.ones(dim))),
        "complex": lambda: _random_density_matrix(dim, seed),
    }[start]()
    M, x0, sector, phase = _folded_problem(kind, p, c, rho0.reshape(-1))
    assert M.data.dtype == np.float64 and x0.dtype == np.float64
    assert set(np.unique(phase)) <= {1, 1j, -1, -1j}
    k, l = np.divmod(sector, dim)
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(1, x0.size))
    rho = _unfold(x, k, l, phase, dim)[0]
    drho = _unfold((_sp(M) @ x[0])[None], k, l, phase, dim)[0]
    H = build_hamiltonian(kind, p, c)
    assert np.max(np.abs(drho - lindblad_rhs(rho, H, gamma, c))) < 1e-12


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from(["linear", "nonlinear"]),
    st.floats(0.0, 2.0),  # Omega
    st.floats(0.05, 2.0),  # g or J
    st.floats(0.0, 2.0),  # gamma
    st.integers(2, 5),  # cutoff_a
    st.integers(2, 5),  # cutoff_b
    st.sampled_from(["vacuum", "full"]),
)
def test_liouvillian_is_real_in_the_frame(kind, Omega, coupling, gamma, ca, cb, start):
    """In the frame R = V'rho V the full-space Liouvillian is real on the
    entries the start reaches, the frame multiplies each of its entries by a
    power of i, and the folded operator keeps exactly those entries: the
    k <= l half of them for a real start, and the k < l half once more for
    a complex one."""
    c = FockConfig(cutoff_a=ca, cutoff_b=cb)
    if kind == "linear":
        p = LinearParams(Omega=Omega, g=coupling, gamma=gamma)
    else:
        p = NonlinearParams(Omega=Omega, J=coupling, gamma=gamma)
    dim = ca * cb
    rho0 = vacuum_state(c) if start == "vacuum" else _random_density_matrix(dim, 5)
    M, x0, sector, phase = _folded_problem(kind, p, c, rho0.reshape(-1))
    assert M.data.dtype == np.float64 and x0.dtype == np.float64
    assert set(np.unique(phase)) <= {1, 1j, -1, -1j}
    plain = _full_liouvillian(kind, p, c)
    full_phase = _frame_phase(np.arange(dim * dim), c)
    framed = full_phase.conj()[:, None] * plain * full_phase
    assert np.array_equal(np.abs(framed), np.abs(plain))
    reached = _sector(sp.csr_matrix(plain), rho0.reshape(-1))
    assert np.count_nonzero(framed[reached][:, reached].imag) == 0
    k, l = np.divmod(reached, dim)
    upper = reached[k <= l]
    kept = upper if start == "vacuum" else np.r_[upper, reached[k < l]]
    assert np.array_equal(sector, kept)


@settings(deadline=None, max_examples=30)
@given(
    st.sampled_from(["linear", "nonlinear"]),
    st.floats(1e-3, 2.0),  # Omega
    st.floats(0.05, 2.0),  # g or J
    st.floats(0.0, 2.0),  # gamma
    st.integers(2, 6),  # cutoff_a
    st.integers(2, 6),  # cutoff_b
)
def test_driven_vacuum_reaches_within_two_levels_of_each_cutoff(kind, Omega, coupling,
                                                                gamma, ca, cb):
    # so for every driven vacuum run the truncation flag watches the highest
    # reached level of each mode, whatever the coupling: it lies within one
    # step of the cutoff (two levels for the nonlinear battery, one otherwise)
    c = FockConfig(cutoff_a=ca, cutoff_b=cb)
    if kind == "linear":
        p = LinearParams(Omega=Omega, g=coupling, gamma=gamma)
    else:
        p = NonlinearParams(Omega=Omega, J=coupling, gamma=gamma)
    _, _, sector, _ = _folded_problem(kind, p, c, vacuum_state(c).reshape(-1))
    n_a, n_b = np.divmod(sector // (ca * cb), cb)
    assert n_a.max() == ca - 1
    assert n_b.max() >= cb - (2 if kind == "nonlinear" else 1)


def test_real_starts_propagate_in_real_arithmetic(propagator_dtypes):
    evolve("nonlinear", NonlinearParams(Omega=0.25, J=1.0, gamma=0.5), CFG, 1.0,
           n_samples=3)
    traj = evolve("linear", LinearParams(Omega=0.1, g=0.5, gamma=1.0), CFG, 1.0,
                  n_samples=3)
    assert traj.sector_states.dtype == np.float64
    assert traj.reduced_battery_states().dtype == np.float64
    # |1,0>, whose sector is {|1,0>, |0,2>} on both sides
    conserved_charge_drift(NonlinearParams(Omega=0.0, J=1.0, gamma=0.0),
                           FockConfig(4, 6), 5.0)
    assert propagator_dtypes == [(np.float64, np.float64)] * 3


def test_complex_start_stays_complex(propagator_dtypes):
    rho0 = _random_density_matrix(36, 3)
    traj = evolve("nonlinear", NonlinearParams(Omega=0.25, J=1.0, gamma=0.5), CFG,
                  1.0, n_samples=3, initial_state=rho0)
    assert propagator_dtypes == [(np.float64, np.float64)]
    _, x0, _, _ = _folded_problem("nonlinear", traj.params, CFG, rho0.reshape(-1))
    assert x0.size == 36 * 37 // 2 + 36 * 35 // 2  # |S| + |A|
    assert traj.sector_states.dtype == np.float64
    # rhos propagates again, keeping every column of both halves
    assert np.array_equal(traj.rhos[0], rho0)
    assert propagator_dtypes == [(np.float64, np.float64)] * 2


def _read_columns(sector, c):
    """Positions of the folded entries (k, l) that an observable reads: equal
    n_a on both sides (the populations, the reduced battery state and the
    b moments), or equal n_b and n_a one or two apart (<a> and <aa>)."""
    (na_k, nb_k), (na_l, nb_l) = (np.divmod(i, c.cutoff_b)
                                  for i in np.divmod(sector, c.cutoff_a * c.cutoff_b))
    return np.flatnonzero((na_k == na_l) | ((nb_k == nb_l) & (abs(na_k - na_l) <= 2)))


def test_trajectory_keeps_the_read_columns_at_the_benchmark_point():
    # the traj-nonlinear point: 246 of the 1176 propagated columns
    p = NonlinearParams(Omega=0.25, J=1.0, gamma=0.5)
    cfg = FockConfig(cutoff_a=8, cutoff_b=12)
    traj = evolve("nonlinear", p, cfg, 1.0, n_samples=3)
    _, _, sector, _ = _folded_problem("nonlinear", p, cfg, vacuum_state(cfg).reshape(-1))
    assert sector.size == 1176
    assert traj.sector_states.shape == (3, 246)
    assert np.array_equal(traj.sector, sector[_read_columns(sector, cfg)])


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from(["linear", "nonlinear"]),
    st.floats(0.0, 2.0, allow_subnormal=False),  # Omega
    st.floats(0.05, 2.0),  # g or J
    st.floats(0.0, 2.0, allow_subnormal=False),  # gamma
    st.integers(2, 5),  # cutoff_a
    st.integers(2, 5),  # cutoff_b
    st.sampled_from(["vacuum", "real", "complex"]),
    st.integers(2, 40),  # num
    st.floats(0.1, 20.0),  # t_end
    st.integers(0, 2**32 - 1),
)
def test_kept_columns_are_the_full_propagation(kind, Omega, coupling, gamma, ca, cb, start,
                                               num, t_end, seed):
    """The stored stack is the full propagation at the read columns, bit for
    bit, and every observable is what the full stack gives."""
    c = FockConfig(cutoff_a=ca, cutoff_b=cb)
    if kind == "linear":
        p = LinearParams(Omega=Omega, g=coupling, gamma=gamma)
    else:
        p = NonlinearParams(Omega=Omega, J=coupling, gamma=gamma)
    dim = ca * cb
    rho0 = {
        "vacuum": lambda: vacuum_state(c),
        "real": lambda: np.diag(np.random.default_rng(seed).dirichlet(np.ones(dim))),
        "complex": lambda: _random_density_matrix(dim, seed),
    }[start]()
    traj = evolve(kind, p, c, t_end, n_samples=num, initial_state=rho0)
    problem = M, x0, sector, phase = _folded_problem(kind, p, c, rho0.reshape(-1))
    full = focksim.expm_multiply(M, x0, t_end, num)
    read = _read_columns(sector, c)
    assert np.array_equal(traj.sector_states, full[:, read])
    assert np.array_equal(traj.sector, sector[read])
    assert np.array_equal(traj.phase, phase[read])
    whole = FockTrajectory(traj.times, full, sector, phase, _moment_weights(sector, phase, c),
                           problem, p, c, _cutoff_ok(full, sector, kind, c))
    assert np.array_equal(traj.moments(), whole.moments())
    assert np.array_equal(traj.battery_population(), whole.battery_population())
    assert np.array_equal(traj.reduced_battery_states(), whole.reduced_battery_states())
    assert traj.cutoff_ok == whole.cutoff_ok


def test_liouvillian_not_real_in_the_frame_is_refused(monkeypatch):
    # a battery detuning keeps n_a, so in the frame it stays imaginary
    plain = focksim.build_hamiltonian

    def detuned(kind, p, c):
        _, b = mode_operators(c)
        return _sp(plain(kind, p, c)) + 0.3 * (b.conj().T @ b)

    monkeypatch.setattr(focksim, "build_hamiltonian", detuned)
    with pytest.raises(InvalidInputError, match="not real"):
        evolve("nonlinear", NonlinearParams(Omega=0.25, J=1.0, gamma=0.5), CFG, 1.0,
               n_samples=3)


def _sector_problem(kind, p, c, rho0):
    """(A, x0): the real folded Liouvillian and the start vector that evolve
    hands to the propagator, from the scipy-built oracle."""
    A, x0, _, _ = _scipy_folded_problem(kind, p, c, rho0.reshape(-1))
    return A, x0


def _seeded(fn, *args, **kwargs):
    """fn(*args, **kwargs) with numpy's global RNG seeded with 0, so that
    scipy's norm estimates past condition (3.13) pick the same degree and
    step count on every run."""
    state = np.random.get_state()
    np.random.seed(0)
    try:
        return fn(*args, **kwargs)
    finally:
        np.random.set_state(state)


def _scipy(A, b, t_end, num):
    """scipy's public expm_multiply at the propagator's samples."""
    return expm_multiply(A, b, start=0.0, stop=t_end, num=num, endpoint=True)


def _scipy_per_sample_branch(A, b, t_end, num, wrap=lambda A: A):
    """scipy's expm_multiply on its per-sample branch, which scipy takes by
    itself only when the sample count is at most its step count, with the
    degree and step count of a plan whose series serve one sample each
    (``propagate._taylor_plan``, scipy's own where condition (3.13) holds:
    ``test_plan_is_scipys``).  The Taylor loop takes its products from
    ``wrap`` of the shifted A."""
    plan = propagate._taylor_plan(A, t_end, num)[2:4]
    mu = A.trace() / float(A.shape[0])
    A = A - mu * em._ident_like(A)
    X = np.empty((num, b.size), dtype=np.result_type(A.dtype, b.dtype, float))
    X[0] = b
    norm_info = em.LazyOperatorNormInfo(t_end * A, A_1_norm=t_end * em._exact_1_norm(A),
                                        ell=2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(em, "_fragment_3_1", lambda *args, **kwargs: plan)
        X, _ = em._expm_multiply_interval_core_0(wrap(A), X, t_end / (num - 1), mu, num - 1,
                                                 norm_info, 2.0**-53, 2, 1)
    return X


def _taylor_degrees(A, b, t_end, num):
    """(X, m*, degrees): ``_scipy_per_sample_branch``, its Taylor degree m*
    and the degree at which each of its sub-steps stopped, read off the
    order of its products ("d") and infinity norms ("n"): a sub-step takes
    one norm, then one product and two norms per term."""
    log = []

    class Logged:
        def __init__(self, M):
            self.M = M

        def dot(self, x):
            log.append("d")
            return self.M.dot(x)

    def norm(x, inner=em._exact_inf_norm):
        log.append("n")
        return inner(x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(em, "_exact_inf_norm", norm)
        X = _scipy_per_sample_branch(A, b, t_end, num, wrap=Logged)
    m_star = propagate._taylor_plan(A, t_end, num)[2]
    degrees = [len(terms) // 3 for terms in re.findall(r"n((?:dnn)*)", "".join(log))]
    return X, m_star, degrees


def _scipy_taylor_plan(A, t, num):
    """(A - mu I, mu, m*, s, d) of ``propagate._taylor_plan`` where
    condition (3.13) holds, with the shift and the 1-norm of scipy's sparse
    arithmetic and every (m*, s) from scipy's own selection: at one sample
    step h, and at d h where one series serves d > 1 samples."""
    n = A.shape[0]
    mu = A.trace() / float(n)
    A = A - mu * sp.identity(n, format="csr")
    norm_info = em.LazyOperatorNormInfo(t * A, A_1_norm=t * abs(A).sum(axis=0).max(), ell=2,
                                        scale=1.0 / (num - 1))
    m_star, s = _seeded(em._fragment_3_1, norm_info, 1, 2.0**-53, ell=2)
    if s == 0:
        return A, mu, 0, 1, 1
    d = 1
    if s == 1:
        d = int(min(em._theta[55] / norm_info.onenorm() + 1.0, num - 1, propagate._MAX_SPAN))
        norm_info.set_scale(d / (num - 1))
        while d > 1 and norm_info.onenorm() > em._theta[55]:
            d -= 1
            norm_info.set_scale(d / (num - 1))
        if d > 1:
            m_star, steps = em._fragment_3_1(norm_info, 1, 2.0**-53, ell=2)
            m_star *= steps
    return A, mu, m_star, s, d


def _span(A, t_end, num):
    """d: the samples that one Taylor series of ``expm_multiply`` serves."""
    return propagate._taylor_plan(A, t_end, num)[-1]


def _dense_expm(A, b, times):
    """exp(t A) b at each of ``times``, from a dense ``scipy.linalg.expm`` of
    A - alpha I times exp(t alpha), alpha the largest real part of A's
    eigenvalues.  The shifted exponential does not grow, and scaling and
    squaring resolves it to 3e-14 of max|x| on the grouped draws below,
    where the plain expm of a growing A was off by up to 9e-12."""
    A = A.toarray()
    alpha = np.max(np.linalg.eigvals(A).real)
    shifted = A - alpha * np.eye(A.shape[0])
    return np.array([np.exp(t * alpha) * (expm(t * shifted) @ b) for t in times])


def _mpmath_reference(A, b, t_end, num):
    """exp(t A) b at the samples k h, h = t_end / (num - 1), to 50 digits:
    mpmath's expm of h A applied k times to b, from the float64 entries as
    they are, rounded to float64 at the end."""
    with mpmath.workdps(50):
        E = mpmath.expm(mpmath.matrix(A.toarray().tolist()) * mpmath.mpf(t_end / (num - 1)))
        x = mpmath.matrix(b.tolist())
        X = [x]
        for _ in range(num - 1):
            X.append(E * X[-1])
        return np.array([[float(v) for v in x] for x in X])


def _grouped_error_bound(A, t_end, num, ref):
    """The bound on max|out_k - x(t_k)| at each sample k where each series
    serves d > 1 samples, from the error analysis of one series and the
    exact propagation of its error to later samples.

    A series from sample k, with the degree m* and S = A - mu I, has the
    terms T_j = (h/j) S T_{j-1}: each product is an inner product of at
    most r stored entries of a row, so (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., sections 3.1 and 3.5) |T_j| carries a
    relative error of at most j (r + 2) u, counting the rounded diagonal of
    S and the scale; the weights i^j and the ordered sum of at most m* + 1
    weighted terms add (m* + 1) u, and the phase exp(i h mu) a relative
    2 u + 3 i h |mu| u from its rounded argument.  All are relative to
    sum_j |i^j T_j| <= e^{i h |S|} |x_k| entrywise; one more u each covers
    the truncation that the stopping test allows (two terms below
    u ||F||_inf) and the rounding of the reference.  So sample k + i is off
    by at most (m* (r + 3) + 5 + 3 i h |mu|) u e^{i h mu} ||e^{i h |S|} |x_k|||_inf,
    to first order in u, plus the error at sample k carried by
    ||e^{i h A}||_inf.  The exponentials only scale the bound, so they are
    taken in float64."""
    _, mu, m_star, s, d = propagate._taylor_plan(A, t_end, num)
    assert s == 1 and d > 1
    n, h = A.shape[0], t_end / (num - 1)
    S = A.toarray() - mu * np.eye(n)
    r = np.max(np.count_nonzero(S, axis=1))
    carry = [np.linalg.matrix_power(expm(h * A.toarray()), i) for i in range(1, d + 1)]
    grow = [np.linalg.matrix_power(expm(h * np.abs(S)), i) for i in range(1, d + 1)]
    bound = np.zeros(num)
    for k in range(0, num - 1, d):
        for i in range(1, min(d, num - 1 - k) + 1):
            local = (m_star * (r + 3) + 5 + 3 * i * h * abs(mu)) * 2.0**-53 * math.exp(i * h * mu)
            bound[k + i] = (np.linalg.norm(carry[i - 1], np.inf) * bound[k]
                            + local * np.max(grow[i - 1] @ np.abs(ref[k])))
    return bound


def _assert_propagates(A, b, t_end, num, oracle=_scipy_per_sample_branch):
    """(out, d): ``expm_multiply`` of A and b and the samples d that one of
    its series serves.  Where d = 1, out is ``oracle`` to the bit.  Where
    d > 1, out is within ``_grouped_error_bound`` of the 50-digit
    ``_mpmath_reference`` at every sample of a matrix of up to 16 rows;
    a larger one, a Fock sector, is within 1e-12 of max|x| of scipy's
    public expm_multiply and of a dense expm at samples 1, d, d + 1 and the
    last."""
    out = focksim.expm_multiply(A, b, t_end, num)
    d = _span(A, t_end, num)
    if d == 1:
        assert np.array_equal(out, oracle(A, b, t_end, num))
    elif A.shape[0] <= 16:
        ref = _mpmath_reference(A, b, t_end, num)
        assert np.all(np.max(np.abs(out - ref), axis=1)
                      <= _grouped_error_bound(A, t_end, num, ref))
    else:
        tol = 1e-12 * np.max(np.abs(out))
        assert np.max(np.abs(out - _seeded(_scipy, A, b, t_end, num))) <= tol
        at = np.unique([1, d, min(d + 1, num - 1), num - 1])
        times = np.linspace(0.0, t_end, num)[at]
        assert np.max(np.abs(out[at] - _dense_expm(A, b, times))) <= tol
    return out, d


def _grouped_series(A, b, t_end, num):
    """(X, m*, d, degrees): the propagator where one series serves d > 1
    samples, written out term by term, with the degree at which each series
    stopped.  d must be the largest count with d h ||A - mu I||_1 <= 9.9
    (up to num - 1 and the span cap).  A series from sample k has the terms
    T_j = (h/j) (A - mu I) T_{j-1}, T_0 = X[k]; it stops once two successive
    terms d^j ||T_j||_inf fall below 2^-53 ||F_d||_inf, or at m*, with
    F_i = sum_j i^j T_j summed in order, and sample k + i is
    F_i exp(i h mu).  The last group takes the samples left over."""
    A, mu, m_star, s, d = propagate._taylor_plan(A, t_end, num)
    A = _sp(A)
    h = t_end / (num - 1)
    step = h * np.max(np.abs(A).sum(axis=0))
    assert s == 1 and 1 < d <= min(num - 1, propagate._MAX_SPAN)
    assert d * step <= 9.9 * (1 + 1e-15)
    assert d in (num - 1, propagate._MAX_SPAN) or (d + 1) * step > 9.9 * (1 - 1e-15)
    X = np.empty((num, b.size))
    X[0] = b
    etas = np.exp(np.arange(1.0, d + 1.0) * (h * mu))
    degrees = []
    for k in range(0, num - 1, d):
        group = min(d, num - 1 - k)
        T = [X[k]]
        F, c1 = T[0] * 1.0, np.max(np.abs(T[0]))
        for q in range(1, m_star + 1):
            T.append((A @ T[-1]) * (h / float(q)))
            weight = float(group**q)
            F = F + weight * T[q]
            c2 = weight * np.max(np.abs(T[q]))
            if c1 + c2 <= 2.0**-53 * np.max(np.abs(F)):
                break
            c1 = c2
        degrees.append(len(T) - 1)
        for i in range(1, group + 1):
            F = T[0] * 1.0
            for j in range(1, len(T)):
                F = F + float(i**j) * T[j]
            X[k + i] = F * etas[i - 1]
    return X, m_star, d, degrees


def _random_generator(seed, n, zero, max_num=12):
    """(A, b, t_end, num): a real sparse n x n generator and a real start
    vector drawn from ``seed``: random couplings over a spread diagonal, so
    that the norm of the state moves between sub-steps, and start entries
    spanning many decades, with 2 to ``max_num`` - 1 samples.  The generator
    is all zeros if ``zero``."""
    rng = np.random.default_rng(seed)
    A = sp.random(n, n, density=rng.uniform(0.2, 1.0), random_state=rng, format="csr")
    A = A * rng.uniform(0.1, 5.0) + sp.diags(rng.uniform(-3.0, 1.0, n) * rng.uniform(0.0, 5.0))
    A = sp.csr_matrix(A) * (0.0 if zero else 1.0)
    b = rng.normal(size=n) * np.exp(rng.uniform(-20.0, 0.0, n))
    return A, b, rng.uniform(0.1, 20.0), int(rng.integers(2, max_num))


def _grouped_draw(seed, n):
    """(A, b, t_end, num): a generator of ``_random_generator`` scaled by
    10^u, u in [-12, 0], with up to 199 samples: one series then often
    serves several samples, and at the smallest norms it runs to a low m*.
    The start has normal entries: with entries spread over decades
    ``_dense_expm`` itself was off by up to 2.4e-13 of max|x| (against an
    extended-precision Taylor series, which the propagator met to 2e-15)."""
    A, _, t_end, num = _random_generator(seed, n, False, max_num=200)
    rng = np.random.default_rng([seed, 1])
    b = rng.normal(size=n)
    return A * 10.0 ** rng.uniform(-12.0, 0.0), b, t_end, num


def _fock_state(c, n_a, n_b):
    dim = c.cutoff_a * c.cutoff_b
    rho = np.zeros((dim, dim), dtype=complex)
    rho[n_a * c.cutoff_b + n_b, n_a * c.cutoff_b + n_b] = 1.0
    return rho


class TestPropagator:
    @pytest.mark.parametrize(
        "p,cfg,rho0,t_end,num,oracle",
        [
            # the traj-nonlinear benchmark point, where scipy itself takes its
            # per-sample branch
            (NonlinearParams(Omega=0.25, J=1.0, gamma=0.5), FockConfig(8, 12), (0, 0),
             40.0, 257, _scipy),
            # conserved_charge_drift's start |1,0>, where one series serves
            # several samples, as scipy shares Taylor terms between them
            (NonlinearParams(Omega=0.0, J=1.0, gamma=0.0), FockConfig(4, 6), (1, 0),
             20.0, 101, _scipy_per_sample_branch),
        ],
    )
    def test_bit_identical_to_scipys_per_sample_branch(self, p, cfg, rho0, t_end, num,
                                                        oracle):
        A, r0 = _sector_problem("nonlinear", p, cfg, _fock_state(cfg, *rho0))
        out, d = _assert_propagates(A, r0, t_end, num, oracle)
        assert (d > 1) == (oracle is _scipy_per_sample_branch)
        traj = evolve("nonlinear", p, cfg, t_end, n_samples=num,
                      initial_state=_fock_state(cfg, *rho0))
        _, _, sector, _ = _folded_problem("nonlinear", p, cfg,
                                          _fock_state(cfg, *rho0).reshape(-1))
        assert np.array_equal(traj.sector_states, out[:, _read_columns(sector, cfg)])

    def test_a_step_past_condition_3_13_is_scipys_per_sample_branch(self):
        # h ||A - mu I||_1 = 1347 > 63.36: the plan takes its degree and step
        # count from bounds on the norms of powers of h A, and evolve's
        # states are scipy's per-sample branch, given that plan, to the bit
        p, cfg = NonlinearParams(Omega=0.25, J=1.0, gamma=0.5), FockConfig(4, 6)
        A, r0 = _sector_problem("nonlinear", p, cfg, vacuum_state(cfg))
        shifted = _scipy_taylor_plan(A, 400.0, 9)[0]
        assert 50.0 * abs(shifted).sum(axis=0).max() > propagate._BOUND_3_13
        out, d = _assert_propagates(A, r0, 400.0, 9)
        assert d == 1
        traj = evolve("nonlinear", p, cfg, 400.0, n_samples=9)
        _, _, sector, _ = _folded_problem("nonlinear", p, cfg, vacuum_state(cfg).reshape(-1))
        assert np.array_equal(traj.sector_states, out[:, _read_columns(sector, cfg)])

    # No subnormal rates: scipy's expm_multiply divides by a step count of 0
    # when ||t A||_1 is that small (test_underflowing_norm_gives_constant_rows)
    @settings(deadline=None, max_examples=40)
    @given(
        st.sampled_from(["linear", "nonlinear"]),
        st.floats(0.0, 2.0, allow_subnormal=False),  # Omega
        st.floats(0.05, 2.0),  # g or J
        st.floats(0.0, 2.0, allow_subnormal=False),  # gamma
        st.integers(2, 5),  # cutoff_a
        st.integers(2, 5),  # cutoff_b
        st.sampled_from(["vacuum", "real", "complex"]),
        st.integers(2, 40),  # num
        st.floats(0.1, 20.0),  # t_end
        st.integers(0, 2**32 - 1),
    )
    def test_matches_scipy(self, kind, Omega, coupling, gamma, ca, cb, start, num, t_end,
                           seed):
        c = FockConfig(cutoff_a=ca, cutoff_b=cb)
        if kind == "linear":
            p = LinearParams(Omega=Omega, g=coupling, gamma=gamma)
        else:
            p = NonlinearParams(Omega=Omega, J=coupling, gamma=gamma)
        dim = ca * cb
        rho0 = {
            "vacuum": lambda: vacuum_state(c),
            "real": lambda: np.diag(np.random.default_rng(seed).dirichlet(np.ones(dim))),
            "complex": lambda: _random_density_matrix(dim, seed),
        }[start]()
        A, r0 = _sector_problem(kind, p, c, rho0)
        assert A.dtype == np.float64 and r0.dtype == np.float64
        out, _ = _assert_propagates(A, r0, t_end, num)
        # Where the sample count exceeds its step count, scipy shares Taylor
        # terms between samples instead, and rounds differently: up to
        # 5.7e-13 of max|x| over 1500 draws, at long, nearly lossless
        # horizons, where the per-sample result was the closer of the two to
        # a dense expm.
        ref = _seeded(_scipy, A, r0, t_end, num)
        assert out.dtype == ref.dtype
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.booleans())
    def test_blocked_taylor_loop_bit_identical_to_scipy(self, seed, n, zero):
        _assert_propagates(*_random_generator(seed, n, zero))

    def test_blocked_taylor_loop_cases(self):
        # fixed draws of the generator above that take every branch of the
        # blocked loop where a series serves one sample: a sub-step that needs
        # more terms than the one before (the guess too low) and one that
        # needs fewer (too high), a series that runs to m* and m* = 0.  The
        # draws whose series run to m* have small norms, where one series
        # serves several samples; seed 65 over a single sample step runs to
        # m* = 17 with d = 1.
        seen = set()
        for seed, num in [(seed, None) for seed in range(50)] + [(65, 2)]:
            A, b, t_end, drawn = _random_generator(seed, 1 + seed % 8, seed % 10 == 9)
            num = num or drawn
            out, d = _assert_propagates(A, b, t_end, num)
            if d > 1:
                continue
            X, m_star, degrees = _taylor_degrees(A, b, t_end, num)
            assert np.array_equal(out, X), seed
            steps = np.diff(degrees)
            seen.update(name for name, hit in [
                ("rise", np.any(steps > 0)), ("fall", np.any(steps < 0)),
                ("to m*", m_star > 0 and m_star in degrees), ("m* = 0", m_star == 0)] if hit)
        assert seen == {"rise", "fall", "to m*", "m* = 0"}

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_grouped_taylor_loop_matches_dense_expm(self, seed, n):
        A, b, t_end, num = _grouped_draw(seed, n)
        out = focksim.expm_multiply(A, b, t_end, num)
        ref = _dense_expm(A, b, np.linspace(0.0, t_end, num))
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
        if _span(A, t_end, num) > 1:
            assert np.array_equal(out, _grouped_series(A, b, t_end, num)[0])

    def test_grouped_taylor_loop_cases(self):
        # fixed draws of the generator above that take every branch of the
        # grouped loop, each the term-by-term series to the bit: a series
        # that serves several samples, with and without a last group of the
        # samples left over, one that runs to its group's m*, and a series
        # that serves one sample
        seen = set()
        for seed in range(40):
            A, b, t_end, num = _grouped_draw(seed, 1 + seed % 8)
            out = focksim.expm_multiply(A, b, t_end, num)
            if _span(A, t_end, num) == 1:
                seen.add("d = 1")
                continue
            X, m_star, d, degrees = _grouped_series(A, b, t_end, num)
            assert np.array_equal(out, X), seed
            seen.update(name for name, hit in [
                ("remainder", (num - 1) % d > 0),
                ("no remainder", (num - 1) % d == 0),
                ("to m*", m_star in degrees)] if hit)
        assert seen == {"d = 1", "remainder", "no remainder", "to m*"}

    def test_grouped_series_stop_at_the_oracles_degrees(self, monkeypatch):
        # the values alone do not pin where a series stops: terms past its
        # degree fall below the rounding of the sum.  A series first computes
        # as many terms as the one before it used, then one at a time, so
        # series k takes max(deg_k, deg_{k-1}) products (deg_{-1} = 1), with
        # the degrees at which ``_grouped_series`` stops
        matvec, calls = propagate.csr_matvec, []

        def counted(*args):
            calls.append(None)
            return matvec(*args)

        monkeypatch.setattr(propagate, "csr_matvec", counted)
        seen = set()
        for seed in range(40):
            A, b, t_end, num = _grouped_draw(seed, 1 + seed % 8)
            if _span(A, t_end, num) == 1:
                continue
            _, _, d, degrees = _grouped_series(A, b, t_end, num)
            calls.clear()
            focksim.expm_multiply(A, b, t_end, num)
            assert len(calls) == sum(map(max, degrees, [1] + degrees[:-1])), seed
            seen.update(name for name, hit in [
                ("remainder", (num - 1) % d > 0),
                ("rise", np.any(np.diff([1] + degrees) > 0)),
                ("fall", np.any(np.diff(degrees) < 0))] if hit)
        assert seen == {"remainder", "rise", "fall"}

    def test_group_degree_covers_its_span_in_one_series(self):
        # ||d h A||_1 = 3.5e-16 lies in (theta_1, 2 theta_1], where scipy
        # picks degree 1 at 2 steps; one series over the span needs degree 2
        A = sp.diags([5.47e-18, -5.47e-18], format="csr")
        assert propagate._taylor_plan(A, 64.0, 65)[2:] == (2, 1, 64)

    def test_theta_table_is_scipys(self):
        assert propagate._THETA == em._theta
        assert list(propagate._THETA) == list(em._theta)  # the tie-break follows the order

    def test_degree_selection_is_scipys(self):
        # scipy's 1-norm branch on a log grid of norms and at every boundary
        # theta_m k where the step count of degree m changes (k up to 64),
        # each with its neighbouring floats, up to condition (3.13)
        bound = propagate._BOUND_3_13
        norms = [0.0, *np.logspace(-20.0, math.log10(bound), 400)]
        for theta in em._theta.values():
            for k in range(1, 65):
                norms += [np.nextafter(theta * k, 0.0), theta * k, np.nextafter(theta * k, np.inf)]
        norms += [np.nextafter(bound, 0.0), bound]
        for norm in (x for x in norms if x <= bound):
            info = em.LazyOperatorNormInfo(None, A_1_norm=norm, ell=2)
            assert (propagate._degree({1: norm})
                    == em._fragment_3_1(info, 1, 2.0**-53, ell=2)), norm

    def test_condition_3_13_bound_is_scipys(self):
        bound = propagate._BOUND_3_13
        assert bound == pytest.approx(63.36)
        for norm in (np.nextafter(bound, 0.0), bound, np.nextafter(bound, np.inf)):
            assert (norm <= bound) == em._condition_3_13(norm, 1, 55, 2)

    def test_plan_is_scipys(self):
        # the shift, and wherever condition (3.13) holds the degree, the step
        # count and the span, against the plan made with scipy's own
        # selection: on draws that take each branch (one series per sample or
        # per group, a re-selected degree at d > 1) and at the benchmark
        # point; past (3.13), as at fig4's long steps, the degree and step
        # count come from bounds (test_power_bounds_past_condition_3_13)
        cases = [(A, t_end, num) for A, _, t_end, _ in
                 (_random_generator(seed, 1 + seed % 8, seed % 10 == 9) for seed in range(30))
                 for num in (2, 9, 257)]
        cases += [(A, t_end, num) for A, _, t_end, num in
                  (_grouped_draw(seed, 1 + seed % 8) for seed in range(30))]
        cases.append((sp.diags([5.47e-18, -5.47e-18], format="csr"), 64.0, 65))
        for p, cfg, t_end in [(NonlinearParams(Omega=0.562, J=1.0, gamma=0.5),
                               FockConfig(8, 24), 240.0),
                              (NonlinearParams(Omega=0.25, J=1.0, gamma=0.5),
                               FockConfig(8, 12), 40.0)]:
            cases.append((_sector_problem("nonlinear", p, cfg, vacuum_state(cfg))[0], t_end, 257))
        seen = set()
        for A, t_end, num in cases:
            got, want = propagate._taylor_plan(A, t_end, num), _scipy_taylor_plan(A, t_end, num)
            _assert_canonical(got[0])
            for x, y in zip(got[0][:3], (want[0].data, want[0].indices, want[0].indptr)):
                assert np.array_equal(x, y)
            assert got[1] == want[1]
            h_norm = t_end / (num - 1) * np.max(np.abs(_sp(got[0])).sum(axis=0))
            if h_norm <= propagate._BOUND_3_13:
                assert got[2:] == want[2:], (got[2:], want[2:])
            seen.update(name for name, hit in [
                ("d > 1", got[4] > 1), ("s > 1", got[3] > 1), ("m* = 0", got[2] == 0),
                ("past (3.13)", h_norm > propagate._BOUND_3_13)] if hit)
        assert seen == {"d > 1", "s > 1", "m* = 0", "past (3.13)"}

    # past (3.13): h ||A||_1 from 63.36 to 100 times that, on generators of
    # up to 8 rows
    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.floats(1.0, 100.0))
    def test_power_bounds_past_condition_3_13(self, seed, n, ratio):
        # each bound is at least the exact ||(h A)^p||_1^(1/p), from powers
        # of the shifted A in exact rational arithmetic, less its rounding of
        # at most 2 c + 4 units, c the most entries in a column: p (c + 1) in
        # the p products, which the p-th root divides by p, and c + 2 in the
        # root, the 1-norm and the scale.  So the plan meets the paper's
        # condition alpha_p / s <= theta_m* on the exact norms and costs no
        # less than fragment (3.1) on them.  Its step count can be lower than
        # that choice's: a larger alpha_7 can move the least cost from
        # degree 45 to 55
        A, _, _, _ = _random_generator(seed, n, False)
        norm = np.max(np.abs(_sp(propagate._taylor_plan(A, 1.0, 2)[0])).sum(axis=0))
        assume(norm > 0.0)
        t = ratio * propagate._BOUND_3_13 / norm
        shifted, _, m_star, s, _ = propagate._taylor_plan(A, t, 2)
        assume(t * norm > propagate._BOUND_3_13)
        bounds = propagate._power_bounds(shifted, t * norm)
        S = [[Fraction(t) * Fraction(float(x)) for x in row] for row in _sp(shifted).toarray()]
        slack = Fraction(1 - (2 * np.bincount(shifted.indices).max() + 4) * 2.0**-53)
        power, exact = S, []
        for p in range(1, 10):
            if p > 1:
                power = [[sum(a * b for a, b in zip(row, col)) for col in zip(*S)]
                         for row in power]
            norm_p = max(sum(abs(row[j]) for row in power) for j in range(n))
            assert (Fraction(bounds[p - 1]) / slack) ** p >= norm_p, p
            exact.append(float(norm_p) ** (1.0 / p))
        alpha = {p: max(exact[p - 1], exact[p]) for p in range(2, 9)}
        assert any(alpha[p] <= s * propagate._THETA[m_star]
                   for p in alpha if p * (p - 1) - 1 <= m_star)
        info = SimpleNamespace(onenorm=lambda: t * norm, alpha=alpha.get)
        best_m, best_s = em._fragment_3_1(info, 1, 2.0**-53, ell=2)
        assert m_star * s >= best_m * best_s

    def test_benchmark_and_figure_points_take_the_per_sample_loop(self):
        # one series per sample at fig4's 18 points, the sweep-nonlinear
        # benchmark's 3 and traj-nonlinear's, so their outputs stay scipy's
        # per-sample branch to the bit; read off the plan, without propagating
        points = [(NonlinearParams(Omega=float(r), J=1.0, gamma=gamma),
                   FockConfig(8, 8 if r <= 0.12 else (16 if r <= 0.5 else 24)),
                   max(120.0 / gamma, 40.0), 257)
                  for gamma in (0.5, 2.0) for r in np.logspace(-2, 0, 9)]
        points += [(NonlinearParams(Omega=float(r), J=1.0, gamma=2.0), FockConfig(8, 12),
                    30.0, 17) for r in np.logspace(math.log10(0.02), math.log10(0.3), 3)]
        points.append((NonlinearParams(Omega=0.25, J=1.0, gamma=0.5), FockConfig(8, 12),
                       40.0, 257))
        for p, cfg, t_end, num in points:
            A, _ = _sector_problem("nonlinear", p, cfg, vacuum_state(cfg))
            assert _span(A, t_end, num) == 1, (p, cfg)

    def test_zero_matrix_gives_constant_rows(self):
        b = np.array([0.3, -1.0, 2.5])
        out = focksim.expm_multiply(sp.csr_matrix((3, 3)), b, 5.0, 4)
        assert np.array_equal(out, np.tile(b, (4, 1)))

    def test_nilpotent_step_past_condition_3_13(self):
        # ||h A||_1 = 100 but A^2 = 0, so every bound on alpha_p is 0: one
        # series of degree 1, exp(h A) b = b + h A b, not the identity
        A = sp.csr_matrix(np.array([[0.0, 100.0], [0.0, 0.0]]))
        b = np.array([0.5, 0.25])
        assert propagate._taylor_plan(A, 1.0, 2)[2:] == (1, 1, 1)
        assert np.array_equal(focksim.expm_multiply(A, b, 1.0, 2), [b, [25.5, 0.25]])

    def test_underflowing_norm_gives_constant_rows(self):
        # nonlinear coupling does nothing at cutoff_b = 2, so the drive of
        # 5e-324 is all of L; scipy's step count rounds to 0 there (and
        # scipy 1.17's expm_multiply then raises ZeroDivisionError)
        cfg = FockConfig(cutoff_a=2, cutoff_b=2)
        p = NonlinearParams(Omega=5e-324, J=1.0, gamma=0.0)
        A, r0 = _sector_problem("nonlinear", p, cfg, vacuum_state(cfg))
        assert A.nnz > 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = focksim.expm_multiply(A, r0, 1.0, 3)
        assert np.array_equal(out, np.tile(r0, (3, 1)))

    def test_global_rng_left_as_it_was(self):
        # past condition (3.13) at this point, scipy's own expm_multiply
        # estimates norms from draws of the global RNG and so advances it;
        # the propagator bounds them without a draw
        cfg = FockConfig(8, 12)
        p = NonlinearParams(Omega=0.25, J=1.0, gamma=2.0)
        A, r0 = _sector_problem("nonlinear", p, cfg, vacuum_state(cfg))
        saved = np.random.get_state()
        try:
            np.random.seed(11)
            before = np.random.get_state()
            first = focksim.expm_multiply(A, r0, 30.0, 17)
            after = np.random.get_state()
            assert before[0] == after[0] and before[2:] == after[2:]
            assert np.array_equal(before[1], after[1])
            _scipy(A, r0, 30.0, 17)
            assert np.random.get_state()[2] != before[2]
            np.random.seed(12)
            second = focksim.expm_multiply(A, r0, 30.0, 17)
        finally:
            np.random.set_state(saved)
        assert np.array_equal(first, second)


class TestObservables:
    def test_extract_moments_fock_state(self):
        dim = CFG.cutoff_a * CFG.cutoff_b
        rho = np.zeros((dim, dim), dtype=complex)
        rho[1 * 6 + 2, 1 * 6 + 2] = 1.0  # |1, 2>
        m = extract_moments(rho, CFG)
        assert m.a_num == pytest.approx(1.0)
        assert m.b_num == pytest.approx(2.0)
        assert m.a_mean == 0.0
        assert m.b_sq == 0.0

    def test_expectation_against_dense_trace(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(36, 36)) + 1j * rng.normal(size=(36, 36))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        op = sp.random(36, 36, density=0.2, random_state=6).astype(complex)
        assert expectation(rho, op.tocsr()) == pytest.approx(
            complex(np.trace(op.toarray() @ rho)), rel=1e-12
        )

    def test_reduced_state_of_product_state(self):
        pa = np.array([0.6, 0.3, 0.1, 0.0, 0.0, 0.0])
        pb = np.array([0.5, 0.25, 0.15, 0.1, 0.0, 0.0])
        rho = np.kron(np.diag(pa), np.diag(pb)).astype(complex)
        rb = reduced_battery_state(rho, CFG)
        assert np.allclose(rb, np.diag(pb))
        assert np.trace(rb).real == pytest.approx(1.0)

    def test_check_density_matrix_guards(self):
        with pytest.raises(UnphysicalStateError):
            check_density_matrix(np.diag([1.0, 1e-3j]).astype(complex))
        with pytest.raises(UnphysicalStateError):
            check_density_matrix(np.diag([0.7, 0.2]).astype(complex))
        with pytest.raises(UnphysicalStateError):
            check_density_matrix(np.diag([1.2, -0.2]).astype(complex))

    def test_check_density_matrix_returns_ascending_eigenvalues(self):
        stack = np.stack([np.diag([0.7, 0.3]), np.array([[0.5, 0.5], [0.5, 0.5]])])
        w = check_density_matrix(stack)
        assert w.shape == (2, 2)
        assert np.allclose(w, [[0.3, 0.7], [0.0, 1.0]], atol=1e-15)

    def test_check_density_matrix_rejects_one_non_finite_sample(self):
        stack = np.stack([np.diag([0.7, 0.3])] * 3).astype(complex)
        check_density_matrix(stack)
        stack[1, 0, 1] = stack[1, 1, 0] = np.nan
        with pytest.raises(UnphysicalStateError, match="non-finite"):
            check_density_matrix(stack)


class TestErgotropy:
    def test_fock_state_fully_extractable(self):
        rho = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)
        assert exact_ergotropy(rho, omega_b=2.0) == pytest.approx(2.0)

    def test_passive_state_has_none(self):
        rho = np.diag([0.5, 0.3, 0.15, 0.05]).astype(complex)
        assert exact_ergotropy(rho, omega_b=1.0) == pytest.approx(0.0, abs=1e-14)

    def test_inverted_population(self):
        rho = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
        energy = 0.2 + 2 * 0.3 + 3 * 0.4
        passive = 0.4 * 0 + 0.3 * 1 + 0.2 * 2 + 0.1 * 3
        assert exact_ergotropy(rho, 1.0) == pytest.approx(energy - passive)

    def test_coherent_state_fully_extractable(self):
        n = 25
        beta = 0.8
        amps = np.array([beta**k / math.sqrt(math.factorial(k)) for k in range(n)])
        amps *= math.exp(-beta**2 / 2.0)
        rho = np.outer(amps, amps).astype(complex)
        erg = exact_ergotropy(rho, 1.0)
        assert erg == pytest.approx(beta**2, rel=1e-10)

    def test_unphysical_rejected(self):
        with pytest.raises(UnphysicalStateError):
            exact_ergotropy(np.array([[0.5, 1.0], [0.0, 0.5]]), 1.0)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_state_rejected(self, entry):
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        rho[0, 2] = rho[2, 0] = entry
        with pytest.raises(UnphysicalStateError, match="non-finite"):
            exact_ergotropy(rho, 1.0)

    def test_stack_matches_single_and_is_checked(self):
        good = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
        passive = np.diag([0.5, 0.3, 0.15, 0.05]).astype(complex)
        erg = exact_ergotropy(np.stack([good, passive]), 1.0)
        assert erg.shape == (2,)
        assert erg[0] == exact_ergotropy(good, 1.0)
        assert erg[1] == exact_ergotropy(passive, 1.0)
        skew = good.copy()
        skew[0, 1] = 0.1
        with pytest.raises(UnphysicalStateError, match="not Hermitian"):
            exact_ergotropy(np.stack([good, skew]), 1.0)
        negative = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
        with pytest.raises(UnphysicalStateError, match="negative eigenvalue"):
            exact_ergotropy(np.stack([negative, good]), 1.0)


    def test_real_input_stays_real(self, monkeypatch):
        p = NonlinearParams(Omega=0.25, J=1.0, gamma=0.5)
        reduced = evolve("nonlinear", p, CFG, 6.0, n_samples=9).reduced_battery_states()
        dtypes = []
        eigvalsh = np.linalg.eigvalsh

        def recording(a):
            dtypes.append(a.dtype)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        real = exact_ergotropy(reduced, p.omega_b)
        cast = exact_ergotropy(reduced.astype(complex), p.omega_b)
        assert dtypes == [np.float64, np.complex128]
        assert np.max(real) > 1e-3
        assert np.max(np.abs(real - cast)) <= 1e-14

    def test_real_input_is_checked(self):
        good = np.diag([0.1, 0.2, 0.3, 0.4])
        skew = good.copy()
        skew[0, 1] = 0.1
        with pytest.raises(UnphysicalStateError, match="not Hermitian"):
            exact_ergotropy(np.stack([good, skew]), 1.0)
        with pytest.raises(UnphysicalStateError, match="negative eigenvalue"):
            exact_ergotropy(np.diag([1.2, -0.2, 0.0, 0.0]), 1.0)


class TestConvergence:
    def test_undriven_returns_input(self):
        p = NonlinearParams(Omega=0.0, J=1.0, gamma=0.5)
        assert converge_cutoffs("nonlinear", p, CFG, 10.0) == CFG

    def test_weak_drive_converges_quickly(self):
        p = NonlinearParams(Omega=0.05, J=1.0, gamma=0.5)
        cfg = converge_cutoffs("nonlinear", p, FockConfig(4, 4), 40.0)
        assert cfg.cutoff_a <= 8 and cfg.cutoff_b <= 8
        traj = evolve("nonlinear", p, cfg, 80.0, n_samples=17)
        e = traj.battery_population()[-1]
        assert e == pytest.approx(steady_energy_nonlinear(p), rel=2e-2)

    @pytest.mark.parametrize("small_ok,expected", [(True, FockConfig(8, 8)),
                                                   (False, FockConfig(12, 16))])
    def test_never_returns_a_tripped_truncation(self, monkeypatch, small_ok,
                                                expected):
        # every truncation gives the same final observables, so the first
        # pair compared, (8,8) and (12,16), agrees
        rho_b = np.diag([0.9, 0.1]).astype(complex)

        def fake_evolve(kind, p, cfg, t_end, n_samples):
            return SimpleNamespace(
                battery_population=lambda: np.array([0.1]),
                reduced_battery_states=lambda: rho_b[None],
                cutoff_ok=small_ok or cfg.cutoff_b > 8,
            )

        monkeypatch.setattr(focksim, "evolve", fake_evolve)
        p = NonlinearParams(Omega=0.25, J=1.0, gamma=0.5)
        assert converge_cutoffs("nonlinear", p, FockConfig(8, 8), 10.0) == expected

    def test_conserved_charge_drift_small(self):
        p = NonlinearParams(Omega=0.0, J=1.0, gamma=0.0)
        drift = conserved_charge_drift(p, FockConfig(4, 6), 20.0)
        assert drift < 1e-10

    def test_conserved_charge_requires_undriven(self):
        with pytest.raises(InvalidInputError):
            conserved_charge_drift(
                NonlinearParams(Omega=0.1, J=1.0, gamma=0.0), CFG, 1.0
            )


def test_config_validation():
    with pytest.raises(InvalidInputError):
        FockConfig(cutoff_a=1, cutoff_b=8)
