"""Unit tests for the truncated-Fock exact route."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from cvbattery.cumulant import NonlinearParams, steady_energy_nonlinear
from cvbattery.errors import InvalidInputError, UnphysicalStateError
from cvbattery.focksim import (
    FockConfig,
    build_hamiltonian,
    check_density_matrix,
    conserved_charge_drift,
    converge_cutoffs,
    destroy,
    evolve,
    exact_ergotropy,
    expectation,
    extract_moments,
    lindblad_rhs,
    mode_operators,
    reduced_battery_state,
    vacuum_state,
    _liouvillian,
)
from cvbattery.linear import LinearParams, energy_linear


CFG = FockConfig(cutoff_a=6, cutoff_b=6)


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
        H = build_hamiltonian(kind, p, CFG)
        assert abs(H - H.conj().T).max() < 1e-14

    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            build_hamiltonian("quadratic", LinearParams(g=1.0), CFG)

    def test_nonlinear_matrix_element(self):
        # <0,2| J a'bb + b'b'a |1,0> = 0; <0,2| ... |1,0>: a'bb lowers b twice
        # and raises a: <1'... check <n_a=1,n_b=0| b'b'a |0, ...> instead:
        # b'b'a |1,0> = sqrt(1)*sqrt(1)*sqrt(2) |0,2>
        p = NonlinearParams(Omega=0.0, J=0.7, gamma=0.0)
        H = build_hamiltonian("nonlinear", p, CFG).toarray()
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
        p = NonlinearParams(Omega=0.25, J=1.0, gamma=0.5)
        H = build_hamiltonian("nonlinear", p, CFG)
        L = _liouvillian(H, p.gamma, CFG)
        rng = np.random.default_rng(4)
        m = rng.normal(size=(36, 36)) + 1j * rng.normal(size=(36, 36))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        direct = lindblad_rhs(rho, H, p.gamma, CFG)
        via_super = (L @ rho.reshape(-1)).reshape(36, 36)
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
        traj = evolve("nonlinear", p, cfg, 10.0, n_samples=21, validate=True)
        for rho in traj.rhos:
            check_density_matrix(rho)  # would raise on violation
        assert traj.cutoff_ok

    def test_cutoff_flag_trips_when_truncation_too_small(self):
        p = NonlinearParams(Omega=2.0, J=1.0, gamma=0.1)
        tiny = FockConfig(cutoff_a=3, cutoff_b=3)
        traj = evolve("nonlinear", p, tiny, 20.0, n_samples=21)
        assert not traj.cutoff_ok

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
        with pytest.raises(InvalidInputError):
            evolve("linear", LinearParams(g=1.0), CFG, 0.0)

    def test_global_rng_neither_used_nor_advanced(self):
        p = NonlinearParams(Omega=0.25, J=1.0, gamma=0.5)
        saved = np.random.get_state()
        try:
            np.random.seed(11)
            before = np.random.get_state()
            first = evolve("nonlinear", p, CFG, 10.0, n_samples=5).states
            after = np.random.get_state()
            assert before[0] == after[0] and before[2:] == after[2:]
            assert np.array_equal(before[1], after[1])
            np.random.seed(12)
            second = evolve("nonlinear", p, CFG, 10.0, n_samples=5).states
        finally:
            np.random.set_state(saved)
        assert np.array_equal(first, second)


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
    fields = ("a_mean", "a_num", "a_sq", "b_mean", "b_num", "b_sq", "time")
    batched = traj.moment_states()
    assert len(batched) == len(traj.rhos) == 13
    for rho, t, m in zip(traj.rhos, traj.times, batched):
        ref = extract_moments(rho, CFG, t)
        for f in fields:
            assert abs(getattr(m, f) - getattr(ref, f)) < 1e-12, f
    pop = np.array([np.real(expectation(rho, nb)) for rho in traj.rhos])
    assert np.max(np.abs(traj.battery_population() - pop)) < 1e-12
    reduced = traj.reduced_battery_states()
    ref_reduced = np.array([reduced_battery_state(r, CFG) for r in traj.rhos])
    assert reduced.shape == (13, 6, 6)
    assert np.max(np.abs(reduced - ref_reduced)) < 1e-12
    erg = exact_ergotropy(reduced, p.omega_b)
    ref_erg = [exact_ergotropy(r, p.omega_b) for r in ref_reduced]
    assert np.max(np.abs(erg - ref_erg)) < 1e-12
    if rho0 is not None:
        assert np.max(np.abs([m.b_mean for m in batched])) > 1e-3
        assert np.max(np.abs([m.a_mean for m in batched])) > 1e-3


class TestObservables:
    def test_extract_moments_fock_state(self):
        dim = CFG.cutoff_a * CFG.cutoff_b
        rho = np.zeros((dim, dim), dtype=complex)
        rho[1 * 6 + 2, 1 * 6 + 2] = 1.0  # |1, 2>
        m = extract_moments(rho, CFG, time=1.5)
        assert m.a_num == pytest.approx(1.0)
        assert m.b_num == pytest.approx(2.0)
        assert m.a_mean == 0.0
        assert m.b_sq == 0.0
        assert m.time == 1.5

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
    with pytest.raises(InvalidInputError):
        FockConfig(rel_tol=2.0)
