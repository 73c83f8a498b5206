"""Acceptance suite: one test per top-level claim, one PASS/FAIL line each.

The expensive truncated-Fock runs are shared between tests through
module-scope fixtures; the wall-clock budget of each claim includes its
share of that fixture work.
"""

import math
import time

import numpy as np
import pytest

from cvbattery.cumulant import (
    NonlinearParams,
    integrate_cumulant,
    steady_energy_nonlinear,
    steady_variances,
)
from cvbattery.focksim import (
    FockConfig,
    check_density_matrix,
    conserved_charge_drift,
    converge_cutoffs,
    evolve,
    exact_ergotropy,
)
from cvbattery.gaussian import MomentState, covariance_determinant
from cvbattery.linear import (
    LinearParams,
    energy_linear,
    linear_constants,
    max_power,
    optimal_energy,
    optimal_time_energy,
    optimal_time_power,
)
from cvbattery.metrics import compute_metrics, ergotropy_trajectory
from cvbattery.perturbation import (
    approx_optima_nonlinear,
    perturbation_constants,
    perturbative_energy,
    weak_driving_energy,
)


def report(num, checks, detail=""):
    """Print the one-line verdict for a criterion, then assert it."""
    failed = [name for name, ok in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    line = f"criterion {num:2d}: {status}"
    if detail:
        line += f"  ({detail})"
    if failed:
        line += f"  failed: {', '.join(failed)}"
    print(line, flush=True)
    assert not failed, line


class GridTrajectory:
    """Adapter exposing a sampled energy curve to compute_metrics."""

    omega_b = 1.0

    def __init__(self, t, energy):
        self.times = np.asarray(t, dtype=float)
        self._nb = np.asarray(energy, dtype=float)

    def battery_population(self):
        return self._nb


# ---------------------------------------------------------------------------
# shared expensive fixtures


@pytest.fixture(scope="module")
def fock_linear():
    """Criterion 2 run, reused by the property suite (criterion 10), which
    relies on its validation of every sample."""
    p = LinearParams(omega_b=1.0, Omega=0.1, g=0.5, gamma=1.0)
    cfg = FockConfig(cutoff_a=12, cutoff_b=12)
    t0 = time.perf_counter()
    traj = evolve("linear", p, cfg, 40.0, n_samples=161)
    check_density_matrix(traj.rhos)
    return traj, time.perf_counter() - t0


@pytest.fixture(scope="module")
def fock_nonlinear():
    """Criterion 9 run, reused by the property suite (criterion 10), which
    relies on its validation of every sample."""
    p = NonlinearParams(omega_b=1.0, Omega=0.25, J=1.0, gamma=0.5)
    t0 = time.perf_counter()
    # the state is steady long before t = 80 (relaxation rate gamma/2), so
    # the cutoff search does not need the full window
    cfg = converge_cutoffs("nonlinear", p, FockConfig(8, 8), t_end=80.0)
    traj = evolve("nonlinear", p, cfg, 240.0, n_samples=33)
    check_density_matrix(traj.rhos)
    return traj, cfg, time.perf_counter() - t0


# ---------------------------------------------------------------------------


def test_criterion_1_constants():
    t0 = time.perf_counter()
    lc = linear_constants()
    pc = perturbation_constants()
    elapsed = time.perf_counter() - t0
    sqrt_e = math.sqrt(math.e)
    checks = [
        ("A printed", 0.0 <= lc.A - 1.256 < 1e-3),
        ("B printed", 0.0 <= lc.B - 2.786 < 1e-3),
        ("C printed", 0.0 <= lc.C - 0.814 < 1e-3),
        ("D printed", 0.0 <= lc.D_strong - 1.347 < 1e-3),
        ("alpha printed", 0.0 <= pc.alpha - 1.393 < 1e-3),
        ("sqrt2 alpha printed", 0.0 <= math.sqrt(2.0) * pc.alpha - 1.97 < 1e-2),
        ("beta printed", 0.0 <= pc.beta - 1.905 < 1e-3),
        ("A residual",
         abs((lc.A + 0.5) * math.exp(-(lc.A + 0.5)) - 0.5 / sqrt_e) < 1e-12),
        ("B residual", abs(math.tan(lc.B / 2.0) - 2.0 * lc.B) < 1e-12),
        ("C residual",
         abs(lc.C - 2.0 * (1.0 - math.exp(-lc.A)) ** 2 / lc.A) < 1e-12),
        ("D residual",
         abs(lc.D_strong - 4.0 * math.sin(lc.B / 2.0) ** 4 / lc.B) < 1e-12),
        ("alpha residual", abs(math.tan(pc.alpha) - 4.0 * pc.alpha) < 1e-12),
        ("beta residual",
         abs(pc.beta - 2.0 * math.sqrt(2.0) * math.sin(pc.alpha) ** 4 / pc.alpha)
         < 1e-12),
        ("B = 2 alpha", abs(lc.B - 2.0 * pc.alpha) < 1e-12),
        ("runtime < 1 s", elapsed < 1.0),
    ]
    report(1, checks, f"{elapsed:.3f} s")


def test_criterion_2_linear_cross_check(fock_linear):
    traj, elapsed = fock_linear
    p = traj.params
    e_ref = energy_linear(traj.times, p)
    e = traj.omega_b * traj.battery_population()
    rel_err = np.max(np.abs(e - e_ref)) / np.max(e_ref)
    dets = covariance_determinant(MomentState.from_array(traj.moments()))
    det_err = max(abs(d - 1.0) for d in dets)
    erg = ergotropy_trajectory(traj, "exact")
    scale = np.maximum(e, 1e-12)
    erg_err = np.max(np.abs(erg - e) / scale)
    checks = [
        ("energy rel err < 1e-3", rel_err < 1e-3),
        ("det within 1e-6 of 1", det_err < 1e-6),
        ("ergotropy = energy within 1e-5", erg_err < 1e-5),
        ("runtime < 30 s", elapsed < 30.0),
    ]
    report(2, checks,
           f"rel {rel_err:.1e}, det {det_err:.1e}, erg {erg_err:.1e}, "
           f"{elapsed:.1f} s")


def test_criterion_3_linear_optima():
    t0 = time.perf_counter()
    checks = []
    for ratio in (0.3, 0.5, 1.0, 5.0):
        p = LinearParams(omega_b=1.0, Omega=0.1, g=ratio, gamma=1.0)
        G = math.sqrt(ratio**2 - 0.0625)
        t_e_ref = math.pi / G
        e_ref = (0.1 / ratio) ** 2 * (1.0 + math.exp(-math.pi / (4.0 * G))) ** 2
        t = np.linspace(0.0, 2.0 * t_e_ref, 40001)
        m = compute_metrics(GridTrajectory(t, energy_linear(t, p)))
        checks.append((f"t_E at g={ratio}",
                       abs(m.t_E - t_e_ref) / t_e_ref < 1e-4))
        checks.append((f"E(t_E) at g={ratio}",
                       abs(m.E_tE - e_ref) / e_ref < 1e-4))
        checks.append((f"closed form t_E at g={ratio}",
                       abs(optimal_time_energy(p) - t_e_ref) < 1e-12))
        checks.append((f"closed form E at g={ratio}",
                       abs(optimal_energy(p) - e_ref) < 1e-12))
    # below the exceptional point the maximum is asymptotic
    p = LinearParams(omega_b=1.0, Omega=0.1, g=0.2, gamma=1.0)
    t = np.linspace(0.0, 150.0, 30001)
    m = compute_metrics(GridTrajectory(t, energy_linear(t, p)))
    checks.append(("asymptotic flag at g/gamma=0.2", m.asymptotic))
    checks.append(("asymptotic value", abs(m.E_tE - 0.25) / 0.25 < 1e-4))
    checks.append(("closed form inf marker",
                   math.isinf(optimal_time_energy(p))))
    elapsed = time.perf_counter() - t0
    checks.append(("runtime < 5 s", elapsed < 5.0))
    report(3, checks, f"{elapsed:.2f} s")


def test_criterion_4_power_asymptotes():
    t0 = time.perf_counter()
    lc = linear_constants()
    checks = []
    # weak coupling, within 2%
    p = LinearParams(omega_b=1.0, Omega=0.1, g=0.01, gamma=1.0)
    t_p = optimal_time_power(p)
    p_tp = max_power(p)
    t_ref = lc.A / (2.0 * 0.01**2)
    p_ref = lc.C * 0.1**2
    checks.append(("t_P weak (2%)", abs(t_p - t_ref) / t_ref < 0.02))
    checks.append(("P(t_P) weak (2%)", abs(p_tp - p_ref) / p_ref < 0.02))
    # strong coupling, within 0.5%
    p = LinearParams(omega_b=1.0, Omega=0.1, g=100.0, gamma=1.0)
    t_p = optimal_time_power(p)
    p_tp = max_power(p)
    t_ref = lc.B / 100.0
    p_ref = lc.D_strong * 0.1**2 / 100.0
    dev_t = abs(t_p - t_ref) / t_ref
    dev_p = abs(p_tp - p_ref) / p_ref
    checks.append(("t_P strong (0.5%)", dev_t < 0.005))
    # the finite-gamma correction to the strong-coupling power asymptote is
    # O(gamma/g) with a coefficient near 0.8, so at g/gamma = 100 the exact
    # peak sits ~0.76% below the asymptote; the 0.5% demand is not met
    checks.append(("P(t_P) strong (0.5%)", dev_p < 0.005))
    elapsed = time.perf_counter() - t0
    checks.append(("runtime < 10 s", elapsed < 10.0))
    report(4, checks,
           f"strong devs t {dev_t:.2%}, P {dev_p:.2%}, {elapsed:.2f} s")


def test_criterion_5_cumulant_invariant():
    t0 = time.perf_counter()
    checks = []
    cases = [(0.05, 0.5), (0.25, 0.5), (0.25, 0.0), (1.0, 2.0)]
    for Omega, gamma in cases:
        p = NonlinearParams(omega_b=1.0, Omega=Omega, J=1.0, gamma=gamma)
        t_end = 400.0 / max(gamma, 0.1)
        traj = integrate_cumulant(p, t_end, 801)
        drift = np.max(np.abs(traj.determinants() - 1.0))
        tag = f"Omega={Omega} gamma={gamma}"
        checks.append((f"|D-1| < 1e-8 at {tag}", drift < 1e-8))
        if gamma > 0.0:
            # the dissipationless case never relaxes; steady-state clauses
            # apply to the damped runs
            final = MomentState.from_array(traj.moments()[-1])
            checks.append((f"<bb> -> -Omega/J at {tag}",
                           abs(final.b_sq - (-Omega)) < 1e-5))
            checks.append((f"steady energy at {tag}",
                           abs(traj.omega_b * final.b_num
                               - steady_energy_nonlinear(p)) < 1e-5))
    elapsed = time.perf_counter() - t0
    checks.append(("runtime < 10 s", elapsed < 10.0))
    report(5, checks, f"{elapsed:.2f} s")


def test_criterion_6_squeezing():
    t0 = time.perf_counter()
    checks = []
    for r in np.logspace(-2, 2, 201):
        qs = steady_variances(NonlinearParams(Omega=float(r), J=1.0))
        if qs.var_x * qs.var_p != 0.25:
            checks.append((f"product 1/4 exact at Omega/J={r:.3g}", False))
            break
        if not qs.var_x < 0.5 < qs.var_p:
            checks.append((f"squeezing ordering at Omega/J={r:.3g}", False))
            break
    else:
        checks.append(("product 1/4 exact on sweep", True))
        checks.append(("var_x < 1/2 < var_p on sweep", True))
    qs = steady_variances(NonlinearParams(Omega=0.01, J=1.0))
    checks.append(("weak limit var_x", abs(qs.var_x - 0.49) / 0.49 < 0.01))
    checks.append(("weak limit var_p", abs(qs.var_p - 0.51) / 0.51 < 0.01))
    qs = steady_variances(NonlinearParams(Omega=100.0, J=1.0))
    checks.append(("strong limit var_x",
                   abs(qs.var_x - 1.0 / 800.0) * 800.0 < 0.01))
    checks.append(("strong limit var_p", abs(qs.var_p - 200.0) / 200.0 < 0.01))
    elapsed = time.perf_counter() - t0
    checks.append(("runtime < 1 s", elapsed < 1.0))
    report(6, checks, f"{elapsed:.3f} s")


def test_criterion_7_perturbation_series():
    t0 = time.perf_counter()
    p = NonlinearParams(omega_b=1.0, Omega=0.25, J=1.0, gamma=0.0)
    t = np.linspace(0.0, math.sqrt(2.0) * math.pi, 401)  # first oscillation
    traj = integrate_cumulant(p, t[-1], t.size)
    ref = traj.battery_population()
    dev = [float(np.max(np.abs(perturbative_energy(t, p, k) - ref)))
           for k in (0, 1, 2)]
    m_ref = compute_metrics(traj)
    m0 = compute_metrics(GridTrajectory(t, perturbative_energy(t, p, 0)))
    m2 = compute_metrics(GridTrajectory(t, perturbative_energy(t, p, 2)))
    checks = [
        ("deviation decreases 0 -> 1", dev[0] > dev[1]),
        ("deviation decreases 1 -> 2", dev[1] > dev[2]),
        ("order-0 t_E = pi/sqrt(2)",
         abs(m0.t_E - math.pi / math.sqrt(2.0)) < 1e-3),
        ("order-0 E(t_E) = omega/4", abs(m0.E_tE - 0.25) < 1e-6),
        ("order-0 peak within 10% of cumulant",
         abs(m0.E_tE - m_ref.E_tE) / m_ref.E_tE < 0.10),
        ("order-2 peak within 3% of cumulant",
         abs(m2.E_tE - m_ref.E_tE) / m_ref.E_tE < 0.03),
    ]
    elapsed = time.perf_counter() - t0
    checks.append(("runtime < 5 s", elapsed < 5.0))
    report(7, checks,
           f"devs {dev[0]:.3f}/{dev[1]:.4f}/{dev[2]:.4f}, {elapsed:.2f} s")


def test_criterion_8_dissipative_weak_driving():
    t0 = time.perf_counter()
    p = NonlinearParams(omega_b=1.0, Omega=0.05, J=1.0, gamma=0.5)
    traj = integrate_cumulant(p, 40.0, 2001)
    ref = traj.battery_population()
    approx = weak_driving_energy(traj.times, p)
    steady = steady_energy_nonlinear(p)
    max_err = float(np.max(np.abs(approx - ref))) / steady
    # the closed form is exact only to leading order; its deviation scales
    # as ~12 (Omega/J)^2 of the steady energy, i.e. ~3% here, so the 1%
    # band is out of reach at Omega = J/20
    checks = [("max error < 1% of steady energy", max_err < 0.01)]
    # optimal-time numbers quoted for the moderate-drive panel, Omega = J/4
    p_fig = NonlinearParams(omega_b=1.0, Omega=0.25, J=1.0, gamma=0.5)
    t_e, e_te, _, _ = approx_optima_nonlinear(p_fig)
    ratio = e_te / steady_energy_nonlinear(p_fig)
    checks.append(("J t_E = 2.23 within 2%", abs(t_e - 2.23) / 2.23 < 0.02))
    checks.append(("E(t_E)/E_ss = 3.27 within 2%",
                   abs(ratio - 3.27) / 3.27 < 0.02))
    # peak power estimate against the numeric cumulant peak
    _, _, _, p_tp = approx_optima_nonlinear(p)
    m = compute_metrics(traj)
    power_dev = abs(p_tp - m.P_tP) / m.P_tP
    checks.append(("P(t_P) within 5% of cumulant peak", power_dev < 0.05))
    elapsed = time.perf_counter() - t0
    checks.append(("runtime < 5 s", elapsed < 5.0))
    report(8, checks,
           f"err {max_err:.2%}, t_E {t_e:.3f}, ratio {ratio:.3f}, "
           f"power dev {power_dev:.2%}, {elapsed:.2f} s")


def test_criterion_9_fock_vs_cumulant(fock_nonlinear):
    traj, cfg, elapsed = fock_nonlinear
    p = traj.params
    e_fock = traj.omega_b * traj.battery_population()[-1]
    e_cum = steady_energy_nonlinear(p)
    energy_dev = abs(e_fock - e_cum) / e_cum
    rho_b = traj.reduced_battery_states()[-1]
    erg = exact_ergotropy(rho_b, traj.omega_b)
    erg_dev = abs(erg - e_fock) / e_fock
    checks = [
        ("converged cutoffs", traj.cutoff_ok),
        ("steady energy within 5%", energy_dev < 0.05),
        ("ergotropy = energy within 1%", erg_dev < 0.01),
        ("runtime < 3 min", elapsed < 180.0),
    ]
    report(9, checks,
           f"cutoffs ({cfg.cutoff_a},{cfg.cutoff_b}), energy dev "
           f"{energy_dev:.2%}, erg dev {erg_dev:.2e}, {elapsed:.1f} s")


def test_criterion_10_property_suite(fock_linear, fock_nonlinear):
    t0 = time.perf_counter()
    checks = []
    det_min = math.inf
    for traj in (fock_linear[0], fock_nonlinear[0]):
        dets = covariance_determinant(MomentState.from_array(traj.moments()))
        det_min = min(det_min, dets.min())
    checks.append(("det >= 1 - 1e-6 on fock trajectories",
                   det_min >= 1.0 - 1e-6))
    # the fixtures ran check_density_matrix on every sample
    checks.append(("trace/hermiticity/positivity on all samples", True))
    drift = conserved_charge_drift(
        NonlinearParams(omega_b=1.0, Omega=0.0, J=1.0, gamma=0.0),
        FockConfig(4, 6), t_end=50.0,
    )
    checks.append(("<M> drift < 1e-8", drift < 1e-8))
    finals = []
    for gamma in (0.25, 0.5, 2.0):
        p = NonlinearParams(omega_b=1.0, Omega=0.25, J=1.0, gamma=gamma)
        traj = integrate_cumulant(p, 400.0 / max(gamma, 0.1), 401)
        finals.append(traj.omega_b * traj.battery_population()[-1])
    spread = (max(finals) - min(finals)) / min(finals)
    checks.append(("gamma-independent steady energy (1e-4)", spread < 1e-4))
    elapsed = time.perf_counter() - t0
    checks.append(("runtime < 2 min", elapsed < 120.0))
    report(10, checks,
           f"det min {det_min - 1.0:+.1e}, M drift {drift:.1e}, "
           f"gamma spread {spread:.1e}, {elapsed:.1f} s")


def test_criterion_11_sweep_rows():
    t0 = time.perf_counter()
    ratios = (0.01, 0.1, 0.316, 1.0)
    results = {}
    for gamma in (0.5, 2.0):
        row = []
        for r in ratios:
            p = NonlinearParams(omega_b=1.0, Omega=r, J=1.0, gamma=gamma)
            cut_b = 8 if r <= 0.12 else (14 if r <= 0.5 else 20)
            cut_a = 6 if r <= 0.12 else 8
            cfg = FockConfig(cutoff_a=cut_a, cutoff_b=cut_b)
            traj = evolve("nonlinear", p, cfg, 120.0 / gamma, n_samples=9)
            rho_b = traj.reduced_battery_states()[-1]
            energy = p.omega_b * traj.battery_population()[-1]
            row.append((energy, exact_ergotropy(rho_b, p.omega_b)))
        results[gamma] = row
    checks = []
    worst = 0.0
    for i, r in enumerate(ratios):
        e1, g1 = results[0.5][i]
        e2, g2 = results[2.0][i]
        de = abs(e1 - e2) / e1
        dg = abs(g1 - g2) / max(g1, 1e-12)
        worst = max(worst, de, dg)
        checks.append((f"energy at Omega/J={r} (3%)", de < 0.03))
        checks.append((f"ergotropy at Omega/J={r} (3%)", dg < 0.03))
    elapsed = time.perf_counter() - t0
    checks.append(("runtime < 10 min", elapsed < 600.0))
    report(11, checks, f"worst rel change {worst:.1e}, {elapsed:.1f} s")
