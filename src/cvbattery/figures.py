"""Figure-data bundles and the constants table: the code of the ``figure``
and ``constants`` commands.  ``cli.main`` imports this module for those two
only, so a ``run`` never loads it.

Each bundle of ``FIGURES`` takes the output directory, creates it with its
first file and returns the paths it wrote.
"""

import math
from pathlib import Path

import numpy as np

from . import cumulant, linear, perturbation
from .cli import _OPTIMA, Scenario, _cell, _linear_optima, _sweep_point, _write_csv


def _figure_csv(outdir, name, comment, header, rows):
    path = Path(outdir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        _write_csv(fh, [comment], header, rows)
    return path


def _figure_fig1c(outdir):
    rows = []
    for r in np.logspace(-2, 2, 801).tolist():
        qs = cumulant.steady_variances(cumulant.NonlinearParams(Omega=r, J=1.0))
        rows.append((r, qs.var_x, qs.var_p))
    return [_figure_csv(outdir, "fig1c_steady_variances.csv",
                        "steady-state battery quadrature variances vs Omega/J (nonlinear)",
                        ["Omega_over_J", "var_x", "var_p"], rows)]


def _figure_fig2(outdir):
    gamma = 1.0
    # panel (a)+(d): time series at g = gamma/2
    p = linear.LinearParams(omega_b=1.0, Omega=0.1, g=0.5, gamma=gamma)
    t = np.linspace(0.0, 40.0 / gamma, 2001)
    e = linear.energy_linear(t, p)
    series = _figure_csv(
        outdir, "fig2_ad_timeseries.csv",
        f"linear battery, g=gamma/2, Omega=gamma/10, gamma={_cell(gamma)}",
        ["t", "energy", "power"],
        [(ti, ei, None if ti == 0 else ei / ti) for ti, ei in zip(t.tolist(), e.tolist())])
    # panels (b, c, e, f): optima vs g/gamma
    ratios = np.logspace(-2, 2, 801).tolist()
    ps = [linear.LinearParams(omega_b=1.0, Omega=0.1, g=r * gamma, gamma=gamma)
          for r in ratios]
    optima = _figure_csv(
        outdir, "fig2_bcef_optima.csv",
        f"linear battery optima vs g/gamma at gamma={_cell(gamma)}, "
        f"Omega={_cell(0.1)}; exceptional point at g/gamma=0.25",
        ["g_over_gamma", *_OPTIMA],
        [(r, *o) for r, o in zip(ratios, _linear_optima(ps))])
    return [series, optima]


def _figure_fig3(outdir):
    """Cumulant time series of the nonlinear battery: weak driving at
    gamma = 0 and gamma = J/2 (a_d, b_e), then three drives at gamma = J/2
    (c_f).  The Omega = J/4 column of c_f is the b_e trajectory, so every
    point is integrated once."""
    paths = []
    # columns 1 (gamma = 0) and 2 (gamma = J/2), both at Omega = J/4
    for tag, gamma in (("a_d", 0.0), ("b_e", 0.5)):
        p = cumulant.NonlinearParams(omega_b=1.0, Omega=0.25, J=1.0, gamma=gamma)
        t_end = 10.0 if gamma == 0.0 else 40.0
        traj = cumulant.integrate_cumulant(p, t_end, 2001)
        t, energy = traj.times, traj.battery_population()
        if gamma == 0.0:
            header = ["t", "energy_cumulant", "energy_order0", "energy_order1",
                      "energy_order2"]
            approx = [perturbation.perturbative_energy(t, p, k) for k in (0, 1, 2)]
        else:
            header = ["t", "energy_cumulant", "energy_weak_driving"]
            approx = [perturbation.weak_driving_energy(t, p)]
            moderate = energy  # the Omega = J/4 column of c_f
        paths.append(_figure_csv(
            outdir, f"fig3_{tag}_timeseries.csv",
            f"nonlinear battery, Omega=J/4, gamma={_cell(gamma)}, J=1", header,
            np.column_stack([t, energy, *approx]).tolist()))
    # column 3: moderate driving at gamma = J/2 for three drive amplitudes
    drives = (0.05, 0.25, 1.0)
    cols = [moderate if om == 0.25 else cumulant.integrate_cumulant(
                cumulant.NonlinearParams(omega_b=1.0, Omega=om, J=1.0, gamma=0.5),
                40.0, 2001).battery_population() for om in drives]
    paths.append(_figure_csv(
        outdir, "fig3_c_f_moderate.csv",
        "nonlinear battery, gamma=J/2, cumulant route, three drives",
        ["t"] + [f"energy_Omega_{om}" for om in drives],
        np.column_stack([np.linspace(0.0, 40.0, 2001), *cols]).tolist()))
    return paths


def _figure_fig4(outdir):
    """Steady/optimal performance vs Omega/J for gamma = J/2 and gamma = 2J.

    Each row is one Fock point of the ``run`` sweep path (``_sweep_point``)
    with cutoffs grown with the drive.  The exact route makes this the most
    expensive figure, so the grid is coarse: 9 log-spaced values per row.
    """
    paths = []
    for tag, gamma in (("abc", 0.5), ("def", 2.0)):
        t_end = max(120.0 / max(gamma, 0.1), 40.0)
        rows = []
        for r in np.logspace(-2, 0, 9):
            sc = Scenario(coupling="nonlinear", route="fock", Omega=float(r), gamma=gamma,
                          J=1.0, t_end=t_end, n_samples=257, cutoff_a=8,
                          cutoff_b=8 if r <= 0.12 else (16 if r <= 0.5 else 24))
            *optima, e_ss, erg_ss = _sweep_point(sc, "fock")
            rows.append((r, e_ss, erg_ss, *optima,
                         cumulant.steady_energy_nonlinear(sc.params())))
        paths.append(_figure_csv(
            outdir, f"fig4_{tag}_sweep.csv",
            f"nonlinear battery sweep, gamma={_cell(gamma)}, J=1, fock route, "
            f"t_end={_cell(t_end)}",
            ["Omega_over_J", "energy_ss", "ergotropy_ss", *_OPTIMA,
             "energy_ss_cumulant"], rows))
    return paths


FIGURES = {
    "fig1c": _figure_fig1c,
    "fig2": _figure_fig2,
    "fig3": _figure_fig3,
    "fig4": _figure_fig4,
}


def print_constants(out):
    from scipy.special import lambertw

    lc = linear.linear_constants()
    pc = perturbation.perturbation_constants()
    alpha_residual = abs(math.tan(pc.alpha) - 4.0 * pc.alpha)
    rows = [
        ("A", lc.A, abs(lc.A + 0.5 + lambertw(-1.0 / (2.0 * math.sqrt(math.e)), -1).real)),
        ("B", lc.B, abs(math.tan(lc.B / 2.0) - 2.0 * lc.B)),
        ("C", lc.C, abs(lc.C - 2.0 * (1.0 - math.exp(-lc.A)) ** 2 / lc.A)),
        ("D_strong", lc.D_strong, abs(lc.D_strong - 4.0 * math.sin(lc.B / 2.0) ** 4 / lc.B)),
        ("alpha", pc.alpha, alpha_residual),
        ("sqrt2_alpha", math.sqrt(2.0) * pc.alpha, alpha_residual),
        ("beta", pc.beta, abs(pc.beta - 2.0 * math.sqrt(2.0) * math.sin(pc.alpha) ** 4 / pc.alpha)),
        ("B_minus_2alpha", lc.B - 2.0 * pc.alpha, abs(lc.B - 2.0 * pc.alpha)),
    ]
    out.write("name,value,residual\n")
    for name, value, residual in rows:
        out.write(f"{name},{value:.12g},{residual:.3g}\n")
