"""Command line interface: scenario runs, figure-data bundles, constants.

Subcommands:
  run <scenario-file>      time series / sweep CSV plus an optima summary
  figure <name> --out DIR  CSV bundle reproducing a figure's data
  constants                dimensionless prefactor table with residuals

All computations are deterministic: the only random draws (the norm
estimator inside the Fock propagator) use a fixed seed and leave numpy's
global RNG state untouched; ``--seedless`` merely asserts that.  Exit codes: 0 success, 2 config error, 3 non-convergence.
"""

import argparse
import math
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy.special import lambertw

from . import cumulant, focksim, linear, metrics, perturbation
from .errors import ConfigError, ConvergenceError, CvBatteryError, UnsupportedRegimeError
from .gaussian import MomentState, quadrature_stats

ROUTES = ("analytic", "cumulant", "perturbation", "fock", "all")


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return f"{x:.15g}"


@dataclass
class Scenario:
    coupling: str
    route: str = "all"
    omega_b: float = 1.0
    Omega: float = 0.1
    gamma: float = 0.0
    g: float = None
    J: float = None
    t_end: float = 20.0
    n_samples: int = 512
    cutoff_a: int = 8
    cutoff_b: int = 8
    sweep: dict = field(default=None)

    def params(self):
        if self.coupling == "linear":
            return linear.LinearParams(
                omega_b=self.omega_b, Omega=self.Omega, g=self.g, gamma=self.gamma
            )
        return cumulant.NonlinearParams(
            omega_b=self.omega_b, Omega=self.Omega, J=self.J, gamma=self.gamma
        )


_FLOAT_KEYS = {
    "omega_b", "Omega", "gamma", "g", "J", "t_end", "sweep_min", "sweep_max",
}
_INT_KEYS = {"n_samples", "cutoff_a", "cutoff_b", "sweep_points"}
_STR_KEYS = {"coupling", "route", "sweep_param", "sweep_scale"}


def parse_scenario(path) -> Scenario:
    """Parse a flat key = value scenario file."""
    raw = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file: {exc}")
    for ln, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected key = value, got {stripped!r}", line=ln)
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        try:
            if key in _FLOAT_KEYS:
                raw[key] = float(value)
            elif key in _INT_KEYS:
                raw[key] = int(value)
            elif key in _STR_KEYS:
                raw[key] = value
            else:
                raise ConfigError(f"unknown key {key!r}", line=ln)
        except ValueError:
            raise ConfigError(f"bad value for {key!r}: {value!r}", line=ln)

    if "coupling" not in raw:
        raise ConfigError("missing required key 'coupling'")
    coupling = raw.pop("coupling")
    if coupling not in ("linear", "nonlinear"):
        raise ConfigError(f"coupling must be linear or nonlinear, got {coupling!r}")
    sweep_keys = {k: raw.pop(k) for k in list(raw) if k.startswith("sweep_")}
    sc = Scenario(coupling=coupling)
    for k, v in raw.items():
        setattr(sc, k, v)
    if sc.route not in ROUTES:
        raise ConfigError(f"route must be one of {ROUTES}, got {sc.route!r}")
    if coupling == "linear":
        if sc.g is None or sc.J is not None:
            raise ConfigError("linear coupling requires g (and no J)")
    else:
        if sc.J is None or sc.g is not None:
            raise ConfigError("nonlinear coupling requires J (and no g)")
    if sweep_keys:
        needed = {"sweep_param", "sweep_min", "sweep_max", "sweep_points"}
        missing = needed - set(sweep_keys)
        if missing:
            raise ConfigError(f"incomplete sweep block, missing {sorted(missing)}")
        if sweep_keys["sweep_param"] not in ("Omega", "gamma", "g", "J", "omega_b"):
            raise ConfigError(f"cannot sweep {sweep_keys['sweep_param']!r}")
        if sweep_keys["sweep_points"] < 2:
            raise ConfigError("sweep needs at least 2 points")
        scale = sweep_keys.get("sweep_scale", "linear")
        if scale not in ("linear", "log"):
            raise ConfigError(f"sweep_scale must be linear or log, got {scale!r}")
        sc.sweep = {
            "param": sweep_keys["sweep_param"],
            "min": sweep_keys["sweep_min"],
            "max": sweep_keys["sweep_max"],
            "points": sweep_keys["sweep_points"],
            "scale": scale,
        }
    try:
        sc.params()
    except CvBatteryError as exc:
        raise ConfigError(str(exc))
    return sc


def _route_series(sc: Scenario, route: str):
    """Evaluate one route once on the scenario grid.

    Returns (t, cols, summary, note): the column group (energy, power,
    ergotropy, var_x, var_p, det), the (t_E, E_tE, t_P, P_tP) optima, and a
    note that is not None when the route does not apply (cols then holds
    None columns and summary is None).
    """
    t = np.linspace(0.0, sc.t_end, sc.n_samples)
    p = sc.params()
    empty = dict.fromkeys(("energy", "power", "ergotropy", "var_x", "var_p", "det"))

    if route == "analytic":
        if sc.coupling != "linear":
            return t, empty, None, "analytic route applies to linear coupling only"
        e = linear.energy_linear(t, p)
        return t, _series_min_uncertainty(t, e), _linear_optima([p])[0], None
    if route == "perturbation":
        if sc.coupling != "nonlinear":
            return t, empty, None, "perturbation route applies to nonlinear coupling only"
        try:
            if p.gamma == 0.0:
                e = perturbation.perturbative_energy(t, p, order=2)
            else:
                e = perturbation.weak_driving_energy(t, p)
        except UnsupportedRegimeError as exc:
            return t, empty, None, str(exc)
        e = np.clip(e, 0.0, None)
        return t, _series_min_uncertainty(t, e), _optima(metrics.energy_metrics(t, e)), None
    if route == "cumulant":
        if sc.coupling != "nonlinear":
            return t, empty, None, "cumulant route applies to nonlinear coupling only"
        traj = cumulant.integrate_cumulant(p, sc.t_end, sc.n_samples)
        cols, summary = _series_from_traj(traj, "gaussian")
        return t, cols, summary, None
    if route == "fock":
        cfg = focksim.FockConfig(cutoff_a=sc.cutoff_a, cutoff_b=sc.cutoff_b)
        traj = focksim.evolve(sc.coupling, p, cfg, sc.t_end, sc.n_samples)
        _warn_if_truncated(traj)
        cols, summary = _series_from_traj(traj, "exact")
        return t, cols, summary, None
    raise ConfigError(f"unknown route {route!r}")


def _warn_if_truncated(traj):
    """One ``warning:`` line on stderr when a Fock run's top level filled."""
    if not traj.cutoff_ok:
        c, p = traj.config, traj.params
        print(f"warning: Fock cutoffs ({c.cutoff_a},{c.cutoff_b}) too small at "
              f"Omega={_fmt(p.Omega)}, gamma={_fmt(p.gamma)}: the top level holds "
              f"more than {focksim.TOP_LEVEL_TOL:g} of the population", file=sys.stderr)


def _optima(m):
    return (m.t_E, m.E_tE, m.t_P, m.P_tP)


def _linear_optima(ps):
    """Closed-form (t_E, E_tE, t_P, P_tP) of each point of ``ps``, with every
    t_P and P_tP from one ``linear.power_optima`` solve."""
    t_p, p_tp = linear.power_optima(ps)
    return [(linear.optimal_time_energy(p), linear.optimal_energy(p), float(tp), float(pp))
            for p, tp, pp in zip(ps, t_p, p_tp)]


def _series_min_uncertainty(t, energy):
    """Column group for closed-form routes where D = 1 throughout."""
    power = np.concatenate([[np.nan], energy[1:] / t[1:]])
    return {
        "energy": energy,
        "power": power,
        "ergotropy": energy,
        "var_x": np.full_like(energy, 0.5),
        "var_p": np.full_like(energy, 0.5),
        "det": np.ones_like(energy),
    }


def _series_from_traj(traj, ergo_route):
    """Column group and optima of a sampled trajectory."""
    m = metrics.compute_metrics(traj)
    qs = quadrature_stats(MomentState.from_array(traj.moments()))
    cols = {
        "energy": m.energy,
        "power": np.concatenate([[np.nan], m.power]),
        "ergotropy": metrics.ergotropy_trajectory(traj, ergo_route),
        "var_x": qs.var_x,
        "var_p": qs.var_p,
        "det": qs.det,
    }
    return cols, _optima(m)


def write_run_csv(sc: Scenario, out):
    """Emit the time-series (or sweep) CSV plus the optima summary block."""
    routes = [sc.route] if sc.route != "all" else ["analytic", "cumulant",
                                                   "perturbation", "fock"]
    routes = [r for r in routes if r != "all"]
    out.write(f"# coupling={sc.coupling} route={sc.route} omega_b={_fmt(sc.omega_b)} "
              f"Omega={_fmt(sc.Omega)} gamma={_fmt(sc.gamma)} "
              f"{'g=' + _fmt(sc.g) if sc.g is not None else 'J=' + _fmt(sc.J)} "
              f"t_end={_fmt(sc.t_end)} n_samples={sc.n_samples}\n")

    if sc.sweep is not None:
        _write_sweep_csv(sc, out)
        return

    groups, summaries, notes = {}, {}, {}
    t = None
    for r in routes:
        t, groups[r], summaries[r], note = _route_series(sc, r)
        if note:
            notes[r] = note
    for r, note in notes.items():
        out.write(f"# note: route {r}: {note}\n")
    suffix = (lambda r: "") if len(routes) == 1 else (lambda r: f"_{r}")
    fields = ("energy", "power", "ergotropy", "var_x", "var_p", "det")
    header = "t" + "".join(
        "," + ",".join(f"{f}{suffix(r)}" for f in fields) for r in routes
    )
    out.write(header + "\n")
    for i, ti in enumerate(t):
        row = [_fmt(ti)]
        for r in routes:
            for f in fields:
                col = groups[r][f]
                v = None if col is None else col[i]
                row.append("" if v is None or (isinstance(v, float) and math.isnan(v))
                           else _fmt(float(v)))
        out.write(",".join(row) + "\n")

    out.write("\n")
    out.write("route,t_E,E_tE,t_P,P_tP\n")
    for r in routes:
        s = summaries[r]
        if s is None:
            out.write(f"{r},,,,\n")
        else:
            out.write(f"{r}," + ",".join(_fmt(v) for v in s) + "\n")


def _write_sweep_csv(sc: Scenario, out):
    sw = sc.sweep
    if sw["scale"] == "log":
        values = np.logspace(math.log10(sw["min"]), math.log10(sw["max"]), sw["points"])
    else:
        values = np.linspace(sw["min"], sw["max"], sw["points"])
    out.write(f"# sweep {sw['param']} {sw['scale']} over [{_fmt(sw['min'])}, "
              f"{_fmt(sw['max'])}] with {sw['points']} points\n")
    out.write(f"{sw['param']},t_E,E_tE,t_P,P_tP,energy_ss,ergotropy_ss\n")
    route = sc.route if sc.route != "all" else (
        "analytic" if sc.coupling == "linear" else "cumulant")
    for v in values:
        point = Scenario(**{**sc.__dict__, "sweep": None})
        setattr(point, sw["param"], float(v))
        _, cols, s, note = _route_series(point, route)
        if note is not None:
            out.write(f"{_fmt(float(v))},,,,,,\n")
            continue
        e_ss = cols["energy"][-1]
        erg_ss = cols["ergotropy"][-1]
        out.write(",".join([_fmt(float(v))] + [_fmt(x) for x in s]
                           + [_fmt(float(e_ss)), _fmt(float(erg_ss))]) + "\n")


# ---------------------------------------------------------------------------
# figure bundles


def _figure_fig1c(outdir, points_per_decade=200):
    ratios = np.logspace(-2, 2, 4 * points_per_decade + 1)
    path = outdir / "fig1c_steady_variances.csv"
    with open(path, "w", newline="\n") as fh:
        fh.write("# steady-state battery quadrature variances vs Omega/J (nonlinear)\n")
        fh.write("Omega_over_J,var_x,var_p\n")
        for r in ratios:
            qs = cumulant.steady_variances(
                cumulant.NonlinearParams(Omega=float(r), J=1.0)
            )
            fh.write(f"{_fmt(float(r))},{_fmt(qs.var_x)},{_fmt(qs.var_p)}\n")
    return [path]


def _figure_fig2(outdir, points_per_decade=200):
    paths = []
    gamma = 1.0
    # panel (a)+(d): time series at g = gamma/2
    p = linear.LinearParams(omega_b=1.0, Omega=0.1, g=0.5, gamma=gamma)
    t = np.linspace(0.0, 40.0 / gamma, 2001)
    e = linear.energy_linear(t, p)
    path = outdir / "fig2_ad_timeseries.csv"
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# linear battery, g=gamma/2, Omega=gamma/10, gamma={_fmt(gamma)}\n")
        fh.write("t,energy,power\n")
        for ti, ei in zip(t, e):
            pw = "" if ti == 0 else _fmt(ei / ti)
            fh.write(f"{_fmt(float(ti))},{_fmt(float(ei))},{pw}\n")
    paths.append(path)
    # panels (b, c, e, f): optima vs g/gamma
    ratios = np.logspace(-2, 2, 4 * points_per_decade + 1)
    path = outdir / "fig2_bcef_optima.csv"
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# linear battery optima vs g/gamma at gamma={_fmt(gamma)}, "
                 f"Omega={_fmt(0.1)}; exceptional point at g/gamma=0.25\n")
        fh.write("g_over_gamma,t_E,E_tE,t_P,P_tP\n")
        ps = [linear.LinearParams(omega_b=1.0, Omega=0.1, g=float(r) * gamma, gamma=gamma)
              for r in ratios]
        for r, optima in zip(ratios, _linear_optima(ps)):
            fh.write(",".join(_fmt(x) for x in (float(r), *optima)) + "\n")
    paths.append(path)
    return paths


def _figure_fig3(outdir, **_):
    paths = []
    J = 1.0
    # columns 1 (gamma = 0) and 2 (gamma = J/2), both at Omega = J/4
    for tag, gamma in (("a_d", 0.0), ("b_e", 0.5)):
        p = cumulant.NonlinearParams(omega_b=1.0, Omega=0.25, J=J, gamma=gamma)
        t_end = 10.0 if gamma == 0.0 else 40.0
        traj = cumulant.integrate_cumulant(p, t_end, 2001)
        t = traj.times
        e_cum = traj.battery_population()
        path = outdir / f"fig3_{tag}_timeseries.csv"
        with open(path, "w", newline="\n") as fh:
            fh.write(f"# nonlinear battery, Omega=J/4, gamma={_fmt(gamma)}, J=1\n")
            if gamma == 0.0:
                fh.write("t,energy_cumulant,energy_order0,energy_order1,energy_order2\n")
                o0 = perturbation.perturbative_energy(t, p, 0)
                o1 = perturbation.perturbative_energy(t, p, 1)
                o2 = perturbation.perturbative_energy(t, p, 2)
                for row in zip(t, e_cum, o0, o1, o2):
                    fh.write(",".join(_fmt(float(x)) for x in row) + "\n")
            else:
                fh.write("t,energy_cumulant,energy_weak_driving\n")
                wd = perturbation.weak_driving_energy(t, p)
                for row in zip(t, e_cum, wd):
                    fh.write(",".join(_fmt(float(x)) for x in row) + "\n")
        paths.append(path)
    # column 3: moderate driving at gamma = J/2 for three drive amplitudes
    path = outdir / "fig3_c_f_moderate.csv"
    with open(path, "w", newline="\n") as fh:
        fh.write("# nonlinear battery, gamma=J/2, cumulant route, three drives\n")
        t = np.linspace(0.0, 40.0, 2001)
        cols = {}
        for om in (0.05, 0.25, 1.0):
            p = cumulant.NonlinearParams(omega_b=1.0, Omega=om, J=J, gamma=0.5)
            cols[om] = cumulant.integrate_cumulant(p, 40.0, 2001).battery_population()
        fh.write("t," + ",".join(f"energy_Omega_{om}" for om in cols) + "\n")
        for i, ti in enumerate(t):
            fh.write(",".join([_fmt(float(ti))] +
                              [_fmt(float(cols[om][i])) for om in cols]) + "\n")
    paths.append(path)
    return paths


def _figure_fig4(outdir, sweep_points=9, **_):
    """Steady/optimal performance vs Omega/J for gamma = J/2 and gamma = 2J.

    The exact route makes this the most expensive figure; the sweep grid is
    deliberately coarse (``sweep_points`` log-spaced values per row).
    """
    paths = []
    J = 1.0
    ratios = np.logspace(-2, 0, sweep_points)
    for tag, gamma in (("abc", 0.5), ("def", 2.0)):
        path = outdir / f"fig4_{tag}_sweep.csv"
        t_end = max(120.0 / max(gamma, 0.1), 40.0)
        with open(path, "w", newline="\n") as fh:
            fh.write(f"# nonlinear battery sweep, gamma={_fmt(gamma)}, J=1, "
                     f"fock route, t_end={_fmt(t_end)}\n")
            fh.write("Omega_over_J,energy_ss,ergotropy_ss,t_E,E_tE,t_P,P_tP,"
                     "energy_ss_cumulant\n")
            for r in ratios:
                p = cumulant.NonlinearParams(omega_b=1.0, Omega=float(r) * J,
                                             J=J, gamma=gamma)
                cut_b = 8 if r <= 0.12 else (16 if r <= 0.5 else 24)
                cfg = focksim.FockConfig(cutoff_a=8, cutoff_b=cut_b)
                traj = focksim.evolve("nonlinear", p, cfg, t_end, 257)
                _warn_if_truncated(traj)
                m = metrics.compute_metrics(traj)
                erg = focksim.exact_ergotropy(traj.reduced_battery_states()[-1], p.omega_b)
                fh.write(",".join(_fmt(x) for x in (
                    float(r), m.energy[-1], erg, m.t_E, m.E_tE, m.t_P, m.P_tP,
                    cumulant.steady_energy_nonlinear(p),
                )) + "\n")
        paths.append(path)
    return paths


FIGURES = {
    "fig1c": _figure_fig1c,
    "fig2": _figure_fig2,
    "fig3": _figure_fig3,
    "fig4": _figure_fig4,
}


def print_constants(out):
    lc = linear.linear_constants()
    pc = perturbation.perturbation_constants()
    rows = [
        ("A", lc.A, abs(lc.A + 0.5 + lambertw(-1.0 / (2.0 * math.sqrt(math.e)), -1).real)),
        ("B", lc.B, abs(math.tan(lc.B / 2.0) - 2.0 * lc.B)),
        ("C", lc.C, abs(lc.C - 2.0 * (1.0 - math.exp(-lc.A)) ** 2 / lc.A)),
        ("D_strong", lc.D_strong, abs(lc.D_strong - 4.0 * math.sin(lc.B / 2.0) ** 4 / lc.B)),
        ("alpha", pc.alpha, abs(math.tan(pc.alpha) - 4.0 * pc.alpha)),
        ("sqrt2_alpha", math.sqrt(2.0) * pc.alpha, abs(math.tan(pc.alpha) - 4.0 * pc.alpha)),
        ("beta", pc.beta, abs(pc.beta - 2.0 * math.sqrt(2.0) * math.sin(pc.alpha) ** 4 / pc.alpha)),
        ("B_minus_2alpha", lc.B - 2.0 * pc.alpha, abs(lc.B - 2.0 * pc.alpha)),
    ]
    out.write("name,value,residual\n")
    for name, value, residual in rows:
        out.write(f"{name},{value:.12g},{residual:.3g}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cvbattery",
        description="Driven-dissipative continuous-variable quantum battery toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p_run.add_argument("--samples", type=int, default=None)
    p_run.add_argument("--t-end", type=float, default=None)
    p_run.add_argument("--route", choices=ROUTES, default=None)
    p_run.add_argument("--seedless", action="store_true",
                       help="assert determinism (no run depends on RNG state)")

    p_fig = sub.add_parser("figure", help="emit figure-data CSV bundle")
    p_fig.add_argument("name", choices=sorted(FIGURES))
    p_fig.add_argument("--out", required=True, help="output directory")
    p_fig.add_argument("--seedless", action="store_true")

    p_const = sub.add_parser("constants", help="print the dimensionless constants")
    p_const.add_argument("--seedless", action="store_true")

    args = parser.parse_args(argv)

    try:
        if args.command == "constants":
            print_constants(sys.stdout)
            return 0
        if args.command == "figure":
            from pathlib import Path

            outdir = Path(args.out)
            outdir.mkdir(parents=True, exist_ok=True)
            paths = FIGURES[args.name](outdir)
            for p in paths:
                print(p)
            return 0
        # run
        sc = parse_scenario(args.scenario)
        if args.samples is not None:
            sc.n_samples = args.samples
        if args.t_end is not None:
            sc.t_end = args.t_end
        if args.route is not None:
            sc.route = args.route
        if args.out is None:
            write_run_csv(sc, sys.stdout)
        else:
            with open(args.out, "w", newline="\n") as fh:
                write_run_csv(sc, fh)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, CvBatteryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
