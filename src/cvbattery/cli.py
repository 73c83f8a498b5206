"""Command line interface: scenario runs, figure-data bundles, constants.

Subcommands:
  run <scenario-file>      time series / sweep CSV plus an optima summary
  figure <name> --out DIR  CSV bundle reproducing a figure's data
  constants                dimensionless prefactor table with residuals

All computations are deterministic: the only random draws (the norm
estimator inside the Fock propagator) use a fixed seed and leave numpy's
global RNG state untouched.  Exit codes: 0 success, 2 config error,
3 non-convergence; a run that fails writes no CSV, to stdout or ``--out``.
"""

import argparse
import math
import sys
from dataclasses import dataclass, fields, replace
from types import SimpleNamespace

import numpy as np
from scipy.special import lambertw

from . import cumulant, focksim, linear, metrics, perturbation
from .errors import ConfigError, CvBatteryError
from .gaussian import MomentState, quadrature_stats

ROUTES = ("analytic", "cumulant", "perturbation", "fock", "all")
# the one coupling a route applies to; routes not listed apply to both
_ROUTE_COUPLING = {"analytic": "linear", "cumulant": "nonlinear", "perturbation": "nonlinear"}
_FIELDS = ("energy", "power", "ergotropy", "var_x", "var_p", "det")
_OPTIMA = ("t_E", "E_tE", "t_P", "P_tP")  # the optima columns, in this order


def _cell(x):
    """CSV cell: text as is, None or NaN empty, numbers to 15 digits."""
    if isinstance(x, str):
        return x
    if x is None or x != x:
        return ""
    return format(x, ".15g")


# the ``%`` spec of each cell type whose text under it is ``_cell``'s; any
# other type gets one that prints "nan", so that its row is made cell by cell
_CELL_SPECS = {str: "%s", type(None): "%.0s", float: "%.15g", int: "%.15g"}


def _write_csv(out, comments, header, rows):
    """``# comment`` lines, the header and one line per row of cells, each
    ``",".join(map(_cell, row))``.

    Each row is formatted by one ``%`` string, made once per combination of
    cell types (``_CELL_SPECS``).  A NaN float comes out as "nan" there, so
    a line that holds "nan" (a NaN cell, text containing it, or a cell of
    another type) is made again cell by cell.  Callers pass None rather than
    NaN for the cells they know are empty, and Python numbers rather than
    numpy scalars.
    """
    out.write("".join(f"# {c}\n" for c in comments) + ",".join(header) + "\n")
    formats = {}
    for row in rows:
        kinds = tuple(map(type, row))
        if kinds not in formats:
            formats[kinds] = ",".join(_CELL_SPECS.get(k, "nan%.0s") for k in kinds) + "\n"
        line = formats[kinds] % tuple(row)
        if "nan" in line:
            line = ",".join(map(_cell, row)) + "\n"
        out.write(line)


@dataclass
class Scenario:
    """One scenario; every field is a scenario-file key, parsed by the
    field's type."""

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
    sweep_param: str = None
    sweep_min: float = None
    sweep_max: float = None
    sweep_points: int = None
    sweep_scale: str = "linear"

    def params(self):
        if self.coupling == "linear":
            return linear.LinearParams(
                omega_b=self.omega_b, Omega=self.Omega, g=self.g, gamma=self.gamma
            )
        return cumulant.NonlinearParams(
            omega_b=self.omega_b, Omega=self.Omega, J=self.J, gamma=self.gamma
        )

    def times(self):
        return np.linspace(0.0, self.t_end, self.n_samples)


_KEYS = {f.name: f.type for f in fields(Scenario)}


def parse_scenario(path, **overrides) -> Scenario:
    """Parse a flat key = value scenario file; ``overrides`` that are not
    None replace its values before any check."""
    raw, set_on = {}, {}
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
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}", line=ln)
        if key in set_on:
            raise ConfigError(f"repeated key {key!r}, first set on line {set_on[key]}",
                              line=ln)
        set_on[key] = ln
        try:
            raw[key] = _KEYS[key](value)
        except ValueError:
            raise ConfigError(f"bad value for {key!r}: {value!r}", line=ln)

    raw.update({k: v for k, v in overrides.items() if v is not None})
    if "coupling" not in raw:
        raise ConfigError("missing required key 'coupling'")
    sc = Scenario(**raw)
    if sc.coupling not in ("linear", "nonlinear"):
        raise ConfigError(f"coupling must be linear or nonlinear, got {sc.coupling!r}")
    if sc.route not in ROUTES:
        raise ConfigError(f"route must be one of {ROUTES}, got {sc.route!r}")
    strength, other = ("g", "J") if sc.coupling == "linear" else ("J", "g")
    if getattr(sc, strength) is None or getattr(sc, other) is not None:
        raise ConfigError(f"{sc.coupling} coupling requires {strength} (and no {other})")
    if sc.n_samples < 2:
        raise ConfigError(f"n_samples must be at least 2, got {sc.n_samples}")
    if not (math.isfinite(sc.t_end) and sc.t_end > 0):
        raise ConfigError(f"t_end must be finite and positive, got {sc.t_end:g}")
    try:
        sc.params()
        focksim.FockConfig(cutoff_a=sc.cutoff_a, cutoff_b=sc.cutoff_b)
    except CvBatteryError as exc:
        raise ConfigError(str(exc))
    sweep_keys = {k for k in raw if k.startswith("sweep_")}
    if sweep_keys:
        missing = {"sweep_param", "sweep_min", "sweep_max", "sweep_points"} - sweep_keys
        if missing:
            raise ConfigError(f"incomplete sweep block, missing {sorted(missing)}")
        if sc.sweep_param not in ("Omega", "gamma", "omega_b", strength):
            raise ConfigError(f"cannot sweep {sc.sweep_param!r} with {sc.coupling} coupling")
        if sc.sweep_points < 2:
            raise ConfigError("sweep needs at least 2 points")
        if sc.sweep_scale not in ("linear", "log"):
            raise ConfigError(f"sweep_scale must be linear or log, got {sc.sweep_scale!r}")
        if sc.sweep_scale == "log" and not (sc.sweep_min > 0 and sc.sweep_max > 0):
            raise ConfigError("a log sweep needs positive sweep_min and sweep_max")
        for value, point in _sweep_points(sc):
            try:
                point.params()
            except CvBatteryError as exc:
                raise ConfigError(f"sweep point {sc.sweep_param} = {value:g}: {exc}")
    return sc


def _sweep_points(sc: Scenario):
    """(value, scenario) of each sweep point: ``sc`` without its sweep and
    with the swept key set to the value."""
    lo, hi, n = sc.sweep_min, sc.sweep_max, sc.sweep_points
    if sc.sweep_scale == "log":
        values = np.logspace(math.log10(lo), math.log10(hi), n)
    else:
        values = np.linspace(lo, hi, n)
    return [(float(v), replace(sc, sweep_param=None, **{sc.sweep_param: float(v)}))
            for v in values]


def _route_series(sc: Scenario, route: str):
    """Evaluate one route once on the scenario grid ``sc.times()``.

    Returns (cols, summary, note): the column group (energy, power,
    ergotropy, var_x, var_p, det), the (t_E, E_tE, t_P, P_tP) optima, and a
    note that is not None when the route does not apply (cols then holds
    NaN columns and summary is None).
    """
    t = sc.times()
    p = sc.params()
    only = _ROUTE_COUPLING.get(route, sc.coupling)
    if only != sc.coupling:
        note = f"{route} route applies to {only} coupling only"
        return dict.fromkeys(_FIELDS, np.full_like(t, np.nan)), None, note
    if route == "analytic":
        e = linear.energy_linear(t, p)
        return _series_min_uncertainty(t, e), _linear_optima([p])[0], None
    if route == "perturbation":
        if p.gamma == 0.0:
            e = perturbation.perturbative_energy(t, p, order=2)
        else:
            e = perturbation.weak_driving_energy(t, p)
        e = np.clip(e, 0.0, None)
        return _series_min_uncertainty(t, e), _optima(metrics.energy_metrics(t, e)), None
    if route == "cumulant":
        traj = cumulant.integrate_cumulant(p, sc.t_end, sc.n_samples)
        return (*_series_from_traj(traj, "gaussian"), None)
    if route == "fock":
        cfg = focksim.FockConfig(cutoff_a=sc.cutoff_a, cutoff_b=sc.cutoff_b)
        traj = focksim.evolve(sc.coupling, p, cfg, sc.t_end, sc.n_samples)
        _warn_if_truncated(traj)
        return (*_series_from_traj(traj, "exact"), None)
    raise ConfigError(f"unknown route {route!r}")


def _warn_if_truncated(traj):
    """One ``warning:`` line on stderr when a Fock run's top level filled."""
    if not traj.cutoff_ok:
        c, p = traj.config, traj.params
        print(f"warning: Fock cutoffs ({c.cutoff_a},{c.cutoff_b}) too small at "
              f"Omega={_cell(p.Omega)}, gamma={_cell(p.gamma)}: the top level holds "
              f"more than {focksim.TOP_LEVEL_TOL:g} of the population", file=sys.stderr)


def _optima(m):
    return (m.t_E, m.E_tE, m.t_P, m.P_tP)


def _linear_optima(ps):
    """Closed-form (t_E, E_tE, t_P, P_tP) of each point of ``ps``, with every
    driven point's t_P and P_tP from one ``linear.power_optima`` solve.  An
    undriven point stores no energy, and its row is 0, 0, 0, 0, as a sampled
    route gives it."""
    power = zip(*linear.power_optima([p for p in ps if p.Omega > 0]))
    return [(linear.optimal_time_energy(p), linear.optimal_energy(p),
             *map(float, next(power))) if p.Omega > 0 else (0.0,) * 4 for p in ps]


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


def _sweep_point(sc: Scenario, route: str):
    """(t_E, E_tE, t_P, P_tP, energy_ss, ergotropy_ss) of one route at one
    point, the steady values read at ``t_end``; all None when the route does
    not apply."""
    cols, summary, note = _route_series(sc, route)
    if note is not None:
        return (None,) * 6
    return (*summary, cols["energy"][-1], cols["ergotropy"][-1])


def write_run_csv(sc: Scenario, out):
    """Emit the time-series (or sweep) CSV plus the optima summary block."""
    routes = [sc.route] if sc.route != "all" else ROUTES[:-1]
    comments = [f"coupling={sc.coupling} route={sc.route} omega_b={_cell(sc.omega_b)} "
                f"Omega={_cell(sc.Omega)} gamma={_cell(sc.gamma)} "
                f"{'g=' + _cell(sc.g) if sc.g is not None else 'J=' + _cell(sc.J)} "
                f"t_end={_cell(sc.t_end)} n_samples={sc.n_samples}"]

    if sc.sweep_param is not None:
        _write_sweep_csv(sc, out, comments)
        return

    results = {r: _route_series(sc, r) for r in routes}
    comments += [f"note: route {r}: {note}" for r, (_, _, note) in results.items() if note]
    header = ["t"] + [f"{f}_{r}" if len(routes) > 1 else f for r in routes for f in _FIELDS]
    table = np.column_stack([sc.times()] + [results[r][0][f] for r in routes for f in _FIELDS])
    _write_csv(out, comments, header, np.where(np.isnan(table), None, table).tolist())
    out.write("\n")
    _write_csv(out, [], ["route", *_OPTIMA],
               [(r, *(results[r][1] or (None,) * 4)) for r in routes])


def _write_sweep_csv(sc: Scenario, out, comments):
    route = sc.route if sc.route != "all" else (
        "analytic" if sc.coupling == "linear" else "cumulant")
    rows = [(value, *_sweep_point(point, route)) for value, point in _sweep_points(sc)]
    comments = comments + [f"sweep {sc.sweep_param} {sc.sweep_scale} over "
                           f"[{_cell(sc.sweep_min)}, {_cell(sc.sweep_max)}] with "
                           f"{sc.sweep_points} points"]
    _write_csv(out, comments,
               [sc.sweep_param, *_OPTIMA, "energy_ss", "ergotropy_ss"], rows)


# ---------------------------------------------------------------------------
# figure bundles


def _figure_csv(outdir, name, comment, header, rows):
    path = outdir / name
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
    J = 1.0
    moderate = {}  # Omega -> battery population on the c_f grid
    # columns 1 (gamma = 0) and 2 (gamma = J/2), both at Omega = J/4
    for tag, gamma in (("a_d", 0.0), ("b_e", 0.5)):
        p = cumulant.NonlinearParams(omega_b=1.0, Omega=0.25, J=J, gamma=gamma)
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
            moderate[p.Omega] = energy
        paths.append(_figure_csv(
            outdir, f"fig3_{tag}_timeseries.csv",
            f"nonlinear battery, Omega=J/4, gamma={_cell(gamma)}, J=1", header,
            np.column_stack([t, energy, *approx]).tolist()))
    # column 3: moderate driving at gamma = J/2 for three drive amplitudes
    drives = (0.05, 0.25, 1.0)
    cols = [moderate[om] if om in moderate else cumulant.integrate_cumulant(
                cumulant.NonlinearParams(omega_b=1.0, Omega=om, J=J, gamma=0.5),
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cvbattery",
        description="Driven-dissipative continuous-variable quantum battery toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", help="output CSV path (default stdout)")
    p_run.add_argument("--samples", type=int)
    p_run.add_argument("--t-end", type=float)
    p_run.add_argument("--route", choices=ROUTES)

    p_fig = sub.add_parser("figure", help="emit figure-data CSV bundle")
    p_fig.add_argument("name", choices=sorted(FIGURES))
    p_fig.add_argument("--out", required=True, help="output directory")

    sub.add_parser("constants", help="print the dimensionless constants")

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
        sc = parse_scenario(args.scenario, n_samples=args.samples, t_end=args.t_end,
                            route=args.route)
        # render first, so that a run that fails writes nothing; kept as
        # its lines, never joined into one text
        lines = []
        write_run_csv(sc, SimpleNamespace(write=lines.append))
        if args.out is None:
            sys.stdout.writelines(lines)
        else:
            with open(args.out, "w", newline="\n") as fh:
                fh.writelines(lines)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CvBatteryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
