"""Command line interface: scenario runs, figure-data bundles, constants.

Subcommands:
  run <scenario-file>      time series / sweep CSV plus an optima summary
  figure <name> --out DIR  CSV bundle reproducing a figure's data
  constants                dimensionless prefactor table with residuals

This module holds the run path; ``figure`` and ``constants`` import
``cvbattery.figures`` when they run, so a ``run`` never loads it.

All computations are deterministic: no command makes a random draw, and
numpy's global RNG state is left untouched, so a scenario gives the same CSV
bytes on every run.  Exit codes: 0 success, 2 config error or an output
that cannot be written, 3 non-convergence; a run that fails writes no CSV,
to stdout or ``--out``.
"""

import argparse
import math
import sys
from dataclasses import dataclass, fields, replace
from types import SimpleNamespace

import numpy as np

from . import cumulant, focksim, linear, metrics, perturbation
from .errors import ConfigError, CvBatteryError
from .gaussian import MomentState, quadrature_stats

ROUTES = ("analytic", "cumulant", "perturbation", "fock", "all")
# the one coupling a route applies to; routes not listed apply to both
_ROUTE_COUPLING = {"analytic": "linear", "cumulant": "nonlinear", "perturbation": "nonlinear"}
_FIELDS = ("energy", "power", "ergotropy", "var_x", "var_p", "det")
_OPTIMA = ("t_E", "E_tE", "t_P", "P_tP")  # the optima columns, in this order
# the keys of ``figures.FIGURES``, here so that building the parser does not load it
_FIGURE_NAMES = ("fig1c", "fig2", "fig3", "fig4")


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
        focksim.FockConfig(sc.cutoff_a, sc.cutoff_b)
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
    # a sweep of route all takes a closed-form route (``_write_sweep_csv``)
    for key in ("cutoff_a", "cutoff_b"):
        if key in set_on and sc.route != "fock" and (sc.route != "all" or sc.sweep_param):
            raise ConfigError(f"{key!r} is read by the fock route only, which this run "
                              "never takes", line=set_on[key])
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


def _route_note(sc: Scenario, route: str):
    """The note that ``route`` does not apply to the scenario's coupling, or
    None when it does."""
    only = _ROUTE_COUPLING.get(route, sc.coupling)
    if only != sc.coupling:
        return f"{route} route applies to {only} coupling only"
    return None


def _route_series(sc: Scenario, route: str):
    """Evaluate one route once on the scenario grid ``sc.times()``.

    Returns (cols, summary, note): the column group (energy, power,
    ergotropy, var_x, var_p, det), the (t_E, E_tE, t_P, P_tP) optima, and
    ``_route_note`` (cols then holds NaN columns and summary is None).
    """
    t = sc.times()
    p = sc.params()
    note = _route_note(sc, route)
    if note is not None:
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
    # fock, the one route left: parse_scenario refuses any other name
    cfg = focksim.FockConfig(sc.cutoff_a, sc.cutoff_b)
    traj = focksim.evolve(sc.coupling, p, cfg, sc.t_end, sc.n_samples)
    _warn_if_truncated(traj)
    return (*_series_from_traj(traj, "exact"), None)


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
    point; all None when the route does not apply.

    The fock route reads its steady values at ``t_end``.  A closed-form
    route gives its own steady energy, the t -> oo limit of its series, and
    that state is a pure Gaussian (D = 1), so its ergotropy is its energy;
    at gamma = 0 there is no steady state and both are None."""
    cols, summary, note = _route_series(sc, route)
    if note is not None:
        return (None,) * 6
    if route == "fock":
        return (*summary, cols["energy"][-1], cols["ergotropy"][-1])
    p = sc.params()
    if p.gamma == 0.0:
        e_ss = None
    elif route == "analytic":
        e_ss = linear.steady_energy_linear(p)
    elif route == "cumulant":
        e_ss = cumulant.steady_energy_nonlinear(p)
    else:  # the weak-driving form is the linear battery of _linear_equivalent
        e_ss = linear.steady_energy_linear(perturbation._linear_equivalent(p))
    return (*summary, e_ss, e_ss)


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
    route = sc.route
    if route == "all":  # one closed-form route per sweep, named in a note
        route = "analytic" if sc.coupling == "linear" else "cumulant"
        comments = comments + [f"note: route all: every point takes the {route} route"]
    note = _route_note(sc, route)
    if note is not None:  # every row is empty, as in the time series
        comments = comments + [f"note: route {route}: {note}"]
    rows = [(value, *_sweep_point(point, route)) for value, point in _sweep_points(sc)]
    comments = comments + [f"sweep {sc.sweep_param} {sc.sweep_scale} over "
                           f"[{_cell(sc.sweep_min)}, {_cell(sc.sweep_max)}] with "
                           f"{sc.sweep_points} points"]
    _write_csv(out, comments,
               [sc.sweep_param, *_OPTIMA, "energy_ss", "ergotropy_ss"], rows)


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
    p_fig.add_argument("name", choices=_FIGURE_NAMES)
    p_fig.add_argument("--out", required=True, help="output directory")

    sub.add_parser("constants", help="print the dimensionless constants")

    args = parser.parse_args(argv)

    try:
        if args.command == "constants":
            from . import figures

            figures.print_constants(sys.stdout)
            return 0
        if args.command == "figure":
            from . import figures

            print(*figures.FIGURES[args.name](args.out), sep="\n")
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
    except OSError as exc:  # from writing: an unreadable scenario is a ConfigError
        target = exc.filename or getattr(args, "out", None) or "standard output"
        print(f"error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except CvBatteryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
