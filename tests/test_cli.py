"""Unit tests for the command line interface."""

import csv
import dataclasses
import errno
import io
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cvbattery import cli, cumulant, figures, focksim, linear, metrics
from cvbattery.errors import ConfigError, ConvergenceError


LINEAR_SCENARIO = """\
# linear battery at the exceptional-point crossover
coupling = linear
route = analytic
omega_b = 1.0
Omega = 0.1
gamma = 1.0
g = 0.5
t_end = 20.0
n_samples = 101
"""

NONLINEAR_SCENARIO = """\
coupling = nonlinear
route = cumulant
Omega = 0.25
J = 1.0
gamma = 0.5
t_end = 40.0
n_samples = 101
"""


# a three-point Omega sweep block, for either coupling
SWEEP = ("sweep_param = Omega\nsweep_min = 0.05\nsweep_max = 0.25\nsweep_points = 3\n"
         "sweep_scale = log\n")


def write_scenario(tmp_path, text, name="scenario.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseScenario:
    def test_valid_linear(self, tmp_path):
        sc = cli.parse_scenario(write_scenario(tmp_path, LINEAR_SCENARIO))
        assert sc.coupling == "linear"
        assert sc.g == 0.5
        assert sc.J is None
        assert sc.n_samples == 101

    def test_missing_coupling(self, tmp_path):
        with pytest.raises(ConfigError):
            cli.parse_scenario(write_scenario(tmp_path, "Omega = 0.1\n"))

    def test_unknown_key_reports_line(self, tmp_path):
        path = write_scenario(tmp_path, "coupling = linear\ng = 1\nbogus = 3\n")
        with pytest.raises(ConfigError) as exc:
            cli.parse_scenario(path)
        assert exc.value.line == 3

    def test_repeated_key_reports_both_lines(self, tmp_path, capsys):
        # a second value for a key is refused, not silently kept
        text = "coupling = linear\ng = 0.5\nOmega = 0.1\n\nOmega = 0.2\n"
        with pytest.raises(ConfigError, match="repeated key 'Omega', first set on line 3") as exc:
            cli.parse_scenario(write_scenario(tmp_path, text))
        assert exc.value.line == 5
        _assert_config_error(tmp_path, capsys, text, "line 5: repeated key 'Omega'")

    def test_bad_value_reports_line(self, tmp_path):
        path = write_scenario(tmp_path, "coupling = linear\ng = fast\n")
        with pytest.raises(ConfigError) as exc:
            cli.parse_scenario(path)
        assert exc.value.line == 2

    def test_linear_requires_g(self, tmp_path):
        with pytest.raises(ConfigError):
            cli.parse_scenario(write_scenario(tmp_path, "coupling = linear\nJ = 1\n"))

    def test_nonlinear_requires_j(self, tmp_path):
        with pytest.raises(ConfigError):
            cli.parse_scenario(write_scenario(tmp_path, "coupling = nonlinear\ng = 1\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            cli.parse_scenario(tmp_path / "nope.txt")

    def test_incomplete_sweep(self, tmp_path):
        text = NONLINEAR_SCENARIO + "sweep_param = Omega\n"
        with pytest.raises(ConfigError):
            cli.parse_scenario(write_scenario(tmp_path, text))

    def test_sweep_scale_alone_is_incomplete(self, tmp_path):
        # sweep_scale has a default, but setting it still opens a sweep block
        text = NONLINEAR_SCENARIO + "sweep_scale = log\n"
        with pytest.raises(ConfigError, match="incomplete sweep block"):
            cli.parse_scenario(write_scenario(tmp_path, text))

    @pytest.mark.parametrize("coupling,strength", [("linear", "g"), ("nonlinear", "J")])
    def test_every_field_is_a_typed_key(self, tmp_path, coupling, strength):
        values = dict(coupling=coupling, route="fock", omega_b=1.5, Omega=0.2,
                      gamma=0.25, t_end=7.5, n_samples=33, cutoff_a=5,
                      cutoff_b=7, sweep_param="gamma", sweep_min=0.5,
                      sweep_max=2.0, sweep_points=4, sweep_scale="log")
        values[strength] = 0.75
        other = {"g", "J"} - {strength}
        assert set(values) == {f.name for f in dataclasses.fields(cli.Scenario)} - other
        text = "".join(f"{k} = {v}\n" for k, v in values.items())
        sc = cli.parse_scenario(write_scenario(tmp_path, text))
        for key, value in values.items():
            got = getattr(sc, key)
            assert got == value and type(got) is type(value), key
        assert getattr(sc, other.pop()) is None

    @pytest.mark.parametrize("key", ["fock_rel_tol", "fock_abs_tol"])
    def test_removed_fock_tolerance_keys(self, tmp_path, capsys, key):
        # the Fock propagator has no tolerances, so these keys are unknown
        path = write_scenario(tmp_path, NONLINEAR_SCENARIO + f"{key} = 1e-9\n")
        assert cli.main(["run", str(path)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_unphysical_params_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            cli.parse_scenario(
                write_scenario(tmp_path, "coupling = linear\ng = -1.0\n")
            )

    @pytest.mark.parametrize("scenario,other", [(LINEAR_SCENARIO, "J"),
                                                (NONLINEAR_SCENARIO, "g")],
                             ids=["linear", "nonlinear"])
    def test_sweep_of_a_key_the_coupling_never_reads(self, tmp_path, capsys, scenario,
                                                     other):
        # the other coupling's strength is not a parameter of this model, so
        # sweeping it would write the same row at every point
        text = scenario + (f"sweep_param = {other}\nsweep_min = 0.5\nsweep_max = 1.0\n"
                           "sweep_points = 3\n")
        _assert_config_error(tmp_path, capsys, text, f"cannot sweep '{other}'")

    @pytest.mark.parametrize("text,flags", [
        (LINEAR_SCENARIO, []),
        (NONLINEAR_SCENARIO, []),
        (NONLINEAR_SCENARIO.replace("cumulant", "perturbation"), []),
        (NONLINEAR_SCENARIO.replace("cumulant", "fock"), ["--route", "cumulant"]),
        # a sweep of route all runs the coupling's closed-form route
        (LINEAR_SCENARIO.replace("analytic", "all") + SWEEP, []),
        (NONLINEAR_SCENARIO + SWEEP, ["--route", "all"]),
    ], ids=["analytic", "cumulant", "perturbation", "route-override", "linear-all-sweep",
            "nonlinear-all-sweep"])
    def test_cutoff_refused_where_no_route_reads_it(self, tmp_path, capsys, text, flags):
        text += "cutoff_b = 12\n"
        line = text.count("\n")
        _assert_config_error(tmp_path, capsys, text,
                             f"line {line}: 'cutoff_b' is read by the fock route only", flags)

    @pytest.mark.parametrize("route,sweep", [("fock", ""), ("all", ""), ("fock", SWEEP)])
    def test_cutoffs_accepted_where_the_fock_route_runs(self, tmp_path, route, sweep):
        text = NONLINEAR_SCENARIO + sweep + "cutoff_a = 4\ncutoff_b = 6\n"
        sc = cli.parse_scenario(write_scenario(tmp_path, text), route=route)
        assert (sc.cutoff_a, sc.cutoff_b) == (4, 6)


def _assert_config_error(tmp_path, capsys, text, match, flags=()):
    """``run`` exits 2 with one ``config error:`` line and writes no file."""
    out = tmp_path / "out.csv"
    assert cli.main(["run", str(write_scenario(tmp_path, text)), *flags,
                     "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
    assert match in captured.err
    assert not out.exists()


class TestSweepEndpoints:
    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (0.5, 0.0), (-0.5, 1.0)])
    def test_log_sweep_needs_positive_endpoints(self, tmp_path, capsys, lo, hi):
        text = NONLINEAR_SCENARIO + (f"sweep_param = Omega\nsweep_min = {lo}\n"
                                     f"sweep_max = {hi}\nsweep_points = 3\n"
                                     "sweep_scale = log\n")
        _assert_config_error(tmp_path, capsys, text, "positive sweep_min and sweep_max")

    @pytest.mark.parametrize("scenario,param,match", [
        (LINEAR_SCENARIO, "g", "g = -1: coupling g must be positive"),
        (NONLINEAR_SCENARIO, "J", "J = -1: coupling J must be positive"),
        (NONLINEAR_SCENARIO, "gamma", "gamma = -1: invalid rates"),
    ], ids=["linear-g", "nonlinear-J", "nonlinear-gamma"])
    def test_every_sweep_point_is_checked(self, tmp_path, capsys, scenario, param, match):
        text = scenario + (f"sweep_param = {param}\nsweep_min = -1\nsweep_max = 1\n"
                           "sweep_points = 3\n")
        _assert_config_error(tmp_path, capsys, text, match)

    def test_swapped_endpoints_sweep_downwards(self, tmp_path, capsys):
        text = NONLINEAR_SCENARIO + ("sweep_param = Omega\nsweep_min = 0.25\n"
                                     "sweep_max = 0.05\nsweep_points = 3\n"
                                     "sweep_scale = log\n")
        assert cli.main(["run", str(write_scenario(tmp_path, text))]) == 0
        rows = [l for l in capsys.readouterr().out.splitlines()
                if l and l[0].isdigit()]
        assert [float(r.split(",")[0]) for r in rows] == pytest.approx(
            [0.25, math.sqrt(0.25 * 0.05), 0.05])


_ENDPOINTS = st.one_of(st.sampled_from([0.0, -0.5, -1e-3]), st.floats(1e-3, 2.0))


@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    coupling=st.sampled_from(["linear", "nonlinear"]),
    route=st.sampled_from(["analytic", "cumulant", "perturbation"]),
    gamma=st.sampled_from([0.0, 0.5]),
    param=st.sampled_from(["Omega", "gamma", "g", "J", "omega_b"]),
    scale=st.sampled_from(["linear", "log"]),
    lo=_ENDPOINTS,
    hi=_ENDPOINTS,
    points=st.integers(2, 3),
)
def test_any_sweep_file_exits_cleanly(tmp_path, capsys, coupling, route, gamma, param,
                                      scale, lo, hi, points):
    """Sweep files over both couplings, every sweep key, both scales and
    endpoints that may be zero, negative or swapped: ``run`` returns 0, 2 or
    3 with at most one line on stderr, never raises, and writes the output
    file only when it succeeds."""
    strength = "g = 0.5" if coupling == "linear" else "J = 1.0"
    text = (f"coupling = {coupling}\nroute = {route}\nOmega = 0.1\ngamma = {gamma}\n"
            f"{strength}\nt_end = 4.0\nn_samples = 9\nsweep_param = {param}\n"
            f"sweep_min = {lo!r}\nsweep_max = {hi!r}\nsweep_points = {points}\n"
            f"sweep_scale = {scale}\n")
    out = tmp_path / "out.csv"
    out.unlink(missing_ok=True)
    code = cli.main(["run", str(write_scenario(tmp_path, text)), "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    assert err.count("\n") == (code != 0)
    assert out.exists() == (code == 0)
    if code == 2:
        assert err.startswith("config error: ")
    if code == 3:
        assert err.startswith("error: ")


@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    coupling=st.sampled_from(["linear", "nonlinear"]),
    route=st.sampled_from(["analytic", "cumulant", "perturbation", "fock"]),
    n_samples=st.sampled_from([-3, 0, 1, 2, 9]),
    t_end=st.sampled_from(["nan", "inf", "-inf", "-1.0", "0.0", "1e-3", "2.0"]),
    cutoff_a=st.sampled_from([-1, 0, 1, 2, 3]),
    cutoff_b=st.sampled_from([-1, 0, 1, 2, 3]),
    override=st.sampled_from([None, "--samples", "--t-end"]),
)
def test_any_run_length_exits_cleanly(tmp_path, capsys, coupling, route, n_samples, t_end,
                                      cutoff_a, cutoff_b, override):
    """Sample counts, end times and cutoffs that may be invalid, in the file
    or on the command line: ``run`` returns 0, 2 or 3 with at most one line
    on stderr, never raises, and writes the output file only when it
    succeeds; an invalid value is a config error."""
    strength = "g = 0.5" if coupling == "linear" else "J = 1.0"
    text = (f"coupling = {coupling}\nroute = {route}\nOmega = 0.1\ngamma = 0.5\n"
            f"{strength}\ncutoff_a = {cutoff_a}\ncutoff_b = {cutoff_b}\n")
    if override == "--samples":
        text += f"t_end = {t_end}\n"
        flags = [f"--samples={n_samples}"]
    elif override == "--t-end":
        text += f"n_samples = {n_samples}\n"
        flags = [f"--t-end={t_end}"]  # "-inf" alone would read as an option
    else:
        text += f"n_samples = {n_samples}\nt_end = {t_end}\n"
        flags = []
    out = tmp_path / "out.csv"
    out.unlink(missing_ok=True)
    code = cli.main(["run", str(write_scenario(tmp_path, text)), *flags, "--out", str(out)])
    err = capsys.readouterr().err
    valid = (n_samples >= 2 and 0 < float(t_end) < math.inf and min(cutoff_a, cutoff_b) >= 2
             and route == "fock")  # the other routes read no cutoff
    assert code in ((0, 3) if valid else (2,))
    assert err.count("\n") <= 1
    assert out.exists() == (code == 0)
    if code == 2:
        assert err.startswith("config error: ")


class TestRunCommand:
    def test_linear_run_csv(self, tmp_path, capsys):
        path = write_scenario(tmp_path, LINEAR_SCENARIO)
        out = tmp_path / "out.csv"
        assert cli.main(["run", str(path), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "t,energy,power,ergotropy,var_x,var_p,det"
        # summary block at the end
        i = lines.index("route,t_E,E_tE,t_P,P_tP")
        route, t_e, e_te, _, _ = lines[i + 1].split(",")
        assert route == "analytic"
        G = math.sqrt(0.25 - 0.0625)
        assert float(t_e) == pytest.approx(math.pi / G, rel=1e-10)
        assert float(e_te) == pytest.approx(
            (0.1 / 0.5) ** 2 * (1.0 + math.exp(-math.pi / (4.0 * G))) ** 2,
            rel=1e-10,
        )

    def test_run_to_stdout_with_overrides(self, tmp_path, capsys):
        path = write_scenario(tmp_path, LINEAR_SCENARIO)
        code = cli.main(["run", str(path), "--samples", "11",
                         "--t-end", "5.0"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        summary = lines.index("route,t_E,E_tE,t_P,P_tP")
        data = [l for l in lines[2:summary] if l]
        assert len(data) == 11
        assert float(data[-1].split(",")[0]) == pytest.approx(5.0)

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_run_writes_no_file(self, tmp_path, capsys, existing):
        # the cumulant integration of an absurd drive fails at run time
        path = write_scenario(tmp_path, NONLINEAR_SCENARIO.replace(
            "Omega = 0.25", "Omega = 1e200"))
        out = tmp_path / "out.csv"
        if existing:
            out.write_text("kept\n")
        assert cli.main(["run", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: cumulant integration failed") and err.count("\n") == 1
        if existing:
            assert out.read_text() == "kept\n"
        else:
            assert not out.exists()

    def test_route_override_and_all_routes(self, tmp_path, capsys):
        path = write_scenario(tmp_path, NONLINEAR_SCENARIO)
        assert cli.main(["run", str(path), "--route", "all",
                         "--samples", "33", "--t-end", "10.0"]) == 0
        out = capsys.readouterr().out
        header = [l for l in out.splitlines() if l.startswith("t,")][0]
        for route in ("analytic", "cumulant", "perturbation", "fock"):
            assert f"energy_{route}" in header
        # analytic route does not apply to nonlinear coupling
        assert "# note: route analytic" in out

    def test_cumulant_and_fock_agree_in_csv(self, tmp_path, capsys):
        path = write_scenario(tmp_path, NONLINEAR_SCENARIO)
        assert cli.main(["run", str(path), "--route", "fock",
                         "--samples", "33", "--t-end", "10.0"]) == 0
        fock_out = capsys.readouterr().out
        assert cli.main(["run", str(path), "--route", "cumulant",
                         "--samples", "33", "--t-end", "10.0"]) == 0
        cum_out = capsys.readouterr().out

        def energies(text):
            rows = [l.split(",") for l in text.splitlines()
                    if l and l[0].isdigit()]
            return np.array([float(r[1]) for r in rows])

        e_fock, e_cum = energies(fock_out), energies(cum_out)
        # transient closure error of the cumulant route at Omega = J/4 is a
        # few percent of the peak; this only guards the CLI plumbing
        assert e_fock.shape == e_cum.shape
        assert np.max(np.abs(e_fock - e_cum)) < 0.2 * e_fock.max()

    def test_sweep_csv(self, tmp_path, capsys):
        text = NONLINEAR_SCENARIO + (
            "sweep_param = Omega\nsweep_min = 0.05\nsweep_max = 0.25\n"
            "sweep_points = 3\nsweep_scale = log\n"
        )
        path = write_scenario(tmp_path, text)
        assert cli.main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "Omega,t_E,E_tE,t_P,P_tP,energy_ss,ergotropy_ss"
        assert len(lines) == 4
        last = [float(x) for x in lines[-1].split(",")]
        assert last[0] == pytest.approx(0.25)
        # t_end = 40 is not fully relaxed; a couple of percent is expected
        p_steady = 0.5 * (math.sqrt(1.25) - 1.0)
        assert last[5] == pytest.approx(p_steady, rel=3e-2)

    @pytest.mark.parametrize("scenario,route", [(LINEAR_SCENARIO, "analytic"),
                                                (NONLINEAR_SCENARIO, "cumulant")],
                             ids=["linear", "nonlinear"])
    def test_route_all_sweep_names_its_route(self, tmp_path, capsys, scenario, route):
        # the note is the only line that the route-all sweep adds to the
        # sweep of the route it runs; the parameter line names the route set
        path = write_scenario(tmp_path, scenario + SWEEP)
        lines = {}
        for flag in ("all", route):
            assert cli.main(["run", str(path), "--route", flag]) == 0
            lines[flag] = capsys.readouterr().out.splitlines()
        note = f"# note: route all: every point takes the {route} route"
        assert lines["all"][1] == note
        assert lines["all"][2:] == lines[route][1:]
        assert lines["all"][0] == lines[route][0].replace(f"route={route}", "route=all")
        assert not any(l.startswith("# note:") for l in lines[route])

    @pytest.mark.parametrize("scenario,route,only", [
        (LINEAR_SCENARIO, "perturbation", "nonlinear"),
        (LINEAR_SCENARIO, "cumulant", "nonlinear"),
        (NONLINEAR_SCENARIO, "analytic", "linear"),
    ], ids=["linear-perturbation", "linear-cumulant", "nonlinear-analytic"])
    def test_sweep_of_a_route_the_coupling_never_takes(self, tmp_path, capsys, scenario,
                                                        route, only):
        # the note that the time series writes, and one empty row per point
        path = write_scenario(tmp_path, scenario + SWEEP)
        assert cli.main(["run", str(path), "--route", route]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == f"# note: route {route}: {route} route applies to {only} coupling only"
        assert lines[2].startswith("# sweep Omega log")
        assert lines[3] == "Omega,t_E,E_tE,t_P,P_tP,energy_ss,ergotropy_ss"
        rows = [row.split(",") for row in lines[4:]]
        assert [float(row[0]) for row in rows] == pytest.approx([0.05, 0.05 * 5 ** 0.5, 0.25])
        assert all(row[1:] == [""] * 6 for row in rows)
        series = write_scenario(tmp_path, scenario, name="series.txt")
        assert cli.main(["run", str(series), "--route", route, "--samples", "9"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == lines[1]

    @pytest.mark.parametrize("coupling,strength,route,steady", [
        ("nonlinear", "J", "cumulant", lambda om: 0.5 * (math.sqrt(1.0 + (2.0 * om) ** 2) - 1.0)),
        ("nonlinear", "J", "perturbation", lambda om: om ** 2),
        ("linear", "g", "analytic", lambda om: (om / 0.5) ** 2),
    ], ids=["cumulant", "perturbation", "analytic"])
    def test_closed_form_sweep_writes_the_steady_state(self, tmp_path, capsys, coupling,
                                                      strength, route, steady):
        # t_end = 4 is far from relaxed: the last sample is 71-78% low on the
        # cumulant route and 15% high on the analytic one
        value = "1.0" if strength == "J" else "0.5"
        text = (f"coupling = {coupling}\nroute = {route}\n{strength} = {value}\n"
                "gamma = 0.5\nt_end = 4.0\nn_samples = 9\nsweep_param = Omega\n"
                "sweep_min = 0.05\nsweep_max = 0.2\nsweep_points = 2\n")
        assert cli.main(["run", str(write_scenario(tmp_path, text))]) == 0
        rows = [r for r in csv.reader(io.StringIO(capsys.readouterr().out))
                if not r[0].startswith("#")]
        e_ss, erg_ss = rows[0].index("energy_ss"), rows[0].index("ergotropy_ss")
        for r in rows[1:]:
            assert float(r[e_ss]) == pytest.approx(steady(float(r[0])), rel=1e-14)
            assert r[erg_ss] == r[e_ss]  # a pure Gaussian steady state, D = 1

    @pytest.mark.parametrize("route", ["cumulant", "perturbation", "fock"])
    def test_undamped_sweep_point_has_no_steady_state(self, tmp_path, capsys, route):
        # at gamma = 0 a closed-form route leaves both steady cells empty; the
        # fock route still reads its last sample
        text = (f"coupling = nonlinear\nroute = {route}\nJ = 1.0\nOmega = 0.1\n"
                "t_end = 4.0\nn_samples = 9\nsweep_param = gamma\nsweep_min = 0\n"
                "sweep_max = 0.5\nsweep_points = 2\n")
        if route == "fock":
            text += "cutoff_a = 4\ncutoff_b = 6\n"
        assert cli.main(["run", str(write_scenario(tmp_path, text))]) == 0
        rows = [l.split(",") for l in capsys.readouterr().out.splitlines()
                if l and l[0].isdigit()]
        assert [r[0] for r in rows] == ["0", "0.5"]
        assert all(c != "" for c in rows[0][1:5] + rows[1][1:])
        assert (rows[0][5:] == ["", ""]) == (route != "fock")

    def test_one_fock_evaluation_per_point(self, tmp_path, capsys, monkeypatch):
        calls = []
        evolve = focksim.evolve

        def counting_evolve(*args, **kwargs):
            calls.append(args)
            return evolve(*args, **kwargs)

        monkeypatch.setattr(focksim, "evolve", counting_evolve)
        path = write_scenario(tmp_path, NONLINEAR_SCENARIO)
        assert cli.main(["run", str(path), "--route", "all",
                         "--samples", "33", "--t-end", "10.0"]) == 0
        assert len(calls) == 1
        lines = capsys.readouterr().out.splitlines()
        header = [l for l in lines if l.startswith("t,")][0].split(",")
        col = header.index("energy_fock")
        rows = [l.split(",") for l in lines if l and l[0].isdigit()]
        t = np.array([float(r[0]) for r in rows])
        energy = np.array([float(r[col]) for r in rows])
        summary = [l for l in lines if l.startswith("fock,")][0].split(",")[1:]
        m = metrics.energy_metrics(t, energy)
        assert [float(x) for x in summary] == pytest.approx(
            [m.t_E, m.E_tE, m.t_P, m.P_tP], rel=1e-10)

        calls.clear()
        sweep = NONLINEAR_SCENARIO + (
            "sweep_param = Omega\nsweep_min = 0.05\nsweep_max = 0.25\n"
            "sweep_points = 3\nsweep_scale = log\n"
        )
        path = write_scenario(tmp_path, sweep, name="sweep.txt")
        assert cli.main(["run", str(path), "--route", "fock",
                         "--samples", "9", "--t-end", "4.0"]) == 0
        assert len(calls) == 3

    def test_one_power_optimum_solve_per_point(self, tmp_path, capsys, monkeypatch):
        batches = []
        power_optima = linear.power_optima

        def counting(ps):
            batches.append(len(ps))
            return power_optima(ps)

        monkeypatch.setattr(linear, "power_optima", counting)
        path = write_scenario(tmp_path, LINEAR_SCENARIO)
        assert cli.main(["run", str(path)]) == 0
        assert batches == [1]
        batches.clear()
        assert cli.main(["figure", "fig2", "--out", str(tmp_path)]) == 0
        assert batches == [801]  # one solve covering every g/gamma point

    def test_truncated_fock_run_warns(self, tmp_path, capsys):
        # from vacuum at cutoffs (8,4) level |2> of the battery fills to ~3e-2
        text = NONLINEAR_SCENARIO + "cutoff_a = 8\ncutoff_b = 4\n"
        path = write_scenario(tmp_path, text)
        argv = ["run", str(path), "--route", "fock", "--samples", "33"]
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert err.count("\n") == 1
        assert err.startswith("warning: Fock cutoffs (8,4) too small at Omega=0.25")
        out_path = tmp_path / "run.csv"
        assert cli.main(argv + ["--out", str(out_path)]) == 0
        assert out_path.read_text() == out  # the warning stays out of the CSV
        assert capsys.readouterr().err == err

        sweep = text + ("sweep_param = Omega\nsweep_min = 0.05\nsweep_max = 0.25\n"
                        "sweep_points = 2\n")
        path = write_scenario(tmp_path, sweep, name="sweep.txt")
        assert cli.main(["run", str(path), "--route", "fock", "--samples", "33"]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2  # one line per sweep point
        assert "at Omega=0.05," in err[0] and "at Omega=0.25," in err[1]

    def test_converged_fock_run_does_not_warn(self, tmp_path, capsys):
        text = NONLINEAR_SCENARIO + "cutoff_a = 8\ncutoff_b = 12\n"
        path = write_scenario(tmp_path, text)
        assert cli.main(["run", str(path), "--route", "fock", "--samples", "257"]) == 0
        assert capsys.readouterr().err == ""

    def test_fig4_warns_per_truncated_point(self, tmp_path, capsys, monkeypatch):
        evolve = focksim.evolve
        ok = []

        def small_evolve(kind, p, cfg, t_end, n_samples):
            traj = evolve(kind, p, focksim.FockConfig(4, 6), 4.0, 9)
            ok.append(traj.cutoff_ok)
            return traj

        monkeypatch.setattr(focksim, "evolve", small_evolve)
        assert cli.main(["figure", "fig4", "--out", str(tmp_path)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert 0 < ok.count(False) < len(ok)
        assert len(err) == ok.count(False)
        assert all(l.startswith("warning: Fock cutoffs (4,6) too small") for l in err)

    def test_fig4_row_is_the_fock_sweep_row(self, tmp_path, capsys, monkeypatch):
        # fig4 evaluates each point on the run sweep path; with a small
        # patched evolve (which ignores the cutoffs) both must give the same
        # cells at the same Omega/J
        evolve = focksim.evolve
        monkeypatch.setattr(focksim, "evolve", lambda kind, p, cfg, t_end, n_samples:
                            evolve(kind, p, focksim.FockConfig(4, 6), 4.0, 9))
        assert cli.main(["figure", "fig4", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "fig4_abc_sweep.csv") as fh:
            fig = [r for r in csv.reader(fh) if not r[0].startswith("#")]
        text = ("coupling = nonlinear\nroute = fock\nJ = 1.0\ngamma = 0.5\n"
                "sweep_param = Omega\nsweep_min = 0.01\nsweep_max = 1.0\n"
                "sweep_points = 9\nsweep_scale = log\n")
        capsys.readouterr()
        assert cli.main(["run", str(write_scenario(tmp_path, text))]) == 0
        sweep = [r for r in csv.reader(io.StringIO(capsys.readouterr().out))
                 if not r[0].startswith("#")]
        cols = ["t_E", "E_tE", "t_P", "P_tP"]
        fig_rows = [[r[fig[0].index(c)] for c in ["Omega_over_J", "energy_ss",
                                                 "ergotropy_ss"] + cols] for r in fig[1:]]
        sweep_rows = [[r[sweep[0].index(c)] for c in ["Omega", "energy_ss",
                                                     "ergotropy_ss"] + cols]
                      for r in sweep[1:]]
        assert len(fig_rows) == 9
        assert fig_rows == sweep_rows

    def test_config_error_exit_code(self, tmp_path):
        path = write_scenario(tmp_path, "coupling = warp\n")
        assert cli.main(["run", str(path)]) == 2

    def test_missing_scenario_exit_code(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "none.txt")]) == 2

    def test_unwritable_out_exit_code(self, tmp_path, capsys):
        path = write_scenario(tmp_path, LINEAR_SCENARIO)
        out = tmp_path / "missing" / "out.csv"
        assert cli.main(["run", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: cannot write {out}: {os.strerror(errno.ENOENT)}"]
        assert not out.parent.exists()

    def test_convergence_error_exit_code(self, tmp_path, monkeypatch):
        path = write_scenario(tmp_path, LINEAR_SCENARIO)

        def boom(sc, out):
            raise ConvergenceError("synthetic failure")

        monkeypatch.setattr(cli, "write_run_csv", boom)
        assert cli.main(["run", str(path)]) == 3

    def test_failed_cumulant_integration_exit_code(self, tmp_path, capfd):
        path = write_scenario(tmp_path, NONLINEAR_SCENARIO.replace(
            "Omega = 0.25", "Omega = 1e200"))
        out = tmp_path / "out.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["run", str(path), "--out", str(out)]) == 3
        assert not caught
        err = capfd.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: cumulant integration failed")
        assert "ODEintWarning" not in err
        assert not out.exists()

    @pytest.mark.parametrize("override", [False, True])
    def test_fock_run_with_one_sample_exit_code(self, tmp_path, capsys, override):
        text = NONLINEAR_SCENARIO.replace("route = cumulant", "route = fock")
        if not override:
            text = text.replace("n_samples = 101", "n_samples = 1")
        argv = ["run", str(write_scenario(tmp_path, text))]
        assert cli.main(argv + (["--samples", "1"] if override else [])) == 2
        assert capsys.readouterr().err == "config error: n_samples must be at least 2, got 1\n"

    @pytest.mark.parametrize("coupling", ["linear", "nonlinear"])
    def test_undriven_run_stores_nothing(self, tmp_path, capsys, coupling):
        # every route that applies gives the optima row 0,0,0,0, and the
        # Fock route at the default cutoffs does not warn
        text = (LINEAR_SCENARIO if coupling == "linear" else NONLINEAR_SCENARIO).replace(
            "Omega = 0.1", "Omega = 0").replace("Omega = 0.25", "Omega = 0")
        path = write_scenario(tmp_path, text)
        assert cli.main(["run", str(path), "--route", "all", "--samples", "9"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        rows = out.split("route,t_E,E_tE,t_P,P_tP\n")[1].splitlines()
        assert sorted(rows) == sorted(
            f"{r},0,0,0,0" if cli._ROUTE_COUPLING.get(r, coupling) == coupling else f"{r},,,,"
            for r in cli.ROUTES[:-1])


class TestFigureCommand:
    def test_fig1c(self, tmp_path, capsys):
        assert cli.main(["figure", "fig1c", "--out", str(tmp_path)]) == 0
        path = tmp_path / "fig1c_steady_variances.csv"
        assert path.exists()
        with open(path) as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
        header, data = rows[0], rows[1:]
        assert header == ["Omega_over_J", "var_x", "var_p"]
        for r in data:
            vx, vp = float(r[1]), float(r[2])
            assert vx < 0.5 < vp
            # text round-trip keeps the product at 1/4 to working precision
            assert vx * vp == pytest.approx(0.25, rel=1e-12)

    def test_fig2(self, tmp_path):
        assert cli.main(["figure", "fig2", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "fig2_ad_timeseries.csv").exists()
        assert (tmp_path / "fig2_bcef_optima.csv").exists()

    def test_fig3_integrates_each_point_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        integrate = cumulant.integrate_cumulant

        def counting(p, t_end, n_samples):
            calls.append((p, t_end, n_samples))
            return integrate(p, t_end, n_samples)

        monkeypatch.setattr(cumulant, "integrate_cumulant", counting)
        assert cli.main(["figure", "fig3", "--out", str(tmp_path)]) == 0
        assert len(calls) == 4
        assert len(set(calls)) == 4

        def column(name, col):
            with open(tmp_path / name) as fh:
                rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
            return [r[rows[0].index(col)] for r in rows[1:]]

        b_e = column("fig3_b_e_timeseries.csv", "energy_cumulant")
        assert len(b_e) == 2001
        assert column("fig3_c_f_moderate.csv", "energy_Omega_0.25") == b_e

    def test_out_that_is_a_file_exit_code(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("kept\n")
        assert cli.main(["figure", "fig2", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: cannot write {out}: {os.strerror(errno.EEXIST)}"]
        assert out.read_text() == "kept\n"

    def test_unknown_figure_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["figure", "fig9", "--out", str(tmp_path)])

    def test_every_figure_name_is_a_bundle(self):
        # the parser's choices and the module's table name the same bundles,
        # and every bundle function of the module is in the table
        assert list(cli._FIGURE_NAMES) == sorted(figures.FIGURES)
        bundles = {n for n in vars(figures) if n.startswith("_figure_") and n != "_figure_csv"}
        assert {f.__name__ for f in figures.FIGURES.values()} == bundles

    def test_only_figure_and_constants_load_the_figure_module(self, tmp_path):
        # in a fresh interpreter, so that no earlier test has imported it
        path = write_scenario(tmp_path, LINEAR_SCENARIO.replace("n_samples = 101",
                                                                "n_samples = 9"))
        code = ("import sys\n"
                "from cvbattery import cli\n"
                "loaded = []\n"
                "for argv in (['run', sys.argv[1], '--out', sys.argv[2]], ['constants']):\n"
                "    assert cli.main(argv) == 0\n"
                "    loaded.append('cvbattery.figures' in sys.modules)\n"
                "print(*loaded)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-c", code, str(path),
                                 str(tmp_path / "run.csv")],
                                env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "False True"

    def test_only_constants_load_the_root_solvers(self, tmp_path):
        # in a fresh interpreter: the routes and figures load neither
        # scipy.integrate (LSODA is loaded on its own) nor the root solvers
        path = write_scenario(tmp_path, NONLINEAR_SCENARIO.replace(
            "route = cumulant", "route = all\ncutoff_a = 3\ncutoff_b = 4").replace(
            "n_samples = 101", "n_samples = 9"))
        code = ("import sys\n"
                "from cvbattery import cli\n"
                "names = ('scipy.integrate', 'scipy.optimize', 'scipy.special')\n"
                "loaded = []\n"
                "for argv in (['run', sys.argv[1], '--out', sys.argv[2] + '/run.csv'],\n"
                "             ['figure', 'fig2', '--out', sys.argv[2]],\n"
                "             ['figure', 'fig3', '--out', sys.argv[2]], ['constants']):\n"
                "    assert cli.main(argv) == 0\n"
                "    loaded.append([n for n in names if n in sys.modules])\n"
                "print(loaded)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-c", code, str(path), str(tmp_path)],
                                env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == str(
            [[], [], [], ["scipy.optimize", "scipy.special"]])


    def test_no_command_loads_scipy_sparse_or_scipy_linalg(self, tmp_path):
        # in a fresh interpreter: Fock runs on both couplings, the
        # closed-form figures and a Fock run whose sample step is past
        # condition (3.13) load neither scipy.sparse, its linalg nor
        # scipy.linalg (the propagator loads scipy's CSR kernels on their
        # own and bounds the norms of powers itself), and the long run gives
        # the states that it gives where they were loaded first
        linear = write_scenario(tmp_path, LINEAR_SCENARIO.replace(
            "route = analytic", "route = all\ncutoff_a = 4\ncutoff_b = 4").replace(
            "n_samples = 101", "n_samples = 9"), "linear.txt")
        nonlinear = write_scenario(tmp_path, NONLINEAR_SCENARIO.replace(
            "route = cumulant", "route = all\ncutoff_a = 3\ncutoff_b = 4").replace(
            "n_samples = 101", "n_samples = 9"), "nonlinear.txt")
        long_step = write_scenario(tmp_path, NONLINEAR_SCENARIO.replace(
            "route = cumulant", "route = fock\ncutoff_a = 4\ncutoff_b = 6").replace(
            "t_end = 40.0", "t_end = 400.0").replace("n_samples = 101", "n_samples = 9"),
            "long.txt")
        code = ("import sys\n"
                "import numpy as np\n"
                "from cvbattery import cli, focksim\n"
                "names = ('scipy.sparse', 'scipy.sparse.linalg', 'scipy.linalg')\n"
                "out = sys.argv[4]\n"
                "loaded = []\n"
                "for argv in (['run', sys.argv[1], '--out', out + '/linear.csv'],\n"
                "             ['run', sys.argv[2], '--out', out + '/nonlinear.csv'],\n"
                "             ['figure', 'fig2', '--out', out],\n"
                "             ['figure', 'fig3', '--out', out],\n"
                "             ['run', sys.argv[3], '--out', out + '/long.csv']):\n"
                "    assert cli.main(argv) == 0\n"
                "    loaded.append([n for n in names if n in sys.modules])\n"
                "p = cli.cumulant.NonlinearParams(Omega=0.25, J=1.0, gamma=0.5)\n"
                "traj = focksim.evolve('nonlinear', p, focksim.FockConfig(4, 6), 400.0, 9)\n"
                "np.save(out + '/long.npy', traj.sector_states)\n"
                "print(loaded)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-c", code, str(linear), str(nonlinear),
                                 str(long_step), str(tmp_path)],
                                env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == str([[], [], [], [], []])
        traj = focksim.evolve("nonlinear", cumulant.NonlinearParams(Omega=0.25, J=1.0, gamma=0.5),
                              focksim.FockConfig(4, 6), 400.0, 9)
        assert np.array_equal(np.load(tmp_path / "long.npy"), traj.sector_states)
        assert cli.main(["run", str(long_step), "--out", str(tmp_path / "again.csv")]) == 0
        assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "long.csv").read_bytes()

class TestConstantsCommand:
    def test_values_and_residuals(self, capsys):
        assert cli.main(["constants"]) == 0
        out = capsys.readouterr().out
        rows = {r[0]: r for r in csv.reader(io.StringIO(out)) if r}
        expected = {
            "A": 1.2564312086261695,
            "B": 2.7864981506511772,
            "C": 0.8145287551781475,
            "D_strong": 1.3473350422937096,
            "alpha": 1.3932490753255886,
            "sqrt2_alpha": math.sqrt(2.0) * 1.3932490753255886,
            "beta": 1.905419489872292,
            "B_minus_2alpha": 0.0,
        }
        for name, val in expected.items():
            assert float(rows[name][1]) == pytest.approx(val, abs=1e-11)
            assert float(rows[name][2]) < 1e-12


@pytest.mark.parametrize("argv", [["constants"], ["figure", "fig1c", "--out", "figs"],
                                  ["run", "scenario.txt"]])
def test_seedless_flag_refused(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--seedless"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seedless" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_determinism_repeat_run(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text(NONLINEAR_SCENARIO)
    outputs = []
    for _ in range(2):
        assert cli.main(["run", str(path),
                         "--samples", "33", "--t-end", "10.0"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_run_writes_identical_bytes_twice(tmp_path):
    # every route, so the file holds the NaN columns of the routes that do
    # not apply, the Fock columns and the summary block with its text cells
    path = write_scenario(tmp_path, LINEAR_SCENARIO.replace("route = analytic", "route = all")
                          + "cutoff_a = 4\ncutoff_b = 4\n")
    outputs = []
    for name in ("first.csv", "second.csv"):
        assert cli.main(["run", str(path), "--out", str(tmp_path / name)]) == 0
        outputs.append((tmp_path / name).read_bytes())
    assert outputs[0] == outputs[1]
    assert b",," in outputs[0]  # empty cells


# cells of every kind a row may hold, and the floats whose text is special
_CELLS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                     2.2250738585072014e-308, 1e300, -1e300, 0.1]),
    st.integers(-10**300, 10**300),
    st.booleans(),
    st.none(),
    st.text(),
    st.sampled_from(["nan", "banana", "-nan", "inf", "%s", "%", "%.15g", ""]),
    st.floats().map(np.float64),
)


@st.composite
def _tables(draw):
    """Rows of several widths, each width a run of rows, some rows repeated
    so that a row format is used again."""
    rows = []
    for width in draw(st.lists(st.integers(0, 6), max_size=4)):
        block = draw(st.lists(st.lists(_CELLS, min_size=width, max_size=width), max_size=5))
        rows += block + block[:2]
    return [tuple(r) if i % 2 else r for i, r in enumerate(rows)]


@settings(deadline=None, max_examples=100)
@given(st.lists(st.text(), max_size=2), st.lists(st.text(), min_size=1, max_size=3), _tables())
def test_csv_writer_is_the_per_cell_join(comments, header, rows):
    out = io.StringIO()
    cli._write_csv(out, comments, header, rows)
    expected = ("".join(f"# {c}\n" for c in comments) + ",".join(header) + "\n"
                + "".join(",".join(map(cli._cell, row)) + "\n" for row in rows))
    assert out.getvalue() == expected
