"""Unit tests for the command line interface."""

import csv
import io
import math

import numpy as np
import pytest

from cvbattery import cli, focksim, metrics
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

    def test_unphysical_params_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            cli.parse_scenario(
                write_scenario(tmp_path, "coupling = linear\ng = -1.0\n")
            )


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
                         "--t-end", "5.0", "--seedless"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        summary = lines.index("route,t_E,E_tE,t_P,P_tP")
        data = [l for l in lines[2:summary] if l]
        assert len(data) == 11
        assert float(data[-1].split(",")[0]) == pytest.approx(5.0)

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

    def test_config_error_exit_code(self, tmp_path):
        path = write_scenario(tmp_path, "coupling = warp\n")
        assert cli.main(["run", str(path)]) == 2

    def test_missing_scenario_exit_code(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "none.txt")]) == 2

    def test_convergence_error_exit_code(self, tmp_path, monkeypatch):
        path = write_scenario(tmp_path, LINEAR_SCENARIO)

        def boom(sc, out):
            raise ConvergenceError("synthetic failure")

        monkeypatch.setattr(cli, "write_run_csv", boom)
        assert cli.main(["run", str(path)]) == 3


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

    def test_unknown_figure_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["figure", "fig9", "--out", str(tmp_path)])


class TestConstantsCommand:
    def test_values_and_residuals(self, capsys):
        assert cli.main(["constants", "--seedless"]) == 0
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


def test_determinism_repeat_run(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text(NONLINEAR_SCENARIO)
    outputs = []
    for _ in range(2):
        assert cli.main(["run", str(path), "--seedless",
                         "--samples", "33", "--t-end", "10.0"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
