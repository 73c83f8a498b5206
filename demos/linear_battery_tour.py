"""A walking tour of the linearly coupled quantum battery.

Charger mode a is driven with amplitude Omega and leaks at rate gamma;
battery mode b is lossless and linearly coupled at rate g.  Everything in
this demo is closed-form: we look at the charging curve, the exceptional
point at g = gamma/4, and the weak/strong coupling power asymptotes.

Run with:  python demos/linear_battery_tour.py
"""

import numpy as np

from cvbattery import (
    LinearParams,
    energy_linear,
    exceptional_point,
    linear_constants,
    optimal_energy,
    optimal_time_energy,
    power_optima,
    steady_energy_linear,
)


def section(title):
    print()
    print(title)
    print("-" * len(title))


def main():
    gamma = 1.0  # all rates in units of gamma

    section("Charging curve at g = gamma/2 (above the exceptional point)")
    p = LinearParams(omega_b=1.0, Omega=0.1, g=0.5, gamma=gamma)
    for t in np.linspace(0.0, 20.0, 9):
        bar = "#" * int(60 * energy_linear(t, p) / optimal_energy(p))
        print(f"  t = {t:5.1f}   E = {energy_linear(t, p):.4f}  {bar}")
    print(f"  steady state:      E -> {steady_energy_linear(p):.4f}")
    print(f"  best moment:       t_E = {optimal_time_energy(p):.4f}, "
          f"E(t_E) = {optimal_energy(p):.4f}")
    print("  the peak beats the steady state: disconnect the charger early.")

    section("The exceptional point")
    print(f"  g_EP = gamma/4 = {exceptional_point(gamma)}")
    print("  below it the charging is overdamped and the maximum energy is")
    print("  only reached asymptotically:")
    for g in (0.1, 0.2, 0.25, 0.3, 0.5):
        t_e = optimal_time_energy(LinearParams(Omega=0.1, g=g, gamma=gamma))
        label = "infinity" if np.isinf(t_e) else f"{t_e:8.3f}"
        print(f"    g/gamma = {g:4.2f}   t_E = {label}")

    section("Power asymptotes")
    lc = linear_constants()
    print("  weak coupling  (g << gamma):  t_P = A gamma / 2 g^2,  "
          "P = C omega_b Omega^2 / gamma")
    print("  strong coupling (g >> gamma): t_P = B / g,            "
          "P = D omega_b Omega^2 / g")
    print(f"  with A = {lc.A:.6f}, B = {lc.B:.6f}, "
          f"C = {lc.C:.6f}, D = {lc.D_strong:.6f}")
    print()
    print("  g/gamma      t_P     asymptote       P(t_P)   asymptote")
    gs = (0.02, 0.05, 10.0, 50.0)
    t_ps, p_tps = power_optima(
        [LinearParams(omega_b=1.0, Omega=0.1, g=g, gamma=gamma) for g in gs])
    for g, t_p, p_tp in zip(gs, t_ps, p_tps):
        if g < 0.25:
            t_ref = lc.A * gamma / (2.0 * g * g)
            p_ref = lc.C * 0.1**2 / gamma
        else:
            t_ref = lc.B / g
            p_ref = lc.D_strong * 0.1**2 / g
        print(f"  {g:7.2f} {t_p:10.3f} {t_ref:10.3f} "
              f"{p_tp:12.3e} {p_ref:10.3e}")


if __name__ == "__main__":
    main()
