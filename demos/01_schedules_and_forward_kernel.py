"""Tour of the five built-in noise schedules and the forward kernel.

Every schedule is the same object: an interpolation k(t) pulling the state
from x0 toward y, plus a noise level sigma(t). Everything else (stiffness
gamma, diffusion g, perturbation variance) is derived from those two, and the
derivations can be run in both directions. This script tabulates each
schedule, checks the reconstruction identities numerically (k from gamma and
the variance from g by quadrature, gamma from a central difference of k), and
compares Monte Carlo forward draws against the closed-form kernel moments.

    python3 demos/01_schedules_and_forward_kernel.py
"""

import math

import numpy as np

import isde

BUNDLES = {
    "fOUVE": isde.SdeParams(kind="fOUVE", sigma_min=0.001, sigma_max=0.1, gamma0=2.0),
    "OUVE": isde.SdeParams(kind="OUVE", sigma_min=0.001, sigma_max=0.1, gamma0=2.0),
    "BBED": isde.SdeParams(kind="BBED", c=0.3, r=4.0),
    "OT": isde.SdeParams(kind="OT", sigma_max=0.1),
    "BrownianBridge": isde.SdeParams(kind="BrownianBridge"),
}

x0, y = 0.5, 1.0
rng = np.random.default_rng(20250825)

for name, params in BUNDLES.items():
    sde = isde.make_sde(params)
    print(f"\n== {name}  (horizon t_max={sde.t_max:g}, reverse start t_rev={sde.t_rev:g})")
    print(f"{'t':>6} {'k':>10} {'gamma':>10} {'sigma':>11} {'g':>11}"
          f" {'mc mean':>10} {'exact':>10} {'mc std':>10} {'exact':>10}")
    for t in (0.1, 0.5, 0.9 * sde.t_rev):
        mean = float(isde.mean_evolution(sde, x0, y, t))
        draws = isde.sample_forward(sde, np.full(20000, x0), y, t, rng)
        print(f"{t:6.3f} {sde.k(t):10.5f} {sde.gamma(t):10.4f} {sde.sigma(t):11.4e}"
              f" {sde.g(t):11.4e} {np.mean(draws):10.5f} {mean:10.5f}"
              f" {np.std(draws):10.3e} {sde.sigma(t):10.3e}")

    # reconstruction identities: k = 1 - exp(-int gamma) by quadrature, gamma =
    # k' / (1 - k) by a central difference of k, and the variance
    # (1 - k)^2 [var(0) + int (g / (1 - k))^2] by quadrature of the diffusion
    ts = np.linspace(sde.t_rev / 50, sde.t_rev, 25)
    k_rt = max(abs(-math.expm1(-isde.integrate(lambda u: float(sde.gamma(u)), 0.0, t).value)
                   - float(sde.k(t))) for t in ts)
    h = 1e-6
    g_rt = float(np.max(np.abs((sde.k(ts + h) - sde.k(ts - h)) / (2.0 * h) / (1.0 - sde.k(ts))
                               - sde.gamma(ts))))

    def var_from_g(t):
        fluct = isde.integrate(lambda u: (float(sde.g(u)) / (1.0 - float(sde.k(u)))) ** 2,
                               0.0, t).value
        return (1.0 - float(sde.k(t))) ** 2 * (float(sde.var(0.0)) + fluct)

    v_rt = max(abs(var_from_g(t) - float(sde.var(t))) for t in ts)
    print(f"   round trips: |k| {k_rt:.1e}   |gamma| {g_rt:.1e}   |var| {v_rt:.1e}")

print("\nAll five families expose the same interface; the solvers never need"
      " to know which schedule they are running on.")
