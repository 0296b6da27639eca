"""Closed-form limits and the perturbative symmetric manifold.

Compares the dominated-coupling solutions and the three perturbative
variants against the brute-force integrator and the exact quasi-mode
eigenvalues.
"""

import warnings

import numpy as np

from fiberqed import (
    IntegratorConfig,
    RegimeWarning,
    SystemParams,
    atom_dominated_solution,
    evolve_bare,
    fiber_dominated_solution,
    full_decomposition,
    perturbative_cavity_amplitudes,
    perturbative_symmetric,
    single_excitation,
)

GAMMA = 5.2


def oracle(params, t_max=1.4):
    cfg = IntegratorConfig(dt=2e-5, t_max=t_max, record_every=100)
    return evolve_bare(params, single_excitation("atom1"), cfg)


print("=== dominated-coupling limits converge with the coupling ratio ===")
print("atom-dominated solution, error vs v/g:")
for v in (5.0, 2.5, 1.0):
    params = SystemParams(g=50.0, v=v, kappa=1.0, kappa_b=0.01, gamma=GAMMA)
    traj = oracle(params)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        xi1, alpha1 = atom_dominated_solution(params, traj.times)
    err = max(np.abs(xi1 - traj.states[:, 0]).max(),
              np.abs(alpha1 - traj.states[:, 2]).max())
    print(f"  v/g = {v / 50:.2f}: max error {err:.2e}")

print("fiber-dominated solution, error vs g/v:")
for g in (5.0, 2.5, 1.0):
    params = SystemParams(g=g, v=50.0, kappa=1.0, kappa_b=0.01, gamma=GAMMA)
    traj = oracle(params)
    xi1, xi2, alpha1, alpha2 = fiber_dominated_solution(params, traj.times)
    err = max(np.abs(xi1 - traj.states[:, 0]).max(),
              np.abs(alpha1 - traj.states[:, 2]).max())
    print(f"  g/v = {g / 50:.2f}: max error {err:.2e}")

print("\n=== perturbative variants at g = sqrt(2) v = 70.7 ===")
params = SystemParams(g=50 * np.sqrt(2), v=50.0, kappa=1.0, kappa_b=0.01, gamma=GAMMA)
exact = full_decomposition(params).eigenvalues[:3]
for variant in ("standard", "appendix_alternative", "appendix_refined"):
    modes = perturbative_symmetric(params, variant)
    worst = (np.abs(modes.eigenvalues - exact) / np.abs(exact)).max()
    print(f"  {variant:20s}: worst relative eigenvalue error {worst:.2e}")

traj = oracle(params)
alpha1, alpha2 = perturbative_cavity_amplitudes(params, traj.times)
print(f"\nperturbative cavity amplitudes vs integrator: "
      f"max |alpha1 error| = {np.abs(alpha1 - traj.states[:, 2]).max():.2e}")
print(f"cavity difference is purely anti-symmetric: "
      f"max |(a1 - a2) - (A+ - A-)| = 0 by construction")
