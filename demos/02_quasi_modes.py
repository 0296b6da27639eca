"""Quasi-normal modes: eigenvalues, damping regimes and exact amplitudes.

Walks the anti-symmetric block through under-, critical and over-damping,
then reconstructs a full trajectory from the five-mode decomposition and
compares it with the brute-force integrator.
"""

import numpy as np

from fiberqed import (
    IntegratorConfig,
    antisymmetric_block,
    derive_rates,
    evolve_bare,
    fiber_dark_amplitudes,
    full_decomposition,
    single_excitation,
    symmetric_params,
)

GAMMA = 5.2

print("=== damping regimes of the fiber-dark pair (kappa=1, gamma=5.2) ===")
print("Gamma_A-/2 = 0.8, so g = 0.8 is the critical point\n")
for g in (2.0, 0.95, 0.8, 0.5):
    params = symmetric_params(g=g, v=5.0, kappa=1.0, kappa_b=0.01, gamma=GAMMA)
    p = derive_rates(params).p
    if p == 0:
        regime = "critically damped (defective block)"
        lam = "double eigenvalue -Gamma_A+/2 = -1.8"
    else:
        regime = "underdamped" if p.imag == 0 else "overdamped"
        lam = ", ".join(f"{x:.4f}" for x in antisymmetric_block(params).eigenvalues)
    print(f"g = {g:4.2f}: p = {p:.4f}  -> {regime:35s} eigenvalues: {lam}")

print("\n=== five-mode decomposition at g=7, v=4 ===")
params = symmetric_params(g=7.0, v=4.0, kappa=1.0, kappa_b=0.01, gamma=GAMMA)
decomp = full_decomposition(params)
for j, label in enumerate(decomp.labels):
    lam = decomp.eigenvalues[j]
    print(f"  {label:4s}: lambda = {lam:+.4f}   decay eta = {-lam.real:.4f}"
          f"   frequency delta = {-lam.imag:+.4f}")

cfg = IntegratorConfig(dt=5e-5, t_max=4.0, record_every=100)
traj = evolve_bare(params, single_excitation("atom1"), cfg)
recon = decomp.bare_amplitudes(traj.times).T
print(f"\nreconstruction from 5 exponentials vs integrator: "
      f"max |error| = {np.abs(recon - traj.states).max():.2e}")

a_plus, a_minus = fiber_dark_amplitudes(params, traj.times)
print(f"conjugate pair check: max |A+ - conj(A-)| = "
      f"{np.abs(a_plus - np.conj(a_minus)).max():.2e}")

print("\n=== weights of the five quasi modes for the atom-1 start ===")
for j, label in enumerate(decomp.labels):
    print(f"  {label:4s}: w = {decomp.weights[j]:+.4f}")
