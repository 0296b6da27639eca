"""Emission spectra: mode resolution, Lorentzian decomposition, interference.

Sweeps the atom-cavity coupling to show the fiber-dark pair becoming
resolvable in the cavity output, then decomposes both cavity spectra at
g=7, v=4 where interference redistributes weight between the two ports.
Spectra are stacked over (points, channels): entry [i, c] of every array
of a spectrum is channel c at point i.
"""

import numpy as np

from fiberqed import (
    SystemParams,
    channel_spectrum,
    derive_rates,
    full_decomposition,
    full_decompositions,
    integrated_spectrum,
    lorentzian_approximation,
)
from fiberqed.model import BARE_MODES

GAMMA = 5.2

print("=== cavity-1 spectrum vs atom-cavity coupling (v=10, kappa=1) ===")
points = [SystemParams(g=g, v=10.0, kappa=1.0, kappa_b=0.01, gamma=GAMMA)
          for g in (2.0, 6.0, 10.0, 20.0)]
sweep = channel_spectrum(full_decompositions(points), ["cavity1"])
for i, params in enumerate(points):
    g = params.g
    grid, val = sweep.omega_grid[i, 0], sweep.spectrum[i, 0]
    d = np.diff(val)
    peaks = grid[np.where((d[:-1] > 0) & (d[1:] <= 0))[0] + 1]
    r = derive_rates(params)
    print(f"g = {g:4.1f} (zeta = {r.zeta:6.2f}, p = {r.p.real:6.2f}): "
          f"maxima at {np.array2string(peaks, precision=2)}")

print("\n=== decomposition of both cavity outputs at g=7, v=4 ===")
params = SystemParams(g=7.0, v=4.0, kappa=1.0, kappa_b=0.01, gamma=GAMMA)
decomp = full_decomposition(params)
spec = channel_spectrum([decomp], ["cavity1", "cavity2"])
grid, prefactors = spec.omega_grid[0, 0], spec.prefactor[0]
s1, s2 = spec.spectrum[0]

print("integrated spectra (total detection probability per port):")
(totals,) = integrated_spectrum([decomp])
for channel, total in zip(BARE_MODES, totals):
    print(f"  {channel:8s}: {total:.5f}")

i0 = np.argmin(np.abs(grid))
print(f"\non resonance: S_cav1 = {s1[i0]:.3e}, S_cav2 = {s2[i0]:.3e}")
print("(off resonance cavity 1 dominates by ~4x; the interference terms pull")
print(" the two ports together at omega = 0)")

print("\nnet interference contributions to cavity 1 vs cavity 2:")
for a, b in (("QCD", "QFD-"), ("QCD", "QBS-"), ("QBS+", "QFD+")):
    ja, jb = decomp.index(a), decomp.index(b)
    # pair matrix: [j, k] + [k, j] is the net interference integral of poles j, k
    w1, w2 = (m[ja, jb] + m[jb, ja] for m in spec.pair_integrals[0])
    kind = "opposite" if w1 * w2 < 0 else "same sign"
    print(f"  {a:4s} x {b:4s}: {w1:+.5f} vs {w2:+.5f}  ({kind})")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    fig, ax = plt.subplots(figsize=(8, 4.5))
    ax.semilogy(grid, s1, label="cavity 1", lw=1.0)
    ax.semilogy(grid, s2, label="cavity 2", lw=1.0)
    ax.semilogy(grid, lorentzian_approximation(spec)[0, 0], "--",
                label="sum of Lorentzians", lw=0.8)
    for L in spec.lorentzians[0, 0]:
        ax.semilogy(grid, prefactors[0] * L, color="0.7", lw=0.5)
    ax.set_xlim(-15, 15)
    ax.set_ylim(1e-7, None)
    ax.set_xlabel("omega (2*pi*MHz)")
    ax.set_ylabel("S(omega)")
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig("demo_spectra.png", dpi=150)
    print("\nsaved demo_spectra.png")
