"""Three coupling regimes of the single-excitation dynamics.

Evolves an initially excited atom 1 with the brute-force integrator in the
atom-dominated, fiber-dominated and comparable-coupling regimes, printing
where the excitation goes and (if matplotlib is available) saving the
occupation plots next to this script.
"""

import numpy as np

from fiberqed import (
    IntegratorConfig,
    SystemParams,
    evolve_bare,
    occupations,
    single_excitation,
)

GAMMA = 5.2  # atomic decay, 2*pi*MHz

REGIMES = {
    "atom dominated  (g=50, v=1)": SystemParams(g=50, v=1, kappa=1, kappa_b=0.01, gamma=GAMMA),
    "fiber dominated (g=2, v=50)": SystemParams(g=2, v=50, kappa=1, kappa_b=0.01, gamma=GAMMA),
    "comparable      (g=70.7, v=50)": SystemParams(
        g=50 * np.sqrt(2), v=50, kappa=1, kappa_b=0.01, gamma=GAMMA
    ),
}

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    fig, axes = plt.subplots(2, 3, figsize=(13, 6), sharex="col")

for col, (tag, params) in enumerate(REGIMES.items()):
    cfg = IntegratorConfig(dt=5e-5, t_max=2.0, record_every=40)
    traj = evolve_bare(params, single_excitation("atom1"), cfg)
    occ = occupations(traj)

    print(f"\n=== {tag}")
    print(f"  survival at t={traj.times[-1]:.1f}: {traj.survival[-1]:.4f}")
    for channel, series in traj.channel_probs.items():
        print(f"  detected via {channel:8s}: {series[-1]:.4f}")
    print(f"  peak fiber occupation |beta|^2: {occ['fiber'].max():.4f}")
    print(f"  peak cavity-2 occupation      : {occ['cavity2'].max():.4f}")

    if plt is not None:
        top, bottom = axes[0, col], axes[1, col]
        for key in ("atom1", "atom2", "cavity1", "cavity2", "fiber"):
            top.plot(traj.times, occ[key], label=key, lw=0.8)
        for key in ("bs_plus", "bs_minus", "fd_plus", "fd_minus", "cd"):
            bottom.plot(traj.times, occ[key], label=key, lw=0.8)
        top.set_title(tag, fontsize=9)
        bottom.set_xlabel("t")
        if col == 0:
            top.set_ylabel("physical occupation")
            bottom.set_ylabel("normal-mode occupation")
            top.legend(fontsize=6)
            bottom.legend(fontsize=6)

if plt is not None:
    fig.tight_layout()
    fig.savefig("demo_trajectories.png", dpi=150)
    print("\nsaved demo_trajectories.png")
