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
from fiberqed.model import BARE_MODES, NORMAL_MODES

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
    occ = occupations(traj)  # columns (*BARE_MODES, *NORMAL_MODES)

    print(f"\n=== {tag}")
    print(f"  survival at t={traj.times[-1]:.1f}: {traj.survival[-1]:.4f}")
    for channel, detected in zip(BARE_MODES, traj.channel_probs[-1]):
        print(f"  detected via {channel:8s}: {detected:.4f}")
    print(f"  peak fiber occupation |beta|^2: {occ[:, BARE_MODES.index('fiber')].max():.4f}")
    print(f"  peak cavity-2 occupation      : {occ[:, BARE_MODES.index('cavity2')].max():.4f}")

    if plt is not None:
        top, bottom = axes[0, col], axes[1, col]
        for key, series in zip(BARE_MODES, occ[:, :5].T):
            top.plot(traj.times, series, label=key, lw=0.8)
        for key, series in zip(NORMAL_MODES, occ[:, 5:].T):
            bottom.plot(traj.times, series, label=key, lw=0.8)
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
