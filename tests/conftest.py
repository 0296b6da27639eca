"""Shared parameter sets (the figure-caption values) and a cached ODE oracle."""

from functools import lru_cache

import numpy as np
import pytest

from fiberqed import IntegratorConfig, evolve_bare, single_excitation, symmetric_params

GAMMA = 5.2  # atomic decay, 2*pi*MHz (cesium D2)


def caption_params(kappa_b, kappa, v, g):
    return symmetric_params(g=g, v=v, kappa=kappa, kappa_b=kappa_b, gamma=GAMMA)


FIG3 = caption_params(0.01, 1.0, 1.0, 50.0)
FIG4 = caption_params(0.01, 1.0, 50.0, 2.0)
FIG5 = caption_params(0.01, 1.0, 50.0, 50.0 * np.sqrt(2.0))
FIG6 = {g: caption_params(0.01, 1.0, 10.0, g) for g in (2.0, 6.0, 10.0, 20.0)}
FIG7 = caption_params(0.01, 1.0, 10.0, 5.0)
FIG8 = caption_params(0.01, 1.0, 4.0, 7.0)
FIG10 = caption_params(0.01, 1.0, 4.0, 9.0)

ALL_FIGURE_SETS = {
    "fig3": FIG3,
    "fig4": FIG4,
    "fig5": FIG5,
    "fig6_g2": FIG6[2.0],
    "fig6_g6": FIG6[6.0],
    "fig6_g10": FIG6[10.0],
    "fig6_g20": FIG6[20.0],
    "fig7": FIG7,
    "fig8": FIG8,
    "fig10": FIG10,
}


@lru_cache(maxsize=64)
def atom1_oracle(params, t_max, dt=1e-4, record_every=1):
    """Cached brute-force trajectory for an initial atom-1 excitation.

    The horizon is the whole step nearest to t_max.
    """
    cfg = IntegratorConfig(dt=dt, t_max=round(t_max / dt) * dt, record_every=record_every)
    return evolve_bare(params, single_excitation("atom1"), cfg)


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)
