"""Shared parameter sets (the figure-caption values) and a cached ODE oracle."""

from functools import lru_cache

import mpmath
import numpy as np
import pytest

from fiberqed import IntegratorConfig, SystemParams, evolve_bare, single_excitation

GAMMA = 5.2  # atomic decay, 2*pi*MHz (cesium D2)


def caption_params(kappa_b, kappa, v, g):
    return SystemParams(g=g, v=v, kappa=kappa, kappa_b=kappa_b, gamma=GAMMA)


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

# near the fiber-dark block's critical damping p = 0 and at the symmetric
# block's double root, where chi grows without bound
NEAR_EP = {
    "critical": dict(g=0.95, v=4, kappa=0.7, kappa_b=0.01, gamma=5.2),
    "double-root": dict(g=0.5132798211629388, v=1, kappa=1, kappa_b=8, gamma=0.5),
}


def exact_fiber_dark_roots(params) -> list:
    """The fiber-dark roots (QFD+, QFD-), -Gamma_A+/2 -+ i p, of the float rates at
    150 digits: the slow root of an overdamped pair cancels down to 1e-56 of
    Gamma_A+/2 near the 2.12e51 rate bound, and p^2 spans 114 decades."""
    with mpmath.workdps(150):
        g, kappa, gamma = (mpmath.mpf(getattr(params, k)) for k in ("g", "kappa", "gamma"))
        half = (gamma / 2 + kappa) / 2
        p = mpmath.sqrt(mpmath.mpc(g * g - ((gamma / 2 - kappa) / 2) ** 2))
        return [-half - 1j * p, -half + 1j * p]


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
