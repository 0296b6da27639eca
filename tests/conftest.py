"""Shared parameter sets (the figure-caption values), a cached ODE oracle,
and the one implementation of each oracle the tests hold the package to:
the roots and the Gramian (channel totals) at high precision, the
propagator expm(G t), the resolvent (s - G)^-1 c0 and the quadrature of
the spectra."""

from functools import lru_cache
from itertools import product

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from fiberqed import (IntegratorConfig, SystemParams, bare_generator, evolve_bare,
                      single_excitation, spectral_function)
from fiberqed.model import flux_weights

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


def exact_roots(block) -> list:
    """The eigenvalues of one float matrix at 60 digits."""
    with mpmath.workdps(60):
        return mpmath.eig(mpmath.matrix(block.tolist()), left=False, right=False)


def exact_gramian(gen, c0, digits) -> np.ndarray:
    """X with G X + X G^+ = -c0 c0^+ for any n x n generator G, solved in
    Kronecker form at the given digits and rounded to complex doubles.

    The same equation as the channel totals solve, on the same double
    entries of G and c0, so its rounding to doubles is the exact answer.
    """
    gen = np.asarray(gen, dtype=complex).tolist()
    c0 = np.asarray(c0, dtype=complex).tolist()
    n = len(c0)
    with mpmath.workdps(digits):
        op = mpmath.matrix(n * n, n * n)
        rhs = mpmath.matrix(n * n, 1)
        for i, j in product(range(n), repeat=2):
            rhs[n * i + j] = -mpmath.mpc(c0[i]) * mpmath.conj(c0[j])
            for k in range(n):
                op[n * i + j, n * k + j] += gen[i][k]
                op[n * i + j, n * i + k] += mpmath.conj(gen[j][k])
        x = mpmath.lu_solve(op, rhs)
        return np.array([complex(x[i]) for i in range(n * n)]).reshape(n, n)


def exact_totals(params, c0, digits=50) -> np.ndarray:
    """Channel totals w_c X_cc in BARE_MODES order from the Gramian of the bare generator."""
    return flux_weights(params) * exact_gramian(bare_generator(params), c0, digits).diagonal().real


def propagator(gen, times) -> np.ndarray:
    """The matrices expm(G t), (T, n, n), one per time."""
    times = np.asarray(times, dtype=float)
    return expm(np.asarray(gen)[None] * times[:, None, None])


def resolvent(gen, c0, omega) -> np.ndarray:
    """Amplitudes (s - G)^-1 c0 at s = -i omega, (W, n), one direct solve per
    frequency: the Laplace transform whose pole terms are chi_j L(omega, lambda_j)."""
    omega = np.asarray(omega, dtype=float)
    n = len(c0)
    mats = -1j * omega[:, None, None] * np.eye(n) - np.asarray(gen)[None]
    rhs = np.broadcast_to(np.asarray(c0, dtype=complex), (omega.size, n))
    return np.linalg.solve(mats, rhs[..., None])[..., 0]


@lru_cache(maxsize=64)
def atom1_oracle(params, t_max, dt=1e-4, record_every=1):
    """Cached brute-force trajectory for an initial atom-1 excitation.

    The horizon is the whole step nearest to t_max.
    """
    cfg = IntegratorConfig(dt=dt, t_max=round(t_max / dt) * dt, record_every=record_every)
    return evolve_bare(params, single_excitation("atom1"), cfg)


def pole(spec, j, omega):
    """Pole j of the channel amplitude of a spectrum's entry [0, 0], chi_j L(omega, lambda_j)."""
    return spec.chi[0, 0, j] * spectral_function(omega, spec.eigenvalues[0, 0, j])


def full_line_quad(f, breakpoints):
    """Adaptive quadrature over the whole real line, resolving given poles."""
    pts = sorted(float(x) for x in breakpoints)
    lo, hi = pts[0] - 50.0, pts[-1] + 50.0
    inner, _ = quad(f, lo, hi, points=pts, limit=500, epsabs=1e-13, epsrel=1e-11)
    left, _ = quad(f, -np.inf, lo, limit=300, epsabs=1e-13, epsrel=1e-11)
    right, _ = quad(f, hi, np.inf, limit=300, epsabs=1e-13, epsrel=1e-11)
    return inner + left + right


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)
