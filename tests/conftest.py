"""Shared parameter sets (the figure-caption values), a cached ODE oracle,
and the one implementation of each oracle the tests hold the package to:
the roots and the Gramian (channel totals) at high precision, the
propagator expm(G t), the resolvent (s - G)^-1 c0 and the quadrature of
the spectra; with the unit roundoff and the rounding bounds of the
symmetric block's roots and of the channel totals solve."""

from functools import lru_cache
from itertools import permutations, product

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from fiberqed import (IntegratorConfig, SystemParams, bare_generator, evolve_bare,
                      single_excitation, spectral_function)
from fiberqed.eigen import _cubic_coefficients
from fiberqed.model import flux_weights, symmetric_generator

GAMMA = 5.2  # atomic decay, 2*pi*MHz (cesium D2)
U = np.finfo(float).eps / 2  # unit roundoff


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


def ratios(errors, bounds) -> np.ndarray:
    """errors / bounds, where an error of 0 counts 0, also against a bound of 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(errors == 0, 0.0, errors / bounds)


# --- the symmetric block's roots -----------------------------------------------

def float_blocks(rates) -> np.ndarray:
    """The symmetric blocks (N, 3, 3) of the derived rates, as the package builds them."""
    return symmetric_generator(*np.array(
        [(r.zeta, r.gamma_s_plus, r.gamma_s_minus, r.gamma_sd, r.gamma_d) for r in rates]
    ).reshape(len(rates), 5).T)


def exact_roots(block) -> list:
    """The eigenvalues of one float matrix at 60 digits."""
    with mpmath.workdps(60):
        return mpmath.eig(mpmath.matrix(block.tolist()), left=False, right=False)


def matched_errors(roots, reference) -> np.ndarray:
    """|roots_j - reference_k| (n,) in the order of roots, for the pairing
    that is closest in double precision (the least largest distance); the
    distances are taken at 60 digits, so reference may hold mpmath numbers."""
    near = np.array([complex(x) for x in reference])
    perm = min(permutations(range(len(near))),
               key=lambda perm: np.abs(roots - near[list(perm)]).max())
    with mpmath.workdps(60):
        return np.array([float(abs(mpmath.mpc(x) - reference[k]))
                         for x, k in zip(roots.tolist(), perm)])


def pole_conditions(left, right) -> np.ndarray:
    """K_j = |l_j| |r_j| (..., n), the condition number of root j, from the
    left rows and right columns of a stack of decompositions with left @ right = I."""
    return np.linalg.norm(left, axis=-1) * np.linalg.norm(right, axis=-2)


def cubic_root_bound(rates, lam) -> np.ndarray:
    """First-order bound (N, 3) on how far the cubic's roots lam lie from the
    eigenvalues of the float blocks of the derived rates.

    The block's entries are the float rates (halving is exact), so its
    characteristic polynomial has the coefficients of
    eigen._cubic_coefficients in exact arithmetic.  Each coefficient c_k is
    a sum of terms, and a term is rounded in at most 5 operations on its
    way: in c2 = Gamma_S+ + Gamma_D, 1; in c1, each square or product 1
    (the /4 and the 2 * are exact) and then the 4 additions, 5 for the
    first term; in c0 the sum Gamma_S+^2/4 + zeta^2 - sm^2 (3 for its first
    two terms), the product with Gamma_D (4) and the final subtraction (5),
    and Gamma_SD^2 times Gamma_S+ - 2 sm, 1 + 1 + 1 and the subtraction, 4.
    So |delta c_k| <= gamma_5 T_k, T_k the sum of the absolute values of
    its terms.  The polished roots are exact for a polynomial with every c_k
    (c_3 = 1) off by gamma_6 |c_k| more, Horner's backward error at degree
    3, as in eigen._trace_misses.  To first order a root moves by
    sum_k delta c_k lambda^k / p'(lambda), p'(lambda_j) the product of
    lambda_j - lambda_i over the other two roots.
    """
    g5, g6 = (n * U / (1 - n * U) for n in (5, 6))
    bounds = np.empty(lam.shape)
    for i, (r, roots) in enumerate(zip(rates, lam.tolist())):
        c2, c1, c0 = _cubic_coefficients(r)[:3]
        gsp, sm, gsd, gd, zeta = (abs(x) for x in (r.gamma_s_plus, r.gamma_s_minus / 2,
                                                   r.gamma_sd, r.gamma_d, r.zeta))
        terms = [gd * (gsp**2 / 4 + zeta**2 + sm**2) + gsd**2 * (gsp + 2 * sm),
                 gsp**2 / 4 + zeta**2 + sm**2 + gd * gsp + 2 * gsd**2, gsp + gd, 0.0]
        coeffs = [abs(c0), abs(c1), abs(c2), 1.0]
        for j, x in enumerate(roots):
            slope = abs(np.prod([x - y for k, y in enumerate(roots) if k != j]))
            moved = sum((g5 * t + g6 * c) * abs(x) ** k
                        for k, (t, c) in enumerate(zip(terms, coeffs)))
            bounds[i, j] = moved / slope if moved else 0.0
    return bounds


# --- the Gramian of the channel totals -----------------------------------------

def gamma(n):
    """sqrt(2) gamma_n, the relative error of n complex operations in a row
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, sec. 3.6)."""
    return np.sqrt(2) * n * U / (1 - n * U)


def exact_gramian(gen, c0, digits) -> np.ndarray:
    """X with G X + X G^+ = -c0 c0^+ for any n x n generator G, solved in
    Kronecker form at the given digits and rounded to complex doubles.

    The same equation as the channel totals solve, on the same double
    entries of G and c0, so its rounding to doubles is the exact answer.
    Where mpmath's LU finds the Kronecker form singular at these digits (a
    mode that does not decay, or decay rates about as many decades apart as
    there are digits), X is the pair matrix of a 150-digit eigendecomposition
    G = R diag(lambda) R^-1 instead: X = R P R^+ with P_jk = -w_j w_k* /
    (lambda_j + lambda_k*) and w = R^-1 c0, leaving out a pair with
    lambda_j + lambda_k* = 0, whose mode does not decay and so carries no
    weight wherever X exists.
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
        # mpmath's LU raises ZeroDivisionError at a pivot below 10^-digits of
        # the norm, and a TypeError in its pivot search where a column is
        # exactly 0 from the diagonal down
        try:
            x = mpmath.lu_solve(op, rhs)
            return np.array([complex(x[i]) for i in range(n * n)]).reshape(n, n)
        except (ZeroDivisionError, TypeError):
            pass
    with mpmath.workdps(150):
        lam, right = mpmath.eig(mpmath.matrix(gen), left=False, right=True)
        w = mpmath.inverse(right) * mpmath.matrix(c0)
        pair = mpmath.matrix(n, n)
        for j, k in product(range(n), repeat=2):
            if (den := lam[j] + mpmath.conj(lam[k])) != 0:
                pair[j, k] = -w[j] * mpmath.conj(w[k]) / den
        x = right * pair * right.H
        return np.array([[complex(x[i, j]) for j in range(n)] for i in range(n)])


def totals_solve_bound(gen, weights, gramian) -> np.ndarray:
    """Bound (5,) on the error of the totals w_c X_cc that the package's LU
    solve of the 25 x 25 Kronecker form gives (Higham 2002, thm. 9.4):
    w_c cond(op) 25 gamma_75 |X|_F."""
    op = np.kron(gen, np.eye(5)) + np.kron(np.eye(5), np.conj(gen))
    return weights * np.linalg.cond(op) * 25 * gamma(75) * np.linalg.norm(gramian)


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
