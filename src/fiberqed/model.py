"""Physical parameters, mode orderings, derived decay rates and generators.

The system is a pair of atom-cavity units linked by a single fiber mode:
five coupled oscillators carrying at most one excitation.  A state is a
complex array of five amplitudes, in BARE_MODES order over the physical
modes or NORMAL_MODES order over the normal modes; normal_mode_matrix T
maps the first to the second (normal = T @ bare, bare = T.T @ normal).
All rates and coupling strengths are stored in angular units of
2*pi*MHz (the numbers quoted in the figure captions), and times are in
the conjugate unit so that ``exp(-rate * t)`` uses the stored values
directly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "BARE_MODES",
    "NORMAL_MODES",
    "SystemParams",
    "DerivedRates",
    "single_excitation",
    "derive_rates",
    "flux_weights",
    "normal_mode_matrix",
    "mode_matrices",
    "bare_generator",
    "normal_generator",
    "symmetric_generator",
]

# physical modes in amplitude order; each is also the name of its decay channel
BARE_MODES = ("atom1", "atom2", "cavity1", "cavity2", "fiber")
# normal modes in amplitude order (S+, S-, A+, A-, D)
NORMAL_MODES = ("bs_plus", "bs_minus", "fd_plus", "fd_minus", "cd")
# normal coordinates (S+, S-, A+, A-, D) of the symmetric and anti-symmetric blocks
SYM_ROWS, ANTI_ROWS = [0, 1, 4], [2, 3]
# Every rate must lie below this bound.  The intermediates of
# eigen._cubic_coefficients are homogeneous in the rates, of degree at most
# 6; with every rate at most R the largest, the discriminant, peaks at
# 1.03 R^6 (g = v = kappa = R, kappa_b = 0.65 R, gamma = 0), so below
# (float max / 2)^(1/6) = 2.1e51 none of them overflows.
_RATE_BOUND = float(np.finfo(float).max / 2) ** (1 / 6)


@dataclass(frozen=True)
class SystemParams:
    """The rates of two identical, resonant atom-cavity units and their fiber.

    All in units of 2*pi*MHz; each unit has the same g, v and kappa.
    g       : atom-cavity coupling strength
    v       : fiber-cavity coupling strength
    kappa   : cavity field decay rate
    kappa_b : fiber field decay rate
    gamma   : atomic energy decay rate
    """

    g: float
    v: float
    kappa: float
    kappa_b: float
    gamma: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"{f.name} must be finite and >= 0, got {value}")
            if value >= _RATE_BOUND:
                raise ValueError(f"{f.name} must be below {_RATE_BOUND:.3g}, where the "
                                 f"cubic of the symmetric block overflows, got {value}")
            # a Python float for any number type, as eigen.full_decompositions'
            # first rule needs; + 0.0 stores -0 as +0.0, so a header prints 0
            object.__setattr__(self, f.name, float(value) + 0.0)


def single_excitation(mode: str) -> np.ndarray:
    """Bare amplitudes with one excitation in the named mode."""
    if mode not in BARE_MODES:
        raise ValueError(f"unknown mode {mode!r}; choose from {sorted(BARE_MODES)}")
    return np.eye(5, dtype=complex)[BARE_MODES.index(mode)]


def _amplitudes(initial) -> np.ndarray:
    """initial as a complex array of 5 finite amplitudes, else ValueError."""
    amps = np.asarray(initial, dtype=complex)
    if amps.shape != (5,) or not np.isfinite(amps).all():
        raise ValueError(f"initial state must be 5 finite amplitudes, got {amps!r}")
    return amps


@dataclass(frozen=True)
class DerivedRates:
    """Normal-mode splitting, oscillation parameter and decay rates.

    zeta : bright-state splitting sqrt(g^2 + 2 v^2)
    p    : anti-symmetric manifold oscillation parameter
           sqrt(g^2 - (Gamma_A-/2)^2); stored complex, Im(p) >= 0 when
           overdamped so the critical point is crossed continuously
    gamma_s_plus / gamma_s_minus : bright-state decay / cross-damping
    gamma_a_plus / gamma_a_minus : fiber-dark decay / cross-damping
    gamma_sd : bright <-> cavity-dark coupling rate
    gamma_d  : cavity-dark decay rate
    """

    zeta: float
    p: complex
    gamma_s_plus: float
    gamma_s_minus: float
    gamma_a_plus: float
    gamma_a_minus: float
    gamma_sd: float
    gamma_d: float


def derive_rates(params: SystemParams) -> DerivedRates:
    """Decay rates of the five normal modes."""
    g, v = params.g, params.v
    kappa, kappa_b, gamma = params.kappa, params.kappa_b, params.gamma
    zeta_sq = g * g + 2 * v * v
    if zeta_sq == 0.0:
        raise ValueError("normal modes are undefined when g = v = 0" if g == v == 0 else
                         f"g^2 + 2 v^2 underflows to 0 at g = {g}, v = {v}, so the "
                         "normal modes are undefined")
    zeta = np.sqrt(zeta_sq)
    mix = (g * g * gamma / 2 + 2 * v * v * kappa_b) / zeta_sq
    gamma_a_minus = gamma / 2 - kappa
    # branch: p real when underdamped, positive imaginary when overdamped
    p = np.sqrt(complex(g * g - (gamma_a_minus / 2) ** 2))
    return DerivedRates(
        zeta=float(zeta),
        p=complex(p),
        gamma_s_plus=mix + kappa,
        gamma_s_minus=mix - kappa,
        gamma_a_plus=gamma / 2 + kappa,
        gamma_a_minus=gamma_a_minus,
        gamma_sd=(gamma / 2 - kappa_b) * v * g / zeta_sq,
        gamma_d=(gamma * v * v + g * g * kappa_b) / zeta_sq,
    )


def flux_weights(params: SystemParams) -> np.ndarray:
    """Photon flux per unit |amplitude|^2 of each channel, in BARE_MODES order.

    gamma*|xi|^2 for the atoms and 2*kappa*|alpha|^2 for the fields: an
    amplitude decay rate kappa implies an energy flux 2*kappa*|alpha|^2.
    """
    cavity = 2 * params.kappa
    return np.array([params.gamma, params.gamma, cavity, cavity, 2 * params.kappa_b])


def normal_mode_matrix(params: SystemParams) -> np.ndarray:
    """Orthogonal map from bare to normal amplitudes.

    Rows are (S+, S-, A+, A-, D) expressed over columns
    (xi1, xi2, alpha1, alpha2, beta); the inverse map is the transpose.
    Kept beside the stacked :func:`mode_matrices` for a point known by its params.
    """
    return mode_matrices(params.g, params.v, derive_rates(params).zeta)


def mode_matrices(g, v, zeta) -> np.ndarray:
    """:func:`normal_mode_matrix` from g, v and zeta; arrays give a stack (..., 5, 5)."""
    g, v, zeta = np.broadcast_arrays(g, v, zeta)
    gz = g / (2 * zeta)
    vz = v / zeta
    half = np.full(g.shape, 0.5)
    zero = np.zeros(g.shape)
    return np.stack(
        [
            gz, gz, half, half, vz,
            gz, gz, -half, -half, vz,
            half, -half, half, -half, zero,
            half, -half, -half, half, zero,
            -vz, -vz, zero, zero, g / zeta,
        ],
        axis=-1,
    ).reshape(g.shape + (5, 5))


def bare_generator(params: SystemParams) -> np.ndarray:
    """Matrix form of the bare amplitude equations."""
    g, v, kappa, kb, gam = params.g, params.v, params.kappa, params.kappa_b, params.gamma
    return np.array(
        [
            [-gam / 2, 0, -1j * g, 0, 0],
            [0, -gam / 2, 0, -1j * g, 0],
            [-1j * g, 0, -kappa, 0, -1j * v],
            [0, -1j * g, 0, -kappa, -1j * v],
            [0, 0, -1j * v, -1j * v, -kb],
        ],
        dtype=complex,
    )


def normal_generator(params: SystemParams) -> np.ndarray:
    """Matrix form of the normal-mode amplitude equations, rows (S+,S-,A+,A-,D).

    The symmetric block sits on SYM_ROWS and the anti-symmetric (A+, A-)
    block on ANTI_ROWS.  Sign convention: dS+/dt and dS-/dt gain
    +Gamma_SD * D, and dD/dt = -Gamma_D * D + Gamma_SD * (S+ + S-).
    Kept next to its stacked symmetric block :func:`symmetric_generator`
    as the one dense form of the normal-mode equations.
    """
    r = derive_rates(params)
    g, gp, gm = params.g, r.gamma_a_plus, r.gamma_a_minus
    gen = np.zeros((5, 5), dtype=complex)
    gen[np.ix_(SYM_ROWS, SYM_ROWS)] = symmetric_generator(
        r.zeta, r.gamma_s_plus, r.gamma_s_minus, r.gamma_sd, r.gamma_d
    )
    gen[np.ix_(ANTI_ROWS, ANTI_ROWS)] = [
        [-(1j * g + gp / 2), -gm / 2],
        [-gm / 2, 1j * g - gp / 2],
    ]
    return gen


def symmetric_generator(zeta, gamma_s_plus, gamma_s_minus, gamma_sd, gamma_d) -> np.ndarray:
    """The (S+, S-, D) block of :func:`normal_generator` from the derived rates.

    Array arguments give a stack of blocks, shape (..., 3, 3).
    """
    zeta, gsp, gsm, gsd, gd = np.broadcast_arrays(
        zeta, gamma_s_plus, gamma_s_minus, gamma_sd, gamma_d
    )
    gen = np.zeros(zeta.shape + (3, 3), dtype=complex)
    gen[..., 0, 0] = -(1j * zeta + gsp / 2)
    gen[..., 1, 1] = 1j * zeta - gsp / 2
    gen[..., 0, 1] = gen[..., 1, 0] = -gsm / 2
    gen[..., 0, 2] = gen[..., 1, 2] = gen[..., 2, 0] = gen[..., 2, 1] = gsd
    gen[..., 2, 2] = -gd
    return gen
