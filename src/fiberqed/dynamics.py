"""Brute-force time evolution of the five amplitude equations.

This module is the numerical oracle for every closed-form result in the
package: a fixed-step classical Runge-Kutta (RK4) integrator for the
linear no-detection evolution, with cumulative photon-detection
probabilities accumulated per output channel alongside the amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigInvalid
from .model import (
    BARE_MODES,
    NORMAL_MODES,
    BareState,
    NormalState,
    SystemParams,
    derive_rates,
    normal_mode_matrix,
)

__all__ = [
    "CHANNELS",
    "IntegratorConfig",
    "Trajectory",
    "bare_generator",
    "normal_generator",
    "symmetric_generator",
    "evolve_bare",
    "evolve_normal",
    "occupations",
]

CHANNELS = BARE_MODES
# normal coordinates (S+, S-, A+, A-, D) of the symmetric and anti-symmetric blocks
SYM_ROWS, ANTI_ROWS = [0, 1, 4], [2, 3]


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integration settings.

    dt           : step size (conjugate unit of 2*pi*MHz)
    t_max        : integration horizon
    record_every : keep every n-th step in the output (plus the final one)
    """

    dt: float = 1e-4
    t_max: float = 1.0
    record_every: int = 1

    def validate(self) -> None:
        if not (0 < self.dt < np.inf):
            raise ConfigInvalid(f"dt must be finite and > 0, got {self.dt}")
        if not (0 < self.t_max < np.inf):
            raise ConfigInvalid(f"t_max must be finite and > 0, got {self.t_max}")
        if self.record_every < 1:
            raise ConfigInvalid(f"record_every must be >= 1, got {self.record_every}")


@dataclass
class Trajectory:
    """Time grid, amplitude history and per-channel detection probabilities.

    states holds one amplitude row per time point; in the 'bare' basis the
    columns are (xi1, xi2, alpha1, alpha2, beta), in the 'normal' basis
    (S+, S-, A+, A-, D).  channel_probs maps each decay channel to the
    cumulative probability that the photon was detected there by time t;
    survival is the remaining norm^2.  At every grid point
    survival + sum(channel_probs) = 1 up to integration error.
    """

    times: np.ndarray
    states: np.ndarray
    channel_probs: dict
    survival: np.ndarray
    basis: str
    params: SystemParams = field(repr=False, default=None)

    def detected_total(self) -> np.ndarray:
        return sum(self.channel_probs[c] for c in CHANNELS)

    def conservation_residual(self) -> float:
        """Max deviation of survival + detected from 1 over the grid."""
        return float(np.abs(self.survival + self.detected_total() - 1.0).max())


def bare_generator(params: SystemParams) -> np.ndarray:
    """Matrix form of the bare amplitude equations (asymmetric allowed)."""
    g1, g2, v1, v2 = params.g1, params.g2, params.v1, params.v2
    k1, k2, kb, gam = params.kappa1, params.kappa2, params.kappa_b, params.gamma
    return np.array(
        [
            [-gam / 2, 0, -1j * g1, 0, 0],
            [0, -gam / 2, 0, -1j * g2, 0],
            [-1j * g1, 0, -k1, 0, -1j * v1],
            [0, -1j * g2, 0, -k2, -1j * v2],
            [0, 0, -1j * v1, -1j * v2, -kb],
        ],
        dtype=complex,
    )


def normal_generator(params: SystemParams) -> np.ndarray:
    """Matrix form of the normal-mode amplitude equations, rows (S+,S-,A+,A-,D).

    Sign convention: dS+/dt and dS-/dt gain +Gamma_SD * D, and
    dD/dt = -Gamma_D * D + Gamma_SD * (S+ + S-).
    """
    r = derive_rates(params)
    g = params.g
    gen = np.array(
        [
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
            [0, 0, -(1j * g + r.gamma_a_plus / 2), -r.gamma_a_minus / 2, 0],
            [0, 0, -r.gamma_a_minus / 2, 1j * g - r.gamma_a_plus / 2, 0],
            [0, 0, 0, 0, 0],
        ],
        dtype=complex,
    )
    gen[np.ix_(SYM_ROWS, SYM_ROWS)] = symmetric_generator(
        r.zeta, r.gamma_s_plus, r.gamma_s_minus, r.gamma_sd, r.gamma_d
    )
    return gen


def symmetric_generator(zeta, gamma_s_plus, gamma_s_minus, gamma_sd, gamma_d) -> np.ndarray:
    """The (S+, S-, D) block of :func:`normal_generator` from the derived rates.

    Array arguments give a stack of blocks, shape (..., 3, 3).  The entries
    are the bits of the complex scalar expressions
    -(i zeta + Gamma_S+/2), i zeta - Gamma_S+/2 and the real rates.
    """
    zeta, gsp, gsm, gsd, gd = np.broadcast_arrays(
        zeta, gamma_s_plus, gamma_s_minus, gamma_sd, gamma_d
    )
    gen = np.zeros(zeta.shape + (3, 3), dtype=complex)
    re, im = gen.real, gen.imag
    re[..., 0, 0] = -(gsp / 2)
    im[..., 0, 0] = -zeta
    re[..., 1, 1] = 0.0 - gsp / 2
    im[..., 1, 1] = zeta
    re[..., 0, 1] = re[..., 1, 0] = -gsm / 2
    re[..., 0, 2] = re[..., 1, 2] = re[..., 2, 0] = re[..., 2, 1] = gsd
    re[..., 2, 2] = -gd
    return gen


def _flux_weights(params: SystemParams) -> np.ndarray:
    # photon flux per channel: gamma*|xi|^2 for atoms, 2*kappa*|alpha|^2 for
    # fields (amplitude decay kappa implies energy flux 2*kappa*|alpha|^2)
    return np.array(
        [
            params.gamma,
            params.gamma,
            2 * params.kappa1,
            2 * params.kappa2,
            2 * params.kappa_b,
        ]
    )


def _integrate(gen, y0, cfg, weights, to_bare, block=4096):
    """Blocked classical RK4 for dy/dt = gen @ y with flux accumulation.

    For a linear autonomous system the RK4 stage amplitudes are fixed
    polynomials of the generator, so whole blocks of steps can be evaluated
    with dense matrix products; the scheme is deterministic and
    algebraically identical to the scalar step loop.
    """
    cfg.validate()
    dt = cfg.dt
    n_steps = max(1, int(round(cfg.t_max / dt)))
    eye = np.eye(5, dtype=complex)
    b2 = eye + 0.5 * dt * gen
    b3 = eye + 0.5 * dt * (gen @ b2)
    b4 = eye + dt * (gen @ b3)
    phi = eye + (dt / 6.0) * (gen @ (eye + 2 * b2 + 2 * b3 + b4))
    # flux is evaluated on the physical (bare) amplitudes at each RK4 stage
    stage_maps = [to_bare, to_bare @ b2, to_bare @ b3, to_bare @ b4]
    stage_w = (1.0, 2.0, 2.0, 1.0)

    block = min(block, n_steps)
    powers = np.empty((block, 5, 5), dtype=complex)
    powers[0] = eye
    for j in range(1, block):
        powers[j] = powers[j - 1] @ phi
    flat_powers = powers.reshape(block * 5, 5)

    rec_idx = list(range(0, n_steps + 1, cfg.record_every))
    if rec_idx[-1] != n_steps:
        rec_idx.append(n_steps)
    rec_set = np.array(rec_idx)

    states = np.empty((len(rec_idx), 5), dtype=complex)
    probs = np.empty((len(rec_idx), 5))
    y = y0.astype(complex)
    acc = np.zeros(5)
    start = 0
    while start <= n_steps:
        length = min(block, n_steps + 1 - start)
        amps = (flat_powers[: length * 5] @ y).reshape(length, 5)
        # flux quadrature for steps start .. start+length-1
        q = np.zeros((length, 5))
        for w, smap in zip(stage_w, stage_maps):
            q += w * np.abs(amps @ smap.T) ** 2
        incr = (dt / 6.0) * q * weights[None, :]
        cum = np.cumsum(incr, axis=0)
        # record any requested indices inside this window
        lo = np.searchsorted(rec_set, start)
        hi = np.searchsorted(rec_set, start + length)
        for k in range(lo, hi):
            j = rec_set[k] - start
            states[k] = amps[j]
            probs[k] = acc + (cum[j - 1] if j > 0 else 0.0)
        acc += cum[-1]
        y = phi @ amps[-1]
        start += length

    times = rec_set.astype(float) * dt
    survival = np.sum(np.abs(states) ** 2, axis=1)
    channel_probs = {name: probs[:, i] for i, name in enumerate(CHANNELS)}
    return times, states, channel_probs, survival


def evolve_bare(
    params: SystemParams, initial: BareState, cfg: IntegratorConfig
) -> Trajectory:
    """Integrate the bare amplitude equations from the given initial state.

    Works for asymmetric parameters.  Channel probabilities accumulate as
    dP_cav,i/dt = 2*kappa_i*|alpha_i|^2, dP_fib/dt = 2*kappa_b*|beta|^2 and
    dP_atom,i/dt = gamma*|xi_i|^2, so survival + detected stays at 1.
    """
    times, states, probs, surv = _integrate(
        bare_generator(params),
        initial.to_array(),
        cfg,
        _flux_weights(params),
        np.eye(5),
    )
    return Trajectory(times, states, probs, surv, "bare", params)


def evolve_normal(
    params: SystemParams, initial: NormalState, cfg: IntegratorConfig
) -> Trajectory:
    """Integrate the normal-mode equations directly (symmetric case only)."""
    params.require_symmetric()
    to_bare = normal_mode_matrix(params).T
    times, states, probs, surv = _integrate(
        normal_generator(params),
        initial.to_array(),
        cfg,
        _flux_weights(params),
        to_bare,
    )
    return Trajectory(times, states, probs, surv, "normal", params)


def occupations(traj: Trajectory) -> dict:
    """Per-mode |amplitude|^2 series for a trajectory.

    Always returns the five physical occupations; for symmetric parameters
    the five normal-mode occupations are included as well (keys
    NORMAL_MODES).
    """
    if traj.basis == "bare":
        bare = traj.states
        normal = None
        if traj.params is not None and traj.params.symmetric():
            try:
                normal = traj.states @ normal_mode_matrix(traj.params).T
            except ValueError:  # g = v = 0: no normal basis
                normal = None
    elif traj.basis == "normal":
        normal = traj.states
        bare = traj.states @ normal_mode_matrix(traj.params)
    else:
        raise ValueError(f"unknown trajectory basis {traj.basis!r}")

    result = {k: np.abs(bare[:, i]) ** 2 for i, k in enumerate(BARE_MODES)}
    if normal is not None:
        result.update({k: np.abs(normal[:, i]) ** 2 for i, k in enumerate(NORMAL_MODES)})
    return result
