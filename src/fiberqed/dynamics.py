"""Brute-force time evolution of the five amplitude equations.

This module is the numerical oracle for every closed-form result in the
package: a fixed-step classical Runge-Kutta (RK4) integrator for the
linear no-detection evolution, with cumulative photon-detection
probabilities accumulated per output channel alongside the amplitudes.
Each decay channel is named after its mode in model.BARE_MODES.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigInvalid
from .model import (
    BARE_MODES,
    NORMAL_MODES,
    SystemParams,
    _amplitudes,
    derive_rates,
    flux_weights,
    normal_mode_matrix,
)

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "bare_generator",
    "normal_generator",
    "symmetric_generator",
    "evolve_bare",
    "occupations",
]

# normal coordinates (S+, S-, A+, A-, D) of the symmetric and anti-symmetric blocks
SYM_ROWS, ANTI_ROWS = [0, 1, 4], [2, 3]
# RK4 steps evaluated per dense matrix-power block
_BLOCK = 4096
# allowed excess of the RK4 step's spectral radius over 1 (see _integrate)
_RADIUS_MARGIN = 1e-12


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
        if self.dt > self.t_max:
            raise ConfigInvalid(f"dt = {self.dt} exceeds the horizon t_max = {self.t_max}")
        if self.record_every < 1:
            raise ConfigInvalid(f"record_every must be >= 1, got {self.record_every}")


@dataclass
class Trajectory:
    """Time grid, amplitude history and per-channel detection probabilities.

    states holds one row of bare amplitudes (xi1, xi2, alpha1, alpha2, beta)
    per time point; :func:`occupations` projects them onto the normal modes.
    channel_probs maps each decay channel to the cumulative probability
    that the photon was detected there by time t; survival is the remaining
    norm^2.  At every grid point survival + sum(channel_probs) = 1 up to
    integration error.  params is the parameter set that was evolved.
    """

    times: np.ndarray
    states: np.ndarray
    channel_probs: dict
    survival: np.ndarray
    params: SystemParams = field(repr=False)

    def conservation_residual(self) -> float:
        """Max deviation of survival + detected from 1 over the grid."""
        detected = sum(self.channel_probs[c] for c in BARE_MODES)
        return float(np.abs(self.survival + detected - 1.0).max())


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

    The symmetric block sits on SYM_ROWS and the anti-symmetric (A+, A-)
    block on ANTI_ROWS.  Sign convention: dS+/dt and dS-/dt gain
    +Gamma_SD * D, and dD/dt = -Gamma_D * D + Gamma_SD * (S+ + S-).
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


def _integrate(gen, y0, cfg, weights):
    """Blocked classical RK4 for dy/dt = gen @ y with flux accumulation.

    For a linear autonomous system the RK4 stage amplitudes are fixed
    polynomials of the generator, so whole blocks of steps can be evaluated
    with dense matrix products; the scheme is deterministic and
    algebraically identical to the scalar step loop.  The photon flux
    weights[c] * |y_c|^2 is integrated with the same stages.

    A step is rejected (ConfigInvalid) when the spectral radius of the step
    matrix phi exceeds 1 by more than _RADIUS_MARGIN = 1e-12: outside its
    stability region RK4 amplifies every step, and fig3 at dt = 0.5 ends in
    overflow.  The margin is for rounding, which moves the eigenvalues of
    phi by about n * eps * |phi| ~ 1e-15 (6.7e-16 on a lossless set, whose
    exact radius is at most 1).  It lets the norm grow by a factor of at
    most (1 + 1e-12)^n_steps, 1 + 1e-8 over 1e4 steps.  A stable step must
    also divide the horizon: n_steps = round(t_max / dt) steps have to end
    within 1e-9 * t_max of t_max (ConfigInvalid otherwise), or the last row
    would not be the horizon.
    """
    cfg.validate()
    dt = cfg.dt
    n_steps = max(1, int(round(cfg.t_max / dt)))
    eye = np.eye(5, dtype=complex)
    b2 = eye + 0.5 * dt * gen
    b3 = eye + 0.5 * dt * (gen @ b2)
    b4 = eye + dt * (gen @ b3)
    phi = eye + (dt / 6.0) * (gen @ (eye + 2 * b2 + 2 * b3 + b4))
    radius = np.abs(np.linalg.eigvals(phi)).max()
    if not radius <= 1.0 + _RADIUS_MARGIN:
        raise ConfigInvalid(
            f"dt = {dt} is outside the RK4 stability region: the step matrix "
            f"has spectral radius 1 + {radius - 1.0:.3g}"
        )
    if abs(n_steps * dt - cfg.t_max) > 1e-9 * cfg.t_max:
        raise ConfigInvalid(
            f"t_max = {cfg.t_max} is not a whole number of steps dt = {dt}: "
            f"the last step would end at t = {n_steps * dt:.9g}"
        )

    block = min(_BLOCK, n_steps)
    powers = np.empty((block, 5, 5), dtype=complex)
    powers[0] = eye
    for j in range(1, block):
        powers[j] = powers[j - 1] @ phi
    flat_powers = powers.reshape(block * 5, 5)

    rec_set = np.arange(0, n_steps + 1, cfg.record_every)
    if rec_set[-1] != n_steps:
        rec_set = np.append(rec_set, n_steps)

    states = np.empty((len(rec_set), 5), dtype=complex)
    probs = np.empty((len(rec_set), 5))
    y = y0.astype(complex)
    acc = np.zeros(5)
    start = 0
    while start <= n_steps:
        length = min(block, n_steps + 1 - start)
        amps = (flat_powers[: length * 5] @ y).reshape(length, 5)
        # flux quadrature over the four RK4 stages of steps start .. start+length-1
        stages = (amps, amps @ b2.T, amps @ b3.T, amps @ b4.T)
        q = sum(w * np.abs(s) ** 2 for w, s in zip((1.0, 2.0, 2.0, 1.0), stages))
        # cum[j]: flux detected from step start to step start + j
        cum = np.zeros((length + 1, 5))
        np.cumsum((dt / 6.0) * q * weights[None, :], axis=0, out=cum[1:])
        # record the requested indices inside this window
        lo, hi = np.searchsorted(rec_set, (start, start + length))
        rows = rec_set[lo:hi] - start
        states[lo:hi] = amps[rows]
        probs[lo:hi] = acc + cum[rows]
        acc += cum[-1]
        y = phi @ amps[-1]
        start += length

    times = rec_set.astype(float) * dt
    survival = np.sum(np.abs(states) ** 2, axis=1)
    channel_probs = {name: probs[:, i] for i, name in enumerate(BARE_MODES)}
    return times, states, channel_probs, survival


def evolve_bare(params: SystemParams, initial, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the bare amplitude equations from the given initial state.

    initial is array-like, 5 finite complex amplitudes in BARE_MODES order
    (ValueError otherwise).  Works for asymmetric parameters.  Channel
    probabilities accumulate as dP_cav,i/dt = 2*kappa_i*|alpha_i|^2,
    dP_fib/dt = 2*kappa_b*|beta|^2 and dP_atom,i/dt = gamma*|xi_i|^2, so
    survival + detected stays at 1.
    """
    times, states, probs, surv = _integrate(
        bare_generator(params), _amplitudes(initial), cfg, flux_weights(params)
    )
    return Trajectory(times, states, probs, surv, params)


def occupations(traj: Trajectory) -> dict:
    """Per-mode |amplitude|^2 series for a trajectory.

    Always returns the five physical occupations; for symmetric parameters
    the five normal-mode occupations are included as well (keys
    NORMAL_MODES), projected with :func:`normal_mode_matrix`.
    """
    result = {k: np.abs(traj.states[:, i]) ** 2 for i, k in enumerate(BARE_MODES)}
    if traj.params.symmetric():
        try:
            normal = traj.states @ normal_mode_matrix(traj.params).T
        except ValueError:  # g = v = 0: no normal basis
            return result
        result.update({k: np.abs(normal[:, i]) ** 2 for i, k in enumerate(NORMAL_MODES)})
    return result
