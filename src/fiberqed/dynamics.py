"""Brute-force time evolution of the five amplitude equations.

A fixed-step classical Runge-Kutta (RK4) integrator for the linear
no-detection evolution, with cumulative photon-detection probabilities per
output channel, one column per mode in model.BARE_MODES order.  It computes
the trajectories of `simulate` and is the oracle of every closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigInvalid
from .model import SystemParams, _amplitudes, bare_generator, flux_weights, normal_mode_matrix

__all__ = ["IntegratorConfig", "Trajectory", "evolve_bare", "occupations"]

# RK4 steps evaluated per dense matrix-power block
_BLOCK = 4096
# allowed excess of the RK4 step's spectral radius over 1 (see evolve_bare)
_RADIUS_MARGIN = 1e-12
# most steps a config may ask for (~13 min at 0.16-0.19 us a step, 2-core Xeon)
_STEP_BUDGET = 2**32
# most rows a config may record (~450 bytes a row at the peak of a trajectory run: ~1.9 GB)
_ROW_BUDGET = 2**22


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integration settings, checked when built (ConfigInvalid).

    dt           : step size (conjugate unit of 2*pi*MHz)
    t_max        : horizon, n_steps <= _STEP_BUDGET whole steps dt to within 1e-9 * t_max
    record_every : keep every n-th step in the output (plus the final one), so
                   ceil(n_steps / record_every) + 1 <= _ROW_BUDGET rows

    Whether dt is stable depends on the generator: see evolve_bare.
    """

    dt: float = 1e-4
    t_max: float = 1.0
    record_every: int = 1

    def __post_init__(self):
        if not (0 < self.dt < np.inf):
            raise ConfigInvalid(f"dt must be finite and > 0, got {self.dt}")
        if not (0 < self.t_max < np.inf):
            raise ConfigInvalid(f"t_max must be finite and > 0, got {self.t_max}")
        if self.dt > self.t_max:
            raise ConfigInvalid(f"dt = {self.dt} exceeds the horizon t_max = {self.t_max}")
        # numpy counts the steps in int64
        if not 1 <= self.record_every < 2**63:
            raise ConfigInvalid(f"record_every must be >= 1 and below 2**63, "
                                f"got {self.record_every}")
        if not (steps := self.t_max / self.dt) <= _STEP_BUDGET:
            raise ConfigInvalid(f"t_max = {self.t_max} over dt = {self.dt} is {steps:.3g} steps, "
                                f"over the budget of {_STEP_BUDGET:.3g}")
        if (rows := -(-self.n_steps // self.record_every) + 1) > _ROW_BUDGET:
            raise ConfigInvalid(f"recording every {self.record_every} of {self.n_steps} steps "
                                f"is {rows} rows, over the budget of {_ROW_BUDGET}")
        if abs(self.n_steps * self.dt - self.t_max) > 1e-9 * self.t_max:
            raise ConfigInvalid(
                f"t_max = {self.t_max} is not a whole number of steps dt = {self.dt}: "
                f"the last step would end at t = {self.n_steps * self.dt:.9g}"
            )

    @property
    def n_steps(self) -> int:
        """The number of steps, round(t_max / dt); >= 1, as dt <= t_max."""
        return round(self.t_max / self.dt)


@dataclass
class Trajectory:
    """Time grid, amplitude history and per-channel detection probabilities.

    states holds one row of bare amplitudes (xi1, xi2, alpha1, alpha2, beta)
    per time point; :func:`occupations` projects them onto the normal modes.
    channel_probs[:, c] is the cumulative probability that the photon was
    detected in channel c by time t, in BARE_MODES order like the entries of
    spectra.integrated_spectrum; survival is the remaining norm^2.  At every
    grid point survival + channel_probs.sum(1) = 1 up to integration error.
    params is the parameter set that was evolved.
    """

    times: np.ndarray
    states: np.ndarray
    channel_probs: np.ndarray
    survival: np.ndarray
    params: SystemParams = field(repr=False)

    def conservation_residual(self) -> float:
        """Max deviation of survival + detected from 1 over the grid."""
        detected = sum(self.channel_probs.T)  # channel by channel, in BARE_MODES order
        return float(np.abs(self.survival + detected - 1.0).max())


def evolve_bare(params: SystemParams, initial, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the bare amplitude equations from the given initial state by RK4.

    initial is array-like, 5 finite complex amplitudes in BARE_MODES order
    (ValueError otherwise).  Channel probabilities accumulate as
    dP_cav,i/dt = 2*kappa*|alpha_i|^2, dP_fib/dt = 2*kappa_b*|beta|^2 and
    dP_atom,i/dt = gamma*|xi_i|^2, so survival + detected stays at 1.

    For a linear autonomous system the classical RK4 stage amplitudes are
    fixed polynomials of the generator, so whole blocks of steps can be
    evaluated with dense matrix products; the scheme is deterministic and
    algebraically identical to the scalar step loop.  The photon flux
    weights[c] * |y_c|^2 is integrated with the same stages.

    The output bits are fixed by these operations, in this order: the
    table powers[j] = powers[j-1] @ phi as one 5x5 zgemm per power; per
    block of _BLOCK = 4096 steps one gemv, flat_powers @ y, for the
    amplitudes, one gemm each for the stages amps @ b2.T, amps @ b3.T and
    amps @ b4.T; |.|^2 as np.abs (hypot) squared; the stage sum
    a0 + 2 a1 + 2 a2 + a3, times dt / 6, times weights; a sequential cumsum
    per channel; the next block starts from y = phi @ amps[-1].  All of it
    runs in place in buffers allocated once per call.  Measured to change
    the bits, and so not used: one (L, 5) @ (5, 15) product for the three
    stages, one multi-column gemm for the amplitudes of several blocks,
    re^2 + im^2 for |.|^2, reduceat or sum for cumsum, and any other block
    length.

    A step is rejected (ConfigInvalid) when the spectral radius of the step
    matrix phi exceeds 1 by more than _RADIUS_MARGIN = 1e-12: outside its
    stability region RK4 amplifies every step, and fig3 at dt = 0.5 ends in
    overflow; a step matrix that itself overflows has radius inf.  The
    margin is for rounding, which moves the eigenvalues of phi by about
    n * eps * |phi| ~ 1e-15 (6.7e-16 on a lossless set, whose exact radius
    is at most 1).  It lets the norm grow by a factor of at most
    (1 + 1e-12)^n_steps, 1 + 1e-8 over 1e4 steps.  The recorded steps are
    allocated at once, at most _ROW_BUDGET rows (see IntegratorConfig).
    """
    gen, weights = bare_generator(params), flux_weights(params)
    y = _amplitudes(initial).copy()  # the recurrence below writes into y
    dt, n_steps = cfg.dt, cfg.n_steps
    eye = np.eye(5, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        b2 = eye + 0.5 * dt * gen
        b3 = eye + 0.5 * dt * (gen @ b2)
        b4 = eye + dt * (gen @ b3)
        phi = eye + (dt / 6.0) * (gen @ (eye + 2 * b2 + 2 * b3 + b4))
    radius = np.abs(np.linalg.eigvals(phi)).max() if np.isfinite(phi).all() else np.inf
    if not radius <= 1.0 + _RADIUS_MARGIN:
        raise ConfigInvalid(
            f"dt = {dt} is outside the RK4 stability region: the step matrix "
            f"has spectral radius 1 + {radius - 1.0:.3g}"
        )

    block = min(_BLOCK, n_steps)
    powers = np.empty((block, 5, 5), dtype=complex)
    powers[0] = eye
    views = list(powers)
    for prev, nxt in zip(views, views[1:]):
        prev.dot(phi, nxt)  # the zgemm of prev @ phi, written in place
    flat_powers = powers.reshape(block * 5, 5)

    rec_set = np.union1d(np.arange(0, n_steps + 1, cfg.record_every), n_steps)

    states = np.empty((len(rec_set), 5), dtype=complex)
    probs = np.empty((len(rec_set), 5))
    acc = np.zeros(5)
    # buffers of one block, reused: the amplitudes, one stage product, its
    # |.|^2, the flux q summed over the stages and cum[c, j], the flux of
    # channel c from step start to step start + j
    amps_buf = np.empty((block, 5), dtype=complex)
    stage_buf = np.empty_like(amps_buf)
    sq_buf, q_buf = np.empty((2, block, 5))
    cum_buf = np.zeros((5, block + 1))
    start = 0
    while start <= n_steps:
        length = min(block, n_steps + 1 - start)
        amps, stage, sq, q = (buf[:length] for buf in (amps_buf, stage_buf, sq_buf, q_buf))
        cum = cum_buf[:, : length + 1]
        np.matmul(flat_powers[: length * 5], y, out=amps.reshape(length * 5))
        # flux quadrature over the four RK4 stages of steps start .. start+length-1
        np.abs(amps, out=q)
        np.square(q, out=q)
        for w, b in ((2.0, b2), (2.0, b3), (1.0, b4)):
            np.matmul(amps, b.T, out=stage)
            np.abs(stage, out=sq)
            np.square(sq, out=sq)
            sq *= w
            q += sq
        q *= dt / 6.0
        q *= weights
        np.cumsum(q.T, axis=1, out=cum[:, 1:])
        # record the requested indices inside this window
        lo, hi = np.searchsorted(rec_set, (start, start + length))
        rows = rec_set[lo:hi] - start
        states[lo:hi] = amps[rows]
        probs[lo:hi] = acc + cum[:, rows].T
        acc += cum[:, length]
        np.matmul(phi, amps[-1], out=y)
        start += length

    times = rec_set.astype(float) * dt
    survival = np.sum(np.abs(states) ** 2, axis=1)
    return Trajectory(times, states, probs, survival, params)


def occupations(traj: Trajectory) -> np.ndarray:
    """Per-mode |amplitude|^2 series for a trajectory, one row per time point.

    The (rows, 10) columns are (*BARE_MODES, *NORMAL_MODES), the column
    order of the trajectory CSV: the five physical occupations, then the
    five normal-mode occupations, projected with :func:`normal_mode_matrix`.
    g = v = 0 has no normal basis and raises its ValueError.
    """
    normal = traj.states @ normal_mode_matrix(traj.params).T
    return np.abs(np.concatenate([traj.states, normal], axis=1)) ** 2
