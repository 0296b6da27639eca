"""Brute-force integrator: conservation, convergence order and cross-checks."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from fiberqed import (
    ConfigInvalid,
    IntegratorConfig,
    SystemParams,
    bare_generator,
    derive_rates,
    evolve_bare,
    normal_generator,
    normal_mode_matrix,
    occupations,
    single_excitation,
)
from fiberqed.dynamics import _integrate
from fiberqed.model import BARE_MODES, NORMAL_MODES, flux_weights

from conftest import ALL_FIGURE_SETS, FIG3, FIG4, FIG5, FIG8, GAMMA, atom1_oracle, caption_params

ATOM1 = single_excitation("atom1")


def test_generator_matches_amplitude_equations():
    # columns of the generator are the instantaneous derivatives
    gen = bare_generator(FIG3)
    dxdt = gen @ ATOM1
    assert dxdt[0] == -GAMMA / 2        # xi1' = -gamma/2 xi1
    assert dxdt[2] == -1j * FIG3.g      # alpha1' = -i g xi1
    assert dxdt[1] == dxdt[3] == dxdt[4] == 0


def test_decoupled_atom_decays_exponentially():
    params = SystemParams(g=0, v=0, kappa=1, kappa_b=0.01, gamma=GAMMA)
    traj = evolve_bare(params, ATOM1, IntegratorConfig(dt=1e-3, t_max=2.0))
    expected = np.exp(-GAMMA * traj.times / 2)
    assert np.abs(traj.states[:, 0] - expected).max() < 1e-10
    assert np.abs(traj.states[:, 1:]).max() == 0.0


def test_conservation_and_monotonicity():
    traj = atom1_oracle(FIG4, t_max=5.0, record_every=10)
    assert traj.conservation_residual() < 1e-9
    assert np.all(np.diff(traj.survival) <= 1e-12)
    assert np.all(np.diff(traj.channel_probs, axis=0) >= -1e-15)


# atom-dominated, fiber-dominated, fiber only (g = 0), atoms only (v = 0), uncoupled
@pytest.mark.parametrize("g, v", [(50.0, 1.0), (2.0, 50.0), (0.0, 3.0), (2.0, 0.0), (0.0, 0.0)])
def test_occupations_have_normal_modes_unless_uncoupled(g, v):
    params = SystemParams(g=g, v=v, kappa=1.0, kappa_b=0.01, gamma=GAMMA)
    traj = evolve_bare(params, ATOM1, IntegratorConfig(dt=1e-3, t_max=0.5))
    if g == v == 0:  # no normal basis: the error of every normal-mode quantity
        with pytest.raises(ValueError, match="normal modes are undefined when g = v = 0"):
            occupations(traj)
        return
    occ = occupations(traj)
    assert occ.shape == (len(traj.times), len(BARE_MODES) + len(NORMAL_MODES))
    assert np.array_equal(occ[:, :5], np.abs(traj.states) ** 2)
    # the normal basis is orthogonal: it shares the bare norm at every time
    bare = occ[:, :5].sum(axis=1)
    assert np.abs(occ[:, 5:].sum(axis=1) - bare).max() < 1e-14


def test_richardson_fourth_order():
    # halving dt should shrink the conservation residual ~16x
    cfg_coarse = IntegratorConfig(dt=4e-3, t_max=2.0)
    cfg_fine = IntegratorConfig(dt=2e-3, t_max=2.0)
    err_coarse = evolve_bare(FIG4, ATOM1, cfg_coarse).conservation_residual()
    err_fine = evolve_bare(FIG4, ATOM1, cfg_fine).conservation_residual()
    assert err_coarse / err_fine > 8.0


def test_linearity():
    cfg = IntegratorConfig(dt=1e-3, t_max=1.0, record_every=100)
    base = evolve_bare(FIG4, ATOM1, cfg)
    c = complex(0.3 - 0.4j)
    scaled = evolve_bare(FIG4, c * ATOM1, cfg)
    assert np.abs(scaled.states - c * base.states).max() < 1e-12


def test_against_scipy_reference():
    # independent integrator as a sanity oracle for the oracle
    gen = bare_generator(FIG4)
    sol = solve_ivp(
        lambda t, y: gen @ y,
        (0.0, 2.0),
        ATOM1,
        rtol=1e-11,
        atol=1e-12,
        t_eval=np.linspace(0, 2, 21),
    )
    traj = evolve_bare(FIG4, ATOM1, IntegratorConfig(dt=1e-4, t_max=2.0, record_every=1000))
    assert np.abs(traj.states - sol.y.T).max() < 1e-6


def _random_symmetric(rng, n):
    # log-uniform couplings over 0.1-100 and rates over 0.01-10
    for _ in range(n):
        g, v = 10 ** rng.uniform(-1, 2, size=2)
        kappa, kappa_b, gamma = 10 ** rng.uniform(-2, 1, size=3)
        yield SystemParams(g=g, v=v, kappa=kappa, kappa_b=kappa_b, gamma=gamma)


def test_normal_generator_is_bare_generator_in_normal_basis(rng):
    # The normal picture is the orthogonal change of basis T: N = T G T^T.
    # Each entry of T G T^T sums 25 products of entries with |T| <= 1, so
    # rounding stays below 25 eps max|G|; the rates inside N add a few eps.
    # Bound: 32 eps = 7.1e-15 relative to max|G|; these sets measure 4.4e-16.
    bound = 32 * np.finfo(float).eps
    sets = [*ALL_FIGURE_SETS.values(), *_random_symmetric(rng, 200)]
    worst = 0.0
    for params in sets:
        gen = bare_generator(params)
        t = normal_mode_matrix(params)
        err = np.abs(t @ gen @ t.T - normal_generator(params)).max() / np.abs(gen).max()
        worst = max(worst, err)
    print(f"max relative |T G T^T - N| = {worst:.2e} (bound {bound:.2e})")
    assert worst <= bound


def test_decoupled_dark_mode():
    # kappa_b = gamma/2 turns off the bright <-> dark coupling
    params = SystemParams(g=3, v=7, kappa=1, kappa_b=GAMMA / 2, gamma=GAMMA)
    rates = derive_rates(params)
    assert rates.gamma_sd == 0.0
    cfg = IntegratorConfig(dt=1e-4, t_max=2.0, record_every=20)
    dark = normal_mode_matrix(params).T @ np.array([0, 0, 0, 0, 1], dtype=complex)
    traj = evolve_bare(params, dark, cfg)
    normal = traj.states @ normal_mode_matrix(params).T
    assert np.abs(normal[:, 4] - np.exp(-rates.gamma_d * traj.times)).max() < 1e-10
    assert np.abs(normal[:, :2]).max() < 1e-14


def test_recorded_rows_are_the_full_run_at_those_steps():
    # 10 000 steps span three 4096-step blocks; the final step is appended
    every = atom1_oracle(FIG4, t_max=1.0)
    sparse = atom1_oracle(FIG4, t_max=1.0, record_every=7)
    rows = np.append(np.arange(0, 10001, 7), 10000)
    assert rows[-2:].tolist() == [9996, 10000]
    assert np.array_equal(sparse.times, every.times[rows])
    assert np.array_equal(sparse.states, every.states[rows])
    assert np.array_equal(sparse.channel_probs, every.channel_probs[rows])


def test_fig4_bright_states_stay_dark():
    traj = atom1_oracle(FIG4, t_max=4.0, record_every=10)
    bs_plus, bs_minus = occupations(traj)[:, 5:7].T  # after the five bare modes
    assert bs_plus.max() < 1e-2
    assert bs_minus.max() < 1e-2


def test_fig5_fiber_becomes_significant():
    traj = atom1_oracle(FIG5, t_max=2.0, dt=5e-5, record_every=10)
    assert occupations(traj)[:, BARE_MODES.index("fiber")].max() > 0.1


def test_occupations_initial_point_and_lossless_sum():
    traj = atom1_oracle(FIG3, t_max=0.5, record_every=100)
    atom1, atom2, cavity1, cavity2, fiber = occupations(traj)[0, :5]
    assert atom1 == pytest.approx(1.0)
    assert atom2 + cavity1 + cavity2 + fiber == 0.0

    lossless = SystemParams(g=5, v=3, kappa=0, kappa_b=0, gamma=0)
    traj = evolve_bare(lossless, ATOM1, IntegratorConfig(dt=1e-4, t_max=3.0, record_every=50))
    occ = occupations(traj)  # columns (*BARE_MODES, *NORMAL_MODES)
    total = sum(occ[:, :5].T)
    assert np.abs(total - 1.0).max() < 1e-10
    normal_total = sum(occ[:, 5:].T)
    assert np.abs(normal_total - 1.0).max() < 1e-10


@pytest.mark.parametrize(
    "cfg",
    [
        IntegratorConfig(dt=0.0, t_max=1.0),
        IntegratorConfig(dt=1e-4, t_max=0.0),
        IntegratorConfig(dt=1e-4, t_max=1.0, record_every=0),
        IntegratorConfig(dt=1.0, t_max=0.1),  # would step past the horizon
        IntegratorConfig(dt=0.06, t_max=24.0),  # RK4 step radius 1 + 0.344 on FIG3
        IntegratorConfig(dt=0.04, t_max=0.1),  # round(2.5) = 2 steps would end at t = 0.08
    ],
)
def test_invalid_config_rejected(cfg):
    with pytest.raises(ConfigInvalid):
        evolve_bare(FIG3, ATOM1, cfg)


def _reference_integrate(gen, y0, cfg, weights):
    """The RK4 block loop as first written (one new array per product).

    dynamics._integrate must give its bits: it makes the same BLAS calls
    and elementwise operations in the same order, into reused buffers.
    """
    dt = cfg.dt
    n_steps = max(1, int(round(cfg.t_max / dt)))
    eye = np.eye(5, dtype=complex)
    b2 = eye + 0.5 * dt * gen
    b3 = eye + 0.5 * dt * (gen @ b2)
    b4 = eye + dt * (gen @ b3)
    phi = eye + (dt / 6.0) * (gen @ (eye + 2 * b2 + 2 * b3 + b4))

    block = min(4096, n_steps)
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
        stages = (amps, amps @ b2.T, amps @ b3.T, amps @ b4.T)
        q = sum(w * np.abs(s) ** 2 for w, s in zip((1.0, 2.0, 2.0, 1.0), stages))
        cum = np.zeros((length + 1, 5))
        np.cumsum((dt / 6.0) * q * weights[None, :], axis=0, out=cum[1:])
        lo, hi = np.searchsorted(rec_set, (start, start + length))
        rows = rec_set[lo:hi] - start
        states[lo:hi] = amps[rows]
        probs[lo:hi] = acc + cum[rows]
        acc += cum[-1]
        y = phi @ amps[-1]
        start += length

    times = rec_set.astype(float) * dt
    survival = np.sum(np.abs(states) ** 2, axis=1)
    return times, states, probs, survival


# 4095 / 4096 / 4097 steps straddle the block edge; 8192 and 12289 steps end
# in a one-step block, whose amplitudes come from a length-1 product
_BIT_STEPS = (1, 2, 4095, 4096, 4097, 8192, 8193, 12289)
_BIT_SETS = {
    "fig3": (FIG3, ATOM1),
    "fig9": (FIG8, ATOM1),  # fig9 evolves the fig8 parameters
    "g0.3_v0.2": (
        caption_params(0.01, 1.0, 0.2, 0.3),
        np.array([0.6, 0.3j, -0.5, 0.4 + 0.2j, 0.3]) / np.sqrt(0.99),
    ),
}


@pytest.mark.parametrize("name", sorted(_BIT_SETS))
@pytest.mark.parametrize("n_steps", _BIT_STEPS)
def test_integrate_gives_the_bits_of_the_reference_loop(name, n_steps):
    params, y0 = _BIT_SETS[name]
    gen, weights = bare_generator(params), flux_weights(params)
    for every in sorted({1, 7, n_steps}):
        cfg = IntegratorConfig(dt=1e-4, t_max=n_steps * 1e-4, record_every=every)
        times, states, probs, survival = _integrate(gen, y0, cfg, weights)
        ref = _reference_integrate(gen, y0, cfg, weights)
        assert np.array_equal(times, ref[0])
        assert np.array_equal(states, ref[1])
        assert np.array_equal(probs, ref[2])
        assert np.array_equal(survival, ref[3])
