"""Brute-force integrator: conservation, convergence order and cross-checks."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from fiberqed import (
    ConfigInvalid,
    IntegratorConfig,
    NonSymmetric,
    NormalState,
    SystemParams,
    bare_generator,
    bare_to_normal,
    derive_rates,
    evolve_bare,
    evolve_normal,
    normal_mode_matrix,
    occupations,
    single_excitation,
    symmetric_params,
)

from conftest import FIG3, FIG4, FIG5, GAMMA, atom1_oracle

ATOM1 = single_excitation("atom1")


def test_generator_matches_amplitude_equations():
    # columns of the generator are the instantaneous derivatives
    gen = bare_generator(FIG3)
    dxdt = gen @ ATOM1.to_array()
    assert dxdt[0] == -GAMMA / 2        # xi1' = -gamma/2 xi1
    assert dxdt[2] == -1j * FIG3.g1     # alpha1' = -i g1 xi1
    assert dxdt[1] == dxdt[3] == dxdt[4] == 0


def test_decoupled_atom_decays_exponentially():
    params = symmetric_params(g=0, v=0, kappa=1, kappa_b=0.01, gamma=GAMMA)
    traj = evolve_bare(params, ATOM1, IntegratorConfig(dt=1e-3, t_max=2.0))
    expected = np.exp(-GAMMA * traj.times / 2)
    assert np.abs(traj.states[:, 0] - expected).max() < 1e-10
    assert np.abs(traj.states[:, 1:]).max() == 0.0


def test_conservation_and_monotonicity():
    traj = atom1_oracle(FIG4, t_max=5.0, record_every=10)
    assert traj.conservation_residual() < 1e-9
    assert np.all(np.diff(traj.survival) <= 1e-12)
    for series in traj.channel_probs.values():
        assert np.all(np.diff(series) >= -1e-15)


def test_richardson_fourth_order():
    # halving dt should shrink the conservation residual ~16x
    cfg_coarse = IntegratorConfig(dt=4e-3, t_max=2.0)
    cfg_fine = IntegratorConfig(dt=2e-3, t_max=2.0)
    err_coarse = evolve_bare(FIG4, ATOM1, cfg_coarse).conservation_residual()
    err_fine = evolve_bare(FIG4, ATOM1, cfg_fine).conservation_residual()
    assert err_coarse / err_fine > 8.0


def test_linearity():
    from fiberqed import BareState

    cfg = IntegratorConfig(dt=1e-3, t_max=1.0, record_every=100)
    base = evolve_bare(FIG4, ATOM1, cfg)
    c = complex(0.3 - 0.4j)
    scaled = evolve_bare(FIG4, BareState.from_array(c * ATOM1.to_array()), cfg)
    assert np.abs(scaled.states - c * base.states).max() < 1e-12


def test_against_scipy_reference():
    # independent integrator as a sanity oracle for the oracle
    gen = bare_generator(FIG4)
    sol = solve_ivp(
        lambda t, y: gen @ y,
        (0.0, 2.0),
        ATOM1.to_array(),
        rtol=1e-11,
        atol=1e-12,
        t_eval=np.linspace(0, 2, 21),
    )
    traj = evolve_bare(FIG4, ATOM1, IntegratorConfig(dt=1e-4, t_max=2.0, record_every=1000))
    assert np.abs(traj.states - sol.y.T).max() < 1e-6


def test_normal_and_bare_pictures_agree():
    cfg = IntegratorConfig(dt=1e-4, t_max=3.0, record_every=50)
    bare = evolve_bare(FIG4, ATOM1, cfg)
    normal = evolve_normal(FIG4, bare_to_normal(ATOM1, FIG4), cfg)
    mapped = bare.states @ normal_mode_matrix(FIG4).T
    assert np.abs(mapped - normal.states).max() < 1e-9
    for channel in bare.channel_probs:
        assert np.abs(
            bare.channel_probs[channel] - normal.channel_probs[channel]
        ).max() < 1e-9


def test_decoupled_dark_mode():
    # kappa_b = gamma/2 turns off the bright <-> dark coupling
    params = symmetric_params(g=3, v=7, kappa=1, kappa_b=GAMMA / 2, gamma=GAMMA)
    rates = derive_rates(params)
    assert rates.gamma_sd == 0.0
    cfg = IntegratorConfig(dt=1e-4, t_max=2.0, record_every=20)
    traj = evolve_normal(params, NormalState(0, 0, 0, 0, 1), cfg)
    assert np.abs(traj.states[:, 4] - np.exp(-rates.gamma_d * traj.times)).max() < 1e-10
    assert np.abs(traj.states[:, :2]).max() < 1e-14


def test_fig4_bright_states_stay_dark():
    traj = atom1_oracle(FIG4, t_max=4.0, record_every=10)
    occ = occupations(traj)
    assert occ["bs_plus"].max() < 1e-2
    assert occ["bs_minus"].max() < 1e-2


def test_fig5_fiber_becomes_significant():
    traj = atom1_oracle(FIG5, t_max=2.0, dt=5e-5, record_every=10)
    assert occupations(traj)["fiber"].max() > 0.1


def test_occupations_initial_point_and_lossless_sum():
    traj = atom1_oracle(FIG3, t_max=0.5, record_every=100)
    occ = occupations(traj)
    assert occ["atom1"][0] == pytest.approx(1.0)
    assert sum(occ[k][0] for k in ("atom2", "cavity1", "cavity2", "fiber")) == 0.0

    lossless = symmetric_params(g=5, v=3, kappa=0, kappa_b=0, gamma=0)
    traj = evolve_bare(lossless, ATOM1, IntegratorConfig(dt=1e-4, t_max=3.0, record_every=50))
    occ = occupations(traj)
    total = sum(occ[k] for k in ("atom1", "atom2", "cavity1", "cavity2", "fiber"))
    assert np.abs(total - 1.0).max() < 1e-10
    normal_total = sum(occ[k] for k in ("bs_plus", "bs_minus", "fd_plus", "fd_minus", "cd"))
    assert np.abs(normal_total - 1.0).max() < 1e-10


def test_asymmetric_parameters_supported():
    params = SystemParams(3.0, 5.0, 2.0, 1.0, 0.7, 1.3, 0.05, GAMMA)
    traj = evolve_bare(params, ATOM1, IntegratorConfig(dt=1e-4, t_max=4.0, record_every=40))
    assert traj.conservation_residual() < 1e-9
    occ = occupations(traj)
    assert "bs_plus" not in occ  # no normal picture without symmetry


def test_evolve_normal_requires_symmetry():
    params = SystemParams(3.0, 5.0, 2.0, 1.0, 0.7, 1.3, 0.05, GAMMA)
    with pytest.raises(NonSymmetric):
        evolve_normal(params, NormalState(0, 0, 0, 0, 1), IntegratorConfig(t_max=1.0))


@pytest.mark.parametrize(
    "cfg",
    [
        IntegratorConfig(dt=0.0, t_max=1.0),
        IntegratorConfig(dt=1e-4, t_max=0.0),
        IntegratorConfig(dt=1e-4, t_max=1.0, record_every=0),
    ],
)
def test_invalid_config_rejected(cfg):
    with pytest.raises(ConfigInvalid):
        evolve_bare(FIG3, ATOM1, cfg)
