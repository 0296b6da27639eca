"""Parameter validation, derived rates and the bare <-> normal basis map."""

from types import SimpleNamespace

import numpy as np
import pytest

from fiberqed import (
    IntegratorConfig,
    SystemParams,
    derive_rates,
    evolve_bare,
    full_decomposition,
    normal_mode_matrix,
    single_excitation,
)

from fiberqed.eigen import _cubic_coefficients
from fiberqed.model import _RATE_BOUND

from conftest import FIG3, GAMMA, caption_params

# amplitude indices: bare (xi1, xi2, alpha1, alpha2, beta), normal (S+, S-, A+, A-, D)
XI1, XI2, ALPHA1, ALPHA2, BETA = range(5)
S_PLUS, S_MINUS, A_PLUS, A_MINUS, D = range(5)


def random_params(rng):
    g, v = rng.uniform(0.5, 20, 2)
    kappa, kappa_b, gamma = rng.uniform(0.0, 5, 3)
    return SystemParams(g=g, v=v, kappa=kappa, kappa_b=kappa_b, gamma=gamma)


def random_bare(rng):
    z = rng.normal(size=5) + 1j * rng.normal(size=5)
    return z / np.linalg.norm(z)


def to_normal(bare, params):
    return normal_mode_matrix(params) @ bare


def to_bare(normal, params):
    return normal_mode_matrix(params).T @ np.asarray(normal, dtype=complex)


def norm_sq(amps):
    return float(np.sum(np.abs(amps) ** 2))


class TestSystemParams:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match=r"^gamma must be finite and >= 0, got -1$"):
            SystemParams(g=1, v=1, kappa=1, kappa_b=0.1, gamma=-1)

    def test_rates_below_the_bound_keep_the_cubic_finite(self, rng):
        r = np.nextafter(_RATE_BOUND, 0)
        # the discriminant's worst case, 1.03 r^6, then seeded draws with exact zeros
        draws = [(r, r, r, 0.65 * r, 0.0)]
        draws += [tuple(r * rng.random(5) * (rng.random(5) > 0.2)) for _ in range(2000)]
        for rates in draws:
            if rates[0] or rates[1]:
                coeffs = _cubic_coefficients(derive_rates(SystemParams(*rates)))
                assert np.isfinite(coeffs).all(), rates

    def test_bound_is_within_a_factor_1_2_of_overflow(self):
        # past the bound the same worst case overflows (SimpleNamespace skips the check)
        r = 1.2 * _RATE_BOUND
        worst = SimpleNamespace(g=r, v=r, kappa=r, kappa_b=0.65 * r, gamma=0.0)
        with pytest.raises(OverflowError):
            _cubic_coefficients(derive_rates(worst))

    @pytest.mark.parametrize("rate", ["g", "v", "kappa", "kappa_b", "gamma"])
    def test_rate_at_the_bound_rejected(self, rate):
        rates = {**dict(g=1, v=1, kappa=1, kappa_b=1, gamma=1), rate: _RATE_BOUND}
        with pytest.raises(ValueError, match=rf"^{rate} must be below 2.12e\+51, where"):
            SystemParams(**rates)

    def test_single_excitation_names(self):
        assert single_excitation("atom1")[XI1] == 1
        assert single_excitation("fiber")[BETA] == 1
        assert np.array_equal(single_excitation("cavity2"), np.eye(5, dtype=complex)[ALPHA2])
        with pytest.raises(ValueError):
            single_excitation("laser")


class TestDerivedRates:
    def test_gamma_sd_vanishes_at_kappa_b_gamma_half(self):
        # the (gamma/2 - kappa_b) factor cancels exactly
        params = SystemParams(g=3, v=7, kappa=1, kappa_b=GAMMA / 2, gamma=GAMMA)
        assert derive_rates(params).gamma_sd == 0.0

    def test_fiber_dark_rates(self):
        r = derive_rates(caption_params(0.01, 1.0, 10.0, 10.0))
        assert r.gamma_a_plus == pytest.approx(3.6, abs=1e-12)
        assert r.gamma_a_minus == pytest.approx(1.6, abs=1e-12)

    def test_splitting_fig3(self):
        assert derive_rates(FIG3).zeta == pytest.approx(np.sqrt(2502.0), rel=1e-15)

    def test_splitting_bounds(self, rng):
        for _ in range(50):
            params = random_params(rng)
            r = derive_rates(params)
            assert r.zeta >= params.g - 1e-12
            assert r.zeta >= np.sqrt(2) * params.v - 1e-12
            assert r.gamma_a_plus >= abs(r.gamma_a_minus) - 1e-12

    def test_p_identity_and_branch(self, rng):
        for _ in range(50):
            params = random_params(rng)
            r = derive_rates(params)
            # complex identity p^2 + (Gamma_A-/2)^2 = g^2
            assert abs(r.p**2 + (r.gamma_a_minus / 2) ** 2 - params.g**2) < 1e-10
            if params.g < abs(r.gamma_a_minus) / 2:
                assert r.p.real == 0.0 and r.p.imag > 0.0

    def test_zero_couplings_rejected(self):
        with pytest.raises(ValueError, match="g = v = 0"):
            derive_rates(SystemParams(g=0, v=0, kappa=1, kappa_b=0.1, gamma=1))

    def test_underflowing_couplings_named(self):
        message = r"^g\^2 \+ 2 v\^2 underflows to 0 at g = 1e-200, v = 0.0, so"
        with pytest.raises(ValueError, match=message):
            derive_rates(SystemParams(g=1e-200, v=0, kappa=1, kappa_b=0.1, gamma=1))


class TestBasisMaps:
    def test_atom1_initial_conditions(self):
        n = to_normal(single_excitation("atom1"), FIG3)
        g, v = FIG3.g, FIG3.v
        zeta = derive_rates(FIG3).zeta
        assert n[S_PLUS] == pytest.approx(g / (2 * zeta))
        assert n[S_MINUS] == pytest.approx(g / (2 * zeta))
        assert n[A_PLUS] == pytest.approx(0.5)
        assert n[A_MINUS] == pytest.approx(0.5)
        assert n[D] == pytest.approx(-v / zeta)

    def test_fiber_initial_conditions(self):
        n = to_normal(single_excitation("fiber"), FIG3)
        zeta = derive_rates(FIG3).zeta
        assert n[S_PLUS] == pytest.approx(FIG3.v / zeta)
        assert n[A_PLUS] == 0 and n[A_MINUS] == 0
        assert n[D] == pytest.approx(FIG3.g / zeta)

    def test_symmetric_cavity_state(self):
        state = np.array([0, 0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0], dtype=complex)
        n = to_normal(state, FIG3)
        assert abs(n[A_PLUS]) < 1e-15 and abs(n[A_MINUS]) < 1e-15 and abs(n[D]) < 1e-15
        assert n[S_PLUS] == pytest.approx(1 / np.sqrt(2))
        assert n[S_MINUS] == pytest.approx(-1 / np.sqrt(2))

    def test_cavity_dark_state_in_bare_basis(self):
        bare = to_bare([0, 0, 0, 0, 1], FIG3)
        zeta = derive_rates(FIG3).zeta
        assert bare[XI1] == pytest.approx(-FIG3.v / zeta)
        assert bare[XI2] == pytest.approx(-FIG3.v / zeta)
        assert bare[ALPHA1] == 0 and bare[ALPHA2] == 0
        assert bare[BETA] == pytest.approx(FIG3.g / zeta)

    def test_equal_fiber_dark_amplitudes_cancel_in_cavities(self):
        bare = to_bare([0, 0, 0.5, 0.5, 0], FIG3)
        assert bare[ALPHA1] == 0 and bare[ALPHA2] == 0

    def test_round_trip_identity(self, rng):
        for _ in range(100):
            params = random_params(rng)
            state = random_bare(rng)
            back = to_bare(to_normal(state, params), params)
            assert np.abs(back - state).max() < 1e-12

    def test_norm_preserved(self, rng):
        for _ in range(20):
            params = random_params(rng)
            state = random_bare(rng)
            assert norm_sq(to_normal(state, params)) == pytest.approx(norm_sq(state), abs=1e-13)

    def test_transform_is_orthogonal(self, rng):
        for _ in range(20):
            mat = normal_mode_matrix(random_params(rng))
            assert np.abs(mat @ mat.T - np.eye(5)).max() < 1e-14


@pytest.mark.parametrize(
    "initial",
    [np.ones(4, dtype=complex), np.array([1, 0, np.nan, 0, 0], dtype=complex)],
    ids=["shape (4,)", "nan"],
)
@pytest.mark.parametrize(
    "solve",
    [
        lambda initial: evolve_bare(FIG3, initial, IntegratorConfig(dt=1e-3, t_max=0.1)),
        lambda initial: full_decomposition(FIG3, initial),
    ],
    ids=["evolve_bare", "full_decomposition"],
)
def test_initial_state_must_be_five_finite_amplitudes(solve, initial):
    with pytest.raises(ValueError, match="5 finite amplitudes"):
        solve(initial)
