"""Limiting solutions and the perturbative symmetric manifold."""

import warnings

import numpy as np
import pytest

from fiberqed import (
    RegimeWarning,
    SystemParams,
    atom_dominated_solution,
    derive_rates,
    fiber_dark_amplitudes,
    fiber_dominated_solution,
    full_decomposition,
    normal_mode_matrix,
    perturbative_cavity_amplitudes,
    perturbative_symmetric,
)
from fiberqed.model import SYM_ROWS

from conftest import FIG3, FIG4, FIG5, FIG8, GAMMA, atom1_oracle


class TestAtomDominated:
    def test_initial_conditions(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            xi1, alpha1 = atom_dominated_solution(FIG3, np.array([0.0]))
        assert xi1[0] == pytest.approx(1.0)
        assert alpha1[0] == 0.0

    def test_lossless_rabi_oscillation(self):
        params = SystemParams(g=5.0, v=0.1, kappa=0, kappa_b=0, gamma=0)
        t = np.linspace(0, 10, 500)
        xi1, alpha1 = atom_dominated_solution(params, t)
        assert np.abs(np.abs(xi1) ** 2 + np.abs(alpha1) ** 2 - 1.0).max() < 1e-12

    def test_fig3_matches_oracle(self):
        traj = atom1_oracle(FIG3, t_max=1.5, dt=2e-5, record_every=50)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            xi1, alpha1 = atom_dominated_solution(FIG3, traj.times)
        assert np.abs(xi1 - traj.states[:, 0]).max() < 1e-2
        assert np.abs(alpha1 - traj.states[:, 2]).max() < 1e-2

    def test_error_shrinks_with_coupling_ratio(self):
        # v/g = 0.1, 0.05, 0.02: the limit is approached monotonically
        errors = []
        for v in (5.0, 2.5, 1.0):
            params = SystemParams(g=50.0, v=v, kappa=1.0, kappa_b=0.01, gamma=GAMMA)
            traj = atom1_oracle(params, t_max=1.4, dt=2e-5, record_every=100)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RegimeWarning)
                xi1, alpha1 = atom_dominated_solution(params, traj.times)
            errors.append(
                max(
                    np.abs(xi1 - traj.states[:, 0]).max(),
                    np.abs(alpha1 - traj.states[:, 2]).max(),
                )
            )
        assert errors[0] > errors[1] > errors[2]


class TestFiberDominated:
    def test_initial_conditions_and_antisymmetry(self):
        t = np.linspace(0, 5, 300)
        xi1, xi2, alpha1, alpha2 = fiber_dominated_solution(FIG4, t)
        assert xi1[0] == pytest.approx(1.0)
        assert xi2[0] == pytest.approx(0.0, abs=1e-15)
        assert np.array_equal(alpha2, -alpha1)
        # atomic pair splits into an exponential dark part and a mirrored rest
        dark = 0.5 * np.exp(-GAMMA * t / 2)
        assert np.abs((xi2 - dark) + (xi1 - dark)).max() < 1e-14

    def test_fig4_matches_oracle(self):
        traj = atom1_oracle(FIG4, t_max=4.0, dt=5e-5, record_every=100)
        xi1, xi2, alpha1, alpha2 = fiber_dominated_solution(FIG4, traj.times)
        assert np.abs(xi1 - traj.states[:, 0]).max() < 2e-2
        assert np.abs(xi2 - traj.states[:, 1]).max() < 2e-2
        assert np.abs(alpha1 - traj.states[:, 2]).max() < 2e-2
        assert np.abs(alpha2 - traj.states[:, 3]).max() < 2e-2

    def test_error_shrinks_with_coupling_ratio(self):
        errors = []
        for g in (5.0, 2.5, 1.0):  # g/v = 0.1, 0.05, 0.02
            params = SystemParams(g=g, v=50.0, kappa=1.0, kappa_b=0.01, gamma=GAMMA)
            traj = atom1_oracle(params, t_max=1.4, dt=2e-5, record_every=100)
            xi1, _, alpha1, _ = fiber_dominated_solution(params, traj.times)
            errors.append(
                max(
                    np.abs(xi1 - traj.states[:, 0]).max(),
                    np.abs(alpha1 - traj.states[:, 2]).max(),
                )
            )
        assert errors[0] > errors[1] > errors[2]

    def test_critical_damping_is_the_limit_of_the_generic_form(self):
        critical = SystemParams(g=0.8, v=50.0, kappa=1.0, kappa_b=0.01, gamma=GAMMA)
        nearby = SystemParams(
            g=np.sqrt(0.8**2 + 1e-8), v=50.0, kappa=1.0, kappa_b=0.01, gamma=GAMMA
        )
        assert derive_rates(critical).p == 0
        t = np.linspace(0.0, 1.4, 400)
        for lim, gen in zip(fiber_dominated_solution(critical, t),
                            fiber_dominated_solution(nearby, t)):
            assert np.abs(lim - gen).max() < 1e-8


class TestPerturbativeSymmetric:
    def test_unperturbed_limit(self):
        # Gamma_SD = 0: no mixing, quasi modes equal normal modes
        params = SystemParams(g=3.0, v=7.0, kappa=1.0, kappa_b=GAMMA / 2, gamma=GAMMA)
        modes = perturbative_symmetric(params)
        assert modes.delta_s_plus == 0 and modes.delta_s_minus == 0
        r = derive_rates(params)
        bs_plus, _, cd = modes.eigenvalues
        assert bs_plus == pytest.approx(-r.gamma_s_plus / 2 - 1j * r.zeta)
        assert cd == pytest.approx(-r.gamma_d)
        # pure decaying oscillations: |S_+(t)| has a constant envelope ratio
        t = np.linspace(0, 2, 50)
        s_plus, _, d = modes.chi @ np.exp(np.outer(modes.eigenvalues, t))
        assert np.abs(np.abs(s_plus) - abs(s_plus[0]) * np.exp(-r.gamma_s_plus / 2 * t)).max() < 1e-12
        assert np.abs(np.abs(d) - abs(d[0]) * np.exp(-r.gamma_d * t)).max() < 1e-12

    def test_mixing_amplitudes_are_conjugate_pairs(self, rng):
        for _ in range(20):
            g, v = rng.uniform(1, 20, 2)
            params = SystemParams(g=g, v=v, kappa=rng.uniform(0, 2),
                                  kappa_b=rng.uniform(0, 2), gamma=GAMMA)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RegimeWarning)
                modes = perturbative_symmetric(params)
            assert modes.delta_s_plus == pytest.approx(np.conj(modes.delta_s_minus))

    def test_standard_mixing_formula(self):
        modes = perturbative_symmetric(FIG5)
        r = derive_rates(FIG5)
        expected = r.gamma_sd / (r.gamma_d - r.gamma_s_plus / 2 - 1j * r.zeta)
        assert modes.delta_s_plus == pytest.approx(expected)

    def test_alternative_variant_shifts_the_dark_eigenvalue(self):
        modes = perturbative_symmetric(FIG5, "appendix_alternative")
        r = derive_rates(FIG5)
        assert modes.delta_s_plus == pytest.approx(
            r.gamma_sd / (-r.gamma_s_plus / 2 - 1j * r.zeta)
        )
        # first-order shift recovers -Gamma_D from a zeroth-order zero
        assert modes.eigenvalues[2] == pytest.approx(-r.gamma_d)  # QCD
        assert modes.second_order_shifts is None

    def test_refined_variant_terms(self):
        modes = perturbative_symmetric(FIG5, "appendix_refined")
        r = derive_rates(FIG5)
        dp = r.gamma_sd / (r.gamma_d - r.gamma_s_plus / 2 - 1j * r.zeta)
        dm = np.conj(dp)
        bs_plus, _, cd = modes.second_order_shifts
        assert cd == pytest.approx(-r.gamma_sd * (dp + dm))
        assert bs_plus == pytest.approx(
            1j * r.gamma_s_minus**2 / (8 * r.zeta) + r.gamma_sd * dp
        )

    def test_fig5_eigenvalues_close_to_exact(self):
        exact = full_decomposition(FIG5).eigenvalues[:3]
        modes = perturbative_symmetric(FIG5)
        rel = np.abs(modes.eigenvalues - exact) / np.abs(exact)
        assert rel.max() < 1e-2

    def test_refined_beats_standard_at_fig5(self):
        exact = full_decomposition(FIG5).eigenvalues[:3]
        std = perturbative_symmetric(FIG5, "standard")
        ref = perturbative_symmetric(FIG5, "appendix_refined")
        err_std = np.abs(std.eigenvalues - exact)
        err_ref = np.abs(ref.eigenvalues - exact)
        assert np.all(err_ref <= err_std)

    @pytest.mark.parametrize("params", [FIG4, FIG5, FIG8], ids=["fig4", "fig5", "fig8"])
    def test_chi_rows_follow_the_exact_normal_amplitudes(self, params):
        # (S+, S-, D) = chi @ e^(lambda t) keeps the first order in Delta_S+-;
        # inside the regime (no RegimeWarning) what it drops stays below the
        # size |Delta_S+| of the first-order terms it keeps, in every row
        with warnings.catch_warnings():
            warnings.simplefilter("error", RegimeWarning)
            modes = perturbative_symmetric(params)
        t = np.linspace(0, 1.4, 300)
        exact = normal_mode_matrix(params) @ full_decomposition(params).bare_amplitudes(t)
        err = np.abs(modes.chi @ np.exp(np.outer(modes.eigenvalues, t)) - exact[SYM_ROWS])
        bound = abs(modes.delta_s_plus)
        print(f"max |chi e^(lambda t) - (S+, S-, D)| per row: {err.max(axis=1)} "
              f"(bound |Delta_S+| = {bound:.3g})")
        assert err.max() < bound

    def test_regime_warning(self):
        with pytest.warns(RegimeWarning):
            perturbative_symmetric(FIG3)  # v/g = 0.02, far outside validity
        with warnings.catch_warnings():
            warnings.simplefilter("error", RegimeWarning)
            perturbative_symmetric(FIG5)  # comfortably inside: no warning

    @pytest.mark.parametrize("kappa_b", [20.0, 100.0])
    def test_regime_warning_when_gamma_sd_is_negative(self, kappa_b):
        # kappa_b > gamma/2 makes Gamma_SD negative, and the standard variant
        # misses an exact eigenvalue by over 10 %
        params = SystemParams(g=7.0, v=4.0, kappa=1.0, kappa_b=kappa_b, gamma=GAMMA)
        r = derive_rates(params)
        assert r.gamma_sd < 0 and r.zeta < 10 * abs(r.gamma_sd)
        with pytest.warns(RegimeWarning):
            modes = perturbative_symmetric(params)
        exact = full_decomposition(params).eigenvalues[:3]
        assert (np.abs(modes.eigenvalues - exact) / np.abs(exact)).max() > 0.1

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            perturbative_symmetric(FIG5, "bogus")


class TestPerturbativeCavityAmplitudes:
    def test_collapses_to_plain_sum_without_mixing(self):
        params = SystemParams(g=3.0, v=7.0, kappa=1.0, kappa_b=GAMMA / 2, gamma=GAMMA)
        t = np.linspace(0, 3, 200)
        modes = perturbative_symmetric(params)
        a1, a2 = perturbative_cavity_amplitudes(params, t)
        a_plus, a_minus = fiber_dark_amplitudes(params, t)
        assert np.array_equal(modes.chi, np.diag(modes.amplitudes))  # no mixing
        fp, fm, _ = modes.chi @ np.exp(np.outer(modes.eigenvalues, t))
        f_diff = fp - fm
        assert np.abs(a1 - 0.5 * (f_diff + (a_plus - a_minus))).max() < 1e-14
        assert np.abs(a2 - 0.5 * (f_diff - (a_plus - a_minus))).max() < 1e-14

    def test_cavity_difference_is_purely_antisymmetric(self):
        t = np.linspace(0, 2, 300)
        a1, a2 = perturbative_cavity_amplitudes(FIG5, t)
        a_plus, a_minus = fiber_dark_amplitudes(FIG5, t)
        assert np.abs((a1 - a2) - (a_plus - a_minus)).max() < 1e-14

    def test_critical_damping_is_the_limit_of_the_generic_form(self):
        # p = 0, where cavity_coefficients raises DegenerateBlock, still answers
        g = abs(GAMMA / 2 - 1.0) / 2
        critical = SystemParams(g=g, v=7.0, kappa=1.0, kappa_b=0.01, gamma=GAMMA)
        nearby = SystemParams(g=np.sqrt(g**2 + 1e-8), v=7.0, kappa=1.0, kappa_b=0.01,
                              gamma=GAMMA)
        assert derive_rates(critical).p == 0
        t = np.linspace(0.0, 1.4, 400)
        lim = perturbative_cavity_amplitudes(critical, t)
        assert np.isfinite(lim).all()
        assert np.abs(lim - perturbative_cavity_amplitudes(nearby, t)).max() < 1e-8

    def test_fig5_matches_oracle(self):
        traj = atom1_oracle(FIG5, t_max=1.4, dt=2e-5, record_every=100)
        a1, a2 = perturbative_cavity_amplitudes(FIG5, traj.times)
        assert np.abs(a1 - traj.states[:, 2]).max() < 2e-2
        assert np.abs(a2 - traj.states[:, 3]).max() < 2e-2
