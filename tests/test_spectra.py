"""Channel spectra, Lorentzian + interference decomposition and integrals."""

import re
import warnings
from itertools import product

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import solve_continuous_lyapunov

from fiberqed import (
    MODE_LABELS,
    DegenerateBlock,
    DivergentIntegral,
    GridInvalid,
    LabelAmbiguous,
    RegimeWarning,
    SingularMatrix,
    SpectrumDecomposition,
    SystemParams,
    bare_generator,
    cavity_coefficients,
    channel_spectrum,
    default_omega_grid,
    derive_rates,
    full_decomposition,
    integrated_spectrum,
    lorentzian_approximation,
    perturbative_cavity_amplitudes,
    perturbative_symmetric,
    single_excitation,
    spectral_function,
)
from fiberqed.model import BARE_MODES, flux_weights
from fiberqed.perturb import VARIANTS

from conftest import FIG6, FIG7, FIG8, FIG10, GAMMA, NEAR_EP, atom1_oracle


def full_line_quad(f, breakpoints):
    """Adaptive quadrature over the whole real line, resolving given poles."""
    pts = sorted(float(x) for x in breakpoints)
    lo, hi = pts[0] - 50.0, pts[-1] + 50.0
    inner, _ = quad(f, lo, hi, points=pts, limit=500, epsabs=1e-13, epsrel=1e-11)
    left, _ = quad(f, -np.inf, lo, limit=300, epsabs=1e-13, epsrel=1e-11)
    right, _ = quad(f, hi, np.inf, limit=300, epsabs=1e-13, epsrel=1e-11)
    return inner + left + right


def pole(spec, j, omega):
    """Pole j of the channel amplitude of a spectrum's entry [0, 0], chi_j L(omega, lambda_j)."""
    return spec.chi[0, 0, j] * spectral_function(omega, spec.eigenvalues[0, 0, j])


def pair_w(spec, j, k):
    """Callable W_jk(omega) for quadrature oracles."""
    return lambda w: float(
        2 * np.real(pole(spec, j, np.array([w]))[0]
                    * np.conj(pole(spec, k, np.array([w]))[0]))
    )


def lorentzian_integral(chi, lam):
    """Per-term closed form |chi|^2 pi / eta, the reference for the pair matrix."""
    eta = -lam.real
    if eta <= 0:
        raise DivergentIntegral(f"eta = {eta} <= 0")
    return float(abs(chi) ** 2 * np.pi / eta)


def interference_integral(chi_j, lam_j, chi_k, lam_k):
    """Per-term closed form 2 Re(2 pi chi_j chi_k^* / ((eta_j + eta_k) + i(delta_j - delta_k)))."""
    eta_sum = -lam_j.real - lam_k.real
    if eta_sum <= 0:
        raise DivergentIntegral(f"eta_j + eta_k = {eta_sum} <= 0")
    den = eta_sum + 1j * (lam_k.imag - lam_j.imag)
    return float(2 * np.real(2 * np.pi * chi_j * np.conj(chi_k) / den))


def gramian_diagonal_50_digits(params, c0) -> np.ndarray:
    """Diagonal of X with G X + X G^+ = -c0 c0^+, G the bare generator, in 50 digits.

    The same equation as the channel totals solve, on the same double
    entries of G and c0, so its rounding to doubles is the exact answer.
    """
    gen = bare_generator(params).tolist()
    c0 = np.asarray(c0, dtype=complex).tolist()
    with mpmath.workdps(50):
        op = mpmath.matrix(25, 25)
        rhs = mpmath.matrix(25, 1)
        for i, j in product(range(5), repeat=2):
            rhs[5 * i + j] = -mpmath.mpc(c0[i]) * mpmath.conj(c0[j])
            for k in range(5):
                op[5 * i + j, 5 * k + j] += gen[i][k]
                op[5 * i + j, 5 * i + k] += mpmath.conj(gen[j][k])
        x = mpmath.lu_solve(op, rhs)
        return np.array([float(x[6 * i].real) for i in range(5)])


def spec_of(chi, lam):
    """A bare channel spectrum from explicit poles, prefactor 1, as entry [0, 0] of a
    stack of one point and one channel, the layout of channel_spectrum."""
    chi, lam = np.asarray(chi, dtype=complex), np.asarray(lam, dtype=complex)
    return SpectrumDecomposition(("atom1",), np.ones((1, 1, 1)), (None,) * len(chi),
                                 chi[None, None], lam[None, None], np.zeros(1))


class TestSpectralFunction:
    def test_pole_shape(self):
        lam = complex(-0.7, -3.0)  # eta = 0.7, delta = 3.0
        omega = np.linspace(-10, 10, 2001)
        mag = np.abs(spectral_function(omega, lam)) ** 2
        assert omega[np.argmax(mag)] == pytest.approx(3.0, abs=0.02)
        assert mag.max() == pytest.approx(1 / 0.7**2, rel=1e-3)
        half = np.abs(spectral_function(np.array([3.0 - 0.7, 3.0 + 0.7]), lam)) ** 2
        assert np.allclose(half, mag.max() / 2, rtol=1e-3)

    def test_decoupled_point_has_no_spectrum(self):
        # g = v = 0 has no normal modes, so no decomposition and no spectrum;
        # the one-pole Lorentzian shape is covered by test_pole_shape
        params = SystemParams(g=0, v=0, kappa=1.0, kappa_b=0.01, gamma=GAMMA)
        with pytest.raises(ValueError, match="normal modes are undefined when g = v = 0"):
            full_decomposition(params)


class TestDecomposition:
    def test_pointwise_identity(self):
        decomp = full_decomposition(FIG8)
        for channel in ("cavity1", "cavity2", "atom1", "fiber"):
            spec = channel_spectrum([decomp], [channel])
            direct = np.abs(spec.amplitude[0, 0]) ** 2
            lorentzian_sum = spec.lorentzians[0, 0].sum(axis=0)
            recon = lorentzian_sum + spec.interferences[0, 0].sum(axis=0)
            scale = np.maximum(direct, lorentzian_sum)
            assert (np.abs(recon - direct) / scale).max() < 1e-10

    def test_interference_terms_are_real_with_tiny_residue(self):
        decomp = full_decomposition(FIG8)
        spec = channel_spectrum([decomp], ["cavity1"])
        grid = spec.omega_grid[0, 0]
        for (j, k), w in zip(spec.pairs, spec.interferences[0, 0]):
            cross = pole(spec, j, grid) * np.conj(pole(spec, k, grid))
            explicit = cross + np.conj(cross)
            assert np.abs(explicit.imag).max() < 1e-14
            assert np.abs(explicit.real - w).max() < 1e-14
            # the broadcast rows equal the per-pole products bit for bit
            assert np.array_equal(2 * np.real(cross), w)

    def test_broadcast_matches_per_pole_loop(self):
        # one broadcast pole-kernel call gives the bits of one call per pole
        decomp = full_decomposition(FIG8)
        for channel in ("atom1", "cavity1", "cavity2", "fiber"):
            spec = channel_spectrum([decomp], [channel])
            loop = np.array([pole(spec, j, spec.omega_grid[0, 0]) for j in range(5)])
            assert np.array_equal(spec.amplitude[0, 0], loop.sum(axis=0))
            assert np.array_equal(spec.lorentzians[0, 0], np.abs(loop) ** 2)

    def test_unexcited_mode_kills_its_terms(self):
        # the fiber amplitude has no fiber-dark content at all
        decomp = full_decomposition(FIG7)
        spec = channel_spectrum([decomp], ["fiber"])
        fd = {decomp.index("QFD+"), decomp.index("QFD-")}
        for j in fd:
            assert abs(spec.chi[0, 0, j]) < 1e-15
            assert np.abs(spec.lorentzians[0, 0, j]).max() < 1e-28
        for (j, k), w in zip(spec.pairs, spec.interferences[0, 0]):
            if j in fd or k in fd:
                assert np.abs(w).max() < 1e-15

    def test_fig10_symmetry_of_cross_terms(self):
        decomp = full_decomposition(FIG10)
        s1 = channel_spectrum([decomp], ["cavity1"])
        s2 = channel_spectrum([decomp], ["cavity2"])
        w1 = s1.interference("QCD", "QFD-")
        w2 = s2.interference("QCD", "QFD-")
        assert np.abs(w1 + w2).max() < 1e-12  # equal and opposite
        b1 = s1.interference("QCD", "QBS-")
        b2 = s2.interference("QCD", "QBS-")
        assert np.abs(b1 - b2).max() < 1e-12  # identical

    def test_grid_validation(self):
        decomp = full_decomposition(FIG8)
        with pytest.raises(GridInvalid):
            channel_spectrum([decomp], ["cavity1"], np.array([]))
        with pytest.raises(GridInvalid):
            channel_spectrum([decomp], ["cavity1"], np.array([0.0, 1.0, 0.5]))

    def test_unknown_channel(self):
        with pytest.raises(ValueError, match="channel"):
            channel_spectrum([full_decomposition(FIG8)], ["mirror"])

    def test_prefactors(self):
        decomp = full_decomposition(FIG8)
        grid = np.linspace(-1, 1, 11)
        prefactor = channel_spectrum([decomp], ["atom1", "cavity2", "fiber"], grid).prefactor
        assert prefactor[0, 0, 0] == GAMMA / (2 * np.pi)
        assert prefactor[0, 1, 0] == FIG8.kappa / np.pi
        assert prefactor[0, 2, 0] == FIG8.kappa_b / np.pi

    def test_unlabeled_interference_raises_lookup_error(self):
        # coincident symmetric roots: the decomposition falls back unlabeled
        coincident = SystemParams(g=0.6, v=0.0, kappa=1.0,
                                  kappa_b=1.2708497377870814, gamma=GAMMA)
        with pytest.warns(LabelAmbiguous):
            decomp = full_decomposition(coincident)
        spec = channel_spectrum([decomp], ["cavity1"], np.linspace(-1, 1, 11))
        assert spec.labels is None
        with pytest.raises(LookupError, match="decomposition is unlabeled"):
            spec.interference("QBS+", "QCD")

    def test_default_grid_span(self):
        r = derive_rates(FIG8)
        gamma_max = max(r.gamma_s_plus, abs(r.gamma_s_minus), r.gamma_a_plus,
                        abs(r.gamma_a_minus), r.gamma_sd, r.gamma_d)
        grid = default_omega_grid(FIG8)
        assert grid.size == 4001
        assert grid[-1] == pytest.approx(2 * r.zeta + 5 * gamma_max)
        assert grid[0] == -grid[-1]


class TestIntegrals:
    def test_lorentzian_integral_closed_form(self):
        spec = spec_of([complex(0.3, -0.1)], [complex(-1.3, -2.0)])
        oracle = full_line_quad(
            lambda w: abs(pole(spec, 0, np.array([w]))[0]) ** 2, [2.0]
        )
        assert oracle == pytest.approx(spec.pair_integrals[0, 0, 0, 0], rel=1e-9)
        assert spec.pair_integrals[0, 0, 0, 0] == pytest.approx(
            lorentzian_integral(spec.chi[0, 0, 0], spec.eigenvalues[0, 0, 0]), rel=1e-12)
        # |chi| = 1 reduces to the plain Lorentzian integral pi / eta
        unit = spec_of([1.0], [complex(-1.3, -2.0)])
        assert unit.pair_integrals[0, 0, 0, 0] == pytest.approx(np.pi / 1.3, rel=1e-14)

    def test_interference_integral_vs_quadrature(self):
        decomp = full_decomposition(FIG8)
        spec = channel_spectrum([decomp], ["cavity1"])
        deltas = -spec.eigenvalues[0, 0].imag
        for j, k in ((0, 1), (2, 4), (3, 4)):
            closed = spec.pair_integrals[0, 0, j, k] + spec.pair_integrals[0, 0, k, j]
            oracle = full_line_quad(pair_w(spec, j, k), deltas)
            assert abs(closed - oracle) / abs(oracle) < 1e-6

    def test_separated_modes_contribute_little(self):
        # bright states sit 2*zeta apart: their net interference is bounded
        # by 4 pi |chi_j chi_k| / (2 zeta)
        decomp = full_decomposition(FIG7)
        spec = channel_spectrum([decomp], ["fiber"])
        j, k = decomp.index("QBS+"), decomp.index("QBS-")
        oracle = full_line_quad(pair_w(spec, j, k), -spec.eigenvalues[0, 0].imag)
        bound = 4 * np.pi * abs(spec.chi[0, 0, j] * spec.chi[0, 0, k])
        assert abs(oracle) < bound / (2 * derive_rates(FIG7).zeta) * 1.01

    def test_divergent_integral_rejected(self):
        growing = complex(0.2, -1.0)  # eta < 0
        decaying = complex(-0.1, -1.0)
        with pytest.raises(DivergentIntegral):
            spec_of([1.0, 1.0], [decaying, growing]).pair_integrals
        with pytest.raises(DivergentIntegral):
            spec_of([1.0], [growing]).pair_integrals

    def test_integrated_spectrum_closed_form(self):
        decomp = full_decomposition(FIG8)
        spec = channel_spectrum([decomp], ["cavity1"])
        oracle = spec.prefactor[0, 0, 0] * full_line_quad(
            lambda w: abs(sum(pole(spec, j, np.array([w]))[0] for j in range(5))) ** 2,
            -spec.eigenvalues[0, 0].imag,
        )
        (totals,) = integrated_spectrum([decomp])
        assert totals[BARE_MODES.index("cavity1")] == pytest.approx(oracle, rel=1e-9)

    def test_parseval_cavity1_fig8(self):
        decomp = full_decomposition(FIG8)
        (totals,) = integrated_spectrum([decomp])
        freq_total = totals[BARE_MODES.index("cavity1")]
        eta_min = (-decomp.eigenvalues.real).min()
        traj = atom1_oracle(FIG8, t_max=round(10 / eta_min, 6), record_every=5000)
        time_total = traj.channel_probs[-1, BARE_MODES.index("cavity1")]
        assert abs(freq_total - time_total) / time_total < 1e-4

    def test_all_channels_account_for_the_whole_excitation(self):
        # the photon comes out somewhere: integrated spectra sum to 1
        for params in (FIG7, FIG8, FIG10):
            (totals,) = integrated_spectrum([full_decomposition(params)])
            total = sum(
                totals[BARE_MODES.index(c)]
                for c in ("atom1", "atom2", "cavity1", "cavity2", "fiber")
            )
            assert abs(total - 1.0) < 1e-4


class TestPairKernel:
    @staticmethod
    def per_term(spec):
        """Per-term closed forms over the excited poles of a spectrum's entry [0, 0]:
        Lorentzians, then pairs."""
        active = [(c, lam) for c, lam in zip(spec.chi[0, 0], spec.eigenvalues[0, 0]) if c != 0]
        lorentzians = [lorentzian_integral(c, lam) for c, lam in active]
        pairs = [interference_integral(*tj, *tk)
                 for j, tj in enumerate(active) for tk in active[j + 1:]]
        return lorentzians, pairs

    @classmethod
    def per_term_total(cls, spec):
        lorentzians, pairs = cls.per_term(spec)
        return spec.prefactor[0, 0, 0] * (sum(lorentzians) + sum(pairs))

    def test_pair_matrix_matches_per_term_closed_forms(self):
        # diagonal = Lorentzian integrals, [j, k] + [k, j] = interference integral
        for params in (FIG7, FIG8, FIG10):
            decomp = full_decomposition(params)
            for channel in ("atom1", "cavity1", "cavity2", "fiber"):
                spec = channel_spectrum([decomp], [channel], np.zeros(1))
                matrix = spec.pair_integrals[0, 0]
                chi, lam = spec.chi[0, 0], spec.eigenvalues[0, 0]
                for j in range(5):
                    if chi[j] != 0:
                        closed = lorentzian_integral(chi[j], lam[j])
                        assert abs(matrix[j, j] - closed) <= 1e-12 * abs(closed)
                for j, k in spec.pairs:
                    if chi[j] != 0 and chi[k] != 0:
                        closed = interference_integral(chi[j], lam[j], chi[k], lam[k])
                        assert abs(matrix[j, k] + matrix[k, j] - closed) <= 1e-12 * abs(closed)

    def test_channel_totals_match_per_term_integrals(self, rng):
        draws = [FIG6[2.0], FIG7, FIG8, FIG10,
                 SystemParams(g=0.01, v=0.01, kappa=1.0, kappa_b=0.01, gamma=GAMMA)]
        for _ in range(40):
            g, v, kappa, kappa_b, gamma = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), 5))
            draws.append(SystemParams(g=g, v=v, kappa=kappa, kappa_b=kappa_b, gamma=gamma))
        grid = np.linspace(-1.0, 1.0, 3)
        worst = 0.0
        for params in draws:
            decomp = full_decomposition(params)
            (totals,) = integrated_spectrum([decomp])
            assert totals.shape == (5,)
            assert BARE_MODES == ("atom1", "atom2", "cavity1", "cavity2", "fiber")
            exact = flux_weights(params) * gramian_diagonal_50_digits(params, decomp.initial)
            for channel, total, reference in zip(BARE_MODES, totals, exact):
                spec = channel_spectrum([decomp], [channel], grid)
                # relative to the Lorentzian sum: |W_jk| <= L_j + L_k bounds every
                # term, and a dark channel's total can cancel to rounding size
                scale = spec.prefactor[0, 0, 0] * sum(self.per_term(spec)[0])
                # the pair kernel sums the same rounded chi as the per-term forms
                kernel = spec.prefactor[0, 0, 0] * spec.pair_integrals[0, 0].sum()
                assert abs(kernel - self.per_term_total(spec)) <= 1e-12 * scale
                # the totals come from the Gramian, not from chi, so they are held to
                # the exact solution instead: both chi-based sums of the g = v = 0.01
                # fiber channel are off by 1.0e-11 * scale, as chi is rounded there
                worst = max(worst, abs(total - reference) / scale)
                assert abs(total - reference) <= 1e-12 * scale
                assert integrated_spectrum([decomp])[0][BARE_MODES.index(channel)] == total
            assert abs(totals.sum() - 1.0) < 1e-9
        print(f"max |Gramian total - 50-digit solve| / scale = {worst:.2g} (bound 1e-12)")

    def test_divergence_raised_where_per_term_functions_raise(self):
        # lossless: every eta is 0, so the first Lorentzian already diverges
        lossless = full_decomposition(
            SystemParams(g=3.0, v=7.0, kappa=0, kappa_b=0, gamma=0)
        )
        spec = channel_spectrum([lossless], ["cavity1"], np.linspace(-1.0, 1.0, 3))
        with pytest.raises(DivergentIntegral) as per_term:
            self.per_term_total(spec)
        (kernel,) = integrated_spectrum([lossless])
        assert isinstance(kernel, DivergentIntegral)
        assert str(kernel) == str(per_term.value)
        # a growing mode with chi = 0 takes no part in the integral
        quiet = spec_of([1.0, 0.0], [complex(-0.5, -1.0), complex(0.2, 1.0)])
        assert quiet.pair_integrals.sum() == pytest.approx(np.pi / 0.5, rel=1e-15)
        # with chi != 0 the growing mode's Lorentzian diverges first
        loud = spec_of([1.0, 1.0], [complex(-0.5, -1.0), complex(0.2, 1.0)])
        with pytest.raises(DivergentIntegral, match="eta = -0.2 <= 0"):
            loud.pair_integrals


class TestStackedKernel:
    """N points in one stacked pass give the bits of N single calls."""

    @staticmethod
    def decompositions(rng):
        draws = [FIG6[2.0], FIG7, FIG8, FIG10,
                 SystemParams(g=0.5, v=4.0, kappa=1.0, kappa_b=0.01, gamma=GAMMA)]
        for _ in range(6):
            g, v, kappa, kappa_b, gamma = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), 5))
            draws.append(SystemParams(g=g, v=v, kappa=kappa, kappa_b=kappa_b, gamma=gamma))
        return [full_decomposition(params) for params in draws]

    @pytest.mark.parametrize("grid", [np.linspace(-40.0, 40.0, 301), None],
                             ids=["shared-grid", "default-grids"])
    def test_channel_spectrum_keeps_single_call_bits(self, rng, grid):
        decomps = self.decompositions(rng)
        channels = ("cavity2", "atom1", "fiber")
        stack = channel_spectrum(decomps, channels, grid)
        assert stack.amplitude.shape[:2] == (len(decomps), len(channels))
        approximation = lorentzian_approximation(stack)
        for i, decomp in enumerate(decomps):
            for c, channel in enumerate(channels):
                single = channel_spectrum([decomp], [channel], grid)
                for name in ("amplitude", "spectrum", "lorentzians", "interferences"):
                    got = getattr(stack, name)[i, c]
                    assert got.tobytes() == getattr(single, name)[0, 0].tobytes(), name
                assert (approximation[i, c].tobytes()
                        == lorentzian_approximation(single)[0, 0].tobytes())
                grid_i = np.broadcast_to(stack.omega_grid, stack.amplitude.shape)[i, c]
                single_grid = np.broadcast_to(single.omega_grid, single.amplitude.shape)
                assert np.array_equal(grid_i, single_grid[0, 0])

    def test_stacked_interference_keeps_the_labels(self):
        decomps = [full_decomposition(FIG10), full_decomposition(FIG8)]
        stack = channel_spectrum(decomps, ("cavity1",), np.linspace(-20.0, 20.0, 81))
        assert stack.labels == MODE_LABELS
        single = channel_spectrum([decomps[1]], ["cavity1"], np.linspace(-20.0, 20.0, 81))
        assert np.array_equal(stack.interference("QCD", "QFD-")[1, 0],
                              single.interference("QCD", "QFD-")[0, 0])

    def test_integrated_spectrum_keeps_single_call_bits(self, rng):
        decomps = self.decompositions(rng)
        # a lossless point cannot decay; a cavity-1 start leaves the lossless
        # cavity-dark mode of gamma = kappa_b = 0 unexcited (chi = 0), which the
        # Gramian equation cannot take and the pair matrices can
        lossless = SystemParams(g=3.0, v=7.0, kappa=0, kappa_b=0, gamma=0)
        dark = SystemParams(g=2.0, v=3.0, kappa=1.0, kappa_b=0.0, gamma=0.0)
        decomps[3:3] = [full_decomposition(lossless),
                        full_decomposition(dark, single_excitation("cavity1"))]
        results = integrated_spectrum(decomps)
        assert len(results) == len(decomps)
        for decomp, result in zip(decomps, results):
            (single,) = integrated_spectrum([decomp])
            if isinstance(single, DivergentIntegral):
                assert isinstance(result, DivergentIntegral) and str(result) == str(single)
                continue
            assert result.tobytes() == single.tobytes()
            assert abs(result.sum() - 1.0) < 1e-14
        assert str(results[3]) == "eta = -0.0 <= 0"
        assert results[4][[0, 1, 4]].tolist() == [0.0, 0.0, 0.0]

    def test_singular_gramian_fails_only_its_point(self):
        # kappa = kappa_b = 0 and v = 4055: the bright pair decays at 3.9e-17, which
        # rounding at the generator's scale (zeta = 5734) swamps in the 25 x 25 solve
        singular = full_decomposition(SystemParams(
            g=0.0003299426394885256, v=4054.840835000334, kappa=0, kappa_b=0,
            gamma=0.04841964414462772))
        decomps = [full_decomposition(FIG8), singular, full_decomposition(FIG10)]
        first, middle, last = integrated_spectrum(decomps)
        assert isinstance(middle, SingularMatrix)
        assert str(middle) == str(integrated_spectrum([singular])[0])
        assert "slowest decay rate, 3.92e-17" in str(middle)
        for decomp, totals in ((decomps[0], first), (decomps[2], last)):
            assert totals.tobytes() == integrated_spectrum([decomp])[0].tobytes()


    @staticmethod
    def assert_integrals_are_the_totals(decomps):
        # the channel c total of entry i of a stack and of the single point agree
        # bit for bit, whatever the pair integrals of spectrum entry [i, c] sum to
        channels = ("cavity2", "atom1", "fiber", "atom2", "cavity1")
        grid = np.linspace(-1.0, 1.0, 3)
        stack = channel_spectrum(decomps, channels, grid)
        integrals = integrated_spectrum(decomps)
        assert len(integrals) == len(decomps)
        for i, decomp in enumerate(decomps):
            (totals,) = integrated_spectrum([decomp])
            for c, channel in enumerate(channels):
                single = channel_spectrum([decomp], [channel], grid)
                assert (stack.pair_integrals[i, c].tobytes()
                        == single.pair_integrals[0, 0].tobytes())
                row = BARE_MODES.index(channel)
                bits = {np.float64(x).tobytes() for x in (integrals[i][row], totals[row])}
                assert len(bits) == 1, channel

    def test_stacked_integrals_are_those_of_the_entries(self, rng):
        decomps = self.decompositions(rng)
        self.assert_integrals_are_the_totals(decomps)
        # a point that cannot decay has its error as its entry, wherever it sits
        # in the stack, and the other point keeps its totals
        lossless = full_decomposition(SystemParams(g=3.0, v=7.0, kappa=0, kappa_b=0, gamma=0))
        for stacked, at in (([decomps[0], lossless], 1), ([lossless, decomps[1]], 0)):
            results = integrated_spectrum(stacked)
            assert isinstance(results[at], DivergentIntegral)
            assert re.fullmatch(r"eta = -?0\.0 <= 0", str(results[at]))
            assert results[1 - at].tobytes() == integrated_spectrum([stacked[1 - at]])[0].tobytes()


class TestNearExceptionalPoints:
    """Channel totals against the Lyapunov oracle where chi grows without bound."""

    @staticmethod
    def oracle(params):
        c0 = single_excitation("atom1")
        gramian = solve_continuous_lyapunov(bare_generator(params), -np.outer(c0, c0.conj()))
        return flux_weights(params) * gramian.diagonal().real

    @pytest.mark.parametrize("name", sorted(NEAR_EP))
    def test_stacked_integrals_are_the_totals(self, name):
        # a stack that summed its chi pair integrals was off by up to 0.295 here
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LabelAmbiguous)
            decomp = full_decomposition(SystemParams(**NEAR_EP[name]))
        TestStackedKernel.assert_integrals_are_the_totals([decomp])

    def test_critical_damping_approached(self):
        # g = g_c (1 + r) with g_c = |gamma/2 - kappa| / 2: |p| ~ g_c sqrt(2 r); the
        # pair kernel's totals were off by up to 3.4e-3 at r = 1e-15
        g_c = abs(GAMMA / 2 - 1.0) / 2
        worst = 0.0
        for r in (1e-3, 1e-7, 1e-11, 1e-15, -1e-7, -1e-11):
            params = SystemParams(g=g_c * (1 + r), v=7.0, kappa=1.0, kappa_b=0.01,
                                  gamma=GAMMA)
            (totals,) = integrated_spectrum([full_decomposition(params)])
            worst = max(worst, np.abs(totals - self.oracle(params)).max(),
                        abs(totals.sum() - 1.0))
        print(f"max |total - Lyapunov| and |sum - 1| near p = 0: {worst:.2g} (bound 1e-12)")
        assert worst <= 1e-12

    def test_double_root_of_the_symmetric_block(self):
        # the cubic's discriminant changes sign between g and the next float up;
        # the dense fallback's vectors are nearly parallel there (cond ~ 1e8)
        params = SystemParams(g=0.5132798211629388, v=1.0, kappa=1.0, kappa_b=8.0,
                              gamma=0.5)
        with pytest.warns(LabelAmbiguous):
            decomp = full_decomposition(params)
        (totals,) = integrated_spectrum([decomp])
        worst = max(np.abs(totals - self.oracle(params)).max(), abs(totals.sum() - 1.0))
        print(f"max |total - Lyapunov| and |sum - 1| at the double root: {worst:.2g} "
              f"(bound 1e-12)")
        assert worst <= 1e-12


class TestLorentzianApproximation:
    def test_fig7_fiber_output_interference_is_small(self):
        # oracle-measured relative L2 gap on the default grid is 0.1134:
        # visibly "three Lorentzians" but not below it
        decomp = full_decomposition(FIG7)
        spec = channel_spectrum([decomp], ["fiber"])
        approx = lorentzian_approximation(spec)[0, 0]
        rel = np.linalg.norm(approx - spec.spectrum[0, 0]) / np.linalg.norm(spec.spectrum[0, 0])
        assert rel < 0.12

    def test_fig8_fails_on_resonance_while_lorentzians_cannot_differ(self):
        decomp = full_decomposition(FIG8)
        grid = np.linspace(-1.0, 1.0, 201)
        s1 = channel_spectrum([decomp], ["cavity1"], grid)
        s2 = channel_spectrum([decomp], ["cavity2"], grid)
        i0 = (0, 0, np.argmin(np.abs(grid)))
        assert abs(s1.spectrum[i0] - s2.spectrum[i0]) > 5e-5 * max(s1.spectrum[i0], 1e-30)
        l1, l2 = lorentzian_approximation(s1)[0, 0], lorentzian_approximation(s2)[0, 0]
        assert np.abs(l1 - l2).max() <= 1e-12 * np.abs(l1).max()


class TestCavityCoefficients:
    def test_exact_symmetry_relations(self):
        decomp = full_decomposition(FIG8)
        c1 = decomp.chi_coeffs[2]
        c2 = decomp.chi_coeffs[3]
        for label in ("QBS+", "QBS-", "QCD"):
            j = decomp.index(label)
            assert c1[j] == pytest.approx(c2[j], abs=1e-12)
        for label in ("QFD+", "QFD-"):
            j = decomp.index(label)
            assert c1[j] == pytest.approx(-c2[j], abs=1e-12)
        assert np.abs(np.abs(c1) - np.abs(c2)).max() < 1e-12

    def test_perturbative_values_close_to_exact(self):
        decomp = full_decomposition(FIG8)
        coeffs = cavity_coefficients(FIG8)
        assert np.abs(coeffs[0] - decomp.chi_coeffs[2]).max() < 5e-3
        # the fiber-dark entries (QFD+ in column 3) are exact, +-g/4p
        p = derive_rates(FIG8).p
        assert coeffs[0, 3] == pytest.approx(FIG8.g / (4 * p))
        assert coeffs[1, 3] == pytest.approx(-FIG8.g / (4 * p))

    def test_dark_mode_suppressed_at_kappa_b_gamma_half(self):
        params = SystemParams(g=7.0, v=4.0, kappa=1.0, kappa_b=GAMMA / 2, gamma=GAMMA)
        assert derive_rates(params).gamma_sd == 0.0
        coeffs = cavity_coefficients(params)
        assert abs(coeffs[0, 2]) < 1e-12  # cavity 1, QCD
        decomp = full_decomposition(params)
        assert abs(decomp.chi_coeffs[2, decomp.index("QCD")]) < 1e-12

    def test_critical_point_raises_degenerate_block(self):
        # g = |Gamma_A-|/2 gives p = 0, where the fiber-dark entries +-g/4p diverge
        params = SystemParams(g=abs(GAMMA / 2 - 1.0) / 2, v=7.0, kappa=1.0,
                              kappa_b=0.01, gamma=GAMMA)
        assert derive_rates(params).p == 0
        with pytest.raises(DegenerateBlock, match="p = 0: the anti-symmetric block"):
            cavity_coefficients(params)

    def test_coefficients_sum_to_perturbative_amplitudes(self, rng):
        # alpha_c(t) = sum_j chi_cj e^(lambda_j t) over the variant's three
        # eigenvalues and the exact decomposition's fiber-dark pair.  Each
        # side rounds each term |chi_j e^(lambda_j t)| <= |chi_j| a few times
        # (t >= 0, every lambda decays), so they agree to a few eps sum |chi_j|.
        eps = np.finfo(float).eps
        worst, skipped, checked = 0.0, 0, 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            for _ in range(1000):
                g, v = np.exp(rng.uniform(np.log(0.1), np.log(100.0), 2))
                kappa, kappa_b, gamma = np.exp(rng.uniform(np.log(0.01), np.log(10.0), 3))
                params = SystemParams(g=g, v=v, kappa=kappa, kappa_b=kappa_b, gamma=gamma)
                fiber_dark = full_decomposition(params).eigenvalues[3:]
                for variant in VARIANTS:
                    sym = perturbative_symmetric(params, variant).eigenvalues
                    if sym.real.max() >= 0:
                        skipped += 1
                        continue
                    lam = np.concatenate([sym, fiber_dark])
                    t = np.linspace(0.0, 5 / (-lam.real).min(), 51)
                    coeffs = cavity_coefficients(params, variant)
                    amplitudes = perturbative_cavity_amplitudes(params, t, variant)
                    total = coeffs @ np.exp(np.outer(lam, t))
                    scale = np.abs(coeffs).sum(axis=1)
                    worst = max(worst, (np.abs(total - amplitudes).max(axis=1) / scale).max())
                    checked += 1
        bound = 4 * eps
        print(f"{checked} draws checked, {skipped} skipped (a perturbative eigenvalue "
              f"does not decay): max |sum - alpha| / sum|chi| = {worst:.2g} (bound {bound:.2g})")
        assert checked > 2500
        assert worst <= bound

    def test_regime_warning_propagates(self):
        with pytest.warns(RegimeWarning):
            cavity_coefficients(SystemParams(g=50, v=1, kappa=1, kappa_b=0.01,
                                             gamma=GAMMA))


def test_fig6_low_coupling_single_central_feature():
    # unresolved fiber-dark pair: the strongest response sits near zero and
    # only small bright features appear out at +-zeta
    decomp = full_decomposition(FIG6[2.0])
    spec = channel_spectrum([decomp], ["cavity1"])
    grid, val = spec.omega_grid[0, 0], spec.spectrum[0, 0]
    assert abs(grid[np.argmax(val)]) < derive_rates(FIG6[2.0]).gamma_a_plus / 2
    zeta = derive_rates(FIG6[2.0]).zeta
    bright = val[np.abs(np.abs(grid) - zeta) < 1.0].max()
    # bright features are present but subordinate (measured ratio 0.19)
    assert 0.01 * val.max() < bright < 0.5 * val.max()
