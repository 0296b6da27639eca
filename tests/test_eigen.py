"""Quasi-mode diagonalization: blocks, labels, weights and reconstruction."""

import warnings
from collections import Counter
from itertools import permutations

import mpmath
import numpy as np
import pytest

from fiberqed import (
    MODE_LABELS,
    DegenerateBlock,
    InaccurateRoots,
    LabelAmbiguous,
    SingularMatrix,
    SystemParams,
    bare_generator,
    derive_rates,
    fiber_dark_amplitudes,
    full_decomposition,
    full_decompositions,
    normal_generator,
    normal_mode_matrix,
)
from fiberqed.eigen import antisymmetric_block, symmetric_block
from fiberqed.model import symmetric_generator

from conftest import FIG3, FIG4, FIG5, FIG6, FIG8, GAMMA, atom1_oracle, exact_fiber_dark_roots

U = np.finfo(float).eps / 2  # unit roundoff


def random_symmetric(rng):
    g, v = rng.uniform(0.5, 20, 2)
    kappa, kappa_b = rng.uniform(0.0, 3, 2)
    return SystemParams(g=g, v=v, kappa=kappa, kappa_b=kappa_b, gamma=GAMMA)


# overdamped fiber-dark pairs with one dominant loss and a small g: two points
# in the domain sampler's range and a draw near the 2.12e51 rate bound
SLOW_ROOTS = {
    "kappa=1e6": SystemParams(g=1e-7, v=1.0, kappa=1e6, kappa_b=1.0, gamma=1e-6),
    "kappa=1e4": SystemParams(g=1e-5, v=1.0, kappa=1e4, kappa_b=1.0, gamma=1e-4),
    "near-bound": SystemParams(g=0.0004911013397148218, v=28.263913844086286,
                               kappa=2.043224987691307e+51, kappa_b=621109.8233976194,
                               gamma=0.00011079843771262597),
}


class TestAntisymmetricBlock:
    def test_lossless_pure_oscillation(self):
        params = SystemParams(g=4.0, v=1.0, kappa=0, kappa_b=0, gamma=0)
        (lam,), _, _, _ = antisymmetric_block([params], [derive_rates(params)])
        # splitting +-g: QFD+ oscillates at +g, i.e. eigenvalue -i g
        assert lam[0] == pytest.approx(-4j)
        assert lam[1] == pytest.approx(+4j)

    def test_vanishing_cross_damping_reduces_to_normal_modes(self):
        # kappa = gamma/2 makes Gamma_A- = 0
        params = SystemParams(g=4.0, v=1.0, kappa=GAMMA / 2, kappa_b=0.01, gamma=GAMMA)
        (lam,), (right,), _, _ = antisymmetric_block([params], [derive_rates(params)])
        assert np.array_equal(right, np.eye(2))
        gp = derive_rates(params).gamma_a_plus
        assert lam[0] == pytest.approx(-gp / 2 - 4j)
        assert lam[1] == pytest.approx(-gp / 2 + 4j)

    def test_fig6_fixed_rates_eigenvalues(self):
        # kappa=1, gamma=5.2, g=10: p = sqrt(100 - 0.64), decay Gamma_A+/2 = 1.8
        (lam,), _, _, _ = antisymmetric_block([FIG6[10.0]], [derive_rates(FIG6[10.0])])
        p = np.sqrt(99.36)
        assert lam[0] == pytest.approx(-1.8 - 1j * p, abs=1e-12)
        assert lam[1] == pytest.approx(-1.8 + 1j * p, abs=1e-12)

    def test_unnormalized_right_vectors_as_printed(self):
        r = derive_rates(FIG8)
        _, (right,), _, _ = antisymmetric_block([FIG8], [r])
        g, p, gm = FIG8.g, r.p, r.gamma_a_minus
        assert right[0, 0] == pytest.approx(2j * (g + p) / gm)
        assert right[0, 1] == pytest.approx(2j * (g - p) / gm)
        assert np.all(right[1] == 1.0)

    def test_biorthonormal(self, rng):
        for _ in range(20):
            params = random_symmetric(rng)
            _, (right,), (left,), _ = antisymmetric_block([params], [derive_rates(params)])
            eye = left @ right
            assert np.abs(eye - np.eye(2)).max() < 1e-10

    def test_vectors_diagonalize_the_block(self):
        (lam,), (right,), (left,), _ = antisymmetric_block([FIG8], [derive_rates(FIG8)])
        recon = right @ np.diag(lam) @ left
        assert np.abs(recon - _antisymmetric_generator(FIG8)).max() < 1e-12

    def test_conjugate_pairing_when_underdamped(self, rng):
        for _ in range(20):
            params = random_symmetric(rng)
            if derive_rates(params).p.imag != 0:
                continue
            (lam,), _, _, _ = antisymmetric_block([params], [derive_rates(params)])
            assert lam[0] == pytest.approx(np.conj(lam[1]), abs=1e-12)

    def test_degenerate_block_raises(self):
        # g = |Gamma_A-|/2 = 0.8 puts the block exactly at critical damping
        params = SystemParams(g=0.8, v=5.0, kappa=1.0, kappa_b=0.01, gamma=GAMMA)
        assert derive_rates(params).p == 0
        *_, failed = antisymmetric_block([params], [derive_rates(params)])
        assert isinstance(failed[0], DegenerateBlock)

    @pytest.mark.parametrize("params", SLOW_ROOTS.values(), ids=SLOW_ROOTS)
    def test_overdamped_slow_root_does_not_cancel(self, params):
        # -Gamma_A+/2 + |p| is two nearly equal numbers here.  The slow root is
        # the product of the roots, g^2 + kappa gamma/2 (2u), over minus the fast
        # one, Gamma_A+/2 (u) + |p| (3u from Gamma_A-^2/4 with g^2 << Gamma_A-^2/4,
        # 4u from the difference, and the square root), added (u) and divided
        # (u): 7u relative to first order.  The fast root adds one rounding.
        assert derive_rates(params).p.imag > 0
        (lam,), _, _, _ = antisymmetric_block([params], [derive_rates(params)])
        err = [float(abs(x - y) / abs(y)) for x, y in zip(lam, exact_fiber_dark_roots(params))]
        bound = 7 * U
        print(f"QFD+ = {lam[0].real:.14g}: relative errors {err[0]:.2g}, {err[1]:.2g} "
              f"(bound {bound:.2g})")
        assert max(err) <= bound


class TestFiberDarkAmplitudes:
    def test_initial_value(self):
        a_plus, a_minus = fiber_dark_amplitudes(FIG3, np.array([0.0]))
        assert a_plus[0] == pytest.approx(0.5, abs=1e-14)
        assert a_minus[0] == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("params", [FIG3, FIG4, FIG5])
    def test_conjugate_pair(self, params):
        t = np.linspace(0.0, 5 / derive_rates(params).gamma_a_plus, 1000)
        a_plus, a_minus = fiber_dark_amplitudes(params, t)
        assert np.abs(a_plus - np.conj(a_minus)).max() < 1e-12

    @pytest.mark.parametrize("params", [FIG3, FIG4, FIG5])
    def test_matches_ode_oracle(self, params):
        t_max = 5 / derive_rates(params).gamma_a_plus
        traj = atom1_oracle(params, t_max=round(t_max, 6), dt=2e-5, record_every=100)
        normal = traj.states @ normal_mode_matrix(params).T
        a_plus, a_minus = fiber_dark_amplitudes(params, traj.times)
        assert np.abs(normal[:, 2] - a_plus).max() < 1e-8
        assert np.abs(normal[:, 3] - a_minus).max() < 1e-8

    def test_overdamped_decays_without_oscillation(self):
        # g below |Gamma_A-|/2: imaginary p, monotone envelope
        params = SystemParams(g=0.3, v=5.0, kappa=1.0, kappa_b=0.01, gamma=GAMMA)
        assert derive_rates(params).p.imag > 0
        traj = atom1_oracle(params, t_max=3.0, record_every=75)
        normal = traj.states @ normal_mode_matrix(params).T
        a_plus, a_minus = fiber_dark_amplitudes(params, traj.times)
        assert np.abs(a_plus - normal[:, 2]).max() < 1e-8
        assert np.abs(a_minus - normal[:, 3]).max() < 1e-8
        # no oscillation: the envelope |A+| decays monotonically
        assert np.all(np.diff(np.abs(a_plus)) < 0)

    @pytest.mark.parametrize("r", [-1e-3, 1e-3, 1e-7, -1e-11, 1e-11, 1e-15, 0.0])
    def test_matches_expm_through_critical_damping(self, r):
        # g = g_c (1 + r) approaches p = 0 from both sides; an eigenvector
        # form loses accuracy like eps/|p| there, the matrix exponential not
        from scipy.linalg import expm

        g_c = abs(GAMMA / 2 - 1.0) / 2
        params = SystemParams(g=g_c * (1 + r), v=7.0, kappa=1.0, kappa_b=0.01, gamma=GAMMA)
        t = np.linspace(0.0, 3.0, 301)
        ref = np.array([expm(_antisymmetric_generator(params) * x) @ [0.5, 0.5] for x in t])
        a_plus, a_minus = fiber_dark_amplitudes(params, t)
        err = max(np.abs(a_plus - ref[:, 0]).max(), np.abs(a_minus - ref[:, 1]).max())
        bound = 4 * np.finfo(float).eps  # amplitudes are at most 1/2
        print(f"r = {r:g}, |p| = {abs(derive_rates(params).p):.2g}: "
              f"max |A - expm| = {err:.2g} (bound {bound:.2g})")
        assert err <= bound

    def test_overdamped_stays_finite_at_long_times(self):
        # a slow overdamped block (decay ~2e-3) keeps a nonzero amplitude at
        # t = 5000; the fast exponent never overflows the formula.  Rounding
        # the exponent lambda t alone costs eps |lambda| t, relative.
        params = SystemParams(g=0.05, v=7.0, kappa=1e-3, kappa_b=0.01, gamma=GAMMA)
        assert derive_rates(params).p.imag > 0
        t = np.linspace(0.0, 5000.0, 201)
        a_plus, a_minus = fiber_dark_amplitudes(params, t)
        assert np.isfinite(a_plus).all() and np.isfinite(a_minus).all()
        decomp = full_decomposition(params)
        ref = (normal_mode_matrix(params) @ decomp.bare_amplitudes(t))[2:4]
        err = max((np.abs(a - b) / np.abs(b)).max() for a, b in zip((a_plus, a_minus), ref))
        bound = np.finfo(float).eps * np.abs(decomp.eigenvalues).max() * t[-1]
        print(f"max relative |A - eigen-sum| = {err:.2g} (bound {bound:.2g})")
        assert err <= bound

    def test_overdamped_slow_amplitude_does_not_cancel(self):
        # A+- = e^(lambda_slow t)/2 [1 + E/2 - t E/z (Gamma_A-/2 +- i g)] with
        # z = 2ipt and E = expm1(z) = -1 at t = 1/|lambda_slow|.  The exponent
        # lambda_slow t carries the slow root's 7u (see TestAntisymmetricBlock)
        # and its product's u, exp one more: 9u.  t E/z carries |p|'s 3u, the
        # product 2ipt, the quotient and the product by t: 6u; times
        # Gamma_A-/2 +- i g (u), a complex product (u), then added to 1/2 with
        # the like sign (u): 9u.  The product of the two factors adds 2u: 20u.
        params = SLOW_ROOTS["kappa=1e6"]
        slow, fast = exact_fiber_dark_roots(params)
        t = float(-1 / slow.real)
        amplitudes = fiber_dark_amplitudes(params, np.array([t]))
        with mpmath.workdps(150):
            z = (fast - slow) * t
            e = mpmath.expm1(z)
            half = (mpmath.mpf(params.gamma) / 2 - params.kappa) / 2
            exact = [mpmath.exp(slow * t) / 2 * (1 + e / 2 - t * e / z * (half + 1j * g))
                     for g in (params.g, -params.g)]
            err = max(float(abs(a[0] - b) / abs(b)) for a, b in zip(amplitudes, exact))
        bound = 20 * U
        print(f"max relative |A - exact| = {err:.2g} (bound {bound:.2g})")
        assert err <= bound


def _antisymmetric_generator(params):
    """The 2x2 anti-symmetric block over (A+, A-)."""
    r = derive_rates(params)
    return np.array(
        [
            [-1j * params.g - r.gamma_a_plus / 2, -r.gamma_a_minus / 2],
            [-r.gamma_a_minus / 2, 1j * params.g - r.gamma_a_plus / 2],
        ]
    )


class TestSymmetricBlock:
    def test_decoupled_diagonal(self):
        # kappa = kappa_b = gamma/2 kills both off-diagonal couplings
        params = SystemParams(
            g=3.0, v=7.0, kappa=GAMMA / 2, kappa_b=GAMMA / 2, gamma=GAMMA
        )
        r = derive_rates(params)
        assert r.gamma_sd == 0.0 and r.gamma_s_minus == 0.0
        (lam,), _, _, _, _ = symmetric_block([r])
        expected = [-r.gamma_s_plus / 2 - 1j * r.zeta,
                    -r.gamma_s_plus / 2 + 1j * r.zeta,
                    -r.gamma_d]
        assert np.abs(lam - expected).max() < 1e-12

    def test_lossless_limit(self):
        params = SystemParams(g=3.0, v=7.0, kappa=0, kappa_b=0, gamma=0)
        zeta = derive_rates(params).zeta
        (lam,), _, _, _, _ = symmetric_block([derive_rates(params)])
        assert np.abs(lam - [-1j * zeta, 1j * zeta, 0.0]).max() < 1e-12

    @pytest.mark.parametrize("params", [FIG5, FIG8, FIG6[10.0]])
    def test_against_dense_five_mode_solve(self, params):
        # the full bare generator contains the same three symmetric roots
        (eigenvalues,), _, _, _, _ = symmetric_block([derive_rates(params)])
        dense = np.linalg.eigvals(bare_generator(params))
        for lam in eigenvalues:
            assert np.abs(dense - lam).min() < 1e-10

    def test_biorthonormal(self, rng):
        for _ in range(20):
            _, (right,), (left,), _, _ = symmetric_block([derive_rates(random_symmetric(rng))])
            eye = left @ right
            assert np.abs(eye - np.eye(3)).max() < 1e-10

    def test_labels_follow_decoupled_ancestors(self):
        r = derive_rates(FIG8)
        (lam,), _, _, (labeled,), _ = symmetric_block([r])
        assert labeled  # the columns are (QBS+, QBS-, QCD)
        # QBS+ has frequency near +zeta (delta = -Im lambda), QCD near zero
        assert -lam[0].imag == pytest.approx(r.zeta, abs=0.1)
        assert abs(lam[2].imag) < 0.1

    def test_three_real_roots_labels(self):
        # g = v = 0.01 overdamps the bright pair: QCD is the root whose vector
        # is richest in D (2/3 at weak coupling) and QBS+ the slower of the rest
        params = SystemParams(g=0.01, v=0.01, kappa=1.0, kappa_b=0.01, gamma=GAMMA)
        (lam,), (right,), (left,), (labeled,), _ = symmetric_block([derive_rates(params)])
        assert labeled  # the columns are (QBS+, QBS-, QCD)
        assert np.abs(lam.real - [-0.01020, -0.99986, -2.59994]).max() < 1e-5
        assert np.argmax(np.abs(right[2])) == 2
        eye = left @ right
        assert np.abs(eye - np.eye(3)).max() < 1e-10
        traj = atom1_oracle(params, t_max=3.0, record_every=100)
        recon = full_decomposition(params).bare_amplitudes(traj.times).T
        assert np.abs(recon - traj.states).max() < 1e-8

    @pytest.mark.parametrize(
        "kappa, expected",
        [(1.0, [-1.00006, -2.59994, -0.01000]), (0.1, [-0.10004, -2.59996, -0.01000])],
    )
    def test_weak_coupling_labels(self, kappa, expected):
        # g >> v far past the exceptional point: the bright pair sits near
        # -kappa and -gamma/2, and the root near -kappa_b is almost pure D
        params = SystemParams(g=0.01, v=1e-4, kappa=kappa, kappa_b=0.01, gamma=GAMMA)
        (lam,), (right,), _, (labeled,), _ = symmetric_block([derive_rates(params)])
        assert labeled  # column 2 is QCD
        assert abs(right[2, 2]) > 0.99
        assert np.abs(lam.real - expected).max() < 1e-5

    def test_conjugate_pair_labels(self, rng):
        pairs = 0
        for _ in range(400):
            g, v, kappa, kappa_b, gamma = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), 5))
            params = SystemParams(g=g, v=v, kappa=kappa, kappa_b=kappa_b, gamma=gamma)
            sym = normal_generator(params)[np.ix_([0, 1, 4], [0, 1, 4])]
            roots = np.linalg.eigvals(sym)
            if np.abs(roots.imag).max() <= 1e-8 * np.abs(roots).max():
                continue  # three real roots
            pairs += 1
            (lam,), _, _, _, _ = symmetric_block([derive_rates(params)])
            scale = np.abs(lam).max()
            assert lam[0].imag < 0  # QBS+ oscillates at +zeta
            assert abs(lam[1] - np.conj(lam[0])) <= 1e-12 * scale
            assert abs(lam[2].imag) == np.abs(lam.imag).min()
            dense = np.linalg.eigvals(bare_generator(params))
            for x in lam:
                assert np.abs(dense - x).min() <= 1e-10 * max(1.0, abs(x))
        assert pairs > 200


class TestFullDecomposition:
    def test_biorthonormality_many_draws(self, rng):
        for _ in range(50):
            decomp = full_decomposition(random_symmetric(rng))
            eye = decomp.left_vectors @ decomp.right_vectors
            assert np.abs(eye - np.eye(5)).max() < 1e-10

    def test_stable_eigenvalues(self, rng):
        for _ in range(20):
            decomp = full_decomposition(random_symmetric(rng))
            assert np.all(decomp.eigenvalues.real <= 1e-12)

    def test_block_structure_of_coefficients(self):
        decomp = full_decomposition(FIG8)
        lam = decomp.right_vectors * decomp.weights
        sym_rows, anti_rows = [0, 1, 4], [2, 3]
        # each normal amplitude mixes at most three eigenvalues, each bare
        # amplitude at most five
        assert np.abs(lam[np.ix_(sym_rows, [3, 4])]).max() == 0.0
        assert np.abs(lam[np.ix_(anti_rows, [0, 1, 2])]).max() == 0.0

    @pytest.mark.parametrize(
        "params,dt", [(FIG3, 1e-4), (FIG4, 5e-5), (FIG5, 5e-5), (FIG8, 5e-5)]
    )
    def test_reconstruction_matches_oracle(self, params, dt):
        eta_min = float(-np.max(full_decomposition(params).eigenvalues.real))
        t_max = round(5 / eta_min, 6)
        traj = atom1_oracle(params, t_max=t_max, dt=dt, record_every=200)
        decomp = full_decomposition(params)
        recon = decomp.bare_amplitudes(traj.times).T
        assert np.abs(recon - traj.states).max() < 1e-8
        normal = (normal_mode_matrix(params) @ decomp.bare_amplitudes(traj.times)).T
        mapped = traj.states @ normal_mode_matrix(params).T
        assert np.abs(normal - mapped).max() < 1e-8

    def test_eta_delta_sign_convention(self):
        decomp = full_decomposition(FIG8)
        # every mode decays (eta = -Re lambda > 0), and the QFD+ mode
        # oscillates at +p (delta = -Im lambda)
        assert np.all(-decomp.eigenvalues.real > 0)
        assert -decomp.eigenvalues.imag[decomp.index("QFD+")] == pytest.approx(
            derive_rates(FIG8).p.real
        )

    def test_eigenvalue_continuity_across_critical_damping(self):
        # approach p = 0 along Gamma_A- from both sides
        g = 0.8
        lams = []
        for delta in (-1e-13, 1e-13):
            params = SystemParams(
                g=g, v=5.0, kappa=1.0 + g * delta, kappa_b=0.01, gamma=GAMMA
            )
            (lam,), _, _, _ = antisymmetric_block([params], [derive_rates(params)])
            lams.append(np.sort_complex(lam))
        assert np.abs(lams[0] - lams[1]).max() < 1e-6

    def test_reconstruction_in_the_overdamped_regime(self):
        # every figure set is underdamped; exercise imaginary p end to end
        params = SystemParams(g=0.3, v=5.0, kappa=1.0, kappa_b=0.01, gamma=GAMMA)
        assert derive_rates(params).p.imag > 0
        decomp = full_decomposition(params)
        traj = atom1_oracle(params, t_max=4.0, record_every=100)
        recon = decomp.bare_amplitudes(traj.times).T
        assert np.abs(recon - traj.states).max() < 1e-8

    def test_reconstruction_on_random_symmetric_draws(self, rng):
        for _ in range(5):
            g, v = rng.uniform(0.5, 15, 2)
            kappa, kappa_b = rng.uniform(0.0, 2, 2)
            params = SystemParams(g=g, v=v, kappa=kappa, kappa_b=kappa_b,
                                  gamma=GAMMA)
            if derive_rates(params).p == 0:
                continue
            decomp = full_decomposition(params)
            traj = atom1_oracle(params, t_max=3.0, record_every=100)
            recon = decomp.bare_amplitudes(traj.times).T
            assert np.abs(recon - traj.states).max() < 1e-8

    def test_custom_initial_state(self):
        from fiberqed import single_excitation

        decomp = full_decomposition(FIG8, single_excitation("fiber"))
        assert np.abs(decomp.bare_amplitudes(np.array([0.0]))[:, 0]
                      - [0, 0, 0, 0, 1]).max() < 1e-12

    def test_degenerate_block_propagates(self):
        critical = SystemParams(g=0.8, v=5.0, kappa=1.0, kappa_b=0.01, gamma=GAMMA)
        with pytest.raises(DegenerateBlock):
            full_decomposition(critical)


# g = 0.6, v = 0: the decoupled D root -kappa_b sits on an overdamped bright root
COINCIDENT = SystemParams(g=0.6, v=0.0, kappa=1.0, kappa_b=1.2708497377870814, gamma=GAMMA)


def _draw_families(rng, n):
    """Python-float parameter sets: the sweep range, random_symmetric, all
    five rates log-uniform over 1e-2..1e2 (three-real-root points included),
    the figure sets and the edge cases of the kernel."""
    from conftest import ALL_FIGURE_SETS

    points = []
    for _ in range(n):
        g = float(f"{np.exp(rng.uniform(np.log(0.05), np.log(100))):.6g}")
        points.append(SystemParams(g=g, v=float(f"{rng.uniform(2, 10):.6g}"),
                                   kappa=1.0, kappa_b=0.01, gamma=GAMMA))
        points.append(random_symmetric(rng))
        g, v, kappa, kappa_b, gamma = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), 5))
        points.append(SystemParams(g=g, v=v, kappa=kappa, kappa_b=kappa_b, gamma=gamma))
    points += list(ALL_FIGURE_SETS.values())
    points += [
        COINCIDENT,
        SystemParams(g=0.8, v=5.0, kappa=1.0, kappa_b=0.01, gamma=GAMMA),  # p = 0
        SystemParams(g=4.0, v=1.0, kappa=GAMMA / 2, kappa_b=0.01, gamma=GAMMA),
        SystemParams(g=0.0, v=0.0, kappa=1.0, kappa_b=0.01, gamma=GAMMA),
    ]
    return points


def _bits(decomp):
    arrays = (decomp.eigenvalues, decomp.right_vectors, decomp.left_vectors,
              decomp.weights, decomp.chi_coeffs)
    return decomp.labels, [a.tobytes() for a in arrays]


def _reference_decomposition(params):
    """Per-point scalar form of the symmetric-parameter decomposition.

    The oracle for the stacked kernel's bits: numpy scalar complex
    arithmetic for the Cardano step, np.linalg.norm and np.cross on single
    vectors, Python sorting for the labels.
    """
    r = derive_rates(params)
    gsp, gsm, gsd, gd, zeta = r.gamma_s_plus, r.gamma_s_minus, r.gamma_sd, r.gamma_d, r.zeta
    sm = gsm / 2
    c2 = gsp + gd
    c1 = gsp**2 / 4 + zeta**2 - sm**2 + gd * gsp - 2 * gsd**2
    c0 = gd * (gsp**2 / 4 + zeta**2 - sm**2) - gsd**2 * (gsp - 2 * sm)
    a = c2 / 3.0
    p = c1 - c2 * c2 / 3.0
    q = c0 - c1 * c2 / 3.0 + 2.0 * c2**3 / 27.0
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    s = np.sqrt(complex(disc))
    u3 = -q / 2.0 + s
    if abs(u3) < abs(-q / 2.0 - s):
        u3 = -q / 2.0 - s
    u = u3 ** (1.0 / 3.0)
    w = np.exp(2j * np.pi / 3.0)
    us = np.array([u, u * w, u * np.conj(w)])
    roots = us - p / (3.0 * us) - a
    for _ in range(2):
        f = ((roots + c2) * roots + c1) * roots + c0
        df = (3.0 * roots + 2.0 * c2) * roots + c1
        roots = roots - np.where(df != 0, f / np.where(df != 0, df, 1.0), 0.0)

    gen = normal_generator(params)[np.ix_([0, 1, 4], [0, 1, 4])]
    vectors = []
    for lam in roots:
        b = gen - lam * np.eye(3)
        best = np.zeros(3, dtype=complex)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            cand = np.cross(b[i], b[j])
            if np.linalg.norm(cand) > np.linalg.norm(best):
                best = cand
        vectors.append(best / np.linalg.norm(best))
    if disc > 0:
        qcd, *pair = np.argsort(np.abs(roots.imag))
        plus, minus = sorted(pair, key=lambda j: roots[j].imag)
    else:
        qcd = max(range(3), key=lambda j: abs(vectors[j][2]))
        minus, plus = sorted({0, 1, 2} - {qcd}, key=lambda j: roots[j].real)
    order = [plus, minus, qcd]
    sym_right = np.column_stack([vectors[j] for j in order])
    (anti_lam,), (anti_right,), (anti_left,), _ = antisymmetric_block(
        [params], [derive_rates(params)])

    right = np.zeros((5, 5), dtype=complex)
    left = np.zeros((5, 5), dtype=complex)
    right[np.ix_([0, 1, 4], [0, 1, 2])] = sym_right
    right[np.ix_([2, 3], [3, 4])] = anti_right
    left[np.ix_([0, 1, 2], [0, 1, 4])] = np.linalg.inv(sym_right)
    left[np.ix_([3, 4], [2, 3])] = anti_left
    trans = normal_mode_matrix(params)
    weights = left @ (trans @ np.array([1, 0, 0, 0, 0], dtype=complex))
    eigenvalues = np.concatenate([roots[order], anti_lam])
    return MODE_LABELS, [x.tobytes() for x in (
        eigenvalues, right, left, weights, trans.T @ (right * weights[None, :]))]


class TestBatchedKernel:
    def test_batch_equals_single_calls_bit_for_bit(self, rng):
        # and both equal the per-point scalar reference wherever labels exist
        from fiberqed import full_decompositions

        points = _draw_families(rng, 300)
        with pytest.warns(LabelAmbiguous):
            batch = full_decompositions(points)
        assert len(batch) == len(points)
        for params, got in zip(points, batch):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", LabelAmbiguous)
                    single = full_decomposition(params)
            except ValueError as exc:
                assert type(got) is type(exc) and str(got) == str(exc)
                continue
            assert _bits(got) == _bits(single)
            if single.labels is not None:
                assert _bits(single) == _reference_decomposition(params)
        labeled = [d.labels is not None for d in batch if not isinstance(d, Exception)]
        # unlabeled: the coincident point; p = 0 and g = v = 0 are stored
        # errors, checked against the single call above
        assert labeled.count(False) == 1
        errors = sorted(type(d).__name__ for d in batch if isinstance(d, Exception))
        assert errors == ["DegenerateBlock", "ValueError"]

    def test_float_type_does_not_change_bits(self, rng):
        # np.float64 fields are stored as Python floats, so both give the same arithmetic
        names = ("g", "v", "kappa", "kappa_b", "gamma")
        for params in [FIG5] + [random_symmetric(rng) for _ in range(50)]:
            values = [getattr(params, name) for name in names]
            as_numpy = SystemParams(*map(np.float64, values))
            as_float = SystemParams(*map(float, values))
            assert all(type(getattr(as_numpy, name)) is float for name in names)
            assert _bits(full_decomposition(as_numpy)) == _bits(full_decomposition(as_float))

    def test_coincident_roots_fall_back_unlabeled(self):
        with pytest.warns(LabelAmbiguous):
            (lam,), (right,), (left,), (labeled,), _ = symmetric_block([derive_rates(COINCIDENT)])
        assert not labeled
        assert np.abs(left @ right - np.eye(3)).max() < 1e-10
        sym = normal_generator(COINCIDENT)[np.ix_([0, 1, 4], [0, 1, 4])]
        recon = right @ np.diag(lam) @ left
        assert np.abs(recon - sym).max() < 1e-12
        with pytest.warns(LabelAmbiguous):
            decomp = full_decomposition(COINCIDENT)
        assert decomp.labels is None
        traj = atom1_oracle(COINCIDENT, t_max=3.0, record_every=100)
        recon = decomp.bare_amplitudes(traj.times).T
        assert np.abs(recon - traj.states).max() < 1e-8

    def test_unlabeled_decomposition_has_no_index(self):
        with pytest.warns(LabelAmbiguous):
            decomp = full_decomposition(COINCIDENT)
        with pytest.raises(LookupError, match="decomposition is unlabeled"):
            decomp.index("QCD")

    def test_single_block_raises_its_points_inaccurate_roots(self):
        # zeta = 1e48 swamps the bright decay rate, as in the batch
        rounded_away = SystemParams(g=1e48, v=FIG8.v, kappa=FIG8.kappa,
                                    kappa_b=FIG8.kappa_b, gamma=FIG8.gamma)
        (batched,) = full_decompositions([rounded_away])
        assert isinstance(batched, InaccurateRoots)
        *_, failed = symmetric_block([derive_rates(rounded_away)])
        assert isinstance(failed[0], InaccurateRoots)
        assert str(failed[0]) == str(batched)

    def test_one_failing_point_does_not_fail_the_batch(self):
        from fiberqed import full_decompositions

        critical = SystemParams(g=0.8, v=5.0, kappa=1.0, kappa_b=0.01, gamma=GAMMA)
        first, second, third = full_decompositions([FIG8, critical, FIG3])
        assert isinstance(second, DegenerateBlock)
        assert _bits(first) == _bits(full_decomposition(FIG8))
        assert _bits(third) == _bits(full_decomposition(FIG3))

    def test_singular_matrix_fails_only_its_point(self):
        from fiberqed.eigen import _inverse

        mats = np.array([np.eye(3), np.ones((3, 3)), 2 * np.eye(3)], dtype=complex)
        inv, failed = _inverse(mats)
        assert list(failed) == [1] and str(failed[1]) == "Singular matrix"
        assert np.isnan(inv[1]).all()
        for i in (0, 2):
            assert inv[i].tobytes() == np.linalg.inv(mats[i]).tobytes()

    def test_singular_means_a_zero_pivot_not_a_tiny_determinant(self):
        from fiberqed.eigen import _inverse

        # det(1e-200 I) = 1e-600 underflows to 0, but its LU has no zero pivot
        mats = np.array([1e-200 * np.eye(3), np.ones((3, 3))], dtype=complex)
        inv, failed = _inverse(mats)
        assert list(failed) == [1] and isinstance(failed[1], SingularMatrix)
        assert inv[0].tobytes() == np.linalg.inv(mats[0]).tobytes()
        rhs = np.arange(12.0).reshape(2, 3, 2)
        x, failed = _inverse(mats, rhs)
        assert list(failed) == [1] and np.isnan(x[1]).all()
        assert x[0].tobytes() == np.linalg.solve(mats[0], rhs[0]).tobytes()


def _cubic_terms(r, num):
    """The terms that eigen._cubic_coefficients adds up to c2, c1 and c0, in the type num."""
    gsp, gsm, gsd, gd, zeta = (num(x) for x in (
        r.gamma_s_plus, r.gamma_s_minus, r.gamma_sd, r.gamma_d, r.zeta))
    sm = gsm / 2
    shared = [gsp**2 / 4, zeta**2, -sm**2]
    return ([gsp, gd], shared + [gd * gsp, -2 * gsd**2],
            [gd * t for t in shared] + [-gsd**2 * gsp, 2 * gsd**2 * sm])


def _matched_ratio(lam, ref, bound) -> float:
    """max_j |lam_j - ref_j| / bound_j over the best pairing of lam with ref;
    a root equal to its reference counts 0, also where its bound is 0."""
    def worst(pm):
        miss = np.abs(lam[list(pm)] - ref)
        with np.errstate(divide="ignore"):
            return float(np.max(np.divide(miss, bound, out=np.zeros_like(miss), where=miss > 0)))
    return min(worst(pm) for pm in permutations(range(len(ref))))


class TestRootContract:
    """Each symmetric block answers with roots as accurate as their conditioning allows,
    or is refused with DegenerateBlock (p = 0) or InaccurateRoots."""

    U = np.finfo(float).eps / 2

    @staticmethod
    def draws(n=4000):
        # log-uniform over 1e-5 ... 1e5, each rate exactly 0 with probability 0.1
        rng = np.random.default_rng(7)
        rates = np.exp(rng.uniform(np.log(1e-5), np.log(1e5), (n, 5)))
        rates[rng.random((n, 5)) < 0.1] = 0.0
        return [SystemParams(*map(float, x)) for x in rates if x[0] or x[1]]

    def test_roots_are_right_or_refused(self):
        points = self.draws()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LabelAmbiguous)
            results = full_decompositions(points)
        answered = [(p, d) for p, d in zip(points, results) if not isinstance(d, DegenerateBlock)]
        for params, decomp in answered:
            assert not isinstance(decomp, Exception), f"{params}: {decomp!r}"
        rates = [derive_rates(p) for p, _ in answered]
        blocks = symmetric_generator(*np.array(
            [(r.zeta, r.gamma_s_plus, r.gamma_s_minus, r.gamma_sd, r.gamma_d) for r in rates]).T)
        # a backward-stable dense solve errs by about n u |B|_F kappa_j (n = 3) to
        # first order, kappa_j = |x_j| |y_j| / |y_j x_j| from its right and left
        # vectors; roots within twice that of it are as good as the dense solve
        dense, right = np.linalg.eig(blocks)
        kappa = np.linalg.norm(right, axis=1) * np.linalg.norm(np.linalg.inv(right), axis=2)
        scale = 6 * self.U * np.linalg.norm(blocks, axis=(1, 2))[:, None] * kappa
        worst, oracle_calls = 0.0, 0
        for (params, decomp), r, ref, bound in zip(answered, rates, dense, scale):
            lam = decomp.eigenvalues[:3]
            if _matched_ratio(lam, ref, bound) <= 1:
                continue
            # otherwise the 50-digit roots of the cubic, within its conditioning:
            # the coefficients carry at most 10 roundings and Horner's residual 6
            oracle_calls += 1
            with mpmath.workdps(50):
                terms = _cubic_terms(r, mpmath.mpf)
                c2, c1, c0 = (sum(t) for t in terms)
                exact = mpmath.polyroots([1, c2, c1, c0], maxsteps=200, extraprec=200)
                slope = np.array([complex(3 * z**2 + 2 * c2 * z + c1) for z in exact])
            exact = np.array([complex(z) for z in exact])
            size = [float(sum(abs(t) for t in ts)) for ts in terms]
            mod = np.abs(exact)
            cond = (mod**3 + size[0] * mod**2 + size[1] * mod + size[2]) / np.abs(slope)
            ratio = _matched_ratio(lam, exact, 16 * self.U * cond)
            worst = max(worst, ratio)
            assert ratio <= 1, f"{params}: roots {lam}, 50-digit {exact}"
        refused = Counter(type(d).__name__ for d in results if isinstance(d, DegenerateBlock))
        print(f"{len(answered)} answered ({oracle_calls} held to 50 digits, worst "
              f"{worst:.2g} of the bound), refused: {dict(refused)}")
        assert refused["InaccurateRoots"] > 0
