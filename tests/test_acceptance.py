"""Acceptance suite: one test per criterion, one PASS/FAIL line per check.

Every tolerance is pinned here, and each line prints the measured value
next to its bound.  Four checks take their targets from closed forms of
the model rather than from the normal-mode picture alone: 7a subtracts the
cavity-dark weight (v/zeta)^2 of the initial state, 7b bounds the cavity
antisymmetry by g/zeta plus the bright-state drive of the cavity-dark
mode (antisymmetry_bound), 8 places the QBS peaks at the bright frequency
of the refined perturbative variant, and 9 compares the resonance ratio
with (1 + (kappa + 2 g^2/gamma) kappa_b / v^2)^2.
"""

import time
from dataclasses import replace

import numpy as np

from fiberqed import (
    SystemParams,
    channel_spectrum,
    derive_rates,
    fiber_dark_amplitudes,
    full_decomposition,
    normal_mode_matrix,
    occupations,
    perturbative_cavity_amplitudes,
    perturbative_symmetric,
)
from fiberqed.model import BARE_MODES

from conftest import (ALL_FIGURE_SETS, FIG3, FIG4, FIG5, FIG6, FIG8, FIG10, GAMMA, atom1_oracle,
                      full_line_quad, pole)

DYNAMIC_SETS = {"fig3": FIG3, "fig4": FIG4, "fig5": FIG5}


def check(results, name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    if not ok:
        results.append(name)


def finish(results):
    assert not results, f"failed checks: {', '.join(results)}"


def local_maxima(values):
    d = np.diff(values)
    return np.where((d[:-1] > 0) & (d[1:] <= 0))[0] + 1


def antisymmetry_bound(params, t_max):
    """Upper bound on |alpha1 + alpha2| over [0, t_max] for an atom-1 start.

    With X = S+ - S- = alpha1 + alpha2 and Y = S+ + S-, normal_generator gives
        X' = -kappa X - i zeta Y,  Y' = -i zeta X - m Y + 2 Gamma_SD D,
        D' = -Gamma_D D + Gamma_SD Y,  m = (Gamma_S+ + Gamma_S-)/2 >= 0.
    M = [[-kappa, -i zeta], [-i zeta, -m]] has a negative semidefinite
    Hermitian part, so ||exp(M t)|| <= 1.  With b = (0, 2 Gamma_SD), the
    vector w = (X, Y) + M^-1 b D obeys w' = M w + M^-1 b D', hence
        |X(t)| <= |(X, Y)(0)| + c (|D(0)| + int |D'| + |D(t)|),
        c = |M^-1 b| = 2 |Gamma_SD| hypot(zeta, kappa) / (zeta^2 + kappa m).
    Initially |(X, Y)| = g/zeta and |D| = v/zeta.  Norm decay gives
    |Y| <= sqrt(2), so Duhamel on D (Gamma_D > 0) gives
    |D(t)| <= v/zeta + sqrt(2) |Gamma_SD| / Gamma_D and
    int_0^T |D'| <= v/zeta + 2 sqrt(2) |Gamma_SD| T.
    """
    r = derive_rates(params)
    zeta, kappa = r.zeta, params.kappa
    m = (r.gamma_s_plus + r.gamma_s_minus) / 2
    gsd, d0 = abs(r.gamma_sd), params.v / zeta
    c = 2 * gsd * np.hypot(zeta, kappa) / (zeta**2 + kappa * m)
    drive = 3 * d0 + 2 * np.sqrt(2) * gsd * t_max + np.sqrt(2) * gsd / r.gamma_d
    return params.g / zeta + c * drive


def test_criterion_1_analytic_oracle_equivalence():
    """Closed-form fiber-dark amplitudes vs the brute-force integrator."""
    results = []
    for name, params in DYNAMIC_SETS.items():
        t_max = round(5 / derive_rates(params).gamma_a_plus, 6)
        start = time.perf_counter()
        traj = atom1_oracle(params, t_max=t_max, dt=2e-5, record_every=100)
        normal = traj.states @ normal_mode_matrix(params).T
        a_plus, a_minus = fiber_dark_amplitudes(params, traj.times)
        err = max(np.abs(normal[:, 2] - a_plus).max(),
                  np.abs(normal[:, 3] - a_minus).max())
        elapsed = time.perf_counter() - start
        check(results, f"1 {name} accuracy", err < 1e-8, f"max-abs err {err:.2e} < 1e-8")
        check(results, f"1 {name} runtime", elapsed < 1.0, f"{elapsed:.3f} s < 1 s")
    finish(results)


def test_criterion_2_conjugacy():
    """A+(t) equals conj(A-(t)) at 1000 sampled times per parameter set."""
    results = []
    for name, params in DYNAMIC_SETS.items():
        t = np.linspace(0.0, 5 / derive_rates(params).gamma_a_plus, 1000)
        a_plus, a_minus = fiber_dark_amplitudes(params, t)
        gap = np.abs(a_plus - np.conj(a_minus)).max()
        check(results, f"2 {name}", gap < 1e-12, f"max |A+ - A-*| = {gap:.2e} < 1e-12")
    finish(results)


def test_criterion_3_probability_conservation():
    """survival + detected = 1 up to 1e-6 at t_max = 10 / Gamma_min."""
    results = []
    for name, params in ALL_FIGURE_SETS.items():
        eta_min = float((-full_decomposition(params).eigenvalues.real).min())
        t_max = round(10 / eta_min, 6)
        traj = atom1_oracle(params, t_max=t_max, dt=1e-4, record_every=20000)
        resid = traj.conservation_residual()
        check(results, f"3 {name}", resid < 1e-6, f"residual {resid:.2e} < 1e-6")
    finish(results)


def test_criterion_4_spectral_reconstruction_identity():
    """Lorentzians + interference terms reproduce |c~(-i w)|^2 pointwise."""
    results = []
    for name, params in ALL_FIGURE_SETS.items():
        decomp = full_decomposition(params)
        worst = 0.0
        for channel in BARE_MODES:
            spec = channel_spectrum([decomp], [channel])
            direct = np.abs(spec.amplitude[0, 0]) ** 2
            lorentzian_sum = spec.lorentzians[0, 0].sum(axis=0)
            recon = lorentzian_sum + spec.interferences[0, 0].sum(axis=0)
            scale = np.maximum(direct, lorentzian_sum)
            worst = max(worst, float((np.abs(recon - direct) / scale).max()))
        check(results, f"4 {name}", worst < 1e-10, f"worst rel dev {worst:.2e} < 1e-10")
    finish(results)


def test_criterion_5_interference_integrals():
    """Closed-form net interference vs adaptive quadrature, all 10 pairs."""
    results = []
    for name, params in (("fig8", FIG8), ("fig10", FIG10)):
        decomp = full_decomposition(params)
        worst = 0.0
        for channel in ("cavity1", "cavity2"):
            spec = channel_spectrum([decomp], [channel])
            deltas = -spec.eigenvalues[0, 0].imag
            for j, k in spec.pairs:
                closed = spec.pair_integrals[0, 0, j, k] + spec.pair_integrals[0, 0, k, j]

                def w_of(w, _s=spec, _j=j, _k=k):
                    arr = np.array([w])
                    return float(2 * np.real(pole(_s, _j, arr)[0]
                                             * np.conj(pole(_s, _k, arr)[0])))

                oracle = full_line_quad(w_of, deltas)
                worst = max(worst, abs(closed - oracle) / abs(oracle))
        check(results, f"5 {name}", worst < 1e-6,
              f"worst rel dev over 20 channel-pairs {worst:.2e} < 1e-6")
    finish(results)


def test_criterion_6_parseval_per_channel():
    """Frequency-integrated spectrum = time-integrated flux, per channel."""
    results = []
    sets = {f"fig6_g{int(g)}": FIG6[g] for g in (2.0, 6.0, 10.0, 20.0)}
    sets["fig7"] = ALL_FIGURE_SETS["fig7"]
    sets["fig8"] = FIG8
    for name, params in sets.items():
        decomp = full_decomposition(params)
        eta_min = float((-decomp.eigenvalues.real).min())
        traj = atom1_oracle(params, t_max=round(10 / eta_min, 6), dt=1e-4,
                            record_every=20000)
        worst = 0.0
        for i, channel in enumerate(BARE_MODES):
            spec = channel_spectrum([decomp], [channel])
            deltas = -spec.eigenvalues[0, 0].imag

            def intensity(w, _s=spec):
                arr = np.array([w])
                return _s.prefactor[0, 0, 0] * abs(
                    sum(pole(_s, j, arr)[0] for j in range(5))
                ) ** 2

            freq_total = full_line_quad(intensity, deltas)
            time_total = float(traj.channel_probs[-1, i])
            worst = max(worst, abs(freq_total - time_total) / time_total)
        check(results, f"6 {name}", worst < 1e-4,
              f"worst rel dev over 5 channels {worst:.2e} < 1e-4")
    finish(results)


def test_criterion_7_regime_phenomenology():
    """Property checks standing in for the three dynamic regimes."""
    results = []
    # (a) atom-dominated confinement
    traj = atom1_oracle(FIG3, t_max=2.0, dt=1e-4, record_every=10)
    (_, _, _, cavity2, fiber, _, _, _, _, cd) = occupations(traj).T
    spill = max(cavity2.max(), fiber.max())
    check(results, "7a confinement", spill < 1e-2,
          f"max(|alpha2|^2, |beta|^2) = {spill:.2e} < 1e-2")
    # D(0) = -v/zeta for an atom-1 excitation (normal_mode_matrix row D), so
    # the bound applies to what the dynamics adds on top of (v/zeta)^2.
    dark0 = (FIG3.v / derive_rates(FIG3).zeta) ** 2
    gain = cd.max() - dark0
    check(results, "7a cavity-dark occupation", gain < 1e-4,
          f"max |D|^2 - (v/zeta)^2 = {gain:.2e} < 1e-4 ((v/zeta)^2 = {dark0:.2e})")
    # (b) fiber-dominated regime
    traj = atom1_oracle(FIG4, t_max=4.0, dt=1e-4, record_every=10)
    bs_plus, bs_minus = occupations(traj)[:, 5:7].T  # after the five bare modes
    bright = max(bs_plus.max(), bs_minus.max())
    check(results, "7b bright states dark", bright < 1e-2,
          f"max |S+-|^2 = {bright:.2e} < 1e-2")
    # alpha1 + alpha2 = S+ - S- starts at 0 but reaches ~g/zeta = 2.83e-2
    # within one bright period, above any 2e-2 bound; see antisymmetry_bound.
    mirror = np.abs(traj.states[:, 2] + traj.states[:, 3]).max()
    g_zeta = FIG4.g / derive_rates(FIG4).zeta
    sup = antisymmetry_bound(FIG4, traj.times[-1])
    check(results, "7b cavity antisymmetry", mirror <= sup,
          f"max |alpha1 + alpha2| = {mirror:.3e} <= {sup:.3e} "
          f"(g/zeta = {g_zeta:.3e})")
    # (c) comparable couplings: the fiber mediates the exchange
    traj = atom1_oracle(FIG5, t_max=2.0, dt=5e-5, record_every=10)
    peak = occupations(traj)[:, BARE_MODES.index("fiber")].max()
    check(results, "7c fiber occupation", peak > 0.1, f"peak |beta|^2 = {peak:.3f} > 0.1")
    finish(results)


def test_criterion_8_peak_resolution_vs_coupling():
    """Unresolved central feature at g=2; resolved peaks near +-g at g=10."""
    results = []
    # g = 2: a single central resonance feature, nothing resolved near +-g
    params = FIG6[2.0]
    r = derive_rates(params)
    spec = channel_spectrum([full_decomposition(params)], ["cavity1"])
    grid, val = spec.omega_grid[0, 0], spec.spectrum[0, 0]
    top = abs(grid[np.argmax(val)])
    check(results, "8 g=2 central maximum", top < r.gamma_a_plus / 2,
          f"|argmax| = {top:.3f} < Gamma_A+/2 = {r.gamma_a_plus / 2:.2f}")
    mid = [i for i in local_maxima(val)
           if r.gamma_a_plus / 2 <= abs(grid[i]) <= (params.g + r.zeta) / 2]
    check(results, "8 g=2 no resolved pair", not mid,
          f"{len(mid)} local maxima between the central feature and the bright band")

    # g = 10: two resolved fiber-dark peaks appear near +-g; the Lorentzian
    # components peak within one grid step of their closed-form frequencies
    params = FIG6[10.0]
    r = derive_rates(params)
    decomp = full_decomposition(params)
    spec = channel_spectrum([decomp], ["cavity1"])
    grid, val = spec.omega_grid[0, 0], spec.spectrum[0, 0]
    step = grid[1] - grid[0]
    for sign in (+1, -1):
        band = (np.abs(grid - sign * params.g) < 3.0)
        peaks = [i for i in local_maxima(val) if band[i]]
        check(results, f"8 g=10 resolved peak near {sign:+d}g", len(peaks) == 1,
              f"{len(peaks)} local maxima in the band")
    # The fiber-dark components are held to the normal-mode frequency +-g.
    # The exact bright poles sit 1.6 grid steps inside +-zeta, the shift
    # the appendix_refined second-order terms predict, so the bright
    # components are held to that independent closed form instead.
    bs = -perturbative_symmetric(params, "appendix_refined").eigenvalues[0].imag  # QBS+
    for label, target, tag, nm in (("QFD+", params.g, "+g", params.g),
                                   ("QFD-", -params.g, "-g", -params.g),
                                   ("QBS+", bs, "+zeta", r.zeta),
                                   ("QBS-", -bs, "-zeta", -r.zeta)):
        j = decomp.index(label)
        i_peak = int(np.argmax(spec.lorentzians[0, 0, j]))
        i_target = int(np.argmin(np.abs(grid - target)))
        gap = abs(i_peak - i_target)
        offset = (-spec.eigenvalues[0, 0, j].imag - nm) / step
        check(results, f"8 g=10 {label} at {tag}", gap <= 1,
              f"component argmax {gap} grid steps from {target:+.4f} "
              f"(pole {offset:+.2f} steps from {tag} = {nm:+.4f})")
    finish(results)


def test_criterion_9_interference_asymmetry():
    """Cavity-1 vs cavity-2 on resonance and the cross-term structure."""
    results = []
    decomp = full_decomposition(FIG8)
    grid = np.linspace(-0.5, 0.5, 11)
    s1 = channel_spectrum([decomp], ["cavity1"], grid)
    s2 = channel_spectrum([decomp], ["cavity2"], grid)
    i0 = 5  # omega = 0
    v1, v2 = s1.spectrum[0, 0, i0], s2.spectrum[0, 0, i0]
    # At omega = 0 the amplitudes are -G^-1 e_atom1, and the five linear
    # equations give alpha1/alpha2 = -(1 + (kappa + 2g^2/gamma) kappa_b/v^2),
    # so cavity 1 lies above cavity 2 by the square of that factor.  The
    # name is kept; the former cavity-1-below ordering was never traced to
    # a statement of the paper.
    p = FIG8
    ratio = (1 + (p.kappa + 2 * p.g**2 / p.gamma) * p.kappa_b / p.v**2) ** 2
    dev = abs(v1 / v2 / ratio - 1)
    check(results, "9 resonance ordering", dev < 1e-10,
          f"S_cav1(0)/S_cav2(0) = {v1 / v2:.6f} vs "
          f"(1 + (kappa + 2g^2/gamma) kappa_b/v^2)^2 = "
          f"{ratio:.6f}, rel dev {dev:.2e} < 1e-10")
    lossless = full_decomposition(replace(p, kappa_b=0.0))
    e1, e2 = (channel_spectrum([lossless], [c], grid).spectrum[0, 0, i0]
              for c in ("cavity1", "cavity2"))
    dev0 = abs(e1 / e2 - 1)
    check(results, "9 resonance equal at kappa_b = 0", dev0 < 1e-10,
          f"S_cav1(0)/S_cav2(0) - 1 = {dev0:.2e} < 1e-10")
    lor1 = s1.lorentzians[0, 0].sum(axis=0)
    lor2 = s2.lorentzians[0, 0].sum(axis=0)
    rel = np.abs(lor1 - lor2).max() / lor1.max()
    check(results, "9 lorentzian-only identical", rel < 1e-12,
          f"max rel difference {rel:.2e} < 1e-12")
    cd, fd = decomp.index("QCD"), decomp.index("QFD-")
    w1 = s1.interference(cd, fd)
    w2 = s2.interference(cd, fd)
    flip = np.abs(w1 + w2).max()
    check(results, "9 QCDxQFD- equal and opposite", flip < 1e-10,
          f"max |W1 + W2| = {flip:.2e} < 1e-10")
    finish(results)


def test_criterion_10_cavity_dark_suppression():
    """kappa_b = gamma/2 removes the dark mode from the cavity outputs."""
    results = []
    params = SystemParams(g=7.0, v=4.0, kappa=1.0, kappa_b=GAMMA / 2, gamma=GAMMA)
    gsd = derive_rates(params).gamma_sd
    check(results, "10 coupling rate", gsd == 0.0, f"Gamma_SD = {gsd} exactly 0")
    decomp = full_decomposition(params)
    chi = max(abs(decomp.chi_coeffs[2, decomp.index("QCD")]),
              abs(decomp.chi_coeffs[3, decomp.index("QCD")]))
    check(results, "10 dark-mode weight", chi < 1e-12, f"|chi_C,CD| = {chi:.2e} < 1e-12")
    finish(results)


def test_criterion_11_perturbation_accuracy_ladder():
    """Refined variant beats the standard one; both close to exact."""
    results = []
    exact = full_decomposition(FIG5).eigenvalues[:3]
    std = perturbative_symmetric(FIG5, "standard")
    ref = perturbative_symmetric(FIG5, "appendix_refined")
    e_std = np.abs(std.eigenvalues - exact) / np.abs(exact)
    e_ref = np.abs(ref.eigenvalues - exact) / np.abs(exact)
    worst_std, worst_ref = e_std.max(), e_ref.max()
    ordered = bool(np.all(e_ref <= e_std))
    check(results, "11 accuracy bound", max(worst_std, worst_ref) < 1e-2,
          f"worst rel eigenvalue error: standard {worst_std:.2e}, refined {worst_ref:.2e}")
    check(results, "11 refined <= standard", ordered,
          f"refined {worst_ref:.2e} <= standard {worst_std:.2e} per eigenvalue")

    traj = atom1_oracle(FIG5, t_max=round(5 / derive_rates(FIG5).gamma_a_plus, 6),
                        dt=2e-5, record_every=100)
    a1, _ = perturbative_cavity_amplitudes(FIG5, traj.times)
    err = np.abs(a1 - traj.states[:, 2]).max()
    check(results, "11 cavity amplitude", err < 2e-2, f"max |alpha1 err| = {err:.2e} < 2e-2")
    finish(results)
