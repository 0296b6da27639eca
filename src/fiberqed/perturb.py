"""Limiting and perturbative closed-form solutions for strong coupling.

Covers the two dominated-coupling limits (atom-cavity coupling far above
fiber-cavity coupling, and the reverse) plus the perturbative treatment of
the symmetric manifold when the couplings are comparable, in three
variants of increasing sophistication.  Each variant gives three quasi
modes as arrays in eigen.MODE_LABELS order (QBS+, QBS-, QCD): their
eigenvalues and t = 0 amplitudes, so every quasi-mode time function is
the damped exponential a * exp(lambda * t); the perturbative chi of the
cavities are read off them, laid out like full_decomposition's.  A
RegimeWarning marks zeta < 10 |Gamma_SD| or v < g/2.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .eigen import _CRITICAL_POINT, fiber_dark_amplitudes
from .errors import DegenerateBlock, RegimeWarning
from .model import SystemParams, derive_rates

__all__ = [
    "VARIANTS",
    "PerturbativeModes",
    "atom_dominated_solution",
    "fiber_dominated_solution",
    "perturbative_symmetric",
    "perturbative_cavity_amplitudes",
    "cavity_coefficients",
]

VARIANTS = ("standard", "appendix_alternative", "appendix_refined")


def atom_dominated_solution(params: SystemParams, t) -> tuple:
    """(xi1, alpha1) when the atom-cavity coupling dominates (g >> v).

    The excitation stays in the atom-1 / cavity-1 pair, undergoing damped
    vacuum Rabi oscillation at the rate p.  Validity is not enforced; the
    small parameter is v/g.  That oscillation has the closed form of the
    fiber-dark pair: xi1 = A+ + A- and alpha1 = A+ - A-, with A+- from
    fiber_dark_amplitudes (critical point included).
    """
    a_plus, a_minus = fiber_dark_amplitudes(params, t)
    return a_plus + a_minus, a_plus - a_minus


def fiber_dominated_solution(params: SystemParams, t) -> tuple:
    """(xi1, xi2, alpha1, alpha2) when the fiber coupling dominates (v >> g).

    The cavity-dark mode detaches and decays at gamma/2, so half of the
    atomic amplitude relaxes exponentially while the fiber-dark pair
    oscillates; the cavities carry equal and opposite amplitudes,
    alpha2 = -alpha1, at all times.
    """
    t = np.asarray(t, dtype=float)
    half_dark = 0.5 * np.exp(-params.gamma * t / 2)
    a_plus, a_minus = fiber_dark_amplitudes(params, t)
    osc = 0.5 * (a_plus + a_minus)
    alpha1 = 0.5 * (a_plus - a_minus)
    return half_dark + osc, half_dark - osc, alpha1, -alpha1


@dataclass
class PerturbativeModes:
    """First-order quasi modes of the symmetric manifold, per-mode arrays
    of shape (3,) in eigen.MODE_LABELS order (QBS+, QBS-, QCD).

    delta_s_plus / delta_s_minus : bright <-> cavity-dark mixing amplitudes
    eigenvalues : the variant's estimate of each quasi-mode eigenvalue
    amplitudes : t = 0 values (f+, f-, g) of the quasi-mode time functions
    second_order_shifts : eigenvalue corrections, in eigenvalues (refined only)
    """

    variant: str
    delta_s_plus: complex
    delta_s_minus: complex
    eigenvalues: np.ndarray
    amplitudes: np.ndarray
    second_order_shifts: np.ndarray | None = None

    def time_functions(self, t) -> np.ndarray:
        """(f+, f-, g) at the given times, a row a * exp(lambda * t) per mode."""
        t = np.asarray(t, dtype=float)
        modes = zip(self.amplitudes.tolist(), self.eigenvalues.tolist())
        # a Python scalar times an array per mode: numpy's array product of a
        # stacked amplitudes[:, None] * exp(...) may fuse multiply-add
        return np.array([a * np.exp(lam * t) for a, lam in modes])

    def symmetric_amplitudes(self, t) -> np.ndarray:
        """(S+, S-, D) rows reconstructed from the quasi-mode time functions."""
        fp, fm, gd = self.time_functions(t)
        dp, dm = self.delta_s_plus, self.delta_s_minus
        return np.array([fp - dp * gd, fm - dm * gd, gd + dp * fp + dm * fm])


def perturbative_symmetric(params: SystemParams, variant: str = "standard") -> PerturbativeModes:
    """Treat the bright <-> cavity-dark coupling as a perturbation.

    All three variants mix with Delta_S+- = Gamma_SD / (d - Gamma_S+/2 -+ i zeta):

    standard            : d = Gamma_D, kept in the unperturbed generator
    appendix_alternative: d = 0, Gamma_D moved into the perturbation; the
                          cavity-dark eigenvalue is recovered only as a
                          first-order shift, which costs accuracy
    appendix_refined    : standard placement plus the second-order
                          eigenvalue shifts
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    r = derive_rates(params)
    g, v = params.g, params.v
    zeta, gsp, gsm, gsd, gd = r.zeta, r.gamma_s_plus, r.gamma_s_minus, r.gamma_sd, r.gamma_d
    # Gamma_SD < 0 once kappa_b > gamma/2, so its size is compared
    if zeta < 10 * abs(gsd) or v < g / 2:
        warnings.warn(
            f"perturbation regime is weak (zeta={zeta:.3g}, Gamma_SD={gsd:.3g}, "
            f"v/g={v / g if g else np.inf:.3g})",
            RegimeWarning,
        )

    # the alternative variant reaches -Gamma_D as zeroth order 0 plus the
    # first-order shift -Gamma_D; the others keep it in the unperturbed generator
    d = 0.0 if variant == "appendix_alternative" else gd
    dp = gsd / (d - gsp / 2 - 1j * zeta)
    dm = gsd / (d - gsp / 2 + 1j * zeta)
    eigenvalues = np.array([-(gsp / 2 + 1j * zeta), -(gsp / 2 - 1j * zeta), -gd])
    shifts = None
    if variant == "appendix_refined":
        shifts = np.array([1j * gsm**2 / (8 * zeta) + gsd * dp,
                           -1j * gsm**2 / (8 * zeta) + gsd * dm, -gsd * (dp + dm)])
        eigenvalues = eigenvalues + shifts

    amplitudes = np.array(
        [(g / 2 - v * dp) / zeta, (g / 2 - v * dm) / zeta, (-(g / 2) * (dp + dm) - v) / zeta]
    )
    return PerturbativeModes(variant, dp, dm, eigenvalues, amplitudes, shifts)


def perturbative_cavity_amplitudes(
    params: SystemParams, t, variant: str = "standard"
) -> np.ndarray:
    """(alpha1, alpha2) rows combining the perturbative symmetric manifold
    with the exact fiber-dark amplitudes, critical point p = 0 included.

    Both are cavity projections of the normal amplitudes,
    alpha1,2 = (S+ - S-)/2 +- (A+ - A-)/2: the cavity difference
    alpha1 - alpha2 carries only the anti-symmetric manifold.
    """
    t = np.asarray(t, dtype=float)
    s_plus, s_minus, _ = perturbative_symmetric(params, variant).symmetric_amplitudes(t)
    a_plus, a_minus = fiber_dark_amplitudes(params, t)
    sym = 0.5 * (s_plus - s_minus)
    anti = 0.5 * (a_plus - a_minus)
    return np.array([sym + anti, sym - anti])


def cavity_coefficients(params: SystemParams, variant: str = "standard") -> np.ndarray:
    """Perturbative chi of both cavity channels, a (2, 5) array laid out
    like full_decomposition(params).chi_coeffs[2:4].

    The cavity projection alpha1 = (S+ - S-)/2 + (A+ - A-)/2 read per
    quasi mode.  S+ - S- = f+ - f- - (Delta_S+ - Delta_S-) g_D, with
    (f+, f-, g_D) the PerturbativeModes amplitudes at t = 0, and the exact
    fiber-dark pair gives
    A+ - A- = g/2p (e^(lambda_QFD+ t) - e^(lambda_QFD- t)).  The two
    cavities share the bright and cavity-dark coefficients and carry
    opposite-sign fiber-dark ones, so their Lorentzian decompositions
    coincide.  At the critical point p = 0 the fiber-dark entries diverge:
    DegenerateBlock.
    """
    modes = perturbative_symmetric(params, variant)
    r = derive_rates(params)
    if r.p == 0:
        raise DegenerateBlock(_CRITICAL_POINT)
    f_plus, f_minus, g_cd = modes.amplitudes.tolist()
    sym = [f_plus / 2, -f_minus / 2, -(modes.delta_s_plus - modes.delta_s_minus) * g_cd / 2]
    chi_fd = params.g / (4 * r.p)
    return np.array([sym + [chi_fd, -chi_fd], sym + [-chi_fd, chi_fd]])
