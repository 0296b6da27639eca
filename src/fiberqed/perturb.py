"""Limiting and perturbative closed-form solutions for strong coupling.

Covers the two dominated-coupling limits (atom-cavity coupling far above
fiber-cavity coupling, and the reverse) plus the perturbative treatment of
the symmetric manifold when the couplings are comparable, in three
variants of increasing sophistication.  Each variant gives three quasi
modes as arrays: their eigenvalues and t = 0 amplitudes, so every
quasi-mode time function is the damped exponential a * exp(lambda * t).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .eigen import fiber_dark_amplitudes
from .errors import RegimeWarning
from .model import SystemParams, derive_rates

__all__ = [
    "VARIANTS",
    "PerturbativeModes",
    "atom_dominated_solution",
    "fiber_dominated_solution",
    "perturbative_symmetric",
    "perturbative_cavity_amplitudes",
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
    """First-order quasi modes of the symmetric manifold.

    delta_s_plus / delta_s_minus : bright <-> cavity-dark mixing amplitudes
    eigenvalues : estimates per quasi mode {QBS+, QBS-, QCD} for the variant
    amplitudes : t = 0 values (f+, f-, g) of the quasi-mode time functions
    bs_cross : bright <-> bright first-order cross coefficient (refined only)
    second_order_shifts : eigenvalue corrections (refined only)
    """

    variant: str
    delta_s_plus: complex
    delta_s_minus: complex
    eigenvalues: dict
    amplitudes: np.ndarray
    bs_cross: complex = 0.0
    second_order_shifts: dict | None = None

    def time_functions(self, t) -> tuple:
        """(f+, f-, g) at the given times: a * exp(lambda * t) per quasi mode."""
        t = np.asarray(t, dtype=float)
        lams = self.eigenvalues.values()
        # a Python scalar times an array per mode: numpy's array product of a
        # stacked amplitudes[:, None] * exp(...) may fuse multiply-add
        return tuple(a * np.exp(lam * t) for a, lam in zip(self.amplitudes.tolist(), lams))

    def symmetric_amplitudes(self, t) -> tuple:
        """(S+, S-, D) reconstructed from the quasi-mode time functions."""
        fp, fm, gd = self.time_functions(t)
        dp, dm = self.delta_s_plus, self.delta_s_minus
        return fp - dp * gd, fm - dm * gd, gd + dp * fp + dm * fm


def perturbative_symmetric(params: SystemParams, variant: str = "standard") -> PerturbativeModes:
    """Treat the bright <-> cavity-dark coupling as a perturbation.

    standard            : Gamma_D kept in the unperturbed generator;
                          Delta_S+- = Gamma_SD / (Gamma_D - Gamma_S+/2 -+ i zeta)
    appendix_alternative: Gamma_D moved into the perturbation; the
                          cavity-dark eigenvalue is recovered only as a
                          first-order shift, which costs accuracy
    appendix_refined    : standard placement plus the bright-bright cross
                          term and second-order eigenvalue shifts
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    r = derive_rates(params)
    g, v = params.g, params.v
    zeta, gsp, gsm, gsd, gd = r.zeta, r.gamma_s_plus, r.gamma_s_minus, r.gamma_sd, r.gamma_d
    if zeta < 10 * gsd or v < g / 2:
        warnings.warn(
            f"perturbation regime is weak (zeta={zeta:.3g}, Gamma_SD={gsd:.3g}, "
            f"v/g={v / g if g else np.inf:.3g})",
            RegimeWarning,
        )

    lam_bs_plus = -(gsp / 2 + 1j * zeta)
    lam_bs_minus = -(gsp / 2 - 1j * zeta)
    # the alternative variant reaches -Gamma_D as zeroth order 0 plus the
    # first-order shift -Gamma_D; the others keep it in the unperturbed generator
    lam_cd = -gd
    shifts = None
    cross = 0.0
    if variant == "appendix_alternative":
        dp = gsd / (-gsp / 2 - 1j * zeta)
        dm = gsd / (-gsp / 2 + 1j * zeta)
    else:
        dp = gsd / (gd - gsp / 2 - 1j * zeta)
        dm = gsd / (gd - gsp / 2 + 1j * zeta)
        if variant == "appendix_refined":
            shifts = {
                "QBS+": 1j * gsm**2 / (8 * zeta) + gsd * dp,
                "QBS-": -1j * gsm**2 / (8 * zeta) + gsd * dm,
                "QCD": -gsd * (dp + dm),
            }
            lam_bs_plus += shifts["QBS+"]
            lam_bs_minus += shifts["QBS-"]
            lam_cd += shifts["QCD"]
            cross = -1j * gsm / (4 * zeta)

    eigenvalues = {"QBS+": lam_bs_plus, "QBS-": lam_bs_minus, "QCD": lam_cd}
    amplitudes = np.array(
        [(g / 2 - v * dp) / zeta, (g / 2 - v * dm) / zeta, (-(g / 2) * (dp + dm) - v) / zeta]
    )
    return PerturbativeModes(variant, dp, dm, eigenvalues, amplitudes, cross, shifts)


def perturbative_cavity_amplitudes(
    params: SystemParams, t, variant: str = "standard"
) -> tuple:
    """(alpha1, alpha2) combining the perturbative symmetric manifold with
    the exact fiber-dark amplitudes.

    The cavity difference alpha1 - alpha2 carries only the anti-symmetric
    manifold, A+ - A-.
    """
    modes = perturbative_symmetric(params, variant)
    t = np.asarray(t, dtype=float)
    fp, fm, gd = modes.time_functions(t)
    a_plus, a_minus = fiber_dark_amplitudes(params, t)
    sym = 0.5 * (fp - fm) - 0.5 * (modes.delta_s_plus - modes.delta_s_minus) * gd
    anti = 0.5 * (a_plus - a_minus)
    return sym + anti, sym - anti
