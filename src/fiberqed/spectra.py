"""Emission spectra of the five decay channels and their decomposition.

Because every amplitude is a finite sum of decaying exponentials, the
spectrum of each channel is the squared modulus of a closed-form Laplace
transform: a sum of at most five Lorentzians plus pairwise interference
terms that redistribute weight between output ports without changing
positivity of the total.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .eigen import CHANNEL_ROWS, QuasiModeDecomposition
from .errors import DivergentIntegral, GridInvalid
from .model import SystemParams, derive_rates, flux_weights
from .perturb import perturbative_symmetric

__all__ = [
    "SpectralTerm",
    "SpectrumDecomposition",
    "spectral_function",
    "default_omega_grid",
    "channel_spectrum",
    "interference_term",
    "interference_integral",
    "lorentzian_integral",
    "integrated_spectrum",
    "channel_totals",
    "lorentzian_approximation",
    "cavity_coefficients",
]


def spectral_function(omega, lam) -> np.ndarray:
    """One-pole response L(omega, lambda) = 1 / (eta - i(omega - delta)).

    eta = -Re(lambda) and delta = -Im(lambda); this equals the Laplace
    transform kernel 1 / (-i omega - lambda).
    """
    omega = np.asarray(omega, dtype=float)
    return 1.0 / (-lam.real - 1j * (omega + lam.imag))


@dataclass(frozen=True)
class SpectralTerm:
    """One quasi-mode pole of a channel amplitude: chi * L(omega, lambda)."""

    label: str | None
    chi: complex
    lam: complex

    @property
    def eta(self) -> float:
        return -self.lam.real

    @property
    def delta(self) -> float:
        return -self.lam.imag

    def response(self, omega) -> np.ndarray:
        return self.chi * spectral_function(omega, self.lam)


def _channel_prefactors(params: SystemParams) -> np.ndarray:
    # spectral density per unit angular frequency: the channel's flux weight / 2 pi
    return flux_weights(params) / (2 * np.pi)


def default_omega_grid(params: SystemParams, n: int = 4001) -> np.ndarray:
    """Uniform grid spanning [-2 zeta - 5 Gamma_max, +2 zeta + 5 Gamma_max]."""
    r = derive_rates(params)
    gamma_max = max(
        r.gamma_s_plus, abs(r.gamma_s_minus), r.gamma_a_plus,
        abs(r.gamma_a_minus), r.gamma_sd, r.gamma_d,
    )
    half = 2 * r.zeta + 5 * gamma_max
    return np.linspace(-half, half, n)


def _check_grid(omega_grid) -> np.ndarray:
    grid = np.asarray(omega_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise GridInvalid("omega grid must be a non-empty 1-d array")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise GridInvalid("omega grid must be strictly increasing")
    return grid


def _cross(response_j, response_k) -> np.ndarray:
    """Interference W_jk = 2 Re(r_j r_k^*) of two one-pole responses."""
    return 2 * np.real(response_j * np.conj(response_k))


@dataclass
class SpectrumDecomposition:
    """A channel spectrum split into Lorentzians and interference terms.

    amplitude is the closed-form Laplace transform of the channel amplitude
    on the grid; the physical spectrum is prefactor * |amplitude|^2.  The
    identity sum(lorentzians) + sum(interferences) = |amplitude|^2 holds
    pointwise up to rounding.  The grid arrays are evaluated on first use,
    so a spectrum needed only for its integral never touches the grid.
    """

    channel: str
    prefactor: float
    terms: list
    omega_grid: np.ndarray

    @cached_property
    def pairs(self) -> tuple:
        return tuple(combinations(range(len(self.terms)), 2))

    @cached_property
    def _responses(self) -> np.ndarray:
        return np.array([t.response(self.omega_grid) for t in self.terms])

    @cached_property
    def amplitude(self) -> np.ndarray:
        return self._responses.sum(axis=0)

    @cached_property
    def lorentzians(self) -> np.ndarray:
        return np.abs(self._responses) ** 2

    @cached_property
    def interferences(self) -> np.ndarray:
        r = self._responses
        return np.array([_cross(r[j], r[k]) for j, k in self.pairs])

    @property
    def spectrum(self) -> np.ndarray:
        return self.prefactor * np.abs(self.amplitude) ** 2

    @property
    def lorentzian_sum(self) -> np.ndarray:
        return self.lorentzians.sum(axis=0)

    @property
    def interference_sum(self) -> np.ndarray:
        return self.interferences.sum(axis=0)

    def interference(self, label_j, label_k) -> np.ndarray:
        """W term for an unordered pair of mode labels (or indices)."""
        names = [t.label for t in self.terms]
        j = names.index(label_j) if isinstance(label_j, str) else label_j
        k = names.index(label_k) if isinstance(label_k, str) else label_k
        j, k = min(j, k), max(j, k)
        return self.interferences[self.pairs.index((j, k))]


def channel_spectrum(
    decomp: QuasiModeDecomposition, channel: str, omega_grid=None
) -> SpectrumDecomposition:
    """Spectrum of one decay channel from a quasi-mode decomposition.

    Atom channels carry the prefactor gamma/2pi, cavities kappa_i/pi and
    the fiber kappa_b/pi; the squared Laplace transform is evaluated in
    closed form from the chi coefficients and eigenvalues.
    """
    if channel not in CHANNEL_ROWS:
        raise ValueError(f"unknown channel {channel!r}; choose from {sorted(CHANNEL_ROWS)}")
    index = CHANNEL_ROWS[channel]
    prefactor = float(_channel_prefactors(decomp.params)[index])
    if omega_grid is None:
        omega_grid = default_omega_grid(decomp.params)
    grid = _check_grid(omega_grid)

    row = decomp.chi_coeffs[index]
    labels = decomp.labels if decomp.labels is not None else (None,) * 5
    terms = [
        SpectralTerm(labels[j], complex(row[j]), complex(decomp.eigenvalues[j]))
        for j in range(5)
    ]
    return SpectrumDecomposition(channel, prefactor, terms, grid)


def interference_term(term_j: SpectralTerm, term_k: SpectralTerm, omega_grid) -> np.ndarray:
    """Real-valued cross term W_jk between two quasi-mode poles.

    W_jk = chi_j chi_k^* L(omega, lam_j) L^*(omega, lam_k) + c.c.; not of a
    fixed sign, it moves spectral weight between output ports.
    """
    grid = _check_grid(omega_grid)
    return _cross(term_j.response(grid), term_k.response(grid))


def interference_integral(term_j: SpectralTerm, term_k: SpectralTerm) -> float:
    """Net frequency-integrated contribution of one interference term.

    Closed form 2 pi chi_j chi_k^* / ((eta_j + eta_k) + i(delta_j - delta_k))
    plus its conjugate; well separated modes (|delta_j - delta_k| large)
    contribute almost nothing regardless of the chi magnitudes.
    """
    eta_sum = term_j.eta + term_k.eta
    if eta_sum <= 0:
        raise DivergentIntegral(f"eta_j + eta_k = {eta_sum} <= 0")
    den = eta_sum + 1j * (term_j.delta - term_k.delta)
    return float(2 * np.real(2 * np.pi * term_j.chi * np.conj(term_k.chi) / den))


def lorentzian_integral(term: SpectralTerm) -> float:
    """Frequency integral of one Lorentzian component, |chi|^2 pi / eta."""
    if term.eta <= 0:
        raise DivergentIntegral(f"eta = {term.eta} <= 0")
    return float(abs(term.chi) ** 2 * np.pi / term.eta)


def _pair_integrals(chi, lam) -> np.ndarray:
    """Frequency integrals of |sum_j chi_cj L(omega, lam_j)|^2 for each row c of chi.

    One pair kernel, -2 pi Re sum_jk chi_cj chi_ck^* / (lam_j + lam_k^*),
    over the modes with chi_cj != 0: its diagonal is lorentzian_integral
    and each off-diagonal pair sums to interference_integral.  Like those
    functions it raises DivergentIntegral when such a mode has eta <= 0
    (a pair can have eta_j + eta_k <= 0 only then), naming the first one.
    """
    active = chi != 0
    eta = -lam.real
    diverging = np.argwhere(active & (eta <= 0))
    if diverging.size:
        raise DivergentIntegral(f"eta = {eta[diverging[0, 1]]} <= 0")
    both = active[:, :, None] & active[:, None, :]
    den = np.where(both, lam[:, None] + lam.conj(), 1.0)  # lam_j + lam_k^* != 0 on both
    pairs = chi[:, :, None] * chi.conj()[:, None, :] / den
    return -2 * np.pi * pairs.real.sum(axis=(1, 2))


def integrated_spectrum(spec: SpectrumDecomposition) -> float:
    """Closed-form frequency integral of the full channel spectrum."""
    chi = np.array([[t.chi for t in spec.terms]])
    lam = np.array([t.lam for t in spec.terms])
    return spec.prefactor * float(_pair_integrals(chi, lam)[0])


def channel_totals(decomp: QuasiModeDecomposition) -> dict:
    """Integrated spectrum of every decay channel, from one pair kernel.

    Equals integrated_spectrum(channel_spectrum(decomp, c)) for each
    channel c up to rounding, without building the spectra.
    """
    totals = _pair_integrals(decomp.chi_coeffs, decomp.eigenvalues)
    prefactors = _channel_prefactors(decomp.params)
    return {
        c: float(prefactors[row]) * float(totals[row]) for c, row in CHANNEL_ROWS.items()
    }


def lorentzian_approximation(spec: SpectrumDecomposition) -> np.ndarray:
    """Spectrum with all interference terms dropped (sum of Lorentzians)."""
    return spec.prefactor * spec.lorentzian_sum


def cavity_coefficients(params: SystemParams, variant: str = "standard") -> dict:
    """Perturbative chi coefficients of both cavity channels per quasi mode.

    The fiber-dark entries +-g/4p are exact; bright and cavity-dark entries
    use the perturbative mixing amplitudes.  The two cavities share the
    bright and cavity-dark coefficients and carry opposite-sign fiber-dark
    ones, so their Lorentzian decompositions coincide.
    """
    modes = perturbative_symmetric(params, variant)
    r = derive_rates(params)
    g, v, zeta = params.g, params.v, r.zeta
    dp, dm = modes.delta_s_plus, modes.delta_s_minus
    chi_bs_plus = (g / 2 - v * dp) / (2 * zeta)
    chi_bs_minus = -(g / 2 - v * dm) / (2 * zeta)
    chi_fd = g / (4 * r.p)
    chi_cd = (dp - dm) / (2 * zeta) * ((g / 2) * (dp + dm) + v)
    cavity1 = {
        "QBS+": chi_bs_plus,
        "QBS-": chi_bs_minus,
        "QCD": chi_cd,
        "QFD+": chi_fd,
        "QFD-": -chi_fd,
    }
    cavity2 = dict(cavity1, **{"QFD+": -chi_fd, "QFD-": chi_fd})
    return {"cavity1": cavity1, "cavity2": cavity2}
