"""Emission spectra of the five decay channels and their decomposition.

Because every amplitude is a finite sum of decaying exponentials, the
spectrum of each channel is the squared modulus of a closed-form Laplace
transform: a sum of at most five Lorentzians plus pairwise interference
terms that redistribute weight between output ports without changing
positivity of the total.  A channel is held as arrays: its labels, its
row of chi coefficients and the five eigenvalues.  Its grid arrays come
from one broadcast pole kernel, and every frequency integral is read from
one (5, 5) pair matrix of closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .eigen import _CRITICAL_POINT, QuasiModeDecomposition
from .errors import DegenerateBlock, DivergentIntegral, GridInvalid
from .model import BARE_MODES, SystemParams, derive_rates, flux_weights
from .perturb import perturbative_symmetric

__all__ = [
    "SpectrumDecomposition",
    "spectral_function",
    "default_omega_grid",
    "channel_spectrum",
    "integrated_spectrum",
    "channel_totals",
    "lorentzian_approximation",
    "cavity_coefficients",
]

_GRID_POINTS = 4001  # samples of the default omega grid


def spectral_function(omega, lam) -> np.ndarray:
    """One-pole response L(omega, lambda) = 1 / (eta - i(omega - delta)).

    eta = -Re(lambda) and delta = -Im(lambda); this equals the Laplace
    transform kernel 1 / (-i omega - lambda).  lam may be an array that
    broadcasts against omega, e.g. shape (n, 1) for n poles on a grid.
    """
    omega = np.asarray(omega, dtype=float)
    return 1.0 / (-lam.real - 1j * (omega + lam.imag))


def _channel_prefactors(params: SystemParams) -> np.ndarray:
    # spectral density per unit angular frequency: the channel's flux weight / 2 pi
    return flux_weights(params) / (2 * np.pi)


def default_omega_grid(params: SystemParams) -> np.ndarray:
    """Uniform grid spanning [-2 zeta - 5 Gamma_max, +2 zeta + 5 Gamma_max]."""
    r = derive_rates(params)
    gamma_max = max(
        r.gamma_s_plus, abs(r.gamma_s_minus), r.gamma_a_plus,
        abs(r.gamma_a_minus), r.gamma_sd, r.gamma_d,
    )
    half = 2 * r.zeta + 5 * gamma_max
    return np.linspace(-half, half, _GRID_POINTS)


def _check_grid(omega_grid) -> np.ndarray:
    grid = np.asarray(omega_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise GridInvalid("omega grid must be a non-empty 1-d array")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise GridInvalid("omega grid must be strictly increasing")
    return grid


def _pair_integrals(chi, lam) -> np.ndarray:
    """Pair matrices of the frequency integral of |sum_j chi_cj L(omega, lam_j)|^2.

    For each row c of chi, entry [c, j, k] is
    -2 pi Re chi_cj chi_ck^* / (lam_j + lam_k^*) over the modes with
    chi_cj != 0 and 0 elsewhere.  The diagonal holds the Lorentzian
    integrals |chi_j|^2 pi / eta_j, [j, k] + [k, j] is the net
    interference integral of the pair, and the sum of the matrix is the
    integral of the whole spectrum.  Raises DivergentIntegral when a mode
    with chi_cj != 0 has eta <= 0 (a pair can have eta_j + eta_k <= 0
    only then), naming the first one.
    """
    active = chi != 0
    eta = -lam.real
    diverging = np.argwhere(active & (eta <= 0))
    if diverging.size:
        raise DivergentIntegral(f"eta = {eta[diverging[0, 1]]} <= 0")
    both = active[:, :, None] & active[:, None, :]
    den = np.where(both, lam[:, None] + lam.conj(), 1.0)  # lam_j + lam_k^* != 0 on both
    pairs = chi[:, :, None] * chi.conj()[:, None, :] / den
    return -2 * np.pi * pairs.real


@dataclass
class SpectrumDecomposition:
    """A channel spectrum split into Lorentzians and interference terms.

    Pole j of the channel amplitude is chi[j] L(omega, eigenvalues[j]).
    amplitude is the closed-form Laplace transform of the channel amplitude
    on the grid; the physical spectrum is prefactor * |amplitude|^2.  The
    identity sum(lorentzians) + sum(interferences) = |amplitude|^2 holds
    pointwise up to rounding; row i of interferences belongs to pairs[i].
    The grid arrays are evaluated on first use, so a spectrum needed only
    for its integrals never touches the grid.
    """

    channel: str
    prefactor: float
    labels: tuple | None
    chi: np.ndarray
    eigenvalues: np.ndarray
    omega_grid: np.ndarray

    @cached_property
    def pairs(self) -> tuple:
        return tuple(combinations(range(len(self.chi)), 2))

    @cached_property
    def _responses(self) -> np.ndarray:
        poles = spectral_function(self.omega_grid, self.eigenvalues[:, None])
        return self.chi[:, None] * poles

    @cached_property
    def amplitude(self) -> np.ndarray:
        return self._responses.sum(axis=0)

    @cached_property
    def lorentzians(self) -> np.ndarray:
        return np.abs(self._responses) ** 2

    @cached_property
    def interferences(self) -> np.ndarray:
        r = self._responses
        return np.array([2 * np.real(r[j] * np.conj(r[k])) for j, k in self.pairs])

    @cached_property
    def pair_integrals(self) -> np.ndarray:
        """Frequency integrals by pole pair, without the prefactor.

        The diagonal holds the Lorentzian integrals, [j, k] + [k, j] is the
        net interference integral of poles j and k, and the sum is the
        integral of |amplitude|^2.
        """
        return _pair_integrals(self.chi[None], self.eigenvalues)[0]

    @property
    def spectrum(self) -> np.ndarray:
        return self.prefactor * np.abs(self.amplitude) ** 2

    def interference(self, label_j, label_k) -> np.ndarray:
        """W term for an unordered pair of mode labels."""
        if self.labels is None:
            raise LookupError("decomposition is unlabeled")
        pair = sorted((self.labels.index(label_j), self.labels.index(label_k)))
        return self.interferences[self.pairs.index(tuple(pair))]


def channel_spectrum(
    decomp: QuasiModeDecomposition, channel: str, omega_grid=None
) -> SpectrumDecomposition:
    """Spectrum of one decay channel from a quasi-mode decomposition.

    Atom channels carry the prefactor gamma/2pi, cavities kappa_i/pi and
    the fiber kappa_b/pi; the squared Laplace transform is evaluated in
    closed form from the chi coefficients and eigenvalues.
    """
    if channel not in BARE_MODES:
        raise ValueError(f"unknown channel {channel!r}; choose from {sorted(BARE_MODES)}")
    index = BARE_MODES.index(channel)
    prefactor = float(_channel_prefactors(decomp.params)[index])
    if omega_grid is None:
        omega_grid = default_omega_grid(decomp.params)
    grid = _check_grid(omega_grid)
    return SpectrumDecomposition(
        channel, prefactor, decomp.labels, decomp.chi_coeffs[index], decomp.eigenvalues, grid
    )


def integrated_spectrum(spec: SpectrumDecomposition) -> float:
    """Closed-form frequency integral of the full channel spectrum."""
    return spec.prefactor * float(spec.pair_integrals.sum())


def channel_totals(decomp: QuasiModeDecomposition) -> dict:
    """Integrated spectrum of every decay channel, from one pair kernel.

    Equals integrated_spectrum(channel_spectrum(decomp, c)) for each
    channel c up to rounding, without building the spectra.
    """
    totals = _pair_integrals(decomp.chi_coeffs, decomp.eigenvalues).sum(axis=(1, 2))
    prefactors = _channel_prefactors(decomp.params)
    return {c: float(prefactors[row]) * float(totals[row]) for row, c in enumerate(BARE_MODES)}


def lorentzian_approximation(spec: SpectrumDecomposition) -> np.ndarray:
    """Spectrum with all interference terms dropped (sum of Lorentzians)."""
    return spec.prefactor * spec.lorentzians.sum(axis=0)


def cavity_coefficients(params: SystemParams, variant: str = "standard") -> dict:
    """Perturbative chi coefficients of both cavity channels per quasi mode.

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
    sym = {
        "QBS+": f_plus / 2,
        "QBS-": -f_minus / 2,
        "QCD": -(modes.delta_s_plus - modes.delta_s_minus) * g_cd / 2,
    }
    chi_fd = params.g / (4 * r.p)
    return {
        "cavity1": dict(sym, **{"QFD+": chi_fd, "QFD-": -chi_fd}),
        "cavity2": dict(sym, **{"QFD+": -chi_fd, "QFD-": chi_fd}),
    }
