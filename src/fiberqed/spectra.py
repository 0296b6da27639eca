"""Emission spectra of the five decay channels and their decomposition.

Because every amplitude is a finite sum of decaying exponentials, the
spectrum of each channel is the squared modulus of a closed-form Laplace
transform: a sum of at most five Lorentzians plus pairwise interference
terms that redistribute weight between output ports without changing
positivity of the total.  A channel is held as arrays indexed by pole:
its row of chi coefficients and the five eigenvalues.  Its grid arrays come
from one broadcast pole kernel, stacked over leading axes, so the
channels of many parameter points are evaluated in one pass
(:func:`channel_spectrum`), the one place a spectrum is built.
The Lorentzian and interference integrals are read from one (5, 5) pair
matrix of closed forms; the integrated spectrum of every channel
(:func:`integrated_spectrum`) comes from the Gramian of the bare
generator, one stacked linear solve for many points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .eigen import _inverse
from .errors import DivergentIntegral, GridInvalid, SingularMatrix
from .model import BARE_MODES, SystemParams, bare_generator, derive_rates, flux_weights

__all__ = [
    "SpectrumDecomposition",
    "spectral_function",
    "default_omega_grid",
    "channel_spectrum",
    "integrated_spectrum",
    "lorentzian_approximation",
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


def default_omega_grid(params: SystemParams) -> np.ndarray:
    """Uniform grid spanning [-2 zeta - 5 Gamma_max, +2 zeta + 5 Gamma_max]."""
    r = derive_rates(params)
    gamma_max = max(
        r.gamma_s_plus, abs(r.gamma_s_minus), r.gamma_a_plus,
        abs(r.gamma_a_minus), r.gamma_sd, r.gamma_d,
    )
    half = 2 * r.zeta + 5 * gamma_max
    return np.linspace(-half, half, _GRID_POINTS)


def _divergences(chi, lam) -> dict:
    """{index: DivergentIntegral} of the points whose spectra have no finite integral.

    chi (N, C, P) holds each point's channel rows and lam (N, P) its poles.
    A point fails when a mode with chi_cj != 0 in some channel has
    eta = -Re(lambda_j) <= 0 (a pair can have eta_j + eta_k <= 0 only
    then); its error names the first such (c, j) in row-major order.
    """
    eta = -lam.real
    diverging = (chi != 0) & (eta[:, None, :] <= 0)
    return {
        int(i): DivergentIntegral(f"eta = {eta[i, np.argwhere(diverging[i])[0, 1]]} <= 0")
        for i in np.flatnonzero(diverging.any(axis=(1, 2)))
    }


def _pair_integrals(chi, lam) -> np.ndarray:
    """Pair matrices of the frequency integral of |sum_j chi_j L(omega, lam_j)|^2.

    chi (..., P) holds channel rows over any leading axes and lam their
    poles, broadcasting against chi.  Entry [..., j, k] is -2 pi Re
    chi_j chi_k^* / (lam_j + lam_k^*), and exactly 0 where chi_j chi_k^* = 0,
    a pole that does not decay included.  The diagonal holds the Lorentzian
    integrals |chi_j|^2 pi / eta_j, [j, k] + [k, j] is the net
    interference integral of the pair, and the sum of the matrix is the
    integral of the whole spectrum.  Raises the DivergentIntegral of
    :func:`_divergences` for the first row, in row-major order, that has one.
    """
    lam = np.broadcast_to(lam, chi.shape)
    n_poles = chi.shape[-1]
    failed = _divergences(chi.reshape(-1, 1, n_poles), lam.reshape(-1, n_poles))
    if failed:
        raise next(iter(failed.values()))
    products = chi[..., :, None] * chi.conj()[..., None, :]
    with np.errstate(divide="ignore", invalid="ignore"):  # lam_j + lam_k^* = 0 only at products 0
        pairs = products / (lam[..., :, None] + lam.conj()[..., None, :])
    return -2 * np.pi * np.where(products != 0, pairs, 0).real


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

    The arrays may carry leading axes, as they do for the (points,
    channels) stack of :func:`channel_spectrum`: chi (..., P), eigenvalues
    and omega_grid broadcasting against it, prefactor (..., 1); every grid
    array then gains the same axes; every array is indexed by pole.
    """

    prefactor: float | np.ndarray
    chi: np.ndarray
    eigenvalues: np.ndarray
    omega_grid: np.ndarray

    @cached_property
    def pairs(self) -> tuple:
        return tuple(combinations(range(self.chi.shape[-1]), 2))

    @cached_property
    def _responses(self) -> np.ndarray:
        """Pole terms chi_j L(omega, lam_j), (..., P, G).  A pole with chi_j = 0 adds
        exactly 0, also where a mode that does not decay puts 1 / 0 on the grid.
        The poles of a stacked point are evaluated once for all its channels."""
        lam, chi = self.eigenvalues[..., None], self.chi[..., None]
        with np.errstate(divide="ignore", invalid="ignore"):
            poles = spectral_function(self.omega_grid[..., None, :], lam)
            return np.where(chi != 0, chi * poles, 0)

    @cached_property
    def amplitude(self) -> np.ndarray:
        return self._responses.sum(axis=-2)

    @cached_property
    def lorentzians(self) -> np.ndarray:
        return np.abs(self._responses) ** 2

    @cached_property
    def interferences(self) -> np.ndarray:
        j, k = np.array(self.pairs, dtype=int).reshape(-1, 2).T
        r = self._responses
        return 2 * np.real(r[..., j, :] * np.conj(r[..., k, :]))

    @cached_property
    def pair_integrals(self) -> np.ndarray:
        """Frequency integrals by pole pair, without the prefactor: (..., P, P).

        The diagonal holds the Lorentzian integrals, [j, k] + [k, j] is the
        net interference integral of poles j and k, and the sum is the
        integral of |amplitude|^2; a stack has one matrix per entry.
        """
        return _pair_integrals(self.chi, self.eigenvalues)

    @property
    def spectrum(self) -> np.ndarray:
        return self.prefactor * np.abs(self.amplitude) ** 2

    def interference(self, j, k) -> np.ndarray:
        """W term of poles j != k, given in either order."""
        return self.interferences[..., self.pairs.index((min(j, k), max(j, k))), :]


def channel_spectrum(decomps, channels, omega_grid=None) -> SpectrumDecomposition:
    """The spectra of the given channels at many points, as one stacked spectrum.

    Atom channels carry the prefactor gamma/2pi, cavities kappa_i/pi and
    the fiber kappa_b/pi; the squared Laplace transform is evaluated in
    closed form from the chi coefficients and eigenvalues.  The arrays
    carry the leading axes (points, channels): chi (N, C, 5), eigenvalues
    (N, 1, 5), prefactor (N, C, 1) and omega_grid (G,), or (N, 1, G) when
    each point takes its default grid (omega_grid None).  Entry [i, c] of
    every grid array has the bits of the same array of
    channel_spectrum([decomps[i]], [channels[c]], omega_grid); a mode's
    name maps to its pole by the decomposition's index method.  An empty
    stack gives arrays with a leading axis of 0, with either grid form.
    channels is a sequence of names; a bare string is refused.
    """
    if isinstance(channels, str):
        raise ValueError(f"channels must be a sequence of channel names, not the string "
                         f"{channels!r}; write [{channels!r}] for one channel")
    for channel in channels:
        if channel not in BARE_MODES:
            raise ValueError(f"unknown channel {channel!r}; choose from {sorted(BARE_MODES)}")
    rows = [BARE_MODES.index(c) for c in channels]
    n = len(decomps)
    if omega_grid is None:
        grid = np.array([default_omega_grid(d.params) for d in decomps]).reshape(n, 1, _GRID_POINTS)
    else:
        grid = np.asarray(omega_grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise GridInvalid("omega grid must be a non-empty 1-d array")
        if not np.all(np.diff(grid) > 0):
            raise GridInvalid("omega grid must be strictly increasing")
    return SpectrumDecomposition(
        # spectral density per unit angular frequency: the channel's flux weight / 2 pi
        np.array([flux_weights(d.params) for d in decomps]).reshape(n, 5, 1)[:, rows] / (2 * np.pi),
        np.array([d.chi_coeffs for d in decomps]).reshape(n, 5, 5)[:, rows],
        np.array([d.eigenvalues for d in decomps]).reshape(n, 1, 5),
        grid,
    )


def integrated_spectrum(decomps) -> list:
    """Integrated spectrum of every channel at many points, from one stacked solve.

    The integral of channel c's spectrum is the photon flux out of it,
    w_c int_0^inf |c_c(t)|^2 dt = w_c X_cc, where the Gramian X of the bare
    generator G and the initial state c0 solves G X + X G^+ = -c0 c0^+.
    With no eigenvectors in it, it stays exact at exceptional points, where
    the chi of the pair matrices grow without bound and cancel.  Its trace
    gives sum_c w_c X_cc = |c0|^2, since G + G^+ = -diag(w), so how far a
    point's totals miss |c0|^2 is an error of its solve.

    Entry i is the (5,) array of totals of decomps[i] in BARE_MODES order,
    or its error: DivergentIntegral (see :func:`_divergences`), or
    SingularMatrix where rounding swamps a decay rate in the solve.  A mode
    that does not decay makes the equation singular; where every such mode
    carries no weight (exact zero rates), the pair matrices give the totals
    instead, in one stacked call, and such a mode adds exactly 0 to them.
    """
    n = len(decomps)
    chi = np.array([d.chi_coeffs for d in decomps]).reshape(n, 5, 5)
    lam = np.array([d.eigenvalues for d in decomps]).reshape(n, 5)
    weights = np.array([flux_weights(d.params) for d in decomps]).reshape(n, 5)
    failed = _divergences(chi, lam)
    decaying = (lam.real < 0).all(axis=1)
    fallback = ~decaying  # every divergent point is among them
    fallback[list(failed)] = False
    totals = np.empty((n, 5))
    pairs = _pair_integrals(chi[fallback], lam[fallback, None, :]).sum(axis=(-2, -1))
    totals[fallback] = weights[fallback] / (2 * np.pi) * pairs
    solved = np.flatnonzero(decaying)
    gen = np.array([bare_generator(decomps[i].params) for i in solved]).reshape(-1, 5, 5)
    c0 = np.array([decomps[i].initial for i in solved]).reshape(-1, 5)
    diagonals, singular = _gramian_diagonals(gen, c0)
    totals[solved] = weights[solved] * diagonals
    for i in solved[list(singular)].tolist():
        failed[i] = SingularMatrix(
            f"the Gramian equation of the channel totals is singular: the slowest "
            f"decay rate, {-lam[i].real.max():.3g}, is lost to rounding in the solve")
    return [failed.get(i, totals[i]) for i in range(n)]


def _gramian_diagonals(gen, c0) -> tuple:
    """Diagonals (N, 5) of the solutions X of G X + X G^+ = -c0 c0^+, NaN
    at the singular points, and the {index: SingularMatrix} of those.

    gen (N, 5, 5) holds the generators and c0 (N, 5) the initial states.
    The equation is linear in the rows of X laid end to end:
    (G X + X G^+)[i, j] = sum_kl (G_ik delta_jl + delta_ik G*_jl) X_kl.
    """
    n = len(gen)
    eye = np.eye(5)
    op = (gen[:, :, None, :, None] * eye[None, None, :, None, :]
          + eye[None, :, None, :, None] * gen.conj()[:, None, :, None, :])
    rhs = -(c0[:, :, None] * c0.conj()[:, None, :])
    x, singular = _inverse(op.reshape(n, 25, 25), rhs.reshape(n, 25, 1))
    return np.diagonal(x.reshape(n, 5, 5), axis1=1, axis2=2).real, singular


def lorentzian_approximation(spec: SpectrumDecomposition) -> np.ndarray:
    """Spectrum with all interference terms dropped (sum of Lorentzians)."""
    return spec.prefactor * spec.lorentzians.sum(axis=-2)
