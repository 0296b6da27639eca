"""Quasi-normal modes: exact diagonalization of the non-Hermitian generator.

The symmetric configuration splits into an anti-symmetric 2x2 block
(fiber-dark modes, solved in closed form) and a symmetric 3x3 block
(bright + cavity-dark modes, solved through the closed-form cubic).  A
dense 5x5 solve covers asymmetric parameters.  Left and right
eigenvectors are kept as a bi-orthogonal pair, V^-1 V = I.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .dynamics import bare_generator, normal_generator
from .errors import DegenerateBlock, LabelAmbiguous
from .model import (
    BARE_MODES,
    BareState,
    SystemParams,
    derive_rates,
    normal_mode_matrix,
    single_excitation,
)

__all__ = [
    "MODE_LABELS",
    "CHANNEL_ROWS",
    "EigenBlock",
    "QuasiModeDecomposition",
    "antisymmetric_block",
    "symmetric_block",
    "fiber_dark_amplitudes",
    "full_decomposition",
]

# canonical ordering of the labeled quasi modes
MODE_LABELS = ("QBS+", "QBS-", "QCD", "QFD+", "QFD-")

# bare amplitude row for each decay channel
CHANNEL_ROWS = {mode: row for row, mode in enumerate(BARE_MODES)}

_DEGENERACY_TOL = 1e-12

# normal coordinates (S+, S-, A+, A-, D) of the symmetric and anti-symmetric blocks
_SYM_ROWS, _ANTI_ROWS = [0, 1, 4], [2, 3]


@dataclass
class EigenBlock:
    """Eigenvalues plus right (columns) / left (rows) vectors of one block."""

    labels: tuple
    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray


def antisymmetric_block(params: SystemParams) -> EigenBlock:
    """Quasi fiber-dark modes of the 2x2 anti-symmetric block.

    Vectors are expressed over (FD+, FD-) and kept unnormalized,
    |QFD+-> = 2i(g +- p)/Gamma_A- |FD+> + |FD->; the left vectors absorb
    the scale so that left @ right = I.  By continuity from the decoupled
    limit, QFD+ (the continuation of FD+, which oscillates at +g) carries
    the eigenvalue -Gamma_A+/2 - i p.
    """
    r = derive_rates(params)
    g = params.g
    gp, gm, p = r.gamma_a_plus, r.gamma_a_minus, r.p
    if p == 0:
        raise DegenerateBlock(
            "p = 0: the anti-symmetric block is critically damped and defective"
        )
    eigenvalues = np.array([-gp / 2 - 1j * p, -gp / 2 + 1j * p])
    if gm == 0.0:
        # block is already diagonal; quasi modes reduce to FD+-
        right = np.eye(2, dtype=complex)
        left = np.eye(2, dtype=complex)
    else:
        right = np.array(
            [[2j * (g + p) / gm, 2j * (g - p) / gm], [1.0, 1.0]], dtype=complex
        )
        left = np.array(
            [[-1j * gm / (4 * p), (p - g) / (2 * p)],
             [1j * gm / (4 * p), (p + g) / (2 * p)]],
            dtype=complex,
        )
    return EigenBlock(("QFD+", "QFD-"), eigenvalues, right, left)


def fiber_dark_amplitudes(params: SystemParams, t) -> tuple:
    """Closed-form fiber-dark amplitudes A+-(t) for an initial atom-1 excitation.

    Exact for every damping regime; at the critical point p = 0 the
    defective block is handled by the limiting form
    A+- = exp(-Gamma_A+ t/2)/2 * (1 - t (Gamma_A-/2 +- i g)).
    """
    r = derive_rates(params)
    g = params.g
    t = np.asarray(t, dtype=float)
    gp, gm, p = r.gamma_a_plus, r.gamma_a_minus, r.p
    if p == 0:
        env = 0.5 * np.exp(-gp * t / 2)
        a_plus = env * (1 - t * (gm / 2 + 1j * g))
        a_minus = env * (1 - t * (gm / 2 - 1j * g))
        return a_plus, a_minus
    # exponents combined with the envelope so overdamped cases cannot overflow
    em = np.exp((-gp / 2 - 1j * p) * t)
    ep = np.exp((-gp / 2 + 1j * p) * t)
    a_plus = (em * (1j * (p + g) + gm / 2) + ep * (1j * (p - g) - gm / 2)) / (4j * p)
    a_minus = (em * (1j * (p - g) + gm / 2) + ep * (1j * (p + g) - gm / 2)) / (4j * p)
    return a_plus, a_minus


def _cubic_roots(c2, c1, c0):
    """Roots of x^3 + c2 x^2 + c1 x + c0 (real coefficients, complex roots).

    Cardano closed form, followed by two Newton polish steps to remove the
    branch-cancellation error of the radicals.  Also returns the Cardano
    discriminant: positive for a conjugate pair plus a real root, otherwise
    all three roots are real.
    """
    a = c2 / 3.0
    p = c1 - c2 * c2 / 3.0
    q = c0 - c1 * c2 / 3.0 + 2.0 * c2**3 / 27.0
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    s = np.sqrt(complex(disc))
    u3 = -q / 2.0 + s
    if abs(u3) < abs(-q / 2.0 - s):
        u3 = -q / 2.0 - s
    if u3 == 0:
        roots = np.full(3, -a, dtype=complex)
    else:
        u = u3 ** (1.0 / 3.0)
        w = np.exp(2j * np.pi / 3.0)
        us = np.array([u, u * w, u * np.conj(w)])
        roots = us - p / (3.0 * us) - a
    for _ in range(2):
        f = ((roots + c2) * roots + c1) * roots + c0
        df = (3.0 * roots + 2.0 * c2) * roots + c1
        step = np.where(df != 0, f / np.where(df != 0, df, 1.0), 0.0)
        roots = roots - step
    return roots, disc


def _null_vector(b):
    """Unit null vector of a rank-2 3x3 matrix via row cross products."""
    best = np.zeros(3, dtype=complex)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        cand = np.cross(b[i], b[j])
        if np.linalg.norm(cand) > np.linalg.norm(best):
            best = cand
    return best / np.linalg.norm(best)


def symmetric_block(params: SystemParams) -> EigenBlock:
    """Quasi bright + cavity-dark modes of the symmetric 3x3 block.

    Eigenvalues come from the closed-form cubic, whose real coefficients
    give either a conjugate pair plus a real root or three real roots.  A
    pair is the bright QBS+- (QBS+ oscillates at +zeta, Im lambda < 0) and
    the real root is QCD.  With three real roots (the bright pair is
    overdamped) QCD is the root whose vector has the largest D component,
    and QBS+ is the slower of the other two, continuing Im lambda < 0 as
    QFD+ does for imaginary p.  If two eigenvalues coincide within 1e-12 a
    LabelAmbiguous warning is emitted and the block is returned unlabeled.
    """
    r = derive_rates(params)
    gsp, gsm, gsd, gd, zeta = (
        r.gamma_s_plus, r.gamma_s_minus, r.gamma_sd, r.gamma_d, r.zeta,
    )
    # characteristic polynomial of the 3x3 generator
    sm = gsm / 2
    c2 = gsp + gd
    c1 = gsp**2 / 4 + zeta**2 - sm**2 + gd * gsp - 2 * gsd**2
    c0 = gd * (gsp**2 / 4 + zeta**2 - sm**2) - gsd**2 * (gsp - 2 * sm)
    roots, disc = _cubic_roots(c2, c1, c0)

    gen = normal_generator(params)[np.ix_(_SYM_ROWS, _SYM_ROWS)]
    gaps = [abs(roots[i] - roots[j]) for i in range(3) for j in range(i + 1, 3)]
    if min(gaps) < _DEGENERACY_TOL:
        warnings.warn(
            "coincident eigenvalues in the symmetric block; labels dropped",
            LabelAmbiguous,
        )
        lam, right = np.linalg.eig(gen)
        return EigenBlock(None, lam, right, np.linalg.inv(right))

    vectors = [_null_vector(gen - lam * np.eye(3)) for lam in roots]
    if disc > 0:
        qcd, *pair = np.argsort(np.abs(roots.imag))
        plus, minus = sorted(pair, key=lambda j: roots[j].imag)
    else:
        qcd = max(range(3), key=lambda j: abs(vectors[j][2]))
        minus, plus = sorted({0, 1, 2} - {qcd}, key=lambda j: roots[j].real)
    order = [plus, minus, qcd]
    eigenvalues = roots[order]
    right = np.column_stack([vectors[j] for j in order])
    left = np.linalg.inv(right)
    return EigenBlock(("QBS+", "QBS-", "QCD"), eigenvalues, right, left)


@dataclass
class QuasiModeDecomposition:
    """Complete spectral data of the five-mode generator.

    eigenvalues   : the five lambda_j (Re <= 0 for physical rates)
    labels        : quasi-mode names in eigenvalue order, or None
    right_vectors : columns are right eigenvectors (in `basis` coordinates)
    left_vectors  : rows are left eigenvectors, left @ right = I
    weights       : overlaps w_j of the left vectors with the initial state
    lambda_coeffs : normal-amplitude coefficients, d_i(t) = sum_j L_ij e^(l_j t)
                    (None for asymmetric parameters)
    chi_coeffs    : bare-amplitude coefficients, c_i(t) = sum_j chi_ij e^(l_j t)
    basis         : 'normal' or 'bare', coordinates of the stored vectors
    """

    params: SystemParams = field(repr=False)
    eigenvalues: np.ndarray
    labels: tuple | None
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    weights: np.ndarray
    lambda_coeffs: np.ndarray | None
    chi_coeffs: np.ndarray
    basis: str

    @property
    def eta(self) -> np.ndarray:
        """Decay rates, eta_j = -Re(lambda_j)."""
        return -self.eigenvalues.real

    @property
    def delta(self) -> np.ndarray:
        """Mode frequencies, delta_j = -Im(lambda_j)."""
        return -self.eigenvalues.imag

    def index(self, label: str) -> int:
        if self.labels is None:
            raise LookupError("decomposition is unlabeled")
        return self.labels.index(label)

    def bare_amplitudes(self, t) -> np.ndarray:
        """Reconstruct (xi1, xi2, alpha1, alpha2, beta) at the given times."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return self.chi_coeffs @ np.exp(np.outer(self.eigenvalues, t))

    def normal_amplitudes(self, t) -> np.ndarray:
        """Reconstruct (S+, S-, A+, A-, D) at the given times."""
        if self.lambda_coeffs is None:
            raise ValueError("normal-mode coefficients need symmetric parameters")
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return self.lambda_coeffs @ np.exp(np.outer(self.eigenvalues, t))


def full_decomposition(
    params: SystemParams, initial: BareState | None = None
) -> QuasiModeDecomposition:
    """Assemble eigenvalues, vectors, weights and propagation coefficients.

    For symmetric parameters the two analytic blocks are used and vectors
    are expressed in the normal basis; otherwise a dense eigensolve of the
    bare generator is performed and vectors stay in the bare basis.  The
    default initial state is the excited atom 1.
    """
    if initial is None:
        initial = single_excitation("atom1")
    bare0 = initial.to_array()

    if params.symmetric() and (params.g > 0 or params.v > 0):
        trans = normal_mode_matrix(params)  # bare -> normal
        sym = symmetric_block(params)
        anti = antisymmetric_block(params)

        right = np.zeros((5, 5), dtype=complex)
        left = np.zeros((5, 5), dtype=complex)
        # columns of right (rows of left) follow MODE_LABELS
        right[np.ix_(_SYM_ROWS, [0, 1, 2])] = sym.right_vectors
        right[np.ix_(_ANTI_ROWS, [3, 4])] = anti.right_vectors
        left[np.ix_([0, 1, 2], _SYM_ROWS)] = sym.left_vectors
        left[np.ix_([3, 4], _ANTI_ROWS)] = anti.left_vectors

        eigenvalues = np.concatenate([sym.eigenvalues, anti.eigenvalues])
        labels = None if sym.labels is None else MODE_LABELS
        weights = left @ (trans @ bare0)
        lambda_coeffs = right * weights[None, :]
        chi_coeffs = trans.T @ lambda_coeffs
        return QuasiModeDecomposition(
            params, eigenvalues, labels, right, left, weights,
            lambda_coeffs, chi_coeffs, "normal",
        )

    # asymmetric (or fully decoupled) parameters: dense solve in the bare basis
    eigenvalues, right = np.linalg.eig(bare_generator(params))
    left = np.linalg.inv(right)
    weights = left @ bare0
    chi_coeffs = right * weights[None, :]
    return QuasiModeDecomposition(
        params, eigenvalues, None, right, left, weights, None, chi_coeffs, "bare",
    )
