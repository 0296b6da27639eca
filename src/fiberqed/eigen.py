"""Quasi-normal modes: exact diagonalization of the non-Hermitian generator.

The generator of two identical units splits into an anti-symmetric 2x2
block (fiber-dark modes, solved in closed form) and a symmetric 3x3 block
(bright + cavity-dark modes, solved through the closed-form cubic).
g = v = 0 has no normal modes and is refused with the error of
:func:`fiberqed.model.derive_rates`.  Left and right eigenvectors are
kept as a bi-orthogonal pair, V^-1 V = I.

One kernel, stacked over a leading axis of points, does all of it:
:func:`full_decompositions`, with the blocks :func:`symmetric_block` and
:func:`antisymmetric_block`; N points give the bits of N single points.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBlock, LabelAmbiguous, SingularMatrix
from .model import (ANTI_ROWS, SYM_ROWS, SystemParams, _amplitudes, derive_rates,
                    flux_weights, mode_matrices, single_excitation, symmetric_generator)

__all__ = [
    "MODE_LABELS",
    "QuasiModeDecomposition",
    "antisymmetric_block",
    "symmetric_block",
    "fiber_dark_amplitudes",
    "full_decomposition",
    "full_decompositions",
]

# canonical ordering of the labeled quasi modes
MODE_LABELS = ("QBS+", "QBS-", "QCD", "QFD+", "QFD-")

# Symmetric-block roots closer than this fraction of the largest |root|
# count as coincident.  Rounding splits a double root of the cubic into a
# spurious pair about sqrt(eps) ~ 1e-8 (relative) apart, a triple root
# about eps^(1/3) ~ 6e-6 apart; genuine pairs this close sit within
# ~1e-10 (relative) of an exceptional point.
_COINCIDENT_RTOL = 1e-5

_CUBE_ROOT_OF_UNITY = np.exp(2j * np.pi / 3.0)

_CRITICAL_POINT = "p = 0: the anti-symmetric block is critically damped and defective"


def _fiber_dark_roots(params: SystemParams, r) -> tuple:
    """The fiber-dark eigenvalues (QFD+, QFD-) = -Gamma_A+/2 -+ i p, Python complex.

    Overdamped (p = i|p|), QFD+ is the slow root -Gamma_A+/2 + |p|, which
    cancels when g is small and one loss dominates; it is taken from the
    product of the roots, g^2 + kappa gamma/2, over the fast one instead.
    """
    half, p = r.gamma_a_plus / 2, r.p
    if p.imag == 0:
        return -half - 1j * p, -half + 1j * p
    product = params.g * params.g + params.kappa * params.gamma / 2
    # 0.0 - keeps an exact zero root (g = 0 with kappa or gamma 0) +0.0
    return complex(0.0 - product / (half + p.imag)), complex(-half - p.imag)


def antisymmetric_block(points, rates) -> tuple:
    """Quasi fiber-dark modes of the 2x2 anti-symmetric blocks, a stacked
    kernel of :func:`full_decompositions`.

    points and their derive_rates give eigenvalues (N, 2) in (QFD+, QFD-)
    order, right (columns) and left (rows) vectors (N, 2, 2) over (FD+, FD-)
    and an {index: DegenerateBlock} map of the points at p = 0, whose
    entries are NaN.  Vectors are unnormalized, |QFD+-> = 2i(g +- p)/Gamma_A-
    |FD+> + |FD->, and left @ right = I.  QFD+, the continuation of FD+
    (which oscillates at +g), has the eigenvalue -Gamma_A+/2 - i p.  The
    closed forms are evaluated in Python complex arithmetic, which divides
    by a real Gamma_A- where numpy would multiply by its reciprocal.
    """
    rows, failed = [], {}
    for i, (params, r) in enumerate(zip(points, rates)):
        g, gm, p = params.g, r.gamma_a_minus, r.p
        if p == 0:
            failed[i] = DegenerateBlock(_CRITICAL_POINT)
            rows.append((np.nan,) * 10)
            continue
        if gm == 0.0:
            # block is already diagonal; quasi modes reduce to FD+-
            vectors = (1, 0, 0, 1, 1, 0, 0, 1)
        else:
            vectors = (
                2j * (g + p) / gm, 2j * (g - p) / gm, 1.0, 1.0,
                -1j * gm / (4 * p), (p - g) / (2 * p),
                1j * gm / (4 * p), (p + g) / (2 * p),
            )
        rows.append((*_fiber_dark_roots(params, r), *vectors))
    table = np.array(rows, dtype=complex).reshape(len(rows), 10)
    n = len(rows)
    return table[:, :2], table[:, 2:6].reshape(n, 2, 2), table[:, 6:].reshape(n, 2, 2), failed


def fiber_dark_amplitudes(params: SystemParams, t) -> tuple:
    """Closed-form fiber-dark amplitudes A+-(t) for an initial atom-1 excitation.

    One formula for every damping regime, critical damping p = 0 included.
    The block is M = mu I + N with mu = -Gamma_A+/2 and N^2 = -p^2 I, so
    e^(Mt) = e^(mu t) [cos(pt) I + t sinc(pt) N] and
    A+- = e^(mu t)/2 [cos(pt) - t sinc(pt) (Gamma_A-/2 +- i g)].
    Both factors are written over the slower exponent e^((mu - ip) t),
    mu - ip the QFD+ root of _fiber_dark_roots:
    cos(pt) = e^(-ipt) (1 + E/2) and t sinc(pt) = e^(-ipt) t E/z, with
    z = 2ipt, E = expm1(z) and E/z = 1 at z = 0.  No factor overflows for
    imaginary p (overdamped), and nothing cancels as p -> 0.
    """
    r = derive_rates(params)
    t = np.asarray(t, dtype=float)
    z = 2j * r.p * t
    e = np.expm1(z)
    with np.errstate(divide="ignore", invalid="ignore"):  # z = 0 is replaced
        t_sinc = t * np.where(z == 0, 1.0, e / z)
    env = 0.5 * np.exp(_fiber_dark_roots(params, r)[0] * t)
    cos = 1 + e / 2
    half = r.gamma_a_minus / 2
    a_plus = env * (cos - t_sinc * (half + 1j * params.g))
    a_minus = env * (cos - t_sinc * (half - 1j * params.g))
    return a_plus, a_minus


def _cubic_coefficients(r) -> tuple:
    """Characteristic polynomial x^3 + c2 x^2 + c1 x + c0 of the symmetric
    block, with Cardano's shift a, depressed coefficients p, q and
    discriminant, as (c2, c1, c0, a, p, q, disc) in Python floats."""
    gsp, gsm, gsd, gd, zeta = (
        r.gamma_s_plus, r.gamma_s_minus, r.gamma_sd, r.gamma_d, r.zeta,
    )
    sm = gsm / 2
    c2 = gsp + gd
    c1 = gsp**2 / 4 + zeta**2 - sm**2 + gd * gsp - 2 * gsd**2
    c0 = gd * (gsp**2 / 4 + zeta**2 - sm**2) - gsd**2 * (gsp - 2 * sm)
    p = c1 - c2 * c2 / 3.0
    q = c0 - c1 * c2 / 3.0 + 2.0 * c2**3 / 27.0
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    return c2, c1, c0, c2 / 3.0, p, q, disc


def _cubic_roots(c2, c1, c0, a, p, q, disc) -> np.ndarray:
    """Roots (N, 3) of x^3 + c2 x^2 + c1 x + c0 from the arrays (N,) of
    :func:`_cubic_coefficients`.

    Cardano closed form, followed by two Newton polish steps to remove the
    branch-cancellation error of the radicals.  A positive discriminant
    gives a conjugate pair plus a real root, otherwise all three roots are
    real.
    """
    s = np.sqrt(disc.astype(complex))
    u3 = -q / 2.0 + s
    other = -q / 2.0 - s
    u3 = np.where(np.abs(u3) < np.abs(other), other, u3)
    with np.errstate(divide="ignore", invalid="ignore"):  # u3 = 0 is replaced below
        u = u3 ** (1.0 / 3.0)
        # u * w and u * conj(w) spelled out: an array product may fuse multiply-add
        wr, wi = _CUBE_ROOT_OF_UNITY.real, _CUBE_ROOT_OF_UNITY.imag
        us = np.empty(u.shape + (3,), dtype=complex)
        us[:, 0] = u
        us.real[:, 1] = u.real * wr - u.imag * wi
        us.imag[:, 1] = u.real * wi + u.imag * wr
        us.real[:, 2] = u.real * wr - u.imag * -wi
        us.imag[:, 2] = u.real * -wi + u.imag * wr
        roots = us - p[:, None] / (3.0 * us) - a[:, None]
    zero = u3 == 0
    roots[zero] = -a[zero, None]
    c2, c1, c0 = c2[:, None], c1[:, None], c0[:, None]
    for _ in range(2):
        f = ((roots + c2) * roots + c1) * roots + c0
        df = (3.0 * roots + 2.0 * c2) * roots + c1
        step = np.where(df != 0, f / np.where(df != 0, df, 1.0), 0.0)
        roots = roots - step
    # c0 = 0 (Gamma_D = Gamma_SD = 0) makes 0 an exact root; Cardano can
    # return it as a tiny number of either sign, which decides whether it decays
    exact = np.flatnonzero(c0[:, 0] == 0)
    roots[exact, np.argmin(np.abs(roots[exact]), axis=1)] = 0
    # c2 = 0 (kappa = kappa_b = gamma = 0) leaves the block lossless and every root imaginary
    roots.real[c2[:, 0] == 0] = 0
    return roots


def _trace_misses(coeffs, roots) -> np.ndarray:
    """Mask (N,) of the points whose roots break the trace identity.

    The roots of the computed cubic p sum to -c2 exactly.  A root that is
    exact for p with every coefficient c_k (c_3 = 1) off by at most
    gamma_6 = 6u relative, the backward error of Horner's rule at degree 3,
    has a real part within gamma_6 K_j of the exact one to first order,
    K_j = sum_k |c_k Re(lambda_j^k / p'(lambda_j))|.  Adding the three real
    parts to c2 rounds by at most 3u (c2 + sum_j |Re lambda_j|).  A larger
    gap means rounding swamped the real parts: zeta 1e37 times the decay
    rates, rates over ten decades, or a near-double root split too far.
    """
    u = np.finfo(float).eps / 2
    c2, c1, c0 = coeffs[:, 0], coeffs[:, 1], coeffs[:, 2]
    dp = (3.0 * roots + 2.0 * c2[:, None]) * roots + c1[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        k = sum(np.abs(c[:, None] * (roots**m / dp).real)
                for m, c in enumerate((c0, c1, c2, np.ones_like(c2))))
    gap = np.abs(roots.real.sum(axis=1) + c2)
    return gap > 6 * u * k.sum(axis=1) + 3 * u * (c2 + np.abs(roots.real).sum(axis=1))


def _norm(x) -> np.ndarray:
    """2-norm over the last axis, the bits of np.linalg.norm on each 1-d vector.

    norm sums the squares of the real and imaginary parts with a BLAS dot
    each; a stacked (1, 3) @ (3, 1) product calls the same dot.
    """
    re, im = x.real[..., None, :], x.imag[..., None, :]
    sq = re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2)
    return np.sqrt(sq[..., 0, 0])


def _null_vectors(b) -> np.ndarray:
    """Unit null vectors of rank-2 3x3 matrices (..., 3, 3) via row cross products.

    Of the three cross products the first of largest norm is used.
    """
    cands = np.cross(b[..., [0, 0, 1], :], b[..., [1, 2, 2], :])  # rows 01, 02, 12
    pick = np.argmax(_norm(cands), axis=-1)
    best = np.take_along_axis(cands, pick[..., None, None], axis=-2)[..., 0, :]
    with np.errstate(invalid="ignore"):  # rank < 2 only at coincident roots
        return best / _norm(best)[..., None]


def _inverse(mats, rhs=None) -> tuple:
    """Stacked solutions of mats x = rhs, (N, n, n) and (N, n, k), or the
    inverses for rhs None, plus {index: SingularMatrix} of the singular mats.

    A singular matrix gets NaN entries instead of failing the whole stack.
    It has a zero pivot in the solve's LU, where slogdet's sign is 0; det,
    sign * exp(logdet), also reads 0 where a determinant underflows.
    """
    if rhs is None:  # the bits of np.linalg.inv, which solves against I
        rhs = np.broadcast_to(np.eye(mats.shape[-1]), mats.shape)
    try:
        return np.linalg.solve(mats, rhs), {}
    except np.linalg.LinAlgError:
        singular = np.linalg.slogdet(mats)[0] == 0
    x = np.full(rhs.shape, np.nan, np.result_type(mats, rhs))
    x[~singular] = np.linalg.solve(mats[~singular], rhs[~singular])
    return x, {int(i): SingularMatrix("Singular matrix") for i in np.flatnonzero(singular)}


def symmetric_block(rates) -> tuple:
    """Quasi bright + cavity-dark modes of the symmetric 3x3 blocks, a
    stacked kernel of :func:`full_decompositions`.

    The derive_rates of N points give eigenvalues (N, 3) in (QBS+, QBS-,
    QCD) order, right (columns) and left (rows) vectors (N, 3, 3) over
    (S+, S-, D), a labeled mask (N,) and an {index: SingularMatrix} map.
    The closed-form cubic gives a conjugate pair plus a real root, or
    three real roots (an overdamped bright pair), and one rule labels
    both: QCD is the root of least |Im lambda| for a pair, else the one
    whose vector has the largest D component; the other two follow one
    sort key, Im lambda for a pair and -Re lambda for real roots (ties by
    Im lambda), so QBS+ is the bright member oscillating at +zeta
    (Im lambda < 0) or the slower one.  Roots that coincide (within 1e-5
    of the largest |lambda|) or break the trace identity warn
    LabelAmbiguous; the point is left unlabeled, from a dense eigensolve.
    """
    n = len(rates)
    coeffs = np.array([_cubic_coefficients(r) for r in rates]).reshape(n, 7)
    roots = _cubic_roots(*coeffs.T)
    conj_pair = coeffs[:, 6] > 0
    gen = symmetric_generator(*np.array(
        [(r.zeta, r.gamma_s_plus, r.gamma_s_minus, r.gamma_sd, r.gamma_d) for r in rates]
    ).reshape(n, 5).T)
    # vectors[:, j] spans the null space of gen - roots[:, j] I
    vectors = _null_vectors(gen[:, None] - roots[:, :, None, None] * np.eye(3))

    # QCD last, the other two by one key with QBS+ first: Im lambda, or -Re
    # lambda with ties (a pair that rounding put on the real side) by Im lambda
    qcd = np.where(conj_pair, np.argmin(np.abs(roots.imag), axis=1),
                   np.argmax(np.abs(vectors[:, :, 2]), axis=1))
    key = np.where(conj_pair[:, None], roots.imag, -roots.real)
    key[np.arange(n), qcd] = np.inf
    order = np.lexsort((roots.imag, key), axis=1)
    eigenvalues = np.take_along_axis(roots, order, axis=1)
    right = np.ascontiguousarray(
        np.swapaxes(np.take_along_axis(vectors, order[:, :, None], axis=1), 1, 2)
    )

    gaps = np.abs(roots[:, [0, 0, 1]] - roots[:, [1, 2, 2]]).min(axis=1)
    labeled = ~((gaps <= _COINCIDENT_RTOL * np.abs(roots).max(axis=1))
                | _trace_misses(coeffs, roots))
    dense = np.flatnonzero(~labeled)
    for _ in dense:
        warnings.warn("coincident eigenvalues in the symmetric block, or roots that miss "
                      "their sum; labels dropped", LabelAmbiguous)
    eigenvalues[dense], right[dense] = np.linalg.eig(gen[dense])
    left, failed = _inverse(right)
    return eigenvalues, right, left, labeled, failed


@dataclass
class QuasiModeDecomposition:
    """Complete spectral data of the five-mode generator.

    eigenvalues   : the five lambda_j (Re <= 0 for physical rates)
    labels        : quasi-mode names in eigenvalue order, or None when
                    symmetric-block roots coincide or miss their sum
    right_vectors : columns are right eigenvectors in normal-mode coordinates
    left_vectors  : rows are left eigenvectors, left @ right = I
    weights       : overlaps w_j of the left vectors with the initial state
    chi_coeffs    : bare-amplitude coefficients, c_i(t) = sum_j chi_ij e^(l_j t)
    initial       : the bare amplitudes c(0) the weights were taken of

    Normal amplitudes are normal_mode_matrix(params) @ bare_amplitudes(t).
    """

    params: SystemParams = field(repr=False)
    eigenvalues: np.ndarray
    labels: tuple | None
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    weights: np.ndarray
    chi_coeffs: np.ndarray
    initial: np.ndarray

    def index(self, label: str) -> int:
        if self.labels is None:
            raise LookupError("decomposition is unlabeled")
        return self.labels.index(label)

    def bare_amplitudes(self, t) -> np.ndarray:
        """Reconstruct (xi1, xi2, alpha1, alpha2, beta) at the given times."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return self.chi_coeffs @ np.exp(np.outer(self.eigenvalues, t))


def full_decomposition(params: SystemParams, initial=None) -> QuasiModeDecomposition:
    """Assemble eigenvalues, vectors, weights and propagation coefficients.

    The two analytic blocks are used and vectors are expressed in the
    normal basis.  g = v = 0 raises ValueError, as in
    :func:`fiberqed.model.derive_rates`.  initial is array-like, 5 finite
    complex amplitudes in BARE_MODES order (ValueError otherwise); the
    default is the excited atom 1.

    The one single-point spelling of :func:`full_decompositions`, kept
    because most callers want one decomposition that raises its error.
    """
    (result,) = full_decompositions([params], initial)
    if isinstance(result, Exception):
        raise result
    return result


def full_decompositions(points, initial=None) -> list:
    """:func:`full_decomposition` of many parameter sets in one stacked call.

    Entry i is the decomposition of points[i], or the error that
    full_decomposition(points[i], initial) raises, so one bad point does
    not stop the others: the derive_rates error of a g = v = 0 point,
    DegenerateBlock at p = 0, or SingularMatrix for a singular set of
    symmetric-block vectors.  An unlabeled point's symmetric real parts,
    which a dense solve gives to about u |B| only, come from the damping
    identity G + G^H = -diag(w), Re lambda = -1/2 sum_c w_c |r_c|^2 / |r|^2
    over the bare-basis vector r = T^T r_normal, a sum of terms >= 0.  An
    empty or all-failed stack runs the same kernels on empty arrays.  The
    single call is this code at N = 1; what four rules keep is the bits of
    the per-point scalar reference of the tests, _reference_decomposition,
    and, for three of them, the digests of the shipped CSVs.  The plain
    spelling of each rule moves, alone:

    - the rates and the cubic's coefficients stay per-point Python floats,
      because Python's ``x**2`` and ``x**3`` call libm pow where numpy's
      array power can differ in the last bit: array arithmetic moves no
      shipped CSV, printed summary or ledger line, only the bits of the
      scalar reference;
    - the complex products u * w of the Cardano step are spelled out in
      real and imaginary parts, since numpy's scalar product does not fuse
      multiply-add and its array product may: one array product moves
      fig7_decomposition_fiber.csv and fig5's printed summary;
    - vector norms are stacked (1, 3) @ (3, 1) products, the BLAS dot that
      np.linalg.norm uses on a 1-d vector, not a sum of squares:
      np.linalg.norm(axis=-1) moves the 4 fig8 and fig10 decomposition_cavity CSVs;
    - the fiber-dark closed forms stay in Python complex arithmetic, which
      divides by a real number where numpy multiplies by its reciprocal: a
      stacked numpy form moves the 4 fig6 spectrum CSVs and the 4 fig8 and
      fig10 decomposition_cavity CSVs.
    """
    bare0 = _amplitudes(single_excitation("atom1") if initial is None else initial)
    results, ok, rates = [None] * len(points), [], []
    for i, params in enumerate(points):
        try:
            rates.append(derive_rates(params))
            ok.append(i)
        except ValueError as exc:  # g = v = 0
            results[i] = exc
    points = [points[i] for i in ok]
    sym_lam, sym_right, sym_left, labeled, sym_failed = symmetric_block(rates)
    anti_lam, anti_right, anti_left, anti_failed = antisymmetric_block(points, rates)
    n = len(points)
    right = np.zeros((n, 5, 5), dtype=complex)
    left = np.zeros((n, 5, 5), dtype=complex)
    # columns of right (rows of left) follow MODE_LABELS
    sym_rows, anti_rows = np.array(SYM_ROWS)[:, None], np.array(ANTI_ROWS)[:, None]
    right[:, sym_rows, [0, 1, 2]] = sym_right
    right[:, anti_rows, [3, 4]] = anti_right
    left[:, [[0], [1], [2]], SYM_ROWS] = sym_left
    left[:, [[3], [4]], ANTI_ROWS] = anti_left

    eigenvalues = np.concatenate([sym_lam, anti_lam], axis=1)
    trans = mode_matrices([p.g for p in points], [p.v for p in points], [r.zeta for r in rates])
    dense = np.flatnonzero(~labeled)
    bare = np.abs(np.swapaxes(trans[dense], 1, 2) @ right[dense, :, :3]) ** 2
    w = np.array([flux_weights(points[k]) for k in dense]).reshape(dense.size, 5, 1)
    eigenvalues.real[dense, :3] = -0.5 * (w * bare).sum(axis=1) / bare.sum(axis=1)
    weights = (left @ (trans @ bare0)[..., None])[..., 0]
    # right * weights holds the normal-amplitude coefficients
    chi_coeffs = np.swapaxes(trans, 1, 2) @ (right * weights[:, None, :])
    for k, (i, params) in enumerate(zip(ok, points)):
        results[i] = sym_failed.get(k) or anti_failed.get(k) or QuasiModeDecomposition(
            params, eigenvalues[k], MODE_LABELS if labeled[k] else None, right[k],
            left[k], weights[k], chi_coeffs[k], bare0,
        )
    return results
