"""Oracle ledger of the shipped outputs.

The eight scenarios of scenarios/ run once, and every column of the 13
CSVs they write, and every channel total they print, is held to an oracle
of conftest:

- omega against the package's grid default_omega_grid, t against k dt;
- the spectral and total columns against the resolvent (s - G)^-1 c0 at
  s = -i omega on that grid (the printed omega would add up to 4.7e-12
  of a peak on a steep flank);
- the Lorentzian, interference and lorentzian_sum columns against the
  pole terms chi_j / (s - lambda_j) of a dense np.linalg.eig of the bare
  generator G;
- the occupations and survival against expm(G t) c0, the detection
  columns against w_c [X - Phi X Phi^+]_cc with Phi = expm(G t) and X the
  50-digit Gramian;
- the printed totals against w_c X_cc (a trajectory's against the
  detection at t_max).

Every cell has its own bound: half a unit of the 13th digit of the
printed cell (of the 6th decimal for a printed total) plus the
conditioning terms of both computations, taken from their own residuals,
and for a trajectory RK4's global truncation and rounding bound.
Per column tests/data/shipped_ledger.json records the largest error, the
bound of that cell, the column's peak and the largest ratio of error to
bound over its cells; ``python tests/test_ledger.py`` records it again.
"""

import contextlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from math import factorial
from pathlib import Path

import numpy as np
import pytest

from fiberqed import (bare_generator, default_omega_grid, full_decomposition,
                      normal_mode_matrix, single_excitation)
from fiberqed.cli import parse_scenario, run_scenario
from fiberqed.eigen import MODE_LABELS
from fiberqed.model import BARE_MODES, NORMAL_MODES, flux_weights

from conftest import exact_gramian, propagator, resolvent

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
LEDGER = ROOT / "tests" / "data" / "shipped_ledger.json"
U = np.finfo(float).eps / 2
TOTALS_HALF_UNIT = 5e-7  # half a unit in the 6th printed decimal
# the RK4 stage matrices B_i as coefficients of (h G)^a, and their weights
RK4_STAGES = ([1], [1, Fraction(1, 2)], [1, Fraction(1, 2), Fraction(1, 4)],
              [1, 1, Fraction(1, 2), Fraction(1, 4)])
RK4_WEIGHTS = (1, 2, 2, 1)


def gamma(n):
    """sqrt(2) gamma_n, the relative error of n complex operations in a row
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, sec. 3.6)."""
    return np.sqrt(2) * n * U / (1 - n * U)


def half_unit(printed):
    """Half a unit of the 13th significant digit of each %.12e cell (0 for a printed 0,
    which only an exact 0 prints)."""
    mag = np.abs(printed)
    exponent = np.floor(np.log10(np.where(mag > 0, mag, 1.0)))
    exponent -= mag < 10.0 ** exponent
    exponent += mag >= 10.0 ** (exponent + 1)
    return np.where(mag > 0, 0.5 * 10.0 ** (exponent - 12), 0.0)


def run_shipped(out_dir) -> list:
    """Run every shipped scenario into out_dir: per point its scenario, parameters,
    printed name, printed totals and files."""
    points = []
    for cfg in sorted(SCENARIOS.glob("*.cfg")):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            run_scenario(cfg, out_dir=out_dir)
        scn = parse_scenario(cfg)
        for (_, params), block in zip(scn.points, printed.getvalue().split("== ")[1:],
                                      strict=True):
            lines = [line.strip() for line in block.splitlines()]
            totals = [float(item.split("=")[1]) for item in next(
                line for line in lines if line.startswith("channel totals: ")).split()[2:]]
            files = [Path(line[len("wrote "):]) for line in lines if line.startswith("wrote ")]
            points.append((scn, params, lines[0], np.array(totals), files))
    return points


# --- spectra -----------------------------------------------------------------

def _residuals(gen, c0, chi, lam):
    """|G chi_j - lambda_j chi_j| per pole j and |sum_j chi_j - c0|, each with the
    rounding of its own evaluation.

    They are exact measures of how far the poles chi_j / (s - lambda_j) are
    from those of G: (s - G) sum_j chi_j / (s - lambda_j) - c0 =
    sum_j chi_j - c0 - sum_j (G chi_j - lambda_j chi_j) / (s - lambda_j).
    """
    rho = gen @ chi - chi * lam
    rho_scale = np.abs(gen) @ np.abs(chi) + np.abs(chi) * np.abs(lam)
    res = np.linalg.norm(rho, axis=0) + gamma(7) * np.linalg.norm(rho_scale, axis=0)
    miss = (np.linalg.norm(chi.sum(axis=1) - c0)
            + gamma(6) * np.linalg.norm(np.abs(chi).sum(axis=1)))
    return res, miss


def _pole_errors(gen, c0, chi, lam, proj, exact_lam):
    """First-order bounds (5,) on |chi_j - P_j c0| and |lambda_j - exact lambda_j|.

    P_k are the spectral projectors of G (norms proj) with eigenvalues
    exact_lam.  With rho_j = G chi_j - lambda_j chi_j and e = sum chi_j - c0,
    P_k chi_j = P_k rho_j / (exact_k - lambda_j) for k != j, so
    chi_j - P_j c0 = sum_k!=j P_k rho_j / (exact_k - lambda_j)
                     - sum_i!=j P_j rho_i / (exact_j - lambda_i) + P_j e,
    and (exact_j - lambda_j) P_j chi_j = P_j rho_j gives the eigenvalue.
    """
    res, miss = _residuals(gen, c0, chi, lam)
    gap = np.abs(exact_lam[:, None] - lam[None, :])  # [k, j]: |exact_k - lambda_j|
    np.fill_diagonal(gap, np.inf)
    leak = res * (proj[:, None] / gap).sum(axis=0)
    d_chi = leak + proj * (res[None, :] / gap).sum(axis=1) + proj * miss
    kept = np.linalg.norm(chi, axis=0) - leak  # at most |P_j chi_j|
    assert (kept > 0).all(), "residuals too large for a first-order bound"
    return d_chi, proj * res / kept


def spectral_oracles(params, c0, channels) -> dict:
    """{channel: {column name: (oracle, conditioning bound)}} of a point's spectral files."""
    gen = bare_generator(params)
    omega = default_omega_grid(params)
    s = -1j * omega

    # the resolvent solve, bounded through its residual (Higham 2002, sec. 7.2)
    amps = resolvent(gen, c0, omega)
    mats = s[:, None, None] * np.eye(5) - gen
    resid = c0 - (mats @ amps[..., None])[..., 0]
    scale = (np.abs(mats) @ np.abs(amps)[..., None])[..., 0] + np.abs(c0)
    inv_norm = 1 / np.linalg.svd(mats, compute_uv=False)[:, -1]  # |(s - G)^-1|_2
    d_solve = inv_norm * (np.linalg.norm(resid, axis=1)
                          + gamma(7) * np.linalg.norm(scale, axis=1))

    # the package's pole sum, bounded through the residual of its rational function
    decomp = full_decomposition(params, c0)
    chi, lam = decomp.chi_coeffs, decomp.eigenvalues
    res, miss = _residuals(gen, c0, chi, lam)
    dist = np.abs(s[:, None] - lam)  # (W, 5)
    d_sum = inv_norm * (miss + (res / dist).sum(axis=1))

    # the pole terms of a dense eigensolve, matched to the package's poles
    dense_lam, vecs = np.linalg.eig(gen)
    order = [int(np.argmin(np.abs(dense_lam - x))) for x in lam]
    assert sorted(order) == list(range(5)), (dense_lam, lam)
    dense_lam, vecs = dense_lam[order], vecs[:, order]
    lefts = np.linalg.inv(vecs)
    dense_chi = vecs * (lefts @ c0)
    proj = np.linalg.norm(vecs, axis=0) * np.linalg.norm(lefts, axis=1)
    errors = [(chi_of, np.abs(s[:, None] - lam_of),
               *_pole_errors(gen, c0, chi_of, lam_of, proj, dense_lam))
              for chi_of, lam_of in ((chi, lam), (dense_chi, dense_lam))]
    assert all((near > d_lam).all() for _, near, _, d_lam in errors)

    oracles = {}
    for channel in channels:
        c = BARE_MODES.index(channel)
        p = flux_weights(params)[c] / (2 * np.pi)
        mag = np.abs(amps[:, c])
        d_amp = d_solve + d_sum + gamma(9) * (np.abs(chi[c]) / dist).sum(axis=1)
        spectrum = p * mag ** 2
        spectrum_bound = p * d_amp * (2 * mag + d_amp) + 2 * gamma(4) * spectrum
        d_term = sum(d_chi / near + (np.abs(chi_of[c]) + d_chi) * d_lam / (near * (near - d_lam))
                     + gamma(4) * np.abs(chi_of[c]) / near
                     for chi_of, near, d_chi, d_lam in errors)  # (W, 5)
        terms = dense_chi[c] / (s[:, None] - dense_lam)
        size = np.abs(terms)
        lorentzians = p * size ** 2
        lorentzian_bounds = p * d_term * (2 * size + d_term) + 2 * gamma(4) * lorentzians
        columns = {"omega": (omega, U * np.abs(omega)), "total": (spectrum, spectrum_bound),
                   channel: (spectrum, spectrum_bound),
                   "lorentzian_sum": (lorentzians.sum(axis=1),
                                      lorentzian_bounds.sum(axis=1)
                                      + 2 * gamma(5) * lorentzians.sum(axis=1))}
        for j, label in enumerate(MODE_LABELS):
            columns[f"lorentzian_{label}"] = (lorentzians[:, j], lorentzian_bounds[:, j])
            for k in range(j + 1, 5):
                w = 2 * p * np.real(terms[:, j] * np.conj(terms[:, k]))
                bound = (2 * p * (size[:, j] * d_term[:, k] + size[:, k] * d_term[:, j]
                                  + d_term[:, j] * d_term[:, k])
                         + 2 * gamma(6) * 2 * p * size[:, j] * size[:, k])
                columns[f"w_{label}_{MODE_LABELS[k]}"] = (w, bound)
        oracles[channel] = columns
    return oracles


# --- trajectories ------------------------------------------------------------

def _rk4_quadrature_local(gen, c0, h):
    """Bound on |Q(y) - I(y)| per step and unit flux weight, for y = e^{tG} c0.

    I(y) = int_0^h |(e^{sG} y)_c|^2 ds and Q(y) = h/6 sum_i a_i |(B_i y)_c|^2
    the RK4 stages' quadrature.  Both are sums over a, b of
    h^(a+b+1) (G^a y)_c (G^b y)_c^* with coefficients that agree for
    a + b <= 3; |(G^a y)_c| <= |G^a c0|, as |e^{tG}|_2 <= 1 for the damped G.
    The stages have degree <= 3, so beyond a + b = 6 only the integral
    remains, at most h (2x)^7 e^(2x) / 8! with x = h |G|_2.
    """
    norms = [np.linalg.norm(np.linalg.matrix_power(gen, a) @ c0) for a in range(7)]
    total = 0.0
    for a in range(7):
        for b in range(7 - a):
            stage = sum(w * beta[a] * beta[b] for w, beta in zip(RK4_WEIGHTS, RK4_STAGES)
                        if max(a, b) < len(beta)) / 6
            coeff = stage - Fraction(1, (a + b + 1) * factorial(a) * factorial(b))
            assert a + b > 3 or coeff == 0
            total += abs(float(coeff)) * h ** (a + b + 1) * norms[a] * norms[b]
    x = h * np.linalg.norm(gen, 2)
    return total + h * (2 * x) ** 7 / factorial(8) * np.exp(2 * x)


def trajectory_oracles(params, c0, cfg, gramian) -> dict:
    """(oracle, conditioning bound) per column name of a trajectory file.

    RK4's amplitude error after k steps is at most growth^k k (local
    truncation + rounding per step): the local error sum_{m>=5} (hG)^m / m! y
    is at most h^5 |G^5 c0| e^x / 120 since |G^m y| <= |G|^(m-5) |G^5 c0|;
    |Phi|_2 <= 1 + x^5 e^x / 120 =: growth; a step rounds the step matrix
    (u || |Phi| || plus its correction term) and adds at most four 5 x 5
    products of the chain of powers, the block starts and the recorded
    product included.
    """
    gen, weights, h = bare_generator(params), flux_weights(params), cfg.dt
    steps = np.union1d(np.arange(0, cfg.n_steps + 1, cfg.record_every), cfg.n_steps)
    times = steps * h
    x = h * np.linalg.norm(gen, 2)
    entries = 1 + np.sqrt(5) * x * np.exp(x)  # || |Phi| ||_2
    trunc = h ** 5 * np.linalg.norm(np.linalg.matrix_power(gen, 5) @ c0) * np.exp(x) / 120
    rounding = U * entries + gamma(20) * 5 * x * np.exp(x) + 4 * np.sqrt(5) * gamma(7) * entries
    d_rk4 = (1 + x ** 5 * np.exp(x) / 120) ** steps * steps * (trunc + rounding)
    # expm(G t) as expm(G q Q dt) expm(G r dt) for k = q Q + r steps, about
    # 2 sqrt(rows) exponentials: the split times (u t), G t rounded (u |G| t),
    # the Pade approximant's backward error (u |G| t), the squarings and the product
    coarse = cfg.record_every * int(np.ceil(np.sqrt(steps.size)))
    q, iq = np.unique(steps // coarse, return_inverse=True)
    r, ir = np.unique(steps % coarse, return_inverse=True)
    phi = propagator(gen, q * coarse * h)[iq] @ propagator(gen, r * h)[ir]
    g_t = np.linalg.norm(gen, 2) * times
    d_expm = 3 * U * g_t + np.sqrt(5) * gamma(7) * (3 + np.log2(1 + g_t))
    d_amp = d_rk4 + d_expm

    amps = phi @ c0
    trans = normal_mode_matrix(params)
    columns = {"t": (times, U * times)}
    for modes, y, extra in ((BARE_MODES, amps, 0.0),
                            (NORMAL_MODES, amps @ trans.T, 2 * np.sqrt(5) * gamma(7) + 3 * U)):
        for j, mode in enumerate(modes):
            size, d = np.abs(y[:, j]), d_amp + extra
            columns[mode] = (size ** 2, d * (2 * size + d) + 2 * gamma(2) * size ** 2)
    survival = np.sum(np.abs(amps) ** 2, axis=1)
    columns["survival"] = (survival, d_amp * (2 * np.sqrt(survival) + d_amp)
                           + 2 * gamma(7) * survival)

    detected = weights * np.real(np.diagonal(
        gramian - phi @ gramian @ np.swapaxes(phi, 1, 2).conj(), axis1=1, axis2=2))
    local = _rk4_quadrature_local(gen, c0, h)
    drift = times * np.exp(2 * x) * (2 + d_rk4) * d_rk4 + steps * local
    oracle_err = np.linalg.norm(gramian, 2) * (2 * d_expm + d_expm ** 2
                                               + 2 * np.sqrt(5) * gamma(7) + 2 * U)
    summing = (steps + 8) * U + 2 * np.sqrt(5) * gamma(7)
    for j, mode in enumerate(BARE_MODES):
        bound = weights[j] * (drift + oracle_err) + summing * detected[:, j]
        columns[f"p_{mode}"] = (detected[:, j], bound)
    return columns


# --- the ledger --------------------------------------------------------------

def _entry(printed, oracle, bound) -> dict:
    """Largest error, the bound of that cell, the peak and the worst error / bound."""
    error = np.abs(printed - oracle)
    i = int(np.argmax(error))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(error == 0, 0.0, error / bound)
    return {"error": float(error[i]), "bound": float(bound[i]),
            "peak": float(np.abs(printed).max()), "ratio": float(ratio.max())}


def measure(out_dir) -> dict:
    """{file name: {column: entry}} of the 13 CSVs and {"totals": {point: entry}}."""
    ledger, gramians = {"totals": {}}, {}
    for scn, params, name, totals, files in run_shipped(out_dir):
        c0 = single_excitation(scn.initial)
        gen = bare_generator(params)
        if (params, scn.initial) not in gramians:  # fig9 evolves the fig8 point
            gramians[params, scn.initial] = exact_gramian(gen, c0, 50)
        gramian = gramians[params, scn.initial]
        weights = flux_weights(params)
        if scn.run == "trajectory":
            columns = trajectory_oracles(params, c0, scn.integrator, gramian)
            oracles = {files[0]: columns}
            exact, cond = (np.array([columns[f"p_{c}"][i][-1] for c in BARE_MODES])
                           for i in (0, 1))
        else:
            per_channel = spectral_oracles(params, c0, scn.channels)
            if scn.run == "decomposition":  # one file per channel
                oracles = dict(zip(files, per_channel.values(), strict=True))
            else:  # one file, a column per channel
                oracles = {files[0]: {k: v for columns in per_channel.values()
                                      for k, v in columns.items()}}
            exact = weights * gramian.diagonal().real
            # the package's 25 x 25 LU solve (Higham 2002, thm. 9.4)
            op = np.kron(gen, np.eye(5)) + np.kron(np.eye(5), gen.conj())
            cond = (weights * np.linalg.cond(op) * 25 * gamma(75)
                    * np.linalg.norm(gramian))
        ledger["totals"][name] = _entry(totals, exact, TOTALS_HALF_UNIT + cond)
        for path, columns in oracles.items():
            header = [line for line in path.read_text().splitlines(keepends=False)[:4]
                      if line.startswith("# columns: ")][0]
            data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
            ledger[path.name] = {
                col: _entry(data[:, i], columns[col][0], half_unit(data[:, i]) + columns[col][1])
                for i, col in enumerate(header[len("# columns: "):].split(","))}
    return ledger


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    return measure(tmp_path_factory.mktemp("shipped"))


def report(ledger, recorded) -> list:
    """One line per column: its largest error next to its bound and to the recorded error."""
    lines = []
    for name, columns in ledger.items():
        for col, e in columns.items():
            before = recorded.get(name, {}).get(col, {}).get("error", float("nan"))
            lines.append(f"{name} {col}: error {e['error']:.2g} (bound {e['bound']:.2g}), "
                         f"{e['error'] / (e['peak'] or 1.0):.2g} of the peak {e['peak']:.3g}; "
                         f"worst cell at {e['ratio']:.2g} of its bound; recorded {before:.2g}")
    return lines


def test_shipped_outputs_meet_their_oracles(ledger):
    recorded = json.loads(LEDGER.read_text())
    print("\n".join(["", *report(ledger, recorded)]))
    assert len(ledger) == 14  # the 13 CSVs and the printed totals
    assert {k: sorted(v) for k, v in recorded.items()} == {k: sorted(v) for k, v in ledger.items()}
    over = [(name, col, e["ratio"]) for name, columns in ledger.items()
            for col, e in columns.items() if not e["ratio"] <= 1]
    assert not over


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        measured = measure(Path(tmp))
    rounded = {name: {col: {k: float(f"{v:.3g}") for k, v in e.items()}
                      for col, e in columns.items()} for name, columns in measured.items()}
    LEDGER.write_text(json.dumps(rounded, indent=1, sort_keys=True) + "\n")
    print("\n".join(report(measured, measured)), file=sys.stderr)
