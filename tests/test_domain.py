"""Seeded domain sampler: every physical point answers or fails with a typed error.

The draws span twelve decades of every rate, exact zeros included, with
kappa = kappa_b = 0 over-weighted: there only the atoms decay, a large v
leaves the bright pair a decay rate far below the generator's scale, and
the Gramian solve of the channel totals can lose it to rounding.  Four
seeded draw classes go to the edges of the domain: the fiber-dark block's
critical damping p = 0, approached to 1e-15 and met exactly; the cubic's
double roots, found by bisection in g; the overdamped regime of both
blocks; and one rate just below the 2.12e51 bound.  The contract pinned
here is what the package promises today:

- a draw ends in an answer, an error typed in fiberqed.errors, or the
  ValueError of derive_rates where g^2 + 2 v^2 is 0 (g = v = 0 or underflow);
- no warning but LabelAmbiguous is raised, and no untyped numpy error;
- an answer has finite spectra and totals, and a total below -1e-9 comes
  with totals that miss their sum 1 by more than the CLI's AccuracyWarning
  bound, so a run flags it;
- through the CLI, a draw exits 0 or 3, and warns AccuracyWarning exactly
  when its printed conservation residual exceeds that bound;
- the fiber-dark roots QFD+- of an answered draw are within the rounding
  bound of their 150-digit values;
- the c(t) of an answered draw is within the bound of a backward-stable
  decomposition of expm(G t) c0, and its spectra of the resolvent; on the
  main sample both are strict xfails (ROADMAP items 12 and 4);
- the symmetric-block roots of an answered, labeled draw (the cubic's path)
  are within their rounding bound of a 60-digit eigensolve of the same float
  block; the dense eigensolve of an unlabeled draw is not yet within its
  conditioning bound (a strict xfail, ROADMAP item 4);
- no unlabeled decomposition has a growing mode, its real parts from the
  damping identity; the cubic still gives some labeled ones Re lambda > 0
  (a strict xfail, item 4);
- two single points that the cubic got wrong answer through the dense
  solve, and one that should answer does not (a strict xfail, items 4 and 5);
- a labeled bright pair whose real parts are equal has QBS+ at the lower
  Im lambda, also where rounding puts the pair on the three-real side.
"""

import warnings
from collections import Counter
from functools import cache
from itertools import permutations

import mpmath
import numpy as np
import pytest

from fiberqed import (
    AccuracyWarning,
    LabelAmbiguous,
    SingularMatrix,
    SystemParams,
    bare_generator,
    channel_spectrum,
    cli,
    default_omega_grid,
    derive_rates,
    full_decomposition,
    full_decompositions,
    single_excitation,
)
from fiberqed.eigen import _cubic_coefficients, antisymmetric_block, symmetric_block
from fiberqed.model import _RATE_BOUND, BARE_MODES, flux_weights, symmetric_generator
from fiberqed.spectra import integrated_spectrum

from conftest import exact_fiber_dark_roots, exact_roots, propagator, resolvent

N_DRAWS = 1000
N_CLI = 20
# each rate is log-uniform over this range, or exactly 0 with probability 0.1
DECADES = (-6.0, 6.0)
P_ZERO = 0.1
# probability that kappa = kappa_b = 0, where every silent wrong total seen so far sits
P_ATOMS_ONLY = 0.25
# the derive_rates error where g^2 + 2 v^2 is 0
NO_NORMAL_MODES = ("normal modes are undefined when g = v = 0", "underflows to 0")


def _draws(rng, n):
    for _ in range(n):
        rates = np.where(rng.random(5) < P_ZERO, 0.0, 10.0 ** rng.uniform(*DECADES, size=5))
        if rng.random() < P_ATOMS_ONLY:
            rates[2:4] = 0.0  # kappa, kappa_b
        g, v, kappa, kappa_b, gamma = rates.tolist()
        initial = BARE_MODES[rng.integers(5)]
        yield SystemParams(g=g, v=v, kappa=kappa, kappa_b=kappa_b, gamma=gamma), initial


def _outcome(params, initial):
    """(outcome name, totals or None, warnings raised) of one in-process draw."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            decomp = full_decomposition(params, single_excitation(initial))
            (totals,) = integrated_spectrum([decomp])
            if isinstance(totals, Exception):
                raise totals
            spectrum = channel_spectrum([decomp], BARE_MODES).spectrum
        except ValueError as exc:
            typed = type(exc).__module__ == "fiberqed.errors"
            if not typed and not (type(exc) is ValueError
                                  and any(m in str(exc) for m in NO_NORMAL_MODES)):
                raise AssertionError(f"{params}, {initial}: untyped {exc!r}") from exc
            name = type(exc).__name__ if typed else "no normal modes"
            return name, None, caught
    assert np.isfinite(spectrum).all() and np.isfinite(totals).all(), (params, initial)
    return "answer", totals, caught


@pytest.fixture(scope="module")
def sample():
    """The seeded draws with their in-process (outcome name, totals, warnings)."""
    rng = np.random.default_rng(20261019)
    return [(params, initial, *_outcome(params, initial))
            for params, initial in _draws(rng, N_DRAWS)]


def _flagged(totals):
    """Whether the CLI warns AccuracyWarning for these totals: cli._spectral_results
    puts this residual in the point's Outcome, and cli._run_point warns on it."""
    return abs(sum(totals.tolist()) - 1.0) > cli._RESIDUAL_BOUND


def _tally(draws) -> Counter:
    """Outcome counts of (params, initial, outcome name, totals, warnings) draws,
    each held to the in-process contract."""
    tally = Counter()
    for params, initial, name, totals, caught in draws:
        tally[name] += 1
        others = [w for w in caught if not issubclass(w.category, LabelAmbiguous)]
        assert not others, (params, initial, [str(w.message) for w in others])
        tally["LabelAmbiguous warned"] += bool(caught)
        if totals is None:
            continue
        if _flagged(totals):
            tally["answer: totals miss 1 beyond the bound"] += 1
        if totals.min() < -1e-9:
            tally["answer: a negative total"] += 1
            assert _flagged(totals), (params, initial, totals)
    return tally


def _cli_tally(draws, tmp_path, capsys) -> Counter:
    """Exit counts of the draws run as spectrum scenarios, each held to the CLI contract."""
    tally = Counter()
    for k, (params, initial, name, _, _) in enumerate(draws):
        rates = "".join(f"{key} = {getattr(params, key)!r}\n" for key in cli.RATES)
        cfg = tmp_path / f"draw{k}.cfg"
        cfg.write_text(f"[params]\n{rates}\n[run]\ntype = spectrum\ninitial = {initial}\n"
                       f"channels = {','.join(BARE_MODES)}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([str(cfg), "--out", str(tmp_path)])
        printed = capsys.readouterr()
        warned = [w for w in caught if issubclass(w.category, AccuracyWarning)]
        others = [w for w in caught if not issubclass(w.category, (AccuracyWarning,
                                                                   LabelAmbiguous))]
        assert not others, (params, initial, [str(w.message) for w in others])
        assert code == (0 if name == "answer" else 3), (params, initial, printed.err)
        if code == 0:
            residual = float(printed.out.split("conservation residual:")[1].split()[0])
            assert bool(warned) == (abs(residual) > cli._RESIDUAL_BOUND), (params, initial)
        else:
            assert not warned and printed.err.startswith("domain error: "), printed.err
        tally[f"exit {code}" + (", AccuracyWarning" if warned else "")] += 1
    return tally


def test_every_draw_answers_or_fails_typed(sample):
    tally = _tally(sample)
    print(f"{N_DRAWS} draws: " + ", ".join(f"{k} {v}" for k, v in sorted(tally.items())))


def test_cli_draws_exit_0_or_3_and_warn_on_their_residual(sample, tmp_path, capsys):
    # the first draws whose totals the CLI must flag, then every 100th draw
    flagged = [draw for draw in sample if draw[3] is not None and _flagged(draw[3])]
    draws = flagged[:N_CLI // 2] + sample[::N_DRAWS // (N_CLI // 2)]
    tally = _cli_tally(draws, tmp_path, capsys)
    print(f"{len(draws)} CLI draws: " + ", ".join(f"{k} {v}" for k, v in sorted(tally.items())))


# --- draw classes at the edges of the domain -------------------------------

N_EDGE = 80  # draws per class
N_EDGE_CLI = 4  # of which the first ones also run through the CLI


def _log_uniform(rng, lo, hi, size):
    return (10.0 ** rng.uniform(lo, hi, size)).tolist()


def _p_zero_draws(rng):
    """g = g_c (1 + r) with p = 0 at g_c = |gamma/2 - kappa| / 2, |r| in 1e-15 ... 1e-3,
    and r = 0 exactly with probability 0.1."""
    for _ in range(N_EDGE):
        v, kappa, kappa_b, gamma = _log_uniform(rng, -3, 3, 4)
        r = 0.0 if rng.random() < 0.1 else rng.choice([-1, 1]) * 10.0 ** -rng.uniform(3, 15)
        params = SystemParams(g=abs(gamma / 2 - kappa) / 2 * (1 + r), v=v, kappa=kappa,
                              kappa_b=kappa_b, gamma=gamma)
        assert abs(derive_rates(params).p) <= 1e-1 * params.g, params
        yield params


def _conjugate_pair(params) -> bool:
    # the sign of the cubic's discriminant: a conjugate pair, or three real roots
    return _cubic_coefficients(derive_rates(params))[6] > 0


def _double_root_draws(rng):
    """The two floats of g on either side of a sign change of the cubic's discriminant,
    found by bisection from the first change on a log grid of g."""
    found = 0
    while found < N_EDGE:
        v, kappa, kappa_b, gamma = _log_uniform(rng, -3, 3, 4)
        at = lambda g: SystemParams(g=g, v=v, kappa=kappa, kappa_b=kappa_b, gamma=gamma)
        grid = max(kappa, kappa_b, gamma) * np.logspace(-4, 2, 25)
        pair = [_conjugate_pair(at(g)) for g in grid.tolist()]
        change = next((i for i in range(len(grid) - 1) if pair[i] != pair[i + 1]), None)
        if change is None:
            continue
        lo, hi = grid[change:change + 2].tolist()
        while (mid := (lo + hi) / 2) not in (lo, hi):
            lo, hi = (mid, hi) if _conjugate_pair(at(mid)) == pair[change] else (lo, mid)
        assert np.nextafter(lo, np.inf) == hi
        found += 2
        yield at(lo)
        yield at(hi)


def _overdamped_draws(rng):
    """Couplings 1e-4 ... 1e-1 of the smallest loss scale, kept where both blocks
    are overdamped: p imaginary and three real roots of the cubic."""
    found = 0
    while found < N_EDGE:
        kappa, kappa_b, gamma = _log_uniform(rng, -2, 2, 3)
        low = min(kappa, kappa_b, gamma, abs(gamma / 2 - kappa) / 2)
        g, v = (low * x for x in _log_uniform(rng, -4, -1, 2))
        params = SystemParams(g=g, v=v, kappa=kappa, kappa_b=kappa_b, gamma=gamma)
        if derive_rates(params).p.imag > 0 and not _conjugate_pair(params):
            found += 1
            yield params


def _near_bound_draws(rng):
    """One rate (1 - 10^-u) times the 2.12e51 bound, u in 1 ... 15; the others as in
    the main draws without zeros."""
    for _ in range(N_EDGE):
        rates = _log_uniform(rng, *DECADES, 5)
        rates[rng.integers(5)] = _RATE_BOUND * (1 - 10.0 ** -rng.uniform(1, 15))
        yield SystemParams(*rates)


EDGE_CLASSES = {
    "p=0": _p_zero_draws,
    "double-root": _double_root_draws,
    "overdamped": _overdamped_draws,
    "near-rate-bound": _near_bound_draws,
}


@cache
def _edge_sample(name) -> list:
    """The seeded draws of one edge class with their in-process outcomes (see sample)."""
    rng = np.random.default_rng(20261019)
    draws = []
    for params in EDGE_CLASSES[name](rng):
        initial = BARE_MODES[rng.integers(5)]
        draws.append((params, initial, *_outcome(params, initial)))
    return draws


@pytest.mark.parametrize("name", list(EDGE_CLASSES))
def test_edge_draws_answer_or_fail_typed(name, tmp_path, capsys):
    draws = _edge_sample(name)
    tally = _tally(draws)
    cli_tally = _cli_tally(draws[:N_EDGE_CLI], tmp_path, capsys)
    print(f"{name}, {len(draws)} draws: "
          + ", ".join(f"{k} {v}" for k, v in sorted((tally + cli_tally).items())))


def _answered(name, sample) -> list:
    draws = sample if name == "main" else _edge_sample(name)
    return [params for params, _, outcome, _, _ in draws if outcome == "answer"]


@pytest.mark.parametrize("name", ["main", *EDGE_CLASSES])
def test_answered_fiber_dark_roots_match_high_precision(name, sample):
    # The roots -Gamma_A+/2 -+ i p from the float rates, to first order in the
    # unit roundoff u: Gamma_A+/2 rounds once (u Gamma_A+/2); Gamma_A-^2/4 carries
    # 3u, g^2 u, and their difference d = p^2 one more rounding, so
    # |delta d| <= 4u (g^2 + Gamma_A-^2/4), and |sqrt(d + delta d) - sqrt(d)| <=
    # |delta d| / |p| on either side of p = 0; the square root adds u |p|.  The
    # fast overdamped root adds u (Gamma_A+/2 + |p|); the slow one, the product
    # g^2 + kappa gamma/2 (2u) over the sum Gamma_A+/2 + |p| (u), divided (u), is
    # at most that sum in size: 5u (Gamma_A+/2 + |p| + (g^2 + Gamma_A-^2/4) / |p|)
    # bounds every case.
    answered = _answered(name, sample)
    u = np.finfo(float).eps / 2
    checked = []  # (error / bound, error, bound, params)
    for params in answered:
        (lam,), _, _, _ = antisymmetric_block([params], [derive_rates(params)])
        exact = exact_fiber_dark_roots(params)
        with mpmath.workdps(150):
            p = abs(exact[1] - exact[0]) / 2
            half = -(exact[0] + exact[1]).real / 2
            g, kappa, gamma = (mpmath.mpf(getattr(params, k)) for k in ("g", "kappa", "gamma"))
            scale = half + p + (g**2 + (gamma / 2 - kappa) ** 2 / 4) / p
            err = max(abs(x - y) for x, y in zip(lam.tolist(), exact))
            bound = 5 * u * scale
        checked.append((float(err / bound), float(err), float(bound), params))
    ratio, err, bound, params = max(checked, key=lambda c: c[0])
    print(f"{name}: {len(answered)} answered draws, worst |lambda - exact| = {err:.3g} "
          f"(bound {bound:.3g}) at {params}")
    assert ratio <= 1


@pytest.mark.parametrize("name", ["main", *EDGE_CLASSES])
def test_bright_pair_sharing_a_real_part_puts_qbs_plus_below(name, sample):
    # QBS+ oscillates at +zeta, Im lambda < 0: for a conjugate pair, and for a
    # pair that rounding of a double root leaves on the three-real side, where
    # the -Re lambda key ties and Im lambda decides
    draws = sample if name == "main" else _edge_sample(name)
    points = [params for params, _, outcome, _, _ in draws if outcome != "no normal modes"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LabelAmbiguous)
        lam, _, _, labeled, _ = symmetric_block([derive_rates(p) for p in points])
    tied = labeled & (lam[:, 0].real == lam[:, 1].real)
    real_side = tied & ~np.array([_conjugate_pair(p) for p in points])
    print(f"{name}: {tied.sum()} labeled points whose QBS+- share a real part, "
          f"{real_side.sum()} of them on the three-real side")
    assert (lam[tied, 0].imag <= lam[tied, 1].imag).all()


# --- the symmetric block's roots against a 60-digit eigensolve ---------------

N_ROOT_ORACLE = 300  # main-sample answers checked, a seeded subsample (4 ms per eigensolve)


def _float_blocks(rates) -> np.ndarray:
    """The symmetric blocks (N, 3, 3) of the derived rates, as the package builds them."""
    return symmetric_generator(*np.array(
        [(r.zeta, r.gamma_s_plus, r.gamma_s_minus, r.gamma_sd, r.gamma_d) for r in rates]
    ).reshape(len(rates), 5).T)


def _symmetric_roots(points) -> tuple:
    """(roots, condition numbers, float blocks, |root - exact|) of the points'
    symmetric blocks, the roots (N, 3) as symmetric_block returns them,
    each against the 60-digit eigenvalue of the same float block that the
    closest matching (in double precision) pairs it with."""
    rates = [derive_rates(p) for p in points]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LabelAmbiguous)
        lam, right, left, _, _ = symmetric_block(rates)
    blocks = _float_blocks(rates)
    # left @ right = I, so each root's condition number is |left row| |right column|
    cond = np.linalg.norm(left, axis=2) * np.linalg.norm(right, axis=1)
    errors = np.empty(lam.shape)
    for i, (roots, block) in enumerate(zip(lam.tolist(), blocks)):
        exact = exact_roots(block)
        near = [complex(x) for x in exact]
        perm = min(permutations(range(3)),
                   key=lambda perm: max(abs(x - near[j]) for x, j in zip(roots, perm)))
        with mpmath.workdps(60):
            errors[i] = [float(abs(x - exact[j])) for x, j in zip(roots, perm)]
    return lam, cond, blocks, errors


def _cubic_bound(points, lam) -> np.ndarray:
    """First-order bound (N, 3) on how far the cubic's roots lam lie from the
    eigenvalues of the float block.

    The block's entries are the float rates (halving is exact), so its
    characteristic polynomial has the coefficients of _cubic_coefficients in
    exact arithmetic.  Each is a sum of products of the rates rounded in at
    most 6 operations: |delta c_k| <= gamma_6 C_k, C_k that sum over the
    absolute values of its terms.  The polished roots are exact for a
    polynomial with every c_k off by gamma_6 |c_k| more (Horner's backward
    error, as in eigen._trace_misses).  To first order a root moves by
    sum_k delta c_k lambda^k / p'(lambda), p'(lambda_j) the product of
    lambda_j - lambda_i over the other two roots.
    """
    u = np.finfo(float).eps / 2
    g6 = 6 * u / (1 - 6 * u)
    bounds = np.empty(lam.shape)
    for i, (params, roots) in enumerate(zip(points, lam.tolist())):
        r = derive_rates(params)
        c2, c1, c0 = _cubic_coefficients(r)[:3]
        gsp, sm, gsd, gd, zeta = (abs(x) for x in (r.gamma_s_plus, r.gamma_s_minus / 2,
                                                   r.gamma_sd, r.gamma_d, r.zeta))
        terms = [gd * (gsp**2 / 4 + zeta**2 + sm**2) + gsd**2 * (gsp + 2 * sm),
                 gsp**2 / 4 + zeta**2 + sm**2 + gd * gsp + 2 * gsd**2, gsp + gd, 0.0]
        coeffs = [abs(c0), abs(c1), abs(c2), 1.0]
        for j, x in enumerate(roots):
            slope = abs(np.prod([x - y for k, y in enumerate(roots) if k != j]))
            moved = g6 * sum((t + c) * abs(x) ** k for k, (t, c) in enumerate(zip(terms, coeffs)))
            bounds[i, j] = moved / slope if moved else 0.0
    return bounds


def _worst(errors, bounds) -> tuple:
    """(error / bound, error, bound, point index) of the worst root, 0 / 0 read as 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(errors == 0, 0.0, errors / bounds)
    i, j = np.unravel_index(np.argmax(ratio), ratio.shape)
    return ratio[i, j], errors[i, j], bounds[i, j], i


def _split_by_label(answered) -> tuple:
    """(labeled, unlabeled) points: the cubic's roots, or the dense eigensolve's."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LabelAmbiguous)
        labeled = symmetric_block([derive_rates(p) for p in answered])[3].tolist()
    return ([p for p, keep in zip(answered, labeled) if keep],
            [p for p, keep in zip(answered, labeled) if not keep])


@pytest.mark.parametrize("name", ["main", *EDGE_CLASSES])
def test_labeled_symmetric_roots_match_high_precision(name, sample):
    # the cubic's roots of every answered, labeled draw within _cubic_bound of
    # the 60-digit eigenvalues of the float block
    answered = _answered(name, sample)
    if name == "main":
        keep = np.random.default_rng(28).choice(len(answered), N_ROOT_ORACLE, replace=False)
        answered = [answered[i] for i in sorted(keep.tolist())]
    points, _ = _split_by_label(answered)
    ratio, err, bound, i = 0.0, 0.0, 0.0, None
    if points:
        lam, _, _, errors = _symmetric_roots(points)
        ratio, err, bound, i = _worst(errors, _cubic_bound(points, lam))
    print(f"{name}: {len(points)} labeled of {len(answered)} answered draws, worst "
          f"|lambda - exact| = {err:.3g} (bound {bound:.3g})"
          + (f" at {points[i]}" if points else ""))
    assert ratio <= 1


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 4: the dense eigensolve of unlabeled draws misses the first-order "
    "conditioning bound u |B| cond by up to 10x"))
def test_unlabeled_symmetric_roots_match_high_precision(sample):
    # the dense eigensolve of every answered, unlabeled draw of every class
    # within u |B|_2 cond_j of the 60-digit eigenvalues of the float block: a
    # backward error of u |B|_2 moves root j by at most cond_j times it, to
    # first order
    u = np.finfo(float).eps / 2
    worst = 0.0
    for name in ["main", *EDGE_CLASSES]:
        _, points = _split_by_label(_answered(name, sample))
        if not points:
            continue
        _, cond, blocks, errors = _symmetric_roots(points)
        bounds = u * np.linalg.norm(blocks, 2, axis=(1, 2))[:, None] * cond
        ratio, err, bound, i = _worst(errors, bounds)
        print(f"{name}: {len(points)} unlabeled answered draws, worst |lambda - exact| = "
              f"{err:.3g} (bound {bound:.3g}) at {points[i]}")
        worst = max(worst, ratio)
    assert worst <= 1


# --- no growing mode: G + G^H = -diag(w) makes every exact Re lambda <= 0 ---


def _largest_real_parts(sample, labeled) -> list:
    """max Re lambda of each labeled, or each unlabeled, decomposition of the
    main sample and the edge classes."""
    top = []
    for name in ["main", *EDGE_CLASSES]:
        draws = sample if name == "main" else _edge_sample(name)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LabelAmbiguous)
            decomps = full_decompositions([params for params, *_ in draws])
        found = [d.eigenvalues.real.max() for d in decomps
                 if not isinstance(d, Exception) and (d.labels is not None) == labeled]
        print(f"{name}: {len(found)} {'' if labeled else 'un'}labeled decompositions, "
              f"{sum(x > 0 for x in found)} with Re lambda > 0, "
              f"largest {max(found, default=0):.3g}")
        top += found
    return top


def test_unlabeled_decompositions_have_no_growing_mode(sample):
    # the dense solve's real parts come from the damping identity, a sum of
    # terms >= 0
    top = _largest_real_parts(sample, labeled=False)
    growing = [x for x in top if x > 0]
    assert top and not growing, f"{len(growing)} of {len(top)}, largest {max(top):.3g}"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 4: the cubic's real parts err by up to ~u |lambda|, and Cardano returns "
    "Re lambda > 0 (up to 2.4e-15) for 12 labeled main draws"))
def test_labeled_decompositions_have_no_growing_mode(sample):
    top = _largest_real_parts(sample, labeled=True)
    growing = [x for x in top if x > 0]
    assert top and not growing, f"{len(growing)} of {len(top)}, largest {max(top):.3g}"


# --- c(t) and the spectra against the direct oracles of conftest -------------
#
# Both bounds are what a backward-stable decomposition attains: poles and
# vectors exact for G + E with |E|_2 <= n u |G|_2 (n = 5), left rows with the
# first-order error n u cond(R) |L|_2 of a stable inverse, and the rounding
# of the pole sum.  The factors come from the computed vectors: K_j =
# |l_j| |r_j|, the condition number of pole j, and K = sum_j K_j.  For unit
# columns r_j, |L|_2 <= K, |R|_2 <= sqrt(n) and cond(R) <= sqrt(n) K, and
# |e^((G+E)s)|_2 <= K max_j |e^(lambda_j s)|, |(s - G - E)^-1|_2 <= sum_j
# K_j / |s - lambda_j|.  The bare generator is dissipative, G + G^H = -diag(w)
# <= 0, so |e^(G s)|_2 <= 1.  Every initial state has |c0| = 1.

N_MODES = 5
U = np.finfo(float).eps / 2
ORACLE_TIMES = (0.3, 3.0)  # in units of 1 / max|G_ik|
GRID_STRIDE = 400  # every 400th point of the default grid, and the ones nearest the poles


@pytest.fixture(scope="module")
def answers(sample) -> dict:
    """{class: [(params, initial amplitudes, decomposition)]} of the answered draws."""
    found = {}
    for name in ["main", *EDGE_CLASSES]:
        draws = [(params, initial) for params, initial, outcome, _, _
                 in (sample if name == "main" else _edge_sample(name)) if outcome == "answer"]
        found[name] = []
        for mode in BARE_MODES:
            points, c0 = [p for p, initial in draws if initial == mode], single_excitation(mode)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", LabelAmbiguous)
                decomps = full_decompositions(points, c0)
            found[name] += [(p, c0, d) for p, d in zip(points, decomps)]
    return found


def _pole_conditions(decomp) -> np.ndarray:
    """K_j = |l_j| |r_j| (5,); the normal basis is an orthogonal map of the bare one."""
    return (np.linalg.norm(decomp.left_vectors, axis=1)
            * np.linalg.norm(decomp.right_vectors, axis=0))


def _report(name, checked, what) -> float:
    """Print the worst (ratio, error, bound, params) of checked; return its ratio."""
    ratio, err, bound, params = max(checked, key=lambda c: c[0], default=(0.0, 0.0, 0.0, None))
    print(f"{name}: {len(checked)} answered draws, worst {what} = {err:.3g} "
          f"(bound {bound:.3g}) at {params}")
    return ratio


def _propagation_check(params, c0, decomp) -> tuple:
    """(error / bound, error, bound, params) at the worse of ORACLE_TIMES: the
    decomposition's c(t) against expm(G t) c0.

    Duhamel's formula gives |e^(Gt) - e^((G+E)t)|_2 <= t |E|_2 K growth,
    growth = max(1, max_j |e^(lambda_j t)|); the left rows add |R|_2 growth
    |delta L|_2 <= n^2 u K^2 growth, the pole sum u (n + 2 + t max|lambda|)
    sum_j |chi_j| |e^(lambda_j t)| (its products, its sum and the exponent's
    argument), and expm, backward stable, u (t |G|_2 + n).
    """
    gen = bare_generator(params)
    times = np.array(ORACLE_TIMES) / np.abs(gen).max()
    err = np.linalg.norm(decomp.bare_amplitudes(times).T - propagator(gen, times) @ c0, axis=1)
    lam, norm, k = decomp.eigenvalues, np.linalg.norm(gen, 2), _pole_conditions(decomp).sum()
    exps = np.abs(np.exp(np.outer(lam, times)))  # (5, T)
    growth = np.maximum(exps.max(axis=0), 1.0)
    bound = (N_MODES * U * k * growth * (times * norm + N_MODES * k)
             + U * (N_MODES + 2 + times * np.abs(lam).max())
             * (np.linalg.norm(decomp.chi_coeffs, axis=0) @ exps)
             + U * (times * norm + N_MODES))
    i = np.argmax(err / bound)
    return err[i] / bound[i], err[i], bound[i], params


@pytest.mark.parametrize("name", [
    pytest.param("main", marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP items 12 and 4: the fiber-dark vectors carry the cancellation g - p "
        "(c(t) misses expm by up to 2e-9, 27000x its bound), and the cubic's roots miss "
        "the bound where the rates span eight decades"))),
    *EDGE_CLASSES,
])
def test_answered_amplitudes_match_the_propagator(name, answers):
    checked = [_propagation_check(*answer) for answer in answers[name]]
    assert _report(name, checked, "|c(t) - expm(G t) c0|") <= 1


def _spectrum_check(params, c0, decomp) -> tuple:
    """(error / bound, error, bound, params) at the worst cell, error and bound
    relative to the channel's peak: channel_spectrum of every channel against
    the resolvent on every GRID_STRIDE-th point of the default grid and the
    points nearest each pole.

    |(s - G)^-1|_2 is taken as sum_j K_j / |s - lambda_j|, to first order in
    E.  The amplitudes miss (s - G)^-1 c0 by |(s - G)^-1|_2 |E|_2 sum_j K_j /
    |s - lambda_j| (the resolvent identity), the left rows n^2 u K^2 /
    min_j |s - lambda_j|, and the pole sum u (n + 5) sum_j |chi_cj| /
    |s - lambda_j| (its kernel, product and sum).  The resolvent solve misses
    by |(s - G)^-1|_2 times its residual, with gamma_8 |s - G| |x| + |c0| for
    the rounding of the residual and of forming s - G.  A spectrum p |A|^2 off
    by d in A is off by p d (2 |A| + d), and its rounding adds 2 gamma_4 p |A|^2.
    """
    gen = bare_generator(params)
    grid = default_omega_grid(params)
    lam, k_j = decomp.eigenvalues, _pole_conditions(decomp)
    near = np.abs(grid[:, None] + lam.imag).argmin(axis=0)
    omega = grid[np.union1d(np.arange(0, grid.size, GRID_STRIDE), near)]
    mats = -1j * omega[:, None, None] * np.eye(N_MODES) - gen
    # a lossless mode on the grid makes s - G singular (a zero pivot, as the
    # solve finds it); the resolvent is undefined there, and the weightless pole adds 0
    keep = np.linalg.slogdet(mats)[0] != 0
    omega, mats = omega[keep], mats[keep]
    got = channel_spectrum([decomp], BARE_MODES, omega).spectrum[0]  # (5, W)

    amps = resolvent(gen, c0, omega)  # (W, 5)
    resid = c0 - (mats @ amps[..., None])[..., 0]
    scale = (np.abs(mats) @ np.abs(amps)[..., None])[..., 0] + np.abs(c0)
    dist = np.abs(-1j * omega[:, None] - lam)  # (W, 5)
    inv_norm = (k_j / dist).sum(axis=1)  # |(s - G)^-1|_2 to first order
    g8 = 8 * U / (1 - 8 * U)
    d_solve = inv_norm * (np.linalg.norm(resid, axis=1) + g8 * np.linalg.norm(scale, axis=1))
    d_sum = (inv_norm**2 * N_MODES * U * np.linalg.norm(gen, 2)
             + N_MODES**2 * U * k_j.sum() ** 2 / dist.min(axis=1))
    d_amp = (d_solve + d_sum)[None] + U * (N_MODES + 5) * np.abs(decomp.chi_coeffs) @ (1 / dist.T)
    prefactor = flux_weights(params)[:, None] / (2 * np.pi)
    mag = np.abs(amps.T)
    exact = prefactor * mag**2
    bound = prefactor * d_amp * (2 * mag + d_amp) + 8 * U * exact
    err = np.abs(got - exact)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 / 0 where a channel is 0
        ratio = np.where(err == 0, 0.0, err / bound)
    c, i = np.unravel_index(np.argmax(ratio), ratio.shape)
    peak = exact[c].max() or 1.0
    return ratio[c, i], err[c, i] / peak, bound[c, i] / peak, params


@pytest.mark.parametrize("name", [
    pytest.param("main", marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP items 12 and 4, until item 8 takes the spectra from the resolvent: the "
        "fiber-dark cancellation g - p puts spectra up to 1.6e8 times their bound, and the "
        "cubic's roots one draw 11 times"))),
    *EDGE_CLASSES,
])
def test_answered_spectra_match_the_resolvent(name, answers):
    checked = [_spectrum_check(*answer) for answer in answers[name]]
    assert _report(name, checked, "|spectrum - resolvent| / peak") <= 1


# --- single points: two the dense solve answers, one strict xfail until items 4 and 5 ---

TEN_DECADES = SystemParams(g=3.724600411038213e-05, v=0.21231136719963148, kappa=0.0,
                           kappa_b=0.0, gamma=714525.2705568495)
NEAR_DOUBLE_ROOT = SystemParams(g=151.7610118586835, v=0.11804095951005114,
                                kappa=565.0278180070666, kappa_b=0.003617707806909628,
                                gamma=523.0114537145425)
SLOW_BRIGHT_PAIR = SystemParams(g=0.0003299426394885256, v=4054.840835000334, kappa=0.0,
                                kappa_b=0.0, gamma=0.04841964414462772)


def test_ten_decade_point_has_no_growing_mode():
    # roots 1e-5 of the largest |lambda| apart count as coincident; the dense
    # solve's real parts would err by ~u |B| = 6e-14 (+6.3e-14 here), the
    # damping identity's keep the decay rate 1.9e-15
    with pytest.warns(LabelAmbiguous):
        lam = full_decomposition(TEN_DECADES).eigenvalues
    exact = exact_roots(_float_blocks([derive_rates(TEN_DECADES)])[0])
    print(f"max Re lambda = {lam.real.max():.4g}; the symmetric block's real parts at "
          f"60 digits: {', '.join(mpmath.nstr(x.real, 6) for x in exact)}")
    assert lam.real.max() <= 0


def test_near_double_root_point_decomposes():
    # Cardano gives the near-double root's pair Im lambda = +-1.47 (3.5e-3 of
    # |lambda|) where the exact ones are +-4.2e-6; the trace check sends the
    # point to the dense solve
    with pytest.warns(LabelAmbiguous, match="miss their sum"):
        (lam,), _, _, (labeled,), failed = symmetric_block([derive_rates(NEAR_DOUBLE_ROOT)])
    exact = exact_roots(_float_blocks([derive_rates(NEAR_DOUBLE_ROOT)])[0])
    print(f"dense roots {np.array2string(lam, precision=8)}, labeled: {labeled}; "
          f"60-digit roots: {', '.join(mpmath.nstr(x, 10) for x in exact)}")
    assert not labeled and not failed
    with pytest.warns(LabelAmbiguous):
        decomp = full_decomposition(NEAR_DOUBLE_ROOT)
    assert np.isfinite(decomp.eigenvalues).all() and decomp.eigenvalues.real.max() <= 0


@pytest.mark.xfail(strict=True, raises=SingularMatrix, reason=(
    "ROADMAP items 4 and 5: the bright pair's decay rate, 3.9e-17, is lost to rounding "
    "in the Gramian solve of the totals"))
def test_slow_bright_pair_totals_answer():
    # the 50-digit Gramian solve of the ROADMAP's domain probe gives atom1 = 0.999953571
    oracle = 0.999953571
    (totals,) = integrated_spectrum([full_decomposition(SLOW_BRIGHT_PAIR)])
    print(f"atom1 total: {totals if isinstance(totals, Exception) else totals[0]!r} "
          f"(oracle {oracle})")
    if isinstance(totals, Exception):
        raise totals
    assert abs(totals[0] - oracle) < 1e-6
