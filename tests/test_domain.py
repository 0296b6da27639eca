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
  bound of their 150-digit values.
"""

import warnings
from collections import Counter
from functools import cache

import mpmath
import numpy as np
import pytest

from fiberqed import (
    AccuracyWarning,
    LabelAmbiguous,
    SystemParams,
    channel_spectrum,
    cli,
    derive_rates,
    full_decomposition,
    single_excitation,
)
from fiberqed.eigen import _cubic_coefficients, antisymmetric_block
from fiberqed.model import _RATE_BOUND, BARE_MODES
from fiberqed.spectra import integrated_spectrum

from conftest import exact_fiber_dark_roots

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
    """Whether the CLI warns AccuracyWarning for these totals (see cli._run_point)."""
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
    draws = sample if name == "main" else _edge_sample(name)
    answered = [params for params, _, outcome, _, _ in draws if outcome == "answer"]
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
