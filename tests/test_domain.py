"""Seeded domain sampler: every physical point answers or fails with a typed error.

The draws span twelve decades of every rate, exact zeros included, with
kappa = kappa_b = 0 over-weighted: there only the atoms decay, a large v
leaves the bright pair a decay rate far below the generator's scale, and
the Gramian solve of the channel totals can lose it to rounding.  The
contract pinned here is what the package promises today:

- a draw ends in an answer, an error typed in fiberqed.errors, or the
  ValueError of derive_rates where g^2 + 2 v^2 is 0 (g = v = 0 or underflow);
- no warning but LabelAmbiguous is raised, and no untyped numpy error;
- an answer has finite spectra and totals, and a total below -1e-9 comes
  with totals that miss their sum 1 by more than the CLI's AccuracyWarning
  bound, so a run flags it;
- through the CLI, a draw exits 0 or 3, and warns AccuracyWarning exactly
  when its printed conservation residual exceeds that bound.
"""

import warnings
from collections import Counter
import numpy as np
import pytest

from fiberqed import (
    AccuracyWarning,
    LabelAmbiguous,
    SystemParams,
    channel_spectra,
    cli,
    full_decomposition,
    single_excitation,
)
from fiberqed.model import BARE_MODES
from fiberqed.spectra import stacked_totals

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
            (totals,) = stacked_totals([decomp])
            if isinstance(totals, Exception):
                raise totals
            spectrum = channel_spectra([decomp], BARE_MODES).spectrum
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


def test_every_draw_answers_or_fails_typed(sample):
    tally = Counter()
    for params, initial, name, totals, caught in sample:
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
    print(f"{N_DRAWS} draws: " + ", ".join(f"{k} {v}" for k, v in sorted(tally.items())))


def test_cli_draws_exit_0_or_3_and_warn_on_their_residual(sample, tmp_path, capsys):
    # the first draws whose totals the CLI must flag, then every 100th draw
    flagged = [draw for draw in sample if draw[3] is not None and _flagged(draw[3])]
    draws = flagged[:N_CLI // 2] + sample[::N_DRAWS // (N_CLI // 2)]
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
    print(f"{len(draws)} CLI draws: " + ", ".join(f"{k} {v}" for k, v in sorted(tally.items())))
