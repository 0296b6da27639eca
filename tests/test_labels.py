"""Seeded label contract: how the symmetric block's labels move along lines in g.

A label-keyed output column (lorentzian_QCD, w_QCD_*) follows one physical
mode along a sweep only as far as the labels do.  On seeded lines in g, the
roots of neighbouring points are matched by continuity, and the counts of
the three-real-root regime are pinned as today's rule gives them:

- lines with a stretch of three real roots, and the stretches;
- stretches bounded by exceptional points at both ends (a conjugate pair on
  either side);
- forced QCD moves: at each end of a bounded stretch a pair of roots
  coalesces, the closest pair of its end point, and QCD is the third root on
  the complex side; where the third root of the first point does not continue
  into the third root of the last, QCD must change branch once inside;
- QCD moves: neighbours, both with three real roots, where the root labeled
  QCD does not continue into the root labeled QCD.

A rule that moves QCD only where an exceptional point forces it would bring
the moves down to the forced ones.
"""

from collections import Counter
from itertools import permutations

import numpy as np

from fiberqed import SystemParams, derive_rates
from fiberqed.eigen import MODE_LABELS, _cubic_coefficients, symmetric_block

N_LINES = 200
N_G = 400
# v, kappa, kappa_b and gamma of a line are log-uniform over these decades
DECADES = (-1.5, 1.5)
# g is log-spaced over these decades
G_DECADES = (-2, 2)
QCD = MODE_LABELS.index("QCD")
PERMS = np.array(list(permutations(range(3))))
# today's counts, the same as those of the ROADMAP's "Labels along sweeps"
PINNED = {"lines": 104, "stretches": 111, "bounded": 21, "forced": 17, "moves": 66}


def _continuations(lam) -> np.ndarray:
    """(lines, N_G - 1, 3): entry [l, k, j] is the root of point k + 1 that continues
    root j of point k, by the permutation of least total distance."""
    cost = np.abs(lam[:, :-1, None, :] - lam[:, 1:][:, :, PERMS]).sum(axis=-1)
    return PERMS[np.argmin(cost, axis=-1)]


def _third_roots(lam) -> np.ndarray:
    """The root of each point that is not in its closest pair."""
    return np.argmin(np.abs(lam[..., [1, 0, 0]] - lam[..., [2, 2, 1]]), axis=-1)


def _stretches(mask) -> zip:
    """(first, last) index of each run of True in a 1-d mask."""
    edges = np.flatnonzero(np.diff(np.concatenate([[0], mask.astype(int), [0]])))
    return zip(edges[::2].tolist(), (edges[1::2] - 1).tolist())


def test_qcd_moves_along_seeded_g_lines():
    rng = np.random.default_rng(60)
    lines = 10.0 ** rng.uniform(*DECADES, size=(N_LINES, 4))
    gs = np.logspace(*G_DECADES, N_G).tolist()
    rates = [derive_rates(SystemParams(g=g, v=v, kappa=kappa, kappa_b=kappa_b, gamma=gamma))
             for v, kappa, kappa_b, gamma in lines.tolist() for g in gs]
    lam, _, _, labeled, failed = symmetric_block(rates)
    assert labeled.all() and not failed  # no point is coincident or refused
    lam = lam.reshape(N_LINES, N_G, 3)
    real = np.array([_cubic_coefficients(r)[6] <= 0 for r in rates]).reshape(N_LINES, N_G)
    nxt = _continuations(lam)
    third = _third_roots(lam)

    counts = Counter(moves=int((real[:, :-1] & real[:, 1:] & (nxt[..., QCD] != QCD)).sum()))
    for line in range(N_LINES):
        stretches = list(_stretches(real[line]))
        counts["lines"] += bool(stretches)
        counts["stretches"] += len(stretches)
        for first, last in stretches:
            if first == 0 or last == N_G - 1:
                continue
            counts["bounded"] += 1
            root = third[line, first]
            for k in range(first, last):
                root = nxt[line, k, root]
            counts["forced"] += bool(root != third[line, last])
    print(", ".join(f"{key} {counts[key]} (pinned and ROADMAP: {n})" for key, n in PINNED.items()))
    assert dict(counts) == PINNED
