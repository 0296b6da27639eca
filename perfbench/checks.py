"""Output checks for one operation (one run_scenario call).

An operation fails if it raised, wrote other files than expected, or any
check below fails.  The largest deviation of each kind is kept as
information; only the tolerances gate.
"""

from __future__ import annotations

import hashlib
import re
from collections import defaultdict
from pathlib import Path

import numpy as np

# Channel totals are printed with six decimals, so five of them sum to 1
# within 5 * 0.5e-6; each one matches the Lyapunov oracle within 0.5e-6
# plus the model's own accuracy.
TOTALS_SUM_TOL = 3e-6
TOTALS_ORACLE_TOL = 1e-6
RESIDUAL_TOL = 1e-6            # printed conservation residual, any run type
SPECTRUM_TOL = 1e-9            # |csv - resolvent| / peak of the column
TRAJECTORY_TOL = 1e-8          # |csv - expm| on probabilities (RK4 at w dt = 0.005)
SAMPLE_FILES = 8               # CSVs per op whose rows are sampled
SAMPLE_ROWS = 16               # rows sampled per CSV

_TOTALS = re.compile(r"channel totals: (.*)")
_RESIDUAL = re.compile(r"conservation residual: (\S+)")
_WROTE = re.compile(r"wrote (.*)")


def summary_blocks(text):
    """[(totals, residual, written file names)] from the printed summary."""
    blocks = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("== "):
            blocks.append([None, None, []])
        elif m := _TOTALS.match(line):
            blocks[-1][0] = [float(kv.split("=")[1]) for kv in m.group(1).split()]
        elif m := _RESIDUAL.match(line):
            blocks[-1][1] = float(m.group(1))
        elif m := _WROTE.match(line):
            blocks[-1][2].append(Path(m.group(1)).name)
    return blocks


def read_csv(path):
    """Column name -> array of a CSV written by the program."""
    with open(path) as fh:
        for line in fh:
            if line.startswith("# columns: "):
                names = line[len("# columns: "):].strip().split(",")
                break
    data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(names)}


class Checker:
    def __init__(self, rng):
        self.rng = rng
        self.max_dev = defaultdict(float)

    def _dev(self, kind, value, tol, problems, what):
        self.max_dev[kind] = max(self.max_dev[kind], value)
        if not value <= tol:
            problems.append(f"{what}: {kind} deviation {value:.3e} > {tol:.0e}")

    def check(self, op, files, text):
        """Problems found in one operation's outputs (empty when correct)."""
        expected = op["files"]
        problems = []
        by_name = {Path(f).name: Path(f) for f in files}
        if set(by_name) != set(expected):
            return [f"{op['config']}: wrote {sorted(by_name)}, expected {sorted(expected)}"]

        for totals, residual, names in summary_blocks(text):
            what = ",".join(names)
            if totals is None or residual is None:
                problems.append(f"{what}: summary lacks totals or residual")
                continue
            self._dev("residual", abs(residual), RESIDUAL_TOL, problems, what)
            if names[0].endswith("_trajectory.csv"):
                continue  # totals up to t_max; the residual covers survival
            self._dev("totals_sum", abs(sum(totals) - 1.0), TOTALS_SUM_TOL, problems, what)
            oracle = expected[names[0]].get("totals")
            if oracle is not None:
                dev = float(np.max(np.abs(np.subtract(totals, oracle))))
                self._dev("totals_oracle", dev, TOTALS_ORACLE_TOL, problems, what)

        with_rows = [n for n in sorted(expected) if "columns" in expected[n]]
        if len(with_rows) > SAMPLE_FILES:
            with_rows = list(self.rng.choice(with_rows, SAMPLE_FILES, replace=False))
        for name, exp in expected.items():
            if "sha256" in exp:
                digest = hashlib.sha256(by_name[name].read_bytes()).hexdigest()
                if digest != exp["sha256"]:
                    problems.append(f"{name}: sha256 {digest[:12]} != recorded {exp['sha256'][:12]}")
        for name in with_rows:
            problems += self._rows(name, read_csv(by_name[name]), expected[name]["columns"])
        return problems

    def _rows(self, name, csv, columns):
        problems = []
        n = len(next(iter(columns.values())))
        if any(col.size != n for col in csv.values()):
            return [f"{name}: {len(next(iter(csv.values())))} rows, expected {n}"]
        rows = self.rng.choice(n, min(SAMPLE_ROWS, n), replace=False)
        trajectory = "survival" in csv
        for col, values in columns.items():
            exp = np.asarray(values)
            if trajectory:
                dev = np.max(np.abs(csv[col][rows] - exp[rows]))
                self._dev("trajectory_rows", dev, TRAJECTORY_TOL, problems, f"{name}:{col}")
            else:
                dev = np.max(np.abs(csv[col][rows] - exp[rows])) / np.max(np.abs(exp))
                self._dev("spectrum_rows", dev, SPECTRUM_TOL, problems, f"{name}:{col}")
        if trajectory:
            normal = sum(csv[c][rows] for c in ("bs_plus", "bs_minus", "fd_plus", "fd_minus", "cd"))
            detected = sum(csv[f"p_{c}"][rows] for c in ("atom1", "atom2", "cavity1", "cavity2", "fiber"))
            surv = csv["survival"][rows]
            self._dev("normal_norm", np.max(np.abs(normal - surv)), TRAJECTORY_TOL, problems, name)
            self._dev("conservation", np.max(np.abs(surv + detected - 1.0)), TRAJECTORY_TOL,
                      problems, name)
        return problems
