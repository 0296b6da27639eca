"""Seeded workload inputs and their expected outputs.

Everything here is computed without ``fiberqed``: the expected spectra come
from the resolvent of the 5x5 bare generator, the expected trajectories from
``scipy.linalg.expm`` and the channel totals from a Lyapunov equation.  The
program under test only ever sees the config files written here.
"""

from __future__ import annotations

import configparser
import json
from pathlib import Path

import numpy as np
from scipy.linalg import expm, solve_continuous_lyapunov

CHANNELS = ("atom1", "atom2", "cavity1", "cavity2", "fiber")
KAPPA, KAPPA_B, GAMMA = 1.0, 0.01, 5.2  # the figure-caption rates

SWEEP_POINTS = 64          # g values in the one sweep config
SWEEP_G_RANGE = (0.05, 100.0)  # log-uniform: overdamped (g << gamma) to g >> gamma
SWEEP_OMEGA = (-250.0, 250.0, 201)
TRAJ_STEPS = 300_000       # RK4 steps per trajectory config
TRAJ_ROWS = 200            # recorded rows per trajectory (plus t = 0)
TRAJ_OMEGA_DT = 0.005      # dt times the fastest mode frequency (as in fig3-5)


# photon flux per unit occupation of each mode, in CHANNELS order
FLUX = np.array([GAMMA, GAMMA, 2 * KAPPA, 2 * KAPPA, 2 * KAPPA_B])
ATOM1 = np.array([1, 0, 0, 0, 0], dtype=complex)


def bare_generator(g, v):
    """No-jump generator of (xi1, xi2, alpha1, alpha2, beta), symmetric units."""
    return np.array(
        [
            [-GAMMA / 2, 0, -1j * g, 0, 0],
            [0, -GAMMA / 2, 0, -1j * g, 0],
            [-1j * g, 0, -KAPPA, 0, -1j * v],
            [0, -1j * g, 0, -KAPPA, -1j * v],
            [0, 0, -1j * v, -1j * v, -KAPPA_B],
        ]
    )


def channel_totals(gen):
    """Total detection probability per channel, sum_c = 1 for a decaying gen."""
    y = solve_continuous_lyapunov(gen, -np.outer(ATOM1, ATOM1.conj()))
    return FLUX * np.real(np.diag(y)), y


def resolvent_spectra(gen, omega):
    """Cavity spectra kappa/pi |A(omega)|^2 with A = -(gen + i omega)^-1 c0."""
    mats = -(gen[None, :, :] + 1j * omega[:, None, None] * np.eye(5))
    amp = np.linalg.solve(mats, np.broadcast_to(ATOM1, (omega.size, 5))[..., None])[..., 0]
    return {c: KAPPA / np.pi * np.abs(amp[:, i]) ** 2
            for c, i in (("cavity1", 2), ("cavity2", 3))}


def expm_trajectory(gen, times):
    """Bare occupations, survival and cumulative detection at the given times."""
    _, y_inf = channel_totals(gen)
    props = expm(gen[None, :, :] * times[:, None, None])
    amps = props @ ATOM1
    occ = np.abs(amps) ** 2
    # int_0^t e^{Ms} c0 c0^+ e^{M^+ s} ds = Y_inf - e^{Mt} Y_inf e^{M^+ t}
    rest = np.einsum("tij,jk,tlk->til", props, y_inf, props.conj())
    detected = FLUX * np.real(np.diagonal(y_inf[None] - rest, axis1=1, axis2=2))
    return occ, occ.sum(axis=1), detected


def _params_block(g, v):
    return (f"[params]\ng = {g!r}\nv = {v!r}\nkappa = {KAPPA!r}\n"
            f"kappa_b = {KAPPA_B!r}\ngamma = {GAMMA!r}\n")


def figures(rng, work: Path) -> list:
    """The eight shipped scenarios in a seeded order; outputs checked by digest."""
    digests = json.loads(Path(__file__).with_name("digests.json").read_text())
    configs = sorted(Path("scenarios").glob("*.cfg"))
    ops = []
    for i in rng.permutation(len(configs)):
        cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
        cp.read(configs[i])
        points = (len(cp.get("sweep", "values").replace(",", " ").split())
                  if cp.has_section("sweep") else 1)
        stem = configs[i].stem
        files = {n: {"sha256": d} for n, d in digests.items() if n.startswith(stem + "_")}
        ops.append({"config": str(configs[i]), "points": points, "files": files})
    return ops


def sweep(rng, work: Path) -> list:
    """One spectrum config sweeping g log-uniformly across coupling regimes."""
    lo, hi = np.log(SWEEP_G_RANGE[0]), np.log(SWEEP_G_RANGE[1])
    values = []
    while len(values) < SWEEP_POINTS:
        # six significant digits, so the value equals the one in the file name
        g = float(f"{np.exp(rng.uniform(lo, hi)):.6g}")
        if g not in values:
            values.append(g)
    v = float(f"{rng.uniform(2.0, 10.0):.6g}")
    wmin, wmax, npts = SWEEP_OMEGA
    cfg = work / "sweep.cfg"
    cfg.write_text(
        _params_block(values[0], v)
        + "\n[run]\ntype = spectrum\ninitial = atom1\nchannels = cavity1,cavity2\n"
        + f"omega_min = {wmin!r}\nomega_max = {wmax!r}\nomega_points = {npts}\n"
        + "\n[sweep]\nparameter = g\nvalues = " + ", ".join(repr(x) for x in values) + "\n"
    )
    omega = np.linspace(wmin, wmax, npts)
    files = {}
    for g in values:
        gen = bare_generator(g, v)
        spec = resolvent_spectra(gen, omega)
        totals, _ = channel_totals(gen)
        files[f"sweep_g{g:g}_spectrum.csv"] = {
            "columns": {"omega": omega.tolist(),
                        "cavity1": spec["cavity1"].tolist(),
                        "cavity2": spec["cavity2"].tolist()},
            "totals": totals.tolist(),
        }
    return [{"config": str(cfg), "points": len(values), "files": files}]


def _comparable(rng):
    v = rng.uniform(30, 70)
    return np.sqrt(2) * v * rng.uniform(0.9, 1.1), v


TRAJ_REGIMES = {
    # name: (g, v) draw; atom-, fiber-dominated and comparable (Figs. 3-5)
    "atom": lambda rng: (rng.uniform(30, 70), rng.uniform(0.5, 2.0)),
    "fiber": lambda rng: (rng.uniform(1.0, 3.0), rng.uniform(30, 70)),
    "mixed": _comparable,
}


def trajectory(rng, work: Path) -> list:
    """One trajectory config per coupling regime, RK4-bound by construction.

    dt is fixed by the fastest mode frequency and t_max by a fixed step
    count, so each config costs the same number of steps whatever the seed.
    """
    ops = []
    for name, draw in TRAJ_REGIMES.items():
        g, v = (float(f"{x:.6g}") for x in draw(rng))
        gen = bare_generator(g, v)
        omega_max = np.abs(np.linalg.eigvals(gen).imag).max()
        dt = float(f"{TRAJ_OMEGA_DT / omega_max:.3g}")
        t_max = TRAJ_STEPS * dt
        every = TRAJ_STEPS // TRAJ_ROWS
        cfg = work / f"traj_{name}.cfg"
        cfg.write_text(
            _params_block(g, v)
            + f"\n[run]\ntype = trajectory\ninitial = atom1\nt_max = {t_max!r}\n"
            + f"dt = {dt!r}\nrecord_every = {every}\n"
        )
        times = np.arange(0, TRAJ_STEPS + 1, every) * dt
        occ, survival, detected = expm_trajectory(gen, times)
        columns = {"t": times.tolist(),
                   **{c: occ[:, i].tolist() for i, c in enumerate(CHANNELS)},
                   "survival": survival.tolist(),
                   **{f"p_{c}": detected[:, i].tolist() for i, c in enumerate(CHANNELS)}}
        ops.append({"config": str(cfg), "points": 1,
                    "files": {f"traj_{name}_trajectory.csv": {"columns": columns}}})
    return ops


WORKLOADS = {"figures": figures, "sweep": sweep, "trajectory": trajectory}
