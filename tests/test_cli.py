"""Scenario runner: parsing, exit codes, output format and determinism."""

import hashlib
import io
import json
import re
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scipy.linalg import solve_continuous_lyapunov

from fiberqed import (
    AccuracyWarning,
    ConfigInvalid,
    LabelAmbiguous,
    SystemParams,
    bare_generator,
    cli,
    eigen,
    full_decomposition,
    single_excitation,
    spectra,
    spectral_function,
)
from fiberqed.cli import _csv_bodies, _write_csv, main, parse_scenario, run_scenario
from fiberqed.model import BARE_MODES, flux_weights

from conftest import NEAR_EP

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"
# sha256 of every CSV the shipped scenarios write
DIGESTS = json.loads((ROOT / "perfbench" / "digests.json").read_text())

BASE = """\
[params]
g = 7
v = 4
kappa = 1
kappa_b = 0.01
gamma = 5.2

[run]
type = {kind}
initial = atom1
t_max = 1.0
dt = 1e-3
record_every = 10
channels = cavity1,cavity2
"""


def write_cfg(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_trajectory_run_and_columns(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE.format(kind="trajectory"))
    assert main([str(cfg), "--out", str(tmp_path)]) == 0
    out = tmp_path / "case_trajectory.csv"
    assert out.exists()
    header = [l for l in out.read_text().splitlines() if l.startswith("#")]
    assert any("columns: t,atom1,atom2" in l for l in header)
    data = np.loadtxt(out, delimiter=",")
    assert data.shape[1] == 17
    assert data[0, 1] == pytest.approx(1.0)  # atom-1 occupation starts at 1
    text = capsys.readouterr().out
    assert "eigenvalues" in text and "conservation residual" in text


def test_spectrum_and_decomposition_runs(tmp_path):
    cfg = write_cfg(tmp_path, BASE.format(kind="spectrum"))
    files = run_scenario(cfg, out_dir=tmp_path, quiet=True)
    assert [f.name for f in files] == ["case_spectrum.csv"]
    assert all(f.exists() for f in files)
    data = np.loadtxt(files[0], delimiter=",")
    assert data.shape[1] == 3  # omega + two channels
    assert np.all(data[:, 1] >= 0)

    cfg = write_cfg(tmp_path, BASE.format(kind="decomposition"))
    assert main([str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    for channel in ("cavity1", "cavity2"):
        out = tmp_path / f"case_decomposition_{channel}.csv"
        columns = next(l for l in out.read_text().splitlines() if l.startswith("# columns:"))
        assert "lorentzian_QBS+" in columns.split(": ")[1].split(",")
        data = np.loadtxt(out, delimiter=",")
        # omega, total, 5 lorentzians, 10 interference terms, lorentzian sum
        assert data.shape[1] == 18
        recon = data[:, 2:17].sum(axis=1)
        assert np.abs(recon - data[:, 1]).max() < 1e-12 * data[:, 1].max()


def test_quiet_suppresses_summary(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE.format(kind="spectrum"))
    assert main([str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_byte_identical_reruns(tmp_path):
    cfg = write_cfg(tmp_path, BASE.format(kind="spectrum"))
    for sub in ("a", "b"):
        run_scenario(cfg, out_dir=tmp_path / sub, quiet=True)
    first = (tmp_path / "a" / "case_spectrum.csv").read_bytes()
    second = (tmp_path / "b" / "case_spectrum.csv").read_bytes()
    assert first == second


def test_sweep_writes_one_file_per_value(tmp_path):
    text = BASE.format(kind="spectrum") + "\n[sweep]\nparameter = g\nvalues = 2, 10\n"
    cfg = write_cfg(tmp_path, text, "sweep.cfg")
    files = run_scenario(cfg, out_dir=tmp_path, quiet=True)
    assert [f.name for f in files] == ["sweep_g2_spectrum.csv", "sweep_g10_spectrum.csv"]


def test_sweep_file_suffix_collision_exits_2(tmp_path, capsys):
    text = (BASE.format(kind="spectrum")
            + "\n[sweep]\nparameter = g\nvalues = 7.0000001, 7.0000002, 7\n")
    cfg = write_cfg(tmp_path, text, "dup.cfg")
    assert main([str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "7.0000001" in err and "7.0000002" in err
    assert not list(tmp_path.glob("*.csv"))


def test_negative_sweep_value_exits_2(tmp_path, capsys):
    # the same value under [params] is a config error, so it is one under [sweep]
    text = BASE.format(kind="spectrum") + "\n[sweep]\nparameter = kappa\nvalues = 1, -1\n"
    cfg = write_cfg(tmp_path, text, "neg.cfg")
    assert main([str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [sweep] kappa must be finite and >= 0")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("kind", ["spectrum", "decomposition"])
def test_non_decaying_mode_exits_3_before_writing(tmp_path, capsys, kind):
    # lossless: every quasi mode has eta = 0 and the spectra have no integral
    text = (BASE.format(kind=kind).replace("g = 7", "g = 3").replace("v = 4", "v = 7")
            .replace("kappa = 1", "kappa = 0").replace("kappa_b = 0.01", "kappa_b = 0")
            .replace("gamma = 5.2", "gamma = 0"))
    cfg = write_cfg(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([str(cfg), "--out", str(tmp_path)]) == 3
    assert "domain error: eta = " in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "omega",
    [(5, -5, 101), (5, 5, 101), (-5, 5, 0), (-5, 5, 1), (-5, 5, 2.7),
     (1, 1.0000000000000002, 5)],
    ids=["reversed", "equal", "points0", "points1", "points2.7", "narrow"],
)
def test_bad_omega_grid_exits_2(tmp_path, capsys, omega):
    # "narrow": two adjacent floats cannot hold 5 strictly increasing samples
    text = BASE.format(kind="spectrum") + (
        "omega_min = {}\nomega_max = {}\nomega_points = {}\n".format(*omega)
    )
    cfg = write_cfg(tmp_path, text)
    assert main([str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: [run] omega_")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("kind", ["spectrum", "decomposition"])
@pytest.mark.parametrize("channels, message", [
    ("cavity1,cavity1", "channels entry 'cavity1' is repeated"),
    ("fiber, cavity2 fiber", "channels entry 'fiber' is repeated"),
    (",", "channels must name at least one channel"),
    ("cavity1,cavity3", "channels entry 'cavity3' is not a channel"),
], ids=["repeated", "repeated-apart", "empty", "unknown"])
def test_bad_channel_list_exits_2(tmp_path, capsys, kind, channels, message):
    text = BASE.format(kind=kind).replace("channels = cavity1,cavity2",
                                          f"channels = {channels}")
    cfg = write_cfg(tmp_path, text)
    assert main([str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: [run] {message}\n"
    assert not list(tmp_path.glob("*.csv"))


def test_critical_point_trajectory_runs(tmp_path, capsys):
    # g = (gamma/2 - kappa)/2 = 0.8 puts the fiber-dark block at p = 0
    cfg = write_cfg(tmp_path, BASE.format(kind="trajectory").replace("g = 7", "g = 0.8"))
    assert main([str(cfg), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "case_trajectory.csv").exists()
    text = capsys.readouterr().out
    residual = float(text.split("conservation residual:")[1].split()[0])
    assert abs(residual) < 1e-9


@pytest.mark.parametrize("kind", ["spectrum", "decomposition"])
def test_sweep_later_point_failure_keeps_exit_code_and_message(tmp_path, capsys, kind):
    # all points are decomposed before the first runs; the failing g = 0.8
    # (p = 0) still fails at its turn, as the same point run alone does
    single = write_cfg(tmp_path, BASE.format(kind=kind).replace("g = 7", "g = 0.8"), "one.cfg")
    assert main([str(single), "--out", str(tmp_path / "one")]) == 3
    alone = capsys.readouterr().err
    assert alone.startswith("domain error: p = 0")
    text = BASE.format(kind=kind) + "\n[sweep]\nparameter = g\nvalues = 7, 0.8, 2\n"
    cfg = write_cfg(tmp_path, text, "sweep.cfg")
    assert main([str(cfg), "--out", str(tmp_path / "sweep")]) == 3
    assert capsys.readouterr().err == alone
    written = sorted(p.name for p in (tmp_path / "sweep").glob("*.csv"))
    assert written and all(name.startswith("sweep_g7_") for name in written)


def test_trajectory_sweep_later_point_failure_keeps_exit_code_and_message(tmp_path, capsys):
    # g = 1000 puts dt = 5e-3 outside the RK4 stability region; the sweep
    # fails at that point's turn, after the g = 7 file, as the point alone does
    text = BASE.format(kind="trajectory").replace("dt = 1e-3", "dt = 5e-3")
    single = write_cfg(tmp_path, text.replace("g = 7", "g = 1000"), "one.cfg")
    assert main([str(single), "--out", str(tmp_path / "one")]) == 2
    alone = capsys.readouterr().err
    assert "spectral radius 1 + 20.5" in alone
    text += "\n[sweep]\nparameter = g\nvalues = 7, 1000, 2\n"
    cfg = write_cfg(tmp_path, text, "sweep.cfg")
    assert main([str(cfg), "--out", str(tmp_path / "sweep")]) == 2
    assert capsys.readouterr().err == alone
    assert [p.name for p in (tmp_path / "sweep").glob("*.csv")] == ["sweep_g7_trajectory.csv"]


def test_sweep_middle_point_that_cannot_decay_fails_at_its_turn(tmp_path, capsys):
    # gamma = kappa_b = 0 leaves the excited cavity-dark mode lossless; the
    # points on both sides decay, and the one after it never runs
    text = (BASE.format(kind="spectrum").replace("g = 7", "g = 2").replace("v = 4", "v = 3")
            .replace("gamma = 5.2", "gamma = 0")
            + "\n[sweep]\nparameter = kappa_b\nvalues = 0.01, 0, 0.02\n")
    cfg = write_cfg(tmp_path, text, "mid.cfg")
    assert main([str(cfg), "--out", str(tmp_path)]) == 3
    out, err = capsys.readouterr()
    assert err == "domain error: eta = -0.0 <= 0\n"
    assert out.count("== mid") == 1
    assert [p.name for p in tmp_path.glob("*.csv")] == ["mid_kappa_b0.01_spectrum.csv"]


@pytest.mark.parametrize("kind, channels", [
    ("spectrum", "cavity1,cavity2"),
    ("spectrum", "fiber"),
    ("decomposition", "cavity1,cavity2"),
    ("decomposition", "atom2"),
])
def test_sweep_chunks_write_the_bytes_of_single_runs(tmp_path, monkeypatch, kind, channels):
    # a cell budget of 3 points' files puts chunk boundaries inside the
    # sweep; every file equals the one the point writes alone (the header
    # adds the sweep value) and the one of an unchunked sweep
    values = (2, 0.5, 5.5, 7, 9, 12.5, 20)  # g = 0.5 is overdamped
    text = (BASE.format(kind=kind).replace("channels = cavity1,cavity2", f"channels = {channels}")
            + "omega_min = -30\nomega_max = 30\nomega_points = 41\n")
    sweep = write_cfg(tmp_path, text + "\n[sweep]\nparameter = g\nvalues = "
                      + ", ".join(map(str, values)) + "\n", "sweep.cfg")
    n_files = len(channels.split(",")) if kind == "decomposition" else 1
    n_cols = 18 if kind == "decomposition" else 1 + len(channels.split(","))
    monkeypatch.setattr(cli, "_CELLS", 3 * n_files * 41 * n_cols)
    chunked = run_scenario(sweep, out_dir=tmp_path / "chunked", quiet=True)
    monkeypatch.setattr(cli, "_CELLS", 1 << 30)
    whole = run_scenario(sweep, out_dir=tmp_path / "whole", quiet=True)
    assert len(chunked) == len(values) * n_files
    for value in values:
        single = write_cfg(tmp_path, text.replace("g = 7", f"g = {value}"), f"g{value}.cfg")
        for path in run_scenario(single, out_dir=tmp_path / f"g{value}", quiet=True):
            name = path.name.replace(f"g{value}", f"sweep_g{value:g}", 1)
            body = [line for line in path.read_bytes().splitlines() if not line.startswith(b"#")]
            got = (tmp_path / "chunked" / name).read_bytes()
            assert [line for line in got.splitlines() if not line.startswith(b"#")] == body
            assert got == (tmp_path / "whole" / name).read_bytes()


@pytest.mark.parametrize("rate", ["g", "v", "kappa", "kappa_b", "gamma"])
def test_sweep_points_echo_the_params_of_single_runs(tmp_path, rate):
    # each sweep point is the symmetric parameter set of the config with one rate replaced
    text = BASE.format(kind="spectrum") + "omega_min = -30\nomega_max = 30\nomega_points = 5\n"
    values = (0.3, 2.718281828459045, 9.5)
    sweep = write_cfg(tmp_path, text + f"\n[sweep]\nparameter = {rate}\nvalues = "
                      + ", ".join(map(repr, values)) + "\n", "sweep.cfg")
    swept = run_scenario(sweep, out_dir=tmp_path / "sweep", quiet=True)
    assert len(swept) == len(values)

    def params_line(path):
        return next(line for line in path.read_text().splitlines() if line.startswith("# params:"))

    for value, path in zip(values, swept):
        single = write_cfg(tmp_path, re.sub(rf"^{rate} = .*$", f"{rate} = {value!r}", text,
                                            flags=re.MULTILINE), f"{rate}{value}.cfg")
        [alone] = run_scenario(single, out_dir=tmp_path / f"{rate}{value}", quiet=True)
        assert params_line(path) == params_line(alone)


# Near exceptional points, where the chi of the quasi modes grow without bound
# and cancel: the fiber-dark block 1.8e-8 (relative) from critical damping, and
# the symmetric block at a double root of its cubic (LabelAmbiguous)
@pytest.mark.parametrize("name", sorted(NEAR_EP))
def test_near_exceptional_point_totals_match_lyapunov(tmp_path, capsys, name):
    values = NEAR_EP[name]
    text = "[params]\n" + "".join(f"{k} = {v!r}\n" for k, v in values.items())
    cfg = write_cfg(tmp_path, text + "\n[run]\ntype = spectrum\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LabelAmbiguous)
        assert main([str(cfg), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    printed = out.split("channel totals: ")[1].split("\n")[0]
    residual = float(out.split("conservation residual:")[1].split()[0])
    params = SystemParams(**values)
    c0 = single_excitation("atom1")
    gramian = solve_continuous_lyapunov(bare_generator(params), -np.outer(c0, c0.conj()))
    oracle = flux_weights(params) * gramian.diagonal().real
    print(f"{name}: {printed} (Lyapunov oracle "
          + " ".join(f"{x:.6f}" for x in oracle) + f"); residual {residual:+.3e} (bound 1e-12)")
    assert printed == " ".join(f"{c}={x:.6f}" for c, x in zip(BARE_MODES, oracle))
    assert abs(residual) <= 1e-12


# g = 0.6, v = 0: the decoupled D root -kappa_b sits on an overdamped bright root
COINCIDENT = (BASE.replace("g = 7", "g = 0.6").replace("v = 4", "v = 0")
              .replace("kappa_b = 0.01", "kappa_b = 1.2708497377870814"))


@pytest.mark.parametrize("kind", ["trajectory", "spectrum"])
def test_coincident_symmetric_roots_run(tmp_path, capsys, kind):
    cfg = write_cfg(tmp_path, COINCIDENT.format(kind=kind))
    with pytest.warns(LabelAmbiguous):
        assert main([str(cfg), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    residual = float(out.split("conservation residual:")[1].split()[0])
    assert abs(residual) < 1e-6
    assert (tmp_path / f"case_{kind}.csv").exists()


def test_coincident_symmetric_roots_decomposition_exits_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, COINCIDENT.format(kind="decomposition"))
    with pytest.warns(LabelAmbiguous):
        assert main([str(cfg), "--out", str(tmp_path)]) == 3
    assert "unlabeled" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_sweep_unlabeled_point_inside_a_chunk_fails_at_its_turn(tmp_path, capsys, monkeypatch):
    # the coincident kappa_b sits between two labeled values in one chunk
    grid = "omega_min = -30\nomega_max = 30\nomega_points = 41\n"
    text = COINCIDENT.format(kind="decomposition") + grid
    single = write_cfg(tmp_path, text, "one.cfg")
    with pytest.warns(LabelAmbiguous):
        assert main([str(single), "--out", str(tmp_path / "one")]) == 3
    alone = capsys.readouterr().err
    assert "unlabeled" in alone
    monkeypatch.setattr(cli, "_CELLS", 1 << 30)
    cfg = write_cfg(tmp_path, text + "\n[sweep]\nparameter = kappa_b\n"
                    "values = 1, 1.2708497377870814, 1.5\n", "sweep.cfg")
    with pytest.warns(LabelAmbiguous):
        assert main([str(cfg), "--out", str(tmp_path / "sweep")]) == 3
    assert capsys.readouterr().err == alone
    assert sorted(p.name for p in (tmp_path / "sweep").glob("*.csv")) == [
        "sweep_kappa_b1_decomposition_cavity1.csv", "sweep_kappa_b1_decomposition_cavity2.csv",
    ]


# kappa = kappa_b = 0 and a large v: only the atoms decay, and the bright pair
# decays at 3.9e-17, below rounding at the generator's scale (zeta = 5734), so
# the LU of this point's Gramian equation meets an exactly zero pivot
SINGULAR_GRAMIAN = """\
[params]
g = 0.0003299426394885256
v = 4054.840835000334
kappa = 0
kappa_b = 0
gamma = 0.04841964414462772

[run]
type = spectrum
initial = atom1
omega_min = -30
omega_max = 30
omega_points = 41
"""


def test_sweep_singular_gramian_point_fails_at_its_turn(tmp_path, capsys):
    # the four points fit one chunk, whose totals come from one stacked solve;
    # kappa = 1 and 2 decay fast, kappa = 0 is the point above, kappa = 3 never runs
    single = write_cfg(tmp_path, SINGULAR_GRAMIAN, "one.cfg")
    assert main([str(single), "--out", str(tmp_path / "one")]) == 3
    alone = capsys.readouterr().err
    assert alone.startswith("domain error: the Gramian equation of the channel totals is "
                            "singular: the slowest decay rate, 3.92e-17,")
    cfg = write_cfg(tmp_path, SINGULAR_GRAMIAN + "\n[sweep]\nparameter = kappa\n"
                    "values = 1, 2, 0, 3\n", "sweep.cfg")
    assert main([str(cfg), "--out", str(tmp_path / "sweep")]) == 3
    assert capsys.readouterr().err == alone
    assert sorted(p.name for p in (tmp_path / "sweep").glob("*.csv")) == [
        "sweep_kappa1_spectrum.csv", "sweep_kappa2_spectrum.csv",
    ]


# kappa = kappa_b = 0 and a large v again: the bright pair decays at 2.7e-14,
# 8.1e-12 and 1e-19, and rounding in the Gramian solve moves the totals off
# their sum 1 by +0.214, +3.9e-3 and -1.5e-3 (one total is -7.5e-4)
@pytest.mark.parametrize("g, v, gamma, initial", [
    (0.00021312706334039415, 784.4589056445554, 2.945555839864667, "cavity2"),
    (0.024458706005858758, 9201.330439383044, 9.118725064728329, "fiber"),
    (5.99318476087952e-06, 258202.66307877563, 0.010654483225453803, "atom1"),
], ids=["v=784", "v=9201", "v=258203"])
def test_totals_that_miss_conservation_warn_after_writing(tmp_path, capsys, g, v, gamma,
                                                          initial):
    cfg = write_cfg(tmp_path, f"[params]\ng = {g!r}\nv = {v!r}\nkappa = 0\nkappa_b = 0\n"
                    f"gamma = {gamma!r}\n\n[run]\ntype = spectrum\ninitial = {initial}\n")
    message = (r"the Gramian solve of the channel totals loses conservation by up to "
               r"(\S+) \(bound 5e-07\)")
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyWarning)
        with pytest.raises(AccuracyWarning, match=message) as caught:
            main([str(cfg), "--out", str(tmp_path / "strict")])
    assert (tmp_path / "strict" / "case_spectrum.csv").exists()  # written before the warning
    with pytest.warns(AccuracyWarning, match=message):
        assert main([str(cfg), "--out", str(tmp_path)]) == 0
    printed = float(capsys.readouterr().out.split("conservation residual:")[1].split()[0])
    residual = float(re.search(message, str(caught.value)).group(1))
    print(f"{initial}: residual {residual:.3e} (bound 5e-07)")
    assert residual == float(f"{abs(printed):.3e}") and residual > 5e-7


@pytest.mark.parametrize("setting", ["dt = inf", "t_max = inf", "dt = nan"])
def test_non_finite_integrator_setting_exits_2(tmp_path, capsys, setting):
    key = setting.split()[0]
    text = BASE.format(kind="trajectory").replace(f"{key} = ", f"{setting}\n# was ")
    cfg = write_cfg(tmp_path, text)
    assert main([str(cfg), "--out", str(tmp_path)]) == 2
    assert f"{key} must be finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "dt, t_max, message",
    [
        ("1.0", "0.1", "exceeds the horizon"),  # one step would run past t_max
        ("0.06", "24", "stability region"),  # RK4 step radius 1 + 0.344
        ("1e100", "1e100", "spectral radius 1 + inf"),  # the step matrix overflows
    ],
)
def test_bad_time_step_exits_2(tmp_path, capsys, dt, t_max, message):
    text = (SCENARIO_DIR / "fig3.cfg").read_text()
    text = text.replace("t_max = 2.0", f"t_max = {t_max}").replace("dt = 1e-4", f"dt = {dt}")
    cfg = write_cfg(tmp_path, text)
    assert main([str(cfg), "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_horizon_off_the_step_grid_exits_2(tmp_path, capsys):
    # fig4 with dt = 0.04, t_max = 0.1: round(2.5) = 2 steps would end at t = 0.08
    text = (SCENARIO_DIR / "fig4.cfg").read_text()
    text = text.replace("t_max = 4.0", "t_max = 0.1").replace("dt = 1e-4", "dt = 0.04")
    cfg = write_cfg(tmp_path, text)
    assert main([str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "t_max = 0.1 is not a whole number of steps dt = 0.04" in err
    assert "t = 0.08" in err
    assert not list(tmp_path.glob("*.csv"))
    # a rule of the step grid alone, so the scenario is refused when it is parsed
    with pytest.raises(ConfigInvalid) as caught:
        parse_scenario(cfg)
    assert f"config error: {caught.value}" in err


def test_stable_coarse_time_step_runs(tmp_path, capsys):
    # dt = 0.05 keeps fig3's RK4 step radius at 1 - 6.0e-4
    text = (SCENARIO_DIR / "fig3.cfg").read_text()
    text = text.replace("t_max = 2.0", "t_max = 20").replace("dt = 1e-4", "dt = 0.05")
    cfg = write_cfg(tmp_path, text)
    with pytest.warns(AccuracyWarning, match="loses conservation by up to 5.288e-01"):
        assert main([str(cfg), "--out", str(tmp_path)]) == 0
    residual = float(capsys.readouterr().out.split("conservation residual:")[1].split()[0])
    # stable, not accurate: g * dt = 2.5 leaves a residual of -0.53
    assert abs(residual) < 1.0
    assert (tmp_path / "case_trajectory.csv").exists()


def test_weightless_mode_that_does_not_decay_adds_nothing(tmp_path):
    # kappa_b = gamma = 0: the cavity-dark mode QCD sits at lambda = 0 and
    # carries no weight, so its pole 1 / 0 at omega = 0 must not turn into NaN
    text = (BASE.format(kind="spectrum").replace("g = 7", "g = 2").replace("v = 4", "v = 3")
            .replace("kappa_b = 0.01", "kappa_b = 0").replace("gamma = 5.2", "gamma = 0")
            .replace("initial = atom1", "initial = cavity1"))
    cfg = write_cfg(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    data = np.loadtxt(tmp_path / "case_spectrum.csv", delimiter=",")
    assert np.isfinite(data).all()
    params = SystemParams(g=2, v=3, kappa=1, kappa_b=0, gamma=0)
    decomp = full_decomposition(params, single_excitation("cavity1"))
    qcd = decomp.labels.index("QCD")
    assert decomp.eigenvalues[qcd] == 0
    zero = np.flatnonzero(data[:, 0] == 0.0)
    assert zero.size == 1
    prefactors = flux_weights(params) / (2 * np.pi)
    for column, channel in enumerate(("cavity1", "cavity2"), start=1):
        c = BARE_MODES.index(channel)
        assert decomp.chi_coeffs[c, qcd] == 0
        # the omega = 0 row is the sum of the other four poles, to the
        # rounding of a sum of terms that cancel
        terms = [decomp.chi_coeffs[c, j] * spectral_function(0.0, decomp.eigenvalues[j])
                 for j in range(5) if j != qcd]
        written = np.sqrt(data[zero[0], column] / prefactors[c])
        bound = 8 * np.finfo(float).eps * sum(abs(t) for t in terms)
        assert abs(written - abs(sum(terms))) <= bound


# v = kappa_b = 0 leaves the fiber lossless and decoupled: QCD is the exact root
# 0 of the symmetric cubic and carries no weight, so the totals are those of
# the atom1-cavity1 pair alone. Cardano gave the first point's root as -9e-44,
# which sent it to a singular Gramian solve.
@pytest.mark.parametrize("rates, initial", [
    (dict(g=1.5551179811576048, v=0, kappa=0, kappa_b=0, gamma=22.850860089288734), "cavity1"),
    (dict(g=2, v=0, kappa=1, kappa_b=0, gamma=5), "atom1"),
], ids=["cavity1", "atom1"])
def test_decoupled_lossless_fiber_spectrum_runs(tmp_path, capsys, rates, initial):
    text = "[params]\n" + "".join(f"{k} = {v!r}\n" for k, v in rates.items())
    cfg = write_cfg(tmp_path, text + f"\n[run]\ntype = spectrum\ninitial = {initial}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([str(cfg), "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out.split("channel totals: ")[1].split("\n")[0]
    params = SystemParams(**rates)
    decomp = full_decomposition(params, single_excitation(initial))
    assert decomp.eigenvalues[decomp.labels.index("QCD")] == 0
    pair = [BARE_MODES.index("atom1"), BARE_MODES.index("cavity1")]
    c0 = single_excitation(initial)[pair]
    gramian = solve_continuous_lyapunov(bare_generator(params)[np.ix_(pair, pair)],
                                        -np.outer(c0, c0.conj()))
    oracle = np.zeros(5)
    oracle[pair] = flux_weights(params)[pair] * gramian.diagonal().real
    error = max(abs(float(item.split("=")[1]) - x) for item, x in zip(printed.split(), oracle))
    print(f"{initial}: {printed} (pair oracle " + " ".join(f"{x:.6f}" for x in oracle)
          + f"); error {error:.1e} (bound 5e-7)")
    assert error <= 5e-7
    # the unit-2 totals are rounding noise of either sign; zero prints unsigned
    assert "-" not in printed, printed


def test_empty_config_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "")
    assert main([str(cfg)]) == 2
    assert "params" in capsys.readouterr().err


# g1/g2, v1/v2, kappa1/kappa2 and detuning are not config keys: the normal-mode
# picture every run needs holds for two identical resonant units only
@pytest.mark.parametrize("section, key", [
    ("run", "frequency"),
    *(("params", key) for key in ("g1", "g2", "v1", "v2", "kappa1", "kappa2", "detuning")),
])
def test_unknown_key_named_in_error(tmp_path, capsys, section, key):
    text = BASE.format(kind="trajectory").replace(f"[{section}]\n", f"[{section}]\n{key} = 3\n")
    cfg = write_cfg(tmp_path, text)
    assert main([str(cfg), "--out", str(tmp_path)]) == 2
    assert f"unknown key [{section}] {key}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_bad_number_named_in_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE.format(kind="trajectory").replace("g = 7", "g =弦"))
    assert main([str(cfg)]) == 2
    assert capsys.readouterr().err == "config error: [params] g = '弦' is not a number\n"


def test_undecodable_config_exits_2_with_one_line(tmp_path, capsys):
    # configs are read as UTF-8; a byte that is not UTF-8 is a config error, not a domain error
    cfg = tmp_path / "case.cfg"
    cfg.write_bytes(BASE.format(kind="spectrum").encode().replace(b"g = 7", b"g = 7\xff"))
    assert main([str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: cannot parse {cfg}: byte 0xff is not UTF-8\n"
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("section", ["params", "sweep"])
@pytest.mark.parametrize("rate", cli.RATES)
def test_negative_rate_names_its_config_key(tmp_path, capsys, section, rate):
    text = BASE.format(kind="spectrum")
    if section == "params":
        text = re.sub(rf"(?m)^{rate} = .*$", f"{rate} = -1", text)
    else:
        text += f"\n[sweep]\nparameter = {rate}\nvalues = 1, -1\n"
    cfg = write_cfg(tmp_path, text)
    assert main([str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: [{section}] {rate} must be finite and >= 0, got -1.0\n"
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("section", ["params", "sweep"])
@pytest.mark.parametrize("rate, value", [("g", "1e200"), ("g", "1e100"), ("kappa_b", "3e51")])
def test_rate_whose_cubic_overflows_exits_2(tmp_path, capsys, section, rate, value):
    # 1e200 overflows g^2 itself, 1e100 the cubic's discriminant, 3e51 is just past the bound
    text = BASE.format(kind="spectrum")
    if section == "params":
        text = re.sub(rf"(?m)^{rate} = .*$", f"{rate} = {value}", text)
    else:
        text += f"\n[sweep]\nparameter = {rate}\nvalues = 1, {value}\n"
    cfg = write_cfg(tmp_path, text)
    assert main([str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == (f"config error: [{section}] {rate} must be below 2.12e+51, where the cubic "
                   f"of the symmetric block overflows, got {float(value)}\n")
    assert not list(tmp_path.glob("*.csv"))


# zeta = 1e48 swamps the bright decay rate 1.8, and the cubic returns Re(QBS+) = -256
ROUNDED_AWAY = BASE.replace("g = 7", "g = 1e48")
# rates over ten decades: the cubic's roots miss the dense eigenvalues by 0.5
SPREAD = BASE.replace("g = 7", "g = 0.06397547078659621").replace(
    "v = 4", "v = 4.1215479160856986e-05").replace("kappa = 1", "kappa = 58890.27754347677").replace(
    "kappa_b = 0.01", "kappa_b = 0.00035742831429840357").replace(
    "gamma = 5.2", "gamma = 0.0015896637784815761")


@pytest.mark.parametrize("kind", ["spectrum", "decomposition"])
@pytest.mark.parametrize("base", [ROUNDED_AWAY, SPREAD], ids=["g=1e48", "spread"])
def test_roots_lost_to_rounding_exit_3(tmp_path, capsys, base, kind):
    cfg = write_cfg(tmp_path, base.format(kind=kind))
    assert main([str(cfg), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("domain error: the real parts of the symmetric block's roots miss")
    assert not list(tmp_path.glob("*.csv"))


def test_roots_lost_to_rounding_trajectory_runs(tmp_path, capsys):
    # RK4 integrates the bare amplitudes and needs no roots, as at p = 0
    text = SPREAD.format(kind="trajectory").replace("t_max = 1.0", "t_max = 1e-3").replace(
        "dt = 1e-3", "dt = 1e-5")
    cfg = write_cfg(tmp_path, text)
    assert main([str(cfg), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "case_trajectory.csv").exists()


def test_missing_config_exits_2(tmp_path, capsys):
    assert main([str(tmp_path / "nope.cfg")]) == 2
    assert "not found" in capsys.readouterr().err


def test_unknown_run_type_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE.format(kind="hologram"))
    assert main([str(cfg)]) == 2
    assert "hologram" in capsys.readouterr().err


SWEEP = "\n[sweep]\nparameter = {parameter}\nvalues = {values}\n"


# (run type, edit of BASE, the whole stderr line); {cfg} is the config's path
@pytest.mark.parametrize("kind, edit, message", [
    ("spectrum", lambda t: t.replace("gamma = 5.2\n", ""), "[params] missing key gamma"),
    ("spectrum", lambda t: t.replace("g = 7\n", "g = 7\ng = 8\n"),
     "cannot parse {cfg}: line 3: option 'g' in section 'params' already exists"),
    ("spectrum", lambda t: t + "\n[params]\n",
     "cannot parse {cfg}: line 16: section 'params' already exists"),
    ("spectrum", lambda t: "g = 7\n" + t,
     "cannot parse {cfg}: line 1: 'g = 7' comes before the first [section] header"),
    ("spectrum", lambda t: t + "cavity1\n",
     "cannot parse {cfg}: line 15: not a [section] header or a key = value line"),
    # values are literal text: no %-interpolation
    ("spectrum", lambda t: t.replace("g = 7\n", "g = 5%\n"), "[params] g = '5%' is not a number"),
    ("spectrum", lambda t: t.replace("g = 7\n", "g = %(v)s\n"),
     "[params] g = '%(v)s' is not a number"),
    ("spectrum", lambda t: t + "\n[x]\nk = 1\n", "unknown section [x]"),
    ("spectrum", lambda t: t.replace("initial = atom1", "initial = photon"),
     "[run] initial = 'photon' is not a mode name"),
    ("spectrum", lambda t: t.replace("record_every = 10", "record_every = 2.5"),
     "[run] record_every = '2.5' is not an integer"),
    ("trajectory", lambda t: t.replace("t_max = 1.0\n", ""),
     "[run] missing key t_max (required for trajectory runs)"),
    ("spectrum", lambda t: t + "omega_min = -5\nomega_points = 11\n",
     "[run] omega_min, omega_max and omega_points must be given together"),
    ("spectrum", lambda t: t + SWEEP.format(parameter="detuning", values="1"),
     "[sweep] parameter = 'detuning' is not one of g, v, kappa, kappa_b, gamma"),
    ("spectrum", lambda t: t + SWEEP.format(parameter="g", values=","),
     "[sweep] values must be a non-empty list of finite numbers"),
    ("spectrum", lambda t: t + SWEEP.format(parameter="g", values="1, inf"),
     "[sweep] values must be a non-empty list of finite numbers"),
], ids=["missing-rate", "duplicate-key", "duplicate-section", "no-section-header",
        "not-key-value", "percent", "interpolation", "unknown-section", "initial",
        "record_every", "t_max", "partial-grid", "sweep-parameter", "sweep-empty", "sweep-inf"])
def test_config_refusal_exits_2_with_its_line(tmp_path, capsys, kind, edit, message):
    cfg = write_cfg(tmp_path, edit(BASE.format(kind=kind)))
    assert main([str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: {message.format(cfg=cfg)}\n"
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("out", ["sub/dir/x", ""])
def test_out_that_is_not_a_file_name_prefix_exits_2(tmp_path, capsys, out):
    cfg = write_cfg(tmp_path, BASE.format(kind="spectrum") + f"out = {out}\n")
    assert main([str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (f"config error: [run] out = {out!r} is not a file "
                                       "name prefix: it is empty or holds a path separator\n")
    assert not list(tmp_path.rglob("*.csv"))


def test_out_directory_that_is_a_file_exits_4(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE.format(kind="spectrum"))
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main([str(cfg), "--out", str(taken)]) == 4
    assert capsys.readouterr().err == f"output error: {taken}: File exists\n"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs the /dev/full device")
def test_failed_write_names_its_file_and_exits_4(tmp_path, capsys):
    # a write to /dev/full fails with ENOSPC; the OSError of a write names no file
    cfg = write_cfg(tmp_path, BASE.format(kind="spectrum"))
    target = tmp_path / "case_spectrum.csv"
    target.symlink_to("/dev/full")
    assert main([str(cfg), "--out", str(tmp_path)]) == 4
    assert capsys.readouterr().err == f"output error: {target}: No space left on device\n"


@pytest.mark.parametrize("kind", ["trajectory", "spectrum", "decomposition"])
def test_uncoupled_run_exits_3(tmp_path, capsys, kind):
    text = BASE.format(kind=kind).replace("g = 7", "g = 0").replace("v = 4", "v = 0")
    cfg = write_cfg(tmp_path, text + "omega_min = -5\nomega_max = 5\nomega_points = 11\n")
    assert main([str(cfg), "--out", str(tmp_path)]) == 3
    assert "normal modes are undefined when g = v = 0" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("kind", ["trajectory", "spectrum", "decomposition"])
def test_underflowing_couplings_exit_3(tmp_path, capsys, kind):
    text = BASE.format(kind=kind).replace("g = 7", "g = 1e-300").replace("v = 4", "v = 1e-300")
    cfg = write_cfg(tmp_path, text)
    assert main([str(cfg), "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == ("domain error: g^2 + 2 v^2 underflows to 0 at g = 1e-300, "
                                       "v = 1e-300, so the normal modes are undefined\n")
    assert not list(tmp_path.glob("*.csv"))


def test_run_calls_the_kernels_by_the_names_perfbench_traces(tmp_path, monkeypatch):
    # perfbench/tracing.py times each layer by wrapping these module attributes, so a
    # run must reach its stacked kernels through them; it also reads a .basis, which
    # decompositions no longer have, off every full_decomposition result, so a run
    # must never call full_decomposition
    calls = Counter()
    for module, name in ((spectra, "channel_spectrum"), (spectra, "integrated_spectrum"),
                         (eigen, "symmetric_block"), (eigen, "antisymmetric_block"),
                         (eigen, "full_decomposition")):
        def counted(*args, _func=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _func(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    run_scenario(SCENARIO_DIR / "fig6.cfg", out_dir=tmp_path, quiet=True)
    print(dict(calls))
    for name in ("channel_spectrum", "integrated_spectrum", "symmetric_block",
                 "antisymmetric_block"):
        assert calls[name] >= 1, name
    assert calls["full_decomposition"] == 0


def test_console_entry_point(tmp_path):
    cfg = write_cfg(tmp_path, BASE.format(kind="spectrum"))
    proc = subprocess.run(
        [sys.executable, "-m", "fiberqed.cli", str(cfg), "--out", str(tmp_path), "--quiet"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob("*.cfg")))
def test_shipped_scenarios_parse(name):
    scn = parse_scenario(SCENARIO_DIR / name)
    assert scn.points and all(params.gamma == 5.2 for _, params in scn.points)


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob("*.cfg")))
def test_shipped_scenarios_run_quickly(name, tmp_path):
    start = time.perf_counter()
    # no warning either: the trajectories' conservation residuals are
    # 4e-14 to 1.2e-11, far below the AccuracyWarning bound of 5e-7
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        files = run_scenario(SCENARIO_DIR / name, out_dir=tmp_path, quiet=True)
    assert time.perf_counter() - start < 10.0
    assert files and all(f.exists() for f in files)
    for f in files:  # outputs are byte-identical to the recorded ones
        assert hashlib.sha256(f.read_bytes()).hexdigest() == DIGESTS[f.name], f.name


# eigenvalue and channel-total lines each shipped scenario prints (the
# conservation residuals are rounding noise and left out)
SUMMARIES = json.loads((ROOT / "tests" / "data" / "shipped_summaries.json").read_text())


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIO_DIR.glob("*.cfg")))
def test_shipped_scenarios_print_their_recorded_summaries(name, tmp_path, capsys):
    run_scenario(SCENARIO_DIR / f"{name}.cfg", out_dir=tmp_path)
    lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
    assert [line for line in lines
            if line.startswith(("== ", "eigenvalues:", "channel totals:"))] == SUMMARIES[name]


# --- CSV writer: the bytes of np.savetxt(fmt="%.12e", delimiter=",") --------

def savetxt_bytes(data):
    buf = io.StringIO()
    np.savetxt(buf, data, fmt="%.12e", delimiter=",")
    return buf.getvalue().encode()


def written_rows(directory, data):
    path = directory / "rows.csv"
    _write_csv(path, ["# header"], _csv_bodies(data[None])[0])
    return path.read_bytes()


# signed zeros, non-finite values, subnormals, the largest float, 3-digit exponents, a tie
SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310, 1e-300,
           1.7976931348623157e308, -1e300, 1234567890123.5, 0.5, 2.5e-5]


@settings(max_examples=60, deadline=None)
@given(
    pool=st.lists(st.floats(width=64), min_size=1, max_size=40),
    # the last two cross the cell budget, which formats them in blocks of rows
    shape=st.sampled_from([(1, 1), (7, 1), (511, 3), (512, 2), (513, 1), (1025, 2), (40, 18),
                           (cli._CELLS // 18 + 1, 18), (cli._CELLS + 3, 1)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_csv_writer_matches_savetxt(tmp_path_factory, pool, shape, seed):
    rng = np.random.default_rng(seed)
    drawn = rng.choice(np.array(pool + SPECIAL), size=shape)
    # magnitudes across the range, including 3-digit exponents
    spread = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, size=shape)
    # next to powers of ten, where log10 can round across the integer
    near = 10.0 ** rng.integers(-300, 300, size=shape) * (1 + 1e-15 * rng.integers(-99, 99, size=shape))
    data = np.choose(rng.integers(0, 3, size=shape), [drawn, spread, near])
    directory = tmp_path_factory.getbasetemp()
    assert written_rows(directory, data) == b"# header\n" + savetxt_bytes(data)


@pytest.mark.parametrize("value, text", [
    (1234567890123.5, "1.234567890124e+12"),  # exact tie: round half to even
    (1234567890122.5, "1.234567890122e+12"),
    (-2.5, "-2.500000000000e+00"),
    (9.99999999999996e5, "1.000000000000e+06"),  # rounds up into the next decade
    (0.9999999999999999, "1.000000000000e+00"),
    (9.99999999999949e274, "9.999999999999e+274"),  # log10 rounds up to 275
    (9.99999999999951e274, "1.000000000000e+275"),
    (-9.999999999999996e99, "-1.000000000000e+100"),  # the exponent gains a digit
    (9.99999999999999e-100, "1.000000000000e-99"),  # the exponent loses one
    (5e-324, "4.940656458412e-324"),
    (1.7976931348623157e308, "1.797693134862e+308"),
    (-0.0, "-0.000000000000e+00"),
])
def test_csv_writer_pinned_cells(tmp_path, value, text):
    data = np.array([[value, 1.0], [0.0, value]])
    expected = f"# header\n{text},1.000000000000e+00\n0.000000000000e+00,{text}\n"
    assert written_rows(tmp_path, data) == expected.encode()
    assert savetxt_bytes(data) == expected.encode()[len("# header\n"):]


def test_csv_bodies_split_a_stack_into_its_files(tmp_path):
    # one _format_rows call for the whole stack, split after each file's last
    # row, gives every file the bytes it has when formatted alone
    rng = np.random.default_rng(7)
    stack = rng.standard_normal((5, 9, 4)) * 10.0 ** rng.integers(-200, 200, (5, 9, 4))
    stack[2, 3, 1] = np.nan  # a slow-path cell does not move the split
    bodies = _csv_bodies(stack)
    assert len(bodies) == 5
    for data, body in zip(stack, bodies):
        assert b"".join(body) == savetxt_bytes(data)


def test_csv_writer_rewrites_in_place(tmp_path):
    long, short = np.arange(600.0).reshape(200, 3), np.array([[1.5, -2.0]])
    before = written_rows(tmp_path, long)
    inode = (tmp_path / "rows.csv").stat().st_ino
    # a shorter rewrite leaves nothing of the longer file behind
    assert written_rows(tmp_path, short) == b"# header\n" + savetxt_bytes(short)
    assert (tmp_path / "rows.csv").stat().st_ino == inode
    assert written_rows(tmp_path, long) == before
