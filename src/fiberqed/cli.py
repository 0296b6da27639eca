"""Scenario runner: reproduces the data behind each figure as CSV files.

Config files use flat ``key = value`` lines in three sections, [params],
[run] and an optional [sweep].  Output is comma-separated text with a
'#'-prefixed header that echoes the full parameter set, so every file is
self-documenting and byte-identical across runs.

A sweep runs as stacked passes: all points are decomposed in one call,
and the spectra, channel totals and CSV bytes of a spectrum or
decomposition run are computed for a chunk of points at a time, bounded
by one cell budget.  Files are still written point by point, and a point
that cannot run fails at its turn, after the files of the points before.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import dataclass, fields, replace
from itertools import combinations, repeat
from pathlib import Path

import numpy as np

from . import dynamics, eigen, spectra
from .errors import ConfigInvalid, DegenerateBlock, UnlabeledModes
from .model import BARE_MODES, NORMAL_MODES, SystemParams, single_excitation

__all__ = ["Scenario", "parse_scenario", "run_scenario", "main"]

RUN_KINDS = ("trajectory", "spectrum", "decomposition")
# sweep parameter -> the SystemParams fields it sets
SWEEPABLE = {
    "g": ("g1", "g2"),
    "v": ("v1", "v2"),
    "kappa": ("kappa1", "kappa2"),
    "kappa_b": ("kappa_b",),
    "gamma": ("gamma",),
}
_FMT = "%.12e"


@dataclass
class Scenario:
    name: str
    params: SystemParams
    initial: str
    run: str
    channels: tuple
    t_max: float | None
    dt: float
    record_every: int
    omega_grid: np.ndarray | None  # None for each point's default grid
    points: tuple             # ((parameter, value) or None, SystemParams) per point
    out_base: str


def _floats(section, key, raw):
    try:
        return float(raw)
    except ValueError:
        raise ConfigInvalid(f"[{section}] {key} = {raw!r} is not a number") from None


_PARAM_KEYS = {
    "g", "g1", "g2", "v", "v1", "v2", "kappa", "kappa1", "kappa2",
    "kappa_b", "gamma", "detuning",
}
_RUN_KEYS = {
    "type", "initial", "channels", "t_max", "dt", "record_every",
    "omega_min", "omega_max", "omega_points", "out",
}
_SWEEP_KEYS = {"parameter", "values"}


def parse_scenario(path) -> Scenario:
    """Parse and validate a scenario file; ConfigInvalid names bad keys."""
    path = Path(path)
    cp = ConfigParser(inline_comment_prefixes=("#",))
    try:
        read = cp.read(path)
    except ConfigParserError as exc:
        raise ConfigInvalid(f"cannot parse {path}: {exc}") from None
    if not read:
        raise ConfigInvalid(f"config file {path} not found")
    for section in cp.sections():
        if section not in ("params", "run", "sweep"):
            raise ConfigInvalid(f"unknown section [{section}]")
    if not cp.has_section("params"):
        raise ConfigInvalid("missing required section [params]")
    if not cp.has_section("run"):
        raise ConfigInvalid("missing required section [run]")

    raw_params = dict(cp.items("params"))
    for key in raw_params:
        if key not in _PARAM_KEYS:
            raise ConfigInvalid(f"unknown key [params] {key}")

    def both(common, one, two, required=True):
        if common in raw_params:
            if one in raw_params or two in raw_params:
                raise ConfigInvalid(f"[params] give either {common} or {one}/{two}, not both")
            val = _floats("params", common, raw_params[common])
            return val, val
        if one in raw_params and two in raw_params:
            return (_floats("params", one, raw_params[one]),
                    _floats("params", two, raw_params[two]))
        if required:
            raise ConfigInvalid(f"[params] missing key {common} (or {one} and {two})")
        return 0.0, 0.0

    g1, g2 = both("g", "g1", "g2")
    v1, v2 = both("v", "v1", "v2")
    k1, k2 = both("kappa", "kappa1", "kappa2")
    for key in ("kappa_b", "gamma"):
        if key not in raw_params:
            raise ConfigInvalid(f"[params] missing key {key}")
    kappa_b = _floats("params", "kappa_b", raw_params["kappa_b"])
    gamma = _floats("params", "gamma", raw_params["gamma"])
    detuning = _floats("params", "detuning", raw_params.get("detuning", "0"))
    try:
        params = SystemParams(g1, g2, v1, v2, k1, k2, kappa_b, gamma, detuning)
    except ValueError as exc:
        raise ConfigInvalid(f"[params] {exc}") from None

    raw_run = dict(cp.items("run"))
    for key in raw_run:
        if key not in _RUN_KEYS:
            raise ConfigInvalid(f"unknown key [run] {key}")
    kind = raw_run.get("type")
    if kind is None:
        raise ConfigInvalid("[run] missing key type")
    if kind not in RUN_KINDS:
        raise ConfigInvalid(
            f"[run] type = {kind!r} is not one of {', '.join(RUN_KINDS)}"
        )
    initial = raw_run.get("initial", "atom1")
    try:
        single_excitation(initial)
    except ValueError:
        raise ConfigInvalid(f"[run] initial = {initial!r} is not a mode name") from None

    channels = tuple(
        c for c in re.split(r"[,\s]+", raw_run.get("channels", "cavity1,cavity2")) if c
    )
    if not channels:
        raise ConfigInvalid("[run] channels must name at least one channel")
    for i, c in enumerate(channels):
        if c not in BARE_MODES:
            raise ConfigInvalid(f"[run] channels entry {c!r} is not a channel")
        if c in channels[:i]:
            raise ConfigInvalid(f"[run] channels entry {c!r} is repeated")

    t_max = None
    if kind == "trajectory":
        if "t_max" not in raw_run:
            raise ConfigInvalid("[run] missing key t_max (required for trajectory runs)")
        t_max = _floats("run", "t_max", raw_run["t_max"])
    dt = _floats("run", "dt", raw_run.get("dt", "1e-4"))
    try:
        record_every = int(raw_run.get("record_every", "1"))
    except ValueError:
        raise ConfigInvalid(f"[run] record_every = {raw_run['record_every']!r} "
                            "is not an integer") from None

    omega_grid = None
    omega_keys = [k for k in ("omega_min", "omega_max", "omega_points") if k in raw_run]
    if omega_keys:
        if len(omega_keys) != 3:
            raise ConfigInvalid("[run] omega_min, omega_max and omega_points "
                                "must be given together")
        lo, hi, n = (_floats("run", k, raw_run[k])
                     for k in ("omega_min", "omega_max", "omega_points"))
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ConfigInvalid(f"[run] omega_min = {lo} must be below omega_max = {hi}")
        if not (n.is_integer() and n >= 2):
            raise ConfigInvalid(f"[run] omega_points = {raw_run['omega_points']!r} "
                                "is not an integer >= 2")
        omega_grid = np.linspace(lo, hi, int(n))
        if not np.all(np.diff(omega_grid) > 0):
            raise ConfigInvalid(f"[run] omega_points = {int(n)} samples of "
                                f"[{lo}, {hi}] are not strictly increasing")

    points = ((None, params),)
    if cp.has_section("sweep"):
        raw_sweep = dict(cp.items("sweep"))
        for key in raw_sweep:
            if key not in _SWEEP_KEYS:
                raise ConfigInvalid(f"unknown key [sweep] {key}")
        for key in _SWEEP_KEYS:
            if key not in raw_sweep:
                raise ConfigInvalid(f"[sweep] missing key {key}")
        parameter = raw_sweep["parameter"]
        if parameter not in SWEEPABLE:
            raise ConfigInvalid(
                f"[sweep] parameter = {parameter!r} is not one of {', '.join(SWEEPABLE)}"
            )
        values = tuple(
            _floats("sweep", "values", x)
            for x in re.split(r"[,\s]+", raw_sweep["values"]) if x
        )
        if not values or not all(np.isfinite(values)):
            raise ConfigInvalid("[sweep] values must be a non-empty list of finite numbers")
        suffixes = {}  # each value names its output files through f"{value:g}"
        points = []
        for value in values:
            tag = f"{value:g}"
            if tag in suffixes:
                raise ConfigInvalid(f"[sweep] values {suffixes[tag]!r} and {value!r} "
                                    f"both give the file suffix {parameter}{tag}")
            suffixes[tag] = value
            try:
                point_params = replace(params, **dict.fromkeys(SWEEPABLE[parameter], value))
            except ValueError as exc:
                raise ConfigInvalid(f"[sweep] {parameter} = {value!r}: {exc}") from None
            points.append(((parameter, value), point_params))

    return Scenario(
        name=path.stem,
        params=params,
        initial=initial,
        run=kind,
        channels=channels,
        t_max=t_max,
        dt=dt,
        record_every=record_every,
        omega_grid=omega_grid,
        points=tuple(points),
        out_base=raw_run.get("out", path.stem),
    )


def _header(scn: Scenario, params: SystemParams, columns, point=None) -> list:
    lines = [f"# fiberqed scenario: {scn.name}"]
    lines.append(
        "# params: "
        + " ".join(f"{f.name}={getattr(params, f.name):.9g}" for f in fields(params))
    )
    run_line = f"# run: type={scn.run} initial={scn.initial}"
    if point is not None:
        run_line += f" sweep: {point[0]}={point[1]:.9g}"
    lines.append(run_line)
    lines.append("# columns: " + ",".join(columns))
    return lines


# CSV cells formatted per _format_rows call and per chunk of sweep points:
# bounds the stacked spectra, the byte slots (~0.4 MB) and their temporaries.
_CELLS = 1 << 14
# A cell is formatted into a 24-byte slot of native-order words: (pad, sign,
# leading digit, "."), three 4-digit groups, then ("e", exponent sign,
# hundreds digit, tens, ones, delimiter, pad, pad); pads are 0 and dropped.
_DIGIT = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_DIGITS4 = np.empty((10, 10, 10, 10, 4), np.uint8)  # "0000" ... "9999"
_DIGITS4[..., 0] = _DIGIT[:, None, None, None]
_DIGITS4[..., 1] = _DIGIT[:, None, None]
_DIGITS4[..., 2] = _DIGIT[:, None]
_DIGITS4[..., 3] = _DIGIT
_DIGITS4 = _DIGITS4.reshape(10_000, 4)
_HEAD = np.zeros((20, 4), np.uint8)  # row 10 * signbit(x) + leading digit
_HEAD[10:, 1] = ord("-")
_HEAD[:, 2] = np.arange(20) % 10 + ord("0")
_HEAD[:, 3] = ord(".")
_EXPONENT = np.zeros((601, 8), np.uint8)  # row e + 300
_EXPONENT[:, 0] = ord("e")
_EXPONENT[:, 1] = np.where(np.arange(601) < 300, ord("-"), ord("+"))
_EXPONENT[:, 2:5] = _DIGITS4[np.abs(np.arange(-300, 301)), 1:]
_EXPONENT[201:400, 2] = 0  # |e| < 100 prints two digits
_EXPONENT[:, 5] = ord(",")
_HEAD = _HEAD.view(np.uint32).ravel()
_GROUP = _DIGITS4.view(np.uint32).ravel()
_EXPONENT = _EXPONENT.view(np.uint64).ravel()
# 10**k correctly rounded (the float parser rounds correctly), row k + 300
_POW10 = np.array([float(f"1e{k}") for k in range(-300, 301)])
# s - floor(s) must be this far from 1/2 for rint(s) to be the correct mantissa
_TIE_GUARD = 2.0 ** -8


def _format_rows(rows: np.ndarray) -> bytes:
    """Return exactly the bytes of np.savetxt(rows, fmt=_FMT, delimiter=",").

    For 1e-280 <= |x| <= 1e280 the decimal exponent e comes from
    floor(log10|x|), corrected once where the scaled value
    s = |x| * 10**(12 - e) falls outside [1e12, 1e13): next to a power of
    ten, log10 can round across the integer. The 13-digit mantissa is
    m = rint(s), carried into the next decade when it reaches 1e13. The
    power of ten is correctly rounded and the product is rounded once, so
    |s - s_exact| <= (2u + u**2) s < 2.3e-3 for s <= 1e13 (u = 2**-53), and
    rint(s) is the correctly rounded mantissa unless s lies that close to a
    half-integer. A signed zero is exact: mantissa 0, exponent +00. Cells
    with s within _TIE_GUARD = 2**-8 of a half-integer, non-finite values
    and nonzero magnitudes outside the range are formatted by `_FMT % x`.
    """
    n_rows, n_cols = rows.shape
    x = rows.ravel()
    a = np.abs(x)
    zero = a == 0
    fast = (a >= 1e-280) & (a <= 1e280)  # False for 0, nan and inf
    a = np.where(fast, a, 1.0)  # zeros go through as 1.0: e = 0, then m = 0
    e = np.floor(np.log10(a)).astype(np.int64)
    s = a * _POW10[312 - e]
    e += (s >= 1e13).astype(np.int64) - (s < 1e12)
    s = a * _POW10[312 - e]
    m = np.rint(s)
    fast &= np.abs(s - np.floor(s) - 0.5) > _TIE_GUARD
    fast |= zero
    carry = m == 1e13
    m = np.where(carry, 1e12, m)
    m[zero] = 0
    m = m.astype(np.int64)
    e += carry

    # digit groups: m = lead * 10**12 + g1 * 10**8 + g2 * 10**4 + g3
    # (np.divmod on int64 is several times slower than // and a product)
    head = m // 10**8
    low = m - head * 10**8
    lead = head // 10**4
    g1 = head - lead * 10**4
    g2 = low // 10**4
    g3 = low - g2 * 10**4
    slots = np.empty((x.size, 24), np.uint8)
    words = slots.view(np.uint32)
    words[:, 0] = _HEAD[10 * np.signbit(x) + lead]
    words[:, 1] = _GROUP[g1]
    words[:, 2] = _GROUP[g2]
    words[:, 3] = _GROUP[g3]
    slots.view(np.uint64)[:, 2] = _EXPONENT[e + 300]
    slow = np.flatnonzero(~fast)
    if slow.size:  # at most 20 characters, then 0 up to the delimiter
        text = np.array([_FMT % v for v in x[slow].tolist()], dtype="S21")
        slots[slow, :21] = text.view(np.uint8).reshape(-1, 21)
    slots.reshape(n_rows, n_cols, 24)[:, -1, 21] = ord("\n")
    return slots.tobytes().translate(None, b"\0")


def _open_untruncated(path, flags):
    # ext4 flushes a file truncated to zero length when it is closed, which
    # makes a rerun into the same directory wait on the disk once per file
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _row_blocks(rows: np.ndarray):
    """The bytes of rows (n, columns), formatted in blocks of at most _CELLS cells."""
    step = max(1, _CELLS // rows.shape[1])
    for start in range(0, len(rows), step):
        yield _format_rows(rows[start:start + step])


def _csv_bodies(data: np.ndarray) -> list:
    """The CSV body of each file of data (files, rows, columns), as byte pieces.

    Files that fit _CELLS together are formatted in one _format_rows call,
    whose bytes are split after the last row of each file; the files of a
    larger stack are formatted one at a time, in blocks, as they are written.
    """
    n_files, n_rows, n_cols = data.shape
    if data.size > _CELLS:
        return [_row_blocks(rows) for rows in data]
    text = _format_rows(data.reshape(n_files * n_rows, n_cols))
    newlines = np.flatnonzero(np.frombuffer(text, np.uint8) == ord("\n"))
    ends = (newlines[n_rows - 1::n_rows] + 1).tolist()
    view = memoryview(text)
    return [[view[start:end]] for start, end in zip([0, *ends], ends)]


def _write_csv(path: Path, header, body) -> None:
    """Write the header lines, then the byte pieces of the body (see _csv_bodies).

    An existing file is overwritten in place and then cut to the new length,
    so it ends up with the same bytes as one opened with truncation.
    """
    with open(path, "wb", opener=_open_untruncated) as fh:
        fh.write(("\n".join(header) + "\n").encode())
        fh.writelines(body)
        fh.truncate()


def _spectral_results(scn: Scenario, decomps):
    """Per point of a spectrum or decomposition run: (channel totals, CSV
    bodies in file order), its DivergentIntegral, or None if it failed before.

    The points go in chunks of at most _CELLS CSV cells (at least one
    point).  The runnable points of a chunk get their totals from one
    stacked Gramian solve, their spectra from one stacked kernel call and
    their CSV bytes from one _format_rows call; a chunk is evaluated when
    its first point is asked for, so memory does not grow with the sweep.
    """
    decomposition = scn.run == "decomposition"
    n_rows = (scn.omega_grid.size if scn.omega_grid is not None
              else spectra._GRID_POINTS)
    # omega, total, 5 Lorentzians, 10 interference terms, lorentzian_sum
    n_cols = 18 if decomposition else 1 + len(scn.channels)
    n_files = len(scn.channels) if decomposition else 1
    per_chunk = max(1, _CELLS // (n_files * n_rows * n_cols))
    for start in range(0, len(decomps), per_chunk):
        chunk = decomps[start:start + per_chunk]
        # _run_point raises for a failed or, in a decomposition run, unlabeled point
        ok = [i for i, decomp in enumerate(chunk) if not isinstance(decomp, Exception)
              and (decomp.labels is not None or not decomposition)]
        results = [None] * len(chunk)
        for i, totals in zip(ok, spectra.stacked_totals([chunk[i] for i in ok])):
            results[i] = totals  # a DivergentIntegral stays as the result
        ok = [i for i in ok if not isinstance(results[i], Exception)]
        if ok:
            bodies = _csv_bodies(_chunk_rows(scn, [chunk[i] for i in ok]))
            for k, i in enumerate(ok):
                totals = dict(zip(BARE_MODES, results[i].tolist()))
                results[i] = totals, bodies[k * n_files:(k + 1) * n_files]
        yield from results


def _chunk_rows(scn: Scenario, decomps) -> np.ndarray:
    """CSV rows (files, grid points, columns) of runnable spectral points, in file order."""
    spec = spectra.channel_spectra(decomps, scn.channels, scn.omega_grid)
    grid = np.broadcast_to(spec.omega_grid, spec.amplitude.shape)
    if scn.run == "spectrum":
        data = np.concatenate([grid[:, :1], spec.spectrum], axis=1)  # (points, 1 + C, G)
    else:
        prefactor = spec.prefactor[..., None]
        data = np.concatenate([
            grid[:, :, None], spec.spectrum[:, :, None],
            prefactor * spec.lorentzians, prefactor * spec.interferences,
            spectra.lorentzian_approximation(spec)[:, :, None],
        ], axis=2)  # (points, C, 18, G): one file per point and channel
        data = data.reshape(-1, *data.shape[2:])
    return data.transpose(0, 2, 1)


def _run_point(scn: Scenario, params: SystemParams, decomp, out_dir: Path, point=None,
               result=None):
    """Execute one parameter point; returns (files, summary lines).

    decomp is the point's entry of eigen.full_decompositions: the
    decomposition, or the error its computation raised.  Every run type
    needs the normal-mode picture, so the derive_rates error of an
    asymmetric or g = v = 0 point is raised here.  result is the point's
    entry of _spectral_results for a spectrum or decomposition run.
    """
    suffix = f"_{point[0]}{point[1]:g}" if point is not None else ""
    if isinstance(decomp, Exception):
        # at the critical point p = 0 there is no eigenbasis; a trajectory
        # uses the decomposition only for this summary line
        if not (isinstance(decomp, DegenerateBlock) and scn.run == "trajectory"):
            raise decomp
        eigenvalues, labels = np.linalg.eigvals(dynamics.bare_generator(params)), None
    else:
        eigenvalues, labels = decomp.eigenvalues, decomp.labels
    if labels is not None:
        lam = ", ".join(f"{lbl}: {eigenvalues[j]:.6g}" for j, lbl in enumerate(labels))
    else:
        lam = ", ".join(f"{x:.6g}" for x in eigenvalues)
    summary = [f"eigenvalues: {lam}"]

    files = []
    if scn.run == "trajectory":
        cfg = dynamics.IntegratorConfig(
            dt=scn.dt, t_max=scn.t_max, record_every=scn.record_every
        )
        traj = dynamics.evolve_bare(params, single_excitation(scn.initial), cfg)
        occ = dynamics.occupations(traj)
        modes = (*BARE_MODES, *NORMAL_MODES)
        cols = ["t", *modes, "survival"] + [f"p_{c}" for c in BARE_MODES]
        data = ([traj.times] + [occ[c] for c in modes] + [traj.survival]
                + [traj.channel_probs[c] for c in BARE_MODES])
        path = out_dir / f"{scn.out_base}{suffix}_trajectory.csv"
        _write_csv(path, _header(scn, params, cols, point), _row_blocks(np.column_stack(data)))
        files.append(path)
        totals = {c: traj.channel_probs[c][-1] for c in BARE_MODES}
        residual = traj.survival[-1] + sum(totals.values()) - 1.0
    else:
        if scn.run == "decomposition" and labels is None:
            raise UnlabeledModes(
                "coincident eigenvalues in the symmetric block leave the quasi modes "
                "unlabeled; a decomposition run needs the labels"
            )
        # a non-decaying excited mode fails here, before any file of this point
        if isinstance(result, Exception):
            raise result
        totals, bodies = result
        if scn.run == "spectrum":
            outputs = [("spectrum", ["omega", *scn.channels])]
        else:
            cols = (["omega", "total"]
                    + [f"lorentzian_{n}" for n in labels]
                    + [f"w_{labels[j]}_{labels[k]}" for j, k in combinations(range(5), 2)]
                    + ["lorentzian_sum"])
            outputs = [(f"decomposition_{c}", cols) for c in scn.channels]
        for (kind, cols), body in zip(outputs, bodies):
            path = out_dir / f"{scn.out_base}{suffix}_{kind}.csv"
            _write_csv(path, _header(scn, params, cols, point), body)
            files.append(path)
        residual = sum(totals.values()) - 1.0
    summary.append(
        "channel totals: "
        + " ".join(f"{c}={totals[c]:.6f}" for c in BARE_MODES)
    )
    summary.append(f"conservation residual: {residual:+.3e}")
    return files, summary


def run_scenario(config_path, out_dir=None, quiet=False) -> list:
    """Run one scenario file; returns the list of files written.

    Every point of a sweep is decomposed in one stacked call before the
    first point runs.  The spectra, channel totals and CSV bytes of a
    spectrum or decomposition run are computed in chunks of points (see
    _spectral_results), and the files are written point by point.  A point
    that cannot run raises when its turn comes, after the files of the
    points before it.
    """
    scn = parse_scenario(config_path)
    out = Path(out_dir) if out_dir is not None else Path.cwd()
    out.mkdir(parents=True, exist_ok=True)

    decomps = eigen.full_decompositions(
        [params for _, params in scn.points], single_excitation(scn.initial)
    )
    results = (repeat(None) if scn.run == "trajectory"
               else _spectral_results(scn, decomps))

    written = []
    for (point, point_params), decomp, result in zip(scn.points, decomps, results):
        files, summary = _run_point(scn, point_params, decomp, out, point, result)
        written.extend(files)
        if not quiet:
            tag = f" [{point[0]}={point[1]:g}]" if point is not None else ""
            print(f"== {scn.name}{tag}")
            for line in summary:
                print("   " + line)
            for path in files:
                print(f"   wrote {path}")
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Run a fiber-linked cavity-QED scenario file.",
    )
    parser.add_argument("config", help="scenario config file")
    parser.add_argument("--out", default=None, metavar="DIR", help="output directory")
    parser.add_argument("--quiet", action="store_true", help="suppress the summary")
    args = parser.parse_args(argv)
    try:
        run_scenario(args.config, out_dir=args.out, quiet=args.quiet)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
